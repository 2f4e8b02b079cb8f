"""IC3 engine: delta-encoded frames, proof-obligation queue, predecessor
lifting, MIC generalization (standard / CTG / extended-CTG) with dynamic
strategy escalation, forward propagation, and constraint localization
abstraction.

In dynamic mode each obligation cube starts at standard MIC and moves up
on failed blocks: to CTG after `DYNAMIC_T1`, to extended CTG after
`DYNAMIC_T2`, but only once a CTG MIC on that cube has blocked a CTG.  A
cube whose CTGs never block stays at CTG: extended CTG only adds recursive
blocks of CTGs, the costliest step.

Every query runs on one incremental solver.  A query at frame i
takes the shape F_{i-1} ∧ constraints ∧ ¬c ∧ T ∧ c′: the blocking clause
¬c enters as a temporary clause, the primed cube as assumptions, and the
frames activate through per-level activation literals.  Decisions and
propagation are restricted to the cone of influence of the query (closed
over lemma co-occurrence so a partial model always extends to a full one),
so a model leaves the vars outside it unassigned.  A domain
depends only on the cube's var set and the co-occurrence graph, so it is
cached per var set.  A new lemma's vars form a clique, so it drops only
the cached domains that hold some, but not all, of them.

A sat query's model is lifted to a predecessor cube with no further query,
by justification over `TranSys.defs`: a walk from the constraints and the
targets, true in the model, to the latches.  A true AND needs all its
fanins; a false one needs one false fanin, an input or the constant if one
is false, else the first.  Under the model's input bits, every state in the
cube of latch literals the walk reaches satisfies the constraints and steps
into the targets; this is the end ternary simulation serves in the PDR of
Eén, Mishchenko and Brayton ("Efficient Implementation of Property Directed
Reachability", FMCAD 2011).  A walk that reaches no latch gives the empty
cube: every state, an initial one too, steps into the targets.  Every cube
names only latches of the system, so `cube_intersects_init` decides overlap
with init exactly.

A state is held as two int masks over the latches, of the ones it makes
true and of the ones it makes false, and each lemma enters a log as its
level and the masks of its positive and negative literals; a state refutes
a lemma, so satisfies its clause, if one of its literals is false there.

Each sat answer of `solve_relative` enters a ring of the last
`MODEL_RING`, as its level, its state and next-state masks, its model and
the length of the lemma log.  A lemma's last failed push also leaves its
answer in `_push_cex`, an entry of the same form: on long runs that state
is often older than the last `MODEL_RING` answers.  A query at level i on
cube c is answered with no solver call from c's own entry, else from the
newest ring entry, that satisfies it as it stands: one recorded at a level
<= i, whose next state lies in c, whose state lies outside c if the query
blocks c, whose state refutes every lemma logged since at level i-1 or
above, and that assigns every var of the query's domain, so that lifting
reads no open var.  That model becomes the current one, which
`_model_state_cube`, `_model_inputs` and the lifting walk read.  A lemma's
entry takes the level of the push query it answered and the log length of
that time, also when a lower entry answered it: the new length passes over
lemmas logged below the query's frame, which the state was never checked
against, so a lower level would let a lower query reuse it unsoundly.  An
entry goes when its lemma leaves its level.  The log is cut after each
propagation pass to the lemmas that the oldest stored entry has not yet seen.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, FrozenSet, List, Optional, Sequence,
                    Set, Tuple)

from .aiger import WitnessTrace, replay
from .logic import Cube, negate, subsumes
from .satcore import UNDEF, Solver, SolverStats
from .transys import TranSys, coi_vars, encode
from .verdicts import InvariantCert, Verdict, safe, unknown, unsafe

STANDARD = "standard"
CTG = "ctg"
EXCTG = "exctg"
DYNAMIC = "dynamic"

MAX_FRAMES = 20000
CTG_DEPTH = 1  # recursion depth of CTG blocking inside MIC
CTG_LIMIT = 3  # CTGs blocked per candidate before joining
EXCTG_BUDGET = 200  # relative-induction queries per extended-CTG MIC call
DOMAIN_CACHE_LIMIT = 1024  # cached query domains before the cache starts over
MODEL_RING = 32  # last sat answers a relative-induction query may reuse
DYNAMIC_T1 = 3  # failed blocks before a dynamic cube escalates to CTG
DYNAMIC_T2 = 6  # failed blocks before it may escalate to extended CTG

# translations of a model byte to 1 where the var is true (_TRUE) or false
# (_FALSE), and to 0 elsewhere
_TRUE = bytes.maketrans(bytes((0, 1, UNDEF)), bytes((0, 1, 0)))
_FALSE = bytes.maketrans(bytes((0, 1, UNDEF)), bytes((1, 0, 0)))


@dataclass
class Ic3Options:
    strategy: str = DYNAMIC  # standard | ctg | exctg | dynamic
    abs_cst: bool = False


@dataclass
class MicRecord:
    strategy: str
    size_in: int
    size_out: int
    level: int


@dataclass
class Ic3Stats:
    frames: int = 0
    lemmas: int = 0
    solver_calls: int = 0
    block_attempts: int = 0
    obligations: int = 0
    ctg_blocks: int = 0
    abstraction_refinements: int = 0
    ring_answers: int = 0  # queries a stored model answered, not in solver_calls
    mic_calls: Dict[str, int] = field(default_factory=dict)
    mic_records: List[MicRecord] = field(default_factory=list)
    solver: Optional[SolverStats] = None  # the one solver's counts


def select_strategy(failed_attempts: int, options: Ic3Options) -> str:
    """Escalation schedule for one obligation cube (monotone in failures)."""
    if options.strategy != DYNAMIC:
        return options.strategy
    if failed_attempts < DYNAMIC_T1:
        return STANDARD
    if failed_attempts < DYNAMIC_T2:
        return CTG
    return EXCTG


class _Cancelled(Exception):
    pass


class _Obligation:
    __slots__ = ("level", "cube", "inputs", "succ")

    def __init__(self, level, cube, inputs, succ):
        self.level = level
        self.cube = cube
        self.inputs = inputs  # input bit vector driving the step FROM this state
        self.succ = succ


class IC3:
    """One IC3 run over a fixed constraint set; see `check` for the CEGAR
    wrapper that re-runs with constraints localized."""

    def __init__(
        self,
        ts: TranSys,
        options: Optional[Ic3Options] = None,
        cancel: Optional[Callable[[], bool]] = None,
    ):
        self.options = options or Ic3Options()
        self.ts = ts
        self.cancel = cancel

        self.solver = Solver()
        ts.load(self.solver, ts.constraints)
        self.stats = Ic3Stats(mic_calls={STANDARD: 0, CTG: 0, EXCTG: 0},
                              solver=self.solver.stats)

        # frame 0 = init, activated like a lemma set
        self.acts: List[int] = [self.solver.new_var()]
        for l in ts.init_lits:
            self.solver.add_clause((l, 2 * self.acts[0] + 1))
        self.frames: List[Set[Cube]] = [set()]
        self.k = 0

        # lemma co-occurrence between state vars, for domain closure
        self._adj: Dict[int, Set[int]] = {}
        self._domains: Dict[Optional[FrozenSet[int]], Set[int]] = {}
        self._state_vars = sorted(ts.latch_vars)
        self._primed_vars = [ts.next_map[v] for v in self._state_vars]
        self._bit = {v: 1 << 8 * i for i, v in enumerate(self._state_vars)}
        self._free = {0, *ts.input_vars}  # the lifting walk's preferred leaves
        # per obligation cube: [failed blocks, whether a MIC on it blocked a CTG]
        self._escalation: Dict[Cube, list] = {}
        # per lemma: the ring-format entry of its last failed push
        self._push_cex: Dict[Cube, tuple] = {}
        # (level, positive mask, negative mask) of each lemma added since
        # absolute position _log_base
        self._lemma_log: List[Tuple[int, int, int]] = []
        self._log_base = 0
        # the current model, one byte per var (1 true, 0 false, UNDEF open),
        # and the last sat answers of solve_relative, newest first:
        # (level, next-state true and false masks, state true and false
        # masks, model, lemma-log length)
        self._model = b""
        self._ring: Deque[tuple] = deque(maxlen=MODEL_RING)
        self._answer: tuple = ()  # the ring entry of the current model

    # -- plumbing -----------------------------------------------------------

    def _check_cancel(self) -> None:
        if self.cancel is not None and self.cancel():
            raise _Cancelled()

    def _new_frame(self) -> None:
        self.acts.append(self.solver.new_var())
        self.frames.append(set())
        self.k += 1
        self.stats.frames = self.k

    def _frame_assumptions(self, i: int) -> List[int]:
        """Activation literals selecting F_i (all levels >= i)."""
        return [2 * self.acts[j] for j in range(i, self.k + 1)]

    def _query_domain(self, cube: Optional[Cube]) -> Set[int]:
        """Decision domain of a relative-induction query on `cube`, or of
        get-bad for None; cached per cube var set until `_adj` grows."""
        key = None if cube is None else frozenset(l >> 1 for l in cube)
        domain = self._domains.get(key)
        if domain is None:
            roots = [self.ts.bad >> 1]
            if cube is not None:
                roots.extend(l >> 1 for l in self.ts.constraints)
                for l in cube:
                    roots.append(l >> 1)
                    roots.append(self.ts.next_map[l >> 1])
            if len(self._domains) >= DOMAIN_CACHE_LIMIT:
                self._domains.clear()
            domain = self._domains[key] = coi_vars(roots, self.ts.defs, self._adj)
        return domain

    def _model_state_cube(self) -> Cube:
        m = self._model
        return tuple(2 * v + (m[v] ^ 1) for v in self._state_vars if m[v] != UNDEF)

    def _model_inputs(self) -> List[int]:
        m = self._model
        return [m[v] & 1 for v in self.ts.input_vars]  # an open input reads 0

    def _masks(self, vars_: Sequence[int]) -> Tuple[int, int]:
        """Masks, by latch position, of the vars the current model makes true
        and of those it makes false."""
        b = bytes(map(self._model.__getitem__, vars_))
        return (int.from_bytes(b.translate(_TRUE), "little"),
                int.from_bytes(b.translate(_FALSE), "little"))

    def _cube_masks(self, cube: Cube) -> Tuple[int, int]:
        """Masks of the positive and of the negative literals of a cube."""
        bit = self._bit
        pos = neg = 0
        for l in cube:
            if l & 1:
                neg |= bit[l >> 1]
            else:
                pos |= bit[l >> 1]
        return pos, neg

    def _predecessor(self, targets: Sequence[int],
                     state: Optional[Cube] = None) -> Tuple[Cube, List[int]]:
        """The current model as a lifted predecessor of `targets`
        (literals one step on) and the input bits of that step; `state` is
        the model's state cube if the caller has read it already."""
        if state is None:
            state = self._model_state_cube()
        return self.lift_predecessor(state, targets), self._model_inputs()

    # -- queries ------------------------------------------------------------

    def _solve(self, assume: List[int], domain: Set[int]) -> bool:
        """One query on the solver; a sat model becomes the current one."""
        self.stats.solver_calls += 1
        res = self.solver.solve(assume, domain=domain, cancel_check=self.cancel)
        if res is None:
            raise _Cancelled()
        if res:
            self._model = self.solver.model()
        return res

    def solve_relative(self, cube: Cube, level: int, block_self: bool = True):
        """F_{level-1} ∧ constraints ∧ [¬cube] ∧ T ∧ cube′.

        Returns (False, kept_cube) on unsat (cube literals whose primed
        assumption made it into the core) or (True, None) on sat; a sat
        model, the solver's or a stored one, becomes the current one.
        """
        assert level >= 1
        pos, neg = self._cube_masks(cube)
        own = self._push_cex.get(cube)
        domain = None
        for e in self._ring if own is None else (own, *self._ring):
            e_level, nt, nf, st, sf, model, since = e
            if (pos & nt == pos and neg & nf == neg and e_level <= level
                    and (not block_self or pos & sf or neg & st)
                    and self._holds_since(st, sf, since, level - 1)):
                if domain is None:
                    domain = self._query_domain(cube)
                if UNDEF not in bytes(map(model.__getitem__, domain)):
                    self.stats.ring_answers += 1
                    self._model, self._answer = model, e
                    return True, None
        s = self.solver
        if block_self:
            s.add_clause(negate(cube), temporary=True)
        primed = sorted(self.ts.prime(l) for l in cube)
        if self._solve(self._frame_assumptions(level - 1) + primed,
                       domain or self._query_domain(cube)):
            self._answer = (level, *self._masks(self._primed_vars),
                            *self._masks(self._state_vars), self._model,
                            self._log_end())
            self._ring.appendleft(self._answer)
            return True, None
        core = set(s.unsat_core())
        kept = tuple(l for l in cube if self.ts.prime(l) in core)
        return False, (kept if kept else cube)

    def lift_predecessor(self, state_cube: Cube,
                         targets: Sequence[int]) -> Cube:
        """The literals of `state_cube`, the current model's state, that the
        justification walk reaches from the constraints and `targets` (see
        the module docstring); none if it reaches no latch."""
        m = self._model
        defs, free = self.ts.defs, self._free
        stack = [*self.ts.constraints, *targets]  # literals true in the model
        seen = set()
        while stack:
            l = stack.pop()
            if l in seen:
                continue
            seen.add(l)
            fanins = defs.get(l >> 1)
            if fanins is None:
                continue
            if not l & 1:
                stack += fanins
            else:
                false = [f for f in fanins if m[f >> 1] == (f & 1)]
                f = next((f for f in false if f >> 1 in free), false[0])
                stack.append(f ^ 1)
        return tuple(l for l in state_cube if l in seen)

    def _repair_init(self, kept: Cube, full: Cube) -> Cube:
        """Core shrinking may re-introduce an init overlap; restore one
        literal of the original cube that is false in every initial state."""
        if kept and not self.ts.cube_intersects_init(kept):
            return kept
        iv = self.ts.init_value
        for l in full:
            if iv.get(l >> 1) == (l & 1):  # literal false at init
                return tuple(sorted(set(kept) | {l}))
        return full  # caller guarantees `full` excludes init

    def _is_blocked(self, cube: Cube, level: int) -> bool:
        for j in range(level, self.k + 1):
            for d in self.frames[j]:
                if subsumes(d, cube):
                    return True
        return False

    def add_lemma(self, cube: Cube, level: int) -> None:
        level = min(level, self.k)
        for j in range(1, level + 1):
            frame = self.frames[j]
            for d in [d for d in frame if subsumes(cube, d)]:
                frame.discard(d)
                self._push_cex.pop(d, None)
        self.frames[level].add(cube)
        self._lemma_log.append((level, *self._cube_masks(cube)))
        self.solver.add_clause(negate(cube) + (2 * self.acts[level] + 1,))
        self.stats.lemmas += 1
        vars_ = [l >> 1 for l in cube]
        grew = False
        for v in vars_:
            nbrs = self._adj.setdefault(v, set())
            n = len(nbrs)
            nbrs.update(w for w in vars_ if w != v)
            grew |= len(nbrs) != n
        if grew:
            vs = set(vars_)
            for key in [k for k, d in self._domains.items()
                        if not vs <= d and not vs.isdisjoint(d)]:
                del self._domains[key]

    # -- generalization -----------------------------------------------------

    def mic(self, cube: Cube, level: int, strategy: str, rec_depth: int = 1,
            budget: Optional[List[int]] = None) -> Cube:
        """Minimal-ish inductive sub-cube; precondition: `cube` is relatively
        inductive at `level` and excludes init."""
        top = rec_depth == 1
        if top:
            self.stats.mic_calls[strategy] = self.stats.mic_calls.get(strategy, 0) + 1
            if budget is None:
                budget = [EXCTG_BUDGET if strategy == EXCTG else 0]
        size_in = len(cube)
        bucket = self.solver.vsids.bucket_of
        order = sorted(cube, key=lambda l: (bucket(l >> 1), l >> 1))
        current = set(cube)
        for lit in order:
            if lit not in current or len(current) == 1:
                continue
            cand = tuple(l for l in sorted(current) if l != lit)
            res = self._ctg_down(cand, level, rec_depth, strategy, budget)
            if res is not None:
                current = set(res)
        result = tuple(sorted(current))
        if top:
            self.stats.mic_records.append(
                MicRecord(strategy, size_in, len(result), level))
        return result

    def _ctg_down(self, cube: Cube, level: int, rec_depth: int,
                  strategy: str, budget: List[int]) -> Optional[Cube]:
        """The `down` loop: recover relative induction of a shrunk candidate,
        blocking or joining counterexamples-to-generalization."""
        ctgs = 0
        while True:
            if not cube or self.ts.cube_intersects_init(cube):
                return None
            unsat_or_sat, payload = self.solve_relative(cube, level)
            if unsat_or_sat is False:
                return self._repair_init(payload, cube)

            state = self._model_state_cube()
            allow_ctg = (
                strategy in (CTG, EXCTG)
                and rec_depth <= CTG_DEPTH
                and ctgs < CTG_LIMIT
                and level > 1
            )
            if allow_ctg:
                z, _ = self._predecessor([self.ts.prime(l) for l in cube], state)
                if not self.ts.cube_intersects_init(z):
                    r, kept = self.solve_relative(z, level - 1)
                    if r is False:
                        # the CTG is itself blockable: push it as high as it
                        # goes, generalize, and retry the candidate
                        ctgs += 1
                        self.stats.ctg_blocks += 1
                        zk = self._repair_init(kept, z)
                        j = level - 1
                        while j < self.k:
                            r2, kept2 = self.solve_relative(zk, j + 1)
                            if r2 is not False:
                                break
                            zk = self._repair_init(kept2, zk)
                            j += 1
                        g = self.mic(zk, j, strategy, rec_depth + 1, budget)
                        self.add_lemma(g, j)
                        continue
                    if strategy == EXCTG and budget[0] > 0:
                        if self._block_recursive(z, level - 1, budget):
                            ctgs += 1
                            continue
            # join: intersect with the model state and retry
            ctgs = 0
            model = set(state)
            joined = tuple(l for l in cube if l in model)
            if len(joined) == len(cube):
                return None  # model missed no literal we track; give up
            cube = joined

    def _block_recursive(self, cube: Cube, level: int, budget: List[int]) -> bool:
        """Extended-CTG: run a budgeted mini obligation loop to block `cube`
        at `level`, descending into its predecessors."""
        q: List[Tuple[int, Cube]] = [(level, cube)]
        while q:
            if budget[0] <= 0:
                return False
            lvl, c = heapq.heappop(q)
            if lvl <= 0:
                return False
            if self._is_blocked(c, lvl):
                continue
            budget[0] -= 1
            r, payload = self.solve_relative(c, lvl)
            if r is False:
                g = self.mic(self._repair_init(payload, c), lvl, STANDARD,
                             rec_depth=CTG_DEPTH + 1, budget=budget)
                self.add_lemma(g, lvl)
            else:
                pred, _ = self._predecessor([self.ts.prime(l) for l in c])
                if self.ts.cube_intersects_init(pred):
                    return False
                heapq.heappush(q, (lvl - 1, pred))
                heapq.heappush(q, (lvl, c))
        return True

    # -- main loop ----------------------------------------------------------

    def get_bad(self) -> Optional[_Obligation]:
        """Solve F_k ∧ constraints ∧ bad; on sat, return a lifted obligation."""
        if not self._solve(self._frame_assumptions(self.k) + [self.ts.bad],
                           self._query_domain(None)):
            return None
        cube, bits = self._predecessor([self.ts.bad])
        return _Obligation(self.k, cube, bits, None)

    def rec_block(self, root: _Obligation) -> Optional[WitnessTrace]:
        """Block the obligation or return a counterexample trace."""
        trace = self._trace_from_init(root)
        if trace is not None:
            return trace
        q: List[Tuple[int, Cube, int, _Obligation]] = []
        counter = 0  # heap tie-breaker; obligations are not comparable
        heapq.heappush(q, (root.level, root.cube, counter, root))
        while q:
            self._check_cancel()
            level, cube, _, ob = heapq.heappop(q)
            self.stats.obligations += 1
            if level == 0:
                return self._trace(ob)
            if self._is_blocked(cube, level):
                if level < self.k:
                    counter += 1
                    heapq.heappush(q, (level + 1, cube, counter, ob))
                continue
            self.stats.block_attempts += 1
            r, payload = self.solve_relative(cube, level)
            if r is False:
                kept = self._repair_init(payload, cube)
                strat = self._strategy_for(cube)
                ctg_blocks = self.stats.ctg_blocks
                g = self.mic(kept, level, strat)
                if self.stats.ctg_blocks > ctg_blocks:
                    self._escalation.setdefault(cube, [0, False])[1] = True
                j = level
                while j < self.k and not self.solve_relative(g, j + 1)[0]:
                    j += 1
                since = self._log_end()
                self.add_lemma(g, j)
                if j < self.k:  # the push to j + 1 failed
                    self._push_cex[g] = (j + 1, *self._answer[1:6], since)
                    counter += 1
                    heapq.heappush(q, (j + 1, cube, counter, ob))
            else:
                self._escalation.setdefault(cube, [0, False])[0] += 1
                pred, bits = self._predecessor([self.ts.prime(l) for l in cube])
                pred_ob = _Obligation(level - 1, pred, bits, ob)
                trace = self._trace_from_init(pred_ob)
                if trace is not None:
                    return trace
                counter += 1
                heapq.heappush(q, (level - 1, pred, counter, pred_ob))
                counter += 1
                heapq.heappush(q, (level, cube, counter, ob))
        return None

    def _strategy_for(self, cube: Cube) -> str:
        """Per-cube dynamic escalation: the fail-count schedule, except that
        extended CTG waits until CTG has blocked something for this cube.
        Both parts of the state only grow, so a cube never steps down."""
        fails, ctg_paid = self._escalation.get(cube, (0, False))
        strategy = select_strategy(fails, self.options)
        if strategy == EXCTG and self.options.strategy == DYNAMIC and not ctg_paid:
            return CTG
        return strategy

    def _trace_from_init(self, ob: _Obligation) -> Optional[WitnessTrace]:
        """The witness from `ob` if some initial state lies in its cube."""
        return self._trace(ob) if self.ts.cube_intersects_init(ob.cube) else None

    def _trace(self, head: _Obligation) -> WitnessTrace:
        """Assemble the witness from an obligation chain ending at bad; the
        head's cube meets init, and a latch outside it starts at its reset
        value, or 0."""
        cube_val = {l >> 1: 1 - (l & 1) for l in head.cube}
        frames: List[List[int]] = []
        ob: Optional[_Obligation] = head
        while ob is not None:
            frames.append(ob.inputs)
            ob = ob.succ
        return self.ts.widen_witness(
            [cube_val.get(lv) for lv in self.ts.latch_vars], frames)

    def propagate(self) -> Optional[int]:
        """Push lemmas forward; returns the fixpoint level if some frame's
        delta empties out, else None."""
        for i in range(1, self.k):
            for cube in sorted(self.frames[i]):
                if cube not in self.frames[i]:
                    continue  # dropped by subsumption during this pass
                self._check_cancel()
                r, kept = self.solve_relative(cube, i + 1, block_self=False)
                if r is False:
                    self.frames[i].discard(cube)
                    self._push_cex.pop(cube, None)
                    self.add_lemma(self._repair_init(kept, cube), i + 1)
                else:
                    self._push_cex[cube] = (i + 1, *self._answer[1:6],
                                            self._log_end())
        # every lemma's entry was read or renewed in this pass: drop the log
        # prefix that no stored entry still has to check
        start = min([e[6] for e in (*self._push_cex.values(), *self._ring)],
                    default=self._log_end())
        del self._lemma_log[:start - self._log_base]
        self._log_base = start
        for i in range(1, self.k):
            if not self.frames[i]:
                return i
        return None

    def _log_end(self) -> int:
        return self._log_base + len(self._lemma_log)

    def _holds_since(self, st: int, sf: int, since: int, level: int) -> bool:
        """Whether the state whose true and false latches are `st` and `sf`
        refutes every lemma logged from absolute position `since` on at a
        level >= `level`, so that it still satisfies the lemmas of F_level
        it satisfied then.  A latch the model left open refutes nothing."""
        for lv, pos, neg in self._lemma_log[since - self._log_base:]:
            if lv >= level and not (pos & sf or neg & st):
                return False
        return True

    def _invariant(self, fixpoint: int) -> InvariantCert:
        return InvariantCert([negate(d) for j in range(fixpoint + 1, self.k + 1)
                              for d in sorted(self.frames[j])])

    def check(self) -> Verdict:
        try:
            self._new_frame()  # k = 1
            # 0-step case: init ∧ constraints ∧ bad
            if self._solve(self._frame_assumptions(0) + [self.ts.bad],
                           self._query_domain(None)):
                head = _Obligation(0, self._model_state_cube(),
                                   self._model_inputs(), None)
                return unsafe(self._trace(head), stats=self.stats)

            while True:
                self._check_cancel()
                ob = self.get_bad()
                if ob is not None:
                    trace = self.rec_block(ob)
                    if trace is not None:
                        return unsafe(trace, stats=self.stats)
                else:
                    self._new_frame()
                    fixpoint = self.propagate()
                    if fixpoint is not None:
                        return safe(self._invariant(fixpoint), stats=self.stats)
                    if self.k > MAX_FRAMES:
                        return unknown("frame limit %d reached" % self.k,
                                       stats=self.stats)
        except _Cancelled:
            return unknown("cancelled", stats=self.stats)


def check(
    ts: TranSys,
    options: Optional[Ic3Options] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> Verdict:
    """Run IC3; with `abs_cst`, localize constraints by counterexample-guided
    refinement: start from none, and add back the first inactive constraint
    each witness violates.  A witness that violates none is returned as it
    stands; the caller's `verify_verdict` accepts or rejects it."""
    options = options or Ic3Options()
    if not options.abs_cst or not ts.source.constraints:
        return IC3(ts, options, cancel).check()

    aig = ts.source
    active: List[int] = []
    refinements = 0
    while True:
        ts_abs = encode(aig, bad_index=ts.bad_index,
                        active_constraints=active, cone=True)
        verdict = IC3(ts_abs, options, cancel).check()
        if verdict.stats is not None:
            verdict.stats.abstraction_refinements = refinements
        if not verdict.is_unsafe:
            return verdict
        violated = _first_violated_constraint(aig, verdict.witness, active)
        if violated is None:
            return verdict
        active.append(violated)
        refinements += 1


def _first_violated_constraint(aig, trace: WitnessTrace,
                               active: Sequence[int]) -> Optional[int]:
    """Index of the first inactive constraint the trace violates, scanning
    steps in order and constraints in declaration order."""
    active_set = set(active)
    for vals in replay(aig, trace.init_state, trace.input_frames):
        for ci, cref in enumerate(aig.constraints):
            if ci not in active_set and vals[cref >> 1] ^ (cref & 1) != 1:
                return ci
    return None
