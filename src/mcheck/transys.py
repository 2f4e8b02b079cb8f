"""CNF transition-system representation built from an and-inverter graph.

Variable layout: CNF var i corresponds to AIG node i (var 0 is the reserved
constant, asserted true by a unit clause).  One primed var per latch
follows the largest node the AIG defines, not the header's M, so an
oversized header does not size the solvers; then come any auxiliary
definition vars.  The effective bad literal folds the invariant
constraints in: a bad state satisfies them.

Constraints follow AIGER 1.9 (Biere, Heljanko and Wieringa, "AIGER 1.9 and
Beyond", 2011): a counterexample of length d is a path from an initial state
on which every constraint holds at steps 0..d and bad holds at step d;
nothing is required after step d.  `Unroller` is the one place that builds
timed frames and encodes this.  A frame maps a latch to the previous frame's
next-state literal, with no var of its own, unless `FrameTemplate`'s alias
rule keeps the latch's primed var.

`coi_vars` is the one cone-of-influence walk.  `encode(..., cone=True)` walks
it from bad and the active constraints through gate fanins and latch
next-state functions, keeping only the logic that can reach them.  Variable
numbers stay those of the full encoding, so lemmas and certificates need no
back-map; only the lists of gates, latches, inputs and clauses shrink.  The
certificate check walks from the vars its clauses name as well, for at most
k latch steps: every clause of that bounded cone is a clause of the full
encoding, and one left out defines a var that nothing kept reads within k
steps.
`widen_witness` turns a trace over the cone back into one over the source
AIG's latches and inputs.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, chain
from typing import (Callable, Collection, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from .aiger import Aig, WitnessTrace
from .logic import TRUE_LIT, Clause, Lit, lit_neg, mklit
from .satcore import Solver


def ref_to_lit(ref: int) -> Lit:
    """AIGER node ref to CNF literal; constant refs flip onto var 0."""
    return ref ^ 1 if ref < 2 else ref


@dataclass
class TranSys:
    """A transition system in CNF.  Every entry of `clauses` is a sorted
    tuple that names each var at most once: `encode` and
    `extend_with_internal_signals` collapse repeated literals and leave
    tautologies out, and `FrameTemplate` relies on it.  `latch_vars` lists
    every state var; pseudo-latches of `extend_with_internal_signals` come
    after the system's own latches, and only IC3 adds them.  `defs` maps
    each var the system defines to the literals it is the AND of: a gate to
    its two fanins, a primed var to its next-state literal, the constraint
    aux var to its conjuncts and a pseudo-latch's primed var to its two
    fanins.  Latches, inputs and var 0 have no entry."""

    num_vars: int
    latch_vars: List[int]
    input_vars: List[int]
    next_map: Dict[int, int]
    init_lits: Tuple[Lit, ...]  # cube over latches; uninitialized bits absent
    bad: Lit  # effective bad: raw bad AND all active constraints
    constraints: List[Lit]
    clauses: List[Clause]
    defs: Dict[int, Tuple[Lit, ...]]
    init_value: Dict[int, Optional[int]]  # reset value by latch, None if open
    source: Aig
    bad_index: int = 0

    @cached_property
    def frame_template(self) -> FrameTemplate:
        """This system compiled for `Unroller`, once; a system derived with
        `dataclasses.replace` compiles its own."""
        return FrameTemplate(self)

    def load(self, solver: Solver, units: Iterable[Lit] = ()) -> None:
        """Load this system into the fresh `solver`: allocate `num_vars`,
        then one root load of `clauses` and one unit per literal of `units`."""
        solver.new_vars(self.num_vars)
        lits: List[Lit] = []
        ends: List[int] = []
        for c in self.clauses:
            lits += c
            ends.append(len(lits))
        for l in units:
            lits.append(l)
            ends.append(len(lits))
        solver.add_root_clauses(lits, ends)

    def prime(self, lit: Lit) -> Lit:
        return (self.next_map[lit >> 1] << 1) | (lit & 1)

    def widen_witness(self, init_bits: Sequence[Optional[int]],
                      input_frames: Sequence[Sequence[int]]) -> WitnessTrace:
        """Witness over the source AIG from bits over the leading entries of
        `latch_vars` (pseudo-latches come last, and need no bits) and over
        the inputs.  An input outside the system is 0; a latch outside it,
        or one left open (None), takes its reset value, or 0 if it has none."""
        own = dict(zip(self.latch_vars, init_bits))
        init: List[Optional[int]] = []
        for lt in self.source.latches:
            bit = own.get(lt.var)
            if bit is None:
                bit = lt.init
            init.append(0 if bit is None else bit)
        pos = {v: j for j, v in enumerate(self.input_vars)}
        cols = [pos.get(v) for v in self.source.inputs]
        frames: List[List[Optional[int]]] = [
            [0 if j is None else f[j] for j in cols] for f in input_frames]
        return WitnessTrace(self.bad_index, init, frames)

    def cube_intersects_init(self, cube: Sequence[Lit]) -> bool:
        """Whether no literal of `cube` is false in the initial states.  Over
        latch literals, the only cubes IC3 makes, that is exact: some
        initial state lies in the cube.  A gate literal can over-report."""
        for l in cube:
            val = self.init_value.get(l >> 1)
            if val is not None and val == (l & 1):
                return False  # literal false at init
        return True


def coi_vars(roots: Iterable[int], defs: Mapping[int, Iterable[Lit]],
             adj: Mapping[int, Iterable[int]]) -> Set[int]:
    """Cone of influence: the vars reachable from the vars `roots` over the
    definitions `defs` (var -> the literals it reads) and the var edges
    `adj` (extra edges, such as IC3's lemma co-occurrence)."""
    stack = list(roots)
    seen: Set[int] = set()
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        for l in defs.get(v, ()):
            if l >> 1 not in seen:
                stack.append(l >> 1)
        for w in adj.get(v, ()):
            if w not in seen:
                stack.append(w)
    return seen


def _and_clauses(out: List[Clause], g: Lit, a: Lit, b: Lit) -> None:
    """Append the Tseitin clauses of g = a AND b to `out`, each sorted; a
    repeated fanin is collapsed, and a complementary pair (g is constant
    false) leaves out the tautology it would make."""
    ng = g ^ 1
    out.append((ng, a) if ng < a else (a, ng))
    if b == a:
        out.append((g, a ^ 1) if g < a ^ 1 else (a ^ 1, g))
        return
    out.append((ng, b) if ng < b else (b, ng))
    if b != a ^ 1:
        out.append(tuple(sorted((g, a ^ 1, b ^ 1))))


def encode(
    aig: Aig,
    bad_index: int = 0,
    active_constraints: Optional[Sequence[int]] = None,
    cone: bool = False,
    roots: Collection[int] = (),
    steps: Optional[int] = None,
) -> TranSys:
    """Tseitin-encode the transition relation for one bad property.

    `active_constraints` selects a subset of constraint indices (all by
    default); the localization-abstraction loop re-encodes with fewer.
    With `cone`, only the logic that can reach bad, an active constraint or
    a var of `roots` is encoded (`coi_vars` through gate fanins and latch
    next-state functions); a root on a latch's primed var keeps that latch
    and its next-state function.  `steps` bounds the walk to that many
    latch steps: a latch first reached at the last step keeps its primed
    var with no clauses, so the var is free.  Each clause of such a system
    is a clause of the full encoding.  Variable numbers are those of the
    full encoding either way.
    """
    if not aig.bads:
        raise ValueError("model has no bad properties")
    if not 0 <= bad_index < len(aig.bads):
        raise ValueError("bad index %d out of range" % bad_index)
    if active_constraints is None:
        active_constraints = range(len(aig.constraints))
    cst_refs = [aig.constraints[i] for i in active_constraints]
    bad_ref = aig.bads[bad_index]

    ands = aig._ands_by_var
    latches, inputs = aig.latches, aig.inputs
    # primed var of the j-th AIG latch, whether or not it is encoded, after
    # the largest defined node
    top = max([0, *aig.inputs, *(lt.var for lt in aig.latches),
               *(g.var for g in aig.ands)])
    primed = {lt.var: top + 1 + j for j, lt in enumerate(aig.latches)}
    free: Set[int] = set()  # latches whose primed var has no clauses
    if cone:
        fanin = {g.var: (g.rhs0, g.rhs1) for g in ands}  # refs as literals
        nxt = {lt.var: lt.next >> 1 for lt in latches}
        if steps is None:
            fanin.update((lt.var, (lt.next,)) for lt in latches)
        latch_of = {primed[v]: v for v in nxt}
        # latches whose next-state function is walked
        walked = {latch_of[v] for v in roots if v in latch_of}
        start = [r >> 1 for r in [bad_ref] + cst_refs]
        start += [*roots, *walked, *(nxt[v] for v in walked)]
        keep = coi_vars(start, fanin, {})
        if steps is not None:
            for _ in range(steps):  # one latch step each
                new = [v for v in keep if v in nxt and v not in walked]
                if not new:
                    break
                walked.update(new)
                keep |= coi_vars([nxt[v] for v in new], fanin, {})
            free = {v for v in keep if v in nxt} - walked
        ands = [g for g in ands if g.var in keep]
        latches = [lt for lt in latches if lt.var in keep]
        inputs = [v for v in inputs if v in keep]

    clauses: List[Clause] = [(TRUE_LIT,)]
    defs: Dict[int, Tuple[Lit, ...]] = {}

    for g in ands:
        a, b = defs[g.var] = ref_to_lit(g.rhs0), ref_to_lit(g.rhs1)
        _and_clauses(clauses, mklit(g.var), a, b)

    num_vars = top + 1 + len(aig.latches)
    next_map: Dict[int, int] = {}
    init_lits: List[Lit] = []
    for lt in latches:
        p = next_map[lt.var] = primed[lt.var]
        if lt.init is not None:
            init_lits.append(mklit(lt.var, lt.init == 0))
        if lt.var in free:
            continue
        n = ref_to_lit(lt.next)
        clauses.append(tuple(sorted((mklit(p), lit_neg(n)))))
        clauses.append(tuple(sorted((mklit(p, True), n))))
        defs[p] = (n,)

    bad_raw = ref_to_lit(bad_ref)
    cst_lits = [ref_to_lit(r) for r in cst_refs]
    if cst_lits:
        be = num_vars
        num_vars += 1
        conj = list(dict.fromkeys([bad_raw] + cst_lits))
        for l in conj:
            clauses.append(tuple(sorted((mklit(be, True), l))))
        if not any(lit_neg(l) in conj for l in conj):  # else be is false
            clauses.append(tuple(sorted([mklit(be)] + [lit_neg(l) for l in conj])))
        defs[be] = tuple(conj)
        bad = mklit(be)
    else:
        bad = bad_raw

    return TranSys(
        num_vars=num_vars,
        latch_vars=[lt.var for lt in latches],
        input_vars=list(inputs),
        next_map=next_map,
        init_lits=tuple(sorted(init_lits)),
        bad=bad,
        constraints=cst_lits,
        clauses=clauses,
        defs=defs,
        init_value={lt.var: lt.init for lt in latches},
        source=aig,
        bad_index=bad_index,
    )


# ---------------------------------------------------------------------------
# CNF simplification


def simplify_cnf(ts: TranSys) -> TranSys:
    """Unit propagation to fixpoint, satisfied-clause removal and clause
    deduplication; the input system is left unchanged.  Units are kept as
    unit clauses, so every variable keeps its meaning: they come first, in
    var order, then the other clauses in their order, rid of false
    literals.  A clause made empty raises `AssertionError`, since a
    transition relation is never unsatisfiable outright.

    Linear: one scan finds the units and the clauses that name var 0, a
    queue runs propagation over occurrence lists (Eén and Sörensson, "An
    Extensible SAT-solver", SAT 2003), and one pass emits.  A lone unit on
    var 0 that no other clause names propagates nothing, and then no list
    is built."""
    clauses = ts.clauses
    # var 0's literals sort first, so a clause names it only in front
    special = [i for i, c in enumerate(clauses) if len(c) < 2 or c[0] < 2]
    units = [clauses[i] for i in special]
    if len(units) < 2 and all(len(u) == 1 and u[0] < 2 for u in units):
        rest = dict.fromkeys(clauses)
        for u in units:
            del rest[u]
        return replace(ts, clauses=units + list(rest))

    val = bytearray(2 * ts.num_vars)  # by literal: 0 open, 1 true, 2 false
    occ: List[List[int]] = [[] for _ in val]  # clause indices by literal
    for i, c in enumerate(clauses):
        for l in c:
            occ[l].append(i)
    left = [len(c) for c in clauses]  # literals not yet false
    trail: List[Lit] = []  # true literals, in assignment order

    def unit(i: int) -> None:
        """Clause i has at most one literal not yet false: make it true."""
        x = next((x for x in clauses[i] if val[x] != 2), None)
        if x is None:
            raise AssertionError("contradiction during CNF simplification")
        if not val[x]:
            val[x], val[x ^ 1] = 1, 2
            trail.append(x)

    for i in special:
        if left[i] < 2:
            unit(i)
    for l in trail:  # grows while it is read
        for i in occ[l ^ 1]:
            left[i] -= 1
            if left[i] < 2:
                unit(i)

    out: List[Optional[Clause]] = list(clauses)
    for l in trail:
        for i in occ[l]:
            out[i] = None  # satisfied
    for l in trail:
        for i in occ[l ^ 1]:
            if out[i] is clauses[i]:
                out[i] = tuple([x for x in clauses[i] if val[x] != 2])
    final: List[Clause] = [(l,) for l in sorted(trail)]
    final += dict.fromkeys(c for c in out if c is not None)
    return replace(ts, clauses=final)


# ---------------------------------------------------------------------------
# Unrolling


class FrameTemplate:
    """A system's clauses compiled once for `Unroller`, over frame slots.

    Slot 0 is the constant var 0.  Then come the latches, the other vars
    the system uses in var order, and last the aliased primed vars.  A
    latch's primed var is aliased when its only clauses are the two
    equivalence clauses with its next-state literal (`encode` writes them),
    that literal is not constant, and no earlier aliased latch has the same
    next-state var.  The clauses are stored flat: `lits` holds them one
    after the other as packed ints `(slot << 1) | sign`, less the
    equivalence clauses of the aliased primed vars, and clause i ends before
    index `ends[i]`, the layout `Solver.add_root_clauses` reads.

    A frame maps each slot to a solver literal: slot 0 to var 0, each latch
    slot to the literal of its primed slot in the frame before (the first
    frame gives it a fresh var), each aliased primed slot to the literal of
    its next-state slot in the same frame, sign included, and every other
    slot to a fresh positive var, allocated in slot order.  The latch
    literals of one frame thus name distinct vars, and so does every mapped
    clause; the loader reads no order, so a mapped clause need not be
    sorted.

    That holds only if no two latches share a primed var and none is primed
    to the constant; the template checks this once, and that each clause
    names each var at most once, and raises `ValueError` otherwise.  Frames
    then load their clauses without per-clause cleanup.
    """

    def __init__(self, ts: TranSys):
        latches = ts.latch_vars
        primed = [ts.next_map[lv] for lv in latches]
        if 0 in primed or len(set(primed)) < len(primed):
            raise ValueError("two latches share a primed var, or one is "
                             "primed to the constant")
        uses = Counter(chain.from_iterable(ts.clauses))  # by literal
        # a pseudo-latch has no source latch, so it is never aliased
        nxt = {lt.var: ref_to_lit(lt.next) for lt in ts.source.latches}
        alias: Dict[int, Lit] = {}  # aliased primed var -> next-state literal
        targets = {0}  # next-state vars taken, the constant's from the start
        for lv, p in zip(latches, primed):
            n = nxt.get(lv)
            if (n is not None and uses[2 * p] + uses[2 * p + 1] == 2
                    and ts.defs.get(p) == (n,) and n >> 1 not in targets):
                targets.add(n >> 1)
                alias[p] = n
        used = {l >> 1 for l in uses}
        used.update(ts.input_vars, primed)
        used.update(l >> 1 for l in ts.constraints + [ts.bad])
        used.difference_update(latches, alias)
        used.discard(0)
        order = [0, *latches, *sorted(used)]
        self.own = len(order)  # slots before the aliased ones
        order += alias
        self.slot_of: Dict[int, int] = {v: j for j, v in enumerate(order)}
        slot_of = self.slot_of
        self.latch_src = [slot_of[p] for p in primed]
        self.alias_src = [(slot_of[n >> 1] << 1) | (n & 1)
                          for n in alias.values()]
        packed = [0] * (2 * ts.num_vars)  # packed template literal by literal
        for v, j in slot_of.items():
            packed[2 * v] = 2 * j
            packed[2 * v + 1] = 2 * j + 1
        flat = list(map(packed.__getitem__, chain.from_iterable(ts.clauses)))
        lits: List[int] = []
        ends: List[int] = []
        own = self.own
        i = 0
        for k, j in enumerate(accumulate(map(len, ts.clauses))):
            tc = flat[i:j]
            i = j
            tc.sort()
            top = -1  # a var's two literals sort next to each other
            for x in tc:
                if x >> 1 == top:
                    raise ValueError("clause %r names a var twice"
                                     % (ts.clauses[k],))
                top = x >> 1
            if top < own:  # else an aliased primed var's equivalence
                lits += tc
                ends.append(len(lits))
        self.lits = array("i", lits)
        self.ends = array("i", ends)


class Unroller:
    """Timed copies of the transition relation, written into `solver`.

    Frame d+1 maps each latch to the literal of its primed var in frame d:
    for an aliased latch, frame d's literal of its next-state function
    itself (Biere, Cimatti, Clarke and Zhu, "Symbolic Model Checking
    without BDDs", 1999).  Solver var 0 stays the shared constant; each
    frame maps only the vars the system uses.  The system's `FrameTemplate`
    (see there) is compiled once per `TranSys`, and a frame allocates its
    vars with one `Solver.new_vars` call, maps the template through a flat
    literal list and loads the clauses with one `Solver.add_root_clauses`
    call.  With `init`, frame 0 starts in an initial state.

    Constraints are those of AIGER 1.9: bad at depth d needs them at frames
    0..d and at no frame after d.  `held(d)` implies C_0..C_d, and
    `reach(d)`, the literal to query for a counterexample of length d,
    implies bad at frame d (already folded with C_d) and `held(d-1)`.
    Without constraints both are plain literals and no var is allocated.
    """

    def __init__(self, ts: TranSys, solver: Solver, init: bool = True):
        self.ts = ts
        self.solver = solver
        self.init = init
        self.template = ts.frame_template
        self._frames: List[List[Lit]] = []  # per frame: solver literal by slot
        self._held: List[Lit] = []
        self._reach: List[Lit] = []
        if solver.num_vars == 0:
            solver.new_var()  # var 0, the constant

    @property
    def depth(self) -> int:
        return len(self._frames) - 1

    def add_frame(self) -> None:
        """Append one frame and write its clauses into the solver."""
        ts, s, t = self.ts, self.solver, self.template
        fm = [0]
        if self._frames:
            prev = self._frames[-1]
            fm += [prev[j] for j in t.latch_src]
        fresh = t.own - len(fm)
        first = s.new_vars(fresh)
        fm += range(2 * first, 2 * (first + fresh), 2)
        fm += [fm[x >> 1] ^ (x & 1) for x in t.alias_src]
        self._frames.append(fm)
        lm = [0] * (2 * len(fm))  # frame literal by packed template literal
        lm[0::2] = fm
        lm[1::2] = [x ^ 1 for x in fm]
        lits = [lm[x] for x in t.lits]
        batch: List[List[Lit]] = []  # clauses beyond the template's
        d = self.depth
        if self.init and not d:
            batch += [[self.lit_at(l, 0)] for l in ts.init_lits]
        held, reach = TRUE_LIT, self.bad_at(d)
        if ts.constraints:
            held = 2 * s.new_var()
            for c in ts.constraints:
                batch.append(sorted((held ^ 1, self.lit_at(c, d))))
            if d:
                batch.append(sorted((held ^ 1, self._held[-1])))
                reach = 2 * s.new_var()
                batch.append(sorted((reach ^ 1, self.bad_at(d))))
                batch.append(sorted((reach ^ 1, self._held[-1])))
        ends = t.ends.tolist()
        for cl in batch:
            lits += cl
            ends.append(len(lits))
        s.add_root_clauses(lits, ends)
        self._held.append(held)
        self._reach.append(reach)

    def grow(self, depth: int) -> None:
        while self.depth < depth:
            self.add_frame()

    def lit_at(self, lit: Lit, frame: int) -> Lit:
        return self._frames[frame][self.template.slot_of[lit >> 1]] ^ (lit & 1)

    def bad_at(self, frame: int) -> Lit:
        return self.lit_at(self.ts.bad, frame)

    def held(self, frame: int) -> Lit:
        return self._held[frame]

    def reach(self, frame: int) -> Lit:
        return self._reach[frame]


# ---------------------------------------------------------------------------
# Internal-signal extension


SIGNAL_MIN_FANOUT = 3  # fanout a gate needs to become a pseudo-latch
SIGNAL_CAP_FRACTION = 0.10  # pseudo-latches per encoded gate, at most


def default_signal_policy(aig: Aig, defs: Mapping[int, Iterable[Lit]]):
    """Gates encoded in `defs` (a `TranSys.defs`) with fanout >=
    `SIGNAL_MIN_FANOUT` and an input-free cone, capped at
    `SIGNAL_CAP_FRACTION` of the encoded gates.  A gate's cone is walked over
    `defs`, which stops at latches."""
    fanout: Dict[int, int] = {}
    for g in aig.ands:
        fanout[g.rhs0 >> 1] = fanout.get(g.rhs0 >> 1, 0) + 1
        fanout[g.rhs1 >> 1] = fanout.get(g.rhs1 >> 1, 0) + 1
    for lt in aig.latches:
        fanout[lt.next >> 1] = fanout.get(lt.next >> 1, 0) + 1
    inputs = set(aig.inputs)
    gates = [g for g in aig.ands if g.var in defs]
    cap = max(1, int(SIGNAL_CAP_FRACTION * len(gates)))
    chosen = []
    for g in sorted(gates, key=lambda g: -fanout.get(g.var, 0)):
        if fanout.get(g.var, 0) < SIGNAL_MIN_FANOUT:
            continue
        cone = coi_vars([g.var], defs, {})
        if cone & inputs:
            continue
        chosen.append(g.var)
        if len(chosen) >= cap:
            break
    return chosen


def extend_with_internal_signals(
    ts: TranSys,
    aig: Aig,
    policy: Optional[Callable[[Aig], Sequence[int]]] = None,
) -> TranSys:
    """Turn selected internal gates into pseudo-latches.

    Each selected gate keeps its current-step var and gains a primed var
    constrained to the gate's next-step function (the gate cone rebuilt over
    primed latch vars).  Reachability verdicts are unchanged; the state
    vocabulary for lemma learning grows.  The default policy picks only
    gates the system encodes: one outside a cone may read latches the
    system does not have.
    """
    signals = list(policy(aig) if policy else
                   default_signal_policy(aig, ts.defs))
    if not signals:
        return ts

    num_vars = ts.num_vars
    clauses = list(ts.clauses)
    defs = dict(ts.defs)
    next_map = dict(ts.next_map)
    latch_vars = list(ts.latch_vars)
    primed_of: Dict[int, int] = {0: 0}
    for lv in ts.latch_vars:
        primed_of[lv] = ts.next_map[lv]

    def primed_copy(var: int) -> int:
        nonlocal num_vars
        if var in primed_of:
            return primed_of[var]
        g = aig.gate(var)
        if g is None:
            raise ValueError("gate cone contains input %d; bad policy" % var)
        p = num_vars
        num_vars += 1
        primed_of[var] = p
        a = _shift(ref_to_lit(g.rhs0), primed_copy)
        b = _shift(ref_to_lit(g.rhs1), primed_copy)
        _and_clauses(clauses, mklit(p), a, b)
        defs[p] = (a, b)
        return p

    def _shift(lit: Lit, f) -> Lit:
        v = lit >> 1
        if v == 0:
            return lit
        return (f(v) << 1) | (lit & 1)

    for s in signals:
        if s in next_map:
            continue
        next_map[s] = primed_copy(s)
        latch_vars.append(s)

    return replace(ts, num_vars=num_vars, latch_vars=latch_vars,
                   next_map=next_map, clauses=clauses, defs=defs)
