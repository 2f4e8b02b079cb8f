"""Reference implementations and checks used only by the tests.

The first ones share no code with the package under test beyond the AIG
data structures themselves:

* ``bfs_check`` — explicit-state breadth-first reachability over the full
  state space, evaluated bit-parallel with big-integer truth tables.
* ``cnf_brute_force`` — exhaustive truth-table satisfiability for small CNFs.
* ``simplify_fixpoint`` — the earlier, plainer form of ``simplify_cnf``,
  whose output the package's must match exactly.
* ``ShadowActivity`` — an exact-score mirror of the solver's bucketed
  activity heap, used to audit decision ordering.

The last section holds checks that do use the package's solver, each one
asking the same question a second way:

* ``DomainCheckingSolver`` — re-solves every cone-restricted query on the
  full domain and raises ``DomainMismatchError`` when the answers differ.
* ``relative_inductive`` and ``check_frames`` — re-check an IC3 lemma, or
  every frame, on a fresh solver; ``MicCheckingIC3`` applies the first to
  each MIC result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from mcheck.aiger import Aig
from mcheck.ic3 import IC3
from mcheck.logic import Cube, negate
from mcheck.satcore import Solver, SolverStats

MAX_TABLE_BITS = 22  # refuse truth tables beyond 2^22 rows


def _var_pattern(bit: int, nbits: int) -> int:
    """Truth-table column for variable `bit`: row i has value (i >> bit) & 1."""
    half = 1 << bit
    pat = ((1 << half) - 1) << half
    width = half * 2
    total = 1 << nbits
    while width < total:
        pat |= pat << width
        width *= 2
    return pat


def _node_tables(aig: Aig, nbits: int, var_bit: Dict[int, int]) -> Dict[int, int]:
    """Truth table (one bit per assignment) for every AIG node."""
    mask = (1 << (1 << nbits)) - 1
    tables: Dict[int, int] = {0: 0}
    for var, bit in var_bit.items():
        tables[var] = _var_pattern(bit, nbits)

    def ref_table(ref: int) -> int:
        t = tables[ref >> 1]
        return t ^ mask if ref & 1 else t

    for g in sorted(aig.ands, key=lambda g: g.var):
        tables[g.var] = ref_table(g.rhs0) & ref_table(g.rhs1)
    return tables


@dataclass
class BfsResult:
    status: str  # "safe" | "unsafe"
    depth: Optional[int]  # minimal counterexample length (bad step index)
    reachable_states: int


def bfs_check(aig: Aig, bad_index: int = 0) -> BfsResult:
    """Exact reachability verdict by explicit breadth-first search.

    Assignment rows pack latch values in the low bits and input values above
    them.  A step is admissible only if every constraint holds under the
    chosen inputs; the bad property counts only on an admissible step, which
    matches the checker's semantics of constraints restricting every frame
    including the failing one.
    """
    nl = len(aig.latches)
    ni = len(aig.inputs)
    nbits = nl + ni
    if nbits > MAX_TABLE_BITS:
        raise ValueError("model too large for the explicit oracle")
    mask = (1 << (1 << nbits)) - 1

    var_bit = {lt.var: j for j, lt in enumerate(aig.latches)}
    var_bit.update({v: nl + j for j, v in enumerate(aig.inputs)})
    tables = _node_tables(aig, nbits, var_bit)

    def ref_table(ref: int) -> int:
        t = tables[ref >> 1]
        return t ^ mask if ref & 1 else t

    cst_ok = mask
    for c in aig.constraints:
        cst_ok &= ref_table(c)
    bad_tab = ref_table(aig.bads[bad_index]) & cst_ok
    nxt = [ref_table(lt.next) for lt in aig.latches]
    nxt_inv = [t ^ mask for t in nxt]

    # Initial state set over the 2^nl state indices; uninitialized latches
    # range over both values (doubling the set along their bit position).
    base = 0
    for j, lt in enumerate(aig.latches):
        if lt.init == 1:
            base |= 1 << j
    init_set = 1 << base
    for j, lt in enumerate(aig.latches):
        if lt.init is None:
            init_set |= init_set << (1 << j)

    def expand(states: int) -> int:
        """Repeat a state set across all input valuations."""
        a = states
        width = 1 << nl
        for _ in range(ni):
            a |= a << width
            width *= 2
        return a

    def image(valid: int) -> int:
        """Successor state set of the admissible assignment set `valid`."""
        out = 0
        stack: List[Tuple[int, int, int]] = [(valid, 0, 0)]
        while stack:
            v, j, s = stack.pop()
            if v == 0:
                continue
            if j == nl:
                out |= 1 << s
                continue
            stack.append((v & nxt[j], j + 1, s | (1 << j)))
            stack.append((v & nxt_inv[j], j + 1, s))
        return out

    reached = init_set
    frontier = init_set
    depth = 0
    while frontier:
        valid = expand(frontier) & cst_ok
        if valid & bad_tab:
            return BfsResult("unsafe", depth, reached.bit_count())
        new = image(valid) & ~reached
        reached |= new
        frontier = new
        depth += 1
    return BfsResult("safe", None, reached.bit_count())


# ---------------------------------------------------------------------------
# CNF truth-table oracle


def cnf_brute_force(num_vars: int, clauses: Sequence[Sequence[int]],
                    assumptions: Sequence[int] = ()) -> Optional[List[int]]:
    """Exhaustive SAT check; literals use the solver's 2*var+neg encoding.

    Returns one satisfying model as a list of literals (one per variable), or
    None if unsatisfiable.
    """
    if num_vars > 20:
        raise ValueError("too many variables for truth-table enumeration")
    mask = (1 << (1 << num_vars)) - 1
    cols = [_var_pattern(v, num_vars) for v in range(num_vars)]

    def lit_table(lit: int) -> int:
        t = cols[lit >> 1]
        return t ^ mask if lit & 1 else t

    sat = mask
    for cl in clauses:
        acc = 0
        for lit in cl:
            acc |= lit_table(lit)
        sat &= acc
        if sat == 0:
            return None
    for lit in assumptions:
        sat &= lit_table(lit)
        if sat == 0:
            return None
    row = (sat & -sat).bit_length() - 1
    return [2 * v + (0 if (row >> v) & 1 else 1) for v in range(num_vars)]


# ---------------------------------------------------------------------------
# Front-end references


def simplify_fixpoint(clauses: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """The clauses ``simplify_cnf`` must return for a system with these
    clauses: passes over every clause until one changes nothing, each
    dropping satisfied clauses and false literals and assigning units as
    it meets them; then the units in var order and the remaining clauses,
    deduplicated.  Raises ``AssertionError`` on an empty clause."""
    work = [list(c) for c in clauses]
    value: Dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        out = []
        for cl in work:
            new = []
            sat = False
            for l in cl:
                v = value.get(l >> 1)
                if v is None:
                    new.append(l)
                elif v == 1 - (l & 1):
                    sat = True
                    break
            if sat:
                changed = True
                continue
            if not new:
                raise AssertionError("contradiction during CNF simplification")
            if len(new) == 1:
                value[new[0] >> 1] = 1 - (new[0] & 1)
                changed = True
            out.append(new)
        work = out

    final: List[Tuple[int, ...]] = []
    seen: Set[Tuple[int, ...]] = set()
    for v in sorted(value):
        final.append((2 * v + (value[v] == 0),))
    for cl in work:
        t = tuple(sorted(set(cl)))
        if len(t) == 1 and (t[0] >> 1) in value:
            continue
        if t not in seen:
            seen.add(t)
            final.append(t)
    return final


# ---------------------------------------------------------------------------
# Exact-score shadow of the bucketed activity heap


class ShadowActivity:
    """Reference activity tracker with exact saturating levels.

    Mirrors the semantics the bucketed heap is supposed to provide: each
    variable has an integer level, bump raises it by one saturating at
    origin+15, decay raises the origin (so everyone drops one bucket), and a
    pick must come from the highest nonempty bucket of present variables.
    """

    NBUCKETS = 16

    def __init__(self) -> None:
        self.level: List[int] = []
        self.present: List[bool] = []
        self.origin = 0

    def new_var(self) -> None:
        self.level.append(self.origin)
        self.present.append(True)

    def insert(self, v: int) -> None:
        self.present[v] = True

    def bump(self, v: int) -> None:
        lev = max(self.level[v], self.origin) + 1
        self.level[v] = min(lev, self.origin + self.NBUCKETS - 1)

    def decay(self) -> None:
        self.origin += 1

    def bucket_of(self, v: int) -> int:
        return min(max(self.level[v] - self.origin, 0), self.NBUCKETS - 1)

    def best_bucket(self, eligible) -> Optional[int]:
        best = None
        for v in range(len(self.level)):
            if self.present[v] and eligible(v):
                b = self.bucket_of(v)
                if best is None or b > best:
                    best = b
        return best

    def note_pop(self, v: int, taken: bool) -> None:
        """Record that the heap consumed `v` (either decided or parked)."""
        self.present[v] = False


# ---------------------------------------------------------------------------
# Second opinions from the package's own solver


class DomainMismatchError(AssertionError):
    """A restricted query and its full-domain re-solve disagreed: the
    caller's domain did not cover the query's cone."""


@dataclass
class DomainCheckStats(SolverStats):
    domain_checks: int = 0  # restricted queries re-solved on the full domain
    domain_mismatches: int = 0


class DomainCheckingSolver(Solver):
    """A `Solver` that solves each restricted query again on the full
    domain once it has answered, and raises `DomainMismatchError` if the
    answers differ; the restricted answer, model and core stand.  IC3
    builds one in place of its solver under `monkeypatch.setattr(ic3,
    "Solver", ...)`, and its counts then reach `Ic3Stats.solver`."""

    def __init__(self) -> None:
        super().__init__()
        self.stats = DomainCheckStats()

    def _search(self, assume, cancel_check, n_open):
        result = super()._search(assume, cancel_check, n_open)
        if n_open < 0 or result is None:
            return result
        self.stats.domain_checks += 1
        model, core = self._model, self._core
        self._cancel_until(0)
        self._activate_domain(None, assume)
        full = super()._search(assume, cancel_check, -1)
        if full is not None and full != result:
            self.stats.domain_mismatches += 1
            raise DomainMismatchError("restricted=%r full=%r" % (result, full))
        self._model, self._core = model, core
        return result


def relative_inductive(ic3: IC3, cube: Cube, level: int) -> bool:
    """Whether `cube` excludes init and is inductive relative to frame
    `level - 1` of `ic3`, asked of a fresh solver: init for level 1, the
    lemmas of levels `level - 1` and up otherwise, with the constraints,
    ¬cube, T and cube′."""
    ts = ic3.ts
    if not cube or ts.cube_intersects_init(cube):
        return False
    s = Solver()
    ts.load(s, ts.constraints + (list(ts.init_lits) if level == 1 else []))
    if level > 1:
        for j in range(level - 1, ic3.k + 1):
            for d in ic3.frames[j]:
                s.add_clause(negate(d))
    s.add_clause(negate(cube))
    return s.solve(sorted(ts.prime(l) for l in cube)) is False


def check_frames(ic3: IC3) -> None:
    """Frame sanity of `ic3`: each lemma excludes init and is relatively
    inductive at its level, and each frame below k excludes bad, which
    IC3's own solver answers."""
    for j in range(1, ic3.k + 1):
        for d in ic3.frames[j]:
            assert not ic3.ts.cube_intersects_init(d), \
                "lemma %r intersects init" % (d,)
            assert relative_inductive(ic3, d, j), \
                "lemma %r not inductive at %d" % (d, j)
    for i in range(1, ic3.k):
        ic3.stats.solver_calls += 1
        res = ic3.solver.solve(ic3._frame_assumptions(i) + [ic3.ts.bad])
        assert res is False, "frame %d intersects bad" % i


class MicCheckingIC3(IC3):
    """An `IC3` that re-checks each top-level MIC result with
    `relative_inductive`; `mic_checks` holds one answer per result."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mic_checks: List[bool] = []

    def mic(self, cube, level, strategy, rec_depth=1, budget=None):
        result = super().mic(cube, level, strategy, rec_depth, budget)
        if rec_depth == 1:
            self.mic_checks.append(relative_inductive(self, result, level))
        return result
