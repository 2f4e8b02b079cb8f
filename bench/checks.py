"""Correctness checks written apart from mcheck.

Semantics (the AIGER safety reading mcheck documents): a run starts in a
state that agrees with every latch reset value (uninitialised latches take
either value); at every step all constraints must hold; the run is a
counterexample when bad holds at its last step.  Frame ``t`` of a witness
gives the inputs of step ``t`` and drives the transition to step ``t + 1``.
Don't-care bits (None) are driven as 0.

A certificate is a list of clauses of signed 1-based latch indices.  With
``Inv(s) = clauses(s) and no input i has C(s, i) and bad(s, i)``, it is
accepted when:

* initiation: every initial state is in Inv;
* consecution: from s with clauses(s), C(s, i) and not bad(s, i), the
  successor satisfies the clauses;
* property: under the same premise, the successor admits no input with
  C and bad.

By induction over a constrained run every reachable state is then in Inv,
so no counterexample exists.  Narrow models are checked by enumerating
every state and input; wide ones by three SAT queries answered by sympy's
DPLL solver over our own Tseitin encoding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from corpus import Model

EXPLICIT_BITS = 12  # enumerate states x inputs up to 2**12 combinations


def evaluate(m: Model, state: Sequence[int], inputs: Sequence[int]) -> List[int]:
    """Value of every node (indexed by var) for one state and input."""
    vals = [0] * (m.max_var + 1)
    vals[1:1 + m.num_inputs] = inputs
    base = 1 + m.num_inputs
    vals[base:base + len(m.latches)] = state
    v = base + len(m.latches)
    for r0, r1 in m.ands:
        vals[v] = (vals[r0 >> 1] ^ (r0 & 1)) & (vals[r1 >> 1] ^ (r1 & 1))
        v += 1
    return vals


def _ref(vals: List[int], ref: int) -> int:
    return vals[ref >> 1] ^ (ref & 1)


def step(m: Model, state: Sequence[int], inputs: Sequence[int]):
    """(constraints hold, bad holds, next state) for one step."""
    vals = evaluate(m, state, inputs)
    ok = all(_ref(vals, c) for c in m.constraints)
    return ok, _ref(vals, m.bad), [_ref(vals, nxt) for nxt, _ in m.latches]


# ---------------------------------------------------------------------------
# Witnesses


def replay_witness(m: Model, init: Sequence[Optional[int]],
                   frames: Sequence[Sequence[Optional[int]]],
                   depth: Optional[int] = None) -> Tuple[bool, str]:
    """Replay a witness; with `depth`, it must also be exactly depth + 1
    frames long (a counterexample of that minimal depth)."""
    if len(init) != len(m.latches):
        return False, "init has %d bits for %d latches" % (len(init), len(m.latches))
    if not frames:
        return False, "no frames"
    if depth is not None and len(frames) != depth + 1:
        return False, "%d frames, minimal depth %d needs %d" % (
            len(frames), depth, depth + 1)
    state = []
    for j, (bit, (_, reset)) in enumerate(zip(init, m.latches)):
        if bit is None:
            bit = 0 if reset is None else reset
        elif reset is not None and bit != reset:
            return False, "latch %d starts at %d, reset value is %d" % (j, bit, reset)
        state.append(int(bit))
    for t, frame in enumerate(frames):
        if len(frame) != m.num_inputs:
            return False, "frame %d has %d bits for %d inputs" % (
                t, len(frame), m.num_inputs)
        ok, bad, nxt = step(m, state, [int(b or 0) for b in frame])
        if not ok:
            return False, "constraint violated at step %d" % t
        if t == len(frames) - 1:
            return (True, "ok") if bad else (False, "bad not reached at step %d" % t)
        state = nxt
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Explicit-state search


def _bits(value: int, n: int) -> List[int]:
    return [(value >> j) & 1 for j in range(n)]


def _initial_states(m: Model) -> List[int]:
    fixed, free = 0, []
    for j, (_, reset) in enumerate(m.latches):
        if reset is None:
            free.append(j)
        elif reset:
            fixed |= 1 << j
    out = []
    for k in range(1 << len(free)):
        s = fixed
        for n, j in enumerate(free):
            if (k >> n) & 1:
                s |= 1 << j
        out.append(s)
    return out


def reachability(m: Model) -> Tuple[str, Optional[int]]:
    """Breadth-first search over concrete states: ("unsafe", minimal depth)
    or ("safe", None)."""
    nl, ni = len(m.latches), m.num_inputs
    if nl + ni > 20:
        raise ValueError("%s is too wide for explicit search" % m.name)
    frontier = _initial_states(m)
    seen = set(frontier)
    depth = 0
    while frontier:
        nxt_frontier = []
        for s in frontier:
            sb = _bits(s, nl)
            for i in range(1 << ni):
                ok, bad, nxt = step(m, sb, _bits(i, ni))
                if not ok:
                    continue
                if bad:
                    return "unsafe", depth
                code = sum(b << j for j, b in enumerate(nxt))
                if code not in seen:
                    seen.add(code)
                    nxt_frontier.append(code)
        frontier = nxt_frontier
        depth += 1
    return "safe", None


# ---------------------------------------------------------------------------
# Certificates


def _clause_holds(clause: Sequence[int], state: Sequence[int]) -> bool:
    return any(state[abs(l) - 1] == (l > 0) for l in clause)


def _check_clauses(m: Model, clauses: Sequence[Sequence[int]]) -> Optional[str]:
    for c in clauses:
        if not c or any(l == 0 or abs(l) > len(m.latches) for l in c):
            return "malformed clause %r" % (list(c),)
    return None


def check_certificate(m: Model, clauses: Sequence[Sequence[int]]) -> Tuple[bool, str]:
    """Initiation, consecution and property of `clauses` (see module doc)."""
    why = _check_clauses(m, clauses)
    if why:
        return False, why
    if len(m.latches) + m.num_inputs <= EXPLICIT_BITS:
        return _certificate_explicit(m, clauses)
    return _certificate_sat(m, clauses)


def _certificate_explicit(m: Model, clauses) -> Tuple[bool, str]:
    nl, ni = len(m.latches), m.num_inputs
    inputs = [_bits(i, ni) for i in range(1 << ni)]
    in_inv: Dict[int, bool] = {}
    steps: Dict[int, list] = {}
    for s in range(1 << nl):
        sb = _bits(s, nl)
        steps[s] = [step(m, sb, ib) for ib in inputs]
        in_inv[s] = (all(_clause_holds(c, sb) for c in clauses)
                     and not any(ok and bad for ok, bad, _ in steps[s]))
    for s in _initial_states(m):
        if not in_inv[s]:
            return False, "initiation fails in initial state %d" % s
    for s in range(1 << nl):
        if not all(_clause_holds(c, _bits(s, nl)) for c in clauses):
            continue
        for ok, bad, nxt in steps[s]:
            if not ok or bad:
                continue
            if not all(_clause_holds(c, nxt) for c in clauses):
                return False, "consecution fails from state %d" % s
            code = sum(b << j for j, b in enumerate(nxt))
            if not in_inv[code]:
                return False, "property fails after state %d" % s
    return True, "ok"


class _Cnf:
    """Tseitin encoding of time frames of a model for sympy's DPLL."""

    def __init__(self, m: Model):
        self.m = m
        self.nvars = 1
        self.clauses: List[set] = [{1}]  # var 1 is constant true

    def new(self) -> int:
        self.nvars += 1
        return self.nvars

    def frame(self, state: Optional[List[int]] = None) -> Tuple[List[int], List[int]]:
        """Node literals of one frame (index = AIGER var); `state` reuses
        the latch literals of an earlier frame's next state."""
        m = self.m
        lit = [-1]  # var 0: constant false
        lit += [self.new() for _ in range(m.num_inputs)]
        lit += state if state is not None else [self.new() for _ in m.latches]
        for r0, r1 in m.ands:
            g, a, b = self.new(), self.ref(lit, r0), self.ref(lit, r1)
            self.clauses += [{-g, a}, {-g, b}, {g, -a, -b}]
            lit.append(g)
        return lit, [self.ref(lit, nxt) for nxt, _ in m.latches]

    @staticmethod
    def ref(lit: List[int], ref: int) -> int:
        return -lit[ref >> 1] if ref & 1 else lit[ref >> 1]

    def any_of(self, conjunctions: List[List[int]]) -> None:
        """Assert that at least one of the literal conjunctions holds."""
        picks = []
        for conj in conjunctions:
            p = self.new()
            self.clauses += [{-p, l} for l in conj]
            picks.append(p)
        self.clauses.append(set(picks))

    def latch_lits(self, lit: List[int]) -> List[int]:
        base = 1 + self.m.num_inputs
        return lit[base:base + len(self.m.latches)]

    def satisfiable(self) -> bool:
        from sympy.assumptions.cnf import EncodedCNF
        from sympy.logic.algorithms.dpll2 import dpll_satisfiable
        enc = {v: v for v in range(1, self.nvars + 1)}
        return dpll_satisfiable(EncodedCNF(self.clauses, enc)) is not False


def _violations(cnf: _Cnf, lit: List[int], clauses) -> List[List[int]]:
    """Conjunctions, one per clause, each true when that clause is false."""
    latch = cnf.latch_lits(lit)
    return [[-latch[l - 1] if l > 0 else latch[-l - 1] for l in c] for c in clauses]


def _bad(cnf: _Cnf, lit: List[int]) -> List[int]:
    m = cnf.m
    return [cnf.ref(lit, m.bad)] + [cnf.ref(lit, c) for c in m.constraints]


def _premise(cnf: _Cnf, lit: List[int], clauses) -> None:
    """clauses(s) and C(s, i) and not bad(s, i) on one frame."""
    latch = cnf.latch_lits(lit)
    for c in clauses:
        cnf.clauses.append({latch[l - 1] if l > 0 else -latch[-l - 1] for l in c})
    for c in cnf.m.constraints:
        cnf.clauses.append({cnf.ref(lit, c)})
    cnf.clauses.append({-cnf.ref(lit, cnf.m.bad)})


def _certificate_sat(m: Model, clauses) -> Tuple[bool, str]:
    init = _Cnf(m)
    lit, _ = init.frame()
    for x, (_, reset) in zip(init.latch_lits(lit), m.latches):
        if reset is not None:
            init.clauses.append({x if reset else -x})
    init.any_of(_violations(init, lit, clauses) + [_bad(init, lit)])
    if init.satisfiable():
        return False, "initiation fails"

    cons = _Cnf(m)
    lit0, nxt = cons.frame()
    _premise(cons, lit0, clauses)
    lit1, _ = cons.frame(nxt)
    cons.any_of(_violations(cons, lit1, clauses))
    if clauses and cons.satisfiable():
        return False, "consecution fails"

    prop = _Cnf(m)
    lit0, nxt = prop.frame()
    _premise(prop, lit0, clauses)
    lit1, _ = prop.frame(nxt)
    prop.clauses += [{l} for l in _bad(prop, lit1)]
    if prop.satisfiable():
        return False, "property fails"
    return True, "ok"
