"""Unrolling-based engines: bounded model checking and k-induction.

Both engines grow `transys.Unroller` frames on a single incremental solver
instead of re-encoding per depth.  BMC checks a window of new frames per
solve using a fresh selector variable, so "a counterexample of some length
in [lo, hi]" is one query.  The unroller folds the logic that the reset
state fixes, so a window whose every `reach` literal is the constant false
needs no query, and neither does such a k-induction base case; nor does
such a frame load the logic that only bad and the constraints read.  A
witness reads frame 0's latches and each frame's inputs, which every frame
keeps.  A frame-0 literal can be a constant, so witnesses read each
literal's value with its sign, and are widened to the source AIG's latches
and inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .aiger import WitnessTrace
from .logic import FALSE_LIT, Lit, lit_neg
from .satcore import Solver, SolverStats
from .transys import TranSys, Unroller
from .verdicts import InvariantCert, Verdict, safe, unknown, unsafe


@dataclass
class UnrollStats:
    depth: int = 0
    solver: Optional[SolverStats] = None  # every solver of the run


def _value(s: Solver, lit: Lit, default: Optional[bool] = None) -> Optional[int]:
    """The model's bit for `lit`, or None if its var is unassigned and
    `default` is None."""
    val = s.model_value(lit >> 1, default)
    return None if val is None else int(val) ^ (lit & 1)


def _extract_trace(s: Solver, un: Unroller, ts: TranSys, depth: int) -> WitnessTrace:
    init_bits = [_value(s, un.lit_at(2 * lv, 0)) for lv in ts.latch_vars]
    frames = [[_value(s, un.lit_at(2 * iv, t), False) for iv in ts.input_vars]
              for t in range(depth + 1)]
    return ts.widen_witness(init_bits, frames)


def bmc(
    ts: TranSys,
    max_depth: int = 100,
    step: int = 1,
    cancel: Optional[Callable[[], bool]] = None,
) -> Verdict:
    """Search for a counterexample of length ≤ max_depth, `step` frames per
    incremental query."""
    if step < 1:
        raise ValueError("step must be >= 1")
    s = Solver()
    stats = UnrollStats(solver=s.stats)
    if cancel is not None and cancel():  # before the template compiles
        return unknown("cancelled", stats=stats)
    un = Unroller(ts, s)
    lo = 0
    while lo <= max_depth:
        if cancel is not None and cancel():
            return unknown("cancelled", stats=stats)
        hi = min(lo + step - 1, max_depth)
        un.grow(hi)
        reach = [un.reach(d) for d in range(lo, hi + 1)]
        if any(r != FALSE_LIT for r in reach):
            sel = s.new_var()
            s.add_clause([2 * sel + 1] + reach)
            res = s.solve(assumptions=[2 * sel], cancel_check=cancel)
            if res is None:
                return unknown("cancelled", stats=stats)
            if res:
                depth = next(d for d in range(lo, hi + 1)
                             if _value(s, un.reach(d), False))
                stats.depth = depth
                return unsafe(_extract_trace(s, un, ts, depth), stats=stats)
            s.add_clause((2 * sel + 1,))  # retire the window selector
        stats.depth = hi
        lo = hi + 1
    return unknown("no counterexample up to depth %d" % max_depth, stats=stats)


def kind(
    ts: TranSys,
    max_k: int = 50,
    cancel: Optional[Callable[[], bool]] = None,
) -> Verdict:
    """K-induction: for ascending k, a BMC base case to depth k plus an
    inductive step over an init-free k+1-frame unrolling (¬bad assumed at
    frames 0..k-1, bad asserted at frame k).  A proof at k is the
    certificate `InvariantCert([], k)`: ¬bad alone is k-inductive."""
    sb = Solver()
    ss = Solver()
    ss.stats = sb.stats  # one count for the base and step solvers
    stats = UnrollStats(solver=sb.stats)
    if cancel is not None and cancel():  # before the template compiles
        return unknown("cancelled", stats=stats)
    ub = Unroller(ts, sb)
    us = Unroller(ts, ss, init=False)

    for k in range(0, max_k + 1):
        if cancel is not None and cancel():
            return unknown("cancelled", stats=stats)
        # base: no counterexample at depth k
        ub.grow(k)
        if ub.reach(k) != FALSE_LIT:
            res = sb.solve(assumptions=[ub.reach(k)], cancel_check=cancel)
            if res is None:
                return unknown("cancelled", stats=stats)
            if res:
                stats.depth = k
                return unsafe(_extract_trace(sb, ub, ts, k), stats=stats)

        if k == 0:
            continue
        # step: ¬reach at 0..k-1 (permanent units, monotone in k; ¬bad under
        # the constraints) and the constraints at 0..k ⊢ ¬bad at k
        us.grow(k)
        ss.add_clause((lit_neg(us.reach(k - 1)),))
        res = ss.solve(assumptions=[us.reach(k)], cancel_check=cancel)
        if res is None:
            return unknown("cancelled", stats=stats)
        if res is False:
            stats.depth = k
            return safe(InvariantCert([], k), stats=stats)
    return unknown("not k-inductive up to k=%d" % max_k, stats=stats)
