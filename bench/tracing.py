"""Span tracing of mcheck's layers from outside the package.

``Tracer.install`` wraps the public functions of each mcheck module where
their callers look them up: the modules import names directly, so
``encode`` is patched in ``mcheck.transys`` and also in
``mcheck.orchestrator`` and ``mcheck.ic3``.  A span is ``(id, name, start,
end, parent, thread, note)``; spans nest per thread, and a worker thread's
outermost span takes the innermost open span of the main thread as its
parent.  Self time subtracts only children of the same thread, so the
portfolio's wait for its workers stays in its own self time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional

Span = tuple  # (id, name, start, end, parent, thread, note)


def _config_name(args, kwargs, result):
    cfg = kwargs.get("config", args[1] if len(args) > 1 else None)
    return cfg.name


def _winner_name(args, kwargs, result):
    return result.winner.name if result.winner is not None else None


def _num_clauses(args, kwargs, result):
    return len(result.clauses)


def _relind_unsat(args, kwargs, result):
    return result[0] is False


def _ic3_vars(args, kwargs, result):
    return args[0].solver.num_vars  # the IC3 instance this check ran on


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: List[int] = []
        self._undo: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            ident = threading.get_ident()
            stack = self._main_stack if ident == self._main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            try:
                parent = (stack or self._main_stack)[-1]
            except IndexError:  # no open span in this thread or the main one
                parent = 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident(),
                              note(args, kwargs, result) if note and result is not None
                              else None))
        return traced

    def patch(self, owner, attr: str, name: str, note: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, note))

    def install(self) -> None:
        """Wrap every traced mcheck entry point."""
        from mcheck import certify, engines, ic3, orchestrator, satcore, transys
        for mod in (transys, orchestrator, ic3):
            self.patch(mod, "encode", "transys.encode")
        for mod in (transys, orchestrator):
            self.patch(mod, "simplify_cnf", "transys.simplify_cnf", _num_clauses)
        self.patch(transys.Unroller, "add_frame", "transys.add_frame")
        self.patch(satcore.Solver, "solve", "satcore.solve")
        self.patch(satcore.Solver, "add_clause", "satcore.add_clause")
        self.patch(ic3.IC3, "check", "ic3.IC3.check", _ic3_vars)
        self.patch(ic3.IC3, "get_bad", "ic3.get_bad")
        self.patch(ic3.IC3, "solve_relative", "ic3.solve_relative", _relind_unsat)
        self.patch(ic3.IC3, "mic", "ic3.mic")
        self.patch(ic3.IC3, "lift_predecessor", "ic3.lift_predecessor")
        self.patch(ic3.IC3, "propagate", "ic3.propagate")
        self.patch(ic3, "check", "ic3.check")
        self.patch(engines, "bmc", "engines.bmc")
        self.patch(engines, "kind", "engines.kind")
        for mod in (certify, orchestrator):
            self.patch(mod, "verify_witness", "certify.verify_witness")
            self.patch(mod, "verify_certificate", "certify.verify_certificate")
        self.patch(orchestrator, "build_transys", "orchestrator.build_transys")
        self.patch(orchestrator, "run_config", "orchestrator.run_config", _config_name)
        self.patch(orchestrator, "verify_verdict", "orchestrator.verify_verdict")
        self.patch(orchestrator, "run_portfolio", "orchestrator.run_portfolio",
                   _winner_name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> List[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        del self.spans[:len(out)]
        return out


# ---------------------------------------------------------------------------
# Per-layer figures


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name (children in the same thread only)."""
    thread_of = {s[0]: s[5] for s in spans}
    child: Dict[int, float] = {}
    for sid, _, start, end, parent, thread, _ in spans:
        if parent and thread_of.get(parent) == thread:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out: Dict[str, float] = {}
    for sid, name, start, end, _, _, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
    return out


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Span-derived per-layer figures of one traced round."""
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}
    for _, name, start, end, _, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
    own = self_times(spans)

    relind = [s for s in spans if s[1] == "ic3.solve_relative"]
    kids: Dict[int, List[Span]] = {}
    for s in spans:
        if s[1] in ("orchestrator.run_config", "orchestrator.verify_verdict"):
            kids.setdefault(s[4], []).append(s)
    winners = overhead = pool = 0.0
    for p in (s for s in spans if s[1] == "orchestrator.run_portfolio"):
        runs = [s for s in kids.get(p[0], ()) if s[1] == "orchestrator.run_config"]
        checks = [s for s in kids.get(p[0], ()) if s[1] == "orchestrator.verify_verdict"]
        won = [s for s in runs if s[6] == p[6]]
        winner = won[0][3] - won[0][2] if won else 0.0
        # the verdict that won is the last one the portfolio verified
        check = max(checks, key=lambda s: s[3]) if checks and won else None
        pool += sum(s[3] - s[2] for s in runs)
        winners += winner
        overhead += (p[3] - p[2]) - winner - (check[3] - check[2] if check else 0.0)

    return {
        "transys.encode_s": total.get("transys.encode", 0.0),
        "transys.encode_calls": count.get("transys.encode", 0),
        "transys.simplify_s": total.get("transys.simplify_cnf", 0.0),
        "transys.clauses": sum(s[6] or 0 for s in spans if s[1] == "transys.simplify_cnf"),
        "transys.unroll_s": total.get("transys.add_frame", 0.0),
        "transys.frames": count.get("transys.add_frame", 0),
        "satcore.solve_s": own.get("satcore.solve", 0.0),
        "satcore.add_clause_s": own.get("satcore.add_clause", 0.0),
        "satcore.vars": sum(s[6] or 0 for s in spans if s[1] == "ic3.IC3.check"),
        "ic3.get_bad_s": own.get("ic3.get_bad", 0.0),
        "ic3.relind_s": own.get("ic3.solve_relative", 0.0),
        "ic3.mic_s": own.get("ic3.mic", 0.0),
        "ic3.lift_s": own.get("ic3.lift_predecessor", 0.0),
        "ic3.propagate_s": own.get("ic3.propagate", 0.0),
        "ic3.relind_queries": len(relind),
        "ic3.relind_unsat_frac": (sum(1 for s in relind if s[6]) / len(relind)
                                  if relind else 0.0),
        "engines.bmc_s": own.get("engines.bmc", 0.0),
        "certify.witness_s": total.get("certify.verify_witness", 0.0),
        "certify.certificate_s": total.get("certify.verify_certificate", 0.0),
        "orchestrator.worker_s": total.get("orchestrator.run_config", 0.0),
        "orchestrator.overhead_s": overhead,
        "orchestrator.useful_frac": winners / pool if pool else 0.0,
        "trace.spans": len(spans),
    }
