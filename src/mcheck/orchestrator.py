"""Engine configuration, single-engine runs, and the parallel portfolio.

A run searches the transition system `build_transys` makes: the Tseitin
encoding restricted to the cone of influence of bad and the constraints,
then simplified by unit propagation and clause deduplication in one
linear pass.  The portfolio builds it once and every worker searches that
one system; no engine changes a `TranSys` after it is built.
The cone keeps the AIG's variable numbers, and the engines widen their
witnesses back to the full model's latches and inputs.  Witnesses replay on
the AIG, and every certificate, a k-inductive invariant from any engine, is
checked on the encoding of its k-step cone, whose clauses are a subset of
the whole model's (see `verify_verdict`).  The portfolio runs
its first configuration alone in the calling thread and starts one thread
for each of the others only once that search has run for `SOLO_TIME`
seconds or ended without a verified verdict.  The first definitive
(safe/unsafe) verdict that passes `verify_verdict` wins, and the rest are
cancelled with a bounded grace period.  `run_portfolio` is the one gate for
verdicts: the CLI runs a single engine as a lineup of one, and no engine
checks its own verdicts.  `PortfolioResult.outcomes` records how each
config ended.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .aiger import Aig
from . import engines, ic3
from .certify import verify_certificate, verify_witness
from .ic3 import CTG, DYNAMIC, EXCTG, STANDARD, Ic3Options
from .transys import TranSys, encode, simplify_cnf
from .verdicts import InvariantCert, Verdict, unknown

GRACE_PERIOD = 2.0  # seconds a cancelled engine may take to wind down
SOLO_TIME = 0.02  # seconds the first config searches before the race starts


@dataclass
class EngineConfig:
    engine: str = "ic3"  # ic3 | bmc | kind
    strategy: str = DYNAMIC
    inn: bool = False
    abs_cst: bool = False
    bmc_step: int = 1
    bmc_max: int = 1000
    kind_max: int = 50

    def __post_init__(self) -> None:
        if self.engine not in ("ic3", "bmc", "kind"):
            raise ValueError("unknown engine %r" % self.engine)
        if self.engine != "ic3" and (self.inn or self.abs_cst):
            raise ValueError("inn/abs-cst are IC3-only flags")
        if self.strategy not in (STANDARD, CTG, EXCTG, DYNAMIC):
            raise ValueError("unknown strategy %r" % self.strategy)
        if self.bmc_step < 1 or self.bmc_max < 0 or self.kind_max < 0:
            raise ValueError("need bmc_step >= 1, bmc_max >= 0 and "
                             "kind_max >= 0")

    @property
    def name(self) -> str:
        if self.engine == "ic3":
            parts = ["ic3", self.strategy]
            if self.inn:
                parts.append("inn")
            if self.abs_cst:
                parts.append("abs-cst")
            return "+".join(parts)
        if self.engine == "bmc":
            return "bmc(step=%d)" % self.bmc_step
        return "kind"


def default_configs(workers: int) -> List[EngineConfig]:
    """The first `workers` of seven distinct configurations (at least one);
    the search is deterministic, so a repeated configuration adds nothing.
    BMC comes third, so the default four workers also hunt deep bugs."""
    base = [
        EngineConfig("ic3", strategy="dynamic"),
        EngineConfig("ic3", strategy="ctg"),
        EngineConfig("bmc", bmc_step=1),
        EngineConfig("ic3", strategy="dynamic", inn=True),
        EngineConfig("ic3", strategy="dynamic", abs_cst=True),
        EngineConfig("kind"),
        EngineConfig("bmc", bmc_step=10),
    ]
    return base[: max(1, workers)]


def build_transys(aig: Aig, bad_index: int = 0) -> TranSys:
    """Encoded transition system the engines search: the cone of influence
    of bad and the constraints, simplified."""
    return simplify_cnf(encode(aig, bad_index=bad_index, cone=True))


def run_config(
    aig: Aig,
    config: EngineConfig,
    bad_index: int = 0,
    cancel: Optional[Callable[[], bool]] = None,
    ts: Optional[TranSys] = None,
) -> Verdict:
    """Run one engine configuration to completion (or cancellation) on
    `ts`, which is built from `aig` when not given."""
    if ts is None:
        ts = build_transys(aig, bad_index)
    if config.engine == "ic3":
        opts = Ic3Options(strategy=config.strategy, inn=config.inn,
                          abs_cst=config.abs_cst)
        return ic3.check(ts, opts, cancel)
    if config.engine == "bmc":
        return engines.bmc(ts, max_depth=config.bmc_max, step=config.bmc_step,
                           cancel=cancel)
    return engines.kind(ts, max_k=config.kind_max, cancel=cancel)


def verify_verdict(aig: Aig, bad_index: int, verdict: Verdict) -> Tuple[bool, str]:
    """Independent check of a definitive verdict against the model: a
    witness replays on the AIG, and a certificate goes to
    `verify_certificate` on the encoding of its k-step cone, the logic that
    can reach bad, a constraint or a var its clauses name within k latch
    steps.  Each clause of that system is a clause of the whole model's
    encoding, under the same var numbers, so a certificate it accepts the
    whole model's check accepts too; the clauses left out define vars that
    no kept clause and no query reads."""
    if verdict.is_unsafe:
        assert verdict.witness is not None
        return verify_witness(aig, verdict.witness)
    if verdict.is_safe:
        cert = verdict.certificate
        clauses, k = ((cert.clauses, cert.k) if isinstance(cert, InvariantCert)
                      else ((), 0))
        ts = encode(aig, bad_index=bad_index, cone=True,
                    roots={l >> 1 for c in clauses for l in c}, steps=k)
        return verify_certificate(ts, cert)
    return True, "ok"


@dataclass
class Outcome:
    """How one portfolio config ended.  `status` is "won", "rejected",
    "errored", "no-verdict", "cancelled" or "not-started"; `reason` is the
    rejection, the error message, the engine's own reason for an unknown
    verdict, or what cancelled the run."""
    config: EngineConfig
    status: str = "not-started"
    reason: str = ""


@dataclass
class PortfolioResult:
    verdict: Verdict
    winner: Optional[EngineConfig] = None
    outcomes: List[Outcome] = field(default_factory=list)  # lineup order

    @property
    def rejected(self) -> List[Tuple[EngineConfig, str]]:
        """Each config whose verdict failed `verify_verdict`, with why."""
        return [(o.config, o.reason) for o in self.outcomes
                if o.status == "rejected"]


def run_portfolio(
    aig: Aig,
    bad_index: int = 0,
    workers: int = 4,
    configs: Optional[Sequence[EngineConfig]] = None,
    time_limit: Optional[float] = None,
) -> PortfolioResult:
    """First definitive verdict that passes `verify_verdict` wins.

    The first config runs in the calling thread.  After `SOLO_TIME` seconds
    of its search, or as soon as it ends without a verdict that passes, the
    others start, one daemon thread each; the first config's cancel
    callback verifies their verdicts as they come in.  Losers are cancelled
    and must wind down within `GRACE_PERIOD` seconds.  The clock of
    `time_limit` starts on entry, and if it runs out while the system is
    built, no config starts."""
    if configs is None:
        configs = default_configs(workers)
    configs = list(configs)[: max(1, workers)]

    deadline = None if time_limit is None else time.monotonic() + time_limit
    ts = build_transys(aig, bad_index)
    stop = threading.Event()
    results: "queue.Queue[Tuple[int, Verdict, bool]]" = queue.Queue()
    outcomes = [Outcome(cfg) for cfg in configs]
    threads: List[threading.Thread] = []
    running = {0}  # configs started and not yet settled
    winner: Optional[int] = None
    verdict: Optional[Verdict] = None

    def run(j: int, cancel: Callable[[], bool]) -> Tuple[Verdict, bool]:
        """Config j's verdict, and whether its engine raised."""
        try:
            return run_config(aig, configs[j], bad_index, cancel=cancel, ts=ts), False
        except Exception as exc:  # engine bug: surface as a non-verdict
            return unknown("engine error: %s: %s" % (type(exc).__name__, exc)), True

    def worker(j: int) -> None:
        results.put((j, *run(j, stop.is_set)))

    def race() -> None:
        if threads:
            return
        for j in range(1, len(configs)):
            threads.append(threading.Thread(target=worker, args=(j,), daemon=True))
            running.add(j)
        for t in threads:
            t.start()

    def settle(j: int, v: Verdict, failed: bool) -> None:
        nonlocal winner, verdict
        running.discard(j)
        out = outcomes[j]
        if not v.definitive:
            out.status = "errored" if failed else "no-verdict"
            out.reason = v.reason
        else:
            ok, reason = verify_verdict(aig, bad_index, v)
            if ok:
                out.status, winner, verdict = "won", j, v
            else:
                out.status, out.reason = "rejected", reason

    def expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    solo_end = time.monotonic() + SOLO_TIME

    def poll() -> bool:
        if time.monotonic() >= solo_end:
            race()
            while winner is None and not results.empty():
                settle(*results.get())
        return winner is not None or expired()

    try:
        if not expired():  # building the system may have used up the time
            v, failed = run(0, poll)
            if winner is None and not expired():
                settle(0, v, failed)
                if winner is None:
                    race()
        while winner is None and running:
            timeout = None if deadline is None else deadline - time.monotonic()
            if timeout is not None and timeout <= 0:
                break
            try:
                settle(*results.get(timeout=timeout))
            except queue.Empty:
                break
    finally:
        stop.set()
        grace_end = time.monotonic() + GRACE_PERIOD
        for t in threads:
            t.join(timeout=max(0.0, grace_end - time.monotonic()))

    for j in running:
        outcomes[j].status = "cancelled"
        outcomes[j].reason = ("%s won" % configs[winner].name if winner is not None
                              else "time limit reached")
    if verdict is None:
        why = ["time limit reached"] if expired() else []
        why += ["%s %s: %s" % (o.config.name, o.status, o.reason)
                for o in outcomes if o.status in ("rejected", "errored", "no-verdict")]
        return PortfolioResult(unknown("; ".join(why)), None, outcomes)
    return PortfolioResult(verdict, configs[winner], outcomes)
