import random
import threading
import time

import pytest

from mcheck import engines, orchestrator, transys
from mcheck.aiger import parse_aiger
from mcheck.certify import verify_certificate
from mcheck.orchestrator import (EngineConfig, default_configs, run_config,
                                 run_portfolio, verify_verdict)
from mcheck.transys import default_signal_policy, encode
from mcheck.verdicts import InvariantCert, safe

from fixtures import (AigBuilder, counter_overflow, mod_counter, random_aig,
                      ref_neg)
from oracle import bfs_check


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(engine="magic")
    with pytest.raises(ValueError):
        EngineConfig(engine="bmc", inn=True)
    with pytest.raises(ValueError):
        EngineConfig(engine="kind", abs_cst=True)
    for bad in (dict(strategy="bogus"), dict(engine="bmc", bmc_step=0),
                dict(engine="bmc", bmc_max=-1), dict(engine="kind", kind_max=-1)):
        with pytest.raises(ValueError):
            EngineConfig(**bad)
    EngineConfig("bmc", bmc_step=1, bmc_max=0)
    EngineConfig("kind", kind_max=0)


def test_engine_config_names():
    assert EngineConfig("ic3", strategy="dynamic", inn=True).name == "ic3+dynamic+inn"
    assert EngineConfig("bmc", bmc_step=10).name == "bmc(step=10)"
    assert EngineConfig("kind").name == "kind"


def test_default_configs_shape():
    assert len(default_configs(1)) == 1
    assert len(default_configs(4)) == 4
    # past the seven base configs nothing is repeated: the search is
    # deterministic, so a copy would only redo a worker's run
    nine = default_configs(9)
    assert nine == default_configs(7)
    assert len({cfg.name for cfg in nine}) == len(nine) == 7
    # ic3 leads the lineup, and the default four workers include BMC
    assert default_configs(4)[0].engine == "ic3"
    assert any(cfg.engine == "bmc" for cfg in default_configs(4))


def test_run_config_each_engine(cnt2, safe1):
    for cfg in (EngineConfig("ic3"), EngineConfig("bmc"), EngineConfig("kind")):
        v = run_config(cnt2, cfg)
        assert v.is_unsafe
        ok, why = verify_verdict(cnt2, 0, v)
        assert ok, why
    v = run_config(safe1, EngineConfig("ic3"))
    assert v.is_safe


def test_portfolio_on_fixtures(safe1, unsafe1, cnt2):
    for aig, want in ((safe1, "safe"), (unsafe1, "unsafe"), (cnt2, "unsafe")):
        r = run_portfolio(aig, workers=4)
        assert r.verdict.status == want
        assert r.winner is not None
        assert not r.rejected


def test_portfolio_agrees_with_oracle(rng):
    for _ in range(15):
        aig = random_aig(rng)
        res = bfs_check(aig)
        r = run_portfolio(aig, workers=4)
        assert r.verdict.status == res.status


@pytest.mark.parametrize("workers", [2, 4])
def test_portfolio_encodes_once(workers, monkeypatch, rng):
    built = []
    build = orchestrator.build_transys

    def counting(*a, **kw):
        built.append(a)
        return build(*a, **kw)

    monkeypatch.setattr(orchestrator, "build_transys", counting)
    models = [mod_counter(6, 20, 40), counter_overflow(4)]
    models += [random_aig(rng) for _ in range(10)]
    for aig in models:
        built.clear()
        r = run_portfolio(aig, workers=workers)
        assert len(built) == 1
        assert r.verdict.status == bfs_check(aig).status


def test_portfolio_single_worker(cnt2):
    r = run_portfolio(cnt2, workers=1)
    assert r.verdict.is_unsafe


def test_portfolio_custom_configs():
    aig = mod_counter(6, 20, 40)
    cfgs = [EngineConfig("ic3", strategy="exctg"), EngineConfig("bmc")]
    r = run_portfolio(aig, workers=2, configs=cfgs)
    assert r.verdict.is_safe
    assert r.winner.engine == "ic3"


def test_portfolio_time_limit_yields_unknown():
    # BMC-only lineup on a safe model cannot conclude; the time limit must
    # bring the portfolio back promptly
    aig = mod_counter(7, 40, 80)
    t0 = time.monotonic()
    r = run_portfolio(aig, workers=1,
                      configs=[EngineConfig("bmc", bmc_max=10 ** 6)],
                      time_limit=0.5)
    assert time.monotonic() - t0 < 10
    assert r.verdict.status == "unknown"
    assert "time limit" in r.verdict.reason or "no definitive" in r.verdict.reason


def test_expired_deadline_compiles_no_frame_template(monkeypatch):
    """A deadline that passes while the system is built ends the run before
    config 0 starts, and an unrolling engine whose cancel callback is
    already set returns before it compiles a frame template."""
    compiled = []
    init = transys.FrameTemplate.__init__

    def counted(self, ts):
        compiled.append(ts)
        init(self, ts)

    monkeypatch.setattr(transys.FrameTemplate, "__init__", counted)
    aig = mod_counter(4, 6, 10)
    cfgs = [EngineConfig("bmc"), EngineConfig("kind")]
    r = run_portfolio(aig, workers=2, configs=cfgs, time_limit=0)
    assert r.verdict.status == "unknown"
    assert r.verdict.reason == "time limit reached"
    assert [(o.status, o.reason) for o in r.outcomes] == [
        ("cancelled", "time limit reached"), ("not-started", "")]
    ts = encode(aig)
    for engine in (engines.bmc, engines.kind):
        v = engine(ts, cancel=lambda: True)
        assert (v.status, v.reason) == ("unknown", "cancelled")
    assert not compiled


def test_portfolio_deep_cex_won_by_bmc():
    aig = counter_overflow(8)
    cfgs = [EngineConfig("bmc", bmc_step=16, bmc_max=400)]
    r = run_portfolio(aig, workers=1, configs=cfgs)
    assert r.verdict.is_unsafe
    assert len(r.verdict.witness.input_frames) - 1 == 256


def test_verify_verdict_rejects_foreign_witness(cnt2, unsafe1):
    v = run_config(unsafe1, EngineConfig("bmc"))
    ok, _ = verify_verdict(cnt2, 0, v)
    assert not ok


def test_inn_verdict_on_latchless_model_verifies():
    # gate 4 (constant true) has fanout 3 and an input-free cone, so --inn
    # turns it into a pseudo-latch of a model that has no real latch
    aig = parse_aiger(b"aag 5 1 0 0 4 1\n2\n10\n4 1 1\n6 4 2\n8 5 4\n10 7 4\n")
    v = run_config(aig, EngineConfig("ic3", inn=True))
    assert v.is_unsafe
    assert v.witness.init_state == []
    ok, why = verify_verdict(aig, 0, v)
    assert ok, why


def test_inn_ignores_gates_outside_the_cone():
    # the gate AND(~d0, ~d1) has fanout 3 and an input-free cone, but it
    # only feeds the latches d0..d2 that bad never reads; promoting it would
    # need d0 and d1, which the cone system does not have
    b = AigBuilder()
    c0, c1 = b.new_latch(0), b.new_latch(0)
    dead = [b.new_latch(0) for _ in range(3)]
    b.set_next(c0, ref_neg(c0))
    b.set_next(c1, c0)
    gate = b.AND(ref_neg(dead[0]), ref_neg(dead[1]))
    for d in dead:
        b.set_next(d, gate)
    for bad, want in ((b.AND(c0, c1), "safe"), (b.AND(c0, ref_neg(c1)), "unsafe")):
        aig = b.build(bads=[bad])
        assert default_signal_policy(aig, encode(aig).defs) == [gate >> 1]
        v = run_config(aig, EngineConfig("ic3", inn=True))
        assert v.status == want
        ok, why = verify_verdict(aig, 0, v)
        assert ok, why


def _certificate_cases(aig, cert):
    """(certificate, hostile) pairs: `cert`, every dropped-clause and
    flipped-literal mutant of it, ~bad alone at k = 1..4, and `cert` plus a
    unit clause on var 0, on each latch's primed var, on the constraint
    var or on a var the model does not have."""
    clauses = list(cert.clauses)
    yield cert, False
    for i, c in enumerate(clauses):
        yield InvariantCert(clauses[:i] + clauses[i + 1:]), False
        for j in range(len(c)):
            flipped = c[:j] + (c[j] ^ 1,) + c[j + 1:]
            yield InvariantCert(clauses[:i] + [flipped] + clauses[i + 1:]), False
    for k in range(1, 5):
        yield InvariantCert([], k), False
    full = encode(aig)
    vars_ = [0, full.num_vars + 3, *full.next_map.values()]
    if full.constraints:
        vars_.append(full.bad >> 1)
    for v in vars_:
        for lit in (2 * v, 2 * v + 1):
            yield InvariantCert(clauses + [(lit,)]), True


def test_cone_check_agrees_with_the_full_check(monkeypatch):
    """`verify_verdict` checks a certificate on the encoding of its k-step
    cone.  Each clause of that system is one of the full encoding's, and the
    check answers as `verify_certificate` on the full encoding does: the
    same reason for IC3's certificates, their mutants and ~bad alone, and
    the same acceptance once a clause names var 0, a primed var, the
    constraint var or a var the model does not have."""
    systems = []

    def recording(*args, **kwargs):
        systems.append(encode(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(orchestrator, "encode", recording)
    rng = random.Random(25)
    pairs = accepted = 0
    for _ in range(100):
        aig = random_aig(rng, max_latches=6, max_inputs=2, max_gates=24,
                         constraint_prob=0.8)
        v = run_config(aig, EngineConfig("ic3"))
        if not v.is_safe:
            continue
        full = encode(aig)
        for cert, hostile in _certificate_cases(aig, v.certificate):
            got = verify_verdict(aig, 0, safe(cert))
            want = verify_certificate(full, cert)
            assert (got[0] if hostile else got) == (want[0] if hostile else want)
            assert set(systems[-1].clauses) <= set(full.clauses)
            assert systems[-1].num_vars == full.num_vars
            pairs += 1
            accepted += got[0]
    assert pairs > 600 and 0 < accepted < pairs
    # model 549 of `random_aig(random.Random(4), ...)` with the arguments
    # above: when a reason was read off the failing query's model, the cone
    # check said "bad" and the full check "invariant clause 0"
    aig = parse_aiger(b"aag 9 0 6 0 3 1 1\n2 8\n4 13\n6 12\n8 10 8\n10 16\n"
                      b"12 9\n11\n17\n14 7 2\n16 15 7\n18 9 7\n")
    cert = InvariantCert([(3,)], 1)
    full = encode(aig)
    assert verify_verdict(aig, 0, safe(cert)) == verify_certificate(full, cert) == (
        False, "inductive step fails at k=1: invariant clause 0")
    assert set(systems[-1].clauses) <= set(full.clauses)


# ---------------------------------------------------------------------------
# Staged start: configs[0] searches alone for SOLO_TIME, then the race


def _spy_threads(monkeypatch):
    """Record every thread the portfolio starts."""
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(orchestrator.threading, "Thread", Spy)
    return started


# every status an `orchestrator.Outcome` may take
OUTCOMES = ("won", "rejected", "errored", "no-verdict", "cancelled",
            "not-started")


def _statuses(r):
    assert all(o.status in OUTCOMES for o in r.outcomes)
    return [o.status for o in r.outcomes]


def test_portfolio_settled_in_solo_time_starts_no_thread(monkeypatch, cnt2, safe1):
    monkeypatch.setattr(orchestrator, "SOLO_TIME", 60.0)
    started = _spy_threads(monkeypatch)
    for aig, want in ((cnt2, "unsafe"), (safe1, "safe")):
        r = run_portfolio(aig, workers=4)
        assert r.verdict.status == want
        assert r.winner == default_configs(4)[0]
        assert _statuses(r) == ["won"] + ["not-started"] * 3
    assert started == []


def test_portfolio_race_after_bmc_first_on_safe_model(monkeypatch):
    # BMC cannot prove a safe model; after its solo time IC3 starts and wins,
    # and the callback that verified IC3's verdict stops BMC
    started = _spy_threads(monkeypatch)
    aig = mod_counter(6, 20, 40)
    cfgs = [EngineConfig("bmc", bmc_max=10 ** 6), EngineConfig("ic3")]
    r = run_portfolio(aig, workers=2, configs=cfgs)
    assert r.verdict.is_safe
    assert r.winner is cfgs[1]
    assert len(started) == 1
    assert _statuses(r) == ["cancelled", "won"]
    assert r.outcomes[0].reason == "ic3+dynamic won"


def test_portfolio_race_starts_at_once_after_unknown(monkeypatch, safe1):
    monkeypatch.setattr(orchestrator, "SOLO_TIME", 60.0)
    cfgs = [EngineConfig("bmc", bmc_max=2), EngineConfig("ic3")]
    t0 = time.monotonic()
    r = run_portfolio(safe1, workers=2, configs=cfgs)
    assert time.monotonic() - t0 < 30
    assert r.verdict.is_safe and r.winner is cfgs[1]
    assert _statuses(r) == ["no-verdict", "won"]
    assert r.outcomes[0].reason


def test_portfolio_engine_error_in_first_config(monkeypatch, safe1):
    monkeypatch.setattr(orchestrator, "SOLO_TIME", 60.0)
    cfgs = [EngineConfig("kind"), EngineConfig("ic3")]
    run = orchestrator.run_config

    def failing(aig, config, *a, **kw):
        if config is cfgs[0]:
            raise RuntimeError("boom")
        return run(aig, config, *a, **kw)

    monkeypatch.setattr(orchestrator, "run_config", failing)
    r = run_portfolio(safe1, workers=2, configs=cfgs)
    assert r.verdict.is_safe and r.winner is cfgs[1]
    assert _statuses(r) == ["errored", "won"]
    assert r.outcomes[0].reason == "engine error: RuntimeError: boom"
    assert not r.rejected


def test_portfolio_rejected_first_verdict(monkeypatch, cnt2):
    monkeypatch.setattr(orchestrator, "SOLO_TIME", 60.0)
    cfgs = [EngineConfig("ic3"), EngineConfig("bmc")]
    verify = orchestrator.verify_verdict
    calls = []

    def reject_first(aig, bad_index, verdict):
        calls.append(verdict)
        if len(calls) == 1:
            return False, "forged"
        return verify(aig, bad_index, verdict)

    monkeypatch.setattr(orchestrator, "verify_verdict", reject_first)
    r = run_portfolio(cnt2, workers=2, configs=cfgs)
    assert r.verdict.is_unsafe and r.winner is cfgs[1]
    assert r.rejected == [(cfgs[0], "forged")]
    assert _statuses(r) == ["rejected", "won"]
    assert r.outcomes[0].reason == "forged"


def test_portfolio_leaves_no_thread_behind(rng):
    baseline = threading.active_count()
    models = [mod_counter(6, 20, 40), counter_overflow(5), mod_counter(7, 40, 80)]
    models += [random_aig(rng) for _ in range(5)]
    for aig in models:
        r = run_portfolio(aig, workers=4, time_limit=5.0)
        assert len(r.outcomes) == 4
        assert threading.active_count() == baseline


def test_portfolio_two_workers_time_limit():
    aig = mod_counter(7, 40, 80)
    cfgs = [EngineConfig("bmc", bmc_max=10 ** 6),
            EngineConfig("bmc", bmc_step=10, bmc_max=10 ** 6)]
    t0 = time.monotonic()
    r = run_portfolio(aig, workers=2, configs=cfgs, time_limit=0.3)
    assert time.monotonic() - t0 < 0.3 + 0.5
    assert r.verdict.status == "unknown"
    assert "time limit" in r.verdict.reason
    assert _statuses(r) == ["cancelled", "cancelled"]
    assert r.outcomes[0].reason == "time limit reached"
