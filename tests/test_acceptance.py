"""Acceptance gate: end-to-end checks of the checker's core guarantees.

Each test prints a single PASS/FAIL line (routed past pytest's capture so it
always reaches the terminal) covering one acceptance criterion:

1. soundness of every engine against an explicit-state reachability oracle
2. self-verification of all certificates and witnesses
3. SAT-core differential against truth tables, and cone-restricted solving
   against full-domain solving
4. bucketed activity heap against an exact-score reference
5. generalization quality across the three static strategies
6. dynamic strategy escalation: monotone per cube, competitive in attempts
7. performance smoke checks and the dynamic-vs-ctg wall-time ablation
8. format fidelity: AIGER round-trips, witness files re-parse and replay
"""

import gc
import random
import time

import pytest

from mcheck import ic3
from mcheck.aiger import parse_aiger, serialize_aiger
from mcheck.certify import (format_witness, parse_witness, verify_witness)
from mcheck.engines import bmc, kind
from mcheck.ic3 import (CTG, DYNAMIC, EXCTG, IC3, STANDARD, Ic3Options,
                        check as ic3_check, select_strategy)
from mcheck.orchestrator import (build_transys, run_portfolio, verify_verdict)
from mcheck.satcore import BucketVsids, Solver
from mcheck.transys import encode

from fixtures import (SAFE1_AAG, UNSAFE1_AAG, CNT2_AAG, counter_overflow,
                      counter_with_reset, mod_counter, padded_mod_counter,
                      random_aig, structurally_equal)
from oracle import (DomainCheckingSolver, MicCheckingIC3, ShadowActivity,
                    bfs_check, cnf_brute_force)

STATIC = (STANDARD, CTG, EXCTG)


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = "%s criterion %d: %s" % ("PASS" if ok else "FAIL", criterion, detail)
    print(line)
    import conftest
    conftest.ACCEPTANCE_REPORT.append(line)
    assert ok, line


def _corpus():
    """Deterministic generated corpus: <=16 latches, <=200 gates, a mix of
    safe/unsafe, with and without constraints."""
    models = []
    for i in range(180):
        models.append(random_aig(random.Random(1000 + i),
                                 max_latches=10, max_inputs=3, max_gates=80))
    for i in range(40):
        models.append(random_aig(random.Random(5000 + i),
                                 max_latches=16, max_inputs=3, max_gates=200))
    return models


@pytest.fixture(scope="module")
def sweep():
    """Run every engine over the generated corpus once; criteria 1, 2 and 8
    all read from this record."""
    t0 = time.monotonic()
    records = []
    for aig in _corpus():
        res = bfs_check(aig)
        ts = build_transys(aig)
        verdicts = []
        for strategy in (STANDARD, CTG, EXCTG, DYNAMIC):
            verdicts.append(("ic3+" + strategy,
                             ic3_check(ts, Ic3Options(strategy=strategy))))
        verdicts.append(("ic3+dynamic+inn",
                         ic3_check(ts, Ic3Options(strategy=DYNAMIC, inn=True))))
        verdicts.append(("ic3+dynamic+abs-cst",
                         ic3_check(ts, Ic3Options(strategy=DYNAMIC,
                                                  abs_cst=True))))
        depth_budget = res.depth + 3 if res.depth is not None else 25
        verdicts.append(("bmc", bmc(ts, max_depth=depth_budget, step=1)))
        verdicts.append(("kind", kind(ts, max_k=20)))
        verdicts.append(("portfolio", run_portfolio(aig, workers=4).verdict))
        records.append((aig, res, verdicts))
    return records, time.monotonic() - t0


def test_criterion_1_oracle_soundness(sweep):
    records, elapsed = sweep
    disagreements = []
    definitive = 0
    for idx, (aig, res, verdicts) in enumerate(records):
        for name, v in verdicts:
            if v.status == "unknown":
                continue
            definitive += 1
            if v.status != res.status:
                disagreements.append((idx, name, v.status, res.status))
    ok = (not disagreements and len(records) >= 200 and elapsed < 600
          and definitive >= 6 * len(records))
    _report(1, ok,
            "%d models, %d definitive verdicts, %d disagreements, %.1fs"
            % (len(records), definitive, len(disagreements), elapsed))


def test_criterion_2_certificates_and_witnesses(sweep):
    records, _ = sweep
    checked = failures = 0
    for aig, _res, verdicts in records:
        for name, v in verdicts:
            if not v.definitive:
                continue
            checked += 1
            ok, why = verify_verdict(aig, 0, v)
            if not ok:
                failures += 1
    _report(2, checked > 0 and failures == 0,
            "%d certificates/witnesses checked, %d failures"
            % (checked, failures))


def test_criterion_3_solver_differential(monkeypatch):
    rng = random.Random(0xD1FF)
    mismatches = 0
    for _ in range(500):
        nv = rng.randint(2, 20)
        clauses = [[2 * rng.randrange(nv) + rng.randint(0, 1)
                    for _ in range(rng.randint(1, 4))]
                   for _ in range(rng.randint(1, 90))]
        s = Solver()
        s.new_vars(nv)
        for cl in clauses:
            s.add_clause(cl)
        res = s.solve()
        want = cnf_brute_force(nv, clauses) is not None
        if res != want:
            mismatches += 1

    # cone-restricted vs full-domain on live queries: IC3's solver, a
    # `DomainCheckingSolver` here, re-solves every restricted query
    # unrestricted and raises on any disagreement
    monkeypatch.setattr(ic3, "Solver", DomainCheckingSolver)
    domain_checks = domain_mismatches = 0
    fixtures = [padded_mod_counter(6, 20, 40, pad=6),
                padded_mod_counter(7, 40, 80, pad=6)]
    fixtures += [random_aig(random.Random(300 + i)) for i in range(60)]
    for aig in fixtures:
        v = ic3_check(encode(aig), Ic3Options(strategy=DYNAMIC))
        domain_checks += v.stats.solver.domain_checks
        domain_mismatches += v.stats.solver.domain_mismatches
    ok = mismatches == 0 and domain_checks >= 500 and domain_mismatches == 0
    _report(3, ok,
            "500 CNFs (%d mismatches); %d restricted queries re-solved "
            "(%d mismatches)" % (mismatches, domain_checks, domain_mismatches))


def test_criterion_4_bucket_vsids_fidelity():
    rng = random.Random(0xFACE)
    heap = BucketVsids()
    shadow = ShadowActivity()
    nvars = events = picks = violations = 0
    while events < 100_000:
        op = rng.random()
        events += 1
        if nvars == 0 or (op < 0.04 and nvars < 300):
            heap.new_var()
            shadow.new_var()
            nvars += 1
        elif op < 0.55:
            v = rng.randrange(nvars)
            heap.bump(v)
            shadow.bump(v)
        elif op < 0.62:
            heap.decay()
            shadow.decay()
        elif op < 0.75:
            v = rng.randrange(nvars)
            heap.insert(v)
            shadow.insert(v)
        else:
            banned = {v for v in range(nvars) if rng.random() < 0.25}
            parked = []
            v = heap.pop_max(lambda x: x not in banned, parked)
            best = shadow.best_bucket(lambda x: x not in banned)
            if v is None:
                violations += best is not None
            else:
                picks += 1
                if v in banned or shadow.bucket_of(v) != best:
                    violations += 1
            for p in parked:
                shadow.note_pop(p, taken=False)
            if v is not None:
                shadow.note_pop(v, taken=True)
    _report(4, violations == 0 and picks > 5000,
            "%d events, %d picks, %d violations" % (events, picks, violations))


@pytest.fixture(scope="module")
def mic_harvest():
    corpus = [mod_counter(6, 20, 40), mod_counter(6, 20, 50),
              mod_counter(7, 40, 80), mod_counter(7, 40, 100)]
    corpus += [random_aig(random.Random(700 + i), max_latches=10,
                          max_gates=60) for i in range(80)]
    out = {s: [] for s in STATIC}
    unverified = 0
    for aig in corpus:
        ts = encode(aig)
        for s in STATIC:
            checker = MicCheckingIC3(ts, Ic3Options(strategy=s))
            v = checker.check()
            for r in v.stats.mic_records:
                out[s].append(r.size_out)
            unverified += checker.mic_checks.count(False)
    return out, unverified


def test_criterion_5_generalization_quality(mic_harvest):
    sizes, unverified = mic_harvest
    total = sum(len(x) for x in sizes.values())
    means = {s: sum(x) / len(x) for s, x in sizes.items()}
    ordered = means[EXCTG] <= means[CTG] <= means[STANDARD]
    ok = total >= 500 and ordered and unverified == 0
    _report(5, ok,
            "%d mic calls; mean sizes exctg %.2f <= ctg %.2f <= standard "
            "%.2f: %s; %d unverified" % (total, means[EXCTG], means[CTG],
                                         means[STANDARD], ordered, unverified))


class _RecordingIC3(IC3):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.strategy_history = {}

    def _strategy_for(self, cube):
        s = super()._strategy_for(cube)
        self.strategy_history.setdefault(cube, []).append(s)
        return s


def test_criterion_6_dynamic_escalation():
    order = {STANDARD: 0, CTG: 1, EXCTG: 2}
    # (a) per-cube escalation never regresses
    non_monotone = 0
    histories = 0
    escalated = 0
    fixtures = [mod_counter(6, 20, 40), mod_counter(7, 40, 80)]
    fixtures += [random_aig(random.Random(900 + i)) for i in range(30)]
    for aig in fixtures:
        engine = _RecordingIC3(encode(aig), Ic3Options(strategy=DYNAMIC))
        engine.check()
        for seq in engine.strategy_history.values():
            histories += 1
            ranks = [order[s] for s in seq]
            if ranks != sorted(ranks):
                non_monotone += 1
            if ranks and ranks[0] == 0 and ranks[-1] == 2:
                escalated += 1  # a cube walked the whole ladder
    # the escalation schedule itself is monotone too
    opts = Ic3Options(strategy=DYNAMIC)
    schedule = [order[select_strategy(n, opts)] for n in range(20)]
    schedule_ok = schedule == sorted(schedule)

    # (b) on the hard-to-block family, dynamic stays within 1.1x of the
    # best static strategy's total block attempts
    family = [mod_counter(6, 20, 40), mod_counter(7, 40, 80)]
    attempts = {}
    for s in STATIC + (DYNAMIC,):
        attempts[s] = 0
        for aig in family:
            v = ic3_check(encode(aig), Ic3Options(strategy=s))
            assert v.is_safe
            attempts[s] += v.stats.block_attempts
    best_static = min(attempts[s] for s in STATIC)
    ratio = attempts[DYNAMIC] / best_static
    ok = (non_monotone == 0 and histories >= 10 and escalated > 0
          and schedule_ok and ratio <= 1.1)
    _report(6, ok,
            "%d cube histories (%d fully escalated), %d non-monotone; "
            "dynamic/best-static attempts %d/%d = %.3f"
            % (histories, escalated, non_monotone,
               attempts[DYNAMIC], best_static, ratio))


def test_criterion_7_performance_smoke():
    t0 = time.monotonic()
    ts32 = build_transys(counter_with_reset(32, 8))
    v = ic3_check(ts32, Ic3Options(strategy=DYNAMIC))
    t_ic3 = time.monotonic() - t0
    ic3_ok = v.is_safe and t_ic3 < 60

    t0 = time.monotonic()
    ts_ovf = build_transys(counter_overflow(8))
    vb = bmc(ts_ovf, max_depth=300, step=8)
    t_bmc = time.monotonic() - t0
    bmc_ok = vb.is_unsafe and vb.stats.depth == 256 and t_bmc < 60

    # ablation: the dynamic strategy must not cost more than 1.2x ctg-only
    # across a suite both solve completely; the two strategies take turns on
    # each system, so both sums see the same mix of host speeds
    suite = [random_aig(random.Random(40_000 + i), max_latches=10,
                        max_gates=80) for i in range(300)]
    suite += [counter_with_reset(16, 8), counter_with_reset(24, 8),
              counter_with_reset(32, 8)]
    systems = [build_transys(a) for a in suite]
    times = {CTG: 0.0, DYNAMIC: 0.0}
    # a collector pause inside one timed run would land on one side only
    gc.collect()
    gc.disable()
    try:
        for ts in systems:
            for s in (CTG, DYNAMIC):
                t0 = time.monotonic()
                ic3_check(ts, Ic3Options(strategy=s))
                times[s] += time.monotonic() - t0
    finally:
        gc.enable()
    ratio = times[DYNAMIC] / times[CTG]
    ablation_ok = ratio <= 1.2

    _report(7, ic3_ok and bmc_ok and ablation_ok,
            "32-bit counter proof %.2fs; bmc depth-256 cex %.2fs; "
            "dynamic/ctg wall time %.2f" % (t_ic3, t_bmc, ratio))


def test_criterion_8_format_fidelity(sweep):
    records, _ = sweep
    corpus = [aig for aig, _r, _v in records]
    corpus += [parse_aiger(t.encode()) for t in (SAFE1_AAG, UNSAFE1_AAG,
                                                 CNT2_AAG)]
    corpus += [counter_with_reset(16, 8), counter_overflow(8),
               mod_counter(6, 20, 40)]
    aiger_failures = 0
    for aig in corpus:
        ascii_blob = serialize_aiger(aig, ascii=True)
        bin_blob = serialize_aiger(aig, ascii=False)
        a2 = parse_aiger(ascii_blob)
        b2 = parse_aiger(bin_blob)
        if serialize_aiger(a2, ascii=True) != ascii_blob:
            aiger_failures += 1
        elif serialize_aiger(b2, ascii=False) != bin_blob:
            aiger_failures += 1
        elif not structurally_equal(a2, aig):
            aiger_failures += 1

    witness_failures = witnesses = 0
    for aig, _res, verdicts in records:
        for _name, v in verdicts:
            if not v.is_unsafe:
                continue
            witnesses += 1
            reparsed = parse_witness(format_witness(v.witness))
            ok, _why = verify_witness(aig, reparsed)
            if (not ok or reparsed.bad_index != v.witness.bad_index
                    or reparsed.init_state != v.witness.init_state
                    or reparsed.input_frames != v.witness.input_frames):
                witness_failures += 1
    ok = aiger_failures == 0 and witnesses > 100 and witness_failures == 0
    _report(8, ok,
            "%d models round-tripped (%d failures); %d witness files "
            "replayed (%d failures)" % (len(corpus), aiger_failures,
                                        witnesses, witness_failures))
