import pytest

from mcheck import certify, engines
from mcheck.certify import verify_certificate, verify_witness
from mcheck.engines import bmc, kind
from mcheck.ic3 import check as ic3_check
from mcheck.orchestrator import (EngineConfig, build_transys, run_config,
                                 verify_verdict)
from mcheck.satcore import Solver
from mcheck.transys import encode
from mcheck.verdicts import InvariantCert, safe

from fixtures import (AigBuilder, counter_overflow, induction_gap,
                      mod_counter, padded_mod_counter, random_aig, ref_neg,
                      shift_lock)
from oracle import bfs_check


def test_bmc_finds_minimal_depth(rng):
    found = 0
    for _ in range(60):
        aig = random_aig(rng)
        res = bfs_check(aig)
        if res.status != "unsafe":
            continue
        found += 1
        v = bmc(encode(aig), max_depth=res.depth + 3, step=1)
        assert v.is_unsafe
        assert v.stats.depth == res.depth
        ok, why = verify_witness(aig, v.witness)
        assert ok, why
    assert found >= 15


@pytest.mark.parametrize("step", [1, 3, 10])
def test_bmc_window_sizes_agree(step, cnt2):
    v = bmc(encode(cnt2), max_depth=10, step=step)
    assert v.is_unsafe and v.stats.depth == 3
    ok, why = verify_witness(cnt2, v.witness)
    assert ok, why


def test_bmc_cannot_prove_safety(safe1):
    v = bmc(encode(safe1), max_depth=20)
    assert v.status == "unknown"


def test_bmc_exact_budget_boundary(cnt2):
    assert bmc(encode(cnt2), max_depth=2).status == "unknown"
    assert bmc(encode(cnt2), max_depth=3).is_unsafe


def test_bmc_deep_counterexample():
    aig = counter_overflow(6)
    v = bmc(encode(aig), max_depth=80, step=16)
    assert v.is_unsafe and v.stats.depth == 64
    ok, why = verify_witness(aig, v.witness)
    assert ok, why


def _record_solvers(monkeypatch):
    """Every solver the engines make from now on."""
    solvers = []

    class Recording(engines.Solver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(engines, "Solver", Recording)
    return solvers


def test_bmc_folds_a_run_the_reset_state_fixes(monkeypatch):
    """`counter_overflow(8)` has no input, so from its reset state every
    frame folds to constants: BMC makes one query, at depth 256, on a
    solver of a few vars, and the witness replays."""
    solvers = _record_solvers(monkeypatch)
    aig = counter_overflow(8)
    v = bmc(build_transys(aig), max_depth=300)
    assert v.is_unsafe and v.stats.depth == 256
    assert v.stats.solver.solves == 1
    (solver,) = solvers
    assert solver.num_vars < 10
    ok, why = verify_witness(aig, v.witness)
    assert ok, why


def test_bmc_searches_at_depth():
    """The enable input keeps every frame of the counter open, so BMC must
    search: bad at step 30 needs the enable high on every cycle."""
    aig = padded_mod_counter(6, 60, 30, pad=0, enable=True)
    v = bmc(build_transys(aig), max_depth=40)
    assert v.is_unsafe and v.stats.depth == 30
    assert v.stats.solver.conflicts > 0
    ok, why = verify_witness(aig, v.witness)
    assert ok, why


@pytest.mark.parametrize("engine", [bmc, kind], ids=["bmc", "kind"])
def test_witness_reads_constant_frame0_literals(engine):
    """At an initial frame 0, latches reset to 1 and 0 are the constants
    true and false, and one with no reset is a var: the witness reads each
    literal with its sign."""
    b = AigBuilder()
    x = b.new_input()
    a, m, c = b.new_latch(1), b.new_latch(None), b.new_latch(0)
    b.set_next(a, a)
    b.set_next(m, m)
    b.set_next(c, x)
    aig = b.build(bads=[b.conj([a, m, c])])
    v = engine(encode(aig), 5)
    assert v.is_unsafe and v.stats.depth == 1
    assert v.witness.init_state == [1, 1, 0]
    ok, why = verify_witness(aig, v.witness)
    assert ok, why


def test_bmc_rejects_bad_step(cnt2):
    with pytest.raises(ValueError):
        bmc(encode(cnt2), max_depth=5, step=0)


def test_kind_base_case_matches_oracle(rng):
    found = 0
    for _ in range(40):
        aig = random_aig(rng)
        res = bfs_check(aig)
        if res.status != "unsafe":
            continue
        found += 1
        v = kind(encode(aig), max_k=res.depth + 3)
        assert v.is_unsafe
        assert v.stats.depth == res.depth
        ok, why = verify_witness(aig, v.witness)
        assert ok, why
    assert found >= 10


def test_kind_proves_inductive_model(safe1):
    ts = encode(safe1)
    v = kind(ts, max_k=10)
    assert v.is_safe
    ok, why = verify_certificate(ts, v.certificate)
    assert ok, why


def test_kind_unknown_when_not_inductive():
    # safe, but an unreachable loop feeds the bad state: plain induction
    # fails at every k
    ts = encode(induction_gap())
    v = kind(ts, max_k=12)
    assert v.status == "unknown"


def test_kind_certificates_never_overstate(rng):
    for _ in range(25):
        aig = random_aig(rng)
        ts = encode(aig)
        v = kind(ts, max_k=12)
        if v.is_safe:
            ok, why = verify_certificate(ts, v.certificate)
            assert ok, why


def test_engines_cancel(cnt2):
    ts = encode(cnt2)
    assert bmc(ts, max_depth=10, cancel=lambda: True).status == "unknown"
    assert kind(ts, max_k=10, cancel=lambda: True).status == "unknown"


@pytest.mark.parametrize("where", ["loop", "solve"])
def test_kind_cancelled_mid_loop_says_so(monkeypatch, where):
    """A cancel that turns true after the first query, seen at the top of
    the next frame or only inside its solve, ends k-induction as
    "cancelled", not as the bound's reason.  The counter has no input, so
    its base cases fold to constants and the first query is k = 1's step."""
    state = {"done": 0, "running": False}
    solve = Solver.solve

    def tracked(self, *args, **kwargs):
        state["running"] = True
        try:
            return solve(self, *args, **kwargs)
        finally:
            state["running"] = False
            state["done"] += 1

    monkeypatch.setattr(Solver, "solve", tracked)
    if where == "loop":
        def cancel():
            return state["done"] >= 1
    else:
        def cancel():
            return state["done"] >= 1 and state["running"]
    ts = encode(mod_counter(4, 6, 10))
    assert kind(ts, max_k=50).is_safe  # uncancelled, it proves the model
    state["done"] = 0
    v = kind(ts, max_k=50, cancel=cancel)
    assert v.status == "unknown" and v.reason == "cancelled", v.reason
    assert state["done"] == 1 + (where == "solve")


def test_stats_count_every_solver_of_a_run(monkeypatch):
    """A verdict's solver stats count the solves of all of its engine's
    solvers: IC3's one solver, k-induction's base and step."""
    calls = []
    solve = Solver.solve

    def counted(self, *args, **kwargs):
        calls.append(self)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "solve", counted)
    # the counter steps only when 20 inputs are 1, so the simulation stage
    # misses the overflow and IC3's own search finds it
    v = ic3_check(encode(counter_overflow(4, enables=20)))
    assert v.is_unsafe
    assert v.stats.solver.solves == len(calls)
    assert len(set(map(id, calls))) == 1
    calls.clear()
    # a' = x and c' = (x AND y) OR (x AND NOT y) agree, so bad = a AND NOT c
    # is 1-inductive; the input keeps depth 1 from folding to a constant,
    # so the base solver is queried as well as the step solver
    b = AigBuilder()
    x, y = b.new_input(), b.new_input()
    a, c = b.new_latch(0), b.new_latch(0)
    b.set_next(a, x)
    b.set_next(c, b.OR(b.AND(x, y), b.AND(x, ref_neg(y))))
    v = kind(encode(b.build(bads=[b.AND(a, ref_neg(c))])), max_k=12)
    assert v.is_safe and v.certificate.k == 1
    assert v.stats.solver.solves == len(calls) == 2
    assert len(set(map(id, calls))) == 2


# -- cone of influence --------------------------------------------------------


def _bmc_counts(aig, monkeypatch):
    """BMC through the engine front end; returns the verdict and the search
    figures that must not depend on logic outside the cone."""
    solvers = _record_solvers(monkeypatch)
    v = run_config(aig, EngineConfig("bmc"))
    st = v.stats.solver
    (solver,) = solvers
    return v, (st.solves, st.conflicts, st.decisions, st.propagations,
               solver.num_vars)


@pytest.mark.parametrize("width", [20, 40, 80])
def test_bmc_loads_no_property_logic_it_never_queries(monkeypatch, width):
    """Before depth `width` the lock's oldest latch is the constant 0, so
    every `reach` folds to false, and BMC loads none of those frames'
    comparator gates.  Only the frame it queries holds its `width` - 1
    gates, so the solver's clauses stay linear in `width`: 3 per gate, 1
    window clause, and no clause for the shifts, which fold to the
    previous frame's literals.  Loading every frame's comparator would take
    about 1.5 * width**2."""
    solvers = _record_solvers(monkeypatch)
    aig = shift_lock(width, 0x5A5A5A5A5A5A5A5A5A5A)
    v = run_config(aig, EngineConfig("bmc"))
    assert v.is_unsafe and v.stats.depth == width
    ok, why = verify_witness(aig, v.witness)
    assert ok, why
    (solver,) = solvers
    assert len(solver.clauses) + solver.num_bins <= 3 * width + 1


def test_bmc_cost_does_not_depend_on_the_pad(monkeypatch):
    v0, plain = _bmc_counts(padded_mod_counter(5, 30, 20, pad=0, enable=True),
                            monkeypatch)
    padded = padded_mod_counter(5, 30, 20, pad=8, enable=True)
    v8, wide = _bmc_counts(padded, monkeypatch)
    assert v0.is_unsafe and v8.is_unsafe
    assert v0.stats.depth == v8.stats.depth == 20
    assert wide == plain
    assert plain[2] > 0  # the enable input leaves decisions to make


@pytest.mark.parametrize("cfg", [EngineConfig("bmc"), EngineConfig("kind"),
                                 EngineConfig("ic3")], ids=lambda c: c.name)
@pytest.mark.parametrize("pad_init", [0, 1, None])
def test_padded_witnesses_have_source_width(cfg, pad_init):
    aig = padded_mod_counter(4, 12, 6, pad=3, enable=True, pad_init=pad_init)
    assert len(build_transys(aig).latch_vars) == 4  # the pad is cut away
    v = run_config(aig, cfg)
    assert v.is_unsafe
    assert len(v.witness.init_state) == len(aig.latches) == 7
    assert all(len(f) == len(aig.inputs) == 4 for f in v.witness.input_frames)
    if pad_init is not None:
        assert v.witness.init_state[4:] == [pad_init] * 3
    ok, why = verify_witness(aig, v.witness)
    assert ok, why


def test_cone_kinduction_certificate_verifies():
    # k-induction over the cone proves this at k=3: only 4 -> 5 -> 6 leads
    # into bad, and 4 has no predecessor.  The record is checked against the
    # full encoding, pad latches included, where k=2 still fails.
    aig = padded_mod_counter(3, 4, 6, pad=2)
    assert len(build_transys(aig).latch_vars) < len(encode(aig).latch_vars)
    v = run_config(aig, EngineConfig("kind"))
    assert v.is_safe and v.certificate.k == 3
    ok, why = verify_verdict(aig, 0, v)
    assert ok, why
    ok, why = verify_verdict(aig, 0, safe(InvariantCert([], 2)))
    assert (ok, why) == (False, "inductive step fails at k=2: bad")


def _check_load(aig, monkeypatch):
    """k-induction through the engine front end, then the portfolio gate's
    check of its proof; returns the literals that check loads."""
    loaded = []

    class Recording(certify.Solver):
        def add_root_clauses(self, lits, ends):
            loaded.append(len(lits))
            return super().add_root_clauses(lits, ends)

    v = run_config(aig, EngineConfig("kind"))
    assert v.is_safe and v.certificate.k == 3
    monkeypatch.setattr(certify, "Solver", Recording)
    ok, why = verify_verdict(aig, 0, v)
    assert ok, why
    return sum(loaded)


def test_kinduction_check_cost_does_not_depend_on_the_pad(monkeypatch):
    plain = _check_load(padded_mod_counter(3, 4, 6, pad=0), monkeypatch)
    wide = _check_load(padded_mod_counter(3, 4, 6, pad=200), monkeypatch)
    assert wide == plain > 0
