import dataclasses
import itertools
import random

import pytest

from mcheck import ic3
from mcheck.aiger import eval_nodes, parse_aiger
from mcheck.orchestrator import (EngineConfig, build_transys, run_config,
                                 verify_verdict)
from mcheck.certify import verify_certificate, verify_witness
from mcheck.ic3 import (CTG, DYNAMIC, DYNAMIC_T1, DYNAMIC_T2, EXCTG, IC3,
                        MODEL_RING, SIM_LANES, SIM_STEPS, SIM_WORK, STANDARD,
                        Ic3Options, select_strategy, check as ic3_check)
from mcheck.logic import negate
from mcheck.satcore import UNDEF
from mcheck.transys import coi_vars, encode, simplify_cnf

from fixtures import (TRUE_REF, AigBuilder, counter_overflow, mod_counter,
                      padded_mod_counter, random_aig, ref_neg, shift_lock)
from oracle import (DomainCheckingSolver, DomainMismatchError, MicCheckingIC3,
                    bfs_check, check_frames)

STRATEGIES = (STANDARD, CTG, EXCTG, DYNAMIC)


def _agree(aig, options, res):
    ts = encode(aig)
    v = ic3_check(ts, options)
    assert v.status == res.status, (options.strategy, v.reason)
    if v.is_safe:
        ok, why = verify_certificate(ts, v.certificate)
        assert ok, why
    else:
        ok, why = verify_witness(aig, v.witness)
        assert ok, why


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_agree_with_oracle(strategy, rng, monkeypatch):
    for _ in range(40):
        aig = random_aig(rng)
        res = bfs_check(aig)
        _agree(aig, Ic3Options(strategy=strategy), res)
        # the simulation stage settles most unsafe circuits: with it off,
        # IC3's own counterexamples meet the oracle too
        with monkeypatch.context() as m:
            m.setattr(ic3, "SIM_STEPS", 0)
            _agree(aig, Ic3Options(strategy=strategy), res)


@pytest.fixture(scope="module")
def criterion_1_unsafe():
    """The unsafe models among criterion 1's first 60 draws."""
    models = [random_aig(random.Random(1000 + i),
                         max_latches=10, max_inputs=3, max_gates=80)
              for i in range(60)]
    return [aig for aig in models if bfs_check(aig).status == "unsafe"]


@pytest.mark.parametrize("strategy, abs_cst",
                         [*((s, False) for s in STRATEGIES), (DYNAMIC, True)])
def test_own_counterexamples_on_criterion_1_models(strategy, abs_cst,
                                                   criterion_1_unsafe,
                                                   monkeypatch):
    # the simulation stage settles most of criterion 1's unsafe models
    # before any query; with it off, each witness is IC3's own search's
    monkeypatch.setattr(ic3, "SIM_STEPS", 0)
    assert len(criterion_1_unsafe) >= 30
    for aig in criterion_1_unsafe:
        v = ic3_check(build_transys(aig),
                      Ic3Options(strategy=strategy, abs_cst=abs_cst))
        assert v.status == "unsafe", (strategy, v.reason)
        ok, why = verify_verdict(aig, 0, v)
        assert ok, why


def test_abs_cst_variant_agrees_with_oracle(rng):
    for _ in range(40):
        aig = random_aig(rng, constraint_prob=1.0)
        _agree(aig, Ic3Options(strategy=DYNAMIC, abs_cst=True), bfs_check(aig))


def test_abs_cst_refines_on_load_bearing_constraint():
    # toggling latch, bad = latch, constraint pins the latch at 0; ignoring
    # the constraint yields a spurious counterexample that forces refinement
    aig = parse_aiger(b"aag 1 0 1 0 0 1 1\n2 3\n2\n3\n")
    ts = encode(aig)
    v = ic3_check(ts, Ic3Options(strategy=DYNAMIC, abs_cst=True))
    assert v.is_safe
    assert v.stats.abstraction_refinements >= 1
    ok, why = verify_certificate(ts, v.certificate)
    assert ok, why


def test_works_on_simplified_systems(rng):
    for _ in range(25):
        aig = random_aig(rng)
        res = bfs_check(aig)
        ts = simplify_cnf(encode(aig))
        v = ic3_check(ts, Ic3Options(strategy=DYNAMIC))
        assert v.status == res.status


def test_mic_outputs_are_relatively_inductive():
    ts = encode(mod_counter(6, 20, 40))
    for strategy in STRATEGIES:
        checker = MicCheckingIC3(ts, Ic3Options(strategy=strategy))
        v = checker.check()
        assert v.is_safe
        assert v.stats.mic_records
        assert all(checker.mic_checks), strategy
        assert all(1 <= r.size_out <= r.size_in for r in v.stats.mic_records)


class _DropsOneMore(IC3):
    """Each top-level MIC result loses its first literal, one too many."""

    def mic(self, cube, level, strategy, rec_depth=1, budget=None):
        result = super().mic(cube, level, strategy, rec_depth, budget)
        return result[1:] if rec_depth == 1 and len(result) > 1 else result


class _CheckedDropsOneMore(MicCheckingIC3, _DropsOneMore):
    pass


def test_mic_check_counts_a_result_that_drops_one_literal_too_many():
    checker = _CheckedDropsOneMore(encode(mod_counter(6, 20, 40)),
                                   Ic3Options(strategy=STANDARD))
    checker.check()
    assert checker.mic_checks.count(False) >= 1


def test_dynamic_mode_escalates_through_strategies():
    ts = encode(mod_counter(6, 20, 40))
    v = ic3_check(ts, Ic3Options(strategy=DYNAMIC))
    calls = v.stats.mic_calls
    assert calls.get(STANDARD, 0) > 0
    assert calls.get(EXCTG, 0) > 0  # escalation actually happened


def test_select_strategy_monotone():
    order = {STANDARD: 0, CTG: 1, EXCTG: 2}
    opts = Ic3Options(strategy=DYNAMIC)
    seq = [order[select_strategy(n, opts)] for n in range(12)]
    assert seq == sorted(seq)
    assert seq[0] == 0
    assert seq[-1] == 2


class _EscalationIC3(IC3):
    """Records each strategy handed out, with the cube's fail count and
    whether a top-level MIC on that cube has blocked a CTG so far; the
    latter is observed here, apart from the engine's own bookkeeping."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.blocked = set()
        self.given = []  # (strategy, fails, blocked)
        self._cube = None

    def _strategy_for(self, cube):
        s = super()._strategy_for(cube)
        fails = self._escalation.get(cube, [0])[0]
        self.given.append((s, fails, cube in self.blocked))
        self._cube = cube  # rec_block runs the top-level MIC next
        return s

    def mic(self, cube, level, strategy, rec_depth=1, budget=None):
        before = self.stats.ctg_blocks
        out = super().mic(cube, level, strategy, rec_depth, budget)
        if rec_depth == 1 and self.stats.ctg_blocks > before:
            self.blocked.add(self._cube)
        return out


@pytest.fixture(scope="module")
def escalations():
    given = []
    for aig in (mod_counter(6, 20, 40), mod_counter(6, 24, 40, enable=True),
                mod_counter(6, 20, 33, enable=True), mod_counter(6, 20, 33),
                mod_counter(6, 32, 60), mod_counter(6, 20, 32),
                mod_counter(6, 20, 32, enable=True)):
        engine = _EscalationIC3(encode(aig), Ic3Options(strategy=DYNAMIC))
        assert engine.check().is_safe
        given += engine.given
    return given


def test_dynamic_exctg_waits_for_a_ctg_block(escalations):
    # however often its blocks fail, a cube whose CTG MICs never blocked a
    # CTG stays at CTG
    assert not [g for g in escalations if g[0] == EXCTG and not g[2]]
    assert [g for g in escalations if g[0] == CTG and g[1] >= DYNAMIC_T2
            and not g[2]]


# (failed blocks, whether a CTG MIC on the cube blocked a CTG, dynamic's pick)
DYNAMIC_PICKS = [
    (0, False, STANDARD), (DYNAMIC_T1 - 1, True, STANDARD),
    (DYNAMIC_T1, False, CTG), (DYNAMIC_T1, True, CTG),
    (DYNAMIC_T2 - 1, True, CTG), (DYNAMIC_T2, False, CTG),
    (DYNAMIC_T2, True, EXCTG), (DYNAMIC_T2 + 10, False, CTG),
    (DYNAMIC_T2 + 10, True, EXCTG),
]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_for_waits_for_a_ctg_block(strategy):
    # the escalation state set by hand, so no search has to reach it; a
    # static mode hands out its own strategy whatever the state
    engine = IC3(encode(mod_counter(3, 5, 6)), Ic3Options(strategy=strategy))
    cube = (2, 5)
    assert engine._strategy_for(cube) == (
        STANDARD if strategy == DYNAMIC else strategy)
    for fails, paid, pick in DYNAMIC_PICKS:
        engine._escalation[cube] = [fails, paid]
        assert engine._strategy_for(cube) == (
            pick if strategy == DYNAMIC else strategy), (fails, paid)


def test_dynamic_cube_with_a_ctg_block_escalates_at_t2(escalations):
    paid = [(s, fails) for s, fails, blocked in escalations if blocked]
    assert all((s == EXCTG) == (fails >= DYNAMIC_T2) for s, fails in paid)
    assert (EXCTG, DYNAMIC_T2) in paid


def test_dynamic_solver_calls_stay_near_ctg():
    # on deep enable counters CTG rarely pays and extended CTG costs most;
    # dynamic must not spend much more than CTG alone
    calls = {}
    for s in (CTG, DYNAMIC):
        calls[s] = sum(
            ic3_check(encode(mod_counter(n, w, b, enable=True)),
                      Ic3Options(strategy=s)).stats.solver_calls
            for n, w, b in ((6, 24, 40), (6, 20, 33), (5, 24, 28)))
    assert calls[DYNAMIC] <= 1.1 * calls[CTG], calls


def test_select_strategy_static_modes_are_constant():
    for s in (STANDARD, CTG, EXCTG):
        opts = Ic3Options(strategy=s)
        assert {select_strategy(n, opts) for n in range(10)} == {s}


def test_domain_restriction_differential(rng, monkeypatch):
    """COI-restricted queries re-solved unrestricted must agree; the
    domain-checking solver raises on any mismatch."""
    from fixtures import padded_mod_counter
    monkeypatch.setattr(ic3, "Solver", DomainCheckingSolver)
    checks = 0
    corpus = [random_aig(rng) for _ in range(25)]
    corpus.append(padded_mod_counter(6, 20, 40, pad=6))
    for aig in corpus:
        ts = encode(aig)
        v = ic3_check(ts, Ic3Options(strategy=DYNAMIC))
        assert v.status in ("safe", "unsafe")
        assert v.stats.solver.domain_mismatches == 0
        checks += v.stats.solver.domain_checks
    assert checks >= 100


def test_frame_invariants_hold_during_search(monkeypatch):
    rec_block = IC3.rec_block
    checked = []

    def rec_block_then_check(self, root):
        trace = rec_block(self, root)
        check_frames(self)
        checked.append(root)
        return trace

    monkeypatch.setattr(IC3, "rec_block", rec_block_then_check)
    ts = encode(mod_counter(6, 20, 40))
    v = ic3_check(ts, Ic3Options(strategy=DYNAMIC))
    assert v.is_safe
    assert checked


def test_cancel_gives_unknown():
    ts = encode(mod_counter(7, 40, 80))
    v = ic3_check(ts, Ic3Options(strategy=STANDARD), cancel=lambda: True)
    assert v.status == "unknown"


def test_deep_counterexample_found():
    # 20 enable inputs keep the overflow from the simulation stage, so the
    # obligation queue finds it
    aig = counter_overflow(4, enables=20)
    ts = encode(aig)
    v = ic3_check(ts, Ic3Options(strategy=DYNAMIC))
    assert v.is_unsafe
    ok, why = verify_witness(aig, v.witness)
    assert ok, why
    # the counter's path to the sticky flag is deterministic: 16 steps
    assert len(v.witness.input_frames) - 1 >= 16


def test_solver_vars_stay_bounded():
    # one activation var per frame and one reused for the temporaries: the
    # solver does not grow with the number of queries
    engine = IC3(encode(mod_counter(7, 64, 120, enable=True)),
                 Ic3Options(strategy=DYNAMIC))
    assert engine.check().is_safe
    assert engine.stats.solver_calls > 500
    n = engine.ts.num_vars
    assert engine.solver.num_vars <= n + engine.k + 2


class _RingTracking(IC3):
    """Notes whether the current model came from the ring of stored sat
    answers (`from_ring`) or from the solver."""

    from_ring = False

    def solve_relative(self, cube, level, block_self=True):
        before = self.stats.ring_answers
        out = super().solve_relative(cube, level, block_self)
        self.from_ring = self.stats.ring_answers > before
        return out

    def get_bad(self):
        self.from_ring = False
        return super().get_bad()


class _CheckedLifts(_RingTracking):
    """IC3 that checks each lifted cube by brute force over the source AIG:
    under the model's input bits, every completion of the latches outside
    the cube satisfies the constraints and steps into the targets."""

    lifts = ring_lifts = 0

    def lift_predecessor(self, state_cube, targets):
        cube = super().lift_predecessor(state_cube, targets)
        self.lifts += 1
        self.ring_lifts += self.from_ring
        ts, aig = self.ts, self.ts.source
        frame = ts.widen_witness([], [self._model_inputs()]).input_frames[0]
        inputs = dict(zip(aig.inputs, frame))
        fixed = {l >> 1: 1 - (l & 1) for l in cube}
        free = [lt.var for lt in aig.latches if lt.var not in fixed]

        def value(lit):
            x = vals[lit >> 1] if lit > 1 else 1  # the constant var 0 is true
            return x ^ (lit & 1)

        for bits in itertools.product((0, 1), repeat=len(free)):
            vals = eval_nodes(aig, {**fixed, **dict(zip(free, bits))}, inputs)
            assert all(value(c) for c in ts.constraints), (cube, bits)
            assert all(value(t) for t in targets), (cube, bits)
        return cube


def test_lifted_cubes_hold_for_every_completion(rng):
    lifts = ring_lifts = 0
    for _ in range(300):
        aig = random_aig(rng, constraint_prob=1.0)
        if all(lt.init is not None for lt in aig.latches):
            continue
        want = bfs_check(aig).status
        for strategy in (DYNAMIC, EXCTG):
            engine = _CheckedLifts(encode(aig), Ic3Options(strategy=strategy))
            assert engine.check().status == want
            lifts += engine.lifts
            ring_lifts += engine.ring_lifts
    assert lifts > 100
    # the random circuits rarely lift a model the ring answered with; the
    # enable counters, whose blocks and CTG checks fail often, do
    for aig in (mod_counter(6, 20, 33, enable=True),
                mod_counter(5, 24, 28, enable=True)):
        for strategy in (DYNAMIC, EXCTG):
            engine = _CheckedLifts(encode(aig), Ic3Options(strategy=strategy))
            assert engine.check().is_safe
            ring_lifts += engine.ring_lifts
    assert ring_lifts > 100


class _RecordedLifts(IC3):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.lifted = []

    def lift_predecessor(self, state_cube, targets):
        cube = super().lift_predecessor(state_cube, targets)
        self.lifted.append(cube)
        return cube


def test_lift_that_reaches_no_latch_is_the_empty_cube():
    # latch a reads the AND of 24 inputs, latch b reads a, bad = b: the step
    # into a is justified by the inputs alone, so every state is a
    # predecessor, an initial one too, and the obligation is traced from
    # init at once; random inputs miss the AND, so IC3's search runs
    b = AigBuilder()
    xs = [b.new_input() for _ in range(24)]
    a, c = b.new_latch(0), b.new_latch(0)
    b.set_next(a, b.conj(xs))
    b.set_next(c, a)
    aig = b.build(bads=[c])
    engine = _RecordedLifts(encode(aig), Ic3Options(strategy=DYNAMIC))
    v = engine.check()
    assert v.is_unsafe
    assert () in engine.lifted
    ok, why = verify_verdict(aig, 0, v)
    assert ok, why
    assert len(v.witness.input_frames) == 3


class _FreshDomains(IC3):
    """IC3 that checks every cached query domain against a fresh walk."""

    lookups = hits = 0

    def _query_domain(self, cube):
        key = None if cube is None else frozenset(l >> 1 for l in cube)
        self.lookups += 1
        self.hits += key in self._domains
        got = super()._query_domain(cube)
        ts = self.ts
        roots = [ts.bad >> 1] + [l >> 1 for l in ts.constraints]
        if cube is not None:
            roots += [v for l in cube
                      for v in (l >> 1, ts.next_map[l >> 1] >> 1)]
        assert got == coi_vars(roots, ts.defs, self._adj)
        return got


def test_cached_query_domains_match_a_fresh_walk(rng):
    # a few of the random circuits add a lemma edge that widens a domain
    # already cached, so a cache that ignores new edges fails here
    models = [mod_counter(6, 32, 60, enable=True)]
    models += [random_aig(rng, max_latches=10, max_inputs=2, max_gates=30,
                          constraint_prob=0.8) for _ in range(300)]
    lookups = hits = 0
    for aig in models:
        engine = _FreshDomains(encode(aig), Ic3Options(strategy=DYNAMIC))
        assert engine.check().status == bfs_check(aig).status
        lookups += engine.lookups
        hits += engine.hits
    assert hits > lookups // 2


@pytest.mark.parametrize("aig, status", [
    pytest.param(mod_counter(6, 28, 50, enable=True), "safe", id="mod(6,28,50)"),
    pytest.param(padded_mod_counter(6, 28, 50, pad=8, enable=True), "safe",
                 id="mod(6,28,50,pad=8)"),
    pytest.param(mod_counter(6, 20, 33, enable=True), "safe", id="mod(6,20,33)"),
    pytest.param(padded_mod_counter(6, 20, 33, pad=6, enable=True), "safe",
                 id="mod(6,20,33,pad=6)"),
    pytest.param(mod_counter(5, 20, 30, enable=True), "safe", id="mod(5,20,30)"),
    pytest.param(padded_mod_counter(5, 20, 30, pad=4, enable=True), "safe",
                 id="mod(5,20,30,pad=4)"),
    # the enables keep the overflow from the simulation stage
    pytest.param(counter_overflow(5, enables=20), "unsafe",
                 id="overflow(5,enables=20)"),
])
def test_cached_domains_cover_deep_queries(aig, status, monkeypatch):
    """Every restricted query on the deep counters, re-solved on the full
    domain, gives the same answer."""
    monkeypatch.setattr(ic3, "Solver", DomainCheckingSolver)
    v = ic3_check(encode(aig), Ic3Options(strategy=DYNAMIC))
    assert v.status == status
    assert v.stats.solver.domain_checks > 100
    assert v.stats.solver.domain_mismatches == 0


class _NoNextStateCone(IC3):
    """Leaves the cube's next-state cone out of each relative-induction
    domain: the cube's next-state literals are assumed, but nothing they
    read is decided."""

    def _query_domain(self, cube):
        if cube is None:
            return super()._query_domain(None)
        roots = [self.ts.bad >> 1, *(l >> 1 for l in self.ts.constraints),
                 *(l >> 1 for l in cube)]
        return coi_vars(roots, self.ts.defs, self._adj)


def test_domain_check_catches_a_domain_without_the_next_state_cone(monkeypatch):
    monkeypatch.setattr(ic3, "Solver", DomainCheckingSolver)
    engine = _NoNextStateCone(encode(mod_counter(6, 24, 40, enable=True)),
                              Ic3Options(strategy=DYNAMIC))
    with pytest.raises(DomainMismatchError):
        engine.check()
    assert engine.solver.stats.domain_mismatches == 1


def test_zero_step_query_searches_only_the_cone_of_bad():
    # bad is the AND of 24 of 2^16 inputs, which random inputs miss: the
    # 0-step query decides bad's cone, not every var the encoding allocated
    b = AigBuilder()
    xs = [b.new_input() for _ in range(1 << 16)]
    aig = b.build(bads=[b.conj(xs[:24])])
    v = run_config(aig, EngineConfig("ic3"))
    assert v.is_unsafe and v.stats.sim_depth is None
    ok, why = verify_verdict(aig, 0, v)
    assert ok, why
    assert v.stats.solver.decisions <= 2


# -- the simulation stage -----------------------------------------------------


def _simulate(ts):
    return ts.simulate(SIM_LANES, SIM_STEPS, SIM_WORK).witness


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_simulation_finds_the_overflow_with_no_query(strategy):
    aig = counter_overflow(4)
    v = ic3_check(encode(aig), Ic3Options(strategy=strategy))
    assert v.is_unsafe
    assert v.stats.solver_calls == 0 and v.stats.solver.solves == 0
    assert v.stats.sim_depth == 16
    assert len(v.witness.input_frames) == 17  # steps 0..16
    ok, why = verify_witness(aig, v.witness)
    assert ok, why


def _bad_past_a_failed_constraint():
    """x' = i, bad = x, constraint NOT i: x rises only after a step that
    violates the constraint."""
    b = AigBuilder()
    i = b.new_input()
    x = b.new_latch(0)
    b.set_next(x, i)
    return b.build(bads=[x], constraints=[ref_neg(i)])


def _bad_where_the_constraint_fails():
    """x' = 1, bad = x AND NOT i, constraint i: from step 1 on, a step
    with bad is exactly a step where the constraint fails."""
    b = AigBuilder()
    i = b.new_input()
    x = b.new_latch(0)
    b.set_next(x, TRUE_REF)
    return b.build(bads=[b.AND(x, ref_neg(i))], constraints=[i])


@pytest.mark.parametrize("aig", [
    pytest.param(_bad_past_a_failed_constraint(), id="before bad"),
    pytest.param(_bad_where_the_constraint_fails(), id="at bad"),
])
def test_simulation_counts_bad_only_where_the_constraints_held(aig):
    ts = encode(aig)
    # the lanes do reach bad, each on a step where some constraint failed
    assert _simulate(dataclasses.replace(ts, constraints=[])) is not None
    assert _simulate(ts) is None
    assert bfs_check(aig).status == "safe"
    for strategy in STRATEGIES:
        v = ic3_check(ts, Ic3Options(strategy=strategy))
        assert v.is_safe and v.stats.sim_depth is None


def test_simulation_gives_the_same_witness_twice():
    # the lock needs one 6-bit input run, which some lane hits at a depth
    # and with inputs that only the seed decides
    aig = shift_lock(6, 0b101101)
    v1, v2 = (ic3_check(encode(aig)) for _ in range(2))
    assert v1.stats.sim_depth is not None and v1.stats.solver_calls == 0
    assert v1.witness == v2.witness
    ok, why = verify_witness(aig, v1.witness)
    assert ok, why


def test_a_system_past_the_work_bound_is_left_to_the_search():
    # bad is NOT the AND of SIM_WORK + 2 inputs, SIM_WORK + 1 gates: it
    # holds at depth 0 for almost every input, but the simulation stage
    # does not run on so large a system
    b = AigBuilder()
    xs = [b.new_input() for _ in range(SIM_WORK + 2)]
    aig = b.build(bads=[ref_neg(b.conj(xs))])
    assert len(aig.ands) > SIM_WORK
    ts = encode(aig)
    assert _simulate(ts) is None
    v = ic3_check(ts)
    assert v.is_unsafe and v.stats.sim_depth is None
    assert v.stats.solver_calls >= 1
    ok, why = verify_witness(aig, v.witness)
    assert ok, why


class _CheckedRing(_RingTracking):
    """Re-solves on the solver each query a stored model answers, with the
    model's state literals and input bits as extra assumptions, so that the
    model the search goes on with is checked, not only the answer; and
    checks that the model assigns the query's whole domain, which the
    lifting walk reads.  Counts in `own` the answers that came from the
    queried cube's own entry, a failed push of that lemma."""

    rechecked = own = 0

    def solve_relative(self, cube, level, block_self=True):
        own = self._push_cex.get(cube)
        out = super().solve_relative(cube, level, block_self)
        if self.from_ring:
            self.own += self._answer is own
            model = self._model
            assert all(model[v] != UNDEF for v in self._query_domain(cube))
            ts, s = self.ts, self.solver
            if block_self:
                s.add_clause(negate(cube), temporary=True)
            inputs = [2 * v + 1 - b
                      for v, b in zip(ts.input_vars, self._model_inputs())]
            assume = (self._frame_assumptions(level - 1)
                      + [ts.prime(l) for l in cube]
                      + list(self._model_state_cube()) + inputs)
            assert s.solve(assume) is True, (cube, level, block_self)
            self.rechecked += 1
        return out


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_skipped_pushes_would_fail(strategy, rng):
    # a lemma's own entry kept past the lemmas added since its failed push
    # would answer pushes that now succeed; _CheckedRing re-solves each
    # push it answers
    models = [random_aig(rng) for _ in range(30)]
    models += [mod_counter(6, 20, 33, enable=True),
               mod_counter(5, 24, 28, enable=True)]
    own = 0
    for aig in models:
        engine = _CheckedRing(encode(aig), Ic3Options(strategy=strategy))
        v = engine.check()
        assert v.status in ("safe", "unsafe"), v.reason
        ok, why = verify_verdict(aig, 0, v)
        assert ok, why
        own += engine.own
    assert own > 0


def test_push_memo_skips_pushes_on_an_enable_counter():
    engine = _CheckedRing(encode(mod_counter(6, 20, 33, enable=True)),
                          Ic3Options(strategy=DYNAMIC))
    assert engine.check().is_safe
    assert engine.own > 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ring_answers_are_models_of_their_queries(strategy, rng):
    models = [random_aig(rng) for _ in range(30)]
    models += [mod_counter(6, 20, 33, enable=True),
               mod_counter(5, 24, 28, enable=True)]
    # here a new lemma widens a query's domain past the vars a stored model
    # assigns, so the ring must pass over that model
    models.append(random_aig(random.Random(40_133), max_latches=10,
                             max_gates=80))
    rechecked = 0
    for aig in models:
        engine = _CheckedRing(encode(aig), Ic3Options(strategy=strategy))
        v = engine.check()
        assert v.status in ("safe", "unsafe"), v.reason
        ok, why = verify_verdict(aig, 0, v)
        assert ok, why
        assert engine.rechecked == v.stats.ring_answers
        rechecked += engine.rechecked
    assert rechecked > 0


class _BoundedMemo(IC3):
    """Checks that each lemma's entry belongs to a live lemma one level
    below the entry's own, the level of the push query it answered; that
    the ring of stored models never exceeds `MODEL_RING`; and that after a
    propagation pass the lemma log starts at the oldest position a stored
    entry still reads."""

    entries = 0

    def _check_memo(self):
        assert len(self._push_cex) <= sum(len(f) for f in self.frames)
        for cube, e in self._push_cex.items():
            assert cube in self.frames[e[0] - 1]
        self.entries += len(self._push_cex)
        assert len(self._ring) <= MODEL_RING

    def add_lemma(self, cube, level):
        super().add_lemma(cube, level)
        self._check_memo()

    def propagate(self):
        out = super().propagate()
        self._check_memo()
        since = [e[6] for e in (*self._push_cex.values(), *self._ring)]
        assert self._log_base == min(since, default=self._log_end())
        return out


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_push_memo_is_bounded_by_live_lemmas(strategy):
    for aig in (mod_counter(6, 20, 33, enable=True),
                mod_counter(6, 32, 60, enable=True)):
        engine = _BoundedMemo(encode(aig), Ic3Options(strategy=strategy))
        assert engine.check().is_safe
        assert engine.entries > 0


# -- the bank of simulated states ----------------------------------------------


class _CheckedBank(IC3):
    """Re-solves on the solver each query a simulated lane answers, with the
    lane's state literals and input bits as extra assumptions, so that the
    model the search goes on with is checked, not only the answer."""

    rechecked = 0

    def solve_relative(self, cube, level, block_self=True):
        before = self.stats.bank_answers
        out = super().solve_relative(cube, level, block_self)
        if self.stats.bank_answers > before:
            assert out == (True, None)
            ts, s = self.ts, self.solver
            state = self._model_state_cube()
            assert len(state) == len(ts.latch_vars)  # a full valuation
            if block_self:
                s.add_clause(negate(cube), temporary=True)
            inputs = [2 * v + 1 - b
                      for v, b in zip(ts.input_vars, self._model_inputs())]
            assume = (self._frame_assumptions(level - 1)
                      + [ts.prime(l) for l in cube] + list(state) + inputs)
            assert s.solve(assume) is True, (cube, level, block_self)
            self.rechecked += 1
        return out


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_bank_answers_are_models_of_their_queries(strategy, rng):
    # the constraints drop lanes from the bank; the enable counters make
    # many queries that only a deep lane answers
    models = [random_aig(rng, constraint_prob=1.0) for _ in range(200)]
    counters = [mod_counter(6, 20, 33, enable=True),
                mod_counter(5, 24, 28, enable=True),
                padded_mod_counter(5, 20, 30, pad=4, enable=True)]
    rechecked = {}
    for aig in models + counters:
        engine = _CheckedBank(encode(aig), Ic3Options(strategy=strategy))
        v = engine.check()
        assert v.status == bfs_check(aig).status, v.reason
        ok, why = verify_verdict(aig, 0, v)
        assert ok, why
        assert engine.rechecked == v.stats.bank_answers
        rechecked[aig in counters] = (rechecked.get(aig in counters, 0)
                                      + engine.rechecked)
    assert rechecked[False] > 0 and rechecked[True] > 20


def _loaded(ts, frames):
    """A `_CheckedBank` on `ts` with the simulation stage's lanes, its
    solver loaded and `frames` frames past init, none holding a lemma."""
    engine = _CheckedBank(ts)
    engine._sim = ts.simulate(SIM_LANES, SIM_STEPS, SIM_WORK)
    assert engine._sim.witness is None
    engine._load()
    for _ in range(frames):
        engine._new_frame()
    return engine


def test_bank_passes_over_lanes_that_violated_a_constraint():
    # x' = i under the constraint NOT i: lanes do reach x, each one only
    # past a step where the constraint failed, so no query on x is theirs
    ts = encode(_bad_past_a_failed_constraint())
    engine = _loaded(ts, 3)
    assert any(s[0] for s in engine._sim.states[1:])
    x = 2 * ts.latch_vars[0]
    for level in (1, 2, 3):
        for block_self in (True, False):
            assert engine.solve_relative((x,), level, block_self)[0] is False
    assert engine.stats.bank_answers == 0


def test_bank_answers_only_from_a_step_before_the_query_level():
    # x1' = i, x2' = x1, x3' = x2 and y' = 1, all reset to 0; bad = x3 AND
    # NOT y is unreachable, so every lane misses it
    b = AigBuilder()
    i = b.new_input()
    x1, x2, x3, y = (b.new_latch(0) for _ in range(4))
    for lt, nxt in ((x1, i), (x2, x1), (x3, x2), (y, TRUE_REF)):
        b.set_next(lt, nxt)
    engine = _loaded(encode(b.build(bads=[b.AND(x3, ref_neg(y))])), 2)
    for cube, level, block_self, sat in [
        ((x3,), 1, True, False),  # x3 takes three steps, past level 1
        ((ref_neg(y),), 1, False, False),  # NOT y holds only at step 0
        # every step-1 state with NOT x3 steps from one with NOT x3 ...
        ((ref_neg(x3),), 1, True, False),
        ((ref_neg(x3),), 1, False, True),  # ... which this query allows
        ((x2,), 2, True, True),
    ]:
        assert engine.solve_relative(cube, level, block_self)[0] is sat, cube
    assert engine.stats.bank_answers == engine.rechecked == 2
    assert engine.stats.solver_calls == 3
