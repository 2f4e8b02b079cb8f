import copy
import dataclasses
import random

import pytest

from mcheck.aiger import eval_nodes, parse_aiger
from mcheck.engines import bmc, kind
from mcheck.ic3 import check as ic3_check
from mcheck.logic import lit_neg, mklit
from mcheck.orchestrator import build_transys, verify_verdict
from mcheck.satcore import Solver
from mcheck.transys import (FrameTemplate, Unroller, coi_vars, encode,
                            extend_with_internal_signals, ref_to_lit,
                            simplify_cnf)

from fixtures import (BAD_THEN_BLOCKED_AAG, CNT2_AAG, FALSE_REF, TRUE_REF,
                      AigBuilder, counter_with_reset, mod_counter,
                      padded_mod_counter, random_aig, ref_neg)
from oracle import bfs_check, compile_frame_template, simplify_fixpoint


def _aliased(ts):
    """The latches whose primed var the frame template aliases."""
    t = ts.frame_template
    return {lv for lv in ts.latch_vars if t.slot_of[ts.next_map[lv]] >= t.own}


def _lit_value(s, lit):
    v = s.model_value(lit >> 1, default=False)
    return int(v) ^ (lit & 1)


def test_unrolling_matches_concrete_simulation(rng):
    """Fixing the inputs in the unrolled CNF must reproduce the circuit's
    concrete execution at every frame."""
    for _ in range(25):
        aig = random_aig(rng, constraint_prob=0.0)
        ts = encode(aig)
        depth = rng.randint(1, 5)
        s = Solver()
        un = Unroller(ts, s)
        un.grow(depth)

        stimulus = [[rng.randint(0, 1) for _ in aig.inputs]
                    for _ in range(depth + 1)]
        assumptions = []
        for t, frame in enumerate(stimulus):
            for iv, bit in zip(ts.input_vars, frame):
                assumptions.append(un.lit_at(mklit(iv, bit == 0), t))
        assert s.solve(assumptions) is True

        # ground truth by direct evaluation; uninitialized latches take
        # whatever initial value the solver chose at frame 0
        latch_vals = {}
        for j, lt in enumerate(aig.latches):
            if lt.init is None:
                lv = ts.latch_vars[j]
                latch_vals[lt.var] = _lit_value(s, un.lit_at(2 * lv, 0))
            else:
                latch_vals[lt.var] = lt.init
        for t, frame in enumerate(stimulus):
            vals = eval_nodes(aig, latch_vals,
                              dict(zip(aig.inputs, frame)))
            for j, lv in enumerate(ts.latch_vars):
                got = _lit_value(s, un.lit_at(2 * lv, t))
                assert got == vals[aig.latches[j].var], (t, j)
            bad_ref = aig.bads[0]
            want_bad = vals[bad_ref >> 1] ^ (bad_ref & 1)
            assert _lit_value(s, un.bad_at(t)) == want_bad, t
            latch_vals = {lt.var: vals[lt.next >> 1] ^ (lt.next & 1)
                          for lt in aig.latches}


def test_constraint_units_exclude_violating_runs():
    # constraint pins the single latch at 0, making the toggling bad unreachable
    aig = parse_aiger(b"aag 1 0 1 0 0 1 1\n2 3\n2\n3\n")
    ts = encode(aig)
    s = Solver()
    un = Unroller(ts, s)
    un.grow(3)
    for t in range(4):
        assert s.solve([un.reach(t)]) is False


def test_reach_needs_constraints_up_to_its_depth_only():
    aig = parse_aiger(BAD_THEN_BLOCKED_AAG.encode())
    ts = encode(aig)
    s = Solver()
    un = Unroller(ts, s)
    un.grow(4)
    assert [s.solve([un.reach(t)]) for t in range(5)] == [
        False, True, False, False, False]
    assert s.solve([un.held(1)]) is True
    assert s.solve([un.held(2)]) is False


def test_effective_bad_includes_constraints():
    aig = parse_aiger(b"aag 1 0 1 0 0 1 1\n2 3\n2\n3\n")
    ts = encode(aig)
    # bad and raw bad differ when constraints exist
    assert ts.bad != ref_to_lit(aig.bads[0])
    assert len(ts.constraints) == 1


def test_cube_intersects_init(cnt2):
    ts = encode(cnt2)
    l0, l1 = ts.latch_vars[:2]
    assert ts.cube_intersects_init((mklit(l0, True), mklit(l1, True)))
    assert not ts.cube_intersects_init((mklit(l0), mklit(l1, True)))


def test_init_lits_match_declared_resets(rng):
    for _ in range(10):
        aig = random_aig(rng)
        ts = encode(aig)
        declared = sum(1 for lt in aig.latches if lt.init is not None)
        assert len(ts.init_lits) == declared


def test_simplify_preserves_reachability_verdict(rng):
    """The simplified CNF must agree with the oracle about bad reachability
    at each bounded depth."""
    for _ in range(20):
        aig = random_aig(rng, max_latches=6, max_gates=25)
        res = bfs_check(aig)
        ts = simplify_cnf(encode(aig))
        depth = 8
        s = Solver()
        un = Unroller(ts, s)
        un.grow(depth)
        sat_depths = [t for t in range(depth + 1)
                      if s.solve([un.reach(t)]) is True]
        if res.status == "unsafe":
            assert sat_depths and min(sat_depths) == res.depth
        else:
            assert not sat_depths


def _front_end_systems(rng):
    """200 seeded random circuits, each encoded in full and over its cone,
    and `counter_with_reset(16, 8)` both ways."""
    aigs = [random_aig(rng) for _ in range(200)] + [counter_with_reset(16, 8)]
    return [encode(aig, cone=cone) for aig in aigs for cone in (False, True)]


def test_simplify_matches_the_fixpoint_reference(rng):
    """The one-pass `simplify_cnf` returns exactly the clauses of the
    pass-until-no-change reference, order included, and raises where it
    does when propagation meets an empty clause."""
    propagated = 0
    for ts in _front_end_systems(rng):
        simple = simplify_cnf(ts)
        assert simple.clauses == simplify_fixpoint(ts.clauses)
        propagated += len(simple.clauses) < len(ts.clauses)
    assert propagated > 50  # not only the path that propagates nothing
    # a unit implies b, and b with the unit empties the last clause
    ts = encode(counter_with_reset(16, 8))
    a, b = ts.latch_vars[:2]
    bad = dataclasses.replace(ts, clauses=ts.clauses + [
        (mklit(a),), (mklit(a, True), mklit(b)),
        (mklit(a, True), mklit(b, True))])
    for simplify in (simplify_cnf, lambda t: simplify_fixpoint(t.clauses)):
        with pytest.raises(AssertionError, match="contradiction"):
            simplify(bad)


def test_frame_template_matches_the_reference_compile(rng):
    """The template compiled through one packed literal table equals the
    reference compiled clause by clause through the slot dict, on the
    plain, simplified and extended systems; both reject a clause that
    names a var twice."""
    for ts in _front_end_systems(rng):
        for sys_ in (ts, simplify_cnf(ts),
                     extend_with_internal_signals(ts, ts.source)):
            t, ref = FrameTemplate(sys_), compile_frame_template(sys_)
            assert (t.slot_of, t.own, t.latch_src, t.alias_src) == (
                ref["slot_of"], ref["own"], ref["latch_src"], ref["alias_src"])
            assert t.lits.tolist() == ref["lits"]
            assert t.ends.tolist() == ref["ends"]
    ts = encode(counter_with_reset(16, 8))
    g = ts.source.ands[0].var
    twice = dataclasses.replace(ts, clauses=ts.clauses + [
        (mklit(g), mklit(g, True))])
    for compile_ in (FrameTemplate, compile_frame_template):
        with pytest.raises(ValueError, match="names a var twice"):
            compile_(twice)


def test_simplify_and_extension_leave_input_unchanged(rng):
    """Derived systems share untouched fields with their input; building
    them must not modify the input."""
    fields = ("latch_vars", "next_map", "clauses", "defs", "init_value")
    aigs = [counter_with_reset(16, 8)] + [random_aig(rng) for _ in range(10)]
    extended = 0
    for aig in aigs:
        ts = encode(aig)
        before = copy.deepcopy({f: getattr(ts, f) for f in fields})
        simple = simplify_cnf(ts)
        assert {f: getattr(ts, f) for f in fields} == before
        mid = copy.deepcopy({f: getattr(simple, f) for f in fields})
        ext = extend_with_internal_signals(simple, aig)
        assert {f: getattr(simple, f) for f in fields} == mid
        assert {f: getattr(ts, f) for f in fields} == before
        extended += len(ext.latch_vars) > len(simple.latch_vars)
    assert extended  # the extension ran on some model, not only the no-op path


def test_unroller_grows_frames_into_its_solver(cnt2):
    ts = encode(cnt2)
    used = {l >> 1 for cl in ts.clauses for l in cl} - {0}
    shared = len(ts.latch_vars)
    assert _aliased(ts) == set(ts.latch_vars)
    for init in (True, False):
        s = Solver()
        un = Unroller(ts, s, init=init)
        un.grow(4)
        assert un.depth == 4
        # var 0 is shared; no frame allocates an aliased primed var, and a
        # frame after the first allocates no latch var either
        assert s.num_vars == 1 + 5 * (len(used) - 2 * shared) + shared == 18
        for k in range(4):
            for lv in ts.latch_vars:
                assert un.lit_at(2 * lv, k + 1) == \
                    un.lit_at(2 * ts.next_map[lv], k)
        # no constraints: no extra var, and reach is the plain bad literal
        assert [un.reach(d) for d in range(5)] == [un.bad_at(d) for d in range(5)]
        off_init = [lit_neg(un.lit_at(l, 0)) for l in ts.init_lits]
        assert s.solve(off_init) is (not init)


def test_every_frame_allocates_in_slot_order(monkeypatch):
    """Every frame allocates its fresh vars in slot order, and no mapped
    clause names a var twice.  The enable input comes before the latches in
    var order but after them in slot order."""
    batches = []
    add_root_clauses = Solver.add_root_clauses

    def recorded(self, lits, ends):
        ends = list(ends)
        batches.append([lits[i:j] for i, j in zip([0] + ends[:-1], ends)])
        return add_root_clauses(self, lits, ends)

    monkeypatch.setattr(Solver, "add_root_clauses", recorded)
    ts = encode(mod_counter(4, 6, 10, enable=True))
    t = ts.frame_template
    slot_of = t.slot_of
    assert sorted(slot_of, key=slot_of.get) != sorted(slot_of)
    assert _aliased(ts) == set(ts.latch_vars)
    s = Solver()
    un = Unroller(ts, s, init=False)
    un.grow(3)
    assert len(batches) == 4
    own = sorted((v for v in slot_of if slot_of[v] < t.own), key=slot_of.get)
    assert [un.lit_at(2 * v, 0) for v in own] == [2 * slot_of[v] for v in own]
    fresh = [v for v in own[1:] if v not in ts.latch_vars]
    top = s.num_vars - 3 * len(fresh)  # the vars after frame 0's
    for d in (1, 2, 3):
        assert [un.lit_at(2 * v, d) for v in fresh] == [
            2 * (top + j) for j in range((d - 1) * len(fresh), d * len(fresh))]
    for batch in batches:
        # the two equivalence clauses of each aliased primed var are gone
        assert len(batch) == len(ts.clauses) - 2 * len(ts.latch_vars)
        for cl in batch:
            assert len({l >> 1 for l in cl}) == len(cl)


def test_cone_drops_logic_that_cannot_reach_bad():
    aig = padded_mod_counter(4, 12, 6, pad=3, enable=True, pad_init=None)
    full = encode(aig)
    ts = encode(aig, cone=True)
    cnt = [lt.var for lt in aig.latches[:4]]
    assert ts.latch_vars == cnt
    assert ts.input_vars == aig.inputs[:1]  # the enable input
    assert ts.next_map == {v: full.next_map[v] for v in cnt}
    assert ts.init_lits == full.init_lits  # the pad has no reset value
    assert ts.num_vars == full.num_vars
    # var numbers are the full encoding's: the kept clauses are a subset
    assert len(ts.clauses) < len(full.clauses)
    assert set(ts.clauses) <= set(full.clauses)
    # an unrolled frame maps only the vars the clauses use
    s = Solver()
    un = Unroller(ts, s)
    un.add_frame()
    used = {l >> 1 for cl in ts.clauses for l in cl}
    assert set(un.template.slot_of) == used
    # var 0 is shared, and every latch's primed var is aliased
    assert _aliased(ts) == set(cnt)
    assert s.num_vars == len(used) - len(cnt)
    # without padding every latch and input stays; only dead gates go
    bare = padded_mod_counter(4, 12, 6, pad=0, enable=True)
    cut, whole = encode(bare, cone=True), encode(bare)
    assert (cut.latch_vars, cut.input_vars) == (whole.latch_vars, whole.input_vars)


def test_internal_signal_extension_preserves_verdicts(rng):
    from mcheck.ic3 import Ic3Options, check as ic3_check
    for _ in range(30):
        aig = random_aig(rng, max_latches=8, max_gates=50)
        res = bfs_check(aig)
        ts = extend_with_internal_signals(encode(aig), aig)
        v = ic3_check(ts, Ic3Options(strategy="dynamic"))
        assert v.status == res.status


def test_internal_signal_extension_adds_pseudo_latches():
    aig = counter_with_reset(16, 8)
    ts = encode(aig)
    # force promotion of one concrete gate to check the plumbing
    target = aig.ands[0].var
    ts_inn = extend_with_internal_signals(ts, aig, policy=lambda a: [target])
    assert ts_inn.latch_vars == ts.latch_vars + [target]
    assert target in ts_inn.next_map


def test_internal_signal_extension_keeps_latches_as_prefix(rng):
    # IC3 and `widen_witness` read a witness's bits off the leading latches
    extended = 0
    for _ in range(20):
        aig = random_aig(rng, max_latches=8, max_gates=50)
        for ts in (encode(aig), encode(aig, cone=True)):
            ts_inn = extend_with_internal_signals(ts, aig)
            n = len(ts.latch_vars)
            assert ts_inn.latch_vars[:n] == ts.latch_vars
            assert all(ts_inn.next_map[v] == ts.next_map[v]
                       for v in ts.latch_vars)
            assert not set(ts_inn.latch_vars[n:]) & set(aig.inputs)
            extended += len(ts_inn.latch_vars) > n
    assert extended >= 5


def test_header_m_does_not_size_the_encoding():
    # primed vars follow the largest defined node, whatever M the header says
    body = b" 1 1 0 1 1\n2\n4 6\n6\n6 2 4\n"
    small = encode(parse_aiger(b"aag 3" + body))
    huge = encode(parse_aiger(b"aag 1000000000" + body))
    assert small.num_vars == 5
    assert (huge.num_vars, huge.next_map, huge.clauses) == (
        small.num_vars, small.next_map, small.clauses)


def test_internal_signal_cap():
    aig = counter_with_reset(16, 8)
    ts = encode(aig)
    ts_inn = extend_with_internal_signals(ts, aig)
    pseudo = len(ts_inn.latch_vars) - len(ts.latch_vars)
    assert pseudo <= max(1, int(0.10 * len(aig.ands)))


def test_coi_restricts_to_support():
    # bad reads latch x, whose next state reads latch y: the cone walks
    # through x's next-state function to y
    chain = parse_aiger(b"aag 2 0 2 0 0 1\n2 4\n4 4\n2\n")
    assert encode(chain, cone=True).latch_vars == [1, 2]
    # an input that bad does not read is outside the cone
    free = parse_aiger(b"aag 2 1 1 0 0 1\n2\n4 4\n4\n")
    assert encode(free, cone=True).input_vars == []
    # over TranSys.defs the walk stops at latches; `adj` adds edges
    ts = encode(chain)
    assert coi_vars([ts.bad >> 1], ts.defs, {}) == {1}
    assert coi_vars([ts.next_map[1]], ts.defs, {}) == {ts.next_map[1], 2}
    assert coi_vars([1], ts.defs, {1: {2}}) == {1, 2}


# gate 6 = 2 AND 2 repeats a fanin, gate 8 = 4 AND NOT 4 is constant false
REPEATED_FANIN_AAG = "aag 4 1 1 0 2 1\n2\n4 6\n8\n6 2 2\n8 4 5\n"
SHAPE_AAGS = [
    REPEATED_FANIN_AAG,
    "aag 4 1 1 0 2 1\n2\n4 6\n4\n6 2 2\n8 4 5\n",  # bad is the latch
    # latch-only gates, so the extension primes a repeated fanin too
    "aag 3 0 1 0 2 1\n2 4\n6\n4 2 2\n6 4 3\n",
]


def _well_formed(clauses):
    return all(list(c) == sorted(c) and len({l >> 1 for l in c}) == len(c)
               for c in clauses)


def test_clauses_are_sorted_and_name_each_var_once():
    ts = encode(parse_aiger(REPEATED_FANIN_AAG.encode()))
    assert (3, 3, 6) not in ts.clauses and (3, 6) in ts.clauses
    assert (4, 5, 8) not in ts.clauses  # the tautology of a false gate
    for text in SHAPE_AAGS:
        aig = parse_aiger(text.encode())
        want = bfs_check(aig)
        ts = encode(aig)
        assert _well_formed(ts.clauses)
        inputs = set(aig.inputs)
        gates = [g.var for g in aig.ands
                 if not coi_vars([g.var], ts.defs, {}) & inputs]
        assert gates
        ext = extend_with_internal_signals(ts, aig, policy=lambda a: gates)
        assert _well_formed(ext.clauses)
        assert ic3_check(ext).status == want.status
        assert ic3_check(build_transys(aig)).status == want.status
        v = bmc(build_transys(aig), max_depth=4)
        if want.status == "unsafe":
            assert v.is_unsafe and v.stats.depth == want.depth
        else:
            assert not v.definitive


def test_unroller_rejects_latches_sharing_a_primed_var(cnt2):
    ts = encode(cnt2)
    l0, l1 = ts.latch_vars
    shared = dataclasses.replace(
        ts, next_map={l0: ts.next_map[l0], l1: ts.next_map[l0]})
    with pytest.raises(ValueError):
        Unroller(shared, Solver())
    Unroller(ts, Solver()).grow(2)  # the system it was derived from loads


@pytest.mark.parametrize("init", [True, False])
def test_frames_load_without_per_clause_calls(monkeypatch, init):
    """A constraint-free frame loads in one batch: not one `add_clause`
    call per clause, nor one per init unit."""
    calls = []
    add_clause = Solver.add_clause

    def counted(self, lits, temporary=False):
        calls.append(lits)
        return add_clause(self, lits, temporary)

    monkeypatch.setattr(Solver, "add_clause", counted)
    ts = build_transys(counter_with_reset(16, 8))
    assert not ts.constraints
    s = Solver()
    Unroller(ts, s, init=init).grow(6)
    assert calls == []
    # the frames did load; permanent binary clauses sit in the binary lists
    assert len(s.clauses) + s.num_bins > 6 * len(ts.latch_vars)


def _check_unrolling_engines(aig, max_depth=10):
    """BMC at several steps and k-induction agree with the explicit-state
    oracle, and every definitive verdict passes the independent check."""
    want = bfs_check(aig)
    ts = build_transys(aig)
    found = want.status == "unsafe" and want.depth <= max_depth
    runs = [("bmc", step, bmc(ts, max_depth=max_depth, step=step))
            for step in (1, 2, 3, 10)]
    runs.append(("kind", None, kind(ts, max_k=max_depth)))
    for engine, arg, v in runs:
        if v.definitive:
            assert v.status == want.status, (engine, arg)
            ok, why = verify_verdict(aig, 0, v)
            assert ok, (engine, arg, why)
        assert v.is_unsafe == found, (engine, arg)
        if found and (engine == "kind" or arg == 1):
            assert v.stats.depth == want.depth, (engine, arg)
    return want.status


def test_unrolling_engines_match_the_oracle(rng):
    assert _check_unrolling_engines(
        parse_aiger(BAD_THEN_BLOCKED_AAG.encode())) == "unsafe"
    statuses = [_check_unrolling_engines(random_aig(rng, constraint_prob=1.0))
                for _ in range(100)]
    assert {"safe", "unsafe"} <= set(statuses)


def _twin(opposite):
    # a' = x and c' = x (or NOT x): the two share a next-state var, so only
    # a is aliased; bad = a AND NOT c, which needs them to differ
    b = AigBuilder()
    x = b.new_input()
    a, c = b.new_latch(0), b.new_latch(1)
    b.set_next(a, x)
    b.set_next(c, ref_neg(x) if opposite else x)
    return b.build(bads=[b.AND(a, ref_neg(c))]), {a}


def _constant(value):
    # c' = value is never aliased; the toggle m' = NOT m is
    b = AigBuilder()
    c, m = b.new_latch(1), b.new_latch(0)
    b.set_next(c, value)
    b.set_next(m, ref_neg(m))
    return b.build(bads=[b.AND(ref_neg(c), m)]), {m}


def _self_loop(init):
    # l' = l keeps its start value; t' = NOT t toggles
    b = AigBuilder()
    l, t = b.new_latch(init), b.new_latch(0)
    b.set_next(l, l)
    b.set_next(t, ref_neg(t))
    return b.build(bads=[b.AND(l, t)]), {l, t}


def _johnson(bad_state):
    # a' = NOT c, b' = a, c' = b from 000 visits six of the eight states
    b = AigBuilder()
    a, m, c = b.new_latch(0), b.new_latch(0), b.new_latch(0)
    b.set_next(a, ref_neg(c))
    b.set_next(m, a)
    b.set_next(c, m)
    bits = [r if bit else ref_neg(r) for r, bit in zip((a, m, c), bad_state)]
    return b.build(bads=[b.conj(bits)]), {a, m, c}


def _from_input(shift):
    # a' = x; m' = a (a shift register) or m' = a AND m (stuck at 0)
    b = AigBuilder()
    x = b.new_input()
    a, m = b.new_latch(0), b.new_latch(0)
    b.set_next(a, x)
    b.set_next(m, a if shift else b.AND(a, m))
    return b.build(bads=[m]), {a, m}


ALIAS_CASES = {
    "same next literal": (_twin(False), "safe"),
    "opposite next literals": (_twin(True), "unsafe"),
    "constant true next": (_constant(TRUE_REF), "safe"),
    "constant false next": (_constant(FALSE_REF), "unsafe"),
    "self-loop, reset": (_self_loop(0), "safe"),
    "self-loop, no reset": (_self_loop(None), "unsafe"),
    "negated next, unreachable": (_johnson((0, 1, 0)), "safe"),
    "negated next, reachable": (_johnson((1, 1, 1)), "unsafe"),
    "input next, stuck": (_from_input(False), "safe"),
    "input next, shift": (_from_input(True), "unsafe"),
}


@pytest.mark.parametrize("case", list(ALIAS_CASES))
def test_alias_edge_cases(monkeypatch, case):
    """The template aliases exactly the latches the rule allows, and BMC
    and k-induction decide the model as the oracle does, with verdicts that
    pass the independent check.  No clause that reaches the root loader
    names a var twice."""
    add_root_clauses = Solver.add_root_clauses

    def checked(self, lits, ends):
        ends = list(ends)
        for i, j in zip([0] + ends[:-1], ends):
            assert len({l >> 1 for l in lits[i:j]}) == j - i, lits[i:j]
        return add_root_clauses(self, lits, ends)

    monkeypatch.setattr(Solver, "add_root_clauses", checked)
    (aig, allowed), status = ALIAS_CASES[case]
    want = {r >> 1 for r in allowed}
    assert _aliased(encode(aig)) == want
    assert _aliased(build_transys(aig)) == want
    assert _check_unrolling_engines(aig) == status
