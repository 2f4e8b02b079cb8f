import copy
import dataclasses
import random

import pytest

from mcheck.aiger import Aig, AndGate, Latch, eval_nodes, parse_aiger
from mcheck.engines import bmc, kind
from mcheck.ic3 import IC3, check as ic3_check
from mcheck.logic import FALSE_LIT, TRUE_LIT, lit_neg, mklit
from mcheck.orchestrator import build_transys, verify_verdict
from mcheck.satcore import Solver
from mcheck.transys import Unroller, coi_vars, encode, ref_to_lit, simplify_cnf

from fixtures import (BAD_THEN_BLOCKED_AAG, CNT2_AAG, FALSE_REF, TRUE_REF,
                      AigBuilder, counter_with_reset, mod_counter,
                      padded_mod_counter, random_aig, ref_neg, shift_lock)
from oracle import bfs_check, simplify_fixpoint


def _lit_value(s, lit):
    v = s.model_value(lit >> 1, default=False)
    return int(v) ^ (lit & 1)


def _left_out(un, d):
    """The vars frame d of `un` must leave out: the property part, every
    definition outside the cone of the latches' next states, in a frame
    built from init whose reach folded to false and whose held folded to a
    constant; no var in any other frame."""
    ts = un.ts
    if un.init and un.reach(d) == FALSE_LIT and un.held(d) < 2:
        return set(ts.defs) - coi_vars([l >> 1 for l in ts.next_map.values()],
                                       ts.defs, {})
    return set()


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
            if ts.bad >> 1 in _left_out(un, t):  # reach(t), bad here, is false
                with pytest.raises(ValueError, match="frame %d" % t):
                    un.lit_at(ts.bad, t)
                assert want_bad == 0, t
            else:
                assert _lit_value(s, un.lit_at(ts.bad, t)) == want_bad, t
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


def test_reach_holds_exactly_when_bad_and_constraints_do(rng):
    """Bad is the AIG's bad literal, constraints or not, and `reach(d)`
    holds exactly when bad at frame d and C_0..C_d do: it implies each of
    them, and they imply it."""
    aig = parse_aiger(b"aag 1 0 1 0 0 1 1\n2 3\n2\n3\n")
    ts = encode(aig)
    assert ts.bad == ref_to_lit(aig.bads[0])
    assert ts.constraints == [ref_to_lit(aig.constraints[0])]
    for _ in range(40):
        aig = random_aig(rng, constraint_prob=1.0)
        ts = encode(aig)
        assert aig.constraints and ts.bad == ref_to_lit(aig.bads[0])
        s = Solver()
        un = Unroller(ts, s, init=False)
        un.grow(3)
        for d in range(4):
            parts = [un.lit_at(ts.bad, d)] + [
                un.lit_at(c, t) for c in ts.constraints for t in range(d + 1)]
            for x in parts:
                assert s.solve([un.reach(d), x ^ 1]) is False, (d, x)
            assert s.solve(parts + [un.reach(d) ^ 1]) is False, d


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


def _unfolded_aig(rng):
    """A random circuit whose gates may read a constant, one fanin twice, or
    a literal and its negation, as an AIGER file may but `AigBuilder`, which
    folds such gates, never builds: CNF propagation has work to do there."""
    ni, nl = rng.randint(0, 3), rng.randint(1, 6)
    refs = [0, 1] + list(range(2, 2 * (ni + nl + 1)))
    ands = []
    for v in range(ni + nl + 1, ni + nl + rng.randint(3, 20)):
        pair = (rng.sample(refs, 2) if rng.random() < 0.9
                else [rng.choice(refs)] * 2)
        ands.append(AndGate(v, max(pair), min(pair)))
        refs += [2 * v, 2 * v + 1]
    return Aig(max_var=ands[-1].var, inputs=list(range(1, ni + 1)),
               latches=[Latch(v, rng.choice(refs), rng.choice([0, 1, None]))
                        for v in range(ni + 1, ni + nl + 1)],
               ands=ands, bads=[rng.choice(refs)],
               constraints=rng.sample(refs, rng.randint(0, 2)))


def _front_end_systems(rng):
    """200 seeded random circuits, 100 unfolded ones and
    `counter_with_reset(16, 8)`, each encoded in full and over its cone."""
    aigs = [random_aig(rng) for _ in range(200)] + [counter_with_reset(16, 8)]
    aigs += [_unfolded_aig(rng) for _ in range(100)]
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


def _simulate(aig, latch_vals, stimulus):
    """Node values of `aig` at each step from the latch values `latch_vals`
    (latch var -> bit) under the input vectors `stimulus`."""
    steps = []
    for frame in stimulus:
        vals = eval_nodes(aig, latch_vals, dict(zip(aig.inputs, frame)))
        steps.append(vals)
        latch_vals = {lt.var: vals[lt.next >> 1] ^ (lt.next & 1)
                      for lt in aig.latches}
    return steps


def test_folded_frames_match_simulation(rng):
    """Seeded differential of the folded frames against `eval_nodes`.  On
    random circuits with constraints, encoded in full and over the cone,
    with init and without, every var a frame maps takes its simulated value
    under a fixed start state and stimulus, constant literals included: a
    node its value.  A frame maps every var but those `_left_out` names,
    and `lit_at` raises on those.  `held(d)` and `reach(d)` can hold
    exactly when the simulation says so."""
    folded = kept = dropped = 0
    for _ in range(60):
        aig = random_aig(rng, constraint_prob=0.6)
        depth = rng.randint(1, 4)
        stimulus = [[rng.randint(0, 1) for _ in aig.inputs]
                    for _ in range(depth + 2)]
        start = {lt.var: rng.randint(0, 1) if lt.init is None else lt.init
                 for lt in aig.latches}
        steps = _simulate(aig, start, stimulus)

        def value(ref, t):
            return steps[t][ref >> 1] ^ (ref & 1)

        held = [all(value(c, u) for c in aig.constraints for u in range(t + 1))
                for t in range(depth + 1)]
        for ts in (encode(aig), build_transys(aig)):
            for init in (True, False):
                s = Solver()
                un = Unroller(ts, s, init=init)
                un.grow(depth)
                fix = [un.lit_at(mklit(v, start[v] == 0), 0)
                       for v in ts.latch_vars if v in start]
                col = {v: j for j, v in enumerate(aig.inputs)}
                fix += [un.lit_at(mklit(v, stimulus[t][col[v]] == 0), t)
                        for t in range(depth + 1) for v in ts.input_vars]
                assert s.solve(fix) is True
                if init:  # a reset latch starts as the constant of its value
                    assert [un.lit_at(2 * lt.var, 0) for lt in aig.latches
                            if lt.var in un.template.slot_of
                            and lt.init is not None] == [
                        FALSE_LIT if lt.init == 0 else TRUE_LIT
                        for lt in aig.latches
                        if lt.var in un.template.slot_of
                        and lt.init is not None]
                for t in range(depth + 1):
                    gone = _left_out(un, t)
                    for v in un.template.slot_of:
                        if v in gone:
                            with pytest.raises(ValueError, match="var %d " % v):
                                un.lit_at(2 * v, t)
                            dropped += 1
                            continue
                        if v == 0:  # true in CNF, false as an AIGER node
                            want = 1
                        else:  # an input, latch or gate
                            want = steps[t][v]
                        lit = un.lit_at(2 * v, t)
                        assert _lit_value(s, lit) == want, (t, v, init)
                        folded += v and lit < 2
                        kept += lit > 1
                    assert s.solve(fix + [un.held(t)]) is held[t]
                    assert s.solve(fix + [un.reach(t)]) is (
                        held[t] and bool(value(aig.bads[0], t)))
    assert folded > 500 and kept > 500 and dropped > 500


def test_simplify_leaves_input_unchanged(rng):
    """A simplified system shares untouched fields with its input; building
    it must not modify the input."""
    fields = ("latch_vars", "next_map", "clauses", "defs", "init_value")
    aigs = [counter_with_reset(16, 8)] + [random_aig(rng) for _ in range(10)]
    for aig in aigs:
        ts = encode(aig)
        before = copy.deepcopy({f: getattr(ts, f) for f in fields})
        simplify_cnf(ts)
        assert {f: getattr(ts, f) for f in fields} == before


def test_unroller_grows_frames_into_its_solver(cnt2):
    """From its reset state the 2-bit counter is fixed, so every frame
    folds whole: no var but the constant, and reach is false until bad
    holds at depth 3.  Without init, frame 0 allocates the two latches and
    the three gates, and each later frame its three gates only."""
    ts = encode(cnt2)
    assert len(ts.latch_vars) == 2 and len(cnt2.ands) == 3
    for init in (True, False):
        s = Solver()
        un = Unroller(ts, s, init=init)
        un.grow(4)
        assert un.depth == 4
        assert s.num_vars == (1 if init else 1 + 2 + 5 * 3)
        for k in range(4):
            for lv in ts.latch_vars:
                assert un.lit_at(2 * lv, k + 1) == \
                    un.lit_at(ts.next_map[lv], k)
        # no constraints: no extra var, and reach is the plain bad literal
        assert [un.reach(d) for d in range(5)] == [
            un.lit_at(ts.bad, d) for d in range(5)]
        if init:
            assert [un.reach(d) for d in range(5)] == [
                FALSE_LIT, FALSE_LIT, FALSE_LIT, TRUE_LIT, FALSE_LIT]
        off_init = [lit_neg(un.lit_at(l, 0)) for l in ts.init_lits]
        assert s.solve(off_init) is (not init)


def _recorded_batches(monkeypatch):
    """Every `Solver.add_root_clauses` batch from now on, as clause lists."""
    batches = []
    add_root_clauses = Solver.add_root_clauses

    def recorded(self, lits, ends):
        ends = list(ends)
        batches.append([lits[i:j] for i, j in zip([0] + ends[:-1], ends)])
        return add_root_clauses(self, lits, ends)

    monkeypatch.setattr(Solver, "add_root_clauses", recorded)
    return batches


def test_every_frame_allocates_in_slot_order(monkeypatch):
    """Every frame allocates its fresh vars in slot order, in one batch that
    holds three clauses per gate left open (and frame 0 the constant's
    unit), none of which names a var twice; with init and without.  The
    enable input comes before the latches in var order but after them in
    slot order.  From init, bad = 10 folds to false at depths 0..3, so each
    of those frames leaves out its property part: `lit_at` raises there,
    and the batch holds no clause of it."""
    batches = _recorded_batches(monkeypatch)
    ts = encode(mod_counter(4, 6, 10, enable=True))
    slot_of = ts.frame_template.slot_of
    order = sorted(slot_of, key=slot_of.get)
    assert order != sorted(slot_of)
    for init in (True, False):
        batches.clear()
        s = Solver()
        un = Unroller(ts, s, init=init)
        un.grow(3)
        assert len(batches) == 4
        top = 1  # the first var of the frame
        for d, batch in enumerate(batches):
            gone = _left_out(un, d)
            for x in gone:
                with pytest.raises(ValueError, match="frame %d" % d):
                    un.lit_at(2 * x, d)
            assert bool(gone) is init  # bad is unreachable from reset
            new = list(dict.fromkeys(v for v in (un.lit_at(2 * x, d) >> 1
                                                 for x in order
                                                 if x not in gone) if v >= top))
            assert new == list(range(top, top + len(new)))
            gates = len(new) - len(ts.input_vars)
            if d == 0 and not init:
                gates -= len(ts.latch_vars)
            unit = [[TRUE_LIT]] if d == 0 else []
            assert batch[:len(unit)] == unit
            assert sorted(map(len, batch[len(unit):])) == (
                [2] * 2 * gates + [3] * gates)
            for cl in batch:
                assert len({l >> 1 for l in cl}) == len(cl)
            top += len(new)
        assert top == s.num_vars


def test_left_out_literals_raise():
    """From init, `shift_lock(8, ...)`'s bad folds to false at depths 0..7,
    so those frames leave out its 7 comparator gates, the whole property
    part: `lit_at` on one of them, bad included, raises `ValueError`
    naming the var and the frame, and no var was allocated for them.
    Frame 8, where the lock can open, keeps them, and so does every frame
    of an init-free unroller."""
    ts = build_transys(shift_lock(8, 0b1011))
    prop = set(ts.defs) - coi_vars([l >> 1 for l in ts.next_map.values()],
                                   ts.defs, {})
    assert ts.bad >> 1 in prop and len(prop) == 7
    s = Solver()
    un = Unroller(ts, s)
    un.grow(8)
    for d in range(8):
        assert un.reach(d) == FALSE_LIT and un.held(d) == TRUE_LIT
        with pytest.raises(ValueError, match="var %d has no literal in frame %d"
                           % (ts.bad >> 1, d)):
            un.lit_at(ts.bad, d)
        for v in prop:
            with pytest.raises(ValueError, match="var %d .* frame %d" % (v, d)):
                un.lit_at(2 * v + 1, d)
    assert un.reach(8) == un.lit_at(ts.bad, 8) > TRUE_LIT
    assert {un.lit_at(2 * v, 8) >> 1 for v in prop} == set(range(10, 17))
    assert s.num_vars == 1 + 9 + 7  # var 0, one input per frame, the gates
    free = Unroller(ts, Solver(), init=False)
    free.grow(8)
    for d in range(9):
        assert all(free.lit_at(2 * v, d) > TRUE_LIT for v in prop)


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
    # an unrolled frame maps only the vars the clauses use, and with init
    # no reset latch gets a var of its own
    used = {l >> 1 for cl in ts.clauses for l in cl}
    for init in (False, True):
        s = Solver()
        un = Unroller(ts, s, init=init)
        un.add_frame()
        assert set(un.template.slot_of) == used
        if init:
            assert [un.lit_at(2 * v, 0) for v in cnt] == [FALSE_LIT] * 4
            assert s.num_vars < len(used) - len(cnt)
        else:
            assert s.num_vars == len(used)
    # without padding every latch and input stays; only dead gates go
    bare = padded_mod_counter(4, 12, 6, pad=0, enable=True)
    cut, whole = encode(bare, cone=True), encode(bare)
    assert (cut.latch_vars, cut.input_vars) == (whole.latch_vars, whole.input_vars)


def test_header_m_does_not_size_the_encoding():
    # the vars end at the largest defined node, whatever M the header says
    body = b" 1 1 0 1 1\n2\n4 6\n6\n6 2 4\n"
    small = encode(parse_aiger(b"aag 3" + body))
    huge = encode(parse_aiger(b"aag 1000000000" + body))
    assert small.num_vars == 4
    assert (huge.num_vars, huge.next_map, huge.clauses) == (
        small.num_vars, small.next_map, small.clauses)


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
    assert coi_vars([ts.next_map[1] >> 1], ts.defs, {}) == {2}
    assert coi_vars([1], ts.defs, {1: {2}}) == {1, 2}


def test_a_latch_next_state_is_its_next_state_literal(rng):
    """The encoding states each latch's next state once, as the AIG's own
    literal: no var past the largest defined node, no definition but the
    gates', and IC3's solver adds only the frame-0 activation var."""
    aigs = [random_aig(rng) for _ in range(40)]
    aigs += [padded_mod_counter(4, 12, 6, pad=3, enable=True)]
    assert any(aig.constraints for aig in aigs)
    for aig in aigs:
        top = max([0, *aig.inputs, *(lt.var for lt in aig.latches),
                   *(g.var for g in aig.ands)])
        for ts in (encode(aig), build_transys(aig)):
            assert ts.num_vars == top + 1
            assert all(ts.next_map[lt.var] == ref_to_lit(lt.next)
                       for lt in aig.latches if lt.var in ts.next_map)
            assert set(ts.defs) <= {g.var for g in aig.ands}
            engine = IC3(ts)
            engine._load()
            assert engine.solver.num_vars == ts.num_vars + 1


def test_every_definition_is_a_two_fanin_gate(rng):
    """On constrained random circuits, encoded in full and over the cone,
    `encode` defines no var above the largest AIG node, and every
    definition is a gate's own two fanins: the constraints fold into no
    definition."""
    for _ in range(60):
        aig = random_aig(rng, constraint_prob=1.0)
        assert aig.constraints
        top = max([0, *aig.inputs, *(lt.var for lt in aig.latches),
                   *(g.var for g in aig.ands)])
        fanins = {g.var: (ref_to_lit(g.rhs0), ref_to_lit(g.rhs1))
                  for g in aig.ands}
        for ts in (encode(aig), encode(aig, cone=True)):
            assert ts.num_vars == top + 1
            assert all(len(f) == 2 for f in ts.defs.values())
            assert all(ts.defs[v] == fanins[v] for v in ts.defs)


# gate 6 = 2 AND 2 repeats a fanin, gate 8 = 4 AND NOT 4 is constant false
REPEATED_FANIN_AAG = "aag 4 1 1 0 2 1\n2\n4 6\n8\n6 2 2\n8 4 5\n"
SHAPE_AAGS = [
    REPEATED_FANIN_AAG,
    "aag 4 1 1 0 2 1\n2\n4 6\n4\n6 2 2\n8 4 5\n",  # bad is the latch
    # latch-only gates, one with a repeated fanin
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
        assert _well_formed(encode(aig).clauses)
        assert ic3_check(build_transys(aig)).status == want.status
        v = bmc(build_transys(aig), max_depth=4)
        if want.status == "unsafe":
            assert v.is_unsafe and v.stats.depth == want.depth
        else:
            assert not v.definitive


@pytest.mark.parametrize("init", [True, False])
def test_frames_load_without_per_clause_calls(monkeypatch, init):
    """A constraint-free frame loads in one `add_root_clauses` batch, with
    no `add_clause` call.  `counter_with_reset(16, 8)` has no input, so with
    init every frame folds whole; without, frame 0 allocates the latches
    and every later frame the same vars."""
    calls = []
    add_clause = Solver.add_clause

    def counted(self, lits, temporary=False):
        calls.append(lits)
        return add_clause(self, lits, temporary)

    monkeypatch.setattr(Solver, "add_clause", counted)
    batches = _recorded_batches(monkeypatch)
    ts = build_transys(counter_with_reset(16, 8))
    assert not ts.constraints
    s = Solver()
    un = Unroller(ts, s, init=init)
    sizes = []  # vars each frame allocates
    for _ in range(7):
        top = s.num_vars
        un.add_frame()
        sizes.append(s.num_vars - top)
    assert calls == [] and len(batches) == 7
    if init:
        assert sizes == [0] * 7 and s.num_vars == 1
        assert batches == [[[TRUE_LIT]]] + [[]] * 6
    else:
        assert sizes[0] == sizes[1] + len(ts.latch_vars)
        assert sizes[1:] == [sizes[1]] * 6
        # the frames did load; binary clauses sit in the binary lists
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
    # a' = x and c' = x (or NOT x): the two share a next-state var; bad =
    # a AND NOT c, which needs them to differ
    b = AigBuilder()
    x = b.new_input()
    a, c = b.new_latch(0), b.new_latch(1)
    b.set_next(a, x)
    b.set_next(c, ref_neg(x) if opposite else x)
    return b.build(bads=[b.AND(a, ref_neg(c))])


def _constant(value):
    # c' = value, a constant; the toggle m' = NOT m
    b = AigBuilder()
    c, m = b.new_latch(1), b.new_latch(0)
    b.set_next(c, value)
    b.set_next(m, ref_neg(m))
    return b.build(bads=[b.AND(ref_neg(c), m)])


def _self_loop(init):
    # l' = l keeps its start value; t' = NOT t toggles
    b = AigBuilder()
    l, t = b.new_latch(init), b.new_latch(0)
    b.set_next(l, l)
    b.set_next(t, ref_neg(t))
    return b.build(bads=[b.AND(l, t)])


def _johnson(bad_state):
    # a' = NOT c, b' = a, c' = b from 000 visits six of the eight states
    b = AigBuilder()
    a, m, c = b.new_latch(0), b.new_latch(0), b.new_latch(0)
    b.set_next(a, ref_neg(c))
    b.set_next(m, a)
    b.set_next(c, m)
    bits = [r if bit else ref_neg(r) for r, bit in zip((a, m, c), bad_state)]
    return b.build(bads=[b.conj(bits)])


def _from_input(shift):
    # a' = x; m' = a (a shift register) or m' = a AND m (stuck at 0)
    b = AigBuilder()
    x = b.new_input()
    a, m = b.new_latch(0), b.new_latch(0)
    b.set_next(a, x)
    b.set_next(m, a if shift else b.AND(a, m))
    return b.build(bads=[m])


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
    """Every frame after the first reads each latch as the frame before's
    next-state literal, sign included, whether that literal is shared with
    another latch, constant, the latch itself or an input; with init and
    without, in full and over the cone.  BMC and k-induction decide the
    model as the oracle does, with verdicts that pass the independent
    check.  No clause that reaches the root loader names a var twice."""
    add_root_clauses = Solver.add_root_clauses

    def checked(self, lits, ends):
        ends = list(ends)
        for i, j in zip([0] + ends[:-1], ends):
            assert len({l >> 1 for l in lits[i:j]}) == j - i, lits[i:j]
        return add_root_clauses(self, lits, ends)

    monkeypatch.setattr(Solver, "add_root_clauses", checked)
    aig, status = ALIAS_CASES[case]
    nxt = {lt.var: ref_to_lit(lt.next) for lt in aig.latches}
    for ts in (encode(aig), build_transys(aig)):
        assert ts.next_map == {lv: nxt[lv] for lv in ts.latch_vars}
        for init in (True, False):
            un = Unroller(ts, Solver(), init=init)
            un.grow(3)
            for d in range(3):
                for lv in ts.latch_vars:
                    assert un.lit_at(2 * lv, d + 1) == un.lit_at(
                        ts.next_map[lv], d)
    assert _check_unrolling_engines(aig) == status
