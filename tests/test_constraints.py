"""Constraint semantics of AIGER 1.9: a counterexample of length d needs the
constraints at steps 0..d and at no step after d.  BMC, k-induction, IC3
and the certificate checks must all agree with the explicit-state oracle,
which implements exactly that."""

import random

import pytest

from mcheck import parse_aiger
from mcheck.aiger import WitnessTrace, replay, simulate
from mcheck.certify import verify_certificate, verify_witness
from mcheck.ic3 import _first_violated_constraint
from mcheck.orchestrator import EngineConfig, run_config, verify_verdict
from mcheck.transys import encode
from mcheck.verdicts import InvariantCert, safe

from fixtures import BAD_THEN_BLOCKED_AAG, AigBuilder, random_aig, ref_neg
from oracle import bfs_check

BMC_STEPS = (1, 2, 3, 10)


@pytest.mark.parametrize("step", BMC_STEPS)
def test_bmc_window_keeps_a_counterexample_blocked_after_it(step):
    aig = parse_aiger(BAD_THEN_BLOCKED_AAG.encode())
    v = run_config(aig, EngineConfig("bmc", bmc_step=step, bmc_max=40))
    assert v.is_unsafe and v.stats.depth == 1
    ok, why = verify_verdict(aig, 0, v)
    assert ok, why


def test_forged_kinduction_certificates_are_rejected():
    aig = parse_aiger(BAD_THEN_BLOCKED_AAG.encode())
    ok, why = verify_verdict(aig, 0, safe(InvariantCert([], 1)))
    assert (ok, why) == (False, "inductive step fails at k=1: bad")
    for k in range(2, 7):
        ok, why = verify_verdict(aig, 0, safe(InvariantCert([], k)))
        assert not ok and "base case fails at depth 1" in why, (k, why)


@pytest.mark.parametrize("latch_init, reason", [
    # x starts open and holds: (x) holds at init only under the constraint,
    # which initiation does not assume
    (None, "base case fails at depth 0: invariant clause 0"),
    # x starts at 1 and loads the input: (x) holds at the next frame only
    # under that frame's constraint, which consecution does not assume
    (1, "inductive step fails at k=1: invariant clause 0"),
])
def test_certificate_check_assumes_constraints_before_the_checked_frame(
        latch_init, reason):
    b = AigBuilder()
    i = b.new_input()
    x = b.new_latch(init=latch_init)
    b.set_next(x, x if latch_init is None else i)
    aig = b.build([ref_neg(x)], constraints=[x])  # bad never holds
    assert verify_certificate(encode(aig), InvariantCert([(x,)])) == (
        False, reason)


def _constrained_models(n):
    """Seeded small random circuits, most with one or two constraints."""
    return [random_aig(random.Random(61_000 + i), max_latches=5, max_inputs=2,
                       max_gates=20, constraint_prob=0.8) for i in range(n)]


def test_constrained_differential_against_oracle():
    configs = [EngineConfig("bmc", bmc_step=s, bmc_max=12) for s in BMC_STEPS]
    configs.append(EngineConfig("kind", kind_max=12))
    configs += [EngineConfig("ic3", abs_cst=a) for a in (False, True)]
    models = _constrained_models(320)
    constrained = unsafe = 0
    for idx, aig in enumerate(models):
        constrained += bool(aig.constraints)
        res = bfs_check(aig)
        for cfg in configs:
            v = run_config(aig, cfg)
            where = (idx, cfg.name, res.status, res.depth)
            if cfg.engine == "ic3":
                assert v.status == res.status, where
            elif v.definitive:
                assert v.status == res.status, where
            if cfg.engine == "bmc" and res.status == "unsafe" and res.depth <= 12:
                assert v.is_unsafe, where
                # the first hit inside the window that holds the minimum
                assert res.depth <= v.stats.depth < res.depth + cfg.bmc_step, where
            if cfg.engine == "kind" and v.is_unsafe:
                assert v.stats.depth == res.depth, where
            ok, why = verify_verdict(aig, 0, v)
            assert ok, (where, why)
        if res.status == "unsafe":
            unsafe += 1
            for k in range(1, 7):
                forged = safe(InvariantCert([], k))
                assert not verify_verdict(aig, 0, forged)[0], (idx, k)
    assert constrained >= 200 and unsafe >= 50


# -- trace replay -------------------------------------------------------------

# input i; latch x resets to 1 and holds; latch y resets to 0 and loads i;
# bad x & ~y; constraints x and ~y
HOLD_AAG = b"aag 4 1 2 0 1 1 2\n2\n4 4 1\n6 2\n8\n4\n7\n8 4 7\n"


def test_dont_care_bits_replay_alike_everywhere():
    # a don't-care latch bit takes its reset value (x is 1) and a
    # don't-care input bit is 0 (y stays 0), in every reader of a trace
    aig = parse_aiger(HOLD_AAG)
    trace = WitnessTrace(0, [None, None], [[None], [None]])
    steps = list(replay(aig, trace.init_state, trace.input_frames))
    assert [(vals[2], vals[3]) for vals in steps] == [(1, 0), (1, 0)]
    assert simulate(aig, trace.init_state, trace.input_frames) == [0]
    assert simulate(aig, None, trace.input_frames) == [0]
    assert verify_witness(aig, trace) == (True, "ok")
    assert _first_violated_constraint(aig, trace, []) is None
    # the same trace with the bits made explicit and wrong is rejected
    ok, why = verify_witness(aig, WitnessTrace(0, [None, None], [[1], [None]]))
    assert (ok, why) == (False, "constraint 1 violated at step 1")
    ok, why = verify_witness(aig, WitnessTrace(0, [0, None], [[None], [None]]))
    assert (ok, why) == (False, "init bit 0 contradicts latch 0 reset value")


def test_refinement_scan_takes_the_first_violation():
    # inputs a and b; bad a; constraints a and b
    aig = parse_aiger(b"aag 2 2 0 0 0 1 2\n2\n4\n2\n2\n4\n")

    def scan(frames, active=()):
        return _first_violated_constraint(aig, WitnessTrace(0, [], frames),
                                          active)

    # steps first: constraint 1 breaks at step 1, before constraint 0 at 2
    assert scan([[1, 1], [1, 0], [0, 1]]) == 1
    # then declaration order within a step
    assert scan([[1, 1], [0, 0]]) == 0
    # active constraints are skipped
    assert scan([[1, 1], [0, 0]], active=[0]) == 1
    assert scan([[0, 0]], active=[0, 1]) is None
    assert scan([[1, 1], [1, 1]]) is None
