"""Tests of the benchmark's own checkers (run: python3 -m pytest bench -q).

They use only the benchmark's model builder, never mcheck, and show that
each checker accepts what is right and rejects a one-bit or one-clause
corruption of it.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
from tracing import self_times  # noqa: E402

# mod_counter(3, 5, 6): the count runs 0..4 while enabled and bad is 6
# (b2 b1 ~b0).  Its reachable states are exactly those of INV.
SMALL_INV = [[-3, -1], [-3, -2]]


def test_reachability_matches_construction():
    assert checks.reachability(corpus.counter_overflow(3)) == ("unsafe", 8)
    assert checks.reachability(corpus.mod_counter(4, 12, 5)) == ("unsafe", 5)
    assert checks.reachability(corpus.mod_counter(4, 10, 12)) == ("safe", None)
    assert checks.reachability(corpus.counter_with_reset(6, 3)) == ("safe", None)
    lock = corpus.shift_lock(7, random.Random(3))
    assert checks.reachability(lock) == ("unsafe", 7)


def test_reachability_respects_constraints():
    b = corpus.Builder()
    go = b.input()
    x = b.latch(0)
    b.set_next(x, b.OR(x, go))
    # bad once x is set, but the constraint forbids go at every step
    m = b.build("blocked", x, constraints=[go ^ 1])
    assert checks.reachability(m) == ("safe", None)
    m = b.build("open", x)
    assert checks.reachability(m) == ("unsafe", 1)


def test_witness_accepted_and_one_flipped_bit_rejected():
    m = corpus.mod_counter(4, 12, 5)
    init, frames = [None] * 4, [[1] for _ in range(6)]
    assert checks.replay_witness(m, init, frames) == (True, "ok")
    assert checks.replay_witness(m, init, frames, depth=5)[0]
    flipped = [list(f) for f in frames]
    flipped[2][0] ^= 1
    assert not checks.replay_witness(m, init, flipped)[0]


def test_witness_length_reset_and_constraints_checked():
    m = corpus.mod_counter(4, 12, 5)
    longer = [[0]] + [[1] for _ in range(6)]
    assert checks.replay_witness(m, [0] * 4, longer)[0]
    assert not checks.replay_witness(m, [0] * 4, longer, depth=5)[0]
    assert not checks.replay_witness(m, [1, 0, 0, 0], [[1]] * 6)[0]
    b = corpus.Builder()
    go = b.input()
    x = b.latch(0)
    b.set_next(x, b.OR(x, go))
    m = b.build("blocked", x, constraints=[go ^ 1])
    assert not checks.replay_witness(m, [0], [[1], [0]])[0]


def test_shift_lock_witness_has_minimal_length():
    width = 9
    m = corpus.shift_lock(width, random.Random(5))
    # recover the code word from the bad cone by search, then replay it
    status, depth = checks.reachability(m)
    assert (status, depth) == ("unsafe", width)
    for word in range(1 << width):
        frames = [[(word >> t) & 1] for t in range(width)] + [[0]]
        if checks.replay_witness(m, [0] * width, frames, depth=width)[0]:
            frames[0][0] ^= 1
            assert not checks.replay_witness(m, [0] * width, frames, depth=width)[0]
            return
    raise AssertionError("no opening sequence of length %d" % width)


def test_certificate_explicit_accepts_invariant_rejects_dropped_clause():
    m = corpus.mod_counter(3, 5, 6)
    assert checks.check_certificate(m, SMALL_INV) == (True, "ok")
    # without ~(b2 b0), state 5 steps into bad state 6
    assert not checks.check_certificate(m, SMALL_INV[1:])[0]
    # ~(b2 b1) alone is still inductive together with ~bad
    assert checks.check_certificate(m, SMALL_INV[:1])[0]
    assert not checks.check_certificate(m, [[1]])[0]  # fails initiation


def test_certificate_sat_path_agrees_with_enumeration():
    m = corpus.mod_counter(3, 5, 6, pad=5, rng=random.Random(1))
    assert len(m.latches) + m.num_inputs > checks.EXPLICIT_BITS
    for cert in (SMALL_INV, SMALL_INV[1:], SMALL_INV[:1], [[1]], [[-4, 4]], []):
        sat = checks.check_certificate(m, cert)[0]
        assert sat == checks._certificate_explicit(m, cert)[0], cert
    assert checks.check_certificate(m, SMALL_INV)[0]
    assert not checks.check_certificate(m, SMALL_INV[1:])[0]


def test_certificate_sat_path_on_wide_model():
    m = corpus.counter_with_reset(64, 8)
    assert checks.check_certificate(m, [[-64]])[0]
    assert not checks.check_certificate(m, [[1]])[0]
    assert not checks.check_certificate(m, [[65]])[0]  # no such latch


def test_self_time_subtracts_same_thread_children_only():
    spans = [
        (1, "outer", 0.0, 10.0, 0, 7, None),
        (2, "inner", 1.0, 4.0, 1, 7, None),
        (3, "worker", 2.0, 9.0, 1, 8, None),  # another thread
    ]
    assert self_times(spans) == {"outer": 7.0, "inner": 3.0, "worker": 7.0}
