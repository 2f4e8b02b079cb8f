import random

import pytest
from hypothesis import given, settings, strategies as st

from mcheck.aiger import (MAX_BINARY_INPUTS, Aig, AigerError, eval_nodes,
                          parse_aiger, serialize_aiger, simulate)

from fixtures import (CNT2_AAG, SAFE1_AAG, UNSAFE1_AAG, counter_overflow,
                      fuzz_seed_models, mutate_bytes, random_aig)


def test_parse_fixed_models(cnt2):
    assert cnt2.max_var == 5
    assert [lt.var for lt in cnt2.latches] == [1, 2]
    assert len(cnt2.ands) == 3
    assert cnt2.bads == [6]


def test_outputs_become_bads():
    # pre-1.9 header: outputs are treated as bad properties
    aig = parse_aiger(b"aag 1 0 1 1 0\n2 2\n2\n")
    assert aig.bads == [2]
    assert aig.bads_from_outputs


def test_uninitialized_and_one_initialized_latches():
    aig = parse_aiger(b"aag 2 0 2 0 0 1\n2 2 2\n4 4 1\n2\n")
    assert aig.latches[0].init is None
    assert aig.latches[1].init == 1


@pytest.mark.parametrize("text", [
    "aag 1 0 1 1 0\n2 2\n",          # declared output line missing
    "aag 1 2 0 0 0 0\n2\n4\n",       # inputs exceed max_var
    "not a header\n",
    "aag 1 0 1 0 0 1\n2 9\n2\n",     # next ref out of range
    "aag 2 0 2 0 0 1\n2 2\n2 4\n2\n",  # duplicate latch definition
    "aag 4 0 1 0 1 1\n2 8\n8\n8 4 3\n",  # gate reads undefined variable 2
    "aag 2 0 1 0 0 1\n2 4\n2\n",    # latch next reads undefined variable 2
    "aag 2 0 1 0 0 1\n2 2\n5\n",    # bad reads undefined variable 2
])
def test_parse_rejects_malformed(text):
    with pytest.raises(AigerError):
        parse_aiger(text.encode())


def test_ascii_round_trip_byte_identical():
    for text in (SAFE1_AAG, UNSAFE1_AAG, CNT2_AAG):
        aig = parse_aiger(text.encode())
        out = serialize_aiger(aig, ascii=True)
        again = parse_aiger(out)
        assert aig.structurally_equal(again)
        assert serialize_aiger(again, ascii=True) == out


def test_binary_round_trip(rng):
    for _ in range(40):
        aig = random_aig(rng)
        blob = serialize_aiger(aig, ascii=False)
        again = parse_aiger(blob)
        assert aig.structurally_equal(again)
        assert serialize_aiger(again, ascii=False) == blob


def test_ascii_binary_agree(rng):
    for _ in range(20):
        aig = random_aig(rng)
        a = parse_aiger(serialize_aiger(aig, ascii=True))
        b = parse_aiger(serialize_aiger(aig, ascii=False))
        assert a.structurally_equal(b)


_BINARY = [serialize_aiger(aig, ascii=False) for aig in (
    parse_aiger(CNT2_AAG.encode()), parse_aiger(SAFE1_AAG.encode()),
    random_aig(random.Random(7)), counter_overflow(3))]
_COUNT = st.one_of(st.integers(0, 40),
                   st.integers(MAX_BINARY_INPUTS - 2, MAX_BINARY_INPUTS + 2),
                   st.builds(lambda e, d: (1 << e) + d,
                             st.integers(21, 70), st.integers(-2, 2)))


@settings(max_examples=150, deadline=None)
@given(model=st.integers(0, len(_BINARY) - 1),
       counts=st.lists(st.one_of(st.none(), _COUNT), min_size=7, max_size=7))
def test_mutated_binary_header_counts(model, counts):
    # each of M I L O A B C may be replaced; None keeps a count as written,
    # and for M sets it to I + L + A, so that a mutation reaches past the
    # header's own consistency check
    data = _BINARY[model]
    nl = data.index(b"\n")
    nums = ([int(f) for f in data[:nl].split()[1:]] + [0, 0])[:7]
    nums = [n if c is None else c for n, c in zip(nums, counts)]
    if counts[0] is None:
        nums[0] = nums[1] + nums[2] + nums[4]
    mutated = b"aig " + b" ".join(b"%d" % n for n in nums) + data[nl:]
    try:
        aig = parse_aiger(mutated)
    except AigerError:
        return
    assert isinstance(aig, Aig)


def test_binary_inputs_beyond_the_limit_rejected():
    at = b"aig %d %d 0 0 0\n" % (MAX_BINARY_INPUTS, MAX_BINARY_INPUTS)
    assert len(parse_aiger(at).inputs) == MAX_BINARY_INPUTS
    over = b"aig %d %d 0 0 0\n" % (MAX_BINARY_INPUTS + 1, MAX_BINARY_INPUTS + 1)
    with pytest.raises(AigerError, match="inputs"):
        parse_aiger(over)


_FUZZ_SEEDS = fuzz_seed_models()
_EDIT = st.tuples(st.sampled_from("rid"),
                  st.one_of(st.integers(0, 15), st.integers(0, 1 << 12)),
                  st.one_of(st.sampled_from(b"0123456789 \n-abcgiloxB"),
                            st.integers(0, 255)))


@settings(max_examples=300, deadline=None)
@given(model=st.integers(0, len(_FUZZ_SEEDS) - 1),
       edits=st.lists(_EDIT, min_size=1, max_size=4))
def test_mutated_models_parse_or_raise_aiger_error(model, edits):
    # replaced, inserted and deleted bytes anywhere, the header included
    # (positions 0-15 are drawn as often as the rest of the file)
    try:
        aig = parse_aiger(mutate_bytes(_FUZZ_SEEDS[model], edits))
    except AigerError:
        return
    assert isinstance(aig, Aig)


def test_trailer_preserved():
    text = SAFE1_AAG + "b0 prop\nc\nhello\n"
    aig = parse_aiger(text.encode())
    assert b"hello" in serialize_aiger(aig, ascii=True)


def test_eval_nodes_matches_hand_truth(cnt2):
    # state (l1, l2) = (1, 1) makes the bad gate (6 = l2 & l1) true
    vals = eval_nodes(cnt2, {1: 1, 2: 1}, {})
    assert vals[3] == 1
    vals0 = eval_nodes(cnt2, {1: 0, 2: 1}, {})
    assert vals0[3] == 0


def test_eval_nodes_random_against_python_eval(rng):
    for _ in range(30):
        aig = random_aig(rng)
        latch_vals = {lt.var: rng.randint(0, 1) for lt in aig.latches}
        input_vals = {v: rng.randint(0, 1) for v in aig.inputs}
        vals = eval_nodes(aig, latch_vals, input_vals)
        for g in aig.ands:
            r0 = vals[g.rhs0 >> 1] ^ (g.rhs0 & 1)
            r1 = vals[g.rhs1 >> 1] ^ (g.rhs1 & 1)
            assert vals[g.var] == (r0 & r1)


def test_simulate_counter_overflow_depth():
    aig = counter_overflow(4)
    frames = [[] for _ in range(20)]
    first = simulate(aig, None, frames)
    assert first == [16]


def test_simulate_toggle(unsafe1):
    assert simulate(unsafe1, None, [[]])[0] == 1  # bad on the appended frame
    assert simulate(unsafe1, None, [])[0] is None  # only step 0 is observed
