"""Shared model-building helpers for the test suite.

``AigBuilder`` assembles well-formed AIGs (inputs, then latches, then gates,
gate operands ordered) with constant folding and structural hashing, so the
generated circuits are canonical enough for the binary serializer.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from mcheck.aiger import Aig, AndGate, Latch, parse_aiger, serialize_aiger

# AIGER node refs: 2*index + complement, with 0 constant false, 1 true
FALSE_REF = 0
TRUE_REF = 1


def ref_neg(ref: int) -> int:
    return ref ^ 1


def structurally_equal(a: Aig, b: Aig) -> bool:
    """Same header, inputs, latches, gates, bads and constraints; the
    trailer and the output section's flag are not compared."""
    return (a.max_var == b.max_var and a.inputs == b.inputs
            and a.latches == b.latches and a.ands == b.ands
            and a.bads == b.bads and a.constraints == b.constraints)

# Tiny fixed models used across the suite.
SAFE1_AAG = "aag 1 0 1 0 0 1\n2 2\n2\n"        # latch holds 0 forever; bad = latch
UNSAFE1_AAG = "aag 1 0 1 0 0 1\n2 3\n2\n"      # latch toggles; bad at step 1
# x' = ~x, y' = x, both reset 0; bad x, constraint ~y: bad at step 1, and
# every continuation violates the constraint at step 2
BAD_THEN_BLOCKED_AAG = "aag 2 0 2 0 0 1 1\n2 3\n4 2\n2\n5\n"
CNT2_AAG = (                                    # 2-bit counter; bad once both
    "aag 5 0 2 0 3 1\n"                         # bits are 1 (step 3)
    "2 3 0\n"
    "4 10 0\n"
    "6\n"
    "6 4 2\n"
    "8 5 3\n"
    "10 7 9\n"
)


class AigBuilder:
    """Builds an AIG; declare all inputs and latches before any gate."""

    def __init__(self) -> None:
        self._next_var = 1
        self.inputs: List[int] = []
        self._latches: List[List] = []  # [var, next_ref, init]
        self.ands: List[AndGate] = []
        self._hash: Dict[Tuple[int, int], int] = {}

    def new_input(self) -> int:
        assert not self.ands, "declare inputs before gates"
        v = self._next_var
        self._next_var += 1
        self.inputs.append(v)
        return 2 * v

    def new_latch(self, init: Optional[int] = 0) -> int:
        assert not self.ands, "declare latches before gates"
        v = self._next_var
        self._next_var += 1
        self._latches.append([v, FALSE_REF, init])
        return 2 * v

    def set_next(self, latch_ref: int, next_ref: int) -> None:
        for rec in self._latches:
            if rec[0] == latch_ref >> 1:
                rec[1] = next_ref
                return
        raise KeyError("not a latch: %d" % latch_ref)

    def AND(self, a: int, b: int) -> int:
        if a == FALSE_REF or b == FALSE_REF or a == ref_neg(b):
            return FALSE_REF
        if a == TRUE_REF or a == b:
            return b
        if b == TRUE_REF:
            return a
        key = (max(a, b), min(a, b))
        cached = self._hash.get(key)
        if cached is not None:
            return cached
        v = self._next_var
        self._next_var += 1
        self.ands.append(AndGate(v, key[0], key[1]))
        self._hash[key] = 2 * v
        return 2 * v

    def OR(self, a: int, b: int) -> int:
        return ref_neg(self.AND(ref_neg(a), ref_neg(b)))

    def XOR(self, a: int, b: int) -> int:
        return self.OR(self.AND(a, ref_neg(b)), self.AND(ref_neg(a), b))

    def conj(self, refs: List[int]) -> int:
        acc = TRUE_REF
        for r in refs:
            acc = self.AND(acc, r)
        return acc

    def build(self, bads: List[int], constraints: Optional[List[int]] = None) -> Aig:
        return Aig(
            max_var=self._next_var - 1,
            inputs=list(self.inputs),
            latches=[Latch(v, nxt, init) for v, nxt, init in self._latches],
            ands=list(self.ands),
            bads=list(bads),
            constraints=list(constraints or []),
        )


def counter_with_reset(nbits: int, reset_bits: int) -> Aig:
    """nbits-bit counter that resets to 0 once its low `reset_bits` bits are
    all 1; bad = most significant bit.  Safe whenever reset_bits < nbits."""
    b = AigBuilder()
    cnt = [b.new_latch(0) for _ in range(nbits)]
    carry = TRUE_REF
    nxt = []
    for j in range(nbits):
        nxt.append(b.XOR(cnt[j], carry))
        carry = b.AND(carry, cnt[j])
    reset = b.conj(cnt[:reset_bits])
    for j in range(nbits):
        b.set_next(cnt[j], b.AND(nxt[j], ref_neg(reset)))
    return b.build(bads=[cnt[nbits - 1]])


def counter_overflow(nbits: int = 8, enables: int = 0) -> Aig:
    """Free-running nbits-bit counter with a sticky overflow flag; the bad
    flag first holds at step 2**nbits.  With `enables` inputs, the counter
    steps only when all of them are 1: the shortest counterexample is then
    one input run out of 2**(enables * 2**nbits), which random inputs miss."""
    b = AigBuilder()
    ens = [b.new_input() for _ in range(enables)]
    cnt = [b.new_latch(0) for _ in range(nbits)]
    flag = b.new_latch(0)
    carry = b.conj(ens)
    for j in range(nbits):
        b.set_next(cnt[j], b.XOR(cnt[j], carry))
        carry = b.AND(carry, cnt[j])
    b.set_next(flag, b.OR(flag, carry))
    return b.build(bads=[flag])


def mod_counter(nbits: int, wrap: int, bad_at: int, enable: bool = False) -> Aig:
    """Counter over 0..wrap-1 (reset on reaching wrap-1); bad = value ==
    bad_at.  With wrap <= bad_at < 2**nbits the bad value is unreachable but
    sits behind a long chain of unreachable predecessor states, which makes
    single-state blocking expensive and rewards stronger generalization."""
    assert wrap <= bad_at < (1 << nbits)
    b = AigBuilder()
    en = b.new_input() if enable else TRUE_REF
    cnt = [b.new_latch(0) for _ in range(nbits)]

    def eq_const(val: int) -> int:
        return b.conj([cnt[j] if (val >> j) & 1 else ref_neg(cnt[j])
                       for j in range(nbits)])

    carry = en
    nxt = []
    for j in range(nbits):
        nxt.append(b.XOR(cnt[j], carry))
        carry = b.AND(carry, cnt[j])
    reset = b.AND(eq_const(wrap - 1), en)
    for j in range(nbits):
        b.set_next(cnt[j], b.AND(nxt[j], ref_neg(reset)))
    return b.build(bads=[eq_const(bad_at)])


def padded_mod_counter(nbits: int, wrap: int, bad_at: int, pad: int,
                       enable: bool = False, pad_init: Optional[int] = 0) -> Aig:
    """mod_counter plus `pad` input-driven latches (reset to `pad_init`)
    outside the bad cone, so cone-of-influence restriction has something
    real to exclude.  Unlike mod_counter, bad_at < wrap is allowed: bad is
    then first reachable at step bad_at."""
    assert bad_at < (1 << nbits) and 0 < wrap <= (1 << nbits)
    b = AigBuilder()
    en = b.new_input() if enable else TRUE_REF
    pins = [b.new_input() for _ in range(pad)]
    cnt = [b.new_latch(0) for _ in range(nbits)]
    dead = [b.new_latch(pad_init) for _ in range(pad)]

    def eq_const(val: int) -> int:
        return b.conj([cnt[j] if (val >> j) & 1 else ref_neg(cnt[j])
                       for j in range(nbits)])

    carry = en
    nxt = []
    for j in range(nbits):
        nxt.append(b.XOR(cnt[j], carry))
        carry = b.AND(carry, cnt[j])
    reset = b.AND(eq_const(wrap - 1), en)
    for j in range(nbits):
        b.set_next(cnt[j], b.AND(nxt[j], ref_neg(reset)))
    for d, pin in zip(dead, pins):
        b.set_next(d, b.XOR(d, pin))
    return b.build(bads=[eq_const(bad_at)])


def induction_gap() -> Aig:
    """Safe two-latch system that k-induction cannot prove for any k (an
    unreachable two-state loop feeds the bad state, so arbitrarily long
    counterexample-to-induction paths exist)."""
    b = AigBuilder()
    i = b.new_input()
    s1 = b.new_latch(0)
    s0 = b.new_latch(0)
    # states (s1 s0): 00 -> 00; 01 -> 11 if input else 10; 10 -> 01; 11 -> 11
    b.set_next(s1, s0)
    b.set_next(s0, b.OR(b.AND(b.AND(ref_neg(s1), s0), i), s1))
    return b.build(bads=[b.AND(s1, s0)])


def shift_register(n: int) -> Aig:
    """n latches reset to 0 that shift a constant 0 in (s0' = 0, s_j' =
    s_{j-1}); bad = the last latch.  Safe, and n-inductive but not
    (n-1)-inductive: an init-free path may start with a 1 in any latch, and
    only the 0 fed in at s0 takes n shifts to reach bad."""
    b = AigBuilder()
    s = [b.new_latch(0) for _ in range(n)]  # s0 keeps next state 0
    for j in range(1, n):
        b.set_next(s[j], s[j - 1])
    return b.build(bads=[s[-1]])


def shift_lock(width: int, code: int) -> Aig:
    """Shift register of `width` latches reset to 0 and fed by one input
    (s0' = input, s_j' = s_{j-1}); bad = every latch s_j equals bit j of
    `code`, whose oldest bit, j = width - 1, is set to 1.  So the shortest
    counterexample has depth exactly `width`: the first input has to reach
    the oldest latch."""
    b = AigBuilder()
    din = b.new_input()
    reg = [b.new_latch(0) for _ in range(width)]
    b.set_next(reg[0], din)
    for j in range(1, width):
        b.set_next(reg[j], reg[j - 1])
    code |= 1 << (width - 1)
    return b.build(bads=[b.conj([r if code >> j & 1 else ref_neg(r)
                                 for j, r in enumerate(reg)])])


def and_chain(n: int, inputs: int = 8) -> Aig:
    """`n` AND gates in a chain over one latch and `inputs` inputs: gate j
    ANDs gate j-1 (the latch, for j = 0) with input j mod (`inputs` + 1),
    or with the latch when that index is `inputs`.  The latch loads
    the last gate, and bad is the last gate.  Nothing is constant, so
    every gate is in the cone and no clause simplifies: a front-end
    scaling model."""
    b = AigBuilder()
    ins = [b.new_input() for _ in range(inputs)]
    x = b.new_latch(0)
    operands = ins + [x]
    acc = x
    for j in range(n):
        acc = b.AND(acc, operands[j % len(operands)])
    b.set_next(x, acc)
    return b.build(bads=[acc])


def random_aig(
    rng: random.Random,
    max_latches: int = 8,
    max_inputs: int = 3,
    max_gates: int = 40,
    constraint_prob: float = 0.4,
) -> Aig:
    """Random small circuit with a reachable-looking bad and optional
    constraints; sized so the explicit-state oracle stays fast."""
    nl = rng.randint(1, max_latches)
    ni = rng.randint(0, max_inputs)
    b = AigBuilder()
    inputs = [b.new_input() for _ in range(ni)]
    latches = [b.new_latch(rng.choice([0, 0, 0, 1, None])) for _ in range(nl)]
    refs = [TRUE_REF] + inputs + latches

    def pick() -> int:
        return refs[rng.randrange(len(refs))] ^ rng.randint(0, 1)

    for _ in range(rng.randint(2, max_gates)):
        g = b.AND(pick(), pick())
        if g not in (TRUE_REF, FALSE_REF):
            refs.append(g)
    for lref in latches:
        b.set_next(lref, pick())
    bad = pick()
    constraints = []
    if rng.random() < constraint_prob:
        for _ in range(rng.randint(1, 2)):
            constraints.append(pick())
    return b.build(bads=[bad], constraints=constraints)


def mutate_bytes(data: bytes, edits: List[Tuple[str, int, int]]) -> bytes:
    """Apply byte edits `(op, position, byte)` in turn: op "r" replaces the
    byte at `position` modulo the length, "i" inserts `byte` before it, and
    "d" deletes it."""
    buf = bytearray(data)
    for op, pos, byte in edits:
        if op == "i":
            buf.insert(pos % (len(buf) + 1), byte)
        elif buf:
            pos %= len(buf)
            if op == "r":
                buf[pos] = byte
            else:
                del buf[pos]
    return bytes(buf)


def fuzz_seed_models() -> List[bytes]:
    """Valid models to mutate, each ASCII and binary: the fixed models, one
    with a constraint and a symbol table, and a seeded random circuit with
    constraints."""
    texts = [SAFE1_AAG, CNT2_AAG, BAD_THEN_BLOCKED_AAG + "l0 x\nc\nnote\n"]
    aigs = [parse_aiger(t.encode()) for t in texts]
    aigs.append(random_aig(random.Random(5), max_latches=4, max_inputs=2,
                           max_gates=12, constraint_prob=0.8))
    return ([t.encode() for t in texts] + [serialize_aiger(aigs[-1])]
            + [serialize_aiger(a, ascii=False) for a in aigs])
