"""Seeded model families and the three workload corpora.

Everything here is independent of mcheck: models are built with a small
and-inverter-graph builder of our own and written out as binary AIGER
(format 1.9, bad properties in the B section, constraints in C).  Each
model carries the answer known from how it was built, so the checks in
``checks.py`` never compare against a stored copy of the program's output.

Node references follow AIGER: ``ref = 2 * var + complement``; ref 0 is
constant false and ref 1 constant true.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

FALSE, TRUE = 0, 1


@dataclass
class Model:
    """A circuit in canonical AIGER numbering plus its known answer.

    ``latches`` holds ``(next_ref, init)`` per latch with init 0, 1 or None
    (uninitialised); ``ands`` holds ``(rhs0, rhs1)`` per gate in var order.
    ``expected`` is "safe" or "unsafe"; ``depth`` is the minimal
    counterexample depth (the step at which bad first holds) when known.
    """

    name: str
    num_inputs: int
    latches: List[Tuple[int, Optional[int]]]
    ands: List[Tuple[int, int]]
    bad: int
    constraints: List[int] = field(default_factory=list)
    expected: Optional[str] = None
    depth: Optional[int] = None

    @property
    def max_var(self) -> int:
        return self.num_inputs + len(self.latches) + len(self.ands)


class Builder:
    """Declare all inputs, then all latches, then gates; gates are
    structurally hashed and constant-folded, so numbering stays canonical."""

    def __init__(self) -> None:
        self._next = 1
        self.num_inputs = 0
        self._latches: List[List] = []
        self._ands: List[Tuple[int, int]] = []
        self._hash: Dict[Tuple[int, int], int] = {}

    def input(self) -> int:
        if self._latches or self._ands:
            raise ValueError("declare inputs first")
        self.num_inputs += 1
        self._next += 1
        return 2 * (self._next - 1)

    def latch(self, init: Optional[int] = 0) -> int:
        if self._ands:
            raise ValueError("declare latches before gates")
        self._latches.append([FALSE, init])
        self._next += 1
        return 2 * (self._next - 1)

    def set_next(self, latch_ref: int, next_ref: int) -> None:
        self._latches[(latch_ref >> 1) - self.num_inputs - 1][0] = next_ref

    def AND(self, a: int, b: int) -> int:
        if a == FALSE or b == FALSE or a == b ^ 1:
            return FALSE
        if a == TRUE or a == b:
            return b
        if b == TRUE:
            return a
        key = (max(a, b), min(a, b))
        ref = self._hash.get(key)
        if ref is None:
            ref = 2 * self._next
            self._next += 1
            self._ands.append(key)
            self._hash[key] = ref
        return ref

    def OR(self, a: int, b: int) -> int:
        return self.AND(a ^ 1, b ^ 1) ^ 1

    def XOR(self, a: int, b: int) -> int:
        return self.OR(self.AND(a, b ^ 1), self.AND(a ^ 1, b))

    def conj(self, refs: List[int]) -> int:
        acc = TRUE
        for r in refs:
            acc = self.AND(acc, r)
        return acc

    def eq_const(self, bits: List[int], value: int) -> int:
        return self.conj([r if (value >> j) & 1 else r ^ 1
                          for j, r in enumerate(bits)])

    def build(self, name: str, bad: int, constraints: Optional[List[int]] = None,
              expected: Optional[str] = None, depth: Optional[int] = None) -> Model:
        return Model(name, self.num_inputs,
                     [(nxt, init) for nxt, init in self._latches],
                     list(self._ands), bad, list(constraints or []),
                     expected, depth)


# ---------------------------------------------------------------------------
# Binary AIGER


def _delta(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def to_aig_bytes(m: Model) -> bytes:
    """Binary AIGER 1.9: header ``aig M I L 0 A 1 C``, latch lines, the bad
    and constraint lines, then delta-coded gates."""
    i, l, a = m.num_inputs, len(m.latches), len(m.ands)
    parts = [b"aig %d %d %d 0 %d 1 %d\n" % (m.max_var, i, l, a, len(m.constraints))]
    for j, (nxt, init) in enumerate(m.latches):
        cur = 2 * (i + j + 1)
        if init == 0:
            parts.append(b"%d\n" % nxt)
        elif init == 1:
            parts.append(b"%d 1\n" % nxt)
        else:
            parts.append(b"%d %d\n" % (nxt, cur))
    parts.append(b"%d\n" % m.bad)
    for c in m.constraints:
        parts.append(b"%d\n" % c)
    body = bytearray()
    for k, (r0, r1) in enumerate(m.ands):
        lhs = 2 * (i + l + k + 1)
        body += _delta(lhs - r0)
        body += _delta(r0 - r1)
    parts.append(bytes(body))
    return b"".join(parts)


# ---------------------------------------------------------------------------
# Families


def _pad(b: Builder, pins: List[int], rng: random.Random) -> List[Tuple[int, int]]:
    """Out-of-cone latches toggled by the padding inputs (wiring seeded)."""
    dead = [b.latch(rng.choice((0, 1))) for _ in pins]
    order = list(pins)
    rng.shuffle(order)
    return list(zip(dead, order))


def _wire_pad(b: Builder, pairs: List[Tuple[int, int]], rng: random.Random) -> None:
    for d, pin in pairs:
        b.set_next(d, b.XOR(d, pin ^ rng.randint(0, 1)))


def mod_counter(nbits: int, wrap: int, bad_at: int, enable: bool = True,
                pad: int = 0, rng: Optional[random.Random] = None) -> Model:
    """Counter over 0..wrap-1 that steps when `enable` (an input) is high;
    bad is ``value == bad_at``.  Safe when bad_at >= wrap; otherwise the
    minimal counterexample steps every cycle and reaches bad at step
    bad_at.  `pad` adds input-toggled latches outside the bad cone."""
    if not 0 <= bad_at < (1 << nbits) or not 1 <= wrap <= (1 << nbits):
        raise ValueError("bad_at/wrap out of range")
    rng = rng or random.Random(0)
    b = Builder()
    en = b.input() if enable else TRUE
    pins = [b.input() for _ in range(pad)]
    cnt = [b.latch(0) for _ in range(nbits)]
    pairs = _pad(b, pins, rng)
    carry, nxt = en, []
    for r in cnt:
        nxt.append(b.XOR(r, carry))
        carry = b.AND(carry, r)
    reset = b.AND(b.eq_const(cnt, wrap - 1), en)
    for r, n in zip(cnt, nxt):
        b.set_next(r, b.AND(n, reset ^ 1))
    _wire_pad(b, pairs, rng)
    safe = bad_at >= wrap
    name = "mod_counter(%d,%d,%d%s%s)" % (
        nbits, wrap, bad_at, ",enable" if enable else "",
        ",pad=%d" % pad if pad else "")
    return b.build(name, b.eq_const(cnt, bad_at),
                   expected="safe" if safe else "unsafe",
                   depth=None if safe else bad_at)


def counter_overflow(nbits: int, pad: int = 0,
                     rng: Optional[random.Random] = None) -> Model:
    """Free-running counter with a sticky overflow flag; bad is the flag,
    which first holds at step 2**nbits."""
    rng = rng or random.Random(0)
    b = Builder()
    pins = [b.input() for _ in range(pad)]
    cnt = [b.latch(0) for _ in range(nbits)]
    flag = b.latch(0)
    pairs = _pad(b, pins, rng)
    carry = TRUE
    for r in cnt:
        b.set_next(r, b.XOR(r, carry))
        carry = b.AND(carry, r)
    b.set_next(flag, b.OR(flag, carry))
    _wire_pad(b, pairs, rng)
    name = "counter_overflow(%d%s)" % (nbits, ",pad=%d" % pad if pad else "")
    return b.build(name, flag, expected="unsafe", depth=1 << nbits)


def counter_with_reset(nbits: int, reset_bits: int) -> Model:
    """Counter that clears once its low `reset_bits` bits are all 1; bad is
    the top bit.  Safe whenever reset_bits < nbits."""
    if not 0 < reset_bits < nbits:
        raise ValueError("need 0 < reset_bits < nbits")
    b = Builder()
    cnt = [b.latch(0) for _ in range(nbits)]
    carry, nxt = TRUE, []
    for r in cnt:
        nxt.append(b.XOR(r, carry))
        carry = b.AND(carry, r)
    reset = b.conj(cnt[:reset_bits])
    for r, n in zip(cnt, nxt):
        b.set_next(r, b.AND(n, reset ^ 1))
    return b.build("counter_with_reset(%d,%d)" % (nbits, reset_bits),
                   cnt[-1], expected="safe")


def shift_lock(width: int, rng: random.Random, pad: int = 0) -> Model:
    """Shift register fed by one input; bad holds once its contents equal a
    seeded code word.  The code word's oldest bit is 1 and the register
    resets to 0, so no shorter input sequence opens the lock: the minimal
    counterexample depth is exactly `width`."""
    code = [rng.randint(0, 1) for _ in range(width - 1)] + [1]
    b = Builder()
    din = b.input()
    pins = [b.input() for _ in range(pad)]
    reg = [b.latch(0) for _ in range(width)]
    pairs = _pad(b, pins, rng)
    b.set_next(reg[0], din)
    for j in range(1, width):
        b.set_next(reg[j], reg[j - 1])
    _wire_pad(b, pairs, rng)
    bad = b.conj([r if bit else r ^ 1 for r, bit in zip(reg, code)])
    name = "shift_lock(%d%s)" % (width, ",pad=%d" % pad if pad else "")
    return b.build(name, bad, expected="unsafe", depth=width)


def random_model(rng: random.Random, index: int, latches: int) -> Model:
    """Random circuit with 2 inputs and 30 gate draws, optionally with
    constraints; its answer comes from ``checks.reachability``."""
    b = Builder()
    ins = [b.input() for _ in range(2)]
    regs = [b.latch(rng.choice((0, 0, 0, 1, None))) for _ in range(latches)]
    refs = [TRUE] + ins + regs

    def pick() -> int:
        return refs[rng.randrange(len(refs))] ^ rng.randint(0, 1)

    for _ in range(30):
        g = b.AND(pick(), pick())
        if g not in (TRUE, FALSE):
            refs.append(g)
    for r in regs:
        b.set_next(r, pick())
    bad = pick()
    constraints = [pick() for _ in range(rng.randint(1, 2))] \
        if rng.random() < 0.4 else []
    return b.build("random_%02d" % index, bad, constraints)


def random_models(rng: random.Random,
                  strata: List[Tuple[str, Optional[int], int]]) -> List[Model]:
    """Random circuits drawn until each stratum ``(answer, min_depth,
    count)`` is filled (min_depth 1 means "any depth >= 1"), with 3 to 8
    latches in turn.  A fixed mix of answers keeps the work of the set
    from swinging with the seed: trivial depth-0 counterexamples, which
    plain draws give more than half the time, cost about half what a
    proof does."""
    from checks import reachability

    want = {(answer, depth): count for answer, depth, count in strata}
    models: List[Model] = []
    while any(want.values()):
        k = len(models)
        m = random_model(rng, k, latches=3 + k % 6)
        answer, depth = reachability(m)
        key = (answer, None if depth is None else min(depth, 1))
        if want.get(key):
            want[key] -= 1
            m.expected, m.depth = answer, depth
            models.append(m)
    return models


# ---------------------------------------------------------------------------
# Workloads
#
# Each corpus mixes families so that the seed changes wiring, code words,
# random circuits and the model order, but not the work the deterministic
# families ask for: seeds must not move the end-to-end figures by more
# than the benchmark's bounds.


def ic3_deep(rng: random.Random) -> List[Model]:
    """Safe enable-counters that IC3 proves after 20 to 25 frames, with and
    without padding, and unsafe overflow counters that IC3 refutes through
    its obligation queue.  Each model takes a quarter of a second or less,
    so a run repeats every one of them many times (see run.py)."""
    models = [
        mod_counter(6, 24, 40),
        mod_counter(6, 24, 40, pad=8, rng=rng),
        mod_counter(6, 20, 33),
        mod_counter(6, 20, 33, pad=6, rng=rng),
        mod_counter(5, 24, 28),
        mod_counter(5, 24, 28, pad=4, rng=rng),
        counter_overflow(4),
        counter_overflow(4, pad=8, rng=rng),
    ]
    rng.shuffle(models)
    return models


def bmc_deep(rng: random.Random) -> List[Model]:
    """Unsafe models with a known minimal depth of 20 to 128, each with and
    without out-of-cone padding latches."""
    models = []
    for width in (30, 60, 90):
        models.append(shift_lock(width, rng))
        models.append(shift_lock(width, rng, pad=12))
    for nbits in (5, 6, 7):
        models.append(counter_overflow(nbits))
        models.append(counter_overflow(nbits, pad=12, rng=rng))
    for nbits, wrap, bad_at in ((6, 60, 30), (6, 60, 20)):
        models.append(mod_counter(nbits, wrap, bad_at))
        models.append(mod_counter(nbits, wrap, bad_at, pad=12, rng=rng))
    rng.shuffle(models)
    return models


def portfolio_mixed(rng: random.Random) -> List[Model]:
    """Seeded random circuits, wide reset counters on both sides of the
    CNF simplifier's 2,000-variable probing limit, padded mod counters and
    one overflow counter that only IC3 configurations race on."""
    models = random_models(rng, [("safe", None, 30), ("unsafe", 0, 20),
                                 ("unsafe", 1, 10)])
    models += [
        counter_with_reset(64, 8),
        counter_with_reset(300, 10),
        mod_counter(5, 28, 30, pad=10, rng=rng),
        mod_counter(5, 20, 30, enable=False, pad=12, rng=rng),
        counter_overflow(4),
    ]
    rng.shuffle(models)
    return models


WORKLOADS = {
    "ic3-deep": ic3_deep,
    "bmc-deep": bmc_deep,
    "portfolio-mixed": portfolio_mixed,
}


def build(workload: str, seed: int) -> List[Model]:
    """The corpus of `workload` for `seed`; same seed, same models."""
    return WORKLOADS[workload](random.Random("%s/%d" % (workload, seed)))
