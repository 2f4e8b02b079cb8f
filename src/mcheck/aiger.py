"""And-inverter graphs: AIGER parsing/serialization and trace replay.

`replay` is the one place that steps a trace through the graph; witness
checking, simulation and IC3's constraint refinement all walk it.  Cones of
influence are walked by `transys.coi_vars`.

Node references use the AIGER literal convention: ``raw = 2*index +
complement``, with raw 0 = constant false and raw 1 = constant true.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple


class AigerError(Exception):
    """Malformed AIGER input; message carries a line or byte offset."""


# A binary file's inputs take no bytes of its body, so nothing in the file
# backs their count; a larger header is rejected before any allocation.
MAX_BINARY_INPUTS = 1 << 20


@dataclass(frozen=True)
class Latch:
    var: int
    next: int  # node ref
    init: Optional[int]  # 0, 1, or None for uninitialized


@dataclass(frozen=True)
class AndGate:
    var: int
    rhs0: int  # node ref
    rhs1: int  # node ref


@dataclass
class Aig:
    max_var: int
    inputs: List[int] = field(default_factory=list)  # node indices
    latches: List[Latch] = field(default_factory=list)
    ands: List[AndGate] = field(default_factory=list)
    bads: List[int] = field(default_factory=list)  # node refs
    constraints: List[int] = field(default_factory=list)  # node refs
    bads_from_outputs: bool = False  # parsed via the pre-1.9 O section
    trailer: bytes = b""  # opaque symbol table / comment section

    # computed on first use, so parsing does not pay for it
    @cached_property
    def _ands_by_var(self) -> List[AndGate]:
        """Gates in ascending var order, an evaluation order."""
        return sorted(self.ands, key=lambda g: g.var)


@dataclass
class WitnessTrace:
    """Concrete counterexample: initial latch values plus per-step inputs.

    ``init_state[j]`` and ``input_frames[t][j]`` hold 0, 1, or None (a
    don't-care, rendered as ``x``).  The bad property is expected at step
    ``len(input_frames) - 1``; frame ``t`` supplies the inputs both for
    evaluating the bad/constraints at step ``t`` and for the transition to
    step ``t + 1``.
    """

    bad_index: int
    init_state: List[Optional[int]]
    input_frames: List[List[Optional[int]]]


# ---------------------------------------------------------------------------
# Parsing


def _parse_header(line: bytes, lineno: int) -> Tuple[str, List[int]]:
    parts = line.split()
    if not parts or parts[0] not in (b"aag", b"aig"):
        raise AigerError("line %d: missing aag/aig header" % lineno)
    try:
        nums = [int(p) for p in parts[1:]]
    except ValueError:
        raise AigerError("line %d: non-numeric header field" % lineno)
    if len(nums) < 5 or len(nums) > 9:
        raise AigerError("line %d: header needs M I L O A [B C J F]" % lineno)
    if any(n < 0 for n in nums):
        raise AigerError("line %d: negative header field" % lineno)
    if len(nums) >= 8 and (nums[7] != 0 or (len(nums) == 9 and nums[8] != 0)):
        raise AigerError("line %d: justice/fairness sections unsupported" % lineno)
    while len(nums) < 7:
        nums.append(0)
    return parts[0].decode(), nums[:7]


def parse_aiger(data: bytes) -> Aig:
    """Parse ASCII ("aag") or binary ("aig") AIGER, format 1.9 headers."""
    if isinstance(data, str):
        data = data.encode()
    nl = data.find(b"\n")
    if nl < 0:
        raise AigerError("line 1: missing newline after header")
    fmt, (m, i, l, o, a, b, c) = _parse_header(data[:nl], 1)
    if fmt == "aag":
        return _parse_ascii(data, nl + 1, m, i, l, o, a, b, c)
    return _parse_binary(data, nl + 1, m, i, l, o, a, b, c)


def _read_lines(data: bytes, pos: int, count: int, lineno: int):
    lines = []
    for _ in range(count):
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise AigerError("line %d: unexpected end of file" % lineno)
        lines.append((data[pos:nl], lineno))
        pos = nl + 1
        lineno += 1
    return lines, pos, lineno


def _int_fields(line: bytes, lineno: int, lo: int, hi: int) -> List[int]:
    try:
        nums = [int(p) for p in line.split()]
    except ValueError:
        raise AigerError("line %d: non-numeric field" % lineno)
    if not (lo <= len(nums) <= hi):
        raise AigerError("line %d: wrong field count" % lineno)
    return nums

def _check_ref(ref: int, max_var: int, lineno: int) -> int:
    if ref < 0 or (ref >> 1) > max_var:
        raise AigerError("line %d: literal %d out of range" % (lineno, ref))
    return ref


def _latch_from_fields(cur: int, nums: List[int], m: int, lineno: int) -> Latch:
    nxt = _check_ref(nums[0], m, lineno)
    init: Optional[int] = 0
    if len(nums) == 2:
        if nums[1] == 0:
            init = 0
        elif nums[1] == 1:
            init = 1
        elif nums[1] == cur:
            init = None
        else:
            raise AigerError("line %d: bad latch reset value %d" % (lineno, nums[1]))
    return Latch(cur >> 1, nxt, init)


def _parse_ascii(data, pos, m, i, l, o, a, b, c) -> Aig:
    lineno = 2
    inputs: List[int] = []
    latches: List[Latch] = []
    ands: List[AndGate] = []

    lines, pos, lineno = _read_lines(data, pos, i, lineno)
    for line, ln in lines:
        (lit,) = _int_fields(line, ln, 1, 1)
        _check_ref(lit, m, ln)
        if lit & 1 or lit == 0:
            raise AigerError("line %d: invalid input literal %d" % (ln, lit))
        inputs.append(lit >> 1)

    lines, pos, lineno = _read_lines(data, pos, l, lineno)
    for line, ln in lines:
        nums = _int_fields(line, ln, 2, 3)
        cur = _check_ref(nums[0], m, ln)
        if cur & 1 or cur == 0:
            raise AigerError("line %d: invalid latch literal %d" % (ln, cur))
        latches.append(_latch_from_fields(cur, nums[1:], m, ln))

    (outputs, bads, constraints), pos, lineno = _read_refs(
        data, pos, (o, b, c), lineno, m)

    lines, pos, lineno = _read_lines(data, pos, a, lineno)
    for line, ln in lines:
        lhs, rhs0, rhs1 = _int_fields(line, ln, 3, 3)
        _check_ref(lhs, m, ln)
        _check_ref(rhs0, m, ln)
        _check_ref(rhs1, m, ln)
        if lhs & 1 or lhs == 0:
            raise AigerError("line %d: invalid and-gate literal %d" % (ln, lhs))
        if (rhs0 >> 1) >= (lhs >> 1) or (rhs1 >> 1) >= (lhs >> 1):
            raise AigerError("line %d: and-gate child not smaller than gate" % ln)
        ands.append(AndGate(lhs >> 1, rhs0, rhs1))

    _check_defs(inputs, latches, ands, outputs + bads + constraints)
    return _make_aig(m, inputs, latches, ands, outputs, bads, constraints,
                     data[pos:])


def _decode_delta(data: bytes, pos: int) -> Tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise AigerError("byte %d: truncated binary delta" % pos)
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def _parse_binary(data, pos, m, i, l, o, a, b, c) -> Aig:
    if m != i + l + a:
        raise AigerError("line 1: binary header requires M = I + L + A")
    if i > MAX_BINARY_INPUTS:
        raise AigerError("line 1: binary header declares %d inputs, more than "
                         "the %d supported" % (i, MAX_BINARY_INPUTS))
    lineno = 2
    inputs = list(range(1, i + 1))
    latches: List[Latch] = []
    ands: List[AndGate] = []

    lines, pos, lineno = _read_lines(data, pos, l, lineno)
    for idx, (line, ln) in enumerate(lines):
        cur = 2 * (i + idx + 1)
        nums = _int_fields(line, ln, 1, 2)
        latches.append(_latch_from_fields(cur, nums, m, ln))

    (outputs, bads, constraints), pos, lineno = _read_refs(
        data, pos, (o, b, c), lineno, m)

    for j in range(a):
        var = i + l + j + 1
        lhs = 2 * var
        delta0, pos = _decode_delta(data, pos)
        delta1, pos = _decode_delta(data, pos)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if delta0 == 0 or rhs1 < 0:
            raise AigerError("byte %d: non-monotone binary delta encoding" % pos)
        ands.append(AndGate(var, rhs0, rhs1))

    return _make_aig(m, inputs, latches, ands, outputs, bads, constraints,
                     data[pos:])


def _read_refs(data: bytes, pos: int, counts: Sequence[int], lineno: int,
               m: int):
    """Consecutive sections of one node ref a line (the output, bad and
    constraint sections), one list per entry of `counts`."""
    sections = []
    for count in counts:
        lines, pos, lineno = _read_lines(data, pos, count, lineno)
        sections.append([_check_ref(_int_fields(line, ln, 1, 1)[0], m, ln)
                         for line, ln in lines])
    return sections, pos, lineno


def _make_aig(m, inputs, latches, ands, outputs, bads, constraints,
              trailer) -> Aig:
    """Without a bad section, the outputs are the bad properties (AIGER
    before 1.9)."""
    from_outputs = not bads and bool(outputs)
    return Aig(m, inputs, latches, ands, outputs if from_outputs else bads,
               constraints, from_outputs, trailer)


def _check_defs(inputs, latches, ands, refs) -> None:
    """Each variable is defined once, and every non-constant variable that a
    latch, gate or property reads is defined: an ASCII header may declare
    variables the body never defines."""
    defined: Set[int] = {0}
    for v in [*inputs, *(lt.var for lt in latches), *(g.var for g in ands)]:
        if v in defined:
            raise AigerError("duplicate definition of variable %d" % v)
        defined.add(v)
    reads = [lt.next for lt in latches] + list(refs)
    for g in ands:
        reads += (g.rhs0, g.rhs1)
    for ref in reads:
        if ref >> 1 not in defined:
            raise AigerError("reference to undefined variable %d" % (ref >> 1))


# ---------------------------------------------------------------------------
# Serialization


def _encode_delta(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def reindex(aig: Aig) -> Aig:
    """Renumber to the binary format's order (inputs, latches, gates; larger
    fanin first); a graph already so numbered comes back unchanged."""
    mapping: Dict[int, int] = {0: 0}
    nxt = 1
    for v in aig.inputs:
        mapping[v] = nxt
        nxt += 1
    for lt in aig.latches:
        mapping[lt.var] = nxt
        nxt += 1
    for g in sorted(aig.ands, key=lambda g: g.var):
        mapping[g.var] = nxt
        nxt += 1

    def mref(ref: int) -> int:
        return (mapping[ref >> 1] << 1) | (ref & 1)

    ands = []
    for g in sorted(aig.ands, key=lambda g: g.var):
        r0, r1 = mref(g.rhs0), mref(g.rhs1)
        if r0 < r1:
            r0, r1 = r1, r0
        ands.append(AndGate(mapping[g.var], r0, r1))
    latches = [Latch(mapping[lt.var], mref(lt.next), lt.init) for lt in aig.latches]
    return Aig(
        nxt - 1,
        list(range(1, len(aig.inputs) + 1)),
        latches,
        ands,
        [mref(r) for r in aig.bads],
        [mref(r) for r in aig.constraints],
        aig.bads_from_outputs,
        aig.trailer,
    )


def serialize_aiger(aig: Aig, ascii: bool = True) -> bytes:
    """ASCII or binary AIGER.  Binary output is written from `reindex`,
    whose numbering the format requires; ASCII keeps the graph's own."""
    if not ascii:
        aig = reindex(aig)
    o_count, b_count = 0, len(aig.bads)
    if aig.bads_from_outputs:
        o_count, b_count = len(aig.bads), 0
    header = "%s %d %d %d %d %d" % (
        "aag" if ascii else "aig", aig.max_var, len(aig.inputs),
        len(aig.latches), o_count, len(aig.ands))
    if b_count or aig.constraints:
        header += " %d" % b_count
        if aig.constraints:
            header += " %d" % len(aig.constraints)
    out = bytearray(header.encode() + b"\n")
    if ascii:
        for v in aig.inputs:
            out += b"%d\n" % (2 * v)
    for lt in aig.latches:
        out += _latch_line(lt, binary=not ascii)
    for ref in aig.bads + aig.constraints:
        out += b"%d\n" % ref
    for g in aig.ands:
        if ascii:
            out += b"%d %d %d\n" % (2 * g.var, g.rhs0, g.rhs1)
        else:
            out += _encode_delta(2 * g.var - g.rhs0)
            out += _encode_delta(g.rhs0 - g.rhs1)
    out += aig.trailer
    return bytes(out)


def _latch_line(lt: Latch, binary: bool = False) -> bytes:
    # The binary format omits the leading current-state literal (latch
    # numbering is implicit); an uninitialized latch resets to itself.
    cur = 2 * lt.var
    head = b"" if binary else b"%d " % cur
    if lt.init is None:
        return head + b"%d %d\n" % (lt.next, cur)
    if lt.init == 1:
        return head + b"%d 1\n" % lt.next
    return head + b"%d\n" % lt.next


# ---------------------------------------------------------------------------
# Simulation


def eval_nodes(
    aig: Aig,
    latch_vals: Dict[int, int],
    input_vals: Dict[int, int],
) -> Dict[int, int]:
    """Evaluate every node for one concrete (state, input) valuation."""
    vals: Dict[int, int] = {0: 0}
    vals.update(latch_vals)
    vals.update(input_vals)
    for g in aig._ands_by_var:
        a, b = g.rhs0, g.rhs1
        vals[g.var] = (vals[a >> 1] ^ (a & 1)) & (vals[b >> 1] ^ (b & 1))
    return vals


def replay(
    aig: Aig,
    init_state: Sequence[Optional[int]],
    input_frames: Iterable[Sequence[Optional[int]]],
) -> Iterator[Dict[int, int]]:
    """Node values at each step of a trace (AIGER 1.9 semantics).

    A don't-care (None) latch bit takes the latch's reset value, or 0 if it
    has none; a don't-care input bit is 0.  Frame ``t`` drives the node
    values of step ``t`` and the transition to step ``t + 1``.
    """
    if len(init_state) != len(aig.latches):
        raise ValueError("init vector length mismatch")
    state: Dict[int, int] = {}
    for lt, bit in zip(aig.latches, init_state):
        if bit is None:
            bit = lt.init
        state[lt.var] = 0 if bit is None else int(bit)
    for step, frame in enumerate(input_frames):
        if len(frame) != len(aig.inputs):
            raise ValueError("input frame %d length mismatch" % step)
        vals = eval_nodes(aig, state, {
            v: 0 if bit is None else int(bit) for v, bit in zip(aig.inputs, frame)})
        yield vals
        state = {lt.var: vals[lt.next >> 1] ^ (lt.next & 1) for lt in aig.latches}


def simulate(
    aig: Aig,
    init_override: Optional[Sequence[Optional[int]]],
    input_frames: Sequence[Sequence[Optional[int]]],
) -> List[Optional[int]]:
    """Replay a stimulus; returns the first step each bad holds (or None).

    Don't-care bits follow `replay`; no init vector means every latch takes
    its reset value.  One final all-zero frame is appended so the
    post-transition state is observed too.
    """
    if init_override is None:
        init_override = [None] * len(aig.latches)
    first: List[Optional[int]] = [None] * len(aig.bads)
    frames = [*input_frames, [0] * len(aig.inputs)]
    for step, vals in enumerate(replay(aig, init_override, frames)):
        for bi, ref in enumerate(aig.bads):
            if first[bi] is None and vals[ref >> 1] ^ (ref & 1):
                first[bi] = step
    return first
