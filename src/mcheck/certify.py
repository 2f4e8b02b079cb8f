"""Independent verification of results: witness replay, k-inductive
invariant certificate checking, and the text file formats for both.

The checks here deliberately avoid the engines' solvers: a certificate is
checked on one solver of its own, over one unrolling of the system, and
witness replay uses plain gate evaluation on the original and-inverter
graph.  `orchestrator.verify_verdict` hands `verify_certificate` the
encoding of the certificate's k-step cone.  Frame by frame, its clauses are
a subset of the full unrolling's, under the same var numbers, so a
certificate accepted there holds on the whole model; a clause left out
defines a var that no kept clause and no query reads, so dropping it
rejects nothing the full check would accept.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .aiger import Aig, WitnessTrace, replay
from .logic import Clause, Lit, lit_var
from .satcore import Solver
from .transys import TranSys, Unroller
from .verdicts import InvariantCert


class FormatError(Exception):
    """Malformed witness or certificate file."""


# ---------------------------------------------------------------------------
# Witness replay


def verify_witness(aig: Aig, trace: WitnessTrace) -> Tuple[bool, str]:
    """Replay `trace` on `aig`: the selected bad must hold at the final
    step and every constraint must hold at every step (including the final
    one).  Don't-care bits follow `aiger.replay`."""
    if not 0 <= trace.bad_index < len(aig.bads):
        return False, "bad index %d out of range" % trace.bad_index
    if len(trace.init_state) != len(aig.latches):
        return False, "init state has %d bits, model has %d latches" % (
            len(trace.init_state), len(aig.latches))
    if not trace.input_frames:
        return False, "witness has no frames"
    for j, (lt, bit) in enumerate(zip(aig.latches, trace.init_state)):
        if bit is not None and lt.init is not None and bit != lt.init:
            return False, "init bit %d contradicts latch %d reset value" % (bit, j)
    for t, frame in enumerate(trace.input_frames):
        if len(frame) != len(aig.inputs):
            return False, "frame %d has %d bits, model has %d inputs" % (
                t, len(frame), len(aig.inputs))

    for t, vals in enumerate(replay(aig, trace.init_state, trace.input_frames)):
        for ci, cref in enumerate(aig.constraints):
            if vals[cref >> 1] ^ (cref & 1) != 1:
                return False, "constraint %d violated at step %d" % (ci, t)
    bad_ref = aig.bads[trace.bad_index]
    if vals[bad_ref >> 1] ^ (bad_ref & 1) != 1:
        return False, "bad b%d not reached at final step %d" % (trace.bad_index, t)
    return True, "ok"


# ---------------------------------------------------------------------------
# Certificate checking


def _add_clauses(s: Solver, clauses: Iterable[Sequence[Lit]]) -> None:
    """Add `clauses` to `s` in one `Solver.add_root_clauses` batch, each
    cleaned as `Solver.add_clause` cleans one: sorted, a repeated literal
    kept once, a tautology left out.  Each clause here holds the negation
    of a guard var that no clause loaded before it names positively, so a
    unit can only be such a negation, and the solver ends as one
    `add_clause` per clause would leave it."""
    lits: List[Lit] = []
    ends: List[int] = []
    for c in clauses:
        c = sorted(set(c))
        if any(x ^ y == 1 for x, y in zip(c, c[1:])):
            continue  # a var's two literals sort next to each other
        lits += c
        ends.append(len(lits))
    s.add_root_clauses(lits, ends)


def verify_certificate(ts: TranSys, cert) -> Tuple[bool, str]:
    """Check a Safe certificate against the transition system.

    `InvariantCert(clauses, k)` claims that P = clauses ∧ ¬bad is
    k-inductive (Sheeran, Singh and Stålmarck, FMCAD 2000): no path from
    init leaves P at a depth d < k (base case), and no path of k frames in
    P leaves it at frame k (inductive step).  A path to frame d assumes the
    constraints at frames 0..d-1, and bad at frame d folds in frame d's.
    One solver holds one init-free unrolling to frame k, with selector g for
    init at frame 0 and h for P at frames 0..k-1; each condition is one
    query on a fresh literal that implies ¬P at its frame.  A failed
    condition names the first clause that some path it admits falsifies,
    one more query per clause, or "bad" if there is none, so the reason
    depends on the certificate and the model, not on the solver's search.
    """
    if not isinstance(cert, InvariantCert):
        return False, "unknown certificate type %r" % (type(cert).__name__,)
    k, clauses = cert.k, cert.clauses
    if k < 1:
        return False, "implausible induction depth %d" % k
    slot_of = ts.frame_template.slot_of
    for idx, c in enumerate(clauses):
        for l in c:
            if lit_var(l) not in slot_of:
                return False, ("invariant clause %d names var %d, which the "
                               "model does not have" % (idx, lit_var(l)))

    s = Solver()
    un = Unroller(ts, s, init=False)
    un.grow(k)
    g, h = 2 * s.new_var(), 2 * s.new_var()
    guarded = [(g ^ 1, un.lit_at(l, 0)) for l in ts.init_lits]
    for d in range(k):
        guarded += [[h ^ 1] + [un.lit_at(l, d) for l in c] for c in clauses]
        guarded.append((h ^ 1, un.bad_at(d) ^ 1))
    _add_clauses(s, guarded)

    for d in range(k + 1):  # base cases 0..k-1, then the step
        v = 2 * s.new_var()
        sel = [2 * s.new_var() for _ in clauses]  # sel[i] -> clause i false
        some = [v ^ 1, un.bad_at(d)] + sel  # v -> bad or some clause false
        _add_clauses(s, [(a ^ 1, un.lit_at(x, d) ^ 1)
                         for a, c in zip(sel, clauses) for x in c] + [some])
        assume = [h if d == k else g, v] + ([un.held(d - 1)] if d else [])
        if s.solve(assumptions=assume) is False:
            continue
        why = next(("invariant clause %d" % i for i, a in enumerate(sel)
                    if s.solve(assumptions=assume + [a])), "bad")
        if d == k:
            return False, "inductive step fails at k=%d: %s" % (k, why)
        return False, "base case fails at depth %d: %s" % (d, why)
    return True, "ok"


# ---------------------------------------------------------------------------
# File formats


def _render_bit(b: Optional[int]) -> str:
    return "x" if b is None else str(int(b))


def format_witness(trace: WitnessTrace) -> str:
    """Counterexample text: verdict, property, init bits, one input vector
    per frame, terminated by a lone dot."""
    lines = ["1", "b%d" % trace.bad_index,
             "".join(_render_bit(b) for b in trace.init_state)]
    for frame in trace.input_frames:
        lines.append("".join(_render_bit(b) for b in frame))
    lines.append(".")
    return "\n".join(lines) + "\n"


def _parse_bits(line: str, lineno: int) -> List[Optional[int]]:
    out: List[Optional[int]] = []
    for ch in line:
        if ch == "0":
            out.append(0)
        elif ch == "1":
            out.append(1)
        elif ch in "xX":
            out.append(None)
        else:
            raise FormatError("line %d: bad bit character %r" % (lineno, ch))
    return out


def parse_witness(text: str) -> WitnessTrace:
    lines = text.splitlines()
    body: List[Tuple[int, str]] = []
    for no, raw in enumerate(lines, start=1):
        if raw.lstrip().startswith("#"):
            continue
        body.append((no, raw.strip()))
    while body and body[-1][1] == "":
        body.pop()
    if len(body) < 4:
        raise FormatError("witness too short")
    if body[0][1] != "1":
        raise FormatError("line %d: expected verdict line '1'" % body[0][0])
    if not body[1][1].startswith("b"):
        raise FormatError("line %d: expected property line 'b<i>'" % body[1][0])
    try:
        bad_index = int(body[1][1][1:])
    except ValueError:
        raise FormatError("line %d: bad property index" % body[1][0])
    init_state = _parse_bits(body[2][1], body[2][0])
    if body[-1][1] != ".":
        raise FormatError("witness not terminated by '.'")
    frames = [_parse_bits(t, no) for no, t in body[3:-1]]
    if not frames:
        raise FormatError("witness has no input frames")
    return WitnessTrace(bad_index, init_state, frames)


def format_certificate(cert: InvariantCert, aig: Aig) -> str:
    """Inductive invariant (k = 1) as DIMACS-style clauses over the 1-based
    indices of the model's latches, `aig.latches`."""
    if cert.k != 1:
        raise ValueError("proof is %d-inductive; the clause file format "
                         "covers inductive invariants (k = 1) only" % cert.k)
    index = {lt.var: j + 1 for j, lt in enumerate(aig.latches)}
    lines = ["inv %d %d" % (len(cert.clauses), len(aig.latches))]
    for c in cert.clauses:
        toks = []
        for l in c:
            v = lit_var(l)
            if v not in index:
                raise ValueError(
                    "invariant references internal signal x%d; the clause "
                    "file format covers latch variables only" % v)
            toks.append(str(-index[v] if l & 1 else index[v]))
        lines.append(" ".join(toks + ["0"]))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str, aig: Aig) -> InvariantCert:
    """Read `format_certificate` text back into clauses over `aig`'s
    latch vars."""
    lines = [l.strip() for l in text.splitlines()
             if l.strip() and not l.lstrip().startswith("#")]
    if not lines or not lines[0].startswith("inv"):
        raise FormatError("missing 'inv' header")
    parts = lines[0].split()
    if len(parts) != 3:
        raise FormatError("malformed 'inv' header")
    try:
        n_clauses, n_latches = int(parts[1]), int(parts[2])
    except ValueError:
        raise FormatError("malformed 'inv' header")
    if n_latches != len(aig.latches):
        raise FormatError("certificate latch count %d, model has %d" % (
            n_latches, len(aig.latches)))
    if len(lines) - 1 != n_clauses:
        raise FormatError("expected %d clauses, found %d" % (
            n_clauses, len(lines) - 1))
    clauses: List[Clause] = []
    for no, line in enumerate(lines[1:], start=2):
        toks = line.split()
        if not toks or toks[-1] != "0":
            raise FormatError("line %d: clause not 0-terminated" % no)
        lits = []
        for t in toks[:-1]:
            try:
                n = int(t)
            except ValueError:
                raise FormatError("line %d: bad literal %r" % (no, t))
            if n == 0 or abs(n) > n_latches:
                raise FormatError("line %d: latch index %d out of range" % (no, n))
            lits.append(2 * aig.latches[abs(n) - 1].var + (1 if n < 0 else 0))
        clauses.append(tuple(sorted(lits)))
    return InvariantCert(clauses)
