import random

import pytest

from mcheck.aiger import WitnessTrace, parse_aiger
from mcheck.certify import (FormatError, format_certificate, format_witness,
                            parse_certificate, parse_witness,
                            verify_certificate, verify_witness)
from mcheck.engines import bmc, kind
from mcheck.ic3 import (CTG, DYNAMIC, EXCTG, STANDARD, Ic3Options,
                        check as ic3_check)
from mcheck.orchestrator import build_transys
from mcheck.satcore import Solver
from mcheck.transys import encode
from mcheck.verdicts import InvariantCert

from fixtures import (induction_gap, mod_counter, padded_mod_counter,
                      random_aig, shift_register)
from oracle import bfs_check


# -- witness replay ---------------------------------------------------------


def test_witness_accepts_real_counterexample(cnt2):
    v = bmc(encode(cnt2), max_depth=10)
    assert v.is_unsafe
    ok, why = verify_witness(cnt2, v.witness)
    assert ok, why


def test_witness_rejects_wrong_final_step(cnt2):
    v = bmc(encode(cnt2), max_depth=10)
    # truncating the trace moves the claimed failure step off the bad state
    short = WitnessTrace(v.witness.bad_index, v.witness.init_state,
                         v.witness.input_frames[:-1])
    ok, _ = verify_witness(cnt2, short)
    assert not ok


def test_witness_rejects_flipped_init(unsafe1):
    v = bmc(encode(unsafe1), max_depth=4)
    assert v.is_unsafe
    bad_init = [1 - b for b in v.witness.init_state]
    ok, _ = verify_witness(unsafe1, WitnessTrace(0, bad_init,
                                                 v.witness.input_frames))
    assert not ok


def test_witness_rejects_init_inconsistent_with_reset(safe1):
    # latch resets to 0; claiming it starts at 1 is inconsistent
    ok, why = verify_witness(safe1, WitnessTrace(0, [1], [[]]))
    assert not ok
    assert "init" in why or "reset" in why


def test_witness_respects_constraints():
    # toggling latch, bad = latch, constraint pins latch at 0: any trace
    # claiming the bad violates the constraint at the failing step
    aig = parse_aiger(b"aag 1 0 1 0 0 1 1\n2 3\n2\n3\n")
    ok, why = verify_witness(aig, WitnessTrace(0, [0], [[], []]))
    assert not ok


# -- invariant certificates -------------------------------------------------


def _safe_cert(aig):
    ts = encode(aig)
    v = ic3_check(ts, Ic3Options(strategy="dynamic"))
    assert v.is_safe
    return ts, v.certificate


def test_certificate_accepts_real_invariant():
    aig = mod_counter(6, 20, 40)
    ts, cert = _safe_cert(aig)
    ok, why = verify_certificate(ts, cert)
    assert ok, why


def test_certificate_rejects_dropped_clause():
    aig = mod_counter(6, 20, 40)
    ts, cert = _safe_cert(aig)
    rejected = 0
    for i in range(len(cert.clauses)):
        mutated = InvariantCert(cert.clauses[:i] + cert.clauses[i + 1:])
        ok, _ = verify_certificate(ts, mutated)
        rejected += not ok
    assert rejected > 0  # at least one clause is load-bearing


def test_certificate_rejects_trivial_invariant(safe1):
    # the certificate's invariant is clauses ∧ ¬bad, so an empty clause list
    # is legitimate exactly when ¬bad is already inductive -- true for the
    # frozen-latch model, false for the modular counter
    ok, _ = verify_certificate(encode(safe1), InvariantCert([]))
    assert ok
    ok, _ = verify_certificate(encode(mod_counter(6, 20, 40)), InvariantCert([]))
    assert not ok


def test_certificate_rejects_flipped_literal():
    aig = mod_counter(6, 20, 40)
    ts, cert = _safe_cert(aig)
    cl = cert.clauses[0]
    mutated = InvariantCert([tuple(l ^ 1 for l in cl)] + list(cert.clauses[1:]))
    ok, _ = verify_certificate(ts, mutated)
    assert not ok


@pytest.mark.parametrize("aag, clauses, reason", [
    # latch x resets to 0 and holds; bad x: the clause (x) fails at init
    (b"aag 1 0 1 0 0 1\n2 2\n2\n", [(2,)],
     "base case fails at depth 0: invariant clause 0"),
    # latch x resets to 1: bad holds in the initial state
    (b"aag 1 0 1 0 0 1\n2 2 1\n2\n", [], "base case fails at depth 0: bad"),
    # latch x resets to 0 and toggles; bad x: (~x) is not inductive, and
    # ~bad alone admits the step into bad
    (b"aag 1 0 1 0 0 1\n2 3\n2\n", [(3,)],
     "inductive step fails at k=1: invariant clause 0"),
    (b"aag 1 0 1 0 0 1\n2 3\n2\n", [], "inductive step fails at k=1: bad"),
])
def test_certificate_rejection_reasons(aag, clauses, reason):
    ts = encode(parse_aiger(aag))
    assert verify_certificate(ts, InvariantCert(clauses)) == (False, reason)


def test_malformed_certificate_is_rejected_not_raised():
    # the encoding has vars 0..15: var 999, var 16, and the var -1 that the
    # literal -2 would index from the end, are none of them
    ts = encode(mod_counter(3, 4, 6))
    assert ts.num_vars == 16
    for lit, var in ((1998, 999), (32, 16), (-2, -1)):
        assert verify_certificate(ts, InvariantCert([(lit,)])) == (
            False, "invariant clause 0 names var %d, which the model does "
                   "not have" % var)
    assert verify_certificate(ts, InvariantCert([], 0)) == (
        False, "implausible induction depth 0")
    assert verify_certificate(ts, [(2,)]) == (
        False, "unknown certificate type 'list'")


def test_hostile_clauses_keep_their_meaning(monkeypatch):
    """The check loads its guarded clauses in one batch, and that batch
    cleans each clause as `Solver.add_clause` does: a repeated literal
    counts once, and a tautology constrains nothing.  No clause reaches
    the root loader naming a var twice."""
    add_root_clauses = Solver.add_root_clauses

    def checked(self, lits, ends):
        ends = list(ends)
        for i, j in zip([0] + ends[:-1], ends):
            assert len({l >> 1 for l in lits[i:j]}) == j - i, lits[i:j]
        return add_root_clauses(self, lits, ends)

    monkeypatch.setattr(Solver, "add_root_clauses", checked)
    ts = encode(mod_counter(3, 4, 6))
    v = ic3_check(ts, Ic3Options(strategy="dynamic"))
    assert v.is_safe and v.certificate.clauses == [(7,)]
    x = 2 * mod_counter(3, 4, 6).latches[0].var
    cases = [([(7,), (x, x)], "base case fails at depth 0: invariant clause 1"),
             ([(7,), (x, x ^ 1)], "ok"),
             ([(x, x ^ 1)], "inductive step fails at k=1: bad")]
    for clauses, reason in cases:
        assert verify_certificate(ts, InvariantCert(clauses)) == (
            reason == "ok", reason)


def test_kinduction_certificate_roundtrip():
    ts = encode(shift_register(4))
    v = kind(ts, max_k=10)
    assert v.is_safe and v.certificate.k == 4
    ok, why = verify_certificate(ts, v.certificate)
    assert ok, why
    # a smaller k is not inductive
    for k in (1, 3):
        assert verify_certificate(ts, InvariantCert([], k)) == (
            False, "inductive step fails at k=%d: bad" % k)
    # nor is any k on a safe model that is k-inductive for none
    gap = encode(induction_gap())
    assert not any(verify_certificate(gap, InvariantCert([], k))[0]
                   for k in range(1, 7))


# -- file formats -----------------------------------------------------------


def test_witness_format_roundtrip(cnt2):
    v = bmc(encode(cnt2), max_depth=10)
    text = format_witness(v.witness)
    lines = text.splitlines()
    assert lines[0] == "1" and lines[1] == "b0" and lines[-1] == "."
    again = parse_witness(text)
    assert again.bad_index == v.witness.bad_index
    assert again.init_state == v.witness.init_state
    assert again.input_frames == v.witness.input_frames
    ok, why = verify_witness(cnt2, again)
    assert ok, why


def test_witness_format_dont_cares_and_comments():
    t = parse_witness("# comment\n1\nb2\n1x0\nx1\n.\n")
    assert t.bad_index == 2
    assert t.init_state == [1, None, 0]
    assert t.input_frames == [[None, 1]]
    assert "x" in format_witness(t)


@pytest.mark.parametrize("text", [
    "",                      # empty
    "0\nb0\n00\n0\n.\n",     # wrong verdict line
    "1\nq0\n00\n0\n.\n",     # bad property line
    "1\nb0\n00\n0\n",        # missing terminator
    "1\nb0\n02\n0\n.\n",     # bad bit character
    "1\nb0\n00\n.\n",        # no input frames
])
def test_witness_format_rejects(text):
    with pytest.raises(FormatError):
        parse_witness(text)


def test_certificate_format_roundtrip():
    """Every IC3 proof is inductive (k = 1) and names latches only, so the
    clause file format takes each one: it writes, parses back to the same
    clauses and passes the check on the whole model's encoding."""
    models = [mod_counter(6, 20, 40), mod_counter(4, 6, 10, enable=True),
              padded_mod_counter(4, 12, 14, pad=3, enable=True)]
    models += [random_aig(random.Random(7_000 + i)) for i in range(30)]
    options = [Ic3Options(strategy=s) for s in (STANDARD, CTG, EXCTG, DYNAMIC)]
    options.append(Ic3Options(abs_cst=True))
    proofs = 0
    for aig in models:
        ts = encode(aig)
        for opts in options:
            v = ic3_check(build_transys(aig), opts)
            if not v.is_safe:
                continue
            cert = v.certificate
            text = format_certificate(cert, aig)
            assert text.splitlines()[0] == "inv %d %d" % (
                len(cert.clauses), len(aig.latches))
            again = parse_certificate(text, aig)
            assert sorted(again.clauses) == sorted(cert.clauses)
            ok, why = verify_certificate(ts, again)
            assert ok, why
            proofs += 1
    assert proofs >= 50


@pytest.mark.parametrize("text", [
    "",                       # no header
    "inv 1\n1 0\n",           # malformed header
    "inv 1 2\n1 0\n",         # latch count mismatch
    "inv 2 6\n1 0\n",         # clause count mismatch
    "inv 1 6\n1\n",           # missing 0 terminator
    "inv 1 6\n9 0\n",         # latch index out of range
])
def test_certificate_format_rejects(text):
    aig = mod_counter(6, 20, 40)
    with pytest.raises(FormatError):
        parse_certificate(text, aig)


def test_certificate_format_refuses_internal_signals(cnt2):
    ts = encode(cnt2)
    gate_var = next(v for v in range(1, ts.num_vars)
                    if v not in ts.latch_vars and v not in ts.input_vars
                    and v in ts.defs)
    with pytest.raises(ValueError):
        format_certificate(InvariantCert([(2 * gate_var,)]), cnt2)
