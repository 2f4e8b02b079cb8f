import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mcheck

from mcheck.aiger import parse_aiger
from mcheck.certify import parse_certificate, parse_witness, verify_witness
from mcheck.cli import main
from mcheck.transys import encode
from mcheck.certify import verify_certificate

from fixtures import (CNT2_AAG, SAFE1_AAG, UNSAFE1_AAG, fuzz_seed_models,
                      mod_counter, mutate_bytes, padded_mod_counter,
                      shift_register)
from mcheck.aiger import AigerError, serialize_aiger


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_bytes(text if isinstance(text, bytes) else text.encode())
    return str(p)


def test_safe_verdict_block(tmp_path, capsys):
    path = _write(tmp_path, "m.aag", SAFE1_AAG)
    rc = main([path, "--engine", "ic3"])
    out = capsys.readouterr().out
    assert rc == 20
    assert out == "0\nb0\n.\n"


def test_unsafe_verdict_block(tmp_path, capsys):
    path = _write(tmp_path, "m.aag", CNT2_AAG)
    rc = main([path, "--engine", "bmc"])
    out = capsys.readouterr().out
    assert rc == 10
    lines = out.splitlines()
    assert lines[0] == "1" and lines[1] == "b0" and lines[-1] == "."
    trace = parse_witness(out)
    aig = parse_aiger(CNT2_AAG.encode())
    ok, why = verify_witness(aig, trace)
    assert ok, why


def test_unknown_verdict_block(tmp_path, capsys):
    path = _write(tmp_path, "m.aag", SAFE1_AAG)
    rc = main([path, "--engine", "bmc", "--bmc-max", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "2\nb0\n.\n"
    assert "unknown" in captured.err
    assert "no counterexample up to depth 5" in captured.err  # the engine's own


def test_witness_file_written_and_replayable(tmp_path, capsys):
    path = _write(tmp_path, "m.aag", UNSAFE1_AAG)
    wpath = tmp_path / "cex.txt"
    rc = main([path, "--engine", "portfolio", "--witness", str(wpath)])
    capsys.readouterr()
    assert rc == 10
    trace = parse_witness(wpath.read_text())
    ok, why = verify_witness(parse_aiger(UNSAFE1_AAG.encode()), trace)
    assert ok, why


def test_certificate_file_written_and_verifiable(tmp_path, capsys):
    aig = mod_counter(6, 20, 40)
    path = _write(tmp_path, "m.aag", serialize_aiger(aig))
    cpath = tmp_path / "inv.txt"
    rc = main([path, "--engine", "ic3", "--certificate", str(cpath)])
    capsys.readouterr()
    assert rc == 20
    ts = encode(aig)
    cert = parse_certificate(cpath.read_text(), aig)
    ok, why = verify_certificate(ts, cert)
    assert ok, why


def test_certificate_file_numbers_every_model_latch(tmp_path, capsys):
    # the pad latches lie outside bad's cone, so the search never sees
    # them; the file still numbers the model's latches, all of them
    aig = padded_mod_counter(4, 10, 12, pad=3)
    assert len(encode(aig, cone=True).latch_vars) < len(aig.latches)
    path = _write(tmp_path, "m.aag", serialize_aiger(aig))
    cpath = tmp_path / "inv.txt"
    rc = main([path, "--engine", "ic3", "--certificate", str(cpath)])
    capsys.readouterr()
    assert rc == 20
    text = cpath.read_text()
    assert text.split("\n")[0].split()[2] == str(len(aig.latches))
    ok, why = verify_certificate(encode(aig), parse_certificate(text, aig))
    assert ok, why


def test_kind_certificate_not_written_as_clauses(tmp_path, capsys):
    # a 1-inductive proof is an inductive invariant, ~bad alone, and is
    # written like IC3's
    aig = parse_aiger(SAFE1_AAG.encode())
    path = _write(tmp_path, "m.aag", SAFE1_AAG)
    cpath = tmp_path / "inv.txt"
    rc = main([path, "--engine", "kind", "--certificate", str(cpath)])
    capsys.readouterr()
    assert rc == 20
    text = cpath.read_text()
    assert text == "inv 0 1\n"
    ok, why = verify_certificate(encode(aig), parse_certificate(text, aig))
    assert ok, why
    # a 4-inductive one is not
    path = _write(tmp_path, "s.aag", serialize_aiger(shift_register(4)))
    cpath = tmp_path / "inv4.txt"
    rc = main([path, "--engine", "kind", "--certificate", str(cpath)])
    captured = capsys.readouterr()
    assert rc == 20
    assert not cpath.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("certificate not written: proof is "
                               "4-inductive; ")


@pytest.mark.parametrize("model, engine, flag, code", [
    (UNSAFE1_AAG, "bmc", "--witness", 10),
    (SAFE1_AAG, "ic3", "--certificate", 20),
], ids=["witness", "certificate"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, model, engine, flag,
                                        code):
    # the verdict block stays as it is; the path that cannot be written
    # adds one line on stderr and turns the exit code into a usage error
    path = _write(tmp_path, "m.aag", model)
    assert main([path, "--engine", engine]) == code
    block = capsys.readouterr().out
    out_path = tmp_path / "nodir" / "out.txt"
    rc = main([path, "--engine", engine, flag, str(out_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == block
    assert captured.err == ("error: cannot write %s: No such file or "
                            "directory\n" % out_path)
    assert not out_path.parent.exists()


def test_binary_input_accepted(tmp_path, capsys):
    aig = parse_aiger(CNT2_AAG.encode())
    path = _write(tmp_path, "m.aig", serialize_aiger(aig, ascii=False))
    rc = main([path, "--engine", "ic3", "--dynamic"])
    capsys.readouterr()
    assert rc == 10


def test_verify_flag_accepted(tmp_path, capsys):
    path = _write(tmp_path, "m.aag", CNT2_AAG)
    rc = main([path, "--engine", "ic3"])
    capsys.readouterr()
    assert rc == 10


def test_usage_errors(tmp_path, capsys):
    assert main([str(tmp_path / "missing.aag")]) == 2
    bad = _write(tmp_path, "bad.aag", "garbage\n")
    assert main([bad]) == 2
    no_prop = _write(tmp_path, "noprop.aag", "aag 1 0 1 0 0\n2 2\n")
    assert main([no_prop]) == 2
    ok = _write(tmp_path, "m.aag", SAFE1_AAG)
    assert main([ok, "--bad-index", "3"]) == 2
    capsys.readouterr()


IC3_FLAGS = ("--ctg", "--exctg", "--dynamic", "--standard", "--abs-cst")


@pytest.mark.parametrize("option, value", [
    ("--bmc-step", "0"), ("--bmc-max", "-3"), ("--kind-max", "-1"),
    ("--workers", "-2"), ("--workers", "0"), ("--time-limit", "-0.5"),
    ("--time-limit", "nan"), ("--bmc-step", "two"),
    # an IC3 flag given with another engine, the value, which ignores it
    *[(flag, engine) for flag in IC3_FLAGS
      for engine in ("bmc", "kind", "portfolio")],
])
def test_out_of_range_number_is_usage_error(tmp_path, capsys, option, value):
    path = _write(tmp_path, "m.aag", CNT2_AAG)
    if option in IC3_FLAGS:
        argv = [path, "--engine", value, "--workers", "1", option]
    else:
        argv = [path, "--engine", "bmc", option + "=" + value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert option in captured.err and "usage:" in captured.err
    assert "Traceback" not in captured.err


def test_undefined_variable_is_input_error(tmp_path, capsys):
    # the gate reads variable 2, which the header declares and nothing defines
    path = _write(tmp_path, "undef.aag", "aag 4 0 1 0 1 1\n2 8\n8\n8 4 3\n")
    for extra in (["--engine", "bmc"], []):
        rc = main([path] + extra)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "undefined variable 2" in captured.err
        assert "Traceback" not in captured.err


def _reject_every_verdict(monkeypatch):
    monkeypatch.setattr("mcheck.orchestrator.verify_verdict",
                        lambda aig, bad_index, verdict: (False, "forced rejection"))


def test_verify_failure_exits_1(tmp_path, capsys, monkeypatch):
    _reject_every_verdict(monkeypatch)
    path = _write(tmp_path, "m.aag", CNT2_AAG)
    rc = main([path, "--engine", "bmc"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "forced rejection" in captured.err


def test_portfolio_with_every_verdict_rejected_exits_1(tmp_path, capsys,
                                                       monkeypatch):
    # the same rule as a single engine: no verdict passed, one or more failed
    _reject_every_verdict(monkeypatch)
    path = _write(tmp_path, "m.aag", CNT2_AAG)
    rc = main([path, "--engine", "portfolio", "--workers", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.count("forced rejection") == 2  # one line per config
    assert "Traceback" not in captured.err


def test_engine_error_is_unknown(tmp_path, capsys, monkeypatch):
    # the message names the exception's type: str(KeyError(5)) is only "5"
    def boom(*args, **kwargs):
        raise KeyError(5)
    monkeypatch.setattr("mcheck.engines.bmc", boom)
    path = _write(tmp_path, "m.aag", CNT2_AAG)
    rc = main([path, "--engine", "bmc"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "2\nb0\n.\n"
    assert "engine error: KeyError: 5" in captured.err
    assert "Traceback" not in captured.err


def test_deep_kinduction_proof_accepted(tmp_path, capsys):
    # 70-inductive and no less, so the checked record has depth 70
    path = _write(tmp_path, "m.aag", serialize_aiger(shift_register(70)))
    rc = main([path, "--engine", "kind", "--kind-max", "100"])
    captured = capsys.readouterr()
    assert rc == 20, captured.err
    assert captured.out == "0\nb0\n.\n"


def test_time_limit_single_engine(tmp_path, capsys):
    path = _write(tmp_path, "m.aag", SAFE1_AAG)
    rc = main([path, "--engine", "bmc", "--time-limit", "0.0"])
    capsys.readouterr()
    assert rc == 0


def test_hostile_binary_header_exits_2(tmp_path):
    # 300 million inputs declared by a 30-byte file: the parser must reject
    # the count before it allocates from it, which the address-space limit
    # would turn into a MemoryError
    path = _write(tmp_path, "h.aig", b"aig 300000000 300000000 0 0 0\n")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from mcheck.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mcheck.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", code, path], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert run.stdout == ""
    assert "inputs" in run.stderr
    assert "Traceback" not in run.stderr


def _parsed_mutants(count, rng):
    """The first `count` byte mutants of the fuzz seeds that still parse."""
    seeds = fuzz_seed_models()
    found = []
    while len(found) < count:
        data = rng.choice(seeds)
        edits = [(rng.choice("rid"), rng.randrange(1 << 12), rng.randrange(256))
                 for _ in range(rng.randint(1, 3))]
        data = mutate_bytes(data, edits)
        try:
            parse_aiger(data)
        except AigerError:
            continue
        found.append(data)
    return found


def test_parsed_mutants_end_in_a_documented_exit_code(tmp_path, capsys):
    rng = random.Random(20)
    engines = ["portfolio", "ic3", "bmc", "kind"]
    for n, data in enumerate(_parsed_mutants(8, rng)):
        path = _write(tmp_path, "m%d.aig" % n, data)
        rc = main([path, "--engine", engines[n % 4], "--time-limit", "0.3"])
        captured = capsys.readouterr()
        assert rc in (0, 1, 2, 10, 20), (n, rc)
        assert "Traceback" not in captured.err, captured.err
