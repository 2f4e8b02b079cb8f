"""Runs one workload in a fresh process and reports what mcheck did.

Reads a JSON job from stdin (models as base64 binary AIGER), imports mcheck
from the checkout's ``src/``, then, in rounds until the requested time is
spent, parses each model three times (timed as set-up) and decides it.
After each model it runs a fixed reference loop of its own for a quarter of
the model's time, so that the parent can tell how fast the shared host ran
meanwhile (``speed_factor`` in run.py).  With tracing on, untraced and
traced rounds alternate so the overhead is measured against the same
process.  The last line of stdout is a JSON
report with every verdict's witness or certificate for the parent to check;
the spans of the last traced round go to a gzipped tab-separated file.
"""

from __future__ import annotations

import base64
import gc
import gzip
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARSES = 3  # parses of each model per round; parse_times keeps their mean
REFERENCE_SHARE = 0.25  # reference time per second of model time
REFERENCE_PASSES = 6  # propagation passes in one reference slice, about 2 ms
_rng = random.Random(3)
REFERENCE_VARS = 300
REFERENCE_CNF = [[_rng.choice((1, -1)) * _rng.randrange(1, REFERENCE_VARS)
                  for _ in range(3)] for _ in range(1200)]
del _rng


def _reference_slice() -> int:
    """Unit propagation over a fixed random 3-CNF: the dict, list and call
    heavy interpreter work of a pure-Python SAT solver, in code that no
    change to mcheck can speed up.  On the reference machine its time
    followed mcheck's from one host speed to the other (README.md)."""
    total = 0
    for p in range(REFERENCE_PASSES):
        assign: dict = {}
        watches: dict = {}
        for ci, c in enumerate(REFERENCE_CNF):
            watches.setdefault(-c[0], []).append(ci)
            watches.setdefault(-c[1], []).append(ci)
        queue = [((p * 7919) % (REFERENCE_VARS - 1) + 1) * (1 if p & 1 else -1)]
        while queue and len(assign) < REFERENCE_VARS // 2:
            lit = queue.pop()
            if abs(lit) in assign:
                continue
            assign[abs(lit)] = lit > 0
            for ci in watches.get(lit, ()):
                free = [l for l in REFERENCE_CNF[ci] if abs(l) not in assign]
                if len(free) == 1:
                    queue.append(free[0])
                total += len(free)
            if not queue:
                queue.append(len(assign) * 31 % (REFERENCE_VARS - 1) + 1)
    return total


def _reference(model_s: float, ref: list) -> None:
    """Run reference slices for REFERENCE_SHARE of `model_s` (at least one)
    and add them to ref = [slices, total seconds]."""
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        _reference_slice()
        dt = time.perf_counter() - t0
        spent += dt
        ref[0] += 1
        ref[1] += dt
        if spent >= REFERENCE_SHARE * model_s:
            return


def _import_mcheck():
    if not (ROOT / "src" / "mcheck" / "__init__.py").is_file():
        sys.exit("worker: no mcheck sources under %s" % (ROOT / "src"))
    sys.path.insert(0, str(ROOT / "src"))
    import mcheck.aiger
    import mcheck.orchestrator
    return mcheck.aiger, mcheck.orchestrator


def _output(aig, verdict) -> dict:
    """Verdict in checker terms: witnesses as bit lists, certificates as
    signed 1-based latch indices."""
    out = {"status": verdict.status}
    if verdict.witness is not None:
        out["init"] = verdict.witness.init_state
        out["frames"] = verdict.witness.input_frames
    clauses = getattr(verdict.certificate, "clauses", None)
    if verdict.is_safe:
        if clauses is None:
            out["certificate"] = type(verdict.certificate).__name__
        else:
            index = {lt.var: j + 1 for j, lt in enumerate(aig.latches)}
            out["clauses"] = [[-index.get(l >> 1, 0) if l & 1 else index.get(l >> 1, 0)
                               for l in c] for c in clauses]
    return out


def _counts(verdict) -> dict:
    """Per-model counters the engines already keep (Verdict.stats)."""
    st = verdict.stats
    out = {}
    solver = getattr(st, "solver", None)
    if solver is not None:
        for k in ("solves", "conflicts", "decisions", "propagations"):
            out["satcore." + k] = getattr(solver, k)
    if hasattr(st, "lemmas"):  # Ic3Stats
        out["ic3.frames"] = st.frames
        out["ic3.lemmas"] = st.lemmas
        out["ic3.obligations"] = st.obligations
        out["ic3.ctg_blocks"] = st.ctg_blocks
        out["ic3.mic_calls"] = sum(st.mic_calls.values())
        out["ic3.mic_in"] = sum(r.size_in for r in st.mic_records)
        out["ic3.mic_out"] = sum(r.size_out for r in st.mic_records)
    elif hasattr(st, "depth"):  # UnrollStats
        out["engines.bmc_depth"] = st.depth
    return out


def main() -> None:
    job = json.loads(sys.stdin.read())
    aiger, orch = _import_mcheck()
    datas = [base64.b64decode(m) for m in job["models"]]
    workload = job["workload"]

    if workload == "portfolio-mixed":
        def decide(aig):
            return orch.run_portfolio(aig, workers=2).verdict, None
    else:
        cfg = (orch.EngineConfig("ic3") if workload == "ic3-deep"
               else orch.EngineConfig("bmc", bmc_step=1))

        def decide(aig):
            v = orch.run_config(aig, cfg)
            ok, why = orch.verify_verdict(aig, 0, v) if v.definitive else (True, "")
            return v, None if ok else why

    tracer = None
    if job["trace"]:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()

    rounds, spans = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        parse_times, times, outputs, counts = [], [], [], []
        ref = [0, 0.0]
        for data in datas:
            gc.collect()
            t0 = time.perf_counter()
            for _ in range(PARSES):
                aig = aiger.parse_aiger(data)
            parse_times.append((time.perf_counter() - t0) / PARSES)
            t0 = time.perf_counter()
            try:
                verdict, rejected = decide(aig)
            except Exception as exc:  # an engine fault fails this model only
                verdict, rejected = None, repr(exc)
            times.append(time.perf_counter() - t0)
            _reference(times[-1], ref)
            if verdict is None:
                outputs.append({"status": "error", "reason": rejected})
                counts.append({})
                continue
            out = _output(aig, verdict)
            if rejected:
                out["rejected"] = rejected
            outputs.append(out)
            counts.append(_counts(verdict))
        rnd = {"traced": traced, "parse_times": parse_times, "times": times,
               "outputs": outputs, "counts": counts, "reference": ref}
        if traced:
            tracer.uninstall()
            spans = tracer.take()
            rnd["layers"] = layer_metrics(spans)
        rounds.append(rnd)
        if time.perf_counter() - start >= job["seconds"] and (
                tracer is None or len(rounds) >= 2):
            break

    report = {
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if spans:  # the last traced round
        with gzip.open(job["spans_path"], "wt", compresslevel=1) as f:
            f.write("id\tname\tstart\tend\tparent\tthread\tnote\n")
            f.writelines("%d\t%s\t%r\t%r\t%d\t%d\t%s\n" % s for s in spans)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
