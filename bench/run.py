"""mcheck benchmark: decide a seeded corpus, check every answer, report.

    python3 bench/run.py --workload ic3-deep --seed 1 --seconds 30 --trace 0

Workloads are ``ic3-deep``, ``bmc-deep`` and ``portfolio-mixed`` (see
README.md); ``--workload all`` runs the three in turn and names each metric
``<workload>/<metric>``.  Each workload runs in a fresh worker process
(``worker.py``) that imports mcheck from ``src/``.  This process builds the
corpus, checks every verdict, witness and certificate with ``checks.py``
(nothing shared with mcheck), prints one line per metric and, as the last
line, one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer figures of traced rounds plus the tracing overhead.
Full reports go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import base64
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402

TIME_LIMIT = 170.0  # seconds for the whole command, building included
REFERENCE_SLICE_S = 0.002  # the nominal host's time for one reference slice
IC3_COUNTS = ("ic3.frames", "ic3.lemmas", "ic3.obligations", "ic3.mic_calls",
              "ic3.ctg_blocks")
SOLVER_COUNTS = ("satcore.solves", "satcore.conflicts", "satcore.decisions",
                 "satcore.propagations")
UNITS = {"_s": "s", "_frac": "ratio", "_shrink": "ratio", "_mb": "MB",
         "overhead": "ratio", "geomean": "s"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class Checker:
    """Judges each output against the answer known for its model; results
    are cached per distinct output, since rounds repeat the same work."""

    def __init__(self, workload: str, models: List[corpus.Model]):
        self.workload = workload
        self.models = models
        self._cache: Dict[Tuple[int, str], Tuple[bool, bool, str]] = {}
        for m in models:
            if m.expected is None:
                m.expected, m.depth = checks.reachability(m)

    def judge(self, k: int, out: dict) -> Tuple[bool, bool, str]:
        """(failed, correct, why) for output `out` of model `k`."""
        key = (k, json.dumps(out, sort_keys=True))
        if key not in self._cache:
            self._cache[key] = self._judge(self.models[k], out)
        return self._cache[key]

    def _judge(self, m: corpus.Model, out: dict) -> Tuple[bool, bool, str]:
        status = out["status"]
        if status in ("error", "unknown"):
            return True, True, "no verdict: %s" % out.get("reason", status)
        if "rejected" in out:
            return True, True, "mcheck rejected its verdict: %s" % out["rejected"]
        if status != m.expected:
            return False, False, "said %s, answer is %s" % (status, m.expected)
        if status == "unsafe":
            depth = m.depth if self.workload == "bmc-deep" else None
            ok, why = checks.replay_witness(m, out["init"], out["frames"], depth)
        elif "clauses" in out:
            ok, why = checks.check_certificate(m, out["clauses"])
        else:
            ok, why = False, "no clause certificate (%s)" % out.get("certificate")
        return False, ok, why


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def speed_factor(rounds: List[dict]) -> float:
    """REFERENCE_SLICE_S / the mean time of the worker's reference slices in
    these rounds: how many times faster a nominal host runs than this one
    ran while these rounds ran.

    The shared host runs the same work at speeds up to 2x apart, switching
    every 0.1 to 0.5 s, in a mix that drifts over minutes and can stay slow
    for seconds (README.md has the figures).  The worker runs a fixed
    reference loop after every model, for a quarter of the model's time, so
    the slices see the host's speeds in the same mix as the models did, and
    the model times scaled by this factor are what they would take on a host
    that runs one slice in REFERENCE_SLICE_S."""
    slices = sum(r["reference"][0] for r in rounds)
    return REFERENCE_SLICE_S * slices / sum(r["reference"][1] for r in rounds)


def model_times(rounds: List[dict], key: str, n: int) -> List[float]:
    """Each model's mean time over the rounds ("times" to decide it,
    "parse_times" to parse it), scaled by speed_factor to the nominal
    host."""
    k = speed_factor(rounds)
    return [k * statistics.fmean(r[key][j] for r in rounds) for j in range(n)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    models = corpus.build(workload, seed)
    checker = Checker(workload, models)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, int(trace))
    job = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "models": [base64.b64encode(corpus.to_aig_bytes(m)).decode() for m in models],
        "spans_path": str(out_dir / ("spans-%s.tsv.gz" % stem)),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, cwd=str(ROOT),
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit("%s: worker did not finish in time" % workload)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("%s: worker exited with %d" % (workload, proc.returncode))
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted = failed = 0
    correct = True
    problems = []
    for rnd in report["rounds"]:
        for k, out in enumerate(rnd["outputs"]):
            bad_op, ok, why = checker.judge(k, out)
            attempted += 1
            failed += bad_op
            if not ok or bad_op:
                problems.append("%s: %s" % (models[k].name, why))
            correct &= ok
    plain = [r for r in report["rounds"] if not r["traced"]]
    timed = plain[1:] if len(plain) > 1 else plain  # the first is warm-up
    per_model = model_times(timed, "times", len(models))
    corpus_s = sum(per_model)

    if not trace:
        metrics = {
            "corpus_s": corpus_s,
            "verdict_s.geomean": math.exp(statistics.fmean(
                math.log(max(t, 1e-9)) for t in per_model)),
            "setup_s": sum(model_times(timed, "parse_times", len(models))),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        }
    else:
        traced = [r for r in report["rounds"] if r["traced"]]
        metrics = {"aiger.parse_s": sum(model_times(traced, "parse_times",
                                                    len(models)))}
        k = speed_factor(traced)
        for name in traced[0]["layers"]:
            if unit_of(name) == "s":  # scaled like corpus_s
                metrics[name] = k * statistics.fmean(r["layers"][name] for r in traced)
            else:
                metrics[name] = _median([r["layers"][name] for r in traced])
        for name in SOLVER_COUNTS + IC3_COUNTS + ("engines.bmc_depth",):
            metrics[name] = _median([sum(c.get(name, 0) for c in r["counts"])
                                     for r in traced])
        mic_in = sum(c.get("ic3.mic_in", 0) for c in traced[0]["counts"])
        mic_out = sum(c.get("ic3.mic_out", 0) for c in traced[0]["counts"])
        metrics["ic3.mic_shrink"] = mic_out / mic_in if mic_in else 0.0
        traced_s = sum(model_times(traced, "times", len(models)))
        metrics["trace.corpus_s"] = traced_s
        metrics["trace.untraced_corpus_s"] = corpus_s
        metrics["trace.overhead"] = traced_s / corpus_s - 1.0

    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "rounds": len(report["rounds"]), "models": [m.name for m in models],
        "speed_factor": speed_factor(timed),
        "reference_slice_s": REFERENCE_SLICE_S / speed_factor(timed),
        "per_model_s": [[r["times"][k] for r in plain] for k in range(len(models))],
        "parse_s": [[r["parse_times"][k] for r in plain] for k in range(len(models))],
        "problems": problems,
        "nproc": os.cpu_count(), "python": platform.python_version(),
    }
    with open(out_dir / (stem + ".json"), "w") as f:
        json.dump(result, f, indent=1)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(corpus.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mcheck" / "__init__.py").is_file():
        print("error: no mcheck sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        print("%s seed %d: %d models x %d rounds, attempted %d, failed %d, %s"
              % (name, args.seed, len(res["models"]), res["rounds"], res["attempted"],
                 res["failed"], "correct" if res["correct"] else "INCORRECT"))
        for why in res["problems"]:
            print("  problem: %s" % why)
        for metric, mv in res["metrics"].items():
            print("  %-28s %14.6f %s" % (metric, mv["value"], mv["unit"]))
            key = metric if len(names) == 1 else "%s/%s" % (name, metric)
            final["metrics"][key] = mv
        final["correct"] &= res["correct"]
        final["attempted"] += res["attempted"]
        final["failed"] += res["failed"]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
