"""Per-model search counts of one benchmark workload, one JSON line each.

    python3 tools/search_counts.py --workload bmc-deep --seed 1

Builds the seeded corpus of ``bench/corpus.py`` (read only), decides every
model with the workload's engine configuration, ``bmc(step=1)`` for
``bmc-deep`` and ``ic3`` (dynamic) for ``ic3-deep``, or with each of the
portfolio's two default configurations on its own for ``portfolio-mixed``,
and prints the verdict and the counts the engines keep.  Each model is
decided by ``run_portfolio`` with a lineup of one, the gate the CLI uses, so
every witness and certificate is checked, not just the verdict's status.
The search is deterministic, so two checkouts that search alike print the
same lines, and ``diff`` of two outputs shows every model whose search
moved.  IC3 lines also carry ``push_skips``, the pushes IC3 skipped because
a stored counterexample showed they would fail, and ``solver_calls``;
unrolling lines carry ``solver_calls`` no longer, since it always equalled
``solves``.  Output from a checkout older than either change differs in
those keys, so a ``diff`` against it shows every line of that kind.  IC3
runs one solver and lifts with no query, so on an IC3 line ``solves``
equals ``solver_calls``; a checkout whose IC3 also had a lifting solver
counted its solves there too, so a ``diff`` against it shows every IC3
line.

Exits 1, after printing every line, if some verdict is ``unknown``, differs
from the model's known answer, or fails the check; each such verdict is also
named on stderr.  A line without counts is a model the gate left unknown.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import corpus  # noqa: E402
from mcheck.aiger import parse_aiger  # noqa: E402
from mcheck.orchestrator import (EngineConfig, default_configs,  # noqa: E402
                                 run_portfolio)


def configs_for(workload: str) -> List[EngineConfig]:
    if workload == "bmc-deep":
        return [EngineConfig("bmc", bmc_step=1)]
    if workload == "ic3-deep":
        return [EngineConfig("ic3")]
    return default_configs(2)


def counts(verdict) -> dict:
    st = verdict.stats
    out = {"verdict": verdict.status}
    if st is None:  # the gate's own unknown: no search to count
        return out
    if hasattr(st, "lemmas"):  # Ic3Stats
        out.update(frames=st.frames, lemmas=st.lemmas, push_skips=st.push_skips,
                   solver_calls=st.solver_calls)
    else:  # UnrollStats
        out["depth"] = st.depth
    for k in ("solves", "conflicts", "decisions", "propagations"):
        out[k] = getattr(st.solver, k)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    wrong = 0
    for m in corpus.build(args.workload, args.seed):
        aig = parse_aiger(corpus.to_aig_bytes(m))
        for cfg in configs_for(args.workload):
            result = run_portfolio(aig, configs=[cfg])
            verdict = result.verdict
            line = {"model": m.name, "config": cfg.name}
            line.update(counts(verdict))
            print(json.dumps(line))
            if verdict.status == "unknown" or (
                    m.expected is not None and verdict.status != m.expected):
                wrong += 1
                print("%s %s: %s, expected %s" % (m.name, cfg.name,
                                                  verdict.status, m.expected),
                      file=sys.stderr)
            for _, reason in result.rejected:
                print("%s %s: verdict rejected: %s" % (m.name, cfg.name, reason),
                      file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
