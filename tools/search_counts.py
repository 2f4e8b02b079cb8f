"""Per-model search counts of one benchmark workload, one JSON line each.

    python3 tools/search_counts.py --workload bmc-deep --seed 1
    python3 tools/search_counts.py --workload ic3-deep --seed 1 --relabel 8
    python3 tools/search_counts.py --deep

Builds the seeded corpus of ``bench/corpus.py`` (read only), decides every
model with the workload's engine configuration, ``bmc(step=1)`` for
``bmc-deep`` and ``ic3`` (dynamic) for ``ic3-deep``, or with each of the
portfolio's two default configurations on its own for ``portfolio-mixed``,
and prints the verdict and the counts the engines keep.  Each model is
decided by ``run_portfolio`` with a lineup of one, the gate the CLI uses, so
every witness and certificate is checked, not just the verdict's status.
The search is deterministic, so two checkouts that search alike print the
same lines, and ``diff`` of two outputs shows every model whose search
moved.  IC3 lines carry ``solver_calls``, ``ring_answers``, the
relative-induction queries answered from a stored sat model with no solver
call, and ``bank_answers``, those answered from a lane of the simulation
stage with no solver call; neither count is in ``solver_calls``, nor in the
other.  Unrolling lines carry ``solver_calls`` no longer, since it always
equalled ``solves``.  IC3 runs one solver and lifts with no query, so on an
IC3 line ``solves`` equals ``solver_calls``.  An IC3
line whose counterexample the simulation stage found, before any query,
also carries ``sim_depth``, its depth, and 0 solver calls; no other line
carries the key, so against a checkout without the stage ``diff`` names
exactly the models it settled.  Output from a checkout whose lines carried
other keys (``push_skips`` on IC3 lines, ``solver_calls`` on unrolling
ones), or lacked one (``bank_answers``), differs in every line of that kind.

With ``--deep`` in place of ``--workload``, it decides a fixed set of
longer IC3 runs that no workload holds, counters built by
``corpus.mod_counter``: ``(8,100,200)``, ``(8,120,200)`` and ``(7,64,120)``
with enable under standard and dynamic IC3, and ``(9,300,400)`` and
``(8,200,250)`` without enable under standard IC3, each up to about a
hundred frames and some thousands of solver calls.  There a lemma's failed
push is often older than the last sat answers IC3 keeps, so these lines
show what its per-lemma stored answers save.  ``--seed`` does not apply to
this set; ``--relabel`` does.

With ``--relabel R``, each model also runs under the labellings r = 1 to
R-1: its inputs and latches shuffled by ``random.Random(r)`` and renumbered
by ``aiger.reindex``, an isomorphic copy whose search moves the way any
renumbering moves it.  Each such line carries ``"relabel": r``; the line of
the model as built carries none, so the default output is unchanged.  One
labelling cannot tell a better search from a luckier one, and the median
and worst over several can: with R >= 2 the output ends with one summary
line per config, ``{"summary": config, "relabel": R, ...}``, holding the
median and the worst (largest), over the R labellings, of ``solver_calls``
and ``frames`` summed over the models, for the configs whose lines carry
them.

Exits 1, after printing every line, if some verdict is ``unknown``, differs
from the model's known answer, or fails the check, under any labelling; each
such verdict is also named on stderr.  A line without counts is a model the
gate left unknown.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import corpus  # noqa: E402
from mcheck.aiger import Aig, parse_aiger, reindex  # noqa: E402
from mcheck.orchestrator import (EngineConfig, default_configs,  # noqa: E402
                                 run_portfolio)


def configs_for(workload: str) -> List[EngineConfig]:
    if workload == "bmc-deep":
        return [EngineConfig("bmc", bmc_step=1)]
    if workload == "ic3-deep":
        return [EngineConfig("ic3")]
    return default_configs(2)


def deep_runs() -> List[Tuple[corpus.Model, List[EngineConfig]]]:
    """The ``--deep`` set: each model with the IC3 configurations it runs."""
    std, dyn = EngineConfig("ic3", strategy="standard"), EngineConfig("ic3")
    runs = [(corpus.mod_counter(*a, enable=True), [std, dyn])
            for a in ((8, 100, 200), (8, 120, 200), (7, 64, 120))]
    runs += [(corpus.mod_counter(*a, enable=False), [std])
             for a in ((9, 300, 400), (8, 200, 250))]
    return runs


def relabel(aig: Aig, r: int) -> Aig:
    """`aig` with its inputs and latches shuffled by `random.Random(r)`, then
    renumbered in that order by `reindex`."""
    rng = random.Random(r)
    inputs, latches = list(aig.inputs), list(aig.latches)
    rng.shuffle(inputs)
    rng.shuffle(latches)
    return reindex(dataclasses.replace(aig, inputs=inputs, latches=latches))


def counts(verdict) -> dict:
    st = verdict.stats
    out = {"verdict": verdict.status}
    if st is None:  # the gate's own unknown: no search to count
        return out
    if hasattr(st, "lemmas"):  # Ic3Stats
        out.update(frames=st.frames, lemmas=st.lemmas,
                   ring_answers=st.ring_answers, bank_answers=st.bank_answers,
                   solver_calls=st.solver_calls)
        if st.sim_depth is not None:
            out["sim_depth"] = st.sim_depth
    else:  # UnrollStats
        out["depth"] = st.depth
    for k in ("solves", "conflicts", "decisions", "propagations"):
        out[k] = getattr(st.solver, k)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(corpus.WORKLOADS))
    which.add_argument("--deep", action="store_true",
                       help="decide the fixed set of long IC3 runs instead")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--relabel", type=int, default=1, metavar="R",
                    help="also run labellings 1..R-1 of each model")
    args = ap.parse_args(argv)
    if args.deep:
        runs = deep_runs()
    else:
        cfgs = configs_for(args.workload)
        runs = [(m, cfgs) for m in corpus.build(args.workload, args.seed)]
    wrong = 0
    # per config and labelling: solver_calls and frames summed over models
    sums: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
    for m, cfgs in runs:
        built = parse_aiger(corpus.to_aig_bytes(m))
        for r in range(max(args.relabel, 1)):
            aig = relabel(built, r) if r else built
            name = "%s relabel %d" % (m.name, r) if r else m.name
            for cfg in cfgs:
                result = run_portfolio(aig, configs=[cfg])
                verdict = result.verdict
                line = {"model": m.name, "config": cfg.name}
                if r:
                    line["relabel"] = r
                line.update(counts(verdict))
                print(json.dumps(line))
                for k in ("solver_calls", "frames"):
                    if k in line:
                        sums[cfg.name][k][r] += line[k]
                if verdict.status == "unknown" or (
                        m.expected is not None and verdict.status != m.expected):
                    wrong += 1
                    print("%s %s: %s, expected %s" % (name, cfg.name,
                                                      verdict.status, m.expected),
                          file=sys.stderr)
                for _, reason in result.rejected:
                    print("%s %s: verdict rejected: %s" % (name, cfg.name, reason),
                          file=sys.stderr)
    if args.relabel >= 2:
        for name, by_key in sums.items():
            line = {"summary": name, "relabel": args.relabel}
            for k, per_r in by_key.items():
                line[k + "_median"] = statistics.median(per_r.values())
                line[k + "_worst"] = max(per_r.values())
            print(json.dumps(line))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
