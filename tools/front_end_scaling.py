"""Front-end phase times on AND chains of growing size, one JSON line each.

    python3 tools/front_end_scaling.py --gates 25000 50000 --repeat 3

Builds ``fixtures.and_chain(n)`` from ``tests/fixtures.py`` (read only) for
each ``n`` given, serializes it as binary AIGER and times the phases a run
goes through before its first engine query:

* ``parse_s``: ``parse_aiger`` of the binary file
* ``encode_s``: ``encode(..., cone=True)``, as ``build_transys`` calls it
* ``simplify_s``: ``simplify_cnf`` of that encoding
* ``template_s``: the ``FrameTemplate`` compile of the simplified system
* ``add_frame_s``: the first ``Unroller.add_frame`` into a fresh solver
* ``add_frame_nogc_s``: the same with the cyclic garbage collector paused,
  so the gap to ``add_frame_s`` is what collections cost that frame

Each figure is the best of ``--repeat`` runs.  A phase that is linear in
the gate count shows as a constant ``*_s`` / ``gates`` ratio down the
lines.  The chain has no constant, so ``simplify_cnf`` changes no clause.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from fixtures import and_chain  # noqa: E402
from mcheck.aiger import parse_aiger, serialize_aiger  # noqa: E402
from mcheck.satcore import Solver  # noqa: E402
from mcheck.transys import (FrameTemplate, Unroller, encode,  # noqa: E402
                            simplify_cnf)


def best(fn, repeat: int):
    """`fn()`'s result and its fastest wall time over `repeat` calls."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, min(times)


def phases(gates: int, repeat: int) -> dict:
    data = serialize_aiger(and_chain(gates), ascii=False)
    aig, parse_s = best(lambda: parse_aiger(data), repeat)
    raw, encode_s = best(lambda: encode(aig, cone=True), repeat)
    ts, simplify_s = best(lambda: simplify_cnf(raw), repeat)
    template, template_s = best(lambda: FrameTemplate(ts), repeat)
    ts.__dict__["frame_template"] = template  # Unroller reuses the compile

    def first_frame():
        Unroller(ts, Solver()).add_frame()

    def first_frame_nogc():
        gc.disable()
        try:
            first_frame()
        finally:
            gc.enable()

    _, add_frame_s = best(first_frame, repeat)
    _, add_frame_nogc_s = best(first_frame_nogc, repeat)
    return {"gates": gates, "clauses": len(ts.clauses),
            "parse_s": round(parse_s, 4), "encode_s": round(encode_s, 4),
            "simplify_s": round(simplify_s, 4),
            "template_s": round(template_s, 4),
            "add_frame_s": round(add_frame_s, 4),
            "add_frame_nogc_s": round(add_frame_nogc_s, 4)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gates", type=int, nargs="+", default=[25000, 50000],
                    help="chain sizes, in AND gates")
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs per phase; the fastest is reported")
    args = ap.parse_args()
    if args.repeat < 1 or min(args.gates) < 1:
        ap.error("--gates and --repeat must be positive")
    for n in args.gates:
        print(json.dumps(phases(n, args.repeat)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
