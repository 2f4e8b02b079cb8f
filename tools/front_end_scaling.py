"""Front-end phase times on AND circuits of growing size, one JSON line each.

    python3 tools/front_end_scaling.py --gates 25000 50000 --repeat 3

For each ``n`` given, builds three circuits of ``n`` AND gates over one
latch, each of which nothing makes constant, so every gate is in the cone
and no clause simplifies:

* ``and_chain``: ``fixtures.and_chain(n)`` from ``tests/fixtures.py``
  (read only), a chain of gates that each AND the one before with one of
  9 operands (8 inputs and the latch).  The chain is fanout-free, so the
  frame template compiles it to one AND over its 9 distinct leaves.
* ``open_chain``: a chain whose gates each AND the two before them, so
  every gate but the last two is read twice; the latch loads the last
  gate and bad is the one before it, so no gate is absorbed and a frame
  loads every gate.
* ``wide_and``: the AND of the latch and ``n`` distinct inputs, a chain
  of ``n`` gates, which the template compiles to one AND of ``n + 1``
  fanins: the absorption walk and the wide fold over ``n + 1`` literals.

It serializes each as binary and as ASCII AIGER and times the phases a run
goes through before its first engine query:

* ``parse_s``: ``parse_aiger`` of the binary file
* ``parse_ascii_s``: ``parse_aiger`` of the same circuit written as ``aag``
* ``encode_s``: ``encode(..., cone=True)``, as ``build_transys`` calls it
* ``simplify_s``: ``simplify_cnf`` of that encoding
* ``template_s``: the ``FrameTemplate`` compile of the simplified system
* ``add_frame_s``: the first ``Unroller.add_frame`` into a fresh solver,
  from the initial state, as BMC and the k-induction base case build it
* ``add_frame_free_s``: the same frame with ``init=False``, as the
  k-induction step and the certificate check build it
* ``add_frame_nogc_s``: the init-free frame with the cyclic garbage
  collector paused, so the gap to ``add_frame_free_s`` is what collections
  cost that frame

``frame_vars`` counts the vars that init-free frame allocates: its latch,
its inputs and its open gates.  Each time is the best of ``--repeat``
runs, each run after a full ``gc.collect()``, so that no collection left
over from an earlier phase lands in it.  A phase that is linear in the
gate count shows as a constant ``*_s`` / ``gates`` ratio down the lines of
one circuit.  Every latch resets to 0 and the first gate reads it, so from
the initial state a frame folds whole and ``add_frame_s`` measures the
fold alone.
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

from fixtures import AigBuilder, and_chain  # noqa: E402
from mcheck.aiger import Aig, parse_aiger, serialize_aiger  # noqa: E402
from mcheck.satcore import Solver  # noqa: E402
from mcheck.transys import (FrameTemplate, Unroller, encode,  # noqa: E402
                            simplify_cnf)


def open_chain(n: int) -> Aig:
    """`n` AND gates over one latch and one input, each gate the AND of
    the two before it: every gate is read twice, but the last two, which
    the latch and bad read."""
    b = AigBuilder()
    before = [b.new_input()]
    before.append(b.new_latch(0))
    for _ in range(n):
        before.append(b.AND(before[-1], before[-2]))
    b.set_next(before[1], before[-1])
    return b.build(bads=[before[-2]])


def wide_and(n: int) -> Aig:
    """The AND of one latch and `n` distinct inputs, a chain of `n` gates;
    the latch loads the AND, and bad is the AND."""
    b = AigBuilder()
    ins = [b.new_input() for _ in range(n)]
    x = b.new_latch(0)
    acc = b.conj([x] + ins)
    b.set_next(x, acc)
    return b.build(bads=[acc])


CIRCUITS = {"and_chain": and_chain, "open_chain": open_chain,
            "wide_and": wide_and}


def best(fn, repeat: int):
    """`fn()`'s result and its fastest wall time over `repeat` calls, each
    after a full collection."""
    times = []
    for _ in range(repeat):
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, min(times)


def phases(name: str, gates: int, repeat: int) -> dict:
    circuit = CIRCUITS[name](gates)
    data = serialize_aiger(circuit, ascii=False)
    aig, parse_s = best(lambda: parse_aiger(data), repeat)
    text = serialize_aiger(circuit, ascii=True)
    _, parse_ascii_s = best(lambda: parse_aiger(text), repeat)
    raw, encode_s = best(lambda: encode(aig, cone=True), repeat)
    ts, simplify_s = best(lambda: simplify_cnf(raw), repeat)
    template, template_s = best(lambda: FrameTemplate(ts), repeat)
    ts.__dict__["frame_template"] = template  # Unroller reuses the compile

    def first_frame(init: bool = True):
        Unroller(ts, Solver(), init=init).add_frame()

    def first_frame_nogc():
        gc.disable()
        try:
            first_frame(init=False)
        finally:
            gc.enable()

    _, add_frame_s = best(first_frame, repeat)
    _, add_frame_free_s = best(lambda: first_frame(init=False), repeat)
    _, add_frame_nogc_s = best(first_frame_nogc, repeat)
    s = Solver()
    Unroller(ts, s, init=False).add_frame()
    return {"circuit": name, "gates": gates, "clauses": len(ts.clauses),
            "frame_vars": s.num_vars - 1,
            "parse_s": round(parse_s, 4),
            "parse_ascii_s": round(parse_ascii_s, 4),
            "encode_s": round(encode_s, 4),
            "simplify_s": round(simplify_s, 4),
            "template_s": round(template_s, 4),
            "add_frame_s": round(add_frame_s, 4),
            "add_frame_free_s": round(add_frame_free_s, 4),
            "add_frame_nogc_s": round(add_frame_nogc_s, 4)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gates", type=int, nargs="+", default=[25000, 50000],
                    help="circuit sizes, in AND gates")
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs per phase; the fastest is reported")
    args = ap.parse_args()
    if args.repeat < 1 or min(args.gates) < 1:
        ap.error("--gates and --repeat must be positive")
    for name in CIRCUITS:
        for n in args.gates:
            print(json.dumps(phases(name, n, args.repeat)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
