"""Command-line entry point.

Every `--engine` value runs through `run_portfolio`, a single engine as a
lineup of one, so one gate verifies, cancels and reports every verdict.
Exit codes follow the hardware model-checking competition convention:
10 = unsafe (counterexample found), 20 = safe (proof found), 0 = unknown
(also when an engine raised: "engine error" on stderr), 2 = usage or input
error; 1 = no verdict passed the independent check and at least one failed
it (reasons on stderr, nothing on stdout).  Otherwise stdout carries the
matching verdict block ("0"/"1", the property line "b<i>", and for unsafe
the witness body); a `--witness` or `--certificate` path that cannot be
written then exits 2 with one "error: cannot write" line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .aiger import Aig, AigerError, parse_aiger
from .certify import format_certificate, format_witness
from .orchestrator import SOLO_TIME, EngineConfig, run_portfolio
from .verdicts import Verdict

EXIT_UNSAFE = 10
EXIT_SAFE = 20
EXIT_UNKNOWN = 0
EXIT_USAGE = 2
EXIT_VERIFY_FAILED = 1


def _at_least(low, kind=int):
    """argparse `type=`: a `kind` number no smaller than `low`."""
    def number(text: str):
        value = kind(text)  # a ValueError reads "invalid number value"
        if not value >= low:  # also rejects nan
            raise argparse.ArgumentTypeError(
                "must be at least %s, got %r" % (low, text))
        return value
    return number


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mcheck",
        description="Bit-level safety model checker for AIGER models "
                    "(IC3, BMC, k-induction, parallel portfolio).")
    p.add_argument("file", help="model file, ASCII (.aag) or binary (.aig)")
    p.add_argument("--engine", choices=["ic3", "bmc", "kind", "portfolio"],
                   default="portfolio")
    # an engine's own options default to absent, so EngineConfig's
    # defaults apply and `main` can tell that one was given
    g = p.add_mutually_exclusive_group()
    for name, text in (("ctg", "fixed CTG generalization"),
                       ("exctg", "fixed extended-CTG generalization"),
                       ("dynamic", "escalate generalization dynamically "
                                   "(default)"),
                       ("standard", "plain drop-literal generalization")):
        g.add_argument("--" + name, dest="strategy", action="store_const",
                       const=name, default=argparse.SUPPRESS,
                       help="IC3: " + text)
    p.add_argument("--abs-cst", action="store_true", default=argparse.SUPPRESS,
                   help="IC3: localize invariant constraints by refinement")
    p.add_argument("--bmc-max", type=_at_least(0), default=argparse.SUPPRESS,
                   metavar="N", help="BMC depth bound (default 1000)")
    p.add_argument("--bmc-step", type=_at_least(1), default=argparse.SUPPRESS,
                   metavar="N",
                   help="BMC frames per incremental query (default 1)")
    p.add_argument("--kind-max", type=_at_least(0), default=argparse.SUPPRESS,
                   metavar="N", help="k-induction depth bound (default 50)")
    p.add_argument("--workers", type=_at_least(1), default=argparse.SUPPRESS,
                   metavar="N",
                   help="portfolio size: the first config runs alone for "
                        "%g ms, then each other one in its own thread "
                        "(default 3)" % (SOLO_TIME * 1000))
    p.add_argument("--time-limit", type=_at_least(0, float), default=None,
                   metavar="SECS", help="time bound, counted after parsing")
    p.add_argument("--bad-index", type=int, default=0, metavar="I",
                   help="which bad property to check (default 0)")
    p.add_argument("--witness", metavar="PATH",
                   help="write the counterexample witness here when unsafe")
    p.add_argument("--certificate", metavar="PATH",
                   help="write the inductive invariant here when safe")
    return p


# the engine that reads each engine-specific option, by its argparse dest
_OWNER = {"strategy": "ic3", "abs_cst": "ic3", "bmc_max": "bmc",
          "bmc_step": "bmc", "kind_max": "kind", "workers": "portfolio"}


def _report(verdict: Verdict, aig: Aig, args: argparse.Namespace) -> int:
    if verdict.is_unsafe:
        assert verdict.witness is not None
        text = format_witness(verdict.witness)
        sys.stdout.write(text)
        return _write(args.witness, text, EXIT_UNSAFE)
    if verdict.is_safe:
        sys.stdout.write("0\nb%d\n.\n" % args.bad_index)
        text = _certificate_text(verdict, aig) if args.certificate else None
        return _write(args.certificate, text, EXIT_SAFE)
    sys.stdout.write("2\nb%d\n.\n" % args.bad_index)
    if verdict.reason:
        print("unknown: %s" % verdict.reason, file=sys.stderr)
    return EXIT_UNKNOWN


def _certificate_text(verdict: Verdict, aig: Aig) -> Optional[str]:
    try:
        return format_certificate(verdict.certificate, aig)
    except ValueError as exc:
        print("certificate not written: %s" % exc, file=sys.stderr)
        return None


def _write(path: Optional[str], text: Optional[str], code: int) -> int:
    """Write `text` to `path` if both are given; EXIT_USAGE if that fails."""
    if path and text is not None:
        try:
            with open(path, "w") as f:
                f.write(text)
        except OSError as exc:
            print("error: cannot write %s: %s" % (path, exc.strerror or exc),
                  file=sys.stderr)
            return EXIT_USAGE
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    opts = {k: v for k, v in vars(args).items() if k in _OWNER}
    for k, v in opts.items():
        if args.engine != _OWNER[k]:
            flag = v if k == "strategy" else k.replace("_", "-")
            parser.error("--%s needs --engine %s" % (flag, _OWNER[k]))

    try:
        with open(args.file, "rb") as f:
            data = f.read()
        aig = parse_aiger(data)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except AigerError as exc:
        print("error: %s: %s" % (args.file, exc), file=sys.stderr)
        return EXIT_USAGE

    if not aig.bads:
        print("error: model has no bad property", file=sys.stderr)
        return EXIT_USAGE
    if not 0 <= args.bad_index < len(aig.bads):
        print("error: bad index %d out of range (model has %d)"
              % (args.bad_index, len(aig.bads)), file=sys.stderr)
        return EXIT_USAGE

    # `workers` is the portfolio's one option; an engine is a lineup of one
    lineup = (opts if args.engine == "portfolio"
              else {"configs": [EngineConfig(args.engine, **opts)]})
    result = run_portfolio(aig, bad_index=args.bad_index,
                           time_limit=args.time_limit, **lineup)
    if not result.verdict.definitive and result.rejected:
        for cfg, reason in result.rejected:
            print("verification of the %s verdict failed: %s"
                  % (cfg.name, reason), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return _report(result.verdict, aig, args)


if __name__ == "__main__":
    sys.exit(main())
