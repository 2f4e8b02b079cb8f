"""Bit-level hardware safety model checker for AIGER models.

Engines: IC3 (with CTG / extended-CTG / dynamic generalization and
constraint localization), bounded model checking, and k-induction,
combined by a parallel portfolio.  Safe verdicts carry
self-verified k-inductive invariant certificates; unsafe verdicts carry
replayable counterexample witnesses.
"""

from .aiger import Aig, AigerError, WitnessTrace, parse_aiger, serialize_aiger, simulate
from .certify import (format_certificate, format_witness, parse_certificate,
                      parse_witness, verify_certificate, verify_witness)
from .engines import bmc, kind
from .ic3 import IC3, Ic3Options, check as ic3_check
from .orchestrator import (EngineConfig, PortfolioResult, build_transys,
                           default_configs, run_config, run_portfolio)
from .transys import TranSys, encode, simplify_cnf
from .verdicts import InvariantCert, Verdict

__version__ = "0.1.0"

__all__ = [
    "Aig", "AigerError", "WitnessTrace", "parse_aiger", "serialize_aiger",
    "simulate", "format_certificate", "format_witness", "parse_certificate",
    "parse_witness", "verify_certificate", "verify_witness", "bmc", "kind",
    "IC3", "Ic3Options", "ic3_check", "EngineConfig", "PortfolioResult",
    "build_transys", "default_configs", "run_config", "run_portfolio",
    "TranSys", "encode", "simplify_cnf", "InvariantCert", "Verdict",
    "__version__",
]
