"""Engine verdicts and the certificates they carry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from .aiger import WitnessTrace
from .logic import Clause


@dataclass
class InvariantCert:
    """CNF inductive invariant over state literals (conjoined with ~bad)."""

    clauses: List[Clause]


@dataclass
class KInductionCert:
    """Record of a k-induction proof: base cases to k-1, inductive step at k."""

    k: int


@dataclass
class Verdict:
    status: str  # "safe" | "unsafe" | "unknown"
    certificate: Optional[Any] = None  # InvariantCert | KInductionCert
    witness: Optional[WitnessTrace] = None
    reason: str = ""
    stats: Optional[Any] = None

    @property
    def is_safe(self) -> bool:
        return self.status == "safe"

    @property
    def is_unsafe(self) -> bool:
        return self.status == "unsafe"

    @property
    def definitive(self) -> bool:
        return self.status in ("safe", "unsafe")


def safe(certificate: Any, stats: Any = None) -> Verdict:
    return Verdict("safe", certificate=certificate, stats=stats)


def unsafe(witness: WitnessTrace, stats: Any = None) -> Verdict:
    return Verdict("unsafe", witness=witness, stats=stats)


def unknown(reason: str, stats: Any = None) -> Verdict:
    return Verdict("unknown", reason=reason, stats=stats)
