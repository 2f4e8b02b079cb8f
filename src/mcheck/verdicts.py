"""Engine verdicts and the witnesses and certificates they carry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from .aiger import WitnessTrace
from .logic import Clause


@dataclass
class InvariantCert:
    """The one safe certificate: clauses over state literals whose
    conjunction with ~bad is a k-inductive invariant.  IC3 finds inductive
    ones (k = 1); k-induction finds `InvariantCert([], k)`, ~bad alone."""

    clauses: List[Clause]
    k: int = 1


@dataclass
class Verdict:
    status: str  # "safe" | "unsafe" | "unknown"
    certificate: Optional[InvariantCert] = None
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


def safe(certificate: InvariantCert, stats: Any = None) -> Verdict:
    return Verdict("safe", certificate=certificate, stats=stats)


def unsafe(witness: WitnessTrace, stats: Any = None) -> Verdict:
    return Verdict("unsafe", witness=witness, stats=stats)


def unknown(reason: str, stats: Any = None) -> Verdict:
    return Verdict("unknown", reason=reason, stats=stats)
