"""Three-valued answers for fuel-bounded, semi-decidable checks."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable

__all__ = ["Verdict"]


@dataclass(frozen=True)
class Verdict:
    """Verified / Refuted(witness) / Unknown(reason).

    `sampled` marks a Verified verdict that only covered a sample of an
    infinite quantification (an under-approximation, never a proof).
    """

    status: str  # "verified" | "refuted" | "unknown"
    witness: Any = None
    reason: str | None = None
    sampled: bool = False

    @staticmethod
    def verified(sampled: bool = False) -> "Verdict":
        return Verdict("verified", sampled=sampled)

    @staticmethod
    def refuted(witness: Any) -> "Verdict":
        return Verdict("refuted", witness=witness)

    @staticmethod
    def unknown(reason: str = "fuel", witness: Any = None) -> "Verdict":
        return Verdict("unknown", witness=witness, reason=reason)

    @staticmethod
    def all_of(verdicts: Iterable["Verdict"], sampled: bool = False) -> "Verdict":
        """The conjunction of `verdicts`: the first refuted one, else the
        first unknown one, else Verified, sampled if `sampled` is set or
        any part was.  Reads no verdict past the first refutation."""
        unknown: Verdict | None = None
        for verdict in verdicts:
            if verdict.is_refuted:
                return verdict
            if verdict.is_unknown and unknown is None:
                unknown = verdict
            sampled = sampled or verdict.sampled
        return unknown or Verdict.verified(sampled)

    def at(self, witness: Any) -> "Verdict":
        """This verdict with its witness replaced."""
        return replace(self, witness=witness)

    @property
    def is_verified(self) -> bool:
        return self.status == "verified"

    @property
    def is_refuted(self) -> bool:
        return self.status == "refuted"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"
