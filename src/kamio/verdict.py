"""Three-valued answers for fuel-bounded, semi-decidable checks, and the
base of the library's immutable records."""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["Verdict"]

_set = object.__setattr__


class _Record:
    """An immutable record over its class's `__slots__`.

    Equality is the same class and equal fields, the hash is the hash of
    the tuple of fields, and the repr is `Name(field=value, ...)`, as for
    a frozen dataclass.  Assigning or deleting a field raises
    AttributeError; each `__init__` sets its fields with `_set`.

    The records are written by hand, not with
    `@dataclass(frozen=True)`, because every run of the CLI is a fresh
    process that pays for the import: the decorator writes and `exec`s
    six methods a class, and for the library's 15 records that took
    12.6 ms of the 56 ms `import kamio.cli` took (medians of 15 fresh
    processes, Python 3.11.7, 2 cores, no cached bytecode), besides
    importing `dataclasses` and `inspect`.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Verdict(_Record):
    """Verified / Refuted(witness) / Unknown(reason).

    `sampled` marks a Verified verdict that only covered a sample of an
    infinite quantification (an under-approximation, never a proof).
    """

    __slots__ = ("status", "witness", "reason", "sampled")
    status: str  # "verified" | "refuted" | "unknown"
    witness: Any
    reason: str | None
    sampled: bool

    def __init__(self, status: str, witness: Any = None, reason: str | None = None,
                 sampled: bool = False):
        _set(self, "status", status)
        _set(self, "witness", witness)
        _set(self, "reason", reason)
        _set(self, "sampled", sampled)

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
        return Verdict(self.status, witness, self.reason, self.sampled)

    @property
    def is_verified(self) -> bool:
        return self.status == "verified"

    @property
    def is_refuted(self) -> bool:
        return self.status == "refuted"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"
