"""Check records, statuses, and the formula registry.

Every verification in this package produces an IdentityCheck, built by
make_check, which also derives the check id from the family and params.
One rule decides how a check ends.  A mathematical failure is a record with
status Nonzero and a witness.  An arithmetic fault (NotDivisible,
TruncationOverflow, ...) or a request outside the identity's regime
(InvalidRegime) raises; report._run_job is the one guard that turns either
into a record with status Error, whose error_kind is the exception's class
name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

EXACT_ZERO = "ExactZero"
VACUOUS_ZERO = "VacuousZero"
APPROX_ZERO = "ApproxZero"
NONZERO = "Nonzero"
ERROR = "Error"

OK_STATUSES = (EXACT_ZERO, VACUOUS_ZERO, APPROX_ZERO)


class InvalidRegime(ValueError):
    """The requested parameters lie outside the identity's regime."""


@dataclass
class IdentityCheck:
    """Outcome of one identity evaluation."""

    check_id: str
    equation: str
    params: dict[str, Any]
    status: str
    witness: dict[str, Any] | None = None
    nontrivial: dict[str, Any] | None = None
    millis: float = 0.0
    error_kind: str | None = None
    detail: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in OK_STATUSES

    @property
    def family(self) -> str:
        return self.equation

    def to_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "id": self.check_id,
            "equation": self.equation,
            "params": dict(self.params),
            "status": self.status,
            "millis": round(self.millis, 3),
        }
        if self.witness is not None:
            rec["witness"] = self.witness
        if self.nontrivial is not None:
            rec["nontrivial"] = self.nontrivial
        if self.error_kind is not None:
            rec["error_kind"] = self.error_kind
        if self.detail:
            rec["detail"] = self.detail
        if self.extra:
            rec.update(self.extra)
        return rec


class _Registry:
    """Formula text and validity regime for every check family."""

    def __init__(self):
        self._entries: dict[str, dict[str, str]] = {}

    def register(self, family: str, formula: str, regime: str, summary: str = "") -> None:
        self._entries[family] = {
            "formula": formula,
            "regime": regime,
            "summary": summary or formula,
        }

    def get(self, family: str) -> dict[str, str]:
        if family not in self._entries:
            raise KeyError(f"unknown check family: {family}")
        return self._entries[family]

    def families(self) -> list[str]:
        return sorted(self._entries)

    def explain(self, family: str) -> str:
        e = self.get(family)
        lines = [family]
        if e["summary"] != e["formula"]:
            lines.append(f"  {e['summary']}")
        lines.append(f"  formula: {e['formula']}")
        lines.append(f"  regime:  {e['regime']}")
        return "\n".join(lines)


REGISTRY = _Registry()


class CheckTimer:
    """Wall-clock context for filling IdentityCheck.millis."""

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.millis = (time.perf_counter() - self._t0) * 1000.0
        return False


def format_check_id(family: str, params: dict[str, Any]) -> str:
    """The canonical check id, family[k=v,...] in the params' own order."""
    return f"{family}[" + ",".join(f"{k}={v}" for k, v in params.items()) + "]"


def make_check(family: str, params: dict[str, Any], status: str,
               **kw) -> IdentityCheck:
    """A registered family's record; check_id defaults to format_check_id."""
    REGISTRY.get(family)  # fail fast on unregistered families
    kw.setdefault("check_id", format_check_id(family, params))
    return IdentityCheck(equation=family, params=params, status=status, **kw)
