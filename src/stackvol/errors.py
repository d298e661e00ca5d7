"""Shared exception hierarchy and validation report types."""

from __future__ import annotations

from collections import namedtuple


class StackVolError(Exception):
    """Base class for every error raised by this package."""


class ValidationFailure(StackVolError):
    """Input data violates a documented precondition or axiom.

    The command line maps this family to exit code 1.
    """


class DegenerateWeightError(ValidationFailure):
    """A fiber's total weight vanishes, so its reciprocal is undefined.

    The finite engine raises it for an r-fiber sum of zero, the smooth
    engine for a vanishing fiber integral.
    """


class NumericalFailure(StackVolError):
    """A numerical routine could not reach the requested quality.

    The command line maps this family to exit code 2.
    """


class SchemaError(StackVolError):
    """An interchange file does not match the documented JSON layout.

    The command line maps this family, together with plain I/O errors,
    to exit code 3.
    """


# the violations a summary, or a --json failure, spells out
SUMMARY_LIMIT = 5


class Violation(namedtuple("Violation", "axiom witness detail", defaults=("",))):
    """One broken axiom with a concrete witness."""

    __slots__ = ()

    def __str__(self) -> str:
        msg = f"{self.axiom}: witness {self.witness!r}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


class ValidationReport:
    """Violations found by an exhaustive structural check.

    An empty report means every checked axiom holds.  Violations are data,
    not exceptions, so callers can inspect all of them at once.
    """

    def __init__(self, violations: list[Violation] | None = None):
        self.violations = [] if violations is None else violations

    def __repr__(self) -> str:
        return f"ValidationReport(violations={self.violations!r})"

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, axiom: str, witness: tuple, detail: str = "") -> None:
        self.violations.append(Violation(axiom, witness, detail))

    def axioms(self) -> set[str]:
        return {v.axiom for v in self.violations}

    def summary(self) -> str:
        if self.ok:
            return "ok"
        lines = [str(v) for v in self.violations[:SUMMARY_LIMIT]]
        extra = len(self.violations) - SUMMARY_LIMIT
        if extra > 0:
            lines.append(f"... and {extra} more")
        return "; ".join(lines)

    def require(self, exc_type: type[StackVolError], label: str) -> None:
        """Raise ``exc_type`` when the report is not clean.

        The exception carries this report as its ``report`` attribute, so a
        caller can read every witness, not only the summary text.
        """
        if not self.ok:
            exc = exc_type(f"{label}: {self.summary()}")
            exc.report = self
            raise exc
