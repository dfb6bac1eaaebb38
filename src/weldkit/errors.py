"""Exception types shared across the package, and how arguments are read.

Every module reads its caller's integers and Pauli kinds through the
three private helpers below, so the rule lives here alone: an integer
goes through operator.index, is never truncated from a float or parsed
from a string, and is checked against its lower bound; a kind is "x" or
"z".  A bad argument raises ValidationError naming it.  This module
imports nothing from weldkit, so every other module can use it.
"""

from __future__ import annotations

import operator


class WeldkitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WeldkitError):
    """Malformed or inconsistent input: bad operators, codes, or files."""


class WeldError(ValidationError):
    """A weld precondition failed.

    Carries the name of the failed check and a witness describing the
    offending generators.
    """

    def __init__(self, check: str, witness, message: str):
        super().__init__(message)
        self.check = check
        self.witness = witness


class FeasibilityError(WeldkitError):
    """The instance exceeds a hard search cap and was refused, not attempted."""

    def __init__(self, message: str, required=None, cap=None):
        super().__init__(message)
        self.required = required
        self.cap = cap


class MetadataError(WeldkitError):
    """The code lacks builder-attached region metadata for this query."""


def _integer(value, what: str, least: int | None = None) -> int:
    """value as an int, at least least when given, or ValidationError naming what."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        rule = "must not be negative" if least == 0 else f"must be at least {least}"
        raise ValidationError(f"{what} {rule}, got {value}")
    return value


def _integers(values, what: str, least: int | None = None) -> list[int]:
    """values as ints, each at least least when given, or ValidationError naming what."""
    try:
        ints = list(map(operator.index, values))
    except TypeError:
        raise ValidationError(f"{what} must be integers, got {values!r}") from None
    if least is not None and ints:
        _integer(min(ints), what, least)
    return ints


def _kind(value, what: str = "kind") -> str:
    """value if it names a Pauli kind, "x" or "z", or ValidationError naming what."""
    if value not in ("x", "z"):
        raise ValidationError(f"{what} must be 'x' or 'z', got {value!r}")
    return value
