"""Exception types shared across the package."""

from __future__ import annotations

import math


class HookupError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(HookupError):
    """Subsystem dimensions do not match the matrix or each other."""


class NonHermitian(HookupError):
    """Matrix handed to a Hermitian routine is not Hermitian within tolerance."""


class NoConvergence(HookupError):
    """An iterative routine failed to converge."""


class NotUnitary(HookupError):
    """Matrix expected to be unitary is not, within tolerance."""


class UnknownPreset(HookupError):
    """Requested preset state name does not exist."""


class BadParams(HookupError):
    """Preset or command parameters are out of range or missing."""


def whole_number(value, name: str, least: float = -math.inf, most: float = math.inf) -> int:
    """``value`` as an int if it is a finite whole number in [least, most], else BadParams."""
    try:
        k = int(value)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != value or not least <= k <= most:
        span = "" if (least, most) == (-math.inf, math.inf) else f" in [{least}, {most}]"
        raise BadParams(f"{name} must be a whole number{span}, got {value!r}")
    return k


class NotAllQubits(HookupError):
    """Operation requires every subsystem to be two-dimensional."""


class TooManyQubits(HookupError):
    """Basis optimization is capped at four qubits."""


class NoRootBracketed(HookupError):
    """Root finder could not bracket a sign change."""


class ParseError(HookupError):
    """State file could not be parsed.

    Carries optional line/field context for error messages.
    """

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        context = []
        if line is not None:
            context.append(f"line {line}")
        if field is not None:
            context.append(f"field {field!r}")
        if context:
            message = f"{message} ({', '.join(context)})"
        super().__init__(message)
        self.line = line
        self.field = field


class ValidationError(HookupError):
    """A matrix failed density-matrix validation.

    The offending validation report is attached as ``report`` when available.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
