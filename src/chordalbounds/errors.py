"""Exception types shared across the package, and the integer and float
checks every loader applies to ids, counts and probabilities."""

from decimal import Decimal

__all__ = ["DomainError", "ResourceLimitError"]


class DomainError(ValueError):
    """Invalid input: a violated precondition or malformed domain object."""


class ParseError(ValueError):
    """Malformed rational text, such as "3/", "1/0" or an over-long integer."""


class ResourceLimitError(RuntimeError):
    """Input exceeds a documented size cap for exact computation."""


def _require_int(value, what: str) -> None:
    """Raise DomainError unless `value` is an int.  A bool is rejected too:
    Python counts it as an int, but JSON `true` is no id or count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be an integer, got {value!r}")


def _require_positive_int(value, what: str) -> None:
    """`_require_int`, and DomainError unless `value` >= 1; `what` names
    the caller's parameter in both messages."""
    _require_int(value, what)
    if value < 1:
        raise DomainError(f"{what} must be >= 1, got {value}")


def _to_float(value, what: str) -> float:
    """`float(value)`; an int too large for a float is a DomainError naming
    it, as a non-finite float is.  `Decimal` writes the int, at any length
    past the 4 300 digits `str` writes."""
    try:
        return float(value)
    except OverflowError:
        shown = Decimal(value) if isinstance(value, int) else value
        raise DomainError(f"{what} {shown} is too large for a float") from None
