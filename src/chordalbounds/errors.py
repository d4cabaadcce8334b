"""Exception types shared across the package, the integer and float
checks every loader applies to ids, counts and probabilities, and
`_exact_str` and `_repr`, which write a value in a message at any
length."""

from decimal import Decimal
from fractions import Fraction

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
        raise DomainError(f"{what} must be an integer, got {_repr(value)}")


def _require_positive_int(value, what: str) -> None:
    """`_require_int`, and DomainError unless `value` >= 1; `what` names
    the caller's parameter in both messages."""
    _require_int(value, what)
    if value < 1:
        raise DomainError(f"{what} must be >= 1, got {_exact_str(value)}")


def _exact_str(value) -> str:
    """`str(value)`, except that an int (not a bool) or a Fraction prints
    at any length: CPython's `str` refuses an int of more than 4 300
    digits, while `Decimal` converts and prints one exactly, whatever that
    limit."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        return str(value)
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


def _repr(value) -> str:
    """`repr(value)`, except for a value whose repr would hold an int past
    CPython's 4 300-digit limit, which `repr` refuses: such an int or
    Fraction is written by `_exact_str`, and any other value (a list
    holding such an int, say) by its type and length."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, (int, Fraction)):
            return _exact_str(value)
        size = f" of length {len(value)}" if hasattr(value, "__len__") else ""
        return f"a {type(value).__name__}{size}"


def _to_float(value, what: str) -> float:
    """`float(value)`; an int or a Fraction too large for a float is a
    DomainError naming it, at any length, as a non-finite float is."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} {_exact_str(value)} is too large for a float") from None
