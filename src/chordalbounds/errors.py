"""Exception types shared across the package, and the integer and float
checks every loader applies to ids, counts and probabilities."""


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


def _to_float(value, what: str) -> float:
    """`float(value)`; an int too large for a float is a DomainError naming
    it, as a non-finite float is."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} {value} is too large for a float") from None
