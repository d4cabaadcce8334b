"""Exception types shared across the package, and the integer check
every loader applies to ids and counts."""


class DomainError(ValueError):
    """Invalid input: a violated precondition or malformed domain object."""


class ResourceLimitError(RuntimeError):
    """Input exceeds a documented size cap for exact computation."""


def _require_int(value, what: str) -> None:
    """Raise DomainError unless `value` is an int.  A bool is rejected too:
    Python counts it as an int, but JSON `true` is no id or count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be an integer, got {value!r}")
