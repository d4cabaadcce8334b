"""Value domains the bound formulas run over.

Each bound is written once against plain arithmetic operators (+, -, *,
division by a positive integer, multiplication by a Fraction).  A Backend
holds constants and flags only: the ring's zero and one, whether it is
exact and whether it is ordered, and with them the sum-to-one test that
differs between floating point and the exact domains:

* REAL        -- 64-bit floats; weight sums checked within 1e-12.
* RATIONAL    -- fractions.Fraction; everything exact, used as test oracle.
* POLYNOMIAL  -- Polynomial values in a shared parameter p; exact, unordered.

`_read_rational` is the one reader of exact rationals: a RATIONAL value
may be an int, a Fraction or a string, and a plain string of decimal
digits "a" or "a/b" is split into integers without building a Fraction.
`_read_rational_column` reads a whole RATIONAL column into integer
numerators over one common denominator: plain "a/b" strings that all
end in the same "/B" by one C-level split (one `int` per value), any
other column value by value through `_read_rational`.
Malformed rational text raises `errors.ParseError`, a ValueError.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, ResourceLimitError
from .poly import Polynomial

__all__ = ["Backend", "REAL", "RATIONAL", "POLYNOMIAL"]

# How far the float weights of a system may sum from one.
_REAL_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Backend:
    name: str
    zero: object
    one: object
    exact: bool
    ordered: bool

    def sum_is_one(self, total) -> bool:
        if self.exact:
            return total == self.one
        return abs(total - self.one) <= _REAL_WEIGHT_TOL


# Largest |exponent| a decimal rational string may have, CPython's
# default limit on the digits of an int read from a string.  `Fraction`
# expands "1e-10000000" to an integer of ten million digits, which took
# about 12 s (Python 3.11, one Xeon core); an exponent of a hundred
# million would take hours.
MAX_DECIMAL_EXPONENT = 4300

# A trailing exponent as `Fraction` reads it: "e" or "E", an optional
# sign, digits with single underscores between them, optional whitespace.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _require_exponent_cap(text: str) -> None:
    """Raise ResourceLimitError if `Fraction` would read `text` as a
    decimal whose exponent has absolute value above MAX_DECIMAL_EXPONENT.
    A malformed text is left to `Fraction`, which rejects it before
    expanding anything."""
    match = _EXPONENT.search(text)
    if match:
        exponent = match.group(1)
        if len(exponent) > MAX_DECIMAL_EXPONENT or abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
            # The same text with every exponent digit 0 is well formed
            # exactly when it is (underscores too, which Fraction reads
            # from Python 3.11 on).
            zeros = re.sub(r"\d", "0", exponent)
            try:
                Fraction(text[: match.start(1)] + zeros + text[match.end(1) :])
            except ValueError:
                return
            raise ResourceLimitError(
                f"decimal exponent exceeds the cap of {MAX_DECIMAL_EXPONENT} in a rational value"
            )


def _read_rational(value) -> tuple[int, int]:
    """(numerator, denominator) of an int, a Fraction or a rational string;
    the denominator is positive, the pair not necessarily reduced.

    A string of decimal digits "a" or "a/b" (`str.isdecimal` on both
    sides) is split with `int`; every other string is read by `Fraction`,
    so signs, decimals, exponents, underscores, surrounding whitespace and
    its errors mean what they mean there, except that whitespace next to
    the slash is malformed on every Python version (3.12's `Fraction`
    reads "3 /4") and an exponent past MAX_DECIMAL_EXPONENT raises
    ResourceLimitError before `Fraction` expands it.  Malformed text or a
    zero denominator raises ParseError.
    """
    if isinstance(value, str):
        top, slash, bottom = value.partition("/")
        try:
            if top.isdecimal() and (bottom.isdecimal() or not slash):
                denominator = int(bottom) if slash else 1
                if denominator:
                    return int(top), denominator
                raise ZeroDivisionError
            if re.search(r"\s/|/\s", value):
                raise ValueError(f"Invalid literal for Fraction: {value!r}")
            _require_exponent_cap(value)
            value = Fraction(value)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {value!r}") from None
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    elif not isinstance(value, (int, Fraction)):
        raise TypeError(f"rational values must be int, Fraction or str, got {type(value).__name__}")
    return value.numerator, value.denominator


def _read_rational_column(values) -> tuple[list[int], int]:
    """The values as (numerators, denominator): value i is numerators[i] /
    denominator, over the least common denominator of `_read_rational`'s
    pairs, so no Fraction is built per value.

    A column made only of plain "a/b" strings (ASCII digits on both sides
    of exactly one slash) that all end in the same nonzero "/B" is read by
    C-level passes over the column joined into one byte string: the
    numerators are that string split at the endings, one `int` each, over
    B; no value is split at its slash or scaled.  Any other column, or an
    over-long integer, is read value by value, which gives the same
    numerators over the same denominator, with `_read_rational`'s errors.
    """
    values = tuple(values)
    try:
        data = ",".join(values).encode("ascii")
    except (TypeError, UnicodeEncodeError):
        data = b""
    # Without its digits the joined column reads "/,/,...,/" exactly when
    # each value holds one slash and only digits besides: a value without
    # a slash next to one with two fails here, as a total count would not.
    if data.translate(None, b"0123456789") == b"/," * (len(values) - 1) + b"/":
        # Each value holds one slash, so split at the last value's "/B,"
        # makes one part per value exactly when B is the one denominator.
        ending = data[data.rindex(b"/") :]
        tops = data[: -len(ending)].split(ending + b",")
        if len(tops) == len(values) and ending.strip(b"/0"):  # and B is not zero
            try:
                return list(map(int, tops)), int(ending[1:])
            except ValueError:
                pass  # an empty or over-long integer, named value by value below
    pairs = list(map(_read_rational, values))
    denominator = math.lcm(*{d for _, d in pairs})
    return [n * (denominator // d) for n, d in pairs], denominator


REAL = Backend("real", 0.0, 1.0, exact=False, ordered=True)
RATIONAL = Backend("rational", Fraction(0), Fraction(1), exact=True, ordered=True)
POLYNOMIAL = Backend("polynomial", Polynomial(), Polynomial((1,)), exact=True, ordered=False)
