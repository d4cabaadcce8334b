"""Value domains the bound formulas run over.

Each bound is written once against plain arithmetic operators (+, -, *,
division by a positive integer, multiplication by a Fraction).  A Backend
supplies the ring constants and the equality semantics that differ between
floating point and the exact domains:

* REAL        -- 64-bit floats; weight sums checked within 1e-12.
* RATIONAL    -- fractions.Fraction; everything exact, used as test oracle.
* POLYNOMIAL  -- Polynomial values in a shared parameter p; exact, unordered.

An exact backend also maps a sequence of values to its rational
components (the values themselves, or their coefficients), each one
(numerator, denominator) integer pair per value, and one such pair per
component back to a value, so that sums of many values can be taken over
integer numerators.  A Polynomial already stores integer numerators over
one denominator, so its pairs are read off and put back without a
Fraction per coefficient.  `_read_rational` is the one reader of exact
rationals: a RATIONAL value may be an int, a Fraction or a string, and a
plain string of decimal digits "a" or "a/b" is split into integers
without building a Fraction.  `_read_rational_column` reads a whole
RATIONAL column: one of plain "a/b" strings in a few C-level passes, any
other value by value through `_read_rational`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat, zip_longest
from typing import Callable

from .poly import Polynomial

__all__ = ["Backend", "REAL", "RATIONAL", "POLYNOMIAL"]


@dataclass(frozen=True)
class Backend:
    name: str
    zero: object
    one: object
    exact: bool
    ordered: bool
    weight_tol: float = 0.0
    # Exact backends only: values -> rational components, each one
    # (numerator, denominator) pair per value; one (numerator, positive
    # denominator) pair per component -> value.
    pair_columns: Callable | None = None
    from_rationals: Callable | None = None

    def sum_is_one(self, total) -> bool:
        if self.exact:
            return total == self.one
        return abs(total - self.one) <= self.weight_tol


def _read_rational(value) -> tuple[int, int]:
    """(numerator, denominator) of an int, a Fraction or a rational string;
    the denominator is positive, the pair not necessarily reduced.

    A string of decimal digits "a" or "a/b" (`str.isdecimal` on both
    sides) is split with `int`; every other string is read by `Fraction`,
    so signs, decimals, exponents, underscores, surrounding whitespace and
    its errors mean what they mean there.  A zero denominator raises
    ValueError on both branches.
    """
    if isinstance(value, str):
        top, slash, bottom = value.partition("/")
        if top.isdecimal() and (bottom.isdecimal() or not slash):
            denominator = int(bottom) if slash else 1
            if denominator:
                return int(top), denominator
            raise ValueError(f"zero denominator in {value!r}")
        try:
            value = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    elif not isinstance(value, (int, Fraction)):
        raise TypeError(f"rational values must be int, Fraction or str, got {type(value).__name__}")
    return value.numerator, value.denominator


def _read_rational_column(values) -> list[tuple[int, int]]:
    """`_read_rational` of every value, in order.

    A column made only of plain "a/b" strings (ASCII digits on both sides
    of exactly one slash, no zero denominator) is read by C-level passes
    over the column joined into one byte string, and each distinct
    denominator is converted once.  Any other column is read value by
    value, so its values and its errors are those of `_read_rational`.
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
        parts = data.replace(b",", b"/").split(b"/")
        if all(parts):
            bottoms = parts[1::2]
            denominators = {text: int(text) for text in set(bottoms)}
            if all(denominators.values()):
                return list(zip(map(int, parts[0::2]), map(denominators.__getitem__, bottoms)))
    return list(map(_read_rational, values))


def _coefficient_pairs(value) -> zip:
    if not isinstance(value, Polynomial):
        value = Polynomial((value,))
    return zip(value.numerators, repeat(value.denominator))


REAL = Backend("real", 0.0, 1.0, exact=False, ordered=True, weight_tol=1e-12)
RATIONAL = Backend(
    "rational", Fraction(0), Fraction(1), exact=True, ordered=True,
    pair_columns=lambda values: (_read_rational_column(values),),
    from_rationals=lambda parts: Fraction(*parts[0]),
)
POLYNOMIAL = Backend(
    "polynomial", Polynomial(), Polynomial((1,)), exact=True, ordered=False,
    pair_columns=lambda values: zip_longest(*map(_coefficient_pairs, values), fillvalue=(0, 1)),
    from_rationals=Polynomial._from_pairs,
)
