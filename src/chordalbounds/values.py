"""Value domains the bound formulas run over.

Each bound is written once against plain arithmetic operators (+, -, *,
division by a positive integer, multiplication by a Fraction).  A Backend
supplies the ring constants and the equality semantics that differ between
floating point and the exact domains:

* REAL        -- 64-bit floats; weight sums checked within 1e-12.
* RATIONAL    -- fractions.Fraction; everything exact, used as test oracle.
* POLYNOMIAL  -- Polynomial values in a shared parameter p; exact, unordered.

An exact backend also maps each value to and from a tuple of rationals
(the value itself, or the coefficients), so that sums of many values can
be taken over integer numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    # Exact backends only: value -> tuple of rationals, and back.
    to_rationals: Callable | None = None
    from_rationals: Callable | None = None

    def sum_is_one(self, total) -> bool:
        if self.exact:
            return total == self.one
        return abs(total - self.one) <= self.weight_tol


def _rational_parts(value) -> tuple[Fraction]:
    if isinstance(value, Fraction):
        return (value,)
    if isinstance(value, int):
        return (Fraction(value),)
    raise TypeError(f"rational values must be int or Fraction, got {type(value).__name__}")


def _polynomial_parts(value) -> tuple[Fraction, ...]:
    if not isinstance(value, Polynomial):
        value = Polynomial((value,))
    return value.coeffs


REAL = Backend("real", 0.0, 1.0, exact=False, ordered=True, weight_tol=1e-12)
RATIONAL = Backend(
    "rational", Fraction(0), Fraction(1), exact=True, ordered=True,
    to_rationals=_rational_parts, from_rationals=lambda parts: parts[0],
)
POLYNOMIAL = Backend(
    "polynomial", Polynomial(), Polynomial((1,)), exact=True, ordered=False,
    to_rationals=_polynomial_parts, from_rationals=Polynomial,
)
