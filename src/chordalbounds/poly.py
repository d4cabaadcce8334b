"""Univariate polynomials with exact rational coefficients.

Values of this type stand in for probabilities that are polynomial in a
shared reliability parameter p, so every operation must stay exact; float
coefficients are rejected outright.

A polynomial is stored as a tuple of integer numerators over one positive
common denominator, normalised so that the numerators and the denominator
share no factor and the last numerator is non-zero (the zero polynomial
has no numerators and denominator 1); so equal polynomials have equal
storage.  Sums and products are integer list operations (a product is an
integer convolution over the product of the denominators), and
evaluation at a rational a/b is homogeneous integer Horner,
sum_i n_i * a**i * b**(d - i), over the unreduced denominator
denominator * b**d (`_horner`, which takes a whole grid over one b, and
past its first d + 1 points sums a range grid by forward differences);
a call wraps that pair in one Fraction, a CLI sweep divides it straight
to a float.  `str` and `coefficient_string` print each coefficient from
its numerator and the denominator, with one gcd and no Fraction, spelled
as `str(Fraction)` spells it; the `Fraction` coefficients (`coeffs`) are
built only on request.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate, repeat

__all__ = ["Polynomial", "P"]


def _pair(c) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction coefficient."""
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    raise TypeError(
        f"polynomial coefficients must be int or Fraction, got {type(c).__name__}"
    )


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms as `str(Fraction(n, d))` writes it, for d > 0,
    with one gcd and no Fraction."""
    if d == 1:
        return str(n)
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class Polynomial:
    """Immutable polynomial; coefficient i is the weight of p**i."""

    __slots__ = ("numerators", "denominator")

    def __init__(self, coeffs=()):
        pairs = [_pair(c) for c in coeffs]
        denominator = math.lcm(*(d for _, d in pairs))
        self._set([n * (denominator // d) for n, d in pairs], denominator)

    def _set(self, numerators: list[int], denominator: int) -> None:
        """Store numerators over a positive denominator, normalised."""
        while numerators and not numerators[-1]:
            numerators.pop()
        if denominator != 1:
            g = math.gcd(denominator, *numerators) if numerators else denominator
            if g != 1:
                numerators = [n // g for n in numerators]
                denominator //= g
        self.numerators: tuple[int, ...] = tuple(numerators)
        self.denominator: int = denominator

    @classmethod
    def _make(cls, numerators: list[int], denominator: int) -> "Polynomial":
        poly = cls.__new__(cls)
        poly._set(numerators, denominator)
        return poly

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients by ascending degree, as reduced Fractions."""
        d = self.denominator
        return tuple(Fraction(n, d) for n in self.numerators)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.numerators) - 1

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if isinstance(other, Polynomial):
            return (self.numerators, self.denominator) == (other.numerators, other.denominator)
        return NotImplemented

    def __hash__(self):
        # A constant equals its int or Fraction, so it hashes like it.
        if len(self.numerators) <= 1:
            return hash(Fraction(sum(self.numerators), self.denominator))
        return hash((self.numerators, self.denominator))

    def __neg__(self) -> "Polynomial":
        return Polynomial._make([-n for n in self.numerators], self.denominator)

    def __add__(self, other) -> "Polynomial":
        # The exact type first: most operands are polynomials, and an
        # isinstance check against the numeric ABCs is slow.
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction)):
                other = Polynomial((other,))
            elif not isinstance(other, Polynomial):
                return NotImplemented
        a, b = self.numerators, other.numerators
        da, db = self.denominator, other.denominator
        if da != db:
            denominator = math.lcm(da, db)
            a = [n * (denominator // da) for n in a]
            b = [n * (denominator // db) for n in b]
            da = denominator
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, n in enumerate(b):
            out[i] += n
        return Polynomial._make(out, da)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction)):
                other = Polynomial((other,))
            elif not isinstance(other, Polynomial):
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        if not isinstance(other, (int, Fraction, Polynomial)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction)):
                a, b = other.numerator, other.denominator
                return Polynomial._make([n * a for n in self.numerators], self.denominator * b)
            if not isinstance(other, Polynomial):
                return NotImplemented
        a, b = self.numerators, other.numerators
        if not a or not b:
            return Polynomial()
        if len(a) < len(b):
            a, b = b, a
        # Integer convolution: one shifted, scaled copy of the longer
        # factor per coefficient of the shorter one.
        out = [0] * (len(a) + len(b) - 1)
        for j, m in enumerate(b):
            if m:
                for i, n in enumerate(a, j):
                    out[i] += n * m
        return Polynomial._make(out, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        a, b = other.numerator, other.denominator
        if a < 0:
            a, b = -a, -b
        return Polynomial._make([n * b for n in self.numerators], self.denominator * a)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial((1,))
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def _horner(self, tops, b: int) -> tuple[list[int], int]:
        """Numerators over one denominator D, unreduced, of the values at
        the points a/b for each int a in the sequence `tops` (b > 0): the
        value at a/b is N_a / D with N_a = sum_i n_i a**i b**(d - i),
        summed by homogeneous integer Horner, and D = denominator * b**d.
        The terms n_i b**(d - i) are scaled once for all the points, so a
        point costs one multiply and one add per degree.

        On a `range` of more than d + 1 points, a = start + t * step makes
        N_a an integer polynomial of degree d in t, whose d-th forward
        difference is constant: Horner gives the first d + 1 values, their
        differences give the first value of each order, and d passes of
        `itertools.accumulate` (in C) rebuild every later value from the
        constant one, exactly."""
        numerators = self.numerators
        if not numerators:
            return [0] * len(tops), 1
        scaled, scale = [], 1
        for n in reversed(numerators):
            scaled.append(n * scale)
            scale *= b
        d = len(numerators) - 1
        by_differences = isinstance(tops, range) and len(tops) > d + 1
        values = []
        for a in tops[: d + 1] if by_differences else tops:
            total = 0
            for c in scaled:
                total = total * a + c
            values.append(total)
        if by_differences:
            firsts = []
            for _ in range(d):
                firsts.append(values[0])
                values = list(map(operator.sub, values[1:], values[:-1]))
            # values holds the one d-th difference, the same for every t.
            values *= len(tops) - d
            for first in reversed(firsts):
                values = accumulate(values, initial=first)
            values = list(values)
        return values, self.denominator * (scale // b)

    def __call__(self, x):
        """Evaluate at x; the result type follows x.

        At an int or Fraction x = a/b the value is the Fraction
        (sum_i n_i a**i b**(d - i)) / (denominator * b**d), summed by
        homogeneous integer Horner.  At any other x (a float, say) it is
        Horner's rule over the Fraction coefficients, which a float rounds
        correctly one by one.
        """
        if not self.numerators:
            return x * 0
        if isinstance(x, (int, Fraction)):
            (value,), denominator = self._horner((x.numerator,), x.denominator)
            return Fraction(value, denominator)
        result = x * 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def coefficient_string(self) -> str:
        """Space-separated coefficients by ascending degree, e.g. "0 0 2 2 -5 2"."""
        if not self.numerators:
            return "0"
        return " ".join(map(_ratio_str, self.numerators, repeat(self.denominator)))

    def __str__(self) -> str:
        if not self.numerators:
            return "0"
        d = self.denominator
        parts = []
        for exp, n in enumerate(self.numerators):
            if not n:
                continue
            body = _ratio_str(abs(n), d)
            if exp:
                var = "p" if exp == 1 else f"p^{exp}"
                if body == "1":
                    body = var
                elif "/" in body:
                    body = f"({body}){var}"
                else:
                    body = f"{body}{var}"
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs!r})"


# The indeterminate: evaluates to the identity, prints as "p".
P = Polynomial((0, 1))
