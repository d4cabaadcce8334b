"""Univariate polynomials with exact rational coefficients.

Values of this type stand in for probabilities that are polynomial in a
shared reliability parameter p, so every operation must stay exact; float
coefficients are rejected outright.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Polynomial", "P"]


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(
        f"polynomial coefficients must be int or Fraction, got {type(c).__name__}"
    )


class Polynomial:
    """Immutable polynomial; coefficient i is the weight of p**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Polynomial((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Polynomial(tuple(c / other for c in self.coeffs))

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

    def __call__(self, x):
        """Evaluate by Horner's rule; the result type follows x."""
        result = x * 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def coefficient_string(self) -> str:
        """Space-separated coefficients by ascending degree, e.g. "0 0 2 2 -5 2"."""
        if not self.coeffs:
            return "0"
        return " ".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for exp, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                var = "p" if exp == 1 else f"p^{exp}"
                if mag == 1:
                    body = var
                elif mag.denominator == 1:
                    body = f"{mag}{var}"
                else:
                    body = f"({mag}){var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs!r})"


# The indeterminate: evaluates to the identity, prints as "p".
P = Polynomial((0, 1))
