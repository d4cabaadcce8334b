"""Unit tests for the exact-rational polynomial type."""

import random
from fractions import Fraction

import pytest

from chordalbounds.poly import P, Polynomial

from helpers import FractionPolynomial


def test_trailing_zeros_are_trimmed():
    assert Polynomial((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial((0, 0)).coeffs == ()
    assert not Polynomial((0,))


def test_equality_with_other_types_is_not_implemented():
    # A float or a string is no Polynomial value, so `==` falls back to
    # identity and `!=` to its negation.
    assert P.__eq__(0.5) is NotImplemented
    assert (P == 0.5) is False
    assert (P != "p") is True


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Polynomial((0.5,))


def test_arithmetic():
    a = Polynomial((1, 2))       # 1 + 2p
    b = Polynomial((0, 1, 3))    # p + 3p^2
    assert a + b == Polynomial((1, 3, 3))
    assert a - b == Polynomial((1, 1, -3))
    assert a * b == Polynomial((0, 1, 5, 6))
    assert -a == Polynomial((-1, -2))
    assert a * 2 == Polynomial((2, 4))
    assert a * Fraction(1, 2) == Polynomial((Fraction(1, 2), 1))
    assert a / 2 == Polynomial((Fraction(1, 2), 1))
    assert (1 - P) * (1 + P) == Polynomial((1, 0, -1))
    for apply in (
        lambda: a + "x", lambda: "x" + a, lambda: a - "x", lambda: "x" - a,
        lambda: a * "x", lambda: "x" * a, lambda: a / "x",
    ):
        with pytest.raises(TypeError):
            apply()


@pytest.mark.parametrize("other", [1.5, "a"], ids=["float", "str"])
def test_reflected_subtraction_names_its_operator(other):
    name = type(other).__name__
    with pytest.raises(TypeError, match=rf"unsupported operand type\(s\) for -: '{name}' and 'Polynomial'"):
        other - P


def test_reflected_subtraction_of_exact_scalars():
    assert True - P == Polynomial((1, -1))
    assert str(True - P) == "1 - p"
    assert Fraction(1, 2) - P == Polynomial((Fraction(1, 2), -1))
    assert str(Fraction(1, 2) - P) == "1/2 - p"


def test_powers():
    assert P**0 == 1
    assert P**3 == Polynomial((0, 0, 0, 1))
    assert (1 + P) ** 2 == Polynomial((1, 2, 1))
    for exponent in (-1, 1.5):
        with pytest.raises(ValueError, match="polynomial powers must be non-negative integers"):
            P**exponent


def test_evaluation_follows_argument_type():
    q = Polynomial((0, 0, 2, 2, -5, 2))
    assert q(Fraction(1)) == 1
    assert q(Fraction(1, 2)) == Fraction(2, 4) + Fraction(2, 8) - Fraction(5, 16) + Fraction(2, 32)
    assert q(0.0) == 0.0
    assert isinstance(q(0.5), float)
    assert Polynomial()(0.7) == 0.0


def test_scalar_comparison_and_hash():
    assert Polynomial((3,)) == 3
    assert Polynomial((0, 1)) != 1
    assert hash(Polynomial((1, 2))) == hash(Polynomial((1, 2)))


def test_string_forms():
    assert str(Polynomial()) == "0"
    assert str(Polynomial((0, 0, 2, 2, -5, 2))) == "2p^2 + 2p^3 - 5p^4 + 2p^5"
    assert str(Polynomial((0, 0, 1, 1, -1, 0, Fraction(-1, 2)))) == "p^2 + p^3 - p^4 - (1/2)p^6"
    assert str(Polynomial((-1, 1))) == "-1 + p"
    assert Polynomial((0, 0, 2, 2, -5, 2)).coefficient_string() == "0 0 2 2 -5 2"
    assert Polynomial().coefficient_string() == "0"
    assert repr(P) == "Polynomial((Fraction(0, 1), Fraction(1, 1)))"
    assert repr(Polynomial()) == "Polynomial(())"
    assert repr(Polynomial((Fraction(2, 4),))) == "Polynomial((Fraction(1, 2),))"


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Polynomial((1,)) / 0


def _random_coeffs(rng):
    """Zero, negative and fractional coefficients, some denominators
    sharing factors and one past a machine word; sometimes trailing
    zeros."""
    coeffs = []
    for _ in range(rng.randint(0, 7)):
        kind = rng.random()
        if kind < 0.2:
            coeffs.append(rng.choice((0, Fraction(0))))
        elif kind < 0.5:
            coeffs.append(rng.randint(-30, 30))
        else:
            denominator = rng.choice((1, 2, 3, 4, 6, 7, 12, 10**20 + 39))
            coeffs.append(Fraction(rng.randint(-40, 40), denominator))
    if coeffs and rng.random() < 0.3:
        coeffs += [0] * rng.randint(1, 3)
    return coeffs


def _respelled(coeffs):
    """The same coefficients with ints as Fractions and whole Fractions as ints."""
    return [Fraction(c) if isinstance(c, int) else int(c) if c.denominator == 1 else c for c in coeffs]


EVAL_POINTS = [
    0, 1, -2, 3,
    Fraction(0), Fraction(1), Fraction(1, 7), Fraction(-3, 2), Fraction(99, 100), Fraction(5, 10**20 + 39),
    0.0, -0.0, 1.0, 0.01, 0.1, 0.37, -0.7, 2.5, 1e-3,
]


def assert_same(got: Polynomial, want: FractionPolynomial):
    assert isinstance(got, Polynomial)
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)
    assert got.degree == len(want.coeffs) - 1
    assert str(got) == str(want)
    assert got.coefficient_string() == want.coefficient_string()
    for x in EVAL_POINTS:
        value, expected = got(x), want(x)
        assert type(value) is type(expected)
        if isinstance(expected, float):
            assert value.hex() == expected.hex()
        else:
            assert value == expected


class TestAgainstFractionReference:
    def test_arithmetic_evaluation_and_printing(self):
        rng = random.Random(20100416)
        for _ in range(200):
            a, b = _random_coeffs(rng), _random_coeffs(rng)
            pa, pb = Polynomial(a), Polynomial(b)
            ra, rb = FractionPolynomial(a), FractionPolynomial(b)
            assert_same(pa, ra)
            assert_same(pa + pb, ra + rb)
            assert_same(pa - pb, ra - rb)
            assert_same(pa * pb, ra * rb)
            assert_same(-pa, -ra)
            exponent = rng.randint(0, 3)
            assert_same(pa**exponent, ra**exponent)
            scalar = rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
            constant = FractionPolynomial((scalar,))
            assert_same(pa * scalar, ra * scalar)
            assert_same(scalar * pa, ra * scalar)
            assert_same(pa + scalar, ra + constant)
            assert_same(scalar + pa, ra + constant)
            assert_same(pa - scalar, ra - constant)
            assert_same(scalar - pa, constant - ra)
            if scalar:
                assert_same(pa / scalar, ra / scalar)

    def test_printing_from_numerators(self):
        # Integer and common-denominator polynomials as the reliability
        # report prints them: multi-digit and negative coefficients, runs
        # of zero coefficients, and fractions that reduce to 1 or to ints.
        rng = random.Random(20100419)
        for _ in range(300):
            denominator = rng.choice((1, 1, 2, 6, 9, 1000, 10**20 + 39))
            coeffs = []
            for _ in range(rng.randint(1, 16)):
                if rng.random() < 0.3:
                    coeffs += [0] * rng.randint(1, 4)
                top = rng.choice((1, -1, denominator, -denominator, rng.randint(-10**12, 10**12)))
                coeffs.append(Fraction(top, denominator))
            got, want = Polynomial(coeffs), FractionPolynomial(coeffs)
            assert str(got) == str(want)
            assert got.coefficient_string() == want.coefficient_string()

    def test_equality_and_hash_across_spellings(self):
        rng = random.Random(20100417)
        for _ in range(200):
            a, b = _random_coeffs(rng), _random_coeffs(rng)
            pa = Polynomial(a)
            for other in (Polynomial(_respelled(a)), (pa + Polynomial(b)) - Polynomial(b), pa * 3 / 3):
                assert other == pa and hash(other) == hash(pa)
            assert (pa == Polynomial(b)) == (FractionPolynomial(a).coeffs == FractionPolynomial(b).coeffs)
            assert pa != pa + 1
            if pa.degree <= 0:
                constant = pa.coeffs[0] if pa else 0
                assert pa == constant and pa == Fraction(constant)
                assert hash(pa) == hash(constant) == hash(Fraction(constant))


class TestGridHorner:
    """`Polynomial._horner` at the points a/b for a whole grid of tops a:
    lists point by point, ranges by forward differences."""

    def test_grid_values_against_fraction_reference(self):
        # Points a/b over one denominator b; the numerators share the
        # unreduced denominator, and their quotient rounds as a Fraction's.
        rng = random.Random(20100418)
        for _ in range(200):
            coeffs = _random_coeffs(rng)
            q, reference = Polynomial(coeffs), FractionPolynomial(coeffs)
            b = rng.choice((1, 2, 7, 8, 100, 3**7, 10**20 + 39))
            tops = [rng.randint(-2 * b, 2 * b) for _ in range(rng.randint(0, 6))]
            values, denominator = q._horner(tops, b)
            assert denominator > 0 and len(values) == len(tops)
            for a, value in zip(tops, values):
                x = Fraction(a, b)
                assert Fraction(value, denominator) == reference(x) == q(x)
                assert (value / denominator).hex() == float(reference(x)).hex()

    @pytest.mark.parametrize("b", [1, 100, 10**20 + 39])
    def test_range_grids_by_forward_differences(self, b):
        # A range of more than d + 1 points is summed by forward
        # differences; every value equals Horner at that point alone, on
        # grids of every length up to 2d + 3, rising and falling.
        rng = random.Random(4105)
        for _ in range(60):
            q = Polynomial(_random_coeffs(rng))
            d = max(q.degree, 0)
            for length in range(2 * d + 4):
                step = rng.choice((-b, -3, -1, 1, 7, b))
                start = rng.randint(-2 * b, 2 * b)
                tops = range(start, start + length * step, step)
                assert len(tops) == length
                values, denominator = q._horner(tops, b)
                points = [q._horner((a,), b) for a in tops]
                assert values == [value for (value,), _ in points]
                assert all(each == denominator for _, each in points)

    def test_zero_polynomial(self):
        assert Polynomial()._horner(range(3), 7) == ([0, 0, 0], 1)
        assert Polynomial()._horner((), 7) == ([], 1)
        assert Polynomial()(Fraction(1, 3)) == 0
