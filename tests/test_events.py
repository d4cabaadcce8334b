"""Event systems: construction, probabilities, atoms, sharpened denominator."""

import math
import random
import re
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from chordalbounds import (
    DomainError,
    EventSystem,
    ProductSystem,
    ResourceLimitError,
    alpha_prime,
    atom_prob,
    bernoulli_product,
    bridge_network,
    build_graph,
    build_network,
    chordal_upper,
    classical_bonferroni,
    clique_complex,
    complete_graph,
    counterexample_family,
    cycle_graph,
    edgeless_graph,
    enumerate_st_paths,
    from_outcomes,
    generalized_lower,
    independence_number,
    intersection_prob,
    path_event_system,
    path_graph,
    union_prob_exact,
)
from chordalbounds import best_path, best_tree, bound, bounds, events, exhaustive_tree_oracle, values
from chordalbounds.bounds import clique_sieve_sum
from chordalbounds.errors import ParseError, _exact_str
from chordalbounds.poly import P, Polynomial
from chordalbounds.values import (
    MAX_DECIMAL_EXPONENT,
    POLYNOMIAL,
    RATIONAL,
    REAL,
    _read_rational,
    _read_rational_column,
)

from helpers import (
    BRIDGE_PATH_ORDER,
    FractionPolynomial,
    bits,
    brute_force_alpha_prime,
    brute_force_clique_sum,
    brute_force_clique_terms,
    exact_mass,
    moment_coefficients,
    product_cone_sum,
    product_outcomes,
    product_symmetric_sum,
    random_chordal_graph,
    random_graph,
    random_rational_system,
    random_real_system,
    read_long,
    reference_bit_planes,
    reference_id_mask,
    reference_product_mass,
    reference_product_union,
    reference_read_rational_column,
    reference_support,
    runs_union,
    signature_walk_alpha_prime,
)


def bridge_system():
    return path_event_system(bridge_network(), paths=BRIDGE_PATH_ORDER)


class TestFromOutcomes:
    def test_disjoint_events(self):
        sys_ = from_outcomes([0.5, 0.5], [[0], [1]])
        assert intersection_prob(sys_, {0, 1}) == 0.0
        assert union_prob_exact(sys_) == 1.0

    def test_bad_weight_sum(self):
        with pytest.raises(DomainError, match="sum to one"):
            from_outcomes([0.4, 0.5], [[0]])

    def test_empty_event_list(self):
        with pytest.raises(DomainError, match="at least one event"):
            from_outcomes([1.0], [])

    def test_out_of_range_outcome(self):
        with pytest.raises(DomainError, match="out of range"):
            from_outcomes([1.0], [[3]])

    def test_constructor_checks(self):
        with pytest.raises(DomainError, match="an event system needs at least one outcome"):
            EventSystem(REAL, (), (0,))
        with pytest.raises(DomainError, match="event refers to outcomes outside the space"):
            EventSystem(REAL, (0.5, 0.5), (0b1, 0b100))

    def test_negative_weight(self):
        with pytest.raises(DomainError, match="negative"):
            from_outcomes([1.5, -0.5], [[0]])

    def test_non_finite_real_weight(self):
        inf = float("inf")
        for weights in ([inf, -inf, 1.0], [float("nan"), 1.0], [inf]):
            with pytest.raises(DomainError, match="non-finite"):
                from_outcomes(weights, [[0]])

    def test_running_sum_past_the_float_range(self):
        # Finite weights whose running sum leaves the float range are added
        # exactly: the sum is checked, then the lowest weight.
        with pytest.raises(DomainError, match="^outcome weights must sum to one, got inf$"):
            from_outcomes([1e308, 1e308, 0.5, 0.5], [[0], [1]])
        with pytest.raises(DomainError, match="^outcome weights must sum to one, got -inf$"):
            from_outcomes([-1e308, -1e308, 0.5, 0.5], [[0], [1]])
        with pytest.raises(DomainError, match=r"^negative outcome weight -1e\+308$"):
            from_outcomes([1e308, 1e308, -1e308, -1e308, 1.0], [[0], [1]])
        with pytest.raises(DomainError, match="^outcome weights must sum to one, got 3.0$"):
            from_outcomes([1e308, 1e308, -1e308, -1e308, 3.0], [[0], [1]])
        # a non-finite weight is still named first, before or after the overflow
        for weights in ([1e308, 1e308, float("nan")], [float("inf"), 1e308, 1e308], [1e308, -math.inf, 1e308]):
            with pytest.raises(DomainError, match="^non-finite outcome weight "):
                from_outcomes(weights, [[0]])

    def test_int_weight_past_the_float_range(self):
        # A REAL int weight that no float holds is named, at any length,
        # wherever it stands in the column.
        for big in (10**400, -(10**400), 10**5000):
            for weights in ([big, 1], [0.5, big, 0.5], [1e308, 1e308, big]):
                with pytest.raises(DomainError, match="^outcome weight -?1000+ is too large for a float$") as info:
                    from_outcomes(weights, [[0]])
                assert str(info.value).split()[2] == str(Decimal(big))

    def test_fraction_weight_past_the_float_range(self):
        # A REAL Fraction weight that no float holds is named as an int is.
        for big in (10**400, -(10**400), 10**5000):
            with pytest.raises(DomainError, match="^outcome weight -?1000+ is too large for a float$") as info:
                from_outcomes([Fraction(big), 1], [[0]])
            assert read_long(str(info.value).split()[2]) == big

    def test_long_exact_values_in_messages(self):
        # The sum of 1/A and 1/B over coprime A and B of 4 001 and 4 000
        # digits has a denominator of 8 001, past the digits `str` writes
        # of an int, and so has the weight -1/AB.
        small, other = 10**4000, int("3" * 3999 + "7")
        with pytest.raises(DomainError, match="^outcome weights must sum to one, got ") as info:
            from_outcomes([f"1/{small}", f"1/{other}"], [[0], [1]], backend=RATIONAL)
        assert read_long(str(info.value).rsplit(" ", 1)[1]) == Fraction(1, small) + Fraction(1, other)
        lowest = Fraction(-1, small * other)
        with pytest.raises(DomainError, match="^negative outcome weight ") as info:
            from_outcomes([lowest, Fraction(1, other), 1 - lowest - Fraction(1, other)], [[0], [1]], backend=RATIONAL)
        assert read_long(str(info.value).rsplit(" ", 1)[1]) == lowest

    def test_rational_weights_exact(self):
        sys_ = from_outcomes(
            [Fraction(1, 3), Fraction(2, 3)], [[0], [0, 1]], backend=RATIONAL
        )
        assert intersection_prob(sys_, {0}) == Fraction(1, 3)
        assert union_prob_exact(sys_) == 1

    def test_polynomial_system_with_constant_weights(self):
        # Plain ints and Fractions are constant polynomials.
        sys_ = from_outcomes([Fraction(1, 3), 0, Fraction(2, 3)], [[0, 1], [1, 2]], backend=POLYNOMIAL)
        assert intersection_prob(sys_, {0}) == Polynomial((Fraction(1, 3),))
        assert intersection_prob(sys_, {0, 1}) == Polynomial()
        assert union_prob_exact(from_outcomes([1], [[0]], backend=POLYNOMIAL)) == Polynomial((1,))

    @pytest.mark.parametrize("bad", [0.5, "1/2", None], ids=["float", "str", "none"])
    def test_polynomial_system_rejects_other_weight_types(self, bad):
        for weights in ([bad, Fraction(1, 2)], [Fraction(1, 2), bad]):
            with pytest.raises(TypeError, match=type(bad).__name__):
                from_outcomes(weights, [[0]], backend=POLYNOMIAL)


class TestReadRational:
    @staticmethod
    def _outcome(read, text):
        """The value read, or the kind of error."""
        try:
            value = read(text)
        except ZeroDivisionError:
            return "zero denominator"
        except ValueError as exc:
            return "zero denominator" if "zero denominator" in str(exc) else "invalid"
        return value

    def _read(self, text):
        numerator, denominator = _read_rational(text)
        assert denominator > 0
        return Fraction(numerator, denominator)

    def test_agrees_with_fraction_on_strings(self):
        rng = random.Random(11)
        alphabet = "0123456789/+-._e \t٣²"
        texts = ["", "0", "00/07", "1/0", "0/0", "+1/0", "٣/٤", "²/3", "3/", "/4", "3 /4", "1/-2"]
        texts += ["".join(rng.choices(alphabet, k=rng.randint(1, 7))) for _ in range(4000)]
        texts += [f"{rng.randint(0, 999)}/{rng.randint(0, 99)}" for _ in range(500)]
        texts += ["1e4301", "-2.5E-4_301", "٣e22255", "1e4300", "._e4444", "1 e9999", "1/2e9999", "1e9999 "]
        for text in texts:
            try:
                outcome = self._outcome(self._read, text)
            except ResourceLimitError:
                # The one difference: Fraction would expand the exponent.
                exponent = int(text.lower().rpartition("e")[2])
                assert abs(exponent) > MAX_DECIMAL_EXPONENT, repr(text)
                assert isinstance(Fraction(text), Fraction)
                continue
            assert outcome == self._outcome(self._fraction, text), repr(text)

    @staticmethod
    def _fraction(text):
        """`Fraction(text)` as Python 3.11 reads it: from 3.12 on `Fraction`
        also takes whitespace next to the slash."""
        if re.search(r"\s/|/\s", text):
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        return Fraction(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1/0", "zero denominator in '1/0'"),
            ("-1/0", "zero denominator in '-1/0'"),
            ("3/", "Invalid literal for Fraction: '3/'"),
            ("1" * 5000, "Exceeds the limit (4300"),
            # Python 3.12's `Fraction` reads these; every version rejects them here.
            ("3 /4", "Invalid literal for Fraction: '3 /4'"),
            ("3/ 4", "Invalid literal for Fraction: '3/ 4'"),
            ("3\t/\n4", "Invalid literal for Fraction: '3\\t/\\n4'"),
        ],
        ids=["zero-denominator", "signed-zero-denominator", "malformed", "long-integer",
             "space-before-slash", "space-after-slash", "tab-and-newline"],
    )
    def test_malformed_text_is_a_parse_error(self, text, message):
        with pytest.raises(ParseError) as info:
            _read_rational(text)
        assert isinstance(info.value, ValueError) and str(info.value).startswith(message)
        # The column reader gives the same error, on its fast path's input too.
        with pytest.raises(ParseError, match=re.escape(str(info.value))):
            _read_rational_column(["1/2", f"{text}/1" if text.isdecimal() else text])

    def test_numbers(self):
        assert _read_rational(3) == (3, 1)
        assert _read_rational(Fraction(-2, 4)) == (-1, 2)
        with pytest.raises(TypeError, match="float"):
            _read_rational(0.5)

    @staticmethod
    def _value_by_value(column):
        """The column read one value at a time, as numerators over the
        least common denominator; or the kind and text of its error."""
        try:
            pairs = [_read_rational(value) for value in column]
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)
        denominator = math.lcm(*(d for _, d in pairs))
        return [n * denominator // d for n, d in pairs], denominator

    @staticmethod
    def _column_outcome(column):
        try:
            return _read_rational_column(column)
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    def test_plain_column_is_read_whole(self, monkeypatch):
        rng = random.Random(12)
        column = ["007/0100", "0/0100", "5/0100"]
        column += [f"{rng.randrange(10 ** rng.randint(1, 30))}/0100" for _ in range(500)]
        want = self._value_by_value(column)
        monkeypatch.setattr(values, "_read_rational", None)
        assert _read_rational_column(column) == want

    @pytest.mark.parametrize(
        "column",
        [
            ["2/4", "0/4", "1/4", "1/4"],
            ["0/7"],
            ["000/0012", "12/0012"],
            [f"{c}/873" for c in range(200)],
            ["1/0", "1/0"],
            ["0/0"],
            ["1/4", "3/"],
        ],
    )
    def test_one_denominator_column(self, monkeypatch, column):
        # One distinct denominator: the numerators are read as written,
        # unreduced, over it, with the values and errors of reading the
        # column value by value.
        want = self._value_by_value(column)
        got = self._column_outcome(column)
        assert got == want
        if isinstance(want[1], str):
            assert repr(column[0]) in want[1] or repr(column[-1]) in want[1]
        else:
            monkeypatch.setattr(values, "_read_rational", None)
            assert _read_rational_column(column) == want
            assert got[1] == int(column[0].partition("/")[2])

    @pytest.mark.parametrize(
        "column",
        [
            ["3", "1/2/4"],
            ["1/2", "1/0"],
            ["1/2", "٣/٤"],
            [" 1/2", "1/2"],
            ["1/2", "3/"],
            ["1/2", 3, Fraction(1, 4)],
            ["1,2/3"],
            [],
        ],
    )
    def test_other_columns_read_value_by_value(self, column):
        got = self._column_outcome(column)
        assert got == self._value_by_value(column)
        if "1/0" in column:
            assert "'1/0'" in got[1]

    def test_string_weights_build_the_same_system(self):
        texts = ["14/1746", "0", "+1/3", " 0.5 "]
        rest = 1 - sum(map(Fraction, texts))
        texts.append(f"{rest.numerator}/{rest.denominator}")
        events = [[0, 1], [1, 2, 4], [3]]
        from_text = from_outcomes(texts, events, backend=RATIONAL)
        from_fractions = from_outcomes(map(Fraction, texts), events, backend=RATIONAL)
        for index_set in ({0}, {1}, {2}, {0, 1}, {1, 2}):
            assert intersection_prob(from_text, index_set) == intersection_prob(from_fractions, index_set)
        assert union_prob_exact(from_text) == union_prob_exact(from_fractions)


# An int of 5 001 digits, and a system of two events to query with it.
BIG = 10**5000


def two_events():
    return from_outcomes([0.5, 0.5], [[0], [1]])


class TestExactStr:
    def test_str_below_the_limit(self):
        rng = random.Random(43)
        for _ in range(2000):
            top = rng.randrange(-(10 ** rng.randint(1, 80)), 10 ** rng.randint(1, 80))
            bottom = rng.randrange(1, 10 ** rng.randint(1, 80))
            for value in (top, Fraction(top, bottom), Fraction(top)):
                assert _exact_str(value) == str(value)
        for value in (0.1, -2.5e300, P**2 - 1, "1/3", True, False):
            assert _exact_str(value) == str(value)

    def test_any_length(self):
        for value in (-(7**9000), Fraction(3**9000, 5**8000 * 2)):
            text = _exact_str(value)
            assert len(text) > 4300 and read_long(text) == value

    @pytest.mark.parametrize(
        "call, error, message, value",
        [
            (lambda: from_outcomes([1.0], [[BIG]]), DomainError, "outcome id {} out of range", BIG),
            (lambda: bernoulli_product([0.5], [[BIG]]), DomainError, "coordinate id {} out of range", BIG),
            (lambda: intersection_prob(two_events(), [BIG]), DomainError, "event index {} out of range", BIG),
            (lambda: build_graph(2, [(0, BIG)]), DomainError, "edge (0, {}) has an endpoint outside 0..1", BIG),
            (lambda: build_graph(-BIG, []), DomainError, "vertex count must be non-negative, got {}", -BIG),
            (
                lambda: build_graph(BIG, []),
                ResourceLimitError,
                f"vertex count {{}} exceeds the largest list size, {sys.maxsize}",
                BIG,
            ),
            (lambda: build_network(3, [(0, BIG)], 0, 2), DomainError, "arc (0, {}) has an endpoint out of range", BIG),
            (
                lambda: generalized_lower(two_events(), BIG),
                DomainError,
                "order m must satisfy 0 <= m <= 1, got {}",
                BIG,
            ),
            (
                lambda: chordal_upper(two_events(), path_graph(2), -BIG),
                DomainError,
                "truncation depth must be >= 1, got {}",
                -BIG,
            ),
            (
                lambda: classical_bonferroni(two_events(), -BIG),
                DomainError,
                "truncation depth must be >= 1, got {}",
                -BIG,
            ),
            (lambda: clique_complex(path_graph(2), -BIG), DomainError, "max_size must be >= 1, got {}", -BIG),
            (lambda: counterexample_family(BIG), DomainError, "family parameter must be odd and >= 3, got {}", BIG),
        ],
        ids=[
            "outcome-id", "coordinate-id", "event-index", "graph-endpoint", "graph-negative-count",
            "graph-count-past-maxsize", "network-endpoint", "generalized-order", "chordal-depth",
            "bonferroni-depth", "clique-size", "family-parameter",
        ],
    )
    def test_caller_ints_in_messages(self, call, error, message, value):
        # A caller's int past the 4 300 digits `str` writes is named in full.
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message.format(str(Decimal(value)))


    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: build_graph(Fraction(BIG), []), "vertex count must be an integer, got {}"),
            (lambda: build_graph(2, [(0, [BIG])]), "edge endpoint must be an integer, got a list of length 1"),
            (
                lambda: build_network(3, [(0, 1, BIG)], 0, 2),
                "arcs must be a list of (tail, head) pairs, got a list of length 1",
            ),
            (lambda: generalized_lower(two_events(), Fraction(BIG)), "order m must be an integer, got {}"),
            (
                lambda: build_network(3, [(0, 1)], 0, 2, [[BIG]]),
                "arc reliability must be 'symbolic' or numeric, got a list of length 1",
            ),
            (lambda: classical_bonferroni(two_events(), 1, BIG), "direction must be 'upper' or 'lower', got {}"),
            (lambda: bound(BIG, two_events()), "unknown bound kind {}"),
            (lambda: best_tree(((0.0,),), BIG), "unknown objective {}"),
            (lambda: best_path(((0.0,),), BIG), "unknown mode {}"),
            (lambda: exhaustive_tree_oracle(two_events(), BIG), "unknown criterion {}"),
        ],
        ids=[
            "graph-count-fraction", "graph-endpoint-list", "network-arcs", "generalized-order-fraction",
            "network-reliability-list", "bonferroni-direction", "bound-kind", "tree-objective", "path-mode",
            "oracle-criterion",
        ],
    )
    def test_caller_values_in_messages(self, call, message):
        # A value that is no int is named without `repr`, which refuses an
        # int past 4 300 digits: a Fraction by `_exact_str`, a container by
        # its type and length.
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message.format(str(Decimal(BIG)))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: build_graph("3", []), "vertex count must be an integer, got '3'"),
            (lambda: build_graph(1.5, []), "vertex count must be an integer, got 1.5"),
            (lambda: build_graph(True, []), "vertex count must be an integer, got True"),
            (lambda: build_graph(Fraction(3, 2), []), "vertex count must be an integer, got Fraction(3, 2)"),
            (
                lambda: build_network(3, [(0, 1, 2)], 0, 2),
                "arcs must be a list of (tail, head) pairs, got [(0, 1, 2)]",
            ),
        ],
    )
    def test_ordinary_values_keep_their_repr(self, call, message):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message

class TestBernoulliProduct:
    def test_single_coordinate(self):
        sys_ = bernoulli_product([0.3], [[0]])
        assert intersection_prob(sys_, {0}) == pytest.approx(0.3)

    def test_bridge_symbolic_singletons(self):
        sys_ = bridge_system()
        assert intersection_prob(sys_, {0}) == P**2
        assert intersection_prob(sys_, {1}) == P**3
        assert intersection_prob(sys_, {2}) == P**3
        assert intersection_prob(sys_, {3}) == P**2

    def test_all_probabilities_one(self):
        sys_ = bernoulli_product([1.0, 1.0], [[0], [1], [0, 1]])
        for i in range(3):
            assert intersection_prob(sys_, {i}) == 1.0

    def test_probability_out_of_range(self):
        for p in (1.2, -0.1, float("nan")):
            with pytest.raises(DomainError):
                bernoulli_product([p], [[0]])

    def test_probability_out_of_range_at_any_length(self):
        # A probability past the 4 300 digits `str` writes is named in full.
        big = 10**5000
        with pytest.raises(DomainError, match="^coordinate probability 1000+ outside \\[0, 1\\]$") as info:
            bernoulli_product([Fraction(big)], [[0]])
        assert read_long(str(info.value).split()[2]) == big

    def test_empty_event_list(self):
        with pytest.raises(DomainError, match="at least one event"):
            bernoulli_product([0.5], [])

    def test_rational_probabilities_read_like_weights(self):
        sys_ = bernoulli_product(["1/2", "2/6", 1, Fraction(1, 4)], [[0], [1, 2], [3]], backend=RATIONAL)
        assert sys_.probs == (Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(1, 4))
        assert union_prob_exact(sys_) == Fraction(3, 4)
        with pytest.raises(TypeError, match="must be int, Fraction or str, got float"):
            bernoulli_product([0.5, 0.5], [[0], [1]], backend=RATIONAL)
        with pytest.raises(ParseError, match="zero denominator"):
            bernoulli_product(["1/0"], [[0]], backend=RATIONAL)
        with pytest.raises(DomainError, match="coordinate probability 3/2 outside"):
            bernoulli_product(["6/4"], [[0]], backend=RATIONAL)

    def test_coordinate_cap(self):
        with pytest.raises(ResourceLimitError):
            bernoulli_product([0.5] * 25, [[0]])

    def test_constructor_rejects_mask_outside_space(self):
        with pytest.raises(DomainError, match="outside the space"):
            ProductSystem(REAL, [0.5], [0b10])

    def test_rational_matches_explicit_enumeration(self):
        rng = random.Random(3)
        for _ in range(60):
            probs = [Fraction(rng.randint(0, 4), 4) for _ in range(rng.randint(1, 6))]
            assert_matches_enumeration(rng, probs, RATIONAL, exact=True)

    def test_real_and_polynomial_match_explicit_enumeration(self):
        rng = random.Random(4)
        shapes = (P, P**2, 1 - P, (1 + P) / 2, Polynomial((Fraction(1, 3),)))
        for _ in range(30):
            m = rng.randint(1, 6)
            probs = [rng.choice((0.0, 1.0, rng.random())) for _ in range(m)]
            assert_matches_enumeration(rng, probs, REAL, exact=False)
            probs = [rng.choice(shapes) for _ in range(m)]
            assert_matches_enumeration(rng, probs, POLYNOMIAL, exact=True)

    def test_shared_probability_matches_explicit_enumeration(self):
        # Every coordinate has one probability, so exact masses are p**k.
        rng = random.Random(5)
        for p in (Fraction(2, 5), Fraction(0), Fraction(1)):
            for m in range(1, 7):
                assert_matches_enumeration(rng, [p] * m, RATIONAL, exact=True)
        for shape in (P, 1 - P, (1 + P) / 2):
            for m in range(1, 6):
                assert_matches_enumeration(rng, [shape] * m, POLYNOMIAL, exact=True)

    def test_real_masses_keep_the_coordinate_product(self):
        # 0.9 * 0.9 * 0.9 * 0.9 * 0.9 and 0.9 ** 5 are different floats
        sys_ = bernoulli_product([0.9] * 6, [[0, 1, 2, 3, 4], [5]])
        assert intersection_prob(sys_, {0}) == 0.9 * 0.9 * 0.9 * 0.9 * 0.9 != 0.9**5

    def test_real_weights_sum_to_one_near_the_cap(self):
        # The atom of every event is the product of its 19 coordinate
        # probabilities; summed over the 2**19 outcomes instead, a naive
        # float sum of their weights misses one by 2.5e-12
        sys_ = bernoulli_product([0.37] * 19, [list(range(19))])
        assert atom_prob(sys_, {0}) == pytest.approx(0.37**19, rel=1e-12)

    def test_real_union_over_twenty_coordinates(self):
        assert union_prob_exact(bernoulli_product([0.9] * 20, [[0]])) == 0.9


def assert_matches_enumeration(rng, probs, backend, exact):
    """Every intersection, every atom and the union of `bernoulli_product`
    agree with a system built by enumerating all 2**m outcomes."""
    m = len(probs)
    defs = [
        [c for c in range(m) if rng.random() < 0.5] for _ in range(rng.randint(1, 5))
    ]
    weights = []
    for s in range(1 << m):
        w = backend.one
        for i in range(m):
            w = w * (probs[i] if (s >> i) & 1 else backend.one - probs[i])
        weights.append(w)
    events = [[s for s in range(1 << m) if all((s >> c) & 1 for c in d)] for d in defs]
    explicit = from_outcomes(weights, events, backend=backend)
    built = bernoulli_product(probs, defs, backend=backend)

    def same(got, want):
        return got == want if exact else abs(got - want) <= 1e-12

    n = len(defs)
    assert built.event_count == n
    for size in range(1, n + 1):
        for index_set in combinations(range(n), size):
            assert same(intersection_prob(built, index_set), intersection_prob(explicit, index_set))
            assert same(atom_prob(built, index_set), atom_prob(explicit, index_set))
    assert same(union_prob_exact(built), union_prob_exact(explicit))


def random_product_system(rng, backend):
    """Up to 10 coordinates with probabilities 0, 1, 1/2, 1/3 or 3/4 (REAL
    as floats) and up to 7 events, each requiring each coordinate with
    probability 0.4."""
    m = rng.randint(1, 10)
    probs = [rng.choice((0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(3, 4))) for _ in range(m)]
    if backend is REAL:
        probs = list(map(float, probs))
    defs = [[c for c in range(m) if rng.random() < 0.4] for _ in range(rng.randint(1, 7))]
    return bernoulli_product(probs, defs, backend=backend)


class TestProductForm:
    """Atoms and α′ of a product system are computed from its coordinates;
    they equal those of its explicit outcome space."""

    def test_atoms_and_alpha_prime_match_the_outcome_space(self):
        rng = random.Random(16)
        for trial in range(600):
            backend = (RATIONAL, REAL)[trial % 2]
            sys_ = random_product_system(rng, backend)
            explicit = product_outcomes(sys_)
            n = sys_.event_count
            g = random_graph(rng, n, density=rng.choice((0.2, 0.5)))
            assert alpha_prime(sys_, g) == alpha_prime(explicit, g)
            for size in range(1, n + 1):
                for signature in combinations(range(n), size):
                    got, want = atom_prob(sys_, signature), atom_prob(explicit, signature)
                    if backend is RATIONAL:
                        assert got == want
                    else:
                        assert abs(got - want) <= 1e-12

    def test_no_outcome_space_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("explicit outcome space built")

        monkeypatch.setattr(events.EventSystem, "__init__", refuse)
        rng = random.Random(17)
        for trial in range(40):
            sys_ = random_product_system(rng, (RATIONAL, REAL)[trial % 2])
            n = sys_.event_count
            intersection_prob(sys_, range(n))
            union_prob_exact(sys_)
            for k in range(1, n + 1):
                sys_._symmetric_sum(k)
                for signature in combinations(range(n), k):
                    atom_prob(sys_, signature)
            alpha_prime(sys_, random_graph(rng, n))

    def test_large_real_system_in_small_memory(self):
        # Built as outcomes, 2**20 float weights alone take over 25 MB.
        rng = random.Random(18)
        probs = [rng.random() for _ in range(20)]
        defs = [[c for c in range(20) if rng.random() < 0.2] for _ in range(16)]
        sys_ = bernoulli_product(probs, defs)
        tracemalloc.start()
        try:
            assert 1 <= alpha_prime(sys_, path_graph(16)) <= 8
            for i in range(16):
                assert 0 <= atom_prob(sys_, {i}) <= intersection_prob(sys_, {i})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("backend", [REAL, RATIONAL])
    def test_symmetric_sums_match_the_outcome_space(self, backend):
        # S_k over C(12, k) index sets, each its own mask.
        probs = [backend.one * Fraction(i + 3, 20) for i in range(12)]
        sys_ = bernoulli_product(probs, [[i] for i in range(12)], backend=backend)
        explicit = product_outcomes(sys_)
        for k in range(1, 13):
            want = sum(intersection_prob(explicit, s) for s in combinations(range(12), k))
            got = sys_._value(sys_._symmetric_sum(k))
            assert got == want if backend is RATIONAL else abs(got - want) <= 1e-12

    def test_shared_probability_symmetric_sums_are_powers_of_p(self):
        sys_ = bernoulli_product([P] * 6, [[i, i + 1] for i in range(5)], backend=POLYNOMIAL)
        # 4 adjacent pairs need 3 coordinates, the other 6 pairs need 4.
        assert sys_._value(sys_._symmetric_sum(2)) == 4 * P**3 + 6 * P**4

    def test_every_symmetric_sum_in_small_memory(self):
        # 16 events, one coordinate each: 65 535 index sets over all S_k,
        # and S_k is the k-th elementary symmetric sum of the probabilities.
        rng = random.Random(27)
        probs = [rng.random() for _ in range(16)]
        sys_ = bernoulli_product(probs, [[c] for c in range(16)])
        tracemalloc.start()
        try:
            sums = [sys_._symmetric_sum(k) for k in range(17)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        want = [Fraction(1)] + [Fraction(0)] * 16
        for p in map(Fraction, probs):
            want = [want[0]] + [want[k] + want[k - 1] * p for k in range(1, 17)]
        for got, exact in zip(sums, want):
            assert abs(got - exact) <= 1e-12 * exact

    def test_real_masses_are_the_product_in_coordinate_order(self):
        rng = random.Random(28)
        for trial in range(200):
            m = rng.randint(1, 24)
            p = rng.random()
            probs = [rng.choice((p, 0.0, 1.0, rng.random())) for _ in range(m)]
            if trial % 4 == 0:
                probs = [p] * m
            sys_ = bernoulli_product(probs, [[0]])
            for _ in range(20):
                mask = rng.getrandbits(m)
                want = 1.0
                for c in range(m):
                    if mask >> c & 1:
                        want *= probs[c]
                assert sys_.mass(mask) == want

    @pytest.mark.parametrize("backend, p", [(RATIONAL, Fraction(2, 5)), (POLYNOMIAL, (1 + P) / 3)])
    def test_shared_exact_masses_are_powers(self, backend, p):
        rng = random.Random(29)
        m = 24
        sys_ = bernoulli_product([p] * m, [[0]], backend=backend)
        sizes = list(range(m + 1))
        rng.shuffle(sizes)
        for k in sizes:
            mask = sum(1 << c for c in rng.sample(range(m), k))
            assert sys_.mass(mask) == p**k

    @pytest.mark.parametrize("budget, fails", [(15, False), (14, True)])
    def test_signature_budget_boundary(self, monkeypatch, budget, fails):
        # Three independent single-coordinate events: 8 signatures, and 15
        # parts in the walk that splits by each event in turn.
        monkeypatch.setattr(events, "MAX_SIGNATURE_NODES", budget)
        sys_ = bernoulli_product([0.5] * 3, [[0], [1], [2]])
        if fails:
            with pytest.raises(ResourceLimitError, match="signature search exceeds 14 nodes"):
                alpha_prime(sys_, path_graph(3))
        else:
            assert alpha_prime(sys_, path_graph(3)) == 2

    def test_symbolic_atom_at_eighteen_coordinates(self):
        defs = [[c, c + 1] for c in range(0, 18, 2)] + [list(range(18))]
        sys_ = bernoulli_product([P] * 18, defs, backend=POLYNOMIAL)
        start = time.perf_counter()
        atom = atom_prob(sys_, {0})
        assert time.perf_counter() - start < 1
        # event 0 occurs, and none of the other 8 pairs is all on
        assert atom == P**2 * (1 - P**2) ** 8


def runs_system(n, k, p, backend=RATIONAL):
    """n coordinates of probability p and one event per window of k
    consecutive coordinates: the union is a success run of length k."""
    return bernoulli_product([p] * n, [range(i, i + k) for i in range(n - k + 1)], backend=backend)


def ladder_system(rng, k, probs, backend):
    """The path events of the ladder network with k rungs (4k + 2 arcs,
    2**(k + 1) s-t paths), with its arcs and its paths in shuffled order;
    `probs(m)` gives the m arc probabilities."""
    arcs = [(0, 2), (0, 3)]
    for i in range(k):
        u, l = 2 * i + 2, 2 * i + 3
        arcs += [(u, l), (l, u)]
        if i + 1 < k:
            arcs += [(u, u + 2), (l, l + 2)]
    arcs += [(2 * k, 1), (2 * k + 1, 1)]
    rng.shuffle(arcs)
    paths = list(enumerate_st_paths(build_network(2 * k + 2, arcs, 0, 1)))
    rng.shuffle(paths)
    return bernoulli_product(probs(len(arcs)), paths, backend=backend)


def nested_product_system(rng, probs, backend):
    """Up to 9 coordinates and up to 8 events, some of them duplicates of,
    inside or around an earlier event; `probs(m)` gives the m coordinate
    probabilities."""
    m = rng.randint(1, 9)
    defs = [{c for c in range(m) if rng.random() < 0.4} for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 4)):
        base = rng.choice(defs)
        shape = rng.choice(("duplicate", "inside", "around"))
        if shape == "duplicate":
            defs.append(set(base))
        elif shape == "inside":
            defs.append({c for c in base if rng.random() < 0.6})
        else:
            defs.append(base | {c for c in range(m) if rng.random() < 0.3})
    rng.shuffle(defs)
    return bernoulli_product(probs(m), defs, backend=backend)


class TestShannonExpansion:
    """The union and atoms of a product system come from one Shannon
    expansion over coordinates, branching on the lowest coordinate of the
    smallest residual mask."""

    @pytest.mark.parametrize("p", [0, Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), 1])
    def test_success_runs_match_the_markov_chain(self, p):
        for k in range(1, 7):
            for n in range(k, 25):
                assert union_prob_exact(runs_system(n, k, p)) == runs_union(n, k, p)

    @pytest.mark.parametrize("n", [100, 200])
    def test_success_runs_past_the_coordinate_cap(self, monkeypatch, n):
        # Runs of length 4 in 200 trials take about 20 ms (Python 3.11).
        monkeypatch.setattr(events, "MAX_PRODUCT_COORDS", n)
        p = Fraction(3, 10)
        assert union_prob_exact(runs_system(n, 4, p)) == runs_union(n, 4, p)

    def test_expansion_steps_grow_linearly_on_runs(self, monkeypatch):
        """Counts the calls of `events._branch_bit`: one per expansion
        node that is neither a single mask nor a memo hit.  For runs of
        length k it grows by k per trial."""
        calls = []

        def counted(family):
            calls.append(None)
            return branch_bit(family)

        branch_bit = events._branch_bit
        monkeypatch.setattr(events, "_branch_bit", counted)
        for k in range(1, 7):
            for n in range(k, 25):
                calls.clear()
                union_prob_exact(runs_system(n, k, Fraction(3, 10)))
                assert len(calls) <= k * n, (n, k)
        for k, count in ((2, 43), (4, 74)):
            calls.clear()
            union_prob_exact(runs_system(24, k, Fraction(3, 10)))
            assert len(calls) == count

    def test_branch_bit_is_the_lowest_coordinate_of_the_smallest_mask(self):
        assert events._branch_bit((0b0110, 0b1001, 0b1110)) == 0b0010
        assert events._branch_bit((0b0011, 0b1100)) == 0b0001
        assert events._branch_bit((0b1000,)) == 0b1000

    @pytest.mark.parametrize("backend", [RATIONAL, POLYNOMIAL])
    def test_union_and_atoms_match_the_outcome_space(self, backend):
        rng = random.Random(26)
        if backend is RATIONAL:
            choices = (0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 7))
        else:
            choices = (POLYNOMIAL.zero, POLYNOMIAL.one, P, 1 - P, P**2, (1 + P) / 3)

        def probs(m):
            return [rng.choice(choices) for _ in range(m)]

        systems = [nested_product_system(rng, probs, backend) for _ in range(40)]
        systems += [ladder_system(rng, k, probs, backend) for k in (1, 2) for _ in range(2)]
        systems += [ladder_system(rng, 2, lambda m: [rng.choice(choices)] * m, backend)]
        for sys_ in systems:
            explicit = product_outcomes(sys_)
            assert union_prob_exact(sys_) == union_prob_exact(explicit)
            n = sys_.event_count
            for size in range(1, n + 1):
                for signature in combinations(range(n), size):
                    assert atom_prob(sys_, signature) == atom_prob(explicit, signature)

    def test_real_union_matches_its_rational_twin(self):
        # Every term of the expansion is a non-negative product, so the
        # float union stays within a few ulps per coordinate.
        rng = random.Random(27)

        def probs(m):
            return [rng.choice((0.0, 1.0, rng.random(), rng.random())) for _ in range(m)]

        systems = [nested_product_system(rng, probs, REAL) for _ in range(60)]
        systems += [ladder_system(rng, k, probs, REAL) for k in (1, 2, 3, 4) for _ in range(3)]
        systems += [runs_system(24, k, rng.random(), REAL) for k in range(1, 7)]
        for sys_ in systems:
            twin = ProductSystem(RATIONAL, map(Fraction, sys_.probs), sys_.requires)
            exact = union_prob_exact(twin)
            assert abs(Fraction(union_prob_exact(sys_)) - exact) <= exact / 10**12


def random_coords_system(rng, m, backend=REAL):
    """m coordinates, some of probability 0 or 1, and 1 to 12 random
    events of 1 to 5 coordinates each, which may repeat or nest."""
    if backend is REAL:
        probs = [rng.choice((0.0, 1.0, rng.random(), rng.random(), rng.random())) for _ in range(m)]
    elif backend is RATIONAL:
        probs = [rng.choice((0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 7))) for _ in range(m)]
    else:
        probs = [rng.choice((POLYNOMIAL.zero, POLYNOMIAL.one, P, 1 - P, P**2, (1 + P) / 3)) for _ in range(m)]
    defs = [rng.sample(range(m), rng.randint(1, min(m, 5))) for _ in range(rng.randint(1, 12))]
    return bernoulli_product(probs, defs, backend=backend)


def residual_families(sys_):
    """For each event, the other events' masks less its own: the
    families `_atom` expands."""
    requires = sys_.requires
    return [[r & ~mine for j, r in enumerate(requires) if j != i] for i, mine in enumerate(requires)]


class TestProductKernels:
    """`ProductSystem._union` builds each on-branch family from the masks
    that hold the branch bit and the off-branch masks that contain none
    of them, and `ProductSystem.mass` starts from a list of products over
    the lowest 8 coordinates.  Both against copies in `helpers` of the
    expansion that re-minimises every on-branch family and of the
    bit-by-bit fold: REAL values with ==, exact ones against the outcome
    space."""

    def test_real_runs_and_ladders(self):
        rng = random.Random(3701)
        systems = [runs_system(n, k, rng.random(), REAL) for k in range(1, 7) for n in range(k, 25)]
        systems += [ladder_system(rng, k, lambda m: [rng.random() for _ in range(m)], REAL)
                    for k in range(1, 5) for _ in range(3)]
        for sys_ in systems:
            assert union_prob_exact(sys_) == reference_product_union(sys_)

    def test_real_coords_systems(self):
        rng = random.Random(3702)
        for m in range(1, 25):
            for _ in range(6):
                sys_ = random_coords_system(rng, m)
                assert union_prob_exact(sys_) == reference_product_union(sys_), m
                for family in residual_families(sys_):
                    if family:
                        assert sys_._union(family) == reference_product_union(sys_, family), m
                for mask in [*sys_.requires, *(rng.getrandbits(m) for _ in range(20))]:
                    assert sys_.mass(mask) == reference_product_mass(sys_, mask), (m, mask)

    def test_fewer_than_eight_coordinates(self):
        rng = random.Random(3703)
        for m in range(1, 8):
            for _ in range(4):
                sys_ = random_coords_system(rng, m)
                for mask in range(1 << m):
                    assert sys_.mass(mask) == reference_product_mass(sys_, mask), (m, mask)
                assert union_prob_exact(sys_) == reference_product_union(sys_)

    def test_masks_with_no_low_byte_coordinate(self):
        rng = random.Random(3704)
        for m in range(9, 25):
            sys_ = random_coords_system(rng, m)
            masks = [rng.getrandbits(m) & ~0xFF for _ in range(30)]
            for mask in [0, *masks]:
                assert sys_.mass(mask) == reference_product_mass(sys_, mask), (m, mask)
            family = [mask for mask in masks if mask]
            if family:
                assert sys_._union(family) == reference_product_union(sys_, family)

    def test_every_expanded_family_is_a_sorted_antichain(self, monkeypatch):
        seen = []

        def recording(family):
            seen.append(family)
            return branch_bit(family)

        branch_bit = events._branch_bit
        monkeypatch.setattr(events, "_branch_bit", recording)
        rng = random.Random(3705)
        systems = [random_coords_system(rng, m) for m in range(1, 25) for _ in range(4)]
        systems += [ladder_system(rng, k, lambda m: [0.5] * m, REAL) for k in (2, 3)]
        for sys_ in systems:
            union_prob_exact(sys_)
        assert seen
        for family in seen:
            assert type(family) is tuple and list(family) == sorted(set(family)) and family[0]
            assert not any(a & b == a for a, b in permutations(family, 2)), family

    @pytest.mark.parametrize("backend", [RATIONAL, POLYNOMIAL])
    def test_exact_unions_match_the_outcome_space(self, backend):
        rng = random.Random(3706)
        for m in range(1, 13):
            for _ in range(2):
                sys_ = random_coords_system(rng, m, backend)
                assert union_prob_exact(sys_) == union_prob_exact(product_outcomes(sys_)), m


# Backends and the exact p that every coordinate shares.
SHARED_P = [
    (POLYNOMIAL, P), (POLYNOMIAL, (1 + P) / 3), (POLYNOMIAL, Fraction(1, 2)),
    (RATIONAL, 0), (RATIONAL, Fraction(1, 10)), (RATIONAL, Fraction(1, 2)), (RATIONAL, 1),
]
SHARED_P_IDS = ["P", "(1+P)/3", "poly-1/2", "0", "1/10", "1/2", "1"]


def reference_product_atom(sys_, signature):
    """`ProductSystem._atom` from the reference mass and union."""
    inside = 0
    for i in signature:
        inside |= sys_.requires[i]
    residuals = [r & ~inside for i, r in enumerate(sys_.requires) if i not in signature]
    value = reference_product_mass(sys_, inside)
    if residuals:
        value = value * (sys_.backend.one - reference_product_union(sys_, residuals))
    return value


class TestSharedPowerKernels:
    """While every coordinate shares one exact p, `ProductSystem._union`,
    `_symmetric_sum` and `_cone_sum` add integer numerators, counted by
    coordinates: over D**m for a RATIONAL p = a/D, packed coefficients of
    a polynomial p, read back by `_value`.
    Against the expansion, the sums and the atoms in backend arithmetic,
    with ==, and the value's type."""

    @staticmethod
    def systems(rng, backend, p):
        def shared(m):
            return [p] * m

        systems = [nested_product_system(rng, shared, backend) for _ in range(12)]
        systems += [ladder_system(rng, k, shared, backend) for k in (1, 2)]
        systems += [runs_system(n, k, p, backend) for n, k in ((9, 3), (12, 4))]
        # A certain event (no coordinate), a duplicate and a nested one.
        systems.append(bernoulli_product([p] * 4, [[], [0, 1], [0, 1], [1], [1, 2, 3]], backend))
        return systems

    @staticmethod
    def assert_same(got, want):
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("backend, p", SHARED_P, ids=SHARED_P_IDS)
    def test_union_and_atoms(self, backend, p):
        rng = random.Random(3901)
        for sys_ in self.systems(rng, backend, p):
            self.assert_same(union_prob_exact(sys_), reference_product_union(sys_))
            for family in residual_families(sys_):
                if family:
                    self.assert_same(sys_._union(family), reference_product_union(sys_, family))
            n = sys_.event_count
            if n <= 8:
                for size in range(1, n + 1):
                    for signature in combinations(range(n), size):
                        self.assert_same(atom_prob(sys_, signature), reference_product_atom(sys_, signature))

    @pytest.mark.parametrize("backend, p", SHARED_P, ids=SHARED_P_IDS)
    def test_symmetric_and_cone_sums(self, backend, p):
        rng = random.Random(3902)
        for sys_ in self.systems(rng, backend, p):
            n = sys_.event_count
            for k in range(n + 1):
                self.assert_same(sys_._value(sys_._symmetric_sum(k)), product_symmetric_sum(sys_, k))
            for v in range(n):
                rest = [u for u in range(n) if u != v]
                for _ in range(6):
                    later = sum(1 << u for u in rest if rng.random() < 0.5)
                    base = (v,) if rng.random() < 0.7 or not rest else (v, rng.choice(rest))
                    required = sys_._combined_mask(base)
                    others = [sys_.requires[u] for u in bits(later)]
                    for cap in range(1, len(others) + 3):
                        got = sys_._value(sys_._cone_sum(base, later, cap))
                        self.assert_same(got, product_cone_sum(sys_, required, others, cap))

    @pytest.mark.parametrize("m", [24, 60])
    def test_lanes_past_a_machine_word(self, monkeypatch, m):
        # m disjoint one-coordinate events: the union is 1 - (1 - p)**m,
        # whose coefficients are +-C(m, j), up to C(60, 30) > 2**56, in
        # lanes of 112 and 265 bits, which the brackets over m events set.
        monkeypatch.setattr(events, "MAX_PRODUCT_COORDS", m)
        sys_ = bernoulli_product([P] * m, [[c] for c in range(m)], POLYNOMIAL)
        union = union_prob_exact(sys_)
        assert union == 1 - (1 - P) ** m
        assert union.numerators == (0, *((-1) ** (j + 1) * math.comb(m, j) for j in range(1, m + 1)))
        twin = bernoulli_product([Fraction(1, 3)] * m, [[c] for c in range(m)], RATIONAL)
        assert union_prob_exact(twin) == 1 - Fraction(2, 3) ** m
        assert sys_._value(sys_._symmetric_sum(2)) == math.comb(m, 2) * P**2

    @pytest.mark.parametrize("backend, p", [(POLYNOMIAL, P), (RATIONAL, Fraction(1, 2))], ids=["P", "1/2"])
    def test_counts_past_lane_widths(self, backend, p):
        # 400 copies of one two-coordinate event: S_2 counts C(400, 2)
        # pairs, far past what 3 coordinates' lanes would hold.
        sys_ = bernoulli_product([p] * 3, [[0, 1]] * 400, backend)
        assert sys_._value(sys_._symmetric_sum(1)) == 400 * p**2
        assert sys_._value(sys_._symmetric_sum(2)) == math.comb(400, 2) * p**2
        cone = sys_._value(sys_._cone_sum((0,), (1 << 400) - 2, 3))
        assert cone == (1 - 399 + math.comb(399, 2)) * p**2

    def test_unpack_reads_signed_lanes(self):
        rng = random.Random(3903)
        for _ in range(300):
            lane = rng.randint(2, 100)
            coefficients = [rng.randrange(-(1 << lane - 1), 1 << lane - 1) for _ in range(rng.randint(1, 30))]
            packed = sum(c << lane * j for j, c in enumerate(coefficients))
            assert events._unpack(packed, lane, len(coefficients)) == coefficients

    def test_value_reads_the_lanes_a_total_occupies(self):
        # `_value` reads lanes up to the highest one its total occupies:
        # up to m + 1 signed coefficients, the extreme ones included.
        rng = random.Random(3904)
        sys_ = bernoulli_product([P] * 6, [[0, 1], [2, 3, 4], [5]], POLYNOMIAL)
        lane = sys_._lane
        least, most = -(1 << lane - 1), (1 << lane - 1) - 1
        cases = [[], [0], [least], [most], [0] * 6 + [least], [most] * 7, [1, 0, 0, -1]]
        cases += [[rng.randint(least, most) for _ in range(rng.randint(1, 7))] for _ in range(300)]
        for coefficients in cases:
            packed = sum(c << lane * j for j, c in enumerate(coefficients))
            assert sys_._value(packed, 3) == Polynomial([Fraction(c, 3) for c in coefficients])


# Coordinate probabilities by case: (backend, probs(rng, m)).
EXACT_PROBS = {
    "integers": (RATIONAL, lambda rng, m: [rng.choice((0, 1)) for _ in range(m)]),
    "shared-3/10": (RATIONAL, lambda rng, m: [Fraction(3, 10)] * m),
    "sevenths": (RATIONAL, lambda rng, m: [Fraction(rng.randint(0, 7), 7) for _ in range(m)]),
    "mixed": (RATIONAL, lambda rng, m: [rng.choice((0, 1, "1/2", "2/9", "0.35", Fraction(3, 4))) for _ in range(m)]),
    "P": (POLYNOMIAL, lambda rng, m: [P] * m),
    "(1+P)/3": (POLYNOMIAL, lambda rng, m: [(1 + P) / 3] * m),
    "distinct-polynomials": (POLYNOMIAL, lambda rng, m: [rng.choice((P, 1 - P, (1 + P) / 2)) for _ in range(m)]),
}


class TestExactNumerators:
    """Every exact product system sums in its unit: integers over D**m on
    RATIONAL probabilities a_c / D, packed coefficients of a shared
    polynomial p, backend values otherwise.  Read back by `_value`, its
    masses, symmetric sums, cone sums and brackets equal the same sums in
    backend arithmetic (`helpers`), with == and the value's type."""

    @staticmethod
    def assert_same(got, want):
        assert got == want and type(got) is type(want)

    @staticmethod
    def systems(rng, case):
        backend, probs = EXACT_PROBS[case]
        systems = [nested_product_system(rng, lambda m: probs(rng, m), backend) for _ in range(10)]
        systems += [ladder_system(rng, k, lambda m: probs(rng, m), backend) for k in (1, 2)]
        return systems

    @pytest.mark.parametrize("case", EXACT_PROBS)
    def test_masses_and_sums(self, case):
        rng = random.Random(4101)
        for sys_ in self.systems(rng, case):
            m, n = len(sys_.probs), sys_.event_count
            for mask in [0, (1 << m) - 1, *(rng.getrandbits(m) for _ in range(8))]:
                self.assert_same(sys_._value(sys_._numerator(mask)), sys_.mass(mask))
                self.assert_same(sys_.mass(mask), reference_product_mass(sys_, mask))
            for k in range(min(n, 4) + 1):
                self.assert_same(sys_._value(sys_._symmetric_sum(k)), product_symmetric_sum(sys_, k))
            for v in range(n):
                later = sum(1 << u for u in range(n) if u != v and rng.random() < 0.5)
                others = [sys_.requires[u] for u in bits(later)]
                for cap in range(1, len(others) + 3):
                    got = sys_._value(sys_._cone_sum((v,), later, cap))
                    self.assert_same(got, product_cone_sum(sys_, sys_.requires[v], others, cap))

    @pytest.mark.parametrize("case", EXACT_PROBS)
    def test_brackets(self, case):
        rng = random.Random(4102)
        for sys_ in self.systems(rng, case):
            n = sys_.event_count
            g = random_chordal_graph(rng, n)
            terms = brute_force_clique_terms(sys_, g)
            for cap in (None, 1, 2, 3):
                # one * makes a constant reference sum a value of the backend
                want = sys_.backend.one * brute_force_clique_sum(terms, cap)
                self.assert_same(clique_sieve_sum(sys_, g, size_cap=cap), want)
            sums = [product_symmetric_sum(sys_, k) for k in range(n + 1)]
            kinds = [("bonferroni-upper", {"r": 2}), ("bonferroni-lower", {"r": 1}), ("kwerel-upper", {})]
            kinds += [("generalized-lower", {"m": m}) for m in range(n)]
            for kind, inputs in kinds:
                coefficients, denominator = moment_coefficients(kind, n, **inputs)
                want = sum((c * s for c, s in zip(coefficients, sums[1:])), sys_.backend.zero)
                want = want if denominator is None else want / denominator
                self.assert_same(bound(kind, sys_, **inputs).value, want)

    @pytest.mark.parametrize("p", [P, (1 + P) / 3], ids=["P", "(1+P)/3"])
    def test_symbolic_ladders(self, p):
        # Up to 64 path events over 22 arcs: S_1, S_2, the path graph's
        # cones and the reliability brackets against backend arithmetic.
        rng = random.Random(4103)
        for k in range(1, 6):
            sys_ = ladder_system(rng, k, lambda m: [p] * m, POLYNOMIAL)
            n = sys_.event_count
            for size in (1, 2):
                self.assert_same(sys_._value(sys_._symmetric_sum(size)), product_symmetric_sum(sys_, size))
            cones = [product_cone_sum(sys_, sys_.requires[v], sys_.requires[v + 1:v + 2], n) for v in range(n)]
            for v in range(n):
                later = 1 << v + 1 if v + 1 < n else 0
                self.assert_same(sys_._value(sys_._cone_sum((v,), later, n)), cones[v])
            g = path_graph(n)
            self.assert_same(bound("hunter-lower", sys_, g=g).value, sum(cones, POLYNOMIAL.zero) / ((n + 1) // 2))
            s1, s2 = (product_symmetric_sum(sys_, size) for size in (1, 2))
            self.assert_same(bound("bonferroni-lower", sys_).value, s1 - s2)
            self.assert_same(bound("kwerel-lower", sys_).value, (s1 - s2 * Fraction(2, n)) / ((n + 1) // 2))

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_sums_counted_in_chunks(self, monkeypatch, chunk):
        # 12 one-coordinate events at distinct probabilities: S_k is the
        # k-th elementary symmetric sum, whatever chunks its masks are
        # counted in.
        monkeypatch.setattr(events, "_MASK_CHUNK", chunk)
        probs = [Fraction(i + 3, 20 + i) for i in range(12)]
        sys_ = bernoulli_product(probs, [[c] for c in range(12)], RATIONAL)
        want = [Fraction(1)] + [Fraction(0)] * 12
        for p in probs:
            want = [want[0]] + [want[k] + want[k - 1] * p for k in range(1, 13)]
        assert [sys_._value(sys_._symmetric_sum(k)) for k in range(13)] == want

    def test_one_value_per_bound(self, monkeypatch):
        calls = []
        original = ProductSystem._value

        def counting(self, total, divisor=1):
            calls.append(divisor)
            return original(self, total, divisor)

        monkeypatch.setattr(ProductSystem, "_value", counting)
        rng = random.Random(4104)
        for case in ("mixed", "shared-3/10", "P"):
            backend, probs = EXACT_PROBS[case]
            sys_ = bernoulli_product(probs(rng, 8), [[c, c + 1] for c in range(7)], backend)
            tree = path_graph(sys_.event_count)
            for kind in bounds.KINDS:
                if kind == "chordal-lower-sharpened" and not backend.ordered:
                    continue
                calls.clear()
                bound(kind, sys_, g=tree)
                assert len(calls) == 1, (case, kind)

    @pytest.mark.parametrize("case", EXACT_PROBS)
    def test_unions_and_atoms(self, case):
        # The Shannon expansion in the system's unit against the same
        # expansion in backend arithmetic, on every residual family and,
        # up to 8 events, on every atom.
        rng = random.Random(4105)
        for sys_ in self.systems(rng, case):
            self.assert_same(union_prob_exact(sys_), reference_product_union(sys_))
            for family in residual_families(sys_):
                if family:
                    self.assert_same(sys_._union(family), reference_product_union(sys_, family))
            n = sys_.event_count
            if n <= 8:
                for size in range(1, n + 1):
                    for signature in combinations(range(n), size):
                        self.assert_same(atom_prob(sys_, signature), reference_product_atom(sys_, signature))

    def test_one_value_per_union(self, monkeypatch):
        # The expansion stays in the unit and makes one value, whatever the
        # backend and whether the probabilities are shared.
        calls = []
        original = ProductSystem._value

        def counting(self, total, divisor=1):
            calls.append(divisor)
            return original(self, total, divisor)

        monkeypatch.setattr(ProductSystem, "_value", counting)
        requires = [[0, 1], [1, 2], [2, 3], [0, 3]]
        cases = [
            (["1/3", "1/4", "1/5", "1/6"], RATIONAL), (["3/10"] * 4, RATIONAL), ([P] * 4, POLYNOMIAL),
            ([P, 1 - P, P, (1 + P) / 2], POLYNOMIAL), ([0.3, 0.4, 0.5, 0.6], REAL),
        ]
        for probs, backend in cases:
            sys_ = bernoulli_product(probs, requires, backend)
            calls.clear()
            union_prob_exact(sys_)
            assert calls == [1], (probs, backend)

    def test_bracket_lane_holds_every_bracket(self):
        # The largest sum of absolute weights of a clique, classical or
        # averaged bracket over n events stays below half a lane, and the
        # largest coefficient of a union over m coordinates, at most 3**m,
        # below a quarter of one.
        for n in range(1, 41):
            widest = 1 << n
            for m in range(n):
                coefficients = bounds._averaged_coefficients(n, m)
                scale = math.lcm(*(b for _, b in coefficients))
                weights = [abs(a) * (scale // b) * math.comb(n, k) for k, (a, b) in enumerate(coefficients, 1)]
                widest = max(widest, sum(weights))
            for coords in range(events.MAX_PRODUCT_COORDS + 1):
                lane = events._packed_lane(n, coords)
                assert widest < 1 << lane - 1 and 3**coords < 1 << lane - 2, (n, coords)


class TestIntersectionAndUnion:
    def test_bridge_pairs(self):
        sys_ = bridge_system()
        assert intersection_prob(sys_, {0, 1}) == P**4
        assert intersection_prob(sys_, {1, 2}) == P**6

    def test_singleton_matches_event_probability(self):
        sys_ = from_outcomes([0.25, 0.25, 0.5], [[0, 1], [2]])
        assert intersection_prob(sys_, {0}) == pytest.approx(0.5)

    def test_empty_index_set_rejected(self):
        sys_ = from_outcomes([1.0], [[0]])
        with pytest.raises(DomainError):
            intersection_prob(sys_, set())

    def test_empty_index_set_rejected_on_product_system(self):
        sys_ = bernoulli_product([0.5, 0.5], [[0], [1]])
        with pytest.raises(DomainError, match="index set must be non-empty"):
            intersection_prob(sys_, set())

    @pytest.mark.parametrize(
        "sys_",
        [from_outcomes([0.5, 0.5], [[0], [1]]), bernoulli_product([0.5, 0.5], [[0], [1]])],
        ids=["explicit", "product"],
    )
    @pytest.mark.parametrize("index", [2, -1])
    def test_out_of_range_index_rejected(self, sys_, index):
        with pytest.raises(DomainError, match=f"event index {index} out of range"):
            intersection_prob(sys_, {0, index})

    def test_bridge_union_polynomial(self):
        assert union_prob_exact(bridge_system()) == Polynomial((0, 0, 2, 2, -5, 2))

    def test_union_of_certain_events(self):
        sys_ = bernoulli_product([1.0, 1.0], [[0], [1]])
        assert union_prob_exact(sys_) == 1.0

    def test_union_of_disjoint_events_adds(self):
        sys_ = from_outcomes([0.2, 0.3, 0.5], [[0], [1]])
        assert union_prob_exact(sys_) == pytest.approx(0.5)

    def test_intersection_antitone_in_index_set(self):
        rng = random.Random(5)
        for _ in range(50):
            sys_ = random_real_system(rng, rng.randint(2, 6))
            n = sys_.event_count
            small = {rng.randrange(n)}
            big = set(small)
            while len(big) < min(n, len(small) + rng.randint(1, 3)):
                big.add(rng.randrange(n))
            assert intersection_prob(sys_, big) <= intersection_prob(sys_, small) + 1e-12


class TestAtoms:
    def test_all_certain_events(self):
        sys_ = bernoulli_product([1.0, 1.0], [[0], [1]])
        assert atom_prob(sys_, {0, 1}) == 1.0
        assert atom_prob(sys_, {0}) == 0.0
        assert atom_prob(sys_, {1}) == 0.0

    def test_disjoint_events(self):
        sys_ = from_outcomes([0.25, 0.35, 0.4], [[0], [1]])
        assert atom_prob(sys_, {0}) == pytest.approx(0.25)
        assert atom_prob(sys_, {1}) == pytest.approx(0.35)
        assert atom_prob(sys_, {0, 1}) == 0.0

    @pytest.mark.parametrize(
        "sys_",
        [from_outcomes([0.25, 0.35, 0.4], [[0], [1]]), bernoulli_product([0.5, 0.5], [[0], [1]])],
        ids=["explicit", "product"],
    )
    def test_signature_read_once(self, sys_):
        # A signature given as an iterator is read once, like an index set.
        assert atom_prob(sys_, iter([0])) == atom_prob(sys_, [0]) == 0.25

    def test_partition_identity(self):
        rng = random.Random(9)
        for _ in range(40):
            sys_ = random_real_system(rng, rng.randint(1, 5), max_outcomes=32)
            n = sys_.event_count
            total = 0.0
            for size in range(1, n + 1):
                for signature in combinations(range(n), size):
                    total += atom_prob(sys_, signature)
            assert total == pytest.approx(union_prob_exact(sys_), abs=1e-12)


class TestAlphaPrime:
    def test_single_event(self):
        sys_ = from_outcomes([1.0], [[0]])
        assert alpha_prime(sys_, edgeless_graph(1)) == 1

    def test_connected_support_gives_one(self):
        # only atoms with connected induced subgraphs have support
        sys_ = from_outcomes([0.5, 0.5], [[0], [0, 1]])
        g = path_graph(2)
        assert alpha_prime(sys_, g) == 1

    def test_all_certain_bridge_events_on_path(self):
        sys_ = bernoulli_product([1.0] * 6, [[0, 4], [0, 2, 5], [1, 3, 4], [1, 5]])
        assert alpha_prime(sys_, path_graph(4)) == 1

    def test_bounded_by_independence_number(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_chordal_graph(rng, n)
            sys_ = random_real_system(rng, n, max_outcomes=32)
            value = alpha_prime(sys_, g)
            assert 1 <= value <= independence_number(g)

    def test_rejects_polynomial_backend(self):
        sys_ = bernoulli_product([P], [[0]], backend=POLYNOMIAL)
        with pytest.raises(DomainError):
            alpha_prime(sys_, edgeless_graph(1))

    def test_rejects_vertex_mismatch(self):
        sys_ = from_outcomes([1.0], [[0]])
        with pytest.raises(DomainError):
            alpha_prime(sys_, complete_graph(2))

    def test_zero_weight_outcomes_ignored(self):
        # outcome 1 has zero weight, so the atom {0,1} has empty support
        sys_ = from_outcomes([1.0, 0.0], [[0, 1], [1]], backend=REAL)
        g = edgeless_graph(2)
        assert alpha_prime(sys_, g) == 1

    @pytest.mark.parametrize("g", [path_graph(2), cycle_graph(4)], ids=["chordal", "cycle"])
    def test_backend_is_checked_before_the_vertex_count(self, g):
        # Both checks run before the chordal cone count and the walk: a
        # POLYNOMIAL system is refused whatever the graph's size.
        for n in (g.vertex_count, g.vertex_count + 1):
            sys_ = from_outcomes([1], [[0]] * n, backend=POLYNOMIAL)
            with pytest.raises(DomainError) as raised:
                alpha_prime(sys_, g)
            assert str(raised.value) == "sharpened denominator needs a backend with decidable support emptiness"

    @pytest.mark.parametrize("g", [complete_graph(3), cycle_graph(4)], ids=["chordal", "cycle"])
    @pytest.mark.parametrize("backend", [REAL, RATIONAL])
    def test_vertex_count_mismatch_text(self, g, backend):
        sys_ = from_outcomes([1], [[0]] * 2, backend=backend)
        with pytest.raises(DomainError) as raised:
            alpha_prime(sys_, g)
        assert str(raised.value) == f"system has 2 events but graph has {g.vertex_count} vertices"


class TestCountMasks:
    """Each mask of `_count_masks` against per-outcome counts.  A wrong
    count on a zero-weight outcome changes no S_k, so only a direct check
    shows it."""

    @staticmethod
    def per_outcome(masks, m):
        result = [0] * (len(masks) + 1)
        for outcome in range(m):
            result[sum(mask >> outcome & 1 for mask in masks)] |= 1 << outcome
        return result

    def test_seeded_systems(self):
        rng = random.Random(43)
        for _ in range(300):
            sys_ = random_rational_system(rng, rng.randint(1, 12), max_outcomes=80)
            want = self.per_outcome(sys_.events, len(sys_.weights))
            assert events._count_masks(sys_.events, sys_.full_mask) == want

    @pytest.mark.parametrize(
        "masks, m",
        [
            ([0b1011], 4),
            ([0b0110, 0], 4),
            ([0b0110, 0b0110], 4),
            ([0b111, 0b101, 0b011], 3),
            ([0b00011, 0b00001], 5),
        ],
        ids=["one-event", "empty-event", "identical-events", "outcome-in-every-event", "outcomes-in-none"],
    )
    def test_edge_shapes(self, masks, m):
        assert events._count_masks(masks, (1 << m) - 1) == self.per_outcome(masks, m)


# Outcome counts around the byte boundaries of the mask-to-selector step,
# plus one benchmark-sized space.
OUTCOME_COUNTS = (1, 7, 8, 9, 200)


def real_weights(rng, m):
    # magnitudes from 1 down to 1e-20, where summing left to right and
    # rounding once differ; about one weight in five is zero
    raw = [0.0 if rng.random() < 0.2 else rng.random() * 10.0 ** -rng.randint(0, 20) for _ in range(m)]
    raw[rng.randrange(m)] = 1.0
    total = math.fsum(raw)
    return [x / total for x in raw]


def rational_weights(rng, m):
    raw = [
        Fraction(0) if rng.random() < 0.2 else Fraction(rng.randint(1, 5), rng.randint(1, 9))
        for _ in range(m)
    ]
    raw[rng.randrange(m)] = Fraction(1, 7)
    total = sum(raw)
    return [x / total for x in raw]


def polynomial_weights(rng, m):
    # w = a P + b (1 - P): the linear coefficient a - b is often negative
    a, b = rational_weights(rng, m), rational_weights(rng, m)
    return [x * P + y * (1 - P) for x, y in zip(a, b)]


def equal_weights(rng, m):
    # a zero-width column: every numerator is the column minimum
    return [Fraction(1, m)] * m


def coprime_weights(rng, m):
    # denominators drawn from the primes below 1000: the common denominator
    # and so the numerators are hundreds of bits wide, past the bit-plane
    # width rule at every outcome count
    primes = [p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    raw = [Fraction(rng.randint(1, 9), rng.choice(primes)) for _ in range(m)]
    total = sum(raw)
    return [x / total for x in raw]


def count_string_weights(rng, m):
    # the spelling of the benchmark's rational spaces: "c/T" for counts
    # c in 0..101 over their total T, seven bits wide
    counts = [0 if rng.random() < 0.1 else rng.randint(1, 100) for _ in range(m)]
    counts[rng.randrange(m)] += 1
    total = sum(counts)
    return [f"{c}/{total}" for c in counts]


def wide_rational_weights(rng, m):
    # numerators up to 2**80 over their total, about one in ten zero
    counts = [0 if rng.random() < 0.1 else rng.randint(1, 2**80) for _ in range(m)]
    counts[rng.randrange(m)] += 1
    total = sum(counts)
    return [Fraction(c, total) for c in counts]


class TestAlphaPrimeCones:
    """On an explicit system with a chordal graph, `alpha_prime` counts per
    outcome the events that end a component of g[J] along the perfect
    elimination order; it must agree with the definition and with the
    signature walk that product systems and other graphs keep."""

    def test_matches_the_definition_and_the_walk(self):
        # n = 1..14 on edgeless, path, complete and random chordal graphs,
        # float, 7-bit and 80-bit rational columns with zero weights, and
        # every eleventh space a single outcome
        graphs = (edgeless_graph, path_graph, complete_graph)
        columns = ((REAL, real_weights), (RATIONAL, count_string_weights), (RATIONAL, wide_rational_weights))
        for trial in range(336):
            rng = random.Random(trial)
            n = 1 + trial % 14
            kind = trial // 14 % 4
            g = graphs[kind](n) if kind < 3 else random_chordal_graph(rng, n)
            backend, make = columns[trial % 3]
            m = 1 if trial % 11 == 0 else rng.randint(2, 400)
            weights = make(rng, m)
            density = rng.choice((0.1, 0.3, 0.6))
            events = [sum(1 << o for o in range(m) if rng.random() < density) for _ in range(n)]
            if m > 1:
                # one outcome in no event, with whatever weight it drew
                loner = rng.randrange(m)
                events = [e & ~(1 << loner) for e in events]
            sys_ = EventSystem(backend, weights, events)
            got = alpha_prime(sys_, g)
            assert got == brute_force_alpha_prime(weights, events, g), trial
            assert got == signature_walk_alpha_prime(sys_, g), trial

    def test_signature_walk_runs_only_off_the_chordal_path(self, monkeypatch):
        calls = []
        for cls in (EventSystem, ProductSystem):
            def counted(self, walk=cls._signatures):
                calls.append(type(self).__name__)
                return walk(self)

            monkeypatch.setattr(cls, "_signatures", counted)
        # outcome 0 lies in events 0 and 2, which only the complete graph joins
        defs = [[0], [1], [0, 2], [3]]
        explicit = from_outcomes([0.25] * 4, defs)
        assert alpha_prime(explicit, path_graph(4)) == 2
        assert alpha_prime(explicit, complete_graph(4)) == 1
        assert calls == []
        assert alpha_prime(explicit, cycle_graph(4)) == 2
        assert calls == ["EventSystem"]
        assert alpha_prime(bernoulli_product([0.5] * 4, defs), path_graph(4)) == 2
        assert calls == ["EventSystem", "ProductSystem"]


class TestMassAgainstBruteForce:
    @pytest.mark.parametrize("m", OUTCOME_COUNTS)
    @pytest.mark.parametrize(
        "backend, make",
        [
            (REAL, real_weights),
            (RATIONAL, rational_weights),
            (POLYNOMIAL, polynomial_weights),
            (RATIONAL, equal_weights),
            (RATIONAL, coprime_weights),
            (RATIONAL, count_string_weights),
        ],
        ids=["real", "rational", "polynomial", "rational-equal", "rational-coprime", "rational-strings"],
    )
    def test_mass(self, m, backend, make):
        rng = random.Random(m)
        for _ in range(5):
            weights = make(rng, m)
            sys_ = EventSystem(backend, weights, [rng.getrandbits(m) for _ in range(3)])
            masks = [0, (1 << m) - 1, 1, 1 << (m - 1), 1 << rng.randrange(m)]
            masks += [rng.getrandbits(m) for _ in range(8)]
            for mask in masks:
                got, want = sys_.mass(mask), exact_mass(weights, mask)
                assert isinstance(got, type(backend.one))
                # REAL: exactly the correctly rounded sum
                assert got == (float(want) if backend is REAL else want)

    @pytest.mark.parametrize(
        "make, sliced",
        [(equal_weights, True), (count_string_weights, True), (coprime_weights, False)],
        ids=["equal", "strings", "coprime"],
    )
    def test_width_rule_sides(self, make, sliced):
        # At 200 outcomes a column up to 12 bits wide is bit-sliced, so
        # `test_mass` runs both sides of the width rule.
        weights = make(random.Random(7), 200)
        sys_ = EventSystem(RATIONAL, weights, [1])
        sys_.mass(0b101)
        assert bool(sys_._planes) == sliced

    @pytest.mark.parametrize("m", OUTCOME_COUNTS)
    def test_alpha_prime(self, m):
        rng = random.Random(100 + m)
        for trial in range(12):
            n = rng.randint(1, 7)
            g = random_chordal_graph(rng, n) if trial % 2 else random_graph(rng, n, density=0.3)
            backend, make = (REAL, real_weights) if trial % 3 else (RATIONAL, rational_weights)
            weights = make(rng, m)
            events = [rng.getrandbits(m) for _ in range(n)]
            sys_ = EventSystem(backend, weights, events)
            assert alpha_prime(sys_, g) == brute_force_alpha_prime(weights, events, g)


def outcome_of(read, *args):
    """What `read(*args)` returns, or the type and text of what it raises."""
    try:
        return read(*args)
    except Exception as exc:
        return type(exc), str(exc)


def long_values_column():
    """The weights x/AB, y/AC, 1/BC, 1/BC (A = 3**4190, B = 5**2861,
    C = 7**2366), which sum to one with denominators of thousands of
    digits: CI's long-values events file."""
    a, b, c = 3**4190, 5**2861, 7**2366
    x = -2 * a * pow(c, -1, b) % b
    y = (a * (b * c - 2) - x * c) // b
    return [f"{x}/{a * b}", f"{y}/{a * c}", f"1/{b * c}", f"1/{b * c}"]


class TestLoaderAgainstReference:
    """The C-level passes that build an explicit system give the results,
    error types and messages of the reference loaders in `helpers`, which
    check and convert one value at a time."""

    def test_id_masks(self):
        rng = random.Random(34)
        cases = [
            ([], 0), ([], 5), ([0], 0), ([3, 1, 3, 0, 1], 4), ([4], 4), ([-1], 4), ([-4], 4), ([-5], 4),
            ([0, -2], 3), ([True], 3), ([1, False], 3), ([1.0], 3), ([0, "1"], 3), ([None], 3),
            ([0, [1]], 3), ([10**30], 3), ([-(10**30)], 3), ([2, 10**30, True], 3), ([1, 1.0, True], 4),
        ]
        # Either side of the shift-or limit: `_SHORT_IDS` ids and 5 more,
        # each with a valid, bool, float, str, negative, out-of-range and
        # huge id first or last.
        for base in (list(range(events._SHORT_IDS - 1)), list(range(events._SHORT_IDS + 4))):
            count = len(base) + 3
            for extra in (count - 1, True, 1.0, "1", -1, count, 10**30):
                cases += [(base + [extra], count), ([extra] + base[::-1], count)]
        for _ in range(300):
            count = rng.randint(0, 300)
            ids = [rng.randrange(-count - 2, count + 2) for _ in range(rng.randint(0, 40))]
            if rng.random() < 0.6:
                ids = [i % count for i in ids] if count else []
            cases.append((ids, count))
        for ids, count in cases:
            want = outcome_of(reference_id_mask, ids, count, "outcome")
            assert outcome_of(events._id_mask, ids, count, "outcome") == want, (ids, count)
            assert outcome_of(events._id_mask, iter(ids), count, "outcome") == want, (ids, count)
            got = outcome_of(events._id_mask, (i for i in ids), count, "coordinate")
            assert got == outcome_of(reference_id_mask, (i for i in ids), count, "coordinate"), (ids, count)

    def test_negative_ids_are_out_of_range(self):
        # a bytearray takes -count..-1 as indices from its end
        for i in range(-5, 0):
            with pytest.raises(DomainError, match=f"^outcome id {i} out of range$"):
                from_outcomes([0.2] * 5, [[0, i]])

    def test_rational_columns(self):
        rng = random.Random(35)
        long_top = "7" * 4301
        columns = [
            ["1/4", "3/4"], ["007/0100", "93/0100"], ["007/0100", "93/100"], ["1/0"], ["1/0", "1/0"],
            ["0/0", "1/1"], ["1/4", "3/"], ["/4", "3/4"], ["1/4", "3/4/4"], ["1/44", "3/4"], ["1/4", "3/44"],
            [f"{long_top}/3", "1/3"], [f"1/{long_top}", f"2/{long_top}"], [f"{long_top}/3", "1/5"],
            ["1/3", "1/3", "1/3"], ["0/7"], ["٣/٤"], ["1/2", 1, Fraction(1, 2)], [],
            long_values_column(), [f"{c}/873" for c in range(200)],
        ]
        # 503 plain values over mixed denominators of up to 31 digits
        wide = random.Random(12)
        columns.append(["007/0100", "0/1", "5/5"])
        columns[-1] += [f"{wide.randrange(10 ** wide.randint(1, 30))}/{wide.randint(1, 10 ** 30)}" for _ in range(500)]
        for _ in range(200):
            m = rng.randint(1, 60)
            denominators = [str(rng.randint(0, 10 ** rng.randint(1, 25))) for _ in range(rng.randint(1, 3))]
            columns.append([f"{rng.randint(0, 10**6)}/{rng.choice(denominators)}" for _ in range(m)])
            columns.append(count_string_weights(rng, rng.randint(1, 2000)))
        for column in columns:
            want = outcome_of(reference_read_rational_column, column)
            assert outcome_of(_read_rational_column, column) == want, column[:4]
            assert outcome_of(_read_rational_column, iter(column)) == want, column[:4]

    @pytest.mark.parametrize("width", [0, 1, 8, 9, 16])
    def test_bit_planes(self, width):
        rng = random.Random(width)
        for low in (0, 1, -3, 10**20):
            # one outcome, and either side of the width rule
            for m in sorted({1, 16 * width - 1, 16 * width, 16 * width + 5} - {-1, 0}):
                offsets = [rng.randrange(1 << width) if width else 0 for _ in range(m)]
                offsets[rng.randrange(m)] = (1 << width) - 1 if width else 0
                offsets[rng.randrange(m)] = 0
                numerators = [low + d for d in offsets]
                assert events._bit_planes(numerators) == reference_bit_planes(numerators), (low, m)

    @pytest.mark.parametrize(
        "backend, make",
        [(REAL, real_weights), (RATIONAL, rational_weights), (RATIONAL, count_string_weights),
         (RATIONAL, wide_rational_weights), (RATIONAL, equal_weights)],
        ids=["real", "rational", "rational-strings", "rational-wide", "rational-equal"],
    )
    def test_support(self, backend, make):
        rng = random.Random(36)
        for m in (*OUTCOME_COUNTS, 2000):
            weights = make(rng, m)
            sys_ = EventSystem(backend, weights, [1])
            assert sys_._support() == reference_support(sys_._summands)
            # the same column with every zero weight raised to the least
            # positive one, in the same spelling
            exact = list(map(Fraction, weights))
            exact = [w or min(filter(None, exact)) for w in exact]
            total = sum(exact)
            exact = [w / total for w in exact]
            if backend is REAL:
                weights = list(map(float, exact))
            elif isinstance(weights[0], str):
                weights = [f"{w.numerator}/{w.denominator}" for w in exact]
            else:
                weights = exact
            sys_ = EventSystem(backend, weights, [1])
            assert sys_._support() == sys_.full_mask == reference_support(sys_._summands)


def reference(value):
    """A Polynomial, or a constant, as the Fraction-coefficient reference."""
    return FractionPolynomial(value.coeffs if isinstance(value, Polynomial) else (value,))


def reference_mass(weights, mask):
    """Coefficients of the sum of the reference weights under `mask`."""
    total = FractionPolynomial()
    for o in bits(mask):
        total = total + weights[o]
    return total.coeffs


def coeffs(value):
    return reference(value).coeffs


class TestPolynomialAgainstReference:
    """Explicit POLYNOMIAL weights are summed as they are; every mass, S_k,
    union and atom equals the same sum over Fraction-coefficient reference
    polynomials, added one outcome at a time."""

    @staticmethod
    def weights(rng, m):
        # w_o = a_o + (x_o - y_o) P^d sums to one when y is x shuffled;
        # where x_o = y_o the weight is a plain Fraction or 0
        d = rng.randint(1, 4)
        a, x = rational_weights(rng, m), rational_weights(rng, m)
        y = rng.sample(x, m)
        weights = [c + (u - v) * P**d for c, u, v in zip(a, x, y)]
        return [w if w.degree > 0 else sum(w.coeffs, 0) for w in weights]

    @pytest.mark.parametrize("m", OUTCOME_COUNTS)
    def test_explicit_system(self, m):
        rng = random.Random(300 + m)
        for _ in range(3):
            weights = self.weights(rng, m)
            n = rng.randint(1, 5)
            events = [rng.getrandbits(m) for _ in range(n)]
            sys_ = EventSystem(POLYNOMIAL, weights, events)
            ref = [reference(w) for w in weights]
            for mask in [0, (1 << m) - 1, *(rng.getrandbits(m) for _ in range(6))]:
                got = sys_.mass(mask)
                assert isinstance(got, Polynomial) and coeffs(got) == reference_mass(ref, mask)
            union = 0
            for mask in events:
                union |= mask
            assert coeffs(union_prob_exact(sys_)) == reference_mass(ref, union)
            for k in range(1, n + 1):
                want = FractionPolynomial()
                for index_set in combinations(range(n), k):
                    inter = (1 << m) - 1
                    for i in index_set:
                        inter &= events[i]
                    want = want + FractionPolynomial(reference_mass(ref, inter))
                assert coeffs(sys_._symmetric_sum(k)) == want.coeffs
            signature = set(rng.sample(range(n), rng.randint(1, n)))
            inside = (1 << m) - 1
            for i in range(n):
                inside &= events[i] if i in signature else ~events[i]
            assert coeffs(atom_prob(sys_, signature)) == reference_mass(ref, inside)

    @pytest.mark.parametrize("m", [1, 4, 7, 10])
    def test_symbolic_product_atoms(self, m):
        rng = random.Random(400 + m)
        shapes = (P, 1 - P, (1 + P) / 2, P**2)
        probs = [rng.choice(shapes) for _ in range(m)]
        defs = [[c for c in range(m) if rng.random() < 0.4] for _ in range(rng.randint(1, 4))]
        sys_ = bernoulli_product(probs, defs, backend=POLYNOMIAL)
        # outcome s has coordinate c on iff bit c of s is set
        one = FractionPolynomial((1,))
        outcome = [one]
        for p in map(reference, probs):
            outcome = [w * (one - p) for w in outcome] + [w * p for w in outcome]
        n = len(defs)
        for size in range(1, n + 1):
            for signature in combinations(range(n), size):
                want = FractionPolynomial()
                for s, w in enumerate(outcome):
                    occurs = [all(s >> c & 1 for c in d) for d in defs]
                    if all(occurs[i] == (i in signature) for i in range(n)):
                        want = want + w
                assert coeffs(atom_prob(sys_, signature)) == want.coeffs
