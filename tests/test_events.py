"""Event systems: construction, probabilities, atoms, sharpened denominator."""

import math
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

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
    complete_graph,
    edgeless_graph,
    from_outcomes,
    independence_number,
    intersection_prob,
    path_event_system,
    path_graph,
    union_prob_exact,
)
from chordalbounds import events, values
from chordalbounds.errors import ParseError
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
    exact_mass,
    product_outcomes,
    random_chordal_graph,
    random_graph,
    random_rational_system,
    random_real_system,
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
            assert outcome == self._outcome(Fraction, text), repr(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1/0", "zero denominator in '1/0'"),
            ("-1/0", "zero denominator in '-1/0'"),
            ("3/", "Invalid literal for Fraction: '3/'"),
            ("1" * 5000, "Exceeds the limit (4300"),
        ],
        ids=["zero-denominator", "signed-zero-denominator", "malformed", "long-integer"],
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
        column = ["007/0100", "0/1", "5/5"]
        column += [f"{rng.randrange(10 ** rng.randint(1, 30))}/{rng.randint(1, 10 ** 30)}" for _ in range(500)]
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

    def test_empty_event_list(self):
        with pytest.raises(DomainError, match="at least one event"):
            bernoulli_product([0.5], [])

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
    def test_symmetric_sums_read_the_mass_cache_without_filling_it(self, backend):
        # S_k over C(12, k) index sets, each its own mask: none is kept.
        # A cached mass is read as it is.
        probs = [backend.one * Fraction(i + 3, 20) for i in range(12)]
        sys_ = bernoulli_product(probs, [[i] for i in range(12)], backend=backend)
        explicit = product_outcomes(sys_)
        sys_._mass_cache[0b11] = backend.one * 7
        cache = dict(sys_._mass_cache)
        for k in range(1, 13):
            want = sum(intersection_prob(explicit, s) for s in combinations(range(12), k))
            got = sys_._symmetric_sum(k)
            if k == 2:
                got -= 7 - probs[0] * probs[1]
            assert got == want if backend is RATIONAL else abs(got - want) <= 1e-12
            assert sys_._mass_cache == cache

    def test_shared_probability_symmetric_sums_use_the_count_cache(self):
        sys_ = bernoulli_product([P] * 6, [[i, i + 1] for i in range(5)], backend=POLYNOMIAL)
        # 4 adjacent pairs need 3 coordinates, the other 6 pairs need 4.
        assert sys_._symmetric_sum(2) == 4 * P**3 + 6 * P**4
        assert set(sys_._mass_cache) == {3, 4}

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
