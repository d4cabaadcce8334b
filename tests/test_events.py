"""Event systems: construction, probabilities, atoms, sharpened denominator."""

import math
import random
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
from chordalbounds import values
from chordalbounds.poly import P, Polynomial
from chordalbounds.reliability import BRIDGE_PATH_ORDER
from chordalbounds.values import POLYNOMIAL, RATIONAL, REAL, _read_rational, _read_rational_column

from helpers import (
    brute_force_alpha_prime,
    exact_mass,
    random_chordal_graph,
    random_graph,
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
        for text in texts:
            assert self._outcome(self._read, text) == self._outcome(Fraction, text), repr(text)

    def test_numbers(self):
        assert _read_rational(3) == (3, 1)
        assert _read_rational(Fraction(-2, 4)) == (-1, 2)
        with pytest.raises(TypeError, match="float"):
            _read_rational(0.5)

    def test_plain_column_is_read_whole(self, monkeypatch):
        rng = random.Random(12)
        column = ["007/0100", "0/1", "5/5"]
        column += [f"{rng.randrange(10 ** rng.randint(1, 30))}/{rng.randint(1, 10 ** 30)}" for _ in range(500)]
        want = list(map(_read_rational, column))
        monkeypatch.setattr(values, "_read_rational", None)
        assert _read_rational_column(column) == want

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
        def outcome(read):
            try:
                return read()
            except (TypeError, ValueError) as exc:
                return type(exc), str(exc)

        got = outcome(lambda: _read_rational_column(column))
        assert got == outcome(lambda: list(map(_read_rational, column)))
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
        # atom_prob materializes all 2**19 outcomes; a naive float sum of
        # their weights misses one by 2.5e-12
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
        assert (sys_._planes != (None,)) == sliced

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
