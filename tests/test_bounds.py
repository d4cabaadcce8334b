"""Bound formulas: frozen values, cross-validation against the defining
constructions, ordering invariants."""

import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from chordalbounds import (
    DomainError,
    EventSystem,
    bernoulli_product,
    build_graph,
    chordal_lower,
    chordal_upper,
    classical_bonferroni,
    clique_sieve_sum,
    complete_graph,
    counterexample_family,
    counterexample_graph,
    cycle_graph,
    edgeless_graph,
    from_outcomes,
    generalized_lower,
    hunter_lower_tree,
    hunter_upper_tree,
    intersection_prob,
    kwerel2_lower,
    kwerel_lower,
    kwerel_upper,
    path_event_system,
    path_graph,
    path_lower,
    seneta_lower,
    seneta_upper,
    tree_graph,
    union_prob_exact,
)
from chordalbounds import bounds, graphs
from chordalbounds.poly import P, Polynomial
from chordalbounds.reliability import DEFAULT_BOUND_KINDS, bridge_network
from chordalbounds.values import POLYNOMIAL, RATIONAL, REAL

from helpers import (
    BRIDGE_PATH_ORDER,
    brute_force_alpha,
    brute_force_alpha_prime,
    brute_force_clique_sum,
    brute_force_clique_terms,
    brute_force_symmetric_sums,
    float_moment_bound,
    float_product_chordal_sieve,
    float_product_symmetric_sum,
    moment_coefficients,
    moment_lp,
    product_outcomes,
    random_chordal_graph,
    random_graph,
    random_rational_system,
    random_real_system,
)

EQ_EXACT = Polynomial((0, 0, 2, 2, -5, 2))
EQ_TREE = Polynomial((0, 0, 1, 1, -1, 0, Fraction(-1, 2)))
EQ_PATH_AVG = Polynomial((0, 0, 1, 1, Fraction(-5, 4), 0, Fraction(-1, 4)))
EQ_DEPTH1 = Polynomial((0, 0, 2, 2, -5, 0, -1))


def bridge_system():
    return path_event_system(bridge_network(), paths=BRIDGE_PATH_ORDER)


def identical_events_system(n, q=Fraction(2, 5)):
    return from_outcomes([q, 1 - q], [[0]] * n, backend=RATIONAL)


def join_pair_graph(n, j, k):
    """Complete graph on {j, k} joined to isolated vertices elsewhere."""
    edges = set()
    if j != k:
        edges.add((min(j, k), max(j, k)))
    for i in range(n):
        if i not in (j, k):
            edges.add((min(i, j), max(i, j)))
            edges.add((min(i, k), max(i, k)))
    return build_graph(n, sorted(edges))


def join_set_graph(n, members):
    """Complete graph on `members` joined to isolated vertices elsewhere."""
    members = sorted(members)
    edges = list(combinations(members, 2))
    others = [i for i in range(n) if i not in set(members)]
    edges += [(min(i, m), max(i, m)) for i in others for m in members]
    return build_graph(n, sorted(set(edges)))


def brute_symmetric_sum(sys_, k):
    total = sys_.backend.zero
    for index_set in combinations(range(sys_.event_count), k):
        total = total + intersection_prob(sys_, index_set)
    return total


def brute_bonferroni(sys_, cap):
    total = sys_.backend.zero
    for k in range(1, min(cap, sys_.event_count) + 1):
        for index_set in combinations(range(sys_.event_count), k):
            p = intersection_prob(sys_, index_set)
            total = total + p if k % 2 == 1 else total - p
    return total


class TestSymmetricSums:
    """Binomial moments and product-form enumeration against the sum of
    intersection probabilities over every index set of one size."""

    def test_rational_explicit_matches_brute_force(self):
        rng = random.Random(131)
        for _ in range(30):
            sys_ = random_rational_system(rng, rng.randint(1, 7))
            for k in range(1, sys_.event_count + 1):
                # S_k in integer numerators over the column's denominator
                assert sys_._value(sys_._symmetric_sum(k)) == brute_symmetric_sum(sys_, k)

    def test_real_explicit_matches_brute_force(self):
        rng = random.Random(137)
        for _ in range(30):
            sys_ = random_real_system(rng, rng.randint(1, 7))
            for k in range(1, sys_.event_count + 1):
                assert sys_._symmetric_sum(k) == pytest.approx(
                    brute_symmetric_sum(sys_, k), abs=1e-12
                )

    def test_product_matches_its_outcomes(self):
        rng = random.Random(139)
        for _ in range(15):
            m = rng.randint(1, 8)
            probs = [Fraction(rng.randint(0, 8), 8) for _ in range(m)]
            event_defs = [
                [c for c in range(m) if rng.random() < 0.4] for _ in range(rng.randint(1, 6))
            ]
            sys_ = bernoulli_product(probs, event_defs, backend=RATIONAL)
            explicit = product_outcomes(sys_)
            for k in range(1, sys_.event_count + 1):
                assert sys_._value(sys_._symmetric_sum(k)) == explicit._value(explicit._symmetric_sum(k))

    def test_bonferroni_is_alternating_subset_sum(self):
        rng = random.Random(149)
        for _ in range(20):
            n = rng.randint(1, 7)
            for sys_ in (random_rational_system(rng, n), random_real_system(rng, n)):
                for r in range(1, 4):
                    upper = classical_bonferroni(sys_, r, "upper").value
                    lower = classical_bonferroni(sys_, r, "lower").value
                    assert upper == pytest.approx(brute_bonferroni(sys_, 2 * r - 1), abs=1e-12)
                    assert lower == pytest.approx(brute_bonferroni(sys_, 2 * r), abs=1e-12)

    def test_twenty_two_events(self):
        # About 4 million index sets for the brute-force sums; outcome 0
        # lies in every event, so the 22-fold intersection has mass.
        rng = random.Random(151)
        n, m = 22, 64
        raw = [rng.randint(1, 9) for _ in range(m)]
        weights = [Fraction(x, sum(raw)) for x in raw]
        events = [rng.getrandbits(m) | 1 for _ in range(n)]
        sys_ = EventSystem(RATIONAL, weights, events)
        exact = union_prob_exact(sys_)
        everything = intersection_prob(sys_, range(n))
        assert classical_bonferroni(sys_, 11, "lower").value == exact
        assert classical_bonferroni(sys_, 12, "upper").value == exact
        assert classical_bonferroni(sys_, 11, "upper").value == exact + everything
        for m_order in range(n):
            assert generalized_lower(sys_, m_order).value <= exact
        assert generalized_lower(sys_, n - 1).value == exact
        assert kwerel_lower(sys_).value <= exact
        assert kwerel2_lower(sys_).value <= exact


def _product_system(rng, n_events: int, backend):
    """A random product system over at most 8 coordinates: exact
    probabilities k/7 for RATIONAL, floats for REAL."""
    m = rng.randint(1, 8)
    if backend is RATIONAL:
        probs = [Fraction(rng.randint(0, 7), 7) for _ in range(m)]
    else:
        probs = [rng.random() for _ in range(m)]
    events = [rng.sample(range(m), rng.randint(1, min(m, 3))) for _ in range(n_events)]
    return bernoulli_product(probs, events, backend=backend)


def _polynomial_product_system(rng, n_events: int):
    """A random symbolic product system over at most 6 coordinates, each
    on with probability p, 1 - p, (1 + p) / 2 or p**2."""
    m = rng.randint(1, 6)
    probs = [rng.choice((P, 1 - P, (1 + P) / 2, P**2)) for _ in range(m)]
    events = [rng.sample(range(m), rng.randint(1, min(m, 3))) for _ in range(n_events)]
    return bernoulli_product(probs, events, backend=POLYNOMIAL)


def _polynomial_system(rng, n_events: int) -> EventSystem:
    """Explicit outcomes weighing p * x + (1 - p) * y for two random
    distributions x and y."""
    x = random_rational_system(rng, n_events, max_outcomes=8)
    y = random_rational_system(rng, n_events, max_outcomes=len(x.weights))
    y_weights = list(y.weights) + [0] * (len(x.weights) - len(y.weights))
    weights = [P * a + (1 - P) * b for a, b in zip(x.weights, y_weights)]
    return EventSystem(POLYNOMIAL, weights, x.events)


class TestCliqueSieveSum:
    CAPS = (None, 1, 2, 3, 4, 5)

    def test_matches_the_clique_definition(self):
        # Chordal graphs are summed along their elimination order; each
        # system kind against the sum over every clique, disconnected
        # graphs included.
        rng = random.Random(1801)
        disconnected = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            g = random_chordal_graph(rng, n)
            disconnected += graphs.connected_components(g) > 1
            systems = [
                random_rational_system(rng, n),
                random_real_system(rng, n, max_outcomes=16),
                _polynomial_system(rng, n),
                _product_system(rng, n, RATIONAL),
                _product_system(rng, n, REAL),
            ]
            for sys_ in systems:
                terms = brute_force_clique_terms(sys_, g)
                for cap in self.CAPS:
                    got = clique_sieve_sum(sys_, g, size_cap=cap)
                    want = brute_force_clique_sum(terms, cap)
                    if sys_.backend is REAL:
                        assert abs(got - float(want)) <= 1e-12 * max(1.0, abs(got)), (g, cap)
                    else:
                        assert got == want, (g, cap, sys_.backend.name)
        assert disconnected >= 50

    def test_non_chordal_graphs_match_the_clique_definition(self):
        # Graphs with no perfect elimination order are summed over the
        # cones their search order walks: each system kind against the sum
        # over every clique, at every cap.
        rng = random.Random(1803)
        cocktail = build_graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if v != u + 4])
        cases = [cycle_graph(n) for n in range(4, 10)] + [counterexample_graph(), cocktail]
        cases += [random_graph(rng, rng.randint(4, 9), rng.uniform(0.3, 0.7)) for _ in range(120)]
        assert sum(not graphs.is_chordal(g) for g in cases) >= 60
        for g in cases:
            n = g.vertex_count
            systems = [
                random_rational_system(rng, n),
                random_real_system(rng, n, max_outcomes=16),
                _product_system(rng, n, RATIONAL),
                _product_system(rng, n, REAL),
                _polynomial_product_system(rng, n),
            ]
            for sys_ in systems:
                terms = brute_force_clique_terms(sys_, g)
                for cap in (None, *range(1, n + 1)):
                    got = clique_sieve_sum(sys_, g, size_cap=cap)
                    want = brute_force_clique_sum(terms, cap)
                    if sys_.backend is REAL:
                        assert abs(got - float(want)) <= 1e-12 * max(1.0, abs(got)), (g, cap)
                    else:
                        assert got == want, (g, cap, sys_.backend.name)

    @pytest.mark.parametrize("cap", CAPS)
    def test_chordal_graphs_walk_no_clique(self, monkeypatch, cap):
        # K12 and a random chordal graph are summed one cone per vertex,
        # with no cone walk; a cycle, which is not chordal, is walked.
        def walk(*args, **kwargs):
            raise AssertionError("cliques walked")

        rng = random.Random(1802)
        chordal = [complete_graph(12), random_chordal_graph(rng, 12)]
        systems = [random_rational_system(rng, 12), _product_system(rng, 12, RATIONAL)]
        cases = [(sys_, g) for sys_ in systems for g in chordal]
        want = [brute_force_clique_sum(brute_force_clique_terms(sys_, g), cap) for sys_, g in cases]
        monkeypatch.setattr(graphs, "_cone_walk", walk)
        assert [clique_sieve_sum(sys_, g, size_cap=cap) for sys_, g in cases] == want
        for sys_ in systems:
            path_lower(sys_, range(12))
            seneta_upper(sys_, 3, 7)
            hunter_upper_tree(sys_, path_graph(12))
            with pytest.raises(AssertionError, match="cliques walked"):
                clique_sieve_sum(sys_, cycle_graph(12), size_cap=cap)


class TestClassicalBonferroni:
    def test_bridge_depth1_lower(self):
        assert classical_bonferroni(bridge_system(), 1, "lower").value == EQ_DEPTH1

    def test_full_depth_is_exact(self):
        # lower includes every subset once 2r >= n; upper needs 2r - 1 >= n
        rng = random.Random(31)
        for _ in range(20):
            sys_ = random_real_system(rng, rng.randint(1, 5), max_outcomes=32)
            n = sys_.event_count
            exact = union_prob_exact(sys_)
            lower = classical_bonferroni(sys_, (n + 1) // 2, "lower").value
            upper = classical_bonferroni(sys_, n // 2 + 1, "upper").value
            assert lower == pytest.approx(exact, abs=1e-9)
            assert upper == pytest.approx(exact, abs=1e-9)

    def test_single_event_upper(self):
        sys_ = from_outcomes([0.3, 0.7], [[0]])
        report = classical_bonferroni(sys_, 1, "upper")
        assert report.value == pytest.approx(0.3)
        assert report.direction == "upper" and report.truncation == 1

    def test_invalid_arguments(self):
        sys_ = from_outcomes([1.0], [[0]])
        with pytest.raises(DomainError):
            classical_bonferroni(sys_, 0, "lower")
        with pytest.raises(DomainError):
            classical_bonferroni(sys_, 1, "sideways")


class TestChordalUpper:
    def test_edgeless_is_union_bound(self):
        rng = random.Random(37)
        for _ in range(10):
            n = rng.randint(1, 5)
            sys_ = random_real_system(rng, n, max_outcomes=32)
            expected = sum(intersection_prob(sys_, (v,)) for v in range(n))
            assert chordal_upper(sys_, edgeless_graph(n)).value == pytest.approx(expected)

    def test_complete_is_exact(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(1, 6)
            sys_ = random_real_system(rng, n, max_outcomes=32)
            value = chordal_upper(sys_, complete_graph(n)).value
            assert value == pytest.approx(union_prob_exact(sys_), abs=1e-9)

    def test_tree_is_hunter_bracket(self):
        rng = random.Random(43)
        sys_ = random_real_system(rng, 4, max_outcomes=32)
        tree = tree_graph(4, [(0, 1), (1, 2), (1, 3)])
        assert chordal_upper(sys_, tree).value == pytest.approx(
            hunter_upper_tree(sys_, tree).value
        )

    def test_non_chordal_rejected_without_override(self):
        sys_ = from_outcomes([1.0], [[0]] * 4)
        with pytest.raises(DomainError, match="not chordal"):
            chordal_upper(sys_, cycle_graph(4))
        chordal_upper(sys_, cycle_graph(4), unchecked=True)

    def test_vertex_event_mismatch(self):
        sys_ = from_outcomes([1.0], [[0]])
        with pytest.raises(DomainError):
            chordal_upper(sys_, path_graph(3))


class TestChordalLower:
    def test_complete_is_exact(self):
        rng = random.Random(47)
        for _ in range(10):
            n = rng.randint(1, 6)
            sys_ = random_real_system(rng, n, max_outcomes=32)
            report = chordal_lower(sys_, complete_graph(n))
            assert report.alpha_used == 1
            assert report.value == pytest.approx(union_prob_exact(sys_), abs=1e-9)

    def test_counterexample_override_gives_four_thirds(self):
        sys_ = from_outcomes([Fraction(1)], [[0]] * 8, backend=RATIONAL)
        report = chordal_lower(sys_, counterexample_graph(), unchecked=True)
        assert report.value == Fraction(4, 3)

    def test_family_override_values(self):
        for k in (3, 5):
            g = counterexample_family(k)
            sys_ = from_outcomes([Fraction(1)], [[0]] * g.vertex_count, backend=RATIONAL)
            report = chordal_lower(sys_, g, unchecked=True)
            assert report.value == Fraction(1 + 2**k, 3)

    def test_two_independent_events_on_an_edge(self):
        sys_ = bernoulli_product_half()
        report = chordal_lower(sys_, complete_graph(2))
        assert report.value == pytest.approx(0.75)

    def test_non_negative_untruncated(self):
        rng = random.Random(53)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_chordal_graph(rng, n)
            sys_ = random_real_system(rng, n, max_outcomes=64)
            assert chordal_lower(sys_, g).value >= -1e-9

    def test_sharpened_dominates_and_stays_valid(self):
        rng = random.Random(59)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_chordal_graph(rng, n)
            sys_ = random_real_system(rng, n, max_outcomes=64)
            plain = chordal_lower(sys_, g).value
            sharp = chordal_lower(sys_, g, sharpened=True).value
            assert sharp >= plain - 1e-9
            assert sharp <= union_prob_exact(sys_) + 1e-9


def bernoulli_product_half():
    from chordalbounds import bernoulli_product

    return bernoulli_product([0.5, 0.5], [[0], [1]])


class TestHunterTree:
    def test_bridge_demo_path_order(self):
        assert hunter_lower_tree(bridge_system(), path_graph(4)).value == EQ_TREE

    def test_star_formula(self):
        rng = random.Random(61)
        n = 5
        sys_ = random_real_system(rng, n, max_outcomes=32)
        star = build_graph(n, [(0, i) for i in range(1, n)])
        bracket = sum(intersection_prob(sys_, (v,)) for v in range(n)) - sum(
            intersection_prob(sys_, (0, i)) for i in range(1, n)
        )
        report = hunter_lower_tree(sys_, star)
        assert report.alpha_used == n - 1
        assert report.value == pytest.approx(bracket / (n - 1))

    def test_matches_chordal_lower_on_random_trees(self):
        # Each Hunter report is the untruncated chordal report of its tree,
        # equal in every field but the kind, on explicit REAL and RATIONAL
        # systems and on product systems, down to a single event.
        rng = random.Random(67)
        makers = [
            lambda n: random_real_system(rng, n, max_outcomes=32),
            lambda n: random_rational_system(rng, n),
            lambda n: _product_system(rng, n, REAL),
            lambda n: _product_system(rng, n, RATIONAL),
        ]
        for trial in range(60):
            n = 1 if trial < len(makers) else rng.randint(1, 8)
            tree = tree_graph(n, [(rng.randrange(v), v) for v in range(1, n)])
            sys_ = makers[trial % len(makers)](n)
            for hunter, chordal in ((hunter_upper_tree, chordal_upper), (hunter_lower_tree, chordal_lower)):
                want = chordal(sys_, tree)
                report = hunter(sys_, tree)
                assert report.kind == want.kind.replace("chordal", "hunter")
                assert replace(report, kind=want.kind) == want

    def test_rejects_non_tree(self):
        sys_ = from_outcomes([1.0], [[0]] * 3)
        with pytest.raises(DomainError, match="not a tree"):
            hunter_lower_tree(sys_, cycle_graph(3))
        with pytest.raises(DomainError, match="not a tree"):
            hunter_upper_tree(sys_, edgeless_graph(3))
        # chordal, with one edge fewer than vertices, but not connected
        triangle_and_vertex = build_graph(4, [(0, 1), (1, 2), (0, 2)])
        sys_ = from_outcomes([1.0], [[0]] * 4)
        for hunter in (hunter_upper_tree, hunter_lower_tree):
            with pytest.raises(DomainError, match="^graph is not a tree$"):
                hunter(sys_, triangle_and_vertex)


class TestPathLower:
    def test_matches_hunter_on_the_path(self):
        sys_ = bridge_system()
        assert path_lower(sys_, (0, 1, 2, 3)).value == hunter_lower_tree(
            sys_, path_graph(4)
        ).value

    def test_single_event(self):
        sys_ = from_outcomes([0.3, 0.7], [[0]])
        assert path_lower(sys_, (0,)).value == pytest.approx(0.3)

    def test_two_independent_halves(self):
        assert path_lower(bernoulli_product_half(), (0, 1)).value == pytest.approx(0.75)

    def test_rejects_non_permutation(self):
        sys_ = from_outcomes([1.0], [[0]] * 3)
        with pytest.raises(DomainError):
            path_lower(sys_, (0, 1, 1))


class TestKwerel:
    def test_bridge_lower_value(self):
        assert kwerel_lower(bridge_system()).value == EQ_PATH_AVG

    def test_single_event(self):
        sys_ = from_outcomes([0.3, 0.7], [[0]])
        assert kwerel_lower(sys_).value == pytest.approx(0.3)
        assert kwerel_upper(sys_).value == pytest.approx(0.3)

    def test_lower_is_mean_of_path_bounds(self):
        rng = random.Random(71)
        for _ in range(10):
            n = rng.randint(2, 5)
            sys_ = random_rational_system(rng, n)
            orders = [p for p in permutations(range(n)) if p[0] < p[-1]]
            mean = sum(path_lower(sys_, o).value for o in orders) / len(orders)
            assert kwerel_lower(sys_).value == mean

    def test_upper_identical_events_collapse(self):
        q = Fraction(2, 5)
        sys_ = identical_events_system(4, q)
        assert kwerel_upper(sys_).value == q

    def test_upper_bridge_value(self):
        expected = Polynomial((0, 0, 2, 2, Fraction(-5, 2), 0, Fraction(-1, 2)))
        assert kwerel_upper(bridge_system()).value == expected


class TestSeneta:
    def test_equal_indices_reduce_to_star_denominator(self):
        rng = random.Random(73)
        n = 4
        sys_ = random_rational_system(rng, n)
        j = 2
        report = seneta_lower(sys_, j, j)
        assert report.alpha_used == n - 1
        bracket = sum(intersection_prob(sys_, (v,)) for v in range(n)) - sum(
            intersection_prob(sys_, (i, j)) for i in range(n) if i != j
        )
        assert report.value == bracket / (n - 1)

    def test_matches_chordal_lower_on_join_graph(self):
        rng = random.Random(79)
        for _ in range(8):
            n = rng.randint(3, 6)
            sys_ = random_rational_system(rng, n)
            for j in range(n):
                for k in range(n):
                    expected = chordal_lower(sys_, join_pair_graph(n, j, k)).value
                    assert seneta_lower(sys_, j, k).value == expected

    def test_identical_events_three(self):
        q = Fraction(1, 3)
        sys_ = identical_events_system(3, q)
        assert seneta_lower(sys_, 0, 1).value == q

    def test_too_few_events(self):
        sys_ = from_outcomes([1.0], [[0]] * 2)
        with pytest.raises(DomainError):
            seneta_lower(sys_, 0, 1)
        seneta_lower(sys_, 0, 0)  # delta = 1 only needs n > 1

    @pytest.mark.parametrize("j, k", [(0, 3), (3, 0), (-1, 1), (1, -1)])
    def test_indices_out_of_range(self, j, k):
        sys_ = from_outcomes([1.0], [[0]] * 3)
        for bound in (seneta_lower, seneta_upper):
            with pytest.raises(DomainError, match="distinguished indices out of range"):
                bound(sys_, j, k)

    def test_upper_is_bracket(self):
        rng = random.Random(83)
        n = 4
        sys_ = random_rational_system(rng, n)
        assert seneta_upper(sys_, 0, 1).value == seneta_lower(sys_, 0, 1).value * (n - 2)


class TestKwerel2:
    def test_mean_of_seneta_over_ordered_pairs(self):
        rng = random.Random(89)
        for _ in range(8):
            n = rng.randint(3, 6)
            sys_ = random_rational_system(rng, n)
            values = [
                seneta_lower(sys_, j, k).value
                for j in range(n)
                for k in range(n)
                if j != k
            ]
            assert kwerel2_lower(sys_).value == sum(values) / len(values)

    def test_equals_generalized_order_two(self):
        rng = random.Random(97)
        for _ in range(8):
            n = rng.randint(3, 6)
            sys_ = random_rational_system(rng, n)
            assert kwerel2_lower(sys_).value == generalized_lower(sys_, 2).value

    def test_identical_events_three(self):
        q = Fraction(1, 4)
        assert kwerel2_lower(identical_events_system(3, q)).value == q

    def test_needs_three_events(self):
        sys_ = from_outcomes([1.0], [[0]] * 2)
        with pytest.raises(DomainError):
            kwerel2_lower(sys_)


class TestGeneralizedLower:
    def test_order_zero_is_singleton_average(self):
        rng = random.Random(101)
        n = 5
        sys_ = random_rational_system(rng, n)
        expected = sum(intersection_prob(sys_, (v,)) for v in range(n)) / n
        assert generalized_lower(sys_, 0).value == expected

    def test_matches_average_over_join_graphs(self):
        rng = random.Random(103)
        for _ in range(5):
            n = rng.randint(2, 6)
            sys_ = random_rational_system(rng, n)
            for m in range(n):
                values = [
                    chordal_lower(sys_, join_set_graph(n, members)).value
                    for members in combinations(range(n), m)
                ]
                mean = sum(values) / comb(n, m)
                assert generalized_lower(sys_, m).value == mean

    def test_order_out_of_range(self):
        sys_ = from_outcomes([1.0], [[0]] * 3)
        with pytest.raises(DomainError):
            generalized_lower(sys_, 3)
        with pytest.raises(DomainError):
            generalized_lower(sys_, -1)


class TestMomentLP:
    """Bounds that read only S_1..S_m never beat the exact optimum of the
    moment linear program over the distribution of the number of events
    that occur."""

    @staticmethod
    def systems():
        rng = random.Random(113)
        for n in range(3, 10):
            for _ in range(6):
                yield random_rational_system(rng, n)

    def test_no_moment_bound_beats_its_lp_optimum(self):
        for sys_ in self.systems():
            n = sys_.event_count
            sums = brute_force_symmetric_sums(sys_, min(n, 4))
            reports = [
                (1, classical_bonferroni(sys_, 1, "upper")),
                (2, classical_bonferroni(sys_, 1, "lower")),
                (2, kwerel_upper(sys_)),
                (2, kwerel_lower(sys_)),
                (3, kwerel2_lower(sys_)),
                *((m + 1, generalized_lower(sys_, m)) for m in range(min(n, 4))),
            ]
            optima = {m: moment_lp(n, sums[:m]) for m, _ in reports}
            for m, report in reports:
                lowest, highest = optima[m]
                if report.direction == "upper":
                    assert report.value >= highest, (n, report.kind)
                else:
                    assert report.value <= lowest, (n, report.kind)

    def test_kwerel_upper_is_the_lp_optimum(self):
        for sys_ in self.systems():
            n = sys_.event_count
            _, highest = moment_lp(n, brute_force_symmetric_sums(sys_, 2))
            assert min(1, kwerel_upper(sys_).value) == highest


class TestOrderingInvariants:
    def test_truncation_monotonicity_of_raw_sums(self):
        rng = random.Random(107)
        for _ in range(40):
            n = rng.randint(1, 7)
            g = random_chordal_graph(rng, n)
            sys_ = random_real_system(rng, n, max_outcomes=64)
            full = clique_sieve_sum(sys_, g)
            for r in range(1, n + 1):
                truncated = clique_sieve_sum(sys_, g, size_cap=2 * r)
                assert full >= truncated - 1e-9

    def test_truncated_bounds_stabilize(self):
        rng = random.Random(109)
        for _ in range(20):
            n = rng.randint(1, 6)
            g = random_chordal_graph(rng, n)
            sys_ = random_real_system(rng, n, max_outcomes=32)
            r_low = (n + 1) // 2      # size cap 2r >= n
            r_up = n // 2 + 1         # size cap 2r - 1 >= n
            assert chordal_upper(sys_, g, r=r_up).value == chordal_upper(sys_, g).value
            assert chordal_lower(sys_, g, r=r_low).value == chordal_lower(sys_, g).value

    def test_complete_graph_truncations_match_classical(self):
        rng = random.Random(113)
        for _ in range(15):
            n = rng.randint(1, 6)
            sys_ = random_real_system(rng, n, max_outcomes=32)
            g = complete_graph(n)
            for r in range(1, (n + 1) // 2 + 1):
                assert chordal_upper(sys_, g, r=r).value == pytest.approx(
                    classical_bonferroni(sys_, r, "upper").value, abs=1e-12
                )
                assert chordal_lower(sys_, g, r=r).value == pytest.approx(
                    classical_bonferroni(sys_, r, "lower").value, abs=1e-12
                )

    def test_sandwich_sample(self):
        rng = random.Random(127)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_chordal_graph(rng, n)
            sys_ = random_real_system(rng, n, max_outcomes=64)
            exact = union_prob_exact(sys_)
            upper_full = chordal_upper(sys_, g).value
            lower_full = chordal_lower(sys_, g).value
            assert lower_full <= exact + 1e-9
            assert exact <= upper_full + 1e-9
            for r in range(1, (n + 1) // 2 + 1):
                assert chordal_lower(sys_, g, r=r).value <= lower_full + 1e-9
                assert upper_full <= chordal_upper(sys_, g, r=r).value + 1e-9


class TestKindTable:
    @pytest.mark.parametrize("r", [None, 1, 2])
    @pytest.mark.parametrize("kind", bounds.KINDS)
    def test_every_kind_reports_its_name(self, kind, r):
        # A row wired to the wrong function or argument reports another kind.
        sys_ = random_rational_system(random.Random(131), 5)
        report = bounds.bound(kind, sys_, g=path_graph(5), r=r, unchecked=False, j=0, k=1, m=2)
        assert report.kind == kind
        if kind.startswith("bonferroni"):
            assert report.truncation == (1 if r is None else r)
        elif kind.startswith("chordal"):
            assert report.truncation == r

    def test_rows_name_public_functions(self):
        assert {name for name, _, _ in bounds.KINDS.values()} <= set(bounds.__all__)

    def test_reliability_kinds_are_kinds(self):
        assert set(DEFAULT_BOUND_KINDS) <= set(bounds.KINDS)

    def test_rows_match_the_functions(self):
        rng = random.Random(137)
        n = 6
        sys_ = random_rational_system(rng, n)
        g = random_chordal_graph(rng, n)
        tree = path_graph(n)
        order = rng.sample(range(n), n)
        cases = [
            ("bonferroni-upper", {}, classical_bonferroni(sys_, 1, "upper")),
            ("bonferroni-lower", {"r": 2}, classical_bonferroni(sys_, 2, "lower")),
            ("chordal-upper", {"g": g, "r": 1}, chordal_upper(sys_, g, r=1)),
            ("chordal-lower", {"g": g}, chordal_lower(sys_, g)),
            ("chordal-lower-sharpened", {"g": g, "r": 1}, chordal_lower(sys_, g, r=1, sharpened=True)),
            ("hunter-upper", {"g": tree}, hunter_upper_tree(sys_, tree)),
            ("hunter-lower", {"g": tree}, hunter_lower_tree(sys_, tree)),
            ("path-lower", {}, path_lower(sys_, range(n))),
            ("path-lower", {"order": order}, path_lower(sys_, order)),
            ("kwerel-upper", {}, kwerel_upper(sys_)),
            ("kwerel-lower", {}, kwerel_lower(sys_)),
            ("seneta-upper", {"j": 4, "k": 1}, seneta_upper(sys_, 4, 1)),
            ("seneta-lower", {"j": 2, "k": 2}, seneta_lower(sys_, 2, 2)),
            ("kwerel2-lower", {}, kwerel2_lower(sys_)),
            ("generalized-lower", {"m": 3}, generalized_lower(sys_, 3)),
        ]
        assert {kind for kind, _, _ in cases} == set(bounds.KINDS)
        for kind, inputs, want in cases:
            # Inputs a kind does not read, and inputs set to None, change nothing.
            unread = {name: None for name in ("g", "r", "order", "j", "k", "m") if name not in inputs}
            assert bounds.bound(kind, sys_, **inputs, **unread) == want, kind
            assert bounds.bound(kind, sys_, **{"unchecked": True, "m": 1, **inputs}).value == want.value

    def test_left_out_inputs_keep_the_defaults(self):
        # Every kind that reads no graph is defined by the event system alone.
        sys_ = random_rational_system(random.Random(139), 5)
        want = {
            "bonferroni-upper": classical_bonferroni(sys_, 1, "upper"),
            "bonferroni-lower": classical_bonferroni(sys_, 1, "lower"),
            "path-lower": path_lower(sys_, range(5)),
            "kwerel-upper": kwerel_upper(sys_),
            "kwerel-lower": kwerel_lower(sys_),
            "seneta-upper": seneta_upper(sys_, 0, 1),
            "seneta-lower": seneta_lower(sys_, 0, 1),
            "kwerel2-lower": kwerel2_lower(sys_),
            "generalized-lower": generalized_lower(sys_, 0),
        }
        assert set(want) == {kind for kind, (_, reads, _) in bounds.KINDS.items() if "g" not in reads}
        for kind, report in want.items():
            assert bounds.bound(kind, sys_) == report, kind
        assert seneta_upper(sys_) == want["seneta-upper"]
        assert seneta_lower(sys_) == want["seneta-lower"]
        assert generalized_lower(sys_) == want["generalized-lower"]

    @pytest.mark.parametrize("kind", [kind for kind, (_, reads, _) in bounds.KINDS.items() if "g" in reads])
    def test_graph_kind_without_graph_is_a_domain_error(self, kind):
        sys_ = identical_events_system(3)
        for inputs in ({}, {"g": None}):
            with pytest.raises(DomainError) as raised:
                bounds.bound(kind, sys_, **inputs)
            assert str(raised.value) == f"bound kind {kind!r} needs a graph g"

    def test_unknown_kind_is_a_domain_error(self):
        with pytest.raises(DomainError, match="unknown bound kind 'chordal-foo'"):
            bounds.bound("chordal-foo", identical_events_system(2))


class TestIntegerArguments:
    """Depths, orders and indices are ints, as the command line parses
    them; a float or a bool is a DomainError naming the argument."""

    @pytest.mark.parametrize("value", [2.0, True])
    def test_truncation_depth(self, value):
        sys_, g = identical_events_system(4), complete_graph(4)
        message = re.escape(f"truncation depth must be an integer, got {value!r}")
        for call in (
            lambda: chordal_upper(sys_, g, r=value),
            lambda: chordal_lower(sys_, g, r=value),
            lambda: chordal_lower(sys_, g, r=value, sharpened=True),
            lambda: classical_bonferroni(sys_, value, "lower"),
            lambda: graphs.truncated_euler_sum(g, r=value),
        ):
            with pytest.raises(DomainError, match=message):
                call()

    @pytest.mark.parametrize("value", [1.0, True])
    def test_order_m(self, value):
        with pytest.raises(DomainError, match=re.escape(f"order m must be an integer, got {value!r}")):
            generalized_lower(identical_events_system(4), value)

    @pytest.mark.parametrize("j, k, named", [(1.0, 2, "j must be an integer, got 1.0"),
                                             (0, True, "k must be an integer, got True")])
    def test_distinguished_indices(self, j, k, named):
        for bound in (seneta_lower, seneta_upper):
            with pytest.raises(DomainError, match=re.escape(f"distinguished index {named}")):
                bound(identical_events_system(4), j, k)

    @pytest.mark.parametrize("order, item", [([0.0, 1, 2, 3], "0.0"), ([0, 1, 2, True], "True")])
    def test_path_order_items(self, order, item):
        with pytest.raises(DomainError, match=re.escape(f"order item must be an integer, got {item}")):
            path_lower(identical_events_system(4), order)


def indicator_system(n, members):
    """One outcome of weight 1, lying in exactly the events of `members`."""
    return from_outcomes([1], [[0] if i in members else [] for i in range(n)], backend=RATIONAL)


def fixed_denominator_inputs(n, g=None):
    """(kind, inputs) pairs of every kind whose denominator is fixed by n
    and the graph: with g, the kinds that read a graph (but not
    `chordal-lower-sharpened`, whose α′ depends on the system, and the
    Hunter kinds only on a tree); without, every other kind."""
    depths = (1, 2, 3, None)
    if g is not None:
        cases = [(kind, {"g": g, "r": r}) for kind in ("chordal-upper", "chordal-lower") for r in depths]
        if graphs.is_tree(g):
            cases += [("hunter-upper", {"g": g}), ("hunter-lower", {"g": g})]
        return cases
    cases = [(kind, {"r": r}) for kind in ("bonferroni-upper", "bonferroni-lower") for r in depths]
    cases += [("kwerel-upper", {}), ("kwerel-lower", {})]
    cases += [("path-lower", {"order": order}) for order in (range(n), range(n - 1, -1, -1))]
    cases += [("generalized-lower", {"m": m}) for m in range(n)]
    if n >= 3:
        cases.append(("kwerel2-lower", {}))
    pairs = [(j, k) for j in range(n) for k in range(j, n) if n > len({j, k})]
    cases += [(kind, {"j": j, "k": k}) for kind in ("seneta-upper", "seneta-lower") for j, k in pairs]
    return cases


class TestValidityOracle:
    """The method of indicators.  An outcome lying in exactly the events of
    J adds its weight times w(J) to a bracket, so every system's bracket is
    the atom-weighted sum of w(J) over its non-empty signatures, and its
    union is the total weight of those atoms.  A kind whose denominator d
    does not depend on the system is therefore valid on every system iff it
    is valid on every indicator system, where the union is 1 and the value
    is w(J) / d: at most 1 for a lower kind, at least 1 for an upper one."""

    @staticmethod
    def assert_valid(n, cases):
        for size in range(1, n + 1):
            for members in combinations(range(n), size):
                sys_ = indicator_system(n, set(members))
                for kind, inputs in cases:
                    report = bounds.bound(kind, sys_, **inputs)
                    if report.direction == "lower":
                        assert report.value <= 1, (kind, inputs, members)
                    else:
                        assert report.value >= 1, (kind, inputs, members)

    @staticmethod
    def assert_sharpened_is_exact(g):
        n = g.vertex_count
        for size in range(1, n + 1):
            for members in combinations(range(n), size):
                report = chordal_lower(indicator_system(n, set(members)), g, sharpened=True)
                assert report.value == 1, members

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_labelled_chordal_graph(self, n):
        self.assert_valid(n, fixed_denominator_inputs(n))
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            g = build_graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
            if graphs.is_chordal(g):
                self.assert_valid(n, fixed_denominator_inputs(n, g))
                self.assert_sharpened_is_exact(g)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_random_chordal_graphs(self, n):
        rng = random.Random(2700 + n)
        self.assert_valid(n, fixed_denominator_inputs(n))
        for _ in range(3):
            g = random_chordal_graph(rng, n)
            self.assert_valid(n, fixed_denominator_inputs(n, g))
            self.assert_sharpened_is_exact(g)

    def test_counterexample_graph_fails_the_oracle(self):
        # α = 3, and the clique complex of all 8 vertices sums to 4.
        g = counterexample_graph()
        report = chordal_lower(indicator_system(8, set(range(8))), g, unchecked=True)
        assert report.value == Fraction(4, 3) > 1


MOMENT_KINDS = [
    kind for kind in bounds.KINDS if kind.startswith(("bonferroni", "kwerel", "generalized"))
]
# The (j, k) pairs of the golden `bounds compute` cases.
SENETA_PAIRS = [(0, 1), (2, 2), (9, 3)]


def _moment_cases(kind, n):
    """Inputs of `bound`, and of `moment_coefficients`, for a moment kind:
    r = 1..3 for the Bonferroni kinds, every m for generalized-lower."""
    if kind.startswith("bonferroni"):
        return [{"r": r} for r in (1, 2, 3)]
    if kind == "generalized-lower":
        return [{"m": m} for m in range(n)]
    return [{}] if kind != "kwerel2-lower" or n >= 3 else []


def _differential_system(rng, n, wide):
    """A seeded RATIONAL explicit system of n events, weights with zeros.
    Narrow: counts 0..6 over their total on 48-160 outcomes, so the
    column (3 bits) is bit-sliced.  Wide: prime denominators on 8-40
    outcomes, numerators of 20-35 bits, past the width rule."""
    if wide:
        m = rng.randint(8, 40)
        primes = (97, 101, 103, 107, 109)
        raw = [Fraction(rng.randint(0, 9) * (rng.random() < 0.8), rng.choice(primes)) for _ in range(m)]
    else:
        m = rng.randint(48, 160)
        raw = [Fraction(rng.randint(0, 6)) for _ in range(m)]
    raw[rng.randrange(m)] += 1
    total = sum(raw)
    weights = [x / total for x in raw]
    return EventSystem(RATIONAL, weights, [rng.getrandbits(m) for _ in range(n)])


def _differential_systems():
    """Two systems, one narrow and one wide, per event count 3..7, and one
    narrow and one wide of 10 events for the pair (9, 3)."""
    rng = random.Random(2800)
    return [_differential_system(rng, n, wide) for n in (3, 4, 5, 6, 7, 10) for wide in (False, True)]


def _clique_bound(sys_, g, cap=None, denominator=1):
    return brute_force_clique_sum(brute_force_clique_terms(sys_, g), cap) / denominator


def _clique_cases(kind, sys_, rng):
    """(inputs of `bound`, Fraction-only value) of a kind that sums over a
    graph's cliques."""
    n = sys_.event_count
    if kind.startswith("chordal"):
        g = random_chordal_graph(rng, n)
        for r in (None, 1, 2, 3):
            if kind == "chordal-upper":
                yield {"g": g, "r": r}, _clique_bound(sys_, g, None if r is None else 2 * r - 1)
                continue
            if kind == "chordal-lower":
                denominator = brute_force_alpha(g)
            else:
                denominator = brute_force_alpha_prime(sys_.weights, sys_.events, g)
            yield {"g": g, "r": r}, _clique_bound(sys_, g, None if r is None else 2 * r, denominator)
    elif kind.startswith("hunter"):
        tree = build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])
        denominator = 1 if kind == "hunter-upper" else brute_force_alpha(tree)
        yield {"g": tree}, _clique_bound(sys_, tree, None, denominator)
    elif kind == "path-lower":
        for order in (list(range(n)), rng.sample(range(n), n)):
            path = build_graph(n, zip(order, order[1:]))
            yield {"order": order}, _clique_bound(sys_, path, None, brute_force_alpha(path))
    else:
        for j, k in SENETA_PAIRS:
            if max(j, k) < n:
                g = join_pair_graph(n, j, k)
                denominator = 1 if kind == "seneta-upper" else brute_force_alpha(g)
                yield {"j": j, "k": k}, _clique_bound(sys_, g, None, denominator)


class TestIntegerBracketsAgainstFractions:
    """Every kind on RATIONAL explicit systems, bit-sliced and too wide for
    bit planes, equals its Fraction-only evaluation from the brute-force
    oracles: clique sums and symmetric sums added one outcome at a time,
    independence numbers and sharpened denominators by enumeration."""

    def test_systems_take_both_sides_of_the_width_rule(self):
        systems = _differential_systems()
        for sys_ in systems:
            kwerel_upper(sys_)
        assert [bool(sys_._planes) for sys_ in systems] == [True, False] * 6
        assert all(0 in sys_.weights for sys_ in systems)

    @pytest.mark.parametrize("kind", MOMENT_KINDS)
    def test_moment_kinds(self, kind):
        checked = 0
        for sys_ in _differential_systems():
            n = sys_.event_count
            sums = None
            for inputs in _moment_cases(kind, n):
                coefficients, denominator = moment_coefficients(kind, n, **inputs)
                if sums is None:
                    sums = brute_force_symmetric_sums(sys_, n)
                want = sum(c * s for c, s in zip(coefficients, sums)) / (denominator or 1)
                value = bounds.bound(kind, sys_, **inputs).value
                assert isinstance(value, Fraction) and value == want, (kind, n, inputs)
                checked += 1
        assert checked

    @pytest.mark.parametrize("kind", [kind for kind in bounds.KINDS if kind not in MOMENT_KINDS])
    def test_clique_kinds(self, kind):
        rng = random.Random(2801)
        checked = 0
        for sys_ in _differential_systems():
            for inputs, want in _clique_cases(kind, sys_, rng):
                value = bounds.bound(kind, sys_, **inputs).value
                assert isinstance(value, Fraction) and value == want, (kind, sys_.event_count, inputs)
                checked += 1
        assert checked


class TestFloatMomentOrder:
    """A REAL moment bound keeps the float operations of Fraction
    coefficients: S_k times float(c_k), added left to right from 0.0, then
    divided by the denominator, compared with ==."""

    def assert_same_floats(self, sys_, kinds):
        n = sys_.event_count
        for kind in kinds:
            for inputs in _moment_cases(kind, n):
                want = float_moment_bound(sys_, *moment_coefficients(kind, n, **inputs))
                value = bounds.bound(kind, sys_, **inputs).value
                assert type(value) is float and value == want, (kind, n, inputs)

    def test_explicit_systems(self):
        rng = random.Random(2802)
        for trial in range(200):
            self.assert_same_floats(random_real_system(rng, 3 + trial % 10), MOMENT_KINDS)

    def test_product_systems(self):
        rng = random.Random(2803)
        for trial in range(60):
            sys_ = _product_system(rng, 1 + trial % 8, REAL)
            self.assert_same_floats(sys_, ["kwerel-lower"] if trial % 2 else MOMENT_KINDS)


class TestFloatProductSums:
    """The float order of REAL product-form sums, which the moment and
    clique brackets build on: S_k and the chordal cone sums against
    copies of their loops in `helpers`, compared with ==."""

    def test_symmetric_sums_and_chordal_sieves(self):
        rng = random.Random(3201)
        for trial in range(60):
            sys_ = _product_system(rng, 1 + trial % 10, REAL)
            n = sys_.event_count
            for k in range(1, n + 1):
                assert sys_._symmetric_sum(k) == float_product_symmetric_sum(sys_, k), (trial, k)
            g = random_chordal_graph(rng, n)
            for cap in [None, *range(1, n + 1)]:
                got = clique_sieve_sum(sys_, g, size_cap=cap)
                assert type(got) is float and got == float_product_chordal_sieve(sys_, g, cap), (trial, cap)


class TestWrittenConeMasks:
    """The path and Seneta brackets write their cones from their orders:
    each is ((v,), later[v]) for `_later_neighbours` of the path and join
    graphs along the same orders, at the graphs' own clique cap."""

    @pytest.fixture
    def written(self, monkeypatch):
        calls = []
        original = bounds._cone_bracket

        def recording(sys_, cones, cap):
            cones = list(cones)
            calls.append((cones, cap))
            return original(sys_, cones, cap)

        monkeypatch.setattr(bounds, "_cone_bracket", recording)
        return calls

    def test_path_masks(self, written):
        for n in range(1, 7):
            sys_ = from_outcomes([1.0], [[0]] * n)
            for order in permutations(range(n)):
                path = build_graph(n, zip(order, order[1:]))
                written.clear()
                report = path_lower(sys_, order)
                want = graphs._later_neighbours(path, order)
                assert written == [([((v,), mask) for v, mask in enumerate(want)], n)]
                assert report.edge_count == path.edge_count

    def test_seneta_masks(self, written):
        for n in range(2, 9):
            sys_ = from_outcomes([1.0], [[0]] * n)
            for j in range(n):
                for k in range(n):
                    if n <= len({j, k}):
                        continue
                    order = [i for i in range(n) if i not in (j, k)] + list(dict.fromkeys((j, k)))
                    written.clear()
                    seneta_upper(sys_, j, k)
                    want = graphs._later_neighbours(join_pair_graph(n, j, k), order)
                    assert written == [([((v,), mask) for v, mask in enumerate(want)], n)], (n, j, k)
