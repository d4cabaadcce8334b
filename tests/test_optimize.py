"""Optimizers: MST, exact and heuristic minimum-weight paths, tree oracle."""

import json
import math
import random
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from chordalbounds import (
    HELD_KARP_MAX_VERTICES,
    DomainError,
    ResourceLimitError,
    bernoulli_product,
    best_path,
    best_tree,
    bridge_network,
    build_graph,
    connected_components,
    exhaustive_tree_oracle,
    from_outcomes,
    independence_number,
    intersection_prob,
    pairwise_weights,
    path_event_system,
    path_weight,
    tree_weight,
)
from chordalbounds import graphs, optimize
from chordalbounds.graphs import is_tree
from chordalbounds.optimize import _labeled_trees
from chordalbounds.values import RATIONAL

from helpers import (
    BRIDGE_PATH_ORDER,
    brute_force_best_path,
    brute_force_tree_oracle,
    full_table_path,
    random_real_system,
)

DATA = Path(__file__).parent / "data"

# Arc sets of the four bridge events, in the demo order; pairwise arc-union
# sizes are the oracle for the expected weights.
BRIDGE_ARC_SETS = [set(s) for s in BRIDGE_PATH_ORDER]


def bridge_system(p):
    return path_event_system(bridge_network(reliability=p), paths=BRIDGE_PATH_ORDER)


def symmetric_rows(n, draw):
    """Rows with 0.0 on the diagonal and draw() on each unordered pair."""
    rows = [[0.0] * n for _ in range(n)]
    for u, v in combinations(range(n), 2):
        rows[u][v] = rows[v][u] = draw()
    return tuple(map(tuple, rows))


def coords_weights(rng, n, coords, per_event):
    """Pairwise weights of n events that each need per_event of coords
    independent coordinates: few coordinates give equal events and so
    exact ties."""
    probs = [round(rng.uniform(0.5, 0.95), 2) for _ in range(coords)]
    events = [sorted(rng.sample(range(coords), per_event)) for _ in range(n)]
    return pairwise_weights(bernoulli_product(probs, events))


def all_spanning_trees(n):
    pairs = list(combinations(range(n), 2))
    for subset in combinations(pairs, n - 1):
        g = build_graph(n, subset)
        if connected_components(g) == 1:
            yield subset


class TestPairwiseWeights:
    def test_bridge_values(self):
        wm = pairwise_weights(bridge_system(0.9))
        for u in range(4):
            for v in range(u + 1, 4):
                expected = 0.9 ** len(BRIDGE_ARC_SETS[u] | BRIDGE_ARC_SETS[v])
                assert wm[u][v] == pytest.approx(expected, abs=1e-12)
                assert wm[v][u] == wm[u][v]
        assert wm[1][2] == pytest.approx(0.9**6, abs=1e-12)

    def test_disjoint_events_zero(self):
        sys_ = from_outcomes([0.5, 0.5], [[0], [1]])
        wm = pairwise_weights(sys_)
        assert wm[0][1] == 0.0

    def test_identical_events(self):
        sys_ = from_outcomes([0.3, 0.7], [[0], [0], [0]])
        wm = pairwise_weights(sys_)
        assert all(
            wm[u][v] == pytest.approx(0.3)
            for u in range(3)
            for v in range(3)
            if u != v
        )

    def test_one_query_per_unordered_pair(self, monkeypatch):
        queries = []
        monkeypatch.setattr(
            optimize, "intersection_prob", lambda sys_, pair: queries.append(pair) or intersection_prob(sys_, pair)
        )
        sys_ = random_real_system(random.Random(173), 7, max_outcomes=32)
        wm = pairwise_weights(sys_)
        assert sorted(queries) == list(combinations(range(7), 2))
        for u, v in permutations(range(7), 2):
            assert wm[u][v] == intersection_prob(sys_, (u, v))
        assert all(wm[v][v] == 0.0 for v in range(7))

    def test_requires_real_backend(self):
        from fractions import Fraction

        sys_ = from_outcomes([Fraction(1)], [[0]], backend=RATIONAL)
        with pytest.raises(DomainError):
            pairwise_weights(sys_)


class TestBestTree:
    def test_bridge_minimize_contains_unique_light_edge(self):
        wm = pairwise_weights(bridge_system(0.9))
        tree = best_tree(wm, "minimize-weight")
        assert (1, 2) in tree.edges

    @pytest.mark.parametrize("p", [0.5, 0.9])
    def test_bridge_matches_exhaustive_16_trees(self, p):
        wm = pairwise_weights(bridge_system(p))
        trees = list(all_spanning_trees(4))
        assert len(trees) == 16
        best_total = min(sum(wm[u][v] for u, v in t) for t in trees)
        tree = best_tree(wm, "minimize-weight")
        assert tree_weight(wm, tree) == pytest.approx(best_total, abs=1e-15)

    def test_minimize_beats_every_tree(self):
        rng = random.Random(131)
        for _ in range(15):
            n = rng.randint(1, 6)
            sys_ = random_real_system(rng, n, max_outcomes=32)
            wm = pairwise_weights(sys_)
            total = tree_weight(wm, best_tree(wm, "minimize-weight"))
            for t in all_spanning_trees(n):
                assert total <= sum(wm[u][v] for u, v in t) + 1e-12

    def test_single_vertex(self):
        wm = ((0.0,),)
        tree = best_tree(wm)
        assert tree.vertex_count == 1 and tree.edges == ()

    def test_equal_weights_lexicographic_tie_break(self):
        wm = tuple(tuple(0.5 if u != v else 0.0 for v in range(4)) for u in range(4))
        tree = best_tree(wm, "minimize-weight")
        assert tree.edges == ((0, 1), (0, 2), (0, 3))

    def test_maximize_objective(self):
        wm = pairwise_weights(bridge_system(0.9))
        heavy = best_tree(wm, "maximize-weight")
        assert (1, 2) not in heavy.edges
        with pytest.raises(DomainError):
            best_tree(wm, "smallest")


class TestBestPath:
    def test_bridge_exact_order(self):
        wm = pairwise_weights(bridge_system(0.9))
        order = best_path(wm, "exact")
        assert order == (0, 1, 2, 3)
        assert path_weight(wm, order) == pytest.approx(2 * 0.9**4 + 0.9**6, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.9])
    def test_bridge_matches_12_path_enumeration(self, p):
        wm = pairwise_weights(bridge_system(p))
        orders = [o for o in permutations(range(4)) if o[0] < o[-1]]
        assert len(orders) == 12
        best_total = min(path_weight(wm, o) for o in orders)
        assert path_weight(wm, best_path(wm, "exact")) == pytest.approx(best_total, abs=1e-12)

    def test_tiny_instances(self):
        assert best_path(((0.0,),), "exact") == (0,)
        wm2 = ((0.0, 0.3), (0.3, 0.0))
        assert best_path(wm2, "exact") == (0, 1)
        assert best_path(wm2, "heuristic") == (0, 1)
        for mode in ("exact", "heuristic"):
            with pytest.raises(DomainError, match="weight matrix is empty"):
                best_path((), mode)

    def test_exact_cap(self):
        n = 16
        wm = tuple(tuple(0.0 for _ in range(n)) for _ in range(n))
        with pytest.raises(ResourceLimitError):
            best_path(wm, "exact")
        with pytest.raises(DomainError):
            best_path(wm, "magic")

    def test_exact_matches_brute_force_on_dyadic_weights(self):
        # Dyadic weights add exactly, so the least (weight, order) over all
        # n! orders is the lexicographically least optimal order, ties
        # included.
        rng = random.Random(167)
        for trial in range(300):
            n = rng.randint(1, 8)
            values = (0.0, 0.25, 0.5, 0.75, 1.0) if trial % 2 else (0.0, 1.0, 2.0)
            wm = symmetric_rows(n, lambda: rng.choice(values))
            assert best_path(wm, "exact") == brute_force_best_path(wm)[1]

    def test_matches_full_table(self):
        # The exact search fills only the rows of at most ceil((n + 1) / 2)
        # events and the larger states near the optimum; its order must be
        # the one the table of all 2**n rows gives, ties included.
        rng = random.Random(173)
        families = [
            lambda n: coords_weights(rng, n, rng.randint(3, 8), rng.randint(1, 2)),
            lambda n: symmetric_rows(n, lambda values=(rng.random(), rng.random()): rng.choice(values)),
            lambda n: symmetric_rows(n, lambda value=rng.choice((0.0, 0.25, 0.3, -0.7)): value),
            lambda n: symmetric_rows(n, lambda: rng.uniform(-1.0, 1.0)),
            lambda n: symmetric_rows(n, lambda: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0)),
        ]
        cases = [family(n) for n in range(1, 13) for _ in range(5) for family in families]
        cases += [coords_weights(rng, n, 8, 2) for n in (13, 14, 15)]
        assert len(cases) == 303
        for wm in cases:
            assert best_path(wm, "exact") == full_table_path(wm)

    def test_small_tables_are_the_full_table(self):
        # At n <= 2 the rows of at most ceil((n + 1) / 2) events are the
        # whole table, and at n = 3 the split level has six states, too few
        # to prune.  Every pattern of three dyadic values, ties included.
        for n in (1, 2, 3):
            for values in product((0.0, 0.5, 1.0), repeat=n * (n - 1) // 2):
                wm = symmetric_rows(n, iter(values).__next__)
                assert best_path(wm, "exact") == full_table_path(wm) == brute_force_best_path(wm)[1]

    def test_all_zero_weights_at_the_cap(self):
        # Every state ties, so every level-h state is kept and the search
        # finishes the full table; the least order is the identity.
        n = HELD_KARP_MAX_VERTICES
        assert best_path(symmetric_rows(n, lambda: 0.0), "exact") == tuple(range(n))

    def test_golden_exact_orders(self):
        # Coords systems of 10-15 events with two of 6, 8 or 12 coordinates
        # each, many of them equal; the orders were written by the
        # bit-extracting Held-Karp loop.
        cases = json.loads((DATA / "golden_paths.json").read_text())
        assert len(cases) == 12
        for case in cases:
            wm = pairwise_weights(bernoulli_product(case["probs"], case["events"]))
            assert list(best_path(wm, "exact")) == case["path_order"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, bad):
        wm = ((0.0, bad, 0.5), (bad, 0.0, 0.25), (0.5, 0.25, 0.0))
        for mode in ("exact", "heuristic"):
            with pytest.raises(DomainError, match="finite"):
                best_path(wm, mode)

    def test_asymmetric_rows_rejected(self):
        # Rows equal to columns also means n rows of n weights each.
        asymmetric = ((0.0, 0.5, 0.25), (0.5, 0.0, 0.75), (0.25, 0.5, 0.0))
        ragged = ((0.0, 1.0), (1.0,))
        for wm in (asymmetric, ragged):
            for mode in ("exact", "heuristic"):
                with pytest.raises(DomainError, match="path weights must be symmetric"):
                    best_path(wm, mode)
        # Finiteness is checked first.
        with pytest.raises(DomainError, match="finite"):
            best_path(((0.0, math.nan), (0.5, 0.0)), "exact")

    def test_heuristic_never_beats_exact(self):
        rng = random.Random(137)
        for _ in range(25):
            n = rng.randint(1, 7)
            sys_ = random_real_system(rng, n, max_outcomes=32)
            wm = pairwise_weights(sys_)
            exact_total = path_weight(wm, best_path(wm, "exact"))
            heuristic_total = path_weight(wm, best_path(wm, "heuristic"))
            assert heuristic_total >= exact_total - 1e-12


class TestExhaustiveTreeOracle:
    def test_min_upper_matches_max_weight_mst(self):
        rng = random.Random(139)
        for _ in range(10):
            n = rng.randint(2, 6)
            sys_ = random_real_system(rng, n, max_outcomes=32)
            wm = pairwise_weights(sys_)
            oracle = exhaustive_tree_oracle(sys_, "min-upper-bound")
            mst = best_tree(wm, "maximize-weight")
            assert tree_weight(wm, oracle) == pytest.approx(tree_weight(wm, mst), abs=1e-12)

    def test_lower_bound_oracle_at_least_mst_proxy(self):
        rng = random.Random(149)
        for _ in range(10):
            n = rng.randint(2, 6)
            sys_ = random_real_system(rng, n, max_outcomes=32)
            wm = pairwise_weights(sys_)
            singles = sum(intersection_prob(sys_, (v,)) for v in range(n))

            def lower_value(tree):
                bracket = singles - tree_weight(wm, tree)
                return bracket / independence_number(tree)

            oracle = exhaustive_tree_oracle(sys_, "max-lower-bound")
            proxy = best_tree(wm, "minimize-weight")
            assert lower_value(oracle) >= lower_value(proxy) - 1e-12

    @pytest.mark.parametrize("criterion", ["max-lower-bound", "min-upper-bound"])
    def test_matches_brute_force_over_edge_subsets(self, criterion):
        rng = random.Random(157)
        systems = [random_real_system(rng, n, max_outcomes=32) for n in range(1, 7) for _ in range(3)]
        # Equal weights everywhere: every tree ties but for its edges and,
        # for the lower bound, its own independence number.
        systems += [from_outcomes([0.3, 0.7], [[0]] * n) for n in range(1, 7)]
        for sys_ in systems:
            assert exhaustive_tree_oracle(sys_, criterion) == brute_force_tree_oracle(sys_, criterion)

    def test_leaf_matching_gives_independence_number(self):
        # Trees are bipartite, so alpha = n - (maximum matching size) by
        # Konig's theorem; the decode yields each of Cayley's n**(n - 2)
        # labeled trees once.
        for n in range(1, 7):
            trees = list(_labeled_trees(n))
            assert len({edges for edges, _ in trees}) == len(trees) == (n ** (n - 2) if n > 1 else 1)
            for edges, pairs in trees:
                tree = build_graph(n, edges)
                assert tree.edges == edges and is_tree(tree)
                assert n - pairs == independence_number(tree)

    def test_no_search_per_tree(self, monkeypatch):
        # All 16,807 trees at n = 7 are scored without one maximum
        # cardinality search.
        runs = []
        original = graphs.mcs_order
        monkeypatch.setattr(graphs, "mcs_order", lambda g: runs.append(g) or original(g))
        sys_ = random_real_system(random.Random(163), 7, max_outcomes=32)
        assert is_tree(exhaustive_tree_oracle(sys_, "max-lower-bound"))
        assert runs == []

    def test_two_events(self):
        sys_ = from_outcomes([0.5, 0.5], [[0], [1]])
        assert exhaustive_tree_oracle(sys_, "max-lower-bound").edges == ((0, 1),)

    def test_caps_and_criteria(self):
        sys_ = random_real_system(random.Random(1), 8, max_outcomes=16)
        with pytest.raises(ResourceLimitError):
            exhaustive_tree_oracle(sys_, "max-lower-bound")
        small = random_real_system(random.Random(2), 3, max_outcomes=16)
        with pytest.raises(DomainError):
            exhaustive_tree_oracle(small, "best")


class TestDeterminism:
    def test_repeated_calls_identical(self):
        rng = random.Random(151)
        sys_ = random_real_system(rng, 6, max_outcomes=32)
        wm = pairwise_weights(sys_)
        assert best_tree(wm, "minimize-weight") == best_tree(wm, "minimize-weight")
        assert best_path(wm, "exact") == best_path(wm, "exact")
        assert best_path(wm, "heuristic") == best_path(wm, "heuristic")

    def test_weights_add_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16, so the sum along 0-1-2-3 is 0.0
        # when added left to right; a compensated sum would give 1.0.
        rows = [[0.0] * 4 for _ in range(4)]
        for (u, v), x in zip([(0, 1), (1, 2), (2, 3)], [1e16, 1.0, -1e16]):
            rows[u][v] = rows[v][u] = x
        w = tuple(map(tuple, rows))
        assert path_weight(w, (0, 1, 2, 3)) == 0.0
        assert tree_weight(w, build_graph(4, [(0, 1), (1, 2), (2, 3)])) == 0.0

    def test_empty_weight_is_the_int_zero(self):
        w = ((0.0,),)
        assert repr(path_weight(w, (0,))) == repr(tree_weight(w, build_graph(1, []))) == "0"
