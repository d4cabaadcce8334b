"""Graph core: construction, chordality, cliques, special families."""

import dataclasses
import random
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from chordalbounds import (
    DomainError,
    Graph,
    build_graph,
    clique_complex,
    clique_sieve_sum,
    complete_graph,
    connected_components,
    counterexample_family,
    counterexample_graph,
    cycle_graph,
    edgeless_graph,
    from_outcomes,
    independence_number,
    is_chordal,
    is_perfect_elimination_order,
    join_graphs,
    mcs_order,
    path_graph,
    tree_graph,
    truncated_euler_sum,
)
from chordalbounds import graphs
from chordalbounds.errors import ResourceLimitError
from chordalbounds.graphs import _clique_counts, is_tree, require_tree

from helpers import (
    brute_force_alpha,
    brute_force_is_chordal,
    random_chordal_graph,
    random_graph,
    reference_mcs_order,
)


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


class TestBuildGraph:
    def test_path_construction(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.vertex_count == 4
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert g.adj[1] >> 0 & 1 and not g.adj[0] >> 2 & 1

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.vertex_count == 1 and g.edge_count == 0

    def test_self_loop_rejected(self):
        with pytest.raises(DomainError, match=r"self-loop \(0, 0\)"):
            build_graph(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError, match=r"\(0, 5\)"):
            build_graph(3, [(0, 5)])

    def test_duplicate_rejected(self):
        with pytest.raises(DomainError, match=r"duplicate edge \(0, 1\)"):
            build_graph(3, [(0, 1), (1, 0)])

    def test_edges_normalized(self):
        g = build_graph(3, [(2, 0), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    @pytest.mark.parametrize(
        "vertex_count, edges, message",
        [
            (2.0, [], "vertex count must be an integer, got 2.0"),
            (True, [], "vertex count must be an integer, got True"),
            (3, [(0, True)], "edge endpoint must be an integer, got True"),
            (3, [(0, 1.5)], "edge endpoint must be an integer, got 1.5"),
            (3, [(0, "1")], "edge endpoint must be an integer, got '1'"),
            # every endpoint is checked before any range, loop or duplicate check
            (3, [(0, 5), (1, 1), (0, 1.5)], "edge endpoint must be an integer, got 1.5"),
            ("3", [(0, 1.5)], "vertex count must be an integer, got '3'"),
        ],
        ids=["float-count", "bool-count", "bool-endpoint", "float-endpoint", "str-endpoint",
             "types-before-ranges", "count-before-endpoints"],
    )
    def test_non_integer_rejected(self, vertex_count, edges, message):
        with pytest.raises(DomainError) as raised:
            build_graph(vertex_count, edges)
        assert str(raised.value) == message

    def test_edges_may_be_an_iterator(self):
        assert build_graph(3, iter([(0, 1), (2, 1)])).edges == ((0, 1), (1, 2))


class TestSpecialGraphs:
    def test_counterexample_graph_shape(self):
        g = counterexample_graph()
        assert g.vertex_count == 8
        assert g.edge_count == 20

    def test_family_k3_edges(self):
        g = counterexample_family(3)
        assert g.vertex_count == 9
        assert g.edge_count == 27
        # construction oracle: edges are exactly the cross-group pairs
        expected = {
            (min(u, v), max(u, v))
            for u in range(9)
            for v in range(9)
            if u != v and u // 3 != v // 3
        }
        assert set(g.edges) == expected

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_family_equals_cross_group_graph(self, k):
        cross = [(u, v) for u in range(3 * k) for v in range(u + 1, 3 * k) if u // 3 != v // 3]
        assert counterexample_family(k) == build_graph(3 * k, cross)

    def test_family_rejects_bad_k(self):
        with pytest.raises(DomainError):
            counterexample_family(4)
        with pytest.raises(DomainError):
            counterexample_family(1)

    def test_family_past_the_clique_budget(self, monkeypatch):
        # The family has 4**k - 1 cliques; past the budget it is not built,
        # so a huge k is refused at once.
        for k in (11, 10**18 + 1):
            with pytest.raises(ResourceLimitError, match=f"more than {graphs.MAX_LISTED_CLIQUES} cliques"):
                counterexample_family(k)
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", 4**5 - 1)
        assert counterexample_family(5).vertex_count == 15
        with pytest.raises(ResourceLimitError, match="more than 1023 cliques"):
            counterexample_family(7)

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(DomainError, match="a cycle needs at least 3 vertices"):
            cycle_graph(2)

    def test_complete_join_edgeless_is_star(self):
        g = join_graphs(complete_graph(1), edgeless_graph(2))
        assert g.vertex_count == 3
        assert g.edge_count == 2
        degrees = sorted(mask.bit_count() for mask in g.adj)
        assert degrees == [1, 1, 2]
        assert connected_components(g) == 1

    def test_join_counts(self):
        g = join_graphs(path_graph(3), edgeless_graph(2))
        assert g.vertex_count == 5
        assert g.edge_count == 2 + 3 * 2

    def test_tree_graph_validation(self):
        tree_graph(4, [(0, 1), (1, 2), (1, 3)])
        with pytest.raises(DomainError):
            tree_graph(4, [(0, 1), (1, 2)])
        with pytest.raises(DomainError):
            tree_graph(3, [(0, 1), (1, 2), (0, 2)])

    def test_is_tree(self):
        assert is_tree(path_graph(1)) and is_tree(path_graph(5))
        assert not is_tree(edgeless_graph(0))
        assert not is_tree(edgeless_graph(2))
        assert not is_tree(cycle_graph(3))
        assert not is_tree(build_graph(4, [(0, 1), (1, 2), (0, 2)]))
        with pytest.raises(DomainError, match="not a tree"):
            require_tree(cycle_graph(4))


class TestMcsAndChordality:
    def test_mcs_is_permutation(self):
        for g in (complete_graph(3), path_graph(4), edgeless_graph(5)):
            order = mcs_order(g)
            assert sorted(order) == list(range(g.vertex_count))

    def test_mcs_matches_the_index_scan(self):
        # The arg-max over the ascending unvisited list keeps the order of
        # the scan it replaced, ties to the smallest index included.
        rng = random.Random(5301)
        cases = [random_graph(rng, rng.randint(0, 19), rng.random()) for _ in range(300)]
        cases += [random_chordal_graph(rng, rng.randint(1, 19)) for _ in range(100)]
        cases += [edgeless_graph(40), complete_graph(9), path_graph(12), cycle_graph(11)]
        for g in cases:
            assert mcs_order(g) == reference_mcs_order(g), g.edges

    def test_complete_any_order_eliminates(self):
        g = complete_graph(3)
        assert is_perfect_elimination_order(g, (2, 0, 1))

    def test_path_reverse_mcs_is_peo(self):
        g = path_graph(4)
        assert is_perfect_elimination_order(g, mcs_order(g)[::-1])

    def test_edgeless_any_order_is_peo(self):
        g = edgeless_graph(5)
        assert is_perfect_elimination_order(g, (4, 2, 0, 1, 3))

    @pytest.mark.parametrize(
        "order", [(0, 1), (0, 1, 1), (0, 1, 3)], ids=["short", "repeated", "out-of-range"]
    )
    def test_order_must_be_a_permutation(self, order):
        with pytest.raises(DomainError, match="order is not a permutation of the vertices"):
            is_perfect_elimination_order(path_graph(3), order)

    def test_four_cycle_not_chordal(self):
        assert not is_chordal(cycle_graph(4))

    def test_trees_chordal(self):
        assert is_chordal(path_graph(6))
        assert is_chordal(tree_graph(5, [(0, 1), (0, 2), (2, 3), (2, 4)]))

    def test_counterexample_graph_not_chordal(self):
        assert not is_chordal(counterexample_graph())

    def test_against_brute_force_exhaustive(self):
        for n in range(5):
            for g in all_graphs(n):
                assert is_chordal(g) == brute_force_is_chordal(g)

    def test_against_brute_force_random(self):
        rng = random.Random(7)
        for _ in range(300):
            g = random_graph(rng, rng.randint(5, 7), rng.random())
            assert is_chordal(g) == brute_force_is_chordal(g)

    @pytest.mark.parametrize("make", [path_graph, cycle_graph], ids=["chordal", "not-chordal"])
    def test_one_search_per_graph_kept_out_of_identity(self, monkeypatch, make):
        runs = []
        original = graphs.mcs_order
        monkeypatch.setattr(graphs, "mcs_order", lambda g: runs.append(g) or original(g))
        fresh, used = make(6), make(6)
        is_chordal(used)
        independence_number(used)
        truncated_euler_sum(used, r=1)
        _clique_counts(used)
        assert runs == [used]
        assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)
        assert [f.name for f in dataclasses.fields(Graph)] == ["vertex_count", "edges", "adj"]


class TestComponentsAndSubgraphs:
    def test_component_counts(self):
        assert connected_components(edgeless_graph(5)) == 5
        assert connected_components(path_graph(4)) == 1
        two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert connected_components(two_triangles) == 2
        assert connected_components(edgeless_graph(0)) == 0

    def test_components_within_subset(self):
        # `alpha_prime` counts the components inside a vertex mask.
        g = path_graph(5)
        assert graphs._component_count(g, 0b10101) == 3
        assert graphs._component_count(g, 0b00110) == 1

    def test_induced_chordality_matches_oracle(self):
        # Induced subgraphs of the counterexample, relabelled in sorted
        # order of their vertices.
        rng = random.Random(11)
        g = counterexample_graph()
        for _ in range(60):
            keep = sorted({v for v in range(8) if rng.random() < 0.6} or {0})
            index = {v: i for i, v in enumerate(keep)}
            edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
            sub = build_graph(len(keep), edges)
            assert is_chordal(sub) == brute_force_is_chordal(sub)


class TestIndependenceNumber:
    def test_paths(self):
        for n in range(1, 9):
            assert independence_number(path_graph(n)) == (n + 1) // 2

    def test_counterexample_graph(self):
        assert independence_number(counterexample_graph()) == 3

    def test_family(self):
        assert independence_number(counterexample_family(3)) == 3
        assert independence_number(counterexample_family(5)) == 3

    def test_exhaustive_small(self):
        for n in range(5):
            for g in all_graphs(n):
                assert independence_number(g) == brute_force_alpha(g)

    def test_random_chordal_against_brute_force(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_chordal_graph(rng, rng.randint(1, 8))
            assert is_chordal(g)
            assert independence_number(g) == brute_force_alpha(g)

    def test_paths_and_cycles_against_brute_force(self):
        # Disjoint unions of paths and cycles, relabeled at random: the
        # search counts them without branching.
        rng = random.Random(29)
        for _ in range(150):
            edges, n = [], 0
            for _ in range(rng.randint(1, 4)):
                k = rng.randint(1, 5)
                edges += [(n + i, n + i + 1) for i in range(k - 1)]
                if k >= 3 and rng.random() < 0.5:
                    edges.append((n + k - 1, n))
                n += k
            label = rng.sample(range(n), n)
            g = build_graph(n, [(label[u], label[v]) for u, v in edges])
            assert independence_number(g) == brute_force_alpha(g)

    def test_random_graphs_against_brute_force(self):
        rng = random.Random(31)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 12), rng.choice((0.15, 0.3, 0.5)))
            assert independence_number(g) == brute_force_alpha(g)

    def test_search_budget_boundary(self, monkeypatch):
        # The 3-cube's search visits 11 nodes.
        cube = build_graph(8, [(v, v | 1 << k) for v in range(8) for k in range(3) if not v >> k & 1])
        monkeypatch.setattr(graphs, "MAX_INDEPENDENT_SET_NODES", 11)
        assert independence_number(cube) == 4
        monkeypatch.setattr(graphs, "MAX_INDEPENDENT_SET_NODES", 10)
        with pytest.raises(ResourceLimitError, match="exceeds 10 nodes"):
            independence_number(cube)


class TestCliqueComplex:
    def test_counterexample_counts(self):
        assert Counter(map(len, clique_complex(counterexample_graph()))) == {1: 8, 2: 20, 3: 16}

    def test_complete3_counts(self):
        assert Counter(map(len, clique_complex(complete_graph(3)))) == {1: 3, 2: 3, 3: 1}

    def test_path4_counts(self):
        assert Counter(map(len, clique_complex(path_graph(4)))) == {1: 4, 2: 3}

    def test_max_size_truncation(self):
        cc = clique_complex(complete_graph(4), max_size=2)
        assert Counter(map(len, cc)) == {1: 4, 2: 6}
        with pytest.raises(DomainError):
            clique_complex(complete_graph(3), max_size=0)
        for g in (complete_graph(3), cycle_graph(4)):
            with pytest.raises(DomainError, match="max_size must be >= 1"):
                _clique_counts(g, 0)

    def test_sizes_must_be_integers(self):
        # A float or bool size was once read as a number: 2.5 listed the
        # cliques up to size 3, True the singletons, 2.0 failed in
        # math.comb, and a float family parameter in list * float.
        g = complete_graph(4)
        for size in (2.5, True):
            with pytest.raises(DomainError, match=f"max_size must be an integer, got {size}"):
                clique_complex(g, size)
        certain = from_outcomes([1.0], [[0]] * 4)
        # A sieve sum names its own parameter, size_cap.
        for size, message in ((2.0, "an integer, got 2.0"), (True, "an integer, got True"), (0, ">= 1, got 0")):
            with pytest.raises(DomainError, match=f"^size_cap must be {message}$"):
                clique_sieve_sum(certain, g, size_cap=size)
        with pytest.raises(DomainError, match="family parameter must be an integer, got 3.0"):
            counterexample_family(3.0)

    def test_canonical_order(self):
        cc = clique_complex(complete_graph(3))
        assert cc == ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))

    def test_downward_closed_with_all_singletons(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7), rng.random())
            members = set(clique_complex(g))
            singles = [c for c in members if len(c) == 1]
            assert len(singles) == g.vertex_count
            for clique in members:
                for size in range(1, len(clique)):
                    for sub in combinations(clique, size):
                        assert sub in members

    def test_matches_brute_force(self):
        rng = random.Random(19)
        graphs = [random_chordal_graph(rng, rng.randint(1, 8)) for _ in range(30)]
        graphs += [random_graph(rng, rng.randint(1, 8), rng.random()) for _ in range(30)]
        for g in graphs:
            n = g.vertex_count
            subsets = [
                sub
                for size in range(1, n + 1)
                for sub in combinations(range(n), size)
                if all(g.adj[u] >> v & 1 for u, v in combinations(sub, 2))
            ]
            for cap in [*range(1, n + 1), None]:
                expected = tuple(s for s in subsets if cap is None or len(s) <= cap)
                cc = clique_complex(g, max_size=cap)
                assert cc == expected and len(cc) == len(expected)

    def test_family_clique_counts_formula(self):
        for k in (3, 5):
            counts = Counter(map(len, clique_complex(counterexample_family(k))))
            for j in range(1, k + 1):
                assert counts.get(j, 0) == comb(k, j) * 3**j

    def test_clique_budget(self, monkeypatch):
        # Only a graph with no elimination order has its cliques walked:
        # K4's 15 cliques are counted past a budget of 7.
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", 8)
        assert _clique_counts(cycle_graph(4)) == {1: 4, 2: 4}
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", 7)
        with pytest.raises(ResourceLimitError, match="more than 7 cliques"):
            _clique_counts(cycle_graph(4))
        assert _clique_counts(complete_graph(4)) == {1: 4, 2: 6, 3: 4, 4: 1}
        g = counterexample_graph()
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", 28)
        assert _clique_counts(g, max_size=2) == {1: 8, 2: 20}
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", 27)
        with pytest.raises(ResourceLimitError, match="more than 27 cliques"):
            _clique_counts(g, max_size=2)

    def test_listing_budget_boundary(self, monkeypatch):
        # The counterexample graph has 44 cliques, 28 of them of size <= 2;
        # the budget counts the cliques of the sizes listed.
        g = counterexample_graph()
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", 44)
        assert len(clique_complex(g)) == 44
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", 43)
        with pytest.raises(ResourceLimitError, match="more than 43 cliques"):
            clique_complex(g)
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", 28)
        assert len(clique_complex(g, max_size=2)) == 28
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", 27)
        with pytest.raises(ResourceLimitError, match="more than 27 cliques"):
            clique_complex(g, max_size=2)

    def test_one_cone_walk_per_listing(self, monkeypatch):
        # A listing takes its cones once and counts them with the same
        # shape rule as the clique counts; a chordal graph is not walked.
        walks, shape_counts = [], []
        walk, counted = graphs._cone_walk, graphs._shape_counts
        monkeypatch.setattr(graphs, "_cone_walk", lambda *a: walks.append(a) or walk(*a))
        monkeypatch.setattr(graphs, "_shape_counts", lambda *a: shape_counts.append(a) or counted(*a))
        for g in (counterexample_graph(), cycle_graph(5), counterexample_family(3)):
            for cap in (None, 1, 2):
                walks.clear()
                shape_counts.clear()
                listed = clique_complex(g, cap)
                assert (len(walks), len(shape_counts)) == (1, 1)
                assert _clique_counts(g, cap) == Counter(map(len, listed))
                assert (len(walks), len(shape_counts)) == (2, 2)
        walks.clear()
        clique_complex(complete_graph(6))
        _clique_counts(complete_graph(6))
        assert walks == []

    def test_budget_stops_before_any_clique_is_expanded(self, monkeypatch):
        # The cocktail-party graph on 28 vertices (3**14 - 1 cliques) stops
        # in its walk, K21 (2**21 - 1) by its count, with no clique tuple
        # built.
        def combinations(*args):
            raise AssertionError("clique expanded")

        cocktail = build_graph(28, [(u, v) for u in range(28) for v in range(u + 1, 28) if v != u + 14])
        k21, k6 = complete_graph(21), complete_graph(6)
        monkeypatch.setattr(graphs, "combinations", combinations)
        for g in (cocktail, k21):
            with pytest.raises(ResourceLimitError, match=f"^graph has more than {graphs.MAX_LISTED_CLIQUES} cliques$"):
                clique_complex(g)
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", 62)
        with pytest.raises(ResourceLimitError, match="more than 62 cliques"):
            clique_complex(k6)

    def test_non_chordal_counts_keep_no_list(self):
        # The K = 7 family has 16,383 cliques; listing them to count them
        # peaked above 2 MB.
        g = counterexample_family(7)
        tracemalloc.start()
        try:
            counts = _clique_counts(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == {j: comb(7, j) * 3**j for j in range(1, 8)}
        assert peak < 1_000_000

    def test_counts_along_elimination_order_match_enumeration(self):
        # On a chordal graph the counts come from the later-neighbour
        # sizes, with no clique listed; elsewhere from the enumeration.
        rng = random.Random(29)
        cases = [random_chordal_graph(rng, rng.randint(0, 12)) for _ in range(500)]
        cases += [random_graph(rng, rng.randint(0, 9), rng.random()) for _ in range(100)]
        cases += [complete_graph(12), edgeless_graph(0), counterexample_graph()]
        for g in cases:
            cap = rng.choice([None, rng.randint(1, 13)])
            assert _clique_counts(g, cap) == Counter(map(len, clique_complex(g, max_size=cap)))


class TestEulerSums:
    def test_counterexample_value(self):
        assert truncated_euler_sum(counterexample_graph()) == 8 - 20 + 16

    def test_family_values(self):
        for k in (3, 5):
            assert truncated_euler_sum(counterexample_family(k)) == 1 + 2**k

    def test_path4_depth1(self):
        assert truncated_euler_sum(path_graph(4), r=1) == 1
        assert truncated_euler_sum(path_graph(4), r=1) == connected_components(path_graph(4))

    def test_truncation_bound_on_random_chordal(self):
        rng = random.Random(23)
        for _ in range(100):
            g = random_chordal_graph(rng, rng.randint(1, 9))
            c = connected_components(g)
            for r in range(1, g.vertex_count + 2):
                value = truncated_euler_sum(g, r=r)
                assert value <= c
                if 2 * r >= g.vertex_count:
                    assert value == c

    def test_invalid_r(self):
        with pytest.raises(DomainError, match="^truncation depth must be >= 1, got 0$"):
            truncated_euler_sum(path_graph(3), r=0)

    def test_clique_budget(self, monkeypatch):
        # The counterexample graph has 44 cliques, walked to be counted.
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", 44)
        assert truncated_euler_sum(counterexample_graph()) == 4
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", 43)
        with pytest.raises(ResourceLimitError, match="more than 43 cliques"):
            truncated_euler_sum(counterexample_graph())

    @pytest.mark.parametrize("r", [None, 1, 2])
    def test_chordal_sums_list_no_clique(self, monkeypatch, r):
        # K30 has 2**30 - 1 cliques; they are counted along its order.
        def clique_complex(*args, **kwargs):
            raise AssertionError("cliques listed")

        monkeypatch.setattr(graphs, "clique_complex", clique_complex)
        cap = 30 if r is None else 2 * r
        want = sum((-1) ** (s - 1) * comb(30, s) for s in range(1, cap + 1))
        assert truncated_euler_sum(complete_graph(30), r=r) == want

