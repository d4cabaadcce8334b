"""Network reliability: path enumeration, exact polynomials, bound sweeps."""

import json
import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from chordalbounds import (
    DomainError,
    bound_polynomials,
    bound_values,
    bridge_network,
    build_network,
    enumerate_st_paths,
    exact_reliability,
    intersection_prob,
    path_event_system,
    path_graph,
    sweep,
    union_prob_exact,
)
from chordalbounds import graphs
from chordalbounds.bounds import bound
from chordalbounds.errors import ParseError, ResourceLimitError
from chordalbounds.poly import Polynomial

from helpers import BRIDGE_PATH_ORDER

DATA = Path(__file__).parent / "data"
NETWORK_FILES = sorted(path.name for path in DATA.glob("network_*.json"))

EQ_EXACT = Polynomial((0, 0, 2, 2, -5, 2))
EQ_TREE = Polynomial((0, 0, 1, 1, -1, 0, Fraction(-1, 2)))
EQ_PATH_AVG = Polynomial((0, 0, 1, 1, Fraction(-5, 4), 0, Fraction(-1, 4)))
EQ_DEPTH1 = Polynomial((0, 0, 2, 2, -5, 0, -1))


def _ladder_arcs(k):
    """Arcs of the ladder network with k rungs from node 0 to node 1: 4k + 2
    arcs and 2**(k + 1) paths."""
    arcs = [(0, 2), (0, 3)]
    for i in range(k):
        u, l = 2 * i + 2, 2 * i + 3
        arcs += [(u, l), (l, u)]
        if i + 1 < k:
            arcs += [(u, u + 2), (l, l + 2)]
    return arcs + [(2 * k, 1), (2 * k + 1, 1)]


def assert_is_directed_path(net, arc_set):
    node = net.source
    remaining = set(arc_set)
    visited = {node}
    while node != net.terminal:
        step = [a for a in remaining if net.arcs[a][0] == node]
        assert len(step) == 1, f"arc set {sorted(arc_set)} is not a simple path"
        arc = step[0]
        node = net.arcs[arc][1]
        assert node not in visited
        visited.add(node)
        remaining.discard(arc)
    assert not remaining


class TestNetworkConstruction:
    def test_validations(self):
        with pytest.raises(DomainError):
            build_network(3, [(0, 1)], 0, 0)
        with pytest.raises(DomainError):
            build_network(3, [(0, 0)], 0, 1)
        with pytest.raises(DomainError):
            build_network(3, [(0, 1), (0, 1)], 0, 1)
        with pytest.raises(DomainError):
            build_network(3, [(0, 5)], 0, 1)
        with pytest.raises(DomainError):
            build_network(2, [(0, 1)], 0, 1, reliability=1.5)
        with pytest.raises(DomainError):
            build_network(2, [(0, 1)], 0, 1, reliability=[0.5, 0.5])

    def test_string_other_than_symbolic_rejected(self):
        for value in ("0.5", "1", ""):
            with pytest.raises(DomainError, match=repr(value)):
                build_network(2, [(0, 1)], 0, 1, reliability=value)

    def test_boolean_reliability_rejected(self):
        for value in (True, False, [0.5, True]):
            with pytest.raises(DomainError, match="True|False"):
                build_network(3, [(0, 1), (1, 2)], 0, 2, reliability=value)

    def test_string_arc_reliability_rejected(self):
        with pytest.raises(DomainError, match="'0.5'"):
            build_network(2, [(0, 1)], 0, 1, reliability=["0.5"])

    @pytest.mark.parametrize(
        "value, named",
        [({"a": 1}, "{'a': 1}"), ({}, "{}"), (None, "None"), ([0.5, None], "None"), (b"1", "b'1'"), (1j, "1j")],
        ids=["object", "empty-object", "none", "none-item", "bytes", "complex"],
    )
    def test_other_reliability_values_named(self, value, named):
        with pytest.raises(DomainError, match=re.escape(f"got {named}")):
            build_network(3, [(0, 1), (1, 2)], 0, 2, reliability=value)

    def test_rational_reliability_is_a_real_number(self):
        net = build_network(3, [(0, 1), (1, 2)], 0, 2, reliability=Fraction(9, 10))
        assert net.arc_reliability == (0.9, 0.9)
        net = build_network(3, [(0, 1), (1, 2)], 0, 2, reliability=(Fraction(1, 2), 1))
        assert net.arc_reliability == (0.5, 1.0)

    @pytest.mark.parametrize(
        "arcs",
        [["ab"], {(0, 1): 1, (1, 2): 1}, [(0, 1, 2)], [(0,)], ((0, 1), {1: 2}), iter([(0, 1)]), "01", None],
        ids=["string-arc", "dict", "triple", "single", "dict-arc", "iterator", "string", "none"],
    )
    def test_arcs_must_be_a_list_of_pairs(self, arcs):
        with pytest.raises(DomainError, match="arcs must be a list of"):
            build_network(3, arcs, 0, 2)

    def test_arcs_may_be_lists_or_tuples(self):
        for arcs in ([[0, 1], [1, 2]], ((0, 1), (1, 2)), [(0, 1), [1, 2]]):
            assert build_network(3, arcs, 0, 2).arcs == ((0, 1), (1, 2))

    def test_scalar_reliability_broadcasts(self):
        net = bridge_network(reliability=0.8)
        assert net.arc_reliability == (0.8,) * 6
        assert not net.symbolic
        assert bridge_network().symbolic


class TestPathEnumeration:
    def test_bridge_paths(self):
        net = bridge_network()
        paths = enumerate_st_paths(net)
        # the four expected arc sets, in canonical (length, lexicographic) order
        assert paths == (
            frozenset({0, 4}),
            frozenset({1, 5}),
            frozenset({0, 2, 5}),
            frozenset({1, 3, 4}),
        )
        assert set(paths) == set(BRIDGE_PATH_ORDER)
        for arc_set in paths:
            assert_is_directed_path(net, arc_set)

    def test_single_arc(self):
        net = build_network(2, [(0, 1)], 0, 1)
        assert enumerate_st_paths(net) == (frozenset({0}),)

    def test_disconnected(self):
        net = build_network(3, [(0, 1)], 0, 2)
        assert enumerate_st_paths(net) == ()

    def test_long_paths_need_no_recursion(self):
        # A line of 1 200 nodes is one path of 1 199 arcs; a walk that
        # recursed once per arc raised RecursionError on it.  Two disjoint
        # routes of 701 and 601 arcs come out shorter one first.
        line = build_network(1200, [(i, i + 1) for i in range(1199)], 0, 1199)
        assert enumerate_st_paths(line) == (frozenset(range(1199)),)
        long_route = [(0, 2)] + [(i, i + 1) for i in range(2, 701)] + [(701, 1)]
        short_route = [(0, 702)] + [(i, i + 1) for i in range(702, 1301)] + [(1301, 1)]
        routes = build_network(1302, long_route + short_route, 0, 1)
        assert enumerate_st_paths(routes) == (frozenset(range(701, 1302)), frozenset(range(701)))


class TestPathEventSystem:
    def test_symbolic_pair_probability(self):
        sys_ = path_event_system(bridge_network(), paths=BRIDGE_PATH_ORDER)
        # demo events 1 and 3 (0-based 0 and 2) use arcs {1,5} and {2,4,5}
        from chordalbounds.poly import P

        assert intersection_prob(sys_, {0, 2}) == P**4

    def test_numeric_all_arcs_up(self):
        sys_ = path_event_system(bridge_network(reliability=1.0))
        for i in range(sys_.event_count):
            assert intersection_prob(sys_, {i}) == 1.0

    def test_no_path_rejected(self):
        net = build_network(3, [(0, 1)], 0, 2)
        with pytest.raises(DomainError):
            path_event_system(net)


class TestExactReliability:
    def test_symbolic_polynomial(self):
        assert exact_reliability(bridge_network()) == EQ_EXACT

    def test_numeric_endpoints(self):
        assert exact_reliability(bridge_network(reliability=1.0)) == 1.0
        assert exact_reliability(bridge_network(reliability=0.0)) == 0.0

    def test_no_path_is_zero(self):
        assert exact_reliability(build_network(3, [(0, 1)], 0, 2)) == Polynomial()

    def test_sieve_matches_outcome_enumeration(self):
        # inclusion-exclusion over the four events, assembled here from
        # intersection probabilities, must equal the direct enumeration
        sys_ = path_event_system(bridge_network(), paths=BRIDGE_PATH_ORDER)
        total = Polynomial()
        for size in range(1, 5):
            for index_set in combinations(range(4), size):
                term = intersection_prob(sys_, index_set)
                total = total + term if size % 2 == 1 else total - term
        assert total == union_prob_exact(sys_)


class TestBoundPolynomials:
    def test_all_four_polynomials(self):
        # The bridge example's own path order, with the path graph over it,
        # gives the example's four polynomials.
        sys_ = path_event_system(bridge_network(), paths=BRIDGE_PATH_ORDER)
        g = path_graph(len(BRIDGE_PATH_ORDER))
        assert union_prob_exact(sys_) == EQ_EXACT
        assert bound("hunter-lower", sys_, g=g).value == EQ_TREE
        assert bound("kwerel-lower", sys_, g=g).value == EQ_PATH_AVG
        assert bound("bonferroni-lower", sys_, g=g).value == EQ_DEPTH1

    def test_canonical_event_order_gives_same_values(self):
        # The report numbers the paths canonically, not in the bridge
        # example's order, and gets the example's four polynomials.
        polys = bound_polynomials(bridge_network())
        assert polys["exact"] == EQ_EXACT
        assert polys["hunter-lower"] == EQ_TREE
        assert polys["kwerel-lower"] == EQ_PATH_AVG
        assert polys["bonferroni-lower"] == EQ_DEPTH1

    def test_requires_symbolic_network(self):
        with pytest.raises(DomainError):
            bound_polynomials(bridge_network(reliability=0.9))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_no_polynomial_arithmetic_on_symbolic_ladders(self, monkeypatch, k):
        # The brackets add packed integers and each value is built once
        # from its coefficients: no Polynomial is added or multiplied.
        calls = []

        def refuse(name):
            def wrapped(*args):
                calls.append(name)
                return original[name](*args)

            return wrapped

        original = {name: getattr(Polynomial, name) for name in ("__add__", "__radd__", "__mul__", "__rmul__")}
        for name in original:
            monkeypatch.setattr(Polynomial, name, refuse(name))
        net = build_network(2 * k + 2, _ladder_arcs(k), 0, 1)
        values = bound_values(net)
        assert calls == []
        assert all(type(value) is Polynomial for value in values.values())


def _random_network(rng):
    """A seeded network of 4-7 nodes and at most 12 arcs, source 0 and
    terminal the last node, with at least one source-to-terminal path."""
    while True:
        nodes = rng.randint(4, 7)
        pairs = [(u, v) for u in range(nodes) for v in range(nodes) if u != v]
        net = build_network(nodes, rng.sample(pairs, rng.randint(nodes - 1, 12)), 0, nodes - 1)
        if enumerate_st_paths(net):
            return net


def _with_reliability(net, reliability):
    return build_network(net.node_count, net.arcs, net.source, net.terminal, reliability)


def _seeded_reliabilities(net, seed):
    rng = random.Random(seed)
    return [rng.random() for _ in net.arcs]


class TestHunterColumn:
    """The report's "hunter-lower" is summed along the path order, with no
    graph; it is the tree bound on the path graph over the event order."""

    @staticmethod
    def assert_tree_bound(net):
        sys_ = path_event_system(net)
        want = bound("hunter-lower", sys_, g=path_graph(sys_.event_count)).value
        got = bound_values(net)["hunter-lower"]
        assert type(got) is type(want)
        if isinstance(want, float):
            assert got.hex() == want.hex()
        else:
            assert got == want

    @pytest.mark.parametrize("name", NETWORK_FILES)
    def test_network_files(self, name):
        data = json.loads((DATA / name).read_text())
        net = build_network(data["nodes"], data["arcs"], data["s"], data["t"])
        self.assert_tree_bound(net)
        for seed in range(3):
            self.assert_tree_bound(_with_reliability(net, _seeded_reliabilities(net, seed)))
        if data.get("p", "symbolic") != "symbolic":
            self.assert_tree_bound(_with_reliability(net, data["p"]))

    def test_random_networks(self):
        rng = random.Random(4801)
        for seed in range(24):
            net = _random_network(rng)
            self.assert_tree_bound(net)
            self.assert_tree_bound(_with_reliability(net, _seeded_reliabilities(net, seed)))

    def test_no_graph_is_built_or_searched(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the report built or searched a graph")

        monkeypatch.setattr(graphs, "mcs_order", refuse)
        monkeypatch.setattr(graphs, "build_graph", refuse)
        net = build_network(6, _ladder_arcs(2), 0, 1)
        assert set(bound_values(net)) == {"exact", "hunter-lower", "kwerel-lower", "bonferroni-lower"}
        assert bound_polynomials(net) == bound_values(net)
        assert all(type(value) is float for value in bound_values(_with_reliability(net, 0.9)).values())


class TestSweep:
    def test_row_at_one(self):
        header, rows = sweep(bridge_network(), [1])
        assert header == ["p", "exact", "hunter-lower", "kwerel-lower", "bonferroni-lower"]
        assert rows[0] == (1, 1, Fraction(1, 2), Fraction(1, 2), -2)

    def test_row_at_zero(self):
        _, rows = sweep(bridge_network(), [0])
        assert rows[0] == (0, 0, 0, 0, 0)

    def test_float_grid_points_read_as_decimals(self):
        _, rows = sweep(bridge_network(), [0.5])
        assert rows[0][0] == Fraction(1, 2)
        assert rows[0][1] == EQ_EXACT(Fraction(1, 2))

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            sweep(bridge_network(), [Fraction(3, 2)])
        with pytest.raises(DomainError):
            sweep(bridge_network(), [1], kinds=("exact",))

    def test_lower_bounds_never_exceed_exact(self):
        grid = [Fraction(i, 50) for i in range(51)]
        _, rows = sweep(bridge_network(), grid)
        for row in rows:
            exact = row[1]
            assert all(value <= exact for value in row[2:])

    @pytest.mark.parametrize("spelling", [int, float, Fraction, Decimal])
    def test_rows_match_per_point_fractions(self, spelling):
        # Each point keeps its own denominator; every cell equals the
        # polynomial evaluated at that point as a Fraction.
        net = build_network(5, [(0, 1), (1, 2), (0, 3), (3, 2), (1, 3), (2, 4), (3, 4)], 0, 4)
        polys = bound_polynomials(net)
        kinds = ("kwerel-lower", "hunter-lower")
        if spelling is int:
            points = [0, 1, 1, 0]
        elif spelling is float:
            points = [0.0, 0.01, 0.37, 1 / 3, 0.125, 1.0]
        elif spelling is Decimal:
            points = [Decimal("0.25"), Decimal("1E-7"), Decimal("0.1000000000000000055511151231257827"), Decimal(1)]
        else:
            points = [Fraction(1, 7), Fraction(3, 10**20 + 39), Fraction(2, 4), Fraction(99, 100)]
        header, rows = sweep(net, points, kinds)
        assert header == ["p", "exact", *kinds]
        for point, row in zip(points, rows):
            p = Fraction(str(point)) if isinstance(point, float) else Fraction(point)
            want = (p, *(sum(c * p**i for i, c in enumerate(polys[k].coeffs)) for k in ("exact", *kinds)))
            assert row == want
            assert all(type(cell) is Fraction for cell in row)
        assert len(rows) == len(points)

    def test_point_errors_in_order(self):
        # Points are read and checked one by one: the first bad one decides.
        with pytest.raises(DomainError, match=r"p value 3/2 outside \[0, 1\]"):
            sweep(bridge_network(), [Fraction(1, 2), Fraction(3, 2), "x"])
        with pytest.raises(ValueError, match="Invalid literal"):
            sweep(bridge_network(), [Fraction(1, 2), "x", Fraction(3, 2)])
        with pytest.raises(DomainError, match="p value -1/4 outside"):
            sweep(bridge_network(), [-0.25])

    @pytest.mark.parametrize("point", [True, False])
    def test_bool_point_rejected(self, point):
        # build_network refuses a bool reliability, and a sweep point alike
        with pytest.raises(DomainError, match=f"got {point}$"):
            sweep(bridge_network(), [Fraction(1, 2), point])

    @pytest.mark.parametrize("point, named", [(None, "None"), ([1, 2], "[1, 2]"), (1j, "1j")])
    def test_other_points_named(self, point, named):
        with pytest.raises(DomainError, match=re.escape(f"got {named}")):
            sweep(bridge_network(), [point])

    def test_string_points_read_as_rational_text(self):
        # Strings go through the one rational reader, with its errors and
        # its exponent cap, and read the same on every Python version.
        _, rows = sweep(bridge_network(), ["1/2", " 0.25 ", "3/4"])
        assert rows == sweep(bridge_network(), [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)])[1]
        with pytest.raises(ResourceLimitError, match="decimal exponent exceeds the cap"):
            sweep(bridge_network(), ["1e-5000"])
        for text in ("3/", "3 /4"):
            with pytest.raises(ParseError, match=re.escape(repr(text))):
                sweep(bridge_network(), [text])

    def test_large_p_ordering(self):
        # near p = 1 the depth-one alternating bound falls below the others
        _, rows = sweep(bridge_network(), [Fraction(9, 10)])
        _, exact, tree, path_avg, depth1 = rows[0]
        assert tree > depth1 and path_avg > depth1
