"""Command-line interface: output formats, exit codes, determinism."""

import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from chordalbounds import bounds, cli, from_outcomes, graphs, reliability, values
from chordalbounds.cli import _load_events, main
from chordalbounds.events import MAX_SIGNATURE_NODES
from chordalbounds.poly import Polynomial
from chordalbounds.values import RATIONAL


DATA = Path(__file__).parent / "data"


def _golden_compute_cases():
    """`bounds compute` arguments after the events file, by case name."""
    chordal, tree = str(DATA / "golden_chordal.json"), str(DATA / "golden_tree.json")
    cases = {}
    for direction in ("upper", "lower"):
        for r in (1, 2, 3):
            cases[f"bonferroni-{direction}-r{r}"] = ["--kind", f"bonferroni-{direction}", "-r", str(r)]
    for kind in ("chordal-upper", "chordal-lower"):
        cases[kind] = ["--kind", kind, "--graph", chordal]
        for r in (1, 2):
            cases[f"{kind}-r{r}"] = ["--kind", kind, "--graph", chordal, "-r", str(r)]
    cases["chordal-lower-sharpened"] = ["--kind", "chordal-lower-sharpened", "--graph", chordal]
    for kind in ("hunter-upper", "hunter-lower"):
        cases[kind] = ["--kind", kind, "--graph", tree]
    cases["path-lower"] = ["--kind", "path-lower"]
    cases["path-lower-shuffled"] = ["--kind", "path-lower", "--order", "3,7,0,9,1,5,2,8,6,4"]
    for kind in ("kwerel-upper", "kwerel-lower", "kwerel2-lower"):
        cases[kind] = ["--kind", kind]
    for kind in ("seneta-upper", "seneta-lower"):
        for j, k in ((0, 1), (2, 2), (9, 3)):
            cases[f"{kind}-{j}-{k}"] = ["--kind", kind, "--j", str(j), "--k", str(k)]
    for m in range(10):
        cases[f"generalized-lower-m{m}"] = ["--kind", "generalized-lower", "--m", str(m)]
    return cases


GOLDEN_COMPUTE_CASES = _golden_compute_cases()
GOLDEN_EVENTS = {"rational": "golden_events.json", "real": "golden_events_real.json"}
# `reliability` arguments after the network file, by case name; the grid
# 1/7 is not decimal, and subset-plain lists two default kinds out of order.
GOLDEN_RELIABILITY_CASES = {
    "plain": [],
    "sweep": ["--sweep", "0:1:0.01"],
    "kwerel-sevenths": ["--bounds", "kwerel-lower", "--sweep", "0:1:1/7"],
    "subset-plain": ["--bounds", "bonferroni-lower,hunter-lower"],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def mcs_runs(monkeypatch):
    """The graphs `graphs.mcs_order` runs on, one entry per run."""
    runs = []
    original = graphs.mcs_order
    monkeypatch.setattr(graphs, "mcs_order", lambda g: runs.append(g) or original(g))
    return runs


@pytest.fixture
def graph_text(tmp_path):
    path = tmp_path / "path4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    return str(path)


@pytest.fixture
def graph_json(tmp_path):
    path = tmp_path / "cycle4.json"
    path.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
    return str(path)


@pytest.fixture
def events_json(tmp_path):
    path = tmp_path / "events.json"
    path.write_text(
        json.dumps(
            {
                "weights": [0.25, 0.25, 0.25, 0.25],
                "events": [[0, 1], [1, 2], [2, 3], [0, 3]],
            }
        )
    )
    return str(path)


@pytest.fixture
def bernoulli_json(tmp_path):
    path = tmp_path / "bernoulli.json"
    path.write_text(json.dumps({"coords": 2, "probs": [0.5, 0.5], "events": [[0], [1]]}))
    return str(path)


@pytest.fixture
def rational_events_json(tmp_path):
    path = tmp_path / "rational.json"
    path.write_text(json.dumps({"weights": ["1/2", "1/2"], "events": [[0], [1]]}))
    return str(path)


@pytest.fixture
def network_json(tmp_path):
    path = tmp_path / "bridge.json"
    path.write_text(
        json.dumps(
            {
                "nodes": 4,
                "arcs": [[0, 1], [0, 2], [1, 2], [2, 1], [1, 3], [2, 3]],
                "s": 0,
                "t": 3,
                "p": "symbolic",
            }
        )
    )
    return str(path)


class TestGraphCheck:
    def test_text_format(self, capsys, graph_text):
        code, out, err = run(capsys, "graph", "check", graph_text)
        assert code == 0 and err == ""
        assert "vertices: 4" in out
        assert "edges: 3" in out
        assert "chordal: yes" in out
        assert "components: 1" in out
        assert "independence_number: 2" in out
        assert "clique_sizes: 1:4 2:3" in out

    def test_json_format(self, capsys, graph_json):
        code, out, _ = run(capsys, "graph", "check", graph_json)
        assert code == 0
        assert "chordal: no" in out

    @pytest.mark.parametrize(
        "graph, named",
        [({"vertices": 2, "edges": [[False, True]]}, "False"), ({"vertices": 2.5, "edges": []}, "2.5")],
        ids=["bool-endpoints", "float-vertices"],
    )
    def test_non_integer_ids_exit_2(self, capsys, tmp_path, graph, named):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        code, out, err = run(capsys, "graph", "check", str(path))
        assert code == 2 and not out and f"got {named}" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "graph", "check", "no-such-file.txt")
        assert code == 1 and err

    def test_vertex_count_past_the_list_size_exit_3(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"vertices": 10**400, "edges": [[0, 1]]}))
        code, out, err = run(capsys, "graph", "check", str(path))
        assert code == 3 and not out and "exceeds the largest list size" in err

    def test_vertex_cap_exit_3(self, capsys, tmp_path):
        # A billion vertices would allocate gigabytes before any check ran;
        # the count is compared with the cap first.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"vertices": 10**9, "edges": []}))
        start = time.perf_counter()
        code, out, err = run(capsys, "graph", "check", str(path))
        assert time.perf_counter() - start < 5
        assert (code, out) == (3, "")
        assert err == "error: graph check caps at 2000 vertices, got 1000000000\n"

    @pytest.mark.parametrize("vertices, code", [(3, 0), (4, 3)])
    @pytest.mark.parametrize("text", [False, True], ids=["json", "text"])
    def test_vertex_cap_boundary(self, capsys, tmp_path, monkeypatch, vertices, code, text):
        monkeypatch.setattr("chordalbounds.cli.MAX_CHECK_VERTICES", 3)
        path = tmp_path / "graph.txt"
        path.write_text(f"{vertices} 0\n" if text else json.dumps({"vertices": vertices, "edges": []}))
        got, out, err = run(capsys, "graph", "check", str(path))
        assert got == code
        assert (f"vertices: {vertices}" in out) if code == 0 else (not out and "caps at 3" in err)

    @pytest.mark.parametrize("graph, chordal", [("graph_text", "yes"), ("graph_json", "no")])
    def test_one_maximum_cardinality_search(self, capsys, mcs_runs, request, graph, chordal):
        code, out, _ = run(capsys, "graph", "check", request.getfixturevalue(graph))
        assert code == 0 and f"chordal: {chordal}" in out
        assert len(mcs_runs) == 1

    def test_complete_graph_cliques_are_counted(self, capsys, tmp_path):
        # K30 has 2**30 - 1 cliques: listing them would take hours.
        path = tmp_path / "k30.json"
        path.write_text(json.dumps({"vertices": 30, "edges": list(combinations(range(30), 2))}))
        code, out, err = run(capsys, "graph", "check", str(path))
        assert (code, err) == (0, "")
        sizes = " ".join(f"{size}:{comb(30, size)}" for size in range(1, 31))
        assert out.endswith(f"independence_number: 1\nclique_sizes: {sizes}\n")

    def test_empty_graph(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        assert run(capsys, "graph", "check", str(path)) == (
            0,
            "vertices: 0\nedges: 0\nchordal: yes\ncomponents: 0\n"
            "independence_number: 0\nclique_sizes: \n",
            "",
        )

    @staticmethod
    def _cocktail_party(tmp_path, pairs):
        """K_{pairs x 2}, not chordal for pairs >= 2, with 3**pairs - 1 cliques."""
        n = 2 * pairs
        edges = [(u, v) for u, v in combinations(range(n), 2) if v != u + pairs]
        path = tmp_path / "cocktail.json"
        path.write_text(json.dumps({"vertices": n, "edges": edges}))
        return str(path)

    def test_clique_budget_exit_3(self, capsys, tmp_path):
        path = self._cocktail_party(tmp_path, 12)
        assert 3**12 - 1 > cli.MAX_CHECK_CLIQUES
        code, out, err = run(capsys, "graph", "check", path)
        assert (code, out) == (3, "")
        assert err == f"error: graph has more than {cli.MAX_CHECK_CLIQUES} cliques\n"

    def test_independence_budget_exit_3(self, capsys, tmp_path):
        # The 8x8 grid has 176 cliques, but its exact independent-set
        # search needs 272 879 nodes, past the budget.
        edges = [[v, v + 1] for v in range(64) if v % 8 < 7] + [[v, v + 8] for v in range(56)]
        path = tmp_path / "grid8.json"
        path.write_text(json.dumps({"vertices": 64, "edges": edges}))
        code, out, err = run(capsys, "graph", "check", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: independence number search exceeds {graphs.MAX_INDEPENDENT_SET_NODES} nodes\n"

    @pytest.mark.parametrize("budget, code", [(11, 0), (10, 3)])
    def test_independence_budget_boundary(self, capsys, tmp_path, monkeypatch, budget, code):
        # The 3-cube's search visits 11 nodes.
        monkeypatch.setattr(graphs, "MAX_INDEPENDENT_SET_NODES", budget)
        path = tmp_path / "cube.txt"
        edges = [(v, v | 1 << k) for v in range(8) for k in range(3) if not v >> k & 1]
        path.write_text("8 12\n" + "".join(f"{u} {v}\n" for u, v in edges))
        got, out, _ = run(capsys, "graph", "check", str(path))
        assert got == code
        assert ("independence_number: 4\n" in out) if code == 0 else not out

    def test_cycle_alpha_without_search(self, capsys, tmp_path):
        # Maximum degree 2: the cycle is counted, not searched.
        path = tmp_path / "c60.json"
        path.write_text(json.dumps({"vertices": 60, "edges": [[i, (i + 1) % 60] for i in range(60)]}))
        code, out, err = run(capsys, "graph", "check", str(path))
        assert (code, err) == (0, "")
        assert "chordal: no\n" in out and "independence_number: 30\n" in out

    @pytest.mark.parametrize("budget, code", [(26, 0), (25, 3)])
    def test_clique_budget_boundary(self, capsys, tmp_path, monkeypatch, budget, code):
        monkeypatch.setattr("chordalbounds.cli.MAX_CHECK_CLIQUES", budget)
        got, out, _ = run(capsys, "graph", "check", self._cocktail_party(tmp_path, 3))
        assert got == code
        assert ("clique_sizes: 1:6 2:12 3:8" in out) if code == 0 else not out

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\n  \n", "is empty"),
            ("3\n0 1\n", "starts with a line 'n m'"),
            ("3 2\n0 1\n", "expected 2 edge lines, found 1"),
            ("3 1\n0 1 extra\n", "holds two vertices 'u v', got line 2: '0 1 extra'"),
            ("3 1\n\n0\n", "holds two vertices 'u v', got line 3: '0'"),
            ("3 1\na b\n", "holds two vertices 'u v', got line 2: 'a b'"),
            ("n m\n0 1\n", "starts with a line 'n m', got line 1: 'n m'"),
        ],
        ids=["empty", "bad-first-line", "edge-count", "edge-too-long", "edge-too-short", "edge-not-int",
             "first-line-not-int"],
    )
    def test_malformed_text_exit_1(self, capsys, tmp_path, text, message):
        path = tmp_path / "graph.txt"
        path.write_text(text)
        code, out, err = run(capsys, "graph", "check", str(path))
        assert code == 1 and not out and message in err

    @pytest.mark.parametrize(
        "edges, named",
        [
            ([[0, 1, 2]], "edges[0]: [0, 1, 2]"),
            ([[0, 1], [0]], "edges[1]: [0]"),
            ([5], "edges[0]: 5"),
        ],
        ids=["edge-too-long", "edge-too-short", "edge-not-a-list"],
    )
    def test_malformed_json_edge_exit_1(self, capsys, tmp_path, edges, named):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"vertices": 3, "edges": edges}))
        code, out, err = run(capsys, "graph", "check", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: an edge holds two vertices [u, v], got {named}\n"

    def test_json_edges_not_a_list_exit_1(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"vertices": 3, "edges": 5}))
        code, out, err = run(capsys, "graph", "check", str(path))
        assert (code, out, err) == (1, "", "error: 'edges' must be a list of [u, v] pairs, got 5\n")

    def test_json_graph_without_edges_exit_1(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"vertices": 3}))
        code, out, err = run(capsys, "graph", "check", str(path))
        assert (code, out, err) == (1, "", "error: graph file has no 'edges' key\n")


class TestBoundsCompute:
    def test_kwerel_lower_json(self, capsys, events_json):
        code, out, _ = run(capsys, "bounds", "compute", events_json, "--kind", "kwerel-lower")
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "kwerel-lower"
        assert report["direction"] == "lower"
        assert report["n"] == 4
        assert report["alpha_used"] == 2
        assert report["value"] == pytest.approx((2.0 - 0.5 * 1.0) / 2)

    def test_rational_backend_serializes_fractions(self, capsys, rational_events_json):
        code, out, _ = run(
            capsys, "bounds", "compute", rational_events_json, "--kind", "kwerel-lower"
        )
        assert code == 0
        assert json.loads(out)["value"] == "1"

    def test_sharpened_flag_is_a_usage_error(self, capsys, events_json, graph_text):
        # The sharpened bound is spelt --kind chordal-lower-sharpened.
        for depth in ([], ["-r", "1"]):
            code, out, err = run(
                capsys, "bounds", "compute", events_json, "--graph", graph_text,
                "--kind", "chordal-lower", "--sharpened", *depth,
            )
            assert (code, out) == (1, "")
            assert "unrecognized arguments: --sharpened" in err

    def test_chordal_requires_graph(self, capsys, events_json):
        code, _, err = run(capsys, "bounds", "compute", events_json, "--kind", "chordal-upper")
        assert code == 1 and "--graph" in err

    def test_hunter_on_non_tree_exit_2(self, capsys, events_json, graph_json):
        code, _, err = run(
            capsys, "bounds", "compute", events_json, "--graph", graph_json,
            "--kind", "hunter-lower",
        )
        assert code == 2 and "not a tree" in err

    def test_non_chordal_graph_exit_2(self, capsys, events_json, graph_json):
        code, _, err = run(
            capsys,
            "bounds",
            "compute",
            events_json,
            "--graph",
            graph_json,
            "--kind",
            "chordal-lower",
        )
        assert code == 2 and "not chordal" in err

    def test_unchecked_override(self, capsys, events_json, graph_json):
        code, out, _ = run(
            capsys,
            "bounds",
            "compute",
            events_json,
            "--graph",
            graph_json,
            "--kind",
            "chordal-lower",
            "--unchecked",
        )
        assert code == 0
        assert json.loads(out)["kind"] == "chordal-lower"

    def test_seneta_with_indices(self, capsys, events_json):
        code, out, _ = run(
            capsys,
            "bounds",
            "compute",
            events_json,
            "--kind",
            "seneta-lower",
            "--j",
            "0",
            "--k",
            "2",
        )
        assert code == 0
        assert json.loads(out)["alpha_used"] == 2

    @pytest.mark.parametrize("kind, flags", [("seneta-upper", ["--j", "0", "--k", "1"]),
                                             ("seneta-lower", ["--j", "0", "--k", "1"]),
                                             ("generalized-lower", ["--m", "0"])])
    def test_left_out_indices_keep_the_defaults(self, capsys, events_json, kind, flags):
        given = run(capsys, "bounds", "compute", events_json, "--kind", kind, *flags)
        assert given[0] == 0
        assert run(capsys, "bounds", "compute", events_json, "--kind", kind) == given

    @pytest.mark.parametrize(
        "order, named",
        [("a,b", "item 1: 'a'"), ("", "item 1: ''"), ("0,x,2,3", "item 2: 'x'"), ("0,1,2,3,", "item 5: ''"),
         ("1.5,0,2,3", "item 1: '1.5'")],
        ids=["letters", "empty", "second", "trailing-comma", "decimal"],
    )
    def test_malformed_order_named_exit_1(self, capsys, events_json, order, named):
        code, out, err = run(capsys, "bounds", "compute", events_json, "--kind", "path-lower", "--order", order)
        assert (code, out, err) == (1, "", f"error: --order lists event indices, got {named}\n")

    def test_bonferroni_depth_zero_exit_2(self, capsys, events_json):
        for kind in ("bonferroni-upper", "bonferroni-lower"):
            code, out, err = run(
                capsys, "bounds", "compute", events_json, "--kind", kind, "-r", "0"
            )
            assert code == 2 and not out and "truncation depth" in err

    def test_unknown_kind(self, capsys, events_json):
        code, _, err = run(capsys, "bounds", "compute", events_json, "--kind", "mystery")
        assert code == 1 and "unknown bound kind" in err

    @pytest.mark.parametrize("graph", [None, '{"vertices": 2, "edges": []}', "not a graph\n"],
                             ids=["no-graph", "mismatched-graph", "not-a-graph"])
    @pytest.mark.parametrize("kind", ["chordal-foo", "chordal", "hunterx", "hunter-lower-tree"])
    def test_unknown_kind_named_like_a_graph_kind(self, capsys, tmp_path, events_json, kind, graph):
        # The kind is looked up before any file is read, whatever its prefix.
        args = []
        if graph is not None:
            (tmp_path / "graph.json").write_text(graph)
            args = ["--graph", str(tmp_path / "graph.json")]
        got = run(capsys, "bounds", "compute", events_json, "--kind", kind, *args)
        assert got == (1, "", f"error: unknown bound kind {kind!r}\n")

    def test_unknown_kind_reads_no_events_file(self, capsys, tmp_path):
        got = run(capsys, "bounds", "compute", str(tmp_path / "missing.json"), "--kind", "mystery")
        assert got == (1, "", "error: unknown bound kind 'mystery'\n")

    def test_golden_cases_cover_the_kind_table(self):
        named = {args[args.index("--kind") + 1] for args in GOLDEN_COMPUTE_CASES.values()}
        assert named == set(bounds.KINDS)

    @pytest.mark.parametrize("case", GOLDEN_COMPUTE_CASES)
    @pytest.mark.parametrize("weights", GOLDEN_EVENTS)
    def test_golden_output(self, capsys, weights, case):
        events = str(DATA / GOLDEN_EVENTS[weights])
        code, out, _ = run(capsys, "bounds", "compute", events, *GOLDEN_COMPUTE_CASES[case])
        assert code == 0
        golden = json.loads((DATA / "golden_compute.json").read_text())
        assert out == golden[weights][case]


class TestBoundsAll:
    def test_table(self, capsys, events_json, graph_text):
        code, out, _ = run(capsys, "bounds", "all", events_json, "--graph", graph_text)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("kind")
        assert lines[1].startswith("exact-union")
        kinds = {line.split()[0] for line in lines[1:]}
        assert {
            "exact-union",
            "bonferroni-upper",
            "bonferroni-lower",
            "chordal-upper",
            "chordal-lower",
            "chordal-lower-sharpened",
            "hunter-upper",
            "hunter-lower",
            "path-lower",
            "kwerel-upper",
            "kwerel-lower",
            "kwerel2-lower",
            "generalized-lower",
        } <= kinds

    def test_non_chordal_needs_override(self, capsys, events_json, graph_json):
        code, _, _ = run(capsys, "bounds", "all", events_json, "--graph", graph_json)
        assert code == 2
        code, out, _ = run(
            capsys, "bounds", "all", events_json, "--graph", graph_json, "--unchecked"
        )
        assert code == 0 and "hunter-" not in out

    def test_signature_budget_stops_sharpened_denominator(self, capsys, tmp_path):
        # 22 independent single-coordinate events have 2**22 supported
        # signatures, whose whole walk took 30 s.
        n = 22
        path = tmp_path / "independent.json"
        path.write_text(json.dumps({"coords": n, "probs": [0.5] * n, "events": [[c] for c in range(n)]}))
        graph = tmp_path / "path.json"
        graph.write_text(json.dumps({"vertices": n, "edges": [[v, v + 1] for v in range(n - 1)]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "all", str(path), "--graph", str(graph))
        assert time.perf_counter() - start < 10
        assert (code, out) == (3, "")
        assert err == f"error: signature search exceeds {MAX_SIGNATURE_NODES} nodes\n"

    @pytest.mark.parametrize("graph", ["chordal", "tree"])
    def test_golden_rational_output(self, capsys, mcs_runs, graph):
        # The expected tables were written by the C(n, k) enumeration of
        # intersection queries that the binomial moments replaced.  Every
        # bound reads the graph's one elimination order.  The plain file
        # spells the same weights as "a/873" only, which the column reader
        # splits without reading each value on its own.
        for events in ("golden_events.json", "golden_events_plain.json"):
            mcs_runs.clear()
            code, out, _ = run(
                capsys,
                "bounds",
                "all",
                str(DATA / events),
                "--graph",
                str(DATA / f"golden_{graph}.json"),
            )
            assert code == 0
            assert out == (DATA / f"golden_{graph}.out").read_text(), events
            assert len(mcs_runs) == 1

    def test_golden_equal_probability_coords(self, capsys):
        # Every coordinate has probability 2/5, in several spellings, so
        # every intersection is (2/5)**k for k required coordinates.
        code, out, _ = run(
            capsys,
            "bounds",
            "all",
            str(DATA / "golden_coords.json"),
            "--graph",
            str(DATA / "golden_coords_graph.json"),
        )
        assert code == 0
        assert out == (DATA / "golden_coords.out").read_text()

    def test_golden_certain_and_impossible_coords(self, capsys):
        # Coordinates of probability 1 and 0 decide which atoms have
        # support: α′ is 3 here, against 5 with the impossible coordinate
        # at 1/2, 4 with the certain ones at 1/2, and α = 6.
        code, out, _ = run(
            capsys,
            "bounds",
            "all",
            str(DATA / "golden_coords_certain.json"),
            "--graph",
            str(DATA / "golden_coords_certain_graph.json"),
        )
        assert code == 0
        assert out == (DATA / "golden_coords_certain.out").read_text()

    @pytest.mark.parametrize(
        "command",
        [["all"], ["compute", "--kind", "chordal-upper"]],
        ids=["all", "compute-chordal"],
    )
    @pytest.mark.parametrize("text", [False, True], ids=["json", "text"])
    def test_vertex_count_checked_before_the_graph_is_built(
        self, capsys, tmp_path, monkeypatch, events_json, command, text
    ):
        # A graph's size follows its vertex count: a billion vertices
        # would allocate gigabytes before the mismatch showed.
        def build_graph(n, edges):
            raise AssertionError(f"graph on {n} vertices built")

        monkeypatch.setattr("chordalbounds.cli.build_graph", build_graph)
        path = tmp_path / "huge.txt"
        path.write_text("1000000000 0\n" if text else json.dumps({"vertices": 10**9, "edges": []}))
        action, *rest = command
        code, out, err = run(capsys, "bounds", action, events_json, "--graph", str(path), *rest)
        assert code == 2 and not out
        assert err == "error: system has 4 events but graph has 1000000000 vertices\n"

    def test_graph_free_kind_ignores_graph_size(self, capsys, tmp_path, events_json):
        # kwerel-upper reads no graph, so a graph of the wrong size changes
        # nothing.
        path = tmp_path / "small.json"
        path.write_text(json.dumps({"vertices": 2, "edges": []}))
        code, want, _ = run(capsys, "bounds", "compute", events_json, "--kind", "kwerel-upper")
        assert code == 0
        code, got, err = run(
            capsys, "bounds", "compute", events_json, "--kind", "kwerel-upper", "--graph", str(path)
        )
        assert code == 0 and not err
        assert got == want

    @pytest.mark.parametrize("kind", ["kwerel-upper", "path-lower", "bonferroni-lower"])
    def test_graph_free_kind_reads_no_graph(self, capsys, tmp_path, monkeypatch, events_json, kind):
        # A billion vertices would allocate gigabytes if the graph were built.
        def build_graph(n, edges):
            raise AssertionError(f"graph on {n} vertices built")

        monkeypatch.setattr("chordalbounds.cli.build_graph", build_graph)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"vertices": 10**9, "edges": []}))
        want = run(capsys, "bounds", "compute", events_json, "--kind", kind)
        assert want[0] == 0
        assert run(capsys, "bounds", "compute", events_json, "--kind", kind, "--graph", str(path)) == want

    def test_real_rows_match_rational_oracle(self, capsys, tmp_path):
        # Weights are multiples of 2**-30, so the floats read as Fractions
        # still sum to exactly one.  This seed puts S_1 - S_2 (the
        # bonferroni-lower row) near zero, about 3500 times below S_1.
        rng = random.Random(80)
        cuts = sorted(rng.sample(range(1, 1 << 30), 199))
        weights = [Fraction(b - a, 1 << 30) for a, b in zip([0, *cuts], [*cuts, 1 << 30])]
        events = [[o for o in range(200) if rng.random() < 2 / 9] for _ in range(10)]
        graph = str(DATA / "golden_chordal.json")
        tables = []
        for label, values in (("real", map(float, weights)), ("rational", map(str, weights))):
            path = tmp_path / f"{label}.json"
            path.write_text(json.dumps({"weights": list(values), "events": events}))
            code, out, _ = run(capsys, "bounds", "all", str(path), "--graph", graph)
            assert code == 0
            tables.append([line.rsplit(None, 1) for line in out.splitlines()[1:]])
        real, exact = tables
        assert [label for label, _ in real] == [label for label, _ in exact]
        bonferroni_lower = next(v for label, v in exact if label.startswith("bonferroni-lower"))
        assert abs(Fraction(bonferroni_lower)) < Fraction(1, 1000)
        for (label, got), (_, want) in zip(real, exact):
            want = Fraction(want)
            assert abs(Fraction(got) - want) <= Fraction(1, 10**10) * max(1, abs(want)), label


    def test_non_finite_weights_exit_2(self, capsys, tmp_path, graph_text):
        path = tmp_path / "infinite.json"
        path.write_text('{"weights": [Infinity, -Infinity, 1.0], "events": [[0], [1], [2], [0, 1]]}')
        code, out, err = run(capsys, "bounds", "all", str(path), "--graph", graph_text)
        assert code == 2 and not out and "non-finite" in err

    def test_boolean_weights_exit_2(self, capsys, tmp_path, graph_text):
        path = tmp_path / "boolean.json"
        path.write_text(json.dumps({"weights": [True, False], "events": [[0], [1], [0], [1]]}))
        code, out, err = run(capsys, "bounds", "all", str(path), "--graph", graph_text)
        assert code == 2 and not out and "true" in err

    def test_boolean_probs_exit_2(self, capsys, tmp_path):
        path = tmp_path / "boolean-coords.json"
        path.write_text(json.dumps({"coords": 2, "probs": [0.5, True], "events": [[0], [1]]}))
        code, out, err = run(capsys, "bounds", "compute", str(path), "--kind", "kwerel-lower")
        assert code == 2 and not out and "true" in err

    @pytest.mark.parametrize(
        "events",
        [
            {"weights": ["1/0", "1/2"], "events": [[0], [1]]},
            {"weights": ["+1/0", "1/2"], "events": [[0], [1]]},
            {"coords": 1, "probs": ["1/0"], "events": [[0], [0]]},
        ],
        ids=["weights", "weights-read-by-fraction", "probs"],
    )
    def test_zero_denominator_exit_1(self, capsys, tmp_path, events):
        path = tmp_path / "events.json"
        path.write_text(json.dumps(events))
        graph = tmp_path / "edgeless.json"
        graph.write_text(json.dumps({"vertices": 2, "edges": []}))
        code, out, err = run(capsys, "bounds", "all", str(path), "--graph", str(graph))
        assert code == 1 and not out and err.startswith("error: zero denominator")

    @pytest.mark.parametrize(
        "events",
        [
            {"weights": [10**400, 1], "events": [[0], [1]]},
            {"coords": 1, "probs": [10**400], "events": [[0], [0]]},
        ],
        ids=["weights", "probs"],
    )
    def test_integer_too_large_for_a_float_exit_2(self, capsys, tmp_path, events):
        path = tmp_path / "events.json"
        path.write_text(json.dumps(events))
        graph = tmp_path / "edgeless.json"
        graph.write_text(json.dumps({"vertices": 2, "edges": []}))
        code, out, err = run(capsys, "bounds", "all", str(path), "--graph", str(graph))
        assert code == 2 and not out and f"{10**400} is too large for a float" in err

    def test_rational_syntax_matches_fraction(self, tmp_path):
        # Read by `int` on plain digits, by `Fraction` otherwise; JSON
        # numbers in a list with strings are read as their text.
        weights = [
            " 7/873 ", "+7/873", "14/1746", "0.05", "5e-2", "٣/٤٠", "0", 0, 0.125,
            *(["7_0/8730"] if sys.version_info >= (3, 11) else []),
        ]
        rest = 1 - sum(Fraction(str(w)) for w in weights)
        # two weights on one common, unreduced denominator
        weights += [f"{rest.numerator}/{2 * rest.denominator}"] * 2
        path = tmp_path / "syntax.json"
        path.write_text(json.dumps({"weights": weights, "events": [[0], [1]]}))
        sys_ = _load_events(str(path))
        for o, w in enumerate(json.loads(path.read_text())["weights"]):
            assert sys_.mass(1 << o) == Fraction(str(w)), w

    @pytest.mark.parametrize("text", ["3/", "/4", "3 /4", "1/-2"])
    def test_malformed_rational_exit_1(self, capsys, tmp_path, text):
        path = tmp_path / "events.json"
        path.write_text(json.dumps({"weights": [text, "1/2"], "events": [[0], [1]]}))
        graph = tmp_path / "edgeless.json"
        graph.write_text(json.dumps({"vertices": 2, "edges": []}))
        code, out, err = run(capsys, "bounds", "all", str(path), "--graph", str(graph))
        assert code == 1 and not out and repr(text) in err

    @pytest.mark.parametrize(
        "weights, message",
        [
            (["-2/4", "3/4", "3/4"], "negative outcome weight -1/2"),
            (["1/4", "2/8"], "outcome weights must sum to one, got 1/2"),
        ],
        ids=["negative", "sum"],
    )
    def test_rational_weight_messages(self, capsys, tmp_path, weights, message):
        path = tmp_path / "events.json"
        path.write_text(json.dumps({"weights": weights, "events": [[0], [1]]}))
        code, out, err = run(capsys, "bounds", "compute", str(path), "--kind", "kwerel-lower")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "data",
        [
            {"weights": ["1e-100000000", "1"], "events": [[0], [1]]},
            {"weights": ["1/2", "5E+4301", "1/2"], "events": [[0], [1]]},
            {"coords": 2, "probs": ["1/2", "1e-100000000"], "events": [[0], [1]]},
        ],
        ids=["weight", "weight-positive", "coords-probability"],
    )
    def test_decimal_exponent_cap_exit_3(self, capsys, tmp_path, data):
        # Fraction would expand the exponent into an integer of that many
        # digits; the cap rejects it first.
        path = tmp_path / "events.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "compute", str(path), "--kind", "kwerel-lower")
        assert time.perf_counter() - start < 1
        message = f"error: decimal exponent exceeds the cap of {values.MAX_DECIMAL_EXPONENT} in a rational value\n"
        assert (code, out, err) == (3, "", message)

    def test_decimal_exponent_at_the_cap_is_read(self, capsys, tmp_path):
        weights = ["1E-4300", "0." + "9" * 4300]
        path = tmp_path / "events.json"
        path.write_text(json.dumps({"weights": weights, "events": [[0], [1]]}))
        code, out, err = run(capsys, "bounds", "compute", str(path), "--kind", "bonferroni-upper")
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == "1"

    @pytest.mark.parametrize(
        "events, named",
        [
            ({"coords": 2, "probs": [0.5, 0.5], "events": [[0.5], [1]]}, "0.5"),
            ({"coords": 2, "probs": [0.5, 0.5], "events": [[True], [1]]}, "True"),
            ({"weights": [0.5, 0.5], "events": [[True], [0]]}, "True"),
            ({"weights": [0.5, 0.5], "events": [[1.5], [0]]}, "1.5"),
            ({"coords": True, "probs": [0.5], "events": [[0], [0]]}, "True"),
        ],
        ids=["float-coordinate", "bool-coordinate", "bool-outcome", "float-outcome", "bool-coords"],
    )
    def test_non_integer_ids_exit_2(self, capsys, tmp_path, events, named):
        path = tmp_path / "events.json"
        path.write_text(json.dumps(events))
        graph = tmp_path / "edgeless.json"
        graph.write_text(json.dumps({"vertices": 2, "edges": []}))
        code, out, err = run(capsys, "bounds", "all", str(path), "--graph", str(graph))
        assert code == 2 and not out and f"got {named}" in err


class TestOptimize:
    def test_tree_json(self, capsys, events_json):
        code, out, _ = run(capsys, "optimize", "tree", events_json)
        assert code == 0
        result = json.loads(out)
        assert len(result["tree_edges"]) == 3
        assert result["optimal"] is True
        assert result["mode"] == "exact"

    def test_path_exact_and_heuristic(self, capsys, events_json):
        code, out, _ = run(capsys, "optimize", "path", events_json, "--exact")
        assert code == 0
        exact = json.loads(out)
        assert sorted(exact["path_order"]) == [0, 1, 2, 3]
        code, out, _ = run(capsys, "optimize", "path", events_json, "--heuristic")
        heuristic = json.loads(out)
        assert heuristic["optimal"] is False
        assert heuristic["objective_value"] >= exact["objective_value"] - 1e-12

    def test_exact_cap_exit_3(self, capsys, tmp_path):
        n = 16
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps({"weights": [1.0], "events": [[0]] * n})
        )
        code, _, err = run(capsys, "optimize", "path", str(path), "--exact")
        assert code == 3 and "caps at" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["tree", "--exact"],
            ["tree", "--heuristic"],
            ["tree", "--objective", "maximize-weight", "--heuristic"],
            ["path", "--objective", "maximize-weight"],
            ["path", "--objective", "minimize-weight"],
            ["path", "--heuristic", "--objective", "maximize-weight"],
            ["path", "--exact", "--objective", "minimize-weight"],
        ],
    )
    def test_cross_flag_exit_1(self, capsys, events_json, argv):
        # Each structure takes only its own flags: a tree has an
        # objective, a path a mode.
        structure, *flags = argv
        code, out, err = run(capsys, "optimize", structure, events_json, *flags)
        assert code == 1 and not out and "unrecognized arguments" in err


class TestReliability:
    def test_polynomial_report(self, capsys, network_json):
        code, out, _ = run(capsys, "reliability", network_json)
        assert code == 0
        assert "exact: 2p^2 + 2p^3 - 5p^4 + 2p^5" in out
        assert "exact coeffs: 0 0 2 2 -5 2" in out
        assert "hunter-lower: p^2 + p^3 - p^4 - (1/2)p^6" in out
        assert "kwerel-lower: p^2 + p^3 - (5/4)p^4 - (1/4)p^6" in out
        assert "bonferroni-lower: 2p^2 + 2p^3 - 5p^4 - p^6" in out

    @pytest.mark.parametrize("case", GOLDEN_RELIABILITY_CASES)
    @pytest.mark.parametrize("network", ["bridge", "ladder3"])
    def test_golden_output(self, capsys, network, case):
        path = str(DATA / f"network_{network}.json")
        code, out, _ = run(capsys, "reliability", path, *GOLDEN_RELIABILITY_CASES[case])
        assert code == 0
        golden = json.loads((DATA / "golden_reliability.json").read_text())
        assert out == golden[network][case]

    def test_sweep_csv(self, capsys, network_json):
        code, out, _ = run(capsys, "reliability", network_json, "--sweep", "0:1:0.01")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,exact,hunter-lower,kwerel-lower,bonferroni-lower"
        assert len(lines) == 102
        assert lines[1] == "0,0,0,0,0"
        assert lines[-1] == "1,1,0.5,0.5,-2"
        # exact column at p = 0.5: 2/4 + 2/8 - 5/16 + 2/32 = 1/2
        row_half = lines[51].split(",")
        assert row_half[0] == "0.5"
        assert float(row_half[1]) == pytest.approx(0.5)

    def test_sweep_bounds_filter(self, capsys, network_json):
        code, out, _ = run(
            capsys,
            "reliability",
            network_json,
            "--sweep",
            "0:1:0.5",
            "--bounds",
            "kwerel-lower",
        )
        assert code == 0
        assert out.splitlines()[0] == "p,exact,kwerel-lower"

    def test_numeric_network(self, capsys, tmp_path):
        path = tmp_path / "numeric.json"
        path.write_text(
            json.dumps(
                {
                    "nodes": 4,
                    "arcs": [[0, 1], [0, 2], [1, 2], [2, 1], [1, 3], [2, 3]],
                    "s": 0,
                    "t": 3,
                    "p": 1.0,
                }
            )
        )
        code, out, _ = run(capsys, "reliability", str(path))
        assert code == 0
        assert "exact: 1" in out

    def test_string_reliability_exit_2(self, capsys, tmp_path):
        path = tmp_path / "quoted.json"
        path.write_text(json.dumps({"nodes": 2, "arcs": [[0, 1]], "s": 0, "t": 1, "p": "0.5"}))
        code, out, err = run(capsys, "reliability", str(path))
        assert code == 2 and not out and "'0.5'" in err

    def test_boolean_reliability_exit_2(self, capsys, tmp_path):
        path = tmp_path / "boolean.json"
        path.write_text(json.dumps({"nodes": 2, "arcs": [[0, 1]], "s": 0, "t": 1, "p": True}))
        code, out, err = run(capsys, "reliability", str(path))
        assert code == 2 and not out and "True" in err

    @pytest.mark.parametrize("p, named", [({"a": 1}, "{'a': 1}"), ({}, "{}")], ids=["object", "empty-object"])
    def test_object_reliability_named_exit_2(self, capsys, tmp_path, p, named):
        path = tmp_path / "network.json"
        path.write_text(json.dumps({"nodes": 2, "arcs": [[0, 1]], "s": 0, "t": 1, "p": p}))
        message = f"error: arc reliability must be 'symbolic' or numeric, got {named}\n"
        for argv in (["reliability", str(path)], ["reliability", str(path), "--sweep", "0:1:1/2"]):
            assert run(capsys, *argv) == (2, "", message)

    def test_string_arc_reliability_exit_2(self, capsys, tmp_path):
        path = tmp_path / "quoted-list.json"
        path.write_text(json.dumps({"nodes": 2, "arcs": [[0, 1]], "s": 0, "t": 1, "p": ["0.5"]}))
        code, out, err = run(capsys, "reliability", str(path))
        assert code == 2 and not out and "'0.5'" in err

    @pytest.mark.parametrize(
        "change, named",
        [({"arcs": [[0, 1.5], [1, 2]]}, "1.5"), ({"nodes": 3.5}, "3.5"), ({"s": False}, "False"), ({"t": 2.0}, "2.0")],
        ids=["float-endpoint", "float-nodes", "bool-source", "float-terminal"],
    )
    def test_non_integer_ids_exit_2(self, capsys, tmp_path, change, named):
        path = tmp_path / "network.json"
        path.write_text(json.dumps({"nodes": 3, "arcs": [[0, 1], [1, 2]], "s": 0, "t": 2, "p": 0.9, **change}))
        code, out, err = run(capsys, "reliability", str(path))
        assert code == 2 and not out and f"got {named}" in err

    def test_bad_sweep_spec(self, capsys, network_json):
        code, _, _ = run(capsys, "reliability", network_json, "--sweep", "0-1")
        assert code == 1

    def test_zero_sweep_step_exit_1(self, capsys, network_json):
        code, out, err = run(capsys, "reliability", network_json, "--sweep", "0:1:0")
        assert code == 1 and not out and "sweep step must be positive" in err

    def test_unknown_bound_kind_exit_1(self, capsys, network_json):
        code, out, err = run(capsys, "reliability", network_json, "--bounds", "nosuch")
        assert (code, out, err) == (1, "", "error: unknown bound kinds: nosuch\n")

    def test_symbolic_network_without_path_prints_zeros(self, capsys, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text(json.dumps({"nodes": 4, "arcs": [[0, 1], [2, 3]], "s": 0, "t": 3}))
        code, out, err = run(capsys, "reliability", str(path))
        assert code == 0 and not err
        kinds = ("exact", "hunter-lower", "kwerel-lower", "bonferroni-lower")
        assert out == "".join(f"{kind}: 0\n{kind} coeffs: 0\n" for kind in kinds)
        code, out, err = run(capsys, "reliability", str(path), "--sweep", "0:1:1/2")
        assert code == 0 and not err
        assert out == "p,exact,hunter-lower,kwerel-lower,bonferroni-lower\n" + "".join(
            f"{p},0,0,0,0\n" for p in ("0", "0.5", "1")
        )

    def test_many_arcs_without_path_prints_zeros(self, capsys, tmp_path):
        # 26 arcs among nodes 0..6; the terminal 7 has none
        arcs = [[u, v] for u in range(7) for v in range(7) if u != v][:26]
        path = tmp_path / "cut.json"
        path.write_text(json.dumps({"nodes": 8, "arcs": arcs, "s": 0, "t": 7}))
        code, out, err = run(capsys, "reliability", str(path))
        kinds = ("exact", "hunter-lower", "kwerel-lower", "bonferroni-lower")
        zeros = "".join(f"{kind}: 0\n{kind} coeffs: 0\n" for kind in kinds)
        assert (code, out, err) == (0, zeros, "")

    @pytest.mark.parametrize("p", [0.5, "symbolic"])
    def test_arc_cap_checked_before_paths_are_enumerated(self, capsys, monkeypatch, tmp_path, p):
        # The complete digraph on 11 nodes has 110 arcs and about a million
        # s-t paths; the cap on product coordinates rejects it first.
        def enumerate_st_paths(net):
            raise AssertionError("paths enumerated")

        monkeypatch.setattr(reliability, "enumerate_st_paths", enumerate_st_paths)
        arcs = [[u, v] for u in range(11) for v in range(11) if u != v]
        path = tmp_path / "k11.json"
        path.write_text(json.dumps({"nodes": 11, "arcs": arcs, "s": 0, "t": 10, "p": p}))
        start = time.perf_counter()
        code, out, err = run(capsys, "reliability", str(path))
        assert time.perf_counter() - start < 1
        message = "error: product space over 110 coordinates exceeds the cap of 24\n"
        assert (code, out, err) == (3, "", message)

    def test_numeric_network_without_path_exit_2(self, capsys, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text(json.dumps({"nodes": 4, "arcs": [[0, 1], [2, 3]], "s": 0, "t": 3, "p": 0.9}))
        code, out, err = run(capsys, "reliability", str(path))
        assert code == 2 and not out and "no source-to-terminal path" in err

    def test_sweep_cap_exit_3(self, capsys, network_json):
        # 10**8 + 1 points; the count is checked before any is built.
        start = time.perf_counter()
        code, out, err = run(capsys, "reliability", network_json, "--sweep", "0:1:1/100000000")
        assert time.perf_counter() - start < 5
        assert code == 3 and not out and "exceeds the cap of 100000 points" in err

    @pytest.mark.parametrize(
        "grid, points",
        [("0:1:1/10", 11), ("0:1:1/11", 12), ("0:0.95:1/10", 10), ("1/2:1/2:1", 1), ("1:0:1/10", 0)],
    )
    def test_sweep_point_count(self, capsys, monkeypatch, network_json, grid, points):
        monkeypatch.setattr("chordalbounds.cli.MAX_SWEEP_POINTS", 11)
        code, out, err = run(capsys, "reliability", network_json, "--sweep", grid)
        if points > 11:
            assert code == 3 and not out and "exceeds the cap of 11 points" in err
        else:
            assert code == 0 and len(out.splitlines()) == points + 1

    @pytest.mark.parametrize(
        "grid, points",
        [
            ("0:1:0.01", [Fraction(i, 100) for i in range(101)]),
            ("0:1:1/7", [Fraction(i, 7) for i in range(8)]),
            ("0:1:0.125", [Fraction(i, 8) for i in range(9)]),
            ("0.3:0.95:1/6", [Fraction(3, 10) + Fraction(i, 6) for i in range(4)]),
            ("1/3:1/3:1", [Fraction(1, 3)]),
            ("1:0:0.1", []),
        ],
        ids=["hundredths", "sevenths", "eighths", "start-above-zero", "start-is-stop", "empty"],
    )
    def test_sweep_cells_are_rounded_fractions(self, capsys, monkeypatch, network_json, grid, points):
        # Random polynomials in place of the network's, four columns at a
        # time: zero, constants, negative numerators and denominators above
        # 1.  Every printed cell is the exact value at the point, rounded
        # once to a float.
        rng = random.Random(grid)
        polys = [Polynomial(), Polynomial((Fraction(-3, 7),)), Polynomial((0, 1))]
        for _ in range(5):
            polys.append(Polynomial(
                Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 3, 8, 10**20 + 39)))
                for _ in range(rng.randint(1, 16))
            ))
        header = ["p", "exact", *reliability.DEFAULT_BOUND_KINDS]
        for columns in (polys[:4], polys[4:]):
            monkeypatch.setattr(cli, "bound_polynomials", lambda net: dict(zip(header[1:], columns)))
            code, out, err = run(capsys, "reliability", network_json, "--sweep", grid)
            assert (code, err) == (0, "")
            want = [",".join(header)]
            for p in points:
                want.append(",".join(format(float(x), ".12g") for x in (p, *(q(p) for q in columns))))
            assert out == "\n".join(want) + "\n"

    @pytest.mark.parametrize(
        "args, code, message",
        [
            (["--sweep", "0:2:0.5"], 2, "p value 3/2 outside [0, 1]"),
            (["--sweep=-1/2:1:1/2"], 2, "p value -1/2 outside [0, 1]"),
            (["--sweep", "0:1:0"], 1, "sweep step must be positive"),
            (["--sweep", "0:1:1/100001"], 3, "sweep grid exceeds the cap of 100000 points"),
            (["--bounds", "nosuch", "--sweep", "0:1:0.5"], 1, "unknown bound kinds: nosuch"),
            (["--bounds", "exact", "--sweep", "0:1:0.5"], 1, "unknown bound kinds: exact"),
        ],
        ids=["above-one", "below-zero", "zero-step", "cap", "unknown-kind", "exact-kind"],
    )
    def test_sweep_error_messages(self, capsys, network_json, args, code, message):
        assert run(capsys, "reliability", network_json, *args) == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize("grid", ["0:1:0.5", "0:2:0.5"])
    def test_sweep_on_numeric_network_exit_2(self, capsys, tmp_path, grid):
        # The network is checked before the points.
        path = tmp_path / "numeric.json"
        path.write_text(json.dumps({"nodes": 2, "arcs": [[0, 1]], "s": 0, "t": 1, "p": 0.9}))
        message = "error: polynomial bounds require a symbolic network\n"
        assert run(capsys, "reliability", str(path), "--sweep", grid) == (2, "", message)

    def test_sweep_exponent_cap_exit_3(self, capsys, network_json):
        # 1e-10000000 would be a ten-million-digit denominator.
        start = time.perf_counter()
        code, out, err = run(capsys, "reliability", network_json, "--sweep", "0:1:1e-10000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "") and "decimal exponent exceeds the cap of 4300" in err

    def test_zero_denominator_sweep_exit_1(self, capsys, network_json):
        code, out, err = run(capsys, "reliability", network_json, "--sweep", "0:1:1/0")
        assert code == 1 and not out and err.startswith("error: zero denominator")

    def test_integer_too_large_for_a_float_exit_2(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"nodes": 2, "arcs": [[0, 1]], "s": 0, "t": 1, "p": 10**400}))
        code, out, err = run(capsys, "reliability", str(path))
        assert code == 2 and not out and f"{10**400} is too large for a float" in err

    def test_isolated_nodes_cost_nothing(self, capsys, tmp_path):
        reports = []
        for nodes in (3, 10**400):
            path = tmp_path / "network.json"
            path.write_text(json.dumps({"nodes": nodes, "arcs": [[0, 1], [1, 2]], "s": 0, "t": 2}))
            code, out, _ = run(capsys, "reliability", str(path))
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]

    def test_twenty_arc_numeric_network(self, capsys, tmp_path):
        # five stages in series, each two parallel two-arc routes
        arcs = []
        for stage in range(5):
            a, b, upper, lower = 3 * stage, 3 * stage + 3, 3 * stage + 1, 3 * stage + 2
            arcs += [[a, upper], [upper, b], [a, lower], [lower, b]]
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"nodes": 16, "arcs": arcs, "s": 0, "t": 15, "p": 0.9}))
        code, out, _ = run(capsys, "reliability", str(path))
        assert code == 0
        exact = float(out.splitlines()[0].removeprefix("exact: "))
        assert exact == pytest.approx((1 - (1 - 0.9**2) ** 2) ** 5, rel=1e-11)


class TestDemo:
    def test_counterexample_output(self, capsys, mcs_runs):
        code, out, _ = run(capsys, "demo", "counterexample")
        assert code == 0
        assert "bound 4/3 exceeds 1" in out
        assert "chordal: no" in out
        assert "counterexample family k=3" in out
        assert "bound 3 exceeds 1" in out
        assert len(mcs_runs) == 2

    @pytest.mark.parametrize("k", [3, 5])
    def test_bound_is_the_all_certain_chordal_lower(self, capsys, monkeypatch, k):
        # One clique walk per graph shown, no clique list kept, and its
        # alternating count over the independence number is the chordal
        # lower bound itself.
        def clique_complex(*args, **kwargs):
            raise AssertionError("cliques listed")

        walked = []
        original = graphs._clique_groups
        monkeypatch.setattr(
            graphs, "_clique_groups", lambda g, *a: walked.append(g.vertex_count) or original(g, *a)
        )
        monkeypatch.setattr(graphs, "clique_complex", clique_complex)
        code, out, _ = run(capsys, "demo", "counterexample", "--k", str(k))
        assert code == 0
        monkeypatch.undo()
        values = [line.split(" bound ")[1].split()[0] for line in out.splitlines() if " bound " in line]
        shown = [graphs.counterexample_graph(), graphs.counterexample_family(k)]
        assert walked == [g.vertex_count for g in shown]
        for text, g in zip(values, shown, strict=True):
            certain = from_outcomes([Fraction(1)], [[0]] * g.vertex_count, backend=RATIONAL)
            assert Fraction(text) == bounds.chordal_lower(certain, g, unchecked=True).value

    def test_family_parameter(self, capsys):
        code, out, _ = run(capsys, "demo", "counterexample", "--k", "5")
        assert code == 0
        assert "counterexample family k=5" in out
        assert "bound 11 exceeds 1" in out

    def test_bad_family_parameter(self, capsys):
        code, out, _ = run(capsys, "demo", "counterexample", "--k", "4")
        assert (code, out) == (2, "")

    def test_family_cap_exit_3(self, capsys):
        # The k = 11 family has 4**11 - 1 cliques; the cap stops it first.
        start = time.perf_counter()
        code, out, err = run(capsys, "demo", "counterexample", "--k", "11")
        assert time.perf_counter() - start < 5
        assert (code, out) == (3, "")
        assert err == f"error: demo counterexample caps --k at {cli.MAX_DEMO_K}, got 11\n"

    @pytest.mark.parametrize("k, code", [(5, 0), (7, 3)])
    def test_family_cap_boundary(self, capsys, monkeypatch, k, code):
        monkeypatch.setattr(cli, "MAX_DEMO_K", 5)
        got, out, _ = run(capsys, "demo", "counterexample", "--k", str(k))
        assert got == code
        assert (f"counterexample family k={k}" in out) if code == 0 else not out

    def test_module_entry_point(self, capsys):
        code, want, _ = run(capsys, "demo", "counterexample")
        assert code == 0
        src = str(Path(__file__).parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "chordalbounds", "demo", "counterexample"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


class TestPlumbing:
    def test_readme_quick_start(self, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        [block] = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
        exec(block, {})
        assert capsys.readouterr().out == "2p^2 + 2p^3 - 5p^4 + 2p^5\n5/8 1 5/4\n"

    def test_readme_names_every_kind(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        assert [kind for kind in bounds.KINDS if f"`{kind}`" not in readme] == []

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "nonsense")
        assert code == 1 and err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_malformed_input_exit_1(self, capsys, tmp_path, events_json, network_json):
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"weights": [1.0]}))
        for argv in (
            ("bounds", "compute", str(missing), "--kind", "kwerel-lower"),
            ("bounds", "compute", events_json, "--kind", "path-lower", "--order", "0,x,2,3"),
            ("reliability", network_json, "--sweep", "0:1:a"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1 and err

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"weights": ["1/2", "1/2"], "events": [5]}, "an event lists outcome ids, got events[0]: 5"),
            (
                {"coords": 2, "probs": [0.5, 0.5], "events": [3]},
                "an event lists coordinate ids, got events[0]: 3",
            ),
            ({"weights": ["1/2", "1/2"]}, "events file has no 'events' key"),
        ],
        ids=["outcome-event-not-a-list", "coordinate-event-not-a-list", "no-events-key"],
    )
    def test_malformed_events_named_exit_1(self, capsys, tmp_path, data, message):
        path = tmp_path / "events.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "bounds", "compute", str(path), "--kind", "kwerel-lower")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"arcs": [[0, 1, 2]]}, "an arc holds two nodes [tail, head], got arcs[0]: [0, 1, 2]"),
            ({"arcs": [[0, 1], [0]]}, "an arc holds two nodes [tail, head], got arcs[1]: [0]"),
            ({"arcs": 5}, "'arcs' must be a list of [tail, head] pairs, got 5"),
            ({"arcs": [5]}, "an arc holds two nodes [tail, head], got arcs[0]: 5"),
            ({"p": [[0.5], [0.5]]}, "an arc reliability is a number, got p[0]: [0.5]"),
            ({"p": [0.5, None]}, "an arc reliability is a number, got p[1]: null"),
            ({"p": None}, "'p' must be 'symbolic', a number or a list, got null"),
        ],
        ids=["arc-too-long", "arc-too-short", "arcs-not-a-list", "arc-not-a-list", "p-nested", "p-null-item",
             "p-null"],
    )
    def test_malformed_network_named_exit_1(self, capsys, tmp_path, change, message):
        path = tmp_path / "network.json"
        path.write_text(json.dumps({"nodes": 3, "arcs": [[0, 1], [1, 2]], "s": 0, "t": 2, "p": 0.5, **change}))
        for argv in (["reliability", str(path)], ["reliability", str(path), "--sweep", "0:1:1/2"]):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"weights": 5, "events": [[0]]}, "'weights' must be a list of probability values, got 5"),
            ({"coords": 1, "probs": 5, "events": [[0]]}, "'probs' must be a list of probability values, got 5"),
            ({"weights": [None], "events": [[0]]}, "a probability value is a number or a string, got weights[0]: null"),
            (
                {"coords": 2, "probs": ["1/2", [1]], "events": [[0]]},
                "a probability value is a number or a string, got probs[1]: [1]",
            ),
            ("weights", "events file needs either 'weights' or 'coords'"),
            (["coords"], "events file needs either 'weights' or 'coords'"),
            (5, "events file needs either 'weights' or 'coords'"),
        ],
        ids=["weights-not-a-list", "probs-not-a-list", "weight-null", "prob-list", "string-file", "list-file",
             "number-file"],
    )
    def test_malformed_values_named_exit_1(self, capsys, tmp_path, data, message):
        path = tmp_path / "events.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "bounds", "compute", str(path), "--kind", "kwerel-lower")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_network_file_that_is_no_object_exit_1(self, capsys, tmp_path):
        path = tmp_path / "network.json"
        for data in ("nodes", ["nodes"], None):
            path.write_text(json.dumps(data))
            code, out, err = run(capsys, "reliability", str(path))
            assert (code, out, err) == (1, "", "error: network file has no 'nodes' key\n")

    def test_network_without_key_exit_1(self, capsys, tmp_path):
        path = tmp_path / "network.json"
        path.write_text(json.dumps({"nodes": 2, "arcs": [[0, 1]], "s": 0}))
        code, out, err = run(capsys, "reliability", str(path))
        assert (code, out, err) == (1, "", "error: network file has no 't' key\n")

    def test_events_file_without_weights_or_coords_exit_1(self, capsys, tmp_path):
        path = tmp_path / "events.json"
        path.write_text(json.dumps({"events": [[0], [1]]}))
        code, out, err = run(capsys, "bounds", "compute", str(path), "--kind", "kwerel-lower")
        assert (code, out, err) == (1, "", "error: events file needs either 'weights' or 'coords'\n")

    def test_malformed_values_never_escape(self, capsys, tmp_path):
        # Every JSON scalar of a valid input, one at a time, is swapped for
        # each malformed value: the file is then rejected with exit 1, 2 or
        # 3 and nothing on stdout, or (a huge node count leaves a network
        # valid) printed exactly as before.
        rng = random.Random(7)
        cuts = sorted(rng.sample(range(1, 16), 3))
        counts = [b - a for a, b in zip([0, *cuts], [*cuts, 16])]
        events = [sorted(rng.sample(range(4), 2)) for _ in range(3)]
        graph = {"vertices": 3, "edges": [[0, 1], [1, 2]]}
        arcs = [[0, 1], [0, 2], [1, 2], [2, 3], [1, 3]]
        events_path, graph_path = tmp_path / "events.json", tmp_path / "graph.json"
        rational = {"weights": [f"{c}/16" for c in counts], "events": events}
        events_path.write_text(json.dumps(rational))
        graph_path.write_text(json.dumps(graph))
        on_events = [["bounds", "all", "{}", "--graph", str(graph_path)]]
        reliability = [["reliability", "{}"]]
        inputs = {  # name: (valid input, commands reading it in place of "{}")
            "real": ({"weights": [c / 16 for c in counts], "events": events}, on_events),
            "rational": (rational, on_events),
            "coords": ({"coords": 2, "probs": [rng.random(), "1/3"], "events": [[0], [1], [0, 1]]}, on_events),
            "graph": (graph, [["bounds", "all", str(events_path), "--graph", "{}"], ["graph", "check", "{}"]]),
            "numeric": ({"nodes": 4, "arcs": arcs, "s": 0, "t": 3, "p": rng.random()}, reliability),
            "symbolic": (
                {"nodes": 4, "arcs": arcs, "s": 0, "t": 3, "p": "symbolic"},
                [*reliability, ["reliability", "{}", "--sweep", "0:1:1/2"]],
            ),
        }
        huge_float = "1e400"  # JSON text only: Python's json writes no such literal
        malformed = ["1/0", 10**400, "", None, [], {}, -1, True, "nan", huge_float]

        def leaves(value, path=()):
            if isinstance(value, dict):
                for key, item in value.items():
                    yield from leaves(item, (*path, key))
            elif isinstance(value, list):
                for index, item in enumerate(value):
                    yield from leaves(item, (*path, index))
            else:
                yield path

        def swapped(data, path, new):
            data = json.loads(json.dumps(data))
            *parents, last = path
            target = data
            for key in parents:
                target = target[key]
            target[last] = new
            return json.dumps(data).replace(json.dumps(huge_float), huge_float)

        def cli(argv, label):
            try:
                return run(capsys, *argv)
            except Exception as exc:
                pytest.fail(f"{label}: {type(exc).__name__} escaped: {exc}")

        mutated = tmp_path / "mutated.json"
        for name, (data, commands) in inputs.items():
            mutated.write_text(json.dumps(data))
            argvs = [[str(mutated) if a == "{}" else a for a in argv] for argv in commands]
            valid = [cli(argv, name) for argv in argvs]
            assert all(code == 0 for code, _, _ in valid), name
            for path in leaves(data):
                for new in malformed:
                    mutated.write_text(swapped(data, path, new), encoding="utf-8")
                    for argv, (_, before, _) in zip(argvs, valid):
                        label = f"{name} {list(path)} = {str(new)[:12]}: {argv[:2]}"
                        code, out, err = cli(argv, label)
                        if code == 0:
                            assert out == before, label
                        else:
                            assert code in (1, 2, 3) and not out and err.startswith("error: "), label

    def test_internal_error_is_not_a_usage_error(self, capsys, monkeypatch, events_json):
        def broken(sys_):
            raise ValueError("internal bug")

        # `bounds.bound` looks the function up when it runs, so the CLI calls the patched one.
        monkeypatch.setattr(bounds, "kwerel_lower", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["bounds", "compute", events_json, "--kind", "kwerel-lower"])

    def test_library_error_under_a_loader_propagates(self, capsys, monkeypatch, events_json):
        # Only named user errors get an exit code: a KeyError from a
        # library constructor is a bug, not a usage error.
        def broken(weights, events, backend):
            raise KeyError("internal bug")

        monkeypatch.setattr(cli, "from_outcomes", broken)
        with pytest.raises(KeyError, match="internal bug"):
            main(["bounds", "compute", events_json, "--kind", "kwerel-lower"])

    @pytest.mark.parametrize("defect", ["undecodable", "long-integer"])
    @pytest.mark.parametrize("loader", ["graph", "events", "network"])
    def test_undecodable_file_or_long_json_integer_exit_1(self, capsys, tmp_path, events_json, loader, defect):
        # The message is the decoder's, or that of `json.loads`, as written.
        path = tmp_path / "bad.json"
        text = {
            "graph": '{"vertices": 1, "edges": []}',
            "events": '{"weights": [1], "events": [[0]]}',
            "network": '{"nodes": 2, "arcs": [[0, 1]], "s": 0, "t": 1}',
        }[loader]
        commands = {  # each reads the file in place of "{}"
            "graph": [["graph", "check", "{}"], ["bounds", "all", events_json, "--graph", "{}"]],
            "events": [["bounds", "compute", "{}", "--kind", "kwerel-lower"], ["optimize", "tree", "{}"]],
            "network": [["reliability", "{}"], ["reliability", "{}", "--sweep", "0:1:1/2"]],
        }[loader]
        data = text.encode() + b"\xff" if defect == "undecodable" else text.replace("1", "1" * 5000, 1).encode()
        try:
            json.loads(data.decode("utf-8"))
        except ValueError as exc:
            message = str(exc)
        path.write_bytes(data)
        for command in commands:
            argv = [str(path) if a == "{}" else a for a in command]
            assert run(capsys, *argv) == (1, "", f"error: {message}\n"), argv

    @pytest.mark.parametrize(
        "weights", [["1" * 5000 + "/3", "1/3"], ["1/2", "0." + "1" * 5000]], ids=["plain-column", "decimal"]
    )
    def test_long_integer_in_rational_text_exit_1(self, capsys, tmp_path, weights):
        # The plain "a/b" column reader and `Fraction` both stop at the
        # digits `int` reads from a string: malformed rational text.
        path = tmp_path / "events.json"
        path.write_text(json.dumps({"weights": weights, "events": [[0], [1]]}))
        code, out, err = run(capsys, "bounds", "compute", str(path), "--kind", "kwerel-lower")
        assert (code, out) == (1, "") and err.startswith("error: Exceeds the limit (4300")

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_shared_parser_keeps_no_state(
        self, capsys, tmp_path, events_json, graph_text, graph_json, network_json
    ):
        # Every argv gives the same result whichever argvs ran before it on
        # the one parser; option defaults come back after a call set them.
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"vertices": 10**9, "edges": []}))
        argvs = [
            ["graph", "check", graph_text],
            ["bounds", "compute", events_json, "--kind", "bonferroni-upper", "-r", "2"],
            ["bounds", "compute", events_json, "--kind", "bonferroni-upper"],
            ["bounds", "compute", events_json, "--kind", "chordal-lower", "--graph", graph_json,
             "--unchecked"],
            ["bounds", "all", events_json, "--graph", graph_text],
            ["optimize", "path", events_json, "--heuristic"],
            ["optimize", "path", events_json],
            ["optimize", "tree", events_json, "--objective", "maximize-weight"],
            ["reliability", network_json, "--sweep", "0:1:0.25"],
            ["reliability", network_json],
            ["demo", "counterexample", "--k", "5"],
            ["demo", "counterexample"],
            ["bounds", "compute", events_json],
            ["optimize", "path", events_json, "--exact", "--heuristic"],
            ["bounds", "compute", events_json, "--kind", "chordal-lower", "--graph", graph_json],
            ["graph", "check", str(huge)],
            ["--help"],
            ["bounds", "compute", "--help"],
        ]
        forward = [run(capsys, *argv) for argv in argvs]
        backward = [run(capsys, *argv) for argv in reversed(argvs)][::-1]
        assert forward == backward
        codes = [code for code, _, _ in forward]
        assert codes == [0] * 12 + [1, 1, 2, 3, 0, 0]
        assert forward[1] != forward[2] and forward[6] != forward[7]

    def test_byte_identical_reruns(self, capsys, network_json, events_json, graph_text):
        for argv in (
            ("reliability", network_json, "--sweep", "0:1:0.1"),
            ("bounds", "all", events_json, "--graph", graph_text),
            ("demo", "counterexample"),
        ):
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second
