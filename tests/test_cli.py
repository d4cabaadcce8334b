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

from helpers import read_long, reference_read_text


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
# (network, case) pairs pinned in golden_reliability.json.  The numeric
# network num20 skips the sweep cases, which exit 2 on it, and ladder5,
# whose 64 paths over 22 arcs take the widest packed lane, has the plain
# report and the decimal sweep only.
GOLDEN_RELIABILITY_RUNS = [
    (network, case)
    for network in ("bridge", "ladder3", "num20")
    for case, args in GOLDEN_RELIABILITY_CASES.items()
    if network != "num20" or "--sweep" not in args
] + [("ladder5", "plain"), ("ladder5", "sweep")]


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


def _plumbing_argvs(tmp_path, events_json, graph_text, graph_json, network_json):
    """Argvs of every command: the first 12 exit 0, then 1, 1, 2, 3, 0, 0."""
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"vertices": 10**9, "edges": []}))
    return [
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
        path = self._cocktail_party(tmp_path, 14)
        assert 3**14 - 1 > graphs.MAX_LISTED_CLIQUES
        code, out, err = run(capsys, "graph", "check", path)
        assert (code, out) == (3, "")
        assert err == f"error: graph has more than {graphs.MAX_LISTED_CLIQUES} cliques\n"

    def test_cliques_within_the_budget_are_counted(self, capsys, tmp_path):
        # 3**12 - 1 = 531 440 cliques, within the shared budget.
        sizes = " ".join(f"{j}:{comb(12, j) * 2**j}" for j in range(1, 13))
        assert run(capsys, "graph", "check", self._cocktail_party(tmp_path, 12)) == (
            0,
            "vertices: 24\nedges: 264\nchordal: no\ncomponents: 1\n"
            f"independence_number: 2\nclique_sizes: {sizes}\n",
            "",
        )

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
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", budget)
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

    def test_unchecked_clique_listing_budget_exit_3(self, capsys, tmp_path):
        # The cocktail-party graph on 2k = 28 vertices has 3^14 - 1 cliques;
        # listing them stops at the budget, before any intersection query.
        k = 14
        edges = [[u, v] for u in range(2 * k) for v in range(u + 1, 2 * k) if v != u + k]
        graph, events = tmp_path / "graph.json", tmp_path / "events.json"
        graph.write_text(json.dumps({"vertices": 2 * k, "edges": edges}))
        events.write_text(json.dumps({"weights": [1.0], "events": [[0]] * (2 * k)}))
        argv = ["compute", str(events), "--graph", str(graph), "--kind", "chordal-upper", "--unchecked"]
        code, out, err = run(capsys, "bounds", *argv)
        assert (code, out, err) == (3, "", f"error: graph has more than {graphs.MAX_LISTED_CLIQUES} cliques\n")

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
        # splits without reading each value on its own; the reduced file
        # spells them as reduced "a/b" over four denominators.
        for events in ("golden_events.json", "golden_events_plain.json", "golden_events_reduced.json"):
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

    @pytest.mark.parametrize("graph", ["chordal", "tree"])
    def test_golden_real_output(self, capsys, graph):
        # Written before the exact brackets moved to integer numerators:
        # the float brackets must keep their order of operations.
        code, out, _ = run(
            capsys,
            "bounds",
            "all",
            str(DATA / "golden_events_real.json"),
            "--graph",
            str(DATA / f"golden_{graph}.json"),
        )
        assert code == 0
        assert out == (DATA / f"golden_{graph}_real.out").read_text()

    def test_golden_unchecked_output(self, capsys, mcs_runs):
        # The paper's non-chordal counterexample graph, passed unchecked:
        # the table was written when its cliques were listed, one
        # intersection query each, and its cones are walked now.
        code, out, _ = run(
            capsys,
            "bounds",
            "all",
            str(DATA / "golden_unchecked.json"),
            "--graph",
            str(DATA / "golden_unchecked_graph.json"),
            "--unchecked",
        )
        assert code == 0
        assert out == (DATA / "golden_unchecked.out").read_text()
        assert len(mcs_runs) == 1

    def test_unchecked_cones_walked_once_per_cap(self, capsys, tmp_path, monkeypatch):
        # chordal-upper, chordal-lower and chordal-lower-sharpened share the
        # untruncated bracket of the 22-vertex cocktail-party graph, which
        # is not chordal: its cones are walked and summed once, and the
        # r = 1 rows walk them at their own caps.
        caps = []
        original = bounds._cones

        def recording(g, cap):
            caps.append(cap)
            return original(g, cap)

        monkeypatch.setattr(bounds, "_cones", recording)
        graph = TestGraphCheck._cocktail_party(tmp_path, 11)
        events = tmp_path / "events.json"
        events.write_text(json.dumps({"weights": [1.0], "events": [[0]] * 22}))
        code, out, _ = run(capsys, "bounds", "all", str(events), "--graph", graph, "--unchecked")
        assert code == 0 and "chordal-lower-sharpened" in out
        assert caps == [22, 1, 2]

    def test_golden_distinct_probability_runs(self, capsys):
        # 21 success-run windows over 24 RATIONAL coordinates at distinct
        # probabilities 30/100 .. 53/100: the generalized-lower rows need
        # all 2**21 symmetric sums.  The table was written when each index
        # set added one Fraction, which took 34 s on one Xeon core.
        start = time.perf_counter()
        code, out, _ = run(
            capsys,
            "bounds",
            "all",
            str(DATA / "golden_runs_distinct.json"),
            "--graph",
            str(DATA / "golden_runs_graph.json"),
        )
        assert time.perf_counter() - start < 10
        assert code == 0
        assert out == (DATA / "golden_runs_distinct.out").read_text()

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
        "args, golden",
        [(["all"], "golden_sharpened.out"),
         (["compute", "--kind", "chordal-lower-sharpened"], "golden_sharpened_compute.out")],
        ids=["all", "compute"],
    )
    def test_golden_sharpened_below_alpha(self, capsys, args, golden):
        # Zero-weight outcomes leave α′ = 2 on a chordal graph with α = 4
        # (3 with every weight positive), so chordal-lower-sharpened is
        # twice chordal-lower.  Written by the signature walk, before α′
        # was counted from the cone masks.
        events, graph = str(DATA / "golden_sharpened.json"), str(DATA / "golden_sharpened_graph.json")
        code, out, _ = run(capsys, "bounds", args[0], events, *args[1:], "--graph", graph)
        assert code == 0
        assert out == (DATA / golden).read_text()

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

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1e308, 1e308, 0.5, 0.5], "error: outcome weights must sum to one, got inf\n"),
            ([1e308, 1e308, -1e308, -1e308, 1.0], "error: negative outcome weight -1e+308\n"),
        ],
        ids=["sum-past-the-float-range", "sum-one-with-negative-weights"],
    )
    @pytest.mark.parametrize("command", [["all", "--graph"], ["compute", "--kind", "kwerel-lower", "--graph"]])
    def test_running_sum_past_the_float_range_exit_2(self, capsys, tmp_path, weights, message, command):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"weights": weights, "events": [[0], [1]]}))
        graph = tmp_path / "edgeless.json"
        graph.write_text(json.dumps({"vertices": 2, "edges": []}))
        action, *options = command
        code, out, err = run(capsys, "bounds", action, str(path), *options, str(graph))
        assert (code, out, err) == (2, "", message)

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

    @pytest.mark.parametrize("text", ["3/", "/4", "3 /4", "3/ 4", "3\t/4", "1/-2"])
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

    def test_golden_exact_path_at_the_cap(self, capsys):
        # 15 coords events: the exact search prunes the rows past the
        # split and must still print the order of the full table.
        code, out, err = run(capsys, "optimize", "path", str(DATA / "golden_path15.json"), "--exact")
        assert code == 0 and not err
        assert out == (DATA / "golden_path15.out").read_text()

    def test_golden_exact_path_at_an_even_split(self, capsys):
        # 14 coords events: the split level is filled for half its states,
        # and the order printed puts event 0 among its last seven events,
        # so the walk reads the split state filled from the far end.
        code, out, err = run(capsys, "optimize", "path", str(DATA / "golden_path14.json"), "--exact")
        assert code == 0 and not err
        assert out == (DATA / "golden_path14.out").read_text()
        assert json.loads(out)["path_order"].index(0) >= 7

    @pytest.mark.parametrize("events", ["events_real", "path15"])
    @pytest.mark.parametrize("objective", ["min", "max"])
    def test_golden_tree(self, capsys, events, objective):
        # An explicit REAL space and 15 coords events with two duplicated
        # event pairs, whose equal weights tie.
        argv = ["optimize", "tree", str(DATA / f"golden_{events}.json"), "--objective", f"{objective}imize-weight"]
        code, out, err = run(capsys, *argv)
        assert code == 0 and not err
        name = events.removeprefix("events_")
        assert out == (DATA / f"golden_optimize_tree_{name}_{objective}.out").read_text()

    @pytest.mark.parametrize("events", ["one", "two"])
    @pytest.mark.parametrize("structure", ["tree", "path"])
    def test_golden_one_and_two_events(self, capsys, events, structure):
        # One event has no tree edge and a one-event path, and both weigh
        # the int 0 that an empty sum starts from; two events have one
        # edge.  The outputs were written by `json.dumps(..., indent=2)`.
        argv = ["optimize", structure, str(DATA / f"golden_optimize_{events}.json")]
        code, out, err = run(capsys, *argv, *(["--exact"] if structure == "path" else []))
        assert code == 0 and not err
        assert out == (DATA / f"golden_optimize_{structure}_{events}.out").read_text()

    def test_report_json_matches_indented_dumps(self):
        # The template writer must give `json.dumps(result, indent=2)` byte
        # for byte: lists of 0..15 items, as tuples or lists, and objective
        # values of every float spelling the reports can hold.
        rng = random.Random(4402)
        values = (0, 0.0, -0.0, float("inf"), 1e-300, 0.1 + 0.2, 0.2741986121982336)
        for k in range(16):
            edges = tuple((rng.randrange(16), rng.randrange(16)) for _ in range(k))
            order = tuple(rng.sample(range(16), k))
            for value in values:
                reports = [
                    {"tree_edges": edges, "objective_value": value, "mode": "exact", "optimal": True},
                    {"tree_edges": [list(e) for e in edges], "objective_value": value, "mode": "exact", "optimal": True},
                    {"path_order": order, "objective_value": value, "mode": "exact", "optimal": True},
                    {"path_order": list(order), "objective_value": value, "mode": "heuristic", "optimal": False},
                ]
                for report in reports:
                    assert cli._report_json(next(iter(report)), *report.values()) == json.dumps(report, indent=2)

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

    @pytest.mark.parametrize("network, case", GOLDEN_RELIABILITY_RUNS, ids=map("-".join, GOLDEN_RELIABILITY_RUNS))
    def test_golden_output(self, capsys, network, case):
        path = str(DATA / f"network_{network}.json")
        code, out, _ = run(capsys, "reliability", path, *GOLDEN_RELIABILITY_CASES[case])
        assert code == 0
        golden = json.loads((DATA / "golden_reliability.json").read_text())
        assert out == golden[network][case]

    @pytest.mark.parametrize("p", ["symbolic", 0.9])
    def test_large_node_ids_report_as_dense_twin(self, capsys, tmp_path, p):
        # The bridge with node ids of 18 digits reports as the bridge on
        # 0..3: visited nodes are marked by dense index, not by id.
        arcs = [[0, 1], [0, 2], [1, 2], [2, 1], [1, 3], [2, 3]]
        ids = [10**17, 3 * 10**17, 2 * 10**17, 10**18 - 1]
        reports = []
        for nodes, label in ((4, list(range(4))), (10**18, ids)):
            path = tmp_path / "network.json"
            net = {"nodes": nodes, "arcs": [[label[u], label[v]] for u, v in arcs], "s": label[0], "t": label[3]}
            path.write_text(json.dumps({**net, "p": p}))
            reports.append(run(capsys, "reliability", str(path)))
        assert reports[0][0] == 0 and reports[1] == reports[0]

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
            # points past the float range, and past the digits `str` writes
            (["--sweep", "1e309:1e309:1"], 2, f"p value 1{'0' * 309} outside [0, 1]"),
            (["--sweep", "0:1e309:1e308"], 2, f"p value 1{'0' * 308} outside [0, 1]"),
            (["--sweep", "1e4300:1e4300:1"], 2, f"p value 1{'0' * 4300} outside [0, 1]"),
        ],
        ids=[
            "above-one", "below-zero", "zero-step", "cap", "unknown-kind", "exact-kind",
            "past-float", "stop-past-float", "past-str-digits",
        ],
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
        # One cone walk per graph shown, no clique list kept, and its
        # alternating count over the independence number is the chordal
        # lower bound itself.
        def clique_complex(*args, **kwargs):
            raise AssertionError("cliques listed")

        walked = []
        original = graphs._cones
        monkeypatch.setattr(graphs, "_cones", lambda g, *a: walked.append(g.vertex_count) or original(g, *a))
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
        # The k = 11 family has 4**11 - 1 cliques, past the clique budget.
        start = time.perf_counter()
        code, out, err = run(capsys, "demo", "counterexample", "--k", "11")
        assert time.perf_counter() - start < 5
        assert (code, out) == (3, "")
        assert err == f"error: graph has more than {graphs.MAX_LISTED_CLIQUES} cliques\n"

    @pytest.mark.parametrize("k, code", [(5, 0), (7, 3)])
    def test_family_cap_boundary(self, capsys, monkeypatch, k, code):
        # The k = 5 family has 4**5 - 1 cliques.
        monkeypatch.setattr(graphs, "MAX_LISTED_CLIQUES", 4**5 - 1)
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

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("[" * 100_000, ["bounds", "compute", "{}", "--kind", "kwerel-lower"]),
            ('{"vertices": 2, "edges": ' + "[" * 100_000, ["graph", "check", "{}"]),
            ('{"nodes": ' + "[" * 100_000, ["reliability", "{}"]),
        ],
        ids=["events", "graph", "network"],
    )
    def test_deeply_nested_json_exit_1(self, capsys, tmp_path, text, argv):
        # Past the recursion limit `json.loads` raises RecursionError, which
        # each loader reports as bad JSON.
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, *(str(path) if arg == "{}" else arg for arg in argv))
        assert (code, out, err) == (1, "", "error: JSON nests too deeply\n")

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

    def test_unbalanced_long_weights_exit_2(self, capsys, tmp_path):
        # Coprime denominators of 4 001 and 4 000 digits: the total named
        # in the message has a denominator of 8 001 digits.
        small, other = 10**4000, int("3" * 3999 + "7")
        path = tmp_path / "events.json"
        path.write_text(json.dumps({"weights": [f"1/{small}", f"1/{other}"], "events": [[0], [1]]}))
        code, out, err = run(capsys, "bounds", "compute", str(path), "--kind", "bonferroni-upper")
        prefix = "error: outcome weights must sum to one, got "
        assert (code, out) == (2, "") and err.startswith(prefix) and err.endswith("\n")
        assert read_long(err[len(prefix):-1]) == Fraction(1, small) + Fraction(1, other)

    def test_exact_values_past_the_int_string_limit_print(self, capsys, tmp_path):
        # Weights x/AB, y/AC, 1/BC, 1/BC with xC + yB + 2A = ABC sum to one,
        # and no integer written has more than 4 000 digits; the masses
        # printed have a denominator of about 6 000.
        a, b, c = 3**4190, 5**2861, 7**2366
        x = -2 * a * pow(c, -1, b) % b
        y = (a * (b * c - 2) - x * c) // b
        assert x * c + y * b + 2 * a == a * b * c and y > 0
        weights = [f"{x}/{a * b}", f"{y}/{a * c}", f"1/{b * c}", f"1/{b * c}"]
        assert max(len(part) for w in weights for part in w.split("/")) <= 4000
        events, graph = tmp_path / "events.json", tmp_path / "graph.json"
        events.write_text(json.dumps({"weights": weights, "events": [[0, 2], [0, 1]]}))
        graph.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]]}))
        first = Fraction(x, a * b) + Fraction(1, b * c)
        second = Fraction(x, a * b) + Fraction(y, a * c)
        code, out, err = run(capsys, "bounds", "compute", str(events), "--kind", "bonferroni-upper")
        assert (code, err) == (0, "")
        value = json.loads(out)["value"]
        assert len(value) > 6000 and read_long(value) == first + second
        code, out, err = run(capsys, "bounds", "all", str(events), "--graph", str(graph))
        assert (code, err) == (0, "")
        rows = {line[:26].strip(): line.split()[-1] for line in out.splitlines()[1:]}
        assert read_long(rows["exact-union"]) == first + second - Fraction(x, a * b)
        assert read_long(rows["bonferroni-upper"]) == first + second

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_shared_parser_keeps_no_state(
        self, capsys, tmp_path, events_json, graph_text, graph_json, network_json
    ):
        # Every argv gives the same result whichever argvs ran before it on
        # the one parser; option defaults come back after a call set them.
        argvs = _plumbing_argvs(tmp_path, events_json, graph_text, graph_json, network_json)
        forward = [run(capsys, *argv) for argv in argvs]
        backward = [run(capsys, *argv) for argv in reversed(argvs)][::-1]
        assert forward == backward
        codes = [code for code, _, _ in forward]
        assert codes == [0] * 12 + [1, 1, 2, 3, 0, 0]
        assert forward[1] != forward[2] and forward[6] != forward[7]

    def test_leaf_parsers_match_the_full_parser(
        self, capsys, monkeypatch, tmp_path, events_json, graph_text, graph_json, network_json
    ):
        # An argv that starts with a command's words is parsed by that
        # command's own parser; (exit code, stdout, stderr) must be what the
        # whole tree gives, help text and argparse's messages included.
        argvs = _plumbing_argvs(tmp_path, events_json, graph_text, graph_json, network_json) + [
            [], ["-h"], ["--help"], ["--help", "optimize"], ["--he"],
            ["optimize"], ["optimize", "-h"], ["bounds", "--help"], ["demo", "-h"], ["graph"],
            ["optimize", "tree", "-h"], ["optimize", "tree", "--help"], ["optimize", "path", "-h"],
            ["bounds", "all", "--help"], ["graph", "check", "-h"], ["reliability", "--help"],
            ["demo", "counterexample", "-h"], ["optimize", "tree", events_json, "--help", "--bogus"],
            ["optimize", "tree", events_json, "--obj", "maximize-weight"],
            ["optimize", "tree", events_json, "--objective=maximize-weight"],
            ["optimize", "tree", events_json, "--he"], ["optimize", "path", events_json, "--he"],
            ["optimize", "path", events_json, "--heur"], ["bounds", "compute", events_json, "--ki", "kwerel-lower"],
            ["bounds", "all", events_json, f"--graph={graph_text}"], ["bounds", "all", events_json, "--gr", graph_text],
            ["optimize", "tree", "--", events_json], ["reliability", "--", network_json],
            ["optimize", "tree", events_json, "--", "--objective"], ["demo", "counterexample", "--", "5"],
            ["optimize", "tree", events_json, "--bogus"], ["reliability", network_json, "--nope", "1"],
            ["graph", "check", graph_text, "-x"], ["bounds", "compute", events_json, "--kind", "kwerel-lower", "extra"],
            ["optimize", "tree"], ["graph", "check"], ["reliability"], ["bounds", "all", "--graph", graph_text],
            ["bounds", "all", events_json], ["optimize", "tree", events_json, "--objective", "bogus"],
            ["optimize", "tree", events_json, "--objective"], ["demo", "counterexample", "--k", "x"],
            ["bounds", "compute", events_json, "--kind", "bonferroni-upper", "-r", "-1"],
            ["reliability", network_json, "--bounds", "kwerel-lower,hunter-lower"],
            ["reliability", network_json, "--bounds", "bogus"], ["reliability", network_json, "--sweep"],
            ["reliability", network_json, "--bounds", "kwerel-lower", "--sweep", "0:1:0.5"],
            ["optimize", "nope"], ["nope", "tree"], ["reliability", "check"], ["graph", "tree"],
        ]
        parser = cli._build_parser()
        full_parses = []
        whole = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: full_parses.append(argv) or whole(argv))

        def outcomes():
            results = [run(capsys, *argv) for argv in argvs]
            for argv in (["optimize", "tree", events_json], ["optimize", "path"], ["--help"]):
                with monkeypatch.context() as patch:
                    patch.setattr(sys, "argv", ["chordalbounds", *argv])
                    code = main(None)
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        routed = outcomes()
        # Only the argvs that name no leaf went through the whole tree.
        assert len(full_parses) == 15
        with monkeypatch.context() as patch:
            patch.setattr(parser, "leaves", {})
            assert outcomes() == routed
        code, out, _ = run(capsys, "optimize", "tree", "--help")
        assert code == 0 and out.startswith("usage: chordalbounds optimize tree ")

    def test_byte_identical_reruns(self, capsys, network_json, events_json, graph_text):
        for argv in (
            ("reliability", network_json, "--sweep", "0:1:0.1"),
            ("bounds", "all", events_json, "--graph", graph_text),
            ("demo", "counterexample"),
        ):
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second


def _outcome(read, path):
    """What `read(path)` gives: ("text", the string), or (the exception type, its message)."""
    try:
        return "text", read(path)
    except Exception as exc:
        return type(exc), str(exc)


# File contents by case, for `cli._read_text` against the text-mode read.
READ_CASES = {
    "empty": b"",
    "lf": b'{"weights": [1], "events": [[0]]}\n',
    "crlf": b'{"weights": [1],\r\n "events": [[0]]}\r\n',
    "lone-cr": b'{"weights": [1],\r "events": [[0]]}\r',
    "mixed-newlines": b"a\r\r\nb\n\rc\r\n\r",
    "multi-byte": "\u00e9\u20ac\U0001f600".encode(),
    "bom": b"\xef\xbb\xbf{}",
    "200kb": b'{"events": [' + b"[0, 1, 2],\r\n" * 17000 + b"[0]]}",
    "invalid-utf8": b'{"weights": [1]}\xff',
    "truncated-utf8": b"{}\xe2\x82",
}


class TestReadText:
    """`cli._read_text`, by an unbuffered binary read, against `open(path, encoding="utf-8").read()`."""

    @pytest.mark.parametrize("case", READ_CASES)
    def test_same_text_or_error_as_text_mode(self, tmp_path, case):
        path = tmp_path / "input.json"
        path.write_bytes(READ_CASES[case])
        want = _outcome(reference_read_text, str(path))
        assert _outcome(cli._read_text, str(path)) == want
        assert want[0] == "text" or case.startswith(("invalid", "truncated"))

    def test_directory_and_missing_path(self, tmp_path):
        for path in (str(tmp_path), str(tmp_path / "missing.json"), "tests"):
            want = _outcome(reference_read_text, path)
            assert want[0] in (IsADirectoryError, FileNotFoundError)
            assert _outcome(cli._read_text, path) == want

    @pytest.mark.parametrize("body", [b'{"weights": [1],\r\n "events": [[0]\r\n', b'{"weights":\r\n\r [1], x}\r\n'])
    def test_crlf_syntax_error_through_main(self, capsys, monkeypatch, tmp_path, body):
        # JSON positions count a CRLF as one character, as in text mode.
        path = tmp_path / "crlf.json"
        path.write_bytes(body)
        argv = ("optimize", "tree", str(path))
        got = run(capsys, *argv)
        monkeypatch.setattr(cli, "_read_text", reference_read_text)
        assert got == run(capsys, *argv)
        assert got[:2] == (1, "") and got[2].startswith("error: ")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_reads_close_their_descriptor(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"{}\xff")
        before = len(os.listdir("/proc/self/fd"))
        for path in (str(tmp_path), str(bad)) * 3:
            with pytest.raises((IsADirectoryError, UnicodeDecodeError)):
                cli._read_text(path)
        assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize(
    "argv, first",
    [
        (["reliability", str(DATA / "network_ladder3.json"), "--sweep", "0:1:0.0001"],
         [b"p,exact,hunter-lower,kwerel-lower,bonferroni-lower\n"]),
        (["demo", "counterexample"], []),
    ],
    ids=["sweep-after-one-line", "short-report-unread"],
)
def test_closed_stdout_exits_141_and_prints_nothing(argv, first):
    # The 10 001-row sweep is larger than a pipe holds, so a write fails
    # after the reader has taken one line.  The short report fits in the
    # stdout buffer, so its pipe is closed before the child starts and only
    # the flush fails (stdout is block-buffered on a pipe unless
    # PYTHONUNBUFFERED is set).
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-m", "chordalbounds", *argv]
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as reader:
        if not first:
            reader.close()
        try:
            proc = subprocess.Popen(command, stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        with proc:
            read = [reader.readline() for _ in first]
            reader.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
    assert read == first
    assert (code, err) == (141, b"")
