"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error, 2 domain violation,
3 resource cap exceeded.  Data goes to stdout, errors to stderr, and the
output for a given input is byte-stable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from fractions import Fraction

from . import bounds as bnd
from .errors import DomainError, ResourceLimitError, _require_int, _to_float
from .events import (
    _require_one_vertex_per_event,
    bernoulli_product,
    from_outcomes,
    union_prob_exact,
)
from .graphs import (
    Graph,
    _alternating_count,
    _clique_counts,
    build_graph,
    connected_components,
    counterexample_family,
    counterexample_graph,
    independence_number,
    is_chordal,
    is_tree,
)
from .optimize import best_path, best_tree, pairwise_weights, path_weight, tree_weight
from .reliability import DEFAULT_BOUND_KINDS, bound_values, build_network, sweep
from .values import RATIONAL, REAL, _read_rational

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _parse_errors():
    """Report malformed user input as a usage error; domain violations
    keep their own exit code."""
    try:
        yield
    except DomainError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise _UsageError(str(exc)) from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_value(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _report_dict(report: bnd.BoundReport) -> dict:
    return {
        "kind": report.kind,
        "direction": report.direction,
        "r": report.truncation,
        "value": _json_value(report.value),
        "alpha_used": report.alpha_used,
        "n": report.n,
        "edges": report.edge_count,
    }


# ---------------------------------------------------------------------------
# input loaders


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _require_size(n: int, event_count: int | None, max_vertices: int | None) -> None:
    """The vertex count must equal `event_count` and stay within
    `max_vertices`, each where given; checked before the graph is built,
    whose size follows the vertex count.  A count no list can index is
    left to `build_graph`, which names that limit."""
    if event_count is not None:
        _require_one_vertex_per_event(event_count, n)
    if max_vertices is not None and max_vertices < n <= sys.maxsize:
        raise ResourceLimitError(f"graph check caps at {max_vertices} vertices, got {n}")


@_parse_errors()
def _load_graph(
    path: str, event_count: int | None = None, max_vertices: int | None = None
) -> Graph:
    """The graph in `path`; with `event_count`, its vertex count must
    equal it, and with `max_vertices`, stay within it."""
    text = _read_text(path).strip()
    if text.startswith("{"):
        data = json.loads(text)
        edges = [tuple(e) for e in data["edges"]]
        _require_int(data["vertices"], "vertex count")
        _require_size(data["vertices"], event_count, max_vertices)
        for edge in edges:
            for endpoint in edge:
                _require_int(endpoint, "edge endpoint")
        return build_graph(data["vertices"], edges)
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise _UsageError(f"graph file {path} is empty")
    first = lines[0].split()
    if len(first) != 2:
        raise _UsageError("graph text format starts with a line 'n m'")
    n, m = int(first[0]), int(first[1])
    _require_size(n, event_count, max_vertices)
    if len(lines) - 1 != m:
        raise _UsageError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        u, v = line.split()
        edges.append((int(u), int(v)))
    return build_graph(n, edges)


def _parse_values(raw_values):
    """Return (backend, values).  Strings select the exact rational
    backend, and the values are left as written for `_read_rational`, a
    float as its JSON text; otherwise every value is read as a float."""
    kinds = set(map(type, raw_values))
    if bool in kinds:
        flag = next(v for v in raw_values if isinstance(v, bool))
        raise DomainError(f"probability values must be numbers or strings, got {json.dumps(flag)}")
    if str not in kinds:
        return REAL, [_to_float(v, "probability value") for v in raw_values]
    if float in kinds:
        return RATIONAL, [str(v) if isinstance(v, float) else v for v in raw_values]
    return RATIONAL, raw_values


@_parse_errors()
def _load_events(path: str):
    data = json.loads(_read_text(path))
    if "weights" in data:
        backend, weights = _parse_values(data["weights"])
        return from_outcomes(weights, data["events"], backend=backend)
    if "coords" in data:
        backend, probs = _parse_values(data["probs"])
        if backend is RATIONAL:
            probs = [Fraction(*_read_rational(p)) for p in probs]
        _require_int(data["coords"], "coordinate count")
        if len(probs) != data["coords"]:
            raise _UsageError("'probs' must list one value per coordinate")
        return bernoulli_product(probs, data["events"], backend=backend)
    raise _UsageError("events file needs either 'weights' or 'coords'")


@_parse_errors()
def _load_network(path: str):
    data = json.loads(_read_text(path))
    return build_network(
        data["nodes"],
        [tuple(a) for a in data["arcs"]],
        data["s"],
        data["t"],
        reliability=data.get("p", "symbolic"),
    )


# ---------------------------------------------------------------------------
# subcommand handlers


def _clique_sizes(counts: dict[int, int]) -> str:
    """Clique counts by size, e.g. "1:4 2:3"."""
    return " ".join(f"{size}:{counts[size]}" for size in sorted(counts))


# Most vertices `graph check` reads.  Its maximum cardinality search is
# quadratic in the vertex count: checking an edgeless graph took 0.22 s at
# 1000 vertices, 0.85 s at 2000 and 4.6 s at 4000 (Python 3.11, one Xeon
# core).
MAX_CHECK_VERTICES = 2000
# Most cliques `graph check` lists on a non-chordal graph; a chordal one
# has its cliques counted along its perfect elimination order, not listed.
# Listing the 177,146 cliques of the 22-vertex cocktail-party graph took
# 0.38 s, and stopping on the 24-vertex one at this budget 0.29 s (Python
# 3.11, one Xeon core).
MAX_CHECK_CLIQUES = 250_000


def _cmd_graph_check(args) -> int:
    g = _load_graph(args.file, max_vertices=MAX_CHECK_VERTICES)
    # Both searches run before any output, so a graph past either budget
    # prints nothing.
    clique_sizes = _clique_sizes(_clique_counts(g, max_cliques=MAX_CHECK_CLIQUES))
    alpha = independence_number(g)
    print(f"vertices: {g.vertex_count}")
    print(f"edges: {g.edge_count}")
    print(f"chordal: {'yes' if is_chordal(g) else 'no'}")
    print(f"components: {connected_components(g)}")
    print(f"independence_number: {alpha}")
    print(f"clique_sizes: {clique_sizes}")
    return 0


@_parse_errors()
def _parse_order(raw: str | None, n: int):
    if raw is None:
        return tuple(range(n))
    return tuple(int(part) for part in raw.split(","))


def _compute_report(args, sys_) -> bnd.BoundReport:
    kind = args.kind
    g = None
    if kind.startswith("chordal") or kind.startswith("hunter"):
        if not args.graph:
            raise _UsageError(f"--kind {kind} requires --graph")
        g = _load_graph(args.graph, sys_.event_count)
    if kind in ("bonferroni-upper", "bonferroni-lower"):
        direction = kind.removeprefix("bonferroni-")
        return bnd.classical_bonferroni(sys_, 1 if args.r is None else args.r, direction)
    if kind == "chordal-upper":
        return bnd.chordal_upper(sys_, g, r=args.r, unchecked=args.unchecked)
    if kind in ("chordal-lower", "chordal-lower-sharpened"):
        sharpened = args.sharpened or kind == "chordal-lower-sharpened"
        return bnd.chordal_lower(
            sys_, g, r=args.r, sharpened=sharpened, unchecked=args.unchecked
        )
    if kind == "hunter-upper":
        return bnd.hunter_upper_tree(sys_, g)
    if kind == "hunter-lower":
        return bnd.hunter_lower_tree(sys_, g)
    if kind == "path-lower":
        return bnd.path_lower(sys_, _parse_order(args.order, sys_.event_count))
    if kind == "kwerel-upper":
        return bnd.kwerel_upper(sys_)
    if kind == "kwerel-lower":
        return bnd.kwerel_lower(sys_)
    if kind == "seneta-upper":
        return bnd.seneta_upper(sys_, args.j, args.k)
    if kind == "seneta-lower":
        return bnd.seneta_lower(sys_, args.j, args.k)
    if kind == "kwerel2-lower":
        return bnd.kwerel2_lower(sys_)
    if kind == "generalized-lower":
        return bnd.generalized_lower(sys_, args.m)
    raise _UsageError(f"unknown bound kind {kind!r}")


def _cmd_bounds_compute(args) -> int:
    sys_ = _load_events(args.events)
    report = _compute_report(args, sys_)
    print(json.dumps(_report_dict(report), indent=2))
    return 0


def _cmd_bounds_all(args) -> int:
    sys_ = _load_events(args.events)
    n = sys_.event_count
    g = _load_graph(args.graph, n)
    rows = [
        bnd.classical_bonferroni(sys_, 1, "upper"),
        bnd.classical_bonferroni(sys_, 1, "lower"),
        bnd.chordal_upper(sys_, g, unchecked=args.unchecked),
        bnd.chordal_upper(sys_, g, r=1, unchecked=args.unchecked),
        bnd.chordal_lower(sys_, g, unchecked=args.unchecked),
        bnd.chordal_lower(sys_, g, r=1, unchecked=args.unchecked),
    ]
    if sys_.backend.ordered:
        rows.append(bnd.chordal_lower(sys_, g, sharpened=True, unchecked=args.unchecked))
    if is_tree(g):
        rows.append(bnd.hunter_upper_tree(sys_, g))
        rows.append(bnd.hunter_lower_tree(sys_, g))
    rows.append(bnd.path_lower(sys_, tuple(range(n))))
    rows.append(bnd.kwerel_upper(sys_))
    rows.append(bnd.kwerel_lower(sys_))
    if n >= 3:
        rows.append(bnd.kwerel2_lower(sys_))
    labeled = [(report.kind, report) for report in rows]
    for m in range(n):
        labeled.append((f"generalized-lower m={m}", bnd.generalized_lower(sys_, m)))
    print(f"{'kind':<26} {'dir':<5} {'r':>3}  value")
    print(f"{'exact-union':<26} {'-':<5} {'-':>3}  {_fmt(union_prob_exact(sys_))}")
    for label, report in labeled:
        r_str = "-" if report.truncation is None else str(report.truncation)
        print(f"{label:<26} {report.direction:<5} {r_str:>3}  {_fmt(report.value)}")
    return 0


def _cmd_optimize(args) -> int:
    sys_ = _load_events(args.events)
    wm = pairwise_weights(sys_)
    if args.structure == "tree":
        tree = best_tree(wm, args.objective)
        result = {
            "tree_edges": [list(e) for e in tree.edges],
            "objective_value": tree_weight(wm, tree),
            "mode": "exact",
            "optimal": True,
        }
    else:
        mode = "heuristic" if args.heuristic else "exact"
        order = best_path(wm, mode)
        result = {
            "path_order": list(order),
            "objective_value": path_weight(wm, order),
            "mode": mode,
            "optimal": mode == "exact",
        }
    print(json.dumps(result, indent=2))
    return 0


# Most grid points a --sweep may ask for; each point is one row of output.
MAX_SWEEP_POINTS = 100_000


@_parse_errors()
def _parse_sweep(raw: str):
    """The grid start, start + step, ... up to stop, as Fractions; its
    length is checked against MAX_SWEEP_POINTS before any point is built."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise _UsageError("--sweep expects start:stop:step")
    start, stop, step = (Fraction(*_read_rational(part)) for part in parts)
    if step <= 0:
        raise _UsageError("sweep step must be positive")
    count = max(0, math.floor((stop - start) / step) + 1)
    if count > MAX_SWEEP_POINTS:
        raise ResourceLimitError(f"sweep grid exceeds the cap of {MAX_SWEEP_POINTS} points")
    return [start + i * step for i in range(count)]


def _cmd_reliability(args) -> int:
    net = _load_network(args.network)
    kinds = DEFAULT_BOUND_KINDS
    if args.bounds:
        kinds = tuple(part.strip() for part in args.bounds.split(",") if part.strip())
        unknown = [kind for kind in kinds if kind not in DEFAULT_BOUND_KINDS]
        if unknown:
            raise _UsageError(f"unknown bound kinds: {', '.join(unknown)}")
    if args.sweep:
        header, rows = sweep(net, _parse_sweep(args.sweep), kinds)
        print(",".join(header))
        for row in rows:
            print(",".join(format(float(cell), ".12g") for cell in row))
        return 0
    values = bound_values(net)
    for kind in ("exact", *kinds):
        value = values[kind]
        if net.symbolic:
            print(f"{kind}: {value}")
            print(f"{kind} coeffs: {value.coefficient_string()}")
        else:
            print(f"{kind}: {_fmt(value)}")
    return 0


def _print_counterexample(g, label: str) -> None:
    # With every event certain, every intersection in the clique sieve is
    # 1, so the lower-bound formula gives the alternating clique count
    # over the independence number, and one count serves every line.
    counts = _clique_counts(g)
    euler = _alternating_count(counts)
    alpha = independence_number(g)
    value = Fraction(euler, alpha)
    verdict = "exceeds 1" if value > 1 else "does not exceed 1"
    print(f"{label}: {g.vertex_count} vertices, {g.edge_count} edges")
    print(f"chordal: {'yes' if is_chordal(g) else 'no'}")
    print(f"independence_number: {alpha}")
    print(f"clique_sizes: {_clique_sizes(counts)}")
    print(f"alternating clique sum: {euler}")
    print(f"with all events certain the lower-bound formula gives bound {value} {verdict}")


# Largest family parameter `demo counterexample --k` takes.  The family is
# not chordal and has 4^K - 1 cliques, listed once: the whole command took
# 0.16 s at a 19 MB peak for K = 7 and 0.7 s at 64 MB for K = 9 (Python
# 3.11, one Xeon core).  Each step of 2 in K multiplies the listing by 16,
# so K = 11 would hold 4 million cliques in memory at once.
MAX_DEMO_K = 9


def _cmd_demo(args) -> int:
    k = args.k if args.k is not None else 3
    if k > MAX_DEMO_K:
        raise ResourceLimitError(f"demo counterexample caps --k at {MAX_DEMO_K}, got {k}")
    # Built before any output, so an invalid k prints nothing.
    family = counterexample_family(k)
    _print_counterexample(counterexample_graph(), "counterexample graph")
    _print_counterexample(family, f"counterexample family k={k}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built on the first call and shared by every
    later `main` call in the process; parsing it keeps no state, each
    call gets a fresh Namespace.  The subcommand handlers are bound when
    the parser is built; the names they use (`build_graph`, `bnd.*`,
    `bound_values`, ...) are still looked up when they run."""
    parser = _Parser(prog="chordalbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    graph = sub.add_parser("graph", help="graph inspection")
    graph_sub = graph.add_subparsers(dest="action", required=True, parser_class=_Parser)
    check = graph_sub.add_parser("check", help="chordality, components, cliques")
    check.add_argument("file")
    check.set_defaults(handler=_cmd_graph_check)

    bounds_p = sub.add_parser("bounds", help="evaluate bounds")
    bounds_sub = bounds_p.add_subparsers(dest="action", required=True, parser_class=_Parser)
    compute = bounds_sub.add_parser("compute", help="one bound as JSON")
    compute.add_argument("events")
    compute.add_argument("--graph", default=None)
    compute.add_argument("--kind", required=True)
    compute.add_argument("-r", type=int, default=None)
    compute.add_argument("--sharpened", action="store_true")
    compute.add_argument("--unchecked", action="store_true")
    compute.add_argument("--order", default=None, help="event order for path-lower, e.g. 0,2,1")
    compute.add_argument("--j", type=int, default=0)
    compute.add_argument("--k", type=int, default=1)
    compute.add_argument("--m", type=int, default=0)
    compute.set_defaults(handler=_cmd_bounds_compute)
    all_p = bounds_sub.add_parser("all", help="every applicable bound plus the exact value")
    all_p.add_argument("events")
    all_p.add_argument("--graph", required=True)
    all_p.add_argument("--unchecked", action="store_true")
    all_p.set_defaults(handler=_cmd_bounds_all)

    optimize_p = sub.add_parser("optimize", help="pick a bound-optimizing tree or path")
    optimize_p.add_argument("structure", choices=("tree", "path"))
    optimize_p.add_argument("events")
    optimize_p.add_argument(
        "--objective",
        choices=("minimize-weight", "maximize-weight"),
        default="minimize-weight",
    )
    mode = optimize_p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--heuristic", action="store_true")
    optimize_p.set_defaults(handler=_cmd_optimize)

    reliability_p = sub.add_parser("reliability", help="network reliability report")
    reliability_p.add_argument("network")
    reliability_p.add_argument("--sweep", default=None, help="grid start:stop:step")
    reliability_p.add_argument("--bounds", default=None, help="comma-separated bound kinds")
    reliability_p.set_defaults(handler=_cmd_reliability)

    demo = sub.add_parser("demo", help="built-in demonstrations")
    demo_sub = demo.add_subparsers(dest="action", required=True, parser_class=_Parser)
    counter = demo_sub.add_parser(
        "counterexample", help="invalid lower bounds on non-chordal graphs"
    )
    counter.add_argument("--k", type=int, default=None, help="family parameter (odd, >= 3)")
    counter.set_defaults(handler=_cmd_demo)

    return parser


# Exit code of each error `main` reports, tested in this order.
_EXIT_CODES = {
    _UsageError: 1, ResourceLimitError: 3, DomainError: 2, OSError: 1, json.JSONDecodeError: 1,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse --help
        return 0 if (exc.code or 0) == 0 else 1
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
