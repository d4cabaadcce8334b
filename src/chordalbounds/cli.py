"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error, 2 domain violation,
3 resource cap exceeded.  Data goes to stdout, errors to stderr, and the
output for a given input is byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import repeat

from . import bounds as bnd
from .errors import DomainError, ParseError, ResourceLimitError, _require_int, _to_float
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
from .reliability import (
    DEFAULT_BOUND_KINDS,
    _grid_values,
    bound_polynomials,
    bound_values,
    build_network,
)
from .values import RATIONAL, REAL, _read_rational

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _report_dict(report: bnd.BoundReport) -> dict:
    return {
        "kind": report.kind,
        "direction": report.direction,
        "r": report.truncation,
        "value": str(report.value) if isinstance(report.value, Fraction) else report.value,
        "alpha_used": report.alpha_used,
        "n": report.n,
        "edges": report.edge_count,
    }


# ---------------------------------------------------------------------------
# input loaders


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_json(text: str) -> dict:
    """The JSON object in `text`, or {} for any other value; bad JSON is a usage error."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return data if isinstance(data, dict) else {}


def _key(data: dict, key: str, kind: str):
    """`data[key]` of a JSON `kind` file, or a usage error naming the key."""
    if key not in data:
        raise _UsageError(f"{kind} file has no {key!r} key")
    return data[key]


def _json_list(data: dict, key: str, kind: str, shape: str, rule: str, types=(int, float, str), size=None):
    """`data[key]` of a JSON `kind` file, a list of `types` (by default
    numbers and strings, booleans too), each of length `size` if given;
    else a usage error naming the key, or the first bad item by index."""
    value = _key(data, key, kind)
    if not isinstance(value, list):
        raise _UsageError(f"{key!r} must be {shape}, got {json.dumps(value)}")
    if size is None and all(map(isinstance, value, repeat(types))):
        return value  # checked in C: a list of weights may be long
    for number, item in enumerate(value):
        if not isinstance(item, types) or (size is not None and len(item) != size):
            raise _UsageError(f"{rule}, got {key}[{number}]: {json.dumps(item)}")
    return value


def _require_size(n: int, event_count: int | None, max_vertices: int | None) -> None:
    """The vertex count must equal `event_count` and stay within
    `max_vertices`, each where given; checked before the graph is built,
    whose size follows the vertex count.  A count no list can index is
    left to `build_graph`, which names that limit."""
    if event_count is not None:
        _require_one_vertex_per_event(event_count, n)
    if max_vertices is not None and max_vertices < n <= sys.maxsize:
        raise ResourceLimitError(f"graph check caps at {max_vertices} vertices, got {n}")


def _load_graph(
    path: str, event_count: int | None = None, max_vertices: int | None = None
) -> Graph:
    """The graph in `path`; with `event_count`, its vertex count must
    equal it, and with `max_vertices`, stay within it."""
    raw = _read_text(path)
    text = raw.strip()
    if text.startswith("{"):
        data = _load_json(text)
        rule = "an edge holds two vertices [u, v]"
        edges = _json_list(data, "edges", "graph", "a list of [u, v] pairs", rule, list, 2)
        n = _key(data, "vertices", "graph")
        _require_int(n, "vertex count")
        _require_size(n, event_count, max_vertices)
        return build_graph(n, edges)
    lines = [(number, line) for number, line in enumerate(raw.splitlines(), 1) if line.strip()]
    if not lines:
        raise _UsageError(f"graph file {path} is empty")
    n, m = _int_pair(*lines[0], "graph text format starts with a line 'n m'")
    _require_size(n, event_count, max_vertices)
    if len(lines) - 1 != m:
        raise _UsageError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = [_int_pair(*line, "an edge line holds two vertices 'u v'") for line in lines[1:]]
    return build_graph(n, edges)


def _int_pair(number: int, line: str, expected: str) -> tuple[int, int]:
    """The two integers on text graph line `number`, or a usage error."""
    try:
        a, b = map(int, line.split())
    except ValueError:
        raise _UsageError(f"{expected}, got line {number}: {line.strip()!r}") from None
    return a, b


def _parse_values(data: dict, key: str):
    """Return (backend, values) of the probabilities `data[key]`.  Strings
    select the exact rational backend, and the values are left as written
    for `_read_rational`, a float as its JSON text; otherwise every value
    is read as a float."""
    rule = "a probability value is a number or a string"
    raw_values = _json_list(data, key, "events", "a list of probability values", rule)
    kinds = set(map(type, raw_values))
    if bool in kinds:
        flag = next(v for v in raw_values if isinstance(v, bool))
        raise DomainError(f"probability values must be numbers or strings, got {json.dumps(flag)}")
    if str not in kinds:
        return REAL, [_to_float(v, "probability value") for v in raw_values]
    if float in kinds:
        return RATIONAL, [str(v) if isinstance(v, float) else v for v in raw_values]
    return RATIONAL, raw_values


def _load_events(path: str):
    data = _load_json(_read_text(path))
    if "weights" in data:
        backend, weights = _parse_values(data, "weights")
        events = _json_list(data, "events", "events", "a list of events", "an event lists outcome ids", list)
        return from_outcomes(weights, events, backend=backend)
    if "coords" in data:
        backend, probs = _parse_values(data, "probs")
        if backend is RATIONAL:
            probs = [Fraction(*_read_rational(p)) for p in probs]
        _require_int(data["coords"], "coordinate count")
        if len(probs) != data["coords"]:
            raise _UsageError("'probs' must list one value per coordinate")
        events = _json_list(data, "events", "events", "a list of events", "an event lists coordinate ids", list)
        return bernoulli_product(probs, events, backend=backend)
    raise _UsageError("events file needs either 'weights' or 'coords'")


def _load_network(path: str):
    data = _load_json(_read_text(path))
    nodes = _key(data, "nodes", "network")
    rule = "an arc holds two nodes [tail, head]"
    arcs = _json_list(data, "arcs", "network", "a list of [tail, head] pairs", rule, list, 2)
    source, terminal = _key(data, "s", "network"), _key(data, "t", "network")
    p = data.get("p", "symbolic")
    # A list is checked here, so that a bad item is named by its index;
    # any other value is left to `build_network`, which names it.
    if p is None or isinstance(p, list):
        p = _json_list(data, "p", "network", "'symbolic', a number or a list", "an arc reliability is a number")
    return build_network(nodes, arcs, source, terminal, p)


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
# Most cliques `graph check` walks on a non-chordal graph, counting them by
# size without keeping them; a chordal one has its cliques counted along
# its perfect elimination order.  The whole command took 0.13 s on the
# 177,146 cliques of the 22-vertex cocktail-party graph, and 0.15 s to stop
# on the 24-vertex one at this budget (Python 3.11, one Xeon core).
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


def _cmd_bounds_compute(args) -> int:
    """One bound as JSON.  The kind is looked up before any file is read;
    the graph and the order are read only for a kind that reads them."""
    kind = args.kind
    if kind not in bnd.KINDS:
        raise _UsageError(f"unknown bound kind {kind!r}")
    reads = bnd.KINDS[kind][1]
    sys_ = _load_events(args.events)
    inputs = {"r": args.r, "unchecked": args.unchecked, "j": args.j, "k": args.k, "m": args.m}
    if "g" in reads:
        if not args.graph:
            raise _UsageError(f"--kind {kind} requires --graph")
        inputs["g"] = _load_graph(args.graph, sys_.event_count)
    if "order" in reads and args.order is not None:
        inputs["order"] = []
        for number, item in enumerate(args.order.split(","), 1):
            try:
                inputs["order"].append(int(item))
            except ValueError:
                raise _UsageError(f"--order lists event indices, got item {number}: {item!r}") from None
    print(json.dumps(_report_dict(bnd.bound(kind, sys_, **inputs)), indent=2))
    return 0


def _cmd_bounds_all(args) -> int:
    sys_ = _load_events(args.events)
    n = sys_.event_count
    g = _load_graph(args.graph, n)
    rows = [("bonferroni-upper", {}), ("bonferroni-lower", {})]
    for kind in ("chordal-upper", "chordal-lower"):
        rows += [(kind, {}), (kind, {"r": 1})]
    rows.append(("chordal-lower-sharpened", {}))
    if is_tree(g):
        rows += [("hunter-upper", {}), ("hunter-lower", {})]
    rows += [("path-lower", {}), ("kwerel-upper", {}), ("kwerel-lower", {})]
    if n >= 3:
        rows.append(("kwerel2-lower", {}))
    rows += [("generalized-lower", {"m": m}) for m in range(n)]
    # Every bound is computed before any output, so an error prints nothing.
    shared = {"g": g, "unchecked": args.unchecked}
    reports = [bnd.bound(kind, sys_, **shared, **inputs) for kind, inputs in rows]
    print(f"{'kind':<26} {'dir':<5} {'r':>3}  value")
    print(f"{'exact-union':<26} {'-':<5} {'-':>3}  {_fmt(union_prob_exact(sys_))}")
    for (kind, inputs), report in zip(rows, reports):
        label = f"{kind} m={inputs['m']}" if "m" in inputs else kind
        r_str = "-" if report.truncation is None else str(report.truncation)
        print(f"{label:<26} {report.direction:<5} {r_str:>3}  {_fmt(report.value)}")
    return 0


def _cmd_optimize(args) -> int:
    sys_ = _load_events(args.events)
    w = pairwise_weights(sys_)
    if args.structure == "tree":
        tree = best_tree(w, args.objective)
        result = {
            "tree_edges": [list(e) for e in tree.edges],
            "objective_value": tree_weight(w, tree),
            "mode": "exact",
            "optimal": True,
        }
    else:
        mode = "heuristic" if args.heuristic else "exact"
        order = best_path(w, mode)
        result = {
            "path_order": list(order),
            "objective_value": path_weight(w, order),
            "mode": mode,
            "optimal": mode == "exact",
        }
    print(json.dumps(result, indent=2))
    return 0


# Most grid points a --sweep may ask for; each point is one row of output.
MAX_SWEEP_POINTS = 100_000


def _parse_sweep(raw: str) -> tuple[range, int]:
    """The grid start, start + step, ... up to stop, as integer numerators
    over one denominator L = lcm(den(start), den(step)): a range and L,
    with no Fraction per point.  Its length is checked against
    MAX_SWEEP_POINTS before the range is built."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise _UsageError("--sweep expects start:stop:step")
    start, stop, step = (Fraction(*_read_rational(part)) for part in parts)
    if step <= 0:
        raise _UsageError("sweep step must be positive")
    count = max(0, math.floor((stop - start) / step) + 1)
    if count > MAX_SWEEP_POINTS:
        raise ResourceLimitError(f"sweep grid exceeds the cap of {MAX_SWEEP_POINTS} points")
    denominator = math.lcm(start.denominator, step.denominator)
    first = start.numerator * (denominator // start.denominator)
    stride = step.numerator * (denominator // step.denominator)
    return range(first, first + count * stride, stride), denominator


def _cmd_reliability(args) -> int:
    net = _load_network(args.network)
    columns = ("exact", *DEFAULT_BOUND_KINDS)
    if args.bounds:
        columns = ("exact", *(part.strip() for part in args.bounds.split(",") if part.strip()))
        unknown = [kind for kind in columns[1:] if kind not in DEFAULT_BOUND_KINDS]
        if unknown:
            raise _UsageError(f"unknown bound kinds: {', '.join(unknown)}")
    if args.sweep:
        tops, denominator = _parse_sweep(args.sweep)
        polys = bound_polynomials(net)
        # int / int is correctly rounded, as float(Fraction(n, d)) is.
        cells = [[format(a / denominator, ".12g") for a in tops]]
        for values, d in _grid_values([polys[kind] for kind in columns], tops, denominator):
            cells.append([format(n / d, ".12g") for n in values])
        print("\n".join([",".join(("p", *columns)), *map(",".join, zip(*cells))]))
        return 0
    values = bound_values(net)
    for kind in columns:
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
# not chordal and has 4^K - 1 cliques, counted by size in one walk that
# keeps none of them: the whole command took 0.13 s at a 17 MB peak for
# K = 9, and the count alone took 1.0 s for the 4 million cliques at
# K = 11 (Python 3.11, one Xeon core).  Each step of 2 in K multiplies the
# walk by 16, so the cap keeps the demo well under a second.
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
    the parser is built; the names they use (`build_graph`, `bnd.bound`,
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
    compute.add_argument("--unchecked", action="store_true")
    compute.add_argument("--order", default=None, help="event order for path-lower, e.g. 0,2,1")
    compute.add_argument("--j", type=int, default=None)
    compute.add_argument("--k", type=int, default=None)
    compute.add_argument("--m", type=int, default=None)
    compute.set_defaults(handler=_cmd_bounds_compute)
    all_p = bounds_sub.add_parser("all", help="every applicable bound plus the exact value")
    all_p.add_argument("events")
    all_p.add_argument("--graph", required=True)
    all_p.add_argument("--unchecked", action="store_true")
    all_p.set_defaults(handler=_cmd_bounds_all)

    optimize_p = sub.add_parser("optimize", help="pick a bound-optimizing tree or path")
    optimize_sub = optimize_p.add_subparsers(dest="structure", required=True, parser_class=_Parser)
    tree_p = optimize_sub.add_parser("tree", help="Kruskal spanning tree")
    tree_p.add_argument("events")
    tree_p.add_argument(
        "--objective",
        choices=("minimize-weight", "maximize-weight"),
        default="minimize-weight",
    )
    tree_p.set_defaults(handler=_cmd_optimize)
    path_p = optimize_sub.add_parser("path", help="minimum-weight visiting order")
    path_p.add_argument("events")
    # --exact is the default mode, kept as a flag for scripts that pass it.
    mode = path_p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--heuristic", action="store_true")
    path_p.set_defaults(handler=_cmd_optimize)

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


# Exit code of each error `main` reports, tested in this order; others propagate.
_EXIT_CODES = {
    _UsageError: 1, ResourceLimitError: 3, DomainError: 2, OSError: 1, ParseError: 1, UnicodeDecodeError: 1,
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
