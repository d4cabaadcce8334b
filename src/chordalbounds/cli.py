"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error, 2 domain violation,
3 resource cap exceeded, 141 stdout closed by its reader.  Data goes to
stdout, errors to stderr, and the output for a given input is
byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import bounds as bnd
from .errors import DomainError, ParseError, ResourceLimitError, _exact_str, _require_int, _to_float
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
from .poly import P
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
    """A parser whose errors raise `_UsageError`, and which keeps the
    actions `add_argument` returned (`arguments`), what `set_defaults`
    gave (`fixed`), its optional exclusive groups (`exclusive`) and its
    required subcommands (`commands`, None on a command's own parser)."""

    def __init__(self, *args, **kwargs):
        self.arguments, self.fixed, self.exclusive, self.commands = [], {}, [], None
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise _UsageError(message)

    def add_subparsers(self, **kwargs):
        self.commands = super().add_subparsers(parser_class=_Parser, required=True, **kwargs)
        return self.commands

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.arguments.append(action)
        return action

    def set_defaults(self, **kwargs):
        super().set_defaults(**kwargs)
        self.fixed.update(kwargs)

    @functools.cached_property
    def plain(self):
        """(options by string, positionals, required actions, each
        exclusive action's group, namespace defaults) for `_read_plain`;
        None for actions it does not read the way argparse does."""
        options, positionals, groups, defaults = {}, [], {}, {}
        for action in self.arguments:
            if not action.option_strings:
                if action.nargs is not None or action.default is argparse.SUPPRESS:
                    return None
                positionals.append(action)
            elif action.default is argparse.SUPPRESS:  # -h, --help
                continue
            elif action.nargs in (None, 0):
                options.update(dict.fromkeys(action.option_strings, action))
            if isinstance(action.default, str) and action.type is not None:
                return None  # argparse converts it after its parse
            defaults.setdefault(action.dest, action.default)
        for group in self.exclusive:
            groups.update(dict.fromkeys(group, group))
        required = [action for action in self.arguments if action.required]
        return options, positionals, required, groups, {**self.fixed, **defaults}


def _fmt(value) -> str:
    return format(value, ".12g") if isinstance(value, float) else _exact_str(value)


def _report_dict(report: bnd.BoundReport) -> dict:
    return {
        "kind": report.kind,
        "direction": report.direction,
        "r": report.truncation,
        "value": _exact_str(report.value) if isinstance(report.value, Fraction) else report.value,
        "alpha_used": report.alpha_used,
        "n": report.n,
        "edges": report.edge_count,
    }


# ---------------------------------------------------------------------------
# input loaders


def _read_text(path: str) -> str:
    """The text of the file `path`, the one file reader of every loader.
    It is what `open(path, encoding="utf-8").read()` returns: strict UTF-8
    (a BOM kept as U+FEFF), with `\r\n` and a lone `\r` read as `\n`, and
    the same exception and message for a missing path, a directory or
    undecodable bytes.  The file is read through an unbuffered binary file
    object and decoded once, with no text layer: after a `gc.collect()`,
    about 35 µs for a 189-byte file against 60–80 µs in text mode (see
    README, "Cost")."""
    with open(path, "rb", buffering=0) as handle:
        text = handle.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_json(text: str) -> dict:
    """The JSON object in `text`, or {} for any other value; bad JSON, or
    JSON nested past the interpreter's recursion limit, is a usage error."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    except RecursionError:
        raise _UsageError("JSON nests too deeply") from None
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
    is read as a float.  One pass over the value types serves every check,
    and JSON floats are returned as they are."""
    rule = "a probability value is a number or a string"
    raw_values = _key(data, key, "events")
    kinds = set(map(type, raw_values)) if isinstance(raw_values, list) else {None}
    if not kinds <= {int, float, str, bool}:  # `_json_list` names the bad list or value
        _json_list(data, key, "events", "a list of probability values", rule)
    if bool in kinds:
        flag = next(v for v in raw_values if isinstance(v, bool))
        raise DomainError(f"probability values must be numbers or strings, got {json.dumps(flag)}")
    if str not in kinds:
        try:
            return REAL, raw_values if int not in kinds else list(map(float, raw_values))
        except OverflowError:  # an int past the float range, named
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
# quadratic in the vertex count, each step one arg-max in C: checking an
# edgeless graph took 0.16 s at 1000 vertices, 0.15-0.22 s at 2000 and
# 0.31 s at 4000 (whole command, 3 runs each, Python 3.11.7, shared 2-core
# Xeon host).
MAX_CHECK_VERTICES = 2000

def _cmd_graph_check(args) -> int:
    g = _load_graph(args.file, max_vertices=MAX_CHECK_VERTICES)
    # Both searches run before any output, so a graph past either budget
    # prints nothing.
    clique_sizes = _clique_sizes(_clique_counts(g))
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
    chordal = {"g": g, "unchecked": args.unchecked}
    rows = [("bonferroni-upper", {}), ("bonferroni-lower", {})]
    for kind in ("chordal-upper", "chordal-lower"):
        rows += [(kind, chordal), (kind, {**chordal, "r": 1})]
    rows.append(("chordal-lower-sharpened", chordal))
    if is_tree(g):
        rows += [("hunter-upper", {"g": g}), ("hunter-lower", {"g": g})]
    rows += [("path-lower", {}), ("kwerel-upper", {}), ("kwerel-lower", {})]
    if n >= 3:
        rows.append(("kwerel2-lower", {}))
    rows += [("generalized-lower", {"m": m}) for m in range(n)]
    # Every bound is computed before any output, so an error prints nothing.
    reports = [bnd._evaluate(sys_, kind, inputs) for kind, inputs in rows]
    print(f"{'kind':<26} {'dir':<5} {'r':>3}  value")
    print(f"{'exact-union':<26} {'-':<5} {'-':>3}  {_fmt(union_prob_exact(sys_))}")
    for (kind, inputs), (_, direction, value, truncation, *_) in zip(rows, reports):
        label = f"{kind} m={inputs['m']}" if "m" in inputs else kind
        r_str = "-" if truncation is None else str(truncation)
        print(f"{label:<26} {direction:<5} {r_str:>3}  {_fmt(value)}")
    return 0


def _report_json(key: str, items, value, mode: str, optimal: bool) -> str:
    """An optimize report as `json.dumps` with `indent=2` writes the dict
    {key: items, "objective_value": value, "mode": mode, "optimal":
    optimal}, from one template: the one list (`tree_edges` pairs or
    `path_order` events) with %d items, and `mode` and `optimal` as they
    read.  Only the objective value goes through plain `json.dumps` (its C
    encoder, which `indent` would bypass), for its spellings 0, -0.0 and
    Infinity."""
    if not items:
        text = "[]"
    elif key == "tree_edges":
        text = "[\n" + ",\n".join(["    [\n      %d,\n      %d\n    ]" % (u, v) for u, v in items]) + "\n  ]"
    else:
        text = "[\n" + ",\n".join(["    %d" % v for v in items]) + "\n  ]"
    return '{\n  "%s": %s,\n  "objective_value": %s,\n  "mode": "%s",\n  "optimal": %s\n}' % (
        key, text, json.dumps(value), mode, "true" if optimal else "false"
    )


def _cmd_optimize(args) -> int:
    sys_ = _load_events(args.events)
    w = pairwise_weights(sys_)
    if args.structure == "tree":
        tree = best_tree(w, args.objective)
        report = _report_json("tree_edges", tree.edges, tree_weight(w, tree), "exact", True)
    else:
        mode = "heuristic" if args.heuristic else "exact"
        order = best_path(w, mode)
        report = _report_json("path_order", order, path_weight(w, order), mode, mode == "exact")
    print(report)
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
    if args.bounds is not None:
        columns = ("exact", *(part.strip() for part in args.bounds.split(",") if part.strip()))
        unknown = [kind for kind in columns[1:] if kind not in DEFAULT_BOUND_KINDS]
        if unknown:
            raise _UsageError(f"unknown bound kinds: {', '.join(unknown)}")
    if args.sweep is not None:
        tops, denominator = _parse_sweep(args.sweep)
        polys = bound_polynomials(net)
        # P(p) = p, so the p column's numerators are the points a over the
        # grid's denominator, checked with the others before any is written.
        # int / int is correctly rounded, as float(Fraction(n, d)) is.
        grid = _grid_values([P, *(polys[kind] for kind in columns)], tops, denominator)
        floats = [[n / d for n in values] for values, d in grid]
        row = ",".join(["%.12g"] * len(floats))
        print("\n".join([",".join(("p", *columns)), *map(row.__mod__, zip(*floats))]))
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


def _counterexample_lines(g, label: str) -> list[str]:
    # With every event certain, every intersection in the clique sieve is
    # 1, so the lower-bound formula gives the alternating clique count
    # over the independence number, and one count serves every line.
    counts = _clique_counts(g)
    euler = _alternating_count(counts)
    alpha = independence_number(g)
    value = Fraction(euler, alpha)
    verdict = "exceeds 1" if value > 1 else "does not exceed 1"
    return [
        f"{label}: {g.vertex_count} vertices, {g.edge_count} edges",
        f"chordal: {'yes' if is_chordal(g) else 'no'}",
        f"independence_number: {alpha}",
        f"clique_sizes: {_clique_sizes(counts)}",
        f"alternating clique sum: {euler}",
        f"with all events certain the lower-bound formula gives bound {value} {verdict}",
    ]


def _cmd_demo(args) -> int:
    k = args.k if args.k is not None else 3
    # Both sections are computed before any output, so an invalid k or a
    # graph past the clique budget prints nothing.
    family = counterexample_family(k)
    lines = _counterexample_lines(counterexample_graph(), "counterexample graph")
    lines += _counterexample_lines(family, f"counterexample family k={k}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built on the first call and shared by every
    later `main` call in the process; parsing it keeps no state, each
    call gets a fresh Namespace.  Each parser's `commands` leads to the
    parsers of its command words, which `_read_plain` follows down to a
    command's own parser.  The subcommand handlers are bound when the
    parser is built; the names they use (`build_graph`, `bnd.bound`,
    `bound_values`, ...) are still looked up when they run."""
    parser = _Parser(prog="chordalbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    graph = sub.add_parser("graph", help="graph inspection")
    graph_sub = graph.add_subparsers(dest="action")
    check = graph_sub.add_parser("check", help="chordality, components, cliques")
    check.add_argument("file")
    check.set_defaults(handler=_cmd_graph_check)

    bounds_p = sub.add_parser("bounds", help="evaluate bounds")
    bounds_sub = bounds_p.add_subparsers(dest="action")
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
    optimize_sub = optimize_p.add_subparsers(dest="structure")
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
    # --exact is the default mode; perfbench's path jobs and CI's golden path step pass it.
    mode = path_p.add_mutually_exclusive_group()
    modes = (mode.add_argument("--exact", action="store_true"), mode.add_argument("--heuristic", action="store_true"))
    path_p.arguments += modes
    path_p.exclusive.append(modes)
    path_p.set_defaults(handler=_cmd_optimize)

    reliability_p = sub.add_parser("reliability", help="network reliability report")
    reliability_p.add_argument("network")
    reliability_p.add_argument("--sweep", default=None, help="grid start:stop:step")
    reliability_p.add_argument("--bounds", default=None, help="comma-separated bound kinds")
    reliability_p.set_defaults(handler=_cmd_reliability)

    demo = sub.add_parser("demo", help="built-in demonstrations")
    demo_sub = demo.add_subparsers(dest="action")
    counter = demo_sub.add_parser(
        "counterexample", help="invalid lower bounds on non-chordal graphs"
    )
    counter.add_argument("--k", type=int, default=None, help="family parameter (odd, >= 3)")
    counter.set_defaults(handler=_cmd_demo)

    return parser


def _read_plain(parser: _Parser, argv: list[str]):
    """`parser.parse_args(argv)` without argparse's parse, if `argv` is
    plain: the command words, exact names that lead through `commands`
    from `parser` to a command's own parser, each stored under its
    level's dest (`command`, `action`, `structure`); then, read from that
    parser, positionals not starting with "-", and exact option strings,
    each once, a valued one followed by a value not starting with "-"
    that passes its `type` and `choices`; every required argument, and
    one option at most of each exclusive group.  Each value is stored by
    calling its action.  Any other argv gives None."""
    tokens = iter(argv)
    words = {}
    while parser.commands is not None:
        word = next(tokens, None)
        words[parser.commands.dest] = word
        parser = parser.commands.choices.get(word)
        if parser is None:
            return None
    plain = parser.plain
    if plain is None:
        return None
    options, positionals, required, groups, defaults = plain
    namespace = argparse.Namespace(**words, **defaults)
    seen = set()
    waiting = iter(positionals)
    for token in tokens:
        if token[:1] != "-":
            action, option, value = next(waiting, None), None, token
            if action is None:
                return None
        else:
            action, option = options.get(token), token
            if action is None or action in seen or not seen.isdisjoint(groups.get(action, ())):
                return None
            value = [] if action.nargs == 0 else next(tokens, "-")
            if value[:1] == "-":
                return None
        if action.nargs is None:
            if action.type is not None:
                try:
                    value = action.type(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        action(parser, namespace, value, option)
        seen.add(action)
    return namespace if seen.issuperset(required) else None


# Exit code of each error `main` reports, tested in this order; others propagate.
_EXIT_CODES = {
    _UsageError: 1, ResourceLimitError: 3, DomainError: 2, OSError: 1, ParseError: 1, UnicodeDecodeError: 1,
}


def main(argv=None) -> int:
    """Run the command line `argv` (by default `sys.argv[1:]`) and return
    its exit code.  The argv takes one of two routes to the same
    Namespace.  A plain argv, a command's words such as `optimize tree`
    or `reliability` and then plain arguments, is read by `_read_plain`
    from the parsers' own actions without argparse's parse.  Any other
    argv goes through the whole argparse tree: no arguments, help, every
    error, an unknown or missing command word, abbreviations, `--x=v`,
    `--` and repeats.  When the reader of stdout closes it before the
    output is written, nothing more is printed and the exit code is 141,
    a SIGPIPE's 128 + 13."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = _read_plain(parser, argv) or parser.parse_args(argv)
            code = args.handler(args)
        except SystemExit as exc:  # argparse --help
            code = 0 if (exc.code or 0) == 0 else 1
        sys.stdout.flush()  # a pipe closed before the last write fails here
        return code
    except BrokenPipeError:
        # Point fd 1 at the null device, so the interpreter's flush at exit
        # writes what is still buffered there and reports nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))

