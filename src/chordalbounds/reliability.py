"""Two-terminal reliability of directed networks with independent arc
failures.

Source-to-terminal reliability is the probability that some directed path
of operating arcs joins the source to the terminal.  Events are built from
simple-path enumeration, one event per path, over a product-form system of
independent arc states; all probability work is delegated to the
event-system machinery, so the same code runs with numeric arc
reliabilities and with a shared symbolic parameter p.  The reports take
the canonical path order; `path_event_system(net, paths)` fixes any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .bounds import bound
from .errors import DomainError, _require_int, _to_float
from .events import ProductSystem, _require_coordinate_cap, bernoulli_product, union_prob_exact
from .graphs import path_graph
from .poly import P, Polynomial
from .values import POLYNOMIAL, REAL

__all__ = [
    "Network",
    "build_network",
    "bridge_network",
    "enumerate_st_paths",
    "path_event_system",
    "exact_reliability",
    "bound_values",
    "bound_polynomials",
    "DEFAULT_BOUND_KINDS",
    "sweep",
]

SYMBOLIC = "symbolic"

DEFAULT_BOUND_KINDS = ("hunter-lower", "kwerel-lower", "bonferroni-lower")


@dataclass(frozen=True)
class Network:
    """Directed network with dense 0-based arc ids (displayed 1-based).

    `arc_reliability` is either the string "symbolic" (every arc shares the
    parameter p) or a tuple with one probability per arc.
    """

    node_count: int
    arcs: tuple[tuple[int, int], ...]
    source: int
    terminal: int
    arc_reliability: object = SYMBOLIC

    @property
    def symbolic(self) -> bool:
        return self.arc_reliability == SYMBOLIC


def build_network(node_count, arcs, source, terminal, reliability=SYMBOLIC) -> Network:
    """Validate a network description.

    `arcs` is a list or tuple of (tail, head) lists or tuples.
    `reliability` may be "symbolic", a real number applied to every arc,
    or a list or tuple with one real number per arc; booleans and every
    other value are rejected.  The node count, the source, the terminal
    and every arc endpoint must be ints.
    """
    sequences = (list, tuple)
    if not isinstance(arcs, sequences) or not all(isinstance(a, sequences) and len(a) == 2 for a in arcs):
        raise DomainError(f"arcs must be a list of (tail, head) pairs, got {arcs!r}")
    arcs = tuple(map(tuple, arcs))
    _require_int(node_count, "node count")
    _require_int(source, "source")
    _require_int(terminal, "terminal")
    for arc in arcs:
        for endpoint in arc:
            _require_int(endpoint, "arc endpoint")
    if not 0 <= source < node_count or not 0 <= terminal < node_count:
        raise DomainError("source or terminal out of range")
    if source == terminal:
        raise DomainError("source and terminal must differ")
    seen = set()
    for tail, head in arcs:
        if not (0 <= tail < node_count and 0 <= head < node_count):
            raise DomainError(f"arc ({tail}, {head}) has an endpoint out of range")
        if tail == head:
            raise DomainError(f"arc ({tail}, {head}) is a self-loop")
        if (tail, head) in seen:
            raise DomainError(f"duplicate arc ({tail}, {head})")
        seen.add((tail, head))
    if reliability != SYMBOLIC:
        scalar = not isinstance(reliability, sequences)
        values = (reliability,) if scalar else reliability
        for p in values:
            # bool is an int, so a Real too
            if isinstance(p, bool) or not isinstance(p, Real):
                raise DomainError(f"arc reliability must be {SYMBOLIC!r} or numeric, got {p!r}")
        values = tuple(_to_float(p, "arc reliability") for p in values)
        reliability = values * len(arcs) if scalar else values
        if len(reliability) != len(arcs):
            raise DomainError("need one reliability value per arc")
        for p in reliability:
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"arc reliability {p} outside [0, 1]")
    return Network(node_count, arcs, source, terminal, reliability)


def bridge_network(reliability=SYMBOLIC) -> Network:
    """The built-in 4-node bridge demo network.

    Nodes: source 0, upper node 1, lower node 2, terminal 3.  Arcs (shown
    1-based in reports): 1: 0->1, 2: 0->2, 3: 1->2, 4: 2->1, 5: 1->3,
    6: 2->3.
    """
    return build_network(
        4,
        [(0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 3)],
        source=0,
        terminal=3,
        reliability=reliability,
    )


def enumerate_st_paths(net: Network) -> tuple[frozenset[int], ...]:
    """All simple directed source-to-terminal paths as arc-id sets,
    canonically ordered by length, then lexicographic arc ids."""
    # Keyed by tail node, so that nodes no arc leaves cost nothing.
    outgoing: dict[int, list[int]] = {}
    for arc_id, (tail, _head) in enumerate(net.arcs):
        outgoing.setdefault(tail, []).append(arc_id)
    found: list[frozenset[int]] = []

    def walk(node: int, visited: int, used: tuple[int, ...]):
        if node == net.terminal:
            found.append(frozenset(used))
            return
        for arc_id in outgoing.get(node, ()):
            head = net.arcs[arc_id][1]
            if (visited >> head) & 1:
                continue
            walk(head, visited | (1 << head), used + (arc_id,))

    walk(net.source, 1 << net.source, ())
    found.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(found)


def _st_paths(net: Network):
    """No paths when the terminal is unreachable (one search over the
    arcs), else every s-t path.  A reachable network is checked against
    the product-space cap before the enumeration, which grows
    exponentially with the arcs, since every arc becomes a coordinate of
    the path events."""
    heads: dict[int, list[int]] = {}
    for tail, head in net.arcs:
        heads.setdefault(tail, []).append(head)
    reached, frontier = {net.source}, [net.source]
    while frontier:
        for head in heads.get(frontier.pop(), ()):
            if head not in reached:
                reached.add(head)
                frontier.append(head)
    if net.terminal not in reached:
        return ()
    _require_coordinate_cap(len(net.arcs))
    return enumerate_st_paths(net)


def path_event_system(net: Network, paths=None) -> ProductSystem:
    """Product-form system over arc states, one event per path.

    Pass `paths` to fix the event order explicitly; by default the
    canonical enumeration order is used.
    """
    paths = tuple(frozenset(p) for p in (_st_paths(net) if paths is None else paths))
    if not paths:
        raise DomainError("network has no source-to-terminal path")
    if net.symbolic:
        probs = [P] * len(net.arcs)
        backend = POLYNOMIAL
    else:
        probs = list(net.arc_reliability)
        backend = REAL
    return bernoulli_product(probs, paths, backend=backend)


def exact_reliability(net: Network):
    """Exact source-to-terminal reliability, by Shannon expansion over arc
    states (arc factoring) on the path events.

    Returns a Polynomial for symbolic networks, a float otherwise; a
    network with no path has reliability zero.
    """
    paths = _st_paths(net)
    if not paths:
        return POLYNOMIAL.zero if net.symbolic else 0.0
    return union_prob_exact(path_event_system(net, paths))


def bound_values(net: Network) -> dict:
    """Exact reliability and the lower bounds, from one path event system.

    Keys: "exact", then DEFAULT_BOUND_KINDS by `bounds.bound`, with the
    path graph over the event order: "hunter-lower", "kwerel-lower" and
    "bonferroni-lower" (depth 1).  Values are Polynomials in p for a
    symbolic network and floats otherwise.  A symbolic network with no
    path gets zero polynomials; a numeric one raises DomainError.
    """
    paths = _st_paths(net)
    if not paths and net.symbolic:
        return dict.fromkeys(("exact", *DEFAULT_BOUND_KINDS), POLYNOMIAL.zero)
    sys = path_event_system(net, paths)
    g = path_graph(len(paths))
    values = {"exact": union_prob_exact(sys)}
    values.update((kind, bound(kind, sys, g=g).value) for kind in DEFAULT_BOUND_KINDS)
    return values


def bound_polynomials(net: Network) -> dict[str, Polynomial]:
    """`bound_values` as polynomials in p; requires a symbolic network."""
    if not net.symbolic:
        raise DomainError("polynomial bounds require a symbolic network")
    return bound_values(net)


def _grid_values(columns, tops, b: int) -> list[tuple[list[int], int]]:
    """Each column's values at the points a/b for a in the sequence `tops`
    (b > 0), as `Polynomial._horner` gives them: unreduced numerators over
    one denominator.  Every point is checked first, so a point outside
    [0, 1] raises DomainError before anything is evaluated."""
    for a in tops:
        if not 0 <= a <= b:
            raise DomainError(f"p value {Fraction(a, b)} outside [0, 1]")
    return [q._horner(tops, b) for q in columns]


def sweep(net: Network, p_values, kinds=None):
    """Evaluate the exact reliability and the requested bounds on a grid.

    Returns (header, rows); each row holds exact Fractions, evaluated from
    the `bound_polynomials` columns at the given p.  p values may be
    Fractions, ints or floats (floats are read via their shortest decimal
    literal).  A kind outside DEFAULT_BOUND_KINDS raises DomainError.
    """
    header = ["p", "exact", *(DEFAULT_BOUND_KINDS if kinds is None else kinds)]
    polys = bound_polynomials(net)
    for kind in header[2:]:
        if kind not in DEFAULT_BOUND_KINDS:
            raise DomainError(f"unknown bound kind {kind!r}")
    columns = [polys[kind] for kind in header[1:]]
    rows = []
    for p in p_values:
        p = Fraction(str(p)) if isinstance(p, float) else Fraction(p)
        values = _grid_values(columns, (p.numerator,), p.denominator)
        rows.append((p, *(Fraction(value, d) for (value,), d in values)))
    return header, rows
