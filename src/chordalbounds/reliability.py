"""Two-terminal reliability of directed networks with independent arc
failures.

Source-to-terminal reliability is the probability that some directed path
of operating arcs joins the source to the terminal.  Events are built from
simple-path enumeration, one event per path, over a product-form system of
independent arc states; all probability work is delegated to the
event-system machinery, so the same code runs with numeric arc
reliabilities and with a shared symbolic parameter p.  The reports take
the canonical path order; `path_event_system(net, paths)` fixes any other.
Their Hunter column is the tree bound on the path graph over that order,
which `bounds.path_lower` sums along the path itself: no graph is built,
searched or checked per report.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from numbers import Rational, Real

from .bounds import bound
from .errors import DomainError, _exact_str, _repr, _require_int, _to_float
from .events import MAX_PRODUCT_COORDS, ProductSystem, _id_mask, _require_coordinate_cap, union_prob_exact
from .graphs import _bits
from .poly import P, Polynomial
from .values import POLYNOMIAL, REAL, _read_rational

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
        raise DomainError(f"arcs must be a list of (tail, head) pairs, got {_repr(arcs)}")
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
            raise DomainError(f"arc ({_exact_str(tail)}, {_exact_str(head)}) has an endpoint out of range")
        if tail == head:
            raise DomainError(f"arc ({tail}, {head}) is a self-loop")
        if (tail, head) in seen:
            raise DomainError(f"duplicate arc ({tail}, {head})")
        seen.add((tail, head))
    if reliability != SYMBOLIC:
        scalar = not isinstance(reliability, sequences)
        values = (reliability,) if scalar else tuple(reliability)
        # Float values are screened in C, by one type pass and min, max and
        # a sum (which a NaN makes NaN); only refused values are walked,
        # to name the first bad one.
        if not set(map(type, values)) <= {float}:
            for p in values:
                # bool is an int, so a Real too
                if isinstance(p, bool) or not isinstance(p, Real):
                    raise DomainError(f"arc reliability must be {SYMBOLIC!r} or numeric, got {_repr(p)}")
            values = tuple(_to_float(p, "arc reliability") for p in values)
        reliability = values * len(arcs) if scalar else values
        if len(reliability) != len(arcs):
            raise DomainError("need one reliability value per arc")
        if reliability and not (0.0 <= min(reliability) and max(reliability) <= 1.0 and sum(reliability) >= 0.0):
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
    canonically ordered by length, then lexicographic arc ids: the paths
    of `_path_masks`, each as the set of its arc ids."""
    return tuple(frozenset(_bits(mask)) for mask in _path_masks(net))


def _path_masks(net: Network) -> list[int]:
    """All simple directed source-to-terminal paths as arc masks (bit i
    for arc i), canonically ordered by length, then lexicographic arc ids.

    The walk keeps its partial paths (node, visited nodes, arc mask, sort
    key) on an explicit stack, so a path of any length is followed
    without recursion.  A visited node is marked by the bit of its dense
    index, its place among the source and the arc heads.  Over m arcs,
    arc i adds 2**m - 2**(m - 1 - i) to the key, so a path of k arcs has
    k * 2**m less its mask with the m bits reversed: among paths of one
    length, the first by sorted arc ids has the largest reversed mask."""
    # (head, head's bit, arc's bit, arc's key) by tail node; the source
    # has bit 1, each other head the next bit.
    m = len(net.arcs)
    bits = {net.source: 1}
    outgoing: dict[int, list[tuple[int, int, int, int]]] = {}
    for arc_id, (tail, head) in enumerate(net.arcs):
        bit = bits.setdefault(head, 1 << len(bits))
        outgoing.setdefault(tail, []).append((head, bit, 1 << arc_id, (1 << m) - (1 << m - 1 - arc_id)))
    found: dict[int, int] = {}
    terminal = net.terminal
    stack = [(net.source, 1, 0, 0)]
    while stack:
        node, visited, mask, key = stack.pop()
        if node == terminal:
            found[key] = mask
            continue
        for head, bit, arc, rank in outgoing.get(node, ()):
            if not visited & bit:
                stack.append((head, visited | bit, mask | arc, key + rank))
    return [found[key] for key in sorted(found)]


def _st_paths(net: Network) -> list[int]:
    """The masks of every s-t path (`_path_masks`).  Past
    MAX_PRODUCT_COORDS arcs, where the walk grows exponentially with the
    arcs, one search over the arcs runs first: a network whose terminal
    it does not reach has no path, and any other is refused by the cap,
    since every arc becomes a coordinate of the path events.  Under the
    cap the walk finds a network without paths by itself."""
    if len(net.arcs) > MAX_PRODUCT_COORDS:
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
            return []
        _require_coordinate_cap(len(net.arcs))
    return _path_masks(net)


def path_event_system(net: Network, paths=None) -> ProductSystem:
    """Product-form system over arc states, one event per path.

    Pass `paths`, each an iterable of arc ids, to fix the event order
    explicitly; by default the canonical enumeration order is used.
    """
    if paths is None:
        return _path_system(net, _st_paths(net))
    return _path_system(net, [_id_mask(path, len(net.arcs), "coordinate") for path in paths])


def _path_system(net: Network, masks) -> ProductSystem:
    """The path events of the arc masks `masks`."""
    if not masks:
        raise DomainError("network has no source-to-terminal path")
    if net.symbolic:
        return ProductSystem(POLYNOMIAL, (P,) * len(net.arcs), masks)
    return ProductSystem(REAL, net.arc_reliability, masks)


def exact_reliability(net: Network):
    """Exact source-to-terminal reliability, by Shannon expansion over arc
    states (arc factoring) on the path events, branching on the lowest arc
    of the shortest remaining path.

    Returns a Polynomial for symbolic networks, a float otherwise; a
    network with no path has reliability zero.
    """
    masks = _st_paths(net)
    if not masks:
        return POLYNOMIAL.zero if net.symbolic else 0.0
    return union_prob_exact(_path_system(net, masks))


def bound_values(net: Network) -> dict:
    """Exact reliability and the lower bounds, from one path event system.

    Keys: "exact", then DEFAULT_BOUND_KINDS by `bounds.bound`:
    "hunter-lower", "kwerel-lower" and "bonferroni-lower" (depth 1).
    Hunter's bound is taken on the path graph over the event order, as
    "path-lower" along the order n - 1, ..., 0: that is the path graph's
    perfect elimination order, so its cones ((v,), {v - 1}), cap and
    denominator ceil(n / 2) are the tree bound's, summed in the same
    order, and the value is the one `hunter-lower` gives on
    `path_graph(n)`, bit for bit on floats too.  Values are Polynomials in
    p for a symbolic network and floats otherwise.  A symbolic network
    with no path gets zero polynomials; a numeric one raises DomainError.
    """
    masks = _st_paths(net)
    if not masks and net.symbolic:
        return dict.fromkeys(("exact", *DEFAULT_BOUND_KINDS), POLYNOMIAL.zero)
    sys = _path_system(net, masks)
    order = range(len(masks) - 1, -1, -1)
    values = {"exact": union_prob_exact(sys)}
    for kind in DEFAULT_BOUND_KINDS:
        report = bound("path-lower", sys, order=order) if kind == "hunter-lower" else bound(kind, sys)
        values[kind] = report.value
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
            raise DomainError(f"p value {_exact_str(Fraction(a, b))} outside [0, 1]")
    return [q._horner(tops, b) for q in columns]


def sweep(net: Network, p_values, kinds=None):
    """Evaluate the exact reliability and the requested bounds on a grid.

    Returns (header, rows); each row holds exact Fractions, evaluated from
    the `bound_polynomials` columns at the given p.  p values may be
    Fractions, ints, or strings, floats (as their shortest decimal
    literal) and Decimals read by `_read_rational`, with its ParseError
    and exponent cap.  A bool, None or any other value raises
    DomainError, as does a kind outside DEFAULT_BOUND_KINDS.
    """
    header = ["p", "exact", *(DEFAULT_BOUND_KINDS if kinds is None else kinds)]
    polys = bound_polynomials(net)
    for kind in header[2:]:
        if kind not in DEFAULT_BOUND_KINDS:
            raise DomainError(f"unknown bound kind {_repr(kind)}")
    columns = [polys[kind] for kind in header[1:]]
    rows = []
    for p in p_values:
        if isinstance(p, (float, str, Decimal)):
            p = Fraction(*_read_rational(str(p)))
        elif isinstance(p, Rational) and not isinstance(p, bool):
            p = Fraction(p)
        else:
            raise DomainError(f"p value must be a number or a rational string, got {_repr(p)}")
        values = _grid_values(columns, (p.numerator,), p.denominator)
        rows.append((p, *(Fraction(value, d) for (value,), d in values)))
    return header, rows
