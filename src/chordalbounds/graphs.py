"""Simple undirected graphs and the clique machinery behind the bounds.

Vertices are dense integers 0..n-1 and neighborhoods are bitmasks, so the
subset-heavy routines (clique enumeration, independent sets, component
counts inside a vertex subset) stay cheap at desk scale.

Each graph runs one maximum cardinality search, on first use, and keeps
the reversed search order with each vertex's later neighbours along it,
as the cones ((v,), L(v)) (`Graph._search`); its elimination order is that order if it eliminates
perfectly, else None.  `is_chordal`, `independence_number` and `_cones`
all read that one search, however many bounds ask.

`_cones` is the one place that tells a chordal graph from any other when
cliques are summed, counted or listed.  Along the search order the clique
complex is a union of cones, each a base joined to every subset of a
clique of later neighbours: a chordal graph is one cone per vertex, and
any other graph has its cones walked, under the MAX_LISTED_CLIQUES
budget.  The clique brackets of `bounds` sum over the cones,
`_shape_counts` counts the cliques they hold for `_clique_counts` (and so
`truncated_euler_sum`) and for `clique_complex`, which takes the cones
once and expands them only after that count.

`_size_cap` is the one truncation-depth check: it turns a depth r into
the largest clique a truncated sum keeps, for `truncated_euler_sum` here
and for every truncated bound in `bounds`.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, combinations
from math import comb

from .errors import DomainError, ResourceLimitError, _exact_str, _require_int, _require_positive_int

__all__ = [
    "Graph",
    "build_graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "edgeless_graph",
    "tree_graph",
    "is_tree",
    "require_tree",
    "join_graphs",
    "counterexample_graph",
    "counterexample_family",
    "mcs_order",
    "is_perfect_elimination_order",
    "is_chordal",
    "connected_components",
    "independence_number",
    "clique_complex",
    "truncated_euler_sum",
]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..vertex_count-1.

    `edges` is canonically sorted with each pair as (min, max); `adj` holds
    one neighbor bitmask per vertex, `_search` the graph's search order and
    the cones of its later neighbours, and `_elimination_order` its
    elimination order.  All are derived, never compared, hashed or shown
    in the repr.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "adj", tuple(masks))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _search(self) -> tuple[tuple[int, ...], tuple[tuple[tuple[int], int], ...]]:
        """(order, cones): the reversed order of the graph's one maximum
        cardinality search, and for each vertex v the cone ((v,), L(v)) of
        its later neighbours along it (`_later_neighbours`).  Computed on
        first use and kept, so that a chordal graph's cones are built once."""
        order = mcs_order(self)[::-1]
        return order, tuple(((v,), later) for v, later in enumerate(_later_neighbours(self, order)))

    @cached_property
    def _elimination_order(self) -> tuple[int, ...] | None:
        """The reversed MCS order if it is a perfect elimination order, else
        None; it is one exactly when the graph is chordal."""
        order, cones = self._search
        return order if all(_is_clique(self.adj, later) for _, later in cones) else None


def build_graph(vertex_count: int, edges) -> Graph:
    """Validate and normalize an edge list into a Graph.

    Rejects a vertex count or endpoint that is no int (or is a bool),
    out-of-range endpoints, self-loops and duplicate edges, naming each,
    and a vertex count no list can index (ResourceLimitError).
    """
    _require_int(vertex_count, "vertex count")
    edges = tuple(edges)
    for endpoint in chain.from_iterable(edges):
        _require_int(endpoint, "edge endpoint")
    if vertex_count < 0:
        raise DomainError(f"vertex count must be non-negative, got {_exact_str(vertex_count)}")
    if vertex_count > sys.maxsize:
        raise ResourceLimitError(
            f"vertex count {_exact_str(vertex_count)} exceeds the largest list size, {sys.maxsize}"
        )
    seen = set()
    normalized = []
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise DomainError(
                f"edge ({_exact_str(u)}, {_exact_str(v)}) has an endpoint outside 0..{vertex_count - 1}"
            )
        if u == v:
            raise DomainError(f"self-loop ({u}, {v}) is not allowed")
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise DomainError(f"duplicate edge {pair}")
        seen.add(pair)
        normalized.append(pair)
    return Graph(vertex_count, tuple(sorted(normalized)))


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DomainError("a cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, list(combinations(range(n), 2)))


def edgeless_graph(n: int) -> Graph:
    return build_graph(n, [])


def tree_graph(vertex_count: int, edges) -> Graph:
    return require_tree(build_graph(vertex_count, edges))


def is_tree(g: Graph) -> bool:
    """Connected with one edge fewer than vertices; the empty graph is not
    a tree."""
    n = g.vertex_count
    return n > 0 and g.edge_count == n - 1 and connected_components(g) == 1


def require_tree(g: Graph) -> Graph:
    """Return g, or raise DomainError if it is not a tree."""
    if not is_tree(g):
        raise DomainError("graph is not a tree")
    return g


def join_graphs(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus every edge between the two sides."""
    offset = g.vertex_count
    edges = list(g.edges)
    edges += [(u + offset, v + offset) for u, v in h.edges]
    edges += [(u, v + offset) for u in range(g.vertex_count) for v in range(h.vertex_count)]
    return build_graph(g.vertex_count + h.vertex_count, edges)


# 8-vertex non-chordal graph whose clique-complex alternating sum exceeds
# its component count; the invalid-lower-bound demo is built on it.  The
# vertex groups {0,5,6}, {1,4,7}, {2,3} are pairwise fully joined except
# for the missing pair (6,7).
_COUNTEREXAMPLE_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 7),
    (1, 2), (1, 3), (1, 5), (1, 6),
    (2, 4), (2, 5), (2, 6), (2, 7),
    (3, 4), (3, 5), (3, 6), (3, 7),
    (4, 5), (4, 6),
    (5, 7),
)


def counterexample_graph() -> Graph:
    """The embedded 8-vertex, 20-edge non-chordal counterexample graph."""
    return Graph(8, _COUNTEREXAMPLE_EDGES)


def counterexample_family(k: int) -> Graph:
    """Join of k disjoint copies of the edgeless graph on three vertices.

    Defined for odd k >= 3; has 3k vertices, independence number 3, and a
    clique-complex alternating sum of 1 + 2**k over its 4**k - 1 cliques.
    Past MAX_LISTED_CLIQUES cliques it raises ResourceLimitError before
    it builds the joins, which take time cubic in k (5 s at k = 151).
    """
    _require_int(k, "family parameter")
    if k < 3 or k % 2 == 0:
        raise DomainError(f"family parameter must be odd and >= 3, got {_exact_str(k)}")
    _require_clique_budget(4 ** min(k, MAX_LISTED_CLIQUES.bit_length()) - 1)  # no 4**k of a huge k
    return reduce(join_graphs, [edgeless_graph(3)] * k)


def mcs_order(g: Graph) -> tuple[int, ...]:
    """Maximum cardinality search order.

    Repeatedly visits the unvisited vertex with the most visited neighbors,
    breaking ties by smallest index.  For a chordal graph the reverse of
    this order is a perfect elimination order.
    """
    n = g.vertex_count
    weights = [0] * n
    visited = 0
    order = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if not (visited >> v) & 1 and (best < 0 or weights[v] > weights[best]):
                best = v
        order.append(best)
        visited |= 1 << best
        for w in _bits(g.adj[best] & ~visited):
            weights[w] += 1
    return tuple(order)


def _later_neighbours(g: Graph, order) -> list[int]:
    """`later[v]`: the mask of the neighbours of v that come after v in
    `order`.  Along a perfect elimination order each is a clique, so the
    cliques of g whose first vertex is v are v plus the subsets of
    later[v], each clique once."""
    later = [0] * g.vertex_count
    seen = 0
    for v in reversed(order):
        later[v] = g.adj[v] & seen
        seen |= 1 << v
    return later


def is_perfect_elimination_order(g: Graph, order) -> bool:
    """True iff each vertex's later neighbors along `order` form a clique."""
    order = tuple(order)
    if sorted(order) != list(range(g.vertex_count)):
        raise DomainError("order is not a permutation of the vertices")
    return all(_is_clique(g.adj, later) for later in _later_neighbours(g, order))


def _is_clique(adj: tuple[int, ...], mask: int) -> bool:
    """True iff the vertices of `mask` are pairwise adjacent."""
    for u in _bits(mask):
        if adj[u] & mask != mask ^ (1 << u):
            return False
    return True


def is_chordal(g: Graph) -> bool:
    """Chordality check: the reversed order of g's one MCS run, kept on g,
    must eliminate perfectly."""
    return g._elimination_order is not None


def connected_components(g: Graph) -> int:
    """Number of connected components; the empty graph has 0."""
    return _component_count(g, (1 << g.vertex_count) - 1)


def _component_count(g: Graph, remaining: int) -> int:
    """Number of connected components of the subgraph induced by the
    vertex mask `remaining`, whose bits must be vertices of g."""
    count = 0
    while remaining:
        count += 1
        seed = remaining & -remaining
        frontier = seed
        component = 0
        while frontier:
            component |= frontier
            reached = 0
            for v in _bits(frontier):
                reached |= g.adj[v]
            frontier = reached & remaining & ~component
        remaining &= ~component
    return count


# Most search nodes the exact independent-set search visits before it stops
# with ResourceLimitError.  It bounds nodes, not time: each node scans every
# vertex of its mask.  The 8x8 grid (272,879 nodes needed) stops here after
# 1.9 s, but the prism C1000 x K2 (2,000 vertices, 3,000 edges) only after
# 130 s; the counterexample family at k = 9 needs 49 nodes (Python 3.11,
# one Xeon core, in-process).
MAX_INDEPENDENT_SET_NODES = 200_000


def _paths_and_cycles_alpha(adj: tuple[int, ...], mask: int) -> int:
    """Independence number within `mask` when every vertex there has at
    most two neighbours there, so that its components are paths and
    cycles: ceil(k/2) for a path of k vertices, floor(k/2) for a cycle.
    Each component is walked from its lowest vertex, along each of its
    neighbours in turn, one bit at a time."""
    count = 0
    while mask:
        start = mask & -mask
        component, cycle = start, False
        for first in _bits(adj[start.bit_length() - 1] & mask):
            prev, step = start, 1 << first
            while step and not step & component:
                component |= step
                prev, step = step, adj[step.bit_length() - 1] & mask & ~prev
            # The walk stops at a path's end (no step) or back at start.
            cycle = cycle or step != 0
        mask &= ~component
        k = component.bit_count()
        count += k // 2 if cycle else (k + 1) // 2
    return count


def _exact_independent_set(adj: tuple[int, ...], mask: int, budget) -> int:
    """Exact maximum independent set size within `mask` by branching on a
    max-degree vertex, down to masks of maximum degree 2, whose paths and
    cycles are counted directly.  Each search node takes one item from
    the iterator `budget`; when it runs out the search stops with
    ResourceLimitError."""
    if next(budget, None) is None:
        raise ResourceLimitError(f"independence number search exceeds {MAX_INDEPENDENT_SET_NODES} nodes")
    best_v, best_deg = -1, -1
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        d = (adj[v] & mask).bit_count()
        if d > best_deg:
            best_v, best_deg = v, d
    if best_deg <= 2:
        return _paths_and_cycles_alpha(adj, mask)
    v = best_v
    with_v = 1 + _exact_independent_set(adj, mask & ~((1 << v) | adj[v]), budget)
    without_v = _exact_independent_set(adj, mask & ~(1 << v), budget)
    return max(with_v, without_v)


def independence_number(g: Graph) -> int:
    """Exact independence number.

    A chordal graph uses the greedy scan along its elimination order;
    everything else falls back to exact branch-and-bound search, which
    stops with ResourceLimitError past MAX_INDEPENDENT_SET_NODES nodes.
    """
    order = g._elimination_order
    if order is None:
        budget = iter(range(MAX_INDEPENDENT_SET_NODES))
        return _exact_independent_set(g.adj, (1 << g.vertex_count) - 1, budget)
    covered = 0
    count = 0
    for v in order:
        if not (covered >> v) & 1:
            count += 1
            covered |= (1 << v) | g.adj[v]
    return count


# Most cliques the cone walk of a non-chordal graph counts (`_cones`), or
# `clique_complex` lists, before it stops with ResourceLimitError; a
# chordal graph's cones are counted only for a listing.  No clique is
# listed for a sum or a count.  The cocktail-party graph on 2k vertices has
# 3^k - 1 cliques: at k = 12 counting them took 0.05 s and listing them
# 1.1 s at an 81 MB peak; at k = 14 the walk stops here after 0.02 s,
# before any clique is listed (Python 3.11, one Xeon core).
MAX_LISTED_CLIQUES = 1_000_000


def _require_clique_budget(count: int) -> None:
    """Raise ResourceLimitError if `count` cliques pass MAX_LISTED_CLIQUES."""
    if count > MAX_LISTED_CLIQUES:
        raise ResourceLimitError(f"graph has more than {MAX_LISTED_CLIQUES} cliques")


def _cones(g: Graph, cap: int):
    """The cliques of g of cardinality <= cap, as cones (base, rest).  The
    base is a clique, as a vertex tuple, and `rest` a mask of vertices
    adjacent to all of it; the cone holds the cliques base + S for the
    subsets S of rest with len(base) + |S| <= cap.  Every clique lies in
    exactly one cone.

    Along g's reversed MCS order every clique is its first vertex v plus a
    clique of L(v), the later neighbours of v.  A chordal graph, whose
    every L(v) is a clique, is the cones ((v,), L(v)) in vertex order, the
    tuple the graph keeps (`Graph._search`), and nothing is walked or
    counted.  Any other graph is walked from the nodes ((v,), L(v)): a
    node (base, rest) holds the cliques base + S for the cliques S in
    rest.  It is one cone when rest is a clique, or when the cap leaves
    room for at most one vertex of rest; otherwise it is the cone
    (base, 0) plus one node (base + (x,), rest & L(x)) for each x in rest,
    the cliques S whose first vertex is x.  The walk counts the cliques
    its cones hold and stops with ResourceLimitError once they pass
    MAX_LISTED_CLIQUES, read as it goes.
    """
    vertex_cones = g._search[1]
    return vertex_cones if g._elimination_order is not None else _cone_walk(g.adj, vertex_cones, cap)


def _cone_walk(adj: tuple[int, ...], vertex_cones, cap: int):
    """The walk of `_cones` for a graph with no perfect elimination order,
    from its cones ((v,), L(v))."""
    held = 0
    stack = list(vertex_cones[::-1])
    while stack:
        base, rest = stack.pop()
        room = cap - len(base)
        if room > 1 and not _is_clique(adj, rest):
            stack += [(base + (x,), rest & vertex_cones[x][1]) for x in _bits(rest)]
            rest = 0
        k = rest.bit_count()
        held += 1 << k if k <= room else sum(comb(k, s) for s in range(room + 1))
        _require_clique_budget(held)
        yield base, rest


def _clique_cap(g: Graph, size: int | None, name: str) -> int:
    """The largest clique kept: `size`, checked as the caller's parameter
    `name`, or every size if it is None."""
    if size is None:
        return g.vertex_count
    _require_positive_int(size, name)
    return min(size, g.vertex_count)


def _shape_counts(cones, cap: int) -> dict[int, int]:
    """Number of cliques of each size <= cap that the cones (base, rest)
    hold, counted from their shapes, none listed: a cone holds
    C(|rest|, s) cliques of size len(base) + s."""
    counts = [0] * (cap + 1)
    for (size, k), alike in Counter((len(base), rest.bit_count()) for base, rest in cones).items():
        for s in range(min(k, cap - size) + 1):
            counts[size + s] += alike * comb(k, s)
    return {size: count for size, count in enumerate(counts) if count}


def clique_complex(g: Graph, max_size: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The cliques of cardinality <= max_size (all sizes if None), as sorted
    vertex tuples ordered by size and then lexicographically.

    The cones of `_cones` are taken once, and counted (`_shape_counts`)
    before any clique is listed: a walk stops with ResourceLimitError past
    MAX_LISTED_CLIQUES as it is taken, and a chordal graph's cones are
    checked against it by their count.  Then each cone is expanded, size
    by size, and each size is sorted.
    """
    cap = _clique_cap(g, max_size, "max_size")
    cones = tuple(_cones(g, cap))
    _require_clique_budget(sum(_shape_counts(cones, cap).values()))
    by_size = [[] for _ in range(cap + 1)]
    for base, rest in cones:
        others = tuple(_bits(rest))
        for size in range(min(len(others), cap - len(base)) + 1):
            by_size[len(base) + size] += [tuple(sorted(base + subset)) for subset in combinations(others, size)]
    return tuple(chain.from_iterable(map(sorted, by_size)))


def _clique_counts(g: Graph, max_size: int | None = None) -> dict[int, int]:
    """Number of cliques of g of each size <= max_size (all sizes if None),
    from the shapes of the cones of `_cones`."""
    cap = _clique_cap(g, max_size, "max_size")
    return _shape_counts(_cones(g, cap), cap)


def _size_cap(r: int | None, direction: str) -> int:
    """Largest clique or index set a sum of depth r keeps: 2r - 1 for an
    upper bound, 2r for a lower one."""
    _require_positive_int(r, "truncation depth")
    return 2 * r - 1 if direction == "upper" else 2 * r


def truncated_euler_sum(g: Graph, r: int | None = None) -> int:
    """Alternating clique-count sum over cliques of size <= 2r.

    With r=None the whole complex is summed.  For a chordal graph the value
    is at most the number of connected components, with equality once
    2r >= vertex_count.  The cliques are counted from the shapes of the
    graph's cones, not listed; a graph that is not chordal has its cones
    walked, and past MAX_LISTED_CLIQUES cliques the sum stops with
    ResourceLimitError.
    """
    cap = None if r is None else _size_cap(r, "lower")
    return _alternating_count(_clique_counts(g, cap))


def _alternating_count(counts: dict[int, int]) -> int:
    """Clique counts by size summed with sign + for odd sizes, - for even."""
    return sum(count if size % 2 == 1 else -count for size, count in counts.items())
