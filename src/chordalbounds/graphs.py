"""Simple undirected graphs and the clique machinery behind the bounds.

Vertices are dense integers 0..n-1 and neighborhoods are bitmasks, so the
subset-heavy routines (clique enumeration, independent sets, component
counts inside a vertex subset) stay cheap at desk scale.

Each graph computes its elimination order once, on first use, with one
maximum cardinality search, and keeps it: the reversed search order if it
is a perfect elimination order, else None.  `is_chordal`,
`independence_number`, `_clique_counts` and so `truncated_euler_sum` all
read that one order, however many bounds ask.

`_size_cap` is the one truncation-depth check: it turns a depth r into
the largest clique a truncated sum keeps, for `truncated_euler_sum` here
and for every truncated bound in `bounds`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations
from math import comb

from .errors import DomainError, ResourceLimitError

__all__ = [
    "Graph",
    "CliqueComplex",
    "build_graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "edgeless_graph",
    "tree_graph",
    "is_tree",
    "require_tree",
    "join_graphs",
    "complete_join_edgeless",
    "counterexample_graph",
    "counterexample_family",
    "mcs_order",
    "is_perfect_elimination_order",
    "is_chordal",
    "connected_components",
    "induced_subgraph",
    "independence_number",
    "clique_complex",
    "truncated_euler_sum",
    "binomial_alternating_sum",
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
    one neighbor bitmask per vertex and `_elimination_order` the graph's
    elimination order.  Both are derived, never compared, hashed or shown
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

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and (self.adj[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @cached_property
    def _elimination_order(self) -> tuple[int, ...] | None:
        """The reversed MCS order if it is a perfect elimination order, else
        None; it is one exactly when the graph is chordal.  Computed on
        first use and kept."""
        order = mcs_order(self)[::-1]
        return order if is_perfect_elimination_order(self, order) else None


def build_graph(vertex_count: int, edges) -> Graph:
    """Validate and normalize an edge list into a Graph.

    Rejects out-of-range endpoints, self-loops and duplicate edges, naming
    the offending pair, and a vertex count no list can index
    (ResourceLimitError).
    """
    if vertex_count < 0:
        raise DomainError(f"vertex count must be non-negative, got {vertex_count}")
    if vertex_count > sys.maxsize:
        raise ResourceLimitError(f"vertex count {vertex_count} exceeds the largest list size, {sys.maxsize}")
    seen = set()
    normalized = []
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise DomainError(
                f"edge ({u}, {v}) has an endpoint outside 0..{vertex_count - 1}"
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


def complete_join_edgeless(a: int, b: int) -> Graph:
    """Join of a complete graph on a vertices with b isolated vertices."""
    return join_graphs(complete_graph(a), edgeless_graph(b))


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
    clique-complex alternating sum of 1 + 2**k.
    """
    if k < 3 or k % 2 == 0:
        raise DomainError(f"family parameter must be odd and >= 3, got {k}")
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


def is_perfect_elimination_order(g: Graph, order) -> bool:
    """True iff each vertex's later neighbors along `order` form a clique."""
    order = tuple(order)
    if sorted(order) != list(range(g.vertex_count)):
        raise DomainError("order is not a permutation of the vertices")
    position = [0] * g.vertex_count
    for i, v in enumerate(order):
        position[v] = i
    for v in order:
        later = 0
        for u in _bits(g.adj[v]):
            if position[u] > position[v]:
                later |= 1 << u
        for u in _bits(later):
            if (g.adj[u] & later) != later ^ (1 << u):
                return False
    return True


def is_chordal(g: Graph) -> bool:
    """Chordality check: the reversed order of g's one MCS run, kept on g,
    must eliminate perfectly."""
    return g._elimination_order is not None


def connected_components(g: Graph, within=None) -> int:
    """Number of connected components, optionally of the subgraph induced
    by the vertex set `within`.  The empty graph has 0 components."""
    if within is None:
        return _component_count(g, (1 << g.vertex_count) - 1)
    remaining = 0
    for v in within:
        if not 0 <= v < g.vertex_count:
            raise DomainError(f"vertex {v} out of range")
        remaining |= 1 << v
    return _component_count(g, remaining)


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


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph on `vertices`, relabeled densely.

    New vertex i corresponds to sorted(vertices)[i]; that sorted list is
    the relabeling map.
    """
    vs = sorted(set(vertices))
    if not vs:
        raise DomainError("induced subgraph needs a non-empty vertex set")
    for v in vs:
        if not 0 <= v < g.vertex_count:
            raise DomainError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(vs)}
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return build_graph(len(vs), edges)


# Most search nodes the exact independent-set search visits before it stops
# with ResourceLimitError, about 1.5 s at some 7 us a node.  `graph check`
# took 1.0 s on the 40-vertex cycle (131,313 nodes) and stopped at this
# budget after 1.4 s on the 60-vertex one; a G(60, 0.1) graph needed
# 173,011 nodes (1.7 s) and the counterexample family at k = 9 needs 49
# (Python 3.11, one Xeon core).
MAX_INDEPENDENT_SET_NODES = 200_000


def _exact_independent_set(adj: tuple[int, ...], mask: int, budget) -> int:
    """Exact maximum independent set size within `mask` by branching on a
    max-degree vertex.  Each search node takes one item from the iterator
    `budget`; when it runs out the search stops with ResourceLimitError."""
    if next(budget, None) is None:
        raise ResourceLimitError(f"independence number search exceeds {MAX_INDEPENDENT_SET_NODES} nodes")
    if mask == 0:
        return 0
    best_v, best_deg = -1, -1
    for v in _bits(mask):
        d = (adj[v] & mask).bit_count()
        if d > best_deg:
            best_v, best_deg = v, d
    if best_deg <= 1:
        # All degrees <= 1: a matching plus isolated vertices.
        count = 0
        m = mask
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            count += 1
            m &= ~adj[u]
        return count
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


@dataclass(frozen=True)
class CliqueComplex:
    """All non-empty cliques of a graph, canonically ordered
    (by size, then lexicographically)."""

    cliques: tuple[tuple[int, ...], ...]

    @property
    def size_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for c in self.cliques:
            counts[len(c)] = counts.get(len(c), 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.cliques)


def clique_complex(
    g: Graph, max_size: int | None = None, max_cliques: int | None = None
) -> CliqueComplex:
    """Enumerate all cliques of cardinality <= max_size (all sizes if None).

    Depth-first search over neighbor bitmasks: each clique grows only by
    common neighbors above its largest vertex, so it is found exactly once.
    With `max_cliques`, the search stops with ResourceLimitError at the
    first clique past that many.
    """
    if max_size is not None and max_size < 1:
        raise DomainError(f"max_size must be >= 1, got {max_size}")
    cap = g.vertex_count if max_size is None else min(max_size, g.vertex_count)
    limit = sys.maxsize if max_cliques is None else max_cliques
    cliques: list[tuple[int, ...]] = []

    def grow(base: tuple[int, ...], candidates: int):
        for v in _bits(candidates):
            clique = base + (v,)
            cliques.append(clique)
            if len(cliques) > limit:
                raise ResourceLimitError(f"graph has more than {limit} cliques")
            if len(clique) < cap:
                above = ~((1 << (v + 1)) - 1)
                grow(clique, candidates & g.adj[v] & above)

    grow((), (1 << g.vertex_count) - 1)
    cliques.sort(key=lambda c: (len(c), c))
    return CliqueComplex(tuple(cliques))


def _clique_counts(
    g: Graph, max_size: int | None = None, max_cliques: int | None = None
) -> dict[int, int]:
    """Number of cliques of g of each size <= max_size (all sizes if None).

    Along g's elimination order every clique is its first vertex v plus a
    subset of L(v), the neighbours of v later in the order, so the counts
    are the coefficients of the sum over v of x(1 + x)^|L(v)| and no
    clique is listed.  A graph without one has its cliques enumerated, at
    most `max_cliques` of them.
    """
    order = g._elimination_order
    if order is None:
        return clique_complex(g, max_size, max_cliques).size_counts
    cap = g.vertex_count if max_size is None else max_size
    later_sizes: dict[int, int] = {}
    later = 0
    for v in reversed(order):
        size = (g.adj[v] & later).bit_count()
        later_sizes[size] = later_sizes.get(size, 0) + 1
        later |= 1 << v
    counts = [0] * (max(later_sizes, default=-1) + 2)
    for size, vertices in later_sizes.items():
        for k in range(min(size, cap - 1) + 1):
            counts[k + 1] += vertices * comb(size, k)
    return {size: count for size, count in enumerate(counts) if count}


def _size_cap(r: int | None, direction: str) -> int:
    """Largest clique or index set a sum of depth r keeps: 2r - 1 for an
    upper bound, 2r for a lower one."""
    if r is None or r < 1:
        raise DomainError(f"truncation depth must be >= 1, got {r}")
    return 2 * r - 1 if direction == "upper" else 2 * r


def truncated_euler_sum(g: Graph, r: int | None = None) -> int:
    """Alternating clique-count sum over cliques of size <= 2r.

    With r=None the whole complex is summed.  For a chordal graph the value
    is at most the number of connected components, with equality once
    2r >= vertex_count; its cliques are counted along its elimination
    order, not listed.
    """
    cap = None if r is None else _size_cap(r, "lower")
    return _alternating_count(_clique_counts(g, cap))


def _alternating_count(counts: dict[int, int]) -> int:
    """Clique counts by size summed with sign + for odd sizes, - for even."""
    return sum(count if size % 2 == 1 else -count for size, count in counts.items())


def binomial_alternating_sum(n: int, m: int) -> int:
    """Partial alternating binomial sum over k = 0..m for a fixed n >= 1.

    Equals (-1)**m * comb(n - 1, m); computed by direct summation.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    return sum((-1) ** k * comb(n, k) for k in range(m + 1))
