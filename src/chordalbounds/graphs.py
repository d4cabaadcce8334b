"""Simple undirected graphs and the clique machinery behind the bounds.

Vertices are dense integers 0..n-1 and neighborhoods are bitmasks, so the
subset-heavy routines (clique enumeration, independent sets, component
counts inside a vertex subset) stay cheap at desk scale.

Each graph computes its elimination order once, on first use, with one
maximum cardinality search, and keeps it: the reversed search order if it
is a perfect elimination order, else None.  `is_chordal`,
`independence_number`, `_clique_counts` and so `truncated_euler_sum`, and
the clique brackets of `bounds`, all read that one order, however many
bounds ask; `_later_neighbours` gives each vertex's later neighbours along
it, the cliques through that vertex.

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

from .errors import DomainError, ResourceLimitError, _require_int

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

    @cached_property
    def _elimination_order(self) -> tuple[int, ...] | None:
        """The reversed MCS order if it is a perfect elimination order, else
        None; it is one exactly when the graph is chordal.  Computed on
        first use and kept."""
        order = mcs_order(self)[::-1]
        return order if is_perfect_elimination_order(self, order) else None


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
    if k < 3 or k % 2 == 0:
        raise DomainError(f"family parameter must be odd and >= 3, got {k}")
    if k > MAX_LISTED_CLIQUES.bit_length() or 4**k - 1 > MAX_LISTED_CLIQUES:  # no 4**k of a huge k
        raise ResourceLimitError(f"graph has more than {MAX_LISTED_CLIQUES} cliques")
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
    for later in _later_neighbours(g, order):
        for u in _bits(later):
            if (g.adj[u] & later) != later ^ (1 << u):
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


# Most cliques a walk lists (`clique_complex`) or counts (`_clique_counts`)
# before it stops with ResourceLimitError.  The cocktail-party graph on 2k
# vertices has 3^k - 1 cliques: at k = 12 listing took 0.5 s at an 88 MB
# peak and counting 0.2 s; listing stopped here for k = 14 after 0.7 s at
# 142 MB (Python 3.11, one Xeon core).
MAX_LISTED_CLIQUES = 1_000_000


def _clique_groups(g: Graph, cap: int):
    """Walk the cliques of g of cardinality <= cap depth-first, one group
    at a time.

    A group is a pair (base, extensions): the cliques base + (v,) for v in
    the bitmask `extensions`, whose vertices all lie above base's largest
    one, so every clique is in exactly one group.  Groups come in
    lexicographic order of their bases, so the cliques of each size come
    in lexicographic order too.  Only the groups beside the current path
    are held.  The walk stops with ResourceLimitError once it has seen
    more than MAX_LISTED_CLIQUES cliques, read when the walk starts.
    """
    limit = MAX_LISTED_CLIQUES
    # up[v]: the neighbours of v above v
    up = [mask >> (v + 1) << (v + 1) for v, mask in enumerate(g.adj)]
    seen = 0
    stack = [((), (1 << g.vertex_count) - 1)]
    while stack:
        base, extensions = stack.pop()
        seen += extensions.bit_count()
        if seen > limit:
            raise ResourceLimitError(f"graph has more than {limit} cliques")
        yield base, extensions
        if len(base) + 1 < cap:
            # Highest vertex first, so the stack hands back the lowest first.
            rest = extensions
            while rest:
                v = rest.bit_length() - 1
                rest ^= 1 << v
                above = extensions & up[v]
                if above:
                    stack.append((base + (v,), above))


def _clique_cap(g: Graph, max_size: int | None) -> int:
    if max_size is not None and max_size < 1:
        raise DomainError(f"max_size must be >= 1, got {max_size}")
    return g.vertex_count if max_size is None else min(max_size, g.vertex_count)


def clique_complex(g: Graph, max_size: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The cliques of cardinality <= max_size (all sizes if None), as sorted
    vertex tuples ordered by size and then lexicographically.

    Depth-first search over neighbor bitmasks: each clique grows only by
    common neighbors above its largest vertex, so it is found exactly once.
    Past MAX_LISTED_CLIQUES cliques it stops with ResourceLimitError.
    """
    groups = _clique_groups(g, _clique_cap(g, max_size))
    cliques = [base + (v,) for base, extensions in groups for v in _bits(extensions)]
    # Each size is already in lexicographic order; the sort is stable.
    return tuple(sorted(cliques, key=len))


def _clique_counts(g: Graph, max_size: int | None = None) -> dict[int, int]:
    """Number of cliques of g of each size <= max_size (all sizes if None).

    Along g's elimination order every clique is its first vertex v plus a
    subset of L(v), the neighbours of v later in the order, so the counts
    are the coefficients of the sum over v of x(1 + x)^|L(v)| and no
    clique is listed.  A graph without one has its cliques walked group by
    group and counted, none kept; past MAX_LISTED_CLIQUES of them the walk
    stops with ResourceLimitError.
    """
    cap = _clique_cap(g, max_size)
    order = g._elimination_order
    if order is None:
        counts = [0] * (cap + 1)
        for base, extensions in _clique_groups(g, cap):
            counts[len(base) + 1] += extensions.bit_count()
    else:
        later_sizes = Counter(mask.bit_count() for mask in _later_neighbours(g, order))
        counts = [0] * (max(later_sizes, default=-1) + 2)
        for size, vertices in later_sizes.items():
            for k in range(min(size, cap - 1) + 1):
                counts[k + 1] += vertices * comb(size, k)
    return {size: count for size, count in enumerate(counts) if count}


def _size_cap(r: int | None, direction: str) -> int:
    """Largest clique or index set a sum of depth r keeps: 2r - 1 for an
    upper bound, 2r for a lower one."""
    _require_int(r, "truncation depth")
    if r < 1:
        raise DomainError(f"truncation depth must be >= 1, got {r}")
    return 2 * r - 1 if direction == "upper" else 2 * r


def truncated_euler_sum(g: Graph, r: int | None = None) -> int:
    """Alternating clique-count sum over cliques of size <= 2r.

    With r=None the whole complex is summed.  For a chordal graph the value
    is at most the number of connected components, with equality once
    2r >= vertex_count; its cliques are counted along its elimination
    order, not listed.  Any other graph has its cliques walked, and past
    MAX_LISTED_CLIQUES of them the sum stops with ResourceLimitError.
    """
    cap = None if r is None else _size_cap(r, "lower")
    return _alternating_count(_clique_counts(g, cap))


def _alternating_count(counts: dict[int, int]) -> int:
    """Clique counts by size summed with sign + for odd sizes, - for even."""
    return sum(count if size % 2 == 1 else -count for size, count in counts.items())
