"""Choosing the graph that optimizes a bound.

A minimum spanning tree of the pairwise-intersection weights maximizes the
tree lower bound with the fixed (n - 1) denominator, and a minimum-length
Hamiltonian path maximizes the path bound.  The exhaustive tree oracle
explores the true tree objective, including each candidate tree's own
independence number, at tiny n.  It decodes every Prüfer code once; the
decode removes leaves bottom-up, so matching each removed leaf with its
neighbour when both are free gives a maximum matching, and by König's
theorem a tree's independence number is n minus that matching's size.
`best_tree` and `best_path` take the weights of `pairwise_weights`, which
needs a system on the real (float) backend; `best_path` needs the rows
symmetric, as `pairwise_weights` gives them.
"""

from __future__ import annotations

import math
from itertools import chain, islice, product

from .errors import DomainError, ResourceLimitError
from .events import EventSystem, intersection_prob
from .graphs import Graph, _bits, build_graph

__all__ = [
    "HELD_KARP_MAX_VERTICES",
    "EXHAUSTIVE_TREE_MAX_VERTICES",
    "pairwise_weights",
    "best_tree",
    "tree_weight",
    "best_path",
    "path_weight",
    "exhaustive_tree_oracle",
]

HELD_KARP_MAX_VERTICES = 15
EXHAUSTIVE_TREE_MAX_VERTICES = 7


def pairwise_weights(sys: EventSystem) -> tuple[tuple[float, ...], ...]:
    """Rows w of two-event intersection probabilities, w[u][v] = P(A_u and
    A_v), with 0.0 on the diagonal (real backend only)."""
    if sys.backend.name != "real":
        raise DomainError("pairwise weights require the real backend")
    n = sys.event_count
    rows = [[0.0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            # One query per unordered pair: (u, v) and (v, u) name one mask.
            rows[u][v] = rows[v][u] = intersection_prob(sys, (u, v))
    return tuple(map(tuple, rows))


def best_tree(w: tuple[tuple[float, ...], ...], objective: str = "minimize-weight") -> Graph:
    """Kruskal spanning tree of the complete graph weighted by the rows w.

    "minimize-weight" maximizes the fixed-denominator tree lower bound;
    "maximize-weight" minimizes the tree upper bound.  Ties break on
    lexicographic edge order, so the result is deterministic.
    """
    if objective not in ("minimize-weight", "maximize-weight"):
        raise DomainError(f"unknown objective {objective!r}")
    n = len(w)
    sign = 1.0 if objective == "minimize-weight" else -1.0
    edges = sorted(
        ((u, v) for u in range(n) for v in range(u + 1, n)),
        key=lambda e: (sign * w[e[0]][e[1]], e),
    )
    # component[v]: bitmask of the vertices joined to v so far
    component = [1 << v for v in range(n)]
    chosen = []
    for u, v in edges:
        if not (component[u] >> v) & 1:
            merged = component[u] | component[v]
            for x in _bits(merged):
                component[x] = merged
            chosen.append((u, v))
            if len(chosen) == n - 1:
                break
    return build_graph(n, chosen)


def tree_weight(w: tuple[tuple[float, ...], ...], tree: Graph) -> float:
    return sum(w[u][v] for u, v in tree.edges)


def path_weight(w: tuple[tuple[float, ...], ...], order) -> float:
    order = tuple(order)
    return sum(w[a][b] for a, b in zip(order, order[1:]))


def _normalize_direction(order: tuple[int, ...]) -> tuple[int, ...]:
    reverse = order[::-1]
    return order if order <= reverse else reverse


def _held_karp_path(w: tuple[tuple[float, ...], ...]) -> tuple[int, ...]:
    n = len(w)
    inf = math.inf
    # Ties are resolved lexicographically; the slack absorbs float noise
    # from differing addition orders between equal-weight paths.
    slack = 1e-12
    # cost[mask][v]: minimum weight of a path visiting exactly `mask`,
    # starting at v (v must be in mask); a row never filled reads +inf.
    # The loops walk member tuples, not bits: a mask's members, ascending,
    # are low[mask & low_bits] + high[mask >> half], from two tables of at
    # most 2**ceil(n/2) tuples.  rows[v] is w[v] with +inf on the diagonal,
    # so u == v adds +inf and never wins over the candidate u != v that
    # every state of two or more members has.
    rows = []
    for v in range(n):
        row = list(w[v])
        row[v] = inf
        rows.append(row)
    half = n // 2
    low_bits = (1 << half) - 1
    low = [tuple(_bits(m)) for m in range(1 << half)]
    high = [tuple(v + half for v in _bits(m)) for m in range(1 << (n - half))]
    size = 1 << n
    full = size - 1
    levels = [[] for _ in range(n + 1)]
    for mask in range(size):
        levels[mask.bit_count()].append(mask)
    cost = [(inf,) * n] * size
    for mask in levels[1]:
        cost[mask] = (0.0,) * n

    def fill(masks, kept=None):
        # The state (mask, v) takes the least row[u] + rest_cost[u] over its
        # sources u: every member of mask, or the kept heads of mask - v.
        for mask in masks:
            members = low[mask & low_bits] + high[mask >> half]
            cost[mask] = cost_mask = [inf] * n
            for v in members:
                rest = mask ^ (1 << v)
                row, rest_cost = rows[v], cost[rest]
                best = inf
                for u in members if kept is None else kept.get(rest, ()):
                    candidate = row[u] + rest_cost[u]
                    if candidate < best:
                        best = candidate
                cost_mask[v] = best

    # Every state the walk below reads as near-optimal, joined to its
    # cheapest completion, weighs at most n slacks plus the rounding of a
    # few sums of n weights above the optimum; n * scale * 1e-12 exceeds
    # that rounding many times over at n <= 15.
    scale = max(map(abs, chain.from_iterable(w)))
    margin = n * (slack + scale * 1e-12)

    def joins(masks, top):
        # Yield (weight, mask, v) for each state of masks whose cost plus
        # its cheapest completion, the path from v through the events
        # outside mask read backwards, weighs at most top; top falls to
        # margin above the least weight yielded.
        for mask in masks:
            members = low[mask & low_bits] + high[mask >> half]
            cost_mask, other = cost[mask], full ^ mask
            for v in members:
                weight = cost_mask[v] + cost[other | 1 << v][v]
                if weight <= top:
                    yield weight, mask, v
                    if weight + margin < top:
                        top = weight + margin

    def heads(found, top):
        # kept[mask]: the heads v of the found states (mask, v) that weigh
        # at most top.
        kept = {}
        for weight, mask, v in found:
            if weight <= top:
                kept[mask] = kept.get(mask, ()) + (v,)
        return kept

    # Every path splits at its h-th event into two paths of at most h
    # events, so rows of at most h members give each larger state its
    # exact cheapest completion and the level-h joins the optimum.  Larger
    # rows are filled from the kept states only: those within margin of
    # the optimum, whose own least sources are kept too, so each keeps
    # the float of the full table.  When an eighth of the level-h states
    # are kept, as ties such as equal weights make them, pruning costs more
    # than it saves and the rest of the table is filled from every member.
    h = (n + 2) // 2
    fill(chain.from_iterable(levels[2 : h + 1]))
    if h < n:
        limit = h * len(levels[h]) // 8
        found = list(islice(joins(levels[h], inf), limit))
        if len(found) == limit:
            fill(chain.from_iterable(levels[h + 1 :]))
        else:
            top = min(found)[0] + margin
            kept = heads(found, top)
            for _ in range(h, n):
                # Each kept state is a source of a state one event larger.
                targets = {
                    mask | 1 << v
                    for mask in kept
                    for v in low[(full ^ mask) & low_bits] + high[(full ^ mask) >> half]
                }
                fill(targets, kept)
                kept = heads(joins(targets, top), top)
    optimum = min(cost[full][v] for v in range(n))
    start = min(v for v in range(n) if cost[full][v] <= optimum + slack)
    order = [start]
    mask = full
    current = start
    while mask != (1 << current):
        others = mask ^ (1 << current)
        target = cost[mask][current] + slack
        current = next(u for u in _bits(others) if w[current][u] + cost[others][u] <= target)
        order.append(current)
        mask = others
    return _normalize_direction(tuple(order))


def _nearest_neighbor(w: tuple[tuple[float, ...], ...], start: int) -> tuple[int, ...]:
    order = [start]
    remaining = set(range(len(w))) - {start}
    while remaining:
        row = w[order[-1]]
        order.append(min(remaining, key=lambda v: (row[v], v)))
        remaining.discard(order[-1])
    return tuple(order)


def _two_opt(w: tuple[tuple[float, ...], ...], order: tuple[int, ...]) -> tuple[int, ...]:
    n = len(order)
    path = list(order)
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                delta = 0.0
                if i > 0:
                    delta += w[path[i - 1]][path[j]] - w[path[i - 1]][path[i]]
                if j < n - 1:
                    delta += w[path[i]][path[j + 1]] - w[path[j]][path[j + 1]]
                if delta < -1e-12:
                    path[i : j + 1] = reversed(path[i : j + 1])
                    improved = True
    return tuple(path)


def best_path(w: tuple[tuple[float, ...], ...], mode: str = "exact") -> tuple[int, ...]:
    """Minimum-total-weight visiting order of all events under the rows w.

    Exact mode runs Held-Karp subset dynamic programming (n <= 15) and
    returns the lexicographically least optimal order.  Its inner loops
    walk each subset's members as a tuple, joined from two tables of
    half-width member tuples, instead of extracting bits one at a time.
    It fills every subset of at most ceil((n + 1) / 2) events; each larger
    state then has its exact cheapest completion, a small path read
    backwards, and is filled only when it lies on a path within a small
    margin of the optimum, unless an eighth of the states at the split
    level are.  Heuristic mode runs nearest neighbor from every start
    plus 2-opt and carries no optimality guarantee.  Every weight must be
    finite and the rows symmetric, w[u][v] == w[v][u], as
    `pairwise_weights` gives them: both modes read paths in either
    direction.
    """
    if mode not in ("exact", "heuristic"):
        raise DomainError(f"unknown mode {mode!r}")
    n = len(w)
    if n == 0:
        raise DomainError("weight matrix is empty")
    if not all(map(math.isfinite, chain.from_iterable(w))):
        raise DomainError("path weights must be finite")
    if list(map(tuple, w)) != list(zip(*w)):
        raise DomainError("path weights must be symmetric")
    if mode == "exact":
        if n > HELD_KARP_MAX_VERTICES:
            raise ResourceLimitError(
                f"exact path search caps at {HELD_KARP_MAX_VERTICES} vertices, got {n}"
            )
        return _held_karp_path(w)
    best = None
    for start in range(n):
        candidate = _normalize_direction(_two_opt(w, _nearest_neighbor(w, start)))
        key = (path_weight(w, candidate), candidate)
        if best is None or key < best:
            best = key
    return best[1]


def _labeled_trees(n: int):
    """Yield (sorted edges, maximum matching size) for every labeled tree
    on n vertices, one Prüfer decode each.

    Each step removes the smallest leaf, whose only neighbour left is the
    next code entry, so the leaves go bottom-up; matching a removed leaf
    with its neighbour when both are still free is the greedy that gives a
    tree a maximum matching.
    """
    if n == 1:
        yield (), 0
        return
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        matched = 0
        pairs = 0
        for v in seq:
            leaf = degree.index(1)
            edges.append((leaf, v) if leaf < v else (v, leaf))
            degree[leaf] = 0
            degree[v] -= 1
            pair = (1 << leaf) | (1 << v)
            if not matched & pair:
                matched |= pair
                pairs += 1
        u = degree.index(1)
        v = degree.index(1, u + 1)
        edges.append((u, v))
        if not matched >> u & 1 and not matched >> v & 1:
            pairs += 1
        edges.sort()
        yield tuple(edges), pairs


def exhaustive_tree_oracle(sys: EventSystem, criterion: str) -> Graph:
    """Search every labeled tree for the best bound (n <= 7).

    "max-lower-bound" maximizes the tree lower bound including each tree's
    own independence number; "min-upper-bound" minimizes the tree bracket.
    A tree is bipartite, so by König's theorem its independence number is
    n minus its maximum matching size, which the Prüfer decode finds by a
    leaf matching: no graph is built or searched per tree.  Ties break on
    lexicographic edge order.
    """
    if criterion not in ("max-lower-bound", "min-upper-bound"):
        raise DomainError(f"unknown criterion {criterion!r}")
    n = sys.event_count
    if n > EXHAUSTIVE_TREE_MAX_VERTICES:
        raise ResourceLimitError(
            f"exhaustive tree search caps at {EXHAUSTIVE_TREE_MAX_VERTICES} vertices, got {n}"
        )
    w = pairwise_weights(sys)
    singles = sum(intersection_prob(sys, (v,)) for v in range(n))
    best_key = None
    best_edges = None
    for edges, pairs in _labeled_trees(n):
        bracket = singles - sum(w[u][v] for u, v in edges)
        if criterion == "max-lower-bound":
            key = (-(bracket / (n - pairs)), edges)
        else:
            key = (bracket, edges)
        if best_key is None or key < best_key:
            best_key = key
            best_edges = edges
    return build_graph(n, best_edges)
