"""Choosing the graph that optimizes a bound.

A minimum spanning tree of the pairwise-intersection weights maximizes the
tree lower bound with the fixed (n - 1) denominator, and a minimum-length
Hamiltonian path maximizes the path bound.  The exhaustive tree oracle
finds the best tree for the true tree lower bound, including each tree's
own independence number, at tiny n, by branch and bound (Land and Doig):
a depth-first walk over the lexicographically sorted edges of K_n takes
each edge, then skips it, and cuts every branch whose best completion
cannot beat the best tree found so far.  By König's theorem a tree's
independence number is n minus its maximum matching size, which a greedy
leaf matching finds, only for a tree that could still win.
`best_tree` and `best_path` take the weights of `pairwise_weights`, which
needs a system on the real (float) backend and makes one mass query per
unordered pair straight from the system's event masks; both need the rows
finite, square and symmetric, as `pairwise_weights` gives them.  Kruskal's
tree comes from one stable sort of the edges, listed in lexicographic
order, by weight alone.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, combinations, starmap

from .errors import DomainError, ResourceLimitError, _repr
from .events import EventSystem, ProductSystem, intersection_prob
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
    A_v), with 0.0 on the diagonal (real backend only).

    The event masks are read once, and each unordered pair makes one
    `_numerator` query, which on the real backend is the mass, for the
    mask `intersection_prob` gives it: outcome masks met with & on an
    explicit system, required-coordinate masks joined with | on a product
    system.
    """
    if sys.backend.name != "real":
        raise DomainError("pairwise weights require the real backend")
    if isinstance(sys, ProductSystem):
        masks, combine = sys.requires, operator.or_
    else:
        masks, combine = sys.events, operator.and_
    n = len(masks)
    # One query per unordered pair (u, v), u < v, in lexicographic order.
    weights = list(map(sys._numerator, starmap(combine, combinations(masks, 2))))
    flat = [0.0] * (n * n)
    start = 0
    for u in range(n):
        stop = start + n - 1 - u
        # Row u right of the diagonal, and column u below it.
        flat[u * n + u + 1 : (u + 1) * n] = flat[(u + 1) * n + u :: n] = weights[start:stop]
        start = stop
    return tuple(zip(*[iter(flat)] * n))


def _check_rows(w: tuple[tuple[float, ...], ...], name: str) -> None:
    """Reject weights that are not finite, or rows that are not square and
    symmetric: rows equal to columns also means n rows of n weights."""
    if not all(map(math.isfinite, chain.from_iterable(w))):
        raise DomainError(f"{name} weights must be finite")
    if list(map(tuple, w)) != list(zip(*w)):
        raise DomainError(f"{name} weights must be symmetric")


def best_tree(w: tuple[tuple[float, ...], ...], objective: str = "minimize-weight") -> Graph:
    """Kruskal spanning tree of the complete graph weighted by the rows w,
    which must be finite, square and symmetric.

    "minimize-weight" maximizes the fixed-denominator tree lower bound;
    "maximize-weight" minimizes the tree upper bound.  The edges are
    listed in lexicographic order and sorted by weight alone, descending
    for "maximize-weight"; the sort is stable, so ties break on
    lexicographic edge order and the result is deterministic.  Components
    merge through a list of component ids, and the chosen edges form the
    tree as they are, with no second validation.
    """
    if objective not in ("minimize-weight", "maximize-weight"):
        raise DomainError(f"unknown objective {_repr(objective)}")
    _check_rows(w, "tree")
    n = len(w)
    edges = list(combinations(range(n), 2))
    weights = [w[u][v] for u, v in edges]
    order = sorted(range(len(edges)), key=weights.__getitem__, reverse=objective == "maximize-weight")
    # component[v]: the id of v's component; members[c]: its vertices
    component = list(range(n))
    members = [[v] for v in range(n)]
    chosen = []
    for i in order:
        u, v = edges[i]
        cu, cv = component[u], component[v]
        if cu != cv:
            for x in members[cv]:
                component[x] = cu
            members[cu] += members[cv]
            chosen.append(edges[i])
            if len(chosen) == n - 1:
                break
    return Graph(n, tuple(sorted(chosen)))


def _weight(w: tuple[tuple[float, ...], ...], pairs) -> float:
    """Sum of w[u][v] over the pairs, added left to right from 0 as `sum`
    adds floats before Python 3.12: the same float on every Python."""
    total = 0
    for u, v in pairs:
        total += w[u][v]
    return total


def tree_weight(w: tuple[tuple[float, ...], ...], tree: Graph) -> float:
    return _weight(w, tree.edges)


def path_weight(w: tuple[tuple[float, ...], ...], order) -> float:
    order = tuple(order)
    return _weight(w, zip(order, order[1:]))


def _normalize_direction(order: tuple[int, ...]) -> tuple[int, ...]:
    reverse = order[::-1]
    return order if order <= reverse else reverse


def _held_karp_path(w: tuple[tuple[float, ...], ...], scale: float) -> tuple[int, ...]:
    n = len(w)
    inf = math.inf
    # Ties are resolved lexicographically; the slack absorbs float noise
    # from differing addition orders between equal-weight paths, relative
    # to the largest |weight|, so that scaling every weight scales it too.
    slack = 1e-12 * scale
    # cost[mask][v]: minimum weight of a path visiting exactly `mask`,
    # starting at v (v must be in mask); a state never filled reads +inf.
    # The loops walk member tuples, not bits: a mask's members, ascending,
    # are low[mask & low_bits] + high[mask >> half], from two tables of at
    # most 2**ceil(n/2) tuples.
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
    bit = [1 << v for v in range(n)]

    def blank(masks):
        # A fresh row of +inf for each mask, for `push` and `heads` to fill.
        for mask in masks:
            cost[mask] = [inf] * n

    def push(rests, kept=None):
        # Each rest R gives every event v outside it the state (R | 1 << v,
        # v): the smallest w[v][u] + cost[R][u] over the sources u, every
        # member of R or its kept heads, in that order.  The sources never
        # hold v, so w is read as it is.  Each state has one rest, so each
        # is written once, into a row `blank` made.
        for rest in rests:
            rest_cost = cost[rest]
            sources = low[rest & low_bits] + high[rest >> half] if kept is None else kept[rest]
            other = full ^ rest
            for v in low[other & low_bits] + high[other >> half]:
                row = w[v]
                best = inf
                for u in sources:
                    candidate = row[u] + rest_cost[u]
                    if candidate < best:
                        best = candidate
                cost[rest | bit[v]][v] = best

    # Every state the walk below reads as near-optimal, joined to its
    # cheapest completion, weighs at most n slacks plus the rounding of a
    # few sums of n weights above the optimum; n more slacks exceed that
    # rounding many times over at n <= 15.
    margin = 2 * n * slack

    def joins(masks, top, paired=False, halved=False):
        # Yield (weight, mask, v) for each state of masks whose cost plus
        # its cheapest completion, the path from v through the events
        # outside mask read backwards, weighs at most top; top falls to
        # margin above the lowest weight yielded.  Paired masks all hold
        # event 0, and skip v = 0 unless they hold event 1 too; a halved
        # mask that holds event 0 joins from v = 0 alone.
        for mask in masks:
            members = low[mask & low_bits] + high[mask >> half]
            if paired and not mask & 2:
                members = members[1:]
            elif halved and mask & 1:
                members = members[:1]
            cost_mask, other = cost[mask], full ^ mask
            for v in members:
                weight = cost_mask[v] + cost[other | 1 << v][v]
                if weight <= top:
                    yield weight, mask, v
                    if weight + margin < top:
                        top = weight + margin

    def heads(found, top, paired=False, halved=False):
        # kept[mask]: the heads v of the found states (mask, v) that weigh
        # at most top, and of their twins when the states are paired.  The
        # twin of (mask, v), and the far end of its paths when halved, is
        # far = full ^ mask | 1 << v, which holds event 0.  Read from the
        # far end, a halved state's paths split at (far | 1 << u, u) for
        # the u after v, a state the halved level left out.  One push from
        # each far fills that state for every u of near = mask - v, as the
        # level-(h - 1) push fills any other, and each is joined with
        # (near, u) and kept when the join weighs at most top.
        found = [(mask, v) for weight, mask, v in found if weight <= top]
        if halved:
            push({full ^ mask | 1 << v for mask, v in found})
        kept = {}
        for mask, v in found:
            far = full ^ mask | 1 << v
            kept[mask] = kept.get(mask, ()) + (v,)
            if paired:
                kept[far] = kept.get(far, ()) + (v,)
            elif halved:
                near = mask ^ 1 << v
                for u in low[near & low_bits] + high[near >> half]:
                    state = far | 1 << u
                    if u not in kept.get(state, ()) and cost[state][u] + cost[near][u] <= top:
                        kept[state] = kept.get(state, ()) + (u,)
        return kept

    # Every path splits at its h-th event into two paths of at most h
    # events, so rows of at most h members give each larger state its
    # exact cheapest completion and the level-h joins the optimum.  Larger
    # rows are filled from the kept states only: those within margin of
    # the optimum, whose own smallest sources are kept too, so each keeps
    # the float of the full table.  Ties keep more states: with every
    # weight equal all of them are kept, and the same loop fills the
    # whole table, its sources read from `kept`.  At odd n the state
    # (mask, v) and its twin (full ^ mask | 1 << v, v) both lie at level h
    # and join the same two costs, so each pair is read once, from the
    # twin that holds the smallest event other than v, and counts as two
    # states.  No level-h state can go unfilled there: both halves of a
    # join lie at level h, and every level-h state is in one join.  At
    # even n the far half, of h - 1 events, lies one level down, and every
    # path, read from one of its ends, puts event 0 among its first h - 1
    # events.  So level h is filled (halved) only for the states with
    # event 0 outside mask - v, the states the level-(h - 1) rests without
    # event 0 push to: every start of the masks without event 0, and v = 0
    # on those that hold it, half the states.  Each found state counts as
    # two, itself and the state `heads` fills for the same paths read from
    # the far end.
    h = (n + 2) // 2
    halved = n % 2 == 0 and h < n
    blank(chain.from_iterable(levels[2 : h + 1]))
    push(chain.from_iterable(levels[1 : h - 1 if halved else h]))
    if halved:
        push(mask for mask in levels[h - 1] if not mask & 1)
    if h < n:
        paired = n % 2 == 1
        masks = [mask for mask in levels[h] if mask & 1] if paired else levels[h]
        found = list(joins(masks, inf, paired, halved))
        top = min(found)[0] + margin
        kept = heads(found, top, paired, halved)
        for _ in range(h, n):
            # Each kept state is a source of a state one event larger.
            targets = {
                mask | 1 << v
                for mask in kept
                for v in low[(full ^ mask) & low_bits] + high[(full ^ mask) >> half]
            }
            blank(targets)
            push(kept, kept)
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


def _two_opt(w: tuple[tuple[float, ...], ...], order: tuple[int, ...], scale: float) -> tuple[int, ...]:
    n = len(order)
    threshold = -1e-12 * scale
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
                if delta < threshold:
                    path[i : j + 1] = reversed(path[i : j + 1])
                    improved = True
    return tuple(path)


def best_path(w: tuple[tuple[float, ...], ...], mode: str = "exact") -> tuple[int, ...]:
    """Minimum-total-weight visiting order of all events under the rows w.

    Exact mode runs Held-Karp subset dynamic programming (n <= 15) and
    returns the lexicographically first optimal order, taking path weights
    within 1e-12 * max |w| of each other as tied.  The table is filled
    by pushing: each subset R gives every event v outside it the state of
    R plus v that starts at v, the smallest w[v][u] plus R's cost from u
    over R's members u, so no candidate u = v is ever priced.  The loops walk
    each subset's members as a tuple, joined from two tables of
    half-width member tuples, instead of extracting bits one at a time.
    It fills every subset of at most ceil((n + 1) / 2) events, except
    that at even n the split level, of n / 2 + 1 events, gets only the
    half of its states that reading each path from one of its ends needs:
    those with event 0 among the other n / 2 events of the path.  (At odd
    n both halves of a split lie at that level, so no state can be left
    out.)  Each larger state then has its exact cheapest completion, a
    small path read backwards, and is filled only when it lies on a path
    within a small margin of the optimum, from the kept states of one
    event fewer; there is no second search for ties, which keep more
    states (all of them when every weight is equal).  Heuristic mode runs nearest neighbor from
    every start plus 2-opt, whose moves must gain more than that relative
    tolerance, and carries no optimality guarantee.  So scaling every
    weight by a power of two keeps the order in both modes.  Every
    weight must be finite and the rows symmetric, w[u][v] == w[v][u], as
    `pairwise_weights` gives them: both modes read paths in either
    direction.  A path adds n - 1 weights, and (n - 1) * max |w| must be
    finite too: past the float range every sum reads inf.
    """
    if mode not in ("exact", "heuristic"):
        raise DomainError(f"unknown mode {_repr(mode)}")
    n = len(w)
    if n == 0:
        raise DomainError("weight matrix is empty")
    _check_rows(w, "path")
    # Past the float range every path sum reads inf, and no order can be
    # told from another.
    scale = max(map(abs, chain.from_iterable(w)))
    if not math.isfinite((n - 1) * scale):
        raise DomainError(f"path weights must add to a finite sum, but {n - 1} of {scale!r} overflow")
    if mode == "exact":
        if n > HELD_KARP_MAX_VERTICES:
            raise ResourceLimitError(
                f"exact path search caps at {HELD_KARP_MAX_VERTICES} vertices, got {n}"
            )
        return _held_karp_path(w, scale)
    best = None
    for start in range(n):
        candidate = _normalize_direction(_two_opt(w, _nearest_neighbor(w, start), scale))
        key = (path_weight(w, candidate), candidate)
        if best is None or key < best:
            best = key
    return best[1]


def _matching_size(n: int, edges) -> int:
    """Size of a maximum matching of the tree on n vertices with the given
    edges: remove the lowest leaf left, again and again, and match it with
    its neighbour when both are still free, the greedy that gives a tree a
    maximum matching."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    alive = (1 << n) - 1
    matched = 0
    pairs = 0
    for _ in range(n - 1):
        leaf = next(x for x in _bits(alive) if (adj[x] & alive).bit_count() == 1)
        pair = adj[leaf] & alive | 1 << leaf
        if not matched & pair:
            matched |= pair
            pairs += 1
        alive ^= 1 << leaf
    return pairs


def exhaustive_tree_oracle(sys: EventSystem, criterion: str) -> Graph:
    """The best labeled tree for the tree bound named by `criterion`.

    "min-upper-bound" minimizes the tree bracket, which has no
    denominator: a maximum-weight spanning tree (Hunter 1976; Worsley
    1982), so this is `best_tree(pairwise_weights(sys), "maximize-weight")`
    at any n, its ties broken on float weight, then lexicographic edge
    order.  "max-lower-bound" maximizes the tree lower bound including
    each tree's own independence number, which depends on the tree's
    shape, by branch and bound (n <= 7).  A depth-first walk over the
    edges of K_n in lexicographic order takes each edge that joins two
    components, then skips it, so it reaches the trees in lexicographic
    order of their sorted edges; a tree replaces the best one only when
    its bound is strictly greater, so ties break on lexicographic edge
    order.  Each tree's weight is added along its sorted edges from 0, as
    `tree_weight` adds it.  A branch is cut when its bracket with the
    smallest of the weights still to come, under the most favourable
    denominator a tree can have, misses the best bound by more than a
    margin far above float rounding; and once the edge (u, n - 1) is
    passed with no vertex above u in u's component, as no later edge
    reaches u.  A tree is bipartite, so by König's theorem its
    independence number is n minus its maximum matching size, which a
    leaf matching gives; it is computed only for a tree whose bound could
    beat the best with the largest matching a tree can have.  No graph is
    built or searched per tree.
    """
    if criterion not in ("max-lower-bound", "min-upper-bound"):
        raise DomainError(f"unknown criterion {_repr(criterion)}")
    if criterion == "min-upper-bound":
        return best_tree(pairwise_weights(sys), "maximize-weight")
    n = sys.event_count
    if n > EXHAUSTIVE_TREE_MAX_VERTICES:
        raise ResourceLimitError(
            f"exhaustive tree search caps at {EXHAUSTIVE_TREE_MAX_VERTICES} vertices, got {n}"
        )
    w = pairwise_weights(sys)
    singles = 0  # added left to right, as `_weight` adds
    for v in range(n):
        singles += intersection_prob(sys, (v,))
    if n == 1:
        return build_graph(1, ())
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    weights = [w[u][v] for u, v in edges]
    m = len(edges)
    # reach[j][k]: the sum of the k smallest weights at positions j or
    # later, which bring the bound closest to winning.
    reach = []
    for j in range(m + 1):
        sums = [0]
        for x in sorted(weights[j:])[: n - 1]:
            sums.append(sums[-1] + x)
        reach.append(sums)
    # A tree's independence number n - (matching size) lies in [lo, hi].
    lo, hi = n - n // 2, n - 1
    margin = 1e-9
    best = -math.inf
    best_edges = None
    # component[v]: bitmask of the vertices joined to v by the chosen edges
    component = [1 << v for v in range(n)]
    members = [tuple(_bits(mask)) for mask in range(1 << n)]
    chosen = []

    def walk(start, need, acc):
        # Choose `need` more edges at positions start or later; acc is the
        # weight of the chosen ones.
        nonlocal best, best_edges
        for j in range(start, m - need + 1):
            bound = singles - (acc + reach[j][need])
            if bound / (lo if bound >= 0 else hi) < best - margin:
                break
            u, v = edges[j]
            cu = component[u]
            if not cu >> v & 1:
                total = acc + weights[j]
                if need == 1:
                    bracket = singles - total
                    if bracket / (lo if bracket >= 0 else hi) > best:
                        tree = (*chosen, (u, v))
                        value = bracket / (n - _matching_size(n, tree))
                        if value > best:
                            best = value
                            best_edges = tree
                else:
                    cv = component[v]
                    merged = cu | cv
                    for x in members[merged]:
                        component[x] = merged
                    chosen.append((u, v))
                    walk(j + 1, need - 1, total)
                    chosen.pop()
                    for x in members[cu]:
                        component[x] = cu
                    for x in members[cv]:
                        component[x] = cv
            if v == n - 1 and not component[u] >> (u + 1):
                break

    walk(0, n - 1, 0)
    return build_graph(n, best_edges)
