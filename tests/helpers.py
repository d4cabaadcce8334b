"""Brute-force oracles and random-instance generators shared by the tests.

Everything here is deliberately independent of the library's fast paths:
chordality is decided by scanning for induced cycles, independence numbers
by full subset enumeration, masses by adding one weight at a time in exact
arithmetic, product spaces are listed as their 2**m explicit outcomes,
random chordal graphs are built directly by simplicial-vertex addition,
polynomials keep one Fraction per coefficient, the explicit-system
loader (id masks, rational columns, bit planes, support) is read one value
at a time or one pass per check, the best tree comes from
every connected edge subset or from every Prüfer code, Kruskal's tree
from one (weight, edge) sort key per edge, the best path
from every visiting order or from a Held-Karp table of all 2**n rows,
a product system's masses one coordinate at a time and its union from a
Shannon expansion that re-minimises every on-branch family,
the sharpest bounds from the symmetric sums alone come from an exact
linear program solved by enumerating its bases, and the probability of a
success run from a Markov chain on the run length, and a file's text
through a text-mode file object.  `BRIDGE_PATH_ORDER`
fixes the bridge network's path events in the order the paper's bridge
example numbers them.
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product, repeat
from math import comb

from chordalbounds import (
    EventSystem,
    Graph,
    ProductSystem,
    build_graph,
    intersection_prob,
    mcs_order,
    pairwise_weights,
)
from chordalbounds.errors import DomainError, _require_int
from chordalbounds.events import _OUTCOMES_PER_PLANE
from chordalbounds.graphs import _component_count
from chordalbounds.values import RATIONAL, REAL, _read_rational

# Path-event order of the bridge example, passed to `path_event_system`:
# arcs {1,5}, {1,3,6}, {2,4,5}, {2,6} in 1-based arc labels.
BRIDGE_PATH_ORDER = (
    frozenset({0, 4}),
    frozenset({0, 2, 5}),
    frozenset({1, 3, 4}),
    frozenset({1, 5}),
)


def read_long(text: str) -> Fraction:
    """The rational "a" or "a/b" at any length: `Decimal` reads digits past
    the limit of `int`'s string conversion."""
    return Fraction(*(int(Decimal(part)) for part in text.split("/")))


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_force_st_paths(net) -> tuple[frozenset[int], ...]:
    """Every simple directed source-to-terminal path of `net` as its set of
    arc ids, found by testing every subset of the arcs: a subset is a path
    when no node leaves by two of its arcs, and following its arcs from
    the source visits new nodes only, ends at the terminal and uses every
    arc.  Sorted by length, then by the sorted arc ids."""
    found = []
    for subset in range(1, 1 << len(net.arcs)):
        leaving = {}
        for arc_id in bits(subset):
            leaving.setdefault(net.arcs[arc_id][0], []).append(arc_id)
        if any(len(ids) > 1 for ids in leaving.values()):
            continue
        node, visited, used = net.source, {net.source}, 0
        while node != net.terminal and node in leaving:
            node = net.arcs[leaving[node][0]][1]
            if node in visited:
                break
            visited.add(node)
            used += 1
        if node == net.terminal and used == subset.bit_count():
            found.append(frozenset(bits(subset)))
    return tuple(sorted(found, key=lambda path: (len(path), sorted(path))))


def _connected_subset(g: Graph, subset) -> bool:
    subset = list(subset)
    smask = 0
    for v in subset:
        smask |= 1 << v
    seen = 1 << subset[0]
    frontier = seen
    while frontier:
        reached = 0
        for v in bits(frontier):
            reached |= g.adj[v]
        frontier = reached & smask & ~seen
        seen |= frontier
    return seen == smask


def reference_mcs_order(g: Graph) -> tuple[int, ...]:
    """Maximum cardinality search by the scan `graphs.mcs_order` replaced:
    each step walks every vertex in index order and takes the first
    unvisited one of strictly greater weight, so ties go to the smallest
    index; only the unvisited neighbours of the vertex taken gain."""
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
        for w in bits(g.adj[best] & ~visited):
            weights[w] += 1
    return tuple(order)


def brute_force_is_chordal(g: Graph) -> bool:
    """Search every vertex subset for an induced cycle of length >= 4."""
    n = g.vertex_count
    for size in range(4, n + 1):
        for sub in combinations(range(n), size):
            smask = 0
            for v in sub:
                smask |= 1 << v
            if any((g.adj[v] & smask).bit_count() != 2 for v in sub):
                continue
            if _connected_subset(g, sub):
                return False
    return True


def brute_force_alpha(g: Graph) -> int:
    """Maximum independent set size by full subset enumeration."""
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    best = 0
    for mask in range(1 << g.vertex_count):
        if all(mask & em != em for em in edge_masks):
            best = max(best, mask.bit_count())
    return best


def brute_force_components(g: Graph, subset) -> int:
    """Connected components of the induced subgraph g[subset], by flooding."""
    remaining = set(subset)
    count = 0
    while remaining:
        count += 1
        stack = [remaining.pop()]
        while stack:
            v = stack.pop()
            reached = {u for u in remaining if (g.adj[v] >> u) & 1}
            remaining -= reached
            stack.extend(reached)
    return count


def exact_mass(weights, mask: int):
    """Sum of the weights at the set bits of `mask`, added one at a time in
    exact arithmetic; floats are read as the binary fractions they are, so
    `float()` of the result is the correctly rounded sum, and strings as
    `Fraction` reads them."""
    total = Fraction(0)
    for o in bits(mask):
        w = weights[o]
        total = total + (Fraction(w) if isinstance(w, (float, str)) else w)
    return total


@lru_cache(maxsize=None)
def _subset_cliques(g: Graph) -> tuple[int, ...]:
    """Every vertex subset of g, as a mask, whose vertices are pairwise
    adjacent."""
    return tuple(
        subset
        for subset in range(1, 1 << g.vertex_count)
        if all(g.adj[v] & subset == subset ^ (1 << v) for v in bits(subset))
    )


def brute_force_clique_terms(sys_, g: Graph) -> dict:
    """{k: sum of P(every event of C occurs) over the cliques C of g of
    size k}, over every vertex subset of g that is a clique.

    Explicit systems add `exact_mass` of the intersection, product systems
    the product of the probabilities of the coordinates it requires, read
    exactly (floats as the binary fractions they are); so each sum is a
    Fraction, or a Polynomial for polynomial weights or probabilities, with
    no rounding.
    """
    terms = {}
    for subset in _subset_cliques(g):
        if isinstance(sys_, ProductSystem):
            required = 0
            for v in bits(subset):
                required |= sys_.requires[v]
            term = Fraction(1)
            for c in bits(required):
                p = sys_.probs[c]
                term = term * (Fraction(p) if isinstance(p, float) else p)
        else:
            mask = sys_.full_mask
            for v in bits(subset):
                mask &= sys_.events[v]
            term = exact_mass(sys_.weights, mask)
        size = subset.bit_count()
        terms[size] = terms.get(size, Fraction(0)) + term
    return terms


def brute_force_clique_sum(terms: dict, size_cap: int | None = None):
    """The clique sieve by its definition, from `brute_force_clique_terms`:
    plus the odd sizes, minus the even ones, up to size_cap if given."""
    total = Fraction(0)
    for size, term in sorted(terms.items()):
        if size_cap is None or size <= size_cap:
            total = total + term if size % 2 else total - term
    return total


def brute_force_symmetric_sums(sys_: EventSystem, m: int) -> list[Fraction]:
    """[S_1, ..., S_m] of an explicit system: S_k adds the exact mass of
    every intersection of k of its events."""
    sums = []
    for k in range(1, m + 1):
        total = Fraction(0)
        for index_set in combinations(sys_.events, k):
            mask = sys_.full_mask
            for event in index_set:
                mask &= event
            total += exact_mass(sys_.weights, mask)
        sums.append(total)
    return sums


def moment_coefficients(kind: str, n: int, r: int = 1, m: int = 0):
    """(coefficients, denominator) of a moment kind for n events, as the
    bound formulas state them: the Fraction c_k of S_k for k = 1, 2, ...,
    and the integer the bracket is divided by (None for none)."""
    if kind.startswith("bonferroni-"):
        cap = min(2 * r - 1 if kind == "bonferroni-upper" else 2 * r, n)
        return [Fraction((-1) ** (k - 1)) for k in range(1, cap + 1)], None
    if kind.startswith("kwerel-"):
        coefficients = [Fraction(1), Fraction(-2, n)][:n]
        return coefficients, None if kind == "kwerel-upper" else (n + 1) // 2
    if kind == "kwerel2-lower":
        m = 2
    elif kind != "generalized-lower":
        raise ValueError(f"not a moment kind: {kind}")
    coefficients = [
        (-1) ** (k - 1) * Fraction(comb(m, k) * (n * k - (m + 1) * (k - 1)), comb(n, k) * (m - k + 1))
        for k in range(1, m + 1)
    ]
    coefficients.append((-1) ** m * Fraction(m + 1, comb(n, m)))
    return coefficients, n - m


def float_moment_bound(sys_, coefficients, denominator=None) -> float:
    """A moment bound of a REAL system in the float operations of Fraction
    coefficients: 0.0 plus S_k * float(c_k) for k = 1, 2, ... left to
    right, then divided by the denominator if there is one."""
    total = 0.0
    for k, c in enumerate(coefficients, 1):
        total = total + sys_._symmetric_sum(k) * float(Fraction(c))
    return total if denominator is None else total / denominator


@lru_cache(maxsize=None)
def _basis_inverse(basis: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of the square matrix with entry C(c, k) in row k and the
    column of count c, for k = 0..len(basis) - 1, by Gauss-Jordan
    elimination in Fractions.  Row k is a polynomial of degree k in c, so
    the matrix is a Vandermonde matrix times a triangular one and is never
    singular for distinct counts."""
    size = len(basis)
    a = [
        [Fraction(comb(c, k)) for c in basis] + [Fraction(int(r == k)) for r in range(size)]
        for k in range(size)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(size):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[size:]) for row in a)


def moment_lp(n: int, sums) -> tuple[Fraction, Fraction]:
    """(lowest, highest) P(at least one of n events occurs) given only the
    symmetric sums S_1..S_m in `sums`, for m <= n.

    The unknowns are x_0..x_n, the probability that exactly c events occur;
    the constraints are sum_c C(c, k) x_c = S_k for k = 0..m (S_0 = 1) and
    x >= 0, and the objective is 1 - x_0.  The feasible set is a bounded
    polytope, so both optima lie at a basic feasible solution: every basis
    of m + 1 of the n + 1 counts is solved exactly and the feasible ones
    are kept.
    """
    rhs = [1, *sums]
    values = []
    for basis in combinations(range(n + 1), len(rhs)):
        x = [sum(a * b for a, b in zip(row, rhs)) for row in _basis_inverse(basis)]
        if min(x) >= 0:
            values.append(1 - (x[0] if basis[0] == 0 else 0))
    return min(values), max(values)


def brute_force_alpha_prime(weights, events, g: Graph) -> int:
    """The sharpened denominator by its definition: the most components of
    g[J] over the event signatures J of the outcomes with non-zero weight
    (at least 1).  Weights are read as `Fraction` reads them, so that a
    string such as "0/73" has weight zero."""
    best = 1
    for o, w in enumerate(weights):
        signature = [i for i, event in enumerate(events) if (event >> o) & 1]
        if Fraction(w) != 0 and signature:
            best = max(best, brute_force_components(g, signature))
    return best


def signature_walk_alpha_prime(sys_, g: Graph) -> int:
    """The sharpened denominator by the walk `alpha_prime` keeps for
    product systems and non-chordal graphs: the most components of g[J]
    over the supported signatures J of `sys_._signatures` (at least 1)."""
    best = 1
    for sig, _ in sys_._signatures():
        best = max(best, _component_count(g, sig))
    return best


def product_outcomes(sys_: ProductSystem) -> EventSystem:
    """The explicit 2**m outcome space of a product system; outcome s has
    bit i set iff coordinate i is on."""
    one = sys_.backend.one
    weights = [one]
    for p in sys_.probs:
        off = one - p
        weights = [w * off for w in weights] + [w * p for w in weights]
    masks = []
    for required in sys_.requires:
        indicator = 1
        for i in range(len(sys_.probs)):
            if (required >> i) & 1:
                indicator <<= 1 << i
            else:
                indicator |= indicator << (1 << i)
        masks.append(indicator)
    return EventSystem(sys_.backend, weights, masks)


def reference_product_mass(sys_: ProductSystem, mask: int):
    """A product system's mass without the shared-p powers: one times
    the probability of each coordinate of `mask` in turn, lowest first,
    one bit at a time."""
    total = sys_.backend.one
    while mask:
        low = mask & -mask
        total = total * sys_.probs[low.bit_length() - 1]
        mask ^= low
    return total


def _reference_minimal(masks) -> tuple[int, ...]:
    """Sorted masks of the family that contain no other mask of it."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if all(k & m != k for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


def reference_product_union(sys_: ProductSystem, requires=None):
    """A product system's Shannon union with every on-branch family
    re-minimised from scratch: p_c U(F with c on) + (1 - p_c) U(F with c
    off), branching on the lowest coordinate of the first smallest mask,
    with the memo and the operation order of `ProductSystem._union`, so
    REAL values compare with `==`.  A single mask's mass is
    `reference_product_mass`."""
    one = sys_.backend.one
    offs = [one - p for p in sys_.probs]
    memo: dict[tuple[int, ...], object] = {}

    def union(family):
        if len(family) == 1:
            return reference_product_mass(sys_, family[0])
        value = memo.get(family)
        if value is not None:
            return value
        m = min(family, key=int.bit_count)
        bit = m & -m
        c = bit.bit_length() - 1
        on = _reference_minimal([m & ~bit for m in family])
        value = sys_.probs[c] * (one if on[0] == 0 else union(on))
        off = tuple(m for m in family if not m & bit)
        if off:
            value = value + offs[c] * union(off)
        memo[family] = value
        return value

    family = _reference_minimal(sys_.requires if requires is None else requires)
    return one if family[0] == 0 else union(family)


def float_product_symmetric_sum(sys_: ProductSystem, k: int) -> float:
    """S_k of a REAL product system in its float order: 0.0 plus the mass
    of each index set of size k, in `combinations` order."""
    total = 0.0
    for index_set in combinations(sys_.requires, k):
        mask = 0
        for required in index_set:
            mask |= required
        total = total + sys_.mass(mask)
    return total


def float_product_cone_sum(sys_: ProductSystem, required: int, others, cap: int) -> float:
    """A REAL product cone sum in its float order: the base's mass
    `required`, then the mass of each subset of the masks `others` of
    fewer than cap members, smallest subsets first, in `combinations`
    order, subtracted at odd sizes and added at even ones."""
    total = sys_.mass(required)
    for size in range(1, min(len(others), cap - 1) + 1):
        for subset in combinations(others, size):
            mask = required
            for other in subset:
                mask |= other
            p = sys_.mass(mask)
            total = total - p if size % 2 else total + p
    return total


def product_symmetric_sum(sys_: ProductSystem, k: int):
    """S_k of a product system in its backend's arithmetic: zero plus the
    mass of each index set of size k, in `combinations` order."""
    total = sys_.backend.zero
    for index_set in combinations(sys_.requires, k):
        mask = 0
        for required in index_set:
            mask |= required
        total = total + sys_.mass(mask)
    return total


def product_cone_sum(sys_: ProductSystem, required: int, others, cap: int):
    """A product cone sum in its backend's arithmetic: the base's mass
    `required`, then the mass of each subset of the masks `others` of
    fewer than cap members, smallest subsets first, subtracted at odd
    sizes and added at even ones."""
    total = sys_.mass(required)
    for size in range(1, min(len(others), cap - 1) + 1):
        for subset in combinations(others, size):
            mask = required
            for other in subset:
                mask |= other
            p = sys_.mass(mask)
            total = total - p if size % 2 else total + p
    return total


def float_product_chordal_sieve(sys_: ProductSystem, g: Graph, size_cap: int | None = None) -> float:
    """The clique sieve sum of a REAL product system over a chordal graph
    in its float order: 0.0 plus one cone sum per vertex v, in vertex
    order, over the events of the neighbours of v later than v along the
    reversed MCS order, in vertex order."""
    order = mcs_order(g)[::-1]
    position = {v: i for i, v in enumerate(order)}
    cap = g.vertex_count if size_cap is None else min(size_cap, g.vertex_count)
    total = 0.0
    for v in range(g.vertex_count):
        later = [sys_.requires[u] for u in bits(g.adj[v]) if position[u] > position[v]]
        total = total + float_product_cone_sum(sys_, sys_.requires[v], later, cap)
    return total


def runs_union(n: int, k: int, p) -> Fraction:
    """Probability of a success run of length >= k in n independent trials
    of success probability p, in exact arithmetic: a Markov chain on the
    length of the current run (Feller, vol. 1, ch. XIII).  `state[r]` is
    the probability that no run has reached k yet and the current one has
    length r; a success at length k - 1 completes a run."""
    p = Fraction(p)
    state = [Fraction(1)] + [Fraction(0)] * (k - 1)
    done = Fraction(0)
    for _ in range(n):
        done += state[-1] * p
        state = [sum(state) * (1 - p)] + [w * p for w in state[:-1]]
    return done


def brute_force_tree_oracle(sys_: EventSystem, criterion: str) -> Graph:
    """The best tree for `exhaustive_tree_oracle`'s criterion, with no
    Prüfer code: every n - 1 of the sorted edges of K_n that span a
    connected graph, each tree's own independence number by subset
    enumeration, and the library's float sums over sorted edges with the
    same (key, edges) tie-break."""
    n = sys_.event_count
    pairs = list(combinations(range(n), 2))
    w = {pair: intersection_prob(sys_, pair) for pair in pairs}
    singles = sum(intersection_prob(sys_, (v,)) for v in range(n))
    best = None
    for edges in combinations(pairs, n - 1):
        tree = build_graph(n, edges)
        if brute_force_components(tree, range(n)) != 1:
            continue
        bracket = singles - sum(w[edge] for edge in edges)
        if criterion == "max-lower-bound":
            key = (-(bracket / brute_force_alpha(tree)), edges)
        else:
            key = (bracket, edges)
        if best is None or key < best[0]:
            best = (key, tree)
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


def reference_tree_oracle(sys_: EventSystem, criterion: str) -> Graph:
    """The tree oracle that scores all n**(n - 2) labeled trees, one Prüfer
    decode each, kept as the reference for the pruned walk: the same float
    sums (singles, then each tree's weights in sorted edge order, added
    from int 0), the same matching and the same (key, edges) tie-break."""
    n = sys_.event_count
    w = pairwise_weights(sys_)
    singles = 0
    for v in range(n):
        singles += intersection_prob(sys_, (v,))
    best_key = None
    best_edges = None
    for edges, pairs in _labeled_trees(n):
        total = 0
        for u, v in edges:
            total += w[u][v]
        bracket = singles - total
        if criterion == "max-lower-bound":
            key = (-(bracket / (n - pairs)), edges)
        else:
            key = (bracket, edges)
        if best_key is None or key < best_key:
            best_key = key
            best_edges = edges
    return build_graph(n, best_edges)


def reference_best_tree(w, objective: str = "minimize-weight") -> Graph:
    """Kruskal's tree as `best_tree` built it before its direct pass, kept
    as the reference: edges sorted by the key (sign * weight, edge),
    components merged as bitmasks, and the chosen edges validated again by
    `build_graph`."""
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
            for x in bits(merged):
                component[x] = merged
            chosen.append((u, v))
            if len(chosen) == n - 1:
                break
    return build_graph(n, chosen)


def brute_force_best_path(w) -> tuple[float, tuple[int, ...]]:
    """The least (total weight, order) over the n! visiting orders of the
    symmetric rows w.  On dyadic weights every sum is exact, so its order
    is the lexicographically least optimal one; that order's reverse is
    optimal too, so it starts below where it ends and the orders that do
    not are skipped."""
    return min(
        (sum(w[a][b] for a, b in zip(order, order[1:])), order)
        for order in permutations(range(len(w)))
        if order[0] <= order[-1]
    )


def _lesser_direction(order: tuple[int, ...]) -> tuple[int, ...]:
    reverse = order[::-1]
    return order if order <= reverse else reverse


def full_table_path(w) -> tuple[int, ...]:
    """The Held-Karp search that fills every one of the 2**n rows, kept as
    the reference order for the pruned table: the same member tuples,
    sums, lexicographic start, slack and direction rule."""
    n = len(w)
    # cost[mask][v]: minimum weight of a path visiting exactly `mask`,
    # starting at v (v must be in mask).  The loops walk member tuples, not
    # bits: a mask's members, ascending, are low[mask & low_bits] +
    # high[mask >> half], from two tables of at most 2**ceil(n/2) tuples.  For
    # each member v, u runs over the same tuple; rows[v] is w[v] with +inf
    # on the diagonal, so u == v adds inf + 0.0 and never wins over the
    # candidate u != v that every state of two or more members has.
    rows = []
    for v in range(n):
        row = list(w[v])
        row[v] = math.inf
        rows.append(row)
    half = n // 2
    low_bits = (1 << half) - 1
    low = [tuple(bits(m)) for m in range(1 << half)]
    high = [tuple(v + half for v in bits(m)) for m in range(1 << (n - half))]
    size = 1 << n
    cost = [[0.0] * n for _ in range(size)]
    for mask in range(1, size):
        if mask & (mask - 1) == 0:
            continue
        members = low[mask & low_bits] + high[mask >> half]
        cost_mask = cost[mask]
        for v in members:
            row, rest_cost = rows[v], cost[mask ^ (1 << v)]
            best = math.inf
            for u in members:
                candidate = row[u] + rest_cost[u]
                if candidate < best:
                    best = candidate
            cost_mask[v] = best
    full = size - 1
    # Ties are resolved lexicographically; the slack absorbs float noise
    # from differing addition orders between equal-weight paths, relative
    # to the largest |weight|.
    slack = 1e-12 * max(map(abs, (x for row in w for x in row)))
    optimum = min(cost[full][v] for v in range(n))
    start = min(v for v in range(n) if cost[full][v] <= optimum + slack)
    order = [start]
    mask = full
    current = start
    while mask != (1 << current):
        others = mask ^ (1 << current)
        target = cost[mask][current] + slack
        current = next(u for u in bits(others) if w[current][u] + cost[others][u] <= target)
        order.append(current)
        mask = others
    return _lesser_direction(tuple(order))


def random_graph(rng, n: int, density: float = 0.5) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < density]
    return build_graph(n, edges)


def random_chordal_graph(rng, n: int) -> Graph:
    """Chordal by construction: every vertex joins a clique of the graph
    built so far (possibly the empty clique, keeping disconnected graphs
    in the mix)."""
    edges = []
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        if rng.random() < 0.15:
            continue
        u = rng.randrange(v)
        clique = [u]
        candidates = sorted(adj[u])
        rng.shuffle(candidates)
        for w in candidates:
            if all(w in adj[x] for x in clique) and rng.random() < 0.7:
                clique.append(w)
        chosen = [w for w in clique if rng.random() < 0.9] or [u]
        for w in chosen:
            edges.append((w, v))
            adj[w].add(v)
            adj[v].add(w)
    return build_graph(n, edges)


def random_real_system(rng, n_events: int, max_outcomes: int = 64) -> EventSystem:
    m = rng.randint(1, max_outcomes)
    raw = [0.0 if rng.random() < 0.1 else rng.random() for _ in range(m)]
    if not any(raw):
        raw[0] = 1.0
    total = sum(raw)
    weights = [x / total for x in raw]
    events = [rng.getrandbits(m) for _ in range(n_events)]
    return EventSystem(REAL, weights, events)


def random_rational_system(rng, n_events: int, max_outcomes: int = 12) -> EventSystem:
    m = rng.randint(1, max_outcomes)
    raw = [rng.randint(0, 6) for _ in range(m)]
    if not any(raw):
        raw[0] = 1
    total = sum(raw)
    weights = [Fraction(x, total) for x in raw]
    events = [rng.getrandbits(m) for _ in range(n_events)]
    return EventSystem(RATIONAL, weights, events)


class FractionPolynomial:
    """Reference polynomial: a tuple of Fraction coefficients by ascending
    degree, trailing zeros dropped, with schoolbook arithmetic."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        return FractionPolynomial(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(max(len(a), len(b)))
        )

    def __neg__(self):
        return FractionPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionPolynomial):
            return FractionPolynomial(c * other for c in self.coeffs)
        out = [Fraction(0)] * max(0, len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPolynomial(out)

    def __truediv__(self, scalar):
        return FractionPolynomial(c / scalar for c in self.coeffs)

    def __pow__(self, exponent: int):
        result = FractionPolynomial((1,))
        for _ in range(exponent):
            result = result * self
        return result

    def __call__(self, x):
        """Horner's rule in the arithmetic of x: a Fraction coefficient
        meets a float as float(c)."""
        result = x * 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def coefficient_string(self) -> str:
        return " ".join(map(str, self.coeffs)) or "0"

    def __str__(self) -> str:
        terms = []
        for exp, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            var = "" if exp == 0 else "p" if exp == 1 else f"p^{exp}"
            if not var:
                body = str(mag)
            elif mag == 1:
                body = var
            elif mag.denominator == 1:
                body = f"{mag}{var}"
            else:
                body = f"({mag}){var}"
            if terms:
                terms.append(f"{'-' if c < 0 else '+'} {body}")
            else:
                terms.append(f"-{body}" if c < 0 else body)
        return " ".join(terms) or "0"


# Reference loaders of an explicit system: the same results, error types
# and messages as `events._id_mask`, `values._read_rational_column`,
# `events._bit_planes` and `EventSystem._support`, with one pass per check
# and every value converted on its own.
_BYTE_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BIT_DIGITS = tuple(bytes(b"01"[x >> k & 1] for x in range(256)) for k in range(8))


def reference_id_mask(ids, count: int, name: str) -> int:
    ids = tuple(ids)
    for kind in set(map(type, ids)):
        if kind is bool or not issubclass(kind, int):
            _require_int(next(i for i in ids if type(i) is kind), f"{name} id")
    if ids and not (0 <= min(ids) and max(ids) < count):
        raise DomainError(f"{name} id {next(i for i in ids if not 0 <= i < count)} out of range")
    flags = bytearray(count)
    for i in ids:
        flags[i] = 1
    return int(b"0" + flags[::-1].translate(_BYTE_DIGITS), 2)


def reference_read_rational_column(values) -> tuple[list[int], int]:
    values = tuple(values)
    try:
        data = ",".join(values).encode("ascii")
    except (TypeError, UnicodeEncodeError):
        data = b""
    if data.translate(None, b"0123456789") == b"/," * (len(values) - 1) + b"/":
        parts = data.replace(b",", b"/").split(b"/")
        if all(parts):
            tops, bottoms = parts[0::2], parts[1::2]
            try:
                denominators = {text: int(text) for text in set(bottoms)}
                if all(denominators.values()):
                    denominator = math.lcm(*denominators.values())
                    scale = {text: denominator // d for text, d in denominators.items()}
                    scaled = map(operator.mul, map(int, tops), map(scale.__getitem__, bottoms))
                    return list(scaled), denominator
            except ValueError:
                pass
    pairs = list(map(_read_rational, values))
    denominator = math.lcm(*{d for _, d in pairs})
    return [n * (denominator // d) for n, d in pairs], denominator


def reference_bit_planes(numerators):
    low = min(numerators)
    width = (max(numerators) - low).bit_length()
    if width * _OUTCOMES_PER_PLANE > len(numerators):
        return ()
    size = (width + 7) // 8
    offsets = map(operator.sub, reversed(numerators), repeat(low))
    data = b"".join(map(int.to_bytes, offsets, repeat(size), repeat("little")))
    planes = tuple(int(data[j // 8::size].translate(_BIT_DIGITS[j % 8]), 2) for j in range(width))
    return low, planes


def reference_support(summands) -> int:
    flags = bytes(map(bool, summands))
    return int(flags[::-1].translate(_BYTE_DIGITS), 2)


def reference_read_text(path) -> str:
    """The text of the file `path` through a text-mode file object: the
    string, exception type and message `cli._read_text` must give."""
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()
