"""Brute-force oracles and random-instance generators shared by the tests.

Everything here is deliberately independent of the library's fast paths:
chordality is decided by scanning for induced cycles, independence numbers
by full subset enumeration, masses by adding one weight at a time in exact
arithmetic, product spaces are listed as their 2**m explicit outcomes,
random chordal graphs are built directly by simplicial-vertex addition,
polynomials keep one Fraction per coefficient, the best tree comes from
every connected edge subset, the best path from every visiting order, and
the sharpest bounds from the symmetric sums alone come from an exact
linear program solved by enumerating its bases.  `BRIDGE_PATH_ORDER`
fixes the bridge network's path events in the order the paper's bridge
example numbers them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

from chordalbounds import EventSystem, Graph, ProductSystem, build_graph, intersection_prob
from chordalbounds.values import RATIONAL, REAL

# Path-event order of the bridge example, passed to `path_event_system`:
# arcs {1,5}, {1,3,6}, {2,4,5}, {2,6} in 1-based arc labels.
BRIDGE_PATH_ORDER = (
    frozenset({0, 4}),
    frozenset({0, 2, 5}),
    frozenset({1, 3, 4}),
    frozenset({1, 5}),
)


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    Fraction, or a Polynomial for polynomial weights, with no rounding.
    """
    terms = {}
    for subset in _subset_cliques(g):
        if isinstance(sys_, ProductSystem):
            required = 0
            for v in bits(subset):
                required |= sys_.requires[v]
            term = Fraction(1)
            for c in bits(required):
                term = term * Fraction(sys_.probs[c])
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
    (at least 1)."""
    best = 1
    for o, w in enumerate(weights):
        signature = [i for i, event in enumerate(events) if (event >> o) & 1]
        if w != 0 and signature:
            best = max(best, brute_force_components(g, signature))
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


def brute_force_best_path(w) -> tuple[float, tuple[int, ...]]:
    """The least (total weight, order) over all n! visiting orders of the
    rows w.  On dyadic weights every sum is exact, so its order is the
    lexicographically least optimal one."""
    return min(
        (sum(w[a][b] for a, b in zip(order, order[1:])), order)
        for order in permutations(range(len(w)))
    )


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
