"""Upper and lower bounds on the probability of a union of events.

Each bound sums signed intersection probabilities over an index family:
either all non-empty subsets up to a size cap (the classical alternating
bounds) or the clique complex of a graph on the event indices (the
chordal bounds; the tree and path bounds are the same sum on a tree or a
path, whose cliques are vertices and edges, and the Seneta bounds are the
sum on the graph joining two chosen indices to every other index).  Lower
bounds divide the sum by the graph's independence number (or by the
sharpened support-aware denominator).

Sums over all index sets of one size k are the symmetric sums S_k, and
the classical and averaged bounds use nothing else.  An explicit system
computes every S_k in one pass over its outcomes, as the binomial moment
sum_c W_c * C(c, k), where W_c is the weight of the outcomes lying in
exactly c events; a product system enumerates the C(n, k) index sets.

All formulas are generic over the value backend; division by the integer
denominator happens last.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DomainError
from .events import EventSystem, alpha_prime, intersection_prob
from .graphs import (
    Graph,
    build_graph,
    clique_complex,
    independence_number,
    is_chordal,
    require_tree,
)

__all__ = [
    "BoundReport",
    "clique_sieve_sum",
    "classical_bonferroni",
    "chordal_upper",
    "chordal_lower",
    "hunter_upper_tree",
    "hunter_lower_tree",
    "path_lower",
    "kwerel_upper",
    "kwerel_lower",
    "seneta_upper",
    "seneta_lower",
    "kwerel2_lower",
    "generalized_lower",
]


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus its provenance: which inequality, which graph
    shape, which truncation depth, which denominator."""

    kind: str
    direction: str
    value: object
    truncation: int | None = None
    n: int = 0
    edge_count: int | None = None
    alpha_used: int | None = None


def _check_r(r: int | None) -> None:
    if r is not None and r < 1:
        raise DomainError(f"truncation depth must be >= 1, got {r}")


def _check_pairing(sys: EventSystem, g: Graph) -> None:
    if sys.event_count != g.vertex_count:
        raise DomainError(
            f"system has {sys.event_count} events but graph has {g.vertex_count} vertices"
        )
    if g.vertex_count == 0:
        raise DomainError("graph must have at least one vertex")


def _require_chordal(g: Graph, unchecked: bool) -> None:
    if not unchecked and not is_chordal(g):
        raise DomainError(
            "graph is not chordal; pass unchecked=True only for demonstrations"
        )


def clique_sieve_sum(sys: EventSystem, g: Graph, size_cap: int | None = None):
    """Signed sum of intersection probabilities over the clique complex,
    restricted to cliques of size <= size_cap (all cliques if None).

    This is the raw sum, before any division by a denominator; it makes no
    chordality assumption.
    """
    _check_pairing(sys, g)
    total = sys.backend.zero
    for clique in clique_complex(g, max_size=size_cap).cliques:
        p = intersection_prob(sys, clique)
        total = total + p if len(clique) % 2 == 1 else total - p
    return total


def _symmetric_sum(sys: EventSystem, k: int):
    """Sum of intersection probabilities over all index sets of size k,
    1 <= k <= n, from the system's own cached computation."""
    return sys._symmetric_sum(k)


def classical_bonferroni(sys: EventSystem, r: int, direction: str) -> BoundReport:
    """Alternating subset bound of depth r over all non-empty index sets.

    The upper bound keeps sets of size <= 2r - 1, the lower bound sets of
    size <= 2r; the value is the alternating sum of the symmetric sums
    S_1 - S_2 + S_3 - ... up to that size.
    """
    if direction not in ("upper", "lower"):
        raise DomainError(f"direction must be 'upper' or 'lower', got {direction!r}")
    if r is None or r < 1:
        raise DomainError(f"truncation depth must be >= 1, got {r}")
    cap = 2 * r - 1 if direction == "upper" else 2 * r
    value = sys.backend.zero
    for k in range(1, min(cap, sys.event_count) + 1):
        s = _symmetric_sum(sys, k)
        value = value + s if k % 2 == 1 else value - s
    return BoundReport(
        kind=f"bonferroni-{direction}",
        direction=direction,
        value=value,
        truncation=r,
        n=sys.event_count,
    )


def chordal_upper(
    sys: EventSystem, g: Graph, r: int | None = None, unchecked: bool = False
) -> BoundReport:
    """Upper bound: signed clique-complex sum, truncated at size 2r - 1.

    Valid for chordal g; interpolates between the union bound (edgeless g)
    and the full sieve formula (complete g).
    """
    _check_r(r)
    _check_pairing(sys, g)
    _require_chordal(g, unchecked)
    cap = None if r is None else 2 * r - 1
    value = clique_sieve_sum(sys, g, size_cap=cap)
    return BoundReport(
        kind="chordal-upper",
        direction="upper",
        value=value,
        truncation=r,
        n=sys.event_count,
        edge_count=g.edge_count,
    )


def chordal_lower(
    sys: EventSystem,
    g: Graph,
    r: int | None = None,
    sharpened: bool = False,
    unchecked: bool = False,
) -> BoundReport:
    """Lower bound: signed clique-complex sum truncated at size 2r,
    divided by the independence number (or the sharpened denominator)."""
    _check_r(r)
    _check_pairing(sys, g)
    _require_chordal(g, unchecked)
    cap = None if r is None else 2 * r
    raw = clique_sieve_sum(sys, g, size_cap=cap)
    denominator = alpha_prime(sys, g) if sharpened else independence_number(g)
    return BoundReport(
        kind="chordal-lower-sharpened" if sharpened else "chordal-lower",
        direction="lower",
        value=raw / denominator,
        truncation=r,
        n=sys.event_count,
        edge_count=g.edge_count,
        alpha_used=denominator,
    )


def hunter_upper_tree(sys: EventSystem, tree: Graph) -> BoundReport:
    """Tree upper bound: singleton sum minus the sum over tree edges, the
    clique-complex sum of the tree."""
    _check_pairing(sys, tree)
    require_tree(tree)
    return BoundReport(
        kind="hunter-upper",
        direction="upper",
        value=clique_sieve_sum(sys, tree),
        n=sys.event_count,
        edge_count=tree.edge_count,
    )


def hunter_lower_tree(sys: EventSystem, tree: Graph) -> BoundReport:
    """Tree lower bound: the tree's clique-complex sum divided by its
    independence number."""
    _check_pairing(sys, tree)
    require_tree(tree)
    alpha = independence_number(tree)
    return BoundReport(
        kind="hunter-lower",
        direction="lower",
        value=clique_sieve_sum(sys, tree) / alpha,
        n=sys.event_count,
        edge_count=tree.edge_count,
        alpha_used=alpha,
    )


def path_lower(sys: EventSystem, order) -> BoundReport:
    """Lower bound along a path visiting the events in `order`: the
    clique-complex sum of that path divided by ceil(n / 2), the
    independence number of a path."""
    order = tuple(order)
    n = sys.event_count
    if sorted(order) != list(range(n)):
        raise DomainError("order is not a permutation of the event indices")
    total = clique_sieve_sum(sys, build_graph(n, zip(order, order[1:])))
    alpha = (n + 1) // 2
    return BoundReport(
        kind="path-lower",
        direction="lower",
        value=total / alpha,
        n=n,
        edge_count=n - 1,
        alpha_used=alpha,
    )


def kwerel_upper(sys: EventSystem) -> BoundReport:
    """Degree-two upper bound using only the average pairwise weight."""
    n = sys.event_count
    value = _symmetric_sum(sys, 1)
    if n >= 2:
        value = value - _symmetric_sum(sys, 2) * Fraction(2, n)
    return BoundReport(kind="kwerel-upper", direction="upper", value=value, n=n)


def kwerel_lower(sys: EventSystem) -> BoundReport:
    """Closed form of the average of `path_lower` over all paths; uses the
    singleton sum and the mean pairwise intersection only."""
    n = sys.event_count
    bracket = _symmetric_sum(sys, 1)
    if n >= 2:
        bracket = bracket - _symmetric_sum(sys, 2) * Fraction(2, n)
    alpha = (n + 1) // 2
    return BoundReport(
        kind="kwerel-lower",
        direction="lower",
        value=bracket / alpha,
        n=n,
        alpha_used=alpha,
    )


def _seneta_bracket(sys: EventSystem, j: int, k: int):
    # The clique sieve on the graph joining j and k to every other index.
    n = sys.event_count
    edges = {(min(i, c), max(i, c)) for c in (j, k) for i in range(n) if i != c}
    return clique_sieve_sum(sys, build_graph(n, edges))


def _check_seneta_args(sys: EventSystem, j: int, k: int) -> int:
    n = sys.event_count
    delta = 1 if j == k else 0
    if not (0 <= j < n and 0 <= k < n):
        raise DomainError("distinguished indices out of range")
    if n <= 2 - delta:
        raise DomainError(f"need more than {2 - delta} events, got {n}")
    return delta


def seneta_upper(sys: EventSystem, j: int, k: int) -> BoundReport:
    """Upper bound built from two distinguished indices j and k: the
    clique-complex sum on the graph joining j and k to every other index."""
    _check_seneta_args(sys, j, k)
    return BoundReport(
        kind="seneta-upper",
        direction="upper",
        value=_seneta_bracket(sys, j, k),
        n=sys.event_count,
    )


def seneta_lower(sys: EventSystem, j: int, k: int) -> BoundReport:
    """Lower bound from two distinguished indices j and k.

    Equals the clique-complex lower bound on the join of a complete graph
    on {j, k} with isolated vertices elsewhere; the denominator is that
    join graph's independence number n - 2 + delta(j, k).
    """
    delta = _check_seneta_args(sys, j, k)
    alpha = sys.event_count - 2 + delta
    return BoundReport(
        kind="seneta-lower",
        direction="lower",
        value=_seneta_bracket(sys, j, k) / alpha,
        n=sys.event_count,
        alpha_used=alpha,
    )


def kwerel2_lower(sys: EventSystem) -> BoundReport:
    """Closed form of the average of `seneta_lower` over all ordered pairs
    of distinct distinguished indices; needs n >= 3."""
    n = sys.event_count
    if n < 3:
        raise DomainError(f"need at least 3 events, got {n}")
    pairs = comb(n, 2)
    bracket = (
        _symmetric_sum(sys, 1)
        - _symmetric_sum(sys, 2) * Fraction(2 * n - 3, pairs)
        + _symmetric_sum(sys, 3) * Fraction(3, pairs)
    )
    return BoundReport(
        kind="kwerel2-lower",
        direction="lower",
        value=bracket / (n - 2),
        n=n,
        alpha_used=n - 2,
    )


def generalized_lower(sys: EventSystem, m: int) -> BoundReport:
    """Averaged lower bound of order m, for 0 <= m <= n - 1.

    Closed form of the mean of the clique-complex lower bound over every
    graph joining a complete graph on an m-set with isolated vertices on
    its complement.  m = 0 gives the singleton average; m = 2 coincides
    with `kwerel2_lower`.
    """
    n = sys.event_count
    if not 0 <= m <= n - 1:
        raise DomainError(f"order m must satisfy 0 <= m <= {n - 1}, got {m}")
    bracket = sys.backend.zero
    for k in range(1, m + 1):
        coefficient = Fraction(
            comb(m, k) * (n * k - (m + 1) * (k - 1)),
            comb(n, k) * (m - k + 1),
        )
        term = _symmetric_sum(sys, k) * coefficient
        bracket = bracket + term if k % 2 == 1 else bracket - term
    last = _symmetric_sum(sys, m + 1) * Fraction(m + 1, comb(n, m))
    bracket = bracket + last if m % 2 == 0 else bracket - last
    return BoundReport(
        kind="generalized-lower",
        direction="lower",
        value=bracket / (n - m),
        n=n,
        alpha_used=n - m,
    )
