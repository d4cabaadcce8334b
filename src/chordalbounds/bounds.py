"""Upper and lower bounds on the probability of a union of events.

Every bound is a bracket divided by a denominator.  The bracket is a
signed sum of intersection probabilities over an index family; the
denominator is a positive integer, and upper bounds and the classical
lower bounds have none.  The bracket takes one of two forms:

* the clique bracket, `clique_sieve_sum`: the signed sum over the clique
  complex of a graph on the event indices, optionally truncated at a
  clique size t.  The chordal bounds use the given graph (Hunter's are
  the untruncated ones of a tree, renamed), the path bound a path, and the
  Seneta bounds the graph joining two chosen indices to every other
  index.  Lower bounds divide it by the graph's independence number (or
  by the sharpened support-aware denominator).  A chordal graph is
  summed along a perfect elimination order, one cone sum per vertex over
  its later neighbours (see `clique_sieve_sum`): the path and Seneta sums
  write those masks from their orders, building no graph, and every other
  graph keeps its maximum cardinality search order.  Only a non-chordal
  graph passed unchecked has its cliques listed, one query each.
* the moment bracket: sum_k c_k * S_k over the symmetric sums S_k, the
  sums of P(every event in I occurs) over all index sets I of size k,
  with signed rational coefficients c_k.  The classical, Kwerel and
  averaged bounds use nothing else.  An explicit system computes every S_k
  in one pass over its outcomes, as the binomial moment
  sum_c W_c * C(c, k), where W_c is the weight of the outcomes lying in
  exactly c events; a product system enumerates the C(n, k) index sets.

All formulas are generic over the value backend.  A bracket is summed in
the event system's unit (`_numerator`): on a RATIONAL explicit space an
integer numerator over the weights' one common denominator D, elsewhere
the value itself.  A moment bracket's coefficients are integer pairs
(a_k, b_k); exact systems scale them to one common denominator L, float
systems multiply S_k by the float a_k / b_k.  Division by L and by the
integer denominator happens last, in one step (`_value`), so a RATIONAL
explicit bound builds one Fraction.  The checks the bounds share live
with the data they check: the truncation depth in `graphs._size_cap`,
the pairing of events with graph vertices in
`events._require_one_vertex_per_event`.

`KINDS` is the one place that maps kind names to these functions and to
the inputs each reads; `bound` evaluates a kind by name, and the command
line and the reliability report name kinds only through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, lcm

from .errors import DomainError, _require_int
from .events import EventSystem, _require_one_vertex_per_event, alpha_prime
from .graphs import (
    Graph,
    _clique_cap,
    _later_neighbours,
    _size_cap,
    clique_complex,
    independence_number,
    is_chordal,
    require_tree,
)

__all__ = [
    "BoundReport",
    "KINDS",
    "bound",
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


def _report(kind, sys, bracket, denominator=None, truncation=None, edge_count=None) -> BoundReport:
    """Report of the bound `kind` (which names its direction): the bracket
    divided by the denominator, or the bracket itself if there is none.
    The bracket is a pair (total, scale): a sum in the system's unit over
    a positive integer scale, turned into one value by `_value`."""
    total, scale = bracket
    return BoundReport(
        kind=kind,
        direction="upper" if "-upper" in kind else "lower",
        value=sys._value(total, scale if denominator is None else scale * denominator),
        truncation=truncation,
        n=sys.event_count,
        edge_count=edge_count,
        alpha_used=denominator,
    )


def _require_chordal(g: Graph, unchecked: bool) -> None:
    if not unchecked and not is_chordal(g):
        raise DomainError(
            "graph is not chordal; pass unchecked=True only for demonstrations"
        )


def clique_sieve_sum(sys: EventSystem, g: Graph, size_cap: int | None = None):
    """Signed sum of intersection probabilities over the clique complex,
    restricted to cliques of size <= size_cap (all cliques if None).

    This is the raw sum, before any division by a denominator; it makes no
    chordality assumption.  Along a perfect elimination order every clique
    is its first vertex v plus a subset S of L(v), the neighbours of v
    later in the order, so a chordal graph's sum is, over its vertices v,
    the cone sum of (-1)**|S| * P(A_v and every A_u, u in S) over the S
    with |S| < t = size_cap.  A cone with |L(v)| < t is P(A_v less the
    union of the A_u), one mass query on an explicit space.  A truncated
    cone weighs the outcomes of A_v in exactly c of the A_u by
    (-1)**(t - 1) * C(c - 1, t - 1), and those in none by 1, one mass
    query per count.  At t = 1 the sum is sum_v P(A_v).  A product space
    enumerates the subsets S.  Any other graph has its cliques listed, one
    intersection query per clique.
    """
    return sys._value(*_clique_bracket(sys, g, size_cap))


def _clique_bracket(sys: EventSystem, g: Graph, size_cap: int | None):
    """`clique_sieve_sum` as a bracket (total, 1), the total in the
    system's unit."""
    _require_one_vertex_per_event(sys.event_count, g.vertex_count)
    order = g._elimination_order
    if order is not None:
        cap = _clique_cap(g, size_cap)
        later = _later_neighbours(g, order) if cap > 1 else [0] * g.vertex_count
        return _cone_bracket(sys, later, cap)
    total = sys._zero
    for clique in clique_complex(g, max_size=size_cap):
        p = sys._numerator(sys._combined_mask(clique))
        total = total + p if len(clique) % 2 == 1 else total - p
    return total, 1


def _cone_bracket(sys: EventSystem, later, cap: int):
    """`_clique_bracket` of a graph along a perfect elimination order that
    gives each vertex v the later neighbours `later[v]`, a mask (zeros at
    cap 1): one `_cone_sum` per vertex."""
    total = sys._zero
    for v, mask in enumerate(later):
        total = total + sys._cone_sum(v, mask, cap)
    return total, 1


def _moment_bracket(sys: EventSystem, coefficients):
    """Sum of c_k * S_k over the signed coefficients c_k = a_k / b_k, given
    as integer pairs (a_k, b_k), as a bracket (total, scale).

    An exact system scales them to one common denominator L, the scale,
    and adds S_k * (a_k * L / b_k): integers on a RATIONAL explicit space.
    A float system adds S_k * (a_k / b_k) with scale 1; int / int is
    correctly rounded, so it is the float of the Fraction a_k / b_k.
    """
    if sys.backend.exact:
        scale = lcm(*(b for _, b in coefficients))
        multipliers = [a * (scale // b) for a, b in coefficients]
    else:
        scale, multipliers = 1, [a / b for a, b in coefficients]
    total = sys._zero
    for k, c in enumerate(multipliers, 1):
        total = total + sys._symmetric_sum(k) * c
    return total, scale


def classical_bonferroni(sys: EventSystem, r: int = 1, direction: str = "upper") -> BoundReport:
    """Alternating subset bound of depth r over all non-empty index sets.

    The upper bound keeps sets of size <= 2r - 1, the lower bound sets of
    size <= 2r; the value is the alternating sum of the symmetric sums
    S_1 - S_2 + S_3 - ... up to that size.  The defaults give the union
    bound S_1.
    """
    if direction not in ("upper", "lower"):
        raise DomainError(f"direction must be 'upper' or 'lower', got {direction!r}")
    cap = min(_size_cap(r, direction), sys.event_count)
    signs = [((-1) ** (k - 1), 1) for k in range(1, cap + 1)]
    return _report(f"bonferroni-{direction}", sys, _moment_bracket(sys, signs), truncation=r)


def chordal_upper(
    sys: EventSystem, g: Graph, r: int | None = None, unchecked: bool = False
) -> BoundReport:
    """Upper bound: signed clique-complex sum, truncated at size 2r - 1.

    Valid for chordal g; interpolates between the union bound (edgeless g)
    and the full sieve formula (complete g).
    """
    cap = None if r is None else _size_cap(r, "upper")
    _require_chordal(g, unchecked)
    bracket = _clique_bracket(sys, g, cap)
    return _report("chordal-upper", sys, bracket, truncation=r, edge_count=g.edge_count)


def chordal_lower(
    sys: EventSystem,
    g: Graph,
    r: int | None = None,
    sharpened: bool = False,
    unchecked: bool = False,
) -> BoundReport:
    """Lower bound: signed clique-complex sum truncated at size 2r,
    divided by the independence number (or the sharpened denominator)."""
    cap = None if r is None else _size_cap(r, "lower")
    _require_chordal(g, unchecked)
    bracket = _clique_bracket(sys, g, cap)
    denominator = alpha_prime(sys, g) if sharpened else independence_number(g)
    kind = "chordal-lower-sharpened" if sharpened else "chordal-lower"
    return _report(kind, sys, bracket, denominator, truncation=r, edge_count=g.edge_count)


def hunter_upper_tree(sys: EventSystem, g: Graph) -> BoundReport:
    """Hunter's tree upper bound: singleton sum minus the sum over the
    edges of the tree g, which is `chordal_upper` on the tree."""
    return replace(chordal_upper(sys, require_tree(g)), kind="hunter-upper")


def hunter_lower_tree(sys: EventSystem, g: Graph) -> BoundReport:
    """Hunter's tree lower bound, `chordal_lower` on the tree g: its
    clique-complex sum divided by its independence number."""
    return replace(chordal_lower(sys, require_tree(g)), kind="hunter-lower")


def path_lower(sys: EventSystem, order=None) -> BoundReport:
    """Lower bound along a path visiting the events in `order` (index
    order by default): the clique-complex sum of that path divided by
    ceil(n / 2), the independence number of a path."""
    n = sys.event_count
    order = tuple(range(n) if order is None else order)
    for i in order:
        _require_int(i, "order item")
    if sorted(order) != list(range(n)):
        raise DomainError("order is not a permutation of the event indices")
    later = [0] * n
    for v, u in zip(order, order[1:]):
        later[v] = 1 << u
    bracket = _cone_bracket(sys, later, n)
    return _report("path-lower", sys, bracket, (n + 1) // 2, edge_count=n - 1)


def kwerel_upper(sys: EventSystem) -> BoundReport:
    """Degree-two upper bound using only the average pairwise weight."""
    bracket = _moment_bracket(sys, _averaged_coefficients(sys.event_count, 1))
    return _report("kwerel-upper", sys, bracket)


def kwerel_lower(sys: EventSystem) -> BoundReport:
    """Closed form of the average of `path_lower` over all paths; uses the
    singleton sum and the mean pairwise intersection only."""
    bracket = _moment_bracket(sys, _averaged_coefficients(sys.event_count, 1))
    return _report("kwerel-lower", sys, bracket, (sys.event_count + 1) // 2)


def _seneta_bracket(sys: EventSystem, j: int, k: int):
    """The clique sieve on the graph joining j and k to every other index,
    along the perfect elimination order that ends with j, then k."""
    _require_int(j, "distinguished index j")
    _require_int(k, "distinguished index k")
    n = sys.event_count
    distinguished = len({j, k})
    if not (0 <= j < n and 0 <= k < n):
        raise DomainError("distinguished indices out of range")
    if n <= distinguished:
        raise DomainError(f"need more than {distinguished} events, got {n}")
    later = [1 << j | 1 << k] * n
    later[j] = 1 << k
    later[k] = 0
    return _cone_bracket(sys, later, n)


def seneta_upper(sys: EventSystem, j: int = 0, k: int = 1) -> BoundReport:
    """Upper bound built from two distinguished indices j and k: the
    clique-complex sum on the graph joining j and k to every other index."""
    return _report("seneta-upper", sys, _seneta_bracket(sys, j, k))


def seneta_lower(sys: EventSystem, j: int = 0, k: int = 1) -> BoundReport:
    """Lower bound from two distinguished indices j and k.

    Equals the clique-complex lower bound on the join of a complete graph
    on {j, k} with isolated vertices elsewhere; the denominator is that
    join graph's independence number n - 2 + delta(j, k).
    """
    bracket = _seneta_bracket(sys, j, k)
    return _report("seneta-lower", sys, bracket, sys.event_count - len({j, k}))


def kwerel2_lower(sys: EventSystem) -> BoundReport:
    """Closed form of the average of `seneta_lower` over all ordered pairs
    of distinct distinguished indices; needs n >= 3."""
    n = sys.event_count
    if n < 3:
        raise DomainError(f"need at least 3 events, got {n}")
    return replace(generalized_lower(sys, 2), kind="kwerel2-lower")


def generalized_lower(sys: EventSystem, m: int = 0) -> BoundReport:
    """Averaged lower bound of order m, for 0 <= m <= n - 1.

    Closed form of the mean of the clique-complex lower bound over every
    graph joining a complete graph on an m-set with isolated vertices on
    its complement.  m = 0 gives the singleton average; m = 2 coincides
    with `kwerel2_lower`.
    """
    _require_int(m, "order m")
    n = sys.event_count
    if not 0 <= m <= n - 1:
        raise DomainError(f"order m must satisfy 0 <= m <= {n - 1}, got {m}")
    bracket = _moment_bracket(sys, _averaged_coefficients(n, m))
    return _report("generalized-lower", sys, bracket, n - m)


def _averaged_coefficients(n: int, m: int):
    """Coefficients (a_k, b_k) of S_1 .. S_(m+1) in the averaged bracket of
    order m, capped at n - 1: order 1 is Kwerel's S_1 - (2/n) S_2."""
    m = min(m, n - 1)
    coefficients = [
        ((-1) ** (k - 1) * comb(m, k) * (n * k - (m + 1) * (k - 1)), comb(n, k) * (m - k + 1))
        for k in range(1, m + 1)
    ]
    coefficients.append(((-1) ** m * (m + 1), comb(n, m)))
    return coefficients


# Each kind's function by name, the inputs it reads after the event system
# (g, the graph; r; unchecked; order; j and k; m) and its fixed arguments.
# `bound` looks the name up per call, so a wrapper set on the module sees it.
KINDS = {
    "bonferroni-upper": ("classical_bonferroni", ("r",), {"direction": "upper"}),
    "bonferroni-lower": ("classical_bonferroni", ("r",), {"direction": "lower"}),
    "chordal-upper": ("chordal_upper", ("g", "r", "unchecked"), {}),
    "chordal-lower": ("chordal_lower", ("g", "r", "unchecked"), {}),
    "chordal-lower-sharpened": ("chordal_lower", ("g", "r", "unchecked"), {"sharpened": True}),
    "hunter-upper": ("hunter_upper_tree", ("g",), {}),
    "hunter-lower": ("hunter_lower_tree", ("g",), {}),
    "path-lower": ("path_lower", ("order",), {}),
    "kwerel-upper": ("kwerel_upper", (), {}),
    "kwerel-lower": ("kwerel_lower", (), {}),
    "seneta-upper": ("seneta_upper", ("j", "k"), {}),
    "seneta-lower": ("seneta_lower", ("j", "k"), {}),
    "kwerel2-lower": ("kwerel2_lower", (), {}),
    "generalized-lower": ("generalized_lower", ("m",), {}),
}


def bound(kind: str, sys: EventSystem, **inputs) -> BoundReport:
    """The bound `kind` of `sys`, given the `inputs` it reads (see KINDS);
    one left out or None keeps the function's default, but g is required."""
    if kind not in KINDS:
        raise DomainError(f"unknown bound kind {kind!r}")
    name, reads, fixed = KINDS[kind]
    if "g" in reads and inputs.get("g") is None:
        raise DomainError(f"bound kind {kind!r} needs a graph g")
    given = {key: inputs[key] for key in reads if inputs.get(key) is not None}
    return globals()[name](sys, **given, **fixed)
