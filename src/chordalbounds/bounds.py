"""Upper and lower bounds on the probability of a union of events.

Every bound is a bracket divided by a denominator.  The bracket is a
signed sum of intersection probabilities over an index family; the
denominator is a positive integer, and upper bounds and the classical
lower bounds have none.  The bracket takes one of two forms:

* the clique bracket, `clique_sieve_sum`: the signed sum over the clique
  complex of a graph on the event indices, optionally truncated at a
  clique size t.  The chordal bounds use the given graph (Hunter's a
  tree), the path bound a path, and the Seneta bounds the graph joining
  two chosen indices to every other index; lower bounds divide it by the
  graph's independence number α(g), or by the sharpened, support-aware
  α′.  Every graph is summed over its cones (`graphs._cones`) in one loop,
  `_cone_bracket`.  A chordal graph has one cone per vertex, its later
  neighbours along a perfect elimination order, which the path and Seneta
  sums write from their orders, building no graph.  A non-chordal graph
  passed unchecked has its cones walked, and no clique is listed.
* the moment bracket: sum_k c_k * S_k over the symmetric sums S_k, the
  sums of P(every event in I occurs) over all index sets I of size k,
  with signed rational coefficients c_k (`_moment_bracket`).  The
  classical, Kwerel and averaged bounds use nothing else.

All formulas are generic over the value backend.  A bracket is summed in
the event system's unit (`_numerator`): on a RATIONAL space an integer
numerator over one common denominator, on a product space whose
coordinates share one polynomial p the packed integer coefficients of
p, elsewhere the value itself.  Division by a moment bracket's scale and
by the denominator happens last, in one step (`_value`), so a RATIONAL
bound builds one Fraction and a symbolic one one Polynomial.

Each kind is one row of `KINDS`, (bracket, reads, denominator).  The
bracket function checks the inputs the row reads and returns the bracket,
truncation, edge count and the argument of the denominator rule: none,
α(g), α′, ceil(n / 2) or n - m.  One evaluator, `_evaluate`, takes
(kind, inputs) rows in order: `bound` and each per-kind function run it
on one row, `bounds all` on its table.  The system's memo (`_kept`) keeps
each clique and moment bracket by its description, and α(g) and α′ by
graph, so a bracket shared by kinds, such as the order-1 averaged one,
is summed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb, lcm

from .errors import DomainError, _exact_str, _repr, _require_int
from .events import EventSystem, _require_one_vertex_per_event, alpha_prime
from .graphs import (
    Graph,
    _clique_cap,
    _cones,
    _size_cap,
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


def _kept(sys: EventSystem, key: tuple, compute, *args):
    """`compute(*args)`, kept in the system's memo under the description `key`."""
    value = sys._memo.get(key)
    if value is None:
        value = sys._memo[key] = compute(*args)
    return value


def clique_sieve_sum(sys: EventSystem, g: Graph, size_cap: int | None = None):
    """Signed sum of intersection probabilities over the clique complex,
    restricted to cliques of size <= size_cap (all cliques if None).

    This is the raw sum, before any division by a denominator; it makes no
    chordality assumption.  It is one `_cone_sum` per cone of g
    (`graphs._cones`): along a perfect elimination order every clique is
    its first vertex v plus a subset of L(v), the later neighbours of v,
    and any other graph's cones are walked, so no clique is listed.
    """
    return sys._value(*_clique_bracket(sys, g, size_cap))


def _clique_bracket(sys: EventSystem, g: Graph, size_cap: int | None):
    """`clique_sieve_sum` as a bracket (total, 1), the total in the
    system's unit: `_graph_bracket`, kept by g's adjacency masks, which
    fix its cones, and cap.  So the chordal bounds of one graph sum it,
    and walk a non-chordal graph's cones, once."""
    _require_one_vertex_per_event(sys.event_count, g.vertex_count)
    cap = _clique_cap(g, size_cap, "size_cap")
    return _kept(sys, ("clique", g.adj, cap), _graph_bracket, sys, g, cap)


def _graph_bracket(sys: EventSystem, g: Graph, cap: int):
    """`_cone_bracket` over the cones of g (`graphs._cones`)."""
    return _cone_bracket(sys, _cones(g, cap), cap)


def _cone_bracket(sys: EventSystem, cones, cap: int):
    """The clique sieve over the cones (base, rest), the cliques base + S
    of at most cap vertices for the subsets S of the mask `rest` (see
    `graphs._cones`), as a bracket (total, 1): one `_cone_sum` per cone,
    signed by the parity of its base."""
    total = sys._zero
    for base, rest in cones:
        term = sys._cone_sum(base, rest, cap - len(base) + 1)
        total = total + term if len(base) % 2 else total - term
    return total, 1


def _moment(sys: EventSystem, coefficients):
    """`_moment_bracket`, kept by its coefficients."""
    return _kept(sys, ("moment", *coefficients), _moment_bracket, sys, coefficients)


def _moment_bracket(sys: EventSystem, coefficients):
    """Sum of c_k * S_k over the signed coefficients c_k = a_k / b_k, given
    as integer pairs (a_k, b_k), as a bracket (total, scale).

    An exact system scales them to one common denominator L, the scale,
    and adds S_k * (a_k * L / b_k): integers on a RATIONAL space and on a
    shared polynomial p.
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


# The brackets: each checks the inputs its kinds read, with their defaults,
# and returns (bracket, truncation, edge count, denominator argument).


def _bonferroni(sys: EventSystem, r: int = 1, *, direction: str):
    cap = min(_size_cap(r, direction), sys.event_count)
    return _moment(sys, [((-1) ** (k - 1), 1) for k in range(1, cap + 1)]), r, None, None


def _chordal(sys: EventSystem, g: Graph, r: int | None = None, unchecked: bool = False, *, direction: str):
    cap = None if r is None else _size_cap(r, direction)
    if not unchecked and not is_chordal(g):
        raise DomainError("graph is not chordal; pass unchecked=True only for demonstrations")
    return _clique_bracket(sys, g, cap), r, g.edge_count, g


def _hunter(sys: EventSystem, g: Graph):
    return _clique_bracket(sys, require_tree(g), None), None, g.edge_count, g


def _path(sys: EventSystem, order=None):
    n = sys.event_count
    order = tuple(range(n) if order is None else order)
    for i in order:
        _require_int(i, "order item")
    if sorted(order) != list(range(n)):
        raise DomainError("order is not a permutation of the event indices")
    later = [0] * n
    for v, u in zip(order, order[1:]):
        later[v] = 1 << u
    # The cones ((v,), later[v]); zip(range(n)) makes the one-vertex bases.
    return _cone_bracket(sys, zip(zip(range(n)), later), n), None, n - 1, None


def _seneta(sys: EventSystem, j: int = 0, k: int = 1):
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
    return _cone_bracket(sys, zip(zip(range(n)), later), n), None, None, distinguished


def _kwerel(sys: EventSystem):
    return _moment(sys, _averaged_coefficients(sys.event_count, 1)), None, None, None


def _kwerel2(sys: EventSystem):
    n = sys.event_count
    if n < 3:
        raise DomainError(f"need at least 3 events, got {n}")
    return _generalized(sys, 2)


def _generalized(sys: EventSystem, m: int = 0):
    _require_int(m, "order m")
    n = sys.event_count
    if not 0 <= m <= n - 1:
        raise DomainError(f"order m must satisfy 0 <= m <= {n - 1}, got {_exact_str(m)}")
    return _moment(sys, _averaged_coefficients(n, m)), None, None, m


def _alpha(sys: EventSystem, g: Graph) -> int:
    return _kept(sys, ("alpha", g.adj), independence_number, g)


def _alpha_prime(sys: EventSystem, g: Graph) -> int:
    return _kept(sys, ("alpha-prime", g.adj), alpha_prime, sys, g)


def _half(sys: EventSystem, _) -> int:
    return (sys.event_count + 1) // 2


def _less(sys: EventSystem, m: int) -> int:
    return sys.event_count - m


# Each kind: its bracket, the inputs it reads after the event system (g,
# the graph; r; unchecked; order; j and k; m) and its denominator rule, a
# function of the system and the argument the bracket returns.
KINDS = {
    "bonferroni-upper": (partial(_bonferroni, direction="upper"), ("r",), None),
    "bonferroni-lower": (partial(_bonferroni, direction="lower"), ("r",), None),
    "chordal-upper": (partial(_chordal, direction="upper"), ("g", "r", "unchecked"), None),
    "chordal-lower": (partial(_chordal, direction="lower"), ("g", "r", "unchecked"), _alpha),
    "chordal-lower-sharpened": (partial(_chordal, direction="lower"), ("g", "r", "unchecked"), _alpha_prime),
    "hunter-upper": (_hunter, ("g",), None),
    "hunter-lower": (_hunter, ("g",), _alpha),
    "path-lower": (_path, ("order",), _half),
    "kwerel-upper": (_kwerel, (), None),
    "kwerel-lower": (_kwerel, (), _half),
    "seneta-upper": (_seneta, ("j", "k"), None),
    "seneta-lower": (_seneta, ("j", "k"), _less),
    "kwerel2-lower": (_kwerel2, (), _less),
    "generalized-lower": (_generalized, ("m",), _less),
}


def _evaluate(sys: EventSystem, kind: str, inputs: dict) -> tuple:
    """The `BoundReport` fields of the row (kind, inputs), the inputs being
    its bracket's keywords: the bracket (total, scale) over the row's
    denominator, if any, made one value by `_value`."""
    bracket, _, rule = KINDS[kind]
    (total, scale), truncation, edge_count, argument = bracket(sys, **inputs)
    denominator = None if rule is None else rule(sys, argument)
    value = sys._value(total, scale if denominator is None else scale * denominator)
    direction = "upper" if "-upper" in kind else "lower"
    return kind, direction, value, truncation, sys.event_count, edge_count, denominator


def _report(kind: str, sys: EventSystem, **inputs) -> BoundReport:
    return BoundReport(*_evaluate(sys, kind, inputs))


def bound(kind: str, sys: EventSystem, **inputs) -> BoundReport:
    """The bound `kind` of `sys`, given the `inputs` it reads (see KINDS);
    one left out or None keeps its default, but g is required.  An input
    some other kind reads is accepted and ignored; a name no kind reads
    is a TypeError, as for any unexpected keyword."""
    unknown = set(inputs).difference(*(row[1] for row in KINDS.values()))
    if unknown:
        raise TypeError(f"bound() got unexpected keyword arguments: {', '.join(sorted(unknown))}")
    if kind not in KINDS:
        raise DomainError(f"unknown bound kind {_repr(kind)}")
    reads = KINDS[kind][1]
    if "g" in reads and inputs.get("g") is None:
        raise DomainError(f"bound kind {kind!r} needs a graph g")
    given = {key: inputs[key] for key in reads if inputs.get(key) is not None}
    return BoundReport(*_evaluate(sys, kind, given))


def classical_bonferroni(sys: EventSystem, r: int = 1, direction: str = "upper") -> BoundReport:
    """Alternating subset bound of depth r over all non-empty index sets:
    the alternating sum S_1 - S_2 + S_3 - ... of the symmetric sums up to
    size 2r - 1 (upper) or 2r (lower).  The defaults give the union bound."""
    if direction not in ("upper", "lower"):
        raise DomainError(f"direction must be 'upper' or 'lower', got {_repr(direction)}")
    return _report(f"bonferroni-{direction}", sys, r=r)


def chordal_upper(sys: EventSystem, g: Graph, r: int | None = None, unchecked: bool = False) -> BoundReport:
    """Upper bound: signed clique-complex sum, truncated at size 2r - 1.
    Valid for chordal g; interpolates between the union bound (edgeless g)
    and the full sieve formula (complete g)."""
    return _report("chordal-upper", sys, g=g, r=r, unchecked=unchecked)


def chordal_lower(
    sys: EventSystem, g: Graph, r: int | None = None, sharpened: bool = False, unchecked: bool = False
) -> BoundReport:
    """Lower bound: signed clique-complex sum truncated at size 2r,
    divided by the independence number (or the sharpened denominator)."""
    kind = "chordal-lower-sharpened" if sharpened else "chordal-lower"
    return _report(kind, sys, g=g, r=r, unchecked=unchecked)


def hunter_upper_tree(sys: EventSystem, g: Graph) -> BoundReport:
    """Hunter's tree upper bound: singleton sum minus the sum over the
    edges of the tree g, which is `chordal_upper` on the tree."""
    return _report("hunter-upper", sys, g=g)


def hunter_lower_tree(sys: EventSystem, g: Graph) -> BoundReport:
    """Hunter's tree lower bound, `chordal_lower` on the tree g: its
    clique-complex sum divided by its independence number."""
    return _report("hunter-lower", sys, g=g)


def path_lower(sys: EventSystem, order=None) -> BoundReport:
    """Lower bound along a path visiting the events in `order` (index
    order by default): the clique-complex sum of that path divided by
    ceil(n / 2), the independence number of a path."""
    return _report("path-lower", sys, order=order)


def kwerel_upper(sys: EventSystem) -> BoundReport:
    """Degree-two upper bound using only the average pairwise weight."""
    return _report("kwerel-upper", sys)


def kwerel_lower(sys: EventSystem) -> BoundReport:
    """Closed form of the average of `path_lower` over all paths; uses the
    singleton sum and the mean pairwise intersection only."""
    return _report("kwerel-lower", sys)


def seneta_upper(sys: EventSystem, j: int = 0, k: int = 1) -> BoundReport:
    """Upper bound built from two distinguished indices j and k: the
    clique-complex sum on the graph joining j and k to every other index."""
    return _report("seneta-upper", sys, j=j, k=k)


def seneta_lower(sys: EventSystem, j: int = 0, k: int = 1) -> BoundReport:
    """Lower bound from two distinguished indices j and k: the
    clique-complex lower bound on the join of a complete graph on {j, k}
    with isolated vertices elsewhere, whose independence number
    n - 2 + delta(j, k) is the denominator."""
    return _report("seneta-lower", sys, j=j, k=k)


def kwerel2_lower(sys: EventSystem) -> BoundReport:
    """Closed form of the average of `seneta_lower` over all ordered pairs
    of distinct distinguished indices; needs n >= 3."""
    return _report("kwerel2-lower", sys)


def generalized_lower(sys: EventSystem, m: int = 0) -> BoundReport:
    """Averaged lower bound of order m, for 0 <= m <= n - 1: closed form
    of the mean of the clique-complex lower bound over every graph joining
    a complete graph on an m-set with isolated vertices on its complement.
    m = 0 gives the singleton average; m = 2 coincides with `kwerel2_lower`."""
    return _report("generalized-lower", sys, m=m)
