"""Finite probability spaces carrying one event per graph vertex.

Two representations answer the same queries (`intersection_prob`,
`union_prob_exact`, `atom_prob`, `alpha_prime`, the symmetric sums
behind the averaged bounds and the cone sums behind the clique brackets),
each through its own private methods (`mass`, `_union`, `_atom`,
`_signatures`, `_symmetric_sum`, `_cone_sum`):

* EventSystem -- explicit outcome weights plus a bitmask of outcomes per
  event; every probability is one `mass` query, the sum of the outcome
  weights under a mask.  It keeps one summand column: rational weights
  are read into integer numerators on a common denominator, without a
  Fraction per outcome, and float and polynomial weights are the column
  as they are.  A narrow rational column is also kept bit-sliced, so that
  a query costs a few big-integer operations per numerator bit instead of
  a step per outcome; every other column is summed in C, floats by
  `math.fsum`, integers and polynomials with `+`.  The sum-to-one and
  negativity checks and the support read the same column.  The symmetric
  sums are binomial moments of the number of events that occur, from one
  numerator query per count, and `alpha_prime` splits the supported
  outcomes by event instead of testing each outcome.  An atom is one mass
  query, and so is an untruncated cone; a truncated one is one per count
  of later events.
* ProductSystem -- independent on/off coordinates plus a bitmask of
  required coordinates per event (built by `bernoulli_product`).  An
  intersection is a product of coordinate probabilities (p**k, memoized
  by k, when every coordinate has the same exact probability p) and the
  union a Shannon expansion over coordinates that branches on the lowest
  coordinate of the smallest residual mask (success runs in 200 trials:
  0.44 s).  An atom is the mass of the coordinates its events require
  times one minus the Shannon union of the other events' residual masks,
  and `alpha_prime` splits the coordinate assignments by event, keeping
  each part as its least on-set, so no outcome is ever built.  A cone sum
  enumerates its subsets.

Both stay exact for rational and polynomial values; an explicit system's
float masses are correctly rounded.  The symmetric and cone sums come in
the system's unit (`_numerator`, `_value`): integers over the one common
denominator on a RATIONAL explicit system, values elsewhere.  Both check
index sets with `_event_indices`, and `_require_one_vertex_per_event`
pairs the events with the vertices of a graph for every caller.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import combinations, compress, repeat

from .errors import DomainError, ResourceLimitError, _require_int
from .graphs import Graph, _bits, _component_count
from .values import RATIONAL, REAL, Backend, _exact_str, _read_rational, _read_rational_column

__all__ = [
    "EventSystem",
    "ProductSystem",
    "MAX_PRODUCT_COORDS",
    "from_outcomes",
    "bernoulli_product",
    "intersection_prob",
    "union_prob_exact",
    "atom_prob",
    "alpha_prime",
]

# Cap on the coordinates of a product space, and on the arcs of a network
# before its s-t paths are enumerated.  It refuses work, guarding neither
# memory nor time: no query builds the 2**m outcomes, success runs in 200
# trials take 0.44 s, and other unions may still expand exponentially in m.
MAX_PRODUCT_COORDS = 24

# Most nodes (parts) of a product system's signature walk; `bounds all`
# stops at it after 1.6 to 2.0 s (README "Caps"; Python 3.11, one Xeon core).
MAX_SIGNATURE_NODES = 500_000


class EventSystem:
    """Outcome weights plus per-event outcome masks over one backend.

    Every probability is `mass(mask)`, the total weight of the outcomes a
    mask selects, summed over one summand column.  RATIONAL weights (an
    int, a Fraction or a string such as "7/873") are read straight into
    integer numerators over one common denominator D
    (`values._read_rational_column`), and a mask's weight is first an
    integer numerator over D (`_numerator`); the symmetric and cone sums
    stay in those integers, and `_value` makes one Fraction of a sum.  A
    column whose numerators span at most one bit per 16 outcomes
    (`_OUTCOMES_PER_PLANE`) is also kept as bit planes, built on the first
    query, and a query sums popcounts per plane.  REAL and POLYNOMIAL
    weights are their own column, with no D, and REAL sums go through
    `math.fsum`, so each mass is correctly rounded.  Every other column is
    summed outcome by outcome in C; `weights` keeps the values as given.

    Instances are immutable once built; `_numerator` memoizes mask sums,
    seeded with the total weight, and `_symmetric_sum` computes every
    symmetric sum once, so that repeated bound evaluations over the same
    system stay cheap.
    """

    __slots__ = (
        "backend", "weights", "events", "_summands", "_denominator", "_zero", "_planes",
        "_mass_cache", "_moments",
    )

    def __init__(self, backend: Backend, weights, events):
        weights = tuple(weights)
        events = tuple(events)
        if not weights:
            raise DomainError("an event system needs at least one outcome")
        if not events:
            raise DomainError("an event system needs at least one event")
        full = (1 << len(weights)) - 1
        for mask in events:
            if mask & ~full:
                raise DomainError("event refers to outcomes outside the space")
        if not backend.exact and not all(map(math.isfinite, weights)):
            bad = next(w for w in weights if not math.isfinite(w))
            raise DomainError(f"non-finite outcome weight {bad}")
        self.backend = backend
        self.weights = weights
        self.events = events
        # The summand column in the system's unit; only RATIONAL has a D.
        if backend is RATIONAL:
            self._summands, self._denominator = _read_rational_column(weights)
            self._zero = 0
        else:
            self._summands, self._denominator, self._zero = weights, None, backend.zero
        # (low, planes), or () with no planes: None until a RATIONAL query.
        self._planes: tuple | None = None if backend is RATIONAL else ()
        full_numerator = self._sum(self._summands)
        # Seeded with the full mass, so that a system that is only checked,
        # or only asked for its support, never builds bit planes.
        self._mass_cache: dict[int, object] = {full: full_numerator}
        self._moments: tuple | None = None
        total = self._value(full_numerator)
        if not backend.sum_is_one(total):
            raise DomainError(f"outcome weights must sum to one, got {_exact_str(total)}")
        if backend.ordered and min(self._summands) < 0:
            lowest = self._value(min(self._summands))
            raise DomainError(f"negative outcome weight {_exact_str(lowest)}")

    @property
    def event_count(self) -> int:
        return len(self.events)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.weights)) - 1

    def mass(self, mask: int):
        """Total weight of the outcomes selected by `mask`: `_numerator`
        over the column's denominator, one Fraction, for RATIONAL weights,
        and `_numerator` itself for REAL and POLYNOMIAL weights."""
        return self._value(self._numerator(mask))

    def _numerator(self, mask: int):
        """Mass of `mask` as a numerator over the system's unit: the
        integer sum of the column's numerators for RATIONAL weights, whose
        unit is 1/D for the column's one denominator D, and the mass itself
        for REAL and POLYNOMIAL weights, whose unit is 1.  Memoized by mask.

        A RATIONAL column narrow enough for bit planes (see `_bit_planes`,
        built on the first query) sums to low * popcount(mask) + sum_j
        popcount(mask & planes[j]) << j.  Any other column has the mask made
        one 0/1 byte per outcome (lowest bit first): `itertools.compress`
        picks the summands in C, and `math.fsum` or `sum` adds them.
        """
        cached = self._mass_cache.get(mask)
        if cached is not None:
            return cached
        if self._planes is None:
            self._planes = _bit_planes(self._summands)
        if self._planes:
            low, planes = self._planes
            total = low * mask.bit_count()
            for j, plane in enumerate(planes):
                total += (mask & plane).bit_count() << j
        else:
            total = self._sum(compress(self._summands, _selector(mask)))
        self._mass_cache[mask] = total
        return total

    def _value(self, total, divisor: int = 1):
        """The value of `total`, a sum of numerators in the system's unit
        (see `_numerator`), divided by the positive integer `divisor`: one
        Fraction over D * divisor for RATIONAL weights."""
        if self._denominator is not None:
            return Fraction(total, self._denominator * divisor)
        return total if divisor == 1 else total / divisor

    def _sum(self, values):
        """Sum of numerators in the system's unit; floats through
        `math.fsum`, correctly rounded."""
        return sum(values, self._zero) if self.backend.exact else math.fsum(values)

    def _support(self) -> int:
        """Mask of the outcomes with non-zero weight (exact zero test)."""
        flags = bytes(map(bool, self._summands))
        return int(flags[::-1].translate(_BYTE_DIGITS), 2)

    def _combined_mask(self, index_set) -> int:
        """Outcomes at which every event in `index_set` occurs."""
        mask = self.full_mask
        for i in _event_indices(index_set, self.event_count):
            mask &= self.events[i]
        return mask

    def _union(self):
        union = 0
        for mask in self.events:
            union |= mask
        return self.mass(union)

    def _atom(self, signature):
        """Weight of the outcomes in every event of the set `signature`
        and in no other event."""
        inter = self._combined_mask(signature)
        others = 0
        for i, mask in enumerate(self.events):
            if i not in signature:
                others |= mask
        return self.mass(inter & ~others & self.full_mask)

    def _signatures(self):
        """(signature, outcomes) pairs: each signature (event mask) of the
        outcomes with non-zero weight, with the mask of those outcomes.

        The supported outcomes are split by each event in turn; each part
        left is the non-empty set of outcomes of one signature.
        """
        parts = [(0, self._support())]
        for i, event in enumerate(self.events):
            split = []
            for sig, mask in parts:
                inside = mask & event
                if inside:
                    split.append((sig | 1 << i, inside))
                if inside != mask:
                    split.append((sig, mask ^ inside))
            parts = split
        return parts

    def _cone_sum(self, v: int, later: int, cap: int):
        """Sum of (-1)**|S| * P(A_v and every A_u, u in S) over the sets S
        of the events in the mask `later` with |S| < cap, in the system's
        unit (see `_numerator`).

        An outcome of A_v in exactly c of those events adds its weight
        times sum_{s < cap} (-1)**s * C(c, s), which is 1 for c = 0 and
        (-1)**(cap - 1) * C(c - 1, cap - 1) otherwise, 0 for 0 < c < cap.
        So with fewer than cap later events the sum is one mass query,
        P(A_v less their union), and otherwise one per count c = 0 and
        c >= cap, the outcomes of A_v split by count with `_count_masks`.
        """
        event = self.events[v]
        others = [self.events[u] for u in _bits(later)]
        if len(others) < cap:
            return self._numerator(event & ~reduce(operator.or_, others, 0))
        by_count = _count_masks(others, event)
        sign = 1 if cap % 2 else -1
        terms = [self._numerator(by_count[0])]
        terms += [
            self._numerator(by_count[c]) * (sign * math.comb(c - 1, cap - 1))
            for c in range(cap, len(by_count))
        ]
        return self._sum(terms)

    def _symmetric_sum(self, k: int):
        """S_k = sum of P(every event in I occurs) over all |I| = k, for
        0 <= k <= n, in the system's unit (see `_numerator`).

        With W_c the weight of the outcomes that lie in exactly c events,
        S_k is the binomial moment sum_c W_c * C(c, k); for RATIONAL
        weights W_c and S_k are integers.  `_count_masks` selects the
        outcomes of each count in O(n**2) big-integer operations, each W_c
        is one `_numerator` query, and the moments are cached.
        """
        if self._moments is None:
            n = self.event_count
            by_count = [self._numerator(m) for m in _count_masks(self.events, self.full_mask)]
            terms = [[by_count[c] * math.comb(c, k) for c in range(k, n + 1)] for k in range(n + 1)]
            self._moments = tuple(map(self._sum, terms))
        return self._moments[k]


class ProductSystem:
    """Independent on/off coordinates plus per-event required-coordinate
    masks over one backend.

    `probs[c]` is the probability that coordinate c is on; event j occurs
    when every coordinate in the mask `requires[j]` is on.  `mass`
    computes each product as it is asked for, and `_symmetric_sum`
    memoizes its sums.  On an exact backend whose coordinates all share
    one probability p (every symbolic network), the mass of a mask is
    p**k for its k coordinates, the powers kept by k; floats keep the
    product over the mask, so that their rounding does not depend on the
    probabilities being equal.
    """

    __slots__ = ("backend", "probs", "requires", "_zero", "_offs", "_powers", "_sums")

    def __init__(self, backend: Backend, probs, requires):
        probs = tuple(probs)
        requires = tuple(requires)
        _require_coordinate_cap(len(probs))
        if backend is RATIONAL:
            probs = tuple(Fraction(*_read_rational(p)) for p in probs)
        if backend.ordered:
            for p in probs:
                if not backend.zero <= p <= backend.one:
                    raise DomainError(f"coordinate probability {p} outside [0, 1]")
        if not requires:
            raise DomainError("an event system needs at least one event")
        for mask in requires:
            if mask >> len(probs):
                raise DomainError("event refers to coordinates outside the space")
        self.backend = backend
        self.probs = probs
        self.requires = requires
        self._zero = backend.zero
        self._offs = tuple(backend.one - p for p in probs)
        # p**0, p**1, ... while every coordinate has the same exact p, grown
        # on demand; None otherwise.
        self._powers = [backend.one] if backend.exact and len(set(probs)) == 1 else None
        self._sums: dict[int, object] = {}

    @property
    def event_count(self) -> int:
        return len(self.requires)

    def mass(self, mask: int):
        """Probability that every coordinate in `mask` is on: p**k for
        its k coordinates when they all share the exact p, else the
        product of their probabilities, lowest coordinate first."""
        powers = self._powers
        if powers is not None:
            k = mask.bit_count()
            while len(powers) <= k:
                powers.append(powers[-1] * self.probs[0])
            return powers[k]
        total = self.backend.one
        while mask:
            low = mask & -mask
            total = total * self.probs[low.bit_length() - 1]
            mask ^= low
        return total

    # A product system's unit is 1: its numerators are its masses.
    _numerator = mass

    def _value(self, total, divisor: int = 1):
        """`total` divided by the positive integer `divisor`."""
        return total if divisor == 1 else total / divisor

    def _combined_mask(self, index_set) -> int:
        """Coordinates required by some event in `index_set`."""
        mask = 0
        for i in _event_indices(index_set, self.event_count):
            mask |= self.requires[i]
        return mask

    def _union(self, requires=None):
        """Shannon expansion on coordinate c (arc factoring):
        U(F) = p_c U(F with c on) + (1 - p_c) U(F with c off), where F is
        the family of residual required-coordinate masks, at first
        `requires` (by default the events' own masks), and c the lowest
        coordinate of its smallest mask (`_branch_bit`): runs of length 4
        take 1.7 ms in 24 trials and 0.44 s in 200 (Python 3.11)."""
        one = self.backend.one
        probs, offs = self.probs, self._offs
        memo: dict[tuple[int, ...], object] = {}

        def union(family):
            # `family`: sorted, non-empty, pairwise incomparable, no empty mask.
            if len(family) == 1:
                return self.mass(family[0])
            value = memo.get(family)
            if value is not None:
                return value
            bit = _branch_bit(family)
            c = bit.bit_length() - 1
            on = _minimal([m & ~bit for m in family])
            value = probs[c] * (one if on[0] == 0 else union(on))
            off = tuple(m for m in family if not m & bit)
            if off:
                value = value + offs[c] * union(off)
            memo[family] = value
            return value

        family = _minimal(self.requires if requires is None else requires)
        return one if family[0] == 0 else union(family)

    def _atom(self, signature):
        """P(every coordinate of U on) * (1 - P(some residual is all on)):
        U is the union of the coordinates the events of the set
        `signature` require, and the residuals are the other events'
        masks less U, so they are independent of U.  An empty residual
        makes the atom 0."""
        inside = self._combined_mask(signature)
        residuals = [r & ~inside for i, r in enumerate(self.requires) if i not in signature]
        value = self.mass(inside)
        return value * (self.backend.one - self._union(residuals)) if residuals else value

    def _signatures(self):
        """(signature, on) pairs: each signature (event mask) of the
        coordinate assignments with non-zero probability, with the least
        such assignment's on-set; split by each event in turn, depth first.

        A part (i, sig, on, masks) holds the assignments with every
        coordinate of `on` on, no coordinate of probability 0 on, and no
        mask of `masks` all on; of the events before i, exactly those in
        `sig` occur.  It starts with `on` the coordinates of probability 1.
        Such a part is non-empty exactly when `on` itself is one of its
        assignments, so a split keeps a part only then, and each part
        that reaches the last event is one supported signature.  The walk
        stops with ResourceLimitError past MAX_SIGNATURE_NODES parts (nodes).
        """
        impossible = sum(1 << c for c, p in enumerate(self.probs) if p == self.backend.zero)
        certain = sum(1 << c for c, p in enumerate(self.probs) if p == self.backend.one)
        stack = [(0, 0, certain, ())]
        budget = iter(range(MAX_SIGNATURE_NODES))
        while stack:
            if next(budget, None) is None:
                raise ResourceLimitError(f"signature search exceeds {MAX_SIGNATURE_NODES} nodes")
            i, sig, on, masks = stack.pop()
            if i == self.event_count:
                yield sig, on
                continue
            required = self.requires[i]
            inside = on | required
            if not inside & impossible and all(m & ~inside for m in masks):
                stack.append((i + 1, sig | 1 << i, inside, masks))
            if required & ~on:
                stack.append((i + 1, sig, on, (*masks, required)))

    def _cone_sum(self, v: int, later: int, cap: int):
        """Sum of (-1)**|S| * P(A_v and every A_u, u in S) over the sets S
        of the events in the mask `later` with |S| < cap: one mass query
        per set, smallest sets first.
        """
        required = self.requires[v]
        others = [self.requires[u] for u in _bits(later)]
        total = self.mass(required)
        for size in range(1, min(len(others), cap - 1) + 1):
            for subset in combinations(others, size):
                p = self.mass(reduce(operator.or_, subset, required))
                total = total - p if size % 2 else total + p
        return total

    def _symmetric_sum(self, k: int):
        """S_k = sum of P(every event in I occurs) over all |I| = k, by
        enumerating the C(n, k) index sets.  The binomial moments would
        need the 2**m outcomes, and the reliability bounds ask for
        k <= 2 only."""
        value = self._sums.get(k)
        if value is None:
            value = self.backend.zero
            for index_set in combinations(self.requires, k):
                mask = 0
                for required in index_set:
                    mask |= required
                value = value + self.mass(mask)
            self._sums[k] = value
        return value


# '0'/'1' characters to 0/1 bytes, and back.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_BYTE_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# _BIT_DIGITS[k] maps a byte to the character '0' or '1' of its bit k.
_BIT_DIGITS = tuple(bytes(b"01"[x >> k & 1] for x in range(256)) for k in range(8))
# A column is bit-sliced while it has at least this many outcomes per bit
# of width.  A plane sum costs a few big-integer operations per bit, a
# selected sum about 30 ns per outcome whatever the mask.  Per query the
# planes stop winning near 8 outcomes per bit (about 25, 100 and 250 bits
# at 200, 700 and 2000 outcomes; Python 3.11, one Xeon core), and
# building them costs about 10 to 15 selected sums, so the rule keeps a
# factor of 2 for the build.
_OUTCOMES_PER_PLANE = 16


def _selector(mask: int) -> bytes:
    """One 0/1 byte per outcome, lowest bit first, for `compress`."""
    return format(mask, "b")[::-1].encode("ascii").translate(_BIT_BYTES)


def _bit_planes(numerators) -> tuple[int, tuple[int, ...]] | tuple[()]:
    """Bit-sliced form of an integer column: (low, planes), where low is
    the least numerator and planes[j] the mask of the outcomes whose
    numerator less low has bit j set (no planes when all are equal).
    () for a column wider than one bit per `_OUTCOMES_PER_PLANE`
    outcomes, which is summed outcome by outcome instead.

    The transpose is C-level: the numerators less low, last outcome
    first, become one fixed-width little-endian byte string, and plane j
    is every size-th byte from byte j // 8 on, translated to its bit
    j % 8 as '0'/'1' characters and read as a base-2 integer.
    """
    low = min(numerators)
    width = (max(numerators) - low).bit_length()
    if width * _OUTCOMES_PER_PLANE > len(numerators):
        return ()
    size = (width + 7) // 8
    offsets = map(operator.sub, reversed(numerators), repeat(low))
    data = b"".join(map(int.to_bytes, offsets, repeat(size), repeat("little")))
    planes = tuple(int(data[j // 8::size].translate(_BIT_DIGITS[j % 8]), 2) for j in range(width))
    return low, planes


def _id_mask(ids, count: int, name: str) -> int:
    """Mask with bit i set for each id i, where every id must be an int in
    0..count - 1.  The type and range checks are C-level passes over the
    ids, and the mask is built from one byte per bit."""
    ids = tuple(ids)
    for kind in set(map(type, ids)):
        if kind is bool or not issubclass(kind, int):
            _require_int(next(i for i in ids if type(i) is kind), f"{name} id")
    if ids and not (0 <= min(ids) and max(ids) < count):
        raise DomainError(f"{name} id {next(i for i in ids if not 0 <= i < count)} out of range")
    flags = bytearray(count)
    for i in ids:
        flags[i] = 1
    # The leading 0 keeps the digit string non-empty when count is 0.
    return int(b"0" + flags[::-1].translate(_BYTE_DIGITS), 2)


def _event_indices(index_set, event_count: int) -> set:
    """The distinct indices of `index_set`, which must be non-empty and lie
    in 0..event_count - 1."""
    indices = set(index_set)
    if not indices:
        raise DomainError("index set must be non-empty")
    for i in indices:
        if not 0 <= i < event_count:
            raise DomainError(f"event index {i} out of range")
    return indices


def _require_coordinate_cap(count: int) -> None:
    """A product space has at most MAX_PRODUCT_COORDS coordinates."""
    if count > MAX_PRODUCT_COORDS:
        raise ResourceLimitError(
            f"product space over {count} coordinates exceeds the cap of {MAX_PRODUCT_COORDS}"
        )


def _require_one_vertex_per_event(event_count: int, vertex_count: int) -> None:
    """A graph on the events of a system has one vertex per event."""
    if event_count != vertex_count:
        raise DomainError(f"system has {event_count} events but graph has {vertex_count} vertices")


def _count_masks(masks, full: int) -> list[int]:
    """`result[c]` selects the outcomes of `full` in exactly c of the n
    `masks`: each mask in turn moves the outcomes it holds from count c to
    c + 1, highest count first, in O(n**2) big-integer operations."""
    result = [full]
    for mask in masks:
        result.append(0)
        for c in range(len(result) - 1, 0, -1):
            result[c] |= result[c - 1] & mask
            result[c - 1] &= ~mask
    return result


def _minimal(masks) -> tuple[int, ...]:
    """Sorted masks of the family that contain no other mask of it."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if all(k & m != k for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


def _branch_bit(family) -> int:
    """Lowest bit of the first smallest mask of the sorted family."""
    m = min(family, key=int.bit_count)
    return m & -m


def from_outcomes(weights, events, backend: Backend = REAL) -> EventSystem:
    """Build a system from explicit outcome weights and events given as
    iterables of outcome ids.  RATIONAL weights may be ints, Fractions or
    rational strings ("7/873", "0.5", ...)."""
    weights = tuple(weights)
    masks = [_id_mask(event, len(weights), "outcome") for event in events]
    return EventSystem(backend, weights, masks)


def bernoulli_product(probs, event_defs, backend: Backend = REAL) -> ProductSystem:
    """Product space of independent on/off coordinates, in product form.

    `probs[i]` is the probability that coordinate i is on; event j occurs
    when every coordinate in `event_defs[j]` is on.  No outcome is ever
    built: intersections multiply coordinate probabilities, unions and
    atoms expand over coordinates, and `alpha_prime` splits coordinate
    assignments by event.  m is capped at MAX_PRODUCT_COORDS.  RATIONAL
    probabilities are read as `from_outcomes` reads weights: ints,
    Fractions or rational strings.
    """
    probs = tuple(probs)
    requires = [_id_mask(required, len(probs), "coordinate") for required in event_defs]
    return ProductSystem(backend, probs, requires)


def intersection_prob(sys, index_set):
    """Exact probability that every event in `index_set` occurs."""
    return sys.mass(sys._combined_mask(index_set))


def union_prob_exact(sys):
    """Exact probability of the union: outcome summation for explicit
    systems, Shannon expansion over coordinates for product systems.

    This is the independent oracle every bound is compared against; it
    never goes through inclusion-exclusion.
    """
    return sys._union()


def atom_prob(sys, signature):
    """Probability that exactly the events in `signature` occur."""
    return sys._atom(set(signature))


def alpha_prime(sys, g: Graph) -> int:
    """Sharpened denominator for the lower bounds.

    Maximum number of connected components of the induced subgraph g[J]
    over all non-empty J whose atom has non-empty support.  Support means
    outcomes with exactly non-zero weight, so the backend must allow a
    decidable zero test on an ordered domain.
    """
    if not sys.backend.ordered:
        raise DomainError(
            "sharpened denominator needs a backend with decidable support emptiness"
        )
    _require_one_vertex_per_event(sys.event_count, g.vertex_count)
    best = 1
    for sig, _ in sys._signatures():
        # g[J] has at most |J| components
        if sig.bit_count() > best:
            best = max(best, _component_count(g, sig))
    return best
