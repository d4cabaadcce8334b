"""Finite probability spaces carrying one event per graph vertex.

Two representations answer the same queries (`intersection_prob`,
`union_prob_exact`, `atom_prob`, `alpha_prime`, and the symmetric sums
behind the averaged bounds):

* EventSystem -- explicit outcome weights plus a bitmask of outcomes per
  event; every probability is one `mass` query, the sum of the outcome
  weights under a mask.  Float weights are summed in C by `math.fsum`.
  Exact weights are read into integer numerators on a common denominator
  per rational component, without a Fraction per outcome; a narrow
  column of them is also kept bit-sliced, so that a query costs a few
  big-integer operations per numerator bit instead of a step per
  outcome, and a column too wide for that is summed in C.  The total
  weight for the sum-to-one check is summed once, straight from the
  weights.  The symmetric sums are binomial moments of the number of
  events that occur, from one mass query per count, and `alpha_prime`
  splits the supported outcomes by event instead of testing each
  outcome.
* ProductSystem -- independent on/off coordinates plus a bitmask of
  required coordinates per event (built by `bernoulli_product`).  An
  intersection is a product of coordinate probabilities (p**k, memoized
  by k, when every coordinate has the same exact probability p) and the
  union is computed by Shannon expansion over coordinates, so the 2**m
  outcome space is built only for `atom_prob` and `alpha_prime`.

Both stay exact for rational and polynomial values; an explicit system's
float masses are correctly rounded.  Both check index sets with
`_event_indices`, and `_require_one_vertex_per_event` pairs the events
with the vertices of a graph for every caller.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import combinations, compress, repeat

from .errors import DomainError, ResourceLimitError, _require_int
from .graphs import Graph, _component_count
from .values import Backend, REAL

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

# Hard cap for the product-space constructor: `atom_prob` and `alpha_prime`
# materialize all 2**m outcomes.
MAX_PRODUCT_COORDS = 24


class EventSystem:
    """Outcome weights plus per-event outcome masks over one backend.

    Every probability is `mass(mask)`, the total weight of the outcomes a
    mask selects, and `mass` sums without a Python loop over outcomes.
    Float weights go through `math.fsum`, so each mass is correctly
    rounded.  Exact weights are kept as integer numerators over one common
    denominator per rational component.  A component whose numerators span
    at most one bit per 16 outcomes (`_OUTCOMES_PER_PLANE`) is also kept
    as bit planes, built on the first query, and a query sums popcounts
    per plane; a wider one is summed outcome by outcome in C.  A RATIONAL
    weight may be an int, a Fraction or a rational string such as
    "7/873"; a column of them is read straight into numerators and
    denominators (`values._read_rational_column`), and `weights` keeps
    the values as given.

    Instances are immutable once built; `mass` memoizes mask sums, seeded
    with the total weight, and `_symmetric_sum` computes every symmetric
    sum once, so that repeated bound evaluations over the same system stay
    cheap.
    """

    __slots__ = (
        "backend", "weights", "events", "_columns", "_planes", "_mass_cache", "_moments",
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
        if not backend.exact:
            for w in weights:
                if not math.isfinite(w):
                    raise DomainError(f"non-finite outcome weight {w}")
        self.backend = backend
        self.weights = weights
        self.events = events
        self._columns = _integer_columns(backend, weights) if backend.exact else None
        self._planes: tuple | None = None
        if self._columns is None:
            total = math.fsum(weights)
        else:
            total = backend.from_rationals(tuple(
                (sum(numerators), denominator) for numerators, denominator in self._columns
            ))
        # Seeded with the full mass, so that a system that is only checked,
        # or only asked for its support, never builds bit planes.
        self._mass_cache: dict[int, object] = {full: total}
        self._moments: tuple | None = None
        if not backend.sum_is_one(total):
            raise DomainError(f"outcome weights must sum to one, got {total}")
        if backend.ordered:
            if self._columns is None:
                lowest = min(weights)
            else:
                numerators, denominator = self._columns[0]
                lowest = Fraction(min(numerators), denominator)
            if lowest < 0:
                raise DomainError(f"negative outcome weight {lowest}")

    @property
    def outcome_count(self) -> int:
        return len(self.weights)

    @property
    def event_count(self) -> int:
        return len(self.events)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.weights)) - 1

    def mass(self, mask: int):
        """Total weight of the outcomes selected by `mask`.

        Float weights: the mask becomes one 0/1 byte per outcome (lowest
        bit first), `itertools.compress` picks the summands in C and
        `math.fsum` adds them.  Exact weights: each bit-sliced column (see
        `_bit_planes`, built on the first query) sums to
        low * popcount(mask) + sum_j popcount(mask & planes[j]) << j, and
        a column too wide for planes is summed like the floats, over its
        integer numerators.
        """
        cached = self._mass_cache.get(mask)
        if cached is not None:
            return cached
        if self._columns is None:
            total = math.fsum(compress(self.weights, _selector(mask)))
        else:
            if self._planes is None:
                self._planes = tuple(_bit_planes(numerators) for numerators, _ in self._columns)
            select = None if all(self._planes) else _selector(mask)
            parts = []
            for (numerators, denominator), sliced in zip(self._columns, self._planes):
                if sliced is None:
                    numerator = sum(compress(numerators, select))
                else:
                    low, planes = sliced
                    numerator = low * mask.bit_count()
                    for j, plane in enumerate(planes):
                        numerator += (mask & plane).bit_count() << j
                parts.append((numerator, denominator))
            total = self.backend.from_rationals(tuple(parts))
        self._mass_cache[mask] = total
        return total

    def _support(self) -> int:
        """Mask of the outcomes with non-zero weight (exact zero test)."""
        if self._columns is None:
            flags = bytes(map(bool, self.weights))
        else:
            flags = bytes(map(any, zip(*(numerators for numerators, _ in self._columns))))
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

    def _outcomes(self) -> EventSystem:
        return self

    def _symmetric_sum(self, k: int):
        """S_k = sum of P(every event in I occurs) over all |I| = k, for
        0 <= k <= n.

        With W_c the weight of the outcomes that lie in exactly c events,
        S_k is the binomial moment sum_c W_c * C(c, k).  `_count_masks`
        selects the outcomes of each count in a few big-integer operations
        per event, each W_c is one mass query, and the moments are cached.
        """
        if self._moments is None:
            backend, n = self.backend, self.event_count
            by_count = [self.mass(mask) for mask in _count_masks(self.events, self.full_mask)]
            terms = [[by_count[c] * math.comb(c, k) for c in range(k, n + 1)] for k in range(n + 1)]
            self._moments = tuple(
                sum(t, backend.zero) if backend.exact else math.fsum(t) for t in terms
            )
        return self._moments[k]


class ProductSystem:
    """Independent on/off coordinates plus per-event required-coordinate
    masks over one backend.

    `probs[c]` is the probability that coordinate c is on; event j occurs
    when every coordinate in the mask `requires[j]` is on.  `mass`
    memoizes coordinate-mask products and `_symmetric_sum` its sums.  On an
    exact backend whose coordinates all share one probability p (every
    symbolic network), the mass of a mask is p**k for its k coordinates,
    memoized by k; floats keep the product over the mask, so that their
    rounding does not depend on the probabilities being equal.
    """

    __slots__ = ("backend", "probs", "requires", "_offs", "_shared", "_mass_cache", "_sums")

    def __init__(self, backend: Backend, probs, requires):
        probs = tuple(probs)
        requires = tuple(requires)
        if len(probs) > MAX_PRODUCT_COORDS:
            raise ResourceLimitError(
                f"product space over {len(probs)} coordinates exceeds the cap of {MAX_PRODUCT_COORDS}"
            )
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
        self._offs = tuple(backend.one - p for p in probs)
        self._shared = backend.exact and len(set(probs)) == 1
        self._mass_cache: dict[int, object] = {}
        self._sums: dict[int, object] = {}

    @property
    def event_count(self) -> int:
        return len(self.requires)

    def mass(self, mask: int):
        """Probability that every coordinate in `mask` is on."""
        if self._shared:
            k = mask.bit_count()
            total = self._mass_cache.get(k)
            if total is None:
                total = self._mass_cache[k] = self.backend.one * self.probs[0] ** k
            return total
        cached = self._mass_cache.get(mask)
        if cached is not None:
            return cached
        total = self.backend.one
        m = mask
        while m:
            low = m & -m
            total = total * self.probs[low.bit_length() - 1]
            m ^= low
        self._mass_cache[mask] = total
        return total

    def _combined_mask(self, index_set) -> int:
        """Coordinates required by some event in `index_set`."""
        mask = 0
        for i in _event_indices(index_set, self.event_count):
            mask |= self.requires[i]
        return mask

    def _union(self):
        """Shannon expansion on coordinate c (arc factoring):
        U(F) = p_c U(F with c on) + (1 - p_c) U(F with c off), where F is
        the family of residual required-coordinate masks."""
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
            bit = _most_required(family)
            c = bit.bit_length() - 1
            on = _minimal([m & ~bit for m in family])
            value = probs[c] * (one if on[0] == 0 else union(on))
            off = tuple(m for m in family if not m & bit)
            if off:
                value = value + offs[c] * union(off)
            memo[family] = value
            return value

        family = _minimal(self.requires)
        return one if family[0] == 0 else union(family)

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

    def _outcomes(self) -> EventSystem:
        """The explicit 2**m outcome space; outcome s has bit i set iff
        coordinate i is on."""
        weights = [self.backend.one]
        for p, off in zip(self.probs, self._offs):
            weights = [w * off for w in weights] + [w * p for w in weights]
        masks = []
        for required in self.requires:
            indicator = 1
            for i in range(len(self.probs)):
                if (required >> i) & 1:
                    indicator <<= 1 << i
                else:
                    indicator |= indicator << (1 << i)
            masks.append(indicator)
        return EventSystem(self.backend, weights, masks)


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


def _integer_columns(backend: Backend, weights) -> tuple[tuple[list[int], int], ...]:
    """Exact weights as (numerators, denominator) per rational component:
    component j of outcome o's weight is numerators[o] / denominator, with
    the least common denominator of that component over all outcomes.
    The weights are read as integer pairs, so no Fraction is built per
    outcome."""
    columns = []
    for component in backend.pair_columns(weights):
        numerators, denominators = zip(*component)
        denominator = math.lcm(*set(denominators))
        scales = map(denominator.__floordiv__, denominators)
        columns.append((list(map(operator.mul, numerators, scales)), denominator))
    return tuple(columns)


def _bit_planes(numerators) -> tuple[int, tuple[int, ...]] | None:
    """Bit-sliced form of an integer column: (low, planes), where low is
    the least numerator and planes[j] the mask of the outcomes whose
    numerator less low has bit j set (no planes when all are equal).
    None for a column wider than one bit per `_OUTCOMES_PER_PLANE`
    outcomes, which is summed outcome by outcome instead.

    The transpose is C-level: the numerators less low, last outcome
    first, become one fixed-width little-endian byte string, and plane j
    is every size-th byte from byte j // 8 on, translated to its bit
    j % 8 as '0'/'1' characters and read as a base-2 integer.
    """
    low = min(numerators)
    width = (max(numerators) - low).bit_length()
    if width * _OUTCOMES_PER_PLANE > len(numerators):
        return None
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


def _require_one_vertex_per_event(event_count: int, vertex_count: int) -> None:
    """A graph on the events of a system has one vertex per event."""
    if event_count != vertex_count:
        raise DomainError(f"system has {event_count} events but graph has {vertex_count} vertices")


def _count_masks(masks, full: int) -> list[int]:
    """`result[c]` selects the outcomes of `full` that lie in exactly c of
    the n `masks`, for c = 0..n.

    Each outcome's count is kept in binary across bit planes (plane i
    holds bit i of every count), and each mask is added by a ripple carry,
    so the cost is a few big-integer operations per mask and count.
    """
    planes: list[int] = []
    for carry in masks:
        for i, plane in enumerate(planes):
            planes[i] = plane ^ carry
            carry &= plane
        if carry:
            planes.append(carry)
    result = []
    for c in range(len(masks) + 1):
        select = 0 if c >> len(planes) else full
        for i, plane in enumerate(planes):
            select &= plane if (c >> i) & 1 else ~plane
        result.append(select)
    return result


def _minimal(masks) -> tuple[int, ...]:
    """Sorted masks of the family that contain no other mask of it."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if all(k & m != k for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


def _most_required(family) -> int:
    """Bit of the coordinate the most masks need; the lowest on ties."""
    counts: dict[int, int] = {}
    for m in family:
        while m:
            low = m & -m
            counts[low] = counts.get(low, 0) + 1
            m ^= low
    return max(counts, key=lambda b: (counts[b], -b))


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
    when every coordinate in `event_defs[j]` is on.  No outcome is built
    here: queries multiply coordinate probabilities, and only `atom_prob`
    and `alpha_prime` materialize the 2**m outcomes, which is why m is
    capped at MAX_PRODUCT_COORDS.
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
    sys = sys._outcomes()
    inter = sys._combined_mask(signature)
    others = 0
    sig = set(signature)
    for i, mask in enumerate(sys.events):
        if i not in sig:
            others |= mask
    return sys.mass(inter & ~others & sys.full_mask)


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
    sys = sys._outcomes()
    # Split the supported outcomes by each event in turn; each part left
    # is the non-empty set of outcomes of one signature.
    parts = [(0, sys._support())]
    for i, event in enumerate(sys.events):
        split = []
        for sig, mask in parts:
            inside = mask & event
            if inside:
                split.append((sig | 1 << i, inside))
            if inside != mask:
                split.append((sig, mask ^ inside))
        parts = split
    best = 1
    for sig, _ in parts:
        # g[J] has at most |J| components
        if sig.bit_count() > best:
            best = max(best, _component_count(g, sig))
    return best
