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
  a step per outcome, and the total, the least weight and the support are
  read from its planes; every other column is summed in C, floats by
  `math.fsum`, integers and polynomials with `+`.  The symmetric
  sums are binomial moments of the number of events that occur, from one
  numerator query per count.  On a chordal graph `alpha_prime` counts,
  per outcome, the events that end a component of g[J], over one cone
  mask per vertex; on any other graph it splits the supported outcomes
  by each event in turn.  An atom is one mass query, and so is an
  untruncated cone; a truncated one is one per count of later events.
* ProductSystem -- independent on/off coordinates plus a bitmask of
  required coordinates per event (built by `bernoulli_product`).  An
  intersection is a product of coordinate probabilities and the union a
  Shannon expansion over coordinates that branches on the lowest
  coordinate of the smallest residual mask (success runs in 100 trials:
  5 ms).  An atom is the mass of the coordinates its events require
  times one minus the Shannon union of the other events' residual masks,
  and `alpha_prime` splits the coordinate assignments by event, keeping
  each part as its least on-set, so no outcome is ever built.  The
  symmetric and cone sums enumerate their index sets.  On an exact
  system the union and the sums add integer numerators: over D**m for
  RATIONAL probabilities a_c / D, the sums taking each distinct union of
  required coordinates once per chunk of index sets, and packed
  coefficients of p, in one lane wide enough for both, when every
  coordinate shares one polynomial p.  A mask's numerator is looked up by
  coordinate count under a shared polynomial p, else folded over its
  on-factors.

A cone sum takes the base of a cone (see `graphs._cones`), a tuple of
events whose intersection stands where one event would: a chordal graph's
cones have one event each, so their sums read that event and nothing
more, and only a non-chordal graph's walk makes longer bases.

Both stay exact for rational and polynomial values; an explicit system's
float masses are correctly rounded.  Every query on both systems is
`_value` of a `_numerator` or of a sum of them: a numerator is a mask's
probability in the system's unit, an integer over one common denominator
on a RATIONAL system, a packed integer coefficient list of a shared
polynomial p on a product system and the probability itself elsewhere,
so that a mass, a union or a bound adds in that unit and makes one value
of its sum.  Both check
index sets with `_event_indices`, and `_require_one_vertex_per_event`
pairs the events with the vertices of a graph for every caller.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, compress, islice, repeat

from .errors import DomainError, ResourceLimitError, _exact_str, _repr, _require_int, _to_float
from .graphs import Graph, _bits, _component_count
from .poly import P, Polynomial
from .values import RATIONAL, REAL, Backend, _read_rational_column

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
# trials take 20 ms, and other unions may still expand exponentially in m.
MAX_PRODUCT_COORDS = 24

# Masks a product system's exact sum counts at once (`_add_masses`): a
# `Counter` of that many distinct masks takes about 6 MB, and 2**21 index
# sets over 24 coordinates take 32 chunks, whose numerators cost little.
_MASK_CHUNK = 1 << 16

# Most nodes (parts) of a product system's signature walk; `bounds all`
# stops at it after 0.7 to 0.8 s (README "Caps"; Python 3.11, one Xeon core).
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
    (`_OUTCOMES_PER_PLANE`) is also kept as bit planes, built with the
    system, and a query sums popcounts per plane.  REAL and POLYNOMIAL
    weights are their own column, with no D, and REAL sums go through
    `math.fsum`, so each mass is correctly rounded.  Every other column is
    summed outcome by outcome in C; `weights` keeps the values as given.

    Instances are immutable once built; `_numerator` memoizes mask sums,
    seeded with the total weight, `_symmetric_sum` computes every
    symmetric sum once, and `_memo` keeps the brackets and graph
    denominators of `bounds`, so that repeated bound evaluations over the
    same system stay cheap.
    """

    __slots__ = (
        "backend", "weights", "events", "_summands", "_denominator", "_zero", "_planes",
        "_mass_cache", "_moments", "_memo",
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
        self.backend = backend
        self.weights = weights
        self.events = events
        # The summand column in the system's unit; only RATIONAL has a D,
        # and only a narrow RATIONAL column has bit planes (low, planes).
        if backend is RATIONAL:
            self._summands, self._denominator = _read_rational_column(weights)
            self._zero, self._planes = 0, _bit_planes(self._summands)
        else:
            self._summands, self._denominator, self._zero, self._planes = weights, None, backend.zero, ()
        # Seeded with the full mass, which the planes sum as any other mask.
        self._mass_cache: dict[int, object] = {}
        if not self._planes:
            self._mass_cache[full] = self._sum(self._summands) if backend.exact else _real_total(weights)
        full_numerator = self._numerator(full)
        self._moments: tuple | None = None
        self._memo: dict = {}
        total = self._value(full_numerator)
        if not backend.sum_is_one(total):
            raise DomainError(f"outcome weights must sum to one, got {_exact_str(total)}")
        if backend.ordered:
            lowest = self._planes[0] if self._planes else min(self._summands)
            if lowest < 0:
                raise DomainError(f"negative outcome weight {_exact_str(self._value(lowest))}")

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

        A RATIONAL column narrow enough for bit planes (see `_bit_planes`)
        sums to low * popcount(mask) + sum_j popcount(mask & planes[j]) << j.
        Any other column has the mask made one 0/1 byte per outcome (lowest
        bit first): `itertools.compress` picks the summands in C, and
        `math.fsum` or `sum` adds them.
        """
        cached = self._mass_cache.get(mask)
        if cached is not None:
            return cached
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
        """Mask of the outcomes with non-zero weight (exact zero test); with
        bit planes (no numerator negative), every outcome if the least
        numerator is positive, else the union of the planes."""
        if self._planes:
            low, planes = self._planes
            return self.full_mask if low else reduce(operator.or_, planes, 0)
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
        left is the non-empty set of outcomes of one signature.  Only
        `alpha_prime` on a graph with no perfect elimination order reads it.
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

    def _cone_sum(self, base, later: int, cap: int):
        """Sum of (-1)**|S| * P(A_B and every A_u, u in S) over the sets S
        of the events in the mask `later` with |S| < cap, where A_B is the
        intersection of the events of the tuple `base`, in the system's
        unit (see `_numerator`).

        An outcome of A_B in exactly c of those events adds its weight
        times sum_{s < cap} (-1)**s * C(c, s), which is 1 for c = 0 and
        (-1)**(cap - 1) * C(c - 1, cap - 1) otherwise, 0 for 0 < c < cap.
        So with fewer than cap later events the sum is one mass query,
        P(A_B less their union), and otherwise one per count c = 0 and
        c >= cap, the outcomes of A_B split by count with `_count_masks`.
        At cap 1 the sum is P(A_B), whatever `later` holds.
        """
        event = self.events[base[0]] if len(base) == 1 else self._combined_mask(base)
        others = [self.events[u] for u in _bits(later)] if cap > 1 else []
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
        is one `_numerator` query, and the moments are cached.  Only S_0,
        the total weight, which no bracket reads, queries W_0.
        """
        if k == 0:
            return self._sum([self._numerator(m) for m in _count_masks(self.events, self.full_mask)])
        if self._moments is None:
            n = self.event_count
            by_count = [None, *map(self._numerator, _count_masks(self.events, self.full_mask)[1:])]
            terms = [[by_count[c] * math.comb(c, k) for c in range(k, n + 1)] for k in range(1, n + 1)]
            self._moments = (None, *map(self._sum, terms))
        return self._moments[k]


class ProductSystem:
    """Independent on/off coordinates plus per-event required-coordinate
    masks over one backend.

    `probs[c]` is the probability that coordinate c is on; event j occurs
    when every coordinate in the mask `requires[j]` is on.  As on an
    explicit system, every query is `_value` of a `_numerator` or of a
    sum of them: `_numerator` gives a mask's probability in the system's
    unit, by its coordinate count under a shared polynomial p and else by
    one left fold of on-factors, `mass` is the value of one, the sums add
    numerators, and the union also scales them by coordinate factors
    (`_factors`).  The unit depends on the backend:

    * RATIONAL: with D the common denominator of the probabilities a_c / D
      that `values._read_rational_column` gives, a mask's numerator is
      prod_{c in mask} a_c * D**(m - |mask|), an integer over D**m, folded
      the same way whether or not the coordinates share one p; a
      coordinate's factors are a_c and D - a_c, over the divisor D, and
      `_value` makes one Fraction.
    * POLYNOMIAL with one p shared by every coordinate (every symbolic
      network): a mask of k coordinates is p**k, and its numerator the
      integer 1 << lane*k, the coefficients of p**k packed one per lane of
      `_packed_lane` bits; its factors are 1 << lane and 1 - (1 << lane),
      and `_value` unpacks a sum once into one Polynomial.
    * any other system: the unit is 1 and a numerator is the mass, the
      product over the mask in backend arithmetic, and the factors p_c and
      1 - p_c, so floats keep that product and the order of every sum, and
      their rounding does not depend on the probabilities being equal.

    `_symmetric_sum` memoizes its sums, and `_memo` keeps the brackets and
    graph denominators of `bounds`, so that repeated bound evaluations
    over the same system stay cheap.
    """

    __slots__ = (
        "backend", "probs", "requires", "_zero", "_denominator", "_lane", "_by_count", "_scales",
        "_factors", "_low_products", "_sums", "_memo",
    )

    def __init__(self, backend: Backend, probs, requires):
        probs = tuple(probs)
        requires = tuple(requires)
        _require_coordinate_cap(len(probs))
        for p in probs:  # a bool would read as 0 or 1
            if isinstance(p, bool):
                raise DomainError(f"coordinate probability must be a number, got {_repr(p)}")
        if backend is RATIONAL:
            ons, unit = _read_rational_column(probs)
            probs = tuple(map(Fraction, ons, repeat(unit)))
        if backend.ordered:
            for p in probs:
                if not backend.zero <= p <= backend.one:
                    raise DomainError(f"coordinate probability {_exact_str(p)} outside [0, 1]")
        if not requires:
            raise DomainError("an event system needs at least one event")
        for mask in requires:
            if mask >> len(probs):
                raise DomainError("event refers to coordinates outside the space")
        self.backend = backend
        self.probs = probs
        self.requires = requires
        m = len(probs)
        # The unit: 1 / D**m for RATIONAL, packed coefficients of p for a
        # polynomial p shared by every coordinate, else 1 (all None); by
        # coordinate count k, D**(m - k) and the packed p**k.  `_factors`:
        # each coordinate's on and off factors, and the divisor back to the
        # unit.  `count` finds a repeated p by identity, with no hash or
        # comparison.
        self._denominator = self._lane = self._by_count = self._scales = None
        self._zero = 0
        if backend is RATIONAL:
            self._factors = tuple(ons), tuple(unit - a for a in ons), unit
            self._denominator = unit**m
            self._scales = [unit ** (m - k) for k in range(m + 1)]
        elif backend.exact and probs and probs.count(probs[0]) == m:
            self._lane = _packed_lane(len(requires), m)
            self._by_count = [1 << self._lane * k for k in range(m + 1)]
            self._factors = (1 << self._lane,) * m, (1 - (1 << self._lane),) * m, 1
        else:
            self._zero = backend.zero
            self._factors = probs, tuple(backend.one - p for p in probs), 1
        self._low_products: list | None = None  # built on first use (`_numerator`)
        self._sums: dict[int, object] = {}
        self._memo: dict = {}

    @property
    def event_count(self) -> int:
        return len(self.requires)

    def mass(self, mask: int):
        """Probability that every coordinate in `mask` is on: the value of
        the mask's `_numerator`, as on an explicit system."""
        return self._value(self._numerator(mask))

    def _numerator(self, mask: int):
        """`mass(mask)` as a numerator in the system's unit.  With one
        polynomial p on every coordinate it is the entry of `_by_count` for
        the mask's k coordinates, the packed p**k, 1 << lane*k.  Any other
        system folds the mask's on-factors (p_c, or a_c on RATIONAL, shared
        or not), lowest first: the low byte's entry of `_low_products`,
        built on first use for every subset of the lowest 8 coordinates,
        then each higher one; a RATIONAL product is then scaled by
        D**(m - k) (`_scales`)."""
        if self._by_count is not None:
            return self._by_count[mask.bit_count()]
        ons = self._factors[0]
        low_products = self._low_products
        if low_products is None:
            low_products = [self.backend.one if self._scales is None else 1]
            for p in ons[:8]:
                low_products += [total * p for total in low_products]
            self._low_products = low_products
        total = low_products[mask & 0xFF]
        high = mask & ~0xFF
        while high:
            low = high & -high
            total = total * ons[low.bit_length() - 1]
            high ^= low
        return total if self._scales is None else total * self._scales[mask.bit_count()]

    def _value(self, total, divisor: int = 1):
        """The value of `total`, a sum of numerators in the system's unit
        (see `_numerator`), divided by the positive integer `divisor`: one
        Fraction over D**m * divisor on a RATIONAL system.  On a shared
        polynomial p, `total` unpacks to the integer coefficients of a
        polynomial in p, and the value is that polynomial over `divisor`
        when p is the indeterminate P, else that one taken at p.  Only the
        lanes `total` occupies are read, at most m + 1: the mass p**k of k
        coordinates reads k + 1."""
        if self._denominator is not None:
            return Fraction(total, self._denominator * divisor)
        if (lane := self._lane) is not None:
            count = min(abs(total).bit_length() // lane + 1, len(self.probs) + 1)
            value = Polynomial._make(_unpack(total, lane, count), divisor)
            p = self.probs[0]
            return value if p is P or type(p) is Polynomial and p == P else self.backend.one * value(p)
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
        coordinate of its smallest mask (`_branch_bit`).  Only `requires`
        goes through `_minimal`; each step builds its on-branch family
        from the masks that hold c, less c, and the masks without c that
        contain none of those.

        The expansion runs in the system's unit: a leaf, a single mask, is
        its `_numerator`, one is `_numerator(0)`, and p_c and 1 - p_c are
        the coordinate's factors (`_factors`), so `_value` makes one value
        of the result.  On a RATIONAL system they are a_c and D - a_c, and
        each node divides its sum by D exactly: no mask of either branch
        holds c, so every numerator there carries D for c.  With a shared
        polynomial p they are the packed p and 1 - p, and U is an integer
        polynomial in p whose coefficients the lane holds (`_packed_lane`).
        Elsewhere they are p_c and 1 - p_c themselves, multiplied and added
        as they read, so floats keep one rounding.  Runs of length 4 at
        RATIONAL p = 3/10 take 0.33 ms in 24 trials (Python 3.11)."""
        family = _minimal(self.requires if requires is None else requires)
        numerator = self._numerator
        ons, offs, divisor = self._factors
        one = numerator(0)
        memo: dict[tuple[int, ...], object] = {}

        def union(family):
            # `family`: sorted, non-empty, pairwise incomparable; only a
            # family of one mask may hold the empty mask, a certain event.
            if len(family) == 1:
                return numerator(family[0])
            value = memo.get(family)
            if value is not None:
                return value
            bit = _branch_bit(family)
            c = bit.bit_length() - 1
            # `held` keeps the family's order, so a mask emptied by c is first.
            held = [m ^ bit for m in family if m & bit]
            off = tuple(m for m in family if not m & bit)
            if held[0] == 0:
                value = ons[c] * one
            else:
                # The masks of `held` are pairwise incomparable and contain
                # no mask of `off`, so the minimal masks of the on-branch
                # are `held` and the masks of `off` that contain none of it.
                kept = []
                for m in off:
                    for h in held:
                        if h & m == h:
                            break
                    else:
                        kept.append(m)
                value = ons[c] * union(tuple(sorted(held + kept)))
            if off:
                value = value + offs[c] * union(off)
            if divisor != 1:
                value //= divisor
            memo[family] = value
            return value

        return self._value(union(family))

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

    def _add_masses(self, total, masks, sign: int):
        """`total` plus `sign` (+1 or -1) times the numerators of `masks`,
        in the system's unit.  With a shared polynomial p the numerators
        are looked up by coordinate count in C; other exact ones, RATIONAL
        included, are taken once per distinct mask in each chunk of
        `_MASK_CHUNK` masks (`Counter`).  Both are added in any order;
        floats are added one by one, in the order of `masks`, so that the
        rounding is that order's."""
        if self._by_count is not None:
            part = sum(map(self._by_count.__getitem__, map(int.bit_count, masks)))
            return total + part if sign > 0 else total - part
        if self.backend.exact:
            part, masks = self._zero, iter(masks)
            while counts := Counter(islice(masks, _MASK_CHUNK)):
                part = sum(map(operator.mul, map(self._numerator, counts), counts.values()), part)
            return total + part if sign > 0 else total - part
        for numerator in map(self._numerator, masks):
            total = total + numerator if sign > 0 else total - numerator
        return total

    def _cone_sum(self, base, later: int, cap: int):
        """Sum of (-1)**|S| * P(every A_u, u in the tuple `base` or in S)
        over the sets S of the events in the mask `later` with |S| < cap,
        in the system's unit (see `_numerator`): the base's numerator, then
        the sets S of each size in turn, smallest first."""
        required = self.requires[base[0]] if len(base) == 1 else self._combined_mask(base)
        others = [self.requires[u] for u in _bits(later)]
        total = self._numerator(required)
        for size in range(1, min(len(others), cap - 1) + 1):
            unions = map(reduce, repeat(operator.or_), combinations(others, size), repeat(required))
            total = self._add_masses(total, unions, -1 if size % 2 else 1)
        return total

    def _symmetric_sum(self, k: int):
        """S_k = sum of P(every event in I occurs) over all |I| = k, in the
        system's unit (see `_numerator`), by enumerating the C(n, k) index
        sets.  Exact sums add integer numerators (`_add_masses`): `bounds
        all` on 21 success-run windows over 24 RATIONAL coordinates lists
        all 2**21 sets, and takes about the same time whether the windows
        share one probability or not.  A
        Shannon expansion over the coordinates carrying E[(1 + y)**N], N
        the number of events that occur, would give every S_k without
        listing the sets; the enumeration stays because reliability asks
        only for k <= 2, where that expansion was 11-21 times slower on
        symbolic ladders."""
        value = self._sums.get(k)
        if value is None:
            unions = map(reduce, repeat(operator.or_), combinations(self.requires, k), repeat(0))
            value = self._sums[k] = self._add_masses(self._zero, unions, 1)
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
# Most ids `_id_mask` or-s together one by one.  Shift-or took 0.3 us for
# 2 ids and 1.4 us for 16, the byte scatter 1.2 and 2.2 us, and the two
# draw level near 24 ids (Python 3.11.7, best of 7, shared 2-core host).
_SHORT_IDS = 16


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
    first, become one fixed-width little-endian byte string (one `bytes`
    call up to 8 bits), and plane j is every size-th byte from byte j // 8
    on, translated to its bit j % 8 as '0'/'1' characters and read as a
    base-2 integer.
    """
    low = min(numerators)
    width = (max(numerators) - low).bit_length()
    if width * _OUTCOMES_PER_PLANE > len(numerators):
        return ()
    size = (width + 7) // 8
    offsets = reversed(numerators) if low == 0 else map(operator.sub, reversed(numerators), repeat(low))
    data = bytes(offsets) if size == 1 else b"".join(map(int.to_bytes, offsets, repeat(size), repeat("little")))
    planes = tuple(int(data[j // 8::size].translate(_BIT_DIGITS[j % 8]), 2) for j in range(width))
    return low, planes


def _id_mask(ids, count: int, name: str) -> int:
    """Mask with bit i set for each id i, where every id must be an int in
    0..count - 1.  At most `_SHORT_IDS` plain ints in range are or-ed
    together, more are scattered into one byte each in one pass that
    checks each is a non-negative plain int.  Any other list is scattered
    again; then one type pass and one check for negatives (a bytearray
    takes -count..-1 from its end) run in C, and name any refused id.
    `ids` that is no iterable is named too."""
    try:
        ids = tuple(ids)
    except TypeError:
        raise DomainError(f"an event lists {name} ids, got {_repr(ids)}") from None
    if len(ids) <= _SHORT_IDS:
        mask = 0
        for i in ids:
            if type(i) is not int or not 0 <= i < count:
                break  # named by the checks below
            mask |= 1 << i
        else:
            return mask
    flags = bytearray(count)
    try:
        for i in ids:
            if type(i) is not int or i < 0:
                break  # scattered again below, where the checks name it
            flags[i] = 1
        else:
            return int(b"0" + flags[::-1].translate(_BYTE_DIGITS), 2)
        for i in ids:
            flags[i] = 1
    except (IndexError, TypeError):
        flags = None  # an id out of range or not an index, named below
    for kind in set(map(type, ids)):
        if kind is bool or not issubclass(kind, int):
            _require_int(next(i for i in ids if type(i) is kind), f"{name} id")
    if flags is None or (ids and min(ids) < 0):
        raise DomainError(f"{name} id {_exact_str(next(i for i in ids if not 0 <= i < count))} out of range")
    # The leading 0 keeps the digit string non-empty when count is 0.
    return int(b"0" + flags[::-1].translate(_BYTE_DIGITS), 2)


def _real_total(weights) -> float:
    """`math.fsum` of a REAL column; DomainError names its first non-finite
    weight, or int or Fraction past the float range.  A column whose
    running sum leaves the float range is added exactly and rounded once,
    to +-inf only if the total is past it."""
    try:
        total = math.fsum(weights)
    except (OverflowError, ValueError, TypeError):  # a bad weight, named below, or that running sum
        total = math.nan
    if not math.isfinite(total):
        for w in weights:
            if not math.isfinite(_to_float(w, "outcome weight") if isinstance(w, (int, Fraction)) else w):
                raise DomainError(f"non-finite outcome weight {w}")
        scale = 2 ** len(weights).bit_length()  # the quotient fits a float
        total = float(sum(map(Fraction, weights)) / scale) * scale
    return total


def _event_indices(index_set, event_count: int) -> set:
    """The distinct indices of `index_set`, which must be non-empty and lie
    in 0..event_count - 1."""
    indices = set(index_set)
    if not indices:
        raise DomainError("index set must be non-empty")
    for i in indices:
        if not 0 <= i < event_count:
            raise DomainError(f"event index {_exact_str(i)} out of range")
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


def _unpack(packed: int, lane: int, count: int) -> list[int]:
    """The `count` signed lanes of `lane` bits of `packed`, lowest first:
    the coefficients c_j of packed = sum_j c_j << lane*j, each with
    |c_j| < 2**(lane - 1)."""
    full, half = (1 << lane) - 1, 1 << lane - 1
    coefficients = []
    for _ in range(count):
        c = packed & full
        if c >= half:
            c -= 1 << lane
        coefficients.append(c)
        packed = (packed - c) >> lane
    return coefficients


def _packed_lane(events: int, coords: int) -> int:
    """Lane width, in bits, of the packed numerators of a shared-p system
    with n = `events` events over m = `coords` coordinates: wide enough
    that `_unpack` reads back its union and every bracket of `bounds`.
    A sum of numerators 1 << lane*j reads back while each coefficient c_j
    has |c_j| < 2**(lane - 1).

    A union over m coordinates is the sum of p**|S| (1 - p)**(m - |S|)
    over the on-sets S in it, so |c_j| <= C(m, j) * 2**j <= 3**m, and
    every memo value of the expansion is the union of a family over the
    same coordinates, bound alike: 3**m < 2**(lane - 2).

    A bracket adds the numerators of its index sets with integer weights,
    so |c_j| is at most the sum W of their absolute values.  A clique
    bracket weighs each clique +-1 and a classical one each index set, so
    W <= 2**n.  An averaged bracket of order m' weighs S_k by
    a_k * L / b_k, for the scale L = lcm(b_k) (`bounds._moment_bracket`),
    and S_k holds C(n, k) sets; so W <= L * n**2 * 2**n, where L divides
    lcm(1..n + 1) * lcm(1..n) < 3**(2n + 1) (Hanson 1972: lcm(1..N) <
    3**N).  So W < 3 * 18**n * n**2 < 2**(lane - 1)."""
    return max((3 * 18**events * events * events).bit_length() + 1, (3**coords).bit_length() + 2)


def _branch_bit(family) -> int:
    """Lowest bit of the first smallest mask of the sorted family."""
    m = min(family, key=int.bit_count)
    return m & -m


def from_outcomes(weights, events, backend: Backend = REAL) -> EventSystem:
    """Build a system from explicit outcome weights and events given as
    iterables of outcome ids.  RATIONAL weights may be ints, Fractions or
    rational strings ("7/873", "0.5", ...), and a bool is a DomainError."""
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
    Fractions or rational strings.  A bool probability is a DomainError on
    every backend.
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

    On an explicit system with a chordal g no signature is listed.  Along
    g's perfect elimination order, with L(v) the later neighbours of v,
    each component of g[J] has exactly one vertex with no later neighbour
    in J, its last: the components of g[J] number #{v in J : L(v) and J
    are disjoint}.  So an outcome's count is the number of cone masks, A_v
    less the union of the A_u for u in L(v), that hold it; one
    `_count_masks` over those masks splits the support by count, and the
    highest count present is the denominator.  Product systems and any
    other graph walk the signatures (`_signatures`), one component count
    each.
    """
    if not sys.backend.ordered:
        raise DomainError(
            "sharpened denominator needs a backend with decidable support emptiness"
        )
    _require_one_vertex_per_event(sys.event_count, g.vertex_count)
    if isinstance(sys, EventSystem) and g._elimination_order is not None:
        events = sys.events
        lasts = [events[v] & ~reduce(operator.or_, [events[u] for u in _bits(later)], 0)
                 for (v,), later in g._search[1]]
        by_count = _count_masks(lasts, sys._support())
        return max(1, max(c for c, mask in enumerate(by_count) if mask))
    best = 1
    for sig, _ in sys._signatures():
        # g[J] has at most |J| components
        if sig.bit_count() > best:
            best = max(best, _component_count(g, sig))
    return best
