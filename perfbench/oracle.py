"""Reference answers computed without the package under test.

Everything here is exact (ints and Fractions) and uses methods different
from the library's: reliability by enumerating arc states, intersection
probabilities by products over path arcs or by grouping outcomes by their
event signature, symmetric sums as binomial moments, and every denominator
by its own brute-force search.  Float inputs are read as the exact binary
fraction they denote, so a REAL answer differs from the reference only by
the program's rounding.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def ceil_half(n: int) -> int:
    return (n + 1) // 2


# ---------------------------------------------------------------------------
# integer-coefficient polynomials in p, as lists in ascending degree


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def pscale(a, c):
    return [x * c for x in a]


def pmono(degree: int):
    return [0] * degree + [1]


def peval(coeffs, x):
    total = x * 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def ptrim(coeffs):
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def coefficient_string(coeffs) -> str:
    """Ascending coefficients separated by spaces, "0" for zero."""
    coeffs = ptrim(coeffs)
    return " ".join(str(c) for c in coeffs) if coeffs else "0"


def pretty(coeffs) -> str:
    """Human form used by the reliability report, e.g. "2p^2 + 2p^3 - 5p^4"."""
    parts = []
    for exp, c in enumerate(ptrim(coeffs)):
        if c == 0:
            continue
        mag = abs(c)
        var = "" if exp == 0 else ("p" if exp == 1 else f"p^{exp}")
        if not var:
            body = str(mag)
        elif mag == 1:
            body = var
        elif mag.denominator == 1:
            body = f"{mag}{var}"
        else:
            body = f"({mag}){var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# two-terminal reliability


def st_paths(net: dict) -> list[int]:
    """Simple s-t paths as arc bitmasks, ordered by length then by the
    sorted list of arc ids."""
    out = [[] for _ in range(net["nodes"])]
    for arc_id, (tail, _head) in enumerate(net["arcs"]):
        out[tail].append(arc_id)
    found = []
    stack = [(net["s"], 1 << net["s"], 0)]
    while stack:
        node, seen, used = stack.pop()
        if node == net["t"]:
            found.append(used)
            continue
        for arc_id in out[node]:
            head = net["arcs"][arc_id][1]
            if not (seen >> head) & 1:
                stack.append((head, seen | (1 << head), used | (1 << arc_id)))
    found.sort(key=lambda m: (m.bit_count(), list(bits(m))))
    return found


def union_by_arc_states(path_masks, split, one, zero):
    """P(some path has all its arcs operating), summing over arc states.

    Arcs are decided one at a time.  A branch stops as soon as a path is
    fully operating (the undecided arcs sum to one) or every path has a
    failed arc (probability zero); an arc no surviving path uses is
    summed out.  `split(i, up, down)` combines the branches where arc i
    operates and where it fails.
    """

    def walk(i, needs):
        if any(n == 0 for n in needs):
            return one
        if not needs:
            return zero
        bit = 1 << i
        if not any(n & bit for n in needs):
            return walk(i + 1, needs)
        up = walk(i + 1, [n & ~bit for n in needs])
        down = walk(i + 1, [n for n in needs if not n & bit])
        return split(i, up, down)

    return walk(0, list(path_masks))


def _shift(poly):
    return [0, *poly]


def _times_q(poly):
    # (1 - p) * poly
    return padd(poly, [-c for c in _shift(poly)])


def _bound_brackets(paths, inter):
    """Singleton terms, all pair terms and consecutive pair terms along
    the path order, from `inter`, the probability that every path in a
    list operates."""
    n = len(paths)
    s1 = [inter([a]) for a in paths]
    s2 = [inter([paths[i], paths[j]]) for i in range(n) for j in range(i + 1, n)]
    chain = [inter([paths[i], paths[i + 1]]) for i in range(n - 1)]
    return s1, s2, chain


def symbolic_reliability(net: dict) -> dict[str, list]:
    """Exact reliability and default lower bounds as Fraction coefficient
    lists, for a network whose arcs all share the parameter p."""
    paths = st_paths(net)
    n = len(paths)
    exact = union_by_arc_states(
        paths, lambda i, up, down: padd(_shift(up), _times_q(down)), [1], [0]
    )
    s1, s2, chain = _bound_brackets(paths, lambda ps: pmono(_union(ps).bit_count()))
    S1 = _sum_polys(s1)
    S2 = _sum_polys(s2)
    alpha = ceil_half(n)
    hunter = padd(S1, pscale(_sum_polys(chain), -1))
    kwerel = padd(S1, pscale(S2, Fraction(-2, n))) if n >= 2 else S1
    return {
        "exact": ptrim(exact),
        "hunter-lower": ptrim(pscale(hunter, Fraction(1, alpha))),
        "kwerel-lower": ptrim(pscale(kwerel, Fraction(1, alpha))),
        "bonferroni-lower": ptrim(padd(S1, pscale(S2, -1))),
    }


def numeric_reliability(net: dict) -> dict[str, Fraction]:
    """Same four quantities for numeric arc reliabilities, exactly."""
    p = net["p"]
    probs = [Fraction(float(x)) for x in (p if isinstance(p, list) else [p] * len(net["arcs"]))]
    paths = st_paths(net)
    n = len(paths)
    exact = union_by_arc_states(
        paths,
        lambda i, up, down: probs[i] * up + (1 - probs[i]) * down,
        Fraction(1), Fraction(0),
    )

    def inter(ps):
        total = Fraction(1)
        for a in bits(_union(ps)):
            total *= probs[a]
        return total

    s1, s2, chain = _bound_brackets(paths, inter)
    alpha = ceil_half(n)
    kwerel = sum(s1) - sum(s2) * Fraction(2, n) if n >= 2 else sum(s1)
    return {
        "exact": exact,
        "hunter-lower": (sum(s1) - sum(chain)) / alpha,
        "kwerel-lower": kwerel / alpha,
        "bonferroni-lower": sum(s1) - sum(s2),
    }


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def _sum_polys(polys):
    total = [0]
    for poly in polys:
        total = padd(total, poly)
    return total


# ---------------------------------------------------------------------------
# explicit outcome spaces and graphs


def adjacency(graph: dict) -> list[int]:
    adj = [0] * graph["vertices"]
    for u, v in graph["edges"]:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def all_cliques(adj) -> list[int]:
    """Every non-empty clique as a vertex bitmask."""
    out = []

    def grow(clique, candidates):
        for v in bits(candidates):
            c = clique | (1 << v)
            out.append(c)
            grow(c, candidates & adj[v] & ~((1 << (v + 1)) - 1))

    grow(0, (1 << len(adj)) - 1)
    return out


def max_independent_set(adj, mask: int) -> int:
    """Size of a largest independent set inside `mask`, by branching on
    the lowest vertex."""
    if mask == 0:
        return 0
    v = (mask & -mask).bit_length() - 1
    rest = mask & ~(1 << v)
    skip = max_independent_set(adj, rest) if adj[v] & rest else -1
    return max(skip, 1 + max_independent_set(adj, rest & ~adj[v]))


def components(adj, mask: int) -> int:
    count = 0
    while mask:
        count += 1
        reach = mask & -mask
        while True:
            grown = reach
            for v in bits(reach):
                grown |= adj[v] & mask
            if grown == reach:
                break
            reach = grown
        mask &= ~reach
    return count


def signature_weights(space: dict):
    """Total weight of the outcomes in each event signature, the set of
    signatures with positive weight, and whether the space uses the exact
    rational backend."""
    rational = any(isinstance(w, str) for w in space["weights"])
    weights = [Fraction(w) if rational else Fraction(float(w)) for w in space["weights"]]
    sig = [0] * len(weights)
    for i, event in enumerate(space["events"]):
        for o in event:
            sig[o] |= 1 << i
    grouped: dict[int, Fraction] = {}
    support = set()
    for o, w in enumerate(weights):
        grouped[sig[o]] = grouped.get(sig[o], Fraction(0)) + w
        if w != 0:
            support.add(sig[o])
    return grouped, support, rational


def bounds_table(space: dict, graph: dict):
    """Rows (label, direction, r, value) of `bounds all`, exactly, and
    whether the space is rational."""
    grouped, support, rational = signature_weights(space)
    n = len(space["events"])
    adj = adjacency(graph)

    def inter(mask):
        return sum((w for s, w in grouped.items() if s & mask == mask), Fraction(0))

    S = [sum((w * comb(s.bit_count(), k) for s, w in grouped.items()), Fraction(0)) for k in range(n + 1)]
    union = sum((w for s, w in grouped.items() if s), Fraction(0))
    cliques = all_cliques(adj)
    full = sum((inter(c) if c.bit_count() % 2 else -inter(c)) for c in cliques)
    edge_terms = sum(inter(c) for c in cliques if c.bit_count() == 2)
    alpha = max_independent_set(adj, (1 << n) - 1)
    rows = [
        ("bonferroni-upper", "upper", "1", S[1]),
        ("bonferroni-lower", "lower", "1", S[1] - S[2]),
        ("chordal-upper", "upper", "-", full),
        ("chordal-upper", "upper", "1", S[1]),
        ("chordal-lower", "lower", "-", full / alpha),
        ("chordal-lower", "lower", "1", (S[1] - edge_terms) / alpha),
    ]
    sharp = max([1, *(components(adj, s) for s in support if s)])
    rows.append(("chordal-lower-sharpened", "lower", "-", full / sharp))
    if len(graph["edges"]) == n - 1 and components(adj, (1 << n) - 1) == 1:
        rows.append(("hunter-upper", "upper", "-", S[1] - edge_terms))
        rows.append(("hunter-lower", "lower", "-", (S[1] - edge_terms) / alpha))
    chain = sum((inter((1 << i) | (1 << (i + 1))) for i in range(n - 1)), Fraction(0))
    rows.append(("path-lower", "lower", "-", (S[1] - chain) / ceil_half(n)))
    kw = S[1] - S[2] * Fraction(2, n) if n >= 2 else S[1]
    rows.append(("kwerel-upper", "upper", "-", kw))
    rows.append(("kwerel-lower", "lower", "-", kw / ceil_half(n)))
    if n >= 3:
        pairs = comb(n, 2)
        kw2 = S[1] - S[2] * Fraction(2 * n - 3, pairs) + S[3] * Fraction(3, pairs)
        rows.append(("kwerel2-lower", "lower", "-", kw2 / (n - 2)))
    for m in range(n):
        bracket = Fraction(0)
        for k in range(1, m + 1):
            coeff = Fraction(comb(m, k) * (n * k - (m + 1) * (k - 1)), comb(n, k) * (m - k + 1))
            bracket += (1 if k % 2 else -1) * S[k] * coeff
        bracket += (1 if m % 2 == 0 else -1) * S[m + 1] * Fraction(m + 1, comb(n, m))
        rows.append((f"generalized-lower m={m}", "lower", "-", bracket / (n - m)))
    return [("exact-union", "-", "-", union), *rows], rational


# ---------------------------------------------------------------------------
# independent-coordinate systems and the optimizers


def _coord_probs(system: dict) -> list[Fraction]:
    return [Fraction(float(p)) for p in system["probs"]]


def coords_union(system: dict) -> Fraction:
    """P(some event has all its coordinates on), over coordinate states."""
    probs = _coord_probs(system)
    need = [_union(1 << c for c in ev) for ev in system["events"]]
    return union_by_arc_states(
        need, lambda i, up, down: probs[i] * up + (1 - probs[i]) * down, Fraction(1), Fraction(0)
    )


def pair_weights(system: dict) -> list[list[Fraction]]:
    """P(A_u and A_v) = product of the probabilities of the coordinates
    either event needs; the diagonal is zero."""
    probs = _coord_probs(system)
    need = [_union(1 << c for c in ev) for ev in system["events"]]
    n = len(need)
    w = [[Fraction(0)] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            value = Fraction(1)
            for c in bits(need[u] | need[v]):
                value *= probs[c]
            w[u][v] = w[v][u] = value
    return w


def singles(system: dict) -> Fraction:
    probs = _coord_probs(system)
    total = Fraction(0)
    for ev in system["events"]:
        value = Fraction(1)
        for c in set(ev):
            value *= probs[c]
        total += value
    return total


def min_path_weight(w) -> float:
    """Minimum Hamiltonian path weight by dynamic programming over the
    set of visited vertices and the last vertex (float arithmetic)."""
    n = len(w)
    wf = [[float(x) for x in row] for row in w]
    inf = float("inf")
    best = [[inf] * n for _ in range(1 << n)]
    for v in range(n):
        best[1 << v][v] = 0.0
    for mask in range(1, 1 << n):
        row = best[mask]
        for last in bits(mask):
            here = row[last]
            if here == inf:
                continue
            for nxt in bits(((1 << n) - 1) & ~mask):
                cand = here + wf[last][nxt]
                target = best[mask | (1 << nxt)]
                if cand < target[nxt]:
                    target[nxt] = cand
    return min(best[(1 << n) - 1])


def spanning_tree_weight(w, maximize: bool) -> Fraction:
    """Weight of a minimum (or maximum) spanning tree by Prim's method."""
    n = len(w)
    sign = -1 if maximize else 1
    inside = {0}
    total = Fraction(0)
    while len(inside) < n:
        _, u, v = min((sign * w[a][b], a, b) for a in inside for b in range(n) if b not in inside)
        inside.add(v)
        total += w[u][v]
    return total


def tree_alpha(n: int, edges) -> int:
    """Independence number of a tree by the leaf-matching rule."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    alive = set(range(n))
    size = 0
    while alive:
        leaf = next(v for v in sorted(alive) if len(nbrs[v] & alive) <= 1)
        size += 1
        alive -= {leaf} | nbrs[leaf]
    return size


def prufer_trees(n: int):
    """Edge lists of every labeled tree on n >= 3 vertices."""
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = degree.index(1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        u, v = (x for x in range(n) if degree[x] == 1)
        edges.append((u, v))
        yield edges


def tree_oracle_optimum(system: dict, criterion: str) -> Fraction:
    """Best criterion value over all labeled trees: the largest tree lower
    bound, or the smallest tree bracket."""
    w = pair_weights(system)
    n = len(w)
    base = singles(system)
    values = []
    for edges in prufer_trees(n):
        bracket = base - sum(w[u][v] for u, v in edges)
        values.append(bracket / tree_alpha(n, edges) if criterion == "max-lower-bound" else bracket)
    return max(values) if criterion == "max-lower-bound" else min(values)
