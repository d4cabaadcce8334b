"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

from chordalbounds import (
    best_path,
    best_tree,
    bound_polynomials,
    bridge_network,
    chordal_lower,
    chordal_upper,
    clique_complex,
    clique_sieve_sum,
    connected_components,
    counterexample_family,
    counterexample_graph,
    from_outcomes,
    generalized_lower,
    independence_number,
    is_chordal,
    kwerel2_lower,
    kwerel_lower,
    pairwise_weights,
    path_event_system,
    path_lower,
    path_weight,
    seneta_lower,
    sweep,
    truncated_euler_sum,
    tree_weight,
    union_prob_exact,
)
from chordalbounds.graphs import build_graph
from chordalbounds.poly import Polynomial
from chordalbounds.values import RATIONAL

from helpers import (
    BRIDGE_PATH_ORDER,
    brute_force_alpha,
    brute_force_is_chordal,
    random_chordal_graph,
    random_graph,
    random_rational_system,
    random_real_system,
)

TOL = 1e-9

EQ_EXACT = Polynomial((0, 0, 2, 2, -5, 2))
EQ_TREE = Polynomial((0, 0, 1, 1, -1, 0, Fraction(-1, 2)))
EQ_PATH_AVG = Polynomial((0, 0, 1, 1, Fraction(-5, 4), 0, Fraction(-1, 4)))
EQ_DEPTH1 = Polynomial((0, 0, 2, 2, -5, 0, -1))


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


_sandwich_corpus_cache = None


def sandwich_corpus():
    """1000 random (system, chordal graph) pairs, n <= 8, outcomes <= 2**10."""
    global _sandwich_corpus_cache
    if _sandwich_corpus_cache is None:
        rng = random.Random(20240501)
        pairs = []
        for i in range(1000):
            n = rng.randint(1, 8)
            g = random_chordal_graph(rng, n)
            max_outcomes = 1024 if i % 10 == 0 else 64
            sys_ = random_real_system(rng, n, max_outcomes=max_outcomes)
            pairs.append((sys_, g))
        _sandwich_corpus_cache = pairs
    return _sandwich_corpus_cache


def test_criterion_1_bridge_polynomials_exact():
    start = time.perf_counter()
    sys_ = path_event_system(bridge_network(), paths=BRIDGE_PATH_ORDER)
    polys = bound_polynomials(bridge_network())
    checks = (
        union_prob_exact(sys_) == EQ_EXACT,
        polys["exact"] == EQ_EXACT,
        polys["hunter-lower"] == EQ_TREE,
        polys["kwerel-lower"] == EQ_PATH_AVG,
        polys["bonferroni-lower"] == EQ_DEPTH1,
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: bridge polynomials coefficient-exact",
        all(checks) and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_2_counterexample_regression():
    g = counterexample_graph()
    all_one = from_outcomes([Fraction(1)], [[0]] * 8, backend=RATIONAL)
    checks = [
        Counter(map(len, clique_complex(g))) == {1: 8, 2: 20, 3: 16},
        independence_number(g) == 3,
        not is_chordal(g),
        chordal_lower(all_one, g, unchecked=True).value == Fraction(4, 3),
    ]
    for k in (3, 5):
        family = counterexample_family(k)
        certain = from_outcomes(
            [Fraction(1)], [[0]] * family.vertex_count, backend=RATIONAL
        )
        checks.append(truncated_euler_sum(family) == 1 + 2**k)
        checks.append(
            chordal_lower(certain, family, unchecked=True).value == Fraction(1 + 2**k, 3)
        )
    _report("criterion 2: counterexample regressions exact", all(checks))


def test_criterion_3_truncated_alternating_sums():
    rng = random.Random(33550336)
    graphs = 0
    violations = 0
    while graphs < 500:
        n = rng.randint(1, 10)
        g = random_chordal_graph(rng, n)
        graphs += 1
        c = connected_components(g)
        for r in range(1, n + 2):
            value = truncated_euler_sum(g, r=r)
            if value > c:
                violations += 1
            if 2 * r >= n and value != c:
                violations += 1
    _report(
        "criterion 3: truncated alternating clique sums bounded by components",
        violations == 0,
        f"{graphs} graphs, {violations} violations",
    )


def test_criterion_4_sandwich_suite():
    start = time.perf_counter()
    violations = 0
    for sys_, g in sandwich_corpus():
        n = g.vertex_count
        exact = union_prob_exact(sys_)
        lower_full = chordal_lower(sys_, g).value
        upper_full = chordal_upper(sys_, g).value
        if lower_full > exact + TOL or exact > upper_full + TOL:
            violations += 1
        for r in range(1, (n + 1) // 2 + 1):
            lower_r = chordal_lower(sys_, g, r=r).value
            upper_r = chordal_upper(sys_, g, r=r).value
            if lower_r > lower_full + TOL or upper_full > upper_r + TOL:
                violations += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4: sandwich ordering on 1000 random pairs",
        violations == 0 and elapsed < 60.0,
        f"{len(sandwich_corpus())} pairs, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_5_truncation_monotonicity():
    violations = 0
    for sys_, g in sandwich_corpus():
        full = clique_sieve_sum(sys_, g)
        for r in range(1, (g.vertex_count + 1) // 2 + 1):
            if clique_sieve_sum(sys_, g, size_cap=2 * r) > full + TOL:
                violations += 1
    _report(
        "criterion 5: full signed clique sum dominates every truncation",
        violations == 0,
        f"{len(sandwich_corpus())} pairs, {violations} violations",
    )


def _join_pair_graph(n, j, k):
    edges = set()
    if j != k:
        edges.add((min(j, k), max(j, k)))
    for i in range(n):
        if i not in (j, k):
            edges.add((min(i, j), max(i, j)))
            edges.add((min(i, k), max(i, k)))
    return build_graph(n, sorted(edges))


def _join_set_graph(n, members):
    members = sorted(members)
    edges = set(combinations(members, 2))
    for i in range(n):
        if i not in set(members):
            for m in members:
                edges.add((min(i, m), max(i, m)))
    return build_graph(n, sorted(edges))


def test_criterion_6_averaging_identities_exact():
    rng = random.Random(8128)
    ok = True

    for n in range(1, 6):
        for _ in range(3):
            sys_ = random_rational_system(rng, n)
            orders = [o for o in permutations(range(n)) if n == 1 or o[0] < o[-1]]
            mean = sum(path_lower(sys_, o).value for o in orders) / len(orders)
            ok = ok and kwerel_lower(sys_).value == mean

    for n in range(3, 7):
        for _ in range(3):
            sys_ = random_rational_system(rng, n)
            values = [
                seneta_lower(sys_, j, k).value
                for j in range(n)
                for k in range(n)
                if j != k
            ]
            ok = ok and kwerel2_lower(sys_).value == sum(values) / len(values)

    for n in range(1, 7):
        for _ in range(2):
            sys_ = random_rational_system(rng, n)
            for m in range(n):
                values = [
                    chordal_lower(sys_, _join_set_graph(n, members)).value
                    for members in combinations(range(n), m)
                ]
                ok = ok and generalized_lower(sys_, m).value == sum(values) / len(values)

    for n in range(2, 7):
        for _ in range(2):
            sys_ = random_rational_system(rng, n)
            for j in range(n):
                for k in range(n):
                    if n == 2 and j != k:
                        continue
                    expected = chordal_lower(sys_, _join_pair_graph(n, j, k)).value
                    ok = ok and seneta_lower(sys_, j, k).value == expected

    _report("criterion 6: averaging identities hold exactly", ok)


def test_criterion_7_oracle_equivalences():
    ok = True

    # independence number: exhaustive over all graphs on <= 5 vertices, then
    # a large random chordal sample at 6..8 vertices (enumerating every
    # 8-vertex graph is out of reach; the chordality clause below samples
    # at the required 10^4 scale)
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
            if independence_number(g) != brute_force_alpha(g):
                ok = False
    rng = random.Random(496)
    for _ in range(4000):
        g = random_chordal_graph(rng, rng.randint(6, 8))
        if independence_number(g) != brute_force_alpha(g):
            ok = False
    alpha_ok = ok

    # chordality recognition against the induced-cycle search
    ok = True
    for n in range(5):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
            if is_chordal(g) != brute_force_is_chordal(g):
                ok = False
    for _ in range(10000):
        g = random_graph(rng, rng.randint(5, 7), rng.random())
        if is_chordal(g) != brute_force_is_chordal(g):
            ok = False
    chordal_ok = ok

    # optimizers against full enumeration on the bridge system
    ok = True
    for p in (0.5, 0.9):
        sys_ = path_event_system(bridge_network(reliability=p), paths=BRIDGE_PATH_ORDER)
        wm = pairwise_weights(sys_)
        all_pairs = list(combinations(range(4), 2))
        trees = [
            subset
            for subset in combinations(all_pairs, 3)
            if connected_components(build_graph(4, subset)) == 1
        ]
        if len(trees) != 16:
            ok = False
        best_total = min(sum(wm[u][v] for u, v in t) for t in trees)
        if abs(tree_weight(wm, best_tree(wm, "minimize-weight")) - best_total) > 1e-12:
            ok = False
        orders = [o for o in permutations(range(4)) if o[0] < o[-1]]
        if len(orders) != 12:
            ok = False
        best_path_total = min(path_weight(wm, o) for o in orders)
        if abs(path_weight(wm, best_path(wm, "exact")) - best_path_total) > 1e-12:
            ok = False
    optimize_ok = ok

    _report(
        "criterion 7: fast paths match brute-force oracles",
        alpha_ok and chordal_ok and optimize_ok,
        f"alpha={alpha_ok} chordal={chordal_ok} optimizers={optimize_ok}",
    )


def test_criterion_8_sweep_qualitative():
    grid = [Fraction(i, 100) for i in range(101)]
    header, rows = sweep(bridge_network(), grid)
    assert header == ["p", "exact", "hunter-lower", "kwerel-lower", "bonferroni-lower"]
    below_exact = all(
        tree <= exact and path_avg <= exact and depth1 <= exact
        for _, exact, tree, path_avg, depth1 in rows
    )
    dominate = [tree > depth1 and path_avg > depth1 for _, _, tree, path_avg, depth1 in rows]
    cutoff = None
    for i in range(len(rows)):
        if all(dominate[i:]):
            cutoff = rows[i][0]
            break
    _report(
        "criterion 8: bounds below exact everywhere; depth-one bound overtaken",
        below_exact and cutoff is not None and cutoff < 1,
        f"p* = {cutoff} ({float(cutoff):.2f})",
    )
