"""Seeded input generators.

Every generator takes a `random.Random` and returns plain JSON-ready data in
the file formats the command-line interface reads, so the program under test
only ever sees generated files and arguments.  Sizes are passed in by the
caller; only structure and values are random, which keeps the cost of a job
close to the same across seeds.
"""

from __future__ import annotations

import random

import oracle


def job_rng(seed: int, *key) -> random.Random:
    """Independent, reproducible stream for one job of one run."""
    return random.Random(":".join(str(part) for part in (seed, *key)))


def ladder(k: int, p="symbolic") -> dict:
    """Ladder network with k rungs: 4k+2 arcs and 2**(k+1) s-t paths.

    Nodes: s = 0, t = 1, then upper u_i = 2i+2 and lower l_i = 2i+3 for
    rung i.  Each rung has both cross arcs; consecutive rungs are joined
    side by side.  k = 1 is the bridge topology.
    """
    arcs = [(0, 2), (0, 3)]
    for i in range(k):
        u, l = 2 * i + 2, 2 * i + 3
        arcs += [(u, l), (l, u)]
        if i + 1 < k:
            arcs += [(u, u + 2), (l, l + 2)]
    arcs += [(2 * k, 1), (2 * k + 1, 1)]
    return {"nodes": 2 * k + 2, "arcs": arcs, "s": 0, "t": 1, "p": p}


def relabel(rng: random.Random, net: dict) -> dict:
    """The same network with shuffled node ids and arc order.  The cost of
    a reliability job stays the same; the canonical path order changes."""
    perm = list(range(net["nodes"]))
    rng.shuffle(perm)
    arcs = [(perm[a], perm[b]) for a, b in net["arcs"]]
    rng.shuffle(arcs)
    return {**net, "arcs": arcs, "s": perm[net["s"]], "t": perm[net["t"]]}


def random_network(rng: random.Random, arc_count: int, paths: tuple[int, int], p="symbolic") -> dict:
    """Random s-t network with exactly `arc_count` arcs whose number of
    simple s-t paths lies in the closed range `paths`.

    Nodes are laid out in a random topological order with s first and t
    last; most arcs point forward and about one in six points back, so
    both series-parallel and bridge-like structure occur.
    """
    lo, hi = paths
    node_count = arc_count // 2 + 2
    while True:
        order = list(range(1, node_count - 1))
        rng.shuffle(order)
        order = [0, *order, node_count - 1]
        rank = {v: i for i, v in enumerate(order)}
        # A backbone s -> ... -> t through a random subset keeps t reachable.
        backbone = [0] + sorted(rng.sample(order[1:-1], rng.randint(1, node_count - 2)), key=rank.get)
        arcs = list(zip(backbone, backbone[1:] + [node_count - 1]))
        present = set(arcs)
        while len(arcs) < arc_count:
            a, b = rng.sample(range(node_count), 2)
            if (rank[a] > rank[b]) != (rng.random() < 1 / 6):
                a, b = b, a
            if b == 0 or a == node_count - 1 or (a, b) in present:
                continue
            present.add((a, b))
            arcs.append((a, b))
        net = {"nodes": node_count, "arcs": arcs, "s": 0, "t": node_count - 1, "p": p}
        if lo <= len(oracle.st_paths(net)) <= hi:
            rng.shuffle(arcs)
            return net


def random_chordal_graph(rng: random.Random, n: int, max_clique: int) -> dict:
    """Random chordal graph built by adding simplicial vertices.

    Each new vertex joins a random subset (size < max_clique) of a random
    maximal clique, so the reverse insertion order is a perfect elimination
    order.  Labels are shuffled afterwards.
    """
    maximal = [frozenset([0])]
    edges = []
    for v in range(1, n):
        base = rng.choice(maximal)
        size = rng.randint(0, min(len(base), max_clique - 1))
        nbrs = frozenset(rng.sample(sorted(base), size))
        edges += [(u, v) for u in sorted(nbrs)]
        if nbrs == base:
            maximal.remove(base)
        maximal.append(nbrs | {v})
    label = list(range(n))
    rng.shuffle(label)
    return {"vertices": n, "edges": sorted(tuple(sorted((label[u], label[v]))) for u, v in edges)}


def explicit_space(rng: random.Random, outcomes: int, events: int, rational: bool) -> dict:
    """Explicit outcome space with integer-proportional weights.

    About one outcome in ten gets weight zero, so the support-aware
    denominator differs from the plain one.  Strings select the exact
    rational backend; floats are written as their shortest repr.
    """
    counts = [0 if rng.random() < 0.1 else rng.randint(1, 100) for _ in range(outcomes)]
    counts[rng.randrange(outcomes)] += 1
    total = sum(counts)
    if rational:
        weights = [f"{c}/{total}" for c in counts]
    else:
        weights = [c / total for c in counts]
    evs = []
    for _ in range(events):
        ev = [o for o in range(outcomes) if rng.random() < 0.3]
        evs.append(ev or [rng.randrange(outcomes)])
    return {"weights": weights, "events": evs}


def coords_system(rng: random.Random, coords: int, events: int) -> dict:
    """Independent-coordinate system: event i needs two random coordinates."""
    probs = [round(rng.uniform(0.5, 0.95), 2) for _ in range(coords)]
    evs = [sorted(rng.sample(range(coords), 2)) for _ in range(events)]
    return {"coords": coords, "probs": probs, "events": evs}
