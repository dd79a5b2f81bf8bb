"""Seeded benchmark inputs, encoded without the package under test.

Inputs reach the program only as graph6 records, so this module carries its
own small graph6 encoder: a defect in the package's codec cannot change what
the benchmark feeds it.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

# The stream_store pool is fixed.  Solver cost of random order-7 graphs is
# heavy-tailed: pools of 200 draws cost 1.5 s to 5.3 s of solver time depending
# on the draw seed, which would swamp any change under test.  The workload
# seed therefore varies the stream built from the pool, not the pool.
POOL_SEED = 0
POOL_DRAWS = 120
# Isomorphism classes among the POOL_DRAWS draws (checked with networkx in
# the benchmark's tests).
POOL_CLASSES = 81
POOL_ORDERS = (5, 6, 7)
# Chance that a record of a draw already in the stream repeats one of that
# draw's earlier records verbatim; otherwise it is a fresh relabelling.
REPEAT_SHARE = 0.5


def encode_graph6(p: int, edges) -> str:
    """graph6 record of a labelled graph on vertices 0..p-1 (p <= 62)."""
    if not 1 <= p <= 62:
        raise ValueError(f"encoder handles 1 <= p <= 62, got {p}")
    adjacent = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (u, v) in adjacent else 0 for v in range(1, p) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(p + 63)]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return "".join(chars)


def relabel_edges(edges, perm) -> tuple[tuple[int, int], ...]:
    """Edges after vertex v becomes perm[v], normalized and sorted."""
    return tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))


def random_relabel(rng: random.Random, p: int, edges) -> str:
    perm = list(range(p))
    rng.shuffle(perm)
    return encode_graph6(p, relabel_edges(edges, perm))


def make_pool(draws: int = POOL_DRAWS):
    """The first `draws` random graphs of orders 5-7 with 1 <= q <= 2p edges, as (p, edges)."""
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(draws):
        p = rng.choice(POOL_ORDERS)
        pairs = list(itertools.combinations(range(p), 2))
        q = rng.randint(1, min(2 * p, len(pairs)))
        pool.append((p, tuple(sorted(rng.sample(pairs, q)))))
    return pool


@dataclass
class Stream:
    records: list[str]
    kinds: Counter  # "first" (a draw's first record), "relabelled", "repeat"
    orders: Counter  # records per vertex count
    edges: Counter  # records per edge count


def make_stream(pool, seed: int, n: int) -> Stream:
    """A seeded stream of n graph6 records drawn from pool.

    Every draw appears at least once; the other records pick a draw uniformly.
    A draw already in the stream repeats one of its earlier records verbatim
    with probability REPEAT_SHARE, else it gets a fresh relabelling.  Picking
    the draw first keeps the order and edge-count mix, and with it the cost,
    close to the pool's from seed to seed.
    """
    if n < len(pool):
        raise ValueError(f"stream of {n} records cannot cover {len(pool)} draws")
    rng = random.Random(seed)
    slots = list(range(len(pool))) + [None] * (n - len(pool))
    rng.shuffle(slots)
    stream = Stream([], Counter(), Counter(), Counter())
    earlier: dict[int, list[str]] = {}
    seen_records: set[str] = set()
    for draw in slots:
        if draw is None:
            draw = rng.randrange(len(pool))
        p, edges = pool[draw]
        if draw in earlier and rng.random() < REPEAT_SHARE:
            record = rng.choice(earlier[draw])
        else:
            record = random_relabel(rng, p, edges)
        if record in seen_records:
            kind = "repeat"
        elif draw in earlier:
            kind = "relabelled"
        else:
            kind = "first"
        if record not in seen_records:
            earlier.setdefault(draw, []).append(record)
            seen_records.add(record)
        stream.records.append(record)
        stream.kinds[kind] += 1
        stream.orders[p] += 1
        stream.edges[len(edges)] += 1
    return stream
