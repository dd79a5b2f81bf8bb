"""Test oracles: every magic residue permutation, by raw walk, and graph
relabelling and graph6 decoding by the checked constructor.

None of the solver oracles shares the search's machinery (edge order,
prunings, partner residues), so each is an independent reference to compare
the engine with.  They take time factorial in q and are meant for small
graphs only.
"""

import itertools

from edgemagic import Graph, Witness, label_residues
from edgemagic.solver import _witness_from_residues


def relabel(g: Graph, perm) -> Graph:
    """Apply a vertex permutation: vertex v of g becomes perm[v]."""
    perm = list(perm)
    for v in perm:
        if type(v) is not int:
            raise ValueError(f"permutation entry {v!r} is not an int")
    if sorted(perm) != list(range(g.p)):
        raise ValueError(f"not a permutation of 0..{g.p - 1}: {perm}")
    return Graph(g.p, tuple((perm[u], perm[v]) for u, v in g.edges))


def decode_graph6_bitwise(record: str) -> Graph:
    """The graph of a one-character-prefix graph6 record, read one bit at a
    time: bit i of the body, most significant bit of each character first, is
    the i-th pair of the column-by-column upper triangle."""
    n = ord(record[0]) - 63
    bits = []
    for ch in record[1:]:
        value = ord(ch) - 63
        bits += [value >> shift & 1 for shift in range(5, -1, -1)]
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((v, u))
            i += 1
    return Graph(n, edges)


def magic_permutations(g, k):
    """(residue tuple over g.edges, c) for each distinct permutation of the
    residue multiset of [k, k+q-1] whose vertex sums all equal c mod p, in
    ascending order of the tuple."""
    counts = label_residues(k, g.q, g.p)
    residues = [r for r in range(g.p) for _ in range(counts[r])]
    found = []
    for perm in sorted(set(itertools.permutations(residues))):
        sums = [0] * g.p
        for (u, v), r in zip(g.edges, perm):
            sums[u] += r
            sums[v] += r
        if len({s % g.p for s in sums}) == 1:
            found.append((perm, sums[0] % g.p))
    return found


def enumerate_labelings(g, k, limit=None) -> list[Witness]:
    """The first ``limit`` (default all) residue-distinct magic labelings for
    this k, ordered by residue tuple over g.edges.

    Two labelings count as one when they differ only by permuting equal
    residues within a class.
    """
    return [_witness_from_residues(g, k, c, dict(zip(g.edges, perm)))
            for perm, c in magic_permutations(g, k)[:limit]]


def eager_brute_force_is_k_em(g, k):
    """The permutation oracle as first written, kept as its reference: every
    distinct permutation is built, sorted and tried before the first magic
    one is returned."""
    labelings = enumerate_labelings(g, k, limit=1)
    return labelings[0] if labelings else None
