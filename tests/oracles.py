"""Test oracles for the solver: every magic residue permutation, by raw walk.

None of these shares the search's machinery (edge order, prunings, partner
residues), so each is an independent reference to compare the engine with.
They take time factorial in q and are meant for small graphs only.
"""

import itertools

from edgemagic import Witness, label_residues
from edgemagic.solver import _witness_from_residues


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
