"""Generators for the graph families the census classifies.

Maximal outerplanar graphs (MOPs) of order p >= 3 are exactly the
triangulations of a convex p-gon, and a MOP's only Hamiltonian cycle is its
hull, so its isomorphism classes are the triangulations up to rotation and
reflection.  ``generate_mops`` grows those classes one ear at a time from the
triangle, keyed by hull degree sequence, and canonicalizes one graph per
class.  ``triangulations`` enumerates all Catalan(p-2) labeled triangulations
independently, each as the graph of its hull cycle and chords; it is the
completeness oracle for the tests.  Sparse (p, p-h)-graphs come from
edge-subset enumeration over the complete graph, with one canonical search
per degree-sorted labelled subset: subsets whose relabellings by
nonincreasing degree agree are isomorphic, so only the first is searched.
Each subset is keyed straight from its edge tuple and becomes a ``Graph``
only when its key is new.
Both generators run at the order they are given; subset enumeration visits
all C(C(p, 2), q) subsets, so its cost, not a cap, bounds p.  Named families
supply standard fixtures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .graphs import (
    P_MAX,
    Graph,
    _check_int,
    _degree_sorted_bits,
    _normalized_graph,
    _pair_masks,
    canonical_graph,
    emit_graph6,
    is_connected,
)

# The least n each named family takes.
_FAMILY_FLOORS = {"path": 1, "cycle": 3, "star": 2, "complete": 1, "fan": 3, "wheel": 4,
                  "friendship": 1}
FAMILY_NAMES = tuple(_FAMILY_FLOORS)


@dataclass(frozen=True)
class SparseSpec:
    """Parameters of a (p, p-h) run: order p >= 1 and edge deficiency 0 <= h <= p."""

    p: int
    h: int

    def __post_init__(self):
        _check_int(self.p, "order", 1)
        _check_int(self.h, "deficiency h", 0)
        _check_int(self.p - self.h, "p - h", 0)

    @property
    def q(self) -> int:
        return self.p - self.h


def triangulations(n: int) -> Iterator[Graph]:
    """All triangulations of the convex n-gon, each as its hull cycle plus chords.

    Vertices 0..n-1 run in hull order.  Recursion on the base edge (a, b):
    pick the apex m of the triangle on it, then triangulate both
    sub-polygons.  Yields Catalan(n-2) graphs, each once.  n must be an
    int >= 3, checked at the first item.
    """
    _check_int(n, "order", 3)
    hull = tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)

    def chords(a: int, b: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if b - a < 2:
            yield ()
            return
        for m in range(a + 1, b):
            own = tuple((x, y) for x, y in ((a, m), (m, b)) if y - x >= 2)
            for left, right in itertools.product(chords(a, m), chords(m, b)):
                yield own + left + right

    for diagonals in chords(0, n - 1):
        yield Graph(n, hull + diagonals)


def _dihedral_min(cyclic: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation or reflection of a cyclic sequence."""
    return min(s[i:] + s[:i] for s in (cyclic, cyclic[::-1]) for i in range(len(cyclic)))


def _mop_classes(p: int) -> list[tuple[tuple[int, int], ...]]:
    """Edges of one labeled MOP per isomorphism class of order p.

    Vertices 0..p-1 run around the hull.  Removing an ear (a degree-2 hull
    vertex) from an order-(n+1) MOP leaves an order-n MOP, so putting an ear
    on every hull edge of one MOP per order-n class reaches every
    order-(n+1) class.  The hull degree sequence fixes a triangulated polygon
    (Conway & Coxeter 1973), so two MOPs are isomorphic exactly when their
    sequences agree up to rotation and reflection; the first MOP grown for
    each such key is kept.
    """
    # dihedral key -> (hull degree sequence, edges) of the kept MOP
    classes = {(2, 2, 2): ((2, 2, 2), ((0, 1), (1, 2), (0, 2)))}
    for n in range(3, p):
        grown: dict[tuple[int, ...], tuple] = {}
        for degrees, edges in classes.values():
            for i in range(n):
                # the new vertex i+1 sits between hull vertices i and (i+1) mod n
                bumped = list(degrees)
                bumped[i] += 1
                bumped[(i + 1) % n] += 1
                ear_degrees = tuple(bumped[: i + 1] + [2] + bumped[i + 1 :])
                key = _dihedral_min(ear_degrees)
                if key in grown:
                    continue
                shifted = tuple((u + (u > i), v + (v > i)) for u, v in edges)
                grown[key] = (ear_degrees, shifted + ((i, i + 1), (i + 1, (i + 2) % (n + 1))))
        classes = grown
    return [edges for _, edges in classes.values()]


def generate_mops(p: int, p_max: int = P_MAX) -> list[Graph]:
    """One canonical representative per isomorphism class of order-p MOPs.

    Classes are grown by ear insertion from the triangle, and each class is
    canonicalized once.  p and the cap ``p_max`` must be ints >= 3, and
    orders over ``p_max`` are refused.  Every output has q = 2p-3.  Sorted by
    canonical code.
    """
    _check_int(p, "order", 3)
    _check_int(p_max, "cap p_max", 3)
    if p > p_max:
        raise ValueError(f"MOP generation capped at p={p_max} (got p={p}); raise the cap")
    reps = [canonical_graph(Graph(p, edges)) for edges in _mop_classes(p)]
    return sorted(reps, key=emit_graph6)


def generate_by_edge_count(p: int, q: int, connected_only: bool = False) -> list[Graph]:
    """One canonical representative per isomorphism class with p vertices, q edges.

    Enumerates all C(C(p, 2), q) q-subsets of the complete graph's edges,
    whatever p (at p = 8, q = 8 that is 3,108,105), and keys each edge tuple
    by its degree-sorted relabelling (``_degree_sorted_bits``, with one table
    of pair bits for the call).  Equal keys mean isomorphic graphs, so a
    repeated key is skipped before any ``Graph`` is built; a subset becomes a
    ``Graph`` only when its key is new, and then gets the connectivity test
    and a canonical search.
    That one search gives the class's representative, the canonical graph,
    whose graph6 record is the code that classes are deduplicated and sorted
    by.  Returns [] at once when q exceeds C(p, 2), or when ``connected_only``
    and q < p - 1, since no connected graph has fewer edges.  p must be an
    int >= 1 and q an int >= 0.
    """
    _check_int(p, "order", 1)
    _check_int(q, "edge count q", 0)
    all_pairs = list(itertools.combinations(range(p), 2))
    if q > len(all_pairs) or connected_only and q < p - 1:
        return []
    masks = _pair_masks(p)
    by_code: dict[str, Graph] = {}
    keys: set[int] = set()  # degree-sorted keys of the subsets so far
    for subset in itertools.combinations(all_pairs, q):
        key = _degree_sorted_bits(p, subset, masks)
        if key in keys:
            continue
        keys.add(key)
        g = _normalized_graph(p, subset)  # sorted pairs, in sorted order
        if connected_only and not is_connected(g):
            continue
        rep = canonical_graph(g)
        by_code.setdefault(emit_graph6(rep), rep)
    return [by_code[key] for key in sorted(by_code)]


def generate_sparse_graphs(spec: SparseSpec, connected_only: bool = False) -> list[Graph]:
    """All (p, p-h)-graphs up to isomorphism, optionally connected only."""
    return generate_by_edge_count(spec.p, spec.q, connected_only)


def named_family(name: str, n: int) -> Graph:
    """A standard fixture graph.

    path/cycle/star/complete/fan/wheel take n = total vertex count;
    friendship takes n = number of triangles (2n+1 vertices).  n must be an
    int no less than the family's entry in ``_FAMILY_FLOORS``.
    """
    if name not in FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}; expected one of {', '.join(FAMILY_NAMES)}")
    _check_int(n, f"n for {name}", _FAMILY_FLOORS[name])
    if name == "path":
        return Graph(n, tuple((i, i + 1) for i in range(n - 1)))
    if name == "cycle":
        return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))
    if name == "star":
        return Graph(n, tuple((0, i) for i in range(1, n)))
    if name == "complete":
        return Graph(n, tuple(itertools.combinations(range(n), 2)))
    if name == "fan":
        spokes = tuple((0, i) for i in range(1, n))
        path = tuple((i, i + 1) for i in range(1, n - 1))
        return Graph(n, spokes + path)
    if name == "wheel":
        spokes = tuple((0, i) for i in range(1, n))
        rim = tuple((i, i + 1) for i in range(1, n - 1)) + ((1, n - 1),)
        return Graph(n, spokes + rim)
    edges = []  # friendship: n triangles sharing vertex 0
    for t in range(n):
        a, b = 2 * t + 1, 2 * t + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph(2 * n + 1, tuple(edges))
