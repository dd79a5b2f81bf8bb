"""Small simple graphs: construction, graph6 interchange, canonical forms.

Vertices of a graph on ``p`` vertices are the integers ``0..p-1``.  Edges are
unordered pairs, stored normalized as ``(u, v)`` with ``u < v`` in a sorted
tuple.  Canonical forms are computed by exhaustive search over degree-refined
vertex orderings; this is exact and affordable at the small orders the rest
of the package targets (default cap ``P_MAX = 10``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

# Default cap for canonicalization (brute force over degree classes).
P_MAX = 10

# graph6 uses printable ASCII 63..126, six data bits per character.
_G6_MIN = 63
_G6_MAX = 126
GRAPH6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Raised for malformed graph6 records."""


@dataclass(frozen=True, order=True)
class Graph:
    """An undirected simple graph with vertices 0..p-1.

    Edges are normalized on construction: each pair stored as (u, v) with
    u < v, the tuple sorted, duplicates and self-loops rejected.
    """

    p: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"graph needs at least one vertex, got p={self.p}")
        normalized = []
        seen = set()
        for pair in self.edges:
            u, v = pair
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (0 <= u < self.p and 0 <= v < self.p):
                raise ValueError(f"edge ({u}, {v}) out of range for p={self.p}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            normalized.append((u, v))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @property
    def q(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        degs = [0] * self.p
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return degs

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor sets as bitmasks."""
        masks = [0] * self.p
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in set(self.edges)


def graph_from_edges(p: int, edges) -> Graph:
    """Build a normalized Graph, rejecting out-of-range, loop, and duplicate pairs."""
    return Graph(p, tuple(edges))


def degree_sequence(g: Graph) -> list[int]:
    """Vertex degrees in nonincreasing order; sums to 2q."""
    return sorted(g.degrees(), reverse=True)


def relabel(g: Graph, perm) -> Graph:
    """Apply a vertex permutation: vertex v of g becomes perm[v]."""
    perm = list(perm)
    if sorted(perm) != list(range(g.p)):
        raise ValueError(f"not a permutation of 0..{g.p - 1}: {perm}")
    return Graph(g.p, tuple((perm[u], perm[v]) for u, v in g.edges))


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum vertex."""
    masks = g.adjacency_masks()
    seen = [False] * g.p
    components = []
    for start in range(g.p):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            m = masks[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        components.append(sorted(comp))
    return components


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


# ---------------------------------------------------------------------------
# graph6 codec
#
# Record layout: N(n) length prefix, then the upper triangle of the adjacency
# matrix read column by column (x01, x02, x12, x03, x13, x23, ...), packed
# big-endian into 6-bit groups, zero-padded, each group offset by 63.  N(n) is
# one character (n + 63) for n <= 62, or '~' followed by three characters
# holding n as 18 bits for 63 <= n <= 258047.
# ---------------------------------------------------------------------------


def _encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + _G6_MIN)
    if n <= 258047:
        return "~" + "".join(
            chr(((n >> shift) & 0x3F) + _G6_MIN) for shift in (12, 6, 0)
        )
    raise Graph6Error(f"vertex count {n} too large for this encoder")


def emit_graph6(g: Graph) -> str:
    """Canonical graph6 record for g's labeled adjacency (no header, no newline)."""
    n = g.p
    adjacent = set(g.edges)
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if (u, v) in adjacent else 0)
    chars = [_encode_n(n)]
    for i in range(0, len(bits), 6):
        group = bits[i : i + 6]
        group += [0] * (6 - len(group))
        value = 0
        for b in group:
            value = (value << 1) | b
        chars.append(chr(value + _G6_MIN))
    return "".join(chars)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record, with or without the optional format header."""
    text = text.removeprefix(GRAPH6_HEADER).rstrip("\n")
    if not text:
        raise Graph6Error("empty graph6 record")
    values = []
    for ch in text:
        code = ord(ch)
        if not (_G6_MIN <= code <= _G6_MAX):
            raise Graph6Error(f"character {ch!r} out of graph6 range 63..126")
        values.append(code - _G6_MIN)

    if values[0] < 63:
        n = values[0]
        body = values[1:]
    else:
        if len(values) >= 2 and values[1] == 63:
            raise Graph6Error("8-byte length prefix (n > 258047) not supported")
        if len(values) < 4:
            raise Graph6Error("truncated length prefix")
        n = (values[1] << 12) | (values[2] << 6) | values[3]
        if n < 63:
            raise Graph6Error(f"non-canonical long prefix for n={n}")
        body = values[4:]

    if n == 0:
        raise Graph6Error("graph6 record with zero vertices")
    nbits = n * (n - 1) // 2
    expected_chars = (nbits + 5) // 6
    if len(body) != expected_chars:
        raise Graph6Error(
            f"record length mismatch: n={n} needs {expected_chars} data "
            f"characters, got {len(body)}"
        )

    edges = []
    index = 0
    for v in range(1, n):
        for u in range(v):
            value = body[index // 6]
            bit = (value >> (5 - index % 6)) & 1
            if bit:
                edges.append((u, v))
            index += 1
    # Padding bits of a well-formed record are zero.
    for pad in range(nbits, expected_chars * 6):
        if (body[pad // 6] >> (5 - pad % 6)) & 1:
            raise Graph6Error("nonzero padding bits")
    return Graph(n, tuple(edges))


# ---------------------------------------------------------------------------
# Canonical forms
#
# The canonical code of a graph is the lexicographically smallest graph6
# record achievable by relabeling its vertices so that degrees come out
# nonincreasing.  Isomorphic graphs search the same space of degree-respecting
# orderings, hence reach the same minimum; the record pins down the whole
# labeled adjacency, so distinct classes cannot collide.
# ---------------------------------------------------------------------------


def _are_twins(masks: list[int], u: int, v: int) -> bool:
    # Swapping twins is an automorphism, so branching on both is redundant.
    return masks[u] & ~(1 << v) == masks[v] & ~(1 << u)


def _min_ordering(g: Graph) -> list[int]:
    p = g.p
    masks = g.adjacency_masks()
    degs = g.degrees()
    target = sorted(degs, reverse=True)

    best_cols: list[int] | None = None
    best_order: list[int] | None = None

    def extend(placed: list[int], used: int, cols: list[int]) -> None:
        nonlocal best_cols, best_order
        pos = len(placed)
        if pos == p:
            if best_cols is None or cols < best_cols:
                best_cols = list(cols)
                best_order = list(placed)
            return
        wanted = target[pos]
        options = []
        for v in range(p):
            if used >> v & 1 or degs[v] != wanted:
                continue
            col = 0
            mask = masks[v]
            for w in placed:
                col = (col << 1) | (mask >> w & 1)
            options.append((col, v))
        options.sort()
        tried: list[int] = []
        for col, v in options:
            if any(_are_twins(masks, v, u) for u in tried):
                continue
            tried.append(v)
            cols.append(col)
            if best_cols is None or cols <= best_cols[: len(cols)]:
                extend(placed + [v], used | 1 << v, cols)
            cols.pop()

    extend([], 0, [])
    assert best_order is not None
    return best_order


def canonical_graph(g: Graph, p_max: int = P_MAX) -> Graph:
    """The canonically relabeled copy of g (vertices sorted by nonincreasing degree)."""
    if g.p > p_max:
        raise ValueError(
            f"canonicalization capped at p={p_max} (got p={g.p}); raise the cap explicitly"
        )
    order = _min_ordering(g)
    position = [0] * g.p
    for pos, v in enumerate(order):
        position[v] = pos
    return relabel(g, position)


def canonical_form(g: Graph, p_max: int = P_MAX) -> bytes:
    """Relabeling-invariant byte code identifying g's isomorphism class.

    Codes are graph6 records of the canonical relabeling, so they sort by
    vertex count first and are directly decodable.
    """
    return emit_graph6(canonical_graph(g, p_max=p_max)).encode("ascii")


def are_isomorphic(g: Graph, h: Graph, p_max: int = P_MAX) -> bool:
    if g.p != h.p or g.q != h.q or degree_sequence(g) != degree_sequence(h):
        return False
    return canonical_form(g, p_max=p_max) == canonical_form(h, p_max=p_max)
