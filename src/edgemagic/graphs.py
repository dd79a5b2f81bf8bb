"""Small simple graphs: construction, graph6 interchange, canonical forms.

Vertices of a graph on ``p`` vertices are the integers ``0..p-1``.  Edges are
unordered pairs, stored normalized as ``(u, v)`` with ``u < v`` in a sorted
tuple.  ``Graph(p, edges)`` is the one checked constructor, and two graphs
are isomorphic exactly when their ``canonical_form`` codes are equal.
Canonical forms come from an exact search over degree-respecting vertex
orderings that keeps the least graph6 columns.  ``canonical_graph`` is the
one entry to that search: it builds the canonical graph from those columns,
and the canonical code is that graph's graph6 record, so one search gives
both.  The search stops any branch whose columns exceed the best found and
tries one vertex of each twin class, but its worst case still grows
factorially; it takes any order, and only a census of graphs read from input
caps it (``P_MAX``).  Decoded and canonical graphs come out of the bits
already normalized, so they are built without checking or sorting their
edges again.
"""

from __future__ import annotations

from dataclasses import dataclass

# Default vertex cap of a census on graphs read from input: larger ones are
# not canonicalized (the search's worst case grows factorially).
P_MAX = 10

# graph6 uses printable ASCII 63..126, six data bits per character.
_G6_MIN = 63
_G6_MAX = 126
_GRAPH6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Raised for malformed graph6 records."""


def _check_int(value, what: str, least: int) -> None:
    """The package's one integer-argument check: ``value`` an int (not a bool) >= least."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value!r}")


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph with vertices 0..p-1.

    Edges are normalized on construction: each pair stored as (u, v) with
    u < v, the tuple sorted, duplicates and self-loops rejected.  The order
    must be an int >= 1 and every vertex an int (neither may be a bool).
    """

    p: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        _check_int(self.p, "order", 1)
        normalized = []
        seen = set()
        for pair in self.edges:
            u, v = pair
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r}, {v!r}) has a vertex that is not an int")
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


def _normalized_graph(p: int, edges: tuple[tuple[int, int], ...]) -> Graph:
    """A Graph from edges already normalized, skipping the checks and the sort.

    ``edges`` must be distinct in-range pairs (u, v) with u < v, sorted; only
    code that builds them so by construction may call this.
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "p", p)
    object.__setattr__(g, "edges", edges)
    return g


def relabel(g: Graph, perm) -> Graph:
    """Apply a vertex permutation: vertex v of g becomes perm[v]."""
    perm = list(perm)
    for v in perm:
        if type(v) is not int:
            raise ValueError(f"permutation entry {v!r} is not an int")
    if sorted(perm) != list(range(g.p)):
        raise ValueError(f"not a permutation of 0..{g.p - 1}: {perm}")
    return Graph(g.p, tuple((perm[u], perm[v]) for u, v in g.edges))


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0."""
    masks = g.adjacency_masks()
    seen = frontier = 1
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = masks[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << g.p) - 1


# ---------------------------------------------------------------------------
# graph6 codec
#
# Record layout: N(n) length prefix, then the upper triangle of the adjacency
# matrix read column by column (x01, x02, x12, x03, x13, x23, ...), packed
# big-endian into 6-bit groups, zero-padded, each group offset by 63.  N(n) is
# one character (n + 63) for n <= 62, or '~' followed by three characters
# holding n as 18 bits for 63 <= n <= 258047.
#
# Both directions go through one integer holding that bit string, x01 as its
# most significant bit: column v is the v bits x0v..x(v-1)v.
# ---------------------------------------------------------------------------


def _encode_n(n: int) -> bytes:
    if n <= 62:
        return bytes((n + _G6_MIN,))
    if n <= 258047:
        return b"~" + bytes(((n >> shift) & 0x3F) + _G6_MIN for shift in (12, 6, 0))
    raise Graph6Error(f"vertex count {n} too large for this encoder")


def _graph_from_bits(n: int, bits: int) -> Graph:
    """The n-vertex graph whose upper-triangle bits are ``bits``, edges sorted by (u, v)."""
    edges = []
    for v in range(n - 1, 0, -1):  # the last column holds the low bits
        col = bits & ((1 << v) - 1)
        bits >>= v
        while col:
            low = col & -col
            edges.append((v - low.bit_length(), v))  # bit t of column v is x(v-1-t)v
            col ^= low
    return _normalized_graph(n, tuple(sorted(edges)))


def _bits(p: int, edges) -> int:
    """Upper-triangle bits of the p-vertex graph with these edges, each pair in either order."""
    top = p * (p - 1) // 2 - 1
    bits = 0
    for u, v in edges:
        if u > v:
            u, v = v, u
        bits |= 1 << (top - v * (v - 1) // 2 - u)
    return bits


def _degree_sorted_bits(g: Graph) -> int:
    """Upper-triangle bits of g relabelled by nonincreasing degree, ties kept in order.

    The result is a relabelling of g, so graphs with equal bits and p are
    isomorphic: a cheap key under which relabelled copies often meet.
    """
    p = g.p
    degrees = g.degrees()
    rank = [0] * p
    # a reverse sort keeps equal keys in their original order
    for i, v in enumerate(sorted(range(p), key=degrees.__getitem__, reverse=True)):
        rank[v] = i
    return _bits(p, [(rank[u], rank[v]) for u, v in g.edges])


def emit_graph6(g: Graph) -> str:
    """Canonical graph6 record for g's labeled adjacency (no header, no newline)."""
    prefix = _encode_n(g.p)  # first, so an order too large fails before any work
    nbits = g.p * (g.p - 1) // 2
    pad = -nbits % 6
    bits = _bits(g.p, g.edges) << pad
    body = bytes(((bits >> shift) & 0x3F) + _G6_MIN for shift in range(nbits + pad - 6, -1, -6))
    return (prefix + body).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record, with or without the optional format header."""
    text = text.removeprefix(_GRAPH6_HEADER).rstrip("\n")
    if not text:
        raise Graph6Error("empty graph6 record")
    values = [ord(ch) - _G6_MIN for ch in text]
    if min(values) < 0 or max(values) > _G6_MAX - _G6_MIN:
        ch = next(ch for ch in text if not _G6_MIN <= ord(ch) <= _G6_MAX)
        raise Graph6Error(f"character {ch!r} out of graph6 range 63..126")

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
    bits = 0
    for value in body:
        bits = (bits << 6) | value
    pad = expected_chars * 6 - nbits
    # Padding bits of a well-formed record are zero.
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    return _graph_from_bits(n, bits >> pad)


# ---------------------------------------------------------------------------
# Canonical forms
#
# The canonical code of a graph is the lexicographically smallest graph6
# record achievable by relabeling its vertices so that degrees come out
# nonincreasing.  Isomorphic graphs search the same space of degree-respecting
# orderings, hence reach the same minimum; the record pins down the whole
# labeled adjacency, so distinct classes cannot collide.
#
# The search places one vertex per position.  The column of a candidate is its
# adjacency to the vertices already placed, first placed as most significant
# bit: exactly the graph6 column that position would get.  Records compare
# column by column, and every partial ordering completes (the unplaced
# vertices always carry the remaining degrees), so only the candidates with
# the least column can lead to the minimum, and a branch whose columns exceed
# the best record's stops.  The least columns found are the canonical
# record's bits, so codes are read off the search, and the canonical graph is
# built from the same bits.
# ---------------------------------------------------------------------------


def _canonical_bits(g: Graph) -> int:
    """Upper-triangle bits of g's canonical relabeling."""
    p = g.p
    masks = [0] * p
    neighbours: list[list[int]] = [[] for _ in range(p)]
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        neighbours[u].append(v)
        neighbours[v].append(u)
    by_degree: dict[int, list[int]] = {}
    # Open and closed neighbourhoods never coincide, so one map holds both.
    twins: dict[int, int] = {}  # neighbourhood -> vertices that have it
    for v, mask in enumerate(masks):
        by_degree.setdefault(len(neighbours[v]), []).append(v)
        twins[mask] = twins.get(mask, 0) | 1 << v
        twins[mask | 1 << v] = twins.get(mask | 1 << v, 0) | 1 << v
    # Swapping twins (vertices with the same neighbours besides each other) is
    # an automorphism that fixes every other vertex, so of the unplaced
    # members of a twin class only the lowest is tried.
    lower_twins = [
        (twins[mask] | twins[mask | 1 << v]) & ((1 << v) - 1) for v, mask in enumerate(masks)
    ]
    # The vertices each position may take, by nonincreasing degree.
    cells = [by_degree[d] for d in sorted(by_degree, reverse=True) for _ in by_degree[d]]
    # vals[v] holds v's adjacency to the placed vertices, the one at position
    # i as bit p-1-i: its column at any position, shifted left by a constant.
    vals = [0] * p
    best: list[int] = []  # least shifted columns found, one per position
    path: list[int] = []  # shifted columns of the current partial ordering

    def extend(pos: int, unplaced: int, equal: bool) -> bool:
        """Search below the current ordering; True if it set a new best.

        ``equal`` says that the columns so far equal ``best``'s; otherwise
        they are less, or no best exists yet.
        """
        least = None
        ties = []
        for v in cells[pos]:
            if not unplaced >> v & 1 or lower_twins[v] & unplaced:
                continue
            val = vals[v]
            if least is None or val < least:
                least = val
                ties = [v]
            elif val == least:
                ties.append(v)
        if equal:
            if least > best[pos]:
                return False
            equal = least == best[pos]
        path.append(least)
        improved = False
        if pos == p - 1:
            if not equal:  # else the same record again: an automorphism
                best[:] = path
                improved = True
        else:
            bit = 1 << (p - 1 - pos)
            for v in ties:
                for w in neighbours[v]:
                    vals[w] |= bit
                if extend(pos + 1, unplaced & ~(1 << v), equal):
                    improved = equal = True
                for w in neighbours[v]:
                    vals[w] ^= bit
        path.pop()
        return improved

    extend(0, (1 << p) - 1, False)
    bits = 0
    for pos, val in enumerate(best):
        bits = (bits << pos) | (val >> (p - pos))
    return bits


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of g (vertices sorted by nonincreasing degree).

    Any order is searched, at a worst-case cost that grows factorially.
    """
    return _graph_from_bits(g.p, _canonical_bits(g))


def canonical_form(g: Graph) -> bytes:
    """Relabeling-invariant byte code identifying g's isomorphism class.

    Codes are graph6 records of ``canonical_graph(g)``, so they sort by
    vertex count first and are directly decodable.  A caller that needs the
    canonical graph too calls ``canonical_graph`` and reads the code off it
    with ``emit_graph6``, making one search for both.
    """
    return emit_graph6(canonical_graph(g)).encode("ascii")
