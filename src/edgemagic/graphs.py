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
caps it (``P_MAX``).  Decoded and canonical graphs are built from their bits
through two tables made at import: ``_FLAGS`` spells the bits out, and each
set bit selects a vertex pair from ``_PAIRS``, which covers every order with
a one-character graph6 length prefix (n <= 62; a larger order generates its
pairs).  Their edges come out normalized, so they skip the checked
constructor.  The degree-sorted key that spares most searches,
``_degree_sorted_bits``, is read straight off an order and an edge list
through a per-order table of pair bits (``_pair_masks``), so a labelled
edge set is keyed before, and often instead of, becoming a ``Graph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

# Default vertex cap of a census on graphs read from input: larger ones are
# not canonicalized (the search's worst case grows factorially).
P_MAX = 10

# graph6 uses printable ASCII 63..126, six data bits per character.
_G6_MIN = 63
_G6_MAX = 126
_G6_CHARS = "".join(map(chr, range(_G6_MIN, _G6_MAX + 1)))
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
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise ValueError(f"edge {pair!r} is not a pair of vertices") from None
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
# Encoding goes through one integer holding that bit string, x01 as its most
# significant bit: column v is the v bits x0v..x(v-1)v.  Decoding spells the
# bits out as bytes 0 and 1, through one translation table (a record's body
# character by character, or an integer's binary digits), and keeps the
# vertex pairs whose byte is 1.  Those pairs, in graph6 bit order, are a
# prefix of one tuple for every order with a one-character prefix (n <= 62);
# a larger order generates its pairs as it goes, so no table grows with the
# orders decoded.
# ---------------------------------------------------------------------------

# Each graph6 character -> its six bits, and each binary digit -> its bit,
# written as chr(0) and chr(1) so that the encoded string selects pairs.
_FLAGS = str.maketrans({
    **{ch: "".join(chr(int(b)) for b in f"{value:06b}") for value, ch in enumerate(_G6_CHARS)},
    "0": "\x00",
    "1": "\x01",
})
# The pairs of order 62 in graph6 bit order (x01, x02, x12, x03, ...), 1,891
# of them; order n <= 62 takes the first n(n-1)/2.
_PAIRS = tuple((u, v) for v in range(1, 62) for u in range(v))


def _encode_n(n: int) -> bytes:
    if n <= 62:
        return bytes((n + _G6_MIN,))
    if n <= 258047:
        return b"~" + bytes(((n >> shift) & 0x3F) + _G6_MIN for shift in (12, 6, 0))
    raise Graph6Error(f"vertex count {n} too large for this encoder")


def _graph_from_flags(n: int, flags: bytes) -> Graph:
    """The n-vertex graph whose upper-triangle bits, in graph6 order, are ``flags``.

    ``flags`` holds bytes 0 and 1, and any past the first n(n-1)/2 are 0.
    Edges come out sorted by (u, v).
    """
    pairs = _PAIRS if n <= 62 else ((u, v) for v in range(1, n) for u in range(v))
    return _normalized_graph(n, tuple(sorted(compress(pairs, flags))))


def _graph_from_bits(n: int, bits: int) -> Graph:
    """The n-vertex graph whose upper-triangle bits are ``bits``, edges sorted by (u, v)."""
    return _graph_from_flags(n, format(bits, f"0{n * (n - 1) // 2}b").translate(_FLAGS).encode())


def _bits(p: int, edges) -> int:
    """Upper-triangle bits of the p-vertex graph with these edges, each pair in either order."""
    top = p * (p - 1) // 2 - 1
    bits = 0
    for u, v in edges:
        if u > v:
            u, v = v, u
        bits |= 1 << (top - v * (v - 1) // 2 - u)
    return bits


def _pair_masks(p: int) -> list[list[int]]:
    """Order p's upper-triangle bits by pair: ``masks[i][j]`` is {i, j}'s bit, either way round.

    Its entries are C(p, 2)-bit ints, so a caller builds it once per order it
    keys and drops it when done, rather than keeping one for every order.
    """
    top = p * (p - 1) // 2 - 1
    masks = [[0] * p for _ in range(p)]
    for v in range(1, p):
        for u in range(v):
            masks[u][v] = masks[v][u] = 1 << (top - v * (v - 1) // 2 - u)
    return masks


def _degree_sorted_bits(p: int, edges, masks: list[list[int]]) -> int:
    """Upper-triangle bits of (p, edges) relabelled by nonincreasing degree, ties kept in order.

    ``edges`` are distinct pairs, each in either order, and ``masks`` is
    ``_pair_masks(p)``.  The result is a relabelling of the graph, so graphs
    with equal bits and p are isomorphic: a cheap key under which relabelled
    copies often meet, read straight off the edges without building a Graph.
    """
    degrees = [0] * p
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    rank = [0] * p
    # a reverse sort keeps equal keys in their original order
    for i, v in enumerate(sorted(range(p), key=degrees.__getitem__, reverse=True)):
        rank[v] = i
    bits = 0
    for u, v in edges:
        bits |= masks[rank[u]][rank[v]]
    return bits


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
    bad = text.lstrip(_G6_CHARS)  # from the first character out of range
    if bad:
        raise Graph6Error(f"character {bad[0]!r} out of graph6 range 63..126")

    if text[0] != "~":
        n = ord(text[0]) - _G6_MIN
        body = text[1:]
    else:
        if text[1:2] == "~":
            raise Graph6Error("8-byte length prefix (n > 258047) not supported")
        if len(text) < 4:
            raise Graph6Error("truncated length prefix")
        high, mid, low = (ord(ch) - _G6_MIN for ch in text[1:4])
        n = (high << 12) | (mid << 6) | low
        if n < 63:
            raise Graph6Error(f"non-canonical long prefix for n={n}")
        body = text[4:]

    if n == 0:
        raise Graph6Error("graph6 record with zero vertices")
    nbits = n * (n - 1) // 2
    expected_chars = (nbits + 5) // 6
    if len(body) != expected_chars:
        raise Graph6Error(
            f"record length mismatch: n={n} needs {expected_chars} data "
            f"characters, got {len(body)}"
        )
    flags = body.translate(_FLAGS).encode()
    # Padding bits of a well-formed record are zero.
    if 1 in flags[nbits:]:
        raise Graph6Error("nonzero padding bits")
    return _graph_from_flags(n, flags)


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
