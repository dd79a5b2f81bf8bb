"""Graph construction, graph6 codec, canonical forms.

networkx serves as the independent oracle for codec bytes and isomorphism.
"""

import itertools
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgemagic import (
    Graph,
    Graph6Error,
    canonical_form,
    canonical_graph,
    emit_graph6,
    parse_graph6,
)
import edgemagic.graphs as graphs_mod
from edgemagic.graphs import is_connected

from conftest import graph_strategy as graphs
from conftest import degree_sorted_record, random_graph, random_permutation, to_networkx
from oracles import decode_graph6_bitwise, relabel

MOP4_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]


class TestConstruction:
    def test_k2(self):
        g = Graph(2, [(0, 1)])
        assert g.p == 2 and g.q == 1 and g.edges == ((0, 1),)

    def test_order4_mop(self):
        g = Graph(4, MOP4_EDGES)
        assert g.q == 5
        assert sorted(g.degrees(), reverse=True) == [3, 3, 2, 2]

    def test_normalization(self):
        g = Graph(3, [(2, 0), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            Graph(3, [(0, 1), (1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            Graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\(1, 3\)"):
            Graph(3, [(1, 3)])

    def test_empty_vertexless_rejected(self):
        with pytest.raises(ValueError):
            Graph(0)

    @pytest.mark.parametrize("p,edges,bad", [
        (2.5, (), "2.5"),
        (True, (), "True"),
        (3, ((0.5, 2),), "0.5"),
        (3, ((0, 2.0),), "2.0"),
        (3, ((False, 2),), "False"),
    ], ids=["float-order", "bool-order", "float-vertex", "integral-float-vertex", "bool-vertex"])
    def test_non_int_rejected(self, p, edges, bad):
        with pytest.raises(ValueError, match=bad):
            Graph(p, edges)

    @pytest.mark.parametrize("edge", [1, None, (0, 1, 2), (0,)],
                             ids=["int", "none", "triple", "single"])
    def test_edge_that_is_not_a_pair_rejected(self, edge):
        with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} is not a pair")):
            Graph(3, [(0, 1), edge])

    def test_components(self):
        g = Graph(5, [(0, 1), (3, 4)])
        assert not is_connected(g)
        assert is_connected(Graph(2, [(0, 1)]))

    @given(graphs())
    def test_connectivity_matches_networkx(self, g):
        assert is_connected(g) == nx.is_connected(to_networkx(g))


class TestGraph6:
    def test_parse_complete_four(self):
        # 'C' - 63 = 4 vertices, '~' - 63 = 63 = all six upper-triangle bits
        g = parse_graph6("C~")
        assert g.p == 4 and g.q == 6

    def test_emit_k2(self):
        assert emit_graph6(Graph(2, [(0, 1)])) == "A_"

    def test_emit_single_vertex(self):
        assert emit_graph6(Graph(1)) == "@"

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<C~") == parse_graph6("C~")

    def test_empty_record(self):
        with pytest.raises(Graph6Error, match="empty"):
            parse_graph6("")

    def test_character_out_of_range(self):
        with pytest.raises(Graph6Error, match="range"):
            parse_graph6("C~\x07")

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error, match="length"):
            parse_graph6("C~~")

    def test_truncated(self):
        with pytest.raises(Graph6Error, match="length"):
            parse_graph6("C")

    def test_nonzero_padding(self):
        # K2 padded bits must be zero: 'A_' is valid, 'A' + chr(63+33) is not
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6("A" + chr(63 + 0b100001))

    def test_zero_vertices_rejected(self):
        with pytest.raises(Graph6Error, match="zero"):
            parse_graph6("?")

    @given(graphs(max_p=12))
    def test_round_trip(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    @given(graphs(max_p=12))
    @settings(max_examples=50)
    def test_matches_networkx_encoding(self, g):
        expected = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert emit_graph6(g) == expected

    def test_parse_matches_networkx(self, rng):
        for _ in range(50):
            g = random_graph(rng)
            record = emit_graph6(g)
            nxg = nx.from_graph6_bytes(record.encode())
            assert set(nxg.edges()) == set(g.edges)
            assert nxg.number_of_nodes() == g.p

    def test_long_form_prefix(self, rng):
        # 63 or more vertices force the '~' + 3-character length prefix
        for g in [Graph(63, ((0, 62),))] + [random_graph(rng, 63, 70) for _ in range(8)]:
            record = emit_graph6(g)
            assert record.startswith("~")
            assert parse_graph6(record) == g
            expected = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
            assert record == expected

    def test_eight_byte_prefix_rejected(self):
        with pytest.raises(Graph6Error, match="not supported"):
            parse_graph6("~~" + "?" * 8)

    @pytest.mark.parametrize("record, message", [
        ("~?", "truncated length prefix"),
        ("~??B", "non-canonical long prefix for n=3"),
    ], ids=["truncated", "non-canonical"])
    def test_bad_long_prefix_rejected(self, record, message):
        with pytest.raises(Graph6Error, match=message):
            parse_graph6(record)

    @pytest.mark.parametrize("record, message", [
        ("", "empty graph6 record"),
        (">>graph6<<", "empty graph6 record"),
        ("\x07", "character '\\x07' out of graph6 range 63..126"),
        ("\udcff", "character '\\udcff' out of graph6 range 63..126"),
        ("C\x07~\x01", "character '\\x07' out of graph6 range 63..126"),
        ("C~~", "record length mismatch: n=4 needs 1 data characters, got 2"),
        ("C", "record length mismatch: n=4 needs 1 data characters, got 0"),
        ("A" + chr(63 + 0b100001), "nonzero padding bits"),
        ("?", "graph6 record with zero vertices"),
        ("~~" + "?" * 8, "8-byte length prefix (n > 258047) not supported"),
        ("~?", "truncated length prefix"),
        ("~??B", "non-canonical long prefix for n=3"),
    ], ids=["empty", "header-only", "control", "surrogate", "first-of-two", "trailing",
            "truncated-body", "padding", "zero-order", "8-byte-prefix", "truncated-prefix",
            "non-canonical-prefix"])
    def test_malformed_record_message(self, record, message):
        with pytest.raises(Graph6Error) as raised:
            parse_graph6(record)
        assert str(raised.value) == message

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_small_record_matches_the_bitwise_oracle(self, n):
        # Every bit pattern of orders 1-5, 1,099 records in all, through both
        # decoders: the record's and the canonical graph's (from its bits).
        nbits = n * (n - 1) // 2
        pad = -nbits % 6
        for bits in range(1 << nbits):
            padded = bits << pad
            body = "".join(chr(63 + (padded >> shift & 0x3F))
                           for shift in range(nbits + pad - 6, -1, -6))
            record = chr(63 + n) + body
            expected = decode_graph6_bitwise(record)
            assert parse_graph6(record) == expected
            assert graphs_mod._graph_from_bits(n, bits) == expected

    @pytest.mark.parametrize("n", [61, 62, 63, 64])
    @pytest.mark.parametrize("density", [0.05, 0.95], ids=["sparse", "dense"])
    def test_orders_around_the_pair_table_bound(self, n, density):
        # The pair table covers orders up to 62; 63 and 64 generate their pairs.
        rng = random.Random(n)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, [pair for pair in pairs if rng.random() < density])
        record = emit_graph6(g)
        assert record == nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert parse_graph6(record) == g
        assert graphs_mod._graph_from_bits(n, graphs_mod._bits(n, g.edges)) == g

    def test_order_too_large_fails_before_the_body(self, monkeypatch):
        # The body of this edgeless graph would be about 5.5e9 six-bit groups.
        monkeypatch.setattr(graphs_mod, "_bits", lambda p, edges: pytest.fail("body built"))
        with pytest.raises(Graph6Error, match="vertex count 258048 too large"):
            emit_graph6(Graph(258048))


class TestDegreeSequence:
    def test_k2(self):
        assert Graph(2, [(0, 1)]).degrees() == [1, 1]

    def test_empty(self):
        assert Graph(3).degrees() == [0, 0, 0]

    @given(graphs())
    def test_sums_to_twice_edge_count(self, g):
        assert sum(g.degrees()) == 2 * g.q


class TestDegreeSortedKey:
    # The key is read off (p, edges) through a per-order table; decoded, it
    # must be the record of the stable nonincreasing-degree relabelling that
    # conftest.degree_sorted_record builds through relabel.
    @staticmethod
    def key_record(p, edges):
        key = graphs_mod._degree_sorted_bits(p, edges, graphs_mod._pair_masks(p))
        return emit_graph6(graphs_mod._graph_from_bits(p, key))

    @given(graphs(max_p=9))
    @settings(max_examples=300)
    def test_key_is_the_degree_sorted_relabelling(self, g):
        assert self.key_record(g.p, g.edges) == degree_sorted_record(g)
        flipped = tuple((v, u) for u, v in reversed(g.edges))
        assert self.key_record(g.p, flipped) == degree_sorted_record(g)

    @pytest.mark.parametrize("p", range(1, 10))
    def test_edgeless(self, p):
        assert graphs_mod._degree_sorted_bits(p, (), graphs_mod._pair_masks(p)) == 0
        assert self.key_record(p, ()) == degree_sorted_record(Graph(p)) == emit_graph6(Graph(p))


class TestCanonicalForm:
    def test_path_relabelings_agree(self):
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        scrambled = Graph(4, [(2, 0), (0, 3), (3, 1)])
        assert canonical_form(p4) == canonical_form(scrambled)

    def test_path_vs_star_differ(self):
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_form(p4) != canonical_form(star)

    def test_triangle_full_orbit(self):
        triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
        codes = {
            canonical_form(relabel(triangle, perm))
            for perm in itertools.permutations(range(3))
        }
        assert len(codes) == 1

    def test_canonical_graph_is_fixed_point(self):
        g = Graph(4, MOP4_EDGES)
        rep = canonical_graph(g)
        assert canonical_graph(rep) == rep
        assert emit_graph6(rep).encode() == canonical_form(g)

    def test_any_order_searched(self, rng):
        # No cap: order 11 is past the census default of 10.
        assert canonical_form(Graph(11)) == b"J??????????"
        for g in [random_graph(rng, 11, 11) for _ in range(3)]:
            assert canonical_form(g) == canonical_form(relabel(g, random_permutation(rng, 11)))

    @given(graphs(max_p=7), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_invariant_under_relabeling(self, g, rnd):
        perm = list(range(g.p))
        rnd.shuffle(perm)
        assert canonical_form(g) == canonical_form(relabel(g, perm))

    def test_invariant_at_cap_boundary(self, rng):
        # orders 8..10 exercise larger degree classes in the ordering search
        from edgemagic.generators import generate_mops

        for p in (8, 9, 10):
            for g in generate_mops(p)[:4]:
                for _ in range(3):
                    assert canonical_form(g) == canonical_form(
                        relabel(g, random_permutation(rng, p))
                    )

    def test_single_vertex(self):
        assert canonical_form(Graph(1)) == b"@"

    def test_least_record_over_degree_respecting_relabelings(self, rng):
        # the definition itself: every labelled graph with p <= 5, and a
        # seeded sample at p = 6-7
        every = every_labelled_graph(5)
        assert len(every) == 1 + 2 + 8 + 64 + 1024
        for g in every + [random_graph(rng, 6, 7) for _ in range(150)]:
            assert canonical_form(g) == least_degree_respecting_record(g), g

    def test_partition_matches_networkx_on_order_four(self):
        # all 64 labeled graphs on 4 vertices: code equality must coincide
        # with VF2 isomorphism on every pair
        pairs = list(itertools.combinations(range(4), 2))
        all_graphs = [
            Graph(4, subset)
            for r in range(len(pairs) + 1)
            for subset in itertools.combinations(pairs, r)
        ]
        assert len(all_graphs) == 64
        codes = [canonical_form(g) for g in all_graphs]
        for i, j in itertools.combinations(range(64), 2):
            same_code = codes[i] == codes[j]
            same_class = nx.is_isomorphic(to_networkx(all_graphs[i]), to_networkx(all_graphs[j]))
            assert same_code == same_class

    def test_agrees_with_networkx_on_random_pairs(self, rng):
        for _ in range(200):
            g = random_graph(rng, p_min=2, p_max=7)
            h = random_graph(rng, p_min=g.p, p_max=g.p)
            ours = canonical_form(g) == canonical_form(h)
            theirs = nx.is_isomorphic(to_networkx(g), to_networkx(h))
            assert ours == theirs


class TestDecodedGraphsNormalized:
    # parse_graph6 and canonical_graph build their graphs from already
    # normalized edges, skipping the validating constructor; each must come
    # out as that constructor would have built it.
    @staticmethod
    def assert_as_validated(built):
        validated = Graph(built.p, tuple(reversed(built.edges)))
        assert built == validated and hash(built) == hash(validated)
        assert built.edges == validated.edges

    def test_decoded_and_canonical_graphs_match_validating_constructor(self, rng):
        for g in every_labelled_graph(5) + [random_graph(rng, 1, 12) for _ in range(200)]:
            self.assert_as_validated(parse_graph6(emit_graph6(g)))
            self.assert_as_validated(canonical_graph(g))
        for _ in range(8):  # the long graph6 form
            self.assert_as_validated(parse_graph6(emit_graph6(random_graph(rng, 63, 70))))


def every_labelled_graph(p_max: int) -> list[Graph]:
    """Every graph on vertices 0..p-1 for p = 1..p_max."""
    return [
        Graph(p, subset)
        for p in range(1, p_max + 1)
        for pairs in [list(itertools.combinations(range(p), 2))]
        for r in range(len(pairs) + 1)
        for subset in itertools.combinations(pairs, r)
    ]


def least_degree_respecting_record(g: Graph) -> bytes:
    """The least graph6 record over relabelings that leave degrees nonincreasing."""
    degrees = g.degrees()
    classes = [[v for v in range(g.p) if degrees[v] == d]
               for d in sorted(set(degrees), reverse=True)]
    records = []
    for parts in itertools.product(*(itertools.permutations(c) for c in classes)):
        order = [v for part in parts for v in part]
        records.append(emit_graph6(relabel(g, [order.index(v) for v in range(g.p)])))
    return min(records).encode()


class TestAreIsomorphic:
    def test_relabeled_cycle(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert canonical_form(c4) == canonical_form(relabel(c4, [2, 0, 3, 1]))

    def test_cycle_vs_paw(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        paw = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert canonical_form(c4) != canonical_form(paw)

    def test_triangle_plus_isolated_vs_star(self):
        k3_k1 = Graph(4, [(0, 1), (1, 2), (0, 2)])
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_form(k3_k1) != canonical_form(star)
