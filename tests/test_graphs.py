"""Graph construction, graph6 codec, canonical forms.

networkx serves as the independent oracle for codec bytes and isomorphism.
"""

import itertools

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
    relabel,
)
import edgemagic.graphs as graphs_mod
from edgemagic.graphs import is_connected

from conftest import graph_strategy as graphs
from conftest import random_graph, random_permutation, to_networkx

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

    def test_relabel_identity_and_inverse(self):
        g = Graph(4, MOP4_EDGES)
        assert relabel(g, [0, 1, 2, 3]) == g
        perm = [2, 0, 3, 1]
        inverse = [perm.index(i) for i in range(4)]
        assert relabel(relabel(g, perm), inverse) == g

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

    def test_relabel_rejects_float_permutation(self):
        # [0.0, 1.0] == [0, 1], so the permutation check alone lets this through
        with pytest.raises(ValueError, match="not an int"):
            relabel(Graph(2, ((0, 1),)), [1.0, 0.0])

    @pytest.mark.parametrize("perm", [[1.0, 0.0], [True, False, 2], [0, 1, 2.0]],
                             ids=["float", "bool", "last-float"])
    def test_relabel_rejects_non_int_permutation_of_edgeless_graph(self, perm):
        # with no edges, no Graph vertex check sees the permutation's entries
        with pytest.raises(ValueError, match="not an int"):
            relabel(Graph(len(perm)), perm)

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
