"""Triangulation enumeration, MOP and sparse generation, named families, and the
frozen (p, p-h) spectrum table."""

import hashlib
import itertools
from pathlib import Path

import pytest

import edgemagic.generators as generators
from edgemagic import (
    Graph,
    canonical_form,
    canonical_graph,
    emit_graph6,
    parse_graph6,
)
from edgemagic.census import run_census
from edgemagic.generators import (
    SparseSpec,
    generate_by_edge_count,
    generate_mops,
    generate_sparse_graphs,
    named_family,
    triangulations,
)

from conftest import degree_sorted_record, record_calls

DATA = Path(__file__).parent / "data"


def catalan(n: int) -> int:
    # independent of the enumerator: the additive recurrence
    values = [1]
    for m in range(n):
        values.append(sum(values[i] * values[m - i] for i in range(m + 1)))
    return values[n]


class TestTriangulations:
    @pytest.mark.parametrize("p", range(3, 11))
    def test_stream_count_is_catalan(self, p):
        assert sum(1 for _ in triangulations(p)) == catalan(p - 2)

    def test_small_counts(self):
        assert sum(1 for _ in triangulations(4)) == 2
        assert sum(1 for _ in triangulations(5)) == 5
        assert sum(1 for _ in triangulations(8)) == 132

    def test_codes_are_distinct(self):
        graphs = list(triangulations(6))
        assert len({g.edges for g in graphs}) == len(graphs) == 14

    def test_chord_count(self):
        for g in triangulations(7):
            assert g.p == 7 and g.q == 7 + 4  # hull plus n - 3 chords

    def test_boundary_cycle_present(self):
        for g in triangulations(6):
            for i in range(6):
                assert tuple(sorted((i, (i + 1) % 6))) in g.edges
            assert g.q == 2 * 6 - 3

    def test_too_small_polygon(self):
        with pytest.raises(ValueError):
            list(triangulations(2))


class TestGenerateMops:
    def test_triangle(self):
        mops = generate_mops(3)
        assert len(mops) == 1
        assert canonical_form(mops[0]) == canonical_form(named_family("cycle", 3))

    def test_order_four_unique(self):
        mops = generate_mops(4)
        assert len(mops) == 1
        square_plus_chord = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert canonical_form(mops[0]) == canonical_form(square_plus_chord)

    @pytest.mark.parametrize(
        "p,count", [(4, 1), (5, 1), (6, 3), (7, 4), (8, 12), (9, 27), (10, 82)]
    )
    def test_class_counts(self, p, count):
        assert len(generate_mops(p)) == count

    def test_structure_invariants(self):
        for p in range(4, 9):
            for g in generate_mops(p):
                assert g.q == 2 * p - 3
                degs = g.degrees()
                assert min(degs) >= 2
                assert sum(1 for d in degs if d == 2) >= 2  # ears

    def test_pairwise_non_isomorphic_and_sorted(self):
        mops = generate_mops(7)
        codes = [canonical_form(g) for g in mops]
        assert len(set(codes)) == len(mops)
        assert codes == sorted(codes)

    def test_representatives_are_canonical(self):
        for g in generate_mops(6):
            assert emit_graph6(g).encode() == canonical_form(g)

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            generate_mops(11)
        assert len(generate_mops(11, p_max=11)) == 228

    @pytest.mark.parametrize("p", range(3, 11))
    def test_matches_triangulation_oracle(self, p):
        # every labeled triangulation, deduplicated by canonical form
        by_code = {}
        for g in triangulations(p):
            rep = canonical_graph(g)
            by_code.setdefault(canonical_form(rep), rep)
        assert generate_mops(p) == [by_code[key] for key in sorted(by_code)]

    @pytest.mark.parametrize("p,count", [(11, 228), (12, 733), (13, 2282)])
    def test_class_counts_oeis_a000207(self, p, count):
        assert len(generate_mops(p, p_max=p)) == count

    def test_one_canonicalization_per_class(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return canonical_graph(g)

        monkeypatch.setattr(generators, "canonical_graph", counted)
        assert len(generate_mops(9)) == len(calls) == 27

    def test_too_small(self):
        with pytest.raises(ValueError):
            generate_mops(2)

    # SHA-256 over the graph6 code and edge tuple of every generate_mops(p)
    # output for p = 3..11, in output order.  Generator rewrites must emit the
    # same representatives in the same order.
    DIGEST = "157fe12f21294b8b391173e840aebed0d0c345f18e3204bb68634342f98c9bac"

    def test_golden_digest(self):
        h = hashlib.sha256()
        for p in range(3, 12):
            for g in generate_mops(p, p_max=11):
                h.update(emit_graph6(g).encode() + b" " + repr(g.edges).encode() + b"\n")
        assert h.hexdigest() == self.DIGEST


# Every (p, q) with p <= 6, then p = 7 with q <= 7.
SPARSE_CASES = [(p, q) for p in range(1, 7) for q in range(p * (p - 1) // 2 + 1)]
SPARSE_CASES += [(7, q) for q in range(8)]


@pytest.fixture(scope="module")
def sparse_runs():
    """(p, q, connected_only) -> (generate_by_edge_count output, the first
    arguments it passed to each of canonical_graph, is_connected and
    _normalized_graph), over SPARSE_CASES and both flag values.  Built once
    for the tests that read it."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        calls = record_calls(
            mp, generators, ("canonical_graph", "is_connected", "_normalized_graph"))
        for connected_only in (False, True):
            for p, q in SPARSE_CASES:
                graphs = generate_by_edge_count(p, q, connected_only)
                runs[p, q, connected_only] = (graphs, {name: seen[:] for name, seen in calls.items()})
                for seen in calls.values():
                    seen.clear()
    return runs


class TestGenerateSparse:
    def test_three_vertices_full(self):
        graphs = generate_sparse_graphs(SparseSpec(3, 0))
        assert len(graphs) == 1
        assert canonical_form(graphs[0]) == canonical_form(named_family("cycle", 3))

    def test_four_vertices_three_edges(self):
        graphs = generate_sparse_graphs(SparseSpec(4, 1))
        assert len(graphs) == 3
        expected = [
            named_family("path", 4),
            named_family("star", 4),
            Graph(4, [(0, 1), (1, 2), (0, 2)]),  # triangle + isolated
        ]
        for target in expected:
            assert sum(1 for g in graphs if canonical_form(g) == canonical_form(target)) == 1

    def test_four_vertices_four_edges(self):
        graphs = generate_sparse_graphs(SparseSpec(4, 0))
        assert len(graphs) == 2
        paw = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert any(canonical_form(g) == canonical_form(named_family("cycle", 4)) for g in graphs)
        assert any(canonical_form(g) == canonical_form(paw) for g in graphs)

    def test_connected_only(self):
        graphs = generate_sparse_graphs(SparseSpec(4, 1), connected_only=True)
        assert len(graphs) == 2  # triangle + isolated vertex drops out

    def test_completeness_order_four(self):
        # every labeled 3-edge graph on 4 vertices matches some representative
        reps = {canonical_form(g) for g in generate_by_edge_count(4, 3)}
        pairs = list(itertools.combinations(range(4), 2))
        for subset in itertools.combinations(pairs, 3):
            assert canonical_form(Graph(4, subset)) in reps

    def test_impossible_edge_count(self):
        assert generate_by_edge_count(2, 2) == []

    def test_sorted_canonical_output(self):
        graphs = generate_sparse_graphs(SparseSpec(5, 1))
        codes = [emit_graph6(g).encode() for g in graphs]
        assert codes == sorted(codes)
        assert all(emit_graph6(g).encode() == canonical_form(g) for g in graphs)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SparseSpec(3, -1)
        with pytest.raises(ValueError):
            SparseSpec(2, 3)

    def test_order_past_eight(self):
        # No cap: the order named runs (C(36, 3) = 7,140 subsets here).
        assert [emit_graph6(g) for g in generate_by_edge_count(9, 3)] == [
            "H@Q????", "HK_????", "Hk?????", "Hs?????", "Hw?????"]

    def test_class_counts_match_vf2_oracle_order_four(self):
        import networkx as nx
        from conftest import to_networkx

        for q in range(7):
            reps = []
            for subset in itertools.combinations(list(itertools.combinations(range(4), 2)), q):
                nxg = to_networkx(Graph(4, subset))
                if not any(nx.is_isomorphic(nxg, r) for r in reps):
                    reps.append(nxg)
            assert len(generate_by_edge_count(4, q)) == len(reps)

    @pytest.mark.parametrize(
        "p,row",
        [
            (4, [1, 1, 2, 3, 2, 1, 1]),
            (5, [1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1]),
            (6, [1, 1, 2, 5, 9, 15, 21, 24, 24, 21, 15, 9, 5, 2, 1, 1]),
        ],
    )
    def test_class_counts_by_edge_count(self, p, row):
        # frozen after cross-checking against VF2 dedupe; each row must also be
        # a palindrome (complementation is a class bijection between q and max-q)
        counts = [len(generate_by_edge_count(p, q)) for q in range(p * (p - 1) // 2 + 1)]
        assert counts == row
        assert counts == counts[::-1]

    @pytest.mark.parametrize("q,searches,classes", [(7, 1210, 65), (6, 496, 41), (5, 209, 21)])
    def test_one_search_per_degree_sorted_subset(self, sparse_runs, q, searches, classes):
        # Subsets of K7 whose degree-sorted relabellings agree share one
        # canonical search; searching every subset took 116,280, 54,264 and
        # 20,349 searches.  Subsets are keyed from their edge tuples, so only
        # those with a new key become a Graph: building one per subset took
        # as many builds as that.
        graphs, calls = sparse_runs[7, q, False]
        assert len(graphs) == classes
        assert len(calls["canonical_graph"]) == searches
        assert len(calls["_normalized_graph"]) == searches
        assert len({degree_sorted_record(g) for g in calls["canonical_graph"]}) == searches
        assert calls["is_connected"] == []
        _, calls = sparse_runs[7, q, True]
        if q < 7 - 1:
            # Too few edges for a connected graph: no subset is even built.
            assert calls == {"canonical_graph": [], "is_connected": [], "_normalized_graph": []}
        else:
            # A repeated key is skipped before the connectivity test.
            assert calls["is_connected"] == sparse_runs[7, q, False][1]["canonical_graph"]

    # SHA-256 over the graph6 code and edge tuple of every
    # generate_by_edge_count(p, q, connected_only) output, in output order,
    # for connected_only False then True, each over SPARSE_CASES.  Taken when
    # every subset was searched; a faster generator must emit the same
    # representatives in the same order.
    DIGEST = "a42d2aa96120b1a5d41d13a662a9dd5fad4e3f7c1f9dec106648d0fc28761e86"

    def test_golden_digest(self, sparse_runs):
        h = hashlib.sha256()
        for connected_only in (False, True):
            for p, q in SPARSE_CASES:
                for g in sparse_runs[p, q, connected_only][0]:
                    h.update(emit_graph6(g).encode() + b" " + repr(g.edges).encode() + b"\n")
        assert h.hexdigest() == self.DIGEST


def sparse_spectra_table() -> str:
    """Per (p, h) with p <= 7 and h <= 3: class count and k-EM classes per k.

    One CSV line per (p, p-h) run of ``generate_sparse_graphs`` (h <= p),
    with fields k0..k6 counting the classes whose spectrum holds k; fields
    for k >= p are empty.  A q above C(p, 2) has no classes.
    """
    lines = ["p,h,q,classes," + ",".join(f"k{k}" for k in range(7))]
    for p in range(1, 8):
        for h in range(min(p, 3) + 1):
            graphs = generate_sparse_graphs(SparseSpec(p, h))
            rows = run_census([emit_graph6(g) for g in graphs], include_empty=True)
            assert [row.status for row in rows] == ["ok"] * len(graphs)
            em = [sum(k in row.spectrum for row in rows) for k in range(p)]
            lines.append(",".join(map(str, [p, h, p - h, len(rows), *em])) + "," * (7 - p))
    return "\n".join(lines) + "\n"


class TestSparseSpectra:
    def test_frozen_table(self):
        # Evidence on the paper's claim (iii), the k-EM (p, p-h)-graphs: the
        # abstract does not state the characterization, so the table is
        # checked against itself, not against the theorem.
        frozen = (DATA / "sparse_spectra_p1_to_7_h0_to_3.csv").read_text()
        assert sparse_spectra_table() == frozen


class TestNamedFamilies:
    def test_path(self):
        g = named_family("path", 3)
        assert g.edges == ((0, 1), (1, 2))

    def test_cycle(self):
        g = named_family("cycle", 4)
        assert g.p == 4 and g.q == 4 and all(d == 2 for d in g.degrees())

    def test_star(self):
        g = named_family("star", 4)
        assert g.p == 4 and sorted(g.degrees(), reverse=True) == [3, 1, 1, 1]

    def test_complete(self):
        assert named_family("complete", 5).q == 10

    def test_fan_is_maximal_outerplanar(self):
        g = named_family("fan", 6)
        assert g.q == 2 * 6 - 3
        assert any(canonical_form(g) == canonical_form(m) for m in generate_mops(6))

    def test_wheel(self):
        g = named_family("wheel", 5)
        assert g.q == 8 and sorted(g.degrees(), reverse=True) == [4, 3, 3, 3, 3]

    def test_friendship(self):
        g = named_family("friendship", 2)  # two triangles sharing vertex 0
        assert g.p == 5 and g.q == 6 and g.degrees()[0] == 4

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            named_family("torus", 5)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            named_family("cycle", 2)


class TestRoundTrips:
    def test_generated_graphs_survive_graph6(self):
        everything = (
            generate_mops(6)
            + generate_sparse_graphs(SparseSpec(5, 1))
            + [named_family(name, 5) for name in ("path", "cycle", "star", "complete", "fan", "wheel")]
        )
        for g in everything:
            assert parse_graph6(emit_graph6(g)) == g
