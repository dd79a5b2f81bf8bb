"""Tests for the benchmark's own helpers, plus minimum-size runs of each workload."""

import itertools
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import edgemagic
from bench import harness, inputs, stats, workloads
from bench.tracing import Span, Tracer, instrument, roots, self_times

ROOT = Path(__file__).resolve().parent.parent


def count_classes(pool) -> int:
    reps = []
    for p, edges in pool:
        g = nx.Graph()
        g.add_nodes_from(range(p))
        g.add_edges_from(edges)
        if not any(nx.is_isomorphic(g, h) for h in reps):
            reps.append(g)
    return len(reps)


# --- tail percentile -------------------------------------------------------

@pytest.mark.parametrize("n, tail, beyond", [
    (19, None, None),
    (20, 50.0, 10),
    (58, 75.0, 14),
    (100, 90.0, 10),
    (199, 90.0, 19),
    (200, 95.0, 10),
    (1000, 99.0, 10),
    (10000, 99.9, 10),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, tail, beyond):
    assert stats.tail_percentile(n) == tail
    if tail is not None:
        assert stats.beyond(n, tail) == beyond
        values = list(range(n))
        assert sum(v > stats.percentile(values, tail) for v in values) == beyond


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert stats.percentile(values, 50) == 3
    assert stats.percentile(values, 100) == 5
    assert stats.percentile(values, 1) == 1
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# --- inputs ------------------------------------------------------------------

def test_encoder_matches_package_codec():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.randint(1, 14)
        pairs = list(itertools.combinations(range(p), 2))
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        assert inputs.encode_graph6(p, edges) == edgemagic.emit_graph6(
            edgemagic.Graph(p, tuple(edges)))


def test_stream_is_seed_deterministic():
    pool = inputs.make_pool()
    first = inputs.make_stream(pool, 11, 2000)
    again = inputs.make_stream(inputs.make_pool(), 11, 2000)
    other = inputs.make_stream(pool, 12, 2000)
    assert "\n".join(first.records).encode() == "\n".join(again.records).encode()
    assert first.kinds == again.kinds
    assert first.records != other.records
    assert sum(first.kinds.values()) == 2000
    assert sum(first.orders.values()) == sum(first.edges.values()) == 2000
    assert set(first.orders) <= set(inputs.POOL_ORDERS)


def test_stream_covers_every_pool_class():
    pool = inputs.make_pool(draws=20)
    stream = inputs.make_stream(pool, 3, 100)
    codes = {edgemagic.canonical_form(edgemagic.parse_graph6(r)) for r in stream.records}
    assert len(codes) == count_classes(pool)
    with pytest.raises(ValueError):
        inputs.make_stream(pool, 3, 19)


def test_pool_class_count_is_frozen():
    assert count_classes(inputs.make_pool()) == inputs.POOL_CLASSES


# --- spans -------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, None, "root", 0, 100_000_000_000),
        Span(1, 0, "a", 10_000_000_000, 30_000_000_000),
        Span(2, 0, "b", 40_000_000_000, 50_000_000_000),
        Span(3, 2, "c", 42_000_000_000, 48_000_000_000),
        Span(4, None, "other", 200_000_000_000, 201_000_000_000),
    ]
    assert self_times(spans) == pytest.approx([70.0, 20.0, 4.0, 6.0, 1.0])
    assert roots(spans) == [0, 0, 0, 0, 4]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, None, "root", 0, 10),
        Span(1, 0, "a", 2, 6),
        Span(2, 0, "b", 4, 12),  # overlaps a and runs past the parent
    ]
    assert self_times(spans)[0] == pytest.approx(2e-9)


def test_tracer_records_parents():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.count("items", 3)
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, outer.id)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.counts[(outer.id, "items")] == 3


def test_instrument_rebinds_and_restores():
    import edgemagic.census as census

    originals = (edgemagic.parse_graph6, census.canonical_graph, census.CensusStore.load)
    tracer = Tracer()
    with instrument(tracer):
        assert census.canonical_graph is not originals[1]
        census.run_census(["Bw", "Bw"])
        list(edgemagic.generators.triangulations(5))
    assert (edgemagic.parse_graph6, census.canonical_graph, census.CensusStore.load) == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == "census.run_census"
    assert names.count("graphs.parse_graph6") == 2
    assert "solver.classify_detailed" in names
    assert tracer.counts[(None, "generators.triangulations")] == 5
    run_census = tracer.spans[0]
    assert all(s.parent == run_census.id for s in tracer.spans[1:]
               if s.name == "graphs.canonical_graph")


# --- minimum-size runs of each workload -----------------------------------------

class SmallMop(workloads.MopClassify):
    EXPECTED_CLASSES = {5: 1, 6: 3, 7: 4}


class SmallConjecture(workloads.ConjectureP11):
    P = 7
    EXPECTED_CHECKED = 4
    STRIDE = 1


class SmallSparse(workloads.SparseEnumerate):
    EXPECTED_CLASSES = {(5, 0): 6, (5, 1): 6, (5, 2): 4}


class SmallStream(workloads.StreamStore):
    POOL_DRAWS = 20
    POOL_CLASSES = 20
    RECORDS = 60
    BRUTE_SAMPLE = 2


class BrokenConjecture(SmallConjecture):
    def run_pass(self, em, jobs, phase=workloads.no_phase):
        result = super().run_pass(em, jobs, phase)
        result.detail[0].ruled_out[3] = "search-exhausted"  # the filter excludes k=3
        return result


SMALL = [SmallMop, SmallConjecture, SmallSparse, SmallStream]


def run_small(cls, trace, tmp_path):
    workdir = tmp_path / "work"
    workdir.mkdir(exist_ok=True)
    return harness.run(cls, 5, 0.01, trace, ROOT, tmp_path, workdir)


def test_small_stream_pool_class_count():
    assert count_classes(inputs.make_pool(draws=SmallStream.POOL_DRAWS)) == SmallStream.POOL_CLASSES


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_small_untraced_run_passes_gate(cls, tmp_path):
    result, record = run_small(cls, False, tmp_path)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"]) and entry["value"] > 0
    assert record["workload_metrics"]["fail_frac"]["value"] == 0


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_small_traced_run_reports_every_layer(cls, tmp_path):
    result, record = run_small(cls, True, tmp_path)
    assert result["correct"], record["failures"]
    assert list(result["metrics"]) == list(harness.LAYER_UNITS)
    assert all(math.isfinite(e["value"]) for e in result["metrics"].values())
    assert (tmp_path / record["spans_file"]).stat().st_size > 0
    metrics = {k: e["value"] for k, e in result["metrics"].items()}
    if cls is SmallStream:
        assert record["split_of_traced_wall"]["warm_pass_solver_calls"] == 0
        assert metrics["census.store.append_calls"] == 2 * SmallStream.POOL_CLASSES
        assert metrics["cli.main.self_s"] > 0
    if cls is SmallSparse:
        assert metrics["generators.generate_sparse_graphs.self_s"] > 0
        assert metrics["graphs.canonical_graph.calls"] > metrics["solver.classify_detailed.calls"]


def test_gate_catches_a_wrong_exclusion_reason(tmp_path):
    result, record = run_small(BrokenConjecture, False, tmp_path)
    assert not result["correct"] and result["failed"] == len(record["failures"]) >= 1
    assert any("k=3" in f for f in record["failures"])


def test_command_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mop_classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
