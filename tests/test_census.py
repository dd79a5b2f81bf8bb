"""Census runs, persistence, reports, and the prime-order conjecture check."""

import concurrent.futures
import hashlib
import io
import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import edgemagic.census as census_mod
from edgemagic import (
    emit_graph6,
    graph_from_edges,
    named_family,
    parse_graph6,
    relabel,
    verify_labeling,
)
from edgemagic.census import (
    CensusRow,
    CensusStore,
    ConjectureVerdict,
    check_mop_conjecture,
    is_prime,
    report_emit,
    row_from_json,
    row_to_json,
    rows_from_jsonl,
    run_census,
)
from edgemagic.generators import SparseSpec, generate_mops, generate_sparse_graphs

from conftest import record_calls

MOP4_LINES = [emit_graph6(g) for g in generate_mops(4)]
MOP4_ROW_JSON = (
    '{"code":"C}","graph6":"C}","p":4,"q":5,"spectrum":[2],"ks":[0,1,2,3],'
    '"witnesses":{"2":{"k":2,"p":4,"c":1,"labels":[[0,1,2],[0,2,4],[0,3,3],[1,2,5],[1,3,6]]}},'
    '"ruled_out":{"0":"search-exhausted","1":"counting-filter","3":"counting-filter"},'
    '"status":"ok"}'
)


def emit_text(rows, format):
    buffer = io.StringIO()
    report_emit(rows, format, buffer)
    return buffer.getvalue()


class TestRunCensus:
    def test_mop4_full_spectrum(self):
        rows = run_census(MOP4_LINES)
        assert len(rows) == 1
        row = rows[0]
        assert row.p == 4 and row.q == 5
        assert row.spectrum == (2,)
        assert row.status == "ok"
        assert set(row.ks) == set(range(4))

    def test_mop7_fixed_k3_all_excluded(self):
        lines = [emit_graph6(g) for g in generate_mops(7)]
        rows = run_census(lines, ks=[3])
        assert len(rows) == 4
        assert all(row.spectrum == () for row in rows)
        assert all(row.ruled_out == {3: "counting-filter"} for row in rows)

    def test_ks_alone_selects_residues(self):
        rows = run_census(MOP4_LINES, ks=[7, 3])
        assert [row.ks for row in rows] == [(3,)]
        assert rows[0].ruled_out == {3: "counting-filter"} and rows[0].spectrum == ()

    def test_empty_source(self):
        assert run_census([]) == []

    def test_duplicates_collapse(self):
        g = generate_mops(4)[0]
        scrambled = relabel(g, [2, 0, 3, 1])
        rows = run_census([emit_graph6(g), emit_graph6(scrambled), emit_graph6(g)])
        assert len(rows) == 1

    def test_unreadable_records_reported_and_skipped(self):
        errors = []
        rows = run_census(
            ["garbage(", "", MOP4_LINES[0]],
            on_error=lambda lineno, msg: errors.append((lineno, msg)),
        )
        assert len(rows) == 1
        assert len(errors) == 1 and errors[0][0] == 1

    def test_repeated_unreadable_record_reported_at_each_line(self):
        errors = []
        run_census(["garbage(", MOP4_LINES[0], "garbage(", "", "garbage(", MOP4_LINES[0]],
                   on_error=lambda lineno, msg: errors.append((lineno, msg)))
        assert [lineno for lineno, _ in errors] == [1, 3, 5]
        assert len({msg for _, msg in errors}) == 1

    def test_each_labelled_graph_canonicalized_once(self, monkeypatch):
        mop = generate_mops(6)[0]
        labelled = [emit_graph6(relabel(mop, perm))
                    for perm in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [1, 0, 2, 3, 4, 5])]
        edgeless = emit_graph6(graph_from_edges(3, []))
        big = emit_graph6(named_family("path", 12))
        stream = (labelled + ["garbage(", edgeless, big] + labelled[::-1]
                  + [">>graph6<<" + labelled[1], edgeless, big, "garbage("] + MOP4_LINES * 2)
        calls = record_calls(monkeypatch, census_mod, ("canonical_form", "canonical_graph"))
        rows = run_census(stream, p_max=10)
        distinct = {parse_graph6(record) for record in labelled + MOP4_LINES}
        forms = calls["canonical_form"]
        assert len(forms) == len(distinct) and set(forms) == distinct
        # one canonical graph per class, built from the first record of it
        assert calls["canonical_graph"] == [parse_graph6(labelled[0]), parse_graph6(MOP4_LINES[0])]
        assert [row.status for row in rows] == ["ok", "ok", "skipped"]

    def test_over_cap_rows_marked_skipped(self):
        big = named_family("path", 12)
        rows = run_census([emit_graph6(big)] + MOP4_LINES, p_max=10)
        assert len(rows) == 2
        skipped = [r for r in rows if r.status == "skipped"]
        assert len(skipped) == 1
        assert skipped[0].p == 12 and skipped[0].spectrum == ()

    def test_edgeless_excluded_by_default(self):
        edgeless = emit_graph6(graph_from_edges(2, []))
        assert run_census([edgeless]) == []
        rows = run_census([edgeless], include_empty=True)
        assert len(rows) == 1 and rows[0].spectrum == (0, 1)

    def test_every_member_has_verifying_witness(self):
        lines = [emit_graph6(g) for g in generate_mops(6)]
        for row in run_census(lines):
            graph = census_mod.parse_graph6(row.graph6)
            for k in row.spectrum:
                assert verify_labeling(graph, row.witnesses[k].labeling).valid
            for k in range(row.p):
                assert (k in row.spectrum) != (k in row.ruled_out)

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            run_census([], ks=[])
        with pytest.raises(ValueError, match="nonnegative"):
            run_census([], ks=[-1])

    def test_jobs_parallel_matches_sequential(self):
        lines = [emit_graph6(g) for g in generate_mops(6)]
        assert run_census(lines, jobs=2) == run_census(lines)

    def test_jobs_with_store(self, tmp_path):
        lines = [emit_graph6(g) for g in generate_mops(6)]
        store_path = tmp_path / "store.jsonl"
        parallel = run_census(lines, jobs=2, store=CensusStore(store_path))
        assert parallel == run_census(lines)
        assert CensusStore(store_path).load()  # writer ran in the main process


class TestStore:
    def test_warm_run_recomputes_nothing(self, tmp_path, monkeypatch):
        store_path = tmp_path / "store.jsonl"
        cold = run_census(MOP4_LINES, store=CensusStore(store_path))
        assert store_path.exists()

        def explode(args):
            raise AssertionError("classification ran on a warm store")

        monkeypatch.setattr(census_mod, "_classify_job", explode)
        warm = run_census(MOP4_LINES, store=CensusStore(store_path))
        assert warm == cold

    def test_fixed_k_then_full_computes_only_missing(self, tmp_path, monkeypatch):
        store_path = tmp_path / "store.jsonl"
        run_census(MOP4_LINES, ks=[2], store=CensusStore(store_path))

        seen = []
        real = census_mod.classify_detailed

        def recording(g, ks=None):
            seen.append(tuple(ks))
            return real(g, ks)

        monkeypatch.setattr(census_mod, "classify_detailed", recording)
        rows = run_census(MOP4_LINES, store=CensusStore(store_path))
        assert rows[0].spectrum == (2,)
        assert seen == [(0, 1, 3)]  # k=2 came from the store

    def test_version_mismatch_ignored(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        run_census(MOP4_LINES, store=CensusStore(store_path, solver_version="old"))
        cached = CensusStore(store_path, solver_version="new").load()
        assert cached == {}

    def test_append_only_last_wins(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        store = CensusStore(store_path)
        row = CensusRow(code="A_", graph6="A_", p=2, q=1, spectrum=(0,), ks=(0,))
        updated = CensusRow(code="A_", graph6="A_", p=2, q=1, spectrum=(0, 1), ks=(0, 1))
        store.append(row)
        store.append(updated)
        assert store.load() == {"A_": updated}

    def test_corrupt_lines_skipped(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        store_path.write_text("not json\n")
        assert CensusStore(store_path).load() == {}

    def test_torn_line_does_not_swallow_next_row(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        store = CensusStore(store_path)
        store.append(CensusRow(code="A_", graph6="A_", p=2, q=1, spectrum=(0, 1), ks=(0, 1)))
        with store_path.open("a") as fh:
            fh.write('{"code":"B')  # a crash mid-append leaves no newline
        rows = run_census(MOP4_LINES, store=store)
        assert set(store.load()) == {"A_", rows[0].code}

    def test_crash_keeps_finished_rows_and_rerun_resumes(self, tmp_path, monkeypatch):
        lines = [emit_graph6(g) for g in generate_mops(6)]
        store_path = tmp_path / "store.jsonl"
        real = census_mod._classify_job
        started = []

        def crash_on_third(args):
            started.append(emit_graph6(args[0]))
            if len(started) == 3:
                raise RuntimeError("simulated crash")
            return real(args)

        monkeypatch.setattr(census_mod, "_classify_job", crash_on_third)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_census(lines, store=CensusStore(store_path))
        finished = CensusStore(store_path).load()
        assert sorted(finished) == sorted(started[:2])

        resumed = []

        def recording(args):
            resumed.append(emit_graph6(args[0]))
            return real(args)

        monkeypatch.setattr(census_mod, "_classify_job", recording)
        rows = run_census(lines, store=CensusStore(store_path))
        assert resumed == started[2:]
        monkeypatch.undo()
        assert rows == run_census(lines)

    # Edits to the first [u, v, label] entry, [0, 1, 5], of the order-5 MOP's
    # k = 2 witness: a label outside the interval, edge (0, 1) renamed to the
    # absent (1, 3), a label that is not a number, and the label as a float;
    # or to the witness's c = 1, as a float.
    @pytest.mark.parametrize("edit", [{2: 99}, {0: 1, 1: 3}, {2: "x"}, {2: 5.0}, {"c": 1.0}],
                             ids=["label-99", "absent-edge", "label-string", "label-float",
                                  "c-float"])
    def test_stored_witness_that_fails_is_redecided(self, tmp_path, caplog, edit):
        lines = [emit_graph6(g) for g in generate_mops(5)]
        store_path = tmp_path / "store.jsonl"
        fresh = run_census(lines, store=CensusStore(store_path))
        payload = json.loads(store_path.read_text())
        witness = payload["witnesses"]["2"]
        entry = witness["labels"][0]
        assert entry == [0, 1, 5] and witness["c"] == 1
        for position, value in edit.items():
            (witness if position == "c" else entry)[position] = value
        store_path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")

        rows = run_census(lines, store=CensusStore(store_path))
        assert rows == fresh
        g = parse_graph6(rows[0].code)
        assert verify_labeling(g, rows[0].witnesses[2].labeling).valid
        assert "stored witness for k=2" in caplog.text
        stored = store_path.read_text().splitlines()
        assert len(stored) == 2  # the corrected row is appended, last wins
        assert CensusStore(store_path).load()[rows[0].code] == fresh[0]

    # The order-5 MOP's k = 0 is rejected by the counting filter; its stored
    # reason is removed, or replaced by the other reason or by a non-reason.
    @pytest.mark.parametrize("reason", [None, "search-exhausted", 5],
                             ids=["missing", "wrong", "not-a-reason"])
    def test_residue_without_witness_or_right_reason_is_redecided(
        self, tmp_path, monkeypatch, reason
    ):
        lines = [emit_graph6(g) for g in generate_mops(5)]
        store_path = tmp_path / "store.jsonl"
        fresh = run_census(lines, store=CensusStore(store_path))
        payload = json.loads(store_path.read_text())
        assert payload["ks"] == [0, 1, 2, 3, 4]
        assert payload["ruled_out"].pop("0") == "counting-filter"
        if reason is not None:
            payload["ruled_out"]["0"] = reason
        store_path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")

        seen = []
        real = census_mod.classify_detailed

        def recording(g, ks=None):
            seen.append(tuple(ks))
            return real(g, ks)

        monkeypatch.setattr(census_mod, "classify_detailed", recording)
        rows = run_census(lines, store=CensusStore(store_path))
        assert seen == [(0,)]
        assert rows == fresh
        assert len(store_path.read_text().splitlines()) == 2
        assert CensusStore(store_path).load()[rows[0].code] == fresh[0]

    # Lines that are valid JSON but not rows, each stored after a good row.
    MOP4_STORED = {**json.loads(MOP4_ROW_JSON), "solver_version": "1"}

    @pytest.mark.parametrize("line", [
        "null", "[1,2]", "5", '"x"',
        json.dumps({**MOP4_STORED, "witnesses": []}),
        json.dumps({**MOP4_STORED, "witnesses": {"2": None}}),
    ], ids=["null", "list", "number", "string", "witnesses-list", "witness-null"])
    def test_store_line_that_is_not_a_row_is_skipped(self, tmp_path, caplog, line):
        store_path = tmp_path / "store.jsonl"
        store_path.write_text(json.dumps(self.MOP4_STORED) + "\n" + line + "\n")
        row = row_from_json(MOP4_ROW_JSON)
        assert CensusStore(store_path).load() == {row.code: row}
        assert "line 2 unreadable" in caplog.text

    def test_solver_witness_that_fails_raises(self, tmp_path, monkeypatch):
        real = census_mod.classify_detailed

        def corrupting(g, ks=None):
            outcomes = real(g, ks)
            w = outcomes[2]
            edge = min(w.labeling.assignment)
            bad = {**w.labeling.assignment, edge: 99}
            outcomes[2] = replace(w, labeling=replace(w.labeling, assignment=bad))
            return outcomes

        monkeypatch.setattr(census_mod, "classify_detailed", corrupting)
        store_path = tmp_path / "store.jsonl"
        with pytest.raises(RuntimeError, match="solver witness for k=2"):
            run_census(MOP4_LINES, store=CensusStore(store_path))
        assert not store_path.exists()

    def test_parent_error_cancels_queued_classes(self, tmp_path, monkeypatch):
        # Threads stand in for worker processes so the test can count the jobs run.
        lines = [emit_graph6(g) for g in generate_mops(8)]
        real = census_mod._classify_job
        started = []

        def slow(args):
            started.append(args)
            time.sleep(0.05)
            return real(args)

        class FullDisk(CensusStore):
            def append(self, row):
                raise OSError("disk full")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setattr(census_mod, "_classify_job", slow)
        with pytest.raises(OSError, match="disk full"):
            run_census(lines, jobs=2, store=FullDisk(tmp_path / "store.jsonl"))
        assert len(started) < len(lines)


class TestReports:
    def test_csv_single_k2_row(self):
        rows = run_census([emit_graph6(graph_from_edges(2, [(0, 1)]))])
        text = emit_text(rows, "csv")
        assert text == "graph6,p,q,spectrum\nA_,2,1,0;1\n"

    def test_csv_header_only_when_empty(self):
        assert emit_text([], "csv") == "graph6,p,q,spectrum\n"

    def test_csv_skipped_marker(self):
        row = CensusRow(code="X", graph6="X", p=12, q=11, status="skipped")
        assert "X,12,11,skipped" in emit_text([row], "csv")

    def test_jsonl_round_trip(self):
        rows = run_census([emit_graph6(g) for g in generate_mops(6)])
        text = emit_text(rows, "jsonl")
        assert rows_from_jsonl(io.StringIO(text)) == rows

    def test_byte_determinism(self):
        first = emit_text(run_census(MOP4_LINES), "jsonl")
        second = emit_text(run_census(MOP4_LINES), "jsonl")
        assert first == second

    def test_file_destination(self, tmp_path):
        out = tmp_path / "report.csv"
        report_emit(run_census(MOP4_LINES), "csv", out)
        assert out.read_text().startswith("graph6,p,q,spectrum\n")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            report_emit([], "xml", io.StringIO())

    def test_row_json_carries_witnesses(self):
        rows = run_census(MOP4_LINES)
        payload = json.loads(row_to_json(rows[0]))
        assert payload["witnesses"]["2"]["p"] == 4
        assert row_from_json(row_to_json(rows[0])) == rows[0]

    def test_row_json_bytes_pinned(self, tmp_path):
        row = run_census(MOP4_LINES)[0]
        assert row_to_json(row) == MOP4_ROW_JSON
        store_path = tmp_path / "store.jsonl"
        CensusStore(store_path).append(row)
        assert store_path.read_text() == MOP4_ROW_JSON[:-1] + ',"solver_version":"1"}\n'


class TestConjecture:
    def test_order_five_holds(self):
        verdict = check_mop_conjecture(5)
        assert verdict.holds and verdict.checked == 1
        assert verdict.counterexamples == ()
        assert verdict.filter_admits == (2,)

    def test_order_seven_holds(self):
        verdict = check_mop_conjecture(7)
        assert verdict.holds and verdict.checked == 4
        assert verdict.filter_admits == (2,)

    def test_parallel_matches_sequential(self):
        assert check_mop_conjecture(7, jobs=2) == check_mop_conjecture(7)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_order_seven_canonicalizes_and_parses_nothing(self, monkeypatch, jobs):
        calls = record_calls(monkeypatch, census_mod, ("canonical_form", "canonical_graph", "parse_graph6"))
        verdict = check_mop_conjecture(7, jobs=jobs)
        assert calls == {"canonical_form": [], "canonical_graph": [], "parse_graph6": []}
        assert verdict == ConjectureVerdict(
            p=7, holds=True, counterexamples=(), checked=4, filter_admits=(2,))

    def test_not_prime_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            check_mop_conjecture(6)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="p=5"):
            check_mop_conjecture(3)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            check_mop_conjecture(11)

    def test_is_prime(self):
        assert [n for n in range(2, 16) if is_prime(n)] == [2, 3, 5, 7, 11, 13]
        assert not is_prime(1)

    def test_counterexample_reported(self, monkeypatch):
        target = emit_graph6(generate_mops(7)[2])
        real = census_mod.classify_detailed

        def dropping_two(g, ks=None):
            outcomes = real(g, ks)
            if emit_graph6(g) == target:
                outcomes[2] = "search-exhausted"
            return outcomes

        monkeypatch.setattr(census_mod, "classify_detailed", dropping_two)
        verdict = check_mop_conjecture(7)
        assert verdict.holds is False
        assert verdict.checked == 4
        assert verdict.counterexamples == ((target, ()),)

    def test_verdict_matches_census_view(self):
        # holds exactly when a census over the same generator output shows
        # every spectrum equal to {2}
        verdict = check_mop_conjecture(5)
        rows = run_census([emit_graph6(g) for g in generate_mops(5)])
        assert verdict.holds == all(row.spectrum == (2,) for row in rows)
        assert verdict.checked == len(rows)


class TestGoldenPin:
    # SHA-256 of the JSONL reports of a cold k-list run (k = 2, 3), a spectrum
    # merge and a warm rerun on one store, then of the store file.  The input
    # is every MOP class of orders 4-8, each followed by a seeded relabelled
    # copy, then every (6, 6-h)-graph for h = 0, 1, 2.  Census and solver
    # rewrites must leave every byte and the store order untouched.
    COLD = "2dd0d3f89e71cf39aba5f5ff4642dafe147f7fc3d88c4a1498a73f1b03ad9e51"
    SPECTRUM = "fd9f4c76af6aec243f14a47527382ac938a82d1def38c34dc622a0eeb167bd38"
    STORE = "6c30ae5e24db3a2caccdc16696b74b6129d0aa3a47b941a305ce46881ab66634"

    @pytest.fixture(scope="class")
    def lines(self):
        rng = random.Random(4105)
        lines = []
        for p in range(4, 9):
            for g in generate_mops(p):
                perm = list(range(p))
                rng.shuffle(perm)
                lines += [emit_graph6(g), emit_graph6(relabel(g, perm))]
        for h in range(3):
            lines += [emit_graph6(g) for g in generate_sparse_graphs(SparseSpec(6, h))]
        return lines

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_merge_warm_reports_and_store(self, tmp_path, lines, jobs):
        store_path = tmp_path / "store.jsonl"
        digests = []
        for options in ({"ks": [2, 3]}, {}, {}):
            rows = run_census(lines, store=CensusStore(store_path), jobs=jobs, **options)
            digests.append(hashlib.sha256(emit_text(rows, "jsonl").encode()).hexdigest())
        digests.append(hashlib.sha256(store_path.read_bytes()).hexdigest())
        assert digests == [self.COLD, self.SPECTRUM, self.SPECTRUM, self.STORE]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exact_repeats_change_no_report_or_store_byte(self, tmp_path, lines, jobs):
        # After each record, with chance 0.7, one earlier record again verbatim.
        rng = random.Random(6)
        repeated = []
        for i, line in enumerate(lines):
            repeated.append(line)
            if rng.random() < 0.7:
                repeated.append(rng.choice(lines[: i + 1]))
        assert len(repeated) > 1.5 * len(lines)

        outputs = []
        for name, stream in (("plain", lines), ("repeated", repeated)):
            store_path = tmp_path / f"{name}.jsonl"
            texts = [
                emit_text(run_census(stream, store=CensusStore(store_path), jobs=jobs, **options),
                          "jsonl")
                for options in ({"ks": [2, 3]}, {}, {})
            ]
            outputs.append(texts + [store_path.read_bytes()])
        assert outputs[0] == outputs[1]
