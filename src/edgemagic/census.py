"""Census orchestration: spectra over graph streams, persistence, reports.

A census reads graph6 records, computes the k-EM spectrum (or a fixed list
of k values) once per isomorphism class, and emits deterministic CSV or
JSONL reports ordered by canonical code.  It runs in two stages: a dedupe
stage maps records to classes and serves what the store already proves, and
a decide stage classifies the rest, in order, on an optional process pool.
The MOP spectrum check feeds the MOP classes of one order p >= 5, already
canonical, to the decide stage and keeps each class whose spectrum is not
k = 2 (mod p/gcd(p, 6)), the residues the counting filter admits.
Each row is appended to an optional JSONL store, keyed by canonical code and
solver version, as soon as its class is decided, so interrupted or repeated
runs reuse earlier work instead of recomputing.  A row holds each residue's
outcome once, as a witness or a reason; the graph6, spectrum and ks derived
from them are written for readers and ignored on load.
Every witness passes ``verify_labeling`` before its row is stored or served:
the solver checks each fresh one as it builds it, and one that fails is a
solver fault that stops the run with ``ValueError``.  A stored residue is
reused only if ``solver.outcome_fault`` accepts it, and else decided again
and the corrected row appended.  That rule trusts a stored exhausted search,
so a store must come from this program.  A run makes one canonical search per
distinct degree-sorted relabelling of its records: a record that repeats one
read earlier is parsed and then skipped, and a record whose stable
relabelling by nonincreasing degree matches an earlier record's is
isomorphic to it, so it is skipped too.
One search per new key gives both the code and the representative: the
canonical graph, whose graph6 record is the class's code.
"""

from __future__ import annotations

import concurrent.futures
import json
import logging
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from .graphs import (
    P_MAX,
    Graph,
    Graph6Error,
    _check_int,
    _degree_sorted_bits,
    canonical_graph,
    emit_graph6,
    parse_graph6,
)
from .solver import (
    SOLVER_VERSION,
    Labeling,
    Witness,
    classify_detailed,
    counting_filter,
    outcome_fault,
    witness_from_dict,
    witness_to_dict,
)
from .generators import generate_mops

logger = logging.getLogger(__name__)

CSV_HEADER = "graph6,p,q,spectrum"
_REPORT_FORMATS = ("csv", "jsonl")


@dataclass(slots=True)
class CensusRow:
    """One isomorphism class's census result.

    Each decided residue (all of 0..p-1 unless the run was given ks) is a key
    of one dict: ``witnesses`` for members, ``ruled_out`` for non-members,
    saying whether the counting filter excluded it or the search was
    exhausted.  ``graph6``, ``spectrum`` and ``ks`` derive from these and
    ``code``, so a row cannot disagree with itself.  A stored residue is
    reused only if ``solver.outcome_fault`` accepts it.  Rows for graphs
    over the vertex cap carry status "skipped" and no spectrum.
    """

    code: str
    p: int
    q: int
    witnesses: dict[int, Witness] = field(default_factory=dict)
    ruled_out: dict[int, str] = field(default_factory=dict)
    status: str = "ok"

    @property
    def graph6(self) -> str:
        return self.code

    @property
    def spectrum(self) -> tuple[int, ...]:
        return tuple(sorted(self.witnesses))

    @property
    def ks(self) -> tuple[int, ...]:
        return tuple(sorted({*self.witnesses, *self.ruled_out}))


@dataclass(frozen=True)
class ConjectureVerdict:
    """The MOP classes of order p whose spectrum is not ``filter_admits``, if any."""

    p: int
    counterexamples: tuple[tuple[str, tuple[int, ...]], ...]
    checked: int
    filter_admits: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def _row_to_dict(row: CensusRow) -> dict:
    return {
        "code": row.code,
        "graph6": row.graph6,
        "p": row.p,
        "q": row.q,
        "spectrum": list(row.spectrum),
        "ks": list(row.ks),
        "witnesses": {
            str(k): witness_to_dict(w, row.p) for k, w in sorted(row.witnesses.items())
        },
        "ruled_out": {str(k): reason for k, reason in sorted(row.ruled_out.items())},
        "status": row.status,
    }


def _row_from_dict(payload: dict) -> CensusRow:
    return CensusRow(
        code=payload["code"],
        p=payload["p"],
        q=payload["q"],
        witnesses={int(k): witness_from_dict(w)[0] for k, w in payload["witnesses"].items()},
        ruled_out={int(k): reason for k, reason in payload["ruled_out"].items()},
        status=payload["status"],
    )


class CensusStore:
    """Append-only JSONL store of census rows; last entry per code wins.

    Lines written under a solver version other than ``SOLVER_VERSION`` are
    ignored on load.  Single-writer: callers append completed rows from one
    thread; a line left unterminated by a crash is closed off before the next
    append.
    """

    def __init__(self, path):
        self.path = Path(path)

    def load(self) -> dict[str, CensusRow]:
        """Rows by code; a line that is not a readable row is logged and skipped."""
        rows: dict[str, CensusRow] = {}
        if not self.path.exists():
            return rows
        with self.path.open("rb") as fh:  # decoded per line, so a bad byte spoils one line
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line.decode("utf-8", "strict"))
                    if payload.pop("solver_version", None) != SOLVER_VERSION:
                        continue
                    row = _row_from_dict(payload)
                    rows[row.code] = row
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    # A byte that is not UTF-8 fails to decode (a ValueError); JSON
                    # that is not a row fails on a missing field or a wrong type.
                    logger.warning("store %s line %d unreadable: %s", self.path, lineno, exc)
        return rows

    def append(self, row: CensusRow) -> None:
        payload = {**_row_to_dict(row), "solver_version": SOLVER_VERSION}
        line = json.dumps(payload, separators=(",", ":")) + "\n"
        with self.path.open("ab+") as fh:
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = "\n" + line
            fh.write(line.encode())


def _classify_job(args: tuple[Graph, tuple[int, ...]]):
    g, ks = args
    return classify_detailed(g, ks)


def _stored_outcomes(row: CensusRow, g: Graph) -> dict[int, Witness | str]:
    """Read a stored row as {k: witness or reason}, keeping what it settles.

    Each residue 0..p-1 is judged by its witness, if it has one, else by its
    reason, and kept only if ``outcome_fault`` (the rule) accepts that;
    any other is left out, so that it is decided again.
    """
    stored = {**row.ruled_out, **row.witnesses}
    outcomes: dict[int, Witness | str] = {}
    for k in range(g.p):
        if k in stored:
            fault = outcome_fault(g, k, stored[k])
            if fault is None:
                outcomes[k] = stored[k]
            else:
                logger.warning("stored outcome for k=%d on %s rejected: %s", k, row.code, fault)
    return outcomes


def _census_row(code: str, g: Graph, outcomes: dict[int, Witness | str], ks) -> CensusRow:
    """The row of class ``code`` (representative g) over the residues ``ks``."""
    ks = sorted(ks)
    witnesses = {k: outcomes[k] for k in ks if isinstance(outcomes[k], Witness)}
    ruled_out = {k: outcomes[k] for k in ks if k not in witnesses}
    return CensusRow(code, g.p, g.q, witnesses, ruled_out)


def _decide_classes(classes, store: CensusStore | None, jobs: int):
    """Decide each class's missing residues; yield (code, row) in input order.

    ``classes`` holds (code, representative, known outcomes, requested
    residues).  Each row, with all its class knows, is appended to ``store``
    once decided.  ``classify_detailed`` has checked every fresh witness, and
    its ``ValueError`` for one that fails stops the run.
    """
    classes = list(classes)
    work = [(rep, tuple(k for k in requested if k not in known))
            for _, rep, known, requested in classes]
    parallel = jobs > 1
    # A fresh witness arrives with its own tuple for each edge.  The run's
    # witnesses share one tuple per vertex pair instead: with the slotted
    # row, an order-11 MOP row takes about 1.6 KB rather than 3.4 KB.
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    with concurrent.futures.ProcessPoolExecutor(jobs) if parallel else nullcontext() as pool:
        # Both maps yield in submission order, so store order does not depend on jobs.
        results = pool.map(_classify_job, work) if parallel else map(_classify_job, work)
        try:
            for (code, rep, known, requested), result in zip(classes, results):
                for k, outcome in result.items():
                    if isinstance(outcome, Witness):
                        labels = outcome.labeling.assignment.items()
                        result[k] = Witness(Labeling(outcome.labeling.k, {
                            pairs.setdefault(edge, edge): label for edge, label in labels
                        }), outcome.c)
                outcomes = {**known, **result}
                if store is not None:
                    store.append(_census_row(code, rep, outcomes, outcomes))
                yield code, _census_row(code, rep, outcomes, requested)
        except BaseException:
            if parallel:  # else leaving the pool would first run every queued class
                pool.shutdown(cancel_futures=True)
            raise


def run_census(
    source,
    ks=None,
    store: CensusStore | None = None,
    jobs: int = 1,
    p_max: int = P_MAX,
    include_empty: bool = False,
    on_error=None,
) -> list[CensusRow]:
    """Classify a graph6 stream, one row per isomorphism class, sorted by code.

    ``source`` is any iterable of graph6 lines (blank lines skipped).  Every
    residue 0..p-1 is decided when ``ks`` is None, else only the residues of
    ``ks``, ints >= 0 reduced mod each graph's p; ``jobs`` and ``p_max``
    are ints >= 1, all checked before any record is read.  Unreadable records
    are reported with their line number and processing continues.  A graph
    over the cap is not canonicalized: its status-"skipped" row is keyed by
    its own graph6 record, so isomorphic ones get a row each.  Edgeless
    graphs, which are k-EM for every k with c = 0, are excluded unless
    ``include_empty`` is set.
    A record read earlier in the run is parsed and then skipped.  A record
    is canonicalized only when its relabelling by nonincreasing degree (ties
    in vertex order) differs from every earlier record's, since equal
    relabellings mean isomorphic graphs; one search per new key gives both
    the code and the representative.  Each class's row is
    appended to ``store`` as soon as it is decided.
    """
    if ks is not None:
        ks = list(ks)
        if not ks:
            raise ValueError("k-list mode needs at least one k")
        for k in ks:
            _check_int(k, "base label k", 0)
    _check_int(jobs, "jobs", 1)
    _check_int(p_max, "cap p_max", 1)
    if on_error is None:
        def on_error(lineno, message):
            logger.warning("line %d: %s", lineno, message)

    cached = store.load() if store is not None else {}
    rows: dict[str, CensusRow] = {}
    # code -> (code, representative, decided residues, requested residues)
    pending: dict[str, tuple] = {}
    # Records read so far, as read.  A record that parses spells exactly one
    # labelled graph, so this holds each labelled graph once (a copy with the
    # graph6 header meets it at the degree-sorted key), in far less memory
    # than the parsed graphs would take.
    read: set[str] = set()
    # (p, degree-sorted bits) of the records searched so far.  An equal key
    # means an isomorphic graph with equal p and q, whose class the earlier
    # record, past the same edgeless and cap checks, put in rows or pending.
    keys: set[tuple[int, int]] = set()

    for lineno, line in enumerate(source, 1):
        record = line.strip()
        if not record:
            continue
        try:
            g = parse_graph6(record)
        except Graph6Error as exc:
            on_error(lineno, str(exc))
            continue
        if record in read:
            continue  # handled at its first reading: left out, or in rows or pending
        read.add(record)
        if g.q == 0 and not include_empty:
            continue
        if g.p > p_max:
            key = emit_graph6(g)
            rows.setdefault(key, CensusRow(key, g.p, g.q, status="skipped"))
            continue
        key = (g.p, _degree_sorted_bits(g))
        if key in keys:
            continue
        keys.add(key)
        rep = canonical_graph(g)
        code = emit_graph6(rep)
        if code in rows or code in pending:
            continue
        requested = tuple(range(g.p)) if ks is None else tuple(sorted({k % g.p for k in ks}))
        outcomes = _stored_outcomes(cached[code], rep) if code in cached else {}
        if all(k in outcomes for k in requested):
            rows[code] = _census_row(code, rep, outcomes, requested)
        else:
            pending[code] = (code, rep, outcomes, requested)

    rows.update(_decide_classes(pending.values(), store, jobs))
    return [rows[code] for code in sorted(rows)]


def _spectrum_cell(row: CensusRow) -> str:
    if row.status == "skipped":
        return "skipped"
    return ";".join(str(k) for k in row.spectrum)


def report_emit(rows, format: str, dest) -> None:
    """Write rows as CSV (graph6,p,q,spectrum) or JSONL; byte-deterministic."""
    if format not in _REPORT_FORMATS:
        raise ValueError(f"unknown report format {format!r}")
    if isinstance(dest, (str, Path)):
        with open(dest, "w") as fh:
            report_emit(rows, format, fh)
        return
    if format == "csv":
        dest.write(CSV_HEADER + "\n")
        for row in rows:
            dest.write(f"{row.graph6},{row.p},{row.q},{_spectrum_cell(row)}\n")
    else:
        for row in rows:
            dest.write(json.dumps(_row_to_dict(row), separators=(",", ":")) + "\n")


def rows_from_jsonl(source) -> list[CensusRow]:
    """Reload a JSONL report; inverse of report_emit(..., "jsonl", ...)."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            return rows_from_jsonl(fh)
    return [_row_from_dict(json.loads(line)) for line in source if line.strip()]


def check_mop_conjecture(p: int, jobs: int = 1) -> ConjectureVerdict:
    """Exhaustively test that every MOP of order p has the spectrum the filter admits.

    A MOP has q = 2p-3 edges, so the counting filter reads 6k = 12 (mod p)
    and admits exactly k = 2 (mod p/gcd(p, 6)): the paper's conjectured {2}
    at prime p, a computed result at composite p.  A rejected residue is
    never a member, so a class deviates exactly where the search exhausts an
    admitted residue.  The check starts at p = 5: at p = 3 the filter admits
    every k and at p = 4 it admits k = 0, where the MOP is not k-EM.  The
    order names the graphs, so it is their cap.  p must be an int >= 5 and
    ``jobs`` an int >= 1.  Rows are not kept, and no store is read or written.
    """
    _check_int(p, "order", 5)
    _check_int(jobs, "jobs", 1)
    mops = generate_mops(p, p_max=p)
    admitted = tuple(k for k in range(p) if counting_filter(mops[0], k))

    # Each generated graph is canonical, so its graph6 record is its class's code.
    classes = ((emit_graph6(g), g, {}, tuple(range(p))) for g in mops)
    decided = _decide_classes(classes, None, jobs)
    counterexamples = tuple(
        (code, row.spectrum) for code, row in decided if row.spectrum != admitted)
    return ConjectureVerdict(
        p=p,
        counterexamples=counterexamples,
        checked=len(mops),
        filter_admits=admitted,
    )
