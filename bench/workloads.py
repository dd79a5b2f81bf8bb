"""The four benchmark workloads: inputs, one timed pass, and the correctness gate.

Each workload is a batch job driven by one caller in a closed loop: the next
pass starts when the previous one has returned.  ``setup`` builds the inputs
from the seed, ``run_pass`` is the timed work, and ``check`` runs outside the
timed phase and returns the failures it found.  Workloads reach the package
only through its public functions, looked up on the package at call time so
that the traced run can rebind them.  See ``NOTES.md`` for why each workload
exists and which modules it loads.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from . import inputs, stats
from .inputs import (
    encode_graph6,
    make_pool,
    make_stream,
    random_relabel,
    relabel_edges,
)


def no_phase(name):
    return nullcontext()


@dataclass
class Pass:
    """One timed pass: classes decided and labelled input graphs consumed.

    ``steps`` times the pass's parts, which are the same in every pass; the
    harness takes each part's median over the run's passes.
    """

    classes: int
    records: int
    steps: dict[str, float]
    detail: object = None
    wall: float = 0.0


def timed(steps: dict, name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        steps[name] = time.perf_counter() - start


@dataclass
class Check:
    """Outcome of the correctness gate on the last pass."""

    failures: list[str] = field(default_factory=list)
    properties: dict = field(default_factory=dict)
    decided: int = 0
    filter_rejected: int = 0
    exhausted: int = 0
    witnessed: int = 0
    # Per-pass store and report figures, for workloads that have them.
    store_bytes: int = 0
    store_hit_frac: float = 0.0
    report_bytes: int = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def audit(self, em, g, ks, spectrum, witnesses, ruled_out, label: str) -> None:
        """Check one class's decisions and add them to the residue tally.

        Every witness must verify, every ruled-out reason must agree with the
        counting filter, and the members and exclusions must partition ks.
        ``witnesses`` is None where the call under test returns none.
        """
        ks, members, excluded = set(ks), set(spectrum), set(ruled_out)
        if members & excluded or members | excluded != ks:
            self.fail(f"{label}: members {sorted(members)} and exclusions "
                      f"{sorted(excluded)} do not partition {sorted(ks)}")
        if witnesses is not None and set(witnesses) != members:
            self.fail(f"{label}: witnesses for {sorted(witnesses)}, members {sorted(members)}")
        for k, w in (witnesses or {}).items():
            result = em.verify_labeling(g, w.labeling)
            if not result.valid or result.c != w.c or w.labeling.k % g.p != k:
                self.fail(f"{label}: witness for k={k} does not verify: {result.violations}")
        for k in members:
            if not em.counting_filter(g, k):
                self.fail(f"{label}: member k={k} fails the counting filter")
        for k, reason in ruled_out.items():
            expected = "search-exhausted" if em.counting_filter(g, k) else "counting-filter"
            if reason != expected:
                self.fail(f"{label}: k={k} ruled out by {reason!r}, filter says {expected!r}")
        self.decided += len(ks)
        self.witnessed += len(members)
        self.filter_rejected += sum(1 for r in ruled_out.values() if r == "counting-filter")
        self.exhausted += sum(1 for r in ruled_out.values() if r == "search-exhausted")

    def residue_shares(self) -> dict:
        base = self.decided or 1
        return {
            "residues_decided": self.decided,
            "filter_rejected_share": self.filter_rejected / base,
            "exhausted_share": self.exhausted / base,
            "witnessed_share": self.witnessed / base,
        }


def audit_rows(em, check: Check, rows, label: str) -> None:
    for row in rows:
        if row.status != "ok":
            check.fail(f"{label} {row.graph6}: status {row.status}")
            continue
        g = em.parse_graph6(row.graph6)
        check.audit(em, g, row.ks, row.spectrum, row.witnesses, row.ruled_out,
                    f"{label} {row.graph6}")


def shares(counter: Counter) -> dict:
    total = sum(counter.values()) or 1
    return {str(key): counter[key] / total for key in sorted(counter)}


class Workload:
    name = ""
    # Modules a user of this workload imports; their import time is set-up.
    imports = ("edgemagic",)
    # Worker processes of the untraced pass.
    jobs = 1

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir

    def setup(self, em, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, em, jobs: int, phase=no_phase) -> Pass:
        raise NotImplementedError

    def check(self, em, last: Pass) -> Check:
        raise NotImplementedError

    def extra_metrics(self, step_medians: dict, samples: int) -> dict:
        """Workload-specific end-to-end figures: name -> (value, unit, note)."""
        return {}


class MopClassify(Workload):
    """parse_graph6 then classify, one MOP class record at a time."""

    name = "mop_classify"
    EXPECTED_CLASSES = {5: 1, 6: 3, 7: 4, 8: 12, 9: 27, 10: 82}
    # All 82 order-10 classes take 37.5 s per pass; every 8th by canonical
    # code is 11 classes and 1.7 s, which keeps a pass near 6 s.
    ORDER10_STRIDE = 8
    PRIMES = (5, 7)
    # classify returns no witnesses; re-deriving them costs as much as the
    # pass, so the gate does it only for the cheap orders.
    WITNESS_MAX_P = 8

    def setup(self, em, seed):
        self.class_counts = {}
        graphs = []
        for p in sorted(self.EXPECTED_CLASSES):
            mops = em.generate_mops(p)
            self.class_counts[p] = len(mops)
            graphs += mops[:: self.ORDER10_STRIDE] if p == 10 else mops
        self.records = [encode_graph6(g.p, g.edges) for g in graphs]
        random.Random(seed).shuffle(self.records)

    def run_pass(self, em, jobs, phase=no_phase):
        latency, spectra = {}, {}
        for record in self.records:
            start = time.perf_counter()
            spectra[record] = em.classify(em.parse_graph6(record)).members
            latency[record] = time.perf_counter() - start
        n = len(self.records)
        return Pass(classes=n, records=n, steps=latency, detail=spectra)

    def check(self, em, last):
        check = Check()
        if self.class_counts != self.EXPECTED_CLASSES:
            check.fail(f"MOP class counts {self.class_counts}, expected {self.EXPECTED_CLASSES}")
        spectra = last.detail
        for record, members in spectra.items():
            g = em.parse_graph6(record)
            if g.p in self.PRIMES and members != {2}:
                check.fail(f"{record}: prime order {g.p} spectrum {sorted(members)} is not [2]")
            witnesses = None
            if g.p <= self.WITNESS_MAX_P:
                witnesses = {k: em.is_k_em(g, k) for k in members}
                witnesses = {k: w for k, w in witnesses.items() if w is not None}
            ruled_out = {
                k: "search-exhausted" if em.counting_filter(g, k) else "counting-filter"
                for k in range(g.p) if k not in members
            }
            check.audit(em, g, range(g.p), members, witnesses, ruled_out, record)
        for k in (3, 4):
            self._check_frozen(check, spectra, k)
        check.properties = {"orders": shares(Counter(ord(r[0]) - 63 for r in self.records))}
        return check

    def _check_frozen(self, check, spectra, k):
        path = self.root / "tests" / "data" / f"mop_census_k{k}_orders_4_to_9.csv"
        orders = {p for p in self.EXPECTED_CLASSES if 5 <= p <= 9}
        matched = 0
        for line in path.read_text().splitlines()[1:]:
            code, p, _, cell = line.split(",")
            if int(p) not in orders:
                continue
            members = spectra.get(code)
            if members is None:
                check.fail(f"frozen k={k} class {code} missing from the workload")
                continue
            matched += 1
            if (k % int(p) in members) != (cell != ""):
                check.fail(f"{code}: k={k} membership disagrees with {path.name}")
        expected = sum(self.EXPECTED_CLASSES[p] for p in orders)
        if matched != expected:
            check.fail(f"{path.name}: matched {matched} classes, expected {expected}")

    def extra_metrics(self, step_medians, samples):
        medians = list(step_medians.values())
        note = f"{len(medians)} classes, {samples} timed decisions"
        out = {"class_p50_ms": (stats.percentile(medians, 50) * 1e3, "ms", note)}
        tail = stats.tail_percentile(len(medians))
        if tail is not None:
            out["class_tail_ms"] = (stats.percentile(medians, tail) * 1e3, "ms", f"p{tail:g}; {note}")
        return out


class ConjectureP11(Workload):
    """Order-11 MOP classes through the census process pool."""

    name = "conjecture_p11"
    P = 11
    EXPECTED_CHECKED = 228
    # The full order-11 check is 169 s of classify time (four classes near
    # 17 s each) and cannot fit one run; every 12th class by canonical code is
    # 19 classes and 8.1 s of classify time, about 4 s on two workers.
    STRIDE = 12

    def __init__(self, root, workdir):
        super().__init__(root, workdir)
        self.jobs = len(os.sched_getaffinity(0))

    def setup(self, em, seed):
        mops = em.generate_mops(self.P, p_max=self.P)
        self.checked = len(mops)
        self.admits = tuple(k for k in range(self.P) if em.counting_filter(mops[0], k))
        rng = random.Random(seed)
        self.records = [random_relabel(rng, g.p, g.edges) for g in mops[:: self.STRIDE]]

    def run_pass(self, em, jobs, phase=no_phase):
        steps = {}
        rows = timed(steps, "run_census", em.run_census, self.records, jobs=jobs, p_max=self.P)
        return Pass(classes=len(rows), records=len(self.records), steps=steps, detail=rows)

    def check(self, em, last):
        check = Check()
        if self.checked != self.EXPECTED_CHECKED:
            check.fail(f"order-11 MOP classes {self.checked}, expected {self.EXPECTED_CHECKED}")
        if self.admits != (2,):
            check.fail(f"counting filter admits {self.admits}, expected (2,)")
        rows = last.detail
        if len(rows) != len(self.records):
            check.fail(f"{len(rows)} census rows for {len(self.records)} distinct classes")
        for row in rows:
            if row.spectrum != (2,):
                check.fail(f"{row.graph6}: spectrum {row.spectrum}, conjecture needs (2,)")
        audit_rows(em, check, rows, "p11")
        verdict = em.check_mop_conjecture(7, jobs=self.jobs)
        if not (verdict.holds and verdict.checked == 4 and verdict.filter_admits == (2,)):
            check.fail(f"check_mop_conjecture(7) returned {verdict}")
        check.properties = {"slice_classes": len(self.records), "order_classes": self.checked,
                            "jobs": self.jobs}
        return check


class SparseEnumerate(Workload):
    """All (7, 7-h)-graphs for h = 0, 1, 2, then a census of them."""

    name = "sparse_enumerate"
    # Isomorphism classes per (p, h).
    EXPECTED_CLASSES = {(7, 0): 65, (7, 1): 41, (7, 2): 21}

    def setup(self, em, seed):
        rng = random.Random(seed)
        self.specs = [em.SparseSpec(p, h) for p, h in self.EXPECTED_CLASSES]
        rng.shuffle(self.specs)
        self.perms = {p: [rng.sample(range(p), p) for _ in range(16)]
                      for p in {spec.p for spec in self.specs}}

    def run_pass(self, em, jobs, phase=no_phase):
        records, counts, steps, subsets = [], {}, {}, 0
        for spec in self.specs:
            graphs = timed(steps, f"generate ({spec.p}, {spec.q})", em.generate_sparse_graphs, spec)
            counts[(spec.p, spec.h)] = len(graphs)
            subsets += math.comb(math.comb(spec.p, 2), spec.q)
            perms = self.perms[spec.p]
            for g in graphs:
                perm = perms[len(records) % len(perms)]
                records.append(encode_graph6(g.p, relabel_edges(g.edges, perm)))
        rows = timed(steps, "run_census", em.run_census, records, jobs=jobs)
        return Pass(classes=len(rows), records=subsets, steps=steps, detail=(counts, rows))

    def check(self, em, last):
        check = Check()
        counts, rows = last.detail
        if counts != self.EXPECTED_CLASSES:
            check.fail(f"(p, p-h) class counts {counts}, expected {self.EXPECTED_CLASSES}")
        if len(rows) != sum(self.EXPECTED_CLASSES.values()):
            check.fail(f"{len(rows)} census rows, expected {sum(self.EXPECTED_CLASSES.values())}")
        audit_rows(em, check, rows, "sparse")
        check.properties = {"subsets_per_pass": last.records, "classes_per_pass": len(rows)}
        return check


class StreamStore(Workload):
    """A seeded graph6 stream through the census CLI and its result store."""

    name = "stream_store"
    imports = ("edgemagic", "edgemagic.cli")
    POOL_DRAWS = inputs.POOL_DRAWS
    POOL_CLASSES = inputs.POOL_CLASSES
    RECORDS = 10_000
    K_LIST = (2, 3)
    # brute_force_is_k_em tries every residue permutation; q <= 8 keeps a
    # class under a second.
    BRUTE_Q = 8
    BRUTE_SAMPLE = 5
    STEPS = (("cold", ("--mode", "k-list", "--k", ",".join(map(str, K_LIST)))),
             ("merge", ()),
             ("warm", ()))

    def setup(self, em, seed):
        self.seed = seed
        self.stream = make_stream(make_pool(draws=self.POOL_DRAWS), seed, self.RECORDS)
        self.source = self.workdir / "stream.g6"
        self.source.write_text("\n".join(self.stream.records) + "\n")
        self.store = self.workdir / "store.jsonl"

    def run_pass(self, em, jobs, phase=no_phase):
        self.store.unlink(missing_ok=True)
        steps, status, before = {}, {}, {}
        for step, flags in self.STEPS:
            before[step] = self.store.read_bytes() if self.store.exists() else b""
            argv = ["census", str(self.source), "--format", "jsonl", "--store", str(self.store),
                    "--out", str(self.workdir / f"{step}.jsonl"), *flags]
            with phase(f"bench.{step}"):
                status[step] = timed(steps, step, em.cli.main, argv)
        detail = {"status": status, "before": before, "store_bytes": self.store.stat().st_size}
        return Pass(classes=self.POOL_CLASSES, records=len(self.STEPS) * self.RECORDS,
                    steps=steps, detail=detail)

    def check(self, em, last):
        check = Check()
        detail = last.detail
        for step, code in detail["status"].items():
            if code != 0:
                check.fail(f"census {step} pass exited {code}")
        reports = {step: (self.workdir / f"{step}.jsonl").read_bytes() for step, _ in self.STEPS}
        if reports["warm"] != reports["merge"]:
            check.fail("warm report differs from the merge-pass report")
        rows = {step: em.rows_from_jsonl(str(self.workdir / f"{step}.jsonl"))
                for step, _ in self.STEPS}
        merged = {row.code: row for row in rows["merge"]}
        if len(merged) != self.POOL_CLASSES:
            check.fail(f"{len(merged)} classes in the stream, expected {self.POOL_CLASSES}")
        audit_rows(em, check, rows["merge"], "merge")
        for row in rows["merge"]:
            if row.ks != tuple(range(row.p)):
                check.fail(f"merge {row.graph6}: decided {row.ks}, expected every residue")
        for row in rows["cold"]:
            wanted = tuple(sorted({k % row.p for k in self.K_LIST}))
            full = merged.get(row.code)
            if row.ks != wanted or full is None or \
                    row.spectrum != tuple(k for k in full.spectrum if k in wanted):
                check.fail(f"cold {row.graph6}: k-list result disagrees with the spectrum pass")
        served = {step: self._served(detail["before"][step], rows[step]) for step, _ in self.STEPS}
        hits = {step: s / r for step, (s, r) in served.items()}
        if hits["warm"] != 1.0:
            check.fail(f"warm pass served {hits['warm']:.3f} of residues from the store, not all")
        if len(detail["before"]["warm"]) != detail["store_bytes"]:
            check.fail("warm pass appended to the store")
        self._check_brute_force(em, check, rows["merge"])

        check.store_hit_frac = sum(s for s, _ in served.values()) / sum(r for _, r in served.values())
        check.store_bytes = detail["store_bytes"]
        check.report_bytes = sum(len(b) for b in reports.values())
        kinds = self.stream.kinds
        check.properties = {
            "records": self.RECORDS,
            "exact_repeat_share": kinds["repeat"] / self.RECORDS,
            "relabelled_copy_share": kinds["relabelled"] / self.RECORDS,
            "first_draw_share": kinds["first"] / self.RECORDS,
            "unique_class_share": len(merged) / self.RECORDS,
            "orders": shares(self.stream.orders),
            "edge_counts": shares(self.stream.edges),
            "store_hit_frac": hits,
        }
        return check

    @staticmethod
    def _served(store_bytes: bytes, rows) -> tuple[int, int]:
        """(residues of rows already decided in the store beforehand, residues of rows)."""
        cached: dict[str, set] = {}
        for line in store_bytes.decode().splitlines():
            if line.strip():
                entry = json.loads(line)
                cached[entry["code"]] = set(entry["ks"])
        requested = sum(len(row.ks) for row in rows)
        served = sum(len(set(row.ks) & cached.get(row.code, set())) for row in rows)
        return served, requested

    def _check_brute_force(self, em, check, rows):
        small = [row for row in rows if row.q <= self.BRUTE_Q]
        sample = random.Random(self.seed).sample(small, min(self.BRUTE_SAMPLE, len(small)))
        for row in sample:
            g = em.parse_graph6(row.graph6)
            found = {k for k in range(g.p) if em.brute_force_is_k_em(g, k) is not None}
            if found != set(row.spectrum):
                check.fail(f"{row.graph6}: brute force spectrum {sorted(found)}, "
                           f"census {list(row.spectrum)}")

    def extra_metrics(self, step_medians, samples):
        return {
            "cold_wall_s": (step_medians["cold"] + step_medians["merge"], "s",
                            "k-list step plus merging spectrum step"),
            "warm_wall_s": (step_medians["warm"], "s", "spectrum step served from the store"),
        }


WORKLOADS = {w.name: w for w in (MopClassify, ConjectureP11, SparseEnumerate, StreamStore)}
