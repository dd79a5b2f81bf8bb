"""Run one workload: set-up, timed passes, correctness gate, metrics.

An untraced run (``--trace 0``) reports the end-to-end metrics.  A traced
run (``--trace 1``) repeats the untraced passes as a reference, then runs
traced passes in one process and reports the per-layer metrics derived from
their spans.  Both write a JSON result under ``bench/results``; the traced
run also writes its spans there.
"""

from __future__ import annotations

import importlib
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

from .tracing import Tracer, instrument, roots, self_times
from .workloads import Check, no_phase

# Set-up is repeated this many times and its median reported.
SETUP_REPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "classes_per_s": "1/s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
{imports}
print(time.perf_counter() - start)
"""


def import_seconds(src: Path, modules) -> float:
    """Seconds to import modules in a fresh interpreter (cached bytecode allowed)."""
    code = IMPORT_PROBE.format(src=str(src), imports="\n".join(f"import {m}" for m in modules))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def load_package(src: Path, modules):
    for name in modules:
        importlib.import_module(name)
    package = sys.modules["edgemagic"]
    if Path(package.__file__).resolve().parent != (src / "edgemagic").resolve():
        raise RuntimeError(f"edgemagic imported from {package.__file__}, not from {src}")
    return package


def timed_passes(workload, em, jobs, seconds, pass_context=nullcontext, phase=no_phase):
    """Closed loop of passes for about `seconds`: start one only if it should fit."""
    passes = []
    start = time.perf_counter()
    while True:
        with pass_context():
            begun = time.perf_counter()
            result = workload.run_pass(em, jobs, phase)
            result.wall = time.perf_counter() - begun
        passes.append(result)
        expected = statistics.median([p.wall for p in passes])
        if time.perf_counter() - start + expected > seconds:
            return passes


def step_medians(passes) -> dict[str, float]:
    """Each step's median time over the passes."""
    return {name: statistics.median([p.steps[name] for p in passes]) for name in passes[0].steps}


def pass_seconds(passes) -> float:
    """Time to solution of one pass: the sum of its steps' median times.

    Interference from other tenants arrives in bursts of a few seconds; a
    step's median over the run's passes drops the passes a burst slowed.
    """
    return sum(step_medians(passes).values())


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process, plus jobs times the largest child's peak when pooled."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * children) / 1024.0


def run(workload_cls, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path,
        workdir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (the JSON result line, the full record for the results file)."""
    src = root / "src"
    workload = workload_cls(root, workdir)
    if trace:
        return _traced(workload, seed, seconds, src, out_dir)
    em = load_package(src, workload.imports)
    setup_times = []
    for _ in range(SETUP_REPS):
        imported = import_seconds(src, workload.imports)
        begun = time.perf_counter()
        workload.setup(em, seed)
        setup_times.append(imported + time.perf_counter() - begun)
    passes = timed_passes(workload, em, workload.jobs, seconds)
    rss = peak_rss_mb(workload.jobs)
    check = _gate(workload, em, passes[-1])

    wall = pass_seconds(passes)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "classes_per_s": passes[-1].classes / wall,
        "records_per_s": passes[-1].records / wall,
        "peak_rss_mb": rss,
    }
    attempted = sum(p.classes for p in passes)
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    extras = {name: {"value": v, "unit": unit, "note": note}
              for name, (v, unit, note) in workload.extra_metrics(
                  step_medians(passes), sum(len(p.steps) for p in passes)).items()}
    extras["fail_frac"] = {"value": len(check.failures) / attempted, "unit": "frac",
                           "note": "failed checks over classes attempted"}
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": 0,
        "jobs": workload.jobs, "passes": [p.wall for p in passes],
        "steps": [p.steps for p in passes], "setup_runs": setup_times, "metrics": metrics, "workload_metrics": extras,
        "inputs": {**check.properties, **check.residue_shares()},
        "failures": check.failures,
    }
    return _result(check, attempted, metrics), record


def _gate(workload, em, last) -> Check:
    try:
        return workload.check(em, last)
    except Exception as exc:  # a raised error counts as one failed check
        check = Check()
        check.fail(f"correctness gate raised {type(exc).__name__}: {exc}")
        return check


def _result(check, attempted: int, metrics: dict) -> dict:
    return {"correct": not check.failures, "attempted": attempted,
            "failed": len(check.failures), "metrics": metrics}


def _traced(workload, seed, seconds, src, out_dir):
    tracer = Tracer()
    em = load_package(src, workload.imports)
    with instrument(tracer), tracer.span("bench.setup"):
        workload.setup(em, seed)
    reference = timed_passes(workload, em, workload.jobs, seconds)
    # Spans from pool workers would be lost, so traced passes run in-process;
    # their untraced twin measures the tracing overhead.
    serial = reference if workload.jobs == 1 else timed_passes(workload, em, 1, seconds / 2)
    with instrument(tracer):
        traced = timed_passes(workload, em, 1, seconds,
                              pass_context=lambda: tracer.span("bench.pass"), phase=tracer.span)
        with tracer.span("bench.gate"):
            check = _gate(workload, em, traced[-1])

    traced_wall = pass_seconds(traced)
    layers, breakdown, warm_solver_calls = _layer_metrics(tracer, traced, check)
    # Serial classify seconds over the worker-seconds of the untraced passes.
    layers["census.pool.scaling_eff"] = layers.pop("classify_s") / (
        workload.jobs * pass_seconds(reference))
    layers["trace.overhead_frac"] = traced_wall / pass_seconds(serial) - 1.0
    if warm_solver_calls:
        check.fail(f"solver called {warm_solver_calls} times on the warm pass")

    spans_path = out_dir / f"{workload.name}-seed{seed}.spans.jsonl.gz"
    tracer.write(spans_path)
    attempted = sum(p.classes for p in traced)
    if set(layers) != set(LAYER_UNITS):
        raise RuntimeError(f"layer metrics {sorted(set(layers) ^ set(LAYER_UNITS))} mismatched")
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    shares = {
        "solver_self_share": layers["solver.classify_detailed.self_s"] / traced_wall,
        "generators_graphs_self_share": sum(
            v for k, v in layers.items() if k.endswith(".self_s")
            and k.split(".")[0] in ("generators", "graphs")) / traced_wall,
        "warm_pass_solver_calls": warm_solver_calls,
    }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": 1,
        "jobs": workload.jobs, "reference_passes": [p.wall for p in reference],
        "serial_reference_passes": [p.wall for p in serial],
        "traced_passes": [p.wall for p in traced], "metrics": metrics,
        "split_of_traced_wall": shares, "self_s_by_phase": breakdown,
        "spans_file": spans_path.name, "spans": len(tracer.spans),
        "inputs": {**check.properties, **check.residue_shares()},
        "failures": check.failures,
    }
    return _result(check, attempted, metrics), record


LAYER_UNITS = {
    "solver.classify_detailed.calls": "count",
    "solver.classify_detailed.self_s": "s",
    "solver.slowest_class_s": "s",
    "solver.residues_decided": "count",
    "solver.filter_rejected": "count",
    "solver.search_exhausted": "count",
    "solver.witnesses_found": "count",
    "solver.filter_admit_frac": "frac",
    "solver.search_success_frac": "frac",
    "solver.verify_labeling.self_s": "s",
    "graphs.canonical_graph.calls": "count",
    "graphs.canonical_graph.self_s": "s",
    "graphs.dedup_unique_frac": "frac",
    "graphs.parse_graph6.self_s": "s",
    "graphs.emit_graph6.self_s": "s",
    "generators.triangulations.count": "count",
    "generators.generate_mops.self_s": "s",
    "generators.generate_sparse_graphs.self_s": "s",
    "census.run_census.self_s": "s",
    "census.store.load_s": "s",
    "census.store.append_calls": "count",
    "census.store.append_s": "s",
    "census.store.bytes": "bytes",
    "census.store_hit_frac": "frac",
    "census.report_emit.self_s": "s",
    "census.report_bytes": "bytes",
    "census.pool.scaling_eff": "frac",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "frac",
}

# Spans whose self time is reported per pass.
SELF_TIMED = ("solver.classify_detailed", "graphs.canonical_graph", "graphs.parse_graph6",
              "graphs.emit_graph6", "generators.generate_mops",
              "generators.generate_sparse_graphs", "census.run_census", "census.report_emit",
              "cli.main")


def _layer_metrics(tracer: Tracer, traced, check):
    """Per-pass layer figures from the spans of the traced passes."""
    spans = tracer.spans
    own = self_times(spans)
    root = roots(spans)
    root_name = {s.id: s.name for s in spans if s.parent is None}
    n = len(traced)
    self_s = defaultdict(float)
    calls = Counter()
    breakdown = defaultdict(lambda: defaultdict(float))
    slowest = classify_total = 0.0
    warm_solver_calls = 0
    step = {}  # span id -> innermost enclosing bench.* span name
    for s, seconds in zip(spans, own):
        phase = root_name[root[s.id]]
        breakdown[phase][s.name] += seconds
        step[s.id] = s.name if s.name.startswith("bench.") else step.get(s.parent, phase)
        if phase == "bench.gate" and s.name == "solver.verify_labeling":
            self_s[s.name] += seconds
        if phase != "bench.pass":
            continue
        self_s[s.name] += seconds / n
        calls[s.name] += 1
        if s.name == "solver.classify_detailed":
            slowest = max(slowest, s.seconds)
            classify_total += s.seconds / n
            warm_solver_calls += step[s.id] == "bench.warm"
    triangulations = sum(c for (r, name), c in tracer.counts.items()
                         if name == "generators.triangulations" and root_name.get(r) == "bench.pass")
    admitted = check.decided - check.filter_rejected
    canonical_calls = calls["graphs.canonical_graph"] / n
    layers = {
        "solver.classify_detailed.calls": calls["solver.classify_detailed"] / n,
        "solver.slowest_class_s": slowest,
        "solver.residues_decided": check.decided,
        "solver.filter_rejected": check.filter_rejected,
        "solver.search_exhausted": check.exhausted,
        "solver.witnesses_found": check.witnessed,
        "solver.filter_admit_frac": admitted / check.decided if check.decided else 0.0,
        "solver.search_success_frac": check.witnessed / admitted if admitted else 0.0,
        "solver.verify_labeling.self_s": self_s["solver.verify_labeling"],
        "graphs.canonical_graph.calls": canonical_calls,
        "graphs.dedup_unique_frac": traced[-1].classes / canonical_calls if canonical_calls else 0.0,
        "generators.triangulations.count": triangulations / n,
        "census.store.load_s": self_s["census.store.load"],
        "census.store.append_calls": calls["census.store.append"] / n,
        "census.store.append_s": self_s["census.store.append"],
        "census.store.bytes": check.store_bytes,
        "census.store_hit_frac": check.store_hit_frac,
        "census.report_bytes": check.report_bytes,
        "classify_s": classify_total,
    }
    for name in SELF_TIMED:
        layers[f"{name}.self_s"] = self_s[name]
    breakdown = {phase: dict(sorted(v.items())) for phase, v in breakdown.items()}
    return layers, breakdown, warm_solver_calls
