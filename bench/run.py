"""Run one edgemagic benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mop_classify --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src`` directory, never from an
installed copy.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "edgemagic" / "__init__.py").is_file():
        print(f"error: no edgemagic package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    # Package defaults apply, whatever the caller's environment sets.
    for name in [n for n in os.environ if n.startswith("EDGEMAGIC_")]:
        del os.environ[name]

    from bench import harness
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / "bench" / "results"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        result, record = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                                     bool(args.trace), ROOT, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / record_name).write_text(json.dumps(record, indent=1) + "\n")
    for metric, entry in {**result["metrics"], **record.get("workload_metrics", {})}.items():
        note = f"  ({entry['note']})" if "note" in entry else ""
        print(f"{metric:42s} {entry['value']:.6g} {entry['unit']}{note}")
    for share, value in record.get("split_of_traced_wall", {}).items():
        print(f"{share:42s} {value:.6g}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    print(f"record: bench/results/{record_name}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
