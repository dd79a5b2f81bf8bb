"""Command-line interface: solve, classify, generate, census, conjecture.

Exit codes are a stable contract: 0 success (witness found / conjecture
holds), 1 negative result (no witness / conjecture fails), 2 usage or input
error, a solver witness that fails its check included.  Graph streams read
standard input when the source argument is "-"; a byte in them that is not
UTF-8 makes its line an unreadable record.
Each command reads only the settings it uses, when it runs, the flag first
and else its environment variable: ``census`` reads EDGEMAGIC_FORMAT,
EDGEMAGIC_STORE, EDGEMAGIC_JOBS and the vertex cap EDGEMAGIC_P_MAX, and
``conjecture`` reads EDGEMAGIC_JOBS; ``solve``, ``classify`` and
``generate`` read none.  A command that names an order (``generate mop``,
``generate sparse``, ``conjecture``) runs at that order; the cap guards only
canonical search over graphs read from input.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import nullcontext, suppress

from .census import _REPORT_FORMATS, CensusStore, check_mop_conjecture, report_emit, run_census
from .generators import (
    FAMILY_NAMES,
    SparseSpec,
    generate_mops,
    generate_sparse_graphs,
    named_family,
)
from .graphs import P_MAX, Graph6Error, emit_graph6, parse_graph6
from .solver import classify, is_k_em, witness_to_json


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if not value:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _jobs(args) -> int:
    return args.jobs if args.jobs is not None else _env_int("EDGEMAGIC_JOBS", 1)


def _open_source(arg: str):
    if arg == "-":
        with suppress(AttributeError, io.UnsupportedOperation):  # not a text file, or read
            sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
        return nullcontext(sys.stdin)  # leave stdin open
    return open(arg, encoding="utf-8", errors="surrogateescape")


def _spectrum_text(members) -> str:
    return ";".join(str(k) for k in sorted(members)) or "-"


def cmd_solve(args) -> int:
    g = parse_graph6(args.graph6)
    witness = is_k_em(g, args.k)
    if witness is None:
        print("none")
        return 1
    print(witness_to_json(witness, g.p))
    return 0


def cmd_classify(args) -> int:
    failed = False
    with _open_source(args.source) as fh:
        for lineno, line in enumerate(fh, 1):
            record = line.strip()
            if not record:
                continue
            try:
                g = parse_graph6(record)
            except Graph6Error as exc:
                print(f"line {lineno}: {exc}", file=sys.stderr)
                failed = True
                continue
            spectrum = classify(g)
            print(f"{record}\t{_spectrum_text(spectrum.members)}")
    return 2 if failed else 0


def cmd_generate(args) -> int:
    if args.kind == "mop":
        graphs = generate_mops(args.p, p_max=args.p)
    elif args.kind == "sparse":
        graphs = generate_sparse_graphs(SparseSpec(args.p, args.h), args.connected_only)
    else:
        graphs = [named_family(args.name, args.n)]
    for g in graphs:
        print(emit_graph6(g))
    return 0


def _k_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--k must be comma-separated integers, got {text!r}") from None


def cmd_census(args) -> int:
    p_max = _env_int("EDGEMAGIC_P_MAX", P_MAX)
    jobs = _jobs(args)
    fmt = args.format or os.environ.get("EDGEMAGIC_FORMAT") or "csv"
    if fmt not in _REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    ks = _k_list(args.k) if args.k is not None else None
    if args.mode == "k-list" and ks is None:
        raise ValueError("k-list mode needs at least one k")
    if args.mode == "spectrum" and ks is not None:
        raise ValueError("spectrum mode decides every k; drop --k or use --mode k-list")
    store_path = args.store or os.environ.get("EDGEMAGIC_STORE")
    store = CensusStore(store_path) if store_path else None

    def report_error(lineno, message):
        print(f"line {lineno}: {message}", file=sys.stderr)

    with _open_source(args.source) as fh:
        rows = run_census(
            fh,
            ks=ks,
            store=store,
            jobs=jobs,
            p_max=p_max,
            include_empty=args.include_empty,
            on_error=report_error,
        )
    if args.out and args.out != "-":
        report_emit(rows, fmt, args.out)
    else:
        report_emit(rows, fmt, sys.stdout)
    return 0


def cmd_conjecture(args) -> int:
    verdict = check_mop_conjecture(args.p, jobs=_jobs(args))
    if verdict.holds:
        print(f"HOLDS: all {verdict.checked} maximal outerplanar graphs of order "
              f"{verdict.p} have spectrum {{{_spectrum_text(verdict.filter_admits)}}}")
        return 0
    print(f"FAILS: {len(verdict.counterexamples)} of {verdict.checked} graphs deviate")
    for code, spectrum in verdict.counterexamples:
        print(f"  {code}\t{_spectrum_text(spectrum)}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgemagic",
        description="Exact solver and census engine for k-edge-magic graph labelings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="find a k-EM witness for one graph")
    p_solve.add_argument("graph6", help="graph6 record")
    p_solve.add_argument("--k", type=int, required=True, help="base label k >= 0")
    p_solve.set_defaults(func=cmd_solve)

    p_classify = sub.add_parser("classify", help="spectrum of each graph in a stream")
    p_classify.add_argument("source", nargs="?", default="-", help="graph6 file or - for stdin")
    p_classify.set_defaults(func=cmd_classify)

    p_generate = sub.add_parser("generate", help="emit graph6 lines for a family")
    gen_sub = p_generate.add_subparsers(dest="kind", required=True)
    g_mop = gen_sub.add_parser("mop", help="maximal outerplanar graphs of one order")
    g_mop.add_argument("--p", type=int, required=True)
    g_sparse = gen_sub.add_parser("sparse", help="all (p, p-h)-graphs up to isomorphism")
    g_sparse.add_argument("--p", type=int, required=True)
    g_sparse.add_argument("--h", type=int, required=True)
    g_sparse.add_argument("--connected-only", action="store_true")
    g_family = gen_sub.add_parser("family", help="one named fixture graph")
    g_family.add_argument("name", choices=FAMILY_NAMES)
    g_family.add_argument("n", type=int)
    p_generate.set_defaults(func=cmd_generate)

    p_census = sub.add_parser("census", help="classify a stream into a report file")
    p_census.add_argument("source", help="graph6 file or - for stdin")
    p_census.add_argument("--mode", choices=("spectrum", "k-list"))
    p_census.add_argument("--k", help="comma-separated k values for k-list mode")
    p_census.add_argument("--format", choices=_REPORT_FORMATS)
    p_census.add_argument("--out", help="report path (default stdout)")
    p_census.add_argument("--store", help="JSONL result store path")
    p_census.add_argument("--jobs", type=int, help="parallel classification workers")
    p_census.add_argument("--include-empty", action="store_true",
                          help="keep edgeless graphs in the tables")
    p_census.set_defaults(func=cmd_census)

    p_conj = sub.add_parser(
        "conjecture", help="check every MOP spectrum of one order against the counting filter")
    p_conj.add_argument("p", type=int, help="order >= 5")
    p_conj.add_argument("--jobs", type=int)
    p_conj.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
