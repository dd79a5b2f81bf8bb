"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Stated runtime bounds are asserted where the criterion pins one.
"""

import itertools
import random
import time
from pathlib import Path

from edgemagic import (
    Graph,
    brute_force_is_k_em,
    classify,
    counting_filter,
    emit_graph6,
    generate_mops,
    is_k_em,
    named_family,
    parse_graph6,
    verify_labeling,
)
from edgemagic.census import check_mop_conjecture, report_emit, run_census
from edgemagic.generators import SparseSpec, generate_sparse_graphs, triangulations

from oracles import relabel

DATA = Path(__file__).parent / "data"


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def catalan(n: int) -> int:
    values = [1]
    for m in range(n):
        values.append(sum(values[i] * values[m - i] for i in range(m + 1)))
    return values[n]


def test_criterion_1_order_4_spectrum():
    start = time.perf_counter()
    mops = generate_mops(4)
    spectra = [sorted(classify(g).members) for g in mops]
    elapsed = time.perf_counter() - start
    ok = len(mops) == 1 and spectra == [[2]] and elapsed < 1.0
    report(1, ok, f"unique order-4 MOP has spectrum {{2}} ({elapsed:.2f}s)")


def test_criterion_2_order_5_spectrum():
    start = time.perf_counter()
    spectra = [sorted(classify(g).members) for g in generate_mops(5)]
    elapsed = time.perf_counter() - start
    ok = spectra and all(s == [2] for s in spectra) and elapsed < 1.0
    report(2, ok, f"all order-5 MOPs have spectrum {{2}} ({elapsed:.2f}s)")


def test_criterion_3_order_7_spectrum():
    start = time.perf_counter()
    mops = generate_mops(7)
    spectra = [sorted(classify(g).members) for g in mops]
    elapsed = time.perf_counter() - start
    ok = len(mops) == 4 and all(s == [2] for s in spectra) and elapsed < 30.0
    report(3, ok, f"all 4 order-7 MOPs have spectrum {{2}} ({elapsed:.2f}s)")


def test_criterion_4_filter_forces_k_equals_2():
    start = time.perf_counter()
    ok = True
    for p in (5, 7, 11, 13):
        fan = named_family("fan", p)  # a MOP of order p: q = 2p-3
        assert fan.q == 2 * p - 3
        admitted = [k for k in range(p) if counting_filter(fan, k)]
        ok = ok and admitted == [2]
    elapsed = time.perf_counter() - start
    report(4, ok, f"counting filter admits only k=2 for prime p in {{5,7,11,13}} ({elapsed:.2f}s)")


def test_criterion_5_conjecture_desk_scale():
    v5 = check_mop_conjecture(5)
    v7 = check_mop_conjecture(7)
    start = time.perf_counter()
    v11 = check_mop_conjecture(11, jobs=2)
    elapsed = time.perf_counter() - start
    # p=11 lies beyond the orders with established classifications; its verdict
    # is computed evidence, frozen here after the first exhaustive run.
    ok = (
        v5.holds
        and v7.holds
        and v11.holds
        and v11.checked == 228
        and v11.filter_admits == (2,)
        and elapsed < 600.0
    )
    report(5, ok, f"conjecture holds for p=5,7 and (computed) p=11 ({elapsed:.0f}s for p=11)")


def test_criterion_6_fixed_k_census_frozen():
    lines = []
    for p in range(4, 10):
        lines += [emit_graph6(g) for g in generate_mops(p)]
    ok = True
    for k in (3, 4):
        fixture = (DATA / f"mop_census_k{k}_orders_4_to_9.csv").read_bytes()
        outputs = []
        for _ in range(2):
            rows = run_census(lines, ks=[k])
            path = DATA.parent / f"_tmp_census_k{k}.csv"
            report_emit(rows, "csv", path)
            outputs.append(path.read_bytes())
            path.unlink()
        ok = ok and outputs[0] == outputs[1] == fixture
    report(6, ok, "k=3 and k=4 censuses over MOP orders 4..9 byte-match frozen fixtures")


def test_criterion_7_sparse_census_properties():
    start = time.perf_counter()
    lines = []
    for p in range(1, 7):
        for h in (0, 1, 2):
            if p - h >= 0:
                lines += [emit_graph6(g) for g in generate_sparse_graphs(SparseSpec(p, h))]
    rows = run_census(lines, include_empty=True)
    ok = len(rows) > 0
    for row in rows:
        g = parse_graph6(row.graph6)
        members = set(row.spectrum)
        ok = ok and row.status == "ok"
        ok = ok and members.isdisjoint(row.ruled_out)
        ok = ok and members | set(row.ruled_out) == set(range(row.p))
        for k in row.spectrum:
            result = verify_labeling(g, row.witnesses[k].labeling)
            ok = ok and result.valid and result.c == row.witnesses[k].c
            ok = ok and counting_filter(g, k)  # members must pass the filter
        for k, reason in row.ruled_out.items():
            if reason == "counting-filter":
                ok = ok and not counting_filter(g, k)
            else:
                ok = ok and reason == "search-exhausted" and counting_filter(g, k)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    report(7, ok, f"(p, p-h) census p<=6, h<=2: {len(rows)} rows all consistent ({elapsed:.1f}s)")


def test_criterion_8_oracle_equivalence():
    start = time.perf_counter()
    instances = 0
    disagreements = 0
    for p in range(1, 6):
        pairs = list(itertools.combinations(range(p), 2))
        for q in range(0, min(7, len(pairs)) + 1):
            for subset in itertools.combinations(pairs, q):
                g = Graph(p, subset)
                for k in range(p):
                    instances += 1
                    fast = is_k_em(g, k) is not None
                    slow = brute_force_is_k_em(g, k) is not None
                    if fast != slow:
                        disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and instances > 2000
    report(8, ok, f"solver and oracle agree on {instances} instances ({elapsed:.0f}s)")


def test_criterion_9_invariant_suite():
    rng = random.Random(2026)
    failures = []

    def random_graph(p_min, p_max):
        p = rng.randint(p_min, p_max)
        pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
        return Graph(p, tuple(rng.sample(pairs, rng.randint(0, len(pairs)))))

    for _ in range(200):  # shift invariance: k and k+p are equivalent
        g = random_graph(2, 6)
        k = rng.randint(0, 2 * g.p)
        w1 = is_k_em(g, k)
        w2 = is_k_em(g, k + g.p)
        if (w1 is None) != (w2 is None):
            failures.append(("shift", g, k))
        elif w1 is not None:
            shifted = {e: v + g.p for e, v in w1.labeling.assignment.items()}
            if w2.labeling.assignment != shifted or w2.c != w1.c:
                failures.append(("shift-witness", g, k))

    for _ in range(200):  # classify is isomorphism-invariant
        g = random_graph(2, 6)
        perm = list(range(g.p))
        rng.shuffle(perm)
        if classify(g).members != classify(relabel(g, perm)).members:
            failures.append(("relabel", g, perm))

    generated = [named_family(n, 6) for n in ("path", "cycle", "star", "complete", "fan", "wheel")]
    for p in range(4, 10):
        generated += generate_mops(p)
    for p in range(1, 7):
        for h in (0, 1, 2):
            if p - h >= 0:
                generated += generate_sparse_graphs(SparseSpec(p, h))
    for g in generated:  # graph6 round trip on everything generated
        if parse_graph6(emit_graph6(g)) != g:
            failures.append(("graph6", g))

    for p in range(4, 11):  # raw stream completeness
        if sum(1 for _ in triangulations(p)) != catalan(p - 2):
            failures.append(("catalan", p))

    report(9, not failures, f"400 randomized + {len(generated)} round-trip + Catalan checks, "
                            f"{len(failures)} failures")


def test_criterion_10_known_negatives_and_positives():
    k2 = named_family("path", 2)
    expectations = [
        (named_family("cycle", 3), []),
        (named_family("cycle", 4), []),
        (k2, [0, 1]),
        (named_family("path", 3), []),
    ]
    ok = True
    for g, expected in expectations:
        solver_spectrum = sorted(classify(g).members)
        oracle_spectrum = [k for k in range(g.p) if brute_force_is_k_em(g, k) is not None]
        ok = ok and solver_spectrum == oracle_spectrum == expected
    report(10, ok, "C3, C4, P3 empty; K2 = {0,1}; solver and oracle concur")
