"""Integer arguments: every entry point applies one rule and one message.

An order, edge count, base label k, worker count or cap must be an int (not
a bool, nor a float even of integral value) no less than its floor; any other
value raises ``ValueError`` naming the argument, before any work is done.
"""

import ast
import re
from functools import partial
from pathlib import Path

import pytest

from edgemagic import Graph
from edgemagic.census import check_mop_conjecture, run_census
from edgemagic.generators import (
    FAMILY_NAMES,
    SparseSpec,
    generate_by_edge_count,
    generate_mops,
    named_family,
    triangulations,
)
from edgemagic.solver import classify_detailed, counting_filter, label_residues

K2 = Graph(2, ((0, 1),))

# The least n of each named family: friendship counts triangles.
FAMILY_FLOORS = {"path": 1, "cycle": 3, "star": 2, "complete": 1, "fan": 3, "wheel": 4,
                 "friendship": 1}

# "entry-argument" -> (call with the argument's value, its name, its floor)
ARGUMENTS = {
    "Graph-p": (Graph, "order", 1),
    "triangulations-n": (lambda n: list(triangulations(n)), "order", 3),
    "generate_mops-p": (generate_mops, "order", 3),
    "generate_mops-p_max": (lambda p_max: generate_mops(3, p_max=p_max), "cap p_max", 3),
    "generate_by_edge_count-p": (lambda p: generate_by_edge_count(p, 0), "order", 1),
    "generate_by_edge_count-q": (lambda q: generate_by_edge_count(3, q), "edge count q", 0),
    "SparseSpec-p": (lambda p: SparseSpec(p, 0), "order", 1),
    "SparseSpec-h": (lambda h: SparseSpec(3, h), "deficiency h", 0),
    **{f"named_family-{name}": (partial(named_family, name), f"n for {name}", floor)
       for name, floor in FAMILY_FLOORS.items()},
    "label_residues-k": (lambda k: label_residues(k, 3, 2), "base label k", 0),
    "label_residues-q": (lambda q: label_residues(0, q, 2), "edge count q", 0),
    "label_residues-p": (lambda p: label_residues(0, 3, p), "order", 1),
    "counting_filter-k": (lambda k: counting_filter(K2, k), "base label k", 0),
    "classify_detailed-k": (lambda k: classify_detailed(K2, [k]), "base label k", 0),
    "run_census-k": (lambda k: run_census(["A_"], ks=[k]), "base label k", 0),
    "run_census-jobs": (lambda jobs: run_census(["A_"], jobs=jobs), "jobs", 1),
    "run_census-p_max": (lambda p_max: run_census(["A_"], p_max=p_max), "cap p_max", 1),
    "check_mop_conjecture-p": (check_mop_conjecture, "order", 5),
    "check_mop_conjecture-jobs": (lambda jobs: check_mop_conjecture(5, jobs=jobs), "jobs", 1),
}

BAD = {
    "bool": lambda least: True,
    "float": float,  # of integral value, so only its type is wrong
    "str": str,
    "below": lambda least: least - 1,
}


def test_families_all_listed():
    assert set(FAMILY_FLOORS) == set(FAMILY_NAMES)


@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize("argument", sorted(ARGUMENTS))
def test_bad_value_rejected(argument, kind):
    call, what, least = ARGUMENTS[argument]
    value = BAD[kind](least)
    rule = f"must be >= {least}" if kind == "below" else "must be an int"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} {rule}, got {value!r}')}$"):
        call(value)


@pytest.mark.parametrize("argument", sorted(ARGUMENTS))
def test_floor_accepted(argument):
    call, _, least = ARGUMENTS[argument]
    call(least)


def test_sparse_spec_needs_h_at_most_p():
    with pytest.raises(ValueError, match=r"^p - h must be >= 0, got -1$"):
        SparseSpec(2, 3)


def test_one_integer_argument_check():
    # graphs._check_int is the one check of an integer argument, so no other
    # module tests a value's type against int or words its message.  The
    # exceptions judge a labelling or a stored outcome, which is reported as
    # invalid, not rejected as an argument.
    package = Path(__file__).resolve().parents[1] / "src" / "edgemagic"
    sites = set()
    for path in package.glob("*.py"):
        if path.stem == "graphs":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                message = isinstance(node, ast.Raise) and any(
                    isinstance(part, ast.Constant) and isinstance(part.value, str)
                    and re.search(r"must be an int\b", part.value) for part in ast.walk(node))
                type_test = (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                             and getattr(node.left.func, "id", None) == "type"
                             and any(getattr(c, "id", None) == "int" for c in node.comparators))
                if message or type_test:
                    sites.add((path.stem, getattr(top, "name", None)))
    assert sites <= {("solver", "verify_labeling"), ("solver", "outcome_fault")}


def test_mixed_ks_named_in_order():
    # The ks are checked as given, before any sort could compare "x" with 1.
    with pytest.raises(ValueError, match="^base label k must be an int, got 'x'$"):
        classify_detailed(K2, [1, "x"])
