import random
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import strategies as st

import edgemagic.solver as solver_mod
from edgemagic import Graph, emit_graph6

from oracles import relabel


@st.composite
def graph_strategy(draw, max_p=8, min_p=1):
    p = draw(st.integers(min_value=min_p, max_value=max_p))
    pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
    chosen = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Graph(p, tuple(chosen))


def to_networkx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.p))
    nxg.add_edges_from(g.edges)
    return nxg


def random_graph(rng: random.Random, p_min=1, p_max=7) -> Graph:
    p = rng.randint(p_min, p_max)
    pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
    q = rng.randint(0, len(pairs))
    return Graph(p, tuple(rng.sample(pairs, q)))


def random_permutation(rng: random.Random, p: int) -> list[int]:
    perm = list(range(p))
    rng.shuffle(perm)
    return perm


def degree_sorted_record(g: Graph) -> str:
    """g's graph6 record after a stable relabelling by nonincreasing degree."""
    degrees = g.degrees()
    rank = [0] * g.p
    for i, v in enumerate(sorted(range(g.p), key=lambda v: -degrees[v])):
        rank[v] = i
    return emit_graph6(relabel(g, rank))


def record_calls(monkeypatch, module, names):
    """Make ``module``'s functions ``names`` record their first argument."""
    calls = {name: [] for name in names}
    for name in names:
        def recording(first, *args, real=getattr(module, name), seen=calls[name], **kwargs):
            seen.append(first)
            return real(first, *args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    return calls


def corrupt_solver_witnesses(monkeypatch, edit="label"):
    """Make the solver build every witness with one label raised past the
    interval (``edit="label"``) or its claimed c moved off the vertex sums
    (``edit="c"``), so that only its own check stands between the fault and
    a caller."""
    real = solver_mod._witness_from_residues

    def corrupting(g, k, c, residue_map):
        w = real(g, k, c, residue_map)
        if edit == "c":
            return replace(w, c=(w.c + 1) % g.p)
        bad = {**w.labeling.assignment, min(w.labeling.assignment): 99}
        return replace(w, labeling=replace(w.labeling, assignment=bad))

    monkeypatch.setattr(solver_mod, "_witness_from_residues", corrupting)


@pytest.fixture
def rng():
    return random.Random(0xEDA6)
