"""Exact decision procedures for k-edge-magic labelings.

A graph on p vertices with q edges is k-edge-magic (k-EM) when its edges can
be labeled bijectively with the interval {k, k+1, ..., k+q-1} so that every
vertex's incident label sum is congruent to one constant c modulo p.

Because vertex sums are taken mod p, only label residues matter: the search
assigns residues drawn from the multiset {k mod p, ..., (k+q-1) mod p} instead
of raw labels, and k itself only matters mod p.  Residues k with equal
multisets share one search: when p divides q every k has the same multiset,
so such a graph is k-EM for every k or for none.  Negating every residue maps
the multiset of k onto that of its partner 1-q-k (mod p) and a constant sum c
onto -c, so g is k-EM exactly when it is (1-q-k)-EM.  Each partner pair is
searched once, at its smaller residue; where the other residue's multiset
differs, its witness negates every residue and c of that solution.  For a
maximal outerplanar graph (q = 2p-3) the pairs are k and 4-k, and k = 2 is
its own partner.  Concrete interval labels are
reconstructed afterwards, per residue class in increasing edge order, so a
returned witness depends only on g and k mod p.

The backtracking solver fixes a candidate constant c and walks edges in a
breadth-first order chosen so vertices finish early; the order and its
schedule are built once per graph.  An edge that completes a vertex can carry
only the residue that brings that vertex's sum to c, so no other is tried.
After each placement a forward check (Haralick and Elliott, 1980) abandons
the branch when a vertex with one edge left needs a residue the remaining
supply no longer holds, and a pairwise check (after Mackworth, 1977) when two
such vertices cannot both finish: the two ends of one last edge need equal
partial sums, and two vertices waiting on different edges for one residue
need two of it left.  All three prunings remove only subtrees without
solutions, and residues are tried in ascending order, so each search stops
at the solution, and so the witness, that a plain depth-first search would
find first.
``is_k_em`` and ``classify_detailed`` return a witness only once
``outcome_fault``, which the census also applies to its stored rows, accepts
it, and raise ``ValueError`` for one that fails.
``brute_force_is_k_em`` is an independent oracle with no pruning at all,
meant for cross-checking in tests.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .graphs import Graph, emit_graph6

# Edge-count cap for the no-pruning oracle (q! permutations in the worst case).
Q_BRUTE = 8

# Bumped whenever solver output could change; persisted census rows carry it.
SOLVER_VERSION = "2"


@dataclass(frozen=True, slots=True)
class Labeling:
    """A bijection from edges onto the label interval [k, k+q-1]."""

    k: int
    assignment: dict[tuple[int, int], int]

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"base label k must be nonnegative, got {self.k}")
        normalized = {}
        for edge, label in self.assignment.items():
            u, v = edge
            if u > v:
                edge = (v, u)  # an edge already in order is kept, not copied
            if edge in normalized:
                raise ValueError(f"edge {edge} labeled twice")
            normalized[edge] = label
        object.__setattr__(self, "assignment", normalized)


@dataclass(frozen=True, slots=True)
class Witness:
    """A labeling together with the common vertex sum c (mod p) it induces."""

    labeling: Labeling
    c: int


@dataclass(frozen=True)
class KSpectrum:
    """The residues k mod p for which a graph is k-EM."""

    p: int
    members: frozenset[int]


@dataclass
class VerifyResult:
    valid: bool
    c: int | None = None
    violations: list[str] = field(default_factory=list)


def label_residues(k: int, q: int, p: int) -> tuple[int, ...]:
    """Multiplicities, indexed by residue, of [k, k+q-1] mod p: the search alphabet."""
    if k < 0:
        raise ValueError(f"base label k must be nonnegative, got {k}")
    if q < 0 or p < 1:
        raise ValueError(f"need q >= 0 and p >= 1, got q={q}, p={p}")
    counts = [q // p] * p
    for i in range(q % p):
        counts[(k + i) % p] += 1
    return tuple(counts)


def counting_filter(g: Graph, k: int) -> bool:
    """Necessary condition for a k-EM labeling to exist.

    Summing the constant vertex sum over all p vertices counts every edge
    label twice, so 2*(k + ... + k+q-1) = 2qk + q(q-1) must vanish mod p.
    Returns False only when no labeling can exist; True is inconclusive.
    """
    if k < 0:
        raise ValueError(f"base label k must be nonnegative, got {k}")
    q = g.q
    return (2 * q * k + q * (q - 1)) % g.p == 0


def _bfs_edge_order(g: Graph) -> list[tuple[int, int]]:
    """Edges ordered so that vertices complete early during the search.

    Vertices are numbered by BFS (highest degree first among unvisited
    starts, neighbors in ascending order) and edges sort by their later
    endpoint.  A vertex's sum closes out once the edge to its highest
    numbered neighbor is placed, which BFS keeps near the vertex itself.
    """
    masks = g.adjacency_masks()
    degs = g.degrees()
    index = [-1] * g.p
    counter = 0
    for start in sorted(range(g.p), key=lambda v: (-degs[v], v)):
        if index[start] != -1 or degs[start] == 0:
            continue
        index[start] = counter
        counter += 1
        queue = deque([start])
        while queue:
            v = queue.popleft()
            m = masks[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if index[w] == -1:
                    index[w] = counter
                    counter += 1
                    queue.append(w)
    return sorted(
        g.edges,
        key=lambda e: (max(index[e[0]], index[e[1]]), min(index[e[0]], index[e[1]])),
    )


@dataclass(frozen=True)
class _SearchPlan:
    """Per-graph search schedule, shared by every (k, c) the graph is tried at.

    ``steps[i]`` is one tuple ``(u, v, forced, waiting, ties)`` for placing
    ``order[i] = (u, v)``:

    - ``forced``: the vertex whose last edge is ``order[i]``, the lower one
      if both ends finish there, else None;
    - ``waiting``: the vertices with exactly one edge still unplaced once
      ``order[i]`` is placed (degree-1 vertices count from the start), one
      per last edge: where both ends of an edge wait on it, only the lower
      is listed;
    - ``ties``: the pairs (a, b) that both wait on the edge (a, b) from step
      i on.  Neither sum changes until that edge is placed, so each pair
      needs checking at this step only.
    """

    p: int
    order: tuple[tuple[int, int], ...]
    steps: tuple[tuple, ...]
    has_isolated: bool


def _search_plan(g: Graph) -> _SearchPlan:
    order = _bfs_edge_order(g)
    incident: list[list[int]] = [[] for _ in range(g.p)]
    for i, (u, v) in enumerate(order):
        incident[u].append(i)
        incident[v].append(i)
    # A vertex waits on its last edge from the step that places the edge
    # before it, or from the start when it has only one.
    start = [steps[-2] if len(steps) > 1 else 0 for steps in incident]
    forced: list[int | None] = [None] * len(order)
    waiting: list[tuple[int, ...]] = [()] * len(order)
    ties: list[tuple[tuple[int, int], ...]] = [()] * len(order)
    for w, steps in enumerate(incident):
        if not steps:
            continue
        last = steps[-1]
        if forced[last] is None:
            forced[last] = w
        a, b = order[last]
        end = last
        if w == b and incident[a][-1] == last:  # a waits on this edge too
            end = max(start[a], start[w])
            if end < last:
                ties[end] += ((a, b),)
        for i in range(start[w], end):
            waiting[i] += (w,)
    return _SearchPlan(
        g.p,
        tuple(order),
        tuple((u, v, f, wt, t) for (u, v), f, wt, t in zip(order, forced, waiting, ties)),
        any(not steps for steps in incident),
    )


def _magic_residue_solutions(
    plan: _SearchPlan, k: int, c: int
) -> dict[tuple[int, int], int] | None:
    """The first residue assignment (edge -> residue) with every vertex sum = c mod p.

    Depth-first over edges in completion order, residues ascending; None when
    no assignment exists.  Three prunings cut only subtrees that hold no
    solution, so the result is the one a plain ascending search finds first,
    the least residue tuple over ``plan.order``:

    - forced residue: an edge that completes a vertex w can only carry
      (c - partial[w]) mod p, so that residue alone is tried;
    - forward check: after each placement, every vertex with exactly one edge
      left must still find the residue it needs in the remaining supply;
    - pairwise check: two such vertices waiting on the same edge are its two
      ends, so their partial sums must agree mod p, and two waiting on
      different edges that need the same residue must find it at least twice
      in the remaining supply.

    A forced residue completes its vertex by construction, and the pairwise
    check has already tied the other end's sum to it when the edge completes
    both, so neither is checked again.
    """
    p = plan.p
    order, steps = plan.order, plan.steps
    if plan.has_isolated and c != 0:
        return None  # an isolated vertex has an empty sum, forcing c = 0
    q = len(order)
    counts = list(label_residues(k, q, p))
    partial = [0] * p
    chosen = [0] * q

    def extend(i: int) -> bool:
        if i == q:
            return True
        u, v, forced, waiting, ties = steps[i]
        for r in range(p) if forced is None else ((c - partial[forced]) % p,):
            if counts[r] == 0:
                continue
            counts[r] -= 1
            partial[u] += r
            partial[v] += r
            for a, b in ties:
                if (partial[a] - partial[b]) % p:
                    break
            else:
                scarce = 0  # bit x: a waiting vertex needs x, of which one is left
                for w in waiting:
                    x = (c - partial[w]) % p
                    left = counts[x]
                    if left < 2:
                        if left == 0 or scarce >> x & 1:
                            break
                        scarce |= 1 << x
                else:
                    chosen[i] = r
                    if extend(i + 1):
                        return True
            counts[r] += 1
            partial[u] -= r
            partial[v] -= r
        return False

    return dict(zip(order, chosen)) if extend(0) else None


def _witness_from_residues(
    g: Graph, k: int, c: int, residue_map: dict[tuple[int, int], int]
) -> Witness:
    # The j-th edge with residue r gets the j-th label of k..k+q-1 in class r.
    used = [0] * g.p
    assignment = {}
    for edge in g.edges:
        r = residue_map[edge]
        assignment[edge] = k + (r - k) % g.p + used[r] * g.p
        used[r] += 1
    return Witness(Labeling(k, assignment), c)


def is_k_em(g: Graph, k: int) -> Witness | None:
    """Exact k-EM decision: a witness that ``outcome_fault`` accepts, else None."""
    if k < 0:
        raise ValueError(f"base label k must be nonnegative, got {k}")
    outcome = _decide(g, k, _search_plan(g), {})
    return outcome if isinstance(outcome, Witness) else None


def _first_solution(plan: _SearchPlan, k: int) -> tuple[int, dict[tuple[int, int], int]] | None:
    """The least solvable c at base label k and its first residue map, or None.

    Sums c are searched in ascending order, one search each (see
    ``_magic_residue_solutions``), until one finds a solution.  When k's
    residue multiset is its own negation, negating a solution at c gives one
    at -c, so the least solvable c is at most p/2 and no larger c is searched.
    """
    p = plan.p
    counts = label_residues(k, len(plan.order), p)
    symmetric = all(counts[r] == counts[-r % p] for r in range(p))
    for c in range(p // 2 + 1 if symmetric else p):
        found = _magic_residue_solutions(plan, k, c)
        if found is not None:
            return c, found
    return None


def _decide(g: Graph, k: int, plan: _SearchPlan, searches: dict) -> Witness | str:
    """A witness that g is k-EM, or why not: "counting-filter" or "search-exhausted".

    k is decided by a search at the base residue, the smaller of k and its
    partner 1-q-k (mod p); the counting filter takes the same value at both.
    The search sees the base only through its residue multiset, so
    ``searches`` keeps each multiset's result (see ``_first_solution``) for
    every k that shares it.  When k's multiset is the negation of the base's,
    so are its residues and its constant sum.  An edgeless graph needs no
    special case, as its isolated vertices force c = 0.  The witness is
    returned only once ``outcome_fault`` accepts it.
    """
    if not counting_filter(g, k):
        return "counting-filter"
    p = g.p
    base = min(k % p, (1 - g.q - k) % p)
    counts = label_residues(base, g.q, p)
    if counts not in searches:
        searches[counts] = _first_solution(plan, base)
    found = searches[counts]
    if found is None:
        return "search-exhausted"
    c, residue_map = found
    if label_residues(k, g.q, p) != counts:
        c, residue_map = -c % p, {edge: -r % p for edge, r in residue_map.items()}
    witness = _witness_from_residues(g, k, c, residue_map)
    fault = outcome_fault(g, k % p, witness)
    if fault is not None:
        raise ValueError(f"solver witness for k={k}, c={witness.c} on {emit_graph6(g)}: {fault}")
    return witness


def classify(g: Graph) -> KSpectrum:
    """Full spectrum: the residues k in [0, p-1] that ``classify_detailed`` witnesses."""
    outcomes = classify_detailed(g)
    return KSpectrum(g.p, frozenset(k for k, o in outcomes.items() if isinstance(o, Witness)))


def classify_detailed(g: Graph, ks=None) -> dict[int, Witness | str]:
    """Decide k-EM status for each requested residue: a witness, or why not.

    ks defaults to all of 0..p-1; values must be nonnegative and are reduced
    mod p.  Returns {k: outcome} in ascending k, where the outcome is a witness
    that g is k-EM or the reason it is not, "counting-filter" or
    "search-exhausted".  Residues whose label residue multisets are equal share
    one search.  When p divides q every k has the same multiset, so such a
    graph is k-EM for every k or for none.  A residue k and its partner
    1-q-k (mod p) share one search too, whether or not both are requested:
    g is k-EM exactly when it is (1-q-k)-EM, and the partner's witness negates
    every residue and c.  For a maximal outerplanar graph the partners are k
    and 4-k.  So each outcome depends on g and k mod p alone, not on ks.
    Each witness has passed ``outcome_fault`` (see ``_decide``).
    """
    ks = range(g.p) if ks is None else list(ks)
    if ks and min(ks) < 0:
        raise ValueError(f"base label k must be nonnegative, got {min(ks)}")
    plan = _search_plan(g)
    searches: dict = {}
    return {k: _decide(g, k, plan, searches) for k in sorted({k % g.p for k in ks})}


def brute_force_is_k_em(g: Graph, k: int, q_cap: int = Q_BRUTE) -> Witness | None:
    """Independent oracle: try every distinct residue permutation, no pruning.

    Permutations are tried in lexicographic order of their residue tuples
    over g.edges, so the witness is the first such tuple that is magic.  The
    next-permutation walk (Knuth, TAOCP 7.2.1.2, Algorithm L) produces them
    one at a time, so a search that stops early never builds the rest.  Each
    step swaps residues within a suffix, and only the vertex sums at the ends
    of edges whose residue changed are updated.
    """
    if k < 0:
        raise ValueError(f"base label k must be nonnegative, got {k}")
    if g.q > q_cap:
        raise ValueError(f"brute force capped at q={q_cap} (got q={g.q})")
    p, edges = g.p, g.edges
    counts = label_residues(k, g.q, p)
    perm = [r for r in range(p) for _ in range(counts[r])]  # the least permutation
    n = len(perm)
    sums = [0] * p  # vertex sums mod p
    for (u, v), r in zip(edges, perm):
        sums[u] = (sums[u] + r) % p
        sums[v] = (sums[v] + r) % p
    while True:
        if sums.count(sums[0]) == p:
            return _witness_from_residues(g, k, sums[0], dict(zip(edges, perm)))
        i = n - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return None
        j = n - 1
        while perm[j] <= perm[i]:
            j -= 1
        # Swap positions i and j, then reverse the suffix after i by swapping
        # its ends inward.  A swap of unequal residues moves four vertex sums.
        lo, hi = i, j
        while lo < hi:
            a, b = perm[lo], perm[hi]
            if a != b:
                perm[lo], perm[hi] = b, a
                (u, v), (x, y) = edges[lo], edges[hi]
                sums[u] = (sums[u] + b - a) % p
                sums[v] = (sums[v] + b - a) % p
                sums[x] = (sums[x] + a - b) % p
                sums[y] = (sums[y] + a - b) % p
            lo, hi = (i + 1, n - 1) if lo == i else (lo + 1, hi - 1)


def verify_labeling(g: Graph, labeling: Labeling) -> VerifyResult:
    """Check a labeling independently of any search: bijection + constant sums.

    The base label, every label and every edge endpoint must be an ``int``
    (not a bool, nor a float even of integral value); a labeling that breaks
    this is invalid.  An edge absent from g raises ``ValueError``.
    """
    q = g.q
    k = labeling.k
    violations = [] if type(k) is int else [f"base label k={k!r} is not an integer"]
    for edge, label in labeling.assignment.items():
        if any(type(value) is not int for value in (*edge, label)):
            violations.append(f"edge {edge} labeled {label!r}: not all integers")
    if violations:
        return VerifyResult(False, None, violations)
    edge_set = set(g.edges)
    for edge in labeling.assignment:
        if tuple(edge) not in edge_set:
            raise ValueError(f"labeling references edge {edge} absent from the graph")

    missing = [e for e in g.edges if e not in labeling.assignment]
    if missing:
        violations.append(f"unlabeled edges: {missing}")
    labels = sorted(labeling.assignment.values())
    if labels != list(range(k, k + q)) or len(labeling.assignment) != q:
        violations.append(
            f"labels are not a bijection onto [{k}, {k + q - 1}]: {labels}"
        )
    if violations:
        return VerifyResult(False, None, violations)

    sums = [0] * g.p
    for (u, v), label in labeling.assignment.items():
        sums[u] += label
        sums[v] += label
    c = sums[0] % g.p
    for v in range(1, g.p):
        if sums[v] % g.p != c:
            violations.append(
                f"vertex sums differ mod {g.p}: vertex 0 has {sums[0] % g.p}, "
                f"vertex {v} has {sums[v] % g.p}"
            )
    if violations:
        return VerifyResult(False, None, violations)
    return VerifyResult(True, c, [])


def outcome_fault(g: Graph, k: int, outcome: Witness | str) -> str | None:
    """Why ``outcome`` does not settle residue k (0..p-1) of g, or None.

    The one rule for accepting a decided residue, fresh or stored.  A witness
    settles k when ``verify_labeling`` accepts its labeling, for base label
    k mod p, with the vertex sums it claims as c.  A reason settles k only if
    ``_decide`` gives it without a search: "counting-filter" where the
    counting filter rejects k, else "search-exhausted", which is trusted with
    no search, so a false one hides a member.  Any other value is a fault.
    """
    if not isinstance(outcome, Witness):
        implied = "search-exhausted" if counting_filter(g, k) else "counting-filter"
        return None if outcome == implied else f"reason {outcome!r}, expected {implied!r}"
    if type(outcome.c) is not int:
        return f"witness claims c={outcome.c!r}, not an integer"
    if outcome.labeling.k % g.p != k:
        return f"witness is for k={outcome.labeling.k}"
    try:
        result = verify_labeling(g, outcome.labeling)
    except ValueError as exc:  # a stored witness may label an edge g lacks
        return str(exc)
    if not result.valid:
        return "; ".join(result.violations)
    if result.c != outcome.c:
        return f"vertex sums are {result.c} mod {g.p}, witness claims {outcome.c}"
    return None


# ---------------------------------------------------------------------------
# Witness interchange format: {"k":…,"p":…,"c":…,"labels":[[u,v,label],…]}
# with labels sorted by (u, v).  Byte-stable for regression fixtures.
# ---------------------------------------------------------------------------


def witness_to_dict(witness: Witness, p: int) -> dict:
    labels = [
        [u, v, witness.labeling.assignment[(u, v)]]
        for u, v in sorted(witness.labeling.assignment)
    ]
    return {"k": witness.labeling.k, "p": p, "c": witness.c, "labels": labels}


def witness_from_dict(payload: dict) -> tuple[Witness, int]:
    assignment = {(u, v): label for u, v, label in payload["labels"]}
    return Witness(Labeling(payload["k"], assignment), payload["c"]), payload["p"]


def witness_to_json(witness: Witness, p: int) -> str:
    return json.dumps(witness_to_dict(witness, p), separators=(",", ":"))
