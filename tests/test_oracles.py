"""Checks of `relabel`, the oracle the tests build isomorphic copies of a graph with."""

import pytest

from edgemagic import Graph

from oracles import relabel

MOP4_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]


class TestRelabel:
    def test_identity_and_inverse(self):
        g = Graph(4, MOP4_EDGES)
        assert relabel(g, [0, 1, 2, 3]) == g
        perm = [2, 0, 3, 1]
        inverse = [perm.index(i) for i in range(4)]
        assert relabel(relabel(g, perm), inverse) == g

    def test_rejects_float_permutation(self):
        # [0.0, 1.0] == [0, 1], so the permutation check alone lets this through
        with pytest.raises(ValueError, match="not an int"):
            relabel(Graph(2, ((0, 1),)), [1.0, 0.0])

    @pytest.mark.parametrize("perm", [[1.0, 0.0], [True, False, 2], [0, 1, 2.0]],
                             ids=["float", "bool", "last-float"])
    def test_rejects_non_int_permutation_of_edgeless_graph(self, perm):
        # with no edges, no Graph vertex check sees the permutation's entries
        with pytest.raises(ValueError, match="not an int"):
            relabel(Graph(len(perm)), perm)
