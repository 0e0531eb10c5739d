"""Tests for the immutable Graph class."""

import os
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import GraphError
from repro.graphs.graph import Graph

from conftest import connected_graphs


def triangle() -> Graph:
    return Graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_basic(self):
        g = Graph([0, 1, 2], [(0, 1)])
        assert g.n == 3
        assert g.m == 1

    def test_nodes_sorted(self):
        g = Graph([3, 1, 2], [])
        assert g.nodes == (1, 2, 3)

    def test_edges_canonical(self):
        g = Graph([0, 1], [(1, 0)])
        assert g.edges == frozenset({(0, 1)})

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(GraphError):
            Graph([0, 0, 1], [])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(GraphError):
            Graph([0, 1], [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph([0, 1], [(0, 0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError):
            Graph([0, 1], [(0, 2)])

    def test_non_int_node_rejected(self):
        with pytest.raises(GraphError):
            Graph(["a"], [])

    def test_empty_graph(self):
        g = Graph([], [])
        assert g.n == 0 and g.m == 0 and g.is_connected()


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph([0, 1, 2, 3], [(0, 3), (0, 1), (0, 2)])
        assert g.neighbors(0) == (1, 2, 3)

    def test_neighbors_unknown_node(self):
        with pytest.raises(GraphError):
            triangle().neighbors(9)

    def test_closed_neighbors(self):
        assert triangle().closed_neighbors(1) == (0, 1, 2)

    def test_degree(self):
        g = Graph([0, 1, 2], [(0, 1)])
        assert g.degree(0) == 1
        assert g.degree(2) == 0

    def test_max_degree(self):
        assert triangle().max_degree() == 2
        assert Graph([], []).max_degree() == 0

    def test_has_edge_both_orders(self):
        g = triangle()
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_has_edge_self(self):
        assert not triangle().has_edge(1, 1)

    def test_contains_iter_len(self):
        g = triangle()
        assert 0 in g and 9 not in g
        assert list(g) == [0, 1, 2]
        assert len(g) == 3

    def test_equality_and_hash(self):
        a = Graph([0, 1], [(0, 1)])
        b = Graph([1, 0], [(1, 0)])
        c = Graph([0, 1], [])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a graph"


class TestStructure:
    def test_connected_triangle(self):
        assert triangle().is_connected()

    def test_disconnected(self):
        g = Graph([0, 1, 2], [(0, 1)])
        assert not g.is_connected()

    def test_components(self):
        g = Graph([0, 1, 2, 3], [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert comps == [frozenset({0, 1}), frozenset({2, 3})]

    def test_single_component(self):
        assert triangle().connected_components() == [frozenset({0, 1, 2})]


class TestDerivation:
    def test_with_edges_add(self):
        g = Graph([0, 1, 2], [(0, 1)])
        g2 = g.with_edges(add=[(1, 2)])
        assert g2.has_edge(1, 2) and not g.has_edge(1, 2)

    def test_with_edges_remove(self):
        g2 = triangle().with_edges(remove=[(0, 1)])
        assert not g2.has_edge(0, 1) and g2.m == 2

    def test_with_edges_add_existing_rejected(self):
        with pytest.raises(GraphError):
            triangle().with_edges(add=[(0, 1)])

    def test_with_edges_remove_absent_rejected(self):
        g = Graph([0, 1, 2], [(0, 1)])
        with pytest.raises(GraphError):
            g.with_edges(remove=[(1, 2)])

    def test_subgraph(self):
        sub = triangle().subgraph([0, 1])
        assert sub.nodes == (0, 1) and sub.edges == frozenset({(0, 1)})

    def test_subgraph_unknown_node(self):
        with pytest.raises(GraphError):
            triangle().subgraph([0, 9])

    def test_relabeled(self):
        g = Graph([0, 1], [(0, 1)])
        r = g.relabeled({0: 10, 1: 20})
        assert r.nodes == (10, 20) and r.has_edge(10, 20)

    def test_relabeled_must_cover(self):
        with pytest.raises(GraphError):
            triangle().relabeled({0: 1})

    def test_relabeled_must_be_injective(self):
        with pytest.raises(GraphError):
            triangle().relabeled({0: 5, 1: 5, 2: 6})


class TestInterop:
    def test_to_networkx(self):
        nxg = triangle().to_networkx()
        assert isinstance(nxg, nx.Graph)
        assert set(nxg.nodes) == {0, 1, 2}
        assert nxg.number_of_edges() == 3

    def test_networkx_loads_only_when_asked_for(self):
        """The package, the trial runner and the CLI import without
        networkx; the conversions load it on first use."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [os.path.join(root, "src"), env.get("PYTHONPATH", "")] if p
        )
        script = (
            "import sys, repro, repro.parallel, repro.cli\n"
            "print('networkx' in sys.modules)\n"
            "from repro.graphs.generators import cycle_graph, from_networkx\n"
            "assert from_networkx(cycle_graph(4).to_networkx()) == cycle_graph(4)\n"
            "print('networkx' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, env=env, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_from_edges_with_n(self):
        g = Graph.from_edges([(0, 1), (1, 2)], n=4)
        assert g.nodes == (0, 1, 2, 3)

    def test_from_edges_infers_nodes(self):
        g = Graph.from_edges([(5, 7)])
        assert g.nodes == (5, 7)

    def test_from_edges_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges([(0, 5)], n=3)

    def test_adjacency_arrays_structure(self):
        g = Graph([0, 1, 2], [(0, 1), (1, 2)])
        indptr, indices, ids = g.adjacency_arrays()
        assert list(ids) == [0, 1, 2]
        assert list(indptr) == [0, 1, 3, 4]
        assert list(indices[indptr[1]:indptr[2]]) == [0, 2]

    def test_adjacency_arrays_non_contiguous_ids(self):
        g = Graph([10, 30, 20], [(10, 30)])
        indptr, indices, ids = g.adjacency_arrays()
        assert list(ids) == [10, 20, 30]
        # 10's sole neighbour is 30 -> dense index 2
        assert list(indices[indptr[0]:indptr[1]]) == [2]


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(connected_graphs())
    def test_handshake_lemma(self, g):
        assert sum(g.degree(v) for v in g.nodes) == 2 * g.m

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs())
    def test_neighbor_symmetry(self, g):
        for u in g.nodes:
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs())
    def test_generated_graphs_connected(self, g):
        assert g.is_connected()

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs())
    def test_adjacency_roundtrip(self, g):
        indptr, indices, ids = g.adjacency_arrays()
        for k, node in enumerate(ids):
            dense = indices[indptr[k]:indptr[k + 1]]
            assert tuple(int(ids[d]) for d in dense) == g.neighbors(int(node))
