"""Tests for fault-containment analysis."""

import numpy as np
import pytest

from repro.analysis.containment import (
    affected_by_distance,
    containment_radius,
    distances_from_set,
    edge_fault_sites,
)
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    random_tree,
)
from repro.graphs.graph import Graph


class TestDistancesFromSet:
    def test_single_source(self):
        g = path_graph(5)
        assert distances_from_set(g, [0]) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_multi_source_takes_minimum(self):
        g = path_graph(5)
        d = distances_from_set(g, [0, 4])
        assert d == {0: 0, 1: 1, 2: 2, 3: 1, 4: 0}

    def test_unreachable_absent(self):
        g = Graph([0, 1, 2], [(0, 1)])
        d = distances_from_set(g, [0])
        assert 2 not in d

    def test_unknown_source_rejected(self):
        with pytest.raises(KeyError):
            distances_from_set(path_graph(3), [9])


class TestContainmentRadius:
    def test_nothing_moved(self):
        g = cycle_graph(6)
        assert containment_radius(g, [0], []) is None

    def test_only_site_moved(self):
        g = cycle_graph(6)
        assert containment_radius(g, [0], [0]) == 0
        g = erdos_renyi_graph(30, 0.1, rng=4)
        assert containment_radius(g, {3, 8, 21}, [21, 3, 8]) == 0

    def test_two_hops(self):
        g = path_graph(6)
        assert containment_radius(g, [0], [0, 1, 2]) == 2

    def test_unreachable_moved_node_flagged(self):
        g = Graph([0, 1, 2], [(0, 1)])
        assert containment_radius(g, [0], [2]) == g.n
        g = Graph(range(6), [(0, 1), (1, 2), (3, 4)])
        assert containment_radius(g, [0], [1, 2, 4]) == g.n
        assert containment_radius(g, [0], [2, 99]) == g.n  # unknown node

    def test_empty_fault_set_rejected(self):
        with pytest.raises(ValueError):
            containment_radius(cycle_graph(4), [], [0])

    def test_unknown_site_rejected(self):
        with pytest.raises(KeyError):
            containment_radius(path_graph(4), [0, 9], [1])


def _radius_by_definition(graph, sites, moved):
    """The radius as the maximum of the full-BFS distances over the
    moved nodes (``graph.n`` for an unreachable one)."""
    dist = distances_from_set(graph, sites)
    return max(dist.get(node, graph.n) for node in moved)


def _property_graphs():
    """Seeded ER graphs (sparse ones are disconnected), random trees,
    two-component unions, and relabellings to non-contiguous ids whose
    order differs from the original labels'."""
    graphs = []
    for seed in range(12):
        n = 2 + 3 * seed
        graphs.append(erdos_renyi_graph(n, 0.04 + 0.02 * (seed % 6), rng=seed))
        graphs.append(random_tree(n, rng=seed))
        left, right = random_tree(n, rng=seed), cycle_graph(5)
        graphs.append(
            Graph(
                [*left.nodes, *(v + 1000 for v in right.nodes)],
                [*left.edges, *((u + 1000, v + 1000) for u, v in right.edges)],
            )
        )
    gen = np.random.default_rng(7)
    for base in list(graphs[::4]):
        ids = gen.choice(100_000, size=base.n, replace=False).tolist()
        graphs.append(base.relabeled(dict(zip(base.nodes, ids))))
    return graphs


class TestRadiusProperty:
    """The early-stopping CSR walk equals the full-BFS definition."""

    @pytest.mark.parametrize("cached", [False, True])
    def test_equals_max_of_distances_from_set(self, cached):
        gen = np.random.default_rng(11 + cached)
        radii = set()
        for graph in _property_graphs():
            nodes = list(graph.nodes)
            for _ in range(8):
                # a fresh copy, so the walk builds the CSR itself or
                # finds it cached, as parametrized
                g = Graph(graph.nodes, graph.edges)
                if cached:
                    g.adjacency_arrays()
                sites = gen.choice(nodes, size=int(gen.integers(1, 4)))
                moved = gen.choice(nodes, size=int(gen.integers(1, len(nodes) + 1)))
                sites, moved = sites.tolist(), moved.tolist()
                radius = containment_radius(g, sites, moved)
                assert radius == _radius_by_definition(g, sites, moved)
                radii.add("unreachable" if radius == g.n else radius)
        # zero, several finite radii and the unreachable sentinel occur
        assert {0, 1, 2, 3, "unreachable"} <= radii

    def test_derived_graph_with_patched_csr(self):
        graph = erdos_renyi_graph(40, 0.08, rng=3)
        graph.adjacency_arrays()
        derived = graph.with_updates(
            remove_edges=sorted(graph.edges)[:5], add_edges=[(0, 39)]
        )
        assert derived._csr is not None  # patched, not rebuilt
        for site in (0, 17, 39):
            moved = list(derived.nodes)
            assert containment_radius(derived, [site], moved) == (
                _radius_by_definition(derived, [site], moved)
            )


class TestAffectedByDistance:
    def test_histogram(self):
        g = path_graph(6)
        hist = affected_by_distance(g, [0], [0, 1, 1, 3])
        # note: duplicate moved entries are counted as given
        assert hist == {0: 1, 1: 2, 3: 1}


class TestEdgeFaultSites:
    def test_endpoints_collected(self):
        assert edge_fault_sites([(0, 1), (2, 3)]) == {0, 1, 2, 3}

    def test_empty(self):
        assert edge_fault_sites([]) == frozenset()


class TestEndToEndContainment:
    def test_smm_single_link_failure_is_contained(self):
        """Fail one matched edge on a long cycle; repair stays within
        a couple of hops of the failure."""
        from repro.core.executor import run_synchronous
        from repro.core.faults import migrate_configuration
        from repro.matching.smm import SynchronousMaximalMatching

        g = cycle_graph(30)
        smm = SynchronousMaximalMatching()
        ex = run_synchronous(smm, g)
        failed = (0, 1)
        g2 = g.with_edges(remove=[failed])
        migrated = migrate_configuration(smm, g, g2, ex.final)
        ex2 = run_synchronous(smm, g2, migrated)
        assert ex2.stabilized and ex2.legitimate
        radius = containment_radius(g2, failed, ex2.moved_nodes())
        assert radius is None or radius <= 4
