"""Fault-containment analysis.

Self-stabilization guarantees *eventual* recovery; a stronger practical
property is **containment**: after a small fault, how far (in hops)
from the fault site does the repair activity spread?  This module
measures it:

* :func:`containment_radius` — the maximum graph distance from the
  fault set to any node that changed state during recovery;
* :func:`affected_by_distance` — the histogram of moved nodes per
  distance ring, showing how activity decays with distance.

Experiment E7 reports the radius for link-churn recovery; the matching
and tree protocols exhibit strong containment (most single-link faults
repair within 1–2 hops), while SIS's id-cascade can occasionally
propagate further along monotone id paths — measured, not assumed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.graphs.graph import Graph
from repro.kernels import csr_entry_positions
from repro.types import NodeId


def distances_from_set(graph: Graph, sources: Iterable[NodeId]) -> Dict[NodeId, int]:
    """Multi-source BFS distances (unreached nodes are absent)."""
    frontier = [s for s in sources]
    dist: Dict[NodeId, int] = {}
    for s in frontier:
        if s not in graph:
            raise KeyError(f"unknown source node {s!r}")
        dist[s] = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def containment_radius(
    graph: Graph,
    fault_sites: Iterable[NodeId],
    moved_nodes: Iterable[NodeId],
) -> Optional[int]:
    """Max distance from the fault set to any node that moved.

    Returns ``None`` when nothing moved (perfect containment), and
    treats unreachable moved nodes as infinitely far (returned as
    ``graph.n`` — larger than any finite distance, flagging a
    containment breach across components, which would indicate a bug).

    The answer is the maximum of :func:`distances_from_set` over the
    moved nodes, but the search is cheaper: a multi-source BFS over the
    graph's cached CSR (:meth:`~repro.graphs.graph.Graph.adjacency_arrays`),
    one array step per level, that stops at the level reaching the last
    moved node.  A stream event's recovery is local, so this costs the
    radius's ball, not the whole graph.
    """
    sites = list(fault_sites)
    if not sites:
        raise ValueError("need at least one fault site")
    moved = list(moved_nodes)
    if not moved:
        return None
    indptr, indices, _ = graph.adjacency_arrays()
    index = graph.dense_index()
    frontier = []
    for s in sites:
        if s not in index:
            raise KeyError(f"unknown source node {s!r}")
        frontier.append(index[s])
    n = graph.n
    targets = np.fromiter((index.get(v, -1) for v in moved), np.int64, len(moved))
    if targets.min() < 0:
        return n  # an unknown moved node is unreachable too
    seen = np.zeros(n, dtype=bool)
    seen[frontier] = True
    level = 0
    while not seen[targets].all():
        positions, _ = csr_entry_positions(indptr, np.unique(frontier))
        reached = indices[positions]
        frontier = reached[~seen[reached]]
        if frontier.size == 0:
            return n  # a moved node is unreachable from the sites
        level += 1
        seen[frontier] = True
    return level


def affected_by_distance(
    graph: Graph,
    fault_sites: Iterable[NodeId],
    moved_nodes: Iterable[NodeId],
) -> Dict[int, int]:
    """Histogram: ring distance -> number of moved nodes in that ring."""
    dist = distances_from_set(graph, list(fault_sites))
    out: Dict[int, int] = {}
    for node in moved_nodes:
        d = dist.get(node, graph.n)
        out[d] = out.get(d, 0) + 1
    return dict(sorted(out.items()))


def edge_fault_sites(edges: Iterable) -> frozenset[NodeId]:
    """The endpoints of changed links — the fault sites of a topology
    perturbation event."""
    out = set()
    for u, v in edges:
        out.add(u)
        out.add(v)
    return frozenset(out)
