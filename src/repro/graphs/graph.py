"""An immutable undirected graph with fast neighbourhood queries.

Why not use :class:`networkx.Graph` directly?  The protocols evaluate
guards of the form "does some neighbour satisfy P" millions of times per
experiment sweep; a frozen adjacency representation with tuple
neighbour lists is measurably faster and, being immutable, can be shared
freely between configurations, daemons and history snapshots without
defensive copying.  Conversions to/from networkx are provided for
interoperability (generators lean on networkx where convenient).

Node identifiers are ints with the natural total order, matching the
paper's assumption of unique, comparable ids (Section 2: "we assume
each node is assigned a unique ID").
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from repro.errors import GraphError
from repro.types import Edge, NodeId, canonical_edge

if TYPE_CHECKING:  # networkx loads only when a conversion asks for it
    import networkx as nx


class Graph:
    """Immutable undirected graph over integer node ids.

    Parameters
    ----------
    nodes:
        Iterable of node ids.  Ids must be unique ints.
    edges:
        Iterable of ``(u, v)`` pairs.  Both endpoints must appear in
        ``nodes``; self loops and duplicate edges are rejected so that
        accidental workload bugs surface early.

    Notes
    -----
    Neighbour lists are stored sorted ascending.  Rule R2 of Algorithm
    SMM needs the *minimum-id* neighbour satisfying a predicate; sorted
    adjacency makes that a simple first-match scan.
    """

    __slots__ = ("_adj", "_nodes", "_edges", "_hash", "_csr", "_canon")

    def __init__(self, nodes: Iterable[NodeId], edges: Iterable[Tuple[NodeId, NodeId]]):
        node_list = list(nodes)
        node_set = set(node_list)
        if len(node_set) != len(node_list):
            raise GraphError("duplicate node ids")
        for n in node_list:
            if not isinstance(n, int):
                raise GraphError(f"node id {n!r} is not an int")

        adj: Dict[NodeId, list[NodeId]] = {n: [] for n in node_list}
        edge_set: set[Edge] = set()
        for u, v in edges:
            e = canonical_edge(u, v)
            if e in edge_set:
                raise GraphError(f"duplicate edge {e}")
            if u not in node_set or v not in node_set:
                raise GraphError(f"edge {e} references unknown node")
            edge_set.add(e)
            adj[u].append(v)
            adj[v].append(u)

        self._adj: Dict[NodeId, Tuple[NodeId, ...]] = {
            n: tuple(sorted(neigh)) for n, neigh in adj.items()
        }
        self._nodes: Tuple[NodeId, ...] = tuple(sorted(node_list))
        self._edges: frozenset[Edge] = frozenset(edge_set)
        self._hash: int | None = None
        self._csr: tuple | None = None
        self._canon: Tuple[str, str] | None = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All node ids, ascending."""
        return self._nodes

    @property
    def edges(self) -> frozenset[Edge]:
        """All edges in canonical ``(min, max)`` form.

        Graphs derived via :meth:`with_updates` materialize this set
        lazily from the adjacency dict: the streaming engine derives a
        graph per topology event, and an eager O(m) edge-set rebuild
        would dwarf the incremental CSR patch it exists to avoid.
        """
        if self._edges is None:
            self._edges = frozenset(
                (n, v) for n, row in self._adj.items() for v in row if n < v
            )
        return self._edges

    @property
    def n(self) -> int:
        """Number of nodes (the paper's ``n``)."""
        return len(self._nodes)

    @property
    def m(self) -> int:
        """Number of edges."""
        if self._edges is not None:
            return len(self._edges)
        if self._csr is not None:
            return int(self._csr[1].size) // 2
        return sum(len(row) for row in self._adj.values()) // 2

    def neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Neighbours of ``node``, ascending.  ``N(i)`` in the paper."""
        try:
            return self._adj[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def closed_neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """``N[i] = N(i) ∪ {i}``, ascending."""
        neigh = self.neighbors(node)
        out = list(neigh)
        out.append(node)
        out.sort()
        return tuple(out)

    def degree(self, node: NodeId) -> int:
        return len(self.neighbors(node))

    def max_degree(self) -> int:
        """``Δ(G)``; 0 for the empty graph."""
        return max((len(a) for a in self._adj.values()), default=0)

    def has_node(self, node: NodeId) -> bool:
        return node in self._adj

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        if u == v:
            return False
        if self._edges is not None:
            return canonical_edge(u, v) in self._edges
        return v in self._adj.get(u, ())

    def __contains__(self, node: object) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._nodes == other._nodes and self.edges == other.edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._nodes, self.edges))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m})"

    def __getstate__(self):
        # Keep pickles lean: the CSR cache, the canonical JSON and the
        # hash are derived data and rebuilt lazily on the receiving side.
        # ``_edges`` may itself be lazily None on derived graphs.
        return {"_adj": self._adj, "_nodes": self._nodes, "_edges": self._edges}

    def __setstate__(self, state) -> None:
        self._adj = state["_adj"]
        self._nodes = state["_nodes"]
        self._edges = state["_edges"]
        self._hash = None
        self._csr = None
        self._canon = None

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True iff the graph is connected (vacuously true when empty)."""
        if self.n == 0:
            return True
        seen = {self._nodes[0]}
        stack = [self._nodes[0]]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def connected_components(self) -> list[frozenset[NodeId]]:
        """Connected components as frozensets, ordered by smallest member."""
        seen: set[NodeId] = set()
        comps: list[frozenset[NodeId]] = []
        for start in self._nodes:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in self._adj[u]:
                    if v not in comp:
                        comp.add(v)
                        stack.append(v)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def with_edges(
        self,
        add: Iterable[Tuple[NodeId, NodeId]] = (),
        remove: Iterable[Tuple[NodeId, NodeId]] = (),
    ) -> "Graph":
        """Return a new graph with edges added/removed (nodes unchanged).

        This is the primitive behind topology churn: the paper's model
        keeps the node set fixed while links appear and disappear.
        """
        return self.with_updates(add_edges=add, remove_edges=remove)

    def with_updates(
        self,
        *,
        add_edges: Iterable[Tuple[NodeId, NodeId]] = (),
        remove_edges: Iterable[Tuple[NodeId, NodeId]] = (),
        add_nodes: Iterable[NodeId] = (),
        remove_nodes: Iterable[NodeId] = (),
    ) -> "Graph":
        """Derive a graph with nodes and edges added/removed incrementally.

        Unlike constructing ``Graph(nodes, edges)`` from scratch, this
        patches the derived structures: the adjacency dict copies
        untouched rows, and — crucially for the streaming engine — a
        cached CSR (:meth:`adjacency_arrays` / :meth:`dense_index`) is
        carried over by splicing only the changed rows instead of the
        O(n + m) Python rebuild.  The patched arrays are byte-identical
        to a from-scratch rebuild (pinned by ``tests/test_streaming.py``).

        Removing a node drops its incident edges implicitly.  Added
        nodes start isolated; edges may reference them in the same call
        (nodes are applied before edges).
        """
        add_edge_list = [canonical_edge(u, v) for u, v in add_edges]
        remove_edge_list = [canonical_edge(u, v) for u, v in remove_edges]
        add_node_list = list(add_nodes)
        remove_node_list = list(remove_nodes)

        removed_nodes: set[NodeId] = set()
        for nd in remove_node_list:
            if nd not in self._adj:
                raise GraphError(f"unknown node {nd!r}")
            if nd in removed_nodes:
                raise GraphError("duplicate node ids")
            removed_nodes.add(nd)
        added_nodes: set[NodeId] = set()
        for nd in add_node_list:
            if not isinstance(nd, int):
                raise GraphError(f"node id {nd!r} is not an int")
            if nd in self._adj or nd in removed_nodes:
                raise GraphError(f"cannot add existing node {nd}")
            if nd in added_nodes:
                raise GraphError("duplicate node ids")
            added_nodes.add(nd)

        edge_remove: set[Edge] = set()
        for e in remove_edge_list:
            if e[1] not in self._adj.get(e[0], ()) or e in edge_remove:
                raise GraphError(f"cannot remove absent edge {e}")
            edge_remove.add(e)
        for nd in removed_nodes:
            for v in self._adj[nd]:
                edge_remove.add(canonical_edge(nd, v))

        def _present(x: NodeId) -> bool:
            return (x in self._adj and x not in removed_nodes) or x in added_nodes

        edge_add: set[Edge] = set()
        for e in add_edge_list:
            present = e[1] in self._adj.get(e[0], ())
            if (present and e not in edge_remove) or e in edge_add:
                raise GraphError(f"cannot add existing edge {e}")
            if not _present(e[0]) or not _present(e[1]):
                raise GraphError(f"edge {e} references unknown node")
            edge_add.add(e)

        # Net per-row adjacency deltas (an edge both removed and added
        # in one call is a no-op and must not dirty its rows).
        net_removed = edge_remove - edge_add
        net_added = edge_add - edge_remove
        deltas: Dict[NodeId, Tuple[set, set]] = {}
        for u, v in net_removed:
            for x, y in ((u, v), (v, u)):
                if x not in removed_nodes:
                    deltas.setdefault(x, (set(), set()))[0].add(y)
        for u, v in net_added:
            for x, y in ((u, v), (v, u)):
                deltas.setdefault(x, (set(), set()))[1].add(y)

        adj = dict(self._adj)
        for nd in removed_nodes:
            del adj[nd]
        for nd in added_nodes:
            adj[nd] = ()
        for node, (gone, new) in deltas.items():
            row = set(self._adj.get(node, ()))
            row.difference_update(gone)
            row.update(new)
            adj[node] = tuple(sorted(row))

        graph = Graph.__new__(Graph)
        graph._adj = adj
        if removed_nodes or added_nodes:
            graph._nodes = tuple(sorted((set(self._nodes) - removed_nodes) | added_nodes))
        else:
            graph._nodes = self._nodes
        # Lazy: materialized from ``_adj`` on first ``.edges`` access.
        # An eager frozenset rebuild here is O(m) and would dominate the
        # per-event cost the incremental CSR patch keeps at O(changed).
        graph._edges = None
        graph._hash = None
        graph._csr = None
        graph._canon = None
        if self._csr is not None:
            if removed_nodes or added_nodes:
                graph._csr = self._csr_patch_nodes(
                    graph, deltas, removed_nodes, added_nodes
                )
            else:
                graph._csr = self._csr_patch_edges(graph, deltas)
        return graph

    def _csr_patch_edges(self, graph: "Graph", deltas) -> tuple:
        """Patch the cached CSR for edge-only changes (node set fixed).

        Only the rows whose adjacency changed are rebuilt; everything
        else is spliced over with C-level array copies.  Returns a new
        ``(indptr, indices, ids, pos)`` tuple byte-identical to what
        :meth:`_csr_cache` would rebuild from scratch (``ids``/``pos``
        are shared with ``self`` — they are treated as read-only).
        """
        indptr, indices, ids, pos = self._csr
        if not deltas:
            return self._csr
        import numpy as np

        changed = sorted(pos[node] for node in deltas)
        delta = np.zeros(self.n, dtype=np.int64)
        parts = []
        prev = 0
        for k in changed:
            row = graph._adj[self._nodes[k]]
            delta[k] = len(row) - int(indptr[k + 1] - indptr[k])
            parts.append(indices[prev:int(indptr[k])])
            parts.append(np.fromiter((pos[v] for v in row), dtype=np.int64, count=len(row)))
            prev = int(indptr[k + 1])
        parts.append(indices[prev:])
        new_indices = np.concatenate(parts)
        new_indptr = indptr.copy()
        np.cumsum(delta, out=delta)
        new_indptr[1:] += delta
        return (new_indptr, new_indices, ids, pos)

    def _csr_patch_nodes(self, graph: "Graph", deltas, removed_nodes, added_nodes) -> tuple:
        """Patch the cached CSR across a node-set change.

        Surviving rows are filtered and remapped with vectorized masks
        (dense indices shift when nodes enter/leave the sorted id
        order); only rows with edge deltas and the new empty rows are
        rebuilt.  Byte-identical to a from-scratch rebuild.
        """
        import bisect

        import numpy as np

        old_indptr, old_indices, old_ids, old_pos = self._csr
        new_nodes = graph._nodes
        new_n = len(new_nodes)
        new_ids = np.asarray(new_nodes, dtype=np.int64)
        new_pos = {node: k for k, node in enumerate(new_nodes)}

        old_n = self.n
        keep = np.ones(old_n, dtype=bool)
        for nd in removed_nodes:
            keep[old_pos[nd]] = False
        remap = np.full(old_n, -1, dtype=np.int64)
        remap[keep] = np.searchsorted(new_ids, old_ids[keep])

        # Drop entries in removed rows or pointing at removed nodes,
        # then remap survivors to their new dense indices (monotone, so
        # per-row sortedness is preserved).
        row_of = np.repeat(np.arange(old_n), np.diff(old_indptr))
        ekeep = keep[row_of] & keep[old_indices] if old_indices.size else np.zeros(0, bool)
        kept_entries = remap[old_indices[ekeep]]
        kept_counts = np.bincount(row_of[ekeep], minlength=old_n)[keep]
        kept_indptr = np.zeros(kept_counts.size + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=kept_indptr[1:])

        added_positions = sorted(new_pos[nd] for nd in added_nodes)
        special = sorted(
            set(added_positions) | {new_pos[nd] for nd in deltas if nd in new_pos}
        )

        def kept_row(k: int) -> int:
            return k - bisect.bisect_left(added_positions, k)

        parts = []
        prev_k = 0
        for k in special:
            if prev_k < k:
                parts.append(kept_entries[kept_indptr[kept_row(prev_k)]:kept_indptr[kept_row(k)]])
            row = graph._adj[new_nodes[k]]
            parts.append(np.fromiter((new_pos[v] for v in row), dtype=np.int64, count=len(row)))
            prev_k = k + 1
        if prev_k < new_n:
            parts.append(kept_entries[kept_indptr[kept_row(prev_k)]:])
        if parts:
            new_indices = np.concatenate(parts)
        else:
            new_indices = np.empty(0, dtype=np.int64)

        new_indptr = np.zeros(new_n + 1, dtype=np.int64)
        for k, node in enumerate(new_nodes):
            new_indptr[k + 1] = new_indptr[k] + len(graph._adj[node])
        return (new_indptr, new_indices, new_ids, new_pos)

    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """Induced subgraph on ``nodes``."""
        keep = set(nodes)
        for nd in keep:
            if nd not in self._adj:
                raise GraphError(f"unknown node {nd!r}")
        edges = [e for e in self.edges if e[0] in keep and e[1] in keep]
        return Graph(keep, edges)

    def relabeled(self, mapping: Mapping[NodeId, NodeId]) -> "Graph":
        """Return an isomorphic graph with node ids relabelled.

        Used by experiments that randomize the *id assignment* while
        keeping the topology fixed (both SMM's R2 and SIS's guards are
        id-sensitive, so the id permutation is part of the workload).
        """
        if set(mapping) != set(self._nodes):
            raise GraphError("relabel mapping must cover exactly the node set")
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabel mapping must be injective")
        nodes = [mapping[n] for n in self._nodes]
        edges = [(mapping[u], mapping[v]) for u, v in self.edges]
        return Graph(nodes, edges)

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def to_networkx(self) -> "nx.Graph":
        """Convert to a :class:`networkx.Graph` (copies the structure)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._nodes)
        g.add_edges_from(self.edges)
        return g

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[NodeId, NodeId]], n: int | None = None
    ) -> "Graph":
        """Build a graph from an edge list.

        If ``n`` is given, the node set is ``0..n-1``; otherwise it is
        the set of endpoints appearing in ``edges``.
        """
        edge_list = [canonical_edge(u, v) for u, v in edges]
        if n is not None:
            nodes: Sequence[NodeId] = range(n)
            for u, v in edge_list:
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphError(f"edge ({u}, {v}) outside 0..{n - 1}")
        else:
            nodes = sorted({x for e in edge_list for x in e})
        return cls(nodes, edge_list)

    def adjacency_arrays(self):
        """CSR-style adjacency ``(indptr, indices, ids)`` as numpy arrays.

        The vectorized kernels (``repro.matching.smm_vectorized`` and
        ``repro.mis.sis_vectorized``) consume this flat layout; see the
        HPC guide note in DESIGN.md §5 (contiguous arrays, views not
        copies).  ``ids[k]`` maps dense index ``k`` back to the node id;
        ``indices`` holds *dense* neighbour indices.

        The arrays are built once per graph and cached (the graph is
        immutable), so repeated kernel construction over one graph —
        the E10 sweep inner loop — costs O(1) after the first call.
        Callers must treat the returned arrays as read-only.
        """
        indptr, indices, ids, _ = self._csr_cache()
        return indptr, indices, ids

    def dense_index(self):
        """Cached ``{node id -> dense index}`` mapping (the inverse of
        ``adjacency_arrays()``'s ``ids``).  Treat as read-only."""
        return self._csr_cache()[3]

    def _csr_cache(self):
        if self._csr is None:
            import numpy as np

            ids = np.asarray(self._nodes, dtype=np.int64)
            pos = {node: k for k, node in enumerate(self._nodes)}
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            for k, node in enumerate(self._nodes):
                indptr[k + 1] = indptr[k] + len(self._adj[node])
            indices = np.empty(int(indptr[-1]), dtype=np.int64)
            cursor = 0
            for node in self._nodes:
                for v in self._adj[node]:
                    indices[cursor] = pos[v]
                    cursor += 1
            self._csr = (indptr, indices, ids, pos)
        return self._csr

    def canonical_json(self) -> Tuple[str, str]:
        """The graph's share of :func:`repro.parallel.spec_fingerprint`:
        JSON text of the node list (ascending, each id as its ``repr``)
        and of the edge list (each edge's two ``repr`` strings sorted,
        then the edges sorted).

        Built once per graph and cached, like the CSR: a sweep's trials
        share one graph, and re-encoding it for every fingerprint cost
        about as much as running a served trial.  Derived data: dropped
        on pickling and not carried over by :meth:`with_updates`.
        """
        if self._canon is None:
            self._canon = (
                json.dumps([repr(n) for n in self._nodes]),
                json.dumps(sorted(sorted(repr(x) for x in e) for e in self.edges)),
            )
        return self._canon
