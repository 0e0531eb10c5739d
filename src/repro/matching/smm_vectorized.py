"""Vectorized SMM synchronous rounds (NumPy kernel).

The reference engine (:mod:`repro.core.executor`) builds per-node view
objects each round — ideal for clarity, monitors and rule accounting,
but Python-loop bound.  Following the optimization workflow of the HPC
guides (make it work, make it right, then vectorize the measured hot
loop), this module re-implements exactly one thing — the SMM
synchronous round with min-id choosers — as array operations over a
CSR adjacency, for the large-``n`` scaling benchmarks (experiment E10).

Pointer encoding: ``ptr[k] ∈ {SMM_NULL} ∪ {0..n-1}`` over *dense* node
indices (``SMM_NULL = -1`` is the explicit null sentinel).
:func:`repro.graphs.graph.Graph.adjacency_arrays` guarantees dense index
order equals id order, so "minimum dense index" below is "minimum id",
matching rules R1/R2 of the reference protocol.

State layout: pointer arrays are packed to the narrowest dtype that fits
``n`` plus the segmented-minimum sentinel (int32 for every practical
graph — see :func:`repro.kernels.state_dtype`), per-row reductions run
on ``ufunc.reduceat`` over contiguous CSR segments instead of the slow
buffered ``ufunc.at`` scatter.  The kernel supplies the per-round
decisions — the flat full scan, the gathered scan of a dirty frontier,
and pure-Python decisions for tiny frontiers — and
:func:`repro.kernels.drive` owns the round loop.

Equivalence with the reference engine is pinned by
``tests/test_smm_vectorized.py`` on random graphs and random initial
configurations, round by round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.configuration import Configuration
from repro.errors import InvalidConfigurationError, StabilizationTimeout
from repro.graphs.graph import Graph
from repro.kernels import (
    SMM_NULL,
    NeighbourRows,
    csr_entry_positions,
    drive,
    segment_any,
    segment_min,
    state_dtype,
)
from repro.types import NodeId


@dataclass
class VectorResult:
    """Summary of a vectorized run (mirrors the fields experiments read
    from :class:`repro.core.executor.Execution`)."""

    stabilized: bool
    rounds: int
    moves: int
    moves_by_rule: Dict[str, int]
    final_ptr: np.ndarray  # dense pointer array, SMM_NULL = null


class VectorizedSMM:
    """SMM rounds as NumPy array operations over one fixed graph."""

    #: rule order of the per-rule counts the decisions return
    RULES = ("R1", "R2", "R3")

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        # adjacency_arrays() is cached on the (immutable) graph, so
        # constructing many kernels over one graph — the E10 sweep
        # inner loop — is O(1) after the first.
        indptr, indices, ids = graph.adjacency_arrays()
        self.n = graph.n
        self._dtype = state_dtype(self.n)
        self._indptr = indptr
        self._indices = (
            indices if indices.dtype == self._dtype else indices.astype(self._dtype)
        )
        self._ids = ids
        self._id_to_dense = graph.dense_index()
        # row owner of each CSR entry, precomputed once (no per-round
        # allocation for it)
        self._row = np.repeat(
            np.arange(self.n, dtype=self._dtype), np.diff(indptr)
        )
        self._arange = np.arange(self.n, dtype=self._dtype)
        # plain-list neighbour rows for the scalar frontier path,
        # each listed on first read
        self._adj = NeighbourRows(indptr, self._indices)
        # plain-list node ids for decode, built lazily (stream and
        # campaign kernels may never decode)
        self._id_list: Optional[List[NodeId]] = None

    # ------------------------------------------------------------------
    # encoding helpers
    # ------------------------------------------------------------------
    def encode(self, config) -> np.ndarray:
        """Dense pointer array from a ``{node: Pointer}`` mapping."""
        ptr = np.full(self.n, SMM_NULL, dtype=self._dtype)
        for node, p in dict(config).items():
            k = self._id_to_dense[int(node)]
            if p is not None:
                try:
                    ptr[k] = self._id_to_dense[int(p)]
                except KeyError:
                    raise InvalidConfigurationError(
                        f"pointer target {p!r} is not a node"
                    ) from None
        return ptr

    def decode(self, ptr: np.ndarray) -> Configuration:
        """``{node: Pointer}`` configuration from a dense pointer array."""
        if self._id_list is None:
            self._id_list = self._ids.tolist()
        ids = self._id_list
        return Configuration(
            {i: None if t < 0 else ids[t] for i, t in zip(ids, ptr.tolist())}
        )

    # ------------------------------------------------------------------
    # the round kernel
    # ------------------------------------------------------------------
    def step(self, ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One synchronous round.

        Returns ``(new_ptr, r1_mask, r2_mask, r3_mask)`` where the masks
        flag the nodes that fired each rule.
        """
        indices = self._indices
        sentinel = self.n  # acts as +inf for segmented minima

        neighbor_ptr = ptr[indices]  # pointer of each CSR neighbour entry
        is_null = ptr < 0

        # min proposer per node: neighbours j with ptr[j] == me
        proposer_entry = neighbor_ptr == self._row
        vals = np.where(proposer_entry, indices, sentinel)
        min_proposer = segment_min(vals, self._indptr, sentinel)
        has_proposer = min_proposer < sentinel

        # min null neighbour per node
        null_entry = neighbor_ptr < 0
        vals2 = np.where(null_entry, indices, sentinel)
        min_null = segment_min(vals2, self._indptr, sentinel)
        has_null_neighbor = min_null < sentinel

        r1 = is_null & has_proposer
        r2 = is_null & ~has_proposer & has_null_neighbor

        # R3: i -> j, j -> k with k not in {null, i}
        target = np.where(is_null, 0, ptr)  # safe index; masked below
        target_ptr = ptr[target]
        r3 = (~is_null) & (target_ptr >= 0) & (target_ptr != self._arange)

        new_ptr = ptr.copy()
        new_ptr[r1] = min_proposer[r1]
        new_ptr[r2] = min_null[r2]
        new_ptr[r3] = SMM_NULL
        return new_ptr, r1, r2, r3

    # ------------------------------------------------------------------
    # per-round decisions (the loop is repro.kernels.drive)
    # ------------------------------------------------------------------
    def _pointers_valid(self, ptr: np.ndarray) -> bool:
        """Whether every non-null pointer targets a neighbour.

        Frontier stepping propagates dirtiness through closed
        neighbourhoods, which is only sound when decisions depend on
        neighbourhood state alone — i.e. when pointers stay within
        ``N(i)``.  Valid SMM states satisfy this and the rules preserve
        it, so one check of the initial array suffices.
        """
        owners = np.nonzero(ptr >= 0)[0]
        if owners.size == 0:
            return True
        positions, counts = csr_entry_positions(self._indptr, owners)
        hit = self._indices[positions] == np.repeat(ptr[owners], counts)
        seg = np.concatenate(([0], np.cumsum(counts)))
        return bool(segment_any(hit, seg).all())

    def decide_all(self, ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Full-scan decisions: ``(movers, values, (r1, r2, r3))`` — the
        nodes that fire, the pointers they adopt, and the per-rule
        counts."""
        new_ptr, r1, r2, r3 = self.step(ptr)
        movers = np.nonzero(r1 | r2 | r3)[0]
        return movers, new_ptr[movers], (int(r1.sum()), int(r2.sum()), int(r3.sum()))

    def decide_rows(
        self, ptr: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple]:
        """:meth:`decide_all` restricted to ``rows``.

        Nodes outside ``rows`` are not looked at — their neighbourhood
        is unchanged, so their previous (idle) decision still holds.
        """
        sentinel = self.n
        positions, counts = csr_entry_positions(self._indptr, rows)
        cols = self._indices[positions]
        owner = np.repeat(rows, counts)
        seg = np.concatenate(([0], np.cumsum(counts)))

        ptr_rows = ptr[rows]
        is_null = ptr_rows < 0
        neighbor_ptr = ptr[cols]

        vals = np.where(neighbor_ptr == owner, cols, sentinel)
        min_proposer = segment_min(vals, seg, sentinel)
        has_proposer = min_proposer < sentinel

        vals2 = np.where(neighbor_ptr < 0, cols, sentinel)
        min_null = segment_min(vals2, seg, sentinel)
        has_null_neighbor = min_null < sentinel

        r1 = is_null & has_proposer
        r2 = is_null & ~has_proposer & has_null_neighbor
        target = np.where(is_null, 0, ptr_rows)
        target_ptr = ptr[target]
        r3 = (~is_null) & (target_ptr >= 0) & (target_ptr != rows)

        fired = r1 | r2 | r3
        val = np.where(r1, min_proposer, np.where(r2, min_null, SMM_NULL))
        return (
            rows[fired],
            val[fired],
            (int(r1.sum()), int(r2.sum()), int(r3.sum())),
        )

    def decide_scalar(
        self, ptr: np.ndarray, rows: List[int]
    ) -> tuple[List[int], List[int], tuple]:
        """Pure-Python :meth:`decide_rows` for a tiny frontier.

        CSR rows ascend, so the first proposer / null neighbour found
        scanning a row is the minimum-id one.
        """
        adj = self._adj
        movers: List[int] = []
        vals: List[int] = []
        c1 = c2 = c3 = 0
        for i in rows:
            p = int(ptr[i])
            if p < 0:
                proposer = -1
                null_nbr = -1
                for j in adj[i]:
                    q = int(ptr[j])
                    if q == i:
                        proposer = j
                        break
                    if q < 0 and null_nbr < 0:
                        null_nbr = j
                if proposer >= 0:
                    movers.append(i)
                    vals.append(proposer)
                    c1 += 1
                elif null_nbr >= 0:
                    movers.append(i)
                    vals.append(null_nbr)
                    c2 += 1
            else:
                q = int(ptr[p])
                if q >= 0 and q != i:
                    movers.append(i)
                    vals.append(SMM_NULL)
                    c3 += 1
        return movers, vals, (c1, c2, c3)

    # ------------------------------------------------------------------
    def run(
        self,
        config=None,
        *,
        max_rounds: Optional[int] = None,
        raise_on_timeout: bool = False,
    ) -> VectorResult:
        """Iterate rounds until no rule fires.

        ``config`` may be a ``{node: Pointer}`` mapping or a dense
        pointer array; ``None`` starts all-null.  A dense array with a
        pointer to a non-neighbour is outside SMM's state space and
        raises :class:`~repro.errors.InvalidConfigurationError`, as the
        same configuration does through the engine.
        """
        if config is None:
            ptr = np.full(self.n, SMM_NULL, dtype=self._dtype)
        elif isinstance(config, np.ndarray):
            ptr = config.astype(self._dtype, copy=True)
            if not self._pointers_valid(ptr):
                raise InvalidConfigurationError(
                    "dense pointer array points to a non-neighbour"
                )
        else:
            ptr = self.encode(config)

        budget = max_rounds if max_rounds is not None else self.n + 8
        stabilized, rounds, moves_by_rule, _ = drive(self, ptr, budget)
        result = VectorResult(
            stabilized=stabilized,
            rounds=rounds,
            moves=sum(moves_by_rule.values()),
            moves_by_rule=moves_by_rule,
            final_ptr=ptr,
        )
        if raise_on_timeout and not stabilized:
            raise StabilizationTimeout(
                f"vectorized SMM exceeded {budget} rounds", result
            )
        return result

    # ------------------------------------------------------------------
    # in-place state surgery for fault campaigns and streams
    # ------------------------------------------------------------------
    def perturb_one(self, ptr: np.ndarray, k: int, gen) -> None:
        """Redraw node ``k``'s pointer in place, draw for draw like
        ``SynchronousMaximalMatching.random_state``: the option list is
        ``[None, *neighbours]`` and one ``integers(deg + 1)`` draw picks
        from it (CSR rows share the neighbour order)."""
        start, stop = int(self._indptr[k]), int(self._indptr[k + 1])
        j = int(gen.integers(stop - start + 1))
        ptr[k] = SMM_NULL if j == 0 else int(self._indices[start + j - 1])

    @staticmethod
    def drop_removed_links(ptr: np.ndarray, pairs) -> None:
        """Migrate ``ptr`` across the removal of the dense-index edges
        ``pairs``: a valid pointer only turns invalid when its own link
        is removed, so resetting the endpoints of removed edges equals
        the full ``migrate_configuration`` sweep."""
        for ku, kv in pairs:
            if ptr[ku] == kv:
                ptr[ku] = SMM_NULL
            if ptr[kv] == ku:
                ptr[kv] = SMM_NULL

    def census(self, ptr: np.ndarray) -> Dict[str, int]:
        """Fig. 2 node-type histogram of a dense pointer array.

        Keys are the string values of
        :class:`repro.matching.classification.NodeType` in enum order;
        counts equal ``type_counts`` on the decoded configuration
        (pinned by the telemetry equivalence tests).
        """
        is_null = ptr < 0
        safe = np.where(is_null, 0, ptr)  # masked below
        matched = (~is_null) & (ptr[safe] == self._arange)
        has_suitor = segment_any(
            ptr[self._indices] == self._row, self._indptr
        )
        pointing = (~is_null) & ~matched
        return {
            "M": int(matched.sum()),
            "A0": int((is_null & ~has_suitor).sum()),
            "A1": int((is_null & has_suitor).sum()),
            "PA": int((pointing & is_null[safe]).sum()),
            "PM": int((pointing & matched[safe]).sum()),
            "PP": int(
                (pointing & ~matched[safe] & ~is_null[safe]).sum()
            ),
        }

    def potential(self, ptr: np.ndarray) -> int:
        """The SMM variant function Φ of a dense pointer array
        (:mod:`repro.observability.convergence`): ``(2n+1)`` per
        unmatched node plus the weighted Fig. 2 class sum — O(m) array
        work via :meth:`census`, equal to the direct classification of
        the decoded configuration (pinned by the observatory tests)."""
        from repro.observability.convergence import (
            smm_potential_from_census,
        )

        return smm_potential_from_census(self.census(ptr), self.n)

    def matching(self, ptr: np.ndarray) -> frozenset[tuple[NodeId, NodeId]]:
        """Extract matched edges (reciprocated pointers) from a dense
        pointer array, in node ids."""
        out = set()
        targets = ptr
        for k in range(self.n):
            t = int(targets[k])
            if t >= 0 and int(targets[t]) == k and k < t:
                out.add((int(self._ids[k]), int(self._ids[t])))
        return frozenset(out)
