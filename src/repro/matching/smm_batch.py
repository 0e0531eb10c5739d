"""Batch-vectorized SMM: step many independent runs simultaneously.

Experiment sweeps run the same protocol on the same graph from many
initial configurations (E1: dozens of random starts per cell; the
exhaustive sweeps: hundreds).  Stepping them one at a time leaves
vectorization on the table — the round kernel is embarrassingly
parallel across runs.  :class:`BatchSMM` holds a ``(k, n)`` pointer
matrix (one row per run) and advances all non-stabilized rows each
round with the same CSR-segment operations as the single-run kernel,
vectorized over the batch axis.

Equivalence with the single-run kernel (hence, transitively, with the
reference engine) is pinned by ``tests/test_batch_kernels.py``.

Implementation note (per the HPC guides' broadcasting advice): the
segmented minima run as ``np.minimum.reduceat`` along the entry axis —
CSR rows are contiguous segments, so one reduceat per rule replaces the
buffered flat ``ufunc.at`` scatter, and the pointer matrix is packed to
:func:`repro.kernels.state_dtype` (int32 for every practical graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import StabilizationTimeout
from repro.graphs.graph import Graph
from repro.kernels import SMM_NULL, state_dtype
from repro.matching.smm_vectorized import VectorizedSMM


@dataclass
class BatchResult:
    """Summary of a batch run."""

    stabilized: np.ndarray   #: (k,) bool — per-run stabilization flag
    rounds: np.ndarray       #: (k,) int — rounds used by each run
    final_ptr: np.ndarray    #: (k, n) final pointer matrix
    #: per-rule firing counts, (k,) int array per rule name — always
    #: populated by :meth:`BatchSMM.run_batch`
    moves_by_rule: Dict[str, np.ndarray]

    @property
    def all_stabilized(self) -> bool:
        return bool(self.stabilized.all())

    def max_rounds(self) -> int:
        return int(self.rounds.max(initial=0))


class BatchSMM:
    """SMM rounds vectorized across a batch of runs on one graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.single = VectorizedSMM(graph)  # reused for encode/decode
        indptr, indices, ids = graph.adjacency_arrays()
        self.n = graph.n
        self._dtype = state_dtype(self.n)
        self._indices = self.single._indices  # already packed
        self._row = self.single._row
        self._arange_n = self.single._arange
        # reduceat segment boundaries (CSR rows are contiguous along the
        # entry axis); empty rows are masked explicitly — reduceat on an
        # empty segment would return the next segment's first element
        self._seg_empty = indptr[:-1] == indptr[1:]
        self._seg_starts = (
            np.minimum(indptr[:-1], indices.size - 1) if indices.size else None
        )

    # ------------------------------------------------------------------
    def encode_batch(self, configs: Sequence) -> np.ndarray:
        """Stack ``{node: pointer}`` mappings into a (k, n) matrix."""
        return np.stack([self.single.encode(cfg) for cfg in configs])

    def decode_batch(self, ptrs: np.ndarray):
        return [self.single.decode(ptrs[i]) for i in range(ptrs.shape[0])]

    # ------------------------------------------------------------------
    def step_batch(self, ptrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One synchronous round for every row.

        Returns ``(new_ptrs, moved)`` where ``moved`` is a (k,) bool
        array flagging rows in which at least one rule fired.
        """
        new_ptrs, r1, r2, r3 = self._step_rules(ptrs)
        return new_ptrs, (r1 | r2 | r3).any(axis=1)

    def _step_rules(
        self, ptrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One round, returning the per-rule firing masks as well —
        ``(new_ptrs, r1, r2, r3)``, each mask (k, n) bool."""
        k, n = ptrs.shape
        assert n == self.n
        indices = self._indices
        row = self._row
        sentinel = n

        is_null = ptrs < 0                          # (k, n)
        if self._seg_starts is None:  # edgeless graph: nothing proposes
            min_proposer = np.full((k, n), sentinel, dtype=ptrs.dtype)
            min_null = min_proposer
        else:
            neighbor_ptr = ptrs[:, indices]         # (k, E)
            proposer_entry = neighbor_ptr == row    # (k, E) broadcast row
            vals = np.where(proposer_entry, indices, sentinel)
            min_proposer = np.minimum.reduceat(vals, self._seg_starts, axis=1)
            min_proposer[:, self._seg_empty] = sentinel

            null_entry = neighbor_ptr < 0
            vals2 = np.where(null_entry, indices, sentinel)
            min_null = np.minimum.reduceat(vals2, self._seg_starts, axis=1)
            min_null[:, self._seg_empty] = sentinel
        has_proposer = min_proposer < sentinel
        has_null = min_null < sentinel

        r1 = is_null & has_proposer
        r2 = is_null & ~has_proposer & has_null

        safe_target = np.where(is_null, 0, ptrs)
        target_ptr = np.take_along_axis(ptrs, safe_target, axis=1)
        r3 = (~is_null) & (target_ptr >= 0) & (target_ptr != self._arange_n)

        new_ptrs = ptrs.copy()
        new_ptrs[r1] = min_proposer[r1]
        new_ptrs[r2] = min_null[r2]
        new_ptrs[r3] = SMM_NULL
        return new_ptrs, r1, r2, r3

    # ------------------------------------------------------------------
    def run_batch(
        self,
        configs,
        *,
        max_rounds: Optional[int] = None,
        raise_on_timeout: bool = False,
    ) -> BatchResult:
        """Run every row to stabilization (or the shared round budget).

        ``configs`` is a sequence of mappings or a prepared (k, n) int
        matrix.  Already-stabilized rows are frozen (their pointers no
        longer change), so mixed batches cost only as many rounds as
        the slowest member.
        """
        if isinstance(configs, np.ndarray):
            ptrs = configs.astype(self._dtype, copy=True)
        else:
            ptrs = self.encode_batch(configs)
        k = ptrs.shape[0]
        budget = max_rounds if max_rounds is not None else self.n + 8

        rounds = np.zeros(k, dtype=np.int64)
        moves_by_rule = {
            name: np.zeros(k, dtype=np.int64) for name in ("R1", "R2", "R3")
        }
        # Row compaction: each round steps only the rows still moving.
        # A quiescent row is at its fixpoint (no rule can fire again
        # under the synchronous daemon), so dropping it changes nothing
        # observable — counts, rounds and finals stay byte-identical —
        # while the per-round cost shrinks from k·n to |live|·n.  At
        # most `budget` rounds are applied — same cap as the single-run
        # kernel and the reference engine, so round counts agree even
        # on timeouts.
        live = np.arange(k)
        for _ in range(budget):
            new_sub, r1, r2, r3 = self._step_rules(ptrs[live])
            moved_sub = (r1 | r2 | r3).any(axis=1)
            if not moved_sub.any():
                live = live[:0]
                break
            moved_idx = live[moved_sub]
            for name, mask in (("R1", r1), ("R2", r2), ("R3", r3)):
                moves_by_rule[name][moved_idx] += mask[moved_sub].sum(axis=1)
            ptrs[moved_idx] = new_sub[moved_sub]
            rounds[moved_idx] += 1
            live = moved_idx
        else:  # budget exhausted: which live rows are still moving?
            if live.size:
                _, moved_sub = self.step_batch(ptrs[live])
                live = live[moved_sub]
        active = np.zeros(k, dtype=bool)
        active[live] = True

        result = BatchResult(
            stabilized=~active,
            rounds=rounds,
            final_ptr=ptrs,
            moves_by_rule=moves_by_rule,
        )
        if raise_on_timeout and not result.all_stabilized:
            raise StabilizationTimeout(
                f"batch SMM: {int(active.sum())} runs exceeded {budget} rounds",
                result,
            )
        return result
