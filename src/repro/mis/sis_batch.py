"""Batch-vectorized SIS: step many independent runs simultaneously.

Batch analogue of :mod:`repro.mis.sis_vectorized` — the round update
``x' = ¬(∃ bigger in-set neighbour)`` applied to a (k, n) state matrix
with one logical-or scatter per round.  See
:mod:`repro.matching.smm_batch` for the rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import StabilizationTimeout
from repro.graphs.graph import Graph
from repro.kernels import drive_batch
from repro.mis.sis_vectorized import VectorizedSIS


@dataclass
class BatchResult:
    """Summary of a batch run."""

    stabilized: np.ndarray   #: (k,) bool
    rounds: np.ndarray       #: (k,) int
    final_x: np.ndarray      #: (k, n) final state matrix
    #: per-rule firing counts, (k,) int array per rule name — always
    #: populated by :meth:`BatchSIS.run_batch`
    moves_by_rule: Dict[str, np.ndarray]

    @property
    def all_stabilized(self) -> bool:
        return bool(self.stabilized.all())

    def max_rounds(self) -> int:
        return int(self.rounds.max(initial=0))


class BatchSIS:
    """SIS rounds vectorized across a batch of runs on one graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.single = VectorizedSIS(graph)
        indptr, indices, ids = graph.adjacency_arrays()
        self.n = graph.n
        self._indices = indices
        self._bigger_entry = self.single._bigger_entry
        # reduceat segment boundaries along the entry axis; empty rows
        # masked explicitly (see the SMM batch kernel)
        self._seg_empty = indptr[:-1] == indptr[1:]
        self._seg_starts = (
            np.minimum(indptr[:-1], indices.size - 1) if indices.size else None
        )

    def encode_batch(self, configs: Sequence) -> np.ndarray:
        return np.stack([self.single.encode(cfg) for cfg in configs])

    def decode_batch(self, xs: np.ndarray):
        return [self.single.decode(xs[i]) for i in range(xs.shape[0])]

    def step_batch(self, xs: np.ndarray) -> np.ndarray:
        """One synchronous round for every row of the (k, n) matrix."""
        k, n = xs.shape
        assert n == self.n
        if self._seg_starts is None:  # edgeless graph: nobody is blocked
            return np.ones((k, n), dtype=np.uint8)
        in_set_entry = (xs[:, self._indices] == 1) & self._bigger_entry
        blocked = np.logical_or.reduceat(in_set_entry, self._seg_starts, axis=1)
        blocked[:, self._seg_empty] = False
        return (~blocked).astype(np.uint8)

    def legitimate(self, xs: np.ndarray) -> np.ndarray:
        """Per-row legitimacy of a (k, n) state matrix, as a (k,) bool
        array: SIS's legitimate configurations are exactly the fixpoints
        of its round, ``step_batch(x) == x``."""
        return (self.step_batch(xs) == xs).all(axis=1)

    def _decide(self, xs: np.ndarray) -> tuple[np.ndarray, tuple]:
        """One round with its firing masks: R1 joins, R2 leaves."""
        new = self.step_batch(xs)
        changed = new != xs
        return new, (changed & (new == 1), changed & (new == 0))

    def run_batch(
        self,
        configs,
        *,
        max_rounds: Optional[int] = None,
        raise_on_timeout: bool = False,
    ) -> BatchResult:
        """Run every row to its fixpoint (or the shared budget), with the
        row compaction of :func:`repro.kernels.drive_batch`."""
        if isinstance(configs, np.ndarray):
            xs = configs.astype(np.uint8, copy=True)
        else:
            xs = self.encode_batch(configs)
        budget = max_rounds if max_rounds is not None else self.n + 8
        stabilized, rounds, moves_by_rule = drive_batch(
            self._decide, xs, budget, ("R1", "R2")
        )
        result = BatchResult(
            stabilized=stabilized,
            rounds=rounds,
            final_x=xs,
            moves_by_rule=moves_by_rule,
        )
        if raise_on_timeout and not result.all_stabilized:
            raise StabilizationTimeout(
                f"batch SIS: {int((~stabilized).sum())} runs exceeded "
                f"{budget} rounds",
                result,
            )
        return result
