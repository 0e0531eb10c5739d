"""Vectorized SIS synchronous rounds (NumPy kernel).

The whole SIS round collapses to one array expression.  A node's guard
depends only on whether some *larger-id* neighbour is in the set
(``blocked``); inspecting Fig. 4's rules case by case:

===========  =========  ==========================  =========
``x(i)``     blocked?   rule fired                  ``x'(i)``
===========  =========  ==========================  =========
0            no         R1 (enter)                  1
0            yes        —                           0
1            no         —                           1
1            yes        R2 (leave)                  0
===========  =========  ==========================  =========

i.e. ``x' = ¬blocked`` — the new state is independent of the old one.
Stabilization is detected as ``x' == x``; moves split into R1
(``0 -> 1``) and R2 (``1 -> 0``).

State layout: membership is a dense uint8 0/1 array (one byte per
node); :meth:`VectorizedSIS.pack` / :meth:`VectorizedSIS.unpack` /
:meth:`VectorizedSIS.step_packed` provide the bitset form (8 nodes per
byte via :func:`repro.kernels.pack_bits`) for memory-lean storage of
many configurations.  Per-row reductions run on ``logical_or.reduceat``
over contiguous CSR segments.  The kernel supplies the per-round
decisions and :func:`repro.kernels.drive` owns the round loop; the
decisions for tiny frontiers are a pure-Python loop that exploits CSR
row order: dense index order equals id order, so the larger-id
neighbours of row ``i`` are exactly the suffix of entries ``> i``.

Equivalence with the reference engine is pinned by
``tests/test_sis_vectorized.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.configuration import Configuration
from repro.errors import StabilizationTimeout
from repro.graphs.graph import Graph
from repro.kernels import (
    NeighbourRows,
    csr_entry_positions,
    drive,
    pack_bits,
    segment_any,
    unpack_bits,
)
from repro.types import NodeId


@dataclass
class VectorResult:
    """Summary of a vectorized SIS run."""

    stabilized: bool
    rounds: int
    moves: int
    moves_by_rule: Dict[str, int]
    final_x: np.ndarray  # 0/1 per dense node index


class VectorizedSIS:
    """SIS rounds as NumPy array operations over one fixed graph."""

    #: rule order of the per-rule counts the decisions return
    RULES = ("R1", "R2")

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        # adjacency_arrays() is cached on the (immutable) graph: repeated
        # kernel construction over one graph is O(1) after the first.
        indptr, indices, ids = graph.adjacency_arrays()
        self._indptr = indptr
        self._indices = indices
        self._ids = ids
        self._id_to_dense = graph.dense_index()
        self.n = graph.n
        self._row = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(indptr)
        )
        # entry mask: neighbour id greater than owner id (precomputable —
        # it depends only on the topology, not the configuration)
        self._bigger_entry = ids[indices] > ids[self._row]
        # plain-list neighbour rows for the scalar frontier path,
        # each listed on first read
        self._adj = NeighbourRows(indptr, indices)
        # plain-list node ids for decode, built lazily
        self._id_list: Optional[List[NodeId]] = None

    def encode(self, config) -> np.ndarray:
        x = np.zeros(self.n, dtype=np.uint8)
        for node, value in dict(config).items():
            x[self._id_to_dense[int(node)]] = int(value)
        return x

    def decode(self, x: np.ndarray) -> Configuration:
        if self._id_list is None:
            self._id_list = self._ids.tolist()
        return Configuration(dict(zip(self._id_list, x.tolist())))

    # ------------------------------------------------------------------
    # packed-bit representation
    # ------------------------------------------------------------------
    def pack(self, x: np.ndarray) -> np.ndarray:
        """Bitset form of a dense 0/1 membership array (8 nodes/byte)."""
        return pack_bits(x)

    def unpack(self, bits: np.ndarray) -> np.ndarray:
        """Dense uint8 0/1 array from a bitset produced by :meth:`pack`."""
        return unpack_bits(bits, self.n)

    def step_packed(self, bits: np.ndarray) -> np.ndarray:
        """One synchronous round on the packed-bit representation.

        Unpacks, steps the flat kernel, re-packs: byte-identical with
        ``pack(step(unpack(bits)))`` by construction, pinned against the
        flat kernel by the equivalence suite.
        """
        return pack_bits(self.step(unpack_bits(bits, self.n)))

    def step(self, x: np.ndarray) -> np.ndarray:
        """One synchronous round: ``x' = ¬(∃ bigger in-set neighbour)``."""
        in_set_entry = (x[self._indices] == 1) & self._bigger_entry
        blocked = segment_any(in_set_entry, self._indptr)
        return (~blocked).astype(np.uint8)

    def enabled_count(self, x: np.ndarray) -> int:
        """The SIS potential: number of rule-enabled nodes.

        ``x' = ¬blocked`` regardless of ``x``, so a node is enabled iff
        one synchronous step would change it — one :meth:`step` worth of
        array work.  Equal to the reference predicate evaluated on the
        decoded configuration (pinned by the observatory tests)."""
        return int((self.step(x) != x).sum())

    def independence_violations(self, x: np.ndarray) -> int:
        """Edges with both endpoints in the set (0 for any independent
        set) — one masked CSR pass, each edge seen twice."""
        both = (x[self._indices] == 1) & (x[self._row] == 1)
        return int(both.sum()) // 2

    def domination_violations(self, x: np.ndarray) -> int:
        """Out-of-set nodes with no in-set neighbour (0 for any maximal
        independent set)."""
        has_in_set = segment_any(x[self._indices] == 1, self._indptr)
        return int(((x == 0) & ~has_in_set).sum())

    # ------------------------------------------------------------------
    # per-round decisions (the loop is repro.kernels.drive)
    # ------------------------------------------------------------------
    @staticmethod
    def _moved(movers: np.ndarray, vals: np.ndarray) -> tuple:
        """``(movers, vals, (entered, left))``: R1 enters (``0 -> 1``),
        R2 leaves (``1 -> 0``)."""
        entered = int(np.count_nonzero(vals))
        return movers, vals, (entered, movers.size - entered)

    def decide_all(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Full-scan decisions: ``(movers, values, (r1, r2))`` — the
        nodes whose state changes, their new bits, and the per-rule
        counts."""
        new_x = self.step(x)
        movers = np.nonzero(new_x != x)[0]
        return self._moved(movers, new_x[movers])

    def decide_rows(
        self, x: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple]:
        """:meth:`decide_all` restricted to ``rows``.

        Nodes outside ``rows`` are not looked at: a node's blockedness
        depends only on its neighbours' states, so a cached value stays
        valid until a neighbour changes.
        """
        positions, counts = csr_entry_positions(self._indptr, rows)
        in_set_entry = (x[self._indices[positions]] == 1) & self._bigger_entry[positions]
        seg = np.concatenate(([0], np.cumsum(counts)))
        new_vals = (~segment_any(in_set_entry, seg)).astype(np.uint8)
        changed = new_vals != x[rows]
        return self._moved(rows[changed], new_vals[changed])

    def decide_scalar(
        self, x: np.ndarray, rows: List[int]
    ) -> tuple[List[int], List[int], tuple]:
        """Pure-Python :meth:`decide_rows` for a tiny frontier.

        Dense index order equals id order, so a row's larger-id
        neighbours are the CSR entries ``> i`` — scanned back to front
        so the first hit decides.
        """
        adj = self._adj
        movers: List[int] = []
        vals: List[int] = []
        c1 = c2 = 0
        for i in rows:
            blocked = False
            for j in reversed(adj[i]):
                if j <= i:
                    break
                if x[j] == 1:
                    blocked = True
                    break
            new = 0 if blocked else 1
            if new != int(x[i]):
                movers.append(i)
                vals.append(new)
                if new == 1:
                    c1 += 1
                else:
                    c2 += 1
        return movers, vals, (c1, c2)

    def run(
        self,
        config=None,
        *,
        max_rounds: Optional[int] = None,
        raise_on_timeout: bool = False,
    ) -> VectorResult:
        if config is None:
            x = np.zeros(self.n, dtype=np.uint8)
        elif isinstance(config, np.ndarray):
            x = config.astype(np.uint8, copy=True)
        else:
            x = self.encode(config)

        budget = max_rounds if max_rounds is not None else self.n + 8
        stabilized, rounds, moves_by_rule, _ = drive(self, x, budget)
        result = VectorResult(
            stabilized=stabilized,
            rounds=rounds,
            moves=sum(moves_by_rule.values()),
            moves_by_rule=moves_by_rule,
            final_x=x,
        )
        if raise_on_timeout and not stabilized:
            raise StabilizationTimeout(
                f"vectorized SIS exceeded {budget} rounds", result
            )
        return result

    # ------------------------------------------------------------------
    # in-place state surgery for fault campaigns and streams
    # ------------------------------------------------------------------
    @staticmethod
    def perturb_one(x: np.ndarray, k: int, gen) -> None:
        """Redraw node ``k``'s bit in place, draw for draw like
        ``SynchronousMaximalIndependentSet.random_state``."""
        x[k] = int(gen.integers(2))

    @staticmethod
    def drop_removed_links(x: np.ndarray, pairs) -> None:
        """SIS states are bits that reference no neighbour, so a link
        removal migrates nothing (``validate_state`` never consults the
        graph)."""

    def independent_set(self, x: np.ndarray) -> frozenset[NodeId]:
        """In-set node ids of a dense state array."""
        return frozenset(int(self._ids[k]) for k in range(self.n) if x[k] == 1)
