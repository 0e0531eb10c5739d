"""Fault campaigns and streams on the vectorized SMM/SIS kernels.

The campaign driver (:mod:`repro.resilience.campaign`) and the streaming
engine (:mod:`repro.streaming.engine`) are backend agnostic; this module
supplies the one adapter that keeps their segments on the NumPy fast
path.  A segment is a :func:`repro.kernels.drive` call whose dirty
frontier is seeded at the closed neighbourhood of the last event's
fault sites, so every counter is byte-identical with the reference
engine while recovery costs the containment radius, not ``n``.

Fault events apply at the array level where possible: ``perturb`` and
``message_dup`` redraw victim states directly on the dense array,
mirroring the reference path draw for draw — victims come from the same
``gen.choice`` over dense indices (:func:`~repro.core.faults.perturb_victims`
maps them to ids; here they *are* the array positions), and each
victim's redraw consumes the identical generator calls (the kernels'
``perturb_one``).  Explicit-edge churn patches the cached CSR
incrementally (:meth:`~repro.graphs.graph.Graph.with_updates`) and
migrates the state with an O(changed links) pointer reset.  The other
topology-changing events (random ``churn``, ``crash``, ``rejoin``) and
``message_loss`` decode to a configuration, go through the shared
:class:`~repro.resilience.campaign.CampaignRuntime`, and re-encode
(rebuilding the kernel when the graph changed); they are rare
round-boundary operations, so the O(n) decode does not matter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.containment import edge_fault_sites
from repro.graphs.graph import Graph
from repro.kernels import closed_neighborhood, drive, observer, run_engine
from repro.resilience.campaign import CampaignRuntime, Segment, select_victims
from repro.resilience.plan import FaultEvent, FaultPlan

__all__ = ["VectorAdapter", "run_vector_campaign"]


class VectorAdapter:
    """Campaign and stream adapter on a vectorized kernel.

    Recovery segments step only the dirty frontier: after an event the
    frontier is ``N[sites ∪ rewritten]`` — the closed neighbourhood of
    the fault sites and of every node whose state the event rewrote.
    That is a superset of the enabled nodes after any event applied to
    a quiescent configuration, because every guard reads only its
    node's adjacency row and closed neighbourhood, and an event changes
    exactly the sites' rows and the rewritten nodes' states.  If the
    previous window ended before quiescence its residual dirty set is
    unioned in, preserving the dirty-superset invariant of
    :func:`~repro.kernels.drive` across events.
    """

    traces = False

    def __init__(self, protocol, graph: Graph, initial, kernel_cls) -> None:
        self.protocol = protocol
        self.graph = graph
        self.kernel = kernel_cls(graph)
        self.state = self.kernel.encode(initial)
        self.runtime = CampaignRuntime()
        self._dirty = None  # None = everything dirty (initial settle)
        self._settled = False

    def initial_census(self):
        census = getattr(self.kernel, "census", None)
        return None if census is None else census(self.state)

    def config(self):
        return self.kernel.decode(self.state)

    def legitimate(self) -> bool:
        """One ``decide_all`` on the dense state: legitimate iff no rule
        is enabled, which equals the protocol predicate by Lemma 8 (as
        in :func:`repro.kernels.run_engine`)."""
        return len(self.kernel.decide_all(self.state)[0]) == 0

    def run_segment(self, budget: int, recorder=None) -> Segment:
        kernel = self.kernel
        touched = np.zeros(kernel.n, dtype=bool)
        on_round = None if recorder is None else observer(recorder, kernel)
        self._settled, rounds, moves, self._dirty = drive(
            kernel,
            self.state,
            budget,
            dirty=self._dirty,
            touched=touched,
            on_round=on_round,
        )
        ids = kernel._ids
        return Segment(
            rounds=rounds,
            stabilized=self._settled,
            moves_by_rule=moves,
            touched=frozenset(int(ids[k]) for k in np.nonzero(touched)[0]),
        )

    def apply(self, event: FaultEvent, gen):
        index = self.graph.dense_index()
        rewritten = ()
        if event.kind in ("perturb", "message_dup"):
            # array fast path, draw-for-draw identical to the dict path
            sites = select_victims(self.graph, event, gen)
            for node in sites:
                self.kernel.perturb_one(self.state, index[node], gen)
        elif event.kind == "churn" and (event.add_edges or event.remove_edges):
            # explicit-edge fast path: patch the cached CSR in place and
            # migrate the dense state without a decode/encode round trip
            graph = self.graph.with_updates(
                add_edges=event.add_edges, remove_edges=event.remove_edges
            )
            self.kernel.drop_removed_links(
                self.state,
                [
                    (index[u], index[v])
                    for u, v in event.remove_edges
                    if not graph.has_edge(u, v)  # re-added in one event
                ],
            )
            self._rebuild(graph)
            changed = (*event.add_edges, *event.remove_edges)
            sites = tuple(sorted(edge_fault_sites(changed)))
        else:
            # rare structural events: decode, shared runtime, re-encode
            before = self.state
            graph, config, sites = self.runtime.apply(
                self.protocol, self.graph, self.kernel.decode(before), event, gen
            )
            if graph is not self.graph:
                self._rebuild(graph)
            self.state = self.kernel.encode(config)
            # message loss rewrites the victims' neighbours, not the sites
            rewritten = np.nonzero(self.state != before)[0]
        self._seed(sites, rewritten)
        return sites

    def _rebuild(self, graph: Graph) -> None:
        self.graph = graph
        self.kernel = type(self.kernel)(graph)

    def _seed(self, sites, rewritten) -> None:
        index = self.graph.dense_index()
        rows = np.concatenate(
            (
                np.fromiter(
                    (index[int(s)] for s in sites), dtype=np.int64, count=len(sites)
                ),
                np.asarray(rewritten, dtype=np.int64),
            )
        )
        seed = closed_neighborhood(self.kernel._indptr, self.kernel._indices, rows)
        if not self._settled and self._dirty is not None:
            seed = np.union1d(seed, np.asarray(self._dirty, dtype=np.int64))
        self._dirty = seed


def run_vector_campaign(
    protocol,
    graph: Graph,
    config=None,
    *,
    fault_plan: FaultPlan,
    family: str,
    rng=None,
    max_rounds: Optional[int] = None,
    record_history: bool = False,
    raise_on_timeout: bool = False,
    active_set: bool = True,
    telemetry: bool = False,
):
    """Run a fault campaign on the ``family`` (``"smm"``/``"sis"``)
    vectorized kernel — :func:`repro.kernels.run_engine` with a
    ``fault_plan``.  Campaigns always collect telemetry, whatever the
    ``telemetry`` flag says."""
    from repro.matching.smm_vectorized import VectorizedSMM
    from repro.mis.sis_vectorized import VectorizedSIS

    kernel_cls = {"smm": VectorizedSMM, "sis": VectorizedSIS}[family]
    return run_engine(
        kernel_cls,
        protocol,
        graph,
        config,
        rng=rng,
        max_rounds=max_rounds,
        record_history=record_history,
        raise_on_timeout=raise_on_timeout,
        active_set=active_set,
        telemetry=telemetry,
        fault_plan=fault_plan,
    )
