"""Kernel legitimacy and decode agree with the protocol.

The NumPy kernels read ``legitimate`` off their arrays instead of
evaluating ``protocol.is_legitimate`` on a decoded dict: a state is
legitimate exactly when no rule is enabled (Lemma 8 for SMM; for SIS
the predicate is the rules' fixpoint).  They also decode through
``tolist`` and a cached id list.  Both are checked here, on every state
of random runs cut after 0 to n + 2 rounds — so budget-cut states that
are not legitimate are included — against the protocol predicate on
the decoded configuration and against a per-element decode.  Fault
campaigns on the vectorized adapter decide legitimacy the same way;
budget-cut campaigns over every event kind are checked against the
protocol predicate on their final graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.core.faults import random_configuration
from repro.engine import make_protocol
from repro.engine import run as engine_run
from repro.graphs.generators import erdos_renyi_graph
from repro.matching.smm_batch import BatchSMM
from repro.matching.smm_vectorized import VectorizedSMM
from repro.mis.sis_batch import BatchSIS
from repro.mis.sis_vectorized import VectorizedSIS
from repro.resilience import FaultEvent, FaultPlan
from repro.resilience.campaign import drive_campaign
from repro.resilience.vector import VectorAdapter

BATCH = {"smm": BatchSMM, "sis": BatchSIS}
KERNEL = {"smm": VectorizedSMM, "sis": VectorizedSIS}
STARTS = 4


def _graphs():
    """Seeded ER graphs of 2-22 nodes (isolated nodes and disconnected
    ones included), and one randomly relabelled to non-contiguous ids
    whose order differs from the original labels'."""
    graphs = [
        erdos_renyi_graph(2 + seed % 21, 0.1 + 0.05 * (seed % 7), rng=seed)
        for seed in range(40)
    ]
    base = erdos_renyi_graph(14, 0.25, rng=99)
    ids = np.random.default_rng(99).choice(1000, size=base.n, replace=False)
    graphs.append(base.relabeled(dict(zip(base.nodes, ids.tolist()))))
    return graphs


def _per_element_decode(key, kernel, state):
    """The decode the kernels replaced: one NumPy scalar read per node."""
    ids = kernel._ids
    if key == "smm":
        return Configuration(
            {
                int(ids[k]): None if int(state[k]) < 0 else int(ids[int(state[k])])
                for k in range(kernel.n)
            }
        )
    return Configuration({int(ids[k]): int(state[k]) for k in range(kernel.n)})


@pytest.mark.parametrize("key", ["smm", "sis"])
def test_array_legitimacy_and_decode_match_protocol(key):
    protocol = make_protocol(key)
    seen = {True: 0, False: 0}
    for index, graph in enumerate(_graphs()):
        batch = BATCH[key](graph)
        kernel = batch.single
        for start in range(STARTS):
            config = random_configuration(protocol, graph, 1000 * index + start)
            state = kernel.encode(config)
            states = []
            for cut in range(graph.n + 3):
                states.append(state.copy())
                # single-run kernel: the run cut after ``cut`` rounds
                result = engine_run(
                    key, graph, config, backend="vectorized", max_rounds=cut
                )
                assert result.final == kernel.decode(state)
                assert result.legitimate == protocol.is_legitimate(
                    graph, result.final
                )
                movers, values, _ = kernel.decide_all(state)
                state[movers] = values
            flags = batch.legitimate(np.stack(states))
            for row, flag in zip(states, flags.tolist()):
                decoded = kernel.decode(row)
                old = _per_element_decode(key, kernel, row)
                assert list(decoded.items()) == list(old.items())
                assert flag == protocol.is_legitimate(graph, decoded)
                seen[flag] += 1
    # both verdicts occur, so neither check is vacuous
    assert seen[True] and seen[False]


def _campaign_plan(graph, seed):
    """Every event kind, an explicit-edge churn (the array fast path)
    first, all firing within the first six rounds."""
    edges = sorted(graph.edges)
    absent = next(
        (u, v)
        for u in graph.nodes
        for v in graph.nodes
        if u < v and (u, v) not in graph.edges
    )
    return FaultPlan(
        events=(
            FaultEvent(
                round=1, kind="churn", remove_edges=(edges[0],), add_edges=(absent,)
            ),
            FaultEvent(round=2, kind="perturb", fraction=0.3),
            FaultEvent(round=3, kind="churn", churn=2),
            FaultEvent(round=4, kind="crash", count=2),
            FaultEvent(round=5, kind="message_loss", count=1),
            FaultEvent(round=6, kind="rejoin"),
            FaultEvent(round=6, kind="message_dup", count=3),
        ),
        seed=seed,
    )


@pytest.mark.parametrize("key", ["smm", "sis"])
def test_campaign_legitimacy_matches_protocol(key):
    """A vectorized campaign cut at every budget from 0 to 12 rounds
    reports the protocol predicate's verdict on its final graph and
    configuration."""
    protocol = make_protocol(key)
    seen = {True: 0, False: 0}
    graphs = [g for g in _graphs() if g.n >= 6 and g.m >= 1][:12]
    for index, graph in enumerate(graphs):
        plan = _campaign_plan(graph, index)
        for start in range(2):
            config = random_configuration(protocol, graph, 1000 * index + start)
            for budget in range(13):
                adapter = VectorAdapter(protocol, graph, config, KERNEL[key])
                summary, _ = drive_campaign(
                    protocol, adapter, plan, budget=budget, backend="vectorized"
                )
                want = protocol.is_legitimate(summary["final_graph"], summary["final"])
                assert summary["legitimate"] == want
                seen[want] += 1
    assert seen[True] and seen[False]
