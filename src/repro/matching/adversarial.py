"""Adversarial initial configurations for SMM worst-case probing.

Random initial states recover quickly (a couple of rounds — see E1's
``random`` rows); the configurations that push SMM towards its n+1
bound are *structured*.  This module builds them:

* :func:`proposal_chain` — on a path, every node points to its right
  neighbour: a chain of unreciprocated proposals.  Back-offs and
  re-proposals then ripple down the path.
* :func:`pessimal_cycle` — on a cycle, everyone points clockwise: the
  rotational analogue, maximally symmetric.
* :func:`all_null` — the clean start, which on id-ordered cycles/paths
  already exhibits the slow "zipper": node 0 proposes to 1, they match,
  node 2's proposal to 1 dies, 2 proposes to 3, ... — Θ(n) rounds, the
  family behind Theorem 1's tightness.
* :func:`worst_case_rounds` — sweep all three on one graph and report
  the slowest, used by experiment E1's ``adversarial`` rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.core.configuration import Configuration
from repro.engine import run
from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.types import NodeId, Pointer


def all_null(graph: Graph) -> Configuration:
    """The clean start ``i -> *`` for every node."""
    return Configuration({node: None for node in graph.nodes})


def proposal_chain(graph: Graph) -> Configuration:
    """Each node points to its smallest *larger-id* neighbour (the last
    node of each chain stays null).

    On a path with ascending ids this is the canonical proposal chain
    0 -> 1 -> 2 -> ...; on general graphs it induces a forest of
    pointer chains ordered by id — a dense tangle of unreciprocated
    proposals that all have to unwind.
    """
    states: Dict[NodeId, Pointer] = {}
    for node in graph.nodes:
        larger = [j for j in graph.neighbors(node) if j > node]
        states[node] = min(larger) if larger else None
    return Configuration(states)


def reverse_proposal_chain(graph: Graph) -> Configuration:
    """Each node points to its largest *smaller-id* neighbour — the
    mirror tangle (proposals point away from where R2 would send
    them)."""
    states: Dict[NodeId, Pointer] = {}
    for node in graph.nodes:
        smaller = [j for j in graph.neighbors(node) if j < node]
        states[node] = max(smaller) if smaller else None
    return Configuration(states)


def pessimal_cycle(graph: Graph) -> Configuration:
    """On a cycle with ids ``0..n-1``, everyone points clockwise.

    This is the *state* of the paper's counterexample; under the
    min-id rule it is perfectly legal as an initial configuration and
    forces a global back-off wave before any matching can form.
    """
    n = graph.n
    expected = {(i, (i + 1) % n) for i in range(n)}
    canonical = {(min(e), max(e)) for e in expected}
    if set(graph.edges) != canonical:
        raise GraphError("pessimal_cycle needs the standard cycle 0..n-1")
    return Configuration({i: (i + 1) % n for i in range(n)})


def adversarial_configurations(graph: Graph) -> Iterable[Tuple[str, Configuration]]:
    """All applicable adversarial starts for ``graph``, with labels."""
    yield "all-null", all_null(graph)
    yield "proposal-chain", proposal_chain(graph)
    yield "reverse-chain", reverse_proposal_chain(graph)
    try:
        yield "pessimal-cycle", pessimal_cycle(graph)
    except GraphError:
        pass


def worst_case_rounds(
    graph: Graph, *, max_rounds: int | None = None
) -> Tuple[int, str]:
    """Rounds of the slowest adversarial start (and its label).

    Every run is verified to stabilize within Theorem 1's bound; a
    budget overrun raises through the engine.  Runs go through
    :func:`repro.engine.run` with ``backend="auto"``: the SMM kernel
    where it applies, the reference engine otherwise.
    """
    budget = max_rounds if max_rounds is not None else graph.n + 2
    worst = (-1, "none")
    for label, config in adversarial_configurations(graph):
        execution = run(
            "smm",
            graph,
            config,
            backend="auto",
            max_rounds=budget,
            raise_on_timeout=True,
        )
        if execution.rounds > worst[0]:
            worst = (execution.rounds, label)
    return worst
