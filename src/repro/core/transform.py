"""Central-daemon → synchronous-model refinement.

Section 3 of the paper notes that the Hsu–Huang central-daemon maximal
matching algorithm "may be converted into a synchronous model protocol
using the techniques of [Afek–Dolev / Beauquier et al.], [but] the
resulting protocol is not as fast" as SMM; the conclusion generalizes
the observation to any centrally-solvable problem.  This module
implements that conversion so experiment E5/E9 can measure the claim.

The construction is *local mutual exclusion*: in each synchronous
round, a privileged node actually fires only if it holds the locally
highest priority among the privileged nodes of its closed
neighbourhood.  The set of movers is then independent in the conflict
graph, so the parallel step is serializable — it equals a sequence of
central-daemon moves (movers are pairwise non-adjacent; a node's guard
and action read only its own and its neighbours' states, so moves by
non-neighbours commute).  Any central-daemon convergence proof
therefore carries over unchanged.

Two priority schemes are provided:

* ``"id"`` — priority is the node id.  Deterministic; the globally
  largest privileged node always moves, so every round makes progress.
* ``"random"`` — fresh uniform priorities every round (ties broken by
  id), the Beauquier-et-al-style randomized refinement.  Expected
  parallelism is Θ(privileged / Δ) movers per round.

In the beacon model each refinement round costs *two* beacon rounds:
one for neighbours' states (to evaluate guards) and one to exchange
the (priority, privileged)-bits that arbitrate the mutex.  The runner
reports raw refinement rounds; callers that want beacon-time multiply
by :data:`BEACON_ROUNDS_PER_STEP`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.executor import Execution, _drive, _privileged
from repro.core.invariants import Monitor
from repro.core.protocol import Protocol
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.rng import RngLike, ensure_rng
from repro.types import NodeId

#: Beacon rounds consumed by one refinement round (state exchange +
#: priority/privilege exchange).
BEACON_ROUNDS_PER_STEP = 2


def _priorities(
    scheme: str, graph: Graph, gen: np.random.Generator
) -> Dict[NodeId, tuple]:
    """Per-round priority of every node; larger tuple wins."""
    if scheme == "id":
        return {node: (node,) for node in graph.nodes}
    if scheme == "random":
        draws = gen.random(graph.n)
        return {
            node: (float(draws[k]), node) for k, node in enumerate(graph.nodes)
        }
    raise ProtocolError(f"unknown priority scheme {scheme!r}")


def run_synchronized_central(
    protocol: Protocol,
    graph: Graph,
    config: Optional[Mapping[NodeId, object]] = None,
    *,
    priority: str = "id",
    rng: RngLike = None,
    max_rounds: Optional[int] = None,
    record_history: bool = False,
    monitors: Sequence[Monitor] = (),
    raise_on_timeout: bool = False,
    count_beacon_rounds: bool = False,
    telemetry: bool = False,
    fault_plan=None,
) -> Execution:
    """Run a central-daemon protocol in the synchronous model via local
    mutual exclusion.

    Per refinement round: evaluate every node's guard on the current
    configuration; fire exactly the privileged nodes whose priority
    beats every privileged closed-neighbour.  Stabilizes when no node
    is privileged; on budget exhaustion a final randomness-free
    quiescence check runs, as in
    :func:`repro.core.executor.run_synchronous`.  Rounds count every
    tick elapsed, including zero-move rounds of randomized protocols
    (empty ``{}`` move-log entries).

    Parameters mirror :func:`repro.core.executor.run_synchronous`.
    ``priority`` selects the scheme (``"id"`` or ``"random"``); with
    ``count_beacon_rounds=True`` the returned execution reports rounds
    in beacon time (refinement rounds × :data:`BEACON_ROUNDS_PER_STEP`),
    which is the honest unit for comparing against SMM in E5 — the
    attached telemetry (``telemetry=True``) and the monitors' round
    index always count refinement rounds.
    """
    if fault_plan is not None:
        from repro.errors import ExperimentError

        raise ExperimentError(
            "fault campaigns are not supported under the refined "
            "synchronized-central daemon; use the synchronous daemon"
        )
    gen = ensure_rng(rng)

    def pick(current, rand_map, step):
        privileged = _privileged(protocol, graph, current, rand_map)
        if not privileged:
            return {}, graph.n
        prio = _priorities(priority, graph, gen)
        fired = {}
        for node, (rule, view) in privileged.items():
            if all(
                prio[node] > prio[j]
                for j in graph.neighbors(node)
                if j in privileged
            ):
                fired[node] = (rule.name, rule.fire(view))
        if not fired:
            raise ProtocolError(
                "local mutex produced an empty mover set with privileged "
                "nodes present (priority scheme must be a total order)"
            )
        return fired, graph.n

    budget = max_rounds if max_rounds is not None else 20 * graph.n * graph.n + 200
    return _drive(
        protocol,
        graph,
        config,
        pick,
        gen=gen,
        budget=budget,
        daemon=f"sync-central-refined:{priority}",
        overrun=(
            f"{protocol.name} (refined) exceeded {budget} rounds"
            if raise_on_timeout
            else None
        ),
        record_history=record_history,
        monitors=monitors,
        telemetry=telemetry,
        round_unit=BEACON_ROUNDS_PER_STEP if count_beacon_rounds else 1,
    )
