"""Run protocols to stabilization under the different daemons.

The central object is :class:`Execution`, a full record of one run:
initial and final configurations, stabilization flag, round/move
accounting (per rule), the per-round move log and — optionally — the
complete configuration history.  Experiments E3 (transition diagram)
and E6 (matching growth) read histories; everything else reads the
summary fields.

Round semantics (synchronous daemon) follow the paper exactly: at round
``t`` every node evaluates its guards against the states ``S_t`` that
arrived on the latest beacons, all privileged nodes fire simultaneously,
and the post-move configuration is ``S_{t+1}``.  The run has stabilized
at the first round in which no node is privileged; ``Execution.rounds``
counts every round *elapsed* before that — for randomized protocols
this includes rounds in which every node lost its draw and nobody moved
(the beacons were still exchanged; such rounds appear as empty ``{}``
entries in the move log).  The distributed daemon counts its steps the
same way; the central daemon's ``rounds`` equals ``moves`` by
definition of the model.

One round driver, :func:`_drive`, executes every daemon: it owns the
budget ticks, zero-move rounds, per-rule accounting, history,
telemetry, monitors, the final quiescence check and the timeout raise.
A daemon is only its :data:`Pick` — the policy choosing which
privileged nodes fire each tick.  :func:`run_synchronous` fires them
all (:func:`_synchronous_pick`, which keeps the active-set decision
cache), :func:`run_central` fires the one its strategy chooses,
:func:`run_distributed` flips an activation coin per node, and
:func:`repro.core.transform.run_synchronized_central` fires the
local-mutex winners.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import Configuration
from repro.core.daemons import CentralStrategy, make_strategy
from repro.core.invariants import Monitor
from repro.core.protocol import Protocol, Rule, View
from repro.engine.result import RunResult
from repro.errors import ExperimentError, StabilizationTimeout
from repro.graphs.graph import Graph
from repro.rng import RngLike, ensure_rng
from repro.types import NodeId


# ----------------------------------------------------------------------
# view construction
# ----------------------------------------------------------------------
def build_view(
    protocol: Protocol,
    graph: Graph,
    config: Mapping[NodeId, object],
    node: NodeId,
    rand_map: Optional[Mapping[NodeId, float]] = None,
) -> View:
    """The local view of ``node`` under ``config``.

    ``rand_map`` supplies the per-round variates for randomized
    protocols; deterministic runs pass ``None`` and views carry zeros.
    """
    neigh = graph.neighbors(node)
    neighbor_states = {j: config[j] for j in neigh}
    if rand_map is None:
        return View(node=node, state=config[node], neighbor_states=neighbor_states)
    return View(
        node=node,
        state=config[node],
        neighbor_states=neighbor_states,
        rand=rand_map[node],
        neighbor_rand={j: rand_map[j] for j in neigh},
    )


def _rand_map(
    protocol: Protocol, graph: Graph, rng: np.random.Generator
) -> Optional[Dict[NodeId, float]]:
    if not protocol.uses_randomness:
        return None
    values = rng.random(graph.n)
    return {node: float(values[k]) for k, node in enumerate(graph.nodes)}


def enabled_nodes(
    protocol: Protocol,
    graph: Graph,
    config: Mapping[NodeId, object],
    rand_map: Optional[Mapping[NodeId, float]] = None,
) -> Tuple[NodeId, ...]:
    """Sorted tuple of privileged nodes in ``config``."""
    out = []
    for node in graph.nodes:
        view = build_view(protocol, graph, config, node, rand_map)
        if protocol.is_enabled(view):
            out.append(node)
    return tuple(out)


# ----------------------------------------------------------------------
# execution record
# ----------------------------------------------------------------------
class Execution(RunResult):
    """Complete record of one reference-engine run.

    .. deprecated::
        ``Execution`` is now a thin alias of
        :class:`repro.engine.result.RunResult` — the unified result
        type all execution backends return — kept so existing code and
        serialized artefacts keep working.  Type new code against
        ``RunResult``; the fields and semantics are identical, plus a
        ``backend`` attribute naming the producer.

    The reference engine always records the full ``move_log`` (and
    ``history`` when requested), so on instances built by the runners
    in this module those fields are never ``None``.
    """


#: Default synchronous round budget: ``10 n + 100``.  Generous relative
#: to the paper's n+1 bound so that genuinely divergent variants
#: (experiment E4) are the only timeouts.  Documented in docs/api.md.
def _default_round_budget(graph: Graph) -> int:
    return 10 * graph.n + 100


def _final_quiescence(
    protocol: Protocol, graph: Graph, config: Mapping[NodeId, object]
) -> bool:
    """Randomness-free quiescence check for the budget-exhaustion path.

    Works for every protocol: deterministic guards are evaluated as
    usual (``rand_map=None``); randomized guards see zeroed variates —
    no generator state is consumed, so the check cannot perturb the
    trajectory.  ``protocol.is_quiescent`` has the final word, exactly
    as on the in-loop detection path: protocols whose guards read the
    variates (Luby) override it with a structural predicate, so a run
    that reaches quiescence on its last budgeted round is reported
    ``stabilized=True`` whether or not the protocol is randomized.
    """
    if not protocol.is_quiescent(graph, config):
        return False
    rand_map = (
        {node: 0.0 for node in graph.nodes}
        if protocol.uses_randomness
        else None
    )
    return not enabled_nodes(protocol, graph, config, rand_map)


def _resolve_config(
    protocol: Protocol, graph: Graph, config: Optional[Mapping[NodeId, object]]
) -> Configuration:
    if config is None:
        config = {node: protocol.initial_state(node, graph) for node in graph.nodes}
    cfg = config if isinstance(config, Configuration) else Configuration(config)
    protocol.validate_configuration(graph, cfg)
    return cfg


# ----------------------------------------------------------------------
# the round driver
# ----------------------------------------------------------------------
#: A daemon, as :func:`_drive` sees it: ``pick(current, rand_map,
#: step) -> (fired, scanned)``.  ``rand_map`` holds the tick's variates
#: (``None`` for deterministic protocols) and ``step`` the rounds
#: elapsed so far (the central daemon's moves).  ``fired`` maps every
#: mover, in move-log order, to its ``(rule name, new state)`` and is
#: empty exactly when no node is privileged; ``scanned`` counts the
#: guards evaluated (telemetry's active-set size).  Any further draws
#: (a strategy's choice, activation coins, priorities) come after the
#: variates, from the same generator.
Pick = Callable[
    [Configuration, Optional[Dict[NodeId, float]], int],
    Tuple[Dict[NodeId, Tuple[str, object]], int],
]


def _drive(
    protocol: Protocol,
    graph: Graph,
    config: Optional[Mapping[NodeId, object]],
    pick: Pick,
    *,
    gen: np.random.Generator,
    budget: int,
    daemon: str,
    overrun: Optional[str] = None,
    record_history: bool = False,
    monitors: Sequence[Monitor] = (),
    telemetry: bool = False,
    recorder=None,
    idle_rounds: bool = True,
    round_unit: int = 1,
) -> Execution:
    """Step ``config`` under the daemon ``pick`` until no node is
    privileged or ``budget`` ticks have elapsed.

    Every tick draws the per-round variates first, then asks ``pick``
    for the movers, and applies them all against the pre-tick
    configuration.  A tick in which nobody is privileged ends the run
    when ``protocol.is_quiescent``; otherwise (a randomized protocol's
    unlucky draws) it is a zero-move round — an empty ``{}`` move-log
    entry — or, with ``idle_rounds=False`` (the central daemon, whose
    rounds are its moves), it only consumes budget.  On exhaustion a
    final randomness-free quiescence check runs.

    Monitors see the start, every round (1-based round index) and the
    finished record.  ``telemetry=True`` records a
    :class:`~repro.observability.RunTelemetry` onto the result; an
    external ``recorder`` (a fault campaign's) instead only observes
    the rounds.  The result reports ``rounds × round_unit`` rounds, and
    an unstabilized run raises :class:`StabilizationTimeout` with the
    message ``overrun`` when one is given.
    """
    current = _resolve_config(protocol, graph, config)
    initial = current
    moves_by_rule: Dict[str, int] = {name: 0 for name in protocol.rule_names()}
    move_log: List[Dict[NodeId, str]] = []
    history: Optional[List[Configuration]] = [current] if record_history else None

    census_fn = None
    if telemetry or recorder is not None:
        from repro.observability import TelemetryRecorder, census_of, wants_census

        if telemetry:
            recorder = TelemetryRecorder(
                protocol.name, daemon, "reference", protocol.rule_names()
            )
        if wants_census(protocol):
            def census_fn(cfg):
                return census_of(graph, cfg)

            if telemetry:
                recorder.record_census(census_fn(current))

    for monitor in monitors:
        monitor.on_start(graph, current)

    if telemetry:
        recorder.begin_rounds()
    stabilized = False
    rounds = 0
    ticks = 0
    while ticks < budget:
        ticks += 1
        fired, scanned = pick(current, _rand_map(protocol, graph, gen), rounds)
        log: Dict[NodeId, str] = {}
        if fired:
            changes: Dict[NodeId, object] = {}
            for node, (name, value) in fired.items():
                log[node] = name
                changes[node] = value
                moves_by_rule[name] += 1
            current = current.updated(changes)
        elif protocol.is_quiescent(graph, current):
            stabilized = True
            break
        elif not idle_rounds:
            continue
        # else: a randomized protocol's unlucky draws — the round still
        # happened (beacons were exchanged); count it and redraw
        rounds += 1
        move_log.append(log)
        if history is not None:
            history.append(current)
        if recorder is not None:
            counts: Dict[str, int] = {}
            for name in log.values():
                counts[name] = counts.get(name, 0) + 1
            recorder.on_round(
                counts,
                scanned,
                census_fn(current) if census_fn is not None else None,
            )
        for monitor in monitors:
            monitor.on_round(rounds, current)
    else:  # budget exhausted without break — one final quiescence check
        stabilized = _final_quiescence(protocol, graph, current)

    if telemetry:
        recorder.begin_finalize()
    execution = Execution(
        protocol_name=protocol.name,
        daemon=daemon,
        stabilized=stabilized,
        rounds=rounds * round_unit,
        moves=sum(moves_by_rule.values()),
        moves_by_rule=moves_by_rule,
        initial=initial,
        final=current,
        move_log=move_log,
        history=history,
        legitimate=protocol.is_legitimate(graph, current),
    )
    if telemetry:
        execution.telemetry = recorder.finish()
    for monitor in monitors:
        monitor.on_finish(execution)
    if overrun is not None and not stabilized:
        raise StabilizationTimeout(overrun, execution)
    return execution


def _privileged(
    protocol: Protocol,
    graph: Graph,
    config: Configuration,
    rand_map: Optional[Mapping[NodeId, float]],
) -> Dict[NodeId, Tuple[Rule, View]]:
    """Every privileged node, in node order, with its enabled rule and
    the view that rule fires on — the full guard scan of the central,
    distributed and refined daemons."""
    out = {}
    for node in graph.nodes:
        view = build_view(protocol, graph, config, node, rand_map)
        rule = protocol.enabled_rule(view)
        if rule is not None:
            out[node] = (rule, view)
    return out


# ----------------------------------------------------------------------
# synchronous daemon (the paper's model)
# ----------------------------------------------------------------------
def _synchronous_pick(protocol: Protocol, graph: Graph, active_set: bool) -> Pick:
    """Every privileged node fires.

    The pick caches every privileged node's pending decision and, with
    ``active_set``, re-evaluates only the nodes whose closed
    neighbourhood changed in the previous round (see
    :func:`run_synchronous`); randomized protocols rescan every node.
    """
    track = active_set and not protocol.uses_randomness
    # decisions[i] = (rule name, new state) for every currently
    # privileged node i, valid for the current configuration; dirty is
    # the set of nodes whose entry must be recomputed this round.
    decisions: Dict[NodeId, Tuple[str, object]] = {}
    dirty: Sequence[NodeId] = graph.nodes

    def pick(current, rand_map, step):
        nonlocal dirty
        scanned = len(dirty)
        for node in dirty:
            view = build_view(protocol, graph, current, node, rand_map)
            rule = protocol.enabled_rule(view)
            if rule is None:
                decisions.pop(node, None)
            else:
                decisions[node] = (rule.name, rule.fire(view))
        fired = {node: decisions[node] for node in sorted(decisions)}
        if track and fired:
            touched = set()
            for node, (_, value) in fired.items():
                if current[node] != value:
                    touched.add(node)
                    touched.update(graph.neighbors(node))
            dirty = sorted(touched)
        return fired, scanned

    return pick


def run_synchronous(
    protocol: Protocol,
    graph: Graph,
    config: Optional[Mapping[NodeId, object]] = None,
    *,
    rng: RngLike = None,
    max_rounds: Optional[int] = None,
    record_history: bool = False,
    monitors: Sequence[Monitor] = (),
    raise_on_timeout: bool = False,
    active_set: bool = True,
    telemetry: bool = False,
    fault_plan=None,
) -> Execution:
    """Run under the synchronous daemon until no node is privileged.

    Every round, guards are evaluated on the current configuration and
    *all* privileged nodes fire simultaneously — the paper's beacon
    model, where each round every node has heard the current state of
    each neighbour.

    Parameters
    ----------
    config:
        Initial configuration; default is the protocol's clean start.
    max_rounds:
        Round budget (default ``10 n + 100``,
        :func:`_default_round_budget`).  On exhaustion a final
        randomness-free quiescence check runs (so a protocol that
        stabilizes exactly on its last budgeted round still reports
        ``stabilized=True``); otherwise the run is returned with
        ``stabilized=False`` — or raised as
        :class:`StabilizationTimeout` if ``raise_on_timeout``.
    record_history:
        Keep every intermediate configuration (memory ~ rounds × n).
    monitors:
        :class:`~repro.core.invariants.Monitor` objects called on the
        initial configuration and after every round.
    active_set:
        Re-evaluate only "dirty" nodes each round (see below).  Purely
        a performance knob: the produced :class:`Execution` is
        identical either way (pinned by ``tests/test_active_set.py``).
    telemetry:
        Attach a :class:`~repro.observability.RunTelemetry` record
        (per-round moves by rule, active-set sizes, the Fig. 2 node-type
        census for pointer-matching protocols, phase wall-clocks) to the
        returned execution.
    fault_plan:
        A :class:`~repro.resilience.FaultPlan` of scheduled mid-run
        fault events.  The run is then executed as a segmented fault
        campaign (:mod:`repro.resilience.campaign`): telemetry is always
        collected, per-event recovery metrics land in
        ``telemetry.fault_events``, and monitors are rejected.

    Notes
    -----
    A node's guards and actions read only its own and its neighbours'
    states, so its decision can change between rounds only if some node
    of its *closed neighbourhood* changed state (after round 1 the set
    of such nodes only shrinks — Lemmas 1–7).  The daemon's pick
    (:func:`_synchronous_pick`) therefore caches every node's pending
    decision and, per round, recomputes only the nodes whose closed
    neighbourhood changed in the previous round; all currently
    privileged nodes still fire simultaneously, so round semantics are
    byte-identical to the full scan.  Randomized protocols draw fresh
    variates every round, which invalidates every cached decision: they
    always run the full scan.
    """
    if fault_plan is not None:
        from repro.resilience.campaign import run_reference_campaign

        return run_reference_campaign(
            protocol,
            graph,
            config,
            fault_plan=fault_plan,
            rng=rng,
            max_rounds=max_rounds,
            record_history=record_history,
            monitors=monitors,
            raise_on_timeout=raise_on_timeout,
            active_set=active_set,
            telemetry=telemetry,
        )
    budget = _default_round_budget(graph) if max_rounds is None else max_rounds
    return _drive(
        protocol,
        graph,
        config,
        _synchronous_pick(protocol, graph, active_set),
        gen=ensure_rng(rng),
        budget=budget,
        daemon="synchronous",
        overrun=(
            f"{protocol.name} exceeded {budget} synchronous rounds"
            if raise_on_timeout
            else None
        ),
        record_history=record_history,
        monitors=monitors,
        telemetry=telemetry,
    )


# ----------------------------------------------------------------------
# central daemon
# ----------------------------------------------------------------------
def run_central(
    protocol: Protocol,
    graph: Graph,
    config: Optional[Mapping[NodeId, object]] = None,
    *,
    strategy: "str | CentralStrategy" = "random",
    rng: RngLike = None,
    max_moves: Optional[int] = None,
    record_history: bool = False,
    monitors: Sequence[Monitor] = (),
    raise_on_timeout: bool = False,
    telemetry: bool = False,
    fault_plan=None,
) -> Execution:
    """Run under the central daemon: one privileged node moves per step.

    This is the execution model of the Hsu–Huang baseline (and of most
    classical self-stabilization results).  ``strategy`` picks the
    mover; see :mod:`repro.core.daemons`.  ``rounds`` in the returned
    execution equals ``moves`` (each step is one move; a randomized
    protocol's unlucky zero-move draws consume budget but add no move).
    On budget exhaustion a final randomness-free quiescence check runs,
    as in :func:`run_synchronous`.
    """
    if fault_plan is not None:
        raise ExperimentError(
            "fault campaigns run under the synchronous daemon only; "
            "the plan's round schedule has no meaning for central steps"
        )
    gen = ensure_rng(rng)
    chooser = make_strategy(strategy)
    chooser.reset()

    def pick(current, rand_map, step):
        privileged = _privileged(protocol, graph, current, rand_map)
        if not privileged:
            return {}, graph.n
        node = chooser.choose(tuple(privileged), current, graph, step, gen)
        rule, view = privileged[node]
        return {node: (rule.name, rule.fire(view))}, graph.n

    budget = max_moves if max_moves is not None else 4 * graph.n * graph.n + 100
    return _drive(
        protocol,
        graph,
        config,
        pick,
        gen=gen,
        budget=budget,
        daemon=f"central:{type(chooser).__name__}",
        overrun=(
            f"{protocol.name} exceeded {budget} central-daemon moves"
            if raise_on_timeout
            else None
        ),
        record_history=record_history,
        monitors=monitors,
        telemetry=telemetry,
        idle_rounds=False,
    )


# ----------------------------------------------------------------------
# distributed daemon
# ----------------------------------------------------------------------
def run_distributed(
    protocol: Protocol,
    graph: Graph,
    config: Optional[Mapping[NodeId, object]] = None,
    *,
    rng: RngLike = None,
    activation_probability: float = 0.5,
    max_steps: Optional[int] = None,
    record_history: bool = False,
    monitors: Sequence[Monitor] = (),
    raise_on_timeout: bool = False,
    telemetry: bool = False,
    fault_plan=None,
) -> Execution:
    """Run under a randomized distributed daemon.

    Each step, every privileged node is *activated* independently with
    probability ``activation_probability``; if the coin flips produce an
    empty set, one privileged node is activated uniformly at random so
    that the daemon is live.  All activated nodes fire simultaneously
    against the pre-step configuration.

    Steps are counted like synchronous rounds: every tick elapsed
    counts, including ticks in which a randomized protocol's unlucky
    draws privileged nobody (empty ``{}`` move-log entries).  On budget
    exhaustion a final randomness-free quiescence check runs, as in
    :func:`run_synchronous`.

    This daemon interpolates between the central daemon (p → 0) and the
    synchronous daemon (p = 1); tests use it to probe robustness of the
    protocols outside the paper's model.
    """
    if fault_plan is not None:
        raise ExperimentError(
            "fault campaigns run under the synchronous daemon only; "
            "the plan's round schedule has no meaning for distributed steps"
        )
    if not 0.0 <= activation_probability <= 1.0:
        raise ValueError("activation_probability must lie in [0, 1]")
    gen = ensure_rng(rng)

    def pick(current, rand_map, step):
        privileged = _privileged(protocol, graph, current, rand_map)
        if not privileged:
            return {}, graph.n
        enabled = tuple(privileged)
        mask = gen.random(len(enabled)) < activation_probability
        active = [node for node, m in zip(enabled, mask) if m]
        if not active:
            active = [enabled[int(gen.integers(len(enabled)))]]
        fired = {}
        for node in active:
            rule, view = privileged[node]
            fired[node] = (rule.name, rule.fire(view))
        return fired, graph.n

    budget = max_steps if max_steps is not None else 20 * graph.n + 200
    return _drive(
        protocol,
        graph,
        config,
        pick,
        gen=gen,
        budget=budget,
        daemon="distributed",
        overrun=(
            f"{protocol.name} exceeded {budget} distributed steps"
            if raise_on_timeout
            else None
        ),
        record_history=record_history,
        monitors=monitors,
        telemetry=telemetry,
    )
