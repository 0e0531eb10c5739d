"""The one result type every execution backend returns.

:class:`RunResult` is the unified record of a protocol run, whatever
produced it — the reference view-based engine, a vectorized NumPy
kernel, or a batch kernel.  The *summary* fields (stabilization flag,
round/move accounting, initial/final configurations, legitimacy) are
always populated; the *trace* fields (``move_log``, ``history``) are
populated only when the backend can produce them (``None`` otherwise —
the backend's registered capabilities say which, see
:mod:`repro.engine.registry`).

``legitimate`` means ``protocol.is_legitimate(graph, final)`` for
every backend.  The reference engine evaluates that predicate; the SMM
and SIS kernels read it off their final arrays as "no rule enabled",
which equals it by Lemma 8 (SIS's predicate is its rules' fixpoint) and
is pinned by ``tests/test_kernel_legitimacy.py``.

:class:`repro.core.executor.Execution` is a thin deprecated subclass
kept for backward compatibility; new code should type against
:class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import ExperimentError, StabilizationTimeout
from repro.types import NodeId

if TYPE_CHECKING:  # import-light on purpose: repro.core.executor
    # imports this module, so importing repro.core here would cycle.
    from repro.core.configuration import Configuration
    from repro.observability import RunTelemetry


@dataclass
class RunResult:
    """Record of one protocol run, backend-independent.

    Attributes
    ----------
    protocol_name / daemon:
        What ran and under which daemon ("synchronous", "central:<strategy>",
        "distributed", "sync-central-refined:<priority>").
    stabilized:
        True iff a configuration with no privileged node was reached
        within the budget.
    rounds:
        Daemon ticks *elapsed* before quiescence was detected (the
        paper's round notion): under the synchronous, distributed and
        synchronized-central daemons every round counts — including
        rounds in which a randomized protocol moved no node (the
        beacons were still exchanged; such rounds appear as ``{}``
        entries in ``move_log``).  Central daemon: equals ``moves``
        (one move per step by definition; a randomized protocol's
        unlucky zero-move draws consume budget but are not counted).
    moves:
        Total rule firings.
    moves_by_rule:
        Firing count per rule name.
    initial / final:
        First and last configurations.
    move_log:
        ``move_log[t]`` maps each node that moved in round/step ``t`` to
        the rule name it fired — or ``None`` when the backend does not
        record per-move traces (the kernels).
    history:
        When recorded: ``history[0]`` is the initial configuration and
        ``history[t]`` the configuration after round/step ``t`` (so
        ``history[-1] == final``).  ``None`` when not recorded.
    legitimate:
        Whether the final configuration satisfies the protocol's global
        predicate (evaluated once at the end, identically for every
        backend).
    backend:
        Name of the backend that produced this result (``"reference"``,
        ``"vectorized"``, ``"batch"``, ...).
    telemetry:
        :class:`~repro.observability.RunTelemetry` when the run was
        made with ``telemetry=True`` (per-round moves by rule, node-type
        census, phase wall-clocks); ``None`` otherwise.  Every built-in
        backend advertises the ``"telemetry"`` capability, so requesting
        it never forces a run off the fast path.
    trace:
        Exported span dicts (:mod:`repro.observability.tracing`) when
        the run was traced in a worker process — the fragment rides the
        pickled result back to the parent, which grafts it into the
        sweep's trace; ``None`` otherwise (in-process traced runs
        record into the ambient tracer directly).
    bound_ok:
        Verdict of the paper-bound conformance gate, stamped by
        :func:`repro.observability.convergence.attach_convergence` when
        the run was made with ``convergence=True``: ``True`` when the
        observed rounds/moves respect the applicable theorem bound,
        ``False`` when the run provably exceeded it, ``None`` when no
        bound applies (protocol/daemon pair outside Theorems 1–2 and
        Hsu–Huang), the budget cut the run below the bound, or
        convergence was not collected.
    elapsed:
        Wall-clock seconds of the backend call, stamped by
        :func:`repro.engine.run` in the executing process (two
        ``perf_counter`` reads — free).  The metrics layer's
        ``repro_trial_latency_seconds`` histogram observes this, so
        latency needs no telemetry collection.  ``None`` for results
        built outside the engine front door (deserialized checkpoints,
        hand-constructed records).  Non-deterministic by nature; never
        compared, never serialized.
    """

    protocol_name: str
    daemon: str
    stabilized: bool
    rounds: int
    moves: int
    moves_by_rule: Dict[str, int]
    initial: Configuration
    final: Configuration
    move_log: Optional[List[Dict[NodeId, str]]] = None
    history: Optional[List[Configuration]] = None
    legitimate: bool = False
    backend: str = "reference"
    telemetry: Optional[RunTelemetry] = None
    trace: Optional[List[dict]] = None
    bound_ok: Optional[bool] = None
    elapsed: Optional[float] = None

    def rounds_to_stabilize(self) -> int:
        """Rounds actually needed (alias of :attr:`rounds`); raises if
        the run did not stabilize."""
        if not self.stabilized:
            raise StabilizationTimeout(
                f"{self.protocol_name} did not stabilize within budget", self
            )
        return self.rounds

    def moved_nodes(self) -> frozenset[NodeId]:
        """All nodes that fired at least one rule during the run.

        Requires a backend that records the move log (capability
        ``"move_log"``); kernel results raise."""
        if self.move_log is None:
            raise ExperimentError(
                f"the {self.backend!r} backend recorded no move log for "
                f"{self.protocol_name}; use backend='reference'"
            )
        out: set[NodeId] = set()
        for entry in self.move_log:
            out.update(entry)
        return frozenset(out)
