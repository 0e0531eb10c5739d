"""Backend selection and the engine's single dispatch path.

:func:`run` is the front door every caller — trial specs, the CLI, the
experiments — goes through:

* ``backend="auto"`` walks the registered backends of the protocol in
  priority order and picks the first whose ``supports`` predicate
  accepts the concrete run.  In practice: the vectorized kernel for
  plain SMM/SIS/Luby runs with no monitors, no history recording and no
  injected choosers; the reference engine otherwise.
* ``backend="reference"`` / ``"vectorized"`` force one backend
  explicitly (benchmarks, equivalence tests); an explicit backend that
  cannot honour the run's requirements raises rather than silently
  degrading.

Every backend returns the same :class:`~repro.engine.result.RunResult`
type and identical summary semantics — cross-backend equivalence
(byte-identical final configuration, round count and per-rule move
counts) is pinned by ``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.engine import registry
from repro.engine.result import RunResult
from repro.errors import ExperimentError


def _resolve_protocol(protocol) -> tuple[Optional[str], object]:
    """``(registry key, instance)`` from a name or an instance."""
    if isinstance(protocol, str):
        return protocol, registry.make_protocol(protocol)
    return registry.protocol_key(protocol), protocol


def select_backend(
    protocol: object,
    graph,
    config=None,
    *,
    key: Optional[str] = None,
    daemon: str = "synchronous",
    backend: str = "auto",
    record_history: bool = False,
    **options,
) -> registry.Backend:
    """The backend :func:`run` would dispatch this call to.

    ``protocol`` is a protocol *instance* (use :func:`run` for names).
    Raises :class:`ExperimentError` for an unknown explicit backend, or
    an explicit backend whose ``supports`` predicate rejects the run.
    """
    if key is None:
        key = registry.protocol_key(protocol)
    query: dict = dict(options)
    query["record_history"] = record_history
    if backend == "auto":
        if key is not None:
            for candidate in registry.backends_for(key, daemon):
                if candidate.supports(protocol, graph, config, query):
                    return candidate
        # unregistered protocol type: the reference engine runs anything
        return registry.reference_backend(key or "?", daemon)
    if key is None:
        if backend == "reference":
            return registry.reference_backend("?", daemon)
        raise ExperimentError(
            f"backend {backend!r} requires a registered protocol; "
            f"register_protocol() the type of {type(protocol).__name__} first"
        )
    chosen = registry.get_backend(key, daemon, backend)
    if not chosen.supports(protocol, graph, config, query):
        wanted = sorted(k for k, v in query.items() if v)
        raise ExperimentError(
            f"backend {backend!r} does not support this run of {key!r}"
            + (f" (requested: {wanted})" if wanted else "")
            + "; use backend='reference' or backend='auto'"
        )
    return chosen


#: Option name → the registry capability it requires.  Options not
#: listed here require a capability of their own name (``monitors`` →
#: ``"monitors"``, ``telemetry`` → ``"telemetry"``, ``active_set`` →
#: ``"active_set"``, an injected chooser or daemon strategy → itself),
#: which only backends that implement them advertise.
_OPTION_CAPABILITIES = {"record_history": "history", "fault_plan": "faults"}


def fallback_backend(
    protocol: str,
    daemon: str = "synchronous",
    backend: str = "reference",
    *,
    record_history: bool = False,
    monitors: object = (),
    telemetry: bool = False,
    **options: object,
) -> str:
    """Statically degrade a *requested* backend name to ``"reference"``
    when it is not registered for ``(protocol, daemon)`` or lacks a
    needed capability.

    Experiments use this when building heterogeneous spec batches
    (e.g. E5 mixes SMM with central-daemon Hsu–Huang): the user's
    ``--backend vectorized`` applies where it exists and the rest run
    on the reference engine instead of erroring.  ``"auto"`` and
    ``"reference"`` pass through untouched — ``auto`` already degrades
    per run, dynamically.

    *Every* truthy capability-bearing option degrades, not just
    ``record_history``: ``monitors``, the ``telemetry`` flag, and any
    extra runner option (mapped to a capability via
    :data:`_OPTION_CAPABILITIES`, or to a capability of its own name).
    Since every built-in backend advertises ``"telemetry"``,
    ``telemetry=True`` alone never degrades.

    A degradation increments ``repro_backend_fallbacks_total`` in the
    ambient metrics registry (when one is installed) — fallbacks are
    visible, never silent.
    """
    if backend in ("auto", "reference"):
        return backend
    found = registry.BACKENDS.get((protocol, daemon, backend))
    requested = dict(options)
    # Convergence monitoring is computed post-run by the engine front
    # door from the telemetry record, so the only capability it needs
    # from the backend is "telemetry" — which every built-in backend
    # advertises.  Fold it in rather than letting an unknown option
    # degrade vectorized runs.
    if requested.pop("convergence", False):
        telemetry = True
    requested["record_history"] = record_history
    requested["monitors"] = monitors
    requested["telemetry"] = telemetry
    degraded = found is None
    if not degraded:
        for option, value in requested.items():
            if not value:
                continue
            capability = _OPTION_CAPABILITIES.get(option, option)
            if capability not in found.capabilities:
                degraded = True
                break
    if not degraded:
        return backend
    from repro.observability import metrics as _metrics

    registry_now = _metrics.current_registry()
    if registry_now is not None:
        registry_now.counter(
            "repro_backend_fallbacks_total",
            "Requested backends statically degraded to the reference "
            "engine (missing registration or capability)",
        ).inc(protocol=protocol, requested=backend)
    return "reference"


def run(
    protocol,
    graph,
    config=None,
    *,
    daemon: str = "synchronous",
    backend: str = "auto",
    rng=None,
    max_rounds: Optional[int] = None,
    record_history: bool = False,
    raise_on_timeout: bool = False,
    **options,
) -> RunResult:
    """Run ``protocol`` on ``graph`` through the selected backend.

    Parameters
    ----------
    protocol:
        A registered protocol name (``"smm"``, ``"sis"``, ...) or a
        protocol instance.
    daemon:
        One of :data:`repro.engine.registry.DAEMONS`.
    backend:
        ``"auto"`` (default; highest-priority applicable backend, the
        reference engine as the universal fallback) or an explicit
        registered backend name.
    rng / max_rounds / record_history / raise_on_timeout / options:
        Forwarded to the backend runner.  ``max_rounds`` is the budget
        whatever the daemon calls it (moves for central, steps for
        distributed); each backend applies the reference engine's
        documented default when omitted.  Extra ``options`` (monitors,
        daemon strategy, ``active_set``, ``telemetry=True``, ...)
        participate in backend selection: a backend that cannot honour
        them is skipped by ``auto`` and rejected when explicit.  Every
        built-in backend implements ``telemetry``, so requesting it
        keeps plain SMM/SIS runs on the vectorized kernel.
        ``convergence=True`` is consumed by the front door itself: it
        implies ``telemetry=True`` and, after the backend returns,
        attaches the proof-aware convergence record
        (:mod:`repro.observability.convergence`) and stamps
        ``result.bound_ok`` — identically for every backend.

    Returns
    -------
    RunResult
        With ``result.backend`` naming the backend that ran.

    Notes
    -----
    When a tracer is ambiently installed
    (:func:`repro.observability.use_tracer` — the CLI's ``--trace``),
    the call is wrapped in a ``run:<protocol>`` span.  Runs that carry
    telemetry — ``telemetry=True``, or a fault campaign (which always
    attaches it) — additionally get ``setup`` / ``rounds`` /
    ``finalize`` phase children synthesized from the telemetry
    wall-clocks.  Tracing never asks the backend for anything: a plain
    traced run stays on the exact code path of an untraced one (span
    bookkeeping is two clock reads around the call), which is what
    keeps the observability overhead inside the benchmark pin
    (``benchmarks/test_bench_observability.py``).

    Every result is stamped with ``elapsed`` — the wall-clock of the
    backend call — which the metrics layer turns into the
    ``repro_trial_latency_seconds`` histogram without collecting
    telemetry.
    """
    key, instance = _resolve_protocol(protocol)
    if daemon not in registry.DAEMONS:
        raise ExperimentError(
            f"unknown daemon {daemon!r}; known: {list(registry.DAEMONS)}"
        )
    # convergence=True is an engine-level request, not a backend
    # capability: it forces telemetry on (the monitors derive from the
    # census / per-round counters) and the front door attaches the
    # convergence record after the backend returns — identically for
    # every backend, which is what makes the record byte-identical.
    convergence = bool(options.pop("convergence", False))
    if convergence:
        options["telemetry"] = True
    chosen = select_backend(
        instance,
        graph,
        config,
        key=key,
        daemon=daemon,
        backend=backend,
        record_history=record_history,
        **options,
    )
    from repro.observability import tracing

    tracer = tracing.current_tracer()
    span = None
    if tracer is not None:
        span = tracer.begin(
            f"run:{key or type(instance).__name__}",
            protocol=key or type(instance).__name__,
            daemon=daemon,
            backend=chosen.name,
        )
    start = time.perf_counter()
    try:
        result = chosen.runner(
            instance,
            graph,
            config,
            rng=rng,
            max_rounds=max_rounds,
            record_history=record_history,
            raise_on_timeout=raise_on_timeout,
            **options,
        )
    finally:
        if span is not None:
            tracer.end(span)
    result.elapsed = time.perf_counter() - start
    if span is not None:
        span.attrs.update(
            rounds=result.rounds,
            moves=result.moves,
            stabilized=result.stabilized,
            n=getattr(graph, "n", None),
        )
        _add_phase_spans(span, result.telemetry)
    result.backend = chosen.name
    if convergence:
        from repro.observability.convergence import attach_convergence

        attach_convergence(result, graph)
    return result


def _add_phase_spans(span, telemetry) -> None:
    """Synthesize ``setup``/``rounds``/``finalize`` children of a run
    span from the telemetry phase wall-clocks.

    The recorder's phases are sequential, so the children tile the run
    span: setup from the start, finalize up to the end, rounds the
    stretch between — which by construction contains any fault-event
    spans the campaign driver recorded live during stepping.
    """
    if telemetry is None or not telemetry.timings:
        return
    start, end = span.ts, span.ts + span.dur
    setup = float(telemetry.timings.get("setup", 0.0))
    finalize = float(telemetry.timings.get("finalize", 0.0))
    rounds_start = min(start + setup, end)
    rounds_end = max(end - finalize, rounds_start)
    span.child("phase:setup", start, rounds_start - start)
    span.child(
        "phase:rounds",
        rounds_start,
        rounds_end - rounds_start,
        rounds=telemetry.rounds,
    )
    span.child("phase:finalize", rounds_end, end - rounds_end)
