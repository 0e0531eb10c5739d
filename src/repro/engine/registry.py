"""Protocol and backend registries for the unified execution engine.

Two registries, both plain-data and extensible:

* :data:`PROTOCOLS` — name → protocol *factory* (factories, not
  instances, because rule closures are not picklable: each worker
  process rebuilds the protocol locally).  This is the registry that
  used to live in ``repro.parallel.trial_runner``; it is re-exported
  there for compatibility.
* :data:`BACKENDS` — ``(protocol, daemon, backend)`` → :class:`Backend`:
  a runner callable plus a capability set and a ``supports`` predicate.
  Registering a protocol automatically registers the reference engine
  as its ``"reference"`` backend under every daemon; kernels register
  explicitly with higher priority so ``backend="auto"`` selection
  (:mod:`repro.engine.select`) prefers them when they apply.

Everything here is import-light by design: protocol factories and
backend runners import their implementation modules lazily inside the
call, so ``repro.engine`` can be imported from anywhere (including
``repro.core.executor``) without cycles.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.engine.result import RunResult
from repro.errors import ExperimentError

#: daemon -> (module, reference entry point, budget keyword).  The
#: entry point is looked up as a module attribute on every call, so a
#: runner wrapped or patched after import is the one that runs.
_REFERENCE_RUNNERS: Dict[str, Tuple[str, str, str]] = {
    "synchronous": ("repro.core.executor", "run_synchronous", "max_rounds"),
    "central": ("repro.core.executor", "run_central", "max_moves"),
    "synchronized-central": (
        "repro.core.transform",
        "run_synchronized_central",
        "max_rounds",
    ),
    "distributed": ("repro.core.executor", "run_distributed", "max_steps"),
}

#: Daemons the engine can dispatch to.
DAEMONS: Tuple[str, ...] = tuple(_REFERENCE_RUNNERS)

#: Registered protocol factories, keyed by the names trial specs carry.
PROTOCOLS: Dict[str, Callable[[], object]] = {}

#: Capabilities of the reference engine: it can do everything.
REFERENCE_CAPABILITIES = frozenset(
    {"move_log", "history", "monitors", "rng", "active_set", "telemetry",
     "faults"}
)

Runner = Callable[..., RunResult]
SupportsFn = Callable[[object, object, object, Mapping[str, object]], bool]


@dataclass(frozen=True)
class Backend:
    """One registered way to execute one protocol under one daemon.

    ``runner(protocol, graph, config, *, rng, max_rounds,
    record_history, raise_on_timeout, **options)`` must return a
    :class:`~repro.engine.result.RunResult`.  ``capabilities`` is a
    static advertisement (``"move_log"``, ``"history"``, ...);
    ``supports`` is the dynamic predicate ``backend="auto"`` consults —
    it sees the concrete protocol instance, graph, configuration and
    the merged option mapping (including ``record_history`` and
    ``monitors``) and must return whether this backend reproduces the
    reference semantics for that run.
    """

    protocol: str
    daemon: str
    name: str
    runner: Runner
    capabilities: frozenset = frozenset()
    priority: int = 0
    supports_fn: Optional[SupportsFn] = None

    def supports(
        self,
        protocol: object,
        graph: object,
        config: object = None,
        options: Mapping[str, object] = {},
    ) -> bool:
        if self.supports_fn is None:
            return True
        return self.supports_fn(protocol, graph, config, options)


#: (protocol, daemon, backend-name) → Backend
BACKENDS: Dict[Tuple[str, str, str], Backend] = {}


# ----------------------------------------------------------------------
# protocol registry
# ----------------------------------------------------------------------
def register_protocol(name: str, factory: Callable[[], object]) -> None:
    """Register a protocol factory for use in trial specs and
    :func:`repro.engine.run`.

    The reference engine is automatically registered as the
    ``"reference"`` backend of the protocol under every daemon.
    """
    PROTOCOLS[name] = factory
    for daemon in DAEMONS:
        key = (name, daemon, "reference")
        if key not in BACKENDS:
            BACKENDS[key] = reference_backend(name, daemon)


def make_protocol(name: str) -> object:
    """Build a fresh protocol instance from its registered name."""
    try:
        factory = PROTOCOLS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}"
        ) from None
    return factory()


def protocol_key(protocol: object) -> Optional[str]:
    """The registered name whose factory builds this protocol's exact
    type, or ``None``.

    Used to look up backends when :func:`repro.engine.run` is handed a
    protocol *instance*; backend ``supports`` predicates still vet the
    instance (e.g. injected choosers disqualify the kernels).
    """
    for name, factory in PROTOCOLS.items():
        try:
            if type(factory()) is type(protocol):
                return name
        except Exception:  # pragma: no cover - defensive: bad factory
            continue
    return None


# ----------------------------------------------------------------------
# backend registry
# ----------------------------------------------------------------------
def register_backend(
    protocol: str,
    daemon: str,
    name: str,
    runner: Runner,
    *,
    capabilities: frozenset = frozenset(),
    priority: int = 0,
    supports: Optional[SupportsFn] = None,
) -> None:
    """Register (or replace) a backend for ``(protocol, daemon)``."""
    BACKENDS[(protocol, daemon, name)] = Backend(
        protocol=protocol,
        daemon=daemon,
        name=name,
        runner=runner,
        capabilities=frozenset(capabilities),
        priority=priority,
        supports_fn=supports,
    )


def get_backend(protocol: str, daemon: str, name: str) -> Backend:
    """Look up one backend; raises :class:`ExperimentError` if absent."""
    try:
        return BACKENDS[(protocol, daemon, name)]
    except KeyError:
        known = backend_names(protocol, daemon)
        raise ExperimentError(
            f"unknown backend {name!r} for protocol {protocol!r} under the "
            f"{daemon!r} daemon; registered: {known}"
        ) from None


def backends_for(protocol: str, daemon: str = "synchronous") -> List[Backend]:
    """All backends registered for ``(protocol, daemon)``, highest
    priority first (name-ordered within a priority tier)."""
    found = [
        b
        for (p, d, _), b in BACKENDS.items()
        if p == protocol and d == daemon
    ]
    return sorted(found, key=lambda b: (-b.priority, b.name))


def backend_names(protocol: str, daemon: str = "synchronous") -> List[str]:
    """Registered backend names for ``(protocol, daemon)``."""
    return [b.name for b in backends_for(protocol, daemon)]


# ----------------------------------------------------------------------
# the reference backend (works for every protocol)
# ----------------------------------------------------------------------
def _reference_runner(daemon: str) -> Runner:
    def runner(
        protocol,
        graph,
        config=None,
        *,
        rng=None,
        max_rounds=None,
        record_history=False,
        raise_on_timeout=False,
        **options,
    ) -> RunResult:
        if daemon not in _REFERENCE_RUNNERS:  # pragma: no cover - guarded upstream
            raise ExperimentError(
                f"unknown daemon {daemon!r}; known: {list(DAEMONS)}"
            )
        module, entry, budget_keyword = _REFERENCE_RUNNERS[daemon]
        return getattr(importlib.import_module(module), entry)(
            protocol,
            graph,
            config,
            rng=rng,
            record_history=record_history,
            raise_on_timeout=raise_on_timeout,
            **{budget_keyword: max_rounds},
            **options,
        )

    return runner


def reference_backend(protocol: str, daemon: str) -> Backend:
    """A reference-engine :class:`Backend` for ``(protocol, daemon)``.

    Always available — the reference engine runs any protocol under any
    daemon; ``supports`` is unconditionally true."""
    return Backend(
        protocol=protocol,
        daemon=daemon,
        name="reference",
        runner=_reference_runner(daemon),
        capabilities=REFERENCE_CAPABILITIES,
        priority=0,
    )


# ----------------------------------------------------------------------
# built-in registrations (all lazy — nothing imported until called)
# ----------------------------------------------------------------------
def _factory(module: str, attr: str) -> Callable[[], object]:
    def make() -> object:
        return getattr(importlib.import_module(module), attr)()

    return make


def _kernel_runner(module: str, cls_name: str) -> Runner:
    """The shared kernel adapter (:func:`repro.kernels.run_engine`)
    bound to one kernel class, imported on first call."""

    def runner(*args, **kwargs) -> RunResult:
        from repro.kernels import run_engine

        kernel_cls = getattr(importlib.import_module(module), cls_name)
        return run_engine(kernel_cls, *args, **kwargs)

    return runner


def _options_ok(options: Mapping[str, object], allowed: frozenset) -> bool:
    """A kernel supports a run only when every truthy option is one it
    implements (``monitors=()``, ``record_history=False`` are falsy and
    therefore always fine)."""
    return all(key in allowed or not value for key, value in options.items())


def _supports_kernel(type_path: str, allowed: frozenset = frozenset()):
    """Supports-predicate for a kernel: the protocol must be exactly the
    published type (no subclass, no injected choosers — see the SMM
    special case below) and no unsupported option may be requested."""
    module, _, cls_name = type_path.rpartition(".")

    def supports(protocol, graph, config, options) -> bool:
        cls = getattr(importlib.import_module(module), cls_name)
        return type(protocol) is cls and _options_ok(options, allowed)

    return supports


def _supports_plain_smm(allowed: frozenset = frozenset()):
    """The SMM kernels hardwire min-id choice in R1 and R2, so they
    apply only to :class:`SynchronousMaximalMatching` instances whose
    choosers are both the published ``min_id_chooser``."""

    def supports(protocol, graph, config, options) -> bool:
        from repro.matching.smm import SynchronousMaximalMatching, min_id_chooser

        return (
            type(protocol) is SynchronousMaximalMatching
            and protocol._accept is min_id_chooser
            and protocol._propose is min_id_chooser
            and _options_ok(options, allowed)
        )

    return supports


def _make_arbitrary_clockwise() -> object:
    from repro.matching.variants import (
        ArbitraryChoiceSMM,
        cyclic_successor_chooser,
    )

    return ArbitraryChoiceSMM(cyclic_successor_chooser)


def _make_smm_max_accept() -> object:
    from repro.matching.smm import SynchronousMaximalMatching, max_id_chooser

    return SynchronousMaximalMatching(accept_chooser=max_id_chooser)


def _register_builtins() -> None:
    # protocols (factories — instances are rebuilt in each worker)
    register_protocol(
        "smm", _factory("repro.matching.smm", "SynchronousMaximalMatching")
    )
    register_protocol(
        "sis", _factory("repro.mis.sis", "SynchronousMaximalIndependentSet")
    )
    register_protocol(
        "hsu-huang", _factory("repro.matching.hsu_huang", "HsuHuangMatching")
    )
    register_protocol("luby", _factory("repro.mis.variants", "LubyStyleMIS"))
    register_protocol(
        "mis-central", _factory("repro.mis.variants", "CentralDaemonMIS")
    )
    register_protocol(
        "smm-randomized", _factory("repro.matching.variants", "RandomizedSMM")
    )
    register_protocol("smm-arbitrary-clockwise", _make_arbitrary_clockwise)
    register_protocol("smm-max-accept", _make_smm_max_accept)

    # kernel backends (one shared adapter, bound to each kernel class).
    # every kernel implements cheap telemetry collection (it already
    # computes the per-rule counts; recording them is nearly free), so
    # requesting telemetry never disqualifies the fast path.
    telemetry = frozenset({"telemetry"})
    active = frozenset({"active_set"}) | telemetry
    # the vectorized SMM/SIS kernels also run fault campaigns on the
    # dense arrays; "faults" is the capability, "fault_plan" the option
    # name their supports-predicates must whitelist
    faulty = active | frozenset({"faults"})
    faulty_options = active | frozenset({"fault_plan"})
    register_backend(
        "smm",
        "synchronous",
        "vectorized",
        _kernel_runner("repro.matching.smm_vectorized", "VectorizedSMM"),
        capabilities=faulty,
        priority=20,
        supports=_supports_plain_smm(faulty_options),
    )
    register_backend(
        "sis",
        "synchronous",
        "vectorized",
        _kernel_runner("repro.mis.sis_vectorized", "VectorizedSIS"),
        capabilities=faulty,
        priority=20,
        supports=_supports_kernel(
            "repro.mis.sis.SynchronousMaximalIndependentSet", faulty_options
        ),
    )
    register_backend(
        "luby",
        "synchronous",
        "vectorized",
        _kernel_runner("repro.mis.luby_vectorized", "VectorizedLuby"),
        capabilities=frozenset({"rng"}) | telemetry,
        priority=20,
        supports=_supports_kernel("repro.mis.variants.LubyStyleMIS", telemetry),
    )


_register_builtins()
