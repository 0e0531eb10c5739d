"""Fan independent protocol trials across worker processes.

The unit of work is a :class:`TrialSpec` — plain data that fully
determines one protocol run.  :func:`execute_trial` is a pure function
of the spec: protocols are rebuilt by *name* (rule closures don't
pickle) and any randomness flows from the spec's integer ``seed``
through :mod:`repro.rng`, so a trial's result is bit-identical whether
it runs inline or in any worker process.  That property is what lets
the experiments keep their "reproducible from one seed" contract while
scaling across cores; it is pinned by ``tests/test_parallel.py``.

One scheduler
-------------
:meth:`TrialRunner.map` runs a sweep in three steps:

1. trials already in a resume ``checkpoint`` are loaded;
2. **batch-sweep dispatch** (:mod:`repro.parallel.batch_sweep`) runs
   each group of same-(protocol, graph, budget) synchronous specs as
   one ``(k, n)`` batch-kernel call in the calling process, with
   results bit-identical to per-trial execution (pinned by
   ``tests/test_engine_equivalence.py``).  A traced sweep needs
   per-trial execution and skips it, visibly: see
   ``repro_batch_sweep_fallbacks_total``;
3. the remaining trials run inline when ``jobs == 1`` (or one trial is
   left) and no resilience policy is set, and otherwise on up to
   ``jobs`` long-lived worker processes.

Workers are forked from an explicit ``fork`` context once the spec list
is final, so each worker inherits the specs — graphs included — and
only trial indices and results cross its pipe.  Without a ``timeout`` a
worker is sent chunks of indices (a quarter of its fair share at a
time); with one it is sent one index at a time, so the deadline is per
trial.

Resilience policies
-------------------
Long sweeps die to one hung trial or one OOM-killed worker; ``timeout``
/ ``retries`` / ``checkpoint`` make them policies of the same loop:

* a trial's *own* exception is deterministic and is never retried;
* a trial that runs past ``timeout`` wall-clock seconds, or whose
  worker dies (signal, OOM kill), is retried on a fresh worker up to
  ``retries`` times with ``backoff * 2**attempt`` seconds between
  attempts.  The timed-out or dead worker is killed and replaced; a
  death charges the trial the worker was running and requeues the rest
  of its chunk uncharged;
* with any policy set, a trial that fails for good becomes a
  :class:`FailedTrial` record in its slot instead of aborting the
  sweep.  Without one, the sweep raises: the trial's own exception, or
  a ``RuntimeError`` naming the failure (``WorkerDeath``) when the
  exception did not survive pickling or there was none;
* with ``checkpoint=PATH``, every outcome — inline, worker, batched or
  failed — is appended to a JSONL file keyed by ``(index, spec
  fingerprint)``; re-running with the same path resumes a killed
  sweep, executing only the missing trials (stale or corrupt lines are
  ignored and re-run).

A ``timeout`` bounds trials that run in workers, not batch groups: a
group runs in the calling process, bounded by its resolved round
budget.

Long-lived owners
-----------------
A sweep does not have to be a run-to-completion black box.  Two hooks
let a persistent owner — the ``repro serve`` control plane
(:mod:`repro.serve`), or any other daemon embedding the runner — drive
it incrementally:

* ``on_result`` is called once per trial as its outcome lands
  (``on_result(index, outcome, resumed)``), including trials restored
  from a resume checkpoint (``resumed=True``) and trials answered by
  batch-sweep dispatch.  Results are unchanged; the callback only
  observes them.
* ``cancel`` is a :class:`threading.Event`; once set, the runner stops
  dispatching, kills its workers, and raises :class:`SweepCancelled`.
  Work already checkpointed stays checkpointed, so a cancelled job
  resumes exactly where it stopped.

With a resilience policy set, the runner additionally turns a
``SIGTERM`` (main thread, default disposition only) into a third stop
reason next to ``cancel`` and ``deadline``: the scheduler raises
:class:`SweepInterrupted` at its next poll point, so a killed process
unwinds through its ``finally`` blocks — the checkpoint JSONL is
flushed and closed, the workers are stopped — and exits with the
conventional ``128 + signum``.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as _connection_wait
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine.registry import PROTOCOLS, register_protocol
from repro.engine.result import RunResult
from repro.graphs.graph import Graph
from repro.types import NodeId

__all__ = [
    "PROTOCOLS",
    "FailedTrial",
    "SweepCancelled",
    "SweepInterrupted",
    "TrialRunner",
    "TrialSpec",
    "execute_trial",
    "register_protocol",
    "resolve_jobs",
    "run_trials",
    "spec_fingerprint",
]

#: Signature of the :class:`TrialRunner` progress callback:
#: ``(index, outcome, resumed)`` — the spec index, its
#: :class:`~repro.engine.result.RunResult` or :class:`FailedTrial`, and
#: whether it was restored from a resume checkpoint rather than run.
OnResult = Callable[[int, Union[RunResult, "FailedTrial"], bool], None]


class SweepCancelled(RuntimeError):
    """Raised by :meth:`TrialRunner.map` when its ``cancel`` event is
    set mid-sweep, or its ``deadline`` passes.  Completed trials are
    already checkpointed (when a checkpoint is set) and reported through
    ``on_result``; re-running with the same checkpoint resumes from
    where the cancel landed.

    ``reason`` distinguishes the trigger: ``"cancel"`` (owner set the
    event) vs ``"deadline"`` (wall clock passed ``deadline``), so an
    owner like :class:`repro.serve.jobs.JobManager` can classify the
    unwind without racing re-reads of the event.
    """

    def __init__(self, message: str = "sweep cancelled", *,
                 reason: str = "cancel") -> None:
        super().__init__(message)
        self.reason = reason


class SweepInterrupted(SystemExit):
    """``SIGTERM`` during a resilient sweep, raised at the scheduler's
    next poll point so the sweep unwinds orderly — checkpoint flushed
    and closed, workers stopped — before the process exits with the
    conventional ``128 + signum`` status."""

    def __init__(self, signum: int) -> None:
        super().__init__(128 + int(signum))
        self.signum = int(signum)


#: Longest the scheduler blocks between stop-reason checks, and the
#: interval at which an idle worker checks that its parent is alive.
_POLL_SECONDS = 0.1


@contextlib.contextmanager
def _sigterm_stops(runner: "TrialRunner"):
    """Make ``SIGTERM`` a stop reason of ``runner`` for the block.

    The handler only records the signal; the scheduler raises
    :class:`SweepInterrupted` from its own poll loop.  Raising inside
    the handler is not enough: the handler can run inside an at-fork
    hook (logging's lock acquisition while an attempt forks), where
    CPython prints "Exception ignored" and drops the exception.  A
    signal that lands after the last poll still stops the sweep on the
    way out of the block.  A worker forked with the handler installed
    dies of the signal as by default.

    Installed only in the main thread (signal handlers cannot be set
    elsewhere) and only when the signal's disposition is the default
    (an embedding application that installed its own handler — the
    serve control plane does — keeps it).  ``SIGINT`` needs no
    conversion: ``KeyboardInterrupt`` already unwinds ``finally``
    blocks.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    try:
        previous = signal.getsignal(signal.SIGTERM)
    except (ValueError, OSError):  # pragma: no cover - exotic platform
        yield
        return
    if previous is not signal.SIG_DFL:
        yield
        return
    owner = os.getpid()
    runner._signalled = None

    def _stop(signum, frame):
        if os.getpid() != owner:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        runner._signalled = signum

    signal.signal(signal.SIGTERM, _stop)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
    runner._check_cancel()


@dataclass(frozen=True)
class TrialSpec:
    """One protocol run, as plain data.

    Attributes
    ----------
    protocol:
        Key into :data:`repro.engine.PROTOCOLS` (``"smm"``, ``"sis"``,
        ...).
    graph / config:
        The topology and initial configuration (``None`` = clean start).
    daemon:
        ``"synchronous"`` (default), ``"central"``,
        ``"synchronized-central"`` (the E5 refinement), or
        ``"distributed"``.
    max_rounds:
        Budget, forwarded as ``max_rounds`` (``max_moves`` for the
        central daemon).  ``None`` = the runner's documented default.
    record_history:
        Keep per-round configurations (needed by E3/E6-style replays).
    seed:
        Integer seed for daemons that consume randomness.  Derive it in
        the parent (e.g. :func:`repro.rng.trial_seeds`) so the schedule
        is a function of the spec, not of execution order.
    options:
        Extra keyword arguments for the runner, as a sorted tuple of
        ``(name, value)`` pairs (kept hashable/picklable).
    backend:
        Execution backend (:mod:`repro.engine`): ``"auto"`` (the
        default: same-graph groups run through batch-sweep dispatch,
        the rest on the fastest applicable backend), ``"reference"``
        (force the reference engine), or an explicit registered kernel
        such as ``"vectorized"``.  Part of :func:`spec_fingerprint`.
    telemetry:
        Attach a :class:`~repro.observability.RunTelemetry` record to
        the trial's result.  Telemetry rides back through the ordinary
        pickled :class:`RunResult`, so per-worker collection needs no
        extra plumbing; aggregate with
        :func:`repro.observability.merge_telemetry` or write records out
        with :class:`repro.observability.TelemetrySink`.
    trace:
        Collect a span fragment for this trial
        (:mod:`repro.observability.tracing`) when no tracer is ambient
        — how worker processes trace: the fragment rides back on
        ``result.trace`` and the parent grafts it into the sweep's
        tracer.  :meth:`TrialRunner.map` sets this itself whenever a
        tracer is installed; callers normally never do.  Excluded from
        :func:`spec_fingerprint` (tracing does not change the result),
        so toggling ``--trace`` never invalidates resume checkpoints.
    convergence:
        Attach the proof-aware convergence record
        (:mod:`repro.observability.convergence`) to the trial's result:
        potential series, safety-monitor violation counts, and the
        paper-bound conformance verdict on ``result.bound_ok``.
        Implies telemetry collection at the engine level.  Excluded
        from :func:`spec_fingerprint` — the monitors observe the run
        without changing its outcome (same rule as ``trace``), so
        toggling ``--convergence`` never invalidates resume checkpoints
        or the serve result cache.

        Metrics need no spec flag at all: the registry's counters come
        from the :class:`RunResult` summary fields and its latency
        histogram from the ``elapsed`` wall-clock the engine stamps on
        every result, so the parent records everything after the sweep
        without asking workers for extra collection.
    """

    protocol: str
    graph: Graph
    config: Optional[Mapping[NodeId, object]] = None
    daemon: str = "synchronous"
    max_rounds: Optional[int] = None
    record_history: bool = False
    seed: Optional[int] = None
    options: Tuple[Tuple[str, object], ...] = ()
    backend: str = "auto"
    telemetry: bool = False
    trace: bool = False
    convergence: bool = False


def execute_trial(spec: TrialSpec) -> RunResult:
    """Run one trial — a pure function of the spec.

    Dispatches through :func:`repro.engine.run`, the single engine
    front door (protocol lookup, daemon routing and backend selection
    all live there).  ``spec.trace`` builds a local tracer when none is
    ambient (the worker-process case) and attaches its export to
    ``result.trace``."""
    if spec.trace:
        from repro.observability import tracing as _tracing

        if _tracing.current_tracer() is None:
            tracer = _tracing.Tracer()
            with _tracing.use_tracer(tracer):
                result = _dispatch_trial(spec)
            result.trace = tracer.export()
            return result
    return _dispatch_trial(spec)


def _dispatch_trial(spec: TrialSpec) -> RunResult:
    from repro.engine import run as engine_run

    options = dict(spec.options)
    if spec.telemetry:
        # only forwarded when requested, so runners without the keyword
        # (externally registered backends) keep working untouched
        options["telemetry"] = True
    if spec.convergence:
        # consumed by the engine front door (implies telemetry there);
        # never reaches a backend runner
        options["convergence"] = True
    return engine_run(
        spec.protocol,
        spec.graph,
        spec.config,
        daemon=spec.daemon,
        backend=spec.backend,
        rng=spec.seed,
        max_rounds=spec.max_rounds,
        record_history=spec.record_history,
        **options,
    )


@dataclass(frozen=True)
class FailedTrial:
    """A trial that could not produce a result in a sweep with a
    resilience policy (``timeout``, ``retries`` or ``checkpoint``).

    Takes the trial's slot in the result list (so indices still line up
    with the spec list) instead of aborting the whole batch.

    ``error_type``/``error`` name the last failure: the exception type
    raised *by the trial* (never retried — a pure function of the spec
    fails deterministically), ``"Timeout"`` for a wall-clock expiry, or
    ``"WorkerDeath"`` when the worker process vanished (signal, OOM
    kill).  ``attempts`` counts attempts actually made; ``timed_out``
    flags that the last attempt hit the timeout.
    """

    index: int
    fingerprint: str
    error_type: str
    error: str
    attempts: int
    timed_out: bool = False


def _fingerprint_canon(value):
    """JSON-serializable stand-in for arbitrary spec option values."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_fingerprint_canon(v) for v in value]
    try:
        import numpy as np

        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
    except Exception:  # pragma: no cover - numpy always present in repo
        pass
    return repr(value)


def _json_members(payload: Dict[str, object]) -> str:
    """``payload`` as sorted-key JSON, without its enclosing braces."""
    return json.dumps(payload, sort_keys=True, default=_fingerprint_canon)[1:-1]


def spec_fingerprint(spec: TrialSpec) -> str:
    """A short stable hash of everything that determines the trial's
    result — the checkpoint key that guards resumes against spec-list
    drift, and the content address of the serve result store.  Graphs
    hash by node/edge lists, configurations by sorted items, option
    values through ``to_dict`` when they have one
    (:class:`~repro.resilience.FaultPlan` does) and ``repr`` otherwise.

    The hashed text is one sorted-key JSON object.  Its ``nodes`` and
    ``edges`` members are the graph's share, which the graph encodes
    once and caches (:meth:`Graph.canonical_json`); they are spliced in
    at their sorted positions (``edges`` between ``daemon`` and
    ``max_rounds``, ``nodes`` between ``max_rounds`` and ``options``),
    so a sweep of trials on one graph encodes it once, not per trial,
    and the bytes are those of encoding the whole object in one call.

    The serialization schema version
    (:data:`repro.analysis.serialize.SCHEMA_VERSION`) is folded into
    the hash, so every fingerprint-keyed artefact — resume checkpoints,
    result-store entries — invalidates wholesale across incompatible
    releases instead of deserializing stale bytes.  The exact format is
    pinned by ``tests/test_parallel.py::TestFingerprintFormat``.

    The observation-only flags ``trace`` and ``convergence`` are
    deliberately *excluded*: they change what is recorded about a run,
    never the run itself, so toggling them must keep hitting the same
    checkpoints and serve-store entries.
    """
    from repro.analysis.serialize import SCHEMA_VERSION

    nodes, edges = spec.graph.canonical_json()
    before_edges = {
        "backend": spec.backend,
        "config": (
            None
            if spec.config is None
            else sorted(
                (repr(k), _fingerprint_canon(v))
                for k, v in dict(spec.config).items()
            )
        ),
        "daemon": spec.daemon,
    }
    after_nodes = {
        "options": [
            [name, _fingerprint_canon(value)] for name, value in spec.options
        ],
        "protocol": spec.protocol,
        "record_history": spec.record_history,
        "schema": SCHEMA_VERSION,
        "seed": None if spec.seed is None else int(spec.seed),
        "telemetry": spec.telemetry,
    }
    blob = (
        "{" + _json_members(before_edges)
        + ', "edges": ' + edges
        + ", " + _json_members({"max_rounds": spec.max_rounds})
        + ', "nodes": ' + nodes
        + ", " + _json_members(after_nodes) + "}"
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _worker_loop(conn, specs: Sequence[TrialSpec], parent: int) -> None:
    """Body of a forked worker: run the spec indices it is sent, one
    payload per trial, until it receives ``None`` or EOF, or its parent
    is gone.

    A payload is ``("ok", result)`` or ``("error", type name, message,
    exception)``.  The exception is ``None`` when it does not survive
    pickling, so a bad exception can never pose as worker death."""
    _pin_worker_threads()
    while True:
        while not conn.poll(_POLL_SECONDS):
            if os.getppid() != parent:
                return  # orphaned: nobody is left to read the results
        try:
            chunk = conn.recv()
        except EOFError:
            return
        if chunk is None:
            return
        for index in chunk:
            try:
                payload = ("ok", execute_trial(specs[index]))
            except Exception as exc:
                payload = ("error", type(exc).__name__, str(exc), _portable(exc))
            try:
                conn.send(payload)
            except OSError:
                return  # parent gone
            except Exception:
                conn.send(
                    ("error", "SerializationError",
                     "result could not be pickled", None)
                )


def _portable(exc: BaseException) -> Optional[BaseException]:
    """``exc`` if it survives a pickle round trip, else ``None``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


# ----------------------------------------------------------------------
# worker environment
# ----------------------------------------------------------------------
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_worker_threads() -> None:
    """Pin BLAS/OMP pools to one thread in this worker.

    ``jobs`` worker processes each spinning a BLAS pool of ``cores``
    threads oversubscribes the machine ``jobs``-fold; the trials are
    pure Python + small NumPy element-wise ops, so one thread per worker
    is optimal.  Env vars cover libraries loaded after the fork;
    ``threadpoolctl`` (if present) repins ones already loaded.

    Also clears observation context the fork start method copies from
    the parent: the parent's tracer / metrics registry objects are
    unreachable from a worker, and a worker that still *sees* them
    would record spans into a dead copy instead of building the local
    fragment that rides back on the result (``spec.trace``).
    """
    from repro.observability import metrics as _metrics
    from repro.observability import tracing as _tracing

    _tracing._CURRENT.set(None)
    _metrics._CURRENT.set(None)
    for var in _THREAD_ENV_VARS:
        os.environ[var] = "1"
    try:  # pragma: no cover - optional dependency
        from threadpoolctl import threadpool_limits

        threadpool_limits(limits=1)
    except Exception:
        pass


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` = all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


# ----------------------------------------------------------------------
# the scheduler's parts
# ----------------------------------------------------------------------
class _Worker:
    """One long-lived forked worker, its pipe, and the ``(index,
    attempt)`` pairs it has been sent but not yet answered, head
    first."""

    def __init__(self, ctx, specs: Sequence[TrialSpec]) -> None:
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_loop, args=(child, specs, os.getpid()), daemon=True
        )
        self.process.start()
        child.close()
        self.owed: deque = deque()
        self.deadline: Optional[float] = None  # monotonic, per trial

    def send(self, items: List[Tuple[int, int]], timeout: Optional[float]) -> None:
        self.owed.extend(items)
        if timeout is not None:
            self.deadline = time.monotonic() + timeout
        self.conn.send([index for index, _ in items])

    def stop(self, graceful: bool) -> None:
        if graceful:
            with contextlib.suppress(OSError):
                self.conn.send(None)
            self.process.join(10 * _POLL_SECONDS)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()
        self.conn.close()


def _checkpoint_record(index: int, fingerprint: str, outcome) -> Dict[str, object]:
    if isinstance(outcome, FailedTrial):
        return {
            "index": index,
            "fingerprint": fingerprint,
            "status": "failed",
            "error_type": outcome.error_type,
            "error": outcome.error,
            "attempts": outcome.attempts,
            "timed_out": outcome.timed_out,
        }
    from repro.analysis.serialize import execution_to_dict

    return {
        "index": index,
        "fingerprint": fingerprint,
        "status": "ok",
        "result": execution_to_dict(outcome),
    }


def _load_checkpoint(
    path: str, fingerprints: Sequence[str]
) -> Dict[int, Union[RunResult, FailedTrial]]:
    """Completed trials from a checkpoint file, keyed by spec index.

    A line counts only when it parses, its index is in range, and its
    fingerprint matches the current spec at that index — anything else
    (truncated write from a kill, a spec list that changed since) is
    ignored and the trial simply re-runs.
    """
    from repro.analysis.serialize import execution_from_dict

    out: Dict[int, Union[RunResult, FailedTrial]] = {}
    if not os.path.exists(path):
        return out
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                index = int(record["index"])
                if not 0 <= index < len(fingerprints):
                    continue
                if record.get("fingerprint") != fingerprints[index]:
                    continue
                if record.get("status") == "ok":
                    out[index] = execution_from_dict(record["result"])
                elif record.get("status") == "failed":
                    out[index] = FailedTrial(
                        index=index,
                        fingerprint=fingerprints[index],
                        error_type=str(record.get("error_type", "Unknown")),
                        error=str(record.get("error", "")),
                        attempts=int(record.get("attempts", 1)),
                        timed_out=bool(record.get("timed_out", False)),
                    )
            except Exception:
                continue  # corrupt line: re-run that trial
    return out


class TrialRunner:
    """Run trial specs inline or on up to ``jobs`` forked workers.

    Results always come back in spec order, and are bit-identical to
    inline execution (each trial is a pure function of its spec).

    ``timeout`` (per-trial wall-clock seconds), ``retries`` (bounded
    retry of timed-out or dead attempts, with ``backoff * 2**attempt``
    seconds between them) and ``checkpoint`` (JSONL resume file) are
    the resilience policies documented in the module docstring; with
    any of them set the result list may contain :class:`FailedTrial`
    records in the failed trials' slots, and trials always run in
    worker processes, so a trial that kills its process cannot take
    the caller with it.

    ``batch_sweep=False`` turns batch-sweep dispatch off; results are
    identical either way, and per-trial execution is the reference the
    equivalence suite compares batching against.

    ``on_result`` and ``cancel`` are the long-lived-owner hooks (module
    docstring): a per-trial progress callback
    ``(index, outcome, resumed)`` and a :class:`threading.Event` whose
    setting makes the sweep stop and raise :class:`SweepCancelled`.
    ``deadline`` is the same unwind on a clock instead of an event: an
    absolute ``time.time()`` timestamp after which the sweep stops with
    ``SweepCancelled(reason="deadline")`` at the next trial boundary
    (with workers, at the scheduler's next poll point, at most
    :data:`_POLL_SECONDS` away).  None of the three changes any result.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        *,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.1,
        checkpoint: Optional[str] = None,
        batch_sweep: bool = True,
        on_result: Optional[OnResult] = None,
        cancel: Optional[threading.Event] = None,
        deadline: Optional[float] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.checkpoint = None if checkpoint is None else str(checkpoint)
        self.batch_sweep = bool(batch_sweep)
        self.on_result = on_result
        self.cancel = cancel
        if deadline is not None:
            deadline = float(deadline)
        self.deadline = deadline
        self._signalled: Optional[int] = None  # SIGTERM seen (resilient sweep)

    @property
    def resilient(self) -> bool:
        return (
            self.timeout is not None
            or self.retries > 0
            or self.checkpoint is not None
        )

    # ------------------------------------------------------------------
    # stop reasons
    # ------------------------------------------------------------------
    def _cancel_reason(self) -> Optional[str]:
        if self._signalled is not None:
            return "signal"
        if self.cancel is not None and self.cancel.is_set():
            return "cancel"
        if self.deadline is not None and time.time() > self.deadline:
            return "deadline"
        return None

    def _check_cancel(self) -> None:
        reason = self._cancel_reason()
        if reason == "signal":
            raise SweepInterrupted(self._signalled)
        if reason == "cancel":
            raise SweepCancelled("sweep cancelled by owner")
        if reason == "deadline":
            raise SweepCancelled("sweep deadline exceeded", reason="deadline")

    def map(
        self, specs: Sequence[TrialSpec]
    ) -> List[Union[RunResult, FailedTrial]]:
        """Execute ``specs`` and return their results, in order.

        When a tracer / metrics registry is ambiently installed
        (:func:`repro.observability.use_tracer` /
        :func:`~repro.observability.use_registry` — the CLI's
        ``--trace`` / ``--metrics``), traced trials collect span
        fragments in their workers and the runner grafts them into the
        tracer here in the parent; metrics are recorded entirely
        parent-side from the results (counters from the summary
        fields, latency from the engine-stamped ``elapsed``).  Both
        happen *in spec order*, so traces and counter exports are
        deterministic for any ``jobs``.  Results themselves stay
        bit-identical to an unobserved run.
        """
        from repro.observability import metrics as _metrics
        from repro.observability import tracing as _tracing

        specs = list(specs)
        tracer = _tracing.current_tracer()
        registry = _metrics.current_registry()
        self._check_cancel()
        results: Dict[int, Union[RunResult, FailedTrial]] = {}
        attempts: Dict[int, int] = {}  # index -> attempts made, when > 1
        resumed: Dict[int, Union[RunResult, FailedTrial]] = {}
        fingerprints: Optional[List[str]] = None
        with contextlib.ExitStack() as stack:
            if self.resilient:
                # a SIGTERM unwinds through this stack (checkpoint
                # closed, workers stopped) instead of killing us cold
                stack.enter_context(_sigterm_stops(self))
            writer = None
            if self.checkpoint is not None:
                fingerprints = [spec_fingerprint(spec) for spec in specs]
                resumed = _load_checkpoint(self.checkpoint, fingerprints)
                writer = stack.enter_context(
                    open(self.checkpoint, "a", encoding="utf-8")
                )

            def record(index: int, outcome, made: int = 1) -> None:
                """The one path every outcome takes."""
                results[index] = outcome
                if made > 1:
                    attempts[index] = made
                if writer is not None and index not in resumed:
                    # json.dumps runs the C encoder; json.dump(obj, file)
                    # runs the pure-Python one, for the same bytes
                    writer.write(json.dumps(
                        _checkpoint_record(index, fingerprints[index], outcome)
                    ) + "\n")
                    writer.flush()
                if self.on_result is not None:
                    self.on_result(index, outcome, index in resumed)

            for index in sorted(resumed):
                record(index, resumed[index])
            todo = [i for i in range(len(specs)) if i not in results]
            if self.batch_sweep and len(todo) > 1:
                from repro.parallel import batch_sweep as _batch_sweep

                if tracer is not None:
                    _batch_sweep.record_fallback("traced")
                else:
                    batched = _batch_sweep.dispatch_groups(
                        [specs[i] for i in todo]
                    )
                    for position in sorted(batched):
                        record(todo[position], batched[position])
                    todo = [i for i in todo if i not in results]
            run_specs = _prepare_specs(specs, traced=tracer is not None)
            if todo and (self.resilient or (self.jobs > 1 and len(todo) > 1)):
                self._schedule(run_specs, todo, record, fingerprints)
            else:
                for index in todo:
                    self._check_cancel()
                    record(index, _execute_local(run_specs[index]))
        outcomes = [results[i] for i in range(len(specs))]
        if tracer is not None:
            _graft_trial_spans(tracer, outcomes, attempts, resumed)
        if registry is not None:
            _record_trial_metrics(registry, outcomes, attempts, resumed)
        return outcomes

    def _schedule(
        self,
        specs: List[TrialSpec],
        todo: List[int],
        record: Callable[..., None],
        fingerprints: Optional[List[str]],
    ) -> None:
        """Run the trials ``todo`` on up to ``jobs`` forked workers,
        under the failure rule of the module docstring."""
        ctx = multiprocessing.get_context("fork")  # workers inherit specs
        pending = deque((index, 0) for index in todo)  # (index, attempt)
        backing_off: List[Tuple[float, int, int]] = []  # heap: (ready, i, a)
        workers: List[_Worker] = []
        chunk = 1
        if self.timeout is None:
            chunk = max(1, len(todo) // (4 * min(self.jobs, len(todo))))

        def fail(index, made, error_type, message, exc=None, timed_out=False):
            if not self.resilient:
                if exc is not None:
                    raise exc
                raise RuntimeError(
                    f"trial {index} failed: {error_type}: {message}"
                )
            record(
                index,
                FailedTrial(
                    index=index,
                    fingerprint=(
                        fingerprints[index]
                        if fingerprints is not None
                        else spec_fingerprint(specs[index])
                    ),
                    error_type=error_type,
                    error=message,
                    attempts=made,
                    timed_out=timed_out,
                ),
                made,
            )

        def lost(worker: _Worker, error_type: str, message: str) -> None:
            """Kill ``worker``; charge the trial it was running."""
            workers.remove(worker)
            worker.stop(graceful=False)
            (index, attempt), *rest = worker.owed
            pending.extendleft(reversed(rest))
            if attempt < self.retries:
                ready = time.monotonic() + self.backoff * (2**attempt)
                heapq.heappush(backing_off, (ready, index, attempt + 1))
            else:
                fail(index, attempt + 1, error_type, message,
                     timed_out=error_type == "Timeout")

        try:
            while pending or backing_off or any(w.owed for w in workers):
                self._check_cancel()
                now = time.monotonic()
                while backing_off and backing_off[0][0] <= now:
                    _, index, attempt = heapq.heappop(backing_off)
                    pending.append((index, attempt))
                idle = [w for w in workers if not w.owed]
                while pending and (idle or len(workers) < self.jobs):
                    if idle:
                        worker = idle.pop()
                    else:
                        worker = _Worker(ctx, specs)
                        workers.append(worker)
                    items = [
                        pending.popleft()
                        for _ in range(min(chunk, len(pending)))
                    ]
                    try:
                        worker.send(items, self.timeout)
                    except OSError:
                        lost(worker, "WorkerDeath", "worker process died")
                busy = [w for w in workers if w.owed]
                wake = [w.deadline for w in busy if w.deadline is not None]
                if backing_off:
                    wake.append(backing_off[0][0])
                wait_for = min(
                    [_POLL_SECONDS]
                    + [max(0.0, t - time.monotonic()) for t in wake]
                )
                if not busy:
                    # everything is backing off: sleep toward the
                    # earliest retry, in slices, so a stop reason is seen
                    time.sleep(wait_for)
                    continue
                ready = _connection_wait([w.conn for w in busy], wait_for)
                for worker in busy:
                    if worker.conn in ready:
                        try:
                            payload = worker.conn.recv()
                        except (EOFError, OSError):
                            lost(worker, "WorkerDeath", "worker process died")
                            continue
                        index, attempt = worker.owed.popleft()
                        if payload[0] == "ok":
                            record(index, payload[1], attempt + 1)
                        else:  # the trial's own exception: never retried
                            fail(index, attempt + 1, *payload[1:])
                    elif (
                        worker.deadline is not None
                        and worker.deadline <= time.monotonic()
                    ):
                        lost(
                            worker,
                            "Timeout",
                            f"trial exceeded {self.timeout}s wall clock",
                        )
                    elif not worker.process.is_alive() and not worker.conn.poll():
                        # dead, yet its pipe is held open by a process
                        # forked concurrently (another sweep's worker)
                        lost(worker, "WorkerDeath", "worker process died")
        finally:
            # no worker outlives its sweep, however the sweep ends
            for worker in workers:
                worker.stop(graceful=not worker.owed)


# ----------------------------------------------------------------------
# observation plumbing (tracing + metrics; no-ops when neither is on)
# ----------------------------------------------------------------------
def _prepare_specs(
    specs: List[TrialSpec], *, traced: bool
) -> List[TrialSpec]:
    """Stamp the trace flag onto the specs actually dispatched.  The
    originals stay untouched — fingerprints, and therefore resume
    checkpoints, are computed from them."""
    if not traced:
        return specs
    return [replace(spec, trace=True) for spec in specs]


def _execute_local(spec: TrialSpec) -> RunResult:
    """Inline execution of a (possibly observation-stamped) spec.

    Suppresses the ambient tracer for traced specs so the trial builds
    a local fragment exactly as a worker process would — ``jobs=1`` and
    ``jobs=N`` then produce identical span structure, grafted by the
    same code path."""
    if spec.trace:
        from repro.observability import tracing as _tracing

        if _tracing.current_tracer() is not None:
            with _tracing.use_tracer(None):
                return execute_trial(spec)
    return execute_trial(spec)


def _graft_trial_spans(tracer, outcomes, attempts, resumed) -> None:
    """Attach each trial's span to the sweep tracer, in spec order.

    Executed trials contribute the fragment their worker recorded
    (annotated with the attempt count when the scheduler ran them more
    than once); failed and checkpoint-resumed trials get a
    point span so the timeline still accounts for every slot."""
    for index, outcome in enumerate(outcomes):
        attrs: Dict[str, object] = {"trial": index}
        made = attempts.get(index)
        if made is not None and made > 1:
            attrs["attempts"] = made
        if isinstance(outcome, FailedTrial):
            now = tracer.now()
            tracer.record(
                f"trial:{index}",
                now,
                now,
                failed=outcome.error_type,
                attempts=outcome.attempts,
                timed_out=outcome.timed_out,
                **attrs,
            )
            continue
        if index in resumed:
            # the checkpointed fragment (if any) was recorded by an
            # earlier invocation — its wall-clock belongs to that run's
            # timeline, so note the resume instead of grafting it
            outcome.trace = None
            now = tracer.now()
            tracer.record(f"trial:{index}", now, now, resumed=True, **attrs)
            continue
        if outcome.trace:
            for fragment in outcome.trace:
                tracer.graft(fragment, **attrs)
            outcome.trace = None


def _record_trial_metrics(registry, outcomes, attempts, resumed) -> None:
    """Fold the batch into the ambient metrics registry, in spec order
    (deterministic for any ``jobs``)."""
    from repro.observability.metrics import (
        record_failed_trial,
        record_run_result,
    )

    executed = len(outcomes) - len(resumed)
    if executed:
        registry.counter(
            "repro_trials_started_total",
            "Trials dispatched for execution (checkpoint-resumed "
            "trials excluded)",
        ).inc(executed)
    if resumed:
        registry.counter(
            "repro_trials_resumed_total",
            "Trials restored from a resume checkpoint instead of re-running",
        ).inc(len(resumed))
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, FailedTrial):
            record_failed_trial(registry, outcome)
            continue
        record_run_result(registry, outcome)
        extra = attempts.get(index, 1) - 1
        if extra > 0:
            registry.counter(
                "repro_trial_retries_total", "Extra attempts made for trials"
            ).inc(extra)


def run_trials(
    specs: Sequence[TrialSpec],
    *,
    jobs: Optional[int] = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.1,
    checkpoint: Optional[str] = None,
    batch_sweep: bool = True,
    on_result: Optional[OnResult] = None,
    cancel: Optional[threading.Event] = None,
    deadline: Optional[float] = None,
) -> List[Union[RunResult, FailedTrial]]:
    """Convenience wrapper: ``TrialRunner(...).map(specs)``.  The
    ``timeout``/``retries``/``backoff``/``checkpoint`` knobs are the
    resilience policies; ``on_result``/``cancel``/``deadline`` are the
    long-lived-owner hooks (see :class:`TrialRunner`)."""
    return TrialRunner(
        jobs,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        checkpoint=checkpoint,
        batch_sweep=batch_sweep,
        on_result=on_result,
        cancel=cancel,
        deadline=deadline,
    ).map(specs)
