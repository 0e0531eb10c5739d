"""Job queue and worker pool of the serve control plane.

A *job* is one validated sweep submission: an ordered list of
:class:`~repro.parallel.TrialSpec` records plus bookkeeping (state,
progress counters, timestamps).  The :class:`JobManager` owns

* a FIFO queue drained by a bounded pool of worker threads, each
  driving a :class:`~repro.parallel.TrialRunner` with resilience
  policies (timeout/retry/checkpoint) for the specs that actually need
  computing: batch-eligible groups run as one batch-kernel call in the
  daemon, every other trial on one of ``runner_jobs`` forked worker
  processes per job, so a trial that kills its process cannot take the
  daemon down;
* the content-addressed :class:`~repro.serve.store.ResultStore` —
  every cacheable trial is leased there first, so repeated submissions
  hit the store and concurrent identical submissions coalesce onto one
  computation (a follower whose leader fails re-leases and runs the
  trial through its own runner, under the same policies);
* a per-job on-disk journal (``<state>/jobs/<id>/``) holding the
  serialized specs (``job.json``, immutable: each distinct graph once
  in its ``graphs`` list, each spec's ``graph`` an index into it),
  mutable status (``status.json``, atomically replaced), the runner's
  resume checkpoint (``checkpoint.jsonl``), streamed telemetry
  (``telemetry.jsonl``) and the final response (``results.json``).

Crash-safety contract: everything a restarted server needs is in the
journal.  :meth:`JobManager.start` re-enqueues every job that was
queued or running when the previous process died; re-execution leases
the store first (finished trials are cache hits) and the runner
resumes the remainder from its checkpoint, so no completed trial is
ever recomputed.  A SIGTERM'd server *requeues* (rather than cancels)
jobs interrupted mid-run — see :meth:`JobManager.shutdown`.  A journal
that does not rebuild (torn, or parsed but malformed) is skipped and
left on disk; it never stops the other jobs from recovering.

Trial failures (:class:`~repro.parallel.FailedTrial`) do not fail a
job: like resilient sweeps, the job completes ``done`` with ``failed``
entries in the affected slots.  A job fails only when the runner
itself raises.

Self-healing contract (the serve-layer analogue of the paper's
self-stabilization): a *supervisor* thread watches the pool — workers
stamp heartbeats, crashed workers are restarted
(``repro_serve_worker_restarts_total``), and the pool autoscales
between ``min_workers`` and ``max_workers`` on sustained backlog /
idle grace.  Overload is *shed*, never buffered unboundedly: with
``max_queue_depth`` set, :meth:`JobManager.submit` raises
:class:`QueueFull` (HTTP 429 upstream) at saturation and
:class:`Draining` (503) during shutdown; queued jobs past their
``deadline_s`` are shed as ``cancelled`` with a ``deadline`` error.
A per-fingerprint circuit breaker fails-fast specs that keep failing
(``circuit_threshold`` consecutive times) instead of burning retries.

Lock ordering: ``JobManager._lock`` may be held when taking
``metrics_lock`` (``_finish_locked`` → ``_metric``), so nothing may
acquire ``_lock`` while holding ``metrics_lock`` — scrape handlers
must snapshot queue/pool stats *before* locking the registry.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.serialize import (
    SCHEMA_VERSION,
    execution_to_dict,
    graph_from_dict,
    graph_to_dict,
    trial_spec_from_dict,
    trial_spec_to_dict,
)
from repro.observability.metrics import (
    MetricsRegistry,
    record_failed_trial,
    record_run_result,
)
from repro.observability.telemetry import TelemetrySink
from repro.parallel.trial_runner import (
    FailedTrial,
    SweepCancelled,
    TrialRunner,
    TrialSpec,
    spec_fingerprint,
)
from repro.serve.store import ResultStore

__all__ = ["Job", "JobManager", "JOB_STATES", "QueueFull", "Draining"]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: How long a job waits for another job's in-flight computation of the
#: same fingerprint before computing it itself.
COALESCE_TIMEOUT = 600.0

#: After this many seconds an open circuit half-opens: the next
#: submission of the failing fingerprint gets one real attempt.
CIRCUIT_COOLDOWN = 300.0


class QueueFull(RuntimeError):
    """Admission control rejected a submission: the queue is at
    ``max_queue_depth``.  ``retry_after`` is the server's estimate (in
    whole seconds) of when capacity frees up — it becomes the HTTP
    ``Retry-After`` header."""

    def __init__(self, retry_after: int, depth: int) -> None:
        super().__init__(
            f"job queue is full ({depth} queued); retry in ~{retry_after}s"
        )
        self.retry_after = int(retry_after)
        self.depth = depth


class Draining(RuntimeError):
    """Submission rejected because the manager is shutting down."""

    def __init__(self) -> None:
        super().__init__("server is draining for shutdown; not accepting jobs")


class _ChaosWorkerDeath(RuntimeError):
    """Injected worker crash (``chaos_kill_worker``): unwinds the worker
    thread without deregistering it, exactly like an unhandled bug
    would, so the supervisor's restart path is exercised end-to-end."""


# Queue tokens besides job ids.  ``None`` is the shutdown poison pill
# (worker exits, stays registered for the joining shutdown); _RETIRE is
# the scale-down pill (worker deregisters itself and exits); _CHAOS_*
# are fault injections (see chaos_kill_worker / chaos_stall_worker).
_RETIRE = object()
_CHAOS_KILL = object()
_CHAOS_STALL = object()


def _now() -> float:
    return time.time()


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    # json.dumps runs the C encoder; json.dump(payload, file) runs the
    # pure-Python one, for the same bytes
    _atomic_write(path, json.dumps(payload, sort_keys=True))


def _journal_specs(specs: Sequence[TrialSpec]) -> Dict[str, Any]:
    """``job.json``'s ``graphs`` and ``specs``: each distinct graph
    object once, each spec's ``graph`` its index in ``graphs``.  Raises
    ``ValueError`` for a spec that cannot be serialized."""
    graphs: List[Dict[str, Any]] = []
    slots: Dict[int, int] = {}  # id(graph) -> index in graphs
    records = []
    for spec in specs:
        slot = slots.get(id(spec.graph))
        if slot is None:
            slot = slots[id(spec.graph)] = len(graphs)
            graphs.append(graph_to_dict(spec.graph))
        records.append(trial_spec_to_dict(spec, graph=slot))
    return {"graphs": graphs, "specs": records}


def _specs_from_journal(record: Mapping[str, Any]) -> List[TrialSpec]:
    """The specs of a ``job.json``, one shared ``Graph`` per ``graphs``
    entry.  A spec whose ``graph`` is an inline node/edge dict (the
    layout before the ``graphs`` list, and the
    :func:`~repro.analysis.serialize.trial_spec_from_dict` wire format)
    gets a graph of its own."""
    graphs = [graph_from_dict(data) for data in record.get("graphs", ())]
    specs = []
    for data in record["specs"]:
        ref = data["graph"]
        if isinstance(ref, Mapping):
            specs.append(trial_spec_from_dict(data))
            continue
        if type(ref) is not int or not 0 <= ref < len(graphs):
            raise IndexError(
                f"graph {ref!r} is not an index into {len(graphs)} graphs"
            )
        specs.append(trial_spec_from_dict(data, graph=graphs[ref]))
    return specs


def _load_status(path: str) -> Dict[str, Any]:
    """A job's ``status.json``; ``{}`` when it is missing, torn or not
    an object, so the job re-runs (answered from the store)."""
    try:
        with open(path, encoding="utf-8") as handle:
            status = json.load(handle)
    except (OSError, ValueError):
        return {}
    return status if isinstance(status, dict) else {}


def _number(value: Any) -> Optional[float]:
    """A journaled timestamp, or ``None`` when it is not a number."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    return None


class Job:
    """One sweep submission and its lifecycle state.

    Mutable fields (``state``, ``progress``, timestamps, ``error``,
    ``entries``) are owned by the single worker thread executing the
    job; readers snapshot them through :meth:`summary` under the
    manager's lock.
    """

    def __init__(
        self,
        job_id: str,
        specs: Sequence[TrialSpec],
        *,
        directory: str,
        label: Optional[str] = None,
        mode: str = "async",
        created: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.id = job_id
        self.specs: Tuple[TrialSpec, ...] = tuple(specs)
        self.fingerprints: Tuple[str, ...] = tuple(
            spec_fingerprint(s) for s in self.specs
        )
        self.directory = directory
        self.label = label
        self.mode = mode
        #: absolute ``time.time()`` seconds; queued jobs past it are
        #: shed, running jobs unwind at the next trial boundary
        self.deadline = deadline
        self.state = "queued"
        self.error: Optional[str] = None
        self.created = _now() if created is None else created
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.progress: Dict[str, int] = {
            "total": len(self.specs),
            "completed": 0,
            "cached": 0,
            "computed": 0,
            "resumed": 0,
            "failed": 0,
            "coalesced": 0,
        }
        self.entries: Optional[List[Optional[Dict[str, Any]]]] = None
        self.cancel_event = threading.Event()
        self.done_event = threading.Event()
        self.telemetry_requested = any(s.telemetry for s in self.specs)
        #: live convergence-observatory block (populated when specs ran
        #: with ``convergence=True``): monitored-run / violation /
        #: bound-verdict tallies plus the latest potential, decay rate
        #: and ETA from :func:`repro.observability.convergence
        #: .progress_estimate`
        self.convergence: Optional[Dict[str, Any]] = None

    def note_convergence(self, result: Optional[Dict[str, Any]]) -> None:
        """Fold one finished trial's convergence record (if any) into
        the job's live progress block.  Called only from the single
        worker thread that owns the job; readers snapshot through
        :meth:`summary` under the manager's lock."""
        record = ((result or {}).get("telemetry") or {}).get("convergence")
        if not record:
            return
        from repro.observability.convergence import progress_estimate

        block = self.convergence
        if block is None:
            block = self.convergence = {
                "runs": 0,
                "violations": 0,
                "bound_ok": 0,
                "bound_exceeded": 0,
            }
        block["runs"] += 1
        block["violations"] += int(record.get("violations", 0))
        verdict = record.get("bound_ok")
        if verdict is True:
            block["bound_ok"] += 1
        elif verdict is False:
            block["bound_exceeded"] += 1
        estimate = progress_estimate(record)
        for key in ("potential", "decay_per_round", "eta_rounds"):
            block[key] = estimate[key]

    # -- journal paths --------------------------------------------------
    @property
    def spec_path(self) -> str:
        return os.path.join(self.directory, "job.json")

    @property
    def status_path(self) -> str:
        return os.path.join(self.directory, "status.json")

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.directory, "checkpoint.jsonl")

    @property
    def telemetry_path(self) -> str:
        return os.path.join(self.directory, "telemetry.jsonl")

    @property
    def results_path(self) -> str:
        return os.path.join(self.directory, "results.json")

    # -- views ----------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """The JSON job record served by ``GET /v1/jobs/<id>``."""
        return {
            "id": self.id,
            "label": self.label,
            "mode": self.mode,
            "state": self.state,
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "deadline": self.deadline,
            "trials": len(self.specs),
            "progress": dict(self.progress),
            "convergence": (
                None if self.convergence is None else dict(self.convergence)
            ),
            "telemetry": self.telemetry_requested,
            "links": {
                "status": f"/v1/jobs/{self.id}",
                "result": f"/v1/jobs/{self.id}/result",
                "telemetry": f"/v1/jobs/{self.id}/telemetry",
                "cancel": f"/v1/jobs/{self.id}/cancel",
            },
        }

    def status_payload(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "progress": dict(self.progress),
        }


class JobManager:
    """Supervised worker pool + journal + result store.  Thread-safe."""

    def __init__(
        self,
        state_dir: str,
        *,
        workers: int = 2,
        min_workers: Optional[int] = None,
        max_workers: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
        circuit_threshold: Optional[int] = 3,
        runner_jobs: int = 1,
        trial_timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.1,
        registry: Optional[MetricsRegistry] = None,
        scale_up_after: float = 1.0,
        scale_down_idle: float = 5.0,
        supervise_interval: float = 0.25,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        min_workers = workers if min_workers is None else int(min_workers)
        max_workers = workers if max_workers is None else int(max_workers)
        if not (1 <= min_workers <= workers <= max_workers):
            raise ValueError(
                f"need 1 <= min_workers <= workers <= max_workers, got "
                f"{min_workers} / {workers} / {max_workers}"
            )
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.state_dir = os.path.abspath(state_dir)
        self.jobs_dir = os.path.join(self.state_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.store = ResultStore(
            os.path.join(self.state_dir, "results"),
            on_corrupt=self._record_corrupt_entry,
        )
        self.workers = workers
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.max_queue_depth = max_queue_depth
        self.circuit_threshold = (
            None if not circuit_threshold else int(circuit_threshold)
        )
        self.runner_jobs = runner_jobs
        self.trial_timeout = trial_timeout
        self.retries = retries
        self.backoff = backoff
        self.scale_up_after = scale_up_after
        self.scale_down_idle = scale_down_idle
        self.supervise_interval = supervise_interval
        self.registry = registry if registry is not None else MetricsRegistry()
        # MetricsRegistry increments are not atomic; every server-side
        # record goes through this lock (trial workers are separate
        # *processes* and never touch it).
        self.metrics_lock = threading.Lock()
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._threads: Dict[str, threading.Thread] = {}
        self._heartbeats: Dict[str, float] = {}
        self._stop = threading.Event()
        self._seq = itertools.count(1)  # next() is atomic: no lock needed
        self._worker_seq = 0
        self._target = workers
        self._restarts = 0
        self._supervisor: Optional[threading.Thread] = None
        # autoscaler bookkeeping (supervisor thread only)
        self._backlog_mark: Optional[Tuple[float, int]] = None
        self._idle_since: Optional[float] = None
        # EWMA of finished-job wall-clock, for Retry-After estimates
        self._avg_job_seconds: Optional[float] = None
        # fingerprint -> (consecutive failures, last failure time)
        self._circuit: Dict[str, Tuple[int, float]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover journaled jobs, then start the worker pool and its
        supervisor."""
        self._recover()
        with self._lock:
            self._target = self.workers
            for _ in range(self.workers):
                self._spawn_worker_locked()
        self._supervisor = threading.Thread(
            target=self._supervise_loop,
            name="repro-serve-supervisor",
            daemon=True,
        )
        self._supervisor.start()

    def shutdown(self, *, timeout: float = 30.0) -> None:
        """Graceful stop: interrupt running sweeps (they checkpoint),
        journal interrupted jobs back to ``queued`` for the next
        process, and join the workers.

        The supervisor is quiesced *first*: it restarts crashed workers
        and scales the pool up, and either action after the poison
        pills are counted would leave a worker without a pill (the join
        below would then hang until ``timeout``).  Only once the
        supervisor is provably not spawning is the live-thread set
        snapshotted and one pill sent per worker.
        """
        self._stop.set()
        deadline = time.monotonic() + timeout
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor.join(max(0.1, deadline - time.monotonic()))
            self._supervisor = None
        with self._lock:
            running = [j for j in self._jobs.values() if j.state == "running"]
            threads = list(self._threads.values())
        for job in running:
            job.cancel_event.set()
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join(max(0.1, deadline - time.monotonic()))
        with self._lock:
            self._threads.clear()
            self._heartbeats.clear()

    # ------------------------------------------------------------------
    # supervision: heartbeats, restarts, autoscaling
    # ------------------------------------------------------------------
    def _spawn_worker_locked(self) -> threading.Thread:
        self._worker_seq += 1
        name = f"repro-serve-worker-{self._worker_seq}"
        thread = threading.Thread(
            target=self._worker_main, args=(name,), name=name, daemon=True
        )
        self._threads[name] = thread
        self._heartbeats[name] = time.monotonic()
        thread.start()
        return thread

    def _beat(self, name: str) -> None:
        self._heartbeats[name] = time.monotonic()

    def _supervise_loop(self) -> None:
        while not self._stop.wait(self.supervise_interval):
            try:
                self._supervise_once()
            except Exception:
                # the supervisor must never die of a transient error —
                # it is the thing that un-sticks everything else
                pass

    def _supervise_once(self, now: Optional[float] = None) -> None:
        """One supervision pass: bury + replace crashed workers, shed
        expired queued jobs, apply the autoscaling policy, reconcile
        the pool to its target size."""
        now = time.monotonic() if now is None else now
        restarted = 0
        with self._lock:
            # 1. crashed workers: deregister, count, respawn below via
            #    the reconcile step
            dead = [
                name
                for name, thread in self._threads.items()
                if not thread.is_alive()
            ]
            for name in dead:
                del self._threads[name]
                self._heartbeats.pop(name, None)
            restarted = len(dead)
            self._restarts += restarted

            # 2. deadline shedding for jobs still sitting in the queue
            wall = _now()
            for job in self._jobs.values():
                if (
                    job.state == "queued"
                    and job.deadline is not None
                    and wall > job.deadline
                ):
                    self._shed_locked(job, "deadline")

            # 3. autoscaling policy
            depth = sum(
                1 for j in self._jobs.values() if j.state == "queued"
            )
            busy = depth + sum(
                1 for j in self._jobs.values() if j.state == "running"
            )
            if depth > 0:
                self._idle_since = None
                if self._backlog_mark is None:
                    self._backlog_mark = (now, depth)
                else:
                    since, depth_then = self._backlog_mark
                    sustained = now - since >= self.scale_up_after
                    draining = depth < depth_then  # net drain since mark
                    if draining:
                        # drain rate is keeping up: restart the window
                        self._backlog_mark = (now, depth)
                    elif sustained and self._target < self.max_workers:
                        self._target += 1
                        self._backlog_mark = (now, depth)
            else:
                self._backlog_mark = None
                if busy > 0:
                    self._idle_since = None
                elif self._idle_since is None:
                    self._idle_since = now
                elif (
                    now - self._idle_since >= self.scale_down_idle
                    and self._target > self.min_workers
                ):
                    self._target -= 1
                    self._idle_since = now  # one retire per grace period
                    self._queue.put(_RETIRE)

            # 4. reconcile pool to target (covers both restart-after-
            #    crash and scale-up; scale-down happens via _RETIRE)
            while len(self._threads) < self._target:
                self._spawn_worker_locked()
        if restarted:
            self._metric(
                lambda reg: reg.counter(
                    "repro_serve_worker_restarts_total",
                    "Crashed worker threads restarted by the supervisor",
                ).inc(restarted)
            )

    def pool_stats(self) -> Dict[str, Any]:
        """Supervisor's view of the pool, for ``/healthz`` and tests."""
        now = time.monotonic()
        with self._lock:
            alive = sum(
                1 for t in self._threads.values() if t.is_alive()
            )
            beats = list(self._heartbeats.values())
            return {
                "target": self._target,
                "alive": alive,
                "min": self.min_workers,
                "max": self.max_workers,
                "restarts": self._restarts,
                "oldest_heartbeat_s": (
                    round(now - min(beats), 3) if beats else None
                ),
            }

    def saturation(self) -> float:
        """Queue depth over capacity in ``[0, 1]`` (0 when unbounded)."""
        if self.max_queue_depth is None:
            return 0.0
        return min(1.0, self.queue_depth() / self.max_queue_depth)

    @property
    def draining(self) -> bool:
        return self._stop.is_set()

    # -- chaos injection hooks (exposed over HTTP only behind
    #    --enable-chaos; harmless but useless in production) ------------
    def chaos_kill_worker(self) -> None:
        """Crash one worker at its next queue pickup.  The thread dies
        exactly like an unhandled exception would — still registered —
        so the supervisor has to notice and restart it."""
        self._queue.put(_CHAOS_KILL)

    def chaos_stall_worker(self, seconds: float) -> None:
        """Make one worker sleep ``seconds`` (capped at 30) at its next
        pickup: deterministic busy-pool for flood tests."""
        self._queue.put((_CHAOS_STALL, min(float(seconds), 30.0)))

    def _recover(self) -> None:
        """Re-register every journaled job; re-enqueue unfinished ones."""
        try:
            entries = sorted(os.listdir(self.jobs_dir))
        except OSError:
            return
        recovered = []
        for job_id in entries:
            if job_id in self._jobs:
                # already registered (submitted before start()): replacing
                # the live Job would orphan the submitter's handle
                continue
            directory = os.path.join(self.jobs_dir, job_id)
            try:
                with open(
                    os.path.join(directory, "job.json"), encoding="utf-8"
                ) as handle:
                    record = json.load(handle)
                job = Job(
                    job_id,
                    _specs_from_journal(record),
                    directory=directory,
                    label=record.get("label"),
                    mode=record.get("mode", "async"),
                    created=_number(record.get("created")),
                    deadline=_number(record.get("deadline")),
                )
            except Exception:
                # torn, or parsed but malformed (a list, null specs, a
                # repeated edge, a bad graph index): not recoverable,
                # left on disk, and never in the way of the other jobs
                continue
            status = _load_status(job.status_path)
            state = status.get("state", "queued")
            job.started = _number(status.get("started"))
            job.finished = _number(status.get("finished"))
            error = status.get("error")
            job.error = error if isinstance(error, str) else None
            progress = status.get("progress")
            if isinstance(progress, dict):
                job.progress.update({
                    k: v for k, v in progress.items()
                    if k in job.progress and type(v) is int
                })
            if state in ("done", "failed", "cancelled"):
                job.state = state
                job.done_event.set()
            else:
                # queued, running, or torn status: run it (again); the
                # store + checkpoint make re-execution incremental
                job.state = "queued"
                job.progress.update(
                    completed=0, cached=0, computed=0, resumed=0,
                    failed=0, coalesced=0,
                )
                recovered.append(job.id)
            self._jobs[job.id] = job
        for job_id in recovered:
            self._journal(self._jobs[job_id])
            self._queue.put(job_id)

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(
        self,
        specs: Sequence[TrialSpec],
        *,
        label: Optional[str] = None,
        mode: str = "async",
        deadline_s: Optional[float] = None,
    ) -> Job:
        """Journal and enqueue one job; returns immediately.

        Admission control happens here: raises :class:`Draining` while
        shutting down and :class:`QueueFull` when ``max_queue_depth``
        is reached — both are *shed* submissions
        (``repro_serve_shed_total``), never silently buffered.
        ``deadline_s`` (seconds from now) bounds how long the job may
        wait + run before it is shed as cancelled.
        """
        if not specs:
            raise ValueError("a job needs at least one trial spec")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        # Serialize, fingerprint (in Job) and encode before taking the
        # lock: status reads, /metrics and other submits wait on it.
        journal = _journal_specs(specs)  # may raise
        job_id = f"{int(_now() * 1000):013d}-{next(self._seq):04d}"
        job = Job(
            job_id,
            specs,
            directory=os.path.join(self.jobs_dir, job_id),
            label=label,
            mode=mode,
            deadline=(
                None if deadline_s is None else _now() + float(deadline_s)
            ),
        )
        journal.update(
            schema=SCHEMA_VERSION,
            id=job.id,
            label=job.label,
            mode=job.mode,
            created=job.created,
            deadline=job.deadline,
        )
        text = json.dumps(journal, sort_keys=True)
        with self._lock:
            if self._stop.is_set():
                self._count_shed("draining")
                raise Draining()
            if self.max_queue_depth is not None:
                depth = sum(
                    1 for j in self._jobs.values() if j.state == "queued"
                )
                if depth >= self.max_queue_depth:
                    self._count_shed("queue_full")
                    raise QueueFull(self._retry_after_locked(depth), depth)
            os.makedirs(job.directory, exist_ok=True)
            _atomic_write(job.spec_path, text)
            self._journal(job)
            self._jobs[job.id] = job
        self._metric(
            lambda reg: reg.counter(
                "repro_jobs_submitted_total", "Sweep jobs accepted"
            ).inc()
        )
        self._queue.put(job.id)
        return job

    def _retry_after_locked(self, depth: int) -> int:
        """Whole-second ``Retry-After`` estimate: time for the pool to
        drain one slot at the observed per-job pace."""
        avg = self._avg_job_seconds if self._avg_job_seconds else 1.0
        estimate = depth * avg / max(1, self._target)
        return max(1, min(60, int(estimate) + 1))

    def _count_shed(self, reason: str) -> None:
        self._metric(
            lambda reg: reg.counter(
                "repro_serve_shed_total",
                "Work shed by admission control / deadlines, by reason",
            ).inc(reason=reason)
        )

    def _shed_locked(self, job: Job, reason: str) -> None:
        self._count_shed(reason)
        self._finish_locked(job, "cancelled", f"shed: {reason} exceeded")

    def _record_corrupt_entry(self, fingerprint: str) -> None:
        self._metric(
            lambda reg: reg.counter(
                "repro_store_corrupt_total",
                "Corrupt result-store entries quarantined to *.corrupt",
            ).inc()
        )

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: (j.created, j.id))

    def wait(self, job: Job, timeout: Optional[float] = None) -> bool:
        return job.done_event.wait(timeout)

    def cancel(self, job_id: str) -> Optional[str]:
        """Request cancellation; returns the job's (possibly new) state
        or ``None`` for an unknown id.  Queued jobs cancel immediately;
        running jobs unwind at the runner's next scheduling point."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            job.cancel_event.set()
            if job.state == "queued":
                self._finish_locked(job, "cancelled")
            return job.state

    def results(self, job: Job) -> Optional[List[Dict[str, Any]]]:
        """The per-trial result entries of a finished job (``None`` if
        unfinished or the journal is unreadable)."""
        if job.entries is not None and all(
            e is not None for e in job.entries
        ):
            return list(job.entries)  # in-process, fresh
        try:
            with open(job.results_path, encoding="utf-8") as handle:
                return json.load(handle)["results"]
        except (OSError, ValueError, KeyError):
            return None

    def queue_depth(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == "queued")

    def running_count(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == "running")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _metric(self, record: Callable[[MetricsRegistry], None]) -> None:
        with self.metrics_lock:
            record(self.registry)

    def _journal(self, job: Job) -> None:
        _atomic_write_json(job.status_path, job.status_payload())

    def _finish_locked(self, job: Job, state: str, error: Optional[str] = None) -> None:
        job.state = state
        job.error = error
        job.finished = _now()
        if state == "done" and job.started is not None:
            duration = max(0.0, job.finished - job.started)
            if self._avg_job_seconds is None:
                self._avg_job_seconds = duration
            else:
                self._avg_job_seconds = (
                    0.7 * self._avg_job_seconds + 0.3 * duration
                )
        self._journal(job)
        job.done_event.set()
        self._metric(
            lambda reg: reg.counter(
                "repro_jobs_completed_total", "Jobs finished, by final state"
            ).inc(state=state)
        )

    def _finish(self, job: Job, state: str, error: Optional[str] = None) -> None:
        with self._lock:
            self._finish_locked(job, state, error)

    def _worker_main(self, name: str) -> None:
        try:
            self._worker_loop(name)
        except _ChaosWorkerDeath:
            # injected crash: die silently but *without* deregistering,
            # leaving the same wreckage a real bug would
            pass

    def _worker_loop(self, name: str) -> None:
        while True:
            self._beat(name)
            token = self._queue.get()
            self._beat(name)
            if token is None:
                return  # shutdown pill: stay registered, shutdown joins
            if token is _RETIRE:
                with self._lock:
                    self._threads.pop(name, None)
                    self._heartbeats.pop(name, None)
                return
            if token is _CHAOS_KILL:
                raise _ChaosWorkerDeath(name)
            if isinstance(token, tuple) and token and token[0] is _CHAOS_STALL:
                time.sleep(token[1])
                continue
            if self._stop.is_set():
                # leave the job journaled as queued for the next process
                return
            job_id = token
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.state != "queued":
                    continue
                if job.cancel_event.is_set():
                    self._finish_locked(job, "cancelled")
                    continue
                if job.deadline is not None and _now() > job.deadline:
                    self._shed_locked(job, "deadline")
                    continue
                job.state = "running"
                job.started = _now()
                self._journal(job)
            try:
                self._execute(job)
            except SweepCancelled as exc:
                if getattr(exc, "reason", "cancel") == "deadline":
                    self._count_shed("deadline")
                    self._finish(job, "cancelled", "shed: deadline exceeded")
                elif self._stop.is_set():
                    # shutdown interruption, not a user cancel: requeue
                    # for the next process (checkpoint makes it cheap)
                    with self._lock:
                        job.state = "queued"
                        self._journal(job)
                else:
                    self._finish(job, "cancelled")
            except Exception as exc:  # infrastructure failure
                self._finish(job, "failed", f"{type(exc).__name__}: {exc}")
            self._beat(name)

    def _execute(self, job: Job) -> None:
        specs, fingerprints = job.specs, job.fingerprints
        n = len(specs)
        entries: List[Optional[Dict[str, Any]]] = [None] * n
        job.entries = entries
        cacheable = [self.store.cacheable(s) for s in specs]
        sink = TelemetrySink(job.telemetry_path) if job.telemetry_requested else None

        compute: List[int] = []  # indices this job must run
        followers: List[Tuple[int, threading.Event]] = []
        leaders: Dict[str, int] = {}  # fp -> leading index in this job
        dup_of: Dict[int, int] = {}
        leased: List[str] = []  # fps to abandon if we unwind early

        def cache_entry(index: int, result: Dict[str, Any]) -> None:
            entries[index] = {"status": "ok", "cached": True, "result": result}
            job.progress["completed"] += 1
            job.progress["cached"] += 1
            job.note_convergence(result)
            self._metric(
                lambda reg: reg.counter(
                    "repro_result_cache_hits_total",
                    "Trials served from the content-addressed result store",
                ).inc()
            )
            if sink is not None and result.get("telemetry") is not None:
                sink.write(result["telemetry"])

        def circuit_entry(index: int, fp: str) -> None:
            entries[index] = {
                "status": "failed",
                "cached": False,
                "error_type": "CircuitOpen",
                "error": (
                    f"fingerprint {fp} failed "
                    f"{self.circuit_threshold} consecutive attempts; "
                    f"failing fast (half-opens after "
                    f"{CIRCUIT_COOLDOWN:.0f}s)"
                ),
                "attempts": 0,
                "timed_out": False,
            }
            job.progress["completed"] += 1
            job.progress["failed"] += 1
            self._metric(
                lambda reg: reg.counter(
                    "repro_serve_circuit_open_total",
                    "Trials failed fast because their fingerprint's "
                    "circuit breaker was open",
                ).inc()
            )

        try:
            for i in range(n):
                fp = fingerprints[i]
                if self._circuit_open(fp):
                    circuit_entry(i, fp)
                    continue
                if not cacheable[i]:
                    compute.append(i)
                    continue
                if fp in leaders:
                    dup_of[i] = leaders[fp]
                    continue
                kind, value = self.store.lease(fp)
                if kind == "hit":
                    cache_entry(i, value)
                elif kind == "wait":
                    followers.append((i, value))
                    job.progress["coalesced"] += 1
                    self._metric(
                        lambda reg: reg.counter(
                            "repro_result_inflight_coalesced_total",
                            "Trials that joined another job's in-flight "
                            "computation instead of recomputing",
                        ).inc()
                    )
                else:
                    leaders[fp] = i
                    leased.append(fp)
                    compute.append(i)
            self._journal(job)

            if compute:
                self._run_compute(job, compute, entries, leased, sink)
            orphans: List[int] = []
            for i, event in followers:
                self._check_cancelled(job)
                result, timed_out = self.store.wait(
                    fingerprints[i], event, COALESCE_TIMEOUT
                )
                if timed_out:
                    self._metric(
                        lambda reg: reg.counter(
                            "repro_store_wait_timeouts_total",
                            "Coalesce waits that expired before the "
                            "leading computation fulfilled or abandoned",
                        ).inc()
                    )
                if result is not None:
                    cache_entry(i, result)
                    self._journal(job)
                else:
                    # the leader abandoned (failed / cancelled) or the
                    # wait timed out: compute for ourselves, below
                    orphans.append(i)
            # re-lease so the store still fills (another orphan may have
            # filled it meanwhile), then run the rest under the same
            # runner policies as this job's own trials
            recompute: List[int] = []
            for i in orphans:
                kind, value = self.store.lease(fingerprints[i])
                if kind == "hit":
                    cache_entry(i, value)
                    continue
                if kind == "lease":
                    leased.append(fingerprints[i])
                recompute.append(i)
            if recompute:
                self._run_compute(job, recompute, entries, leased, sink)
            self._journal(job)
            for i, leader in dup_of.items():
                entries[i] = entries[leader]
                job.progress["completed"] += 1
                job.progress["cached"] += 1
                job.note_convergence((entries[leader] or {}).get("result"))
        except BaseException:
            for fp in leased:
                self.store.abandon(fp)
            raise
        finally:
            if sink is not None:
                sink.close()

        _atomic_write_json(
            job.results_path,
            {"schema": SCHEMA_VERSION, "id": job.id, "results": entries},
        )
        self._finish(job, "done")

    def _check_cancelled(self, job: Job) -> None:
        if job.cancel_event.is_set():
            raise SweepCancelled("job cancelled")
        if job.deadline is not None and _now() > job.deadline:
            raise SweepCancelled("job deadline exceeded", reason="deadline")

    # -- circuit breaker ------------------------------------------------
    def _circuit_open(self, fingerprint: str) -> bool:
        if self.circuit_threshold is None:
            return False
        with self._lock:
            record = self._circuit.get(fingerprint)
            if record is None:
                return False
            failures, last = record
            if failures < self.circuit_threshold:
                return False
            if _now() - last >= CIRCUIT_COOLDOWN:
                # half-open: let exactly one attempt through by dropping
                # below the threshold; a failure re-opens, success resets
                self._circuit[fingerprint] = (
                    self.circuit_threshold - 1,
                    last,
                )
                return False
            return True

    def _circuit_record(self, fingerprint: str, ok: bool) -> None:
        if self.circuit_threshold is None:
            return
        with self._lock:
            if ok:
                self._circuit.pop(fingerprint, None)
            else:
                failures, _ = self._circuit.get(fingerprint, (0, 0.0))
                self._circuit[fingerprint] = (failures + 1, _now())

    def _run_compute(
        self,
        job: Job,
        compute: List[int],
        entries: List[Optional[Dict[str, Any]]],
        leased: List[str],
        sink: Optional[TelemetrySink],
    ) -> None:
        """Drive one resilient runner over the to-compute subset; a
        result whose fingerprint this job holds in ``leased`` fills the
        store, a failure abandons the lease."""
        fingerprints = job.fingerprints

        def on_result(local: int, outcome, resumed: bool) -> None:
            index = compute[local]
            fp = fingerprints[index]
            if isinstance(outcome, FailedTrial):
                entries[index] = {
                    "status": "failed",
                    "cached": False,
                    "error_type": outcome.error_type,
                    "error": outcome.error,
                    "attempts": outcome.attempts,
                    "timed_out": outcome.timed_out,
                }
                job.progress["completed"] += 1
                job.progress["failed"] += 1
                if fp in leased:
                    self.store.abandon(fp)
                    leased.remove(fp)
                self._circuit_record(fp, ok=False)
                self._metric(lambda reg: record_failed_trial(reg, outcome))
            else:
                result = execution_to_dict(outcome)
                if fp in leased:
                    self.store.fulfill(fp, result)
                    leased.remove(fp)
                    self._metric(
                        lambda reg: reg.counter(
                            "repro_result_cache_misses_total",
                            "Trials computed because the store had no "
                            "result for their fingerprint",
                        ).inc()
                    )
                entries[index] = {
                    "status": "ok",
                    "cached": False,
                    "result": result,
                }
                job.progress["completed"] += 1
                job.progress["computed"] += 1
                if resumed:
                    job.progress["resumed"] += 1
                job.note_convergence(result)
                self._circuit_record(fp, ok=True)
                self._metric(lambda reg: record_run_result(reg, outcome))
                if sink is not None and result.get("telemetry") is not None:
                    sink.write(result["telemetry"])
            self._journal(job)

        runner = TrialRunner(
            jobs=self.runner_jobs,
            timeout=self.trial_timeout,
            retries=self.retries,
            backoff=self.backoff,
            checkpoint=job.checkpoint_path,
            on_result=on_result,
            cancel=job.cancel_event,
            deadline=job.deadline,
        )
        runner.map([job.specs[i] for i in compute])
