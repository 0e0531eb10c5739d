"""Parallel trial execution for the experiment harness.

Every experiment quantifies over graph families × sizes × dozens of
seeded initial configurations; the trials are independent, so the sweep
is embarrassingly parallel.  This package runs :class:`TrialSpec`
records on forked worker processes while keeping results bit-identical
to serial execution (pinned by ``tests/test_parallel.py``):

* specs are plain data (protocol *name*, graph, configuration, integer
  seed) — a worker rebuilds protocol objects from :data:`PROTOCOLS` and
  derives RNGs from the spec's seed via :mod:`repro.rng`, so the result
  of a trial is a pure function of its spec regardless of which process
  runs it;
* results come back in spec order;
* ``jobs=1`` (the default everywhere) runs inline — no process, no
  pickling;
* otherwise up to ``jobs`` long-lived workers are forked once the spec
  list is final, so they inherit the specs (graphs included) and only
  indices and results cross their pipes; each pins BLAS/OMP to one
  thread so ``jobs`` processes never oversubscribe the machine;
* the resilience policies (``timeout``/``retries``/``checkpoint``)
  give sweeps per-trial wall-clock timeouts, bounded retry with
  exponential backoff on a fresh worker, :class:`FailedTrial` records
  instead of sweep aborts, and JSONL checkpoint/resume keyed by
  :func:`spec_fingerprint`;
* batch-sweep dispatch (:mod:`repro.parallel.batch_sweep`) runs each
  group of same-graph synchronous specs as one ``(k, n)`` batch-kernel
  call in the calling process, ahead of per-trial execution.

See docs/performance.md for usage and measured numbers.
"""

from repro.parallel.batch_sweep import dispatch_groups, sweep_eligible
from repro.parallel.trial_runner import (
    PROTOCOLS,
    FailedTrial,
    SweepCancelled,
    SweepInterrupted,
    TrialRunner,
    TrialSpec,
    execute_trial,
    resolve_jobs,
    run_trials,
    spec_fingerprint,
)

__all__ = [
    "PROTOCOLS",
    "FailedTrial",
    "SweepCancelled",
    "SweepInterrupted",
    "TrialRunner",
    "TrialSpec",
    "dispatch_groups",
    "execute_trial",
    "resolve_jobs",
    "run_trials",
    "spec_fingerprint",
    "sweep_eligible",
]
