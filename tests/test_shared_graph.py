"""Worker lifecycle: no worker process outlives its sweep.

The scheduler forks long-lived workers that inherit the sweep's specs
(graphs included, so no graph is ever shipped to them).  This file pins
their lifecycle: the workers are gone when the sweep returns, whether
it completes, raises, loses a worker, is cancelled or times a trial
out; they exit on their own when the parent process is SIGKILLed; and
a SIGTERM'd sweep stops them on its way out, with its checkpoint
flushed.  The equivalence half (worker results byte-identical to
inline) lives in ``test_engine_equivalence.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.faults import random_configuration
from repro.engine import make_protocol
from repro.graphs.generators import erdos_renyi_graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import (
    FailedTrial,
    SweepCancelled,
    TrialRunner,
    TrialSpec,
    run_trials,
)
from repro.parallel.trial_runner import PROTOCOLS, register_protocol
from repro.rng import ensure_rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _graph(n=12, seed=0):
    return erdos_renyi_graph(n, 0.3, ensure_rng(seed))


def _specs(graph, count=3, backend="vectorized"):
    protocol = make_protocol("smm")
    return [
        TrialSpec(
            "smm",
            graph,
            random_configuration(protocol, graph, ensure_rng(s)),
            backend=backend,
        )
        for s in range(count)
    ]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")] if p
    )
    return env


def _exited(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return True
    return state in ("Z", "X")


class _CrashingMatching(SynchronousMaximalMatching):
    """SMM that kills its worker process outright — the WorkerDeath
    fixture."""

    def enabled_rule(self, view):
        os._exit(13)


class _HangingMatching(SynchronousMaximalMatching):
    """SMM whose first rule evaluation outlives any test timeout."""

    def enabled_rule(self, view):
        time.sleep(60)


class TestSweepHygiene:
    def test_no_worker_after_completed_sweep(self):
        graph = _graph(n=30, seed=4)
        results = run_trials(_specs(graph, count=4), jobs=2)
        assert len(results) == 4
        assert multiprocessing.active_children() == []

    def test_no_worker_after_sweep_that_raises(self):
        graph = _graph(n=30, seed=5)
        specs = _specs(graph, count=3)
        specs[1] = TrialSpec("no-such-protocol", graph)
        with pytest.raises(Exception):
            run_trials(specs, jobs=2)
        assert multiprocessing.active_children() == []

    def test_no_worker_after_worker_crash(self):
        register_protocol("crashing-test", _CrashingMatching)
        try:
            graph = _graph(n=30, seed=6)
            good = _specs(graph, count=1)
            crash = TrialSpec("crashing-test", graph)
            results = TrialRunner(jobs=2, retries=1, backoff=0.05).map(
                good + [crash]
            )
        finally:
            del PROTOCOLS["crashing-test"]
        assert not isinstance(results[0], FailedTrial)
        assert isinstance(results[1], FailedTrial)
        assert results[1].error_type == "WorkerDeath"
        assert results[1].attempts == 2
        assert multiprocessing.active_children() == []

    def test_no_worker_after_cancelled_sweep(self):
        register_protocol("hanging-test", _HangingMatching)
        cancel = threading.Event()
        try:
            graph = _graph(n=20, seed=8)
            specs = _specs(graph, count=2) + [TrialSpec("hanging-test", graph)]
            timer = threading.Timer(0.5, cancel.set)
            timer.start()
            started = time.monotonic()
            with pytest.raises(SweepCancelled):
                TrialRunner(jobs=2, cancel=cancel, batch_sweep=False).map(
                    specs
                )
            timer.join()
        finally:
            del PROTOCOLS["hanging-test"]
        assert time.monotonic() - started < 30  # the hung trial was killed
        assert multiprocessing.active_children() == []

    def test_no_worker_after_timed_out_sweep(self):
        register_protocol("hanging-test", _HangingMatching)
        try:
            graph = _graph(n=20, seed=9)
            specs = [TrialSpec("hanging-test", graph)] + _specs(graph, count=2)
            results = TrialRunner(jobs=1, timeout=2.0).map(specs)
        finally:
            del PROTOCOLS["hanging-test"]
        assert isinstance(results[0], FailedTrial)
        assert results[0].error_type == "Timeout" and results[0].timed_out
        assert not any(isinstance(r, FailedTrial) for r in results[1:])
        assert multiprocessing.active_children() == []

    _KILLED = """
import multiprocessing, sys, time
from repro.graphs.generators import erdos_renyi_graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import TrialRunner, TrialSpec
from repro.parallel.trial_runner import register_protocol
from repro.rng import ensure_rng

class Slow(SynchronousMaximalMatching):
    def enabled_rule(self, view):
        time.sleep(0.01)
        return super().enabled_rule(view)

register_protocol("slow-kill-test", Slow)
graph = erdos_renyi_graph(40, 0.1, ensure_rng(7))
specs = [TrialSpec("slow-kill-test", graph, seed=s) for s in range(8)]

def report(index, outcome, resumed):
    pids = " ".join(str(p.pid) for p in multiprocessing.active_children())
    print("PIDS", pids, flush=True)

TrialRunner(jobs=2, checkpoint=sys.argv[1], on_result=report).map(specs)
"""

    def test_no_worker_after_parent_killed(self, tmp_path):
        # SIGKILL a parent mid-sweep: it never reaches its cleanup, so
        # its orphaned workers must notice and exit on their own.  The
        # sweep then resumes from its checkpoint.
        ck = tmp_path / "sweep.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-c", self._KILLED, str(ck)],
            stdout=subprocess.PIPE,
            env=_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            line = proc.stdout.readline().split()
            assert line and line[0] == "PIDS", line
            pids = [int(pid) for pid in line[1:]]
            assert pids
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
        deadline = time.monotonic() + 20
        while not all(_exited(pid) for pid in pids):
            assert time.monotonic() < deadline, "orphaned workers linger"
            time.sleep(0.1)

        # the resumed sweep needs the same protocol name, not the naps
        register_protocol("slow-kill-test", SynchronousMaximalMatching)
        try:
            graph = erdos_renyi_graph(40, 0.1, ensure_rng(7))
            specs = [
                TrialSpec("slow-kill-test", graph, seed=s) for s in range(8)
            ]
            flags = []
            results = TrialRunner(
                jobs=2,
                checkpoint=str(ck),
                on_result=lambda i, outcome, resumed: flags.append(resumed),
            ).map(specs)
        finally:
            del PROTOCOLS["slow-kill-test"]
        assert not any(isinstance(r, FailedTrial) for r in results)
        assert flags.count(True) >= 1
        assert multiprocessing.active_children() == []


class TestSignalDrivenShutdown:
    """SIGTERM during a resilient sweep: the runner converts it into an
    unwinding exception, so the checkpoint JSONL is flushed and every
    worker is stopped before the process exits with the conventional
    128+15 status."""

    _SCRIPT = """
import multiprocessing, sys, time
from repro.graphs.generators import erdos_renyi_graph
from repro.rng import ensure_rng
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import TrialRunner, TrialSpec
from repro.parallel.trial_runner import register_protocol

class SlowMatching(SynchronousMaximalMatching):
    def enabled_rule(self, view):
        time.sleep(0.005)
        return super().enabled_rule(view)

def report(index, outcome, resumed):
    pids = " ".join(str(p.pid) for p in multiprocessing.active_children())
    print("DONE", index, pids, flush=True)

register_protocol("slow-sig-test", SlowMatching)
graph = erdos_renyi_graph(60, 0.1, ensure_rng(3))
specs = [TrialSpec("slow-sig-test", graph, seed=s) for s in range(6)]
TrialRunner(jobs=1, checkpoint=sys.argv[1], on_result=report).map(specs)
print("FINISHED", flush=True)
"""

    def test_sigterm_flushes_checkpoint_and_stops_workers(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-c", self._SCRIPT, str(ck)],
            stdout=subprocess.PIPE,
            env=_env(),
            cwd=ROOT,
            text=True,
        )
        pids = set()
        try:
            done = 0
            for line in proc.stdout:
                if line.startswith("DONE"):
                    done += 1
                    pids.update(int(pid) for pid in line.split()[2:])
                if done == 2:
                    break
            assert done == 2, "sweep never produced two results"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
        assert proc.returncode == 143  # 128 + SIGTERM, via SweepInterrupted
        # the flushed checkpoint holds everything that completed
        lines = [
            line
            for line in ck.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        assert len(lines) >= 2
        # ... and the SIGTERM'd parent stopped its worker on the way out
        assert pids and all(_exited(pid) for pid in pids)

        # a resumed sweep completes from the checkpoint
        register_protocol("slow-sig-test", SynchronousMaximalMatching)
        try:
            graph = erdos_renyi_graph(60, 0.1, ensure_rng(3))
            specs = [
                TrialSpec("slow-sig-test", graph, seed=s) for s in range(6)
            ]
            resumed_flags = []
            results = TrialRunner(
                jobs=1,
                checkpoint=str(ck),
                on_result=lambda i, outcome, resumed: resumed_flags.append(
                    resumed
                ),
            ).map(specs)
        finally:
            del PROTOCOLS["slow-sig-test"]
        assert len(results) == 6
        assert not any(isinstance(r, FailedTrial) for r in results)
        assert resumed_flags.count(True) >= 2
        assert multiprocessing.active_children() == []
