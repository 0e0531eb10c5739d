"""The serve control plane: schema, store, jobs, and the HTTP loop.

Four layers, tested bottom-up:

* request schema — validation errors name the offending field, the
  generator form expands deterministically;
* result store — content addressing, atomic fulfil, single-writer
  leases, the cacheability rule (only seeded specs);
* job manager — submit/execute/cancel, the crash-safe journal,
  concurrent same-spec submissions coalescing onto one computation;
* e2e over real HTTP — submit → poll → results byte-identical to
  calling :func:`repro.parallel.run_trials` directly, resubmission
  observed as a dedup hit on ``repro_result_cache_hits_total``, and
  ``/metrics`` parsing as Prometheus text exposition.

The SIGTERM/restart recovery of a live daemon (journal + checkpoint)
runs the real ``repro serve`` CLI in a subprocess.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.serialize import (
    SCHEMA_VERSION,
    execution_to_dict,
    graph_to_dict,
    trial_spec_to_dict,
)
from repro.graphs.generators import cycle_graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import (
    TrialSpec,
    run_trials,
    spec_fingerprint,
)
from repro.parallel.trial_runner import PROTOCOLS, register_protocol
from repro.serve import (
    Draining,
    JobManager,
    QueueFull,
    ReproServer,
    RequestError,
    ResultStore,
    ServeApp,
    parse_sweep_request,
    run_server,
)


class _SlowMatching(SynchronousMaximalMatching):
    """SMM that naps per rule evaluation — makes trials overlap long
    enough for coalescing/interruption tests.  Module-level so forked
    workers can unpickle it."""

    def enabled_rule(self, view):
        time.sleep(0.02)
        return super().enabled_rule(view)


# ----------------------------------------------------------------------
# request schema
# ----------------------------------------------------------------------
class TestRequestSchema:
    def test_explicit_trials_form(self):
        request = parse_sweep_request(
            {
                "trials": [
                    {
                        "protocol": "smm",
                        "graph": {"family": "cycle", "n": 6},
                        "seed": 3,
                    }
                ]
            }
        )
        assert len(request.specs) == 1
        spec = request.specs[0]
        assert spec.protocol == "smm"
        assert spec.graph == cycle_graph(6)
        assert spec.seed == 3
        assert request.mode == "auto"

    def test_explicit_graph_form(self):
        request = parse_sweep_request(
            {
                "trials": [
                    {
                        "protocol": "sis",
                        "graph": {
                            "nodes": [0, 1, 2],
                            "edges": [[0, 1], [1, 2]],
                        },
                        "seed": 1,
                    }
                ]
            }
        )
        assert request.specs[0].graph.n == 3

    def test_sweep_form_expands_deterministically(self):
        body = {
            "sweep": {
                "protocol": "smm",
                "family": "cycle",
                "n": 8,
                "trials": 4,
                "seed": 99,
            }
        }
        first = parse_sweep_request(body).specs
        second = parse_sweep_request(body).specs
        assert len(first) == 4
        assert [spec_fingerprint(s) for s in first] == [
            spec_fingerprint(s) for s in second
        ]
        # distinct seeds -> distinct initial configurations/fingerprints
        assert len({spec_fingerprint(s) for s in first}) == 4
        # init="random" drew a configuration for every trial
        assert all(s.config is not None for s in first)

    def test_sweep_form_clean_init(self):
        body = {
            "sweep": {
                "protocol": "smm",
                "family": "cycle",
                "n": 8,
                "trials": 2,
                "seed": 5,
                "init": "clean",
            }
        }
        specs = parse_sweep_request(body).specs
        assert all(s.config is None for s in specs)

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ([], "JSON object"),
            ({}, "exactly one of"),
            ({"trials": [], "mode": "auto"}, "non-empty"),
            ({"trials": [{}], "sweep": {}}, "exactly one of"),
            ({"mode": "later", "trials": [{}]}, "mode"),
            ({"schema": 999, "trials": [{}]}, "schema version"),
            (
                {"trials": [{"protocol": "nope", "graph": {"family": "cycle", "n": 4}}]},
                "unknown protocol",
            ),
            (
                {"trials": [{"protocol": "smm", "graph": {"family": "moebius", "n": 4}}]},
                "moebius",
            ),
            (
                {"trials": [{"protocol": "smm", "graph": {"family": "cycle", "n": 0}}]},
                "positive integer",
            ),
            (
                {"trials": [{"protocol": "smm"}]},
                "graph is required",
            ),
            (
                {
                    "trials": [
                        {
                            "protocol": "smm",
                            "graph": {"family": "cycle", "n": 4},
                            "daemon": "chaotic",
                        }
                    ]
                },
                "daemon",
            ),
            (
                {
                    "trials": [
                        {
                            "protocol": "smm",
                            "graph": {"family": "cycle", "n": 4},
                            "config": {"7": 0},
                        }
                    ]
                },
                "not in the graph",
            ),
            ({"sweep": {"protocol": "smm", "family": "cycle", "n": 4, "trials": 0}}, "positive"),
            (
                {"sweep": {"protocol": "smm", "family": "cycle", "n": 4, "init": "warm"}},
                "init",
            ),
        ],
    )
    def test_rejects_with_field_naming_error(self, body, fragment):
        with pytest.raises(RequestError, match=re.escape(fragment)):
            parse_sweep_request(body)


# ----------------------------------------------------------------------
# result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_round_trip_and_hit(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        kind, event = store.lease("abc123")
        assert kind == "lease"
        store.fulfill("abc123", {"moves": 4})
        assert event.is_set()
        assert store.get("abc123") == {"moves": 4}
        kind, value = store.lease("abc123")
        assert kind == "hit" and value == {"moves": 4}
        assert len(store) == 1

    def test_second_lease_waits_then_reads(self, tmp_path):
        store = ResultStore(tmp_path)
        kind, _ = store.lease("fp")
        assert kind == "lease"
        kind, event = store.lease("fp")
        assert kind == "wait"
        seen = {}

        def follower():
            seen["result"], seen["timed_out"] = store.wait(
                "fp", event, timeout=5.0
            )

        thread = threading.Thread(target=follower)
        thread.start()
        store.fulfill("fp", {"ok": True})
        thread.join(5.0)
        assert seen["result"] == {"ok": True}
        assert seen["timed_out"] is False

    def test_abandon_wakes_waiters_without_result(self, tmp_path):
        store = ResultStore(tmp_path)
        store.lease("fp")
        kind, event = store.lease("fp")
        assert kind == "wait"
        store.abandon("fp")
        result, timed_out = store.wait("fp", event, timeout=0.1)
        assert result is None
        assert timed_out is False  # abandoned, not expired
        # the fingerprint is leasable again
        kind, _ = store.lease("fp")
        assert kind == "lease"

    def test_wait_reports_timeout_distinctly(self, tmp_path):
        """Regression: ``wait`` used to discard ``Event.wait``'s bool,
        so an expired wait on a still-computing leader looked exactly
        like an abandoned lease."""
        store = ResultStore(tmp_path)
        store.lease("fp")
        kind, event = store.lease("fp")
        assert kind == "wait"
        result, timed_out = store.wait("fp", event, timeout=0.01)
        assert result is None
        assert timed_out is True  # the leader is still computing
        # once the leader fulfills, a fresh wait succeeds immediately
        store.fulfill("fp", {"ok": 1})
        result, timed_out = store.wait("fp", event, timeout=0.01)
        assert result == {"ok": 1}
        assert timed_out is False

    def test_init_sweeps_crashed_leader_tmp_files(self, tmp_path):
        """Regression: a leader killed between writing its temp file and
        ``os.replace`` left ``<fp>.json.tmp.<pid>.<tid>`` behind forever;
        a fresh store over the same root must sweep it."""
        root = tmp_path / "results"
        store = ResultStore(root)
        store.lease("fp")
        store.fulfill("fp", {"moves": 2})
        # simulate the torn write of a crashed process
        stale = root / "deadbeef.json.tmp.12345.67890"
        stale.write_text('{"moves": 1', encoding="utf-8")
        unrelated = root / "notes.txt"
        unrelated.write_text("keep me", encoding="utf-8")

        reopened = ResultStore(root)
        assert not stale.exists()
        assert unrelated.exists()  # only temp files are swept
        assert reopened.get("fp") == {"moves": 2}
        assert len(reopened) == 1

    def test_cacheable_requires_seed(self):
        graph = cycle_graph(4)
        assert ResultStore.cacheable(TrialSpec("smm", graph, seed=0))
        assert not ResultStore.cacheable(TrialSpec("smm", graph))


# ----------------------------------------------------------------------
# job manager
# ----------------------------------------------------------------------
def _specs(count=3, n=8, seed=100, protocol="smm"):
    graph = cycle_graph(n)
    return [
        TrialSpec(protocol, graph, seed=seed + i, backend="reference")
        for i in range(count)
    ]


def _manager(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    return JobManager(str(tmp_path / "state"), **kwargs)


class TestJobManager:
    def test_submit_execute_results(self, tmp_path):
        manager = _manager(tmp_path)
        manager.start()
        try:
            job = manager.submit(_specs(3))
            assert manager.wait(job, timeout=60)
            assert job.state == "done"
            results = manager.results(job)
            assert len(results) == 3
            assert all(e["status"] == "ok" for e in results)
            direct = [execution_to_dict(r) for r in run_trials(_specs(3))]
            assert [e["result"] for e in results] == direct
            # the journal survives: a fresh manager serves the same job
            assert job.progress["computed"] == 3
        finally:
            manager.shutdown()

    def test_resubmission_hits_store(self, tmp_path):
        manager = _manager(tmp_path)
        manager.start()
        try:
            first = manager.submit(_specs(2))
            assert manager.wait(first, timeout=60)
            second = manager.submit(_specs(2))
            assert manager.wait(second, timeout=60)
            assert second.progress["cached"] == 2
            assert second.progress["computed"] == 0
            assert manager.results(second) is not None
            assert [e["result"] for e in manager.results(second)] == [
                e["result"] for e in manager.results(first)
            ]
        finally:
            manager.shutdown()

    def test_unseeded_specs_never_cache(self, tmp_path):
        manager = _manager(tmp_path)
        manager.start()
        try:
            graph = cycle_graph(6)
            spec = TrialSpec("smm", graph)  # no seed
            for _ in range(2):
                job = manager.submit([spec])
                assert manager.wait(job, timeout=60)
                assert job.progress["computed"] == 1
                assert job.progress["cached"] == 0
            assert len(manager.store) == 0
        finally:
            manager.shutdown()

    def test_within_job_duplicates_collapse(self, tmp_path):
        manager = _manager(tmp_path)
        manager.start()
        try:
            spec = TrialSpec("smm", cycle_graph(8), seed=1)
            job = manager.submit([spec, spec, spec])
            assert manager.wait(job, timeout=60)
            assert job.progress["computed"] == 1
            assert job.progress["cached"] == 2
            results = manager.results(job)
            assert results[0]["result"] == results[1]["result"]
            assert results[1]["result"] == results[2]["result"]
        finally:
            manager.shutdown()

    def test_concurrent_same_spec_submissions_coalesce(self, tmp_path):
        """Satellite: two simultaneous same-spec submissions -> one
        computation, two identical results."""
        register_protocol("slow-serve-test", _SlowMatching)
        try:
            manager = _manager(tmp_path, workers=2)
            manager.start()
            try:
                graph = cycle_graph(10)
                spec = TrialSpec("slow-serve-test", graph, seed=7)
                first = manager.submit([spec])
                second = manager.submit([spec])
                assert manager.wait(first, timeout=120)
                assert manager.wait(second, timeout=120)
                jobs = [first, second]
                computed = sum(j.progress["computed"] for j in jobs)
                coalesced = sum(j.progress["coalesced"] for j in jobs)
                cached = sum(j.progress["cached"] for j in jobs)
                # exactly one computation; the other submission was
                # served by waiting on it (coalesced, then counted as a
                # cache hit when the result arrived)
                assert computed == 1
                assert cached == 1
                assert coalesced <= 1  # 0 if the first job won the race
                                       # before the second even leased
                (a,) = manager.results(first)
                (b,) = manager.results(second)
                assert a["result"] == b["result"]
                with manager.metrics_lock:
                    counters = manager.registry.to_dict(["counter"])
                misses = counters["repro_result_cache_misses_total"]["samples"]
                assert sum(s["value"] for s in misses) == 1
            finally:
                manager.shutdown()
        finally:
            del PROTOCOLS["slow-serve-test"]

    _FOLLOWER_CRASH = """
import os, sys, time
from repro.graphs.generators import cycle_graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import TrialSpec
from repro.parallel.trial_runner import register_protocol
from repro.serve import JobManager

class Dying(SynchronousMaximalMatching):
    def enabled_rule(self, view):
        time.sleep(0.3)
        os._exit(3)

register_protocol("dying", Dying)
manager = JobManager(sys.argv[1], workers=2, retries=0)
manager.start()
try:
    spec = TrialSpec("dying", cycle_graph(6), seed=1)
    jobs = [manager.submit([spec]), manager.submit([spec])]
    for job in jobs:
        assert manager.wait(job, timeout=60)
    for job in jobs:
        (entry,) = manager.results(job)
        print("JOB", job.state, entry["status"], entry["error_type"],
              job.progress["coalesced"], flush=True)
finally:
    manager.shutdown()
"""

    def test_coalesced_follower_of_a_crashed_leader_stays_off_daemon(
        self, tmp_path
    ):
        """Two jobs share one seeded spec whose trial kills its process.
        The follower, woken by the leader's failure, must run the trial
        on a worker process too: run in the daemon's own thread, it
        took the daemon down with exit status 3."""
        proc = subprocess.run(
            [sys.executable, "-c", self._FOLLOWER_CRASH, str(tmp_path / "state")],
            capture_output=True,
            env=_serve_env(),
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stdout, proc.stderr)
        lines = [line.split() for line in proc.stdout.splitlines()]
        jobs = [line[1:] for line in lines if line[:1] == ["JOB"]]
        assert [job[:3] for job in jobs] == [["done", "failed", "WorkerDeath"]] * 2
        assert sum(int(job[3]) for job in jobs) == 1  # one follower coalesced

    def test_cancel_queued_job(self, tmp_path):
        manager = _manager(tmp_path, workers=1)
        # no start(): nothing drains the queue, the job stays queued
        job = manager.submit(_specs(1))
        assert manager.cancel(job.id) == "cancelled"
        assert job.state == "cancelled"
        assert job.done_event.is_set()
        assert manager.cancel("no-such-job") is None

    def test_kill_resume_of_queued_job(self, tmp_path):
        """Satellite: a journaled job survives its manager's death and
        completes under a fresh one (same state dir)."""
        state = tmp_path / "state"
        first = JobManager(str(state), workers=1)
        # submit without starting the pool: the journal now holds a
        # queued job, exactly like a daemon killed before pickup
        job = first.submit(_specs(3))
        assert job.state == "queued"

        second = JobManager(str(state), workers=1)
        second.start()
        try:
            recovered = second.get(job.id)
            assert recovered is not None
            assert second.wait(recovered, timeout=60)
            assert recovered.state == "done"
            direct = [execution_to_dict(r) for r in run_trials(_specs(3))]
            assert [
                e["result"] for e in second.results(recovered)
            ] == direct
        finally:
            second.shutdown()

    def test_failed_trials_complete_the_job(self, tmp_path):
        manager = _manager(tmp_path, workers=1, retries=0)
        manager.start()
        try:
            bad = TrialSpec("smm", cycle_graph(4), daemon="synchronous",
                            seed=1, options=(("no_such_option", 1),))
            job = manager.submit([bad] + _specs(1))
            assert manager.wait(job, timeout=60)
            assert job.state == "done"
            results = manager.results(job)
            assert results[0]["status"] == "failed"
            assert results[1]["status"] == "ok"
            assert job.progress["failed"] == 1
            # a failed trial must not poison the store
            assert manager.store.get(job.fingerprints[0]) is None
        finally:
            manager.shutdown()


# ----------------------------------------------------------------------
# e2e over HTTP
# ----------------------------------------------------------------------
@pytest.fixture
def http_server(tmp_path):
    app = ServeApp(str(tmp_path / "state"), workers=2, retries=1)
    server = ReproServer(app, port=0)
    server.start()
    yield server
    server.shutdown()


def _request(server, method, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def _parse_prometheus(text):
    """Minimal exposition-format parser: {metric key: value}.  Raises
    on any line that is neither a comment nor a valid sample."""
    samples = {}
    pattern = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?)\s+(-?[0-9.e+Inf]+)$"
    )
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = pattern.match(line)
        assert match is not None, f"unparseable exposition line: {line!r}"
        samples[match.group(1)] = float(match.group(2))
    return samples


class TestServeHTTP:
    def test_health_and_index(self, http_server):
        code, body, headers = _request(http_server, "GET", "/healthz")
        assert code == 200
        assert json.loads(body)["status"] == "ok"
        code, body, _ = _request(http_server, "GET", "/")
        assert code == 200
        assert "POST /v1/sweeps" in json.loads(body)["endpoints"]

    def test_full_loop_with_dedup_and_metrics(self, http_server):
        """The acceptance loop: submit -> poll -> results identical to
        run_trials, resubmit -> cache hit observed on /metrics."""
        body = {
            "mode": "async",
            "label": "e2e",
            "sweep": {
                "protocol": "smm",
                "family": "cycle",
                "n": 10,
                "trials": 3,
                "seed": 1234,
                # pin the backend: the server's resilient runner skips
                # batch-sweep dispatch, so 'auto' would legitimately
                # answer from a different (equivalent) kernel and the
                # byte-identity assertion below would see backend="batch"
                "backend": "reference",
            },
        }
        code, raw, _ = _request(http_server, "POST", "/v1/sweeps", body)
        assert code == 202
        job = json.loads(raw)["job"]
        assert job["state"] in ("queued", "running", "done")
        job_id = job["id"]

        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            code, raw, _ = _request(http_server, "GET", f"/v1/jobs/{job_id}")
            assert code == 200
            job = json.loads(raw)["job"]
            if job["state"] == "done":
                break
            time.sleep(0.05)
        assert job["state"] == "done"
        assert job["progress"]["completed"] == 3

        code, raw, _ = _request(
            http_server, "GET", f"/v1/jobs/{job_id}/result"
        )
        assert code == 200
        served = [e["result"] for e in json.loads(raw)["results"]]
        specs = parse_sweep_request(body).specs
        direct = [execution_to_dict(r) for r in run_trials(list(specs))]
        # byte-identical to the direct path, not merely equal
        assert json.dumps(served, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

        # resubmission: all trials served from the store
        code, raw, _ = _request(http_server, "POST", "/v1/sweeps", body)
        assert code == 202
        second_id = json.loads(raw)["job"]["id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            code, raw, _ = _request(
                http_server, "GET", f"/v1/jobs/{second_id}"
            )
            second = json.loads(raw)["job"]
            if second["state"] == "done":
                break
            time.sleep(0.05)
        assert second["progress"]["cached"] == 3
        assert second["progress"]["computed"] == 0

        # /metrics: parseable exposition, and the dedup hit is visible
        code, raw, headers = _request(http_server, "GET", "/metrics")
        assert code == 200
        assert headers["Content-Type"].startswith("text/plain")
        samples = _parse_prometheus(raw.decode())
        assert samples["repro_result_cache_hits_total"] == 3.0
        assert samples["repro_result_cache_misses_total"] == 3.0
        assert samples['repro_jobs_completed_total{state="done"}'] == 2.0
        assert samples["repro_jobs_submitted_total"] == 2.0
        assert any(
            key.startswith("repro_http_requests_total") for key in samples
        )

    def test_sync_mode_answers_inline(self, http_server):
        body = {
            "mode": "sync",
            "trials": [
                {
                    "protocol": "sis",
                    "graph": {"family": "path", "n": 7},
                    "seed": 5,
                }
            ],
        }
        code, raw, _ = _request(http_server, "POST", "/v1/sweeps", body)
        assert code == 200
        payload = json.loads(raw)
        assert payload["job"]["state"] == "done"
        (entry,) = payload["results"]
        assert entry["status"] == "ok"
        assert entry["result"]["protocol"] == "SIS"

    def test_telemetry_endpoint_streams_jsonl(self, http_server, tmp_path):
        body = {
            "mode": "sync",
            "sweep": {
                "protocol": "smm",
                "family": "cycle",
                "n": 8,
                "trials": 2,
                "seed": 77,
                "telemetry": True,
            },
        }
        code, raw, _ = _request(http_server, "POST", "/v1/sweeps", body)
        assert code == 200
        job_id = json.loads(raw)["job"]["id"]
        code, raw, headers = _request(
            http_server, "GET", f"/v1/jobs/{job_id}/telemetry"
        )
        assert code == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        lines = [line for line in raw.decode().splitlines() if line]
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert all("per_round_moves" in r for r in records)
        # and `repro dash` renders a saved copy
        from repro.observability.dash import write_report

        saved = tmp_path / "served-telemetry.jsonl"
        saved.write_bytes(raw)
        out = tmp_path / "report.html"
        summary = write_report(str(saved), str(out))
        assert out.exists()
        assert "2" in summary

    def test_error_paths(self, http_server):
        code, raw, _ = _request(http_server, "GET", "/v1/jobs/nope")
        assert code == 404
        code, raw, _ = _request(http_server, "GET", "/v1/jobs/nope/result")
        assert code == 404
        code, raw, _ = _request(http_server, "POST", "/v1/sweeps", {"trials": []})
        assert code == 400
        assert "error" in json.loads(raw)
        code, raw, _ = _request(http_server, "GET", "/v1/sweeps")
        assert code == 405
        code, raw, _ = _request(http_server, "GET", "/does/not/exist")
        assert code == 404
        # malformed JSON body
        request = urllib.request.Request(
            f"http://127.0.0.1:{http_server.port}/v1/sweeps",
            data=b"{not json",
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30):
                raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as error:
            assert error.code == 400

    def test_result_conflict_while_running(self, http_server):
        register_protocol("slow-http-test", _SlowMatching)
        try:
            body = {
                "mode": "async",
                "trials": [
                    {
                        "protocol": "slow-http-test",
                        "graph": {"family": "cycle", "n": 12},
                        "seed": 3,
                    }
                ],
            }
            code, raw, _ = _request(http_server, "POST", "/v1/sweeps", body)
            assert code == 202
            job_id = json.loads(raw)["job"]["id"]
            code, raw, _ = _request(
                http_server, "GET", f"/v1/jobs/{job_id}/result"
            )
            if code == 409:  # still queued/running (the expected race)
                assert "poll" in json.loads(raw)["error"]
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                code, raw, _ = _request(
                    http_server, "GET", f"/v1/jobs/{job_id}"
                )
                if json.loads(raw)["job"]["state"] == "done":
                    break
                time.sleep(0.05)
            code, _, _ = _request(
                http_server, "GET", f"/v1/jobs/{job_id}/result"
            )
            assert code == 200
        finally:
            del PROTOCOLS["slow-http-test"]


# ----------------------------------------------------------------------
# daemon kill / restart (the acceptance recovery loop)
# ----------------------------------------------------------------------
def _serve_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    return env


def _start_serve(state_dir, extra_args=()):
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--state-dir",
            str(state_dir),
            "--workers",
            "1",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=_serve_env(),
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        text=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
    assert match, f"no listen line from repro serve: {line!r}"
    return proc, int(match.group(1))


def _http(port, method, path, payload=None, timeout=30):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestServeKillRestart:
    def test_sigterm_then_restart_resumes_jobs(self, tmp_path):
        """Kill a busy daemon with SIGTERM: it exits cleanly, and a
        restart on the same state dir picks the interrupted job back up
        and finishes it."""
        state = tmp_path / "state"
        body = {
            "mode": "async",
            "sweep": {
                "protocol": "smm",
                "family": "er-sparse",
                "n": 400,
                "trials": 10,
                "seed": 2024,
                "backend": "reference",
            },
        }
        proc, port = _start_serve(state)
        try:
            code, payload = _http(port, "POST", "/v1/sweeps", body)
            assert code == 202
            job_id = payload["job"]["id"]
            time.sleep(1.0)  # let the sweep get properly underway
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 0, out
        assert "shutdown complete" in out

        # the journal survived the kill
        assert (state / "jobs").is_dir()

        proc, port = _start_serve(state)
        try:
            deadline = time.monotonic() + 180
            job = None
            while time.monotonic() < deadline:
                code, payload = _http(port, "GET", f"/v1/jobs/{job_id}")
                assert code == 200, payload
                job = payload["job"]
                if job["state"] == "done":
                    break
                time.sleep(0.2)
            assert job is not None and job["state"] == "done", job
            # nothing was recomputed needlessly: every trial came from
            # the store, the checkpoint, or one fresh computation
            progress = job["progress"]
            assert progress["completed"] == 10
            assert (
                progress["cached"]
                + progress["computed"]
                + progress["resumed"]
                >= 10
            )
            code, payload = _http(
                port, "GET", f"/v1/jobs/{job_id}/result", timeout=60
            )
            assert code == 200
            assert len(payload["results"]) == 10
            assert all(e["status"] == "ok" for e in payload["results"])
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait(timeout=10)


class TestResponseSchema:
    def test_results_journal_is_versioned(self, tmp_path):
        manager = _manager(tmp_path, workers=1)
        manager.start()
        try:
            job = manager.submit(_specs(1))
            assert manager.wait(job, timeout=60)
            with open(job.results_path, encoding="utf-8") as handle:
                payload = json.load(handle)
            assert payload["schema"] == SCHEMA_VERSION
            assert payload["id"] == job.id
        finally:
            manager.shutdown()


# ----------------------------------------------------------------------
# self-healing control plane: durable-store hardening, admission
# control, supervision/autoscaling, circuit breaking, torn journals
# ----------------------------------------------------------------------
def _metric_value(registry, name, **labels):
    """Sum of a counter family's samples, optionally filtered to one
    exact label set."""
    family = registry.to_dict().get(name)
    if family is None:
        return 0.0
    want = {str(k): str(v) for k, v in labels.items()}
    return sum(
        sample["value"]
        for sample in family["samples"]
        if not want or sample["labels"] == want
    )


class TestStoreHardening:
    def test_corrupt_entry_is_miss_and_quarantined(self, tmp_path):
        corrupted = []
        store = ResultStore(
            str(tmp_path / "store"), on_corrupt=corrupted.append
        )
        spec = _specs(1)[0]
        fp = spec_fingerprint(spec)
        store.fulfill(fp, {"status": "ok", "result": {"x": 1}})
        assert store.get(fp) is not None

        # torn write / bit rot: leave a JSON prefix behind
        with open(store.path(fp), "w", encoding="utf-8") as handle:
            handle.write('{"status": "ok", "resu')
        assert store.get(fp) is None  # miss, not a crash
        assert corrupted == [fp]
        assert not os.path.exists(store.path(fp))
        assert os.path.exists(store.path(fp) + ".corrupt")
        assert len(store) == 0  # quarantined files don't count

    def test_missing_entry_is_plain_miss(self, tmp_path):
        corrupted = []
        store = ResultStore(
            str(tmp_path / "store"), on_corrupt=corrupted.append
        )
        assert store.get("0" * 16) is None
        assert corrupted == []

    def test_sweep_recomputes_after_corruption(self, tmp_path):
        """Satellite regression: a truncated store entry must not crash
        or poison a sweep — the trial is recomputed and the final bytes
        match an untouched run."""
        manager = _manager(tmp_path, workers=1)
        manager.start()
        try:
            first = manager.submit(_specs(2))
            assert manager.wait(first, timeout=60)
            assert first.state == "done"
            reference = [e["result"] for e in manager.results(first)]

            victim = spec_fingerprint(_specs(2)[0])
            with open(
                manager.store.path(victim), "w", encoding="utf-8"
            ) as handle:
                handle.write('{"status"')

            second = manager.submit(_specs(2))
            assert manager.wait(second, timeout=60)
            assert second.state == "done"
            assert second.progress["computed"] == 1  # the victim
            assert second.progress["cached"] == 1  # the survivor
            assert [e["result"] for e in manager.results(second)] == reference
            assert (
                _metric_value(manager.registry, "repro_store_corrupt_total")
                >= 1
            )
            assert os.path.exists(manager.store.path(victim) + ".corrupt")
        finally:
            manager.shutdown()


class TestAdmissionControl:
    def test_queue_full_raises_with_retry_after(self, tmp_path):
        manager = _manager(tmp_path, workers=1, max_queue_depth=1)
        # not started: the queued job cannot drain, so depth is exact
        manager.submit(_specs(1))
        with pytest.raises(QueueFull) as excinfo:
            manager.submit(_specs(1, seed=500))
        assert excinfo.value.retry_after >= 1
        assert excinfo.value.depth == 1
        assert (
            _metric_value(
                manager.registry,
                "repro_serve_shed_total",
                reason="queue_full",
            )
            == 1
        )
        assert manager.saturation() == 1.0

    def test_draining_rejects_submissions(self, tmp_path):
        manager = _manager(tmp_path, workers=1)
        manager.start()
        manager.shutdown()
        with pytest.raises(Draining):
            manager.submit(_specs(1))
        assert (
            _metric_value(
                manager.registry, "repro_serve_shed_total", reason="draining"
            )
            == 1
        )

    def test_expired_deadline_sheds_queued_job(self, tmp_path):
        manager = _manager(
            tmp_path, workers=1, supervise_interval=0.05
        )
        job = manager.submit(_specs(1), deadline_s=0.01)
        time.sleep(0.1)  # expire while still queued
        manager.start()
        try:
            assert job.done_event.wait(30)
            assert job.state == "cancelled"
            assert "deadline" in job.error
            assert (
                _metric_value(
                    manager.registry,
                    "repro_serve_shed_total",
                    reason="deadline",
                )
                >= 1
            )
        finally:
            manager.shutdown()

    def test_deadline_survives_recovery(self, tmp_path):
        """A journaled deadline is enforced by the *next* process too."""
        manager = _manager(tmp_path, workers=1)
        job = manager.submit(_specs(1), deadline_s=0.01)
        job_id = job.id
        time.sleep(0.1)
        # simulate a crash-restart: a fresh manager on the same state
        second = _manager(tmp_path, workers=1, supervise_interval=0.05)
        second.start()
        try:
            recovered = second.get(job_id)
            assert recovered is not None
            assert recovered.done_event.wait(30)
            assert recovered.state == "cancelled"
            assert "deadline" in recovered.error
        finally:
            second.shutdown()

    def test_http_429_with_retry_after_header(self, tmp_path):
        app = ServeApp(
            str(tmp_path / "state"),
            workers=1,
            max_queue_depth=1,
            enable_chaos=True,
        )
        server = ReproServer(app, port=0)
        server.start()
        try:
            app.manager.chaos_stall_worker(3.0)  # pin the only worker
            time.sleep(0.2)
            body = {
                "mode": "async",
                "sweep": {
                    "protocol": "smm",
                    "family": "cycle",
                    "n": 8,
                    "trials": 1,
                    "seed": 1,
                    "backend": "reference",
                },
            }
            codes = []
            rejected_headers = []
            for seed in range(5):
                body["sweep"]["seed"] = seed
                code, raw, headers = _request(
                    server, "POST", "/v1/sweeps", body
                )
                codes.append(code)
                if code == 429:
                    rejected_headers.append((headers, json.loads(raw)))
            assert 429 in codes, codes
            assert 202 in codes, codes
            for headers, payload in rejected_headers:
                assert int(headers["Retry-After"]) >= 1
                assert payload["retry_after"] == int(headers["Retry-After"])
            # saturation + shed counter are scrapeable
            code, raw, _ = _request(server, "GET", "/metrics")
            samples = _parse_prometheus(raw.decode())
            assert samples['repro_serve_shed_total{reason="queue_full"}'] >= 1
            assert samples["repro_serve_queue_saturation"] == 1.0
        finally:
            server.shutdown()

    def test_http_503_when_draining(self, tmp_path):
        app = ServeApp(str(tmp_path / "state"), workers=1)
        server = ReproServer(app, port=0)
        server.start()
        try:
            app.manager._stop.set()  # what SIGTERM does first
            body = {
                "mode": "async",
                "sweep": {
                    "protocol": "smm",
                    "family": "cycle",
                    "n": 8,
                    "trials": 1,
                    "seed": 1,
                },
            }
            code, raw, headers = _request(server, "POST", "/v1/sweeps", body)
            assert code == 503
            assert "Retry-After" in headers
            code, raw, _ = _request(server, "GET", "/healthz")
            assert json.loads(raw)["status"] == "draining"
        finally:
            app.manager._stop.clear()  # let shutdown() run normally
            server.shutdown()

    def test_chaos_endpoint_is_gated(self, http_server):
        code, _, _ = _request(
            http_server, "POST", "/v1/chaos", {"fault": "kill_worker"}
        )
        assert code == 404  # not enabled on this server


class TestSupervisor:
    def test_crashed_worker_is_restarted(self, tmp_path):
        manager = _manager(
            tmp_path, workers=1, supervise_interval=0.05
        )
        manager.start()
        try:
            manager.chaos_kill_worker()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = manager.pool_stats()
                if stats["restarts"] >= 1 and stats["alive"] == stats["target"]:
                    break
                time.sleep(0.05)
            stats = manager.pool_stats()
            assert stats["restarts"] >= 1, stats
            assert stats["alive"] == stats["target"] == 1, stats
            assert (
                _metric_value(
                    manager.registry, "repro_serve_worker_restarts_total"
                )
                >= 1
            )
            # the restarted pool still serves jobs
            job = manager.submit(_specs(2))
            assert manager.wait(job, timeout=60)
            assert job.state == "done"
        finally:
            manager.shutdown()

    def test_autoscales_up_under_backlog_then_back_down(self, tmp_path):
        manager = _manager(
            tmp_path,
            workers=1,
            min_workers=1,
            max_workers=3,
            scale_up_after=0.1,
            scale_down_idle=0.2,
            supervise_interval=0.05,
        )
        manager.start()
        try:
            manager.chaos_stall_worker(2.0)  # pin so backlog sustains
            time.sleep(0.1)
            jobs = [
                manager.submit(_specs(2, seed=500 + i * 10))
                for i in range(5)
            ]
            grew = 1
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                grew = max(grew, manager.pool_stats()["target"])
                if grew > 1 and all(j.done_event.is_set() for j in jobs):
                    break
                time.sleep(0.02)
            assert grew > 1, "pool never scaled up under sustained backlog"
            assert all(j.state == "done" for j in jobs)
            # idle pool shrinks back to min_workers (and the retired
            # threads actually exit)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                stats = manager.pool_stats()
                if stats["target"] == 1 and stats["alive"] == 1:
                    break
                time.sleep(0.05)
            stats = manager.pool_stats()
            assert stats["target"] == 1 and stats["alive"] == 1, stats
        finally:
            manager.shutdown()

    def test_shutdown_under_load_terminates(self, tmp_path):
        """Satellite 6 pin: shutdown with a full queue, busy workers,
        and an active supervisor must quiesce within the timeout — the
        supervisor may not resurrect workers after their poison pills
        are counted."""
        register_protocol("slow-shutdown-test", _SlowMatching)
        try:
            manager = _manager(
                tmp_path,
                workers=2,
                min_workers=1,
                max_workers=4,
                scale_up_after=0.1,
                supervise_interval=0.05,
            )
            manager.start()
            jobs = [
                manager.submit(
                    _specs(2, seed=900 + i, protocol="slow-shutdown-test")
                )
                for i in range(6)
            ]
            time.sleep(0.4)  # let work start and the autoscaler engage
            began = time.monotonic()
            manager.shutdown(timeout=30)
            assert time.monotonic() - began < 25
            assert manager._supervisor is None
            assert not manager._threads
            for job in jobs:
                # every job ended in a legal journaled state; running
                # ones were re-queued for the next process
                assert job.state in ("queued", "done", "cancelled")
        finally:
            del PROTOCOLS["slow-shutdown-test"]

    def test_worker_bounds_validated(self, tmp_path):
        with pytest.raises(ValueError):
            _manager(tmp_path, workers=2, max_workers=1)
        with pytest.raises(ValueError):
            _manager(tmp_path, workers=1, min_workers=2)
        with pytest.raises(ValueError):
            _manager(tmp_path, workers=1, min_workers=0)
        with pytest.raises(ValueError):
            _manager(tmp_path, workers=1, max_queue_depth=0)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self, tmp_path):
        manager = _manager(
            tmp_path, workers=1, circuit_threshold=2, retries=0
        )
        manager.start()
        try:
            bad = [
                TrialSpec(
                    "smm", cycle_graph(8), seed=1, backend="nonexistent"
                )
            ]
            error_types = []
            for _ in range(4):
                job = manager.submit(bad)
                assert manager.wait(job, timeout=60)
                error_types.append(job.entries[0].get("error_type"))
            # first two fail for real, then the breaker fails fast
            assert error_types[2:] == ["CircuitOpen", "CircuitOpen"]
            assert "CircuitOpen" not in error_types[:2]
            assert (
                _metric_value(
                    manager.registry, "repro_serve_circuit_open_total"
                )
                >= 2
            )
        finally:
            manager.shutdown()

    def test_open_circuit_does_not_affect_other_fingerprints(self, tmp_path):
        manager = _manager(
            tmp_path, workers=1, circuit_threshold=1, retries=0
        )
        manager.start()
        try:
            bad = [
                TrialSpec(
                    "smm", cycle_graph(8), seed=1, backend="nonexistent"
                )
            ]
            for _ in range(2):
                job = manager.submit(bad)
                assert manager.wait(job, timeout=60)
            assert job.entries[0]["error_type"] == "CircuitOpen"
            good = manager.submit(_specs(2))
            assert manager.wait(good, timeout=60)
            assert good.state == "done"
            assert all(e["status"] == "ok" for e in manager.results(good))
        finally:
            manager.shutdown()


class TestTornJournalRecovery:
    """Satellite property test: truncating any journal file at any byte
    offset before restart leaves every job recoverable to a legal state
    with no duplicate execution (the intact store answers everything)."""

    @pytest.mark.parametrize("case_seed", [0, 1, 2, 3, 4])
    def test_truncated_journals_recover(self, tmp_path, case_seed):
        import random
        import shutil

        origin = tmp_path / "origin"
        manager = JobManager(str(origin), workers=1)
        manager.start()
        job_ids = []
        try:
            for i in range(2):
                job = manager.submit(_specs(2, seed=1000 + 10 * i))
                assert manager.wait(job, timeout=60)
                assert job.state == "done"
                job_ids.append(job.id)
        finally:
            manager.shutdown()

        state = tmp_path / f"torn-{case_seed}"
        shutil.copytree(origin, state)
        rng = random.Random(case_seed)
        torn = {}
        for job_id in job_ids:
            directory = state / "jobs" / job_id
            name = rng.choice(
                ["job.json", "status.json", "checkpoint.jsonl"]
            )
            torn[job_id] = name
            path = directory / name
            data = path.read_bytes()
            path.write_bytes(data[: rng.randrange(0, max(1, len(data)))])

        recovered = JobManager(str(state), workers=1)
        recovered.start()
        try:
            for job_id in job_ids:
                job = recovered.get(job_id)
                if job is None:
                    # a strict prefix of job.json never parses: the job
                    # is unrecoverable and skipped, never half-loaded
                    assert torn[job_id] == "job.json"
                    continue
                assert job.state in (
                    "queued",
                    "running",
                    "done",
                    "failed",
                    "cancelled",
                )
                assert job.done_event.wait(60), job.state
                assert job.state == "done"
                if torn[job_id] == "status.json":
                    # the job was re-run from scratch — but the intact
                    # store answered every trial, so nothing executed
                    # twice
                    assert job.progress["completed"] == 2
                    assert job.progress["computed"] == 0
                    assert job.progress["cached"] == 2
                results = recovered.results(job)
                assert results is not None and len(results) == 2
        finally:
            recovered.shutdown()


def _finished_jobs(state, count, trials=2):
    """Run ``count`` jobs of ``trials`` specs each to completion on
    ``state`` (so the store holds every result); their ids."""
    manager = JobManager(str(state), workers=1)
    manager.start()
    ids = []
    try:
        for i in range(count):
            job = manager.submit(_specs(trials, seed=1000 + 10 * i))
            assert manager.wait(job, timeout=60)
            assert job.state == "done"
            ids.append(job.id)
    finally:
        manager.shutdown()
    return ids


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


class TestJournalLayout:
    """``job.json`` holds each distinct graph once, in ``graphs``; a
    spec's ``graph`` is its index there."""

    def test_generator_job_journals_one_graph(self, tmp_path):
        specs = parse_sweep_request({
            "sweep": {"protocol": "smm", "family": "cycle", "n": 12,
                      "trials": 5, "seed": 4},
        }).specs
        manager = _manager(tmp_path, workers=1)
        job = manager.submit(specs)  # no start(): the journal is enough
        record = _read_json(job.spec_path)
        assert record["graphs"] == [graph_to_dict(specs[0].graph)]
        assert [s["graph"] for s in record["specs"]] == [0] * 5

    def test_recovered_specs_share_one_graph(self, tmp_path):
        state = tmp_path / "state"
        specs = _specs(3) + _specs(2, n=5)
        job = JobManager(str(state), workers=1).submit(specs)
        assert [s["graph"] for s in _read_json(job.spec_path)["specs"]] == [
            0, 0, 0, 1, 1
        ]

        manager = JobManager(str(state), workers=1)
        manager.start()
        try:
            recovered = manager.get(job.id)
            graphs = [spec.graph for spec in recovered.specs]
            assert graphs[0] is graphs[1] is graphs[2]
            assert graphs[3] is graphs[4]
            assert graphs[0] == specs[0].graph and graphs[3] == specs[3].graph
            assert recovered.fingerprints == job.fingerprints
            assert manager.wait(recovered, timeout=60)
            assert [e["result"] for e in manager.results(recovered)] == [
                execution_to_dict(r) for r in run_trials(specs)
            ]
        finally:
            manager.shutdown()

    def test_old_layout_recovers_from_store(self, tmp_path):
        """A ``job.json`` written before the ``graphs`` list, with an
        inline graph in every spec, recovers and is served from the
        store."""
        state = tmp_path / "state"
        _finished_jobs(state, 1, trials=3)
        specs = _specs(3, seed=1000)
        job_id = "0000000000001-0001"
        directory = state / "jobs" / job_id
        directory.mkdir()
        _write_json(directory / "job.json", {
            "schema": SCHEMA_VERSION,
            "id": job_id,
            "label": "old layout",
            "mode": "async",
            "created": time.time(),
            "deadline": None,
            "specs": [trial_spec_to_dict(spec) for spec in specs],
        })

        manager = JobManager(str(state), workers=1)
        manager.start()
        try:
            job = manager.get(job_id)
            assert job is not None and job.label == "old layout"
            assert manager.wait(job, timeout=60)
            assert job.state == "done"
            assert job.progress["computed"] == 0
            assert job.progress["cached"] == 3
            assert [e["result"] for e in manager.results(job)] == [
                execution_to_dict(r) for r in run_trials(specs)
            ]
        finally:
            manager.shutdown()


def _repeat_first_edge(record):
    graphs = [dict(g, edges=g["edges"] + g["edges"][:1]) for g in record["graphs"]]
    return dict(record, graphs=graphs)


class TestMalformedJournalRecovery:
    """A journal file that parses but is malformed is skipped the way a
    torn one is: ``start()`` succeeds, the bad ``job.json``'s job is
    left on disk unloaded (a bad ``status.json`` is read as torn, so its
    job re-runs from the store), and a sibling job still recovers."""

    CASES = {
        "specs-null": ("job.json", lambda r: dict(r, specs=None)),
        "record-is-a-list": ("job.json", lambda r: [r]),
        "repeated-edge": ("job.json", _repeat_first_edge),
        "graph-index-out-of-range": (
            "job.json",
            lambda r: dict(r, specs=[dict(s, graph=1) for s in r["specs"]]),
        ),
        "graph-index-negative": (
            "job.json",
            lambda r: dict(r, specs=[dict(s, graph=-1) for s in r["specs"]]),
        ),
        "status-is-a-list": ("status.json", lambda r: []),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_journal_is_skipped(self, tmp_path, case):
        state = tmp_path / "state"
        bad, sibling = _finished_jobs(state, 2)
        name, corrupt = self.CASES[case]
        path = state / "jobs" / bad / name
        _write_json(path, corrupt(_read_json(path)))
        # the sibling was mid-run when the daemon died
        _write_json(state / "jobs" / sibling / "status.json", {"state": "running"})

        manager = JobManager(str(state), workers=1)
        manager.start()
        try:
            job = manager.get(sibling)
            assert job is not None and manager.wait(job, timeout=60)
            assert job.state == "done"
            assert job.progress["cached"] == 2
            assert job.progress["computed"] == 0
            skipped = manager.get(bad)
            if name == "job.json":
                assert skipped is None
                assert path.exists()
            else:
                assert manager.wait(skipped, timeout=60)
                assert skipped.state == "done"
                assert skipped.progress["computed"] == 0
        finally:
            manager.shutdown()


class TestRunServerErrors:
    def test_bound_port_exits_2(self, tmp_path, capsys):
        import socket

        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            rc = run_server(
                state_dir=str(tmp_path / "state"), port=port
            )
        finally:
            blocker.close()
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot bind" in err
        assert err.count("\n") == 1  # one-line diagnostic, no traceback

    def test_cli_rejects_bad_worker_ordering(self, tmp_path):
        from repro.cli import main

        state = str(tmp_path / "state")
        for argv in (
            ["serve", "--state-dir", state, "--workers", "2",
             "--max-workers", "1"],
            ["serve", "--state-dir", state, "--workers", "1",
             "--min-workers", "2"],
            ["serve", "--state-dir", state, "--min-workers", "0"],
            ["serve", "--state-dir", state, "--max-queue-depth", "0"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
