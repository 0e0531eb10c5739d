"""served-sweep: the engine reached through the ``repro serve`` daemon.

A daemon runs in its own process with default flags (an ephemeral port
and a state directory of the benchmark's are deployment settings) and
starts on an empty state directory.  One client on one connection, in a
closed loop, submits distinct sync generator-form sweeps (ER graphs of
1,024 nodes, 8 random starts each, SMM and SIS alternating): the cold
phase, timed request by request, in whole SMM+SIS pairs.  The client
then sends SIGTERM, restarts the daemon on the same state directory
(timed until ``/healthz`` answers) and re-submits the same bodies
twice: the warm phase, answered from the store.  ``ops_per_s`` counts
the cold phase's trials, ``call_ms`` times the warm phase's requests.

Checks: every response is 200 with every entry ok; served results
equal a ``run_trials`` of the same specs (parsed with
``parse_sweep_request``) in this process on every summary field except
timing and backend; final configurations pass the SMM/SIS verifier; the
warm phase's cache-hit delta on ``/metrics`` equals the trials sent and
its results are byte-equal to the cold ones; both daemons exit 0 after
"shutdown complete" and leave nothing new in ``/dev/shm``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
from typing import Dict, List, Optional

from . import verify
from .clock import Meter, peak_rss_mb
from .common import Context, Outcome, put_end_to_end, put_layer_metrics
from .inputs import SERVED_TRIALS, served_body

#: SMM+SIS request pairs in one session's cold phase.  A fixed number,
#: so every restart recovers the same journal; the run repeats whole
#: sessions, each on a fresh daemon and state directory, until its time
#: is up (a traced run makes one session per arm).
PAIRS = 2
#: times the warm phase re-submits the cold phase's bodies (a warm
#: request costs about half a cold one, so a second pass buys more
#: warm samples than another session would)
WARM_PASSES = 2
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 120.0
LAUNCHER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "serve_launcher.py"
)


def _shm() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class Daemon:
    """One ``repro serve`` process, up and answering ``/healthz``."""

    def __init__(self, ctx: Context, state_dir: str, log_name: str,
                 spans_path: Optional[str] = None) -> None:
        serve = ["serve", "--port", "0", "--state-dir", state_dir]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, LAUNCHER, spans_path, *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ctx.root, "src")
        self.shm_before = _shm()
        self.lines: List[str] = []
        self.port: Optional[int] = None
        self._log = open(ctx.out_path(log_name), "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=env, cwd=ctx.root, start_new_session=True,
        )
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.conn: Optional[http.client.HTTPConnection] = None
        try:
            if not self._ready.wait(START_TIMEOUT) or self.port is None:
                raise RuntimeError(f"daemon did not start: {''.join(self.lines)}")
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
            )
            status, _ = self.request("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.kill()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            found = re.search(r"listening on http://[^:]+:(\d+)", line)
            if found:
                self.port = int(found.group(1))
                self._ready.set()
        self._ready.set()

    def request(self, method: str, path: str, body: Optional[dict] = None):
        data = None if body is None else json.dumps(body).encode()
        headers = {} if data is None else {"Content-Type": "application/json"}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def scrape(self) -> Dict[str, float]:
        """``/metrics`` as family -> sum over label sets."""
        status, data = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        sums: Dict[str, float] = {}
        for line in data.decode().splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                family = name.split("{", 1)[0]
                sums[family] = sums.get(family, 0.0) + float(value)
        return sums

    def stop(self) -> List[str]:
        """SIGTERM, wait; the faults of an ungraceful shutdown."""
        faults = []
        if self.conn is not None:
            self.conn.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            return ["daemon ignored SIGTERM"]
        self._reader.join(10.0)
        self._log.close()
        if code != 0:
            faults.append(f"daemon exited {code}")
        if not any("shutdown complete" in line for line in self.lines):
            faults.append("daemon exited without 'shutdown complete'")
        leaked = sorted(_shm() - self.shm_before)
        if leaked:
            faults.append(f"daemon left {leaked[:3]} in /dev/shm")
        return faults

    def kill(self) -> None:
        """SIGKILL the daemon and any trial process it forked."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reader.join(10.0)
        self._log.close()


class _Session:
    """Cold phase, a restart, warm phase against one state directory."""

    def __init__(self, ctx: Context, arm: str, traced: bool) -> None:
        self.ctx, self.arm, self.traced = ctx, arm, traced
        self.state = ctx.out_path(f"state-{arm}")
        shutil.rmtree(self.state, ignore_errors=True)
        self.daemon: Optional[Daemon] = None
        self.bodies: List[dict] = []
        self.cold: List[Optional[dict]] = []
        self.warm: List[Optional[dict]] = []
        self.cold_meter = Meter(ctx.host)
        self.warm_meter = Meter(ctx.host)
        self.restart_meter = Meter(ctx.host)
        self.metrics: List[Dict[str, float]] = []
        self.rss = 0.0
        self.queue_wait = 0.0
        self.response_bytes = 0
        self.spans: List[str] = []

    def start(self, phase: str) -> Daemon:
        spans = None
        if self.traced:
            spans = self.ctx.out_path(f"spans-{self.arm}-{phase}.json")
            self.spans.append(spans)
        self.daemon = Daemon(self.ctx, self.state, f"daemon-{self.arm}-{phase}.log", spans)
        return self.daemon

    def stop(self, out: Outcome) -> None:
        self.rss = max(self.rss, peak_rss_mb(self.daemon.proc.pid))
        daemon, self.daemon = self.daemon, None
        out.fault([f"{self.arm}: {f}" for f in daemon.stop()])

    def submit(self, body: dict, meter: Meter, out: Outcome) -> Optional[dict]:
        out.attempted += 1
        try:
            status, data = meter.time(
                lambda: self.daemon.request("POST", "/v1/sweeps", body),
                ops=SERVED_TRIALS,
                key=body["sweep"]["protocol"],
            )
            answer = json.loads(data) if status == 200 else None
            if answer is None or any(e["status"] != "ok" for e in answer["results"]):
                raise RuntimeError(f"status {status}: {data[:200]!r}")
            # the job-status record's timestamps vary in printed width
            job_bytes = len(json.dumps(answer["job"], sort_keys=True).encode())
            self.response_bytes += len(data) - job_bytes
            _, job = self.daemon.request("GET", f"/v1/jobs/{answer['job']['id']}")
            job = json.loads(job)["job"]
            self.queue_wait += job["started"] - job["created"]
            return answer
        except (OSError, RuntimeError, ValueError, KeyError) as exc:
            out.failed += 1
            out.fault([f"{self.arm} request {body['label']} failed: {exc!r}"])
            return None

    def run(self, out: Outcome, number: int) -> None:
        """Session ``number``: cold phase, a restart, warm phase."""
        first = number * 2 * PAIRS
        for index in range(first, first + 2 * PAIRS):
            body = served_body(self.ctx.seed, index)
            self.bodies.append(body)
            self.cold.append(self.submit(body, self.cold_meter, out))
        self.metrics.append(self.daemon.scrape())
        self.stop(out)
        self.restart_meter.time(lambda: self.start("restart"))
        self.metrics.append(self.daemon.scrape())
        for _ in range(WARM_PASSES):
            for body in self.bodies:
                self.warm.append(self.submit(body, self.warm_meter, out))
        self.metrics.append(self.daemon.scrape())
        self.stop(out)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.kill()
            self.daemon = None

    def warm_hits(self) -> float:
        key = "repro_result_cache_hits_total"
        return self.metrics[2].get(key, 0.0) - self.metrics[1].get(key, 0.0)


def _summary(result) -> dict:
    """A local RunResult in the served JSON shape (summary fields)."""

    def config(c):
        return {str(k): (list(v) if isinstance(v, tuple) else v)
                for k, v in sorted(c.items())}

    return {
        "protocol": result.protocol_name,
        "daemon": result.daemon,
        "stabilized": result.stabilized,
        "rounds": result.rounds,
        "moves": result.moves,
        "moves_by_rule": dict(result.moves_by_rule),
        "legitimate": result.legitimate,
        "initial": config(result.initial),
        "final": config(result.final),
    }


def _check(session: _Session, out: Outcome) -> None:
    from repro.parallel import run_trials
    from repro.serve.schema import parse_sweep_request

    count = len(session.bodies)
    for index, (body, cold) in enumerate(zip(session.bodies, session.cold)):
        warms = session.warm[index::count]
        if cold is None or None in warms:
            continue
        where = f"{session.arm} {body['label']}"
        specs = list(parse_sweep_request(body).specs)
        local = run_trials(specs)
        served = [e["result"] for e in cold["results"]]
        if len(served) != len(specs):
            out.fault([f"{where}: {len(served)} results for {len(specs)} trials"])
            continue
        protocol = body["sweep"]["protocol"]
        for k, (spec, mine, theirs) in enumerate(zip(specs, local, served)):
            want = _summary(mine)
            got = {key: theirs.get(key) for key in want}
            if got != want:
                diff = sorted(key for key in want if got[key] != want[key])
                out.fault([f"{where} trial {k}: served != run_trials on {diff}"])
            adj = [spec.graph.neighbors(i) for i in range(spec.graph.n)]
            out.fault([
                f"{where} trial {k}: {f}"
                for f in verify.check_trial(
                    protocol, adj, theirs["stabilized"], theirs["rounds"], theirs["final"]
                )
            ])
        for warm in warms:
            if not all(e["cached"] for e in warm["results"]):
                out.fault([f"{where}: warm answer not entirely from the store"])
            again = [json.dumps(e["result"], sort_keys=True) for e in warm["results"]]
            if again != [json.dumps(r, sort_keys=True) for r in served]:
                out.fault([f"{where}: warm results differ from cold results"])
    sent = sum(len(w["results"]) for w in session.warm if w is not None)
    if session.warm_hits() != sent:
        out.fault([f"{session.arm}: warm cache-hit delta {session.warm_hits()} "
                   f"!= {sent} trials sent"])


def run(ctx: Context) -> Outcome:
    out = Outcome()
    sessions: List[_Session] = []
    try:
        if not ctx.trace:
            deadline = None
            while True:
                session = _Session(ctx, f"s{len(sessions)}", traced=False)
                sessions.append(session)
                session.start("cold")
                if deadline is None:
                    ctx.clock.ready()
                    deadline = ctx.deadline()
                session.run(out, len(sessions) - 1)
                if Meter.now() >= deadline:
                    break
        else:
            for arm, traced in (("plain", False), ("traced", True)):
                session = _Session(ctx, arm, traced)
                sessions.append(session)
                session.start("cold")
                session.run(out, 0)
    finally:
        for session in sessions:
            session.close()
    for session in sessions:
        _check(session, out)
        shutil.rmtree(session.state, ignore_errors=True)

    if not ctx.trace:
        cold = Meter.merged(s.cold_meter for s in sessions)
        warm = Meter.merged(s.warm_meter for s in sessions)
        restart = Meter.merged(s.restart_meter for s in sessions)
        put_end_to_end(out, ctx, cold, warm, max(s.rss for s in sessions))
        restart_norm, restart_raw = restart.call_time()
        samples = len(warm.pieces)
        out.detail.update(
            call_samples=samples,
            call_tail="median only: fewer than 40 samples"
            if samples < 40 else _tail(warm),
            restart_s=restart_norm,
            restart_s_raw=restart_raw,
            sessions=len(sessions),
        )
        return out

    from . import spans as _spans

    session = sessions[-1]
    spans, counts = _spans.merge(_spans.load(p) for p in session.spans)
    cold_trials = SERVED_TRIALS * sum(1 for c in session.cold if c is not None)
    warm_trials = SERVED_TRIALS * sum(1 for w in session.warm if w is not None)
    latency = session.metrics[0].get("repro_trial_latency_seconds_sum", 0.0)
    tally = {
        "trials": cold_trials + warm_trials,
        "computed_trials": cold_trials,
        "rounds": sum(
            e["result"]["rounds"] for c in session.cold if c is not None
            for e in c["results"]
        ),
        "queue_wait_s": session.queue_wait,
        "warm_hits": session.warm_hits(),
        "warm_trials": warm_trials,
        "engine_s": latency,
        "cold_request_s": sum(p[2] for p in session.cold_meter.pieces),
        "response_bytes": session.response_bytes,
        "served_trials": cold_trials + warm_trials,
    }
    put_layer_metrics(out, spans, counts, tally)
    plain = sessions[0]
    out.detail.update(
        tracing_overhead=plain.cold_meter.rate()[0] / session.cold_meter.rate()[0] - 1.0,
        tracing_overhead_warm=session.warm_meter.call_time()[0]
        / plain.warm_meter.call_time()[0] - 1.0,
    )
    return out


def _tail(meter: Meter) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    times = sorted(meter.normalised_times())
    q = 1.0 - 10.0 / len(times)
    k = min(len(times) - 1, int(q * len(times)))
    return {"percentile": round(100 * q, 1), "ms": 1000 * times[k]}
