"""churn-stream: live StreamEngines re-stabilizing after each event.

One SMM and one SIS engine run on ER(4096, average degree 6) with the
default vectorized backend, each built from a random configuration and
settled once during set-up.  One piece of work is one
``StreamEngine.run`` call absorbing a Poisson chunk of 64 churn and
perturb events at 0.25 events per round, generated against the
engine's current graph (the benchmark's own replay of it).  A round of
operations is one chunk per engine; the run repeats whole rounds until
its time is up.

Checks after every chunk: the edge set equals the replay of every
event's added and removed edges; the live configuration passes the
SMM/SIS verifier on that replay; events reported equal events sent;
and every event applied to a quiescent configuration has containment
radius at most its recovery rounds.  Recovering inside the Poisson
window is not required: at this rate some events miss it (an SLO miss,
not an error).
"""

from __future__ import annotations

from . import verify
from .clock import Meter, peak_rss_mb
from .common import Context, Outcome, put_end_to_end, put_layer_metrics
from .inputs import (
    EdgeReplay,
    churn_chunk,
    er_edges,
    random_sis_config,
    random_smm_config,
    rng_for,
)

N = 4096
AVG_DEGREE = 6.0
CHUNK_EVENTS = 64
RATE = 0.25
PROTOCOLS = ("smm", "sis")
#: chunk rounds per arm of a traced run
TRACE_ROUNDS = 3


class _Stream:
    """One engine plus the benchmark's replay of its graph."""

    def __init__(self, protocol: str, seed: int, edges, out: Outcome) -> None:
        from repro.graphs.graph import Graph
        from repro.resilience.plan import FaultEvent, FaultPlan
        from repro.streaming import StreamEngine

        self.FaultEvent, self.FaultPlan = FaultEvent, FaultPlan
        self.protocol = protocol
        self.seed = seed
        self.replay = EdgeReplay(N, edges)
        gen = rng_for(seed, 0xC0, PROTOCOLS.index(protocol))
        adj = self.replay.adjacency()
        config = (
            random_smm_config(adj, gen) if protocol == "smm"
            else random_sis_config(N, gen)
        )
        self.engine = StreamEngine(protocol, Graph(range(N), edges), config=config)
        self.engine.run(FaultPlan(events=()))  # the initial settle
        self.events = 0
        self.chunks = 0
        self.checked = 0
        self.quiet = True
        self.rounds = 0
        self.check(out)

    def plan(self):
        gen = rng_for(self.seed, 0xC1, PROTOCOLS.index(self.protocol), self.chunks)
        events = []
        for e in churn_chunk(self.replay, gen, CHUNK_EVENTS, RATE):
            if e["kind"] == "perturb":
                events.append(self.FaultEvent(e["round"], "perturb", nodes=(e["node"],)))
            elif "add" in e:
                events.append(self.FaultEvent(e["round"], "churn", add_edges=(e["add"],)))
            else:
                events.append(
                    self.FaultEvent(e["round"], "churn", remove_edges=(e["remove"],))
                )
        return self.FaultPlan(events=tuple(events), seed=self.seed + self.chunks)

    def chunk(self, meter: Meter, out: Outcome, recorder=None) -> None:
        plan = self.plan()
        self.chunks += 1
        out.attempted += len(plan.events)
        try:
            report = meter.time(
                lambda: self.engine.run(plan), ops=len(plan.events), key=self.protocol
            )
        except Exception as exc:  # an operation failed: count, go on
            out.failed += len(plan.events)
            out.fault([f"{self.protocol} chunk raised {exc!r}"])
            return
        if recorder is not None:
            recorder.recording = False
        try:
            sent = len(plan.events)
            if report.events - self.events != sent:
                out.fault([f"{self.protocol}: {report.events - self.events} "
                           f"events reported, {sent} sent"])
            self.events = report.events
            samples = []
            for sample in report.samples[-sent:]:
                samples.append((self.quiet, sample.rounds, sample.radius))
                self.quiet = sample.recovered
                self.rounds += sample.rounds
            checked, faults = verify.check_locality(samples)
            self.checked += checked
            out.fault([f"{self.protocol}: {f}" for f in faults])
            self.check(out)
        finally:
            if recorder is not None:
                recorder.recording = True

    def check(self, out: Outcome) -> None:
        faults = verify.check_edge_replay(self.replay.edges, self.engine.graph.edges)
        faults += verify.check_protocol(
            self.protocol, self.replay.adjacency(), self.engine.config()
        )
        out.fault([f"{self.protocol} after chunk {self.chunks}: {f}" for f in faults])


def _streams(seed: int, out: Outcome):
    edges = er_edges(N, AVG_DEGREE, rng_for(seed, 0xC2))
    return [_Stream(p, seed, edges, out) for p in PROTOCOLS]


def run(ctx: Context) -> Outcome:
    out = Outcome()
    streams = _streams(ctx.seed, out)
    ctx.clock.ready()
    meter = Meter(ctx.host)
    if not ctx.trace:
        deadline = ctx.deadline()
        while True:
            for stream in streams:
                stream.chunk(meter, out)
            if meter.now() >= deadline:
                break
        put_end_to_end(out, ctx, meter, meter, peak_rss_mb())
        out.detail.update(
            chunks=sum(s.chunks for s in streams),
            locality_checked=sum(s.checked for s in streams),
        )
        return out

    from . import spans as _spans

    # two identical engine pairs: each round runs untraced, then traced
    plain, streams = streams, _streams(ctx.seed, out)
    plain_meter = Meter(ctx.host)
    recorder = _spans.Recorder()
    for _ in range(TRACE_ROUNDS):
        for stream in plain:
            stream.chunk(plain_meter, out)
        _spans.install(recorder)
        try:
            for stream in streams:
                stream.chunk(meter, out, recorder)
        finally:
            recorder.uninstall()
    recorder.dump(ctx.out_path("spans.json"))
    tally = {
        "events": sum(s.events for s in streams),
        "rounds": sum(s.rounds for s in streams),
    }
    put_layer_metrics(out, recorder.spans, recorder.counts, tally)
    out.detail.update(
        tracing_overhead=plain_meter.rate()[0] / meter.rate()[0] - 1.0,
        missing_targets=recorder.missing,
        locality_checked=sum(s.checked for s in streams),
    )
    return out
