"""beacon-sim: the paper's system model, run to quiescent legitimacy.

A round of operations is one static random-geometric deployment of
24-40 nodes (sizes cycle through :data:`SIZES`) with E8's
connectivity-safe radius, run through ``run_until_stable`` for SMM and
SIS at loss 0 and 0.1 with the default timeout, each from a random
configuration made by the benchmark.  One piece of work is one such
run.  Every run must report stabilized, and its final configuration
must pass the SMM/SIS verifier on the unit-disk graph the benchmark
computes from the positions and the radius.  (Loss 0.30 is left out:
there SMM does not stabilize within the default horizon on every
deployment.)
"""

from __future__ import annotations

import numpy as np

from . import verify
from .clock import Meter, peak_rss_mb
from .common import Context, Outcome, put_end_to_end, put_layer_metrics
from .inputs import (
    adjacency,
    disk_edges,
    random_sis_config,
    random_smm_config,
    rng_for,
    safe_radius,
)

SIZES = (24, 28, 32, 36, 40)
LOSSES = (0.0, 0.1)
PROTOCOLS = ("smm", "sis")
#: deployments per arm of a traced run
TRACE_DEPLOYMENTS = 5


def deployment(seed: int, index: int):
    """Positions, radius, adjacency and per-run inputs of deployment
    ``index``: ``[(protocol, loss, initial states, simulator seed)]``."""
    gen = rng_for(seed, 0xBE, index)
    n = SIZES[index % len(SIZES)]
    points = gen.random((n, 2))
    radius = safe_radius(n)
    adj = adjacency(n, disk_edges(points, radius))
    runs = []
    for protocol in PROTOCOLS:
        for loss in LOSSES:
            states = (
                random_smm_config(adj, gen) if protocol == "smm"
                else random_sis_config(n, gen)
            )
            runs.append((protocol, loss, states, int(gen.integers(1 << 31))))
    return points, radius, adj, runs


class _Sim:
    def __init__(self) -> None:
        from repro.adhoc import StaticPlacement, run_until_stable
        from repro.matching.smm import SynchronousMaximalMatching
        from repro.mis.sis import SynchronousMaximalIndependentSet

        self.StaticPlacement = StaticPlacement
        self.run_until_stable = run_until_stable
        self.make = {
            "smm": SynchronousMaximalMatching,
            "sis": SynchronousMaximalIndependentSet,
        }
        self.beacons = 0
        self.steps = 0

    def one(self, points, radius, protocol, loss, states, sim_seed):
        return self.run_until_stable(
            self.make[protocol](),
            self.StaticPlacement(points),
            radius=radius,
            loss=loss,
            rng=sim_seed,
            initial_states=states,
        )

    def deployment(self, seed: int, index: int, meter: Meter, out: Outcome) -> None:
        points, radius, adj, runs = deployment(seed, index)
        for protocol, loss, states, sim_seed in runs:
            out.attempted += 1
            try:
                result = meter.time(
                    lambda: self.one(points, radius, protocol, loss, states, sim_seed),
                    ops=lambda result: result.beacons,
                    key=(index % len(SIZES), protocol, loss),
                )
            except Exception as exc:  # an operation failed: count, go on
                out.failed += 1
                out.fault([f"{protocol} loss {loss} raised {exc!r}"])
                continue
            self.beacons += result.beacons
            self.steps += result.steps
            where = f"deployment {index} {protocol} loss {loss}"
            faults = [] if result.stabilized else ["did not stabilize"]
            faults += verify.check_protocol(protocol, adj, result.final)
            out.fault([f"{where}: {f}" for f in faults])


def run(ctx: Context) -> Outcome:
    out = Outcome()
    sim = _Sim()
    # first-call set-up, on a fixed four-node square
    sim.one(np.array([[0.1, 0.1], [0.2, 0.1], [0.1, 0.2], [0.2, 0.2]]), 0.15,
            "smm", 0.0, None, 0)
    ctx.clock.ready()
    meter = Meter(ctx.host)
    if not ctx.trace:
        deadline = ctx.deadline()
        index = 0
        while True:
            sim.deployment(ctx.seed, index, meter, out)
            index += 1
            if meter.now() >= deadline:
                break
        put_end_to_end(out, ctx, meter, meter, peak_rss_mb())
        out.detail["deployments"] = index
        return out

    from . import spans as _spans

    # each deployment runs untraced, then traced on the same inputs
    plain_meter = Meter(ctx.host)
    recorder = _spans.Recorder()
    for index in range(TRACE_DEPLOYMENTS):
        _Sim().deployment(ctx.seed, index, plain_meter, out)
        _spans.install(recorder)
        try:
            sim.deployment(ctx.seed, index, meter, out)
        finally:
            recorder.uninstall()
    recorder.dump(ctx.out_path("spans.json"))
    tally = {"beacons": sim.beacons, "steps": sim.steps}
    put_layer_metrics(out, recorder.spans, recorder.counts, tally)
    out.detail.update(
        tracing_overhead=plain_meter.rate()[0] / meter.rate()[0] - 1.0,
        missing_targets=recorder.missing,
    )
    return out
