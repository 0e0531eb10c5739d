"""theorem-sweep: random-start SMM and SIS sweeps shaped like E1/E2.

One piece of work is one sweep cell: a graph handed over as plain
nodes and edges, eleven random starts plus the clean start, passed to
``run_trials`` with every execution option at the program's default.
A pass is every cell of :data:`~.inputs.SWEEP_CELLS` for both
protocols, built afresh from ``(seed, pass)`` so no program cache
carries over between passes; the run repeats whole passes until its
time is up.
"""

from __future__ import annotations

from collections import Counter

from . import verify
from .clock import Meter, peak_rss_mb
from .common import Context, Outcome, put_end_to_end, put_layer_metrics
from .inputs import (
    SWEEP_CELLS,
    adjacency,
    cycle_edges,
    family_edges,
    random_sis_config,
    random_smm_config,
    rng_for,
)

RANDOM_STARTS = 11
#: passes per arm of a traced run (a fixed amount of work, so counts
#: repeat exactly)
TRACE_PASSES = 2


def build_pass(seed: int, index: int):
    cells = []
    for c, (family, n) in enumerate(SWEEP_CELLS):
        gen = rng_for(seed, 0x7EE, index, c)
        edges = family_edges(family, n, gen)
        adj = adjacency(n, edges)
        for protocol in ("smm", "sis"):
            configs = [
                random_smm_config(adj, gen) if protocol == "smm"
                else random_sis_config(n, gen)
                for _ in range(RANDOM_STARTS)
            ]
            cells.append((protocol, n, edges, adj, configs + [None]))
    return cells


class _Sweep:
    def __init__(self) -> None:
        from repro.graphs.graph import Graph
        from repro.parallel import TrialSpec, run_trials

        self.Graph, self.TrialSpec, self.run_trials = Graph, TrialSpec, run_trials
        self.backends: Counter = Counter()
        self.rounds = 0

    def cell(self, cell):
        protocol, n, edges, _, configs = cell
        graph = self.Graph(range(n), edges)
        specs = [self.TrialSpec(protocol, graph, config) for config in configs]
        return self.run_trials(specs)

    def run_pass(self, cells, meter: Meter, out: Outcome) -> None:
        for position, cell in enumerate(cells):
            protocol, _, _, adj, configs = cell
            out.attempted += len(configs)
            try:
                results = meter.time(
                    lambda: self.cell(cell), ops=len(configs), key=position
                )
            except Exception as exc:  # an operation failed: count, go on
                out.failed += len(configs)
                out.fault([f"{protocol} cell raised {exc!r}"])
                continue
            for result in results:
                self.backends[result.backend] += 1
                self.rounds += result.rounds
                out.fault(
                    verify.check_trial(
                        protocol, adj, result.stabilized, result.rounds, result.final
                    )
                )


def run(ctx: Context) -> Outcome:
    out = Outcome()
    sweep = _Sweep()
    # first-call set-up (lazy imports behind the engine front door)
    sweep.cell(("smm", 4, cycle_edges(4), None, [None]))
    sweep.cell(("sis", 4, cycle_edges(4), None, [None]))
    sweep.backends.clear()
    sweep.rounds = 0
    ctx.clock.ready()
    meter = Meter(ctx.host)
    if not ctx.trace:
        deadline = ctx.deadline()
        index = 0
        while True:
            sweep.run_pass(build_pass(ctx.seed, index), meter, out)
            index += 1
            if meter.now() >= deadline:
                break
        put_end_to_end(out, ctx, meter, meter, peak_rss_mb())
        out.detail.update(passes=index, backends=dict(sweep.backends))
        return out

    from . import spans as _spans

    # each pass runs untraced, then traced on the same inputs
    plain, traced = _Sweep(), sweep
    plain_meter = Meter(ctx.host)
    recorder = _spans.Recorder()
    for index in range(TRACE_PASSES):
        plain.run_pass(build_pass(ctx.seed, index), plain_meter, out)
        _spans.install(recorder)
        try:
            traced.run_pass(build_pass(ctx.seed, index), meter, out)
        finally:
            recorder.uninstall()
    recorder.dump(ctx.out_path("spans.json"))
    trials = sum(sweep.backends.values())
    tally = {
        "trials": trials,
        "trials_reference": sweep.backends.get("reference", 0),
        "trials_batch": sweep.backends.get("batch", 0),
        "rounds": sweep.rounds,
    }
    put_layer_metrics(out, recorder.spans, recorder.counts, tally)
    out.detail.update(
        tracing_overhead=plain_meter.rate()[0] / meter.rate()[0] - 1.0,
        missing_targets=recorder.missing,
    )
    return out
