"""E14 — re-stabilization SLOs under sustained streaming churn.

The paper's system model (claim 6) treats mobility-induced topology
change as a transient fault the protocols self-stabilize out of.  E7
and E13 measure isolated bursts; this experiment measures the
*streaming* regime the ad hoc setting actually implies: one never-
restarting run (:mod:`repro.streaming`) absorbing a Poisson stream of
link churn and state corruption, at increasing event rates.  Per
(protocol, family, n, rate) cell the table reports production-style
SLOs:

* ``recovered_frac`` — fraction of events whose recovery window (to
  the next event) re-stabilized; below 1.0 the engine is falling
  behind the event rate, which is itself the measurement — the
  sustainable-rate frontier;
* ``p50_rounds`` / ``p99_rounds`` — re-stabilization latency
  percentiles, in rounds (exact nearest-rank over all events);
* ``radius_max`` — worst containment radius (hops from an event's
  fault sites to a node that moved during its window);
* ``events_per_sec`` — wall-clock stream throughput of the backend.

Every column except ``events_per_sec`` is deterministic; the smallest
cell re-runs on both the reference and vectorized backends and asserts
:meth:`~repro.streaming.StreamReport.counters` equality as a
self-check (CI's streaming smoke repeats this check standalone).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult, graph_workloads
from repro.streaming import poisson_plan, run_stream

DEFAULT_FAMILIES = ("tree", "udg")
DEFAULT_SIZES = (32, 64)
DEFAULT_RATES = (0.05, 0.25, 1.0)
DEFAULT_KINDS = ("churn", "perturb")


def run(
    families: Sequence[str] = DEFAULT_FAMILIES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    rates: Sequence[float] = DEFAULT_RATES,
    events: int = 60,
    kinds: Sequence[str] = DEFAULT_KINDS,
    seed: int = 150,
    backend: str = "auto",
    check_backends: bool = True,
    sample_cap: Optional[int] = 4096,
) -> ExperimentResult:
    """Stream Poisson schedules into long-lived runs across event rates.

    ``backend="auto"`` (or ``"vectorized"``) streams on the
    vectorized kernels; ``"reference"`` uses the reference engine.  The
    schedule for a given (graph, rate, seed) is identical on both, so
    the table is byte-identical apart from ``events_per_sec``.
    """
    result = ExperimentResult(
        experiment="E14",
        paper_artifact="model claim 6 — SLOs under sustained streaming churn",
        columns=[
            "protocol",
            "family",
            "n",
            "rate",
            "events",
            "recovered_frac",
            "p50_rounds",
            "p99_rounds",
            "moves",
            "radius_max",
            "events_per_sec",
        ],
    )
    stream_backend = "reference" if backend == "reference" else "vectorized"
    checked: Optional[bool] = None
    for family, n, graph, _rng in graph_workloads(families, sizes, seed):
        for proto in ("smm", "sis"):
            for rate in rates:
                plan = poisson_plan(
                    graph,
                    rate=rate,
                    events=events,
                    seed=seed + int(round(1000 * rate)),
                    kinds=kinds,
                )
                report = run_stream(
                    proto,
                    graph,
                    plan,
                    backend=stream_backend,
                    sample_cap=sample_cap,
                )
                assert report.events == len(plan.events), (
                    f"stream dropped events: {report.events} of "
                    f"{len(plan.events)}"
                )
                if check_backends and checked is None:
                    other = (
                        "vectorized"
                        if stream_backend == "reference"
                        else "reference"
                    )
                    mirror = run_stream(
                        proto, graph, plan, backend=other, sample_cap=sample_cap
                    )
                    assert report.counters() == mirror.counters(), (
                        "stream SLO counters diverged between reference and "
                        "vectorized backends"
                    )
                    checked = True
                result.add(
                    protocol=proto.upper(),
                    family=family,
                    n=n,
                    rate=rate,
                    events=report.events,
                    recovered_frac=report.recovered_frac,
                    p50_rounds=report.p50_rounds,
                    p99_rounds=report.p99_rounds,
                    moves=report.moves,
                    radius_max=report.radius_max,
                    events_per_sec=round(report.events_per_sec, 1),
                )
    if checked:
        result.note(
            "self-check: the first cell's stream produced byte-identical "
            "SLO counters on the reference and vectorized backends"
        )
    result.note(
        "recovered_frac < 1.0 marks the engine falling behind the event "
        "rate — the recovery window of an event ends when the next event "
        "fires, so sustained-churn capacity is read off the rate column"
    )
    return result
