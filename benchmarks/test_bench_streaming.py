"""Benchmark — the streaming-churn engine and incremental CSR
maintenance.

Measures and records, in ``benchmarks/results/BENCH_streaming.json``:

* **incremental CSR vs rebuild (headline)** — a long explicit-churn
  sequence on an n=16k ER graph, absorbed by
  :meth:`Graph.with_updates` row splicing vs a from-scratch
  ``Graph(nodes, edges)`` construction + CSR rebuild per event.
  Events/sec both ways; the final CSR arrays are asserted byte-identical
  (the streaming equivalence pin at benchmark scale).
* **re-stabilization SLOs vs event rate** — ``run_stream`` on an n=4k
  graph across increasing Poisson event rates, recording the
  p50/p99 re-stabilization latency (rounds), recovered fraction and
  sustained events/sec of the vectorized dirty-frontier backend — the
  table E14 reports at paper scale.
* **events per call** — one event sequence on the same n=4k graph fed
  to a :class:`StreamEngine` in 64-event ``run()`` calls and in
  one-event calls.  Every call ends in ``report()``, so the one-event
  rate is what an event costs when nothing amortizes the report.
* **backend identity** — a small all-kinds stream runs on both backends
  and asserts :meth:`StreamReport.counters` equality, so the benchmark
  doubles as an equivalence pin even in quick mode.

Regenerate with
``PYTHONPATH=src python -m pytest benchmarks/test_bench_streaming.py``.
CI smoke sets ``BENCH_STREAMING_QUICK=1`` (small n, loose floors).
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time

import numpy as np

from repro.graphs.generators import cycle_graph, erdos_renyi_graph
from repro.graphs.graph import Graph
from repro.resilience import FaultPlan
from repro.rng import ensure_rng
from repro.streaming import StreamEngine, poisson_plan, run_stream

QUICK = bool(os.environ.get("BENCH_STREAMING_QUICK"))

SCALE = dict(
    csr_n=2048 if QUICK else 16384,
    csr_events=60 if QUICK else 400,
    csr_floor=2.0 if QUICK else 10.0,
    slo_n=512 if QUICK else 4096,
    slo_events=30 if QUICK else 200,
    slo_rates=(0.1, 1.0) if QUICK else (0.05, 0.25, 1.0),
    call_events=64 if QUICK else 192,
)


def _best_of(repeats, fn):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _bench_incremental_csr(report):
    n, events = SCALE["csr_n"], SCALE["csr_events"]
    graph = erdos_renyi_graph(n, 8 / n, ensure_rng(7))
    graph.adjacency_arrays()  # cache populated: updates patch, not drop
    plan = poisson_plan(graph, rate=1.0, events=events, seed=3, kinds=("churn",))

    def incremental():
        g = graph
        for event in plan.events:
            g = g.with_updates(
                add_edges=event.add_edges, remove_edges=event.remove_edges
            )
            g.adjacency_arrays()
        return g

    def rebuild():
        g = graph
        for event in plan.events:
            edges = set(g.edges)
            edges.difference_update(event.remove_edges)
            edges.update(event.add_edges)
            g = Graph(g.nodes, edges)
            g.adjacency_arrays()
        return g

    inc_graph, inc_s = _best_of(2, incremental)
    reb_graph, reb_s = _best_of(2, rebuild)
    for a, b in zip(inc_graph.adjacency_arrays(), reb_graph.adjacency_arrays()):
        assert a.tobytes() == b.tobytes()  # byte-identity at bench scale

    speedup = reb_s / inc_s
    report["incremental_csr"] = {
        "workload": (
            f"{events} explicit single-edge churn events on "
            f"ER({n}, avg deg 8): with_updates CSR row splice vs "
            "from-scratch Graph construction + CSR rebuild per event"
        ),
        "rebuild_events_per_sec": round(events / reb_s, 1),
        "incremental_events_per_sec": round(events / inc_s, 1),
        "rebuild_ms_per_event": round(reb_s / events * 1000, 3),
        "incremental_us_per_event": round(inc_s / events * 1e6, 1),
        "speedup": round(speedup, 1),
        "measured_floor": SCALE["csr_floor"],
    }
    assert speedup >= SCALE["csr_floor"], report["incremental_csr"]


def _bench_slo_vs_rate(report):
    n, events = SCALE["slo_n"], SCALE["slo_events"]
    graph = erdos_renyi_graph(n, 6 / n, ensure_rng(9))
    rows = []
    for proto in ("smm", "sis"):
        for rate in SCALE["slo_rates"]:
            plan = poisson_plan(
                graph, rate=rate, events=events,
                seed=17 + int(round(1000 * rate)),
            )
            result = run_stream(proto, graph, plan, backend="vectorized")
            rows.append(
                {
                    "protocol": proto,
                    "rate": rate,
                    "events": result.events,
                    "recovered_frac": round(result.recovered_frac, 3),
                    "p50_rounds": result.p50_rounds,
                    "p99_rounds": result.p99_rounds,
                    "radius_max": result.radius_max,
                    "events_per_sec": round(result.events_per_sec, 1),
                }
            )
    report["slo_vs_event_rate"] = {
        "workload": (
            f"run_stream on ER({n}, avg deg 6), {events} Poisson "
            "churn+perturb events per cell, vectorized dirty-frontier "
            "backend"
        ),
        "rows": rows,
    }


def _bench_events_per_call(report):
    n, events = SCALE["slo_n"], SCALE["call_events"]
    graph = erdos_renyi_graph(n, 6 / n, ensure_rng(9))
    plan = poisson_plan(graph, rate=0.25, events=events, seed=31)
    rows = []
    for proto in ("smm", "sis"):
        finals = []
        for per_call in (64, 1):
            engine = StreamEngine(proto, graph)
            engine.run(FaultPlan())  # the initial settle, untimed
            t0 = time.perf_counter()
            for start in range(0, events, per_call):
                chunk = plan.events[start:start + per_call]
                base = chunk[0].round  # each call's rounds are relative
                engine.run(
                    FaultPlan(
                        events=tuple(
                            dataclasses.replace(e, round=e.round - base)
                            for e in chunk
                        ),
                        seed=start,
                    )
                )
            elapsed = time.perf_counter() - t0
            assert engine.events_seen == events
            finals.append(engine.graph.edges)
            rows.append(
                {
                    "protocol": proto,
                    "events_per_call": per_call,
                    "events": events,
                    "events_per_sec": round(events / elapsed, 1),
                }
            )
        assert finals[0] == finals[1]  # both fed the same churn sequence
    report["events_per_call"] = {
        "workload": (
            f"one {events}-event Poisson churn+perturb sequence (rate "
            f"0.25) on ER({n}, avg deg 6), fed to a settled vectorized "
            "StreamEngine in 64-event run() calls and in one-event "
            "calls; each call ends in report()"
        ),
        "rows": rows,
    }


def _bench_backend_identity(report):
    graph = cycle_graph(24)
    plan = poisson_plan(
        graph, rate=0.8, events=30, seed=5,
        kinds=("churn", "perturb", "message_dup", "crash"),
    )
    ref, ref_s = _best_of(1, lambda: run_stream("smm", graph, plan, backend="reference"))
    vec, vec_s = _best_of(1, lambda: run_stream("smm", graph, plan, backend="vectorized"))
    assert ref.counters() == vec.counters()
    report["backend_identity"] = {
        "workload": "30 all-kinds events on cycle(24), smm",
        "counters_identical": True,
        "reference_events_per_sec": round(30 / ref_s, 1),
        "vectorized_events_per_sec": round(30 / vec_s, 1),
    }


def test_bench_streaming(results_dir):
    report = {
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "quick_mode": QUICK,
    }
    _bench_incremental_csr(report)
    _bench_slo_vs_rate(report)
    _bench_events_per_call(report)
    _bench_backend_identity(report)

    path = results_dir / "BENCH_streaming.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\n{json.dumps(report, indent=2)}\n[written to {path}]")
