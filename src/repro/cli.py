"""Command-line entry point: run the reproduction experiments.

Usage (installed as ``python -m repro``):

* ``python -m repro list`` — enumerate the experiments with the paper
  artefact each reproduces;
* ``python -m repro run E4`` — run one experiment at full (benchmark)
  scale and print its table;
* ``python -m repro run E1 E2 --quick`` — reduced-scale runs;
* ``python -m repro run all --quick`` — everything.

Exit status is non-zero if any requested experiment's core assertion
fails (the same assertions the benchmark suite makes).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.experiments import (
    e1_smm_convergence,
    e2_sis_convergence,
    e3_transitions,
    e4_counterexample,
    e5_baseline,
    e6_growth,
    e7_churn,
    e8_adhoc,
    e9_transform,
    e10_scaling,
    e11_ablations,
    e12_id_sensitivity,
    e13_fault_recovery,
    e14_streaming,
    e15_convergence,
)
from repro.experiments.common import ExperimentResult

#: experiment id -> (description, full-scale runner, quick runner)
Runner = Callable[[], List[ExperimentResult]]


def _registry(
    jobs: int = 1,
    backend: str = "auto",
    telemetry: str | None = None,
    fault_plan: str | None = None,
    trial_timeout: float | None = None,
    retries: int = 0,
    resume: str | None = None,
    convergence: bool = False,
) -> Dict[str, Tuple[str, Runner, Runner]]:
    """Experiment registry.  ``jobs`` is forwarded to the experiments
    that support parallel trial execution (E1/E2/E4/E5/E6/E7/E12/E13);
    their output is bit-identical for every value of ``jobs``.
    ``backend`` (:mod:`repro.engine`) is forwarded to the sweeps that
    dispatch through the engine (E1/E2/E5/E6/E7/E12/E13); experiments
    that need capabilities a kernel lacks degrade to the reference
    engine.  ``telemetry`` is a JSONL path forwarded to the main sweeps
    of E1/E2/E5/E6, which append one per-trial telemetry record each.
    The resilience knobs go to the fault-campaign sweeps (E7/E13):
    ``fault_plan`` is a FaultPlan JSON path overriding E13's default
    campaign, and ``trial_timeout``/``retries``/``resume`` configure
    the resilient trial runner (per-trial wall-clock timeouts, bounded
    retry, JSONL checkpoint/resume).  ``convergence`` (the CLI's
    ``--convergence``) attaches the proof-aware convergence monitors
    to the theorem sweeps (E1/E2); E15 always runs with them on."""
    resilience = {
        "trial_timeout": trial_timeout,
        "retries": retries,
        "resume": resume,
    }
    return {
        "E1": (
            "Theorem 1 — SMM stabilizes in <= n+1 rounds",
            lambda: [
                e1_smm_convergence.run(
                    trials=15, seed=101, jobs=jobs, backend=backend,
                    telemetry=telemetry, convergence=convergence,
                )
            ],
            lambda: [
                e1_smm_convergence.run(
                    families=("cycle", "tree"), sizes=(4, 8, 16), trials=5, seed=101,
                    jobs=jobs, backend=backend, telemetry=telemetry,
                    convergence=convergence,
                )
            ],
        ),
        "E2": (
            "Theorem 2 — SIS stabilizes in O(n) rounds (unique fixpoint)",
            lambda: [
                e2_sis_convergence.run(
                    trials=15, seed=102, jobs=jobs, backend=backend,
                    telemetry=telemetry, convergence=convergence,
                ),
                e2_sis_convergence.run_worst_case_series(),
            ],
            lambda: [
                e2_sis_convergence.run(
                    families=("cycle", "tree"), sizes=(4, 8, 16), trials=5, seed=102,
                    jobs=jobs, backend=backend, telemetry=telemetry,
                    convergence=convergence,
                ),
                e2_sis_convergence.run_worst_case_series(sizes=(8, 16, 32)),
            ],
        ),
        "E3": (
            "Figs. 2-3 / Lemmas 1-7 — node-type transition diagram",
            lambda: [e3_transitions.run(trials=25, seed=103)],
            lambda: [
                e3_transitions.run(
                    families=("cycle", "tree"), sizes=(4, 8), trials=10, seed=103
                )
            ],
        ),
        "E4": (
            "Section 3 remark — arbitrary R2 choice livelocks on C_4",
            lambda: [e4_counterexample.run(seed=104, jobs=jobs)],
            lambda: [
                e4_counterexample.run(
                    cycle_sizes=(4, 8), randomized_trials=5, seed=104, jobs=jobs
                )
            ],
        ),
        "E5": (
            "Section 3 — converted Hsu-Huang 'not as fast' than SMM",
            lambda: [
                e5_baseline.run(
                    trials=8, seed=105, jobs=jobs, backend=backend,
                    telemetry=telemetry,
                )
            ],
            lambda: [
                e5_baseline.run(
                    families=("cycle", "tree"), sizes=(8, 16), trials=3, seed=105,
                    jobs=jobs, backend=backend, telemetry=telemetry,
                )
            ],
        ),
        "E6": (
            "Lemmas 1, 9, 10 — monotone matching growth",
            lambda: [
                e6_growth.run(
                    trials=20, seed=106, jobs=jobs, backend=backend,
                    telemetry=telemetry,
                )
            ],
            lambda: [
                e6_growth.run(
                    families=("cycle", "tree"), sizes=(8, 16), trials=5, seed=106,
                    jobs=jobs, backend=backend, telemetry=telemetry,
                )
            ],
        ),
        "E7": (
            "Sections 1-2 — re-stabilization after link churn",
            lambda: [
                e7_churn.run(
                    trials=8, seed=107, jobs=jobs, backend=backend,
                    **resilience,
                )
            ],
            lambda: [
                e7_churn.run(
                    families=("tree",), sizes=(16,), churn_levels=(1, 4),
                    trials=3, seed=107, jobs=jobs, backend=backend,
                    **resilience,
                )
            ],
        ),
        "E8": (
            "Section 2 — beacon rounds & mobility availability",
            lambda: [
                e8_adhoc.run_static(trials=4, seed=108),
                e8_adhoc.run_mobile(horizon=150.0, seed=109),
            ],
            lambda: [
                e8_adhoc.run_static(sizes=(10, 20), trials=2, seed=108),
                e8_adhoc.run_mobile(
                    n=12, speeds=(0.0, 0.03), horizon=60.0, seed=109
                ),
            ],
        ),
        "E9": (
            "Conclusion — central protocols port via daemon refinement",
            lambda: [e9_transform.run(trials=6, seed=110)],
            lambda: [
                e9_transform.run(
                    families=("cycle",), sizes=(8, 16), trials=2, seed=110
                )
            ],
        ),
        "E10": (
            "engineering — vectorized kernels vs reference engine",
            lambda: [e10_scaling.run(sizes=(64, 128, 256, 512, 1024), seed=111)],
            lambda: [e10_scaling.run(sizes=(64, 128), seed=111)],
        ),
        "E11": (
            "ablations — R1 acceptance choice; beacon loss/timeout",
            lambda: [
                e11_ablations.run_acceptance_choosers(seed=120),
                e11_ablations.run_beacon_parameters(seed=121),
                e11_ablations.run_contention(seed=122),
            ],
            lambda: [
                e11_ablations.run_acceptance_choosers(
                    families=("cycle",), sizes=(8, 16), trials=4, seed=120
                ),
                e11_ablations.run_beacon_parameters(
                    n=10,
                    loss_rates=(0.0, 0.2),
                    timeout_factors=(2.5,),
                    trials=2,
                    seed=121,
                ),
            ],
        ),
        "E12": (
            "extension — id-assignment sensitivity of rounds/solutions",
            lambda: [
                e12_id_sensitivity.run(
                    relabelings=20, seed=130, jobs=jobs, backend=backend
                )
            ],
            lambda: [
                e12_id_sensitivity.run(
                    families=("cycle", "tree"), sizes=(16,),
                    relabelings=6, seed=130, jobs=jobs, backend=backend,
                )
            ],
        ),
        "E13": (
            "Sections 1-2 — in-run fault campaigns (full fault model)",
            lambda: [
                e13_fault_recovery.run(
                    trials=5, seed=140, fault_plan=fault_plan,
                    jobs=jobs, backend=backend, **resilience,
                )
            ],
            lambda: [
                e13_fault_recovery.run(
                    families=("tree",), sizes=(12,), trials=2, seed=140,
                    fault_plan=fault_plan, jobs=jobs, backend=backend,
                    **resilience,
                )
            ],
        ),
        "E14": (
            "model claim 6 — SLOs under sustained streaming churn",
            lambda: [e14_streaming.run(seed=150, backend=backend)],
            lambda: [
                e14_streaming.run(
                    families=("tree",), sizes=(16,), rates=(0.1, 0.5),
                    events=20, seed=150, backend=backend,
                )
            ],
        ),
        "E15": (
            "Theorems 1-2 as runtime assertions — convergence observatory",
            lambda: [
                e15_convergence.run(
                    trials=10, seed=150, jobs=jobs, backend=backend,
                    telemetry=telemetry,
                )
            ],
            lambda: [
                e15_convergence.run(
                    families=("cycle", "er-sparse"), sizes=(8, 16),
                    trials=3, seed=150, jobs=jobs, backend=backend,
                    telemetry=telemetry,
                )
            ],
        ),
    }


def _order_key(eid: str) -> int:
    return int(eid[1:])


def cmd_list() -> int:
    registry = _registry()
    width = max(len(k) for k in registry)
    for eid in sorted(registry, key=_order_key):
        description = registry[eid][0]
        print(f"{eid:<{width}}  {description}")
    return 0


def cmd_run(
    ids: List[str],
    quick: bool,
    jobs: int = 1,
    backend: str = "auto",
    telemetry: str | None = None,
    fault_plan: str | None = None,
    trial_timeout: float | None = None,
    retries: int = 0,
    resume: str | None = None,
    trace: str | None = None,
    metrics: str | None = None,
    convergence: bool = False,
) -> int:
    import contextlib

    if telemetry is not None:
        # truncate up front: the sinks append, so one `repro run`
        # invocation produces one coherent file whatever experiments ran
        open(telemetry, "w", encoding="utf-8").close()
    registry = _registry(
        jobs, backend, telemetry, fault_plan, trial_timeout, retries, resume,
        convergence,
    )
    if any(i.lower() == "all" for i in ids):
        ids = sorted(registry, key=_order_key)
    tracer = None
    metrics_registry = None
    with contextlib.ExitStack() as stack:
        if trace is not None:
            from repro.observability import Tracer, use_tracer

            tracer = Tracer()
            stack.enter_context(use_tracer(tracer))
        if metrics is not None:
            from repro.observability import MetricsRegistry, use_registry

            metrics_registry = MetricsRegistry()
            stack.enter_context(use_registry(metrics_registry))
        failures = 0
        for eid in ids:
            key = eid.upper()
            if key not in registry:
                print(f"unknown experiment {eid!r}; try 'list'", file=sys.stderr)
                return 2
            description, full, fast = registry[key]
            print(f"=== {key}: {description} ===")
            started = time.perf_counter()
            span = None
            if tracer is not None:
                span = tracer.begin(f"experiment:{key}", quick=quick)
            try:
                results = (fast if quick else full)()
            except AssertionError as exc:
                failures += 1
                print(f"FAILED: {exc}", file=sys.stderr)
                continue
            finally:
                if span is not None:
                    tracer.end(span)
            elapsed = time.perf_counter() - started
            for result in results:
                print(result.table())
                print()
            print(f"({elapsed:.1f}s)\n")
    if tracer is not None:
        from repro.observability import write_chrome_trace

        write_chrome_trace(trace, tracer.export())
        print(f"wrote trace to {trace} (chrome://tracing, Perfetto)")
    if metrics_registry is not None:
        _write_metrics(metrics_registry, metrics)
    return 1 if failures else 0


def _write_metrics(registry, path: str) -> None:
    """Prometheus text exposition to ``path`` plus a JSON sibling
    (same name, ``.json`` extension)."""
    import os

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(registry.exposition())
    sibling = os.path.splitext(path)[0] + ".json"
    with open(sibling, "w", encoding="utf-8") as handle:
        handle.write(registry.to_json())
        handle.write("\n")
    print(f"wrote metrics to {path} and {sibling}")


def cmd_dash(telemetry: str, output: str, title: str | None = None) -> int:
    from repro.observability.dash import write_report

    try:
        summary = write_report(telemetry, output, title=title)
    except (OSError, ValueError) as exc:
        print(f"dash: {exc}", file=sys.stderr)
        return 2
    print(summary)
    print(f"wrote {output}")
    return 0


def cmd_stream(
    protocol: str,
    *,
    family: str,
    n: int,
    seed: int,
    backend: str,
    rate: float,
    events: int,
    kinds: str,
    trace_file: str | None,
    settle_budget: int | None,
    soak_seconds: float | None,
    chunk_events: int,
    sample_cap: int,
    metrics: str | None,
    report: str | None,
) -> int:
    """Run a long-lived streaming-churn session and print its SLOs."""
    import contextlib
    import json

    from repro.errors import ExperimentError
    from repro.graphs.generators import family as graph_family
    from repro.rng import ensure_rng
    from repro.streaming import (
        StreamEngine,
        load_trace,
        poisson_plan,
        run_soak,
    )

    kind_list = tuple(k.strip() for k in kinds.split(",") if k.strip())
    try:
        graph = graph_family(family)(n, ensure_rng(seed))
    except Exception as exc:
        print(f"stream: cannot build graph: {exc}", file=sys.stderr)
        return 2
    metrics_registry = None
    with contextlib.ExitStack() as stack:
        if metrics is not None:
            from repro.observability import MetricsRegistry, use_registry

            metrics_registry = MetricsRegistry()
            stack.enter_context(use_registry(metrics_registry))
        try:
            if soak_seconds is not None:
                out = run_soak(
                    protocol,
                    graph,
                    backend=backend,
                    rate=rate,
                    chunk_events=chunk_events,
                    max_seconds=soak_seconds,
                    seed=seed,
                    kinds=kind_list,
                    sample_cap=sample_cap,
                    settle_budget=settle_budget,
                )
                stream_report = out["report"]
                print(
                    f"soak: {out['chunks']} chunk(s), {out['events']} events, "
                    f"{out['rounds']} rounds, peak RSS {out['max_rss_kb']} kB"
                )
            else:
                if trace_file is not None:
                    plan = load_trace(trace_file)
                else:
                    plan = poisson_plan(
                        graph,
                        rate=rate,
                        events=events,
                        seed=seed,
                        kinds=kind_list,
                    )
                engine = StreamEngine(
                    protocol,
                    graph,
                    backend=backend,
                    sample_cap=sample_cap,
                )
                stream_report = engine.run(plan, settle_budget=settle_budget)
        except ExperimentError as exc:
            print(f"stream: {exc}", file=sys.stderr)
            return 2
    summary = stream_report.to_dict()
    print(
        f"{protocol} on {family} n={graph.n} [{backend}]: "
        f"{summary['events']} events over {summary['rounds']} rounds"
    )
    print(
        f"  recovered {summary['recovered']}/{summary['events']} "
        f"({stream_report.recovered_frac:.2%}), "
        f"p50/p99 re-stabilization {summary['p50_rounds']}/"
        f"{summary['p99_rounds']} rounds, "
        f"radius max {summary['radius_max']}, "
        f"{stream_report.events_per_sec:.1f} events/s"
    )
    conv = summary.get("convergence")
    if conv:
        state = "quiescent" if conv["quiescent"] else "recovering"
        print(
            f"  convergence: {state}, potential {conv['potential']}, "
            f"safety distance {conv['violations']} "
            f"({', '.join(f'{k}={v}' for k, v in sorted(conv['checks'].items()))})"
        )
    if report is not None:
        with open(report, "w", encoding="utf-8") as handle:
            meta = {k: v for k, v in summary.items() if k != "samples"}
            handle.write(json.dumps({"stream_meta": meta}) + "\n")
            for sample in stream_report.samples:
                handle.write(json.dumps({"stream": sample.to_dict()}) + "\n")
        print(f"wrote {len(stream_report.samples)} samples to {report}")
    if metrics_registry is not None:
        _write_metrics(metrics_registry, metrics)
    return 0


def cmd_serve(
    host: str,
    port: int,
    state_dir: str,
    *,
    workers: int,
    min_workers: int | None,
    max_workers: int | None,
    max_queue_depth: int | None,
    jobs: int,
    trial_timeout: float | None,
    retries: int,
    sync_timeout: float,
    scale_up_after: float,
    scale_down_idle: float,
    enable_chaos: bool,
) -> int:
    from repro.serve import run_server

    return run_server(
        host=host,
        port=port,
        state_dir=state_dir,
        workers=workers,
        min_workers=min_workers,
        max_workers=max_workers,
        max_queue_depth=max_queue_depth,
        runner_jobs=jobs,
        trial_timeout=trial_timeout,
        retries=retries,
        sync_timeout=sync_timeout,
        scale_up_after=scale_up_after,
        scale_down_idle=scale_down_idle,
        enable_chaos=enable_chaos,
    )


def cmd_chaos(
    state_dir: str | None,
    *,
    seed: int,
    faults: str | None,
    report: str | None,
) -> int:
    import tempfile

    from repro.serve import DEFAULT_FAULTS, ChaosHarness

    selected = (
        DEFAULT_FAULTS
        if faults is None
        else tuple(f.strip() for f in faults.split(",") if f.strip())
    )
    if state_dir is None:
        state_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        harness = ChaosHarness(
            state_dir,
            seed=seed,
            faults=selected,
            report_path=report,
            log=lambda line: print(line, flush=True),
        )
    except ValueError as exc:
        print(f"repro chaos: {exc}", file=sys.stderr)
        return 2
    result = harness.run()
    for record in result["faults"]:
        verdict = "ok" if record["ok"] else f"FAILED ({record.get('error')})"
        print(f"  {record['fault']:<16} {record['elapsed_s']:>7.1f}s  {verdict}")
    print(
        f"chaos: graceful_shutdown={result['graceful_shutdown']} -> "
        + ("ALL INVARIANTS HELD" if result["ok"] else "INVARIANT VIOLATED")
    )
    if report:
        print(f"wrote {report}")
    return 0 if result["ok"] else 1


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for Goddard et al., IPDPS 2003.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the experiments")
    runner = sub.add_parser("run", help="run experiments and print tables")
    runner.add_argument("ids", nargs="+", help="experiment ids (E1..E15) or 'all'")
    runner.add_argument(
        "--quick", action="store_true", help="reduced-scale parameters"
    )
    runner.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for trial fan-out (0 = all cores); "
        "output is bit-identical for every value",
    )
    runner.add_argument(
        "--backend",
        choices=("auto", "reference", "vectorized"),
        default="auto",
        help="execution engine backend (repro.engine); 'auto' (the "
        "default) batches same-graph sweeps and picks the fastest "
        "applicable kernel per run, 'reference' forces the reference "
        "engine; every backend produces identical tables",
    )
    runner.add_argument(
        "--telemetry",
        nargs="?",
        const="telemetry.jsonl",
        default=None,
        metavar="PATH",
        help="collect per-round run telemetry (moves by rule, Fig. 2 "
        "node-type census, phase timings) for the E1/E2/E5/E6 sweeps "
        "and append one JSON line per trial to PATH "
        "(default: telemetry.jsonl); works with every --backend",
    )
    runner.add_argument(
        "--convergence",
        action="store_true",
        help="attach the proof-aware convergence monitors "
        "(repro.observability.convergence) to the theorem sweeps "
        "(E1/E2): potential decay, safety-monitor violation counts and "
        "paper-bound conformance ride every trial result and the "
        "--telemetry JSONL lines; E15 always runs with them on; "
        "toggling this never invalidates --resume checkpoints",
    )
    runner.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="FaultPlan JSON file (repro.resilience) overriding E13's "
        "default in-run fault campaign; applied to every E13 cell",
    )
    runner.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-trial wall-clock timeout in seconds for the "
        "fault-campaign sweeps (E7/E13); a trial that exceeds it is "
        "retried --retries times, then recorded as failed without "
        "aborting the sweep",
    )
    runner.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry budget for timed-out or crashed trials (E7/E13)",
    )
    runner.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="JSONL checkpoint for the fault-campaign sweeps (E7/E13): "
        "completed trials are appended as they finish and skipped on "
        "the next run with the same parameters",
    )
    runner.add_argument(
        "--trace",
        nargs="?",
        const="trace.json",
        default=None,
        metavar="PATH",
        help="record a span trace of the whole invocation (experiment > "
        "run > phase, fault-event recovery windows) and write it as "
        "Chrome trace_event JSON to PATH (default: trace.json); load "
        "it in chrome://tracing or Perfetto",
    )
    runner.add_argument(
        "--metrics",
        nargs="?",
        const="metrics.prom",
        default=None,
        metavar="PATH",
        help="collect sweep metrics (runs/rounds/moves counters, trial "
        "latency histograms, retry/timeout/fallback counters) and "
        "write Prometheus text exposition to PATH plus a JSON sibling "
        "(default: metrics.prom + metrics.json); counter values are "
        "identical for every --jobs and --backend",
    )
    dash = sub.add_parser(
        "dash", help="render a telemetry JSONL file into an HTML report"
    )
    dash.add_argument(
        "telemetry",
        help="telemetry JSONL written by 'repro run ... --telemetry'",
    )
    dash.add_argument(
        "-o",
        "--output",
        default="report.html",
        help="output HTML path (default: report.html)",
    )
    dash.add_argument("--title", default=None, help="report title")
    stream = sub.add_parser(
        "stream",
        help="stream topology churn into one long-lived run and report "
        "re-stabilization SLOs",
    )
    stream.add_argument(
        "protocol", choices=("smm", "sis"), help="protocol to keep alive"
    )
    stream.add_argument(
        "--family",
        default="udg",
        metavar="NAME",
        help="graph family (repro.graphs.generators; default: udg)",
    )
    stream.add_argument(
        "--n", type=int, default=64, metavar="N", help="graph size (default: 64)"
    )
    stream.add_argument(
        "--seed", type=int, default=0, help="graph/schedule seed (default: 0)"
    )
    stream.add_argument(
        "--backend",
        choices=("reference", "vectorized"),
        default="vectorized",
        help="stream backend; SLO counters are identical on both "
        "(default: vectorized)",
    )
    stream.add_argument(
        "--rate",
        type=float,
        default=0.2,
        metavar="R",
        help="Poisson event rate in events per round (default: 0.2)",
    )
    stream.add_argument(
        "--events",
        type=int,
        default=200,
        metavar="N",
        help="number of events to stream (default: 200)",
    )
    stream.add_argument(
        "--kinds",
        default="churn,perturb",
        metavar="K1,K2",
        help="comma-separated event kinds to draw from "
        "(churn, perturb, message_dup, crash; default: churn,perturb)",
    )
    stream.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help="replay a trace schedule (FaultPlan JSON or JSONL of "
        "events) instead of generating a Poisson plan",
    )
    stream.add_argument(
        "--settle-budget",
        type=int,
        default=None,
        metavar="N",
        help="rounds allowed after the last event (default: the "
        "executor's budget for the graph)",
    )
    stream.add_argument(
        "--soak",
        type=float,
        default=None,
        metavar="SECONDS",
        help="soak mode: stream freshly generated chunks until the "
        "wall-clock limit (bounded memory; reports peak RSS)",
    )
    stream.add_argument(
        "--chunk-events",
        type=int,
        default=64,
        metavar="N",
        help="events per generated soak chunk (default: 64)",
    )
    stream.add_argument(
        "--sample-cap",
        type=int,
        default=4096,
        metavar="N",
        help="per-event samples retained in memory; aggregates stay "
        "exact beyond it (default: 4096)",
    )
    stream.add_argument(
        "--metrics",
        nargs="?",
        const="metrics.prom",
        default=None,
        metavar="PATH",
        help="write stream SLO metrics as Prometheus text + JSON sibling "
        "(default: metrics.prom + metrics.json)",
    )
    stream.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write per-event samples as JSONL for 'repro dash'",
    )
    serve = sub.add_parser(
        "serve",
        help="run the persistent sweep control plane (HTTP + /metrics)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8265,
        help="TCP port (0 = ephemeral; default: 8265)",
    )
    serve.add_argument(
        "--state-dir",
        default=".repro-serve",
        metavar="DIR",
        help="journal + result-store directory; queued and running jobs "
        "survive restarts through it (default: .repro-serve)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent jobs (worker threads; default: 2)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per job's trial fan-out (0 = all cores)",
    )
    serve.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-trial wall-clock timeout in seconds",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="retry budget for timed-out or crashed trials (default: 1)",
    )
    serve.add_argument(
        "--min-workers",
        type=int,
        default=None,
        metavar="N",
        help="autoscaler floor (default: --workers, i.e. a fixed pool)",
    )
    serve.add_argument(
        "--max-workers",
        type=int,
        default=None,
        metavar="N",
        help="autoscaler ceiling (default: --workers, i.e. a fixed pool)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="admission-control bound: further submissions answer "
        "429 + Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--sync-timeout",
        type=float,
        default=300.0,
        metavar="S",
        help="seconds a sync request blocks before degrading to the "
        "async 202 answer (default: 300)",
    )
    serve.add_argument(
        "--scale-up-after",
        type=float,
        default=1.0,
        metavar="S",
        help="sustained-backlog seconds before the supervisor adds a "
        "worker (default: 1.0)",
    )
    serve.add_argument(
        "--scale-down-idle",
        type=float,
        default=5.0,
        metavar="S",
        help="idle seconds before the supervisor retires a worker "
        "(default: 5.0)",
    )
    serve.add_argument(
        "--enable-chaos",
        action="store_true",
        help="expose POST /v1/chaos fault injection (chaos harness only)",
    )
    chaos = sub.add_parser(
        "chaos",
        help="drive a live serve daemon through scripted faults and "
        "assert it re-stabilizes",
    )
    chaos.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="state dir for the daemon under test (default: a fresh "
        "temp dir)",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seeds fault offsets and sweep seeds (default: 0)",
    )
    chaos.add_argument(
        "--faults",
        default=None,
        metavar="A,B,...",
        help="comma-separated fault scripts (default: all of "
        "worker_kill,store_truncate,flood,sigkill,sync_skew)",
    )
    chaos.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the JSON chaos report here",
    )
    bench = sub.add_parser(
        "bench",
        help="inspect the checked-in benchmark trajectory (BENCH_*.json)",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_report = bench_sub.add_parser(
        "report",
        help="aggregate every BENCH_*.json into one trajectory table "
        "(terminal) and optionally an HTML page",
    )
    bench_report.add_argument(
        "--results-dir",
        default="benchmarks/results",
        metavar="DIR",
        help="directory holding the BENCH_*.json files "
        "(default: benchmarks/results)",
    )
    bench_report.add_argument(
        "--html",
        default=None,
        metavar="PATH",
        help="also write a self-contained HTML page (dash renderer)",
    )
    reporter = sub.add_parser(
        "report", help="run everything and write a markdown report"
    )
    reporter.add_argument(
        "-o", "--output", default="REPORT.md", help="output path"
    )
    reporter.add_argument(
        "--quick", action="store_true", help="reduced-scale parameters"
    )
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 0) < 0:
        parser.error(f"argument --jobs: must be >= 0, got {args.jobs}")
    if getattr(args, "retries", 0) < 0:
        parser.error(f"argument --retries: must be >= 0, got {args.retries}")
    timeout = getattr(args, "trial_timeout", None)
    if timeout is not None and timeout <= 0:
        parser.error(f"argument --trial-timeout: must be > 0, got {timeout}")
    if getattr(args, "workers", 1) < 1:
        parser.error(f"argument --workers: must be >= 1, got {args.workers}")
    if args.command == "serve":
        # pool-shape ordering must fail at argparse time, not as a
        # traceback from JobManager deep in run_server
        low = args.min_workers if args.min_workers is not None else args.workers
        high = args.max_workers if args.max_workers is not None else args.workers
        if not (1 <= low <= args.workers <= high):
            parser.error(
                "arguments --min-workers/--workers/--max-workers: need "
                f"1 <= min <= workers <= max, got {low} / {args.workers} "
                f"/ {high}"
            )
        if args.max_queue_depth is not None and args.max_queue_depth < 1:
            parser.error(
                f"argument --max-queue-depth: must be >= 1, got "
                f"{args.max_queue_depth}"
            )
        if args.sync_timeout <= 0:
            parser.error(
                f"argument --sync-timeout: must be > 0, got {args.sync_timeout}"
            )
        if args.scale_up_after <= 0 or args.scale_down_idle <= 0:
            parser.error(
                "arguments --scale-up-after/--scale-down-idle: must be > 0"
            )
    if args.command == "list":
        return cmd_list()
    if args.command == "dash":
        return cmd_dash(args.telemetry, args.output, title=args.title)
    if args.command == "stream":
        if args.rate <= 0:
            parser.error(f"argument --rate: must be > 0, got {args.rate}")
        if args.events < 0:
            parser.error(f"argument --events: must be >= 0, got {args.events}")
        return cmd_stream(
            args.protocol,
            family=args.family,
            n=args.n,
            seed=args.seed,
            backend=args.backend,
            rate=args.rate,
            events=args.events,
            kinds=args.kinds,
            trace_file=args.trace_file,
            settle_budget=args.settle_budget,
            soak_seconds=args.soak,
            chunk_events=args.chunk_events,
            sample_cap=args.sample_cap,
            metrics=args.metrics,
            report=args.report,
        )
    if args.command == "serve":
        return cmd_serve(
            args.host,
            args.port,
            args.state_dir,
            workers=args.workers,
            min_workers=args.min_workers,
            max_workers=args.max_workers,
            max_queue_depth=args.max_queue_depth,
            jobs=args.jobs,
            trial_timeout=args.trial_timeout,
            retries=args.retries,
            sync_timeout=args.sync_timeout,
            scale_up_after=args.scale_up_after,
            scale_down_idle=args.scale_down_idle,
            enable_chaos=args.enable_chaos,
        )
    if args.command == "chaos":
        return cmd_chaos(
            args.state_dir,
            seed=args.seed,
            faults=args.faults,
            report=args.report,
        )
    if args.command == "bench":
        from repro.observability.bench_report import cmd_bench_report

        return cmd_bench_report(args.results_dir, html=args.html)
    if args.command == "report":
        from repro.experiments.report import write_report

        text = write_report(args.output, quick=args.quick)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
        return 0 if "✗ FAILED" not in text else 1
    return cmd_run(
        args.ids,
        args.quick,
        jobs=args.jobs,
        backend=args.backend,
        telemetry=args.telemetry,
        fault_plan=args.fault_plan,
        trial_timeout=args.trial_timeout,
        retries=args.retries,
        resume=args.resume,
        trace=args.trace,
        metrics=args.metrics,
        convergence=args.convergence,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
