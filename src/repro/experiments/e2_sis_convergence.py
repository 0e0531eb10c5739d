"""E2 — Theorem 2: SIS stabilizes in O(n) rounds, onto the unique
greedy fixpoint.

Two parts:

1. the same sweep shape as E1, with the concrete envelope ``n`` rounds
   and the additional check that every stabilized run lands on the
   greedy MIS by descending id (the unique stable configuration);
2. a worst-case *series*: ascending-id paths, where entry/exit waves
   cascade along the path — the measured rounds grow linearly in n,
   exhibiting the Θ(n) shape behind Theorem 2's O(n).
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.stats import summarize
from repro.analysis.theory import sis_round_bound
from repro.core.configuration import Configuration
from repro.core.executor import run_synchronous
from repro.experiments.common import (
    ExperimentResult,
    TrialSpec,
    exhaustive_configurations,
    fallback_backend,
    graph_workloads,
    initial_configurations,
    run_spec_groups,
    run_trials,
)
from repro.graphs.generators import path_graph
from repro.mis.sis import SynchronousMaximalIndependentSet
from repro.mis.verify import verify_execution

DEFAULT_FAMILIES = ("cycle", "path", "star", "complete", "tree", "grid", "er-sparse", "udg")
DEFAULT_SIZES = (4, 8, 16, 32, 64)


def run(
    families: Sequence[str] = DEFAULT_FAMILIES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    trials: int = 20,
    seed: int = 20,
    exhaustive_max_n: int = 8,
    verify: bool = True,
    jobs: int = 1,
    backend: str = "auto",
    telemetry: str | None = None,
    convergence: bool = False,
) -> ExperimentResult:
    """Sweep SIS convergence; see module docstring.

    ``jobs`` fans the (independent, deterministic) trials across worker
    processes; results are bit-identical to ``jobs=1``.  ``backend``
    selects the execution engine (:mod:`repro.engine`) — every backend
    produces identical rows, just at different speed.  ``telemetry``
    (a JSONL path) streams one per-trial telemetry record for the main
    sweep through :class:`repro.observability.TelemetrySink`.
    """
    result = ExperimentResult(
        experiment="E2",
        paper_artifact="Theorem 2 — SIS stabilizes in O(n) rounds (envelope n), unique greedy fixpoint",
        columns=[
            "family",
            "n",
            "init",
            "trials",
            "rounds_mean",
            "rounds_max",
            "bound",
            "within_bound",
            "greedy_fixpoint",
        ],
    )
    protocol = SynchronousMaximalIndependentSet()
    backend = fallback_backend("sis", backend=backend)

    def groups(family, graph, rng):
        bound = sis_round_bound(graph.n)
        for mode in ("clean", "random"):
            mode_trials = 1 if mode == "clean" else trials
            yield mode, [
                TrialSpec(
                    "sis", graph, config, max_rounds=bound + 4, backend=backend
                )
                for config in initial_configurations(
                    protocol, graph, mode, mode_trials, rng
                )
            ]

    executions, cells = run_spec_groups(
        families, sizes, seed, groups, jobs=jobs, telemetry=telemetry,
        convergence=convergence,
    )

    for family, graph, mode, lo, hi in cells:
        bound = sis_round_bound(graph.n)
        rounds = []
        all_greedy = True
        for execution in executions[lo:hi]:
            if verify:
                verify_execution(graph, execution, expect_greedy=True)
            else:
                all_greedy = all_greedy and execution.legitimate
            rounds.append(execution.rounds)
        stats = summarize(rounds)
        result.add(
            family=family,
            n=graph.n,
            init=mode,
            trials=len(rounds),
            rounds_mean=stats.mean,
            rounds_max=int(stats.maximum),
            bound=bound,
            within_bound=float(stats.maximum <= bound),
            greedy_fixpoint=True if verify else all_greedy,
        )

    # exhaustive part (2^n configurations)
    for family, n, graph, rng in graph_workloads(
        [f for f in families if f in ("cycle", "path", "complete")],
        [s for s in sizes if s <= exhaustive_max_n] or [4],
        seed + 1,
    ):
        bound = sis_round_bound(graph.n)
        executions = run_trials(
            [
                TrialSpec(
                    "sis", graph, config, max_rounds=bound + 4, backend=backend
                )
                for config in exhaustive_configurations(protocol, graph)
            ],
            jobs=jobs,
        )
        rounds = []
        for execution in executions:
            if verify:
                verify_execution(graph, execution, expect_greedy=True)
            rounds.append(execution.rounds)
        stats = summarize(rounds)
        result.add(
            family=family,
            n=graph.n,
            init="exhaustive",
            trials=len(rounds),
            rounds_mean=stats.mean,
            rounds_max=int(stats.maximum),
            bound=bound,
            within_bound=float(stats.maximum <= bound),
            greedy_fixpoint=True,
        )
    return result


def run_worst_case_series(
    sizes: Sequence[int] = (8, 16, 32, 64, 128, 256),
) -> ExperimentResult:
    """The Θ(n) cascade on ascending-id paths, from the all-zero start.

    All nodes enter at round 1 (nobody sees a larger in-set
    neighbour); then exit/entry waves peel the path from the largest id
    downwards, two ids per two rounds — linear rounds in n.
    """
    result = ExperimentResult(
        experiment="E2-series",
        paper_artifact="Theorem 2 — linear-round cascade on ascending-id paths",
        columns=["n", "rounds", "bound", "rounds_over_n"],
    )
    protocol = SynchronousMaximalIndependentSet()
    for n in sizes:
        graph = path_graph(n)
        clean = Configuration({i: 0 for i in graph.nodes})
        execution = run_synchronous(
            protocol, graph, clean, max_rounds=sis_round_bound(n) + 4
        )
        verify_execution(graph, execution, expect_greedy=True)
        result.add(
            n=n,
            rounds=execution.rounds,
            bound=sis_round_bound(n),
            rounds_over_n=execution.rounds / n,
        )
    ratios = [row["rounds_over_n"] for row in result.rows]
    result.note(
        f"rounds/n stays within [{min(ratios):.2f}, {max(ratios):.2f}] — "
        "linear growth, the Θ(n) shape behind Theorem 2"
    )
    return result
