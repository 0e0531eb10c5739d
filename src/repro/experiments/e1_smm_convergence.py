"""E1 — Theorem 1: SMM stabilizes within n + 1 synchronous rounds.

For every graph family and size in the sweep, SMM runs from clean and
random initial configurations (and, for tiny graphs, from *every*
configuration).  Each row reports the measured round distribution next
to the ``n + 1`` bound; ``within_bound`` must be 1.0 everywhere, and a
single violation falsifies the reproduction.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.stats import summarize
from repro.analysis.theory import smm_round_bound
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
from repro.matching.smm import SynchronousMaximalMatching
from repro.matching.verify import verify_execution

DEFAULT_FAMILIES = ("cycle", "path", "star", "complete", "tree", "grid", "er-sparse", "udg")
DEFAULT_SIZES = (4, 8, 16, 32, 64)


def run(
    families: Sequence[str] = DEFAULT_FAMILIES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    trials: int = 20,
    seed: int = 10,
    exhaustive_max_n: int = 5,
    verify: bool = True,
    jobs: int = 1,
    backend: str = "auto",
    telemetry: str | None = None,
    convergence: bool = False,
) -> ExperimentResult:
    """Sweep SMM convergence; see module docstring.

    ``jobs`` fans the (independent, deterministic) trials across worker
    processes; results are bit-identical to ``jobs=1``.  ``backend``
    selects the execution engine (:mod:`repro.engine`) — every backend
    produces identical rows, just at different speed.  ``telemetry``
    (a JSONL path) streams one per-trial telemetry record for the main
    sweep through :class:`repro.observability.TelemetrySink`.
    ``convergence=True`` additionally attaches the proof-aware
    convergence record to every main-sweep trial (the CLI's
    ``--convergence``).
    """
    result = ExperimentResult(
        experiment="E1",
        paper_artifact="Theorem 1 — SMM stabilizes in <= n+1 rounds",
        columns=[
            "family",
            "n",
            "init",
            "trials",
            "rounds_mean",
            "rounds_max",
            "bound",
            "within_bound",
        ],
    )
    protocol = SynchronousMaximalMatching()
    backend = fallback_backend("smm", backend=backend)

    def groups(family, graph, rng):
        bound = smm_round_bound(graph.n)
        for mode in ("clean", "random"):
            mode_trials = 1 if mode == "clean" else trials
            yield mode, [
                TrialSpec(
                    "smm", graph, config, max_rounds=bound + 4, backend=backend
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
        bound = smm_round_bound(graph.n)
        rounds = []
        for execution in executions[lo:hi]:
            if verify:
                verify_execution(graph, execution)
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
        )

    # adversarial starts: structured configurations (proposal chains,
    # pessimal cycles, the all-null zipper) that approach the bound
    from repro.matching.adversarial import worst_case_rounds

    for family, n, graph, rng in graph_workloads(families, sizes, seed + 2):
        bound = smm_round_bound(graph.n)
        rounds, label = worst_case_rounds(graph)
        result.add(
            family=family,
            n=graph.n,
            init=f"adv:{label}",
            trials=1,
            rounds_mean=float(rounds),
            rounds_max=rounds,
            bound=bound,
            within_bound=float(rounds <= bound),
        )

    # exhaustive verification on tiny graphs: the literal universal
    # quantifier of Theorem 1
    for family, n, graph, rng in graph_workloads(
        [f for f in families if f in ("cycle", "path", "complete")],
        [s for s in sizes if s <= exhaustive_max_n] or [4],
        seed + 1,
    ):
        bound = smm_round_bound(graph.n)
        executions = run_trials(
            [
                TrialSpec(
                    "smm", graph, config, max_rounds=bound + 4, backend=backend
                )
                for config in exhaustive_configurations(protocol, graph)
            ],
            jobs=jobs,
        )
        rounds = []
        for execution in executions:
            if verify:
                verify_execution(graph, execution)
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
        )

    worst = max(
        (row["rounds_max"] / row["bound"] for row in result.rows), default=0.0
    )
    result.note(
        f"worst observed rounds/bound ratio = {worst:.2f} "
        "(Theorem 1 holds iff every within_bound is 1.0)"
    )
    return result
