"""E6 — Lemmas 1, 9, 10: monotone matching growth.

Replays SMM histories and tracks the matched-node set ``M_t`` round by
round:

* **Lemma 1** — ``M_t ⊆ M_{t+1}``: matched nodes never unmatch (checked
  as set containment, stronger than cardinality monotonicity);
* **Lemmas 9–10** — from t >= 1, whenever moves happen at rounds t and
  t+1, ``|M_{t+2}| >= |M_t| + 2``: every two active rounds the matching
  grows by at least one edge, which is exactly the engine of
  Theorem 1's n+1 bound.

Rows aggregate per workload cell: number of histories, violations
(must be 0), and the observed minimum two-round growth over active
round pairs.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    ExperimentResult,
    TrialSpec,
    fallback_backend,
    initial_configurations,
    run_spec_groups,
)
from repro.matching.classification import NodeType, classify
from repro.matching.smm import SynchronousMaximalMatching

DEFAULT_FAMILIES = ("cycle", "path", "complete", "tree", "er-sparse", "udg")
DEFAULT_SIZES = (4, 8, 16, 32)


def matched_sets(graph, history):
    """The sequence of matched-node sets M_t along a history."""
    out = []
    for config in history:
        types = classify(graph, config)
        out.append(frozenset(n for n, t in types.items() if t is NodeType.M))
    return out


def run(
    families: Sequence[str] = DEFAULT_FAMILIES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    trials: int = 20,
    seed: int = 60,
    jobs: int = 1,
    backend: str = "auto",
    telemetry: str | None = None,
) -> ExperimentResult:
    """Check Lemmas 1/9/10 over the sweep; see module docstring.

    ``jobs`` fans the (independent, deterministic) history replays
    across worker processes; results are bit-identical to ``jobs=1``.
    The lemma checks replay full histories, which only the reference
    engine records — a ``backend`` without the ``history`` capability
    degrades to ``"reference"``.  ``telemetry`` (a JSONL path) streams
    one per-trial telemetry record through
    :class:`repro.observability.TelemetrySink`.
    """
    result = ExperimentResult(
        experiment="E6",
        paper_artifact="Lemmas 1, 9, 10 — monotone matching growth (>= 2 nodes per 2 active rounds)",
        columns=[
            "family",
            "n",
            "histories",
            "lemma1_violations",
            "lemma10_violations",
            "min_two_round_growth",
        ],
    )
    protocol = SynchronousMaximalMatching()

    from repro.matching.lemmas import check_lemma_1, check_lemma_10

    backend = fallback_backend("smm", backend=backend, record_history=True)

    def groups(family, graph, rng):
        yield None, [
            TrialSpec("smm", graph, config, record_history=True, backend=backend)
            for config in initial_configurations(protocol, graph, "random", trials, rng)
        ]

    all_executions, cells = run_spec_groups(
        families, sizes, seed, groups, jobs=jobs, telemetry=telemetry
    )

    for family, graph, _label, lo, hi in cells:
        lemma1_bad = 0
        lemma10_bad = 0
        min_growth = None
        histories = 0
        for execution in all_executions[lo:hi]:
            assert execution.history is not None and execution.stabilized
            sets = matched_sets(graph, execution.history)
            histories += 1

            lemma1_bad += len(check_lemma_1(graph, execution.history))
            lemma10_bad += len(
                check_lemma_10(graph, execution.history, execution.move_log)
            )

            # observed minimum two-active-round growth (for the table)
            moves = execution.move_log
            for t in range(1, len(moves) - 1):
                if moves[t] and moves[t + 1]:
                    growth = len(sets[t + 2]) - len(sets[t])
                    if min_growth is None or growth < min_growth:
                        min_growth = growth

        result.add(
            family=family,
            n=graph.n,
            histories=histories,
            lemma1_violations=lemma1_bad,
            lemma10_violations=lemma10_bad,
            min_two_round_growth=min_growth,
        )

    total_bad = sum(
        row["lemma1_violations"] + row["lemma10_violations"] for row in result.rows
    )
    result.note(
        f"total violations across all histories: {total_bad} "
        "(the lemmas hold iff 0)"
    )
    return result
