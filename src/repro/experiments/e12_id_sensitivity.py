"""E12 — id-assignment sensitivity (extension study).

Unique, totally ordered node ids are the paper's only symmetry-breaking
device: R2 of SMM proposes to the *minimum-id* null neighbour, and both
SIS rules compare neighbour ids.  The theorems hold for *every* id
assignment — but which ids sit where changes the run and, for SIS, the
answer (the unique fixpoint is the greedy MIS *by descending id*).

This experiment samples random relabelings of one fixed topology and
measures, per protocol:

* the distribution of stabilization rounds (how much schedule luck the
  id layout carries);
* the distribution of solution sizes — |matching| for SMM, |MIS| for
  SIS — quantifying how strongly the id layout steers the outcome;
* the bound is asserted for every relabeling, making E12 a randomized
  robustness check of Theorems 1–2 over the id dimension that the
  other experiments keep fixed.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.stats import summarize
from repro.analysis.theory import sis_round_bound, smm_round_bound
from repro.experiments.common import (
    ExperimentResult,
    TrialSpec,
    fallback_backend,
    graph_workloads,
    run_trials,
)
from repro.matching.smm import SynchronousMaximalMatching
from repro.matching.verify import verify_execution as verify_matching
from repro.mis.sis import SynchronousMaximalIndependentSet
from repro.mis.verify import verify_execution as verify_mis
from repro.rng import ensure_rng

DEFAULT_FAMILIES = ("cycle", "tree", "er-sparse", "udg")
DEFAULT_SIZES = (16, 32)


def run(
    families: Sequence[str] = DEFAULT_FAMILIES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    relabelings: int = 20,
    seed: int = 130,
    jobs: int = 1,
    backend: str = "auto",
) -> ExperimentResult:
    """Sample id relabelings of each workload topology; see module doc.

    ``jobs`` fans the (independent, deterministic) relabeled runs across
    worker processes; results are bit-identical to ``jobs=1``, for any
    ``backend`` (:mod:`repro.engine`).
    """
    result = ExperimentResult(
        experiment="E12",
        paper_artifact="extension — sensitivity of rounds and solutions to the id assignment",
        columns=[
            "protocol",
            "family",
            "n",
            "relabelings",
            "rounds_mean",
            "rounds_max",
            "bound",
            "size_min",
            "size_max",
            "distinct_solutions",
        ],
    )
    smm = SynchronousMaximalMatching()
    sis = SynchronousMaximalIndependentSet()

    for family, n, graph, rng in graph_workloads(families, sizes, seed):
        gen = ensure_rng(rng)
        perms = []
        nodes = list(graph.nodes)
        for _ in range(relabelings):
            shuffled = list(nodes)
            gen.shuffle(shuffled)
            perms.append(dict(zip(nodes, shuffled)))

        relabeled = [graph.relabeled(mapping) for mapping in perms]
        for name, protocol, bound_fn in (
            ("SMM", smm, smm_round_bound),
            ("SIS", sis, sis_round_bound),
        ):
            executions = run_trials(
                [
                    TrialSpec(
                        name.lower(),
                        g2,
                        max_rounds=bound_fn(g2.n) + 2,
                        backend=fallback_backend(name.lower(), backend=backend),
                    )
                    for g2 in relabeled
                ],
                jobs=jobs,
            )
            rounds, sizes_seen, solutions = [], [], set()
            for mapping, g2, ex in zip(perms, relabeled, executions):
                if name == "SMM":
                    solution = verify_matching(g2, ex)
                    # normalize back to original labels for comparison
                    inverse = {v: k for k, v in mapping.items()}
                    canon = frozenset(
                        (min(inverse[u], inverse[v]), max(inverse[u], inverse[v]))
                        for u, v in solution
                    )
                    sizes_seen.append(len(solution))
                else:
                    in_set = verify_mis(g2, ex, expect_greedy=True)
                    inverse = {v: k for k, v in mapping.items()}
                    canon = frozenset(inverse[x] for x in in_set)
                    sizes_seen.append(len(in_set))
                solutions.add(canon)
                rounds.append(ex.rounds)
                assert ex.rounds <= bound_fn(g2.n)
            rstats = summarize(rounds)
            result.add(
                protocol=name,
                family=family,
                n=graph.n,
                relabelings=relabelings,
                rounds_mean=rstats.mean,
                rounds_max=int(rstats.maximum),
                bound=bound_fn(graph.n),
                size_min=min(sizes_seen),
                size_max=max(sizes_seen),
                distinct_solutions=len(solutions),
            )

    result.note(
        "bounds hold for every relabeling (ids only break symmetry; the "
        "theorems quantify over id assignments)"
    )
    result.note(
        "distinct_solutions counts topologically distinct outcomes over "
        "the same graph: the id layout picks among the graph's many "
        "maximal matchings / MISs"
    )
    return result
