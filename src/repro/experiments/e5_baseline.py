"""E5 — Section 3's comparison claim: the synchronized Hsu–Huang
baseline "is not as fast" as SMM.

For each workload cell, the same initial pointer configuration is run
through:

* **SMM** under the synchronous daemon (rounds);
* **Hsu–Huang** refined to the synchronous model by local mutual
  exclusion with id priorities, rounds counted in *beacon time* (each
  refinement step costs two beacon rounds: state exchange + mutex
  arbitration — see :mod:`repro.core.transform`);
* **Hsu–Huang** refined with randomized priorities (same accounting);
* **Hsu–Huang** under its native central daemon (moves, for context —
  not comparable to rounds but reported to situate the O(n^3) bound).

The claim reproduces as ``slowdown = refined_rounds / smm_rounds > 1``
and growing with n.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.stats import ratio_of_means, summarize
from repro.analysis.theory import hsu_huang_move_bound
from repro.experiments.common import (
    ExperimentResult,
    TrialSpec,
    fallback_backend,
    initial_configurations,
    run_spec_groups,
)
from repro.matching.smm import SynchronousMaximalMatching
from repro.matching.verify import verify_execution

DEFAULT_FAMILIES = ("cycle", "path", "tree", "er-sparse", "udg")
DEFAULT_SIZES = (8, 16, 32, 64)


def run(
    families: Sequence[str] = DEFAULT_FAMILIES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    trials: int = 10,
    seed: int = 50,
    jobs: int = 1,
    backend: str = "auto",
    telemetry: str | None = None,
) -> ExperimentResult:
    """Head-to-head SMM vs synchronized Hsu–Huang; see module doc.

    ``jobs`` fans the four engine runs of every trial across worker
    processes.  The randomized engines draw from per-trial integer
    seeds derived up front in the parent, so the schedule is a function
    of the spec and ``jobs=N`` output is bit-identical to ``jobs=1``.
    ``backend`` applies where a matching kernel is registered (the SMM
    runs); the Hsu–Huang refinements degrade to the reference engine.
    ``telemetry`` (a JSONL path) streams one per-trial telemetry record
    through :class:`repro.observability.TelemetrySink` — all four
    engines support collection, the refinements on the reference path.
    """
    result = ExperimentResult(
        experiment="E5",
        paper_artifact='Section 3 — converted Hsu-Huang "not as fast" than SMM',
        columns=[
            "family",
            "n",
            "smm_rounds",
            "hh_id_rounds",
            "hh_rand_rounds",
            "slowdown_id",
            "slowdown_rand",
            "hh_central_moves",
            "moves_bound",
        ],
    )
    smm = SynchronousMaximalMatching()
    smm_backend = fallback_backend("smm", backend=backend)
    hh_sync_backend = fallback_backend(
        "hsu-huang", "synchronized-central", backend=backend
    )
    hh_central_backend = fallback_backend("hsu-huang", "central", backend=backend)

    def groups(family, graph, rng):
        configs = list(initial_configurations(smm, graph, "random", trials, rng))
        # per-trial integer seeds for the randomized engines, drawn in
        # the parent so the randomized schedules are functions of the
        # spec (not of which worker runs them, or in which order)
        trial_seeds = [
            (int(rng.integers(2**63)), int(rng.integers(2**63)))
            for _ in configs
        ]
        specs = []
        for config, (seed_rand, seed_central) in zip(configs, trial_seeds):
            specs.append(TrialSpec("smm", graph, config, backend=smm_backend))
            specs.append(
                TrialSpec(
                    "hsu-huang",
                    graph,
                    config,
                    daemon="synchronized-central",
                    options=(("priority", "id"), ("count_beacon_rounds", True)),
                    backend=hh_sync_backend,
                )
            )
            specs.append(
                TrialSpec(
                    "hsu-huang",
                    graph,
                    config,
                    daemon="synchronized-central",
                    seed=seed_rand,
                    options=(("priority", "random"), ("count_beacon_rounds", True)),
                    backend=hh_sync_backend,
                )
            )
            specs.append(
                TrialSpec(
                    "hsu-huang",
                    graph,
                    config,
                    daemon="central",
                    seed=seed_central,
                    options=(("strategy", "random"),),
                    backend=hh_central_backend,
                )
            )
        yield None, specs

    executions, cells = run_spec_groups(
        families, sizes, seed, groups, jobs=jobs, telemetry=telemetry
    )

    for family, graph, _label, lo, hi in cells:
        smm_rounds, id_rounds, rand_rounds, central_moves = [], [], [], []
        for k in range(lo, hi, 4):
            ex_smm, ex_id, ex_rand, ex_central = executions[k : k + 4]
            for ex in (ex_smm, ex_id, ex_rand, ex_central):
                verify_execution(graph, ex)
            smm_rounds.append(ex_smm.rounds)
            id_rounds.append(ex_id.rounds)
            rand_rounds.append(ex_rand.rounds)
            central_moves.append(ex_central.moves)

        result.add(
            family=family,
            n=graph.n,
            smm_rounds=summarize(smm_rounds).mean,
            hh_id_rounds=summarize(id_rounds).mean,
            hh_rand_rounds=summarize(rand_rounds).mean,
            slowdown_id=ratio_of_means(id_rounds, smm_rounds),
            slowdown_rand=ratio_of_means(rand_rounds, smm_rounds),
            hh_central_moves=summarize(central_moves).mean,
            moves_bound=hsu_huang_move_bound(graph.n),
        )

    slowdowns = [row["slowdown_id"] for row in result.rows]
    result.note(
        f"id-priority slowdown range {min(slowdowns):.1f}x..{max(slowdowns):.1f}x "
        "— the refined baseline is never faster than SMM and degrades with n"
    )
    result.note(
        "rounds for the refined runs are beacon rounds (2 per refinement "
        "step: state exchange + mutex arbitration)"
    )
    return result
