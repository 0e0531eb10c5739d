"""E15 — Theorems 1–2 as runtime assertions: the convergence observatory.

Runs SMM and SIS with the proof-aware convergence monitors attached
(:mod:`repro.observability.convergence`) across graph families and
sizes, and reports — per (protocol, family, n) cell — the potential
decay, the safety-monitor violation count, and the measured-vs-bound
margin of the applicable theorem (Theorem 1's ``n + 1`` synchronous
rounds for SMM, Theorem 2's ``n`` for SIS).

The gate semantics: every cell must show ``violations = 0`` and
``bound_ok = 1.0`` (all trials conformant).  A single violation or
bound breach falsifies the reproduction — this is the experiment the CI
``convergence-smoke`` job asserts on both the reference and vectorized
backends, and the standing correctness oracle new backends (sharded
CSR, protocol zoo) must pass.

``potential_monotone`` reports the fraction of trials whose recorded
potential series was non-increasing round over round: proved for the
central daemon (the observatory property test), empirically 1.0 under
the synchronous daemon for SMM; SIS's enabled-count potential is
reported but not gated (transient increases are possible in
adversarial starts).
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.stats import summarize
from repro.experiments.common import (
    ExperimentResult,
    TrialSpec,
    fallback_backend,
    initial_configurations,
    run_spec_groups,
)
from repro.engine import registry

DEFAULT_FAMILIES = ("cycle", "path", "star", "tree", "grid", "er-sparse")
DEFAULT_SIZES = (8, 16, 32, 64)
PROTOCOLS = ("smm", "sis")


def run(
    families: Sequence[str] = DEFAULT_FAMILIES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    trials: int = 10,
    seed: int = 150,
    jobs: int = 1,
    backend: str = "auto",
    telemetry: str | None = None,
) -> ExperimentResult:
    """Sweep the convergence observatory; see module docstring.

    Trials start from random configurations (the self-stabilization
    quantifier) with budget ``bound + 4`` so a bound breach would be
    observed as such rather than clipped.  Results are bit-identical
    for every ``jobs`` and every built-in ``backend``.
    """
    result = ExperimentResult(
        experiment="E15",
        paper_artifact=(
            "Theorems 1-2 as runtime assertions — potential decay, "
            "invariant monitors, bound conformance"
        ),
        columns=[
            "protocol",
            "family",
            "n",
            "trials",
            "rounds_max",
            "bound",
            "margin_max",
            "potential_monotone",
            "violations",
            "bound_ok",
        ],
    )
    from repro.observability.convergence import bound_for

    protocols = {name: registry.make_protocol(name) for name in PROTOCOLS}
    backends = {
        name: fallback_backend(name, backend=backend) for name in PROTOCOLS
    }

    def groups(family, graph, rng):
        for name in PROTOCOLS:
            _, bound, _ = bound_for(
                protocols[name].name, "synchronous", graph.n
            )
            yield name, [
                TrialSpec(
                    name,
                    graph,
                    config,
                    max_rounds=(bound or graph.n) + 4,
                    backend=backends[name],
                )
                for config in initial_configurations(
                    protocols[name], graph, "random", trials, rng
                )
            ]

    executions, cells = run_spec_groups(
        families,
        sizes,
        seed,
        groups,
        jobs=jobs,
        telemetry=telemetry,
        convergence=True,
    )

    for family, graph, name, lo, hi in cells:
        group = executions[lo:hi]
        reports = [e.telemetry.convergence for e in group]
        rounds = summarize([e.rounds for e in group])
        margins = [
            r["bound_margin"] for r in reports if r["bound_margin"] is not None
        ]
        monotone = [r for r in reports if r["monotone"] is not None]
        result.add(
            protocol=name,
            family=family,
            n=graph.n,
            trials=len(group),
            rounds_max=int(rounds.maximum),
            bound=reports[0]["bound"],
            margin_max=max(margins) if margins else None,
            potential_monotone=(
                sum(1.0 for r in monotone if r["monotone"]) / len(monotone)
                if monotone
                else None
            ),
            violations=sum(r["violations"] for r in reports),
            bound_ok=float(
                all(e.bound_ok is True for e in group)
            ),
        )

    worst = max(
        (
            row["margin_max"]
            for row in result.rows
            if row["margin_max"] is not None
        ),
        default=0.0,
    )
    result.note(
        f"worst observed rounds/bound margin = {worst:.2f} "
        "(Theorems 1-2 hold iff every bound_ok is 1.0 and "
        "violations is 0 everywhere)"
    )
    return result
