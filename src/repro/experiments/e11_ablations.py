"""E11 — ablations of the reproduction's design choices (DESIGN.md §5).

Not a paper artefact; these sweeps justify knobs the paper leaves open:

* **R1 acceptance choice** — the paper says a node "may select" any
  proposer in rule R1 (only R2's choice is pinned to min-id).  The
  ablation runs SMM with min-id, max-id and random acceptance: all
  three must stay correct and within Theorem 1's bound, showing the
  bound's indifference to the R1 choice — and measuring whether the
  choice matters in practice (it barely does).
* **Beacon parameters** — the ad hoc substrate has two robustness
  knobs: beacon loss probability and the neighbour-eviction timeout
  (in beacon intervals).  The ablation sweeps both on a fixed static
  deployment and reports stabilization beacon-time.  Loss slows
  rounds (a node must hear *every* neighbour to act); an aggressive
  timeout near 1 beacon interval causes spurious evictions under
  jitter+loss, visible as extra protocol steps.
"""

from __future__ import annotations

from typing import Sequence

from repro.adhoc.mobility import StaticPlacement
from repro.adhoc.runner import run_until_stable
from repro.analysis.stats import summarize
from repro.analysis.theory import smm_round_bound
from repro.core.executor import run_synchronous
from repro.core.faults import random_configuration
from repro.experiments.common import ExperimentResult, graph_workloads
from repro.graphs.generators import random_geometric_graph
from repro.matching.smm import (
    SynchronousMaximalMatching,
    max_id_chooser,
    min_id_chooser,
)
from repro.matching.variants import RandomizedSMM
from repro.matching.verify import verify_execution
from repro.mis.sis import SynchronousMaximalIndependentSet
from repro.rng import ensure_rng


def run_acceptance_choosers(
    families: Sequence[str] = ("cycle", "tree", "er-sparse"),
    sizes: Sequence[int] = (8, 16, 32),
    *,
    trials: int = 10,
    seed: int = 120,
) -> ExperimentResult:
    """Ablate R1's acceptance choice; see module docstring."""
    result = ExperimentResult(
        experiment="E11-choosers",
        paper_artifact="ablation — R1 acceptance choice ('may select') does not affect Theorem 1",
        columns=[
            "family",
            "n",
            "accept",
            "rounds_mean",
            "rounds_max",
            "bound",
            "all_correct",
        ],
    )
    variants = (
        ("min-id", lambda: SynchronousMaximalMatching(accept_chooser=min_id_chooser)),
        ("max-id", lambda: SynchronousMaximalMatching(accept_chooser=max_id_chooser)),
        ("random", RandomizedSMM),  # random acceptance *and* proposal
    )
    for family, n, graph, rng in graph_workloads(families, sizes, seed):
        bound = smm_round_bound(graph.n)
        configs = [
            random_configuration(SynchronousMaximalMatching(), graph, rng)
            for _ in range(trials)
        ]
        for label, make in variants:
            protocol = make()
            rounds = []
            ok = True
            for config in configs:
                budget = bound + 4 if label != "random" else 50 * graph.n
                ex = run_synchronous(
                    protocol, graph, config, rng=rng, max_rounds=budget
                )
                try:
                    verify_execution(graph, ex)
                except AssertionError:
                    ok = False
                    continue
                rounds.append(ex.rounds)
            stats = summarize(rounds)
            result.add(
                family=family,
                n=graph.n,
                accept=label,
                rounds_mean=stats.mean,
                rounds_max=int(stats.maximum),
                bound=bound,
                all_correct=ok,
            )
    result.note(
        "min-id and max-id acceptance stay within the deterministic n+1 "
        "bound (R2's min-id rule is what Theorem 1 needs); the fully "
        "random variant is correct but only almost-surely convergent"
    )
    return result


def run_beacon_parameters(
    n: int = 16,
    loss_rates: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
    timeout_factors: Sequence[float] = (1.5, 2.5, 4.0),
    *,
    trials: int = 4,
    seed: int = 121,
    t_b: float = 1.0,
) -> ExperimentResult:
    """Ablate the beacon substrate's loss / timeout knobs."""
    result = ExperimentResult(
        experiment="E11-beacon",
        paper_artifact="ablation — beacon loss and eviction timeout vs stabilization time",
        columns=[
            "protocol",
            "loss",
            "timeout_factor",
            "beacon_rounds_mean",
            "steps_mean",
            "all_stabilized",
        ],
    )
    rng = ensure_rng(seed)
    radius = 0.45
    protocols = (
        ("SIS", SynchronousMaximalIndependentSet),
        ("SMM", SynchronousMaximalMatching),
    )
    for name, make in protocols:
        for loss in loss_rates:
            for tf in timeout_factors:
                times, steps = [], []
                ok = True
                for _ in range(trials):
                    g, pos = random_geometric_graph(
                        n, radius, rng.spawn(1)[0], return_positions=True
                    )
                    res = run_until_stable(
                        make(),
                        StaticPlacement(pos),
                        radius=radius,
                        t_b=t_b,
                        loss=loss,
                        timeout_factor=tf,
                        rng=rng.spawn(1)[0],
                        max_time=400.0,
                    )
                    ok = ok and res.stabilized
                    times.append(res.beacon_rounds)
                    steps.append(res.steps)
                result.add(
                    protocol=name,
                    loss=loss,
                    timeout_factor=tf,
                    beacon_rounds_mean=summarize(times).mean,
                    steps_mean=summarize(steps).mean,
                    all_stabilized=ok,
                )
    result.note(
        "higher loss slows round completion (a node acts only after "
        "hearing every neighbour); timeouts barely above one beacon "
        "interval cause spurious evictions under loss, costing extra "
        "protocol steps"
    )
    return result


def run_contention(
    n: int = 14,
    windows: Sequence[float] = (0.0, 0.02, 0.05, 0.1),
    jitters: Sequence[float] = (0.05, 0.2),
    *,
    trials: int = 4,
    seed: int = 122,
    t_b: float = 1.0,
) -> ExperimentResult:
    """Ablate the link-layer contention assumption.

    Section 2 assumes the link layer "resolves any contention for the
    shared medium".  The contention model weakens that: a receiver
    busy with a reception started less than ``window`` ago drops the
    overlapping beacon (later arrival loses).

    The sweep crosses the window with the beacon *jitter*: with
    near-synchronized beacons (tiny jitter) the same sender pairs can
    collide interval after interval, while ample jitter decorrelates
    the collisions.  Whether that decides stabilization, or only its
    duration, is for the rows to say; the note is built from them by
    :func:`_contention_note` and states a jitter effect only where the
    rows show one.  At the full-scale seed SMM stabilizes at both
    jitters up to window 0.05 and at neither at 0.10, while SIS always
    stabilizes and jitter 0.2 only shortens it.
    """
    result = ExperimentResult(
        experiment="E11-contention",
        paper_artifact="ablation — weakening the contention-free link-layer assumption",
        columns=[
            "protocol",
            "window",
            "jitter",
            "beacon_rounds_mean",
            "steps_mean",
            "all_stabilized",
        ],
    )
    rng = ensure_rng(seed)
    radius = 0.45
    protocols = (
        ("SIS", SynchronousMaximalIndependentSet),
        ("SMM", SynchronousMaximalMatching),
    )
    for name, make in protocols:
        for window in windows:
            for jitter in jitters:
                times, steps = [], []
                ok = True
                for _ in range(trials):
                    g, pos = random_geometric_graph(
                        n, radius, rng.spawn(1)[0], return_positions=True
                    )
                    res = run_until_stable(
                        make(),
                        StaticPlacement(pos),
                        radius=radius,
                        t_b=t_b,
                        jitter=jitter,
                        contention_window=window,
                        rng=rng.spawn(1)[0],
                        max_time=600.0,
                    )
                    ok = ok and res.stabilized
                    times.append(res.beacon_rounds)
                    steps.append(res.steps)
                result.add(
                    protocol=name,
                    window=window,
                    jitter=jitter,
                    beacon_rounds_mean=summarize(times).mean,
                    steps_mean=summarize(steps).mean,
                    all_stabilized=ok,
                )
    result.note(_contention_note(result.rows))
    return result


#: Smallest ratio between the mean beacon rounds at the lowest and the
#: highest jitter that :func:`_contention_note` reports as an effect of
#: jitter on convergence time.
JITTER_TIME_EFFECT = 1.5


def _contention_note(rows) -> str:
    """The E11-contention finding, derived from ``rows`` alone.

    Per protocol it names the windows at which every, some or no
    jitter stabilizes.  A jitter effect on stabilization is stated only
    for a window whose jitters disagree, and one on convergence time
    only where every trial stabilized and the lowest and highest
    jitter's mean beacon rounds differ by :data:`JITTER_TIME_EFFECT` or
    more.
    """
    cells = {}
    for row in rows:
        cells.setdefault((row["protocol"], row["window"]), []).append(row)
    protocols = list(dict.fromkeys(row["protocol"] for row in rows))
    stalls, splits, times = [], [], []
    for protocol in protocols:
        windows = sorted(w for p, w in cells if p == protocol)
        every, none = [], []
        for window in windows:
            cell = sorted(cells[protocol, window], key=lambda r: r["jitter"])
            ok = [r["jitter"] for r in cell if r["all_stabilized"]]
            if len(ok) == len(cell):
                every.append(window)
                lo, hi = (r["beacon_rounds_mean"] for r in (cell[0], cell[-1]))
                if max(lo, hi) >= JITTER_TIME_EFFECT * min(lo, hi) > 0:
                    times.append(
                        f"{protocol} at window {window:g} ({lo:.2f} -> {hi:.2f})"
                    )
            elif not ok:
                none.append(window)
            else:
                stalled = [r["jitter"] for r in cell if not r["all_stabilized"]]
                splits.append(
                    f"{protocol} at window {window:g} stabilizes with jitter "
                    f"{_listed(ok)} but stalls with jitter {_listed(stalled)}"
                )
        clause = f"{protocol} stabilizes at every jitter at window(s) "
        clause += _listed(every) if every else "none"
        if none:
            clause += f" and at no jitter at window(s) {_listed(none)}"
        stalls.append(clause)
    jitters = sorted({row["jitter"] for row in rows})
    note = "; ".join(stalls) + ". "
    if splits:
        note += "Jitter decides stabilization where " + "; ".join(splits) + ". "
    else:
        note += "Jitter never decides whether a cell stabilizes. "
    note += (
        f"Where every trial stabilized, raising the jitter from "
        f"{jitters[0]:g} to {jitters[-1]:g} changes the mean beacon rounds "
        f"by {JITTER_TIME_EFFECT:g}x or more for "
        + ("; ".join(times) if times else "no cell")
        + "."
    )
    return note


def _listed(values) -> str:
    return ", ".join(f"{v:g}" for v in values)
