"""Proof-aware convergence monitors (Theorems 1–2 as runtime checks).

The paper's correctness story is quantitative — Theorem 1 bounds SMM
stabilization, Theorem 2 gives SIS O(n) rounds — yet a bare run only
reports "stabilized after k rounds".  This module observes the
*distance to legitimacy* the proofs argue about:

* **Potential functions.**  For the pointer-matching family, a
  Theorem-1-aligned variant function over the Fig. 2 node classes
  (:mod:`repro.matching.classification`):

  .. math::  \\Phi(c) = (2n+1)\\,(n - |M|) + \\sum_t w_t\\,|t|

  with per-class weights ``w = {M: 0, A1: 1, PA: 2, A0: 3, PM: 4,
  PP: 5}``.  The dominant term pays ``2n+1`` per unmatched node, so any
  move that matches nodes (R1 accepting a proposal) decreases Φ no
  matter how the remaining classes reshuffle (the class-sum can shift
  by at most ``5(n-2) < 2·(2n+1)``); the weights order the remaining
  single-node transitions of Fig. 3 downhill — ``A0 → PM/PP`` costs
  Φ only through the mover when its pointee is already non-aloof, R3
  back-off is ``PP → PA`` viewed from the suitors (−3 each), and a
  pure class-sum provably cannot decrease on every arrow (the cycle
  ``PM → A0 → PM`` forces ``w_{PM} < w_{A0} < w_{PM}``), which is why
  the matched-count term is load-bearing.  Under the central daemon
  every applicable move strictly decreases Φ (the property test in
  ``tests/test_convergence_observatory.py`` sweeps this); under the
  synchronous daemon the recorded series is empirically non-increasing.

* For SIS, the potential is the **count of rule-enabled nodes** —
  exactly the quantity Theorem 2's peeling argument drives to zero.
  Under the synchronous daemon every enabled node fires, so the series
  is derived for free from the per-round move counters the telemetry
  layer already pins byte-identical across backends.

* **Safety monitors** — matching consistency (no node in two matched
  pairs, pointers within the neighbourhood, no transient classes at
  quiescence) and independence/domination at quiescence — evaluated as
  cheap final-configuration checks.  Violation counts feed the
  ``repro_convergence_violations_total`` metric family and are stamped
  as a span event when a tracer is ambient.

* **Bound conformance** — observed rounds/moves compared against the
  paper's envelopes (:mod:`repro.analysis.theory`): SMM synchronous
  rounds vs ``n + 1`` (Theorem 1), SIS synchronous rounds vs ``n``
  (Theorem 2), Hsu–Huang central-daemon moves vs ``n³``.  The verdict
  lands on ``RunResult.bound_ok``: ``True``/``False`` when conclusive,
  ``None`` when no bound applies or the run was cut by a budget below
  the bound.

Everything here derives from quantities that are already byte-identical
across backends (the telemetry census, per-round move counters, final
configurations), so the convergence record itself is byte-identical —
pinned by ``tests/test_engine_equivalence.py``.  Request it with
``engine.run(..., convergence=True)``, ``TrialSpec(convergence=True)``
or ``repro run --convergence``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.observability.telemetry import CENSUS_KEYS, census_of

__all__ = [
    "SMM_TYPE_WEIGHTS",
    "attach_convergence",
    "bound_for",
    "convergence_report",
    "domination_violations",
    "independence_violations",
    "matching_check_counts",
    "matching_violations",
    "pointer_violations",
    "potential_series",
    "progress_estimate",
    "protocol_family",
    "sis_enabled_count",
    "smm_potential",
    "smm_potential_from_census",
    "smm_unmatched_weight",
]

#: Per-class weights of the SMM variant function, in Fig. 2 order.  The
#: ordering is forced by the Fig. 3 arrows (see the module docstring);
#: the matched/unmatched split carries the rest of the decrease.
SMM_TYPE_WEIGHTS: Dict[str, int] = {
    "M": 0,
    "A1": 1,
    "PA": 2,
    "A0": 3,
    "PM": 4,
    "PP": 5,
}

#: Transient Fig. 2 classes — all empty at quiescence (no rule enabled
#: can leave a pointing or suitor-holding node idle).
_TRANSIENT_KEYS = ("A1", "PA", "PM", "PP")


def smm_unmatched_weight(n: int) -> int:
    """Weight of one unmatched node in the SMM variant function.

    ``2n + 1`` strictly dominates the largest possible one-round shift
    of the class-sum term (at most ``5(n-2)`` over ``n - 2`` bystanders
    when two nodes match), so matching moves always win."""
    return 2 * int(n) + 1


def smm_potential_from_census(census: Mapping[str, int], n: int) -> int:
    """The SMM variant function Φ evaluated on a Fig. 2 census dict."""
    unmatched = int(n) - int(census["M"])
    return smm_unmatched_weight(n) * unmatched + sum(
        SMM_TYPE_WEIGHTS[key] * int(census[key]) for key in CENSUS_KEYS
    )


def smm_potential(graph, config) -> int:
    """Φ by direct classification of a pointer configuration."""
    return smm_potential_from_census(census_of(graph, config), graph.n)


def sis_enabled_count(graph, config) -> int:
    """The SIS potential: number of rule-enabled nodes.

    A node is enabled iff its bit disagrees with ``¬blocked`` (Fig. 4:
    ``x' = ¬(∃ larger-id in-set neighbour)`` regardless of ``x``).
    Evaluated as one vectorized round of the SIS kernel, so the cost is
    O(m) array work, not a Python scan."""
    from repro.mis.sis_vectorized import VectorizedSIS

    kernel = VectorizedSIS(graph)
    x = kernel.encode(config)
    return int((kernel.step(x) != x).sum())


# ----------------------------------------------------------------------
# safety monitors (violation counts; 0 = check passed)
# ----------------------------------------------------------------------
def pointer_violations(graph, config) -> int:
    """Pointers outside the state space: self-pointers or targets that
    are not neighbours."""
    bad = 0
    for node in graph.nodes:
        p = config[node]
        if p is None:
            continue
        if p == node or p not in graph.neighbors(node):
            bad += 1
    return bad


def matching_violations(graph, config) -> int:
    """Nodes matched through a non-edge: the pointer is reciprocated
    (both endpoints claim the pair) but the pair is not an edge of the
    graph — a phantom match no legitimate execution can produce.  Like
    :func:`pointer_violations` this guards backend decode bugs; it is
    the stricter half (a reciprocated bad pointer corrupts ``|M|`` and
    with it the potential, not just one node's state)."""
    bad = 0
    for node in graph.nodes:
        p = config[node]
        if p is None or p == node:
            continue
        if config.get(p) == node and p not in graph.neighbors(node):
            bad += 1
    return bad


def _matching_checks_fast(graph, config):
    """``(pointer_violations, matching_violations)`` in O(n + m) array
    work over the graph's cached CSR — the hot path behind
    :func:`convergence_report` (the pure-Python definitions above stay
    the readable spec; equality is pinned by the observatory tests).
    Returns ``None`` when the configuration is not CSR-indexable
    (states outside the node set other than ``None``), sending the
    caller down the reference path."""
    import numpy as np

    indptr, indices, ids = graph.adjacency_arrays()
    n = int(len(ids))
    if n == 0:
        return 0, 0
    states = getattr(config, "_states", config)  # skip Mapping dispatch
    ids_list = ids.tolist()
    try:
        if int(ids[0]) == 0 and int(ids[-1]) == n - 1:
            # dense ids (every generated graph): node id == dense index,
            # so the encode loop needs no index lookups at all
            ptr = np.asarray(
                [
                    -1 if (p := states[node]) is None else p
                    for node in ids_list
                ],
                dtype=np.int64,
            )
            ptr[(ptr < -1) | (ptr >= n)] = -2  # -2: outside graph
        else:
            pos = graph.dense_index()
            ptr = np.empty(n, dtype=np.int64)
            for k, node in enumerate(ids_list):
                p = states[node]
                if p is None:
                    ptr[k] = -1
                else:
                    dense = pos.get(p)
                    ptr[k] = -2 if dense is None else dense
    except (KeyError, TypeError, ValueError):  # exotic states
        return None
    return matching_check_counts(indptr, indices, ptr)


def matching_check_counts(indptr, indices, ptr) -> tuple[int, int]:
    """``(pointer_violations, matching_violations)`` of a dense pointer
    array over a CSR adjacency: ``ptr[k]`` is the dense index node
    ``k`` points at, ``-1`` for null and ``-2`` for a target outside
    the graph.  The array core of :func:`_matching_checks_fast`; the
    streaming engine applies it to the SMM kernel's live state
    directly."""
    import numpy as np

    n = indptr.size - 1
    pointing = ptr >= 0
    # per directed CSR edge (i -> j): does i's pointer land on j?
    row = np.repeat(np.arange(n), np.diff(indptr))
    ok = np.zeros(n, dtype=bool)
    hit = ptr[row] == indices
    ok[row[hit]] = True  # ok[i]: ptr[i] is a real neighbour of i
    bad_ptr = int((pointing & ~ok).sum()) + int((ptr == -2).sum())
    target = np.where(pointing, ptr, 0)
    reciprocal = pointing & (ptr[target] == np.arange(n))
    reciprocal &= ptr != np.arange(n)  # self-pointers are not pairs
    bad_match = int((reciprocal & ~ok).sum())
    return bad_ptr, bad_match


def independence_violations(graph, config) -> int:
    """Edges with both endpoints in the set."""
    return sum(
        1 for u, v in graph.edges if config[u] == 1 and config[v] == 1
    )


def domination_violations(graph, config) -> int:
    """Out-of-set nodes with no in-set neighbour (non-dominated)."""
    bad = 0
    for node in graph.nodes:
        if config[node] == 1:
            continue
        if not any(config[j] == 1 for j in graph.neighbors(node)):
            bad += 1
    return bad


# ----------------------------------------------------------------------
# protocol family / series / bounds
# ----------------------------------------------------------------------
def protocol_family(protocol_name: str) -> Optional[str]:
    """``"matching"`` for the pointer-matching protocols (SMM and
    variants, Hsu–Huang), ``"independent"`` for SIS; ``None`` for
    protocols without convergence monitors (Luby, ...)."""
    name = str(protocol_name).lower()
    if name.startswith("smm") or name.startswith("hsu") or "matching" in name:
        return "matching"
    if name in ("sis", "smi"):
        return "independent"
    return None


def _is_synchronous(daemon: str) -> bool:
    return daemon == "synchronous"


def bound_for(protocol_name: str, daemon: str, n: int):
    """The paper bound applicable to a run, conservatively.

    Returns ``(kind, bound, metric)`` — ``metric`` is the observed
    quantity to compare (``"rounds"`` or ``"moves"``) — or
    ``(None, None, "rounds")`` when no proved envelope applies (e.g.
    the central daemon for SMM, randomized variants, empty graphs).
    """
    from repro.analysis.theory import (
        hsu_huang_move_bound,
        sis_round_bound,
        smm_round_bound,
    )

    name = str(protocol_name).lower()
    if n < 1:
        return None, None, "rounds"
    if _is_synchronous(daemon):
        if name == "smm":
            return "theorem1_rounds", smm_round_bound(n), "rounds"
        if name in ("sis", "smi"):
            return "theorem2_rounds", sis_round_bound(n), "rounds"
    elif daemon.startswith("central") and name.startswith("hsu"):
        return "hsu_huang_moves", hsu_huang_move_bound(n), "moves"
    return None, None, "rounds"


def potential_series(result, graph) -> Optional[List[int]]:
    """The per-round potential series of a run, cheapest source first.

    ``series[t]`` is the potential of the configuration after round
    ``t`` (``series[0]`` = initial), so a completed series has
    ``rounds + 1`` entries.  Matching runs derive it from the telemetry
    census (already recorded, already cross-backend pinned), falling
    back to a recorded history; SIS runs derive it from the per-round
    move counters (under the synchronous daemon every enabled node
    fires, so the round-``t+1`` move count *is* the enabled count at
    time ``t``) plus one direct evaluation of the final configuration.
    Returns ``None`` when no deterministic source exists (e.g. a
    central-daemon SIS run without history).
    """
    family = protocol_family(result.protocol_name)
    telemetry = result.telemetry
    if family == "matching":
        if telemetry is not None and telemetry.node_type_census:
            # smm_potential_from_census, inlined over the whole series
            # (one call per round adds measurable overhead at sweep
            # scale; the weights are SMM_TYPE_WEIGHTS in Fig. 2 order)
            n = graph.n
            unmatched_w = 2 * n + 1
            return [
                unmatched_w * (n - census["M"])
                + census["A1"]
                + 2 * census["PA"]
                + 3 * census["A0"]
                + 4 * census["PM"]
                + 5 * census["PP"]
                for census in telemetry.node_type_census
            ]
        if result.history is not None:
            return [smm_potential(graph, c) for c in result.history]
        return None
    if family == "independent":
        if result.history is not None:
            return [sis_enabled_count(graph, c) for c in result.history]
        if telemetry is not None and _is_synchronous(result.daemon):
            series = [
                sum(entry.values()) for entry in telemetry.per_round_moves
            ]
            series.append(sis_enabled_count(graph, result.final))
            return series
        return None
    return None


def _per_round_moves(result) -> Optional[List[int]]:
    if result.telemetry is not None:
        return [
            sum(entry.values())
            for entry in result.telemetry.per_round_moves
        ]
    if result.move_log is not None:
        return [len(entry) for entry in result.move_log]
    return None


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def convergence_report(result, graph) -> Dict[str, Any]:
    """Build the JSON-safe convergence record for one finished run.

    Every field is a pure function of cross-backend-pinned inputs
    (census, per-round counters, final configuration, summary fields),
    so the record is byte-identical across backends and ``--jobs``.
    """
    family = protocol_family(result.protocol_name)
    series = potential_series(result, graph)
    n = graph.n

    checks: Dict[str, int] = {}
    if family == "matching":
        fast = _matching_checks_fast(graph, result.final)
        if fast is None:  # non-indexable states: reference definitions
            fast = (
                pointer_violations(graph, result.final),
                matching_violations(graph, result.final),
            )
        checks["pointer_valid"], checks["matching_consistent"] = fast
        if result.stabilized:
            telemetry = result.telemetry
            if telemetry is not None and telemetry.node_type_census:
                final_census = telemetry.node_type_census[-1]
            else:
                final_census = census_of(graph, result.final)
            checks["quiescent_symmetric"] = sum(
                int(final_census[key]) for key in _TRANSIENT_KEYS
            )
        else:
            checks["quiescent_symmetric"] = 0
    elif family == "independent":
        if result.stabilized:
            checks["independent_at_quiescence"] = independence_violations(
                graph, result.final
            )
            checks["dominating_at_quiescence"] = domination_violations(
                graph, result.final
            )
        else:
            checks["independent_at_quiescence"] = 0
            checks["dominating_at_quiescence"] = 0
    violations = sum(checks.values())

    monotone: Optional[bool] = None
    strict_on_moves: Optional[bool] = None
    if series is not None and len(series) >= 2:
        monotone = all(b <= a for a, b in zip(series, series[1:]))
        moves = _per_round_moves(result)
        if (
            family == "matching"
            and moves is not None
            and len(series) == len(moves) + 1
        ):
            strict_on_moves = all(
                series[t + 1] < series[t]
                for t, count in enumerate(moves)
                if count > 0
            )

    kind, bound, metric = bound_for(result.protocol_name, result.daemon, n)
    observed = result.rounds if metric == "rounds" else result.moves
    if bound is None:
        bound_ok: Optional[bool] = None
        margin: Optional[float] = None
    else:
        margin = observed / bound
        if result.stabilized:
            bound_ok = observed <= bound
        elif observed >= bound:
            bound_ok = False  # ran past the proved envelope, still live
        else:
            bound_ok = None  # budget cut below the bound: inconclusive

    initial_potential = series[0] if series else None
    final_potential = series[-1] if series else None
    decay: Optional[float] = None
    if (
        initial_potential is not None
        and final_potential is not None
        and result.rounds > 0
    ):
        decay = (initial_potential - final_potential) / result.rounds

    return {
        "protocol": result.protocol_name,
        "family": family,
        "potential": series,
        "initial_potential": initial_potential,
        "final_potential": final_potential,
        "decay_per_round": decay,
        "monotone": monotone,
        "strict_on_moves": strict_on_moves,
        "checks": checks,
        "violations": violations,
        "bound_kind": kind,
        "bound": bound,
        "observed": observed,
        "observed_metric": metric,
        "bound_margin": margin,
        "bound_ok": bound_ok,
    }


def attach_convergence(result, graph) -> Dict[str, Any]:
    """Compute and attach the convergence record to a finished run.

    Called by :func:`repro.engine.run` when the run was made with
    ``convergence=True`` — always in the process that ran the backend,
    so the record rides the ordinary pickled result exactly like
    telemetry does.  Stores the record on ``result.telemetry.convergence``
    (telemetry is forced on by the engine for convergence runs), stamps
    ``result.bound_ok``, and emits a ``convergence:violation`` span
    event when a tracer is ambient and a safety check failed.  Metrics
    are *not* recorded here: the trial runner folds the record into the
    ambient registry parent-side, in spec order
    (:func:`repro.observability.metrics.record_run_result`), keeping the
    counter exports deterministic for any ``--jobs``.
    """
    report = convergence_report(result, graph)
    result.bound_ok = report["bound_ok"]
    if result.telemetry is not None:
        result.telemetry.convergence = report
    if report["violations"]:
        from repro.observability import tracing

        tracer = tracing.current_tracer()
        if tracer is not None:
            now = tracer.now()
            failed = sorted(
                name for name, count in report["checks"].items() if count
            )
            tracer.record(
                "convergence:violation",
                now,
                now,
                protocol=result.protocol_name,
                violations=report["violations"],
                checks=",".join(failed),
            )
    return report


def progress_estimate(report: Mapping[str, Any]) -> Dict[str, Any]:
    """Live-progress view of a convergence record, for job status and
    stream reports: the current potential, its decay rate, and a rough
    rounds-to-quiescence ETA (``None`` once converged or when the
    potential is not decaying)."""
    final = report.get("final_potential")
    decay = report.get("decay_per_round")
    eta: Optional[float] = None
    if final is not None and final > 0 and decay is not None and decay > 0:
        eta = final / decay
    return {
        "potential": final,
        "initial_potential": report.get("initial_potential"),
        "decay_per_round": decay,
        "eta_rounds": eta,
        "violations": report.get("violations", 0),
        "bound_ok": report.get("bound_ok"),
    }
