"""The per-layer metrics, computed from merged spans and workload tallies.

Every traced run prints every metric below; a layer a workload does not
reach reads 0.  Times are self times (``engine.run_s`` and
``parallel.map_s`` are inclusive) in raw seconds per run.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from .spans import Span, inclusive_times, self_times

#: (metric, unit, better) — mirrored in BENCHMARK.json's ``per_layer``.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("graphs.csr_build_s", "s", "lower"),
    ("graphs.with_updates_s", "s", "lower"),
    ("graphs.neighbors_calls", "count", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.reference_share", "ratio", "lower"),
    ("core.executor_s", "s", "lower"),
    ("kernels.vector_s", "s", "lower"),
    ("kernels.batch_s", "s", "lower"),
    ("kernels.codec_s", "s", "lower"),
    ("kernels.rounds", "count", "lower"),
    ("protocol.legitimacy_s", "s", "lower"),
    ("parallel.map_s", "s", "lower"),
    ("parallel.batched_share", "ratio", "higher"),
    ("parallel.fingerprint_s", "s", "lower"),
    ("parallel.fingerprints_per_trial", "calls/trial", "lower"),
    ("parallel.process_starts_per_trial", "starts/trial", "lower"),
    ("analysis.containment_s", "s", "lower"),
    ("analysis.serialize_s", "s", "lower"),
    ("streaming.report_s", "s", "lower"),
    ("streaming.kernel_builds_per_event", "builds/event", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.store_read_s", "s", "lower"),
    ("serve.store_write_s", "s", "lower"),
    ("serve.cache_hit_share", "ratio", "higher"),
    ("serve.engine_share", "ratio", "higher"),
    ("serve.start_s", "s", "lower"),
    ("serve.response_bytes_per_trial", "B/trial", "lower"),
    ("adhoc.run_until_s", "s", "lower"),
    ("adhoc.true_graph_s", "s", "lower"),
    ("adhoc.legitimacy_checks_per_beacon", "checks/beacon", "lower"),
    ("adhoc.steps_per_beacon", "steps/beacon", "lower"),
)

#: span name -> metric, for the self-time metrics
_SELF = {
    "graphs.csr_build": "graphs.csr_build_s",
    "graphs.with_updates": "graphs.with_updates_s",
    "core.executor": "core.executor_s",
    "kernels.vector": "kernels.vector_s",
    "kernels.batch": "kernels.batch_s",
    "kernels.codec": "kernels.codec_s",
    "protocol.legitimacy": "protocol.legitimacy_s",
    "parallel.fingerprint": "parallel.fingerprint_s",
    "analysis.containment": "analysis.containment_s",
    "analysis.serialize": "analysis.serialize_s",
    "streaming.report": "streaming.report_s",
    "serve.store_read": "serve.store_read_s",
    "serve.store_write": "serve.store_write_s",
    "serve.start": "serve.start_s",
    "adhoc.run_until": "adhoc.run_until_s",
    "adhoc.true_graph": "adhoc.true_graph_s",
}
_INCLUSIVE = {"engine.run": "engine.run_s", "parallel.map": "parallel.map_s"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: Iterable[Span], counts: Mapping[str, int], tally: Mapping[str, float]
) -> Dict[str, float]:
    """All per-layer metrics.

    ``tally`` carries what the workload counted itself: ``trials``,
    ``trials_reference``, ``trials_batch``, ``computed_trials``,
    ``rounds``, ``events``, ``beacons``, ``steps`` and the served
    figures ``queue_wait_s``, ``warm_hits``, ``warm_trials``,
    ``engine_s``, ``cold_request_s``, ``response_bytes``,
    ``served_trials``.
    """
    spans = list(spans)
    own = self_times(spans)
    incl = inclusive_times(spans)
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for span, metric in _SELF.items():
        out[metric] = own.get(span, 0.0)
    for span, metric in _INCLUSIVE.items():
        out[metric] = incl.get(span, 0.0)
    t = dict(tally)
    trials = t.get("trials", 0)
    out["graphs.neighbors_calls"] = counts.get("graphs.neighbors", 0)
    out["engine.reference_share"] = _ratio(t.get("trials_reference", 0), trials)
    out["parallel.batched_share"] = _ratio(t.get("trials_batch", 0), trials)
    out["kernels.rounds"] = t.get("rounds", 0)
    out["parallel.fingerprints_per_trial"] = _ratio(
        counts.get("parallel.fingerprint", 0), trials
    )
    out["parallel.process_starts_per_trial"] = _ratio(
        counts.get("parallel.process_starts", 0), t.get("computed_trials", 0)
    )
    out["streaming.kernel_builds_per_event"] = _ratio(
        counts.get("kernels.builds", 0), t.get("events", 0)
    )
    out["serve.queue_wait_s"] = t.get("queue_wait_s", 0.0)
    out["serve.cache_hit_share"] = _ratio(t.get("warm_hits", 0), t.get("warm_trials", 0))
    out["serve.engine_share"] = _ratio(t.get("engine_s", 0.0), t.get("cold_request_s", 0.0))
    out["serve.response_bytes_per_trial"] = _ratio(
        t.get("response_bytes", 0), t.get("served_trials", 0)
    )
    out["adhoc.legitimacy_checks_per_beacon"] = _ratio(
        counts.get("adhoc.legitimacy_checks", 0), t.get("beacons", 0)
    )
    out["adhoc.steps_per_beacon"] = _ratio(t.get("steps", 0), t.get("beacons", 0))
    return out
