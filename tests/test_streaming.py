"""Tests for :mod:`repro.streaming` — the long-lived streaming-churn
engine — and the incremental CSR maintenance it rides on.

The load-bearing pin is byte-identity: a CSR patched through
:meth:`Graph.with_updates` must be indistinguishable from the CSR a
from-scratch ``Graph(nodes, edges)`` rebuild computes, over randomized
event sequences mixing edge and node inserts/deletes.  Everything the
vectorized stream backend does (dirty-frontier seeding, state
migration) sits on top of that equivalence.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.graphs.generators import cycle_graph, random_geometric_graph, random_tree
from repro.graphs.graph import Graph
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.resilience import FaultEvent, FaultPlan
from repro.streaming import (
    StreamEngine,
    load_trace,
    poisson_plan,
    run_soak,
    run_stream,
)


def _assert_csr_identical(derived: Graph) -> None:
    """``derived``'s (possibly patched) CSR is byte-identical to the CSR
    a from-scratch construction of the same graph computes."""
    fresh = Graph(derived.nodes, derived.edges)
    got = derived.adjacency_arrays()
    want = fresh.adjacency_arrays()
    for name, a, b in zip(("indptr", "indices", "ids"), got, want):
        assert a.dtype == b.dtype == np.int64, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name
        assert a.tobytes() == b.tobytes(), name  # the actual pin
    assert derived.dense_index() == fresh.dense_index()
    # and the lazily materialized edge set agrees with the adjacency
    assert derived.edges == fresh.edges
    assert derived.m == fresh.m


class TestIncrementalCSR:
    def test_edge_patch_matches_rebuild(self):
        graph = cycle_graph(12)
        graph.adjacency_arrays()  # populate the cache so updates patch it
        derived = graph.with_updates(add_edges=[(0, 6)], remove_edges=[(2, 3)])
        assert derived._csr is not None  # patched, not dropped
        _assert_csr_identical(derived)

    def test_node_patch_matches_rebuild(self):
        graph = random_tree(10, rng=5)
        graph.adjacency_arrays()
        derived = graph.with_updates(
            add_nodes=[100, 101],
            add_edges=[(100, 0), (100, 101)],
            remove_nodes=[3],
        )
        assert derived._csr is not None
        _assert_csr_identical(derived)

    def test_noop_toggle_keeps_cache(self):
        graph = cycle_graph(8)
        graph.adjacency_arrays()
        derived = graph.with_updates(add_edges=[(0, 1)], remove_edges=[(0, 1)])
        _assert_csr_identical(derived)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_event_sequences_stay_byte_identical(self, seed):
        """Property: any applicable sequence of edge/node insert/delete
        events, applied incrementally, yields CSR arrays byte-identical
        to a from-scratch rebuild at every step."""
        rng = np.random.default_rng(seed)
        graph = random_geometric_graph(24, 0.35, int(rng.integers(1 << 16)))
        graph.adjacency_arrays()
        next_id = max(graph.nodes) + 1
        for _ in range(40):
            nodes = list(graph.nodes)
            edges = sorted(graph.edges)
            op = rng.choice(["add_edge", "remove_edge", "add_node", "remove_node"])
            if op == "add_edge" and len(nodes) >= 2:
                for _ in range(32):
                    u, v = (int(x) for x in rng.choice(nodes, size=2, replace=False))
                    e = (u, v) if u < v else (v, u)
                    if e not in graph.edges:
                        graph = graph.with_updates(add_edges=[e])
                        break
            elif op == "remove_edge" and edges:
                e = edges[int(rng.integers(len(edges)))]
                graph = graph.with_updates(remove_edges=[e])
            elif op == "add_node":
                attach = [] if not nodes else [
                    (next_id, int(nodes[int(rng.integers(len(nodes)))]))
                ]
                graph = graph.with_updates(add_nodes=[next_id], add_edges=attach)
                next_id += 1
            elif op == "remove_node" and len(nodes) > 2:
                victim = int(nodes[int(rng.integers(len(nodes)))])
                graph = graph.with_updates(remove_nodes=[victim])
            assert graph._csr is not None, "incremental patch was dropped"
            _assert_csr_identical(graph)

    def test_patch_only_applies_when_cache_exists(self):
        # without a cached CSR there is nothing to patch; the derived
        # graph just rebuilds lazily on first kernel construction
        graph = cycle_graph(6)
        derived = graph.with_updates(remove_edges=[(0, 1)])
        assert derived._csr is None
        _assert_csr_identical(derived)


class TestPoissonPlan:
    def test_deterministic_and_sorted(self):
        graph = random_tree(16, rng=2)
        a = poisson_plan(graph, rate=0.3, events=30, seed=9)
        b = poisson_plan(graph, rate=0.3, events=30, seed=9)
        assert a.to_dict() == b.to_dict()
        rounds = [e.round for e in a.events]
        assert rounds == sorted(rounds)

    def test_churn_sequence_is_always_applicable(self):
        graph = cycle_graph(10)
        plan = poisson_plan(graph, rate=2.0, events=60, seed=4, kinds=("churn",))
        for event in plan.events:
            graph = graph.with_updates(
                add_edges=event.add_edges, remove_edges=event.remove_edges
            )

    def test_crash_mix_keeps_a_node_alive(self):
        graph = random_tree(6, rng=1)
        plan = poisson_plan(
            graph, rate=1.0, events=50, seed=3,
            kinds=("churn", "crash", "perturb"),
        )
        assert any(e.kind == "crash" for e in plan.events)

    def test_bad_arguments_raise(self):
        graph = cycle_graph(4)
        with pytest.raises(ExperimentError):
            poisson_plan(graph, rate=0, events=3)
        with pytest.raises(ExperimentError):
            poisson_plan(graph, rate=1.0, events=3, kinds=("meteor",))
        with pytest.raises(ExperimentError):
            poisson_plan(graph, rate=1.0, events=3, kinds=())


class TestLoadTrace:
    def test_fault_plan_json_round_trip(self, tmp_path):
        plan = poisson_plan(cycle_graph(8), rate=0.5, events=10, seed=7)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
        assert load_trace(path).to_dict() == plan.to_dict()

    def test_jsonl_events_with_seed_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"seed": 11}\n'
            '{"round": 1, "kind": "perturb", "nodes": [2]}\n'
            '{"round": 4, "kind": "churn", "remove_edges": [[0, 1]]}\n',
            encoding="utf-8",
        )
        plan = load_trace(path)
        assert plan.seed == 11
        assert [e.kind for e in plan.events] == ["perturb", "churn"]

    def test_bad_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ExperimentError):
            load_trace(path)


class TestStreamEngine:
    @pytest.mark.parametrize("protocol", ["smm", "sis"])
    def test_backends_agree_on_all_slo_counters(self, protocol):
        """The deterministic aggregate (everything except wall-clock) is
        byte-identical between the reference engine and the vectorized
        dirty-frontier path, across every event kind."""
        graph = cycle_graph(20)
        plan = poisson_plan(
            graph, rate=0.7, events=40, seed=13,
            kinds=("churn", "perturb", "message_dup", "crash"),
        )
        ref = run_stream(protocol, graph, plan, backend="reference")
        vec = run_stream(protocol, graph, plan, backend="vectorized")
        assert ref.counters() == vec.counters()

    @pytest.mark.parametrize("protocol", ["smm", "sis"])
    def test_backends_agree_on_convergence_snapshot(self, protocol):
        """The vectorized backend reads the report's convergence
        snapshot off its dense state, the reference backend off its
        configuration dict; the snapshots are identical for every event
        kind, after a full settle and after zero- and one-round settle
        windows that leave runs mid-recovery."""
        graph = random_geometric_graph(28, 0.3, 4)
        plans = [
            poisson_plan(graph, rate=0.8, events=12, seed=seed, kinds=kinds)
            for seed, kinds in enumerate(
                [("churn",), ("perturb",), ("message_dup",), ("crash",),
                 ("churn", "perturb", "message_dup", "crash")]
            )
        ]
        plans.append(
            FaultPlan(
                events=(
                    FaultEvent(round=1, kind="churn", churn=2),
                    FaultEvent(round=2, kind="message_loss", count=2),
                    FaultEvent(round=2, kind="perturb", fraction=0.3),
                ),
                seed=3,
            )
        )
        quiescent = []
        for plan in plans:
            for settle in (None, 0, 1):
                ref = run_stream(
                    protocol, graph, plan, backend="reference", settle_budget=settle
                )
                vec = run_stream(
                    protocol, graph, plan, backend="vectorized", settle_budget=settle
                )
                assert ref.counters() == vec.counters()
                assert ref.convergence == vec.convergence
                quiescent.append(vec.convergence["quiescent"])
        assert 0 < quiescent.count(False) < len(quiescent)  # both readings

    def test_report_invariants_and_final_legitimacy(self):
        graph = random_tree(24, rng=8)
        engine = StreamEngine("smm", graph, backend="vectorized")
        plan = poisson_plan(graph, rate=0.4, events=25, seed=21)
        report = engine.run(plan)
        assert report.events == len(plan.events)
        assert 0 <= report.recovered <= report.events
        assert sum(report.rounds_dist.values()) == report.events
        assert report.recovery_rounds_total == sum(
            k * v for k, v in report.rounds_dist.items()
        )
        if report.p50_rounds is not None and report.p99_rounds is not None:
            assert report.p50_rounds <= report.p99_rounds
        # the run ends with a settle window: the live config must be a
        # legitimate configuration of the churned graph
        assert engine.protocol.is_legitimate(engine.graph, engine.config())

    def test_engine_clock_rebasing_across_plans(self):
        graph = cycle_graph(12)
        engine = StreamEngine("sis", graph, backend="vectorized")
        first = poisson_plan(graph, rate=0.5, events=5, seed=1)
        engine.run(first)
        mid_rounds = engine.elapsed_rounds
        second = poisson_plan(engine.graph, rate=0.5, events=5, seed=2)
        report = engine.run(second)
        assert report.events == 10
        assert engine.elapsed_rounds > mid_rounds

    def test_samples_window_is_bounded(self):
        graph = cycle_graph(10)
        plan = poisson_plan(graph, rate=1.0, events=30, seed=5)
        report = run_stream("smm", graph, plan, sample_cap=8)
        assert len(report.samples) == 8
        assert report.events == 30  # aggregates still cover everything
        assert report.samples[-1].index == report.events - 1

    def test_unknown_protocol_and_backend_raise(self):
        graph = cycle_graph(4)
        with pytest.raises(ExperimentError):
            StreamEngine("nope", graph)
        with pytest.raises(ExperimentError):
            StreamEngine("smm", graph, backend="quantum")

    def test_metrics_emitted_into_ambient_registry(self):
        registry = MetricsRegistry()
        graph = cycle_graph(12)
        plan = poisson_plan(graph, rate=0.5, events=12, seed=6)
        with use_registry(registry):
            report = run_stream("smm", graph, plan)
        text = registry.exposition()
        assert "repro_stream_events_total" in text
        assert "repro_stream_restabilize_rounds" in text
        assert "repro_stream_events_per_second" in text
        payload = json.loads(registry.to_json())
        events = sum(
            s["value"]
            for s in payload["repro_stream_events_total"]["samples"]
        )
        assert events == report.events


class TestSoakSmoke:
    def test_bounded_soak_leaves_nothing_behind(self):
        """CI's soak smoke: a chunked never-restarting run stays inside
        its wall-clock budget and reports bounded memory."""
        graph = random_tree(32, rng=3)
        out = run_soak(
            "sis",
            graph,
            rate=0.5,
            chunk_events=16,
            max_seconds=5.0,
            max_chunks=3,
            seed=42,
            sample_cap=32,
        )
        assert out["chunks"] == 3
        report = out["report"]
        assert report.events == out["events"] == 48
        assert out["rounds"] == report.rounds > 0
        assert len(report.samples) <= 32
        assert 0 < out["max_rss_kb"] < 4_000_000  # well under 4 GB
