"""Tests for :mod:`repro.parallel` — the trial fan-out subsystem.

The contract under test: ``TrialRunner`` output is a pure function of
the spec list — same specs, same results, for every ``jobs`` value,
with worker processes or inline.  Determinism comes from drawing all
randomness (configurations, integer seeds) in the parent before
dispatch, so no test here needs statistical tolerance: everything is
compared for exact equality.
"""

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configuration import Configuration
from repro.core.executor import run_central, run_synchronous
from repro.errors import ExperimentError
from repro.graphs.generators import cycle_graph, erdos_renyi_graph, random_tree
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import (
    PROTOCOLS,
    TrialRunner,
    TrialSpec,
    execute_trial,
    resolve_jobs,
    run_trials,
    spec_fingerprint,
)
from repro.parallel.trial_runner import register_protocol

SMM = SynchronousMaximalMatching()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(script, *args, timeout=120):
    """Run ``script`` in a fresh interpreter against this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")] if p
    )
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        env=env,
        cwd=ROOT,
        text=True,
        timeout=timeout,
    )


# module-level so forked workers can rebuild the "protocol" by name
def _raise_trial_oserror():
    raise OSError("trial-scoped I/O failure")


def _raise_trial_runtimeerror():
    raise RuntimeError("trial-scoped runtime failure")


def executions_equal(a, b):
    return (
        a.stabilized == b.stabilized
        and a.rounds == b.rounds
        and a.moves == b.moves
        and a.moves_by_rule == b.moves_by_rule
        and a.initial == b.initial
        and a.final == b.final
        and a.move_log == b.move_log
        and a.history == b.history
    )


class TestExecuteTrial:
    def test_matches_direct_run(self):
        g = cycle_graph(8)
        clean = {i: None for i in g.nodes}
        direct = run_synchronous(SMM, g, clean, record_history=True)
        via_spec = execute_trial(
            TrialSpec("smm", g, clean, record_history=True)
        )
        assert executions_equal(direct, via_spec)

    def test_central_daemon(self):
        g = cycle_graph(6)
        direct = run_central(SMM, g, rng=5)
        via_spec = execute_trial(TrialSpec("smm", g, daemon="central", seed=5))
        assert executions_equal(direct, via_spec)

    def test_seed_controls_randomness(self):
        g = erdos_renyi_graph(12, 0.3, rng=1)
        a = execute_trial(TrialSpec("smm", g, daemon="central", seed=42))
        b = execute_trial(TrialSpec("smm", g, daemon="central", seed=42))
        assert executions_equal(a, b)

    def test_unknown_protocol(self):
        with pytest.raises(ExperimentError, match="protocol"):
            execute_trial(TrialSpec("nope", cycle_graph(4)))

    def test_unknown_daemon(self):
        with pytest.raises(ExperimentError, match="daemon"):
            execute_trial(TrialSpec("smm", cycle_graph(4), daemon="quantum"))

    def test_registry_contents(self):
        assert {"smm", "sis", "hsu-huang"} <= set(PROTOCOLS)

    def test_register_protocol(self):
        register_protocol("smm-alias", SynchronousMaximalMatching)
        try:
            ex = execute_trial(TrialSpec("smm-alias", cycle_graph(4)))
            assert ex.stabilized
        finally:
            del PROTOCOLS["smm-alias"]


class TestTrialRunner:
    def _specs(self, count=6):
        specs = []
        for i in range(count):
            g = random_tree(8, rng=i)
            specs.append(TrialSpec("smm", g, record_history=True))
            specs.append(TrialSpec("sis", g))
        return specs

    def test_inline_path(self):
        specs = self._specs()
        results = TrialRunner(jobs=1).map(specs)
        assert len(results) == len(specs)
        assert all(ex.stabilized for ex in results)

    def test_pool_matches_inline(self):
        specs = self._specs()
        inline = TrialRunner(jobs=1).map(specs)
        pooled = TrialRunner(jobs=2).map(specs)
        assert len(inline) == len(pooled)
        for a, b in zip(inline, pooled):
            assert executions_equal(a, b)

    def test_single_spec_runs_inline(self):
        # a one-element batch should not pay pool start-up cost; the
        # observable contract is just that it works with jobs > 1
        [ex] = TrialRunner(jobs=4).map([TrialSpec("smm", cycle_graph(5))])
        assert ex.stabilized

    def test_empty_batch(self):
        assert TrialRunner(jobs=4).map([]) == []

    def test_run_trials_helper(self):
        specs = self._specs(count=2)
        a = run_trials(specs, jobs=1)
        b = run_trials(specs, jobs=2)
        for x, y in zip(a, b):
            assert executions_equal(x, y)

    def test_default_sweep_batches_like_reference(self):
        """At the default backend a same-graph sweep runs through batch
        dispatch and equals the reference engine on every field but the
        backend label, the wall-clock and the move log (a trace field
        only the reference engine fills) — budget-cut, illegitimate
        rows included."""
        from repro.core.faults import random_configuration
        from repro.engine import make_protocol

        graph = erdos_renyi_graph(24, 0.2, rng=5)
        skip = {"backend", "elapsed", "move_log"}
        for key in ("smm", "sis"):
            protocol = make_protocol(key)
            configs = [None] + [
                random_configuration(protocol, graph, s) for s in range(5)
            ]
            for budget in (None, 1):
                specs = [TrialSpec(key, graph, c, max_rounds=budget) for c in configs]
                default = run_trials(specs)
                reference = run_trials(
                    [dataclasses.replace(s, backend="reference") for s in specs]
                )
                assert [r.backend for r in default] == ["batch"] * len(configs)
                assert all(r.move_log is None for r in default)
                for a, b in zip(default, reference):
                    for field in dataclasses.fields(a):
                        if field.name not in skip:
                            assert getattr(a, field.name) == getattr(b, field.name)
                if budget == 1:
                    assert not any(r.legitimate for r in default)

    def test_worker_failure_propagates(self):
        # a bad spec raises the original error, pool or no pool
        specs = [TrialSpec("smm", cycle_graph(4)), TrialSpec("nope", cycle_graph(4))]
        with pytest.raises(ExperimentError):
            TrialRunner(jobs=1).map(specs)
        with pytest.raises(ExperimentError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                TrialRunner(jobs=2).map(specs)

    @pytest.mark.parametrize(
        "key,factory,exc_type",
        [
            ("boom-os", _raise_trial_oserror, OSError),
            ("boom-rt", _raise_trial_runtimeerror, RuntimeError),
        ],
    )
    def test_trial_exception_not_mistaken_for_pool_death(
        self, key, factory, exc_type
    ):
        # regression: a trial raising OSError/RuntimeError used to be
        # indistinguishable from pool death — the runner warned and
        # silently re-ran every spec inline.  The original error must
        # propagate from the pool path with no degradation warning.
        register_protocol(key, factory)
        try:
            specs = [
                TrialSpec("smm", cycle_graph(4)),
                TrialSpec(key, cycle_graph(4)),
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(exc_type, match="trial-scoped"):
                    TrialRunner(jobs=2).map(specs)
        finally:
            del PROTOCOLS[key]

    def test_telemetry_identical_across_jobs(self):
        specs = [
            dataclasses.replace(spec, telemetry=True)
            for spec in self._specs(count=3)
        ]
        inline = TrialRunner(jobs=1).map(specs)
        pooled = TrialRunner(jobs=2).map(specs)
        for a, b in zip(inline, pooled):
            assert a.telemetry is not None and b.telemetry is not None
            assert a.telemetry.moves == b.telemetry.moves
            assert a.telemetry.moves_by_rule == b.telemetry.moves_by_rule
            assert a.telemetry.per_round_moves == b.telemetry.per_round_moves
            assert a.telemetry.node_type_census == b.telemetry.node_type_census


class TestResolveJobs:
    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_all_cores(self):
        import os

        expected = os.cpu_count() or 1
        assert resolve_jobs(0) == expected
        assert resolve_jobs(None) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestExperimentDeterminism:
    def test_e1_rows_identical_across_jobs(self):
        """The acceptance check: E1 with jobs=4 is bit-identical to
        jobs=1 (same RNG streams, same rows)."""
        from repro.experiments import e1_smm_convergence

        kwargs = dict(families=("cycle", "tree"), sizes=(4, 8), trials=4, seed=101)
        serial = e1_smm_convergence.run(jobs=1, **kwargs)
        fanned = e1_smm_convergence.run(jobs=4, **kwargs)
        assert serial.rows == fanned.rows
        assert serial.notes == fanned.notes

    def test_e2_rows_identical_across_jobs(self):
        from repro.experiments import e2_sis_convergence

        kwargs = dict(families=("cycle",), sizes=(4, 8), trials=4, seed=102)
        serial = e2_sis_convergence.run(jobs=1, **kwargs)
        fanned = e2_sis_convergence.run(jobs=3, **kwargs)
        assert serial.rows == fanned.rows

    def test_e5_rows_identical_across_jobs(self):
        from repro.experiments import e5_baseline

        kwargs = dict(families=("cycle",), sizes=(8,), trials=2, seed=105)
        serial = e5_baseline.run(jobs=1, **kwargs)
        fanned = e5_baseline.run(jobs=4, **kwargs)
        assert serial.rows == fanned.rows


class TestSpecPickling:
    def test_spec_roundtrip(self):
        import pickle

        g = cycle_graph(6)
        spec = TrialSpec(
            "smm",
            g,
            Configuration({i: None for i in g.nodes}),
            daemon="central",
            max_rounds=200,
            seed=9,
            options=(("strategy", "random"),),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert executions_equal(execute_trial(clone), execute_trial(spec))

    def test_graph_cache_not_pickled(self):
        import pickle

        g = cycle_graph(6)
        g.adjacency_arrays()  # populate the CSR cache
        clone = pickle.loads(pickle.dumps(g))
        assert clone._csr is None
        assert clone == g


class TestFingerprintFormat:
    """Pin the versioned fingerprint format (PR 7 satellite).

    The serve result store and resume checkpoints are content-addressed
    by these hashes; an accidental payload change would silently replay
    stale artefacts.  The pinned literals were computed with
    ``SCHEMA_VERSION = 2`` — if a schema bump changes them, update BOTH
    the literals and ``SCHEMA_VERSION``'s history note deliberately.
    """

    def test_pinned_fingerprints(self):
        spec = TrialSpec(
            protocol="smm", graph=cycle_graph(6), seed=7, backend="reference"
        )
        assert spec_fingerprint(spec) == "fee222a31e568303"
        rich = TrialSpec(
            protocol="smm",
            graph=cycle_graph(6),
            daemon="central",
            seed=7,
            options=(("step_limit", 500),),
            backend="reference",
        )
        assert spec_fingerprint(rich) == "8ce0656b43130cc1"
        # the default backend ("auto") is part of the fingerprint
        default = TrialSpec(protocol="smm", graph=cycle_graph(6), seed=7)
        assert spec_fingerprint(default) == "4ff3de5376ed5bc5"

    def test_schema_version_is_folded_in(self, monkeypatch):
        from repro.analysis import serialize

        spec = TrialSpec(protocol="smm", graph=cycle_graph(6), seed=7)
        before = spec_fingerprint(spec)
        monkeypatch.setattr(serialize, "SCHEMA_VERSION", 999)
        assert spec_fingerprint(spec) != before

    def test_shape_and_determinism(self):
        spec = TrialSpec(protocol="smm", graph=cycle_graph(6), seed=7)
        fp = spec_fingerprint(spec)
        assert len(fp) == 16
        assert int(fp, 16) >= 0  # hex
        assert spec_fingerprint(spec) == fp
        other = dataclasses.replace(spec, seed=8)
        assert spec_fingerprint(other) != fp

    def test_observation_flags_do_not_change_fingerprint(self):
        """``trace`` and ``convergence`` observe a run without changing
        its result, so they are excluded from the fingerprint — toggling
        ``--convergence`` must keep serving cached results and resuming
        old checkpoints.  The pinned literals double as the regression:
        they were computed before the flags existed."""
        spec = TrialSpec(
            protocol="smm", graph=cycle_graph(6), seed=7, backend="reference"
        )
        fp = spec_fingerprint(spec)
        assert fp == "fee222a31e568303"
        assert spec_fingerprint(
            dataclasses.replace(spec, convergence=True)
        ) == fp
        assert spec_fingerprint(dataclasses.replace(spec, trace=True)) == fp
        assert spec_fingerprint(
            dataclasses.replace(spec, trace=True, convergence=True)
        ) == fp
        rich = TrialSpec(
            protocol="smm",
            graph=cycle_graph(6),
            daemon="central",
            seed=7,
            options=(("step_limit", 500),),
            backend="reference",
        )
        assert spec_fingerprint(
            dataclasses.replace(rich, convergence=True)
        ) == "8ce0656b43130cc1"


def _reference_fingerprint(spec):
    """The whole-payload fingerprint formula, encoding the graph inside
    the one ``json.dumps`` call: the reference the cached graph share
    (``Graph.canonical_json``) must reproduce byte for byte."""
    import hashlib

    from repro.analysis.serialize import SCHEMA_VERSION
    from repro.parallel.trial_runner import _fingerprint_canon

    payload = {
        "schema": SCHEMA_VERSION,
        "protocol": spec.protocol,
        "nodes": [repr(n) for n in spec.graph.nodes],
        "edges": sorted(sorted(repr(x) for x in e) for e in spec.graph.edges),
        "config": (
            None
            if spec.config is None
            else sorted(
                (repr(k), _fingerprint_canon(v))
                for k, v in dict(spec.config).items()
            )
        ),
        "daemon": spec.daemon,
        "max_rounds": spec.max_rounds,
        "record_history": spec.record_history,
        "seed": None if spec.seed is None else int(spec.seed),
        "options": [
            [name, _fingerprint_canon(value)] for name, value in spec.options
        ],
        "backend": spec.backend,
        "telemetry": spec.telemetry,
    }
    blob = json.dumps(payload, sort_keys=True, default=_fingerprint_canon)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@st.composite
def _share_cases(draw):
    """A graph on ids whose ``repr`` order differs from their numeric
    order (2 and 10, negatives), and the rest of a spec."""
    from repro.graphs.graph import Graph

    ids = draw(st.lists(st.integers(-12, 12), max_size=9, unique=True))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    states = st.one_of(st.none(), st.sampled_from(ids)) if ids else st.none()
    config = draw(st.one_of(
        st.none(), st.fixed_dictionaries({n: states for n in ids})
    ))
    spec = {
        "protocol": draw(st.sampled_from(["smm", "sis"])),
        "config": config,
        "daemon": draw(st.sampled_from(["synchronous", "central"])),
        "max_rounds": draw(st.one_of(st.none(), st.integers(0, 50))),
        "seed": draw(st.one_of(st.none(), st.integers(-5, 2**40))),
        "options": draw(st.sampled_from([(), (("step_limit", 500),)])),
        "backend": draw(st.sampled_from(["auto", "reference"])),
        "telemetry": draw(st.booleans()),
    }
    return Graph(ids, edges), spec, draw(st.randoms(use_true_random=False))


class TestFingerprintGraphShare:
    """``spec_fingerprint`` splices the graph's cached JSON share into
    the payload; every graph a spec can carry must hash exactly as the
    whole-payload formula does, with a cold cache and a warm one."""

    @staticmethod
    def _check(graph, fields):
        from repro.parallel import TrialSpec

        if fields["config"] is not None:
            fields = dict(
                fields,
                config={n: fields["config"].get(n) for n in graph.nodes},
            )
        spec = TrialSpec(graph=graph, **fields)
        want = _reference_fingerprint(spec)
        assert spec_fingerprint(spec) == want  # cold: builds the share
        assert spec_fingerprint(spec) == want  # warm: reads the cache

    @settings(max_examples=150, deadline=None)
    @given(_share_cases())
    def test_every_graph_source_matches_the_reference(self, case):
        import pickle

        from repro.analysis.serialize import graph_from_dict, graph_to_dict

        graph, fields, rand = case
        self._check(graph, fields)  # fills graph's cache
        graph.adjacency_arrays()  # and its CSR, which with_updates patches
        nodes = list(graph.nodes)
        present = sorted(graph.edges)
        absent = [
            (u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
            if not graph.has_edge(u, v)
        ]
        derived = [
            graph_from_dict(graph_to_dict(graph)),
            pickle.loads(pickle.dumps(graph)),
            graph.subgraph(rand.sample(nodes, rand.randint(0, len(nodes)))),
            graph.relabeled(dict(zip(nodes, rand.sample(range(-20, 21), len(nodes))))),
        ]
        if present or absent:  # edge-only change
            derived.append(graph.with_updates(
                remove_edges=rand.sample(present, min(1, len(present))),
                add_edges=rand.sample(absent, min(1, len(absent))),
            ))
        fresh = next(x for x in (13, -13, 2, 10) if x not in graph)
        gone = rand.sample(nodes, min(1, len(nodes)))
        kept = [v for v in nodes if v not in gone]
        derived.append(graph.with_updates(  # node-set change
            add_nodes=[fresh],
            remove_nodes=gone,
            add_edges=[(fresh, v) for v in rand.sample(kept, min(1, len(kept)))],
        ))
        for other in derived:
            self._check(other, fields)

    def test_repr_order_and_negative_ids(self):
        from repro.graphs.graph import Graph

        graph = Graph([10, 2, -1, -10, 0], [(2, 10), (-10, 2), (-1, 10), (0, -10)])
        fields = {"protocol": "smm", "config": None, "seed": 3}
        self._check(graph, fields)
        self._check(graph.with_updates(add_edges=[(0, 10)]), fields)
        self._check(graph.with_updates(remove_nodes=[2], add_nodes=[-2]), fields)

    def test_cache_is_derived_data(self):
        import pickle

        graph = cycle_graph(6)
        share = graph.canonical_json()
        assert graph.canonical_json() is share
        assert "_canon" not in graph.__getstate__()
        assert pickle.loads(pickle.dumps(graph))._canon is None
        assert graph.with_updates(remove_edges=[(0, 1)])._canon is None


class TestOwnerHooks:
    """The long-lived-owner surface: on_result callbacks and
    cooperative cancellation (what `repro serve` drives)."""

    def _specs(self, count=4):
        graph = cycle_graph(8)
        return [
            TrialSpec("smm", graph, seed=100 + i) for i in range(count)
        ]

    def test_on_result_sees_every_trial_inline(self):
        seen = []
        runner = TrialRunner(
            jobs=1,
            batch_sweep=False,
            on_result=lambda i, outcome, resumed: seen.append(
                (i, outcome, resumed)
            ),
        )
        results = runner.map(self._specs())
        assert [s[0] for s in seen] == [0, 1, 2, 3]
        assert all(outcome.stabilized for _, outcome, _ in seen)
        assert all(resumed is False for _, _, resumed in seen)
        assert len(results) == 4

    def test_on_result_sees_every_trial_pooled(self):
        seen = []
        runner = TrialRunner(
            jobs=2,
            batch_sweep=False,
            on_result=lambda i, outcome, resumed: seen.append(i),
        )
        results = runner.map(self._specs())
        assert sorted(seen) == [0, 1, 2, 3]
        assert len(results) == 4

    def test_on_result_with_batch_dispatch(self):
        seen = []
        runner = TrialRunner(
            jobs=1,
            batch_sweep=True,
            on_result=lambda i, outcome, resumed: seen.append(i),
        )
        runner.map(self._specs())
        assert sorted(seen) == [0, 1, 2, 3]

    def test_on_result_resilient_and_resumed(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        first = []
        TrialRunner(
            jobs=1,
            checkpoint=str(ck),
            on_result=lambda i, outcome, resumed: first.append(resumed),
        ).map(self._specs())
        assert first == [False] * 4
        second = []
        results = TrialRunner(
            jobs=1,
            checkpoint=str(ck),
            on_result=lambda i, outcome, resumed: second.append(resumed),
        ).map(self._specs())
        assert second == [True] * 4  # everything came from the checkpoint
        assert len(results) == 4

    def test_results_identical_with_and_without_hooks(self):
        plain = run_trials(self._specs())
        hooked = TrialRunner(
            jobs=1, on_result=lambda *a: None
        ).map(self._specs())
        for a, b in zip(plain, hooked):
            assert a.final == b.final and a.moves == b.moves

    def test_preset_cancel_raises_before_work(self):
        import threading

        from repro.parallel import SweepCancelled

        cancel = threading.Event()
        cancel.set()
        runner = TrialRunner(jobs=1, cancel=cancel)
        with pytest.raises(SweepCancelled):
            runner.map(self._specs())

    def test_cancel_mid_sweep_inline(self):
        import threading

        from repro.parallel import SweepCancelled

        cancel = threading.Event()
        seen = []

        def hook(i, outcome, resumed):
            seen.append(i)
            if len(seen) == 2:
                cancel.set()

        runner = TrialRunner(
            jobs=1, batch_sweep=False, cancel=cancel, on_result=hook
        )
        with pytest.raises(SweepCancelled):
            runner.map(self._specs())
        assert len(seen) == 2  # stopped at the next scheduling point

    def test_cancel_mid_sweep_resilient_checkpoints(self, tmp_path):
        import threading

        from repro.parallel import SweepCancelled

        ck = tmp_path / "sweep.jsonl"
        cancel = threading.Event()
        seen = []

        def hook(i, outcome, resumed):
            seen.append(i)
            if len(seen) == 2:
                cancel.set()

        runner = TrialRunner(
            jobs=1, checkpoint=str(ck), cancel=cancel, on_result=hook
        )
        with pytest.raises(SweepCancelled):
            runner.map(self._specs())
        # the completed trials were flushed before the unwind: a fresh
        # runner resumes them instead of recomputing
        resumed = []
        results = TrialRunner(
            jobs=1,
            checkpoint=str(ck),
            on_result=lambda i, outcome, r: resumed.append(r),
        ).map(self._specs())
        assert len(results) == 4
        assert resumed.count(True) >= 2

    def test_expired_deadline_raises_before_work(self):
        import time as _time

        from repro.parallel import SweepCancelled

        runner = TrialRunner(jobs=1, deadline=_time.time() - 1.0)
        with pytest.raises(SweepCancelled) as excinfo:
            runner.map(self._specs())
        assert excinfo.value.reason == "deadline"

    def test_deadline_mid_sweep_inline(self):
        import time as _time

        from repro.parallel import SweepCancelled

        state = {"deadline": _time.time() + 3600.0}
        seen = []

        def hook(i, outcome, resumed):
            seen.append(i)
            if len(seen) == 2:
                state["runner"].deadline = _time.time() - 1.0

        runner = TrialRunner(
            jobs=1, batch_sweep=False, on_result=hook,
            deadline=state["deadline"],
        )
        state["runner"] = runner
        with pytest.raises(SweepCancelled) as excinfo:
            runner.map(self._specs())
        assert excinfo.value.reason == "deadline"
        assert len(seen) == 2  # stopped at the next scheduling point

    def test_cancel_reason_defaults_to_cancel(self):
        import threading

        from repro.parallel import SweepCancelled

        cancel = threading.Event()
        cancel.set()
        runner = TrialRunner(jobs=1, cancel=cancel)
        with pytest.raises(SweepCancelled) as excinfo:
            runner.map(self._specs())
        assert excinfo.value.reason == "cancel"


class TestOneScheduler:
    """The scheduler's contracts: one worker per ``jobs`` slot for the
    whole sweep, specs inherited rather than pickled, batch dispatch
    under every policy, and one failure rule."""

    _FORKS = """
import json, os, sys, time
from repro.graphs.generators import cycle_graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import FailedTrial, TrialRunner, TrialSpec
from repro.parallel.trial_runner import register_protocol

forks = [0]
os.register_at_fork(after_in_parent=lambda: forks.__setitem__(0, forks[0] + 1))

class Hanging(SynchronousMaximalMatching):
    def enabled_rule(self, view):
        time.sleep(60)

register_protocol("hanging", Hanging)
specs = [
    TrialSpec("smm", cycle_graph(8), seed=s, backend="reference")
    for s in range(6)
]
hung = list(specs)
hung[2] = TrialSpec("hanging", cycle_graph(8))
sweeps = {
    "checkpoint": (dict(jobs=1, checkpoint=sys.argv[1]), specs),
    "retries": (dict(jobs=1, retries=1), specs),
    "jobs2_timeout": (dict(jobs=2, timeout=30.0), specs),
    "jobs2": (dict(jobs=2), specs),
    "timed_out": (dict(jobs=1, timeout=2.0), hung),
}
counts = {}
for name, (options, sweep) in sweeps.items():
    before = forks[0]
    results = TrialRunner(**options).map(sweep)
    counts[name] = forks[0] - before
    failed = [r.error_type for r in results if isinstance(r, FailedTrial)]
    assert failed == (["Timeout"] if name == "timed_out" else []), failed
print(json.dumps(counts))
"""

    def test_forks_per_sweep(self, tmp_path):
        proc = _run_script(self._FORKS, str(tmp_path / "sweep.jsonl"))
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout.splitlines()[-1])
        assert counts == {
            "checkpoint": 1,
            "retries": 1,
            "jobs2_timeout": 2,
            "jobs2": 2,
            # the timed-out attempt costs exactly one replacement fork
            "timed_out": 2,
        }

    @pytest.mark.parametrize(
        "options",
        [
            {"jobs": 2},
            {"jobs": 1, "checkpoint": True},
            {"jobs": 2, "timeout": 60.0, "retries": 1},
        ],
        ids=["plain", "checkpoint", "timeout-retries"],
    )
    def test_no_graph_is_pickled(self, options, tmp_path, monkeypatch):
        from repro.core.faults import random_configuration
        from repro.engine import make_protocol
        from repro.graphs.graph import Graph
        from repro.rng import ensure_rng

        protocol = make_protocol("smm")
        specs = []
        for n in (40, 340):  # both sides of the former handoff split
            graph = erdos_renyi_graph(n, 6.0 / n, rng=n)
            specs += [
                TrialSpec(
                    "smm",
                    graph,
                    random_configuration(protocol, graph, ensure_rng(s)),
                    backend="vectorized",
                )
                for s in range(3)
            ]
        reference = run_trials(specs)
        options = dict(options)
        if options.pop("checkpoint", False):
            options["checkpoint"] = str(tmp_path / "sweep.jsonl")

        def refuse(self, *args):
            raise AssertionError("a Graph was pickled")

        monkeypatch.setattr(Graph, "__getstate__", refuse)
        monkeypatch.setattr(Graph, "__reduce_ex__", refuse)
        results = run_trials(specs, **options)
        for a, b in zip(reference, results):
            assert executions_equal(a, b)

    def test_checkpointed_sweep_batches_and_resumes(self, tmp_path):
        from repro.core.faults import random_configuration
        from repro.engine import make_protocol
        from repro.rng import ensure_rng

        graph = erdos_renyi_graph(24, 0.2, rng=5)
        protocol = make_protocol("smm")
        specs = [
            TrialSpec(
                "smm",
                graph,
                random_configuration(protocol, graph, ensure_rng(s)),
                backend="auto",
            )
            for s in range(4)
        ]
        ck = tmp_path / "sweep.jsonl"
        first = TrialRunner(jobs=1, checkpoint=str(ck)).map(specs)
        assert [r.backend for r in first] == ["batch"] * 4
        lines = ck.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        flags = []
        again = TrialRunner(
            jobs=1,
            checkpoint=str(ck),
            on_result=lambda i, outcome, resumed: flags.append(resumed),
        ).map(specs)
        assert flags == [True] * 4
        assert ck.read_text(encoding="utf-8").splitlines() == lines
        per_trial = run_trials(specs, batch_sweep=False)
        for ref, a, b in zip(per_trial, first, again):
            for res in (a, b):
                assert (res.stabilized, res.rounds, res.moves) == (
                    ref.stabilized, ref.rounds, ref.moves
                )
                assert res.moves_by_rule == ref.moves_by_rule
                assert res.initial == ref.initial
                assert res.final == ref.final
                assert res.legitimate == ref.legitimate

    def test_bad_configuration_in_batch_group_fails_alone(self):
        from repro.errors import InvalidConfigurationError
        from repro.parallel import FailedTrial

        graph = cycle_graph(6)
        good = TrialSpec("smm", graph, backend="auto")
        bad_config = {node: None for node in graph.nodes}
        bad_config[0] = 3  # not a neighbour of 0
        bad = TrialSpec("smm", graph, bad_config, backend="auto")
        result, failed = run_trials([good, bad], retries=1)
        assert result.stabilized
        assert isinstance(failed, FailedTrial)
        assert failed.error_type == "InvalidConfigurationError"
        assert failed.attempts == 1  # a trial's own error is never retried
        with pytest.raises(InvalidConfigurationError):
            run_trials([good, bad])

    _DEATH = """
import os
from repro.graphs.generators import cycle_graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import TrialRunner, TrialSpec
from repro.parallel.trial_runner import register_protocol

class Crashing(SynchronousMaximalMatching):
    def enabled_rule(self, view):
        os._exit(13)

register_protocol("crashing", Crashing)
specs = [TrialSpec("smm", cycle_graph(8)), TrialSpec("crashing", cycle_graph(8))]
try:
    TrialRunner(jobs=2).map(specs)
except RuntimeError as exc:
    print("RAISED", exc, flush=True)
"""

    def test_worker_death_raises_in_plain_sweep(self):
        proc = _run_script(self._DEATH)
        assert proc.returncode == 0, (proc.stdout, proc.stderr)
        assert "RAISED" in proc.stdout and "WorkerDeath" in proc.stdout


class TestSigtermDuringFork:
    """SIGTERM delivered while a resilient sweep forks its worker.

    The signal handler can run inside an at-fork hook (logging's lock
    acquisition is one), where CPython prints "Exception ignored" and
    drops any exception the handler raises.  The runner must still stop
    with the conventional 128 + SIGTERM status instead of finishing the
    sweep and exiting 0.  The signal fires on the fork of a second
    ``map()``, one that resumes from a 3-trial checkpoint.
    """

    _SCRIPT = """
import os, signal, sys
from repro.graphs.generators import cycle_graph
from repro.parallel import TrialRunner, TrialSpec

specs = [
    TrialSpec("smm", cycle_graph(8), seed=s, backend="reference")
    for s in range(6)
]
TrialRunner(jobs=1, checkpoint=sys.argv[1]).map(specs[:3])
os.register_at_fork(before=lambda: os.kill(os.getpid(), signal.SIGTERM))
TrialRunner(jobs=1, checkpoint=sys.argv[1]).map(specs)
print("FINISHED", flush=True)
"""

    def test_sigterm_in_at_fork_hook_exits_143(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        proc = _run_script(self._SCRIPT, str(checkpoint))
        assert proc.returncode == 143, (proc.stdout, proc.stderr)
        assert "FINISHED" not in proc.stdout
        assert "Exception ignored" not in proc.stderr
        # the trials that completed before the stop are checkpointed
        lines = checkpoint.read_text(encoding="utf-8").splitlines()
        assert 2 <= len(lines) < 6
