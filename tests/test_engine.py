"""The engine layer: registries, backend selection, the unified result.

Pins the contracts of :mod:`repro.engine`:

* the protocol registry knows the paper protocols and their variants,
  and registering a protocol auto-registers the reference backend;
* ``backend="auto"`` picks the vectorized kernel for plain SMM/SIS runs
  and the reference engine whenever monitors, history recording or
  injected choosers are in play;
* an explicit backend that cannot honour a run raises instead of
  silently degrading, while :func:`repro.engine.fallback_backend`
  degrades explicitly for heterogeneous batches;
* :class:`RunResult` is one type for every backend, with ``Execution``
  as its compatibility alias.
"""

from __future__ import annotations

import pytest

from repro.core.executor import Execution, run_synchronous
from repro.engine import (
    BACKENDS,
    DAEMONS,
    PROTOCOLS,
    RunResult,
    backend_names,
    backends_for,
    fallback_backend,
    make_protocol,
    protocol_key,
    run,
    select_backend,
)
from repro.errors import ExperimentError
from repro.graphs.generators import cycle_graph, erdos_renyi_graph
from repro.matching.smm import SynchronousMaximalMatching, max_id_chooser
from repro.matching.variants import ArbitraryChoiceSMM
from repro.parallel import TrialSpec, execute_trial


class TestProtocolRegistry:
    def test_paper_protocols_and_variants_registered(self):
        expected = {
            "smm",
            "sis",
            "hsu-huang",
            "luby",
            "mis-central",
            "smm-randomized",
            "smm-arbitrary-clockwise",
            "smm-max-accept",
        }
        assert expected <= set(PROTOCOLS)

    def test_factories_build_fresh_instances(self):
        a, b = make_protocol("smm"), make_protocol("smm")
        assert type(a) is type(b) and a is not b

    def test_unknown_protocol_raises(self):
        with pytest.raises(ExperimentError, match="unknown protocol"):
            make_protocol("no-such-protocol")

    def test_every_protocol_has_reference_backend_under_every_daemon(self):
        for name in PROTOCOLS:
            for daemon in DAEMONS:
                assert (name, daemon, "reference") in BACKENDS

    def test_protocol_key_resolves_instances(self):
        assert protocol_key(SynchronousMaximalMatching()) == "smm"
        assert (
            protocol_key(make_protocol("smm-arbitrary-clockwise"))
            == "smm-arbitrary-clockwise"
        )

    def test_variant_factories_run_via_engine(self):
        graph = cycle_graph(6)
        for key in ("smm-max-accept", "mis-central"):
            daemon = "central" if key == "mis-central" else "synchronous"
            result = run(key, graph, daemon=daemon, rng=1)
            assert result.stabilized and result.legitimate


class TestBackendRegistry:
    def test_kernels_registered_with_priority_order(self):
        assert backend_names("smm", "synchronous") == ["vectorized", "reference"]
        assert backend_names("sis", "synchronous") == ["vectorized", "reference"]
        assert backend_names("luby", "synchronous") == ["vectorized", "reference"]

    def test_reference_capabilities_cover_everything(self):
        ref = backends_for("smm", "synchronous")[-1]
        assert ref.name == "reference"
        assert {"move_log", "history", "monitors"} <= ref.capabilities


class TestAutoSelection:
    def test_auto_picks_vectorized_for_plain_smm_and_sis(self):
        graph = cycle_graph(8)
        for key in ("smm", "sis"):
            chosen = select_backend(make_protocol(key), graph)
            assert chosen.name == "vectorized"
            assert run(key, graph, backend="auto").backend == "vectorized"

    def test_auto_degrades_for_record_history(self):
        graph = cycle_graph(8)
        result = run("smm", graph, backend="auto", record_history=True)
        assert result.backend == "reference"
        assert result.history is not None

    def test_auto_degrades_for_monitors(self):
        from repro.core.invariants import HistoryMonitor

        graph = cycle_graph(8)
        probe = HistoryMonitor()
        result = run("smm", graph, backend="auto", monitors=(probe,))
        assert result.backend == "reference"
        assert len(probe.configurations) == result.rounds + 1

    def test_auto_degrades_for_injected_choosers(self):
        graph = cycle_graph(8)
        tweaked = SynchronousMaximalMatching(accept_chooser=max_id_chooser)
        assert select_backend(tweaked, graph).name == "reference"
        adversary = ArbitraryChoiceSMM(max_id_chooser)
        assert select_backend(adversary, graph).name == "reference"

    def test_empty_options_do_not_disqualify_kernels(self):
        graph = cycle_graph(8)
        chosen = select_backend(
            make_protocol("smm"), graph, monitors=(), record_history=False
        )
        assert chosen.name == "vectorized"


class TestExplicitBackend:
    def test_unknown_backend_raises(self):
        with pytest.raises(ExperimentError, match="unknown backend"):
            run("smm", cycle_graph(4), backend="no-such-kernel")

    def test_unsupported_explicit_backend_raises(self):
        with pytest.raises(ExperimentError, match="does not support"):
            run("smm", cycle_graph(4), backend="vectorized", record_history=True)

    def test_unknown_daemon_raises(self):
        with pytest.raises(ExperimentError, match="unknown daemon"):
            run("smm", cycle_graph(4), daemon="chaotic")

    def test_result_backend_names_producer(self):
        graph = cycle_graph(6)
        assert run("smm", graph, backend="reference").backend == "reference"
        assert run("smm", graph, backend="vectorized").backend == "vectorized"


class TestFallbackBackend:
    def test_passthrough_and_degrade(self):
        assert fallback_backend("smm", backend="auto") == "auto"
        assert fallback_backend("smm", backend="reference") == "reference"
        assert fallback_backend("smm", backend="vectorized") == "vectorized"
        # capability gap: kernels record no history
        assert (
            fallback_backend("smm", backend="vectorized", record_history=True)
            == "reference"
        )
        # registration gap: no kernel for this (protocol, daemon)
        assert (
            fallback_backend("hsu-huang", "central", backend="vectorized")
            == "reference"
        )

    def test_monitors_degrade(self):
        from repro.core.invariants import HistoryMonitor

        # regression: only record_history used to be checked here, so a
        # batch planned with monitors kept the kernel name and raised at
        # run time; monitors must degrade like any capability gap
        assert (
            fallback_backend(
                "smm", backend="vectorized", monitors=(HistoryMonitor(),)
            )
            == "reference"
        )
        assert (
            fallback_backend("smm", backend="vectorized", monitors=())
            == "vectorized"
        )

    def test_telemetry_stays_on_kernel(self):
        # every built-in backend advertises the telemetry capability,
        # so requesting it alone never pushes a run off the fast path
        assert (
            fallback_backend("smm", backend="vectorized", telemetry=True)
            == "vectorized"
        )
        assert (
            fallback_backend("sis", backend="vectorized", telemetry=True)
            == "vectorized"
        )
        assert (
            fallback_backend(
                "smm", backend="vectorized", telemetry=True, record_history=True
            )
            == "reference"
        )

    def test_unknown_truthy_option_degrades(self):
        # options with no capability mapping require a capability of
        # their own name, which no kernel advertises
        assert (
            fallback_backend("smm", backend="vectorized", accept_chooser=max)
            == "reference"
        )
        # falsy options never disqualify
        assert (
            fallback_backend("smm", backend="vectorized", accept_chooser=None)
            == "vectorized"
        )


class TestRunResult:
    def test_execution_is_runresult_alias(self):
        assert issubclass(Execution, RunResult)
        execution = run_synchronous(make_protocol("smm"), cycle_graph(6))
        assert isinstance(execution, RunResult)
        assert execution.backend == "reference"
        assert execution.move_log is not None

    def test_legitimate_uniform_across_backends(self):
        graph = erdos_renyi_graph(10, 0.4, rng=3)
        verdicts = {
            b: run("sis", graph, backend=b).legitimate
            for b in backend_names("sis", "synchronous")
        }
        assert set(verdicts.values()) == {True}

    def test_moved_nodes_requires_move_log(self):
        graph = cycle_graph(6)
        reference = run("smm", graph, backend="reference")
        assert reference.moved_nodes()  # clean start on C_6 moves nodes
        kernel = run("smm", graph, backend="vectorized")
        assert kernel.move_log is None
        with pytest.raises(ExperimentError, match="backend"):
            kernel.moved_nodes()


class TestTrialSpecBackend:
    def test_spec_backend_flows_through_engine(self):
        graph = cycle_graph(8)
        by_backend = {
            b: execute_trial(TrialSpec("smm", graph, backend=b))
            for b in ("reference", "vectorized", "auto")
        }
        assert by_backend["vectorized"].backend == "vectorized"
        assert by_backend["auto"].backend == "vectorized"
        reference = by_backend["reference"]
        for result in by_backend.values():
            assert result.final == reference.final
            assert result.rounds == reference.rounds
            assert result.moves_by_rule == reference.moves_by_rule
