"""Equivalence tests for the active-set ("dirty node") round stepping.

The optimization in :func:`repro.core.executor.run_synchronous` and in
the vectorized kernels' round driver (:func:`repro.kernels.drive`)
re-evaluates only nodes whose closed neighbourhood changed since the
previous round.  These tests pin the optimized paths to the reference
executor's full scan: for every graph, start configuration, and budget,
the two must produce *identical* records — same histories, same move
logs, same per-rule counts — not merely the same fixpoint.
"""

import pytest
from hypothesis import given, settings

from repro.core.executor import run_synchronous
from repro.core.faults import random_configuration
from repro.errors import StabilizationTimeout
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)
from repro.matching.smm import SynchronousMaximalMatching
from repro.matching.smm_vectorized import VectorizedSMM
from repro.matching.variants import RandomizedSMM
from repro.mis.sis import SynchronousMaximalIndependentSet
from repro.mis.sis_vectorized import VectorizedSIS

from conftest import graphs_with_bits, graphs_with_pointers

SMM = SynchronousMaximalMatching()
SIS = SynchronousMaximalIndependentSet()


def assert_executions_equal(a, b):
    """Byte-identical round semantics: every observable field matches."""
    assert a.stabilized == b.stabilized
    assert a.rounds == b.rounds
    assert a.moves == b.moves
    assert a.moves_by_rule == b.moves_by_rule
    assert a.initial == b.initial
    assert a.final == b.final
    assert a.move_log == b.move_log
    assert a.history == b.history
    assert a.legitimate == b.legitimate


class TestExecutorActiveSet:
    @settings(max_examples=40, deadline=None)
    @given(graphs_with_pointers(min_n=2, max_n=10))
    def test_smm_matches_full_scan(self, graph_and_config):
        g, cfg = graph_and_config
        full = run_synchronous(SMM, g, cfg, record_history=True, active_set=False)
        fast = run_synchronous(SMM, g, cfg, record_history=True, active_set=True)
        assert_executions_equal(full, fast)

    @settings(max_examples=40, deadline=None)
    @given(graphs_with_bits(min_n=2, max_n=10))
    def test_sis_matches_full_scan(self, graph_and_config):
        g, cfg = graph_and_config
        full = run_synchronous(SIS, g, cfg, record_history=True, active_set=False)
        fast = run_synchronous(SIS, g, cfg, record_history=True, active_set=True)
        assert_executions_equal(full, fast)

    def test_larger_random_graphs(self, rng):
        for seed in range(4):
            g = erdos_renyi_graph(48, 0.08, rng=seed)
            for protocol in (SMM, SIS):
                cfg = random_configuration(protocol, g, rng)
                full = run_synchronous(
                    protocol, g, cfg, record_history=True, active_set=False
                )
                fast = run_synchronous(
                    protocol, g, cfg, record_history=True, active_set=True
                )
                assert_executions_equal(full, fast)

    @pytest.mark.parametrize("budget", [0, 1, 2, 3])
    def test_timeout_paths_match(self, budget, rng):
        g = cycle_graph(8)
        cfg = random_configuration(SMM, g, rng)
        kwargs = dict(max_rounds=budget, record_history=True, raise_on_timeout=False)
        full = run_synchronous(SMM, g, cfg, active_set=False, **kwargs)
        fast = run_synchronous(SMM, g, cfg, active_set=True, **kwargs)
        assert_executions_equal(full, fast)

    def test_timeout_raises_identically(self):
        g = path_graph(16)
        clean = {i: None for i in g.nodes}
        with pytest.raises(StabilizationTimeout):
            run_synchronous(
                SMM, g, clean, max_rounds=1, raise_on_timeout=True, active_set=True
            )

    def test_randomized_protocol_unaffected(self):
        # randomized protocols redraw variates every round, so active-set
        # tracking is disabled for them; same seed => same run regardless
        g = cycle_graph(9)
        proto = RandomizedSMM()
        clean = {i: None for i in g.nodes}
        full = run_synchronous(
            proto, g, clean, rng=7, record_history=True, active_set=False
        )
        fast = run_synchronous(
            proto, g, clean, rng=7, record_history=True, active_set=True
        )
        assert_executions_equal(full, fast)

    def test_already_stable_start(self):
        g = star_graph(6)
        # center matched with leaf 1, other leaves dead-ended at None
        cfg = {0: 1, 1: 0, **{i: None for i in range(2, 6)}}
        fast = run_synchronous(SMM, g, cfg, active_set=True)
        assert fast.stabilized and fast.rounds == 0 and fast.moves == 0


class TestVectorizedActiveSet:
    """The kernels' frontier stepping (:func:`repro.kernels.drive`)
    against the reference executor's full scan — the oracle."""

    @staticmethod
    def assert_smm_matches(vec, full, fast):
        assert full.rounds == fast.rounds
        assert full.moves == fast.moves
        assert full.moves_by_rule == fast.moves_by_rule
        assert full.stabilized == fast.stabilized
        assert full.final == vec.decode(fast.final_ptr)

    @settings(max_examples=30, deadline=None)
    @given(graphs_with_pointers(min_n=2, max_n=10))
    def test_smm_kernel(self, graph_and_config):
        g, cfg = graph_and_config
        vec = VectorizedSMM(g)
        full = run_synchronous(SMM, g, cfg, active_set=False)
        self.assert_smm_matches(vec, full, vec.run(cfg))

    @settings(max_examples=30, deadline=None)
    @given(graphs_with_bits(min_n=2, max_n=10))
    def test_sis_kernel(self, graph_and_config):
        g, cfg = graph_and_config
        vec = VectorizedSIS(g)
        full = run_synchronous(SIS, g, cfg, active_set=False)
        fast = vec.run(cfg)
        assert full.rounds == fast.rounds
        assert full.moves == fast.moves
        assert full.stabilized == fast.stabilized
        assert full.final == vec.decode(fast.final_x)

    def test_smm_kernel_budget(self, rng):
        g = cycle_graph(12)
        cfg = random_configuration(SMM, g, rng)
        vec = VectorizedSMM(g)
        for budget in (0, 1, 2):
            full = run_synchronous(SMM, g, cfg, max_rounds=budget, active_set=False)
            self.assert_smm_matches(vec, full, vec.run(cfg, max_rounds=budget))

    def test_smm_kernel_large(self, rng):
        for seed in range(3):
            g = erdos_renyi_graph(64, 0.06, rng=seed)
            cfg = random_configuration(SMM, g, rng)
            vec = VectorizedSMM(g)
            full = run_synchronous(SMM, g, cfg, active_set=False)
            self.assert_smm_matches(vec, full, vec.run(cfg))

    def test_sis_kernel_cascade(self):
        # the Θ(n) worst case — long sparse frontier, where the active
        # path actually skips work — must still match round for round
        g = path_graph(96)
        vec = VectorizedSIS(g)
        cfg = {i: 0 for i in g.nodes}
        full = run_synchronous(SIS, g, cfg, active_set=False)
        fast = vec.run(cfg)
        assert full.rounds == fast.rounds
        assert full.moves_by_rule == fast.moves_by_rule
        assert full.final == vec.decode(fast.final_x)


class TestE3StyleHistories:
    def test_identical_histories_on_e3_sweep(self, rng):
        """The E3 acceptance check: identical Execution histories over
        the transition-diagram sweep shapes."""
        from repro.graphs.generators import random_tree

        sweeps = [cycle_graph(8), random_tree(8, rng=3), cycle_graph(16)]
        for g in sweeps:
            for _ in range(5):
                cfg = random_configuration(SMM, g, rng)
                full = run_synchronous(
                    SMM, g, cfg, record_history=True, active_set=False
                )
                fast = run_synchronous(
                    SMM, g, cfg, record_history=True, active_set=True
                )
                assert_executions_equal(full, fast)
