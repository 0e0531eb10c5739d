"""Targeted tests for surfaces the main suites exercise only
indirectly."""

import numpy as np
import pytest

from repro.core.protocol import View
from repro.graphs.generators import cycle_graph, path_graph
from repro.graphs.mutations import ChurnEvent
from repro.matching.smm import (
    MatchingProtocolBase,
    max_id_chooser,
    min_id_chooser,
    random_chooser,
)


class TestRandomChooser:
    def test_maps_variate_to_candidate(self):
        v = View(node=0, state=None, neighbor_states={}, rand=0.0)
        assert random_chooser(v, (3, 5, 9)) == 3
        v = View(node=0, state=None, neighbor_states={}, rand=0.99)
        assert random_chooser(v, (3, 5, 9)) == 9

    def test_midpoint(self):
        v = View(node=0, state=None, neighbor_states={}, rand=0.5)
        assert random_chooser(v, (3, 5, 9)) == 5

    def test_rand_one_clamped(self):
        v = View(node=0, state=None, neighbor_states={}, rand=1.0)
        assert random_chooser(v, (3, 5)) == 5


class TestMatchingProtocolBase:
    def test_direct_instantiation_with_custom_choosers(self):
        from repro.core.executor import run_synchronous
        from repro.matching.verify import verify_execution

        proto = MatchingProtocolBase(
            accept_chooser=max_id_chooser, propose_chooser=min_id_chooser
        )
        g = cycle_graph(8)
        ex = run_synchronous(proto, g)
        verify_execution(g, ex)

    def test_chooser_returning_non_candidate_rejected(self):
        from repro.errors import ProtocolError

        proto = MatchingProtocolBase(propose_chooser=lambda v, c: 999)
        g = path_graph(3)
        from repro.core.executor import run_synchronous

        with pytest.raises(ProtocolError):
            run_synchronous(proto, g)


class TestChurnEvent:
    def test_fields_default_empty(self):
        e = ChurnEvent("add", added=((0, 1),))
        assert e.kind == "add"
        assert e.added == ((0, 1),)
        assert e.removed == ()

    def test_frozen(self):
        e = ChurnEvent("remove", removed=((0, 1),))
        with pytest.raises(AttributeError):
            e.kind = "add"


class TestSerializeDictLevel:
    def test_execution_to_dict_keys(self):
        from repro.analysis.serialize import execution_to_dict
        from repro.core.executor import run_synchronous
        from repro.mis.sis import SynchronousMaximalIndependentSet

        ex = run_synchronous(SynchronousMaximalIndependentSet(), path_graph(4))
        d = execution_to_dict(ex)
        assert set(d) >= {
            "protocol",
            "daemon",
            "stabilized",
            "rounds",
            "moves",
            "initial",
            "final",
            "move_log",
        }

    def test_result_to_dict(self):
        from repro.analysis.serialize import result_to_dict
        from repro.experiments.common import ExperimentResult

        r = ExperimentResult("EX", "a", columns=["x"])
        r.add(x=1)
        d = result_to_dict(r)
        assert d["rows"] == [{"x": 1}]


class TestContentionExperimentQuick:
    def test_run_contention_small(self):
        from repro.experiments.e11_ablations import (
            _contention_note,
            run_contention,
        )

        r = run_contention(
            n=10, windows=(0.0, 0.02), jitters=(0.2,), trials=2, seed=5
        )
        assert len(r.rows) == 4  # 2 protocols x 2 windows
        assert all(row["all_stabilized"] for row in r.rows)
        assert r.notes == [_contention_note(r.rows)]

    @staticmethod
    def _rows(smm_at_wide_window):
        rows = []
        for window, rounds in ((0.0, 4.0), (0.1, 30.0)):
            for jitter, speedup in ((0.05, 1.0), (0.2, 3.0)):
                rows.append(dict(
                    protocol="SIS", window=window, jitter=jitter,
                    beacon_rounds_mean=rounds / speedup,
                    all_stabilized=True,
                ))
                rows.append(dict(
                    protocol="SMM", window=window, jitter=jitter,
                    beacon_rounds_mean=rounds,
                    all_stabilized=window == 0.0
                    or smm_at_wide_window(jitter),
                ))
        return rows

    def test_note_states_a_jitter_dependent_stall(self):
        from repro.experiments.e11_ablations import _contention_note

        note = _contention_note(self._rows(lambda jitter: jitter >= 0.2))
        assert (
            "SMM at window 0.1 stabilizes with jitter 0.2 but stalls with "
            "jitter 0.05" in note
        )
        assert "never decides" not in note
        assert "SMM stabilizes at every jitter at window(s) 0." in note

    def test_note_without_a_jitter_dependent_stall(self):
        from repro.experiments.e11_ablations import _contention_note

        note = _contention_note(self._rows(lambda jitter: False))
        assert "Jitter never decides whether a cell stabilizes" in note
        assert "at no jitter at window(s) 0.1" in note
        assert "stalls with jitter" not in note
        # SIS runs 3x faster with jitter 0.2, SMM not at all
        assert "SIS at window 0.1 (30.00 -> 10.00)" in note
        assert "SMM at window 0" not in note


class TestCliCommandFunctions:
    def test_cmd_list_direct(self, capsys):
        from repro.cli import cmd_list

        assert cmd_list() == 0
        assert "E12" in capsys.readouterr().out

    def test_cmd_run_direct(self, capsys):
        from repro.cli import cmd_run

        assert cmd_run(["E10"], quick=True) == 0
        assert "[E10]" in capsys.readouterr().out
