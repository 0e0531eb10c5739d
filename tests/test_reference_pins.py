"""Byte pins of the reference engine under every daemon.

The equivalence suite compares every kernel against synchronous
reference runs; nothing there pins a central, distributed or refined
run.  This module runs each reference runner over one small grid — the
eight registered protocols on three graphs, from the clean start and a
random start, with history and telemetry on and off, at the default
budget and at budget 3 with ``raise_on_timeout`` — and folds every
run's full record into one sha256 digest per runner:

* ``execution_to_dict`` of the result, minus the wall-clock
  ``telemetry.timings``;
* every :class:`~repro.core.invariants.Monitor` call, with its round
  index and configuration;
* the :class:`~repro.errors.StabilizationTimeout` message, when raised.

Two more digests pin synchronous fault campaigns (one plan of every
event kind), whose segments step the same reference loop.

A digest therefore moves with any change to round or tick accounting,
RNG draw order, move-log entry order, daemon labels, budget defaults or
timeout messages.  The literals below were recorded on the last
commit before the four daemon loops were folded into one driver; they
are meant to change only with a deliberate change of reference
semantics.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.serialize import configuration_to_dict, execution_to_dict
from repro.core.executor import run_central, run_distributed, run_synchronous
from repro.core.faults import random_configuration
from repro.core.invariants import Monitor
from repro.core.transform import run_synchronized_central
from repro.engine import PROTOCOLS, make_protocol
from repro.errors import StabilizationTimeout
from repro.graphs.generators import cycle_graph, grid_graph, path_graph
from repro.resilience import FaultEvent, FaultPlan

#: a campaign touching every event kind the reference adapter applies
PLAN = FaultPlan(
    events=(
        FaultEvent(round=2, kind="perturb", fraction=0.5),
        FaultEvent(round=4, kind="message_loss", count=1),
        FaultEvent(round=5, kind="crash", nodes=(1,)),
        FaultEvent(round=7, kind="churn", churn=1),
        FaultEvent(round=9, kind="rejoin"),
    ),
    seed=3,
)

#: runner label -> (runner, budget keyword, fixed options)
RUNNERS = {
    "synchronous": (run_synchronous, "max_rounds", {}),
    "synchronous-full-scan": (run_synchronous, "max_rounds", {"active_set": False}),
    "central-random": (run_central, "max_moves", {"strategy": "random"}),
    "central-min-id": (run_central, "max_moves", {"strategy": "min-id"}),
    "central-round-robin": (run_central, "max_moves", {"strategy": "round-robin"}),
    "distributed-0.3": (run_distributed, "max_steps", {"activation_probability": 0.3}),
    "distributed-1.0": (run_distributed, "max_steps", {"activation_probability": 1.0}),
    "refined-id": (run_synchronized_central, "max_rounds", {"priority": "id"}),
    "refined-id-beacon": (
        run_synchronized_central,
        "max_rounds",
        {"priority": "id", "count_beacon_rounds": True},
    ),
    "refined-random": (run_synchronized_central, "max_rounds", {"priority": "random"}),
    "refined-random-beacon": (
        run_synchronized_central,
        "max_rounds",
        {"priority": "random", "count_beacon_rounds": True},
    ),
    # campaigns reject monitors, so these digests hold no monitor calls
    "synchronous-campaign": (run_synchronous, "max_rounds", {"fault_plan": PLAN}),
    "synchronous-full-scan-campaign": (
        run_synchronous,
        "max_rounds",
        {"fault_plan": PLAN, "active_set": False},
    ),
}

GRAPHS = (path_graph(5), cycle_graph(6), grid_graph(2, 3))

#: (record_history, telemetry)
FLAGS = ((False, False), (True, False), (False, True), (True, True))

PINNED = {
    "synchronous": (
        "c82cbed2a3041932f1d0e9749908e985"
        "35b36d6e64261c5a86c74c19bcd525cb"
    ),
    "synchronous-full-scan": (
        "26ef955f9e90e557bad76037185d55a7"
        "9a07286ae951f96c487385b452cd8546"
    ),
    "central-random": (
        "16e0d6e952615b460fa845493b9378bd"
        "ab90304fac72882afe2713477794493f"
    ),
    "central-min-id": (
        "feae0b4c435de72032d909ee69629588"
        "81a6ff1b1fbb1ff994303b00ea6e4424"
    ),
    "central-round-robin": (
        "026e3fc7a2efadba9da23bcdbf8a9b1d"
        "7f49dccc57ab3de04428fff941f74eab"
    ),
    "distributed-0.3": (
        "1d196cd815b6d69c03a26c0301087059"
        "0cfc22b7d6e4ed0e8cd1e5b6d930c01f"
    ),
    "distributed-1.0": (
        "95c756ff574ba873b47b28a781335d40"
        "f24ec611cd6d442d0dc1a7e6acef6c93"
    ),
    "refined-id": (
        "8f28ab344fddaed9235dc6527c3c7792"
        "bebc00f5ea224d53cd68f4b610d4a632"
    ),
    "refined-id-beacon": (
        "6a4958022d429fc238adbba19337304f"
        "a2cc4074628d9e1524d53918642c6a25"
    ),
    "refined-random": (
        "42f318d42b4b97029537ddb5e8bfde99"
        "fb749aaa1b0befa7c2ce69904818c2a7"
    ),
    "refined-random-beacon": (
        "8654dfd50a3556eb01cc9a32235b707d"
        "769e008a46a164c5a8bf155e5de00f97"
    ),
    "synchronous-campaign": (
        "336ce03112164639e6ef9cdcefcc2e47"
        "fbf9aa901500f1ff17b06bcab900a997"
    ),
    "synchronous-full-scan-campaign": (
        "19ada1bc85e0c4e8a5019839dea6fe80"
        "1eadbadfa9aa028a08bafdc51cb38a71"
    ),
}


class _Tape(Monitor):
    """Writes every monitor call onto ``calls``."""

    def __init__(self) -> None:
        self.calls = []

    def on_start(self, graph, config) -> None:
        self.calls.append(["start", configuration_to_dict(config)])

    def on_round(self, round_index, config) -> None:
        self.calls.append(["round", round_index, configuration_to_dict(config)])

    def on_finish(self, execution) -> None:
        self.calls.append(["finish", execution.rounds, execution.stabilized])


def _record(execution) -> dict:
    out = execution_to_dict(execution)
    if out["telemetry"] is not None:
        del out["telemetry"]["timings"]
    return out


def runner_digest(label: str) -> str:
    runner, budget_key, fixed = RUNNERS[label]
    digest = hashlib.sha256()
    for key in sorted(PROTOCOLS):
        for g, graph in enumerate(GRAPHS):
            protocol = make_protocol(key)
            starts = (None, random_configuration(protocol, graph, 100 + g))
            for config in starts:
                for history, telemetry in FLAGS:
                    for budget in (None, 3):
                        tape = _Tape()
                        options = dict(fixed)
                        if budget is not None:
                            options[budget_key] = budget
                        try:
                            execution = runner(
                                protocol,
                                graph,
                                config,
                                rng=7,
                                record_history=history,
                                telemetry=telemetry,
                                monitors=() if "fault_plan" in fixed else (tape,),
                                raise_on_timeout=budget is not None,
                                **options,
                            )
                            outcome = [None, _record(execution)]
                        except StabilizationTimeout as exc:
                            outcome = [str(exc), _record(exc.execution)]
                        line = json.dumps([key, g, outcome, tape.calls])
                        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("label", sorted(RUNNERS))
def test_reference_runner_digest(label):
    assert runner_digest(label) == PINNED[label]
