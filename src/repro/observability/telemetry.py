"""Backend-independent run telemetry (the paper's accounting, live).

Every claim the paper makes is an *accounting* claim — Theorem 1's
``n + 1`` round bound, Lemmas 9–10's matching-growth rate, the Fig. 2–3
node-type census — yet monitors (the reference engine's observation
hook) force a run off the fast path: no kernel backend can call
per-round Python callbacks.  This module provides the cheap
alternative: every backend that advertises the ``"telemetry"``
capability fills in the same :class:`RunTelemetry` record — per-round
moves by rule, the active-set size, the Fig. 2 node-type census for
pointer-matching protocols, and wall-clock per phase — and attaches it
to the :class:`~repro.engine.result.RunResult` it returns.

The *counter* fields (``rounds``, ``per_round_moves``,
``node_type_census``) are byte-identical across backends — pinned by
``tests/test_engine_equivalence.py`` alongside the summary fields.  The
*diagnostic* fields (``active_set_sizes``, ``timings``) describe how
the producing backend ran and legitimately differ between backends.

Request telemetry anywhere a run is configured::

    result = engine.run("smm", graph, cfg, telemetry=True)
    result.telemetry.node_type_census[0]   # Fig. 2 counts at t=0
    result.telemetry.per_round_moves       # one {rule: count} per round

and from the CLI with ``repro run E1 --telemetry[=PATH]``, which
streams one JSON line per trial through :class:`TelemetrySink`.

This module is import-light on purpose (stdlib only); the census
helpers import :mod:`repro.matching.classification` lazily so the
executors can depend on it without cycles.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "CENSUS_KEYS",
    "RunTelemetry",
    "TelemetryRecorder",
    "TelemetrySink",
    "census_of",
    "merge_telemetry",
    "wants_census",
]

#: Fig. 2 node-type keys, in :class:`repro.matching.classification.NodeType`
#: order — the key order every census dict uses.
CENSUS_KEYS = ("M", "A0", "A1", "PA", "PM", "PP")


@dataclass
class RunTelemetry:
    """Per-run telemetry record, identical in shape for every backend.

    Attributes
    ----------
    protocol / daemon / backend:
        What ran, under which daemon, produced by which backend.
    rounds:
        Daemon ticks recorded — always ``len(per_round_moves)`` and
        equal to the owning result's ``rounds``.
    moves / moves_by_rule:
        Totals over the run (redundant with the owning
        :class:`~repro.engine.result.RunResult`, repeated here so a
        serialized telemetry line is self-contained).
    per_round_moves:
        ``per_round_moves[t][rule]`` is the number of nodes that fired
        ``rule`` in round ``t + 1``; every rule name appears in every
        entry (zero-move rounds of randomized protocols are all-zero
        entries).  Byte-identical across backends.
    active_set_sizes:
        ``active_set_sizes[t]`` is the size of the dirty frontier the
        backend stepped in round ``t + 1`` — a *diagnostic* of the
        producing backend's stepping strategy (full scans report ``n``;
        the kernels' driver scans every node once the frontier passes
        n/16), not a protocol property; backends legitimately differ
        here.
    node_type_census:
        For pointer-matching protocols: ``node_type_census[t]`` is the
        Fig. 2 histogram (keys :data:`CENSUS_KEYS`) of the configuration
        after round ``t``, with ``node_type_census[0]`` the initial
        configuration — so its length is ``rounds + 1`` and the last
        entry describes the final configuration.  ``None`` for
        protocols without the Fig. 2 taxonomy (SIS, Luby, ...).
        Byte-identical across backends.
    timings:
        Wall-clock seconds per phase: ``"setup"`` (configuration
        resolution, kernel construction), ``"rounds"`` (the stepping
        loop) and ``"finalize"`` (decode, legitimacy check).
        Non-deterministic by nature; never compared.
    fault_events:
        For fault-campaign runs (:mod:`repro.resilience`): one record
        per applied :class:`~repro.resilience.FaultEvent`, with the
        event's kind, the round it fired at, its fault sites, and the
        recovery metrics measured over the window up to the next event
        (``recovered``, ``recovery_rounds``, ``moves``,
        ``moves_by_rule``, ``touched``, ``radius``).  ``None`` for
        ordinary runs.  Counter fields are byte-identical across
        backends (pinned alongside the other counters).
    convergence:
        For runs made with ``convergence=True``: the proof-aware
        convergence record built by
        :func:`repro.observability.convergence.attach_convergence`
        (potential series, safety-check violation counts, bound
        conformance).  Derived entirely from cross-backend-pinned
        inputs, so it is byte-identical across backends.  ``None``
        otherwise.
    """

    protocol: str
    daemon: str
    backend: str
    rounds: int
    moves: int
    moves_by_rule: Dict[str, int]
    per_round_moves: List[Dict[str, int]]
    active_set_sizes: List[int]
    node_type_census: Optional[List[Dict[str, int]]] = None
    timings: Dict[str, float] = field(default_factory=dict)
    fault_events: Optional[List[Dict[str, Any]]] = None
    convergence: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dictionary (round-trips through
        :meth:`from_dict`)."""
        return {
            "protocol": self.protocol,
            "daemon": self.daemon,
            "backend": self.backend,
            "rounds": self.rounds,
            "moves": self.moves,
            "moves_by_rule": dict(self.moves_by_rule),
            "per_round_moves": [dict(e) for e in self.per_round_moves],
            "active_set_sizes": list(self.active_set_sizes),
            "node_type_census": (
                [dict(e) for e in self.node_type_census]
                if self.node_type_census is not None
                else None
            ),
            "timings": dict(self.timings),
            "fault_events": (
                [dict(e) for e in self.fault_events]
                if self.fault_events is not None
                else None
            ),
            "convergence": (
                dict(self.convergence)
                if self.convergence is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunTelemetry":
        return cls(
            protocol=str(data["protocol"]),
            daemon=str(data["daemon"]),
            backend=str(data["backend"]),
            rounds=int(data["rounds"]),
            moves=int(data["moves"]),
            moves_by_rule={
                str(k): int(v) for k, v in data["moves_by_rule"].items()
            },
            per_round_moves=[
                {str(k): int(v) for k, v in entry.items()}
                for entry in data["per_round_moves"]
            ],
            active_set_sizes=[int(v) for v in data["active_set_sizes"]],
            node_type_census=(
                [
                    {str(k): int(v) for k, v in entry.items()}
                    for entry in data["node_type_census"]
                ]
                if data.get("node_type_census") is not None
                else None
            ),
            timings={
                str(k): float(v) for k, v in data.get("timings", {}).items()
            },
            fault_events=(
                [dict(e) for e in data["fault_events"]]
                if data.get("fault_events") is not None
                else None
            ),
            convergence=(
                dict(data["convergence"])
                if data.get("convergence") is not None
                else None
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunTelemetry":
        return cls.from_dict(json.loads(text))


class TelemetryRecorder:
    """Accumulates one run's telemetry as the backend steps it.

    Deliberately dumb: the backend computes per-round counts and census
    dicts in whatever representation is cheap for it (Python dicts for
    the reference engine, mask sums for the kernels) and feeds them in;
    the recorder only accumulates and keeps phase wall-clocks.

    Protocol: construct at the start of ``setup``; optionally
    :meth:`record_census` the initial configuration; :meth:`begin_rounds`
    when stepping starts; :meth:`on_round` once per counted round;
    :meth:`begin_finalize` when stepping ends; :meth:`finish` to build
    the :class:`RunTelemetry`.
    """

    def __init__(
        self,
        protocol: str,
        daemon: str,
        backend: str,
        rule_names: Sequence[str],
    ) -> None:
        self.protocol = protocol
        self.daemon = daemon
        self.backend = backend
        self.rule_names = tuple(rule_names)
        self.per_round_moves: List[Dict[str, int]] = []
        self.active_set_sizes: List[int] = []
        self.census: Optional[List[Dict[str, int]]] = None
        self.timings: Dict[str, float] = {}
        self._phase_start = time.perf_counter()

    def _close_phase(self, name: str) -> None:
        now = time.perf_counter()
        self.timings[name] = self.timings.get(name, 0.0) + (
            now - self._phase_start
        )
        self._phase_start = now

    def record_census(self, counts: Mapping[str, int]) -> None:
        """Record the census of the *initial* configuration (enables
        census collection for the rest of the run)."""
        self.census = [{k: int(counts[k]) for k in CENSUS_KEYS}]

    def begin_rounds(self) -> None:
        self._close_phase("setup")

    def on_round(
        self,
        moves: Mapping[str, int],
        active_size: int,
        census: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Record one counted round: the per-rule firing counts, the
        number of nodes the backend re-evaluated, and (for census-keeping
        runs) the post-round census."""
        self.per_round_moves.append(
            {name: int(moves.get(name, 0)) for name in self.rule_names}
        )
        self.active_set_sizes.append(int(active_size))
        if census is not None and self.census is not None:
            self.census.append({k: int(census[k]) for k in CENSUS_KEYS})

    def begin_finalize(self) -> None:
        self._close_phase("rounds")

    def finish(self) -> RunTelemetry:
        """Close the ``finalize`` phase and build the record."""
        self._close_phase("finalize")
        moves_by_rule = {name: 0 for name in self.rule_names}
        for entry in self.per_round_moves:
            for name, count in entry.items():
                moves_by_rule[name] += count
        return RunTelemetry(
            protocol=self.protocol,
            daemon=self.daemon,
            backend=self.backend,
            rounds=len(self.per_round_moves),
            moves=sum(moves_by_rule.values()),
            moves_by_rule=moves_by_rule,
            per_round_moves=self.per_round_moves,
            active_set_sizes=self.active_set_sizes,
            node_type_census=self.census,
            timings=self.timings,
        )


# ----------------------------------------------------------------------
# census helpers (lazy imports: keep this module executor-safe)
# ----------------------------------------------------------------------
def wants_census(protocol: object) -> bool:
    """Whether the Fig. 2 node-type census applies to ``protocol``
    (i.e. it is a pointer-matching protocol)."""
    from repro.matching.smm import MatchingProtocolBase

    return isinstance(protocol, MatchingProtocolBase)


def census_of(graph, config) -> Dict[str, int]:
    """The Fig. 2 node-type census of a pointer configuration, with
    string keys in :data:`CENSUS_KEYS` order."""
    from repro.matching.classification import type_counts

    return {t.value: c for t, c in type_counts(graph, config).items()}


# ----------------------------------------------------------------------
# sinks and aggregation
# ----------------------------------------------------------------------
class TelemetrySink:
    """Append-only JSONL sink: one JSON object per line.

    The CLI's ``--telemetry[=PATH]`` streams one record per trial
    through this; records are written in spec order, so the file is
    deterministic for any ``--jobs`` value.  (Truncation happens once
    per CLI invocation, up front — the sink itself only appends.)

    The sink holds one buffered handle, opened lazily on the first
    write and kept until :meth:`close` — re-opening per record made
    ``open()`` calls O(trials) and dominated small sweeps.  Each
    ``write``/``write_many`` call flushes, so records written so far
    are always readable; use the sink as a context manager (or call
    :meth:`close`) to release the handle deterministically.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        self._handle = None

    def _ensure_open(self):
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def write(self, record: Mapping[str, Any]) -> None:
        handle = self._ensure_open()
        handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        handle.flush()

    def write_many(self, records: Iterable[Mapping[str, Any]]) -> None:
        handle = self._ensure_open()
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: close() is the contract
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    @staticmethod
    def read(path, *, strict: bool = False) -> List[Dict[str, Any]]:
        """All parseable records of a JSONL file, in write order.

        A file being read may still be written (live jobs stream
        telemetry) or may have been truncated mid-line by a kill, so by
        default unparseable and non-object lines are skipped — readers
        see every complete record and never a traceback for a torn
        write.  ``strict=True`` restores the raise-on-corrupt behaviour
        for pipelines that must detect damage.
        """
        out: List[Dict[str, Any]] = []
        with open(str(path), "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    if strict:
                        raise
                    continue
                if not isinstance(record, dict):
                    if strict:
                        raise ValueError(
                            f"telemetry line is not an object: {line[:80]!r}"
                        )
                    continue
                out.append(record)
        return out


def merge_telemetry(
    telemetries: Iterable[Optional[RunTelemetry]],
) -> Dict[str, Any]:
    """Deterministic aggregate of many runs' telemetry.

    All totals are order-independent sums/maxima, so merging results
    from a parallel sweep gives the same answer for every ``jobs``
    value and every completion order.  ``None`` entries (runs without
    telemetry) are skipped.

    Fault-campaign runs contribute a per-kind ``fault_events``
    aggregate (event/recovered counts, recovery-round totals and
    maxima, moves, worst containment radius); runs with a node-type
    census contribute their *final* census to ``final_census`` (the
    summed Fig. 2 histogram of the end states — ``None`` when no run
    kept a census).

    Runs carrying a convergence record contribute a ``convergence``
    aggregate: runs counted, summed safety-check violations, and
    bound-conformance tallies (``bound_ok`` / ``bound_exceeded`` /
    ``bound_inconclusive``) — ``None`` when no run kept one.
    """
    runs = 0
    rounds_total = 0
    rounds_max = 0
    moves_by_rule: Dict[str, int] = {}
    timings: Dict[str, float] = {}
    fault_kinds: Dict[str, Dict[str, Any]] = {}
    final_census: Optional[Dict[str, int]] = None
    convergence: Optional[Dict[str, int]] = None
    for t in telemetries:
        if t is None:
            continue
        runs += 1
        rounds_total += t.rounds
        rounds_max = max(rounds_max, t.rounds)
        for name, count in t.moves_by_rule.items():
            moves_by_rule[name] = moves_by_rule.get(name, 0) + count
        for phase, seconds in t.timings.items():
            timings[phase] = timings.get(phase, 0.0) + seconds
        if t.node_type_census:
            if final_census is None:
                final_census = {k: 0 for k in CENSUS_KEYS}
            for key, count in t.node_type_census[-1].items():
                final_census[key] = final_census.get(key, 0) + int(count)
        if t.convergence is not None:
            if convergence is None:
                convergence = {
                    "runs": 0,
                    "violations": 0,
                    "bound_ok": 0,
                    "bound_exceeded": 0,
                    "bound_inconclusive": 0,
                }
            convergence["runs"] += 1
            convergence["violations"] += int(
                t.convergence.get("violations", 0)
            )
            verdict = t.convergence.get("bound_ok")
            if verdict is True:
                convergence["bound_ok"] += 1
            elif verdict is False:
                convergence["bound_exceeded"] += 1
            else:
                convergence["bound_inconclusive"] += 1
        for event in t.fault_events or ():
            agg = fault_kinds.setdefault(
                str(event["kind"]),
                {
                    "events": 0,
                    "recovered": 0,
                    "recovery_rounds_total": 0,
                    "recovery_rounds_max": 0,
                    "moves": 0,
                    "touched": 0,
                    "radius_max": None,
                },
            )
            agg["events"] += 1
            agg["recovered"] += int(bool(event["recovered"]))
            agg["recovery_rounds_total"] += int(event["recovery_rounds"])
            agg["recovery_rounds_max"] = max(
                agg["recovery_rounds_max"], int(event["recovery_rounds"])
            )
            agg["moves"] += int(event["moves"])
            agg["touched"] += int(event["touched"])
            radius = event.get("radius")
            if radius is not None:
                agg["radius_max"] = max(
                    int(radius),
                    -1 if agg["radius_max"] is None else agg["radius_max"],
                )
    return {
        "runs": runs,
        "rounds_total": rounds_total,
        "rounds_max": rounds_max,
        "moves": sum(moves_by_rule.values()),
        "moves_by_rule": dict(sorted(moves_by_rule.items())),
        "timings": dict(sorted(timings.items())),
        "fault_events": dict(sorted(fault_kinds.items())),
        "final_census": final_census,
        "convergence": convergence,
    }
