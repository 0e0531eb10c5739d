"""Benchmark — the kernel hot-path push (packed state, batch sweep,
zero-copy handoff).

Measures and records, in ``benchmarks/results/BENCH_kernels.json``,
per-optimization before/after numbers:

* **packed dense stepping** — the from-scratch dense round on an ER
  graph, legacy layout (int64 state + buffered ``ufunc.at`` scatters)
  vs the packed kernels (int32/uint8 + ``reduceat`` segment ops).  The
  acceptance bar here is *no regression*: dense rounds were never the
  bottleneck and must not get slower.
* **frontier recovery (headline 1)** — the paper's motivating
  n=16k workload: a large stable network absorbs one flipped node and
  re-stabilizes over Θ(n) rounds with an O(1) dirty frontier.  Before
  = the gather-based vector frontier (the pre-packing structure,
  forced via ``repro.kernels._SCALAR_MAX = 0``); after = the scalar
  small-frontier path.  Rounds/sec both ways.
* **batch-sweep stepping (headline 2)** — an E1-style group (many
  random starts, one graph) stepped per-trial vs as one ``(k, n)``
  ``run_batch`` call with row compaction, for both protocols, plus the
  end-to-end ``run_trials`` wall time of ``backend="auto"`` specs with
  dispatch on (batched) and off (per-trial vectorized).
* **graph handoff** — pickle round-trip cost of a trial spec with a
  plain ``Graph`` vs the shared-memory CSR proxy.

The aggregate number the roadmap tracks is the geometric mean of the
two headline rounds/sec improvements; the 10x target is recorded in
the JSON and the suite asserts the measured floor (≥ 5x at full scale).
Every section also asserts bit-identical results between its before
and after paths, so CI smoke runs (``BENCH_KERNELS_QUICK=1``, small n)
double as equivalence pins.

Regenerate with
``PYTHONPATH=src python -m pytest benchmarks/test_bench_kernels.py``.
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import time

import numpy as np

from repro.core.faults import random_configuration
from repro.engine import make_protocol
from repro import kernels as _kernels_module
from repro.graphs.generators import erdos_renyi_graph, path_graph
from repro.matching.smm_batch import BatchSMM
from repro.matching.smm_vectorized import VectorizedSMM
from repro.mis.sis_batch import BatchSIS
from repro.mis.sis_vectorized import VectorizedSIS
from repro.parallel import SharedGraphStore, TrialSpec, run_trials
from repro.rng import ensure_rng

QUICK = bool(os.environ.get("BENCH_KERNELS_QUICK"))

#: Workload sizes; CI smoke shrinks everything and loosens the floors
#: (tiny arrays measure interpreter noise, not the kernels).
SCALE = dict(
    dense_n=512 if QUICK else 4096,
    recovery_n=2048 if QUICK else 16384,
    sweep_n=64,
    sweep_k=20 if QUICK else 100,
    aggregate_floor=1.5 if QUICK else 5.0,
    dense_floor=0.5 if QUICK else 0.8,
)


def _best_of(repeats, fn):
    """Run ``fn`` ``repeats`` times; return (last result, best seconds)."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _geomean(values):
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=float)))))


# ----------------------------------------------------------------------
# legacy dense steps: the pre-packing layout, reimplemented exactly —
# wide int64 state and buffered flat ``ufunc.at`` scatters in place of
# the packed kernels' reduceat segment operations.  Masks mirror
# VectorizedSMM.step / VectorizedSIS.step term for term so the
# before/after runs can be asserted bit-identical.
# ----------------------------------------------------------------------
def _legacy_smm_step(ptr, indptr, indices, row, arange, n):
    sentinel = n
    neighbor_ptr = ptr[indices]
    is_null = ptr < 0

    proposer_entry = neighbor_ptr == row
    min_proposer = np.full(n, sentinel, dtype=np.int64)
    np.minimum.at(min_proposer, row[proposer_entry], indices[proposer_entry])

    null_entry = neighbor_ptr < 0
    min_null = np.full(n, sentinel, dtype=np.int64)
    np.minimum.at(min_null, row[null_entry], indices[null_entry])

    r1 = is_null & (min_proposer < sentinel)
    r2 = is_null & ~(min_proposer < sentinel) & (min_null < sentinel)
    target = np.where(is_null, 0, ptr)
    target_ptr = ptr[target]
    r3 = (~is_null) & (target_ptr >= 0) & (target_ptr != arange)

    new = ptr.copy()
    new[r1] = min_proposer[r1]
    new[r2] = min_null[r2]
    new[r3] = -1
    return new, r1 | r2 | r3


def _legacy_sis_step(x, indices, row, bigger_entry, n):
    in_set_entry = (x[indices] == 1) & bigger_entry
    blocked = np.zeros(n, dtype=bool)
    np.logical_or.at(blocked, row[in_set_entry], True)
    return (~blocked).astype(np.int64)


def _bench_packed_dense(report):
    n = SCALE["dense_n"]
    graph = erdos_renyi_graph(n, 8 / n, ensure_rng(5))
    indptr, indices, _ = graph.adjacency_arrays()
    indices64 = indices.astype(np.int64)
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    arange = np.arange(n, dtype=np.int64)

    def legacy_smm():
        ptr = np.full(n, -1, dtype=np.int64)
        rounds = 0
        while True:
            ptr_next, moved = _legacy_smm_step(
                ptr, indptr, indices64, row, arange, n
            )
            if not moved.any():
                return ptr, rounds
            ptr, rounds = ptr_next, rounds + 1

    smm = VectorizedSMM(graph)

    def packed_smm():
        ptr = np.full(n, -1, dtype=smm._dtype)
        rounds = 0
        while True:
            ptr_next, r1, r2, r3 = smm.step(ptr)
            if not (r1.any() or r2.any() or r3.any()):
                return ptr, rounds
            ptr, rounds = ptr_next, rounds + 1

    (legacy_ptr, legacy_rounds), legacy_s = _best_of(3, legacy_smm)
    (packed_ptr, packed_rounds), packed_s = _best_of(3, packed_smm)
    assert legacy_rounds == packed_rounds
    assert np.array_equal(legacy_ptr, packed_ptr.astype(np.int64))

    bigger_entry = indices64 > row

    def legacy_sis():
        x = np.zeros(n, dtype=np.int64)
        rounds = 0
        while True:
            x_next = _legacy_sis_step(x, indices64, row, bigger_entry, n)
            if np.array_equal(x_next, x):
                return x, rounds
            x, rounds = x_next, rounds + 1

    sis = VectorizedSIS(graph)

    def packed_sis():
        x = np.zeros(n, dtype=np.uint8)
        rounds = 0
        while True:
            x_next = sis.step(x)
            if np.array_equal(x_next, x):
                return x, rounds
            x, rounds = x_next, rounds + 1

    (legacy_x, lsr), legacy_sis_s = _best_of(3, legacy_sis)
    (packed_x, psr), packed_sis_s = _best_of(3, packed_sis)
    assert lsr == psr
    assert np.array_equal(legacy_x, packed_x.astype(np.int64))

    smm_ratio = legacy_s / packed_s
    sis_ratio = legacy_sis_s / packed_sis_s
    report["packed_state_dense"] = {
        "workload": f"from-scratch convergence on ER({n}, avg deg 8)",
        "smm": {
            "rounds": legacy_rounds,
            "legacy_int64_ufunc_at_rps": round(legacy_rounds / legacy_s, 1),
            "packed_reduceat_rps": round(packed_rounds / packed_s, 1),
            "speedup": round(smm_ratio, 2),
        },
        "sis": {
            "rounds": lsr,
            "legacy_int64_ufunc_at_rps": round(lsr / legacy_sis_s, 1),
            "packed_reduceat_rps": round(psr / packed_sis_s, 1),
            "speedup": round(sis_ratio, 2),
        },
        "note": (
            "acceptance bar is no regression: dense rounds already ran "
            "close to memory bandwidth, the packed layout must not "
            "slow them down"
        ),
    }
    # no regression on from-scratch dense rounds (floor leaves room
    # for timer noise on shared hosts, not for a real slowdown)
    assert smm_ratio >= SCALE["dense_floor"], report["packed_state_dense"]
    assert sis_ratio >= SCALE["dense_floor"], report["packed_state_dense"]


def _bench_frontier_recovery(report):
    n = SCALE["recovery_n"]
    graph = path_graph(n)
    sis = VectorizedSIS(graph)
    stable = sis.run().final_x.copy()
    faulty = stable.copy()
    faulty[n // 2] ^= 1  # one flipped mid-path node

    original_scalar_max = _kernels_module._SCALAR_MAX
    try:
        # before: the gather-based vector frontier for every sparse
        # round — the pre-packing active-set structure (conservative:
        # it still benefits from the packed dtypes)
        _kernels_module._SCALAR_MAX = 0
        before, before_s = _best_of(2, lambda: sis.run(faulty.copy()))
    finally:
        _kernels_module._SCALAR_MAX = original_scalar_max
    after, after_s = _best_of(2, lambda: sis.run(faulty.copy()))

    assert before.rounds == after.rounds
    assert np.array_equal(before.final_x, after.final_x)

    speedup = before_s / after_s
    report["frontier_recovery"] = {
        "workload": (
            f"VectorizedSIS on path({n}), stable state + one flipped "
            "node: Theta(n) recovery rounds over an O(1) frontier"
        ),
        "rounds": after.rounds,
        "vector_frontier_rps": round(before.rounds / before_s, 1),
        "scalar_frontier_rps": round(after.rounds / after_s, 1),
        "speedup": round(speedup, 2),
        "note": (
            "the scalar path skips per-round array materialization "
            "when the frontier is a handful of nodes; dense rounds "
            "still use the flat full scan"
        ),
    }
    return speedup


def _bench_batch_sweep(report):
    n, k = SCALE["sweep_n"], SCALE["sweep_k"]
    graph = erdos_renyi_graph(n, 8 / n, ensure_rng(11))
    section = {
        "workload": (
            f"E1-style group: {k} random starts on ER({n}, avg deg 8), "
            "per-trial kernel loop vs one (k, n) run_batch call"
        ),
    }
    speedups = []
    for name, vec_cls, batch_cls, final_attr in (
        ("smm", VectorizedSMM, BatchSMM, "final_ptr"),
        ("sis", VectorizedSIS, BatchSIS, "final_x"),
    ):
        protocol = make_protocol(name)
        initials = [
            random_configuration(protocol, graph, ensure_rng(s))
            for s in range(k)
        ]
        vec = vec_cls(graph)

        def per_trial():
            finals, rounds = [], 0
            for config in initials:
                res = vec.run(config)
                finals.append(getattr(res, final_attr))
                rounds += res.rounds
            return finals, rounds

        batch = batch_cls(graph)
        encoded = batch.encode_batch(initials)

        def batched():
            return batch.run_batch(encoded)

        (finals, total_rounds), per_s = _best_of(3, per_trial)
        batch_res, batch_s = _best_of(3, batched)
        final_matrix = getattr(batch_res, final_attr)
        for i, final in enumerate(finals):
            assert np.array_equal(final, final_matrix[i])
        speedup = per_s / batch_s
        speedups.append(speedup)
        section[name] = {
            "trial_rounds": total_rounds,
            "per_trial_rps": round(total_rounds / per_s, 1),
            "batch_rps": round(total_rounds / batch_s, 1),
            "speedup": round(speedup, 2),
        }

    # end-to-end: the same sweep through run_trials with dispatch
    # on/off — diluted by per-trial decode + legitimacy checking that
    # both paths pay, recorded so the kernel-level number has context.
    # The specs say backend="auto": only auto specs are sweep-eligible,
    # so any other backend would time the same per-trial path twice.
    smm, sis = make_protocol("smm"), make_protocol("sis")
    specs = [
        TrialSpec(
            "smm",
            graph,
            random_configuration(smm, graph, ensure_rng(s)),
            backend="auto",
        )
        for s in range(k)
    ] + [
        TrialSpec(
            "sis",
            graph,
            random_configuration(sis, graph, ensure_rng(s)),
            backend="auto",
        )
        for s in range(k)
    ]
    per_rows, per_s = _best_of(1, lambda: run_trials(specs, batch_sweep=False))
    batch_rows, batch_s = _best_of(1, lambda: run_trials(specs, batch_sweep=True))
    for a, b in zip(per_rows, batch_rows):
        assert a.backend == "vectorized" and b.backend == "batch"
        assert a.final == b.final and a.rounds == b.rounds
        assert a.moves_by_rule == b.moves_by_rule
    section["end_to_end_run_trials"] = {
        "per_trial_seconds": round(per_s, 3),
        "batch_seconds": round(batch_s, 3),
        "speedup": round(per_s / batch_s, 2),
        "note": (
            "includes per-row decode and legitimacy checking (paid "
            "identically on both paths), so this dilutes the kernel "
            "stepping speedup above"
        ),
    }
    report["batch_sweep"] = section
    return _geomean(speedups)


def _bench_graph_handoff(report):
    n = SCALE["dense_n"]
    graph = erdos_renyi_graph(n, 8 / n, ensure_rng(11))
    spec = TrialSpec("smm", graph)
    repeats = 20

    def round_trips(payload_spec):
        for _ in range(repeats):
            pickle.loads(pickle.dumps(payload_spec))

    plain_bytes = len(pickle.dumps(spec))
    _, plain_s = _best_of(1, lambda: round_trips(spec))
    with SharedGraphStore(shared=True) as store:
        (packed,) = store.pack_specs([spec])
        shared_bytes = len(pickle.dumps(packed))
        _, shared_s = _best_of(1, lambda: round_trips(packed))
    report["graph_handoff"] = {
        "workload": f"pickle round-trip of a TrialSpec on ER({n}, avg deg 8)",
        "plain_graph_bytes": plain_bytes,
        "shared_proxy_bytes": shared_bytes,
        "plain_ms_per_trip": round(plain_s / repeats * 1000, 3),
        "shared_ms_per_trip": round(shared_s / repeats * 1000, 3),
        "speedup": round(plain_s / shared_s, 2),
        "note": (
            "the proxy ships a segment name; workers attach read-only "
            "CSR views instead of rebuilding the adjacency from an "
            "edge-list pickle (repeat attaches are cache hits)"
        ),
    }


def test_bench_kernels(results_dir):
    report = {
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "quick_mode": QUICK,
    }

    _bench_packed_dense(report)
    recovery_speedup = _bench_frontier_recovery(report)
    batch_speedup = _bench_batch_sweep(report)
    _bench_graph_handoff(report)

    aggregate = _geomean([recovery_speedup, batch_speedup])
    report["aggregate"] = {
        "definition": (
            "geomean of the two headline rounds/sec improvements: "
            "frontier_recovery.speedup and the geomean of the "
            "batch_sweep kernel stepping speedups"
        ),
        "recovery_speedup": round(recovery_speedup, 2),
        "batch_sweep_speedup": round(batch_speedup, 2),
        "aggregate_speedup": round(aggregate, 2),
        "target": 10,
        "measured_floor": SCALE["aggregate_floor"],
    }
    # ROADMAP item 3: 10x is the target we track; 5x is the measured
    # floor this suite enforces at full scale (quick mode loosens it —
    # tiny arrays measure interpreter noise, not the kernels)
    assert aggregate >= SCALE["aggregate_floor"], report["aggregate"]

    path = results_dir / "BENCH_kernels.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\n{json.dumps(report, indent=2)}\n[written to {path}]")
