"""Benchmark — the parallel/active-set performance work.

Measures and records, in ``benchmarks/results/BENCH_parallel.json``:

* **process fan-out** — wall time of the E1 sweep at ``jobs=1`` vs
  ``jobs=4`` (and that the rows are bit-identical);
* **active-set stepping** — full-scan vs frontier stepping for the
  reference executor on the E1 sweep shapes and for the vectorized SIS
  kernel on its Θ(n) cascade worst case, with rounds/sec by n.

Speedup numbers are a function of the host: process fan-out cannot
beat 1.0x on a single-core container (the JSON records ``cpu_count``
so readers can tell), while the active-set numbers are algorithmic and
hold everywhere.  See docs/performance.md for how to read the file.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from repro.core.executor import run_synchronous
from repro.core.faults import random_configuration
from repro.experiments import e1_smm_convergence
from repro.graphs.generators import erdos_renyi_graph, path_graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.mis.sis_vectorized import VectorizedSIS
from repro.rng import ensure_rng

E1_SCALE = dict(
    families=("cycle", "path", "tree", "er-sparse"),
    sizes=(8, 16, 32, 64),
    trials=10,
    seed=101,
)

SMM = SynchronousMaximalMatching()


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def _full_scan_sis(vec, x):
    """The bench's own full-scan baseline: every node is re-evaluated
    every round through the kernel's public ``step``, until the
    fixpoint.  Returns ``(final_x, rounds)``."""
    rounds = 0
    while True:
        new_x = vec.step(x)
        if np.array_equal(new_x, x):
            return x, rounds
        x, rounds = new_x, rounds + 1


def test_bench_parallel(results_dir):
    report = {
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }

    # --- process fan-out: E1 sweep, jobs=1 vs jobs=4 -----------------
    serial, serial_s = _timed(lambda: e1_smm_convergence.run(jobs=1, **E1_SCALE))
    fanned, fanned_s = _timed(lambda: e1_smm_convergence.run(jobs=4, **E1_SCALE))
    assert serial.rows == fanned.rows  # bit-identical output
    fanout = {
        "experiment": "E1",
        "scale": {k: list(v) if isinstance(v, tuple) else v for k, v in E1_SCALE.items()},
        "serial_seconds": round(serial_s, 3),
        "jobs4_seconds": round(fanned_s, 3),
        "rows_identical": True,
        "note": (
            "fan-out speedup is bounded by cpu_count; on a single-core "
            "host the pool only adds dispatch overhead"
        ),
    }
    if (os.cpu_count() or 1) > 1:
        fanout["speedup"] = round(serial_s / fanned_s, 2)
    else:
        # a sub-1.0 "speedup" on a 1-CPU host would misread as a
        # regression; record *why* there is nothing to measure instead
        fanout["cpu_bound"] = True
    report["process_fanout"] = fanout

    # --- active-set: reference executor on E1-style workloads --------
    rng = ensure_rng(77)
    workloads = []
    for seed in range(3):
        g = erdos_renyi_graph(48, 0.08, rng=seed)
        workloads.extend((g, random_configuration(SMM, g, rng)) for _ in range(5))

    def sweep(active):
        for g, cfg in workloads:
            run_synchronous(SMM, g, cfg, active_set=active)

    _, full_s = _timed(lambda: sweep(False))
    _, act_s = _timed(lambda: sweep(True))
    report["active_set_executor"] = {
        "workload": "15 runs, SMM on ER(48, 0.08), random starts",
        "full_scan_seconds": round(full_s, 3),
        "active_seconds": round(act_s, 3),
        "speedup": round(full_s / act_s, 2),
    }

    # --- active-set: fault recovery on the vectorized SIS kernel -----
    # the self-stabilization scenario the paper motivates: a large
    # stable network suffers a local fault; recovery touches a small
    # frontier over many rounds, so frontier stepping skips almost all
    # the per-round work a full scan repeats
    recovery = []
    for n in (4096, 16384):
        g = path_graph(n)
        vec = VectorizedSIS(g)
        stable = vec.run().final_x
        faulty = stable.copy()
        faulty[n // 2] ^= 1  # flip one mid-path node
        (full_x, full_rounds), full_s = _timed(lambda: _full_scan_sis(vec, faulty))
        fast, act_s = _timed(lambda: vec.run(faulty))
        assert full_rounds == fast.rounds
        assert np.array_equal(full_x, fast.final_x)
        recovery.append(
            {
                "n": n,
                "rounds": fast.rounds,
                "full_scan_seconds": round(full_s, 3),
                "active_seconds": round(act_s, 3),
                "speedup": round(full_s / act_s, 2),
                "rounds_per_sec_active": round(fast.rounds / act_s, 1),
                "rounds_per_sec_full": round(full_rounds / full_s, 1),
            }
        )
    report["active_set_fault_recovery"] = {
        "workload": "VectorizedSIS, stable path + one flipped node",
        "series": recovery,
        "note": (
            "recovery keeps an O(1) dirty frontier over Theta(n) "
            "rounds — the active path's best case, with speedup "
            "growing in n; the full-scan baseline is the bench's own "
            "loop over VectorizedSIS.step"
        ),
    }

    # the algorithmic speedup must be real on every host: the recovery
    # frontier is a handful of nodes while the full scan pays O(n)
    # every round
    assert recovery[-1]["speedup"] >= 1.5

    path = results_dir / "BENCH_parallel.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\n{json.dumps(report, indent=2)}\n[written to {path}]")
