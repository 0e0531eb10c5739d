#!/usr/bin/env python3
"""Check that a workload's end-to-end metrics repeat.

    python3 perfbench/steady.py --workload churn-stream --runs 5

Makes two sets of ``--runs`` untraced runs of one workload, alternating
between the sets and giving every run its own seed, then prints for
each end-to-end metric both sets' medians and quartiles, the spread
(interquartile distance over the median) of each set and of all runs
together, and the drift of the second median against the first in the
metric's "worse" direction, each against the metric's bound in
BENCHMARK.json.  A metric is steady when the spread of all runs
(except for ``setup_s``) stays within a third of its bound and the
drift stays within the bound.  Exit status 1 when a run fails or is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def _run(workload, seed, seconds):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sets = ([], [])
    ok = True
    for k in range(2 * args.runs):
        seed = args.first_seed + k
        detail, result = _run(args.workload, seed, seconds)
        sets[k % 2].append((seed, detail, result))
        ok = ok and result["correct"] and result["failed"] == 0
        print(
            f"set {k % 2 + 1} seed {seed}: "
            + ", ".join(
                f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
            )
            + f" attempted={result['attempted']} failed={result['failed']} | "
            + ", ".join(f"{key}={v:.4g}" for key, v in detail.items()
                        if key.endswith("_raw") or key == "calibration_s"),
            flush=True,
        )

    report = {"workload": args.workload, "seconds": seconds, "runs": 2 * args.runs,
              "metrics": {}}
    names = list(sets[0][0][2]["metrics"])
    print(f"\n{'metric':<18} {'set':>4} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for name in names:
        bound = bounds[name]["bound"]
        lower = bounds[name]["better"] == "lower"
        rows = {}
        for label, runs in (("1", sets[0]), ("2", sets[1]),
                            ("all", sets[0] + sets[1])):
            values = [r[2]["metrics"][name]["value"] for r in runs]
            rows[label] = _spread(values)
            med, q1, q3, spread = rows[label]
            print(f"{name:<18} {label:>4} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>7.3f} {bound:>6}")
        m1, m2 = rows["1"][0], rows["2"][0]
        drift = (m2 - m1) / m1 if lower else (m1 - m2) / m1
        spreads_ok = name == "setup_s" or rows["all"][3] <= bound / 3
        steady = spreads_ok and drift <= bound
        ok = ok and steady
        print(f"{name:<18} drift of set 2 against set 1: {drift:+.3f} "
              f"({'steady' if steady else 'NOT steady'})")
        report["metrics"][name] = {
            "bound": bound,
            "sets": {k: dict(zip(("median", "q1", "q3", "spread"), v))
                     for k, v in rows.items()},
            "drift": drift,
            "steady": steady,
        }
    shares = {r[2]["failed"] / r[2]["attempted"] for s in sets for r in s}
    print(f"failed shares seen: {sorted(shares)}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{args.workload}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return 0 if ok and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
