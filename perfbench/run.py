#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload theorem-sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from
``src/repro`` of that checkout (nothing needs installing or building).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``); the line
before it carries raw figures, calibration times and, for traced runs,
the tracing overhead.  Exit status: 0 when the run completed, 2 when
the program is not there or the arguments are wrong.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("theorem-sweep", "served-sweep", "churn-stream", "beacon-sim")


def main(argv=None) -> int:
    from pbench.clock import Host, SetupClock, process_age

    age = process_age()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One CPU for the benchmark and every process it starts (the served
    # daemon and its forked trials inherit it): the host's two CPUs slow
    # down independently, so the calibration loop tracks the speed of
    # the work only when both run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            f"perfbench: no program at {src}/repro; run from a checkout root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)

    import importlib

    from pbench.common import Context

    module = importlib.import_module("pbench." + args.workload.replace("-", "_"))
    host = Host()
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        clock=SetupClock(_STARTED, age, host),
        host=host,
        root=ROOT,
        out_dir=os.path.join(HERE, "out"),
    )
    out = module.run(ctx)
    for fault in out.faults:
        print(f"perfbench: FAULT {fault}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **out.detail}))
    print(
        json.dumps(
            {
                "correct": out.correct,
                "attempted": int(out.attempted),
                "failed": int(out.failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
