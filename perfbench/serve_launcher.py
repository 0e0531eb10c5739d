#!/usr/bin/env python3
"""Start ``repro`` with the benchmark's layer wrappers installed.

    PYTHONPATH=src python3 perfbench/serve_launcher.py SPANS.json serve --port 0 ...

Installs the same span and counter wrappers as the traced mode of
``run.py`` inside this process, runs the ``repro`` command line with
the remaining arguments (the served-sweep workload starts its daemon
this way when traced), and writes the spans to ``SPANS.json`` when the
command returns, after a SIGTERM-driven graceful shutdown.  Spans of
forked trial processes are not collected.
"""

import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    path, argv = sys.argv[1], sys.argv[2:]
    from pbench import spans

    recorder = spans.install(spans.Recorder())
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        recorder.dump(path)


if __name__ == "__main__":
    sys.exit(main())
