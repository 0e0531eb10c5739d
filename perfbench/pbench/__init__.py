"""End-to-end benchmark of the repro package: workloads, verifiers,
host-speed normalisation and layer tracing.  Entry point: ``run.py``."""
