"""What every workload shares: the run context and the outcome record."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .clock import Host, Meter, SetupClock


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    clock: SetupClock
    host: Host
    root: str  # checkout root (holds src/repro)
    out_dir: str  # run outputs and traces, inside the checkout

    def deadline(self) -> float:
        """perf_counter() value at which measuring stops."""
        return time.perf_counter() + self.seconds

    def out_path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, f"{self.workload}-{self.seed}-{name}")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    faults: List[str] = field(default_factory=list)
    #: metric -> (value, unit)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: raw figures, calibration and anything else worth printing
    detail: Dict[str, object] = field(default_factory=dict)

    def fault(self, messages: List[str], limit: int = 20) -> None:
        room = limit - len(self.faults)
        if room > 0:
            self.faults.extend(messages[:room])
        if messages:
            self.detail["faults_total"] = int(self.detail.get("faults_total", 0)) + len(
                messages
            )

    @property
    def correct(self) -> bool:
        return not self.detail.get("faults_total")


def put_end_to_end(out: Outcome, ctx: Context, ops: Meter, calls: Meter,
                   rss_mb: float) -> None:
    """Fill ``out.metrics`` with every end-to-end metric: the rate of
    ``ops``'s pieces, the time per call of ``calls``'s pieces, peak
    resident memory and the normalised set-up time; the raw figures go
    to ``out.detail``."""
    rate, rate_raw = ops.rate()
    call, call_raw = calls.call_time()
    out.metrics["ops_per_s"] = (rate, "ops/s")
    out.metrics["call_ms"] = (1000 * call, "ms")
    out.metrics["peak_rss_mb"] = (rss_mb, "MB")
    out.metrics["setup_s"] = (ctx.clock.normalised(), "s")
    out.detail.update(
        ops_per_s_raw=rate_raw,
        call_ms_raw=1000 * call_raw,
        setup_s_raw=ctx.clock.raw_s,
        calibration_s=ctx.host.median(),
    )


def put_layer_metrics(out: Outcome, spans, counts, tally) -> None:
    """Fill ``out.metrics`` with every per-layer metric."""
    from .layers import PER_LAYER, layer_metrics

    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, value in layer_metrics(spans, counts, tally).items():
        out.metrics[name] = (value, units[name])
