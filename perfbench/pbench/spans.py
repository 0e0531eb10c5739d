"""Layer tracing from outside the program.

The traced mode wraps public functions and methods of each layer with a
span recorder.  A span is ``(name, start, end, parent)``, where the
parent is the enclosing span on the same thread; spans stay in memory
and are written out when the run ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans.

A module-level function is replaced both where it is defined and in
every loaded ``repro`` module that imported it by name (for example
``streaming.engine`` binds ``containment_radius`` at import), so each
caller finds the wrapper where it looks the name up.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[str, float, float, Optional[int]]


class _ThreadLog:
    """One thread's spans, open-span stack and call counts.  Each
    thread writes only its own log, so recording takes no lock (a lock
    held by another thread at ``fork`` would hang the child)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()


class Recorder:
    """In-memory span and call-count store (thread-aware)."""

    def __init__(self) -> None:
        self.missing: List[str] = []
        #: wrapped calls are recorded only while this is true: from
        #: install to uninstall (a wrapper bound by name in a module
        #: imported meanwhile outlives uninstall), and not while the
        #: benchmark's own verification calls into the program
        self.recording = False
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            self._logs.append(log)
        return log

    @property
    def spans(self) -> List[Span]:
        """Every finished span, thread logs concatenated."""
        merged, _ = merge((log.spans, log.counts) for log in list(self._logs))
        return merged

    @property
    def counts(self) -> Counter:
        total: Counter = Counter()
        for log in list(self._logs):
            total.update(log.counts)
        return total

    # -- wrappers -------------------------------------------------------
    def spanned(self, name: str, fn: Callable, when=None) -> Callable:
        """``fn`` recording a span named ``name`` per call (only calls
        for which ``when(*args)`` is true, if given)."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.recording or (when is not None and not when(*args)):
                return fn(*args, **kwargs)
            log = recorder._log()
            parent = log.stack[-1] if log.stack else None
            index = len(log.spans)
            log.spans.append((name, 0.0, 0.0, parent))
            log.stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                log.stack.pop()
                log.spans[index] = (name, start, end, parent)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        recorder = self
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.recording:
                log = getattr(local, "log", None) or recorder._log()
                log.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------
    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_method(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """``target`` is ``"module:Class.method"``; the method is looked
        up through the class (it may be inherited) and set on it."""
        module_name, qual = target.split(":")
        cls_name, attr = qual.split(".")
        try:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = getattr(cls, attr)
        except (ImportError, AttributeError):
            self._missing(target)
            return
        if attr in cls.__dict__:
            self._undo.append((cls, attr, cls.__dict__[attr]))
        else:
            self._undo.append((cls, attr, None))
        setattr(cls, attr, make(original))

    def wrap_function(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """``target`` is ``"module:function"``; every loaded ``repro``
        module holding the same function object gets the wrapper."""
        module_name, attr = target.split(":")
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self._missing(target)
            return
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                getattr(module, attr, None) is original
            ):
                self._replace(module, attr, wrapper)

    def _missing(self, target: str) -> None:
        if target not in self.missing:
            self.missing.append(target)

    def uninstall(self) -> None:
        self.recording = False
        for owner, attr, old in reversed(self._undo):
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    # -- output ---------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def _csr_missing(graph, *args) -> bool:
    return getattr(graph, "_csr", True) is None


#: (kind, target, span or counter name[, condition]).  ``kind`` is
#: "method" / "function", the name ends in "#" for a call counter.
TARGETS: Tuple[tuple, ...] = (
    ("method", "repro.graphs.graph:Graph.adjacency_arrays", "graphs.csr_build", _csr_missing),
    ("method", "repro.graphs.graph:Graph.dense_index", "graphs.csr_build", _csr_missing),
    ("method", "repro.graphs.graph:Graph.with_updates", "graphs.with_updates"),
    ("method", "repro.graphs.graph:Graph.neighbors", "graphs.neighbors#"),
    ("function", "repro.engine.select:run", "engine.run"),
    ("function", "repro.core.executor:run_synchronous", "core.executor"),
    ("method", "repro.matching.smm_vectorized:VectorizedSMM.run", "kernels.vector"),
    ("method", "repro.matching.smm_vectorized:VectorizedSMM.segment_active", "kernels.vector"),
    ("method", "repro.mis.sis_vectorized:VectorizedSIS.run", "kernels.vector"),
    ("method", "repro.mis.sis_vectorized:VectorizedSIS.segment_active", "kernels.vector"),
    ("method", "repro.matching.smm_vectorized:VectorizedSMM.__init__", "kernels.builds#"),
    ("method", "repro.mis.sis_vectorized:VectorizedSIS.__init__", "kernels.builds#"),
    ("method", "repro.matching.smm_batch:BatchSMM.run_batch", "kernels.batch"),
    ("method", "repro.mis.sis_batch:BatchSIS.run_batch", "kernels.batch"),
    ("method", "repro.matching.smm_vectorized:VectorizedSMM.encode", "kernels.codec"),
    ("method", "repro.matching.smm_vectorized:VectorizedSMM.decode", "kernels.codec"),
    ("method", "repro.mis.sis_vectorized:VectorizedSIS.encode", "kernels.codec"),
    ("method", "repro.mis.sis_vectorized:VectorizedSIS.decode", "kernels.codec"),
    ("method", "repro.matching.smm_batch:BatchSMM.encode_batch", "kernels.codec"),
    ("method", "repro.matching.smm_batch:BatchSMM.decode_batch", "kernels.codec"),
    ("method", "repro.mis.sis_batch:BatchSIS.encode_batch", "kernels.codec"),
    ("method", "repro.mis.sis_batch:BatchSIS.decode_batch", "kernels.codec"),
    ("method", "repro.matching.smm:MatchingProtocolBase.is_legitimate", "protocol.legitimacy"),
    ("method", "repro.mis.sis:SynchronousMaximalIndependentSet.is_legitimate", "protocol.legitimacy"),
    ("method", "repro.parallel.trial_runner:TrialRunner.map", "parallel.map"),
    ("function", "repro.parallel.trial_runner:spec_fingerprint", "parallel.fingerprint"),
    ("function", "repro.parallel.trial_runner:spec_fingerprint", "parallel.fingerprint#"),
    ("method", "multiprocessing.process:BaseProcess.start", "parallel.process_starts#"),
    ("function", "repro.analysis.containment:containment_radius", "analysis.containment"),
    ("function", "repro.analysis.serialize:execution_to_dict", "analysis.serialize"),
    ("function", "repro.analysis.serialize:execution_from_dict", "analysis.serialize"),
    ("function", "repro.analysis.serialize:trial_spec_to_dict", "analysis.serialize"),
    ("function", "repro.analysis.serialize:trial_spec_from_dict", "analysis.serialize"),
    ("method", "repro.streaming.engine:StreamEngine.report", "streaming.report"),
    ("method", "repro.serve.store:ResultStore.get", "serve.store_read"),
    ("method", "repro.serve.store:ResultStore.fulfill", "serve.store_write"),
    ("method", "repro.serve.jobs:JobManager.start", "serve.start"),
    ("method", "repro.adhoc.network:AdHocNetwork.run_until", "adhoc.run_until"),
    ("method", "repro.adhoc.network:AdHocNetwork.true_graph", "adhoc.true_graph"),
    ("method", "repro.adhoc.network:AdHocNetwork.is_legitimate", "adhoc.legitimacy_checks#"),
)


def install(recorder: Recorder) -> Recorder:
    """Wrap every target (importing the program's modules first, so
    name bindings made at import time are found and replaced)."""
    for entry in TARGETS:
        importlib.import_module(entry[1].split(":")[0])
    for entry in TARGETS:
        kind, target, name = entry[:3]
        when = entry[3] if len(entry) > 3 else None
        if name.endswith("#"):
            make = functools.partial(recorder.counted, name[:-1])
        else:
            make = functools.partial(recorder.spanned, name, when=when)
        if kind == "method":
            recorder.wrap_method(target, make)
        else:
            recorder.wrap_function(target, make)
    recorder.recording = True
    return recorder


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per span name: total duration minus time covered by children."""
    spans = list(spans)
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: Dict[str, float] = {}
    for k, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - covered[k]
    return out


def inclusive_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per span name: total duration of its outermost spans (a span
    nested in one of the same name is not counted twice)."""
    spans = list(spans)
    out: Dict[str, float] = {}
    for name, start, end, parent in spans:
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def load(path: str) -> Tuple[List[Span], Dict[str, int]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    spans = [(s[0], s[1], s[2], s[3]) for s in data["spans"]]
    return spans, dict(data["counts"])


def merge(
    parts: Iterable[Tuple[List[Span], Dict[str, int]]]
) -> Tuple[List[Span], Counter]:
    """Concatenate span lists from several processes (parent indices
    are shifted) and add their counters."""
    spans: List[Span] = []
    counts: Counter = Counter()
    for part_spans, part_counts in parts:
        base = len(spans)
        spans.extend(
            (n, s, e, None if p is None else p + base)
            for n, s, e, p in part_spans
        )
        counts.update(part_counts)
    return spans, counts
