"""The round driver, engine adapter and shared helpers of the NumPy kernels.

Both NumPy round kernels (:mod:`repro.matching.smm_vectorized` and
:mod:`repro.mis.sis_vectorized`) step a *frontier* of dirty nodes: after
each round only the nodes whose closed neighbourhood changed need their
decision recomputed.  :func:`drive` is the one loop that does so — plain
runs, telemetry runs, fault-campaign segments and stream segments differ
only in the frontier they seed and the observer they pass — and
:func:`run_engine` is the engine adapter every kernel backend registers.
The kernels supply only their per-round decisions.  The helpers here
turn a set of dirty rows of a CSR adjacency into flat entry positions
without any per-row Python loop, and provide the packed state layout
primitives shared by the single-run and batch kernels:

* :func:`state_dtype` — the narrowest signed integer dtype that can hold
  a dense pointer value plus the ``n`` "+inf" sentinel used by segmented
  minima (int32 up to ~2**31 nodes, int64 beyond).
* :func:`segment_min` / :func:`segment_any` — per-CSR-row reductions via
  ``ufunc.reduceat`` (contiguous segments), replacing the buffered
  ``ufunc.at`` scatter which is an order of magnitude slower.
* :func:`pack_bits` / :func:`unpack_bits` — bitset packing for the SIS
  0/1 membership arrays (8 nodes per byte, little bit order, so node
  ``k`` is bit ``k % 8`` of byte ``k // 8``).

See docs/performance.md ("State layout & memory") for the layout rules.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

#: Explicit NULL-pointer sentinel of the packed SMM layout (dense pointer
#: arrays hold values in ``{SMM_NULL} ∪ {0..n-1}``).
SMM_NULL = -1

#: Frontier size at or below which :func:`drive` takes the kernels'
#: pure-Python scalar decisions.
_SCALAR_MAX = 32


def state_dtype(n: int) -> np.dtype:
    """Narrowest signed dtype for dense pointer/index state over ``n`` nodes.

    Segmented minima use ``n`` itself as a "+inf" sentinel, so ``n`` (not
    just ``n - 1``) must be representable; int32 therefore covers
    ``n <= 2**31 - 2`` and anything larger falls back to int64.
    """
    return np.dtype(np.int32) if n <= 2**31 - 2 else np.dtype(np.int64)


def csr_entry_positions(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat CSR entry positions of ``rows``.

    Returns ``(positions, counts)`` where ``positions`` is the
    concatenation of ``range(indptr[r], indptr[r+1])`` over ``rows`` (in
    row order) and ``counts[j]`` is the degree of ``rows[j]``.  This is
    the standard "concatenate ranges" construction: one ``arange`` plus
    one ``repeat``, no Python loop.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    shift = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.arange(total, dtype=np.int64) + np.repeat(starts - shift, counts)
    return positions, counts


def closed_neighborhood(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Sorted unique dense indices of ``rows`` plus all their neighbours
    (``N[rows]`` — the next round's dirty set)."""
    positions, _ = csr_entry_positions(indptr, rows)
    return np.unique(np.concatenate((rows, indices[positions])))


def segment_min(vals: np.ndarray, indptr: np.ndarray, sentinel: int) -> np.ndarray:
    """Per-segment minimum of contiguous segments of ``vals``.

    ``indptr`` delimits ``len(indptr) - 1`` segments exactly like a CSR
    row pointer.  Empty segments yield ``sentinel``.  ``reduceat`` on an
    empty segment returns the *next* segment's first element (documented
    NumPy behaviour), so empty segments are masked explicitly, and start
    offsets are clipped into range for trailing empty segments.
    """
    nseg = indptr.size - 1
    if vals.size == 0:
        return np.full(nseg, sentinel, dtype=vals.dtype)
    empty = indptr[:-1] == indptr[1:]
    starts = np.minimum(indptr[:-1], vals.size - 1)
    out = np.minimum.reduceat(vals, starts)
    out[empty] = sentinel
    return out


def segment_any(mask: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment logical OR of contiguous segments of a boolean ``mask``.

    Same segment convention and empty-segment handling as
    :func:`segment_min`; empty segments yield ``False``.
    """
    nseg = indptr.size - 1
    if mask.size == 0:
        return np.zeros(nseg, dtype=bool)
    empty = indptr[:-1] == indptr[1:]
    starts = np.minimum(indptr[:-1], mask.size - 1)
    out = np.logical_or.reduceat(mask, starts)
    out[empty] = False
    return out


def pack_bits(x: np.ndarray) -> np.ndarray:
    """Pack a 0/1 membership array into a bitset (uint8, 8 nodes/byte).

    Little bit order: node ``k`` is bit ``k % 8`` of byte ``k // 8``.
    """
    return np.packbits(np.asarray(x, dtype=np.uint8), bitorder="little")


def unpack_bits(bits: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the first ``n`` bits as a uint8 0/1
    array."""
    return np.unpackbits(bits, count=n, bitorder="little")


# ----------------------------------------------------------------------
# the round driver
# ----------------------------------------------------------------------
#: ``on_round(counts, frontier_size, state)``: called after every applied
#: round with the per-rule counts (aligned with ``kernel.RULES``), the
#: size of the round's dirty frontier, and the live state.
Observer = Callable[[tuple, int, np.ndarray], None]


def drive(
    kernel,
    state: np.ndarray,
    budget: int,
    *,
    dirty=None,
    touched: Optional[np.ndarray] = None,
    on_round: Optional[Observer] = None,
):
    """Step ``state`` in place until no rule fires or ``budget`` rounds.

    The synchronous round loop of the SMM/SIS kernels, with the
    reference engine's structure: decide, stop when nobody moves
    (stabilized), stop at the budget, apply the moves and count them.
    ``kernel`` supplies the per-round decisions, each returning
    ``(movers, values, per-rule counts)``:

    * ``decide_all(state)`` — the flat full scan, taken for dense rounds
      (a dirty set of at least n/16 nodes);
    * ``decide_rows(state, rows)`` — the gathered scan of an ndarray of
      dirty rows;
    * ``decide_scalar(state, rows)`` — pure-Python decisions for a
      frontier of at most :data:`_SCALAR_MAX` nodes (a couple of list
      lookups beat ~20 NumPy calls of fixed overhead when only two or
      three nodes can move).

    ``dirty=None`` marks every node dirty (a cold start); a seeded
    ``dirty`` — e.g. the closed neighbourhood of a fault's sites —
    re-stabilizes at the containment radius instead.  Correctness of a
    seeded set: enabled nodes are always a subset of the dirty set —
    under the synchronous daemon every enabled node fires, every firing
    changes its node's state, and every changed node's closed
    neighbourhood is the next dirty set — so a node outside it was last
    seen idle and stays idle.  A dirty superset is always sound, which
    is why dense rounds simply mark every node dirty.  The dirty set is
    an ndarray or, after a scalar round, a sorted list with identical
    contents.

    ``touched``, when given, is a length-``n`` bool array accumulating
    every mover (the containment-radius input); ``on_round`` observes
    every applied round (:data:`Observer`).  Returns ``(stabilized,
    rounds, moves_by_rule, residual_dirty)`` — the residual seeds the
    next segment when the budget cut a run short.
    """
    n = kernel.n
    dense = max(1, n // 16)
    scalar_max = min(_SCALAR_MAX, dense - 1)
    if dirty is None:
        dirty = np.arange(n, dtype=np.int64)
    totals = [0] * len(kernel.RULES)
    rounds = 0
    stabilized = False
    while True:
        size = len(dirty)
        if size >= dense:
            movers, values, counts = kernel.decide_all(state)
        elif size <= scalar_max:
            rows = dirty if isinstance(dirty, list) else dirty.tolist()
            movers, values, counts = kernel.decide_scalar(state, rows)
        else:
            if isinstance(dirty, list):
                dirty = np.asarray(dirty, dtype=np.int64)
            movers, values, counts = kernel.decide_rows(state, dirty)
        if len(movers) == 0:
            stabilized = True
            break
        if rounds >= budget:
            break
        rounds += 1
        for k, count in enumerate(counts):
            totals[k] += count
        if isinstance(movers, list):
            for i, v in zip(movers, values):
                state[i] = v
        else:
            state[movers] = values
        if touched is not None:
            touched[movers] = True
        if on_round is not None:
            on_round(counts, size, state)
        if len(movers) >= dense:
            dirty = np.arange(n, dtype=np.int64)
        elif isinstance(movers, list):
            indptr, indices = kernel._scalar_csr()
            nxt = set(movers)
            for i in movers:
                nxt.update(indices[indptr[i]:indptr[i + 1]])
            dirty = sorted(nxt)
        else:
            dirty = closed_neighborhood(kernel._indptr, kernel._indices, movers)
    return stabilized, rounds, dict(zip(kernel.RULES, totals)), dirty


def observer(recorder, kernel) -> Observer:
    """The :func:`drive` observer feeding a telemetry recorder: each
    round's per-rule counts, its frontier size and — for kernels with a
    ``census`` — the post-round Fig. 2 node-type census (O(m) array
    work per round)."""
    census = getattr(kernel, "census", None)
    names = kernel.RULES

    def on_round(counts, frontier: int, state: np.ndarray) -> None:
        recorder.on_round(
            dict(zip(names, counts)),
            frontier,
            None if census is None else census(state),
        )

    return on_round


# ----------------------------------------------------------------------
# the engine adapter
# ----------------------------------------------------------------------
def run_engine(
    kernel_cls,
    protocol,
    graph,
    config=None,
    *,
    rng=None,
    max_rounds: Optional[int] = None,
    record_history: bool = False,
    raise_on_timeout: bool = False,
    active_set: bool = True,
    telemetry: bool = False,
    fault_plan=None,
):
    """The engine backend of every NumPy kernel (``kernel_cls`` bound at
    registration, :mod:`repro.engine.registry`).

    Validates the initial configuration and applies the default round
    budget exactly like the reference engine, steps the kernel, and
    returns a summary-only :class:`~repro.engine.result.RunResult`
    (``move_log``/``history`` stay ``None``).  ``record_history`` and
    ``active_set`` are accepted for the uniform runner signature:
    selection never asks a kernel for history, and frontier stepping is
    identical to a full scan.  Kernels that supply per-round decisions
    step through :func:`drive`; the randomized Luby kernel keeps its
    own loop (it draws once per round and checks quiescence before
    drawing) and consumes ``rng`` draw for draw like the reference
    engine.  With ``telemetry=True`` an :func:`observer` records the
    per-round rule counters, frontier sizes and (SMM) census into
    ``result.telemetry``.  With a ``fault_plan`` the run is a segmented
    fault campaign on the dense arrays
    (:class:`repro.resilience.vector.VectorAdapter`), byte-identical in
    its counters with the reference campaign.
    """
    from repro.core.executor import _default_round_budget, _resolve_config
    from repro.engine.result import RunResult
    from repro.errors import StabilizationTimeout

    initial = _resolve_config(protocol, graph, config)
    budget = max_rounds if max_rounds is not None else _default_round_budget(graph)
    suffix = ""
    if fault_plan is not None:
        from repro.resilience.campaign import drive_campaign
        from repro.resilience.vector import VectorAdapter

        summary, tele = drive_campaign(
            protocol,
            VectorAdapter(protocol, graph, initial, kernel_cls),
            fault_plan,
            budget=budget,
            backend="vectorized",
        )
        stabilized, rounds = summary["stabilized"], summary["rounds"]
        moves_by_rule, final = summary["moves_by_rule"], summary["final"]
        legitimate = summary["legitimate"]
        suffix = " (fault campaign)"
    else:
        kernel = kernel_cls(graph)
        state = kernel.encode(initial)
        recorder = on_round = None
        if telemetry:
            from repro.observability import TelemetryRecorder

            recorder = TelemetryRecorder(
                protocol.name, "synchronous", "vectorized", protocol.rule_names()
            )
            if hasattr(kernel, "census"):
                recorder.record_census(kernel.census(state))
            recorder.begin_rounds()
            on_round = observer(recorder, kernel)
        if hasattr(kernel, "decide_all"):
            stabilized, rounds, moves_by_rule, _ = drive(
                kernel, state, budget, on_round=on_round
            )
        else:
            res = kernel.run(state, rng=rng, max_rounds=budget, on_round=on_round)
            stabilized, rounds = res.stabilized, res.rounds
            moves_by_rule, state = res.moves_by_rule, res.final_x
        if recorder is not None:
            recorder.begin_finalize()
        final = kernel.decode(state)
        legitimate = protocol.is_legitimate(graph, final)
        tele = None if recorder is None else recorder.finish()
    result = RunResult(
        protocol_name=protocol.name,
        daemon="synchronous",
        stabilized=stabilized,
        rounds=rounds,
        moves=sum(moves_by_rule.values()),
        moves_by_rule=moves_by_rule,
        initial=initial,
        final=final,
        legitimate=legitimate,
        backend="vectorized",
        telemetry=tele,
    )
    if raise_on_timeout and not stabilized:
        raise StabilizationTimeout(
            f"{protocol.name} exceeded {budget} synchronous rounds{suffix}",
            result,
        )
    return result
