"""Fused, tape-free batched inference kernels for the recurrent cells.

The autograd :class:`~repro.nn.tensor.Tensor` path advances the CLSTM one
time step at a time and allocates a graph node for every intermediate value.
Inference (anomaly scoring over live streams) only needs the forward values,
and training only needs the handful of cached activations that the analytic
BPTT in :mod:`repro.nn.backprop` consumes — neither needs the tape.  This
module provides the inference fast path: NumPy forwards that

* stack the four gate weight matrices into a single ``(K, 4H)`` matrix so
  each time step costs one GEMM per recurrent input instead of four;
* split the LSTM matmul cuDNN-style into a time-parallel input part and a
  sequential recurrent part.  The offline full-window entry projects the
  whole ``(batch, time, features)`` input in one large GEMM per cell up
  front; the serving entry never re-projects a window — ``x_t·W_x + b``
  depends only on the segment and the weights, so each :class:`Segment`
  carries **one joint gate-input row** for both cells, projected once per
  pair of weight variants and gathered into every window it appears in
  (:func:`coupled_pair_forward_gated`);
* run **one sweep for every cell of a batch** — one step routine
  (:func:`_sweep`) under all three entry points, over the joint layout
  below, so the activation passes and the state update run once over
  ``(batch, H1 + H2)`` instead of once per cell;
* never allocate autograd nodes, and run their per-batch state entirely
  inside a pooled :class:`Workspace` of preallocated buffers (``out=`` ufuncs
  and GEMMs), so steady-state serving performs **zero large array
  allocations per batch** — only the final hidden-state copies that escape
  to the caller are allocated;
* compute at ``float64`` (default) or opt-in ``float32`` precision
  (:mod:`repro.nn.backend` holds the precision contract).

Joint layout
------------
With hidden sizes ``H1`` (influencer) and ``H2`` (audience), ``Hs = H1 + H2``
(a plain LSTM is the one-cell case, ``Hs = H``):

* a **gate-input row** is ``(4·Hs,)``, cell-major: the influencer's
  ``x·W_x + b`` in stacked gate order ``[input, forget, cell, output]``
  (``4·H1`` values) followed by the audience's (``4·H2``).  A batch of them
  is the single ``(B, q, 4·Hs)`` array the sweep consumes;
* the **pre-activation** of a step is ``(B, 4·Hs)`` in the same column
  order, so each cell's GEMMs write a column range of it through today's
  stacked weights, unchanged in shape;
* the **gates** of a step are gate-major, ``(4, B, Hs)``: each gate is one
  contiguous ``(B, Hs)`` block holding the influencer's ``H1`` columns and
  then the audience's.  One strided copy per cell moves the pre-activation
  there; the sigmoid/tanh passes and ``c_t = i·ĉ + f·c_{t-1}``,
  ``h_t = o·tanh(c_t)`` then run on contiguous joint blocks.  ``[h | g]``
  and ``[c_i | c_a]`` are ``(B, Hs)``; each cell's state is a column view.

A :class:`Workspace` holds exactly these buffers (plus a ``(B, 4·Hs)``
output for the partner GEMMs and the input cast buffers of the reduced-
precision path) and the per-cell views into them, built once per shape.

Numerical contract: at ``float64`` (the default) the kernels are **bitwise
identical** to the reference implementations frozen in
``tests/frozen_kernels.py``.  Every GEMM keeps the operand shapes and the
``K`` order of the frozen kernels (only leading dimensions differ), every
elementwise expression is evaluated as written there, and the three addends
of a pre-activation keep their order ``(h·W_h + x_t·W_x) + g·W_p``.  Step 0
of a sweep that starts from the zero state skips its recurrent GEMMs: with
``h = g = 0`` every product is ``±0`` and every dot product sums to ``+0.0``
(finite weights), so the frozen pre-activation is ``x_0 + 0.0`` — which is
what the step evaluates, ``-0.0`` inputs included; a caller-supplied
``state=`` never skips.  Against the per-timestep ``Tensor`` path the
historical ≤1e-8 equivalence continues to hold.  The ``float32`` path is
tolerance-bounded against the ``float64`` oracle
(:data:`repro.nn.backend.FLOAT32_RTOL` / :data:`~repro.nn.backend.FLOAT32_ATOL`).

Layout convention: gate columns are ordered ``[input, forget, cell, output]``
in every stacked matrix, and the stacked weight rows follow the cells'
concatenation order (``[h, x]`` for :class:`LSTMCell`, ``[h, partner, x]``
for :class:`CoupledLSTMCell`).

Workspace lifetime rules
------------------------
Workspaces belong to the process, not to a model: each thread keeps one
pool (:data:`_thread_pool`, a ``threading.local``) shared by every model it
runs — every retained published version, the offline calibration and the
recalibration forwards.  A workspace is keyed by ``(batch, time)`` within
its model *geometry* (dtype plus each cell's input and hidden sizes and
whether it has a partner block), so all versions of one architecture share
one set of buffers per shape.  Each geometry keeps at most
:data:`MAX_WORKSPACES_PER_GEOMETRY` shapes and a thread keeps at most
:data:`MAX_WORKSPACE_GEOMETRIES` geometries, both LRU, so a process serving
several model sizes does not thrash and a process that trains many sizes
does not grow without bound.

No kernel call puts a workspace of more than :data:`FORWARD_BLOCK` windows
into the pool: an offline forward over a whole data set (calibration,
recalibration, the drift seed's hidden states, evaluation, the baselines)
runs in blocks of that many windows, zero-padding its tail, inside the
workspace a full serving batch uses, and writes its results into arrays of
the whole call.

Sharing is safe because buffers hold no weight content (weight rebinds and
hot swaps never stale them) and a kernel call borrows its workspace for
that call only: it resolves the workspace when it starts, and every state
that escapes is a copy.  A sealed model keeps its resolved weight variants
(:class:`_Plan`), never a workspace, so neither a retained version nor an
evicted entry pins scratch.  No result aliases the pool.
Per-thread pools keep concurrent shard forwards (the thread-parallel
executor) race-free and each worker thread allocation-free in steady state;
:func:`clear_thread_workspaces` empties the calling thread's pool (tests and
cold-start benchmarks).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, NamedTuple, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .recurrent import CoupledLSTMCell, LSTMCell

__all__ = [
    "FusedGateWeights",
    "Segment",
    "Workspace",
    "fuse_lstm_cell",
    "fuse_coupled_cell",
    "fused_cache_fresh",
    "prewarm_cell",
    "transplant_fused_cache",
    "lstm_forward_fused",
    "coupled_pair_forward_fused",
    "coupled_pair_forward_gated",
    "serving_plan",
    "forward_planned",
    "project_rows",
    "workspace_stats",
    "reset_workspace_stats",
    "clear_thread_workspaces",
]

_FLOAT64 = np.dtype(np.float64)
_FLOAT32 = np.dtype(np.float32)

# The dtype-name key of the canonical cache entry every other variant is
# derived from.  The primary is always built in float64 from the live
# parameter arrays.
_PRIMARY_KEY = "float64"

MAX_WORKSPACES_PER_GEOMETRY = 8
"""LRU capacity of one model geometry's shapes in a thread's workspace pool."""

MAX_WORKSPACE_GEOMETRIES = 8
"""LRU capacity of the model geometries in a thread's workspace pool."""

PROJECTION_BLOCK = 32
"""Row count of every serving-side projection GEMM (see :func:`project_rows`)."""

FORWARD_BLOCK = 64
"""Window count of every block of a forward over more windows than this
(the ``ServingConfig.max_batch_size`` default; see :func:`_forward_blocks`)."""


def _sigmoid_in_place(x) -> None:
    """The same clipped sigmoid, computed fully in place.

    ``maximum``/``minimum`` are the two halves of ``clip`` and ``reciprocal``
    replaces the ``1.0 / _`` division — the same IEEE operations, bitwise.
    """
    np.maximum(x, -60.0, out=x)
    np.minimum(x, 60.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)


@dataclass(frozen=True)
class FusedGateWeights:
    """Gate weights of one cell, stacked for single-GEMM evaluation.

    Attributes
    ----------
    w_hidden:
        ``(H, 4H)`` recurrent weights (rows acting on ``h_{t-1}``).
    w_partner:
        ``(P, 4H)`` partner-stream weights, or ``None`` for a plain LSTM
        cell or a coupled cell with ``use_partner=False``.
    w_input:
        ``(D, 4H)`` input weights (rows acting on ``x_t``).
    bias:
        ``(4H,)`` stacked gate biases.
    hidden_size:
        ``H`` — used to split the fused pre-activation back into gates.
    """

    w_hidden: np.ndarray
    w_partner: Optional[np.ndarray]
    w_input: np.ndarray
    bias: np.ndarray
    hidden_size: int


class Segment:
    """One ingested stream segment: the unit of serving state.

    ``rows`` is the ``(action, interaction)`` feature pair.  ``gate`` is
    ``None`` or ``(variant_i, variant_a, row)``: the segment's one joint
    gate-input row ``(4·H1 + 4·H2,)`` — the influencer cell's ``x·W_x + b``
    followed by the audience cell's — and the two :class:`FusedGateWeights`
    objects that produced it.  The tags are compared by identity and the
    entry hits only when both match, so a hot swap that changed either
    cell's weights (a new variant object) misses and re-projects, while a
    same-weights republish (transplanted variants) keeps hitting.
    Projections are never persisted.
    """

    __slots__ = ("rows", "gate")

    def __init__(self, action: np.ndarray, interaction: np.ndarray) -> None:
        self.rows = (action, interaction)
        self.gate: Optional[tuple] = None


def _stack_gates(cell, hidden_rows: slice, partner_rows: Optional[slice], input_rows: slice) -> FusedGateWeights:
    weights = [cell.w_input.data, cell.w_forget.data, cell.w_cell.data, cell.w_output.data]
    stacked = np.concatenate(weights, axis=1)
    bias = np.concatenate(
        [cell.b_input.data, cell.b_forget.data, cell.b_cell.data, cell.b_output.data]
    )
    return FusedGateWeights(
        w_hidden=np.ascontiguousarray(stacked[hidden_rows]),
        w_partner=(np.ascontiguousarray(stacked[partner_rows]) if partner_rows is not None else None),
        w_input=np.ascontiguousarray(stacked[input_rows]),
        bias=bias,
        hidden_size=cell.hidden_size,
    )


def _cell_sources(cell) -> tuple:
    """The eight parameter arrays whose identity keys the fused cache."""
    return (
        cell.w_input.data,
        cell.w_forget.data,
        cell.w_cell.data,
        cell.w_output.data,
        cell.b_input.data,
        cell.b_forget.data,
        cell.b_cell.data,
        cell.b_output.data,
    )


def _cached_fuse(cell, builder) -> FusedGateWeights:
    """Memoise the stacked weights of ``cell`` until its parameters change.

    Every write path in the code base (optimiser steps, ``load_state_dict``,
    model merging) rebinds ``parameter.data`` to a fresh array, so identity of
    the eight source arrays is a sound staleness check.  The cache holds
    references to those arrays, which keeps their identities stable while the
    entry is alive.  For micro-batch serving this removes the dominant cost of
    small-batch inference (re-stacking ~1-2 MB of weights per request).

    The cache is a *variant map*: the canonical float64 stack (built by
    ``builder``, returned here) plus any derived dtype casts
    (:func:`_fused_variant`), all invalidated together when the parameters
    change.
    """
    sources = _cell_sources(cell)
    cache = getattr(cell, "_fused_cache", None)
    if cache is not None and all(held is live for held, live in zip(cache[0], sources)):
        return cache[1][_PRIMARY_KEY]
    variants: Dict[str, FusedGateWeights] = {_PRIMARY_KEY: builder()}
    cell._fused_cache = (sources, variants)
    return variants[_PRIMARY_KEY]


def _fused_variant(cell, primary: FusedGateWeights, dtype: np.dtype) -> FusedGateWeights:
    """The ``dtype`` cast of ``cell``'s fused weights, cached.

    Derived casts live in the same variant map as the primary (so a weight
    rebind invalidates all of them at once) and are built lazily: the first
    float32 batch after a swap pays one ``astype``, and every later batch
    reuses it.  Must be called after the fuse accessor
    (:func:`fuse_lstm_cell` / :func:`fuse_coupled_cell`) refreshed the cache.
    """
    key = dtype.name
    if key == _PRIMARY_KEY:
        return primary
    variants = cell._fused_cache[1]
    variant = variants.get(key)
    if variant is None:
        variant = FusedGateWeights(
            w_hidden=np.asarray(primary.w_hidden, dtype=dtype),
            w_partner=(
                np.asarray(primary.w_partner, dtype=dtype)
                if primary.w_partner is not None
                else None
            ),
            w_input=np.asarray(primary.w_input, dtype=dtype),
            bias=np.asarray(primary.bias, dtype=dtype),
            hidden_size=primary.hidden_size,
        )
        variants[key] = variant
    return variant


def fused_cache_fresh(cell) -> bool:
    """Whether ``cell`` holds a fused-weight cache built from its live parameters.

    This is the explicit form of the staleness check ``_cached_fuse`` applies
    implicitly: the cache is fresh exactly when every held source array is
    still the identical object bound to the cell's parameters.  The serving
    registry uses it to assert the snapshot-pinning invariant (a published
    snapshot's caches must never be rebuilt while it serves).
    """
    cache = getattr(cell, "_fused_cache", None)
    if cache is None:
        return False
    return all(held is live for held, live in zip(cache[0], _cell_sources(cell)))


def prewarm_cell(cell) -> FusedGateWeights:
    """Explicitly (re)build and attach the fused-weight cache of ``cell``.

    Publish paths call this once per swap so the first batch served by a new
    model version does not pay the re-stacking cost mid-request.  Dispatches
    on the cell type: :class:`CoupledLSTMCell` carries a ``partner_size``,
    plain :class:`LSTMCell` does not.
    """
    if hasattr(cell, "partner_size"):
        return fuse_coupled_cell(cell)
    return fuse_lstm_cell(cell)


def transplant_fused_cache(source_cell, target_cell) -> bool:
    """Adopt ``source_cell``'s fused-weight cache for ``target_cell``.

    The snapshot/publish path copies a model's parameter *values* into fresh
    arrays (``load_state_dict``), so the identity-keyed cache of the copy
    misses and every publish used to re-concatenate ~1-2 MB of unchanged
    weights.  When the source's cache is fresh — i.e. the stacked weights
    were built from exactly the values the target just copied — the stacked
    arrays themselves are still valid for the target, so they are re-keyed to
    the target's own parameter identities instead of being rebuilt.  Every
    derived dtype variant rides along for free.

    Caller contract: ``target_cell``'s parameter values equal
    ``source_cell``'s (as after ``load_state_dict(source.state_dict())``).
    Returns ``False`` (and transplants nothing) when the source cache is
    missing or stale — the target's next fuse rebuilds from scratch, which is
    always correct.
    """
    if not fused_cache_fresh(source_cell):
        return False
    variants = getattr(source_cell, "_fused_cache")[1]
    # Shallow-copy the variant map so variants derived later on one cell do
    # not leak into the other; the FusedGateWeights entries are immutable and
    # safe to share.
    target_cell._fused_cache = (_cell_sources(target_cell), dict(variants))
    return True


def fuse_lstm_cell(cell: "LSTMCell") -> FusedGateWeights:
    """Stack an :class:`LSTMCell`'s gate weights for fused evaluation."""
    h = cell.hidden_size
    return _cached_fuse(
        cell, lambda: _stack_gates(cell, slice(0, h), None, slice(h, h + cell.input_size))
    )


def fuse_coupled_cell(cell: "CoupledLSTMCell") -> FusedGateWeights:
    """Stack a :class:`CoupledLSTMCell`'s gate weights for fused evaluation.

    When ``use_partner`` is disabled the partner block is dropped entirely —
    the tape path multiplies it by zeros, which contributes exactly 0.
    """
    h, p = cell.hidden_size, cell.partner_size
    partner_rows = slice(h, h + p) if cell.use_partner else None
    return _cached_fuse(
        cell,
        lambda: _stack_gates(cell, slice(0, h), partner_rows, slice(h + p, h + p + cell.input_size)),
    )


# ---------------------------------------------------------------------- #
# Workspace pool
# ---------------------------------------------------------------------- #
class _CellViews(NamedTuple):
    """One cell's windows into the joint buffers of a :class:`Workspace`."""

    hidden: np.ndarray
    """``(B, H)`` columns of the joint hidden state."""
    pre: np.ndarray
    """``(B, 4H)`` columns of the joint pre-activation (recurrent GEMM output)."""
    partner: Optional[np.ndarray]
    """``(B, 4H)`` columns of the joint partner GEMM output, or ``None`` for a
    cell without a partner block."""
    pre_by_gate: np.ndarray
    """``pre`` seen gate-major, ``(4, B, H)`` — the source of the gate copy."""
    gates: np.ndarray
    """``(4, B, H)`` columns of the joint gate buffer — its destination."""
    x_flat: np.ndarray
    """``(B·T, 4H)`` columns of the flattened gate inputs (projection output)."""
    cast: Optional[np.ndarray]
    """``(B, T, D)`` input cast buffer of the reduced-precision path."""


class Workspace:
    """Preallocated per-shape buffers one fused forward runs inside.

    One workspace serves one ``(batch, time, sizes, dtype)`` shape on one
    thread, for every cell of the batch at once (see "Joint layout" in the
    module docstring).  All buffers are allocated once with an explicit
    dtype and reused via ``out=`` — a steady-state batch touches them
    without a single large allocation.  ``cells`` holds each cell's views
    into them, so a step creates no view objects either.
    """

    __slots__ = ("hidden", "cell", "scratch", "gates", "pre", "x_proj", "cells", "partner_sums")

    def __init__(
        self,
        dtype: np.dtype,
        batch: int,
        time_steps: int,
        cells: Tuple[FusedGateWeights, ...],
        *,
        cast_inputs: bool,
    ) -> None:
        total = sum(fused.hidden_size for fused in cells)
        self.hidden = np.empty((batch, total), dtype=dtype)
        self.cell = np.empty((batch, total), dtype=dtype)
        self.scratch = np.empty((batch, total), dtype=dtype)
        # Gate-major: activation passes on the strided gate columns of `pre`
        # would run row by row, so each step copies them (one strided copy
        # per cell) into contiguous (B, Hs) blocks first.
        self.gates = np.empty((4, batch, total), dtype=dtype)
        self.pre = np.empty((batch, 4 * total), dtype=dtype)
        partnered = [fused.w_partner is not None for fused in cells]
        partner = np.empty((batch, 4 * total), dtype=dtype) if any(partnered) else None
        self.x_proj = np.empty((batch, time_steps, 4 * total), dtype=dtype)
        x_flat = self.x_proj.reshape(batch * time_steps, 4 * total)
        views = []
        start = 0
        for fused, has_partner in zip(cells, partnered):
            stop = start + fused.hidden_size
            columns = slice(4 * start, 4 * stop)
            pre = self.pre[:, columns]
            views.append(
                _CellViews(
                    hidden=self.hidden[:, start:stop],
                    pre=pre,
                    partner=partner[:, columns] if has_partner else None,
                    pre_by_gate=pre.reshape(batch, 4, fused.hidden_size).swapaxes(0, 1),
                    gates=self.gates[:, :, start:stop],
                    x_flat=x_flat[:, columns],
                    cast=(
                        np.empty((batch, time_steps, fused.w_input.shape[0]), dtype=dtype)
                        if cast_inputs
                        else None
                    ),
                )
            )
            start = stop
        self.cells = tuple(views)
        # ``pre += partner`` as (target, addend) pairs: one contiguous joint
        # add when every cell has a partner block, else only the column
        # ranges that do (a cell without one must see nothing added).
        self.partner_sums = (
            [(self.pre, partner)]
            if all(partnered)
            else [(own.pre, own.partner) for own in views if own.partner is not None]
        )


_workspace_lock = threading.Lock()
_WORKSPACE_COUNTERS = {"created": 0, "reused": 0, "evicted": 0}


class _ThreadPool(threading.local):
    """One thread's workspaces: geometry → ``(batch, time)`` → workspace,
    both levels in LRU order (dict insertion order, most recent last)."""

    def __init__(self) -> None:
        self.geometries: Dict[tuple, Dict[tuple, Workspace]] = {}


_thread_pool = _ThreadPool()


def workspace_stats() -> Dict[str, int]:
    """Process-wide workspace pool counters (created / reused / evicted).

    The allocation-count regression test asserts steady-state serving shows
    ``reused`` growth with zero ``created`` growth; benchmarks report them in
    ``BENCH_kernels.json``.
    """
    with _workspace_lock:
        return dict(_WORKSPACE_COUNTERS)


def reset_workspace_stats() -> None:
    """Zero the :func:`workspace_stats` counters."""
    with _workspace_lock:
        for key in _WORKSPACE_COUNTERS:
            _WORKSPACE_COUNTERS[key] = 0


def clear_thread_workspaces() -> None:
    """Empty the calling thread's workspace pool (the counters are kept).

    The next kernel call of every shape then builds its workspace afresh —
    the cold start of a new process, for tests and benchmarks.
    """
    _thread_pool.geometries.clear()


def _count(counter: str, amount: int = 1) -> None:
    with _workspace_lock:
        _WORKSPACE_COUNTERS[counter] += amount


def _workspace_for(plan: _Plan) -> Workspace:
    """Fetch or build ``plan``'s workspace from the calling thread's pool."""
    geometries = _thread_pool.geometries
    # Pop and re-insert: move-to-end keeps both levels in LRU order.
    pool = geometries.pop(plan.geometry, None)
    if pool is None:
        pool = {}
        while len(geometries) >= MAX_WORKSPACE_GEOMETRIES:
            _count("evicted", len(geometries.pop(next(iter(geometries)))))
    geometries[plan.geometry] = pool
    workspace = pool.pop(plan.shape, None)
    if workspace is not None:
        pool[plan.shape] = workspace
        _count("reused")
        return workspace
    while len(pool) >= MAX_WORKSPACES_PER_GEOMETRY:
        pool.pop(next(iter(pool)))
        _count("evicted")
    batch, time_steps = plan.shape
    workspace = pool[plan.shape] = Workspace(
        plan.dtype, batch, time_steps, plan.cells, cast_inputs=plan.dtype != _FLOAT64
    )
    _count("created")
    return workspace


# ---------------------------------------------------------------------- #
# Kernels
# ---------------------------------------------------------------------- #
def _resolve_kernel_dtype(dtype) -> np.dtype:
    resolved = _FLOAT64 if dtype is None else np.dtype(dtype)
    if resolved not in (_FLOAT64, _FLOAT32):
        raise ValueError(
            f"fused kernels support float64 and float32, got dtype {resolved.name!r}"
        )
    return resolved


class _Plan(NamedTuple):
    """What one batch shape resolves once: the weight variants, the dtype
    and the pool keys of its workspace.  It holds no buffers, so a model
    that cannot change (:meth:`repro.core.clstm.CLSTM.seal`) may keep it."""

    cells: Tuple[FusedGateWeights, ...]
    dtype: np.dtype
    geometry: tuple
    shape: Tuple[int, int]


class _Context(NamedTuple):
    """One kernel call: its plan's variants and dtype plus the workspace it
    borrows from the thread's pool for that call only."""

    cells: Tuple[FusedGateWeights, ...]
    dtype: np.dtype
    workspace: Workspace


def _plan(cells: tuple, fuse, batch: int, time_steps: int, dtype) -> _Plan:
    """Resolve the :class:`_Plan` of one ``(batch, time_steps)`` batch over
    ``cells``."""
    dtype = _resolve_kernel_dtype(dtype)
    fused = tuple(_fused_variant(cell, fuse(cell), dtype) for cell in cells)
    geometry = (
        dtype.name,
        *((weights.w_input.shape, weights.w_partner is not None) for weights in fused),
    )
    return _Plan(fused, dtype, geometry, (batch, time_steps))


def _borrow(plan: _Plan) -> _Context:
    """Bind ``plan`` to the calling thread's pooled workspace for one call."""
    return _Context(plan.cells, plan.dtype, _workspace_for(plan))


def _context(cells: tuple, fuse, batch: int, time_steps: int, dtype) -> _Context:
    return _borrow(_plan(cells, fuse, batch, time_steps, dtype))


def _prepare_input(sequence: np.ndarray, cast_buffer, dtype: np.dtype):
    """Bring one input batch into kernel form for ``dtype``.

    The default path (float64) is a no-copy ``asarray``; the reduced-
    precision path converts into the workspace's reused cast buffer.
    """
    if dtype == _FLOAT64:
        return np.asarray(sequence, dtype=np.float64)
    np.copyto(cast_buffer, sequence, casting="unsafe")
    return cast_buffer


def _project_windows(context: _Context, sequences: tuple):
    """All timesteps' input-to-gate projections, one GEMM per cell, into the
    cells' column ranges of the workspace's joint gate inputs (returned)."""
    cells, dtype, workspace = context
    for fused, views, sequence in zip(cells, workspace.cells, sequences):
        inputs = _prepare_input(sequence, views.cast, dtype)
        flat = inputs.reshape(-1, inputs.shape[-1])
        np.matmul(flat, fused.w_input, out=views.x_flat)
        np.add(views.x_flat, fused.bias, out=views.x_flat)
    return workspace.x_proj


def _sweep(context: _Context, x_proj, state=None, per_step: tuple = ()) -> None:
    """The recurrent sweep of every entry point, fully inside the workspace.

    ``x_proj`` ``(B, T, 4·Hs)`` holds the joint gate inputs; the cells'
    states are left in ``workspace.hidden`` / ``workspace.cell``.  Each step
    evaluates exactly the expressions of ``tests/frozen_kernels.py``: every
    cell's pre-activation ``(h·W_h + x_t·W_x) + g·W_p`` is assembled in its
    columns of ``pre`` (both cells read the step ``t-1`` states; only then
    does anything update), copied gate-major, and the activation passes and
    ``c_t = i·ĉ + f·c_{t-1}``, ``h_t = o·tanh(c_t)`` run once over all cells.

    ``state`` is one cell's caller-supplied ``(h, c)``; without it the sweep
    starts from zero and step 0 skips its recurrent GEMMs (module docstring).
    ``per_step`` holds, per cell, a ``(B, T, H)`` array receiving every
    step's hidden state.
    """
    cells, _, workspace = context
    views = workspace.cells
    hidden, cell_state, scratch, pre = workspace.hidden, workspace.cell, workspace.scratch, workspace.pre
    input_gate, forget_gate, candidate, output_gate = workspace.gates
    input_forget = workspace.gates[:2]
    if state is None:
        hidden.fill(0.0)
        cell_state.fill(0.0)
    else:
        hidden[...] = state[0]
        cell_state[...] = state[1]
    for t in range(x_proj.shape[1]):
        if t == 0 and state is None:
            np.add(x_proj[:, 0], 0.0, out=pre)
        else:
            for fused, own in zip(cells, views):
                np.matmul(own.hidden, fused.w_hidden, out=own.pre)
            pre += x_proj[:, t]
            for fused, own, other in zip(cells, views, reversed(views)):
                if own.partner is not None:
                    np.matmul(other.hidden, fused.w_partner, out=own.partner)
            for target, addend in workspace.partner_sums:
                np.add(target, addend, out=target)
        for own in views:
            own.gates[...] = own.pre_by_gate
        _sigmoid_in_place(input_forget)
        np.tanh(candidate, out=candidate)
        _sigmoid_in_place(output_gate)
        np.multiply(forget_gate, cell_state, out=scratch)
        np.multiply(input_gate, candidate, out=cell_state)
        cell_state += scratch
        np.tanh(cell_state, out=scratch)
        np.multiply(output_gate, scratch, out=hidden)
        for stack, own in zip(per_step, views):
            stack[:, t] = own.hidden


def lstm_forward_fused(
    cell: "LSTMCell",
    sequence: np.ndarray,
    state: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    *,
    dtype: Optional[Any] = None,
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Run a plain LSTM cell over ``(batch, time, features)`` without the tape.

    Returns the stacked hidden states ``(batch, time, H)`` and the final
    ``(h, c)`` state.  At the default precision these are ``float64``
    arrays, bitwise-identical to the frozen reference kernel.
    """
    raw = np.asarray(sequence)
    if raw.ndim != 3:
        raise ValueError(f"expected a (batch, time, features) array, got shape {raw.shape}")
    (h, c), (hiddens,) = _forward_blocks(
        (cell,), fuse_lstm_cell, (raw,), state, dtype, all_hidden=True, with_cell=True
    )
    return hiddens, (h, c)


def _zero_padded(rows: np.ndarray, block: int) -> np.ndarray:
    """``rows`` followed by zero rows up to ``block`` rows."""
    padded = np.zeros((block,) + rows.shape[1:], dtype=rows.dtype)
    padded[: len(rows)] = rows
    return padded


def _forward_blocks(cells: tuple, fuse, inputs: tuple, state, dtype, *, all_hidden: bool, with_cell: bool):
    """Project and sweep ``N`` windows in blocks of at most :data:`FORWARD_BLOCK`.

    The call borrows one ``(min(N, FORWARD_BLOCK), T)`` workspace — for a
    whole data set, the one a full serving batch uses.  Every block runs on
    that many windows, the tail zero-padded as :func:`project_rows` pads its
    rows, so each window's result is the one a single call of that many
    windows gives (OpenBLAS picks its kernel from the row count; a short tail
    would change the last bits).  Results escape to the caller (training-cache
    consumers, drift analytics, serving's drift buffer), so they are fresh
    arrays of the whole call, never workspace views: each cell's final
    hidden state ``(N, H)``, then (``with_cell``) the joint final cell state
    ``(N, Hs)`` — a block's copies, joined when there are several — plus,
    with ``all_hidden``, each cell's per-step hidden states ``(N, T, H)``.
    """
    count, time_steps = inputs[0].shape[:2]
    block = min(count, FORWARD_BLOCK)
    context = _context(cells, fuse, block, time_steps, dtype)
    workspace = context.workspace
    sizes = [fused.hidden_size for fused in context.cells]
    sources = [views.hidden for views in workspace.cells] + ([workspace.cell] if with_cell else [])
    copies: list = [[] for _ in sources]
    per_step = tuple(
        np.empty((count, time_steps, size), dtype=context.dtype) for size in (sizes if all_hidden else ())
    )
    # An empty call still sweeps once, so it returns (0, H) states.
    for start in range(0, max(count, 1), FORWARD_BLOCK):
        stop = min(start + FORWARD_BLOCK, count)
        rows = stop - start
        part = tuple(x[start:stop] for x in inputs)
        part_state = None if state is None else tuple(s[start:stop] for s in state)
        steps = tuple(stack[start:stop] for stack in per_step)
        if rows < block:
            part = tuple(_zero_padded(x, block) for x in part)
            if part_state is not None:
                part_state = tuple(_zero_padded(np.asarray(s), block) for s in part_state)
            steps = tuple(np.empty((block,) + stack.shape[1:], context.dtype) for stack in steps)
        _sweep(context, _project_windows(context, part), part_state, steps)
        for blocks, source in zip(copies, sources):
            blocks.append(source[:rows].copy())
        if rows < block:
            for target, source in zip(per_step, steps):
                target[start:stop] = source[:rows]
    finals = tuple(blocks[0] if len(blocks) == 1 else np.concatenate(blocks) for blocks in copies)
    return finals, per_step


def project_rows(rows, fused: FusedGateWeights):
    """``x·W_x + b`` of each feature row in ``rows`` → ``(len(rows), 4H)``.

    The one projection routine of the serving path.  OpenBLAS picks its
    kernel from the row count, so the same row projected in a 1–3 row GEMM
    and in a ≥5 row GEMM differs in the last bits.  Every GEMM here runs on
    exactly :data:`PROJECTION_BLOCK` rows (zero-padded tail), which makes a
    row's projection a function of the row and ``fused`` alone — not of its
    neighbours, its position, or how a batch's missing rows were split — so
    a restored (cold-cache) service stays bitwise-identical to an
    uninterrupted one.
    """
    count = len(rows)
    padded = -(-count // PROJECTION_BLOCK) * PROJECTION_BLOCK
    dtype = fused.w_input.dtype
    block = _zero_padded(np.array(rows, dtype=dtype), padded)
    out = np.empty((padded, 4 * fused.hidden_size), dtype=dtype)
    for start in range(0, padded, PROJECTION_BLOCK):
        stop = start + PROJECTION_BLOCK
        np.matmul(block[start:stop], fused.w_input, out=out[start:stop])
    out += fused.bias
    return out[:count]


def _gather(context: _Context, windows):
    """Fill the workspace's joint gate inputs from ``windows`` (returned).

    One pass over the batch's segments collects the cached rows and the
    misses — a segment with no joint row under exactly this pair of
    variants.  Each distinct miss is projected exactly once (a backlog batch
    shares segments between its windows), both cells through
    :func:`project_rows` into one block; the cached row is a private copy,
    so a retained segment pins ``4·Hs`` values, not the block it was
    computed in.
    """
    cells, _, workspace = context
    fused_i, fused_a = cells
    rows: list = []
    misses: Dict[int, tuple] = {}
    for window in windows:
        for segment in window:
            cached = segment.gate
            if cached is not None and cached[0] is fused_i and cached[1] is fused_a:
                rows.append(cached[2])
            else:
                misses.setdefault(id(segment), (segment, []))[1].append(len(rows))
                rows.append(None)
    if len(rows) != workspace.x_proj.shape[0] * workspace.x_proj.shape[1]:
        raise ValueError("all windows of a batch must have the same length")
    if misses:
        block = np.concatenate(
            [
                project_rows([segment.rows[index] for segment, _ in misses.values()], fused)
                for index, fused in enumerate(cells)
            ],
            axis=1,
        )
        for (segment, positions), row in zip(misses.values(), block):
            row = row.copy()
            segment.gate = (fused_i, fused_a, row)
            for position in positions:
                rows[position] = row
    np.concatenate(rows, out=workspace.x_proj.reshape(-1))
    return workspace.x_proj


def _final_states(workspace: Workspace) -> tuple:
    """The cells' final hidden states as fresh arrays.

    They escape (serving retains hidden rows in its drift buffer
    indefinitely), so they must be copies, not workspace views.  These
    O(B·H) copies are the only per-batch allocations of the kernel.
    """
    return tuple(views.hidden.copy() for views in workspace.cells)


def coupled_pair_forward_gated(
    influencer: "CoupledLSTMCell",
    audience: "CoupledLSTMCell",
    batch,
    *,
    dtype: Optional[Any] = None,
):
    """The serving entry: gather and sweep in one resolved context.

    ``batch`` is either a sequence of :class:`Segment` windows or an
    already gathered ``(B, q, 4·H1 + 4·H2)`` array.  Windows are gathered
    here: in steady state only each window's newest segment is unprojected,
    so a batch costs ``B`` projected rows per cell, not ``B·q``.  The
    gathered form lets a test pin the sweep against the frozen kernels on
    chosen gate inputs (``-0.0`` at step 0, say).  Returns
    ``(h_final, g_final)`` like :func:`coupled_pair_forward_fused`.
    """
    return forward_planned(serving_plan(influencer, audience, batch, dtype), batch)


def serving_plan(
    influencer: "CoupledLSTMCell", audience: "CoupledLSTMCell", batch, dtype
) -> _Plan:
    """The resolved kernel plan of one serving ``batch`` (windows or
    gathered gate inputs): weight variants, dtype and workspace keys.

    A caller that knows the weights cannot change (a published snapshot,
    :meth:`repro.core.clstm.CLSTM.seal`) may keep it per batch shape and
    dtype and skip the per-batch resolution; the workspace itself is looked
    up in the thread's pool on every :func:`forward_planned`.
    """
    gathered = hasattr(batch, "shape")
    size, time_steps = batch.shape[:2] if gathered else (len(batch), len(batch[0]))
    return _plan((influencer, audience), fuse_coupled_cell, size, time_steps, dtype)


def forward_planned(plan: _Plan, batch):
    """Gather (or adopt) ``batch``'s gate inputs and sweep them under
    ``plan``; returns the final ``(h, g)`` as fresh arrays."""
    context = _borrow(plan)
    if hasattr(batch, "shape"):
        x_proj = np.asarray(batch, dtype=context.dtype)
    else:
        x_proj = _gather(context, batch)
    _sweep(context, x_proj)
    return _final_states(context.workspace)


def coupled_pair_forward_fused(
    influencer: "CoupledLSTMCell",
    audience: "CoupledLSTMCell",
    action_sequences: np.ndarray,
    interaction_sequences: np.ndarray,
    return_all_hidden: bool = False,
    *,
    dtype: Optional[Any] = None,
):
    """Advance two mutually coupled cells in lockstep over aligned batches.

    This is the inference twin of :meth:`repro.core.clstm.CLSTM.forward`: at
    step ``t`` the influencer cell reads the audience hidden state from step
    ``t-1`` and vice versa.  Each cell's partner block is honoured (or
    dropped) according to its ``use_partner`` flag, which covers all three
    coupling modes of the paper.

    Parameters
    ----------
    action_sequences / interaction_sequences:
        ``(N, q, d1)`` / ``(N, q, d2)`` aligned input batches.
    return_all_hidden:
        When ``True``, additionally return the per-step hidden states of both
        cells (``(N, q, H1)``, ``(N, q, H2)``).
    dtype:
        Compute dtype (default ``float64``; ``float32`` is the opt-in
        reduced-precision inference mode).

    Returns
    -------
    ``(h_final, g_final)`` or ``(h_final, g_final, h_all, g_all)`` — the
    final states are fresh arrays owned by the caller (workspace buffers
    never escape).
    """
    actions_raw = np.asarray(action_sequences)
    interactions_raw = np.asarray(interaction_sequences)
    if actions_raw.ndim != 3 or interactions_raw.ndim != 3:
        raise ValueError("coupled forward expects (batch, time, features) arrays")
    if actions_raw.shape[0] != interactions_raw.shape[0]:
        raise ValueError("action and interaction batches must have the same size")
    if actions_raw.shape[1] != interactions_raw.shape[1]:
        raise ValueError("action and interaction sequences must have the same length")
    finals, per_step = _forward_blocks(
        (influencer, audience),
        fuse_coupled_cell,
        (actions_raw, interactions_raw),
        None,
        dtype,
        all_hidden=return_all_hidden,
        with_cell=False,
    )
    return finals + per_step
