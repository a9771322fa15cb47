"""Fused, tape-free batched inference kernels for the recurrent cells.

The autograd :class:`~repro.nn.tensor.Tensor` path advances the CLSTM one
time step at a time and allocates a graph node for every intermediate value.
Inference (anomaly scoring over live streams) only needs the forward values,
and training only needs the handful of cached activations that the analytic
BPTT in :mod:`repro.nn.backprop` consumes — neither needs the tape.  This
module provides the inference fast path: array-namespace forwards that

* stack the four gate weight matrices into a single ``(K, 4H)`` matrix so
  each time step costs one GEMM per recurrent input instead of four;
* split the LSTM matmul cuDNN-style into a time-parallel input part and a
  sequential recurrent part.  The offline full-window entry projects the
  whole ``(batch, time, features)`` input in one large GEMM per cell up
  front; the serving entry never re-projects a window — ``x_t·W_x + b``
  depends only on the segment and the weights, so each :class:`Segment`
  carries **one joint gate-input row** for both cells, projected once per
  pair of weight variants and gathered into every window it appears in
  (:func:`gather_gate_inputs`);
* run **one sweep for every cell of a batch** — one step routine
  (:func:`_sweep`) under all three entry points, over the joint layout
  below, so the activation passes and the state update run once over
  ``(batch, H1 + H2)`` instead of once per cell;
* never allocate autograd nodes, and run their per-batch state entirely
  inside a pooled :class:`Workspace` of preallocated buffers (``out=`` ufuncs
  and GEMMs), so steady-state serving performs **zero large array
  allocations per batch** — only the final hidden-state copies that escape
  to the caller are allocated;
* resolve their array namespace through :mod:`repro.nn.backend`, so the same
  kernels run on NumPy (default) or CuPy unchanged, at ``float64`` (default)
  or opt-in ``float32`` compute precision.

Joint layout
------------
With hidden sizes ``H1`` (influencer) and ``H2`` (audience), ``Hs = H1 + H2``
(a plain LSTM is the one-cell case, ``Hs = H``):

* a **gate-input row** is ``(4·Hs,)``, cell-major: the influencer's
  ``x·W_x + b`` in stacked gate order ``[input, forget, cell, output]``
  (``4·H1`` values) followed by the audience's (``4·H2``).  A batch of them
  is the single ``(B, q, 4·Hs)`` array the sweep consumes — and the only
  array the process executor ships per batch;
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
precision host path) and the per-cell views into them, built once per shape.

Numerical contract: on the default backend (NumPy, ``float64``) the kernels
are **bitwise identical** to the pre-seam implementations frozen in
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
Workspaces are keyed by ``(batch, time, sizes, backend, dtype, thread)``
and attached to the (anchor) cell object, like the fused-weight cache.  A published model snapshot owns fresh cell objects, so a hot swap
naturally retires the old snapshot's workspaces with the old cells; nothing
ever needs explicit invalidation.  Buffers hold no weight content, so weight
rebinds do not stale them.  The per-thread key keeps concurrent shard
forwards (the thread-parallel executor) race-free while preserving
zero-allocation steady state per worker thread; at most
:data:`MAX_WORKSPACES_PER_CELL` shapes are retained per cell (LRU).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .backend import get_namespace, resolve_backend

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
    "invalidate_cell",
    "transplant_fused_cache",
    "lstm_forward_fused",
    "coupled_pair_forward_fused",
    "coupled_pair_forward_gated",
    "gather_gate_inputs",
    "project_rows",
    "workspace_stats",
    "reset_workspace_stats",
    "sigmoid",
]

_FLOAT64 = np.dtype(np.float64)
_FLOAT32 = np.dtype(np.float32)

# The (backend, dtype-name) key of the canonical cache entry every other
# variant is derived from.  The primary is always built on the host in
# float64 from the live parameter arrays.
_PRIMARY_KEY = ("numpy", "float64")

MAX_WORKSPACES_PER_CELL = 8
"""LRU capacity of each cell's workspace pool (shapes × threads)."""

PROJECTION_BLOCK = 32
"""Row count of every serving-side projection GEMM (see :func:`project_rows`)."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The exact sigmoid the autograd tensor uses (input clipped to ±60)."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _sigmoid_in_place(x, xp) -> None:
    """The same clipped sigmoid, computed fully in place.

    ``maximum``/``minimum`` are the two halves of ``clip`` and ``reciprocal``
    replaces the ``1.0 / _`` division — the same IEEE operations, bitwise.
    """
    xp.maximum(x, -60.0, out=x)
    xp.minimum(x, 60.0, out=x)
    xp.negative(x, out=x)
    xp.exp(x, out=x)
    x += 1.0
    xp.reciprocal(x, out=x)


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

    The cache is a *variant map*: the canonical host float64 stack (built by
    ``builder``, returned here) plus any derived ``(backend, dtype)`` casts
    (:func:`_fused_variant`), all invalidated together when the parameters
    change.
    """
    sources = _cell_sources(cell)
    cache = getattr(cell, "_fused_cache", None)
    if cache is not None and all(held is live for held, live in zip(cache[0], sources)):
        return cache[1][_PRIMARY_KEY]
    variants: Dict[Tuple[str, str], FusedGateWeights] = {_PRIMARY_KEY: builder()}
    cell._fused_cache = (sources, variants)
    return variants[_PRIMARY_KEY]


def _fused_variant(cell, primary: FusedGateWeights, backend: str, dtype: np.dtype) -> FusedGateWeights:
    """The ``(backend, dtype)`` cast of ``cell``'s fused weights, cached.

    Derived casts live in the same variant map as the primary (so a weight
    rebind invalidates all of them at once) and are built lazily: the first
    float32 (or device) batch after a swap pays one ``astype``/transfer, and
    every later batch reuses it.  Must be called after the fuse accessor
    (:func:`fuse_lstm_cell` / :func:`fuse_coupled_cell`) refreshed the cache.
    """
    key = (backend, dtype.name)
    if key == _PRIMARY_KEY:
        return primary
    variants = cell._fused_cache[1]
    variant = variants.get(key)
    if variant is None:
        xp = get_namespace(backend)
        variant = FusedGateWeights(
            w_hidden=xp.asarray(primary.w_hidden, dtype=dtype),
            w_partner=(
                xp.asarray(primary.w_partner, dtype=dtype)
                if primary.w_partner is not None
                else None
            ),
            w_input=xp.asarray(primary.w_input, dtype=dtype),
            bias=xp.asarray(primary.bias, dtype=dtype),
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


def invalidate_cell(cell) -> None:
    """Drop the fused-weight cache of ``cell`` (next fuse rebuilds it).

    In-place parameter mutation (anything writing through ``parameter.data``
    views instead of rebinding) is invisible to the identity check; callers
    doing that must invalidate explicitly.
    """
    cell._fused_cache = None


def transplant_fused_cache(source_cell, target_cell) -> bool:
    """Adopt ``source_cell``'s fused-weight cache for ``target_cell``.

    The snapshot/publish path copies a model's parameter *values* into fresh
    arrays (``load_state_dict``), so the identity-keyed cache of the copy
    misses and every publish used to re-concatenate ~1-2 MB of unchanged
    weights.  When the source's cache is fresh — i.e. the stacked weights
    were built from exactly the values the target just copied — the stacked
    arrays themselves are still valid for the target, so they are re-keyed to
    the target's own parameter identities instead of being rebuilt.  Every
    derived ``(backend, dtype)`` variant rides along for free.

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

    hidden: Any
    """``(B, H)`` columns of the joint hidden state."""
    pre: Any
    """``(B, 4H)`` columns of the joint pre-activation (recurrent GEMM output)."""
    partner: Any
    """``(B, 4H)`` columns of the joint partner GEMM output, or ``None`` for a
    cell without a partner block."""
    pre_by_gate: Any
    """``pre`` seen gate-major, ``(4, B, H)`` — the source of the gate copy."""
    gates: Any
    """``(4, B, H)`` columns of the joint gate buffer — its destination."""
    x_flat: Any
    """``(B·T, 4H)`` columns of the flattened gate inputs (projection output)."""
    cast: Any
    """``(B, T, D)`` input cast buffer of the reduced-precision host path."""


class Workspace:
    """Preallocated per-shape buffers one fused forward runs inside.

    One workspace serves one ``(batch, time, sizes, backend, dtype)``
    shape on one thread, for every cell of the batch at once (see "Joint
    layout" in the module docstring).  All buffers are allocated once,
    through the backend namespace with an explicit dtype, and reused via
    ``out=`` — a steady-state batch touches them without a single large
    allocation.  ``cells`` holds each cell's views into them, so a step
    creates no view objects either.
    """

    __slots__ = ("hidden", "cell", "scratch", "gates", "pre", "x_proj", "cells", "partner_sums")

    def __init__(
        self,
        xp,
        dtype: np.dtype,
        batch: int,
        time_steps: int,
        cells: Tuple[FusedGateWeights, ...],
        *,
        cast_inputs: bool,
    ) -> None:
        total = sum(fused.hidden_size for fused in cells)
        self.hidden = xp.empty((batch, total), dtype=dtype)
        self.cell = xp.empty((batch, total), dtype=dtype)
        self.scratch = xp.empty((batch, total), dtype=dtype)
        # Gate-major: activation passes on the strided gate columns of `pre`
        # would run row by row, so each step copies them (one strided copy
        # per cell) into contiguous (B, Hs) blocks first.
        self.gates = xp.empty((4, batch, total), dtype=dtype)
        self.pre = xp.empty((batch, 4 * total), dtype=dtype)
        partnered = [fused.w_partner is not None for fused in cells]
        partner = xp.empty((batch, 4 * total), dtype=dtype) if any(partnered) else None
        self.x_proj = xp.empty((batch, time_steps, 4 * total), dtype=dtype)
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
                        xp.empty((batch, time_steps, fused.w_input.shape[0]), dtype=dtype)
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


def _workspace_for(anchor, key: tuple, builder) -> Workspace:
    """Fetch or build the workspace of ``key`` from ``anchor``'s LRU pool."""
    pool: Optional[Dict[tuple, Workspace]] = getattr(anchor, "_fused_workspaces", None)
    if pool is None:
        pool = {}
        anchor._fused_workspaces = pool
    workspace = pool.get(key)
    if workspace is not None:
        # Move-to-end keeps the dict in LRU order for the eviction below.
        del pool[key]
        pool[key] = workspace
        with _workspace_lock:
            _WORKSPACE_COUNTERS["reused"] += 1
        return workspace
    while len(pool) >= MAX_WORKSPACES_PER_CELL:
        pool.pop(next(iter(pool)))
        with _workspace_lock:
            _WORKSPACE_COUNTERS["evicted"] += 1
    workspace = builder()
    pool[key] = workspace
    with _workspace_lock:
        _WORKSPACE_COUNTERS["created"] += 1
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


class _Context(NamedTuple):
    """Everything one batch resolves once: variants, namespace, workspace."""

    cells: Tuple[FusedGateWeights, ...]
    xp: Any
    backend: str
    dtype: np.dtype
    workspace: Workspace


def _context(cells: tuple, fuse, batch: int, time_steps: int, backend, dtype) -> _Context:
    """Resolve the :class:`_Context` of one ``(batch, time_steps)`` batch over
    ``cells``; the cells share one workspace, pooled on the first of them."""
    backend = resolve_backend(backend)
    dtype = _resolve_kernel_dtype(dtype)
    fused = tuple(_fused_variant(cell, fuse(cell), backend, dtype) for cell in cells)
    xp = get_namespace(backend)
    key = (
        batch,
        time_steps,
        *(weights.w_input.shape for weights in fused),
        backend,
        dtype.name,
        threading.get_ident(),
    )
    workspace = _workspace_for(
        cells[0],
        key,
        lambda: Workspace(
            xp,
            dtype,
            batch,
            time_steps,
            fused,
            cast_inputs=(backend == "numpy" and dtype != _FLOAT64),
        ),
    )
    return _Context(fused, xp, backend, dtype, workspace)


def _coupled_context(influencer, audience, batch: int, time_steps: int, backend, dtype) -> _Context:
    return _context((influencer, audience), fuse_coupled_cell, batch, time_steps, backend, dtype)


def _prepare_input(sequence: np.ndarray, cast_buffer, backend: str, dtype: np.dtype, xp):
    """Bring one host input batch into kernel form for ``(backend, dtype)``.

    The default path (host float64) is a no-copy ``asarray``; the reduced-
    precision host path converts into the workspace's reused cast buffer; a
    device backend pays exactly one host→device transfer here — the documented
    ingest-side half of the host↔device boundary.
    """
    if backend == "numpy":
        if dtype == _FLOAT64:
            return np.asarray(sequence, dtype=np.float64)
        np.copyto(cast_buffer, sequence, casting="unsafe")
        return cast_buffer
    return xp.asarray(sequence, dtype=dtype)


def _project_windows(context: _Context, sequences: tuple):
    """All timesteps' input-to-gate projections, one GEMM per cell, into the
    cells' column ranges of the workspace's joint gate inputs (returned)."""
    cells, xp, backend, dtype, workspace = context
    for fused, views, sequence in zip(cells, workspace.cells, sequences):
        inputs = _prepare_input(sequence, views.cast, backend, dtype, xp)
        flat = inputs.reshape(-1, inputs.shape[-1])
        xp.matmul(flat, fused.w_input, out=views.x_flat)
        xp.add(views.x_flat, fused.bias, out=views.x_flat)
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
    cells, xp, _, dtype, workspace = context
    views = workspace.cells
    hidden, cell_state, scratch, pre = workspace.hidden, workspace.cell, workspace.scratch, workspace.pre
    input_gate, forget_gate, candidate, output_gate = workspace.gates
    input_forget = workspace.gates[:2]
    if state is None:
        hidden.fill(0.0)
        cell_state.fill(0.0)
    else:
        hidden[...] = xp.asarray(np.asarray(state[0]), dtype=dtype)
        cell_state[...] = xp.asarray(np.asarray(state[1]), dtype=dtype)
    for t in range(x_proj.shape[1]):
        if t == 0 and state is None:
            xp.add(x_proj[:, 0], 0.0, out=pre)
        else:
            for fused, own in zip(cells, views):
                xp.matmul(own.hidden, fused.w_hidden, out=own.pre)
            pre += x_proj[:, t]
            for fused, own, other in zip(cells, views, reversed(views)):
                if own.partner is not None:
                    xp.matmul(other.hidden, fused.w_partner, out=own.partner)
            for target, addend in workspace.partner_sums:
                xp.add(target, addend, out=target)
        for own in views:
            own.gates[...] = own.pre_by_gate
        _sigmoid_in_place(input_forget, xp)
        xp.tanh(candidate, out=candidate)
        _sigmoid_in_place(output_gate, xp)
        xp.multiply(forget_gate, cell_state, out=scratch)
        xp.multiply(input_gate, candidate, out=cell_state)
        cell_state += scratch
        xp.tanh(cell_state, out=scratch)
        xp.multiply(output_gate, scratch, out=hidden)
        for stack, own in zip(per_step, views):
            stack[:, t] = own.hidden


def lstm_forward_fused(
    cell: "LSTMCell",
    sequence: np.ndarray,
    state: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    *,
    backend: Optional[str] = None,
    dtype: Optional[Any] = None,
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Run a plain LSTM cell over ``(batch, time, features)`` without the tape.

    Returns the stacked hidden states ``(batch, time, H)`` and the final
    ``(h, c)`` state.  On the default backend/precision these are plain
    ``float64`` NumPy arrays, bitwise-identical to the pre-seam kernel.
    """
    raw = np.asarray(sequence)
    if raw.ndim != 3:
        raise ValueError(f"expected a (batch, time, features) array, got shape {raw.shape}")
    batch, time_steps, _ = raw.shape
    context = _context((cell,), fuse_lstm_cell, batch, time_steps, backend, dtype)
    # The per-step hidden states escape to the caller, so they are written to
    # a fresh array (exactly as the pre-seam kernel allocated them).
    hiddens = context.xp.empty((batch, time_steps, cell.hidden_size), dtype=context.dtype)
    _sweep(context, _project_windows(context, (raw,)), state, (hiddens,))
    return hiddens, (context.workspace.hidden.copy(), context.workspace.cell.copy())


def project_rows(rows, fused: FusedGateWeights, xp=np):
    """``x·W_x + b`` of each feature row in ``rows`` → ``(len(rows), 4H)``.

    The one projection routine of the serving path.  OpenBLAS picks its
    kernel from the row count, so the same row projected in a 1–3 row GEMM
    and in a ≥5 row GEMM differs in the last bits.  Every GEMM here runs on
    exactly :data:`PROJECTION_BLOCK` rows (zero-padded tail), which makes a
    row's projection a function of the row and ``fused`` alone — not of its
    neighbours, its position, or how a batch's missing rows were split — so
    a restored (cold-cache) service and the process executor stay bitwise-
    identical to an uninterrupted serial one.
    """
    count = len(rows)
    padded = -(-count // PROJECTION_BLOCK) * PROJECTION_BLOCK
    dtype = fused.w_input.dtype
    block = xp.zeros((padded, fused.w_input.shape[0]), dtype=dtype)
    block[:count] = xp.asarray(np.array(rows), dtype=dtype)
    out = xp.empty((padded, 4 * fused.hidden_size), dtype=dtype)
    for start in range(0, padded, PROJECTION_BLOCK):
        stop = start + PROJECTION_BLOCK
        xp.matmul(block[start:stop], fused.w_input, out=out[start:stop])
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
    cells, xp, _, _, workspace = context
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
        block = xp.concatenate(
            [
                project_rows([segment.rows[index] for segment, _ in misses.values()], fused, xp)
                for index, fused in enumerate(cells)
            ],
            axis=1,
        )
        for (segment, positions), row in zip(misses.values(), block):
            row = row.copy()
            segment.gate = (fused_i, fused_a, row)
            for position in positions:
                rows[position] = row
    xp.concatenate(rows, out=workspace.x_proj.reshape(-1))
    return workspace.x_proj


def gather_gate_inputs(
    influencer: "CoupledLSTMCell",
    audience: "CoupledLSTMCell",
    windows,
    *,
    backend: Optional[str] = None,
    dtype: Optional[Any] = None,
):
    """Gate inputs of a serving batch: project the misses, gather the rest.

    ``windows`` is a sequence of ``B`` equal-length sequences of
    :class:`Segment`.  In steady state only each window's newest segment is
    unprojected, so a batch costs ``B`` projected rows per cell, not
    ``B·q``.  The ``(B, q, 4·H1 + 4·H2)`` result aliases the pooled
    workspace's gate-input buffer: consume it (serialise it for
    :func:`coupled_pair_forward_gated` in another process) before the next
    same-shape batch on this thread.
    """
    context = _coupled_context(
        influencer, audience, len(windows), len(windows[0]), backend, dtype
    )
    return _gather(context, windows)


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
    backend: Optional[str] = None,
    dtype: Optional[Any] = None,
):
    """The serving entry: gather and sweep in one resolved context.

    ``batch`` is either a sequence of :class:`Segment` windows (gathered
    here, see :func:`gather_gate_inputs`) or an already gathered
    ``(B, q, 4·H1 + 4·H2)`` array (possibly gathered by another process
    under bitwise-equal weights).  Returns ``(h_final, g_final)`` like
    :func:`coupled_pair_forward_fused`.
    """
    gathered = hasattr(batch, "shape")
    size, time_steps = batch.shape[:2] if gathered else (len(batch), len(batch[0]))
    context = _coupled_context(influencer, audience, size, time_steps, backend, dtype)
    if gathered:
        x_proj = context.xp.asarray(batch, dtype=context.dtype)
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
    backend: Optional[str] = None,
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
        ``(N, q, d1)`` / ``(N, q, d2)`` aligned input batches (host arrays;
        a device backend transfers them once here, at the ingest boundary).
    return_all_hidden:
        When ``True``, additionally return the per-step hidden states of both
        cells (``(N, q, H1)``, ``(N, q, H2)``).
    backend / dtype:
        Array backend (``None``/"auto" resolves ``REPRO_BACKEND``, default
        NumPy) and compute dtype (default ``float64``; ``float32`` is the
        opt-in reduced-precision inference mode).

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
    batch, time_steps, _ = actions_raw.shape
    context = _coupled_context(influencer, audience, batch, time_steps, backend, dtype)
    # Per-step hidden states escape to the caller (training-cache consumers,
    # drift analytics), so they are fresh arrays, never workspace views.
    per_step = tuple(
        context.xp.empty((batch, time_steps, fused.hidden_size), dtype=context.dtype)
        for fused in (context.cells if return_all_hidden else ())
    )
    _sweep(context, _project_windows(context, (actions_raw, interactions_raw)), None, per_step)
    return _final_states(context.workspace) + per_step
