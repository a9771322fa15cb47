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
  whole ``(batch, time, features)`` input in one large GEMM up front; the
  serving entry never re-projects a window — ``x_t·W_x + b`` depends only on
  the segment and the weights, so each :class:`Segment` carries its own
  gate-input rows, projected once per weight variant
  (:func:`gather_gate_inputs`) and gathered into every window it appears in;
* never allocate autograd nodes, so per-step overhead is a handful of ufunc
  calls on ``(batch, 4H)`` arrays;
* run their per-batch state entirely inside a pooled :class:`Workspace` of
  preallocated buffers (``out=`` ufuncs and GEMMs), so steady-state serving
  performs **zero large array allocations per batch** — only the final
  hidden-state copies that escape to the caller are allocated;
* resolve their array namespace through :mod:`repro.nn.backend`, so the same
  kernels run on NumPy (default) or CuPy unchanged, at ``float64`` (default)
  or opt-in ``float32`` compute precision.

Numerical contract: on the default backend (NumPy, ``float64``) the kernels
are **bitwise identical** to the pre-seam implementations frozen in
``tests/frozen_kernels.py`` — the ``out=`` rewrite only reorders commutative
additions and replaces allocation with in-place evaluation of the exact same
expressions.  Against the per-timestep ``Tensor`` path the historical ≤1e-8
equivalence continues to hold.  The ``float32`` path is tolerance-bounded
against the ``float64`` oracle (:data:`repro.nn.backend.FLOAT32_RTOL` /
:data:`~repro.nn.backend.FLOAT32_ATOL`).

Layout convention: gate columns are ordered ``[input, forget, cell, output]``
in every stacked matrix, and the stacked weight rows follow the cells'
concatenation order (``[h, x]`` for :class:`LSTMCell`, ``[h, partner, x]``
for :class:`CoupledLSTMCell`).

Workspace lifetime rules
------------------------
Workspaces are keyed by ``(kind, batch, time, sizes, backend, dtype,
thread)`` and attached to the (anchor) cell object, like the fused-weight
cache.  A published model snapshot owns fresh cell objects, so a hot swap
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
    "GateInputs",
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


def _sigmoid_into(x, out, xp) -> None:
    """The same clipped sigmoid, computed fully in place into ``out``.

    ``reciprocal`` replaces the ``1.0 / _`` division — the same IEEE
    division, bitwise — and every pass writes into ``out``.  ``x`` may
    alias ``out``.
    """
    xp.clip(x, -60.0, 60.0, out=out)
    xp.negative(out, out=out)
    xp.exp(out, out=out)
    out += 1.0
    xp.reciprocal(out, out=out)


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

    ``rows`` is the ``(action, interaction)`` feature pair.  ``gates`` holds,
    per cell (0 = influencer, 1 = audience), ``None`` or ``(variant, row)``:
    the segment's ``(4H,)`` gate-input projection and the
    :class:`FusedGateWeights` object that produced it.  The tag is compared
    by identity, so a hot swap to different weights (a new variant object)
    misses and re-projects, while a same-weights republish (transplanted
    variants) keeps hitting.  Projections are never persisted.
    """

    __slots__ = ("rows", "gates")

    def __init__(self, action: np.ndarray, interaction: np.ndarray) -> None:
        self.rows = (action, interaction)
        self.gates: list = [None, None]


class GateInputs(NamedTuple):
    """A serving batch already projected and gathered: ``(B, q, 4H)`` per cell."""

    influencer: Any
    audience: Any


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
class Workspace:
    """Preallocated per-shape buffers one fused forward runs inside.

    One workspace serves one ``(kind, batch, time, sizes, backend, dtype)``
    shape on one thread.  All buffers are allocated once, through the
    backend namespace with an explicit dtype, and reused via ``out=`` — a
    steady-state batch touches them without a single large allocation.
    ``cast_a``/``cast_b`` exist only for the reduced-precision host path,
    where the float64 inputs must be converted once per batch (into a
    reused buffer, not a fresh array).
    """

    __slots__ = (
        "h",
        "c_i",
        "g",
        "c_a",
        "scratch_i",
        "scratch_a",
        "gates_i",
        "gates_a",
        "pre_i",
        "pre_a",
        "partner_i",
        "partner_a",
        "x_proj_i",
        "x_proj_a",
        "cast_a",
        "cast_b",
    )

    def __init__(
        self,
        xp,
        dtype: np.dtype,
        batch: int,
        time_steps: int,
        hidden_i: int,
        hidden_a: int,
        features_i: int,
        features_a: int,
        *,
        coupled: bool,
        partner_i: bool,
        partner_a: bool,
        cast_inputs: bool,
    ) -> None:
        self.h = xp.empty((batch, hidden_i), dtype=dtype)
        self.c_i = xp.empty((batch, hidden_i), dtype=dtype)
        self.scratch_i = xp.empty((batch, hidden_i), dtype=dtype)
        # Contiguous per-gate scratch: the gate columns of `pre` are strided
        # views, and elementwise kernels on strided data lose the SIMD fast
        # path — each gate is copied into one of these contiguous (B, H)
        # rows before the activation passes run on it.
        self.gates_i = xp.empty((4, batch, hidden_i), dtype=dtype)
        self.pre_i = xp.empty((batch, 4 * hidden_i), dtype=dtype)
        self.x_proj_i = xp.empty((batch, time_steps, 4 * hidden_i), dtype=dtype)
        self.partner_i = xp.empty((batch, 4 * hidden_i), dtype=dtype) if partner_i else None
        self.cast_a = (
            xp.empty((batch, time_steps, features_i), dtype=dtype) if cast_inputs else None
        )
        if coupled:
            self.g = xp.empty((batch, hidden_a), dtype=dtype)
            self.c_a = xp.empty((batch, hidden_a), dtype=dtype)
            self.scratch_a = xp.empty((batch, hidden_a), dtype=dtype)
            self.gates_a = xp.empty((4, batch, hidden_a), dtype=dtype)
            self.pre_a = xp.empty((batch, 4 * hidden_a), dtype=dtype)
            self.x_proj_a = xp.empty((batch, time_steps, 4 * hidden_a), dtype=dtype)
            self.partner_a = xp.empty((batch, 4 * hidden_a), dtype=dtype) if partner_a else None
            self.cast_b = (
                xp.empty((batch, time_steps, features_a), dtype=dtype) if cast_inputs else None
            )
        else:
            self.g = self.c_a = self.scratch_a = self.pre_a = None
            self.gates_a = self.x_proj_a = self.partner_a = self.cast_b = None


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


def _prepare_input(sequence: np.ndarray, workspace_buffer, backend: str, dtype: np.dtype, xp):
    """Bring one host input batch into kernel form for ``(backend, dtype)``.

    The default path (host float64) is a no-copy ``asarray``; the reduced-
    precision host path converts into the workspace's reused cast buffer; a
    device backend pays exactly one host→device transfer here — the documented
    ingest-side half of the host↔device boundary.
    """
    if backend == "numpy":
        if dtype == _FLOAT64:
            return np.asarray(sequence, dtype=np.float64)
        np.copyto(workspace_buffer, sequence, casting="unsafe")
        return workspace_buffer
    return xp.asarray(sequence, dtype=dtype)


def _project_into(sequence, fused: FusedGateWeights, out, xp) -> None:
    """All timesteps' input-to-gate projections in one GEMM, into ``out``."""
    batch, time_steps, features = sequence.shape
    flat = sequence.reshape(batch * time_steps, features)
    out_flat = out.reshape(batch * time_steps, 4 * fused.hidden_size)
    xp.matmul(flat, fused.w_input, out=out_flat)
    out_flat += fused.bias


def _gate_step_into(pre, cell_state, hidden, gates, scratch, hidden_size: int, xp) -> None:
    """One LSTM state update, fully in place.

    ``pre`` ``(B, 4H)`` holds the fused pre-activation; ``cell_state`` and
    ``hidden`` are updated in place (``c_t = i·ĉ + f·c_{t-1}``,
    ``h_t = o·tanh(c_t)``), evaluating exactly the expressions of the frozen
    kernels in ``tests/frozen_kernels.py``.  Each gate column block of ``pre`` is a
    strided view, so it is first copied into a contiguous row of ``gates``
    ``(4, B, H)`` — elementwise kernels on strided data lose SIMD, and one
    contiguous copy is cheaper than five strided activation passes.
    """
    h = hidden_size
    input_gate, forget_gate, candidate, output_gate = gates
    input_gate[...] = pre[:, :h]
    forget_gate[...] = pre[:, h : 2 * h]
    candidate[...] = pre[:, 2 * h : 3 * h]
    output_gate[...] = pre[:, 3 * h :]
    _sigmoid_into(input_gate, input_gate, xp)
    _sigmoid_into(forget_gate, forget_gate, xp)
    xp.tanh(candidate, out=candidate)
    _sigmoid_into(output_gate, output_gate, xp)
    xp.multiply(forget_gate, cell_state, out=scratch)
    xp.multiply(input_gate, candidate, out=cell_state)
    cell_state += scratch
    xp.tanh(cell_state, out=scratch)
    xp.multiply(output_gate, scratch, out=hidden)


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
    backend = resolve_backend(backend)
    dtype = _resolve_kernel_dtype(dtype)
    raw = np.asarray(sequence)
    if raw.ndim != 3:
        raise ValueError(f"expected a (batch, time, features) array, got shape {raw.shape}")
    batch, time_steps, features = raw.shape
    primary = fuse_lstm_cell(cell)
    fused = _fused_variant(cell, primary, backend, dtype)
    xp = get_namespace(backend)
    hidden = cell.hidden_size
    key = (
        "lstm",
        batch,
        time_steps,
        hidden,
        features,
        backend,
        dtype.name,
        threading.get_ident(),
    )
    workspace = _workspace_for(
        cell,
        key,
        lambda: Workspace(
            xp,
            dtype,
            batch,
            time_steps,
            hidden,
            0,
            features,
            0,
            coupled=False,
            partner_i=False,
            partner_a=False,
            cast_inputs=(backend == "numpy" and dtype != _FLOAT64),
        ),
    )
    inputs = _prepare_input(raw, workspace.cast_a, backend, dtype, xp)
    h, c = workspace.h, workspace.c_i
    if state is None:
        h.fill(0.0)
        c.fill(0.0)
    else:
        # Copy the caller's state into the workspace (the reference kernel
        # aliased it, but never wrote through it — values are identical).
        h[...] = xp.asarray(np.asarray(state[0]), dtype=dtype)
        c[...] = xp.asarray(np.asarray(state[1]), dtype=dtype)
    _project_into(inputs, fused, workspace.x_proj_i, xp)
    # The per-step hidden states escape to the caller, so they are written to
    # a fresh array (exactly as the pre-seam kernel allocated them).
    hiddens = xp.empty((batch, time_steps, hidden), dtype=dtype)
    pre = workspace.pre_i
    for t in range(time_steps):
        xp.matmul(h, fused.w_hidden, out=pre)
        pre += workspace.x_proj_i[:, t]
        _gate_step_into(pre, c, h, workspace.gates_i, workspace.scratch_i, hidden, xp)
        hiddens[:, t] = h
    return hiddens, (h.copy(), c.copy())


def _coupled_context(influencer, audience, batch: int, time_steps: int, backend, dtype):
    """Resolve ``(fused_i, fused_a, xp, backend, dtype, workspace)`` for one
    coupled batch; both entries share one pooled workspace per shape."""
    backend = resolve_backend(backend)
    dtype = _resolve_kernel_dtype(dtype)
    fused_i = _fused_variant(influencer, fuse_coupled_cell(influencer), backend, dtype)
    fused_a = _fused_variant(audience, fuse_coupled_cell(audience), backend, dtype)
    xp = get_namespace(backend)
    hidden_i, hidden_a = influencer.hidden_size, audience.hidden_size
    features_i, features_a = fused_i.w_input.shape[0], fused_a.w_input.shape[0]
    key = (
        "coupled",
        batch,
        time_steps,
        hidden_i,
        hidden_a,
        features_i,
        features_a,
        backend,
        dtype.name,
        threading.get_ident(),
    )
    workspace = _workspace_for(
        influencer,
        key,
        lambda: Workspace(
            xp,
            dtype,
            batch,
            time_steps,
            hidden_i,
            hidden_a,
            features_i,
            features_a,
            coupled=True,
            partner_i=fused_i.w_partner is not None,
            partner_a=fused_a.w_partner is not None,
            cast_inputs=(backend == "numpy" and dtype != _FLOAT64),
        ),
    )
    return fused_i, fused_a, xp, backend, dtype, workspace


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
    block[:count] = xp.asarray(np.stack(rows), dtype=dtype)
    out = xp.empty((padded, 4 * fused.hidden_size), dtype=dtype)
    for start in range(0, padded, PROJECTION_BLOCK):
        stop = start + PROJECTION_BLOCK
        xp.matmul(block[start:stop], fused.w_input, out=out[start:stop])
    out += fused.bias
    return out[:count]


def _gather_cell(segments, cell: int, fused: FusedGateWeights, out, xp) -> None:
    """Fill ``out`` with the segments' gate inputs under ``fused``.

    Each distinct segment with no projection under this variant is projected
    exactly once (a backlog batch shares segments between its windows); the
    cached row is a private copy, so a retained segment pins ``4H`` values,
    not the block it was computed in.
    """
    missing = {
        id(segment): segment
        for segment in segments
        if segment.gates[cell] is None or segment.gates[cell][0] is not fused
    }
    if missing:
        todo = list(missing.values())
        projected = project_rows([segment.rows[cell] for segment in todo], fused, xp)
        for segment, row in zip(todo, projected):
            segment.gates[cell] = (fused, row.copy())
    xp.concatenate([segment.gates[cell][1] for segment in segments], out=out.reshape(-1))


def gather_gate_inputs(
    influencer: "CoupledLSTMCell",
    audience: "CoupledLSTMCell",
    windows,
    *,
    backend: Optional[str] = None,
    dtype: Optional[Any] = None,
) -> GateInputs:
    """Gate inputs of a serving batch: project the misses, gather the rest.

    ``windows`` is a sequence of ``B`` equal-length sequences of
    :class:`Segment`.  In steady state only each window's newest segment is
    unprojected, so a batch costs ``B`` projected rows per cell, not
    ``B·q``.  The result aliases the pooled workspace's ``x_proj_*`` buffers:
    consume it (:func:`coupled_pair_forward_gated`, or serialise it) before
    the next same-shape batch on this thread.
    """
    batch, time_steps = len(windows), len(windows[0])
    segments = [segment for window in windows for segment in window]
    if len(segments) != batch * time_steps:
        raise ValueError("all windows of a batch must have the same length")
    fused_i, fused_a, xp, _, _, workspace = _coupled_context(
        influencer, audience, batch, time_steps, backend, dtype
    )
    _gather_cell(segments, 0, fused_i, workspace.x_proj_i, xp)
    _gather_cell(segments, 1, fused_a, workspace.x_proj_a, xp)
    return GateInputs(workspace.x_proj_i, workspace.x_proj_a)


def _coupled_sweep(fused_i, fused_a, workspace, x_proj_i, x_proj_a, return_all_hidden: bool, xp, dtype):
    """The recurrent sweep shared by the full-window and pre-projected entries."""
    batch, time_steps = x_proj_i.shape[:2]
    hidden_i, hidden_a = fused_i.hidden_size, fused_a.hidden_size
    h, c_i = workspace.h, workspace.c_i
    g, c_a = workspace.g, workspace.c_a
    h.fill(0.0)
    c_i.fill(0.0)
    g.fill(0.0)
    c_a.fill(0.0)

    # Per-step hidden states escape to the caller (training-cache consumers,
    # drift analytics), so they are fresh arrays, never workspace views.
    h_all = xp.empty((batch, time_steps, hidden_i), dtype=dtype) if return_all_hidden else None
    g_all = xp.empty((batch, time_steps, hidden_a), dtype=dtype) if return_all_hidden else None

    pre_i, pre_a = workspace.pre_i, workspace.pre_a
    for t in range(time_steps):
        # Both pre-activations read the step t-1 states; only then update.
        xp.matmul(h, fused_i.w_hidden, out=pre_i)
        pre_i += x_proj_i[:, t]
        if fused_i.w_partner is not None:
            xp.matmul(g, fused_i.w_partner, out=workspace.partner_i)
            pre_i += workspace.partner_i
        xp.matmul(g, fused_a.w_hidden, out=pre_a)
        pre_a += x_proj_a[:, t]
        if fused_a.w_partner is not None:
            xp.matmul(h, fused_a.w_partner, out=workspace.partner_a)
            pre_a += workspace.partner_a
        _gate_step_into(pre_i, c_i, h, workspace.gates_i, workspace.scratch_i, hidden_i, xp)
        _gate_step_into(pre_a, c_a, g, workspace.gates_a, workspace.scratch_a, hidden_a, xp)
        if return_all_hidden:
            h_all[:, t] = h
            g_all[:, t] = g

    # The final states escape (serving retains hidden rows in its drift
    # buffer indefinitely), so they must be copies, not workspace views.
    # These O(B·H) copies are the only per-batch allocations of the kernel.
    h_final, g_final = h.copy(), g.copy()
    if return_all_hidden:
        return h_final, g_final, h_all, g_all
    return h_final, g_final


def coupled_pair_forward_gated(
    influencer: "CoupledLSTMCell",
    audience: "CoupledLSTMCell",
    gate_inputs: GateInputs,
    *,
    backend: Optional[str] = None,
    dtype: Optional[Any] = None,
):
    """The serving entry: the sweep over :func:`gather_gate_inputs` output
    (possibly gathered by another process under bitwise-equal weights).
    Returns ``(h_final, g_final)`` like :func:`coupled_pair_forward_fused`.
    """
    batch, time_steps = gate_inputs.influencer.shape[:2]
    fused_i, fused_a, xp, _, dtype, workspace = _coupled_context(
        influencer, audience, batch, time_steps, backend, dtype
    )
    x_proj_i = xp.asarray(gate_inputs.influencer, dtype=dtype)
    x_proj_a = xp.asarray(gate_inputs.audience, dtype=dtype)
    return _coupled_sweep(fused_i, fused_a, workspace, x_proj_i, x_proj_a, False, xp, dtype)


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
    fused_i, fused_a, xp, backend, dtype, workspace = _coupled_context(
        influencer, audience, batch, time_steps, backend, dtype
    )
    actions = _prepare_input(actions_raw, workspace.cast_a, backend, dtype, xp)
    interactions = _prepare_input(interactions_raw, workspace.cast_b, backend, dtype, xp)
    _project_into(actions, fused_i, workspace.x_proj_i, xp)
    _project_into(interactions, fused_a, workspace.x_proj_a, xp)
    return _coupled_sweep(
        fused_i, fused_a, workspace, workspace.x_proj_i, workspace.x_proj_a, return_all_hidden, xp, dtype
    )
