"""Analytic backpropagation-through-time for the fused training engine.

The training twin of :mod:`repro.nn.fused`: the whole step is hand-derived,
so no autograd graph (one Python closure per intermediate value) is built:

* the two mutually coupled cells are folded into one **joint recurrent
  system**: the previous hidden states ``[h_{t-1} | g_{t-1}]`` multiply a
  single ``(H1+H2, 4(H1+H2))`` block matrix whose off-diagonal blocks are the
  partner (coupling) weights — so one GEMM per timestep advances both cells
  *and* their mutual influence, cuDNN-style;
* the joint matrix's columns are grouped **by gate** (``[i | f | ĉ | o]``,
  each block spanning both cells), so every elementwise gate expression runs
  once over the joint width with in-place ufuncs instead of per-cell,
  per-gate Python calls;
* the forward caches post-activation gates, cell states and hidden states —
  exactly what the LSTM backward equations need; the backward walks time in
  reverse with one stacked GEMM pair per timestep (weight-gradient
  accumulation and hidden-state propagation).  The input-to-gate weight
  gradients are deferred to a single large ``(B·T, D)ᵀ @ (B·T, 4H)`` GEMM
  per cell after the loop;
* the reconstruction losses of Eq. 13 (JS / KL / L2 / MSE on the action
  branch, MSE on the interaction branch) and the decoder heads
  (Linear + softmax) have closed-form gradients, so no tensor tape is built
  anywhere in the step.

Numerical contract: every derivative below replicates the tape's backward
closures exactly (including the ``max(x, eps)`` clipping inside ``log`` and
the ``value * (1 - value)`` sigmoid derivative taken at the clipped input),
so gradients agree with ``Tensor.backward()`` up to summation-order noise;
the equivalence tests pin ≤1e-8.  The tape is the correctness oracle: the
tests call ``model(...)`` and ``loss.backward()`` directly, no option selects it.

Only zero initial states are supported — that is what every training path
uses (fresh windows per minibatch).

Two orthogonal extensions ride on the same layout:

* **Truncated BPTT** — the backward sweep accepts a ``window`` (plumbed from
  ``TrainingConfig.tbptt_window``): only the last ``window`` timesteps
  produce pre-activation gradients, states older than the window are treated
  as constants, and the deferred weight GEMMs shrink accordingly, so an
  incremental retrain over a long history costs O(window) in the backward
  instead of O(T).  For ``T ≤ window`` the gradient is *exactly* full BPTT
  (same code path); above it the divergence is the standard TBPTT bias —
  bounded by the LSTM's forget-gate contraction of ``∂h_t/∂h_{t-k}``.
* **Array-namespace routing** — allocations and ufuncs resolve their
  namespace from the arrays they operate on (:func:`repro.nn.backend
  .namespace_of`), never from a hardcoded ``numpy`` reference, and every
  buffer pins its dtype explicitly.  Training currently always resolves to
  the host namespace (parameters and optimiser state live on host); the
  kernels themselves are backend-clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from .backend import namespace_of
from .fused import FusedGateWeights, fuse_coupled_cell, fuse_lstm_cell
from .losses import _EPS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .layers import Linear
    from .recurrent import CoupledLSTMCell, LSTMCell

__all__ = [
    "BPTTCache",
    "lstm_forward_cached",
    "lstm_backward",
    "coupled_pair_forward_cached",
    "coupled_pair_backward",
    "softmax_forward",
    "softmax_backward",
    "linear_forward",
    "linear_backward",
    "is_softmax_head",
    "softmax_head_forward",
    "softmax_head_backward",
    "mse_loss_grad",
    "l2_loss_grad",
    "kl_loss_grad",
    "js_loss_grad",
    "weighted_loss_grad",
    "ACTION_LOSS_GRADS",
]

# The epsilon floor is imported from repro.nn.losses: the analytic gradients
# promise to replicate the tape's max(x, eps) clipping exactly, so the two
# modules must share one constant.


def _sigmoid_into(x: np.ndarray, out: np.ndarray, xp=np) -> None:
    """The tape's clipped sigmoid, computed fully in place into ``out``.

    Direct ``minimum``/``maximum`` ufuncs instead of the ``np.clip`` wrapper —
    this runs once per timestep on the joint gate width, so wrapper overhead
    is measurable.
    """
    xp.minimum(x, 60.0, out=out)
    xp.maximum(out, -60.0, out=out)
    xp.negative(out, out=out)
    xp.exp(out, out=out)
    out += 1.0
    xp.reciprocal(out, out=out)


# ---------------------------------------------------------------------- #
# Joint (gate-grouped) layout
# ---------------------------------------------------------------------- #
@dataclass
class BPTTCache:
    """Forward values the analytic backward pass needs, in joint layout.

    One or two cells are represented as a single recurrent system of total
    hidden width ``Hs`` (the sum of the cells' hidden sizes).  All cached
    arrays interleave the cells along the feature axis; the gate array groups
    columns by gate — ``[i | f | ĉ | o]``, each block of width ``Hs``
    spanning every cell — so the backward's elementwise expressions run once
    over the joint width.  Every cached array is **time-major** so the
    per-timestep slices the loops touch are contiguous (strided views cost
    real ufunc overhead at these sizes).

    Attributes
    ----------
    w_rec:
        ``(Hs, 4Hs)`` joint recurrent matrix in gate-grouped column layout.
        Off-diagonal blocks hold the coupling (partner) weights; they are
        zero when a coupling direction is disabled.
    hidden_sizes:
        Per-cell hidden sizes, in joint order.
    fused:
        Per-cell stacked weights (for the deferred input GEMMs and for
        splitting gradients back into parameters).
    inputs:
        Per-cell time-major flattened inputs ``(T·B, D)`` (row order matches
        the flattened pre-activation gradients in the deferred input GEMM).
    gates:
        ``(T, B, 4Hs)`` post-activation gates, gate-grouped.
    cells, tanh_cells, hiddens:
        ``(T, B, Hs)`` joint cell states, their tanh, and hidden states.
    """

    w_rec: np.ndarray
    hidden_sizes: Tuple[int, ...]
    fused: Tuple[FusedGateWeights, ...]
    inputs: Tuple[np.ndarray, ...]
    gates: np.ndarray
    cells: np.ndarray
    tanh_cells: np.ndarray
    hiddens: np.ndarray


def _time_major_inputs(sequence: np.ndarray) -> np.ndarray:
    """Flatten ``(B, T, D)`` into time-major ``(T·B, D)`` rows (one copy)."""
    batch, time_steps, features = sequence.shape
    return np.ascontiguousarray(sequence.transpose(1, 0, 2)).reshape(
        time_steps * batch, features
    )


def _project_inputs(flat_inputs: np.ndarray, fused: FusedGateWeights, batch: int) -> np.ndarray:
    """All timesteps' input-to-gate projections in one GEMM: ``(T, B, 4H)``."""
    projected = flat_inputs @ fused.w_input + fused.bias
    return projected.reshape(-1, batch, 4 * fused.hidden_size)


def _assemble_joint_projection(projections: Sequence[np.ndarray], hidden_sizes: Sequence[int]) -> np.ndarray:
    """Interleave per-cell ``(T, B, 4H)`` projections into gate-grouped joint layout."""
    if len(projections) == 1:
        # A single cell's [i | f | ĉ | o] layout is already gate-grouped.
        return projections[0]
    time_steps, batch, _ = projections[0].shape
    total = sum(hidden_sizes)
    joint = np.empty((time_steps, batch, 4 * total), dtype=projections[0].dtype)
    for gate in range(4):
        offset = gate * total
        for projection, hidden in zip(projections, hidden_sizes):
            joint[..., offset : offset + hidden] = projection[..., gate * hidden : (gate + 1) * hidden]
            offset += hidden
    return joint


def _joint_recurrent_matrix(
    fused_list: Sequence[FusedGateWeights], hidden_sizes: Sequence[int]
) -> np.ndarray:
    """Build the gate-grouped joint recurrent matrix ``(Hs, 4Hs)``.

    Row blocks follow the joint state order; for each gate, the column block
    of cell ``j`` receives that cell's recurrent weights in its own rows and
    its partner weights in the partner's rows (or zeros when the coupling
    direction is disabled).  With a single cell this is exactly
    ``fused.w_hidden``.
    """
    if len(fused_list) == 1:
        return fused_list[0].w_hidden
    total = sum(hidden_sizes)
    row_offsets = np.concatenate([[0], np.cumsum(hidden_sizes)])
    w_rec = np.zeros((total, 4 * total), dtype=fused_list[0].w_hidden.dtype)
    for cell_index, (fused, hidden) in enumerate(zip(fused_list, hidden_sizes)):
        own = slice(int(row_offsets[cell_index]), int(row_offsets[cell_index + 1]))
        partner_index = 1 - cell_index
        partner = slice(int(row_offsets[partner_index]), int(row_offsets[partner_index + 1]))
        col_base = int(row_offsets[cell_index])
        for gate in range(4):
            start = gate * total + col_base
            cols = slice(start, start + hidden)
            w_rec[own, cols] = fused.w_hidden[:, gate * hidden : (gate + 1) * hidden]
            if fused.w_partner is not None:
                w_rec[partner, cols] = fused.w_partner[:, gate * hidden : (gate + 1) * hidden]
    return w_rec


def _cached_joint_recurrent(anchor, fused_list, hidden_sizes) -> np.ndarray:
    """Memoise the joint recurrent matrix on ``anchor`` (a cell).

    The per-cell stacked weights from :mod:`repro.nn.fused` are themselves
    cached and rebuilt only when the underlying parameters change, so their
    identities are a sound staleness check here too — provided the cache
    holds references to the keyed objects (as ``_cached_fuse`` does), which
    keeps their identities stable while the entry is alive.
    """
    cache = getattr(anchor, "_joint_rec_cache", None)
    if cache is not None and all(held is live for held, live in zip(cache[0], fused_list)):
        return cache[1]
    w_rec = _joint_recurrent_matrix(fused_list, hidden_sizes)
    anchor._joint_rec_cache = (tuple(fused_list), w_rec)
    return w_rec


# ---------------------------------------------------------------------- #
# Cached fused forward
# ---------------------------------------------------------------------- #
def _joint_forward(
    w_rec: np.ndarray,
    x_proj: np.ndarray,
    hidden_sizes: Tuple[int, ...],
    fused: Tuple[FusedGateWeights, ...],
    inputs: Tuple[np.ndarray, ...],
) -> Tuple[np.ndarray, BPTTCache]:
    """Run the joint recurrence over ``(T, B, 4Hs)`` projections, caching states."""
    xp = namespace_of(x_proj)
    dtype = x_proj.dtype
    time_steps, batch, four_total = x_proj.shape
    total = four_total // 4
    gates = xp.empty((time_steps, batch, four_total), dtype=dtype)
    cells = xp.empty((time_steps, batch, total), dtype=dtype)
    tanh_cells = xp.empty((time_steps, batch, total), dtype=dtype)
    hiddens = xp.empty((time_steps, batch, total), dtype=dtype)

    state = xp.zeros((batch, total), dtype=dtype)
    cell_state = xp.zeros((batch, total), dtype=dtype)
    pre = xp.empty((batch, four_total), dtype=dtype)
    scratch = xp.empty((batch, total), dtype=dtype)
    for t in range(time_steps):
        xp.matmul(state, w_rec, out=pre)
        pre += x_proj[t]
        gate = gates[t]
        # One sigmoid pass over the whole joint gate width (the wasted work on
        # the candidate block is cheaper than a second set of ufunc calls),
        # then the candidate block is overwritten with its tanh.
        _sigmoid_into(pre, gate, xp)
        xp.tanh(pre[:, 2 * total : 3 * total], out=gate[:, 2 * total : 3 * total])
        c_t = cells[t]
        xp.multiply(gate[:, :total], gate[:, 2 * total : 3 * total], out=c_t)
        xp.multiply(gate[:, total : 2 * total], cell_state, out=scratch)
        c_t += scratch
        xp.tanh(c_t, out=tanh_cells[t])
        xp.multiply(gate[:, 3 * total :], tanh_cells[t], out=hiddens[t])
        state = hiddens[t]
        cell_state = c_t

    cache = BPTTCache(
        w_rec=w_rec,
        hidden_sizes=hidden_sizes,
        fused=fused,
        inputs=inputs,
        gates=gates,
        cells=cells,
        tanh_cells=tanh_cells,
        hiddens=hiddens,
    )
    return hiddens[time_steps - 1], cache


def _check_sequence(sequence: np.ndarray) -> np.ndarray:
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 3:
        raise ValueError(f"expected a (batch, time, features) array, got shape {sequence.shape}")
    if sequence.shape[1] < 1:
        raise ValueError("sequences must contain at least one timestep")
    return sequence


def lstm_forward_cached(cell: "LSTMCell", sequence: np.ndarray) -> Tuple[np.ndarray, BPTTCache]:
    """Fused forward of a plain LSTM cell that caches everything BPTT needs.

    Returns the final hidden state ``(B, H)`` and the :class:`BPTTCache`
    (per-step hiddens are available as ``cache.hiddens``).
    """
    sequence = _check_sequence(sequence)
    fused = fuse_lstm_cell(cell)
    flat_inputs = _time_major_inputs(sequence)
    x_proj = _project_inputs(flat_inputs, fused, sequence.shape[0])
    return _joint_forward(
        fused.w_hidden, x_proj, (cell.hidden_size,), (fused,), (flat_inputs,)
    )


def coupled_pair_forward_cached(
    influencer: "CoupledLSTMCell",
    audience: "CoupledLSTMCell",
    action_sequences: np.ndarray,
    interaction_sequences: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, BPTTCache]:
    """Cached twin of :func:`repro.nn.fused.coupled_pair_forward_fused`.

    Advances both mutually coupled cells in lockstep as one joint recurrence
    and records the gate activations and states, so
    :func:`coupled_pair_backward` can run the analytic BPTT afterwards.
    Returns ``(h_final, g_final, cache)``.
    """
    actions = _check_sequence(action_sequences)
    interactions = _check_sequence(interaction_sequences)
    if actions.shape[0] != interactions.shape[0]:
        raise ValueError("action and interaction batches must have the same size")
    if actions.shape[1] != interactions.shape[1]:
        raise ValueError("action and interaction sequences must have the same length")

    fused_i = fuse_coupled_cell(influencer)
    fused_a = fuse_coupled_cell(audience)
    hidden_sizes = (influencer.hidden_size, audience.hidden_size)
    w_rec = _cached_joint_recurrent(influencer, (fused_i, fused_a), hidden_sizes)
    batch = actions.shape[0]
    flat_actions = _time_major_inputs(actions)
    flat_interactions = _time_major_inputs(interactions)
    x_proj = _assemble_joint_projection(
        [
            _project_inputs(flat_actions, fused_i, batch),
            _project_inputs(flat_interactions, fused_a, batch),
        ],
        hidden_sizes,
    )
    final, cache = _joint_forward(
        w_rec, x_proj, hidden_sizes, (fused_i, fused_a), (flat_actions, flat_interactions)
    )
    h1 = influencer.hidden_size
    return final[:, :h1], final[:, h1:], cache


# ---------------------------------------------------------------------- #
# Analytic BPTT backward
# ---------------------------------------------------------------------- #
def _accumulate_grad(parameter, grad: np.ndarray) -> None:
    """Add ``grad`` into ``parameter.grad`` (tape-compatible accumulation)."""
    if parameter.grad is None:
        parameter.grad = grad
    else:
        parameter.grad = parameter.grad + grad


def _joint_backward(
    cache: BPTTCache, d_final: np.ndarray, window: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Reverse sweep over the joint recurrence, optionally truncated.

    Returns ``(d_w_rec, d_pre_all, start)``: the joint recurrent-weight
    gradient ``(Hs, 4Hs)``, the per-step pre-activation gradients
    ``(T - start, B, 4Hs)`` (gate-grouped) for the steps that were swept,
    and the first swept step ``start``.  The input-weight and bias gradients
    follow from ``d_pre_all``.

    ``window`` truncates the sweep to the last ``window`` timesteps
    (``start = max(0, T - window)``): the hidden/cell states entering step
    ``start`` are treated as constants — the standard truncated-BPTT
    approximation — so every buffer here is O(window) and the deferred GEMMs
    shrink to the window.  ``window is None`` or ``window ≥ T`` takes the
    exact full-BPTT path (``start = 0``, identical operations to the
    untruncated implementation).

    Everything that depends only on cached forward values is vectorised over
    the swept timesteps *before* the reverse loop: the per-gate factor
    ``∂gate/∂pre · upstream`` (``factors``) and ``1 - tanh(c)^2``.  The loop
    itself then touches each step with a handful of joint-width ufuncs plus
    the single state-propagation GEMM; the recurrent weight gradient
    ``Σ_t s_{t-1}ᵀ · d_pre_t`` is deferred to one big GEMM at the end.
    """
    gates, cells, tanh_cells, hiddens = cache.gates, cache.cells, cache.tanh_cells, cache.hiddens
    w_rec = cache.w_rec
    xp = namespace_of(gates)
    dtype = gates.dtype
    time_steps, batch, total = cells.shape
    start = 0 if window is None else max(0, time_steps - window)
    span = time_steps - start
    i_cols = slice(0, total)
    f_cols = slice(total, 2 * total)
    c_cols = slice(2 * total, 3 * total)
    o_cols = slice(3 * total, None)

    # factors[k] (k = t - start) = d(gate)/d(pre) * (local upstream factor):
    #   input:     i(1-i) * ĉ        forget:  f(1-f) * c_{t-1}
    #   candidate: (1-ĉ²) * i        output:  o(1-o) * tanh(c_t)
    gates_w = gates[start:]
    tanh_w = tanh_cells[start:]
    factors = xp.empty((span, batch, 4 * total), dtype=dtype)
    xp.multiply(gates_w, gates_w, out=factors)
    xp.subtract(gates_w, factors, out=factors)  # g - g² = g(1-g) (sigmoid blocks)
    candidate = gates_w[:, :, c_cols]
    xp.multiply(candidate, candidate, out=factors[:, :, c_cols])
    xp.subtract(1.0, factors[:, :, c_cols], out=factors[:, :, c_cols])  # 1 - ĉ²
    factors[:, :, i_cols] *= candidate
    factors[:, :, c_cols] *= gates_w[:, :, i_cols]
    factors[:, :, o_cols] *= tanh_w
    if start == 0:
        factors[1:, :, f_cols] *= cells[:-1]  # c_{t-1}; step 0 reads the zero state
        factors[0, :, f_cols] = 0.0
    else:
        # Every swept step has a real (cached) predecessor cell state; its
        # *value* still enters the forget-gate factor even though no gradient
        # is propagated into it.
        factors[:, :, f_cols] *= cells[start - 1 : time_steps - 1]

    one_minus_tanh_sq = xp.multiply(tanh_w, tanh_w)
    xp.subtract(1.0, one_minus_tanh_sq, out=one_minus_tanh_sq)

    d_state = xp.array(d_final, dtype=dtype)
    d_cell = xp.zeros((batch, total), dtype=dtype)
    d_pre_all = xp.empty((span, batch, 4 * total), dtype=dtype)
    d_c_total = xp.empty((batch, total), dtype=dtype)
    next_state = xp.empty((batch, total), dtype=dtype)

    for t in reversed(range(start, time_steps)):
        gate = gates[t]
        d_pre = d_pre_all[t - start]
        # d_c_total = d_cell + d_state * o * (1 - tanh(c)^2)
        xp.multiply(d_state, gate[:, o_cols], out=d_c_total)
        d_c_total *= one_minus_tanh_sq[t - start]
        d_c_total += d_cell
        # d_pre: the i/f/ĉ blocks share the d_c_total factor (one broadcast
        # pass over a (B, 3, Hs) view); the o block uses d_state instead.
        xp.multiply(
            factors[t - start, :, : 3 * total].reshape(batch, 3, total),
            d_c_total[:, None, :],
            out=d_pre[:, : 3 * total].reshape(batch, 3, total),
        )
        xp.multiply(factors[t - start, :, o_cols], d_state, out=d_pre[:, o_cols])
        # Carry the cell gradient: d_c_{t-1} = d_c_total * f
        xp.multiply(d_c_total, gate[:, f_cols], out=d_cell)
        if t > start:
            # At start == 0 the initial state is zero (no grad to propagate);
            # at start > 0 the truncation stops the sweep there.
            xp.matmul(d_pre, w_rec.T, out=next_state)
            d_state = next_state

    # Recurrent weight gradient in one deferred GEMM over the swept steps
    # with a real predecessor hidden state (t ≥ max(1, start)).
    first = max(1, start)
    if time_steps > first:
        states = hiddens[first - 1 : time_steps - 1].reshape((time_steps - first) * batch, total)
        d_pres = d_pre_all[first - start :].reshape((time_steps - first) * batch, 4 * total)
        d_w_rec = states.T @ d_pres
    else:
        d_w_rec = xp.zeros_like(w_rec)
    return d_w_rec, d_pre_all, start


def _scatter_cell_grads(
    cell,
    d_hidden_rows: np.ndarray,
    d_partner_rows: Optional[np.ndarray],
    d_input_rows: np.ndarray,
    d_bias: np.ndarray,
) -> None:
    """Split per-cell stacked-gate gradients back into the eight parameters.

    Inputs are in the cell's own ``[i | f | ĉ | o]`` column layout; the
    concatenated rows follow the cell's input order (``[h, x]`` for a plain
    cell, ``[h, partner, x]`` for a coupled one).  A coupled cell with
    ``use_partner=False`` receives an all-zero partner block, exactly like
    the tape path (which multiplies those rows by zeros).
    """
    h = cell.hidden_size
    partner_size = getattr(cell, "partner_size", 0)
    weights = (cell.w_input, cell.w_forget, cell.w_cell, cell.w_output)
    biases = (cell.b_input, cell.b_forget, cell.b_cell, cell.b_output)
    for gate, (weight, bias) in enumerate(zip(weights, biases)):
        cols = slice(gate * h, (gate + 1) * h)
        rows = [d_hidden_rows[:, cols]]
        if partner_size:
            if d_partner_rows is not None:
                rows.append(d_partner_rows[:, cols])
            else:
                rows.append(np.zeros((partner_size, h), dtype=d_hidden_rows.dtype))
        rows.append(d_input_rows[:, cols])
        _accumulate_grad(weight, np.concatenate(rows, axis=0))
        _accumulate_grad(bias, d_bias[cols].copy())


def _split_joint_pre(
    d_pre_all: np.ndarray, hidden_sizes: Tuple[int, ...], cell_index: int
) -> np.ndarray:
    """Extract one cell's ``(T·B, 4H)`` pre-activation grads from the joint array."""
    time_steps, batch, _ = d_pre_all.shape
    total = sum(hidden_sizes)
    hidden = hidden_sizes[cell_index]
    offset = sum(hidden_sizes[:cell_index])
    if len(hidden_sizes) == 1:
        return d_pre_all.reshape(time_steps * batch, 4 * hidden)
    out = np.empty((time_steps, batch, 4 * hidden), dtype=d_pre_all.dtype)
    for gate in range(4):
        cols = slice(gate * total + offset, gate * total + offset + hidden)
        out[..., gate * hidden : (gate + 1) * hidden] = d_pre_all[..., cols]
    return out.reshape(time_steps * batch, 4 * hidden)


def _joint_rec_block(
    d_w_rec: np.ndarray,
    hidden_sizes: Tuple[int, ...],
    row_cell: int,
    col_cell: int,
) -> np.ndarray:
    """One ``(H_row, 4H_col)`` block of the joint recurrent gradient, de-grouped."""
    total = sum(hidden_sizes)
    row_offset = sum(hidden_sizes[:row_cell])
    rows = slice(row_offset, row_offset + hidden_sizes[row_cell])
    col_offset = sum(hidden_sizes[:col_cell])
    hidden = hidden_sizes[col_cell]
    if len(hidden_sizes) == 1:
        return d_w_rec
    out = np.empty((hidden_sizes[row_cell], 4 * hidden), dtype=d_w_rec.dtype)
    for gate in range(4):
        cols = slice(gate * total + col_offset, gate * total + col_offset + hidden)
        out[:, gate * hidden : (gate + 1) * hidden] = d_w_rec[rows, cols]
    return out


def _finalise_cell_grads(
    cell,
    cache: BPTTCache,
    d_w_rec: np.ndarray,
    d_pre_all: np.ndarray,
    cell_index: int,
    start: int = 0,
) -> None:
    """Input/bias GEMMs and parameter scatter for one cell of the joint system.

    ``start`` is the first timestep the (possibly truncated) backward swept;
    the time-major input rows below it contribute no gradient and are sliced
    away, keeping the deferred input GEMM O(window) as well.
    """
    batch = d_pre_all.shape[1]
    flat_inputs = cache.inputs[cell_index]
    if start:
        flat_inputs = flat_inputs[start * batch :]
    d_pre = _split_joint_pre(d_pre_all, cache.hidden_sizes, cell_index)
    d_w_input = flat_inputs.T @ d_pre
    d_bias = d_pre.sum(axis=0)
    d_hidden_rows = _joint_rec_block(d_w_rec, cache.hidden_sizes, cell_index, cell_index)
    d_partner_rows = None
    if len(cache.hidden_sizes) > 1 and getattr(cell, "use_partner", False):
        d_partner_rows = _joint_rec_block(d_w_rec, cache.hidden_sizes, 1 - cell_index, cell_index)
    _scatter_cell_grads(cell, d_hidden_rows, d_partner_rows, d_w_input, d_bias)


def _check_window(window: Optional[int]) -> Optional[int]:
    if window is not None and (isinstance(window, bool) or not isinstance(window, int) or window < 1):
        raise ValueError(f"tbptt window must be a positive integer or None, got {window!r}")
    return window


def lstm_backward(
    cell: "LSTMCell",
    cache: BPTTCache,
    d_last_hidden: np.ndarray,
    window: Optional[int] = None,
) -> None:
    """Analytic BPTT for a plain LSTM cell, from the final hidden state only.

    Accumulates gradients into the cell's parameters (``.grad``), matching
    what ``state[0].backward(d_last_hidden)`` produces on the tape path.
    ``window`` truncates the sweep to the last ``window`` timesteps (exact
    full BPTT whenever the sequence fits inside it).
    """
    d_w_rec, d_pre_all, start = _joint_backward(cache, d_last_hidden, _check_window(window))
    _finalise_cell_grads(cell, cache, d_w_rec, d_pre_all, 0, start)


def coupled_pair_backward(
    influencer: "CoupledLSTMCell",
    audience: "CoupledLSTMCell",
    cache: BPTTCache,
    d_h_final: np.ndarray,
    d_g_final: np.ndarray,
    window: Optional[int] = None,
) -> None:
    """Analytic BPTT through two mutually coupled cells.

    At step ``t`` both cells read ``h_{t-1}`` and ``g_{t-1}``; in the joint
    formulation that mutual influence is carried by the off-diagonal blocks
    of the recurrent matrix, so the reverse sweep propagates it with the same
    single GEMM pair per timestep.  Gradients are accumulated into both
    cells' parameters (a disabled coupling direction yields the tape's exact
    all-zero partner-weight gradient).

    ``window`` applies truncated BPTT to the joint system: for sequences no
    longer than the window the gradient is exactly full BPTT; beyond it, the
    sweep (and its memory) is O(window) and states older than the window are
    treated as constants.
    """
    d_final = np.concatenate(
        [np.asarray(d_h_final, dtype=np.float64), np.asarray(d_g_final, dtype=np.float64)],
        axis=1,
    )
    d_w_rec, d_pre_all, start = _joint_backward(cache, d_final, _check_window(window))
    _finalise_cell_grads(influencer, cache, d_w_rec, d_pre_all, 0, start)
    _finalise_cell_grads(audience, cache, d_w_rec, d_pre_all, 1, start)


# ---------------------------------------------------------------------- #
# Decoder heads (Linear / softmax)
# ---------------------------------------------------------------------- #
def softmax_forward(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (the tape's expression)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def softmax_backward(softmax_out: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Gradient of a softmax output w.r.t. its logits."""
    dot = (d_out * softmax_out).sum(axis=-1, keepdims=True)
    return softmax_out * (d_out - dot)


def linear_forward(layer: "Linear", x: np.ndarray) -> np.ndarray:
    """Tape-free forward of a :class:`~repro.nn.layers.Linear` layer."""
    out = x @ layer.weight.data
    if layer.bias is not None:
        out = out + layer.bias.data
    return out


def linear_backward(layer: "Linear", x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Backward of a Linear layer: accumulates weight/bias grads, returns dx."""
    _accumulate_grad(layer.weight, x.T @ d_out)
    if layer.bias is not None:
        _accumulate_grad(layer.bias, d_out.sum(axis=0))
    return d_out @ layer.weight.data.T


def is_softmax_head(head) -> bool:
    """Whether ``head`` has the ``Sequential(Linear, SoftmaxHead)`` shape the
    analytic backward hard-codes (the shape of every softmax decoder here)."""
    from .layers import Linear as LinearLayer, SoftmaxHead

    try:
        layers = list(head)
    except TypeError:
        return False
    return (
        len(layers) == 2
        and isinstance(layers[0], LinearLayer)
        and isinstance(layers[1], SoftmaxHead)
    )


def softmax_head_forward(head, x: np.ndarray) -> Tuple[np.ndarray, "Linear"]:
    """Tape-free forward of a ``Sequential(Linear, SoftmaxHead)`` decoder.

    The structure is validated (:func:`is_softmax_head`) and anything else
    fails loudly instead of silently backpropagating through the wrong
    architecture.  Returns ``(softmax_out, linear_layer)``; pass both to
    :func:`softmax_head_backward`.
    """
    if not is_softmax_head(head):
        raise RuntimeError(
            "fused training expects a Sequential(Linear, SoftmaxHead) decoder; "
            f"found {type(head).__name__}"
        )
    linear = list(head)[0]
    return softmax_forward(linear_forward(linear, x)), linear


def softmax_head_backward(
    linear: "Linear", x: np.ndarray, softmax_out: np.ndarray, d_out: np.ndarray
) -> np.ndarray:
    """Backward through a softmax head: accumulates the Linear's grads, returns dx."""
    return linear_backward(linear, x, softmax_backward(softmax_out, d_out))


# ---------------------------------------------------------------------- #
# Analytic reconstruction-loss gradients (Eq. 13 and the Table I variants)
# ---------------------------------------------------------------------- #
def mse_loss_grad(prediction: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
    """Value and prediction-gradient of the element-mean squared error."""
    diff = prediction - target
    value = float(np.mean(diff * diff))
    return value, (2.0 / diff.size) * diff


def l2_loss_grad(prediction: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
    """Value and gradient of the per-sample squared-L2 loss (Table I "L2")."""
    diff = prediction - target
    value = float(np.mean(np.sum(diff * diff, axis=-1)))
    return value, (2.0 / prediction.shape[0]) * diff


def kl_loss_grad(prediction: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
    """Value and gradient of mean ``KL(target || prediction)``.

    Replicates the tape exactly: the log is evaluated at ``max(x, eps)`` and
    its derivative is ``1 / max(x, eps)`` (no mask), as in ``Tensor.log``.
    """
    clipped_p = np.maximum(prediction, _EPS)
    clipped_t = np.maximum(target, _EPS)
    ratio = np.log(clipped_t) - np.log(clipped_p)
    value = float(np.mean(np.sum(target * ratio, axis=-1)))
    grad = -(target / clipped_p) / prediction.shape[0]
    return value, grad


def js_loss_grad(prediction: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
    """Value and gradient of the mean Jensen–Shannon divergence (paper's JSE)."""
    mixture = 0.5 * (prediction + target)
    clipped_p = np.maximum(prediction, _EPS)
    clipped_m = np.maximum(mixture, _EPS)
    log_p = np.log(clipped_p)
    log_m = np.log(clipped_m)
    log_t = np.log(np.maximum(target, _EPS))
    kl_pm = np.sum(prediction * (log_p - log_m), axis=-1)
    kl_qm = np.sum(target * (log_t - log_m), axis=-1)
    value = float(np.mean(0.5 * (kl_pm + kl_qm)))
    # d/dp of p*(log p - log m) + t*(log t - log m) with m = (p + t)/2 and the
    # tape's clipped-log derivative 1/max(x, eps):
    grad = (0.5 / prediction.shape[0]) * (
        (log_p - log_m)
        + prediction / clipped_p
        - 0.5 * (prediction + target) / clipped_m
    )
    return value, grad


ACTION_LOSS_GRADS = {
    "js": js_loss_grad,
    "kl": kl_loss_grad,
    "l2": l2_loss_grad,
    "mse": mse_loss_grad,
}


def weighted_loss_grad(
    action_prediction: np.ndarray,
    action_target: np.ndarray,
    interaction_prediction: np.ndarray,
    interaction_target: np.ndarray,
    omega: float,
    action_loss: str = "js",
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Value and both prediction-gradients of the fused CLSTM loss (Eq. 13).

    Returns ``(loss, d_action_prediction, d_interaction_prediction)``.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")
    if action_loss not in ACTION_LOSS_GRADS:
        raise ValueError(
            f"unknown action loss '{action_loss}'; options: {sorted(ACTION_LOSS_GRADS)}"
        )
    action_value, action_grad = ACTION_LOSS_GRADS[action_loss](
        np.asarray(action_prediction, dtype=np.float64),
        np.asarray(action_target, dtype=np.float64),
    )
    interaction_value, interaction_grad = mse_loss_grad(
        np.asarray(interaction_prediction, dtype=np.float64),
        np.asarray(interaction_target, dtype=np.float64),
    )
    value = omega * action_value + (1.0 - omega) * interaction_value
    return value, omega * action_grad, (1.0 - omega) * interaction_grad
