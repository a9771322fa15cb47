"""Frozen pre-seam fused inference kernels (bitwise-parity oracle).

This module is a verbatim snapshot of the :mod:`repro.nn.fused` forward
kernels as they stood *before* the backend seam, the workspace pool and the
precision options were introduced.  It must never be optimised or "fixed":
``tests/test_backend.py`` pins the contract that the live kernels at the
default ``float64`` precision remain **bitwise identical** to these
implementations — the kernel-level form of the serving executor's
``workers=1``-bitwise guarantee.

The functions take prebuilt :class:`~repro.nn.fused.FusedGateWeights` (the
weight-stacking step is identical either way and orthogonal to what is being
pinned) and replicate the historical allocation behaviour: fresh ``zeros``
state buffers, a fresh projection array, and ~a dozen temporaries per
timestep from the out-of-place gate math.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.fused import FusedGateWeights

__all__ = [
    "reference_sigmoid",
    "reference_lstm_forward",
    "reference_coupled_pair_forward",
]


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """The pre-seam sigmoid: ``1 / (1 + exp(-clip(x, -60, 60)))``."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _gate_step(
    pre: np.ndarray, cell_state: np.ndarray, hidden_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One LSTM state update from the fused pre-activation ``(B, 4H)``."""
    h = hidden_size
    input_gate = reference_sigmoid(pre[:, :h])
    forget_gate = reference_sigmoid(pre[:, h : 2 * h])
    candidate = np.tanh(pre[:, 2 * h : 3 * h])
    output_gate = reference_sigmoid(pre[:, 3 * h :])
    c_t = input_gate * candidate + forget_gate * cell_state
    h_t = output_gate * np.tanh(c_t)
    return h_t, c_t


def _project_inputs(sequence: np.ndarray, fused: FusedGateWeights) -> np.ndarray:
    """All timesteps' input-to-gate projections in one GEMM: ``(B, T, 4H)``."""
    batch, time_steps, features = sequence.shape
    flat = sequence.reshape(batch * time_steps, features)
    projected = flat @ fused.w_input + fused.bias
    return projected.reshape(batch, time_steps, 4 * fused.hidden_size)


def reference_lstm_forward(
    fused: FusedGateWeights,
    hidden_size: int,
    sequence: np.ndarray,
    state: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Pre-seam :func:`repro.nn.fused.lstm_forward_fused`, verbatim."""
    sequence = np.asarray(sequence, dtype=np.float64)
    batch, time_steps, _ = sequence.shape
    if state is None:
        h = np.zeros((batch, hidden_size))
        c = np.zeros((batch, hidden_size))
    else:
        h = np.asarray(state[0], dtype=np.float64)
        c = np.asarray(state[1], dtype=np.float64)
    x_proj = _project_inputs(sequence, fused)
    hiddens = np.empty((batch, time_steps, hidden_size))
    for t in range(time_steps):
        pre = x_proj[:, t] + h @ fused.w_hidden
        h, c = _gate_step(pre, c, hidden_size)
        hiddens[:, t] = h
    return hiddens, (h, c)


def reference_coupled_pair_forward(
    fused_i: FusedGateWeights,
    fused_a: FusedGateWeights,
    influencer_hidden: int,
    audience_hidden: int,
    action_sequences: np.ndarray,
    interaction_sequences: np.ndarray,
    return_all_hidden: bool = False,
):
    """Pre-seam :func:`repro.nn.fused.coupled_pair_forward_fused`, verbatim."""
    actions = np.asarray(action_sequences, dtype=np.float64)
    interactions = np.asarray(interaction_sequences, dtype=np.float64)
    batch, time_steps, _ = actions.shape

    h = np.zeros((batch, influencer_hidden))
    c_i = np.zeros((batch, influencer_hidden))
    g = np.zeros((batch, audience_hidden))
    c_a = np.zeros((batch, audience_hidden))

    x_proj_i = _project_inputs(actions, fused_i)
    x_proj_a = _project_inputs(interactions, fused_a)

    h_all = np.empty((batch, time_steps, influencer_hidden)) if return_all_hidden else None
    g_all = np.empty((batch, time_steps, audience_hidden)) if return_all_hidden else None

    for t in range(time_steps):
        pre_i = x_proj_i[:, t] + h @ fused_i.w_hidden
        if fused_i.w_partner is not None:
            pre_i = pre_i + g @ fused_i.w_partner
        pre_a = x_proj_a[:, t] + g @ fused_a.w_hidden
        if fused_a.w_partner is not None:
            pre_a = pre_a + h @ fused_a.w_partner
        # Both pre-activations read the step t-1 states; only now update them.
        h, c_i = _gate_step(pre_i, c_i, influencer_hidden)
        g, c_a = _gate_step(pre_a, c_a, audience_hidden)
        if return_all_hidden:
            h_all[:, t] = h
            g_all[:, t] = g

    if return_all_hidden:
        return h, g, h_all, g_all
    return h, g
