"""Recurrent cells: standard LSTM and the coupled LSTM cell used by CLSTM.

The paper's CLSTM (Section IV-B) consists of two LSTM layers, ``LSTM_I`` over
influencer action features and ``LSTM_A`` over audience interaction features.
The crucial difference from a vanilla LSTM is that every gate of each layer is
conditioned on the previous hidden state of *both* layers (Eq. 1-10):

``IG_t = sigma(W_i [h_{t-1}, g_{t-1}, f_t] + b_i)`` and analogously for the
forget gate, candidate cell state and output gate, where ``h`` is the hidden
state of ``LSTM_I`` and ``g`` the hidden state of ``LSTM_A``.

:class:`CoupledLSTMCell` implements exactly this gate structure; the plain
:class:`LSTMCell` is used by the LSTM baseline and by CLSTM-S (the one-way
coupled ablation in the paper's evaluation).

The per-timestep ``forward`` methods here are the autograd tape path.  Both
hot loops have fused, tape-free twins: batched inference lives in
:mod:`repro.nn.fused` and the analytic-BPTT training engine in
:mod:`repro.nn.backprop`; the tape remains the correctness oracle both are
tested against.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .fused import lstm_forward_fused
from .module import Module, Parameter
from .tensor import Tensor, is_grad_enabled

__all__ = ["LSTMCell", "CoupledLSTMCell", "LSTMState", "run_lstm"]

LSTMState = Tuple[Tensor, Tensor]


def _gate_weight(input_size: int, hidden_size: int, rng: np.random.Generator) -> Parameter:
    """Weight matrix for one gate: concatenated input of size ``input_size``."""
    return Parameter(init.xavier_uniform((input_size, hidden_size), rng))


class LSTMCell(Module):
    """A standard LSTM cell operating on a single time step.

    The cell follows the classic formulation of Hochreiter & Schmidhuber with
    a concatenated ``[h_{t-1}, x_t]`` input to each gate, matching the paper's
    notation when the coupled state ``g_{t-1}`` is dropped.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("LSTMCell sizes must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        concat = hidden_size + input_size
        self.w_input = _gate_weight(concat, hidden_size, rng)
        self.w_forget = _gate_weight(concat, hidden_size, rng)
        self.w_cell = _gate_weight(concat, hidden_size, rng)
        self.w_output = _gate_weight(concat, hidden_size, rng)
        self.b_input = Parameter(init.zeros((hidden_size,)))
        self.b_forget = Parameter(np.ones(hidden_size))  # forget-gate bias of 1 aids learning long dependencies
        self.b_cell = Parameter(init.zeros((hidden_size,)))
        self.b_output = Parameter(init.zeros((hidden_size,)))

    def initial_state(self, batch_size: int) -> LSTMState:
        """Zero hidden and cell state for a batch."""
        zeros = Tensor(np.zeros((batch_size, self.hidden_size)))
        return zeros, Tensor(np.zeros((batch_size, self.hidden_size)))

    def forward(self, x: Tensor, state: LSTMState) -> LSTMState:
        """Advance one time step.

        Parameters
        ----------
        x:
            Input features of shape ``(batch, input_size)``.
        state:
            Tuple ``(h_{t-1}, c_{t-1})``.

        Returns
        -------
        (h_t, c_t)
        """
        h_prev, c_prev = state
        zed = Tensor.concatenate([h_prev, x], axis=-1)
        input_gate = F.sigmoid(F.linear(zed, self.w_input, self.b_input))
        forget_gate = F.sigmoid(F.linear(zed, self.w_forget, self.b_forget))
        candidate = F.tanh(F.linear(zed, self.w_cell, self.b_cell))
        output_gate = F.sigmoid(F.linear(zed, self.w_output, self.b_output))
        c_t = input_gate * candidate + forget_gate * c_prev
        h_t = output_gate * F.tanh(c_t)
        return h_t, c_t


class CoupledLSTMCell(Module):
    """LSTM cell whose gates read the partner stream's previous hidden state.

    Implements Eq. 1-4 (for ``LSTM_I``) / Eq. 6-9 (for ``LSTM_A``) of the
    paper: each gate sees ``[h_{t-1}, g_{t-1}, x_t]`` where ``h`` is this
    stream's hidden state and ``g`` the partner stream's hidden state.

    Setting ``use_partner=False`` degrades the cell to a plain LSTM cell while
    keeping parameter shapes; this is how CLSTM-S disables one coupling
    direction without changing the rest of the architecture.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        partner_size: int,
        use_partner: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if min(input_size, hidden_size, partner_size) <= 0:
            raise ValueError("CoupledLSTMCell sizes must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.partner_size = partner_size
        self.use_partner = use_partner
        concat = hidden_size + partner_size + input_size
        self.w_input = _gate_weight(concat, hidden_size, rng)
        self.w_forget = _gate_weight(concat, hidden_size, rng)
        self.w_cell = _gate_weight(concat, hidden_size, rng)
        self.w_output = _gate_weight(concat, hidden_size, rng)
        self.b_input = Parameter(init.zeros((hidden_size,)))
        self.b_forget = Parameter(np.ones(hidden_size))
        self.b_cell = Parameter(init.zeros((hidden_size,)))
        self.b_output = Parameter(init.zeros((hidden_size,)))

    def initial_state(self, batch_size: int) -> LSTMState:
        """Zero hidden and cell state for a batch."""
        return (
            Tensor(np.zeros((batch_size, self.hidden_size))),
            Tensor(np.zeros((batch_size, self.hidden_size))),
        )

    def forward(self, x: Tensor, state: LSTMState, partner_hidden: Tensor) -> LSTMState:
        """Advance one time step given the partner stream's previous hidden state.

        Parameters
        ----------
        x:
            Input features ``(batch, input_size)`` — ``f_t`` for ``LSTM_I``,
            ``a_t`` for ``LSTM_A``.
        state:
            This stream's ``(h_{t-1}, c_{t-1})``.
        partner_hidden:
            Partner stream's previous hidden state ``g_{t-1}`` (or ``h_{t-1}``
            from the influencer stream when this cell models the audience).
        """
        h_prev, c_prev = state
        if self.use_partner:
            partner = partner_hidden
        else:
            # One-way / uncoupled variant: the partner contribution is zeroed
            # so the concatenated input keeps its shape but carries no signal.
            partner = Tensor(np.zeros_like(partner_hidden.data))
        zed = Tensor.concatenate([h_prev, partner, x], axis=-1)
        input_gate = F.sigmoid(F.linear(zed, self.w_input, self.b_input))
        forget_gate = F.sigmoid(F.linear(zed, self.w_forget, self.b_forget))
        candidate = F.tanh(F.linear(zed, self.w_cell, self.b_cell))
        output_gate = F.sigmoid(F.linear(zed, self.w_output, self.b_output))
        c_t = input_gate * candidate + forget_gate * c_prev
        h_t = output_gate * F.tanh(c_t)
        return h_t, c_t


def run_lstm(cell: LSTMCell, sequence: Tensor, state: Optional[LSTMState] = None) -> Tuple[Tensor, LSTMState]:
    """Run a plain LSTM cell over a ``(batch, time, features)`` sequence.

    Returns the stacked hidden states ``(batch, time, hidden)`` and the final
    ``(h, c)`` state.  Used by the LSTM baseline detector.
    """
    sequence = Tensor.ensure(sequence)
    if sequence.ndim != 3:
        raise ValueError(f"expected a (batch, time, features) tensor, got shape {sequence.shape}")
    batch, time_steps, _ = sequence.shape
    if not is_grad_enabled():
        # Inference fast path: fused, tape-free forward (see repro.nn.fused).
        initial = None if state is None else (state[0].data, state[1].data)
        hiddens, (h, c) = lstm_forward_fused(cell, sequence.data, initial)
        return Tensor(hiddens), (Tensor(h), Tensor(c))
    if state is None:
        state = cell.initial_state(batch)
    hiddens = []
    for t in range(time_steps):
        state = cell(sequence[:, t, :], state)
        hiddens.append(state[0])
    return Tensor.stack(hiddens, axis=1), state
