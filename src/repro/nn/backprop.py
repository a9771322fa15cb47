"""Analytic backpropagation-through-time on a flat, feature-major training arena.

The training twin of :mod:`repro.nn.fused`: the whole step is hand-derived,
so no autograd graph (one Python closure per intermediate value) is built.
It trains in the layout it computes in — a :class:`TrainingArena` packs the
parameters of one or two recurrent cells and of their decoder ``Linear``
layers **once** into one flat ``float64`` buffer, laid out as the kernel reads
them, next to a same-layout gradient buffer the backward writes straight
into.  For the length of a fit the optimiser's buffer and the kernel's
operands are the same memory: global-norm clipping is one dot over the
gradient buffer, the optimiser step is :meth:`repro.nn.optim.Adam.advance`
over the pair, and no per-step stacking, interleaving or scattering of
per-gate parameters remains.

Arena blocks, in buffer order:

* ``w_in[k]`` — ``(4h_k, d_k)``, the transposed input weights ``W_xᵀ`` of
  cell ``k``, rows ``[i | f | ĉ | o]``; one block per cell, so the input
  projections and their gradient GEMMs multiply no structural zeros;
* ``w_rec`` — ``(4Hs, Hs)``, the transposed **joint recurrent matrix** of the
  ``Hs = Σ h_k`` wide system ``[h_{t-1} | g_{t-1}]``: rows grouped by gate,
  each gate block spanning every cell, off-diagonal (coupling) blocks holding
  the partner weights.  A disabled coupling direction is a block held at
  exactly ``0.0`` with its gradient zeroed, so one GEMM per timestep advances
  both cells and their mutual influence, cuDNN-style;
* ``bias`` — ``(4Hs,)`` joint gate bias; then each head's ``(in, out)`` weight
  and ``(out,)`` bias.

The recurrence runs **feature-major**: state ``(Hs, B)``, gates ``(4Hs, B)``,
caches ``(T, ·, B)``, inputs ``(d, T, B)``.  Every gate block an elementwise
pass touches is therefore a contiguous run of rows (batch-major ``(B, 4Hs)``
rows made each gate block a strided column slice, several times the ufunc
cost at these sizes), and a cell's ``(d, T·B)`` input is one GEMM operand for
the projection and for its deferred weight gradient alike.  The forward
caches post-activation gates, cell states and hidden states — exactly what
the LSTM backward equations need; the backward walks time in reverse with one
GEMM per timestep (hidden-state propagation) and defers every weight gradient
to GEMMs over all swept steps at once.

There is one BPTT implementation.  :func:`lstm_forward_cached`,
:func:`coupled_pair_forward_cached` and their backwards keep the
``(B, T, D)``-in / ``.grad``-out signatures as one-shot wrappers: they pack a
fresh arena, run the same kernel and accumulate its gradient buffer into the
parameters' ``.grad``.

Numerical contract: every derivative below replicates the tape's backward
closures exactly (including the ``max(x, eps)`` clipping inside ``log`` and
the ``value * (1 - value)`` sigmoid derivative taken at the clipped input),
so gradients agree with ``Tensor.backward()`` up to summation-order noise;
the equivalence tests pin ≤1e-8.  The tape is the correctness oracle: the
tests call ``model(...)`` and ``loss.backward()`` directly, no option selects it.

Only zero initial states are supported — that is what every training path
uses (fresh windows per minibatch).  The arena is host ``float64`` NumPy, like
the parameters and the optimiser state it stands in for.

**Truncated BPTT** — the backward sweep accepts a ``window`` (plumbed from
``TrainingConfig.tbptt_window``): only the last ``window`` timesteps produce
pre-activation gradients, states older than the window are treated as
constants, and the deferred weight GEMMs shrink accordingly, so an
incremental retrain over a long history costs O(window) in the backward
instead of O(T).  For ``T ≤ window`` the gradient is *exactly* full BPTT
(same code path); above it the divergence is the standard TBPTT bias —
bounded by the LSTM's forget-gate contraction of ``∂h_t/∂h_{t-k}``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .losses import _EPS
from .module import Parameter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .layers import Linear
    from .recurrent import CoupledLSTMCell, LSTMCell

__all__ = [
    "TrainingArena",
    "BPTTCache",
    "feature_major",
    "paired_feature_major",
    "lstm_forward_cached",
    "lstm_backward",
    "coupled_pair_forward_cached",
    "coupled_pair_backward",
    "softmax_forward",
    "softmax_backward",
    "is_softmax_head",
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


_GATHER_CHUNK = 64
"""Windows :func:`feature_major` transposes per copy, which bounds its
temporaries."""


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> None:
    """The tape's clipped sigmoid, computed fully in place into ``out``.

    Direct ``minimum``/``maximum`` ufuncs instead of the ``np.clip`` wrapper —
    this runs once per timestep on the joint gate width, so wrapper overhead
    is measurable.
    """
    np.minimum(x, 60.0, out=out)
    np.maximum(out, -60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)


def feature_major(sequences: np.ndarray, indices: Optional[np.ndarray] = None) -> np.ndarray:
    """Lay ``(N, T, D)`` sequences — or the ``n`` windows ``indices`` picks
    from them — out as the arena reads them: ``(D, T, n)``.

    One copy: the windows are gathered :data:`_GATHER_CHUNK` at a time, so
    no batch-major copy of the picked set is made first.  A training set
    laid out this way once yields every mini-batch with a single
    ``np.take(..., axis=2, out=...)``.
    """
    sequences = np.asarray(sequences, dtype=np.float64)
    if sequences.ndim != 3:
        raise ValueError(f"expected a (batch, time, features) array, got shape {sequences.shape}")
    if sequences.shape[1] < 1:
        raise ValueError("sequences must contain at least one timestep")
    count = len(sequences) if indices is None else len(indices)
    out = np.empty(sequences.shape[:0:-1] + (count,))
    for start in range(0, count, _GATHER_CHUNK):
        stop = min(start + _GATHER_CHUNK, count)
        picked = slice(start, stop) if indices is None else indices[start:stop]
        out[..., start:stop] = sequences[picked].transpose(2, 1, 0)
    return out


# ---------------------------------------------------------------------- #
# The arena
# ---------------------------------------------------------------------- #
class _Blocks(NamedTuple):
    """The arena's blocks as views of one flat buffer (values or gradients)."""

    w_in: Tuple[np.ndarray, ...]
    w_rec: np.ndarray
    bias: np.ndarray
    heads: Tuple[Tuple[np.ndarray, Optional[np.ndarray]], ...]


class BPTTCache:
    """One ``(T, B)`` shape's buffers of an arena, all feature-major.

    ``gates`` is ``(T, 4Hs, B)`` post-activation, gate-grouped; ``cells``,
    ``tanh_cells`` and ``hiddens`` are ``(T, Hs, B)`` — time-major, so the
    per-timestep blocks the loops touch are contiguous.  With ``keep=False``
    (loss evaluation, no backward) the caches are one step deep and the sweep
    overwrites them in place.  ``d_final`` is where the heads leave the
    gradient of the final joint state.

    Every buffer is a contiguous view of the front of one of its arena's
    flat scratch buffers (:meth:`shapes` names them), so the caches of one
    fit — the training batch, the tail batch, the validation set — share one
    set of buffers sized for the largest of them; a forward overwrites what
    the previous one of any shape left.  ``arena`` is set by the one-shot
    wrappers only, whose cache owns its arena; an arena's pooled caches hold
    no reference back (a cycle would keep every fit's buffers alive until
    the cyclic collector runs).
    """

    @staticmethod
    def shapes(total: int, time_steps: int, batch: int, keep: bool) -> Dict[str, Tuple[int, ...]]:
        """Every buffer of one ``(T, B, keep)`` cache: name → shape."""
        depth = time_steps if keep else 1
        shapes = {
            "x_proj": (time_steps, 4 * total, batch),
            # (4Hs, T, B) scratch: where (·, T·B)-shaped GEMM operands meet the
            # time-major layout of the sweep (one transposing pass each way).
            "gate_major": (4 * total * time_steps * batch,),
            "gates": (depth, 4 * total, batch),
            "cells": (depth, total, batch),
            "tanh_cells": (depth, total, batch),
            "hiddens": (depth, total, batch),
            "zero_state": (total, batch),
            "pre": (4 * total, batch),
            "scratch": (total, batch),
        }
        if keep:
            shapes.update(
                d_pre=(time_steps, 4 * total, batch),
                one_minus_tanh_sq=(time_steps, total, batch),
                hidden_major=(total * time_steps * batch,),
                d_final=(total, batch),
                d_cell=(total, batch),
                d_c_total=(total, batch),
                next_state=(total, batch),
            )
        return shapes

    def __init__(
        self, total: int, time_steps: int, batch: int, keep: bool, scratch: Dict[str, np.ndarray]
    ) -> None:
        self.time_steps, self.batch = time_steps, batch
        self.arena: Optional["TrainingArena"] = None
        self.inputs: Tuple[np.ndarray, ...] = ()
        for name, shape in self.shapes(total, time_steps, batch, keep).items():
            setattr(self, name, scratch[name][: _size(shape)].reshape(shape))


def _size(shape: Tuple[int, ...]) -> int:
    return int(np.prod(shape))


class TrainingArena:
    """Flat parameter and gradient buffers of one trainable recurrent system.

    ``cells`` is one :class:`~repro.nn.recurrent.LSTMCell` or a mutually
    coupled pair of :class:`~repro.nn.recurrent.CoupledLSTMCell`; ``heads``
    are the ``Linear`` decoders trained with them.  Construction packs the
    modules' current values; nothing reaches the modules again until
    :meth:`write_back` (values, by rebinding every ``Parameter.data`` — the
    fused-weight caches key on array identity) or :meth:`accumulate_grads`
    (the gradient buffer, added into every ``Parameter.grad``).

    ``flat`` is the whole arena as one :class:`~repro.nn.module.Parameter`
    (``.data`` values, ``.grad`` gradients) for the optimiser and
    ``clip_grad_norm``; ``values`` / ``grads`` are the same two buffers as
    block views (module docstring).
    """

    def __init__(self, cells: Sequence, heads: Sequence["Linear"] = ()) -> None:
        self.cells = tuple(cells)
        self.heads = tuple(heads)
        if len(self.cells) not in (1, 2):
            raise ValueError("a training arena holds one cell or a coupled pair")
        self.hidden_sizes = tuple(cell.hidden_size for cell in self.cells)
        self.input_sizes = tuple(cell.input_size for cell in self.cells)
        total = self.total = sum(self.hidden_sizes)
        bounds = np.cumsum((0,) + self.hidden_sizes)
        self.cell_rows = tuple(slice(int(a), int(b)) for a, b in zip(bounds, bounds[1:]))
        self.gate_rows = tuple(slice(gate * total, (gate + 1) * total) for gate in range(4))
        shapes = [(4 * h, d) for h, d in zip(self.hidden_sizes, self.input_sizes)]
        shapes += [(4 * total, total), (4 * total,)]
        for head in self.heads:
            shapes.append((head.in_features, head.out_features))
            if head.bias is not None:
                shapes.append((head.out_features,))
        offsets = np.cumsum([0] + [int(np.prod(shape)) for shape in shapes])
        self.flat = Parameter(np.zeros(int(offsets[-1])))
        self.flat.grad = np.zeros(int(offsets[-1]))
        self.values = self._blocks(self.flat.data, shapes, offsets)
        self.grads = self._blocks(self.flat.grad, shapes, offsets)
        self._value_bindings = self._bind(self.values)
        self._grad_bindings = self._bind(self.grads)
        # Gradient blocks of disabled coupling directions: the deferred joint
        # GEMM fills them, the sweep zeroes them again.
        rec = self.grads.w_rec.reshape(4, total, total)
        self._dead_grads = [
            rec[:, self.cell_rows[k], self.cell_rows[1 - k]]
            for k, cell in enumerate(self.cells)
            if len(self.cells) == 2 and not cell.use_partner
        ]
        self._caches: Dict[Tuple[int, int, bool], BPTTCache] = {}
        self._scratch: Dict[str, np.ndarray] = {}
        for parameter, pieces in self._value_bindings:
            for rows, view in pieces:
                view[...] = parameter.data[rows]

    def _blocks(self, flat: np.ndarray, shapes, offsets) -> _Blocks:
        views = (flat[a:b].reshape(shape) for shape, a, b in zip(shapes, offsets, offsets[1:]))
        return _Blocks(
            w_in=tuple(next(views) for _ in self.cells),
            w_rec=next(views),
            bias=next(views),
            heads=tuple(
                (next(views), next(views) if head.bias is not None else None) for head in self.heads
            ),
        )

    def _bind(self, blocks: _Blocks) -> List[Tuple[Parameter, List[Tuple[slice, np.ndarray]]]]:
        """Per module parameter: which of its rows are which view of ``blocks``.

        A gate weight is ``(concat, h)`` with rows ``[h | partner | x]``; the
        arena holds the transposes, so every piece is a ``.T`` view.  The
        partner rows of a disabled coupling direction are bound to nothing:
        their arena block stays zero and :meth:`write_back` keeps their values.
        """
        total = self.total
        rec = blocks.w_rec.reshape(4, total, total)
        bias = blocks.bias.reshape(4, total)
        bindings = []
        for k, (cell, own) in enumerate(zip(self.cells, self.cell_rows)):
            hidden, partner = cell.hidden_size, getattr(cell, "partner_size", 0)
            if partner and (len(self.cells) != 2 or partner != self.hidden_sizes[1 - k]):
                raise ValueError("coupled cells must come as a pair with matching partner sizes")
            w_in = blocks.w_in[k].reshape(4, hidden, -1)
            weights = (cell.w_input, cell.w_forget, cell.w_cell, cell.w_output)
            biases = (cell.b_input, cell.b_forget, cell.b_cell, cell.b_output)
            for gate, (weight, gate_bias) in enumerate(zip(weights, biases)):
                pieces = [
                    (slice(0, hidden), rec[gate, own, own].T),
                    (slice(hidden + partner, None), w_in[gate].T),
                ]
                if partner and cell.use_partner:
                    pieces.append(
                        (slice(hidden, hidden + partner), rec[gate, own, self.cell_rows[1 - k]].T)
                    )
                bindings.append((weight, pieces))
                bindings.append((gate_bias, [(slice(None), bias[gate, own])]))
        for head, (weight, head_bias) in zip(self.heads, blocks.heads):
            bindings.append((head.weight, [(slice(None), weight)]))
            if head_bias is not None:
                bindings.append((head.bias, [(slice(None), head_bias)]))
        return bindings

    def write_back(self) -> None:
        """Rebind every module parameter to the arena's current values."""
        for parameter, pieces in self._value_bindings:
            data = parameter.data.copy()
            for rows, view in pieces:
                data[rows] = view
            parameter.data = data

    def accumulate_grads(self) -> None:
        """Add the gradient buffer into every parameter's ``.grad`` (tape-compatible:
        a disabled coupling direction receives the tape's exact all-zero rows)."""
        for parameter, pieces in self._grad_bindings:
            grad = np.zeros_like(parameter.data)
            for rows, view in pieces:
                grad[rows] = view
            parameter.grad = grad if parameter.grad is None else parameter.grad + grad

    # ------------------------------------------------------------------ #
    # Decoder heads, batch-major on the output side (the losses' layout)
    # ------------------------------------------------------------------ #
    def head_forward(self, index: int, state: np.ndarray) -> np.ndarray:
        """``(B, out)`` output of head ``index`` on feature-major ``(in, B)`` states."""
        weight, bias = self.values.heads[index]
        out = state.T @ weight
        if bias is not None:
            out += bias
        return out

    def head_backward(
        self, index: int, state: np.ndarray, d_out: np.ndarray, d_state: np.ndarray
    ) -> None:
        """Head ``index``'s weight/bias gradients into the arena, ``d_state`` filled in place."""
        d_weight, d_bias = self.grads.heads[index]
        np.matmul(state, d_out, out=d_weight)
        if d_bias is not None:
            np.sum(d_out, axis=0, out=d_bias)
        np.matmul(self.values.heads[index][0], d_out.T, out=d_state)

    # ------------------------------------------------------------------ #
    # Joint recurrence
    # ------------------------------------------------------------------ #
    def forward(self, inputs: Sequence[np.ndarray], keep: bool = True) -> Tuple[np.ndarray, BPTTCache]:
        """Run the joint recurrence over per-cell ``(d_k, T, B)`` inputs.

        Returns the final joint state ``(Hs, B)`` (a view into the cache) and
        the :class:`BPTTCache` :meth:`backward` consumes.  Caches are pooled
        per ``(T, B, keep)``: a later forward of the same shape reuses — and
        overwrites — the same buffers.
        """
        _, time_steps, batch = inputs[0].shape
        cache = self._cache(time_steps, batch, keep)
        cache.inputs = tuple(inputs)
        values, total = self.values, self.total
        i_rows, f_rows, c_rows, o_rows = self.gate_rows

        # All timesteps' input-to-gate projections: one GEMM per cell and gate
        # block, straight into joint row order, then one pass that adds the
        # bias and turns (4Hs, T, B) time-major.
        gate_major = cache.gate_major.reshape(4, total, time_steps * batch)
        for own, weight, x in zip(self.cell_rows, values.w_in, inputs):
            np.matmul(
                weight.reshape(4, own.stop - own.start, -1),
                x.reshape(x.shape[0], -1),
                out=gate_major[:, own],
            )
        x_proj = cache.x_proj
        np.add(
            cache.gate_major.reshape(4 * total, time_steps, batch).transpose(1, 0, 2),
            values.bias[:, None],
            out=x_proj,
        )

        state = cell_state = cache.zero_state
        pre, scratch = cache.pre, cache.scratch
        for t in range(time_steps):
            slot = t if keep else 0
            gate, c_t = cache.gates[slot], cache.cells[slot]
            if t == 0:
                # Skip the recurrent GEMM on the zero state: every product is
                # ±0 and every dot product sums to +0.0, so the pre-activation
                # is x_0 + 0.0 (the inference sweep's argument, nn.fused).
                np.add(x_proj[0], 0.0, out=pre)
            else:
                np.matmul(values.w_rec, state, out=pre)
                pre += x_proj[t]
            # One sigmoid pass over the whole joint gate height (the wasted work
            # on the candidate block is cheaper than a second set of ufunc
            # calls), then the candidate block is overwritten with its tanh.
            _sigmoid_into(pre, gate)
            np.tanh(pre[c_rows], out=gate[c_rows])
            np.multiply(gate[f_rows], cell_state, out=scratch)
            np.multiply(gate[i_rows], gate[c_rows], out=c_t)
            c_t += scratch
            np.tanh(c_t, out=cache.tanh_cells[slot])
            np.multiply(gate[o_rows], cache.tanh_cells[slot], out=cache.hiddens[slot])
            state, cell_state = cache.hiddens[slot], c_t
        return state, cache

    def _cache(self, time_steps: int, batch: int, keep: bool) -> BPTTCache:
        """The pooled cache of one shape, its buffers views of the arena's
        scratch; a shape larger than every earlier one grows the scratch
        (``zero_state`` stays all zeros: nothing writes it) and drops every
        cache viewing the old buffers."""
        key = (time_steps, batch, keep)
        cache = self._caches.get(key)
        if cache is None:
            scratch = self._scratch
            shapes = BPTTCache.shapes(self.total, time_steps, batch, keep)
            short = [
                name for name, shape in shapes.items()
                if name not in scratch or scratch[name].size < _size(shape)
            ]
            if short:
                self._caches.clear()
                for name in short:
                    allocate = np.zeros if name == "zero_state" else np.empty
                    scratch[name] = allocate(_size(shapes[name]))
            cache = self._caches[key] = BPTTCache(self.total, time_steps, batch, keep, scratch)
        return cache

    def backward(self, cache: BPTTCache, d_final: np.ndarray, window: Optional[int] = None) -> None:
        """Reverse sweep from the final joint state's gradient ``(Hs, B)``.

        Overwrites the arena's ``w_in`` / ``w_rec`` / ``bias`` gradient blocks
        (the heads' blocks belong to :meth:`head_backward`).

        ``window`` truncates the sweep to the last ``window`` timesteps
        (``start = max(0, T - window)``): the hidden/cell states entering step
        ``start`` are treated as constants — the standard truncated-BPTT
        approximation — so the deferred GEMMs shrink to the window.
        ``window is None`` or ``window ≥ T`` takes the exact full-BPTT path
        (``start = 0``, identical operations).

        Everything that depends only on cached forward values is vectorised
        over the swept timesteps *before* the reverse loop: the per-gate
        factor ``∂gate/∂pre · upstream`` (``factors``) and ``1 - tanh(c)^2``.
        The loop itself then touches each step with a handful of joint-height
        ufuncs plus the single state-propagation GEMM; every weight gradient
        is deferred to GEMMs over all swept steps at the end.
        """
        window = _check_window(window)
        values, grads, total = self.values, self.grads, self.total
        time_steps, batch = cache.time_steps, cache.batch
        i_rows, f_rows, c_rows, o_rows = self.gate_rows
        start = 0 if window is None else max(0, time_steps - window)
        span = time_steps - start
        gates, cells = cache.gates, cache.cells

        # factors[k] (k = t - start) = d(gate)/d(pre) * (local upstream factor):
        #   input:     i(1-i) * ĉ        forget:  f(1-f) * c_{t-1}
        #   candidate: (1-ĉ²) * i        output:  o(1-o) * tanh(c_t)
        gates_w = gates[start:]
        tanh_w = cache.tanh_cells[start:]
        factors = cache.x_proj[:span]  # the projections are dead once the forward has run
        np.multiply(gates_w, gates_w, out=factors)
        np.subtract(gates_w, factors, out=factors)  # g - g² = g(1-g) (sigmoid blocks)
        candidate = gates_w[:, c_rows]
        np.multiply(candidate, candidate, out=factors[:, c_rows])
        np.subtract(1.0, factors[:, c_rows], out=factors[:, c_rows])  # 1 - ĉ²
        factors[:, i_rows] *= candidate
        factors[:, c_rows] *= gates_w[:, i_rows]
        factors[:, o_rows] *= tanh_w
        if start == 0:
            factors[1:, f_rows] *= cells[:-1]  # c_{t-1}; step 0 reads the zero state
            factors[0, f_rows] = 0.0
        else:
            # Every swept step has a real (cached) predecessor cell state; its
            # *value* still enters the forget-gate factor even though no gradient
            # is propagated into it.
            factors[:, f_rows] *= cells[start - 1 : time_steps - 1]
        one_minus_tanh_sq = cache.one_minus_tanh_sq[:span]
        np.multiply(tanh_w, tanh_w, out=one_minus_tanh_sq)
        np.subtract(1.0, one_minus_tanh_sq, out=one_minus_tanh_sq)

        d_state = d_final
        d_cell, d_c_total = cache.d_cell, cache.d_c_total
        d_cell.fill(0.0)
        d_pre_all = cache.d_pre[:span]
        w_rec_t = values.w_rec.T
        for t in reversed(range(start, time_steps)):
            gate, d_pre = gates[t], d_pre_all[t - start]
            # d_c_total = d_cell + d_state * o * (1 - tanh(c)^2)
            np.multiply(d_state, gate[o_rows], out=d_c_total)
            d_c_total *= one_minus_tanh_sq[t - start]
            d_c_total += d_cell
            # d_pre: the i/f/ĉ blocks share the d_c_total factor (one broadcast
            # pass over a (3, Hs, B) view); the o block uses d_state instead.
            np.multiply(
                factors[t - start, : 3 * total].reshape(3, total, batch),
                d_c_total,
                out=d_pre[: 3 * total].reshape(3, total, batch),
            )
            np.multiply(factors[t - start, o_rows], d_state, out=d_pre[o_rows])
            # Carry the cell gradient: d_c_{t-1} = d_c_total * f
            np.multiply(d_c_total, gate[f_rows], out=d_cell)
            if t > start:
                # At start == 0 the initial state is zero (no grad to propagate);
                # at start > 0 the truncation stops the sweep there.
                np.matmul(w_rec_t, d_pre, out=cache.next_state)
                d_state = cache.next_state

        # Deferred weight gradients: turn the swept pre-activation gradients
        # (4Hs, span·B) once, then every GEMM contracts over all steps.
        swept = span * batch
        d_gate_major = cache.gate_major[: 4 * total * swept].reshape(4 * total, swept)
        np.copyto(d_gate_major.reshape(4 * total, span, batch), d_pre_all.transpose(1, 0, 2))
        np.sum(d_gate_major, axis=1, out=grads.bias)
        # Recurrent weights: steps with a real predecessor hidden state
        # (t ≥ max(1, start)) against h_{t-1}.
        first = max(1, start)
        if time_steps > first:
            steps = time_steps - first
            previous = cache.hidden_major[: total * steps * batch].reshape(total, steps, batch)
            np.copyto(previous, cache.hiddens[first - 1 : time_steps - 1].transpose(1, 0, 2))
            np.matmul(
                d_gate_major[:, (first - start) * batch :],
                previous.reshape(total, steps * batch).T,
                out=grads.w_rec,
            )
            for dead in self._dead_grads:
                dead[...] = 0.0
        else:
            grads.w_rec.fill(0.0)
        d_by_gate = d_gate_major.reshape(4, total, swept)
        for own, d_w_in, x in zip(self.cell_rows, grads.w_in, cache.inputs):
            columns = x.reshape(x.shape[0], -1)[:, start * batch :]
            np.matmul(d_by_gate[:, own], columns.T, out=d_w_in.reshape(4, own.stop - own.start, -1))


def _check_window(window: Optional[int]) -> Optional[int]:
    if window is not None and (isinstance(window, bool) or not isinstance(window, int) or window < 1):
        raise ValueError(f"tbptt window must be a positive integer or None, got {window!r}")
    return window


# ---------------------------------------------------------------------- #
# One-shot wrappers: (B, T, D) in, .grad out
# ---------------------------------------------------------------------- #
def paired_feature_major(
    action_sequences: np.ndarray, interaction_sequences: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Both inputs of a coupled pair in arena layout, checked to be aligned."""
    actions = feature_major(action_sequences)
    interactions = feature_major(interaction_sequences)
    if actions.shape[2] != interactions.shape[2]:
        raise ValueError("action and interaction batches must have the same size")
    if actions.shape[1] != interactions.shape[1]:
        raise ValueError("action and interaction sequences must have the same length")
    return actions, interactions


def _one_shot_forward(cells: Sequence, inputs: Sequence[np.ndarray]) -> Tuple[np.ndarray, BPTTCache]:
    """Forward on a fresh arena whose cache leaves the pool and owns the arena."""
    arena = TrainingArena(cells)
    final, cache = arena.forward(inputs)
    arena._caches.clear()
    cache.arena = arena
    return final, cache


def lstm_forward_cached(cell: "LSTMCell", sequence: np.ndarray) -> Tuple[np.ndarray, BPTTCache]:
    """Cached forward of a plain LSTM cell over a ``(B, T, D)`` sequence.

    Returns the final hidden state ``(B, H)`` and the :class:`BPTTCache`
    :func:`lstm_backward` consumes.
    """
    final, cache = _one_shot_forward((cell,), (feature_major(sequence),))
    return final.T, cache


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
    Returns ``(h_final, g_final, cache)``, the states ``(B, H)``.
    """
    final, cache = _one_shot_forward(
        (influencer, audience), paired_feature_major(action_sequences, interaction_sequences)
    )
    h1 = influencer.hidden_size
    return final[:h1].T, final[h1:].T, cache


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
    cache.arena.backward(cache, np.asarray(d_last_hidden, dtype=np.float64).T, window)
    cache.arena.accumulate_grads()


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
    single GEMM per timestep.  Gradients are accumulated into both cells'
    parameters (a disabled coupling direction yields the tape's exact
    all-zero partner-weight gradient).

    ``window`` applies truncated BPTT to the joint system: for sequences no
    longer than the window the gradient is exactly full BPTT; beyond it, the
    sweep is O(window) and states older than the window are treated as
    constants.
    """
    d_final = np.concatenate(
        [np.asarray(d_h_final, dtype=np.float64).T, np.asarray(d_g_final, dtype=np.float64).T]
    )
    cache.arena.backward(cache, d_final, window)
    cache.arena.accumulate_grads()


# ---------------------------------------------------------------------- #
# Softmax decoder head
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
