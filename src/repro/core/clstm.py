"""The Coupling LSTM (CLSTM) model with decoder layers.

CLSTM (Section IV-B of the paper) consists of two recurrent layers advanced in
lockstep over aligned sequences:

* ``LSTM_I`` consumes the influencer action features ``f_t`` and produces
  hidden states ``h_t``;
* ``LSTM_A`` consumes the audience interaction features ``a_t`` and produces
  hidden states ``g_t``;
* every gate of ``LSTM_I`` reads ``[h_{t-1}, g_{t-1}, f_t]`` and every gate of
  ``LSTM_A`` reads ``[h_{t-1}, g_{t-1}, a_t]`` — the mutual coupling;
* after the last time step, decoder ``De_I`` maps ``h_t`` back to the action
  feature space (through a softmax so the reconstruction stays a probability
  distribution, as required by the JS reconstruction error) and ``De_A`` maps
  ``g_t`` back to the interaction feature space (Eq. 12).

The ``coupling`` argument selects between the full model and the paper's
ablations:

* ``"both"`` — CLSTM (two-way mutual influence, the paper's contribution);
* ``"influencer_to_audience"`` — CLSTM-S (the audience layer sees the
  influencer's hidden state but not vice versa);
* ``"none"`` — two independent LSTMs (used for analysis; the pure LSTM
  baseline over action features only lives in :mod:`repro.core.variants`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Literal, Optional, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.backend import resolve_dtype, resolve_precision
from ..nn.backprop import (
    TrainingArena,
    is_softmax_head,
    paired_feature_major,
    softmax_backward,
    softmax_forward,
    weighted_loss_grad,
)
from ..nn.fused import (
    MAX_WORKSPACES_PER_GEOMETRY,
    coupled_pair_forward_fused,
    coupled_pair_forward_gated,
    forward_planned,
    fused_cache_fresh,
    gather_gate_inputs,
    prewarm_cell,
    serving_plan,
    transplant_fused_cache,
)
from ..nn.tensor import Tensor

if TYPE_CHECKING:  # pragma: no cover - typing only (utils must not import core)
    from ..utils.config import ModelConfig

__all__ = ["CLSTM", "CLSTMOutput", "CouplingMode"]

CouplingMode = Literal["both", "influencer_to_audience", "none"]


class CLSTMOutput:
    """Output bundle of a CLSTM forward pass.

    Attributes
    ----------
    action_reconstruction:
        ``(N, d1)`` predicted/reconstructed action feature of the next segment.
    interaction_reconstruction:
        ``(N, d2)`` predicted/reconstructed interaction feature.
    action_hidden:
        ``(N, h1)`` final hidden state ``h_t`` of ``LSTM_I`` (the drift
        detector of the dynamic-update algorithm reads this).
    interaction_hidden:
        ``(N, h2)`` final hidden state ``g_t`` of ``LSTM_A``.
    """

    __slots__ = (
        "action_reconstruction",
        "interaction_reconstruction",
        "action_hidden",
        "interaction_hidden",
    )

    def __init__(
        self,
        action_reconstruction: Tensor,
        interaction_reconstruction: Tensor,
        action_hidden: Tensor,
        interaction_hidden: Tensor,
    ) -> None:
        self.action_reconstruction = action_reconstruction
        self.interaction_reconstruction = interaction_reconstruction
        self.action_hidden = action_hidden
        self.interaction_hidden = interaction_hidden


def _float32_linear_weights(layer) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Cached float32 copies of a Linear layer's weights (identity-keyed).

    Parameters always live in float64; the reduced-precision inference path
    needs float32 copies, and rebuilding them per batch would defeat the
    point.  Like the fused-weight cache, every parameter write path rebinds
    ``.data``, so array identity is a sound staleness check.
    """
    weight = layer.weight.data
    bias = layer.bias.data if layer.bias is not None else None
    cache = getattr(layer, "_f32_cache", None)
    if cache is not None and cache[0] is weight and cache[1] is bias:
        return cache[2], cache[3]
    weight32 = weight.astype(np.float32)
    bias32 = bias.astype(np.float32) if bias is not None else None
    layer._f32_cache = (weight, bias, weight32, bias32)
    return weight32, bias32


def _head(head, dtype: np.dtype) -> tuple:
    """``(weight, bias, softmax)`` of one decoder head at ``dtype``.

    ``head`` is a ``Linear`` or a ``Sequential(Linear, SoftmaxHead)``.  At
    float32 the weights are cached single-precision copies, keeping the
    whole pass single precision end to end.
    """
    softmax = not isinstance(head, nn.Linear)
    if softmax and not is_softmax_head(head):
        raise TypeError(
            "fused inference evaluates Linear and Sequential(Linear, SoftmaxHead) "
            f"decoders, got {head!r}"
        )
    layer = list(head)[0] if softmax else head
    if dtype == np.float32:
        weight, bias = _float32_linear_weights(layer)
    else:
        weight, bias = layer.weight.data, (layer.bias.data if layer.bias is not None else None)
    return weight, bias, softmax


def _apply_head(resolved: tuple, hidden: np.ndarray) -> np.ndarray:
    """A :func:`_head` evaluated on ``hidden``: the expressions the modules
    evaluate (``x @ W + b``, then the tape's stable softmax), so at float64
    the result is bitwise the modules' own, without a tape node."""
    weight, bias, softmax = resolved
    out = hidden @ weight
    if bias is not None:
        out += bias
    return softmax_forward(out) if softmax else out


def _decode(head, hidden: np.ndarray) -> np.ndarray:
    """One decoder head evaluated directly on arrays, at ``hidden``'s precision."""
    return _apply_head(_head(head, hidden.dtype), hidden)


class CLSTM(nn.Module):
    """Coupling LSTM with decoders ``De_I`` and ``De_A``.

    Parameters
    ----------
    action_dim:
        Dimensionality d1 of the action features (400 in the paper).
    interaction_dim:
        Dimensionality d2 of the audience interaction features.
    action_hidden:
        Hidden size h1 of ``LSTM_I``.
    interaction_hidden:
        Hidden size h2 of ``LSTM_A``.
    coupling:
        ``"both"`` (CLSTM), ``"influencer_to_audience"`` (CLSTM-S) or
        ``"none"`` (independent LSTMs).
    seed:
        Parameter-initialisation seed.
    precision:
        Compute precision of fused inference (``"float64"`` default;
        ``"float32"`` is the opt-in reduced-precision mode, tolerance-bounded
        against the float64 oracle).  Weights are stored in float64 either
        way; per-call ``precision=`` overrides take precedence.
    """

    def __init__(
        self,
        action_dim: int,
        interaction_dim: int,
        action_hidden: int = 64,
        interaction_hidden: int = 32,
        coupling: CouplingMode = "both",
        seed: int = 0,
        precision: str = "float64",
    ) -> None:
        super().__init__()
        if coupling not in ("both", "influencer_to_audience", "none"):
            raise ValueError(f"unknown coupling mode '{coupling}'")
        rng = np.random.default_rng(seed)
        self.action_dim = action_dim
        self.interaction_dim = interaction_dim
        self.action_hidden = action_hidden
        self.interaction_hidden = interaction_hidden
        self.coupling = coupling
        self.precision = resolve_precision(precision)

        # Coupling switches: does LSTM_I read g_{t-1}?  Does LSTM_A read h_{t-1}?
        audience_to_influencer = coupling == "both"
        influencer_to_audience = coupling in ("both", "influencer_to_audience")

        self.lstm_influencer = nn.CoupledLSTMCell(
            input_size=action_dim,
            hidden_size=action_hidden,
            partner_size=interaction_hidden,
            use_partner=audience_to_influencer,
            rng=rng,
        )
        self.lstm_audience = nn.CoupledLSTMCell(
            input_size=interaction_dim,
            hidden_size=interaction_hidden,
            partner_size=action_hidden,
            use_partner=influencer_to_audience,
            rng=rng,
        )
        # De_I ends in a softmax so reconstructions remain distributions.
        self.decoder_action = nn.Sequential(
            nn.Linear(action_hidden, action_dim, rng=rng),
            nn.SoftmaxHead(),
        )
        self.decoder_interaction = nn.Linear(interaction_hidden, interaction_dim, rng=rng)

    # ------------------------------------------------------------------ #
    # Forward pass
    # ------------------------------------------------------------------ #
    def forward(self, action_sequences, interaction_sequences) -> CLSTMOutput:
        """Run CLSTM over aligned ``(N, q, d1)`` / ``(N, q, d2)`` sequences.

        Both layers advance together: at step ``t`` the influencer cell reads
        the audience hidden state from step ``t-1`` and vice versa, exactly as
        in Fig. 4 of the paper.
        """
        actions = Tensor.ensure(action_sequences)
        interactions = Tensor.ensure(interaction_sequences)
        if actions.ndim != 3 or interactions.ndim != 3:
            raise ValueError("CLSTM expects (batch, time, features) inputs")
        if actions.shape[0] != interactions.shape[0]:
            raise ValueError("action and interaction batches must have the same size")
        if actions.shape[1] != interactions.shape[1]:
            raise ValueError("action and interaction sequences must have the same length")
        batch, time_steps, _ = actions.shape

        influencer_state = self.lstm_influencer.initial_state(batch)
        audience_state = self.lstm_audience.initial_state(batch)
        for t in range(time_steps):
            prev_h = influencer_state[0]
            prev_g = audience_state[0]
            influencer_state = self.lstm_influencer(actions[:, t, :], influencer_state, prev_g)
            audience_state = self.lstm_audience(interactions[:, t, :], audience_state, prev_h)

        final_h = influencer_state[0]
        final_g = audience_state[0]
        return CLSTMOutput(
            action_reconstruction=self.decoder_action(final_h),
            interaction_reconstruction=self.decoder_interaction(final_g),
            action_hidden=final_h,
            interaction_hidden=final_g,
        )

    # ------------------------------------------------------------------ #
    # Convenience inference helpers (fused, tape-free fast path)
    # ------------------------------------------------------------------ #
    def _dtype(self, precision: Optional[str]) -> np.dtype:
        """Compute dtype of one fused-kernel call: a per-call precision
        override, else the model default."""
        return resolve_dtype(self.precision if precision is None else precision)

    def gate_inputs(self, windows, precision: Optional[str] = None) -> np.ndarray:
        """Joint gate inputs ``(B, q, 4·h1 + 4·h2)`` of a serving batch of
        :class:`~repro.nn.fused.Segment` windows: each segment projected once
        per pair of weight variants, then gathered."""
        cells = (self.lstm_influencer, self.lstm_audience)
        return gather_gate_inputs(*cells, windows, dtype=self._dtype(precision))

    def _fused_hidden(
        self,
        action_sequences,
        interaction_sequences: Optional[np.ndarray] = None,
        precision: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Final ``(h, g)`` hidden states via the fused batched forward.

        With ``interaction_sequences`` omitted, ``action_sequences`` is a
        serving batch: segment windows (projected through the per-segment
        cache) or their gate inputs gathered already (:meth:`gate_inputs`).
        """
        cells = (self.lstm_influencer, self.lstm_audience)
        if interaction_sequences is None:
            return coupled_pair_forward_gated(*cells, action_sequences, dtype=self._dtype(precision))
        actions = np.asarray(
            action_sequences.data if isinstance(action_sequences, Tensor) else action_sequences,
            dtype=np.float64,
        )
        interactions = np.asarray(
            interaction_sequences.data
            if isinstance(interaction_sequences, Tensor)
            else interaction_sequences,
            dtype=np.float64,
        )
        return coupled_pair_forward_fused(*cells, actions, interactions, dtype=self._dtype(precision))

    def predict_full(
        self,
        action_sequences,
        interaction_sequences: Optional[np.ndarray] = None,
        precision: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One fused inference pass returning everything the online path needs.

        Returns ``(I_hat, A_hat, h, g)`` as NumPy arrays: both reconstructions
        plus both final hidden states, so callers that need reconstructions
        *and* drift-detection hidden states (the serving scheduler, the
        update plane) pay for a single forward.  The serving path passes its
        batch of segment windows (or pre-gathered gate inputs) as
        ``action_sequences`` alone; see :meth:`_fused_hidden`.

        The decoder heads are a single layer each and are evaluated directly
        on the final hidden states (:func:`_decode`), at whatever precision
        the sweep ran in.
        """
        sealed = getattr(self, "_sealed", None)
        if sealed is not None and interaction_sequences is None:
            return self._predict_sealed(sealed, action_sequences, self._dtype(precision))
        final_h, final_g = self._fused_hidden(
            action_sequences, interaction_sequences, precision=precision
        )
        return (
            _decode(self.decoder_action, final_h),
            _decode(self.decoder_interaction, final_g),
            final_h,
            final_g,
        )

    def seal(self) -> None:
        """Promise that this model's parameters never change again.

        The registry seals every published snapshot, which is immutable by
        contract.  A sealed model's serving forward (:meth:`predict_full` of
        a window batch) resolves its kernel plan and decoder heads once per
        batch shape and dtype and keeps them, instead of re-checking every
        weight array on every batch.  The plan holds no scratch: each batch
        borrows its workspace from the thread's pool, which every version
        shares (:mod:`repro.nn.fused`, "Workspace lifetime rules").  Training
        a sealed model would serve stale weights: train a copy
        (:meth:`clone_architecture`, :meth:`snapshot`) instead.
        """
        self._sealed = {}

    def _predict_sealed(self, sealed: dict, batch, dtype: np.dtype):
        """:meth:`predict_full` of a serving batch on a sealed model."""
        cells = (self.lstm_influencer, self.lstm_audience)
        shape = batch.shape[:2] if hasattr(batch, "shape") else (len(batch), len(batch[0]))
        key = (*shape, dtype)
        resolved = sealed.get(key)
        if resolved is None:
            if len(sealed) >= MAX_WORKSPACES_PER_GEOMETRY:
                sealed.clear()
            resolved = sealed[key] = (
                serving_plan(*cells, batch, dtype),
                _head(self.decoder_action, dtype),
                _head(self.decoder_interaction, dtype),
            )
        plan, head_action, head_interaction = resolved
        final_h, final_g = forward_planned(plan, batch)
        return (
            _apply_head(head_action, final_h),
            _apply_head(head_interaction, final_g),
            final_h,
            final_g,
        )

    def predict(
        self,
        action_sequences: np.ndarray,
        interaction_sequences: np.ndarray,
        precision: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Inference-mode prediction; returns NumPy arrays ``(I_hat, A_hat)``.

        Runs the fused batched forward (pinned to ≤1e-8 of the per-timestep
        :meth:`forward` by the test-suite).  ``precision`` overrides the
        model's configured compute precision for this call.
        """
        reconstruction_i, reconstruction_a, _, _ = self.predict_full(
            action_sequences, interaction_sequences, precision=precision
        )
        return reconstruction_i, reconstruction_a

    def hidden_states(
        self,
        action_sequences: np.ndarray,
        interaction_sequences: np.ndarray,
        precision: Optional[str] = None,
    ) -> np.ndarray:
        """Final ``h_t`` hidden states of ``LSTM_I`` (drift-detection input)."""
        final_h, _ = self._fused_hidden(action_sequences, interaction_sequences, precision=precision)
        return final_h

    # ------------------------------------------------------------------ #
    # Fused training engine (analytic BPTT, tape-free)
    # ------------------------------------------------------------------ #
    @property
    def supports_fused_training(self) -> bool:
        """Whether the analytic engine's hard-coded decoder shapes apply.

        :class:`CLSTMTrainer` refuses a subclass that replaces either decoder
        with a different architecture instead of crashing mid-fit.
        """
        return is_softmax_head(self.decoder_action) and isinstance(
            self.decoder_interaction, nn.Linear
        )

    def training_arena(self) -> TrainingArena:
        """This model's parameters packed into a fresh
        :class:`~repro.nn.backprop.TrainingArena` (both cells, both decoders)."""
        if not self.supports_fused_training:
            raise RuntimeError(
                "fused training expects a Sequential(Linear, SoftmaxHead) action decoder "
                "and a Linear interaction decoder"
            )
        return TrainingArena(
            (self.lstm_influencer, self.lstm_audience),
            (list(self.decoder_action)[0], self.decoder_interaction),
        )

    def _arena_loss(
        self, arena, final, action_targets, interaction_targets, omega, action_loss, grad=True
    ):
        """Decoder heads and the fused loss (Eq. 13) on a final joint state ``(Hs, B)``.

        Returns ``(softmax_out, loss, d_softmax, d_interaction_out)``: the
        action reconstruction, the loss value and its gradient at both
        reconstructions (``None`` with ``grad=False``).
        """
        h1 = self.action_hidden
        softmax_out = softmax_forward(arena.head_forward(0, final[:h1]))
        interaction_out = arena.head_forward(1, final[h1:])
        return (softmax_out,) + weighted_loss_grad(
            softmax_out,
            action_targets,
            interaction_out,
            interaction_targets,
            omega=omega,
            action_loss=action_loss,
            grad=grad,
        )

    def fused_training_step(
        self,
        action_sequences: np.ndarray,
        interaction_sequences: np.ndarray,
        action_targets: np.ndarray,
        interaction_targets: np.ndarray,
        omega: float,
        action_loss: str = "js",
        tbptt_window: Optional[int] = None,
        arena: Optional[TrainingArena] = None,
    ) -> float:
        """One tape-free training step: cached forward, analytic backward.

        Runs the joint recurrence, the decoder heads and the fused
        reconstruction loss (Eq. 13) without building an autograd graph, then
        backpropagates analytically — through the decoders, then through time
        (:meth:`repro.nn.backprop.TrainingArena.backward`) — and returns the
        loss value.

        With ``arena`` (how :class:`~repro.core.training.CLSTMTrainer` calls
        it, once per optimiser step) everything happens in the arena's layout:
        the sequences are feature-major ``(d, T, B)``, the weights read are
        the arena's, and the gradient *overwrites* the arena's gradient
        buffer; the caller owns clipping and the optimiser step over
        ``arena.flat``.  Without it the call is one-shot: ``(B, T, d)``
        sequences, a fresh arena packed from the parameters, and the gradient
        *accumulated* into every parameter's ``.grad``, exactly like
        ``loss.backward()`` on the tape (the caller owns ``zero_grad``).  The
        targets are ``(B, d)`` either way.

        ``tbptt_window`` truncates the backward sweep to the last ``K``
        timesteps (exact full BPTT for sequences that fit inside the window;
        O(window) backward cost beyond it) — the streaming-update mode of
        ``TrainingConfig.tbptt_window``.
        """
        one_shot = arena is None
        if one_shot:
            arena = self.training_arena()
            action_sequences, interaction_sequences = paired_feature_major(
                action_sequences, interaction_sequences
            )
        final, cache = arena.forward((action_sequences, interaction_sequences))
        softmax_out, loss, d_softmax, d_interaction_out = self._arena_loss(
            arena, final, action_targets, interaction_targets, omega, action_loss
        )
        h1 = self.action_hidden
        d_logits = softmax_backward(softmax_out, d_softmax)
        arena.head_backward(0, final[:h1], d_logits, cache.d_final[:h1])
        arena.head_backward(1, final[h1:], d_interaction_out, cache.d_final[h1:])
        arena.backward(cache, cache.d_final, tbptt_window)
        if one_shot:
            arena.accumulate_grads()
        return loss

    def fused_loss(
        self,
        action_sequences: np.ndarray,
        interaction_sequences: np.ndarray,
        action_targets: np.ndarray,
        interaction_targets: np.ndarray,
        omega: float,
        action_loss: str = "js",
        arena: Optional[TrainingArena] = None,
    ) -> float:
        """Mean fused reconstruction loss via the training kernel's cache-free
        forward; ``arena`` and the layouts are as in :meth:`fused_training_step`.

        Value only: the loss goes through the expressions the training step's
        loss does (:func:`~repro.nn.backprop.weighted_loss_grad` with
        ``grad=False``), so it is bitwise that step's value, and no gradient
        is computed — the trainer's validation and test losses allocate
        nothing beyond the forward and the loss value's own temporaries.
        """
        if arena is None:
            arena = self.training_arena()
            action_sequences, interaction_sequences = paired_feature_major(
                action_sequences, interaction_sequences
            )
        final, _ = arena.forward((action_sequences, interaction_sequences), keep=False)
        return self._arena_loss(
            arena, final, action_targets, interaction_targets, omega, action_loss, grad=False
        )[1]

    def clone_architecture(self, seed: int = 0) -> "CLSTM":
        """A freshly initialised CLSTM with the same architecture."""
        return CLSTM(
            action_dim=self.action_dim,
            interaction_dim=self.interaction_dim,
            action_hidden=self.action_hidden,
            interaction_hidden=self.interaction_hidden,
            coupling=self.coupling,
            seed=seed,
            precision=self.precision,
        )

    # ------------------------------------------------------------------ #
    # Declarative construction (repro.runtime / checkpoint restore)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(
        cls,
        config: "ModelConfig",
        coupling: CouplingMode = "both",
        seed: int = 0,
    ) -> "CLSTM":
        """Build a CLSTM from a :class:`~repro.utils.config.ModelConfig`.

        The inverse of :attr:`model_config`; the unified runtime and the
        checkpoint restore path rebuild architectures through this so a model
        is fully described by ``(ModelConfig, coupling, seed)``.
        """
        return cls(
            action_dim=config.action_dim,
            interaction_dim=config.interaction_dim,
            action_hidden=config.action_hidden,
            interaction_hidden=config.interaction_hidden,
            coupling=coupling,
            seed=seed,
            precision=getattr(config, "precision", "float64"),
        )

    @property
    def model_config(self) -> "ModelConfig":
        """The :class:`~repro.utils.config.ModelConfig` describing this model."""
        from ..utils.config import ModelConfig

        return ModelConfig(
            action_dim=self.action_dim,
            interaction_dim=self.interaction_dim,
            action_hidden=self.action_hidden,
            interaction_hidden=self.interaction_hidden,
            precision=self.precision,
        )

    # ------------------------------------------------------------------ #
    # Snapshot / fused-cache management (serving registry contract)
    # ------------------------------------------------------------------ #
    def prewarm_fused(self) -> None:
        """Eagerly build the fused-weight caches of both recurrent cells.

        Publish paths call this so a freshly swapped-in model version serves
        its first micro-batch without paying the weight re-stacking cost.
        """
        prewarm_cell(self.lstm_influencer)
        prewarm_cell(self.lstm_audience)

    def fused_fresh(self) -> bool:
        """Whether both cells' fused caches match their live parameters."""
        return fused_cache_fresh(self.lstm_influencer) and fused_cache_fresh(self.lstm_audience)

    def snapshot(self) -> "CLSTM":
        """An independent, serving-ready copy of this model.

        The copy owns its parameter arrays (``state_dict`` copies on both
        read and load) and has its fused caches prewarmed, so it is safe to
        publish into a :class:`~repro.serving.registry.ModelRegistry` while
        the original keeps training or being merged: nothing that later
        mutates ``self`` can reach the snapshot or stale its caches.

        The source's stacked-weight caches are built once here and then
        *transplanted* to every copy (the copy holds identical parameter
        values, so the stacked arrays are re-keyed rather than re-built) —
        repeated publishes of an unchanged model never re-concatenate the
        gate weights.
        """
        copy = self.clone_architecture(seed=0)
        copy.load_state_dict(self.state_dict())
        self.prewarm_fused()
        transplant_fused_cache(self.lstm_influencer, copy.lstm_influencer)
        transplant_fused_cache(self.lstm_audience, copy.lstm_audience)
        copy.prewarm_fused()
        return copy

    def flops_per_sequence(self, sequence_length: int) -> int:
        """Rough floating-point-operation count for one sequence.

        Matches the complexity expression the paper reports,
        ``O(q * (4(h1^2 + h2^2) + 4(d1 h1 + d2 h2)))`` plus the decoders.
        This is the *full-window* forward: the serving path projects each
        segment once instead of ``q`` times, so shape-derived rates built on
        it (the ledger's ``nn.fused.gflops_per_s``) overstate the work the
        cached serving path actually does.
        """
        h1, h2 = self.action_hidden, self.interaction_hidden
        d1, d2 = self.action_dim, self.interaction_dim
        recurrent = 4 * (h1 * (h1 + h2 + d1)) + 4 * (h2 * (h1 + h2 + d2))
        decoders = h1 * d1 + h2 * d2
        return 2 * (sequence_length * recurrent + decoders)
