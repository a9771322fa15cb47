"""Equivalence tests: the analytic fused BPTT engine vs the autograd tape.

The fused training engine (:mod:`repro.nn.backprop`) must produce the same
gradients as ``loss.backward()`` on the per-op tape — the tape remains the
correctness oracle.  These tests pin the agreement to a max-abs-diff of 1e-8
(observed differences are ~1e-16, pure summation-order effects) for

* both cell types (plain :class:`LSTMCell` via the LSTM-baseline model and
  :class:`CoupledLSTMCell` pairs via the CLSTM),
* all three coupling modes, and
* all four action-loss choices (js / kl / l2 / mse),

plus trainer-level parity: the same seed trained by ``CLSTMTrainer`` and by
an in-test loop over the tape yields identical per-epoch losses and final
weights.  The tape itself is anchored to ground truth by a central-difference
check of the whole model.  Nothing in the package selects the tape; the tests
reach it by calling ``model(...)`` and ``loss.backward()``.

``CLSTMTrainer.fit`` keeps the weights in a flat training arena for the whole
fit (in-place Adam over the arena, one-dot clipping, no write-back between
steps); ``TestArenaTrainer`` pins that trajectory to ≤1e-10 in every weight
after 40 steps against the step-at-a-time flow (one-shot
``fused_training_step`` into ``.grad`` → ``clip_grad_norm`` → ``nn.Adam`` over
``model.parameters()``), and pins what the arena must leave untouched.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import nn
from repro.core.clstm import CLSTM
from repro.core.training import CLSTMTrainer
from repro.core.update import incremental_training_config, train_incremental
from repro.core.variants import _LSTMOnlyModel
from repro.features.sequences import build_sequences
from repro.nn.backprop import (
    TrainingArena,
    coupled_pair_backward,
    coupled_pair_forward_cached,
    lstm_backward,
    lstm_forward_cached,
    weighted_loss_grad,
)
from repro.nn.recurrent import CoupledLSTMCell, LSTMCell, run_lstm
from repro.nn.tensor import Tensor
from repro.utils.config import TrainingConfig, UpdateConfig
from test_nn_tensor import numerical_gradient

TOLERANCE = 1e-8
TRAJECTORY_TOLERANCE = 1e-10
COUPLINGS = ("both", "influencer_to_audience", "none")
ACTION_LOSSES = ("js", "kl", "l2", "mse")


def _random_sequences(rng, count=11, q=7, d1=12, d2=5):
    action = rng.random((count + q, d1)) + 1e-3
    action = action / action.sum(axis=1, keepdims=True)
    interaction = rng.random((count + q, d2))
    return build_sequences(action, interaction, q)


def _tape_clstm_grads(model, batch, omega, action_loss):
    model.zero_grad()
    output = model(batch.action_sequences, batch.interaction_sequences)
    loss = nn.weighted_reconstruction_loss(
        output.action_reconstruction,
        nn.Tensor(batch.action_targets),
        output.interaction_reconstruction,
        nn.Tensor(batch.interaction_targets),
        omega=omega,
        action_loss=action_loss,
    )
    loss.backward()
    return float(loss.item()), {name: p.grad.copy() for name, p in model.named_parameters()}


def _fused_clstm_grads(model, batch, omega, action_loss):
    model.zero_grad()
    loss = model.fused_training_step(
        batch.action_sequences,
        batch.interaction_sequences,
        batch.action_targets,
        batch.interaction_targets,
        omega=omega,
        action_loss=action_loss,
    )
    return loss, {name: p.grad.copy() for name, p in model.named_parameters()}


class TestGradientEquivalenceCLSTM:
    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("action_loss", ACTION_LOSSES)
    def test_all_couplings_and_losses(self, rng, coupling, action_loss):
        model = CLSTM(
            action_dim=12, interaction_dim=5, action_hidden=9, interaction_hidden=4,
            coupling=coupling, seed=4,
        )
        batch = _random_sequences(rng)
        tape_loss, tape_grads = _tape_clstm_grads(model, batch, 0.8, action_loss)
        fused_loss, fused_grads = _fused_clstm_grads(model, batch, 0.8, action_loss)
        assert abs(tape_loss - fused_loss) <= TOLERANCE
        for name, tape_grad in tape_grads.items():
            assert fused_grads[name] is not None, name
            assert np.abs(fused_grads[name] - tape_grad).max() <= TOLERANCE, name

    @pytest.mark.parametrize("omega", [0.0, 0.35, 1.0])
    def test_omega_extremes(self, rng, omega):
        """Both pure-action and pure-interaction objectives backprop identically."""
        model = CLSTM(action_dim=10, interaction_dim=4, action_hidden=7, interaction_hidden=3, seed=1)
        batch = _random_sequences(rng, d1=10, d2=4)
        tape_loss, tape_grads = _tape_clstm_grads(model, batch, omega, "js")
        fused_loss, fused_grads = _fused_clstm_grads(model, batch, omega, "js")
        assert abs(tape_loss - fused_loss) <= TOLERANCE
        for name, tape_grad in tape_grads.items():
            assert np.abs(fused_grads[name] - tape_grad).max() <= TOLERANCE, name

    def test_single_timestep_sequences(self, rng):
        """q=1 exercises the zero-initial-state edge of the reverse sweep."""
        model = CLSTM(action_dim=8, interaction_dim=4, action_hidden=6, interaction_hidden=3, seed=2)
        batch = _random_sequences(rng, count=6, q=1, d1=8, d2=4)
        tape_loss, tape_grads = _tape_clstm_grads(model, batch, 0.8, "js")
        fused_loss, fused_grads = _fused_clstm_grads(model, batch, 0.8, "js")
        assert abs(tape_loss - fused_loss) <= TOLERANCE
        for name, tape_grad in tape_grads.items():
            assert np.abs(fused_grads[name] - tape_grad).max() <= TOLERANCE, name

    def test_uncoupled_partner_blocks_get_zero_gradient(self, rng):
        """With a coupling direction disabled the tape produces exactly zero
        partner-row gradients; the fused path must reproduce that."""
        model = CLSTM(
            action_dim=8, interaction_dim=4, action_hidden=6, interaction_hidden=3,
            coupling="none", seed=3,
        )
        batch = _random_sequences(rng, d1=8, d2=4)
        _, fused_grads = _fused_clstm_grads(model, batch, 0.8, "js")
        h1 = model.action_hidden
        h2 = model.interaction_hidden
        for gate in ("w_input", "w_forget", "w_cell", "w_output"):
            influencer = fused_grads[f"lstm_influencer.{gate}"]
            audience = fused_grads[f"lstm_audience.{gate}"]
            np.testing.assert_array_equal(influencer[h1 : h1 + h2], 0.0)
            np.testing.assert_array_equal(audience[h2 : h2 + h1], 0.0)

    def test_gradients_accumulate_like_the_tape(self, rng):
        """Two fused steps without zero_grad add up, as repeated backward() does."""
        model = CLSTM(action_dim=8, interaction_dim=4, action_hidden=6, interaction_hidden=3, seed=5)
        batch = _random_sequences(rng, d1=8, d2=4)
        _, once = _fused_clstm_grads(model, batch, 0.8, "js")
        model.zero_grad()
        for _ in range(2):
            model.fused_training_step(
                batch.action_sequences, batch.interaction_sequences,
                batch.action_targets, batch.interaction_targets, omega=0.8,
            )
        for name, parameter in model.named_parameters():
            np.testing.assert_allclose(parameter.grad, 2.0 * once[name], rtol=0, atol=1e-12)


class TestGradientEquivalenceLSTMCell:
    def test_baseline_model_matches_tape(self, rng):
        model = _LSTMOnlyModel(action_dim=10, hidden_size=6, seed=3)
        sequences = rng.random((8, 5, 10))
        targets = rng.random((8, 10)) + 1e-3
        targets = targets / targets.sum(axis=1, keepdims=True)

        model.zero_grad()
        loss = nn.js_divergence_loss(model(sequences), nn.Tensor(targets))
        loss.backward()
        tape_grads = {name: p.grad.copy() for name, p in model.named_parameters()}
        model.zero_grad()
        fused_loss = model.fused_training_step(sequences, targets)
        assert abs(fused_loss - float(loss.item())) <= TOLERANCE
        for name, parameter in model.named_parameters():
            assert np.abs(parameter.grad - tape_grads[name]).max() <= TOLERANCE, name

    def test_raw_cell_backward_matches_upstream_gradient(self, rng):
        """lstm_backward reproduces state[0].backward(g) for an arbitrary g."""
        cell = LSTMCell(7, 5, rng=np.random.default_rng(11))
        sequence = rng.random((4, 6, 7))
        upstream = rng.normal(size=(4, 5))

        cell.zero_grad()
        _, state = run_lstm(cell, Tensor(sequence))
        state[0].backward(upstream)
        tape_grads = {name: p.grad.copy() for name, p in cell.named_parameters()}

        cell.zero_grad()
        final_hidden, cache = lstm_forward_cached(cell, sequence)
        lstm_backward(cell, cache, upstream)
        assert np.abs(final_hidden - state[0].numpy()).max() <= TOLERANCE
        for name, parameter in cell.named_parameters():
            assert np.abs(parameter.grad - tape_grads[name]).max() <= TOLERANCE, name

    @pytest.mark.parametrize("use_i", [True, False])
    @pytest.mark.parametrize("use_a", [True, False])
    def test_raw_pair_backward_matches_tape_lockstep(self, rng, use_i, use_a):
        """The joint reverse sweep equals the manual per-step Tensor loop for
        every combination of coupling directions."""
        gen = np.random.default_rng(17)
        influencer = CoupledLSTMCell(8, 6, partner_size=4, use_partner=use_i, rng=gen)
        audience = CoupledLSTMCell(5, 4, partner_size=6, use_partner=use_a, rng=gen)
        actions = rng.random((3, 6, 8))
        interactions = rng.random((3, 6, 5))
        upstream_h = rng.normal(size=(3, 6))
        upstream_g = rng.normal(size=(3, 4))

        influencer.zero_grad()
        audience.zero_grad()
        state_i = influencer.initial_state(3)
        state_a = audience.initial_state(3)
        actions_t, interactions_t = Tensor(actions), Tensor(interactions)
        for t in range(6):
            prev_h, prev_g = state_i[0], state_a[0]
            state_i = influencer(actions_t[:, t, :], state_i, prev_g)
            state_a = audience(interactions_t[:, t, :], state_a, prev_h)
        # Combine both outputs so one backward covers the joint dependency.
        ((state_i[0] * Tensor(upstream_h)).sum() + (state_a[0] * Tensor(upstream_g)).sum()).backward()
        tape_grads = {
            f"i.{name}": p.grad.copy() for name, p in influencer.named_parameters()
        } | {f"a.{name}": p.grad.copy() for name, p in audience.named_parameters()}

        influencer.zero_grad()
        audience.zero_grad()
        h_final, g_final, cache = coupled_pair_forward_cached(
            influencer, audience, actions, interactions
        )
        coupled_pair_backward(influencer, audience, cache, upstream_h, upstream_g)
        assert np.abs(h_final - state_i[0].numpy()).max() <= TOLERANCE
        assert np.abs(g_final - state_a[0].numpy()).max() <= TOLERANCE
        for name, parameter in influencer.named_parameters():
            assert np.abs(parameter.grad - tape_grads[f"i.{name}"]).max() <= TOLERANCE, name
        for name, parameter in audience.named_parameters():
            assert np.abs(parameter.grad - tape_grads[f"a.{name}"]).max() <= TOLERANCE, name


class TestTapeAgainstFiniteDifferences:
    """The oracle's own anchor: whole-model tape gradients vs central differences."""

    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_whole_model_tape_gradient(self, rng, coupling):
        model = CLSTM(
            action_dim=6, interaction_dim=3, action_hidden=5, interaction_hidden=4,
            coupling=coupling, seed=7,
        )
        batch = _random_sequences(rng, count=5, q=4, d1=6, d2=3)
        _, tape_grads = _tape_clstm_grads(model, batch, 0.8, "js")
        sampler = np.random.default_rng(0)
        for name, parameter in model.named_parameters():
            base = parameter.data.copy()
            picks = sampler.choice(base.size, size=min(4, base.size), replace=False)

            def loss_at(offsets):
                parameter.data = base.copy()
                parameter.data.flat[picks] += offsets
                return _tape_clstm_grads(model, batch, 0.8, "js")[0]

            numeric = numerical_gradient(loss_at, np.zeros(picks.size))
            parameter.data = base
            np.testing.assert_allclose(
                tape_grads[name].flat[picks], numeric, atol=1e-9, rtol=1e-4, err_msg=name
            )


class TestTrainerParity:
    CONFIG = TrainingConfig(epochs=4, batch_size=8, checkpoint_every=1, seed=0)

    @staticmethod
    def _model():
        return CLSTM(action_dim=10, interaction_dim=4, action_hidden=8, interaction_hidden=4, seed=2)

    def _fit_on_tape(self, batch):
        """``CLSTMTrainer.fit`` step for step, with the tape computing the gradients."""
        config = self.CONFIG
        model = self._model()
        rng = np.random.default_rng(config.seed)
        train, validation = (
            batch.subset(indices) for indices in CLSTMTrainer(model, config)._split(len(batch), rng)
        )
        optimizer = nn.Adam(model.parameters(), lr=config.learning_rate)
        train_curve, validation_curve = [], []
        best_state = None
        for _ in range(config.epochs):
            order = rng.permutation(len(train))
            total = 0.0
            for start in range(0, len(train), config.batch_size):
                mini = train.subset(order[start : start + config.batch_size])
                loss, _ = _tape_clstm_grads(model, mini, config.omega, config.action_loss)
                nn.clip_grad_norm(model.parameters(), config.gradient_clip)
                optimizer.step()
                total += loss * len(mini)
            train_curve.append(total / len(train))
            validation_loss, _ = _tape_clstm_grads(
                model, validation, config.omega, config.action_loss
            )
            if best_state is None or validation_loss < min(validation_curve):
                best_state = model.state_dict()
            validation_curve.append(validation_loss)
        model.load_state_dict(best_state)
        return model, train_curve, validation_curve

    def test_same_seed_identical_epoch_losses(self, rng):
        batch = _random_sequences(rng, count=40, q=6, d1=10, d2=4)
        model_fused = self._model()
        history = CLSTMTrainer(model_fused, self.CONFIG).fit(batch)
        model_tape, train_curve, validation_curve = self._fit_on_tape(batch)
        assert len(history.records) == len(train_curve)
        np.testing.assert_allclose(history.train_curve, train_curve, rtol=0, atol=TOLERANCE)
        np.testing.assert_allclose(
            history.validation_curve, validation_curve, rtol=0, atol=TOLERANCE
        )
        for (name, a), (_, b) in zip(
            model_fused.named_parameters(), model_tape.named_parameters()
        ):
            assert np.abs(a.data - b.data).max() <= TOLERANCE, name

    def test_evaluate_loss_matches_tape(self, rng):
        batch = _random_sequences(rng, count=20, q=6, d1=10, d2=4)
        model = self._model()
        config = TrainingConfig(epochs=1, checkpoint_every=1)
        tape_loss, _ = _tape_clstm_grads(model, batch, config.omega, config.action_loss)
        assert CLSTMTrainer(model, config).evaluate_loss(batch) == pytest.approx(
            tape_loss, abs=TOLERANCE
        )

    def test_custom_decoder_is_refused(self):
        """A CLSTM whose decoder deviates from Linear+SoftmaxHead has no
        analytic backward; the trainer says so instead of crashing mid-fit."""
        model = self._model()
        model.decoder_action = nn.Sequential(nn.Linear(8, 10), nn.Activation("relu"))
        with pytest.raises(TypeError, match="decoder"):
            CLSTMTrainer(model, TrainingConfig(epochs=1))

    def test_overridden_forward_without_step_is_refused(self):
        """A subclass with a custom forward must bring its own training step:
        the base analytic backward would optimise a different objective."""

        class ScaledCLSTM(CLSTM):
            def forward(self, action_sequences, interaction_sequences):
                output = super().forward(action_sequences, interaction_sequences)
                output.interaction_reconstruction = output.interaction_reconstruction * 2.0
                return output

        class ScaledWithStep(ScaledCLSTM):
            def fused_training_step(self, *args, **kwargs):  # pragma: no cover
                raise NotImplementedError

        dims = dict(action_dim=10, interaction_dim=4, action_hidden=8, interaction_hidden=4)
        with pytest.raises(TypeError, match="ScaledCLSTM overrides forward"):
            CLSTMTrainer(ScaledCLSTM(**dims), TrainingConfig(epochs=1))
        CLSTMTrainer(ScaledWithStep(**dims), TrainingConfig(epochs=1))

    def test_fused_tracks_weight_updates_across_steps(self, rng):
        """The stacked-weight caches must refresh after every optimiser step."""
        batch = _random_sequences(rng, count=20, q=5, d1=10, d2=4)
        model = CLSTM(action_dim=10, interaction_dim=4, action_hidden=8, interaction_hidden=4, seed=2)
        optimizer = nn.Adam(model.parameters(), lr=0.05)
        for _ in range(3):
            optimizer.zero_grad()
            fused_loss = model.fused_training_step(
                batch.action_sequences, batch.interaction_sequences,
                batch.action_targets, batch.interaction_targets, omega=0.8,
            )
            tape_loss, _ = _tape_clstm_grads(model, batch, 0.8, "js")
            assert abs(fused_loss - tape_loss) <= TOLERANCE
            optimizer.step()


class TestArenaTrainer:
    """The arena-resident fit vs the same steps taken one at a time."""

    # 44 samples -> 11 validation + 33 training = 4 * 8 + 1: every epoch ends on
    # a size-1 mini-batch (as drift_update's 225 = 7 * 32 + 1 does), and eight
    # epochs take 40 optimiser steps.  Only the last epoch is a checkpoint, so
    # the weights fit() leaves are the final ones.
    CONFIG = dict(epochs=8, batch_size=8, checkpoint_every=8, seed=3, learning_rate=0.01)
    DIMS = dict(action_dim=12, interaction_dim=5, action_hidden=9, interaction_hidden=4)

    @staticmethod
    def _partner_rows(model):
        """Per cell: the rows of every gate weight that read the partner's state."""
        h1, h2 = model.action_hidden, model.interaction_hidden
        rows = {"lstm_influencer": slice(h1, h1 + h2), "lstm_audience": slice(h2, h2 + h1)}
        return {
            name: parameter.data[rows[name.split(".")[0]]].copy()
            for name, parameter in model.named_parameters()
            if name.split(".")[1].startswith("w_")
        }

    def _fit_step_at_a_time(self, model, batch, config):
        rng = np.random.default_rng(config.seed)
        train = batch.subset(CLSTMTrainer(model, config)._split(len(batch), rng)[0])
        optimizer = nn.Adam(model.parameters(), lr=config.learning_rate)
        steps = 0
        for _ in range(config.epochs):
            order = rng.permutation(len(train))
            for start in range(0, len(train), config.batch_size):
                mini = train.subset(order[start : start + config.batch_size])
                optimizer.zero_grad()
                model.fused_training_step(
                    mini.action_sequences, mini.interaction_sequences,
                    mini.action_targets, mini.interaction_targets,
                    omega=config.omega, action_loss=config.action_loss,
                    tbptt_window=config.tbptt_window,
                )
                nn.clip_grad_norm(model.parameters(), config.gradient_clip)
                optimizer.step()
                steps += 1
        assert len(mini) == 1, "the sample count must leave a trailing size-1 mini-batch"
        return steps

    @pytest.mark.parametrize("q", [1, 9])
    @pytest.mark.parametrize("tbptt_window", [None, 4])
    @pytest.mark.parametrize("action_loss", ACTION_LOSSES)
    @pytest.mark.parametrize("coupling", COUPLINGS)
    def test_trajectory_matches_step_at_a_time(self, rng, coupling, action_loss, tbptt_window, q):
        config = TrainingConfig(action_loss=action_loss, tbptt_window=tbptt_window, **self.CONFIG)
        batch = _random_sequences(rng, count=44, q=q)
        arena_model = CLSTM(coupling=coupling, seed=4, **self.DIMS)
        reference = CLSTM(coupling=coupling, seed=4, **self.DIMS)
        CLSTMTrainer(arena_model, config).fit(batch)
        assert self._fit_step_at_a_time(reference, batch, config) >= 40
        initial = CLSTM(coupling=coupling, seed=4, **self.DIMS)
        for (name, got), (_, expected), (_, start) in zip(
            arena_model.named_parameters(), reference.named_parameters(), initial.named_parameters()
        ):
            assert np.abs(got.data - expected.data).max() <= TRAJECTORY_TOLERANCE, name
            # (at q=1 the forget gate multiplies the zero state: it alone has no gradient)
            assert q == 1 or not np.array_equal(got.data, start.data), f"{name} never trained"

    @pytest.mark.parametrize("coupling", ["none", "influencer_to_audience"])
    def test_disabled_coupling_is_never_touched(self, rng, monkeypatch, coupling):
        """A disabled direction's partner weights leave fit() bitwise as they
        entered it, and their arena blocks are exactly 0.0 after every step."""
        model = CLSTM(coupling=coupling, seed=4, **self.DIMS)
        before = self._partner_rows(model)
        arenas = []
        build = model.training_arena
        monkeypatch.setattr(model, "training_arena", lambda: arenas.append(build()) or arenas[-1])
        CLSTMTrainer(model, TrainingConfig(**self.CONFIG)).fit(_random_sequences(rng, count=44, q=5))
        after = self._partner_rows(model)
        disabled = ["lstm_influencer"] + (["lstm_audience"] if coupling == "none" else [])
        for name in before:
            if name.split(".")[0] in disabled:
                assert np.array_equal(after[name], before[name]), name
            else:
                assert not np.array_equal(after[name], before[name]), name
        (arena,) = arenas
        h1, total = model.action_hidden, model.action_hidden + model.interaction_hidden
        for blocks in (arena.values, arena.grads):
            joint = blocks.w_rec.reshape(4, total, total)
            assert not joint[:, :h1, h1:].any()  # influencer rows reading g
            assert joint[:, h1:, :h1].any() == (coupling != "none")  # audience rows reading h

    def test_curves_off_skips_unread_validations_only(self, rng, monkeypatch):
        """curves=False trains bitwise the same weights, records NaN where it
        skipped, and runs the validation forward once per checkpoint epoch."""
        config = TrainingConfig(epochs=7, batch_size=8, checkpoint_every=3, seed=0)
        batch = _random_sequences(rng, count=30, q=5)
        anomalous = _random_sequences(np.random.default_rng(9), count=6, q=5)
        calls = []
        fused_loss = CLSTM.fused_loss
        monkeypatch.setattr(
            CLSTM, "fused_loss", lambda self, *a, **k: calls.append(1) or fused_loss(self, *a, **k)
        )
        models, histories = [], []
        for curves in (True, False):
            del calls[:]
            model = CLSTM(seed=4, **self.DIMS)
            histories.append(CLSTMTrainer(model, config).fit(batch, anomalous, curves=curves))
            models.append(model)
            # Checkpoint epochs of 7 with checkpoint_every=3: 3, 6 and the last.
            assert len(calls) == (14 if curves else 3)
        for (name, a), (_, b) in zip(models[0].named_parameters(), models[1].named_parameters()):
            assert np.array_equal(a.data, b.data), name
        full, lean = histories
        assert np.isfinite(full.validation_curve).all() and np.isfinite(full.test_curve).all()
        checkpoints = np.array([False, False, True, False, False, True, True])
        assert np.array_equal(np.isnan(lean.validation_curve), ~checkpoints)
        assert np.array_equal(lean.validation_curve[checkpoints], full.validation_curve[checkpoints])
        assert np.isnan(lean.test_curve).all()
        assert np.array_equal(lean.train_curve, full.train_curve)
        assert (lean.best_epoch, lean.best_validation_loss) == (
            full.best_epoch, full.best_validation_loss
        )

    def test_arena_input_blocks_carry_no_structural_zeros(self):
        """One (4h, d) block per cell: a dense joint (4Hs, d1 + d2) input
        matrix would spend FLOPs on zeros (measured 0.86x at paper shape)."""
        arena = CLSTM(seed=4, **self.DIMS).training_arena()
        assert [block.shape for block in arena.values.w_in] == [(4 * 9, 12), (4 * 4, 5)]
        assert [block.shape for block in arena.grads.w_in] == [(4 * 9, 12), (4 * 4, 5)]
        assert arena.values.w_rec.shape == (4 * 13, 13)
        assert arena.flat.data.size == arena.flat.grad.size == sum(
            parameter.size for parameter in CLSTM(seed=4, **self.DIMS).parameters()
        ) - 4 * 2 * 9 * 4 + 4 * 13 * 13 - 4 * (9 * 9 + 4 * 4)


def _sweep_with_every_gemm(arena, cache):
    """Re-run ``cache``'s recurrence as ``TrainingArena.forward`` ran it before
    step 0 skipped its recurrent GEMM, overwriting the cache."""
    values, pre, scratch = arena.values, cache.pre, cache.scratch
    i_rows, f_rows, c_rows, o_rows = arena.gate_rows
    state = cell_state = cache.zero_state
    keep = len(cache.gates) == cache.time_steps
    for t in range(cache.time_steps):
        slot = t if keep else 0
        gate, c_t = cache.gates[slot], cache.cells[slot]
        np.matmul(values.w_rec, state, out=pre)
        pre += cache.x_proj[t]
        gate[...] = 1.0 / (1.0 + np.exp(-np.clip(pre, -60.0, 60.0)))
        np.tanh(pre[c_rows], out=gate[c_rows])
        np.multiply(gate[f_rows], cell_state, out=scratch)
        np.multiply(gate[i_rows], gate[c_rows], out=c_t)
        c_t += scratch
        np.tanh(c_t, out=cache.tanh_cells[slot])
        np.multiply(gate[o_rows], cache.tanh_cells[slot], out=cache.hiddens[slot])
        state, cell_state = cache.hiddens[slot], c_t
    return state


class TestZeroStateStep:
    """Step 0 of the training forward starts from the zero state and skips
    its recurrent GEMM (``x_0 + 0.0``): a retrain must not move a bit."""

    @pytest.mark.parametrize(
        "dims",
        [
            dict(action_dim=64, interaction_dim=16, action_hidden=32, interaction_hidden=16),
            dict(action_dim=400, interaction_dim=32, action_hidden=128, interaction_hidden=32),
        ],
        ids=["small", "paper"],
    )
    def test_retrain_weights_are_bitwise_those_of_the_full_gemm(self, monkeypatch, dims):
        batch = _random_sequences(
            np.random.default_rng(5), count=41, q=9,
            d1=dims["action_dim"], d2=dims["interaction_dim"],
        )
        config = incremental_training_config(
            TrainingConfig(batch_size=16, seed=0), UpdateConfig(update_epochs=2)
        )
        base = CLSTM(seed=1, **dims)

        def weights_digest():
            model = train_incremental(base, batch, config, seed=7)
            digest = hashlib.sha256()
            for _, parameter in model.named_parameters():
                digest.update(parameter.data.tobytes())
            return digest.hexdigest()

        skipped = weights_digest()
        live_forward = TrainingArena.forward
        replayed = []

        def forward_with_every_gemm(arena, inputs, keep=True):
            _, cache = live_forward(arena, inputs, keep)
            replayed.append(keep)
            return _sweep_with_every_gemm(arena, cache), cache

        monkeypatch.setattr(TrainingArena, "forward", forward_with_every_gemm)
        assert weights_digest() == skipped
        assert True in replayed and False in replayed


class TestWeightedLossGrad:
    def test_gradient_registry_matches_tape_registry(self):
        """The analytic-gradient table must cover exactly the tape's losses."""
        from repro.nn.backprop import ACTION_LOSS_GRADS
        from repro.nn.losses import ACTION_LOSSES

        assert set(ACTION_LOSS_GRADS) == set(ACTION_LOSSES)
        assert set(ACTION_LOSS_GRADS) == set(ACTION_LOSSES) == {"js", "kl", "l2", "mse"}

    def test_validates_inputs(self, rng):
        p = rng.random((4, 3))
        with pytest.raises(ValueError):
            weighted_loss_grad(p, p, p, p, omega=1.5)
        with pytest.raises(ValueError):
            weighted_loss_grad(p, p, p, p, omega=0.5, action_loss="huber")

    @pytest.mark.parametrize("action_loss", ACTION_LOSSES)
    def test_loss_value_matches_tape(self, rng, action_loss):
        action_p = rng.random((6, 10)) + 1e-3
        action_p = action_p / action_p.sum(axis=1, keepdims=True)
        action_t = rng.random((6, 10)) + 1e-3
        action_t = action_t / action_t.sum(axis=1, keepdims=True)
        inter_p = rng.normal(size=(6, 4))
        inter_t = rng.normal(size=(6, 4))
        value, _, _ = weighted_loss_grad(action_p, action_t, inter_p, inter_t, 0.7, action_loss)
        reference = nn.weighted_reconstruction_loss(
            Tensor(action_p), Tensor(action_t), Tensor(inter_p), Tensor(inter_t),
            omega=0.7, action_loss=action_loss,
        )
        assert value == pytest.approx(float(reference.item()), abs=1e-12)
