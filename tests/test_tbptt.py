"""Truncated-BPTT tests: in-window exactness, bounded divergence, config
validation and trainer wiring.

The contract of ``tbptt_window=K``: whenever the sequence length ``T`` fits
inside the window (``T <= K``) the truncated sweep **is** full BPTT —
bitwise, same code path — and for ``T > K`` the sweep touches only the last
``K`` timesteps (O(window) retrain cost), with states older than the window
treated as constants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clstm import CLSTM
from repro.core.training import CLSTMTrainer
from repro.core.update import incremental_training_config
from repro.features.sequences import SequenceBatch
from repro.nn.recurrent import CoupledLSTMCell, LSTMCell
from repro.utils.config import TrainingConfig, UpdateConfig
from tape_oracles import (
    coupled_pair_backward,
    coupled_pair_forward_cached,
    lstm_backward,
    lstm_forward_cached,
)


def _grads(module):
    return {name: parameter.grad.copy() for name, parameter in module.named_parameters()}


def _zero_grads(module):
    for parameter in module.parameters():
        parameter.zero_grad()


class TestWindowValidation:
    def test_training_config_rejects_non_positive_windows(self):
        with pytest.raises(ValueError, match="tbptt_window"):
            TrainingConfig(tbptt_window=0)
        with pytest.raises(ValueError, match="tbptt_window"):
            TrainingConfig(tbptt_window=-3)
        # True is an int to isinstance but not to from_dict: constructible
        # would mean a checkpoint that cannot be read back.
        with pytest.raises(ValueError, match="tbptt_window"):
            TrainingConfig(tbptt_window=True)

    def test_backward_rejects_non_positive_window(self):
        cell = LSTMCell(3, 2, rng=np.random.default_rng(0))
        sequence = np.random.default_rng(1).standard_normal((2, 4, 3))
        final, cache = lstm_forward_cached(cell, sequence)
        for window in (0, True):
            with pytest.raises(ValueError, match="window"):
                lstm_backward(cell, cache, np.ones_like(final), window=window)

    def test_update_config_inherits_window(self):
        base = TrainingConfig(tbptt_window=5)
        derived = incremental_training_config(base, UpdateConfig(update_epochs=2))
        assert derived.tbptt_window == 5
        assert derived.epochs == 2


class TestInWindowExactness:
    """window >= T must be the full-BPTT code path, bitwise."""

    def test_lstm_backward_window_at_least_t_is_exact(self):
        rng = np.random.default_rng(2)
        sequence = rng.standard_normal((3, 6, 4))
        d_final = rng.standard_normal((3, 5))
        expected = None
        for window in (None, 6, 7, 100):
            cell = LSTMCell(4, 5, rng=np.random.default_rng(3))
            final, cache = lstm_forward_cached(cell, sequence)
            lstm_backward(cell, cache, d_final, window=window)
            got = _grads(cell)
            if expected is None:
                expected = got
                continue
            assert set(got) == set(expected)
            for name in expected:
                assert np.array_equal(got[name], expected[name]), name

    def test_coupled_backward_window_at_least_t_is_exact(self):
        rng = np.random.default_rng(4)
        actions = rng.standard_normal((3, 5, 6))
        interactions = rng.standard_normal((3, 5, 2))
        d_h = rng.standard_normal((3, 4))
        d_g = rng.standard_normal((3, 3))
        reference = None
        for window in (None, 5, 9):
            influencer = CoupledLSTMCell(6, 4, 3, rng=np.random.default_rng(5))
            audience = CoupledLSTMCell(2, 3, 4, rng=np.random.default_rng(6))
            _, _, cache = coupled_pair_forward_cached(
                influencer, audience, actions, interactions
            )
            coupled_pair_backward(influencer, audience, cache, d_h, d_g, window=window)
            grads = (_grads(influencer), _grads(audience))
            if reference is None:
                reference = grads
            else:
                for expected, got in zip(reference, grads):
                    for name in expected:
                        assert np.array_equal(got[name], expected[name]), name


class TestTruncation:
    def test_small_window_diverges_boundedly(self):
        """Truncation changes the gradient (it must — old steps are dropped)
        but leaves it finite and on the same scale as full BPTT."""
        rng = np.random.default_rng(7)
        actions = rng.standard_normal((4, 12, 6))
        interactions = rng.standard_normal((4, 12, 2))
        d_h = rng.standard_normal((4, 4))
        d_g = rng.standard_normal((4, 3))

        def run(window):
            influencer = CoupledLSTMCell(6, 4, 3, rng=np.random.default_rng(8))
            audience = CoupledLSTMCell(2, 3, 4, rng=np.random.default_rng(9))
            _, _, cache = coupled_pair_forward_cached(
                influencer, audience, actions, interactions
            )
            coupled_pair_backward(influencer, audience, cache, d_h, d_g, window=window)
            return _grads(influencer), _grads(audience)

        full = run(None)
        truncated = run(3)
        different = False
        for expected, got in zip(full, truncated):
            for name in expected:
                assert np.all(np.isfinite(got[name])), name
                # Same order of magnitude: truncation drops old contributions,
                # it does not blow the gradient up.
                assert np.linalg.norm(got[name]) <= 10.0 * np.linalg.norm(expected[name]) + 1.0
                if not np.array_equal(got[name], expected[name]):
                    different = True
        assert different, "window < T must actually truncate the sweep"

    def test_repeated_truncated_backward_accumulates_like_full(self):
        """Two truncated backwards accumulate into ``.grad`` exactly like two
        full ones — truncation changes what one sweep computes, not how
        gradients accumulate across sweeps."""
        rng = np.random.default_rng(10)
        actions = rng.standard_normal((2, 10, 6))
        interactions = rng.standard_normal((2, 10, 2))
        d_h = rng.standard_normal((2, 4))
        d_g = rng.standard_normal((2, 3))
        influencer = CoupledLSTMCell(6, 4, 3, rng=np.random.default_rng(11))
        audience = CoupledLSTMCell(2, 3, 4, rng=np.random.default_rng(12))
        _, _, cache = coupled_pair_forward_cached(
            influencer, audience, actions, interactions
        )
        coupled_pair_backward(influencer, audience, cache, d_h, d_g, window=4)
        single = (_grads(influencer), _grads(audience))
        coupled_pair_backward(influencer, audience, cache, d_h, d_g, window=4)
        double = (_grads(influencer), _grads(audience))
        for once, twice in zip(single, double):
            for name in once:
                assert np.allclose(twice[name], 2.0 * once[name]), name


class TestModelAndTrainerWiring:
    def _data(self, rng, count=8, time=6):
        actions = rng.standard_normal((count, time, 10))
        interactions = rng.standard_normal((count, time, 4))
        targets_a = np.abs(rng.standard_normal((count, 10)))
        targets_a /= targets_a.sum(axis=1, keepdims=True)
        targets_i = rng.standard_normal((count, 4))
        return actions, interactions, targets_a, targets_i

    def _model(self, seed=20):
        return CLSTM(
            action_dim=10,
            interaction_dim=4,
            action_hidden=6,
            interaction_hidden=5,
            seed=seed,
        )

    def test_fused_training_step_window_ge_t_bitwise(self):
        rng = np.random.default_rng(13)
        actions, interactions, targets_a, targets_i = self._data(rng)
        full = self._model()
        loss_full = full.fused_training_step(
            actions, interactions, targets_a, targets_i, omega=0.8
        )
        windowed = self._model()
        loss_windowed = windowed.fused_training_step(
            actions, interactions, targets_a, targets_i, omega=0.8, tbptt_window=6
        )
        assert loss_full == loss_windowed
        for (name, p_full), (_, p_win) in zip(
            full.named_parameters(), windowed.named_parameters()
        ):
            assert np.array_equal(p_full.grad, p_win.grad), name

    def test_trainer_runs_with_window(self):
        rng = np.random.default_rng(14)
        actions, interactions, targets_a, targets_i = self._data(rng, count=12)
        batch = SequenceBatch(
            action_sequences=actions,
            interaction_sequences=interactions,
            action_targets=targets_a,
            interaction_targets=targets_i,
            target_indices=np.arange(12, dtype=np.int64),
        )
        model = self._model(seed=21)
        config = TrainingConfig(epochs=2, batch_size=4, tbptt_window=3, seed=0)
        history = CLSTMTrainer(model, config).fit(batch)
        assert len(history.records) == 2
        assert np.isfinite(history.records[-1].train_loss)

    def test_trainer_window_ge_t_matches_full_bptt_training(self):
        rng = np.random.default_rng(15)
        actions, interactions, targets_a, targets_i = self._data(rng, count=12)
        batch = SequenceBatch(
            action_sequences=actions,
            interaction_sequences=interactions,
            action_targets=targets_a,
            interaction_targets=targets_i,
            target_indices=np.arange(12, dtype=np.int64),
        )
        full_model = self._model(seed=22)
        CLSTMTrainer(full_model, TrainingConfig(epochs=2, batch_size=4, seed=0)).fit(batch)
        win_model = self._model(seed=22)
        CLSTMTrainer(
            win_model, TrainingConfig(epochs=2, batch_size=4, seed=0, tbptt_window=50)
        ).fit(batch)
        for (name, p_full), (_, p_win) in zip(
            full_model.named_parameters(), win_model.named_parameters()
        ):
            assert np.array_equal(p_full.data, p_win.data), name

    def test_tape_fallback_model_raises_loudly(self):
        """A model the analytic engine cannot train is refused when the trainer
        is built — there is no tape to fall back to, with or without a window."""

        class TapeOnly(CLSTM):
            def forward(self, actions, interactions):  # pragma: no cover
                return super().forward(actions, interactions)

        model = TapeOnly(
            action_dim=10, interaction_dim=4, action_hidden=6, interaction_hidden=5
        )
        with pytest.raises(TypeError, match="TapeOnly overrides forward"):
            CLSTMTrainer(model, TrainingConfig(epochs=1, tbptt_window=3))
