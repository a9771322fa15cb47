"""Round-trip tests for :mod:`repro.nn.serialization`.

Checkpoints are part of the production surface (the runtime's crash-recovery
story is built on them), so the contract is strict: a saved-and-reloaded
CLSTM must reproduce ``predict_full`` outputs **bitwise**, and its fused
caches must be rebuildable (``fused_fresh()`` after ``prewarm_fused()``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clstm import CLSTM
from repro.core.training import CLSTMTrainer
from repro.nn.serialization import load_state, save_module, save_state
from repro.utils.config import ModelConfig


@pytest.fixture(scope="module")
def trained_clstm(tiny_features, fast_training):
    """A small CLSTM actually trained on the tiny stream (not just random init)."""
    model = CLSTM(
        action_dim=tiny_features.action_dim,
        interaction_dim=tiny_features.interaction_dim,
        action_hidden=12,
        interaction_hidden=6,
        seed=5,
    )
    batch = tiny_features.sequences(5)
    CLSTMTrainer(model, fast_training).fit(batch)
    return model, batch


class TestModuleRoundTrip:
    def test_predict_full_is_bitwise_identical(self, trained_clstm, tmp_path):
        model, batch = trained_clstm
        path = save_module(model, tmp_path / "clstm", metadata={"epochs": 3})

        restored = model.clone_architecture(seed=99)  # different init, fully overwritten
        state, metadata = load_state(path)
        restored.load_state_dict(state)
        assert metadata == {"epochs": 3}

        expected = model.predict_full(batch.action_sequences, batch.interaction_sequences)
        actual = restored.predict_full(batch.action_sequences, batch.interaction_sequences)
        for ours, theirs in zip(expected, actual):
            # Bitwise, not approx: weights round-trip exactly through .npz.
            assert np.array_equal(ours, theirs)

    def test_fused_fresh_after_prewarm_on_loaded_model(self, trained_clstm, tmp_path):
        model, _ = trained_clstm
        path = save_module(model, tmp_path / "clstm")
        restored = model.clone_architecture(seed=0)
        restored.load_state_dict(load_state(path)[0])
        restored.prewarm_fused()
        assert restored.fused_fresh(), "fused caches must match the loaded parameters"

    def test_loaded_state_matches_bitwise(self, trained_clstm, tmp_path):
        model, _ = trained_clstm
        path = save_module(model, tmp_path / "clstm")
        state, _ = load_state(path)
        for name, value in model.state_dict().items():
            assert np.array_equal(state[name], value)

    def test_from_config_round_trip(self, trained_clstm, tmp_path):
        """ModelConfig + save_module fully describe a model (restore path)."""
        model, batch = trained_clstm
        path = save_module(model, tmp_path / "clstm")
        config = ModelConfig(
            action_dim=model.action_dim,
            interaction_dim=model.interaction_dim,
            action_hidden=model.action_hidden,
            interaction_hidden=model.interaction_hidden,
        )
        rebuilt = CLSTM.from_config(config, coupling=model.coupling, seed=0)
        rebuilt.load_state_dict(load_state(path)[0])
        expected = model.predict_full(batch.action_sequences, batch.interaction_sequences)
        actual = rebuilt.predict_full(batch.action_sequences, batch.interaction_sequences)
        for ours, theirs in zip(expected, actual):
            assert np.array_equal(ours, theirs)


class TestStateArchive:
    def test_save_state_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"a": rng.normal(size=(3, 4)), "b": np.arange(5, dtype=np.int64)}
        metadata = {"nested": {"x": 1.5, "ids": ["s1", "s2"]}, "flag": True}
        path = save_state(tmp_path / "state", arrays, metadata)
        loaded, loaded_metadata = load_state(path)
        assert set(loaded) == {"a", "b"}
        assert np.array_equal(loaded["a"], arrays["a"])
        assert np.array_equal(loaded["b"], arrays["b"])
        assert loaded_metadata == metadata

    def test_metadata_key_is_reserved(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_state(tmp_path / "state", {"__metadata__": np.zeros(1)})

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state(tmp_path / "absent.npz")
