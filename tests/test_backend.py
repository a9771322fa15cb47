"""Kernel precision tests: resolution, NumPy parity and float32 tolerance.

The fused kernels must (a) resolve the ``precision`` strings of
:class:`~repro.utils.config.ModelConfig` to dtypes, (b) stay **bitwise
identical** at ``float64`` to the frozen reference implementation
(``tests/frozen_kernels.py``), and (c) keep the opt-in ``float32`` path
inside the pinned tolerances of the ``float64`` oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

import frozen_kernels
from repro.nn import backend, fused
from repro.nn.backend import (
    FLOAT32_ATOL,
    FLOAT32_RTOL,
    resolve_dtype,
    resolve_precision,
)
from repro.nn.recurrent import CoupledLSTMCell, LSTMCell
from repro.utils.config import ModelConfig


class TestResolution:
    def test_precision_resolution(self):
        assert resolve_precision(None) == "float64"
        assert resolve_precision("float64") == "float64"
        assert resolve_precision("float32") == "float32"
        with pytest.raises(ValueError, match="precision"):
            resolve_precision("float16")

    def test_dtype_resolution(self):
        assert resolve_dtype("float64") == np.float64
        assert resolve_dtype("float32") == np.float32

    def test_model_config_precision_validation(self):
        assert ModelConfig(precision="float32").precision == "float32"
        with pytest.raises(ValueError, match=r"ModelConfig\.precision"):
            ModelConfig(precision="bfloat16")


def _random_sequences(rng, batch, time, dim):
    return rng.standard_normal((batch, time, dim))


# Batch sizes on both sides of every row-count boundary a BLAS or a SIMD
# loop may switch kernels at (a vector, a partial and a full register block,
# an odd tail, the serving batch).
BATCHES = [1, 4, 5, 8, 33, 64]

# coupling mode -> (LSTM_I reads g, LSTM_A reads h), as CLSTM wires them.
COUPLINGS = {
    "both": (True, True),
    "influencer_to_audience": (False, True),
    "none": (False, False),
}


def _coupled_pair(coupling):
    influencer_reads, audience_reads = COUPLINGS[coupling]
    influencer = CoupledLSTMCell(
        6, 5, 4, use_partner=influencer_reads, rng=np.random.default_rng(3)
    )
    audience = CoupledLSTMCell(3, 4, 5, use_partner=audience_reads, rng=np.random.default_rng(4))
    return influencer, audience


class TestNumpyParity:
    """Default-path kernels vs the frozen reference, bitwise."""

    def test_lstm_forward_bitwise_parity(self):
        rng = np.random.default_rng(7)
        cell = LSTMCell(6, 5, rng=np.random.default_rng(1))
        sequence = _random_sequences(rng, 4, 9, 6)
        weights = fused.fuse_lstm_cell(cell)
        expected = frozen_kernels.reference_lstm_forward(weights, 5, sequence)
        hiddens, (h, c) = fused.lstm_forward_fused(cell, sequence)
        exp_hiddens, (exp_h, exp_c) = expected
        assert np.array_equal(hiddens, exp_hiddens)
        assert np.array_equal(h, exp_h)
        assert np.array_equal(c, exp_c)

    def test_lstm_forward_with_state_bitwise_parity(self):
        rng = np.random.default_rng(11)
        cell = LSTMCell(4, 3, rng=np.random.default_rng(2))
        sequence = _random_sequences(rng, 2, 5, 4)
        state = (rng.standard_normal((2, 3)), rng.standard_normal((2, 3)))
        weights = fused.fuse_lstm_cell(cell)
        exp_hiddens, (exp_h, exp_c) = frozen_kernels.reference_lstm_forward(
            weights, 3, sequence, state=state
        )
        hiddens, (h, c) = fused.lstm_forward_fused(cell, sequence, state=state)
        assert np.array_equal(hiddens, exp_hiddens)
        assert np.array_equal(h, exp_h)
        assert np.array_equal(c, exp_c)

    def test_coupled_forward_bitwise_parity(self):
        rng = np.random.default_rng(13)
        influencer = CoupledLSTMCell(6, 5, 4, rng=np.random.default_rng(3))
        audience = CoupledLSTMCell(3, 4, 5, rng=np.random.default_rng(4))
        actions = _random_sequences(rng, 4, 7, 6)
        interactions = _random_sequences(rng, 4, 7, 3)
        fused_i = fused.fuse_coupled_cell(influencer)
        fused_a = fused.fuse_coupled_cell(audience)
        exp_h, exp_g, exp_h_all, exp_g_all = frozen_kernels.reference_coupled_pair_forward(
            fused_i, fused_a, 5, 4, actions, interactions, return_all_hidden=True
        )
        h, g, h_all, g_all = fused.coupled_pair_forward_fused(
            influencer, audience, actions, interactions, return_all_hidden=True
        )
        assert np.array_equal(h, exp_h)
        assert np.array_equal(g, exp_g)
        assert np.array_equal(h_all, exp_h_all)
        assert np.array_equal(g_all, exp_g_all)

    @pytest.mark.parametrize("with_state", [False, True])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_lstm_forward_bitwise_parity_grid(self, batch, with_state):
        # Step 0 may skip its recurrent GEMM only when no state is passed.
        rng = np.random.default_rng(100 + batch)
        cell = LSTMCell(6, 5, rng=np.random.default_rng(1))
        sequence = _random_sequences(rng, batch, 7, 6)
        state = (
            (rng.standard_normal((batch, 5)), rng.standard_normal((batch, 5)))
            if with_state
            else None
        )
        weights = fused.fuse_lstm_cell(cell)
        exp_hiddens, (exp_h, exp_c) = frozen_kernels.reference_lstm_forward(
            weights, 5, sequence, state=state
        )
        hiddens, (h, c) = fused.lstm_forward_fused(cell, sequence, state=state)
        assert np.array_equal(hiddens, exp_hiddens)
        assert np.array_equal(h, exp_h)
        assert np.array_equal(c, exp_c)

    @pytest.mark.parametrize("return_all_hidden", [False, True])
    @pytest.mark.parametrize("coupling", sorted(COUPLINGS))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_coupled_forward_bitwise_parity_grid(self, batch, coupling, return_all_hidden):
        rng = np.random.default_rng(200 + batch)
        influencer, audience = _coupled_pair(coupling)
        actions = _random_sequences(rng, batch, 7, 6)
        interactions = _random_sequences(rng, batch, 7, 3)
        expected = frozen_kernels.reference_coupled_pair_forward(
            fused.fuse_coupled_cell(influencer),
            fused.fuse_coupled_cell(audience),
            5,
            4,
            actions,
            interactions,
            return_all_hidden=return_all_hidden,
        )
        got = fused.coupled_pair_forward_fused(
            influencer, audience, actions, interactions, return_all_hidden=return_all_hidden
        )
        assert len(got) == len(expected) == (4 if return_all_hidden else 2)
        for live, frozen in zip(got, expected):
            assert np.array_equal(live, frozen)

    @pytest.mark.parametrize("coupling", sorted(COUPLINGS))
    def test_negative_zero_gate_input_at_step_zero(self, coupling, monkeypatch):
        # The frozen kernel adds the (+0.0) recurrent products of the zero
        # state to the step-0 gate input, which turns a -0.0 into +0.0; the
        # live kernel skips those GEMMs and must still agree to the sign bit.
        rng = np.random.default_rng(29)
        influencer, audience = _coupled_pair(coupling)
        fused_i = fused.fuse_coupled_cell(influencer)
        fused_a = fused.fuse_coupled_cell(audience)
        for steps in (1, 3):
            gate_inputs = rng.standard_normal((5, steps, 4 * 5 + 4 * 4))
            gate_inputs[0, 0] = -0.0
            gate_inputs[1:, 0, ::3] = -0.0
            by_cell = {5: gate_inputs[..., : 4 * 5], 4: gate_inputs[..., 4 * 5 :]}
            monkeypatch.setattr(
                frozen_kernels, "_project_inputs", lambda _, weights: by_cell[weights.hidden_size]
            )
            unused = np.zeros((5, steps, 1))
            expected = frozen_kernels.reference_coupled_pair_forward(
                fused_i, fused_a, 5, 4, unused, unused
            )
            got = fused.coupled_pair_forward_gated(influencer, audience, gate_inputs)
            for live, frozen in zip(got, expected):
                assert np.array_equal(live, frozen)
                assert np.array_equal(np.signbit(live), np.signbit(frozen))


# Whole-data-set sizes: inside one block, exactly one block, and more than
# one block with a 1-window, a 1-window and a 39-window tail.
BLOCKED_COUNTS = [1, 4, 64, 65, 129, 231]
assert fused.FORWARD_BLOCK == 64

# (influencer input, influencer hidden, audience input, audience hidden):
# the test geometry, and the ledger's paper shape, whose K = 400 projection
# gives different bits at 1-4 rows than at 5 or more.
GEOMETRIES = {"small": (6, 5, 3, 4), "paper": (400, 128, 32, 32)}


class TestBlockedForwardParity:
    """Calls over more than FORWARD_BLOCK windows run in zero-padded blocks
    and still match the frozen whole-batch kernel bitwise."""

    @pytest.mark.parametrize("return_all_hidden", [False, True])
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("count", BLOCKED_COUNTS)
    def test_coupled_entry(self, count, geometry, return_all_hidden):
        d1, h1, d2, h2 = GEOMETRIES[geometry]
        influencer = CoupledLSTMCell(d1, h1, h2, rng=np.random.default_rng(3))
        audience = CoupledLSTMCell(d2, h2, h1, rng=np.random.default_rng(4))
        rng = np.random.default_rng(300 + count)
        actions = _random_sequences(rng, count, 9, d1)
        interactions = _random_sequences(rng, count, 9, d2)
        expected = frozen_kernels.reference_coupled_pair_forward(
            fused.fuse_coupled_cell(influencer),
            fused.fuse_coupled_cell(audience),
            h1,
            h2,
            actions,
            interactions,
            return_all_hidden=return_all_hidden,
        )
        got = fused.coupled_pair_forward_fused(
            influencer, audience, actions, interactions, return_all_hidden=return_all_hidden
        )
        assert len(got) == len(expected)
        for live, frozen in zip(got, expected):
            assert live.shape == frozen.shape and live.flags.c_contiguous
            assert np.array_equal(live, frozen)

    @pytest.mark.parametrize("with_state", [False, True])
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("count", BLOCKED_COUNTS)
    def test_lstm_entry(self, count, geometry, with_state):
        features, hidden = GEOMETRIES[geometry][:2]
        cell = LSTMCell(features, hidden, rng=np.random.default_rng(1))
        rng = np.random.default_rng(400 + count)
        sequence = _random_sequences(rng, count, 9, features)
        state = (
            (rng.standard_normal((count, hidden)), rng.standard_normal((count, hidden)))
            if with_state
            else None
        )
        exp_hiddens, (exp_h, exp_c) = frozen_kernels.reference_lstm_forward(
            fused.fuse_lstm_cell(cell), hidden, sequence, state=state
        )
        hiddens, (h, c) = fused.lstm_forward_fused(cell, sequence, state=state)
        assert np.array_equal(hiddens, exp_hiddens)
        assert np.array_equal(h, exp_h)
        assert np.array_equal(c, exp_c)


class TestFloat32Tolerance:
    def test_float32_forward_within_pinned_tolerance(self):
        rng = np.random.default_rng(23)
        influencer = CoupledLSTMCell(6, 5, 4, rng=np.random.default_rng(7))
        audience = CoupledLSTMCell(3, 4, 5, rng=np.random.default_rng(8))
        actions = _random_sequences(rng, 5, 9, 6)
        interactions = _random_sequences(rng, 5, 9, 3)
        h64, g64 = fused.coupled_pair_forward_fused(
            influencer, audience, actions, interactions
        )
        h32, g32 = fused.coupled_pair_forward_fused(
            influencer, audience, actions, interactions, dtype=np.float32
        )
        assert h32.dtype == np.float32
        assert g32.dtype == np.float32
        np.testing.assert_allclose(h32, h64, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)
        np.testing.assert_allclose(g32, g64, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)

    @pytest.mark.parametrize("coupling", sorted(COUPLINGS))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_float32_grid_within_pinned_tolerance(self, batch, coupling):
        rng = np.random.default_rng(300 + batch)
        influencer, audience = _coupled_pair(coupling)
        actions = _random_sequences(rng, batch, 9, 6)
        interactions = _random_sequences(rng, batch, 9, 3)
        oracle = fused.coupled_pair_forward_fused(
            influencer, audience, actions, interactions, return_all_hidden=True
        )
        single = fused.coupled_pair_forward_fused(
            influencer, audience, actions, interactions, return_all_hidden=True, dtype=np.float32
        )
        for got, expected in zip(single, oracle):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, expected, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)

    def test_float32_lstm_within_pinned_tolerance(self):
        rng = np.random.default_rng(31)
        cell = LSTMCell(6, 5, rng=np.random.default_rng(1))
        sequence = _random_sequences(rng, 5, 9, 6)
        state = (rng.standard_normal((5, 5)), rng.standard_normal((5, 5)))
        for initial in (None, state):
            hiddens64, (h64, c64) = fused.lstm_forward_fused(cell, sequence, state=initial)
            hiddens32, (h32, c32) = fused.lstm_forward_fused(
                cell, sequence, state=initial, dtype=np.float32
            )
            assert hiddens32.dtype == np.float32
            np.testing.assert_allclose(hiddens32, hiddens64, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)
            np.testing.assert_allclose(h32, h64, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)
            np.testing.assert_allclose(c32, c64, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)

    def test_backend_constants_are_importable_via_nn(self):
        # The serving layer and benchmarks import through repro.nn.
        import repro.nn as nn

        assert nn.resolve_precision(None) in backend.PRECISIONS
