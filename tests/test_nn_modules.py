"""Tests for modules, layers and recurrent cells (repro.nn)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn import init
from repro.nn.recurrent import CoupledLSTMCell, LSTMCell, run_lstm
from repro.nn.tensor import Tensor


class TestInit:
    def test_xavier_uniform_bounds(self, rng):
        values = init.xavier_uniform((50, 60), rng)
        limit = np.sqrt(6.0 / 110)
        assert values.shape == (50, 60)
        assert np.all(np.abs(values) <= limit + 1e-12)

    def test_zeros(self):
        assert np.all(init.zeros((3, 2)) == 0)


class TestModule:
    def test_parameter_registration_and_counting(self):
        layer = nn.Linear(4, 3)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert layer.num_parameters() == 4 * 3 + 3

    def test_nested_module_parameters(self):
        mlp = nn.MLP([4, 8, 2])
        names = [name for name, _ in mlp.named_parameters()]
        assert all(name.startswith("network.") for name in names)
        assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_state_dict_roundtrip(self):
        source = nn.Linear(3, 3, rng=np.random.default_rng(1))
        target = nn.Linear(3, 3, rng=np.random.default_rng(2))
        assert not np.allclose(source.weight.data, target.weight.data)
        target.load_state_dict(source.state_dict())
        np.testing.assert_allclose(source.weight.data, target.weight.data)

    def test_load_state_dict_rejects_mismatch(self):
        layer = nn.Linear(3, 3)
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": np.zeros((3, 3))})
        state = layer.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_zero_grad_clears_all(self):
        layer = nn.Linear(2, 2)
        out = layer(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(1)


class TestLayers:
    def test_linear_shapes_and_bias(self):
        layer = nn.Linear(5, 3)
        out = layer(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)
        no_bias = nn.Linear(5, 3, bias=False)
        assert no_bias.bias is None

    def test_linear_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 3)

    def test_activation_names(self):
        assert nn.Activation("relu")(Tensor([-1.0, 2.0])).numpy().tolist() == [0.0, 2.0]
        with pytest.raises(ValueError):
            nn.Activation("gelu")

    def test_softmax_head_outputs_distribution(self):
        out = nn.SoftmaxHead()(Tensor(np.random.default_rng(0).normal(size=(4, 6))))
        np.testing.assert_allclose(out.numpy().sum(axis=1), np.ones(4), atol=1e-9)

    def test_sequential_iteration_and_len(self):
        seq = nn.Sequential(nn.Linear(2, 3), nn.Activation("tanh"))
        assert len(seq) == 2
        assert len(list(iter(seq))) == 2

    def test_mlp_output_activation_softmax(self):
        mlp = nn.MLP([3, 5, 4], output_activation="softmax")
        out = mlp(Tensor(np.ones((2, 3)))).numpy()
        np.testing.assert_allclose(out.sum(axis=1), np.ones(2), atol=1e-9)

    def test_mlp_requires_two_sizes(self):
        with pytest.raises(ValueError):
            nn.MLP([4])


class TestRecurrent:
    def test_lstm_cell_shapes(self):
        cell = LSTMCell(6, 4)
        h, c = cell.initial_state(3)
        h2, c2 = cell(Tensor(np.ones((3, 6))), (h, c))
        assert h2.shape == (3, 4)
        assert c2.shape == (3, 4)

    def test_lstm_cell_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            LSTMCell(0, 4)

    def test_run_lstm_over_sequence(self):
        cell = LSTMCell(3, 5)
        sequence = Tensor(np.random.default_rng(0).normal(size=(2, 7, 3)))
        hiddens, (h, c) = run_lstm(cell, sequence)
        assert hiddens.shape == (2, 7, 5)
        np.testing.assert_allclose(hiddens.numpy()[:, -1, :], h.numpy())

    def test_run_lstm_requires_3d(self):
        with pytest.raises(ValueError):
            run_lstm(LSTMCell(3, 5), Tensor(np.ones((2, 3))))

    def test_coupled_cell_uses_partner_state(self):
        cell = CoupledLSTMCell(4, 3, partner_size=2, use_partner=True, rng=np.random.default_rng(0))
        state = cell.initial_state(2)
        x = Tensor(np.ones((2, 4)))
        partner_a = Tensor(np.zeros((2, 2)))
        partner_b = Tensor(np.ones((2, 2)))
        h_a, _ = cell(x, state, partner_a)
        h_b, _ = cell(x, state, partner_b)
        assert not np.allclose(h_a.numpy(), h_b.numpy())

    def test_uncoupled_cell_ignores_partner(self):
        cell = CoupledLSTMCell(4, 3, partner_size=2, use_partner=False, rng=np.random.default_rng(0))
        state = cell.initial_state(2)
        x = Tensor(np.ones((2, 4)))
        h_a, _ = cell(x, state, Tensor(np.zeros((2, 2))))
        h_b, _ = cell(x, state, Tensor(np.ones((2, 2))))
        np.testing.assert_allclose(h_a.numpy(), h_b.numpy())

    def test_gradients_flow_through_time(self):
        cell = LSTMCell(2, 3, rng=np.random.default_rng(0))
        sequence = Tensor(np.random.default_rng(1).normal(size=(1, 4, 2)))
        hiddens, _ = run_lstm(cell, sequence)
        hiddens.sum().backward()
        assert all(p.grad is not None for p in cell.parameters())


class TestFunctional:
    def test_linear_matches_manual(self):
        x = np.random.default_rng(0).normal(size=(2, 3))
        w = np.random.default_rng(1).normal(size=(3, 4))
        b = np.random.default_rng(2).normal(size=(4,))
        out = F.linear(Tensor(x), Tensor(w), Tensor(b)).numpy()
        np.testing.assert_allclose(out, x @ w + b)

