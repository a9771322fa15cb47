"""Tests for losses, optimisers and checkpointing (repro.nn)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor


def random_distributions(rng, rows=6, cols=10):
    raw = rng.random((rows, cols)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


class TestLosses:
    def test_mse_zero_at_equality(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        assert nn.mse_loss(x, x).item() == pytest.approx(0.0)

    def test_mse_matches_numpy(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        assert nn.mse_loss(Tensor(a), Tensor(b)).item() == pytest.approx(np.mean((a - b) ** 2))

    def test_l2_loss_is_per_sample_norm(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        expected = np.mean(np.sum((a - b) ** 2, axis=1))
        assert nn.l2_loss(Tensor(a), Tensor(b)).item() == pytest.approx(expected)

    def test_kl_zero_at_equality(self, rng):
        p = random_distributions(rng)
        assert nn.kl_divergence_loss(Tensor(p), Tensor(p)).item() == pytest.approx(0.0, abs=1e-9)

    def test_kl_non_negative(self, rng):
        p = random_distributions(rng)
        q = random_distributions(rng)
        assert nn.kl_divergence_loss(Tensor(q), Tensor(p)).item() >= 0.0

    def test_js_properties(self, rng):
        p = random_distributions(rng)
        q = random_distributions(rng)
        js_pq = nn.js_divergence_loss(Tensor(p), Tensor(q)).item()
        js_qp = nn.js_divergence_loss(Tensor(q), Tensor(p)).item()
        assert js_pq == pytest.approx(js_qp, rel=1e-9)
        assert 0.0 <= js_pq <= np.log(2.0) + 1e-9
        assert nn.js_divergence_loss(Tensor(p), Tensor(p)).item() == pytest.approx(0.0, abs=1e-9)

    def test_weighted_loss_combines_branches(self, rng):
        p = random_distributions(rng)
        q = random_distributions(rng)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4))
        js = nn.js_divergence_loss(Tensor(q), Tensor(p)).item()
        mse = nn.mse_loss(Tensor(a), Tensor(b)).item()
        combined = nn.weighted_reconstruction_loss(
            Tensor(q), Tensor(p), Tensor(a), Tensor(b), omega=0.7
        ).item()
        assert combined == pytest.approx(0.7 * js + 0.3 * mse)

    def test_weighted_loss_validates_inputs(self, rng):
        p = Tensor(random_distributions(rng))
        a = Tensor(rng.normal(size=(6, 4)))
        with pytest.raises(ValueError):
            nn.weighted_reconstruction_loss(p, p, a, a, omega=1.5)
        with pytest.raises(ValueError):
            nn.weighted_reconstruction_loss(p, p, a, a, omega=0.5, action_loss="huber")

    def test_losses_are_differentiable(self, rng):
        prediction = Tensor(random_distributions(rng), requires_grad=True)
        target = Tensor(random_distributions(rng))
        nn.js_divergence_loss(prediction, target).backward()
        assert prediction.grad is not None
        assert np.all(np.isfinite(prediction.grad))


class TestOptimisers:
    @staticmethod
    def _quadratic_problem():
        target = np.array([1.0, -2.0, 3.0])
        parameter = nn.Parameter(np.zeros(3))
        return parameter, target

    def test_sgd_reduces_quadratic(self):
        parameter, target = self._quadratic_problem()
        optimizer = nn.SGD([parameter], lr=0.1)
        for _ in range(200):
            loss = ((parameter - Tensor(target)) ** 2).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, target, atol=1e-3)

    def test_sgd_momentum_converges(self):
        parameter, target = self._quadratic_problem()
        optimizer = nn.SGD([parameter], lr=0.05, momentum=0.9)
        for _ in range(200):
            loss = ((parameter - Tensor(target)) ** 2).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, target, atol=1e-2)

    def test_adam_reduces_quadratic(self):
        parameter, target = self._quadratic_problem()
        optimizer = nn.Adam([parameter], lr=0.05)
        for _ in range(400):
            loss = ((parameter - Tensor(target)) ** 2).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(parameter.data, target, atol=1e-2)

    def test_optimizer_validation(self):
        parameter = nn.Parameter(np.zeros(2))
        with pytest.raises(ValueError):
            nn.SGD([parameter], lr=-1.0)
        with pytest.raises(ValueError):
            nn.Adam([parameter], lr=0.0)
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

    def test_step_skips_parameters_without_grad(self):
        parameter = nn.Parameter(np.ones(2))
        optimizer = nn.Adam([parameter], lr=0.1)
        optimizer.step()  # no gradient accumulated yet
        np.testing.assert_allclose(parameter.data, np.ones(2))

    def test_clip_grad_norm(self):
        parameter = nn.Parameter(np.zeros(4))
        parameter.grad = np.full(4, 10.0)
        norm = nn.clip_grad_norm([parameter], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_no_grads(self):
        assert nn.clip_grad_norm([nn.Parameter(np.zeros(2))], 1.0) == 0.0

    def test_clip_grad_norm_zero_max_norm_disables_clipping(self):
        """gradient_clip=0 must be an off switch, never a zero-out."""
        parameter = nn.Parameter(np.zeros(4))
        parameter.grad = np.full(4, 10.0)
        norm = nn.clip_grad_norm([parameter], max_norm=0.0)
        assert norm == pytest.approx(20.0)
        np.testing.assert_array_equal(parameter.grad, np.full(4, 10.0))

    def test_clip_grad_norm_global_across_parameters(self, rng):
        """The vectorised one-pass norm equals the per-parameter computation."""
        parameters = [nn.Parameter(np.zeros((3, 2))), nn.Parameter(np.zeros(5)), nn.Parameter(np.zeros(1))]
        grads = [rng.normal(size=p.data.shape) for p in parameters]
        for parameter, grad in zip(parameters, grads):
            parameter.grad = grad.copy()
        expected = float(np.sqrt(sum((g ** 2).sum() for g in grads)))
        norm = nn.clip_grad_norm(parameters, max_norm=expected / 2.0)
        assert norm == pytest.approx(expected)
        clipped = float(np.sqrt(sum((p.grad ** 2).sum() for p in parameters)))
        assert clipped == pytest.approx(expected / 2.0)
        # Directions are preserved.
        for parameter, grad in zip(parameters, grads):
            np.testing.assert_allclose(parameter.grad, grad * 0.5, rtol=1e-12)


class _PerParameterAdam:
    """The textbook Adam step, one parameter at a time (the seed's optimiser)."""

    def __init__(self, parameters, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr, (self.beta1, self.beta2), self.eps = lr, betas, eps
        self.weight_decay = weight_decay
        self.steps = 0
        self.first = [np.zeros_like(p.data) for p in self.parameters]
        self.second = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self.steps += 1
        bias_correction1 = 1.0 - self.beta1 ** self.steps
        bias_correction2 = 1.0 - self.beta2 ** self.steps
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * parameter.data
            first = self.beta1 * self.first[index] + (1.0 - self.beta1) * grad
            second = self.beta2 * self.second[index] + (1.0 - self.beta2) * (grad * grad)
            self.first[index], self.second[index] = first, second
            parameter.data = parameter.data - self.lr * (first / bias_correction1) / (
                np.sqrt(second / bias_correction2) + self.eps
            )


class _PerParameterSGD:
    """The textbook SGD-with-momentum step, one parameter at a time."""

    def __init__(self, parameters, lr, momentum):
        self.parameters = list(parameters)
        self.lr, self.momentum = lr, momentum
        self.velocity = [None] * len(self.parameters)

    def step(self):
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            previous = self.velocity[index]
            update = parameter.grad if previous is None else self.momentum * previous + parameter.grad
            self.velocity[index] = update
            parameter.data = parameter.data - self.lr * update


class TestFlatBufferOptimisers:
    """The flat (single contiguous buffer) step must match the per-parameter
    reference above bit-for-bit and survive external parameter rebinds."""

    @staticmethod
    def _twin_models(seed=0):
        return (
            nn.MLP([6, 8, 4], rng=np.random.default_rng(seed)),
            nn.MLP([6, 8, 4], rng=np.random.default_rng(seed)),
        )

    @staticmethod
    def _train(model, optimizer, x, y, steps=8, clip=None):
        for _ in range(steps):
            loss = nn.mse_loss(model(Tensor(x)), Tensor(y))
            model.zero_grad()
            loss.backward()
            if clip is not None:
                nn.clip_grad_norm(model.parameters(), clip)
            optimizer.step()

    def _assert_identical(self, model_a, model_b):
        for (name, a), (_, b) in zip(model_a.named_parameters(), model_b.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)

    def test_adam_flat_matches_per_parameter(self, rng):
        flat_model, legacy_model = self._twin_models()
        x, y = rng.random((16, 6)), rng.random((16, 4))
        self._train(flat_model, nn.Adam(flat_model.parameters(), lr=0.01), x, y, clip=1.0)
        self._train(legacy_model, _PerParameterAdam(legacy_model.parameters(), lr=0.01), x, y, clip=1.0)
        self._assert_identical(flat_model, legacy_model)

    def test_adam_flat_with_weight_decay(self, rng):
        flat_model, legacy_model = self._twin_models(seed=3)
        x, y = rng.random((12, 6)), rng.random((12, 4))
        self._train(flat_model, nn.Adam(flat_model.parameters(), lr=0.01, weight_decay=0.1), x, y)
        self._train(legacy_model, _PerParameterAdam(legacy_model.parameters(), lr=0.01, weight_decay=0.1), x, y)
        self._assert_identical(flat_model, legacy_model)

    def test_sgd_momentum_flat_matches_per_parameter(self, rng):
        flat_model, legacy_model = self._twin_models(seed=1)
        x, y = rng.random((16, 6)), rng.random((16, 4))
        self._train(flat_model, nn.SGD(flat_model.parameters(), lr=0.05, momentum=0.9), x, y)
        self._train(legacy_model, _PerParameterSGD(legacy_model.parameters(), lr=0.05, momentum=0.9), x, y)
        self._assert_identical(flat_model, legacy_model)

    def test_flat_step_skips_parameters_without_grad(self):
        """A grad-less parameter keeps its data AND its moments untouched."""
        with_grad_flat = nn.Parameter(np.ones(3))
        without_grad_flat = nn.Parameter(np.ones(2) * 5.0)
        with_grad_legacy = nn.Parameter(np.ones(3))
        without_grad_legacy = nn.Parameter(np.ones(2) * 5.0)
        flat = nn.Adam([with_grad_flat, without_grad_flat], lr=0.1)
        legacy = _PerParameterAdam([with_grad_legacy, without_grad_legacy], lr=0.1)
        for step in range(3):
            grad = np.full(3, 1.0 + step)
            with_grad_flat.grad = grad.copy()
            with_grad_legacy.grad = grad.copy()
            # The second parameter intermittently gets a gradient.
            if step == 1:
                without_grad_flat.grad = np.full(2, 2.0)
                without_grad_legacy.grad = np.full(2, 2.0)
            flat.step()
            legacy.step()
            with_grad_flat.zero_grad()
            without_grad_flat.zero_grad()
            with_grad_legacy.zero_grad()
            without_grad_legacy.zero_grad()
        np.testing.assert_array_equal(with_grad_flat.data, with_grad_legacy.data)
        np.testing.assert_array_equal(without_grad_flat.data, without_grad_legacy.data)

    def test_flat_step_with_no_grads_is_a_no_op(self):
        parameter = nn.Parameter(np.ones(2))
        optimizer = nn.Adam([parameter], lr=0.1)
        optimizer.step()
        np.testing.assert_allclose(parameter.data, np.ones(2))

    def test_flat_survives_external_rebind(self, rng):
        """load_state_dict between steps invalidates the cached flat buffer."""
        model = nn.MLP([4, 3], rng=np.random.default_rng(0))
        twin = nn.MLP([4, 3], rng=np.random.default_rng(0))
        x, y = rng.random((8, 4)), rng.random((8, 3))
        flat = nn.Adam(model.parameters(), lr=0.05)
        legacy = _PerParameterAdam(twin.parameters(), lr=0.05)
        self._train(model, flat, x, y, steps=2)
        self._train(twin, legacy, x, y, steps=2)
        snapshot = model.state_dict()
        model.load_state_dict(snapshot)  # rebinds every parameter.data
        twin.load_state_dict(snapshot)
        self._train(model, flat, x, y, steps=2)
        self._train(twin, legacy, x, y, steps=2)
        self._assert_identical(model, twin)

    def test_flat_step_rebinds_parameter_data(self):
        """Each step rebinds parameter.data so fused-weight caches invalidate."""
        parameter = nn.Parameter(np.ones(3))
        optimizer = nn.Adam([parameter], lr=0.1)
        before = parameter.data
        parameter.grad = np.ones(3)
        optimizer.step()
        assert parameter.data is not before

    def test_flat_step_keeps_gradless_parameter_binding(self):
        """A skipped (grad-less) parameter keeps its data identity, like the
        per-parameter path — so fused-weight caches stay warm for frozen cells."""
        updated = nn.Parameter(np.ones(3))
        frozen = nn.Parameter(np.ones(2) * 5.0)
        optimizer = nn.Adam([updated, frozen], lr=0.1)
        before = frozen.data
        updated.grad = np.ones(3)
        optimizer.step()
        assert frozen.data is before
        np.testing.assert_array_equal(frozen.data, np.ones(2) * 5.0)


class TestSerialization:
    def test_save_and_load_roundtrip(self, tmp_path):
        model = nn.MLP([3, 5, 2], rng=np.random.default_rng(0))
        path = nn.save_module(model, tmp_path / "model", metadata={"dataset": "INF", "epochs": 3})
        assert path.suffix == ".npz"
        clone = nn.MLP([3, 5, 2], rng=np.random.default_rng(99))
        metadata = nn.load_into_module(clone, path)
        assert metadata == {"dataset": "INF", "epochs": 3}
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            np.testing.assert_allclose(a.data, b.data)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            nn.load_state(tmp_path / "missing.npz")

    def test_load_state_returns_arrays(self, tmp_path):
        model = nn.Linear(2, 2)
        path = nn.save_module(model, tmp_path / "linear.npz")
        state, metadata = nn.load_state(path)
        assert metadata == {}
        assert set(state) == {"weight", "bias"}
