"""Tests for the autograd engine (repro.nn.tensor)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.tensor import Tensor, no_grad, is_grad_enabled


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function of an array."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = fn(x)
        flat[index] = original - eps
        lower = fn(x)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * eps)
    return grad


def check_gradient(build, x0: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autograd gradient of ``build(Tensor)`` with numerical gradient."""
    tensor = Tensor(x0.copy(), requires_grad=True)
    out = build(tensor)
    out.backward()
    numeric = numerical_gradient(lambda arr: float(build(Tensor(arr)).item()), x0.copy())
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol, rtol=1e-4)


class TestBasicOps:
    def test_add_and_sub_values(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 5.0])
        np.testing.assert_allclose((a + b).numpy(), [4.0, 7.0])
        np.testing.assert_allclose((b - a).numpy(), [2.0, 3.0])

    def test_scalar_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose((a * 2.0).numpy(), [[2.0, 4.0], [6.0, 8.0]])
        np.testing.assert_allclose((1.0 + a).numpy(), [[2.0, 3.0], [4.0, 5.0]])

    def test_matmul_values(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[1.0], [10.0]])
        np.testing.assert_allclose((a @ b).numpy(), [[21.0]])

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])  # type: ignore[operator]

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 3)))
        assert len(t) == 4
        assert t.size == 12
        assert t.ndim == 2


class TestGradients:
    def test_add_gradient(self):
        check_gradient(lambda t: (t + t * 2.0).sum(), np.random.default_rng(0).normal(size=(3, 2)))

    def test_mul_gradient(self):
        check_gradient(lambda t: (t * t).sum(), np.random.default_rng(1).normal(size=(4,)))

    def test_div_gradient(self):
        check_gradient(lambda t: (t / 3.0 + 2.0 / (t + 5.0)).sum(), np.abs(np.random.default_rng(2).normal(size=(3,))) + 1.0)

    def test_matmul_gradient(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(3, 2))

        def build(t):
            return (t @ Tensor(w)).sum()

        check_gradient(build, rng.normal(size=(4, 3)))

    def test_sigmoid_tanh_relu_exp_log_gradients(self):
        rng = np.random.default_rng(4)
        check_gradient(lambda t: t.sigmoid().sum(), rng.normal(size=(5,)))
        check_gradient(lambda t: t.tanh().sum(), rng.normal(size=(5,)))
        check_gradient(lambda t: t.exp().sum(), rng.normal(size=(5,)))
        check_gradient(lambda t: t.log().sum(), np.abs(rng.normal(size=(5,))) + 0.5)
        # relu gradient away from the kink
        check_gradient(lambda t: t.relu().sum(), rng.normal(size=(5,)) + 3.0)

    def test_softmax_gradient(self):
        check_gradient(
            lambda t: (t.softmax(axis=-1) * Tensor(np.arange(4.0))).sum(),
            np.random.default_rng(5).normal(size=(2, 4)),
        )

    def test_mean_and_sum_axis_gradients(self):
        rng = np.random.default_rng(6)
        check_gradient(lambda t: t.sum(axis=0).sum(), rng.normal(size=(3, 4)))
        check_gradient(lambda t: t.mean(axis=1).sum(), rng.normal(size=(3, 4)))
        check_gradient(lambda t: t.mean().sum(), rng.normal(size=(3, 4)))

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(7)
        bias = rng.normal(size=(4,))

        def build(t):
            return (t + Tensor(bias)).sum()

        check_gradient(build, rng.normal(size=(3, 4)))

    def test_broadcast_reduces_gradient_for_small_operand(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3.0 * np.ones(4))

    def test_concat_gradient(self):
        rng = np.random.default_rng(8)

        def build(t):
            other = Tensor(np.ones((2, 2)))
            return Tensor.concatenate([t, other], axis=1).sum()

        check_gradient(build, rng.normal(size=(2, 3)))

    def test_stack_gradient_flows_to_all_parts(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        Tensor.stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_getitem_gradient(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a[0, :].sum().backward()
        expected = np.zeros((2, 3))
        expected[0, :] = 1.0
        np.testing.assert_allclose(a.grad, expected)

    def test_reshape_transpose_gradient(self):
        rng = np.random.default_rng(9)
        check_gradient(lambda t: t.reshape(6).sum(), rng.normal(size=(2, 3)))
        check_gradient(lambda t: (t.T @ Tensor(np.ones((2, 1)))).sum(), rng.normal(size=(2, 3)))

    def test_gradient_accumulates_across_uses(self):
        a = Tensor(np.ones(2), requires_grad=True)
        out = (a * 2.0).sum() + (a * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, [5.0, 5.0])

    def test_clip_and_abs_gradients(self):
        rng = np.random.default_rng(10)
        check_gradient(lambda t: t.clip(-0.5, 0.5).sum(), rng.normal(size=(6,)) * 2.0)
        check_gradient(lambda t: t.abs().sum(), rng.normal(size=(6,)) + 2.0)

    def test_negation_value_and_gradient(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 2))
        np.testing.assert_array_equal((-Tensor(x)).numpy(), -x)
        check_gradient(lambda t: (-t * t).sum(), x)

    def test_scalar_minus_tensor(self):
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal((3.0 - Tensor(x)).numpy(), 3.0 - x)
        check_gradient(lambda t: ((1.0 - t) ** 2).sum(), x)

    def test_scalar_times_tensor(self):
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal((2.5 * Tensor(x)).numpy(), 2.5 * x)
        check_gradient(lambda t: (2.5 * t * t).sum(), x)

    def test_sqrt_value_and_gradient(self):
        x = np.array([0.25, 1.0, 4.0, 9.0])
        np.testing.assert_allclose(Tensor(x).sqrt().numpy(), np.sqrt(x))
        tensor = Tensor(x, requires_grad=True)
        tensor.sqrt().sum().backward()
        np.testing.assert_allclose(tensor.grad, 0.5 / np.sqrt(x))

    def test_max_along_an_axis_routes_the_gradient_to_the_maximum(self):
        x = np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]])
        tensor = Tensor(x, requires_grad=True)
        out = tensor.max(axis=1)
        np.testing.assert_array_equal(out.numpy(), [5.0, 7.0])
        (out * Tensor([2.0, 3.0])).sum().backward()
        np.testing.assert_array_equal(tensor.grad, [[0.0, 2.0, 0.0], [3.0, 0.0, 0.0]])
        kept = Tensor(x).max(axis=0, keepdims=True)
        assert kept.shape == (1, 3)
        check_gradient(lambda t: t.max(axis=0, keepdims=True).sum(), x)

    def test_max_splits_the_gradient_between_ties(self):
        tensor = Tensor(np.array([4.0, 1.0, 4.0, 4.0]), requires_grad=True)
        out = tensor.max()
        assert out.item() == 4.0
        out.backward()
        np.testing.assert_allclose(tensor.grad, [1 / 3, 0.0, 1 / 3, 1 / 3])


class TestBackwardProtocol:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_requires_scalar_or_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_backward_with_explicit_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 2.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(t.grad, [2.0, 20.0])

    def test_detach_stops_gradients(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = (t.detach() * 3.0).sum()
        assert not out.requires_grad

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = (t * 2.0).sum()
        assert is_grad_enabled()
        assert not out.requires_grad

    def test_no_grad_restores_state_on_exception(self):
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert is_grad_enabled()


class TestNumericalSafety:
    def test_log_clamps_small_values(self):
        out = Tensor([0.0, 1e-20]).log()
        assert np.all(np.isfinite(out.numpy()))

    def test_sigmoid_handles_extreme_inputs(self):
        out = Tensor([-1000.0, 1000.0]).sigmoid().numpy()
        assert np.all(np.isfinite(out))
        assert out[0] < 1e-6 and out[1] > 1 - 1e-6

    def test_softmax_rows_sum_to_one(self):
        out = Tensor(np.random.default_rng(0).normal(size=(5, 7)) * 50).softmax().numpy()
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-9)
