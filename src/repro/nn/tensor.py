"""Reverse-mode automatic differentiation on top of NumPy arrays.

This module is the lowest layer of the :mod:`repro.nn` substrate.  The paper
implements CLSTM with PyTorch; no deep-learning framework is available in this
environment, so we provide a small, well-tested autograd engine that supports
exactly the operations the CLSTM, its decoders, the baselines and the losses
need: element-wise arithmetic with broadcasting, matrix multiplication,
activations (sigmoid, tanh, relu, softmax), reductions (sum, mean), shape
manipulation (reshape, transpose, concatenation, slicing) and numerically-safe
logarithms for the KL/JS divergence losses.

The design follows the classic tape-based approach: every :class:`Tensor`
records the operation that produced it and a closure that propagates gradients
to its parents.  Calling :meth:`Tensor.backward` performs a topological sort of
the graph and runs the closures in reverse order.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence[float], "Tensor"]

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]


# Grad mode is tracked per thread.  A process-wide flag would make concurrent
# inference unsound: the parallel serving executor scores shards on worker
# threads, each entering `no_grad` around its decoder forward, while a
# background update plane may be training on the maintenance thread at the
# same time.  With one global flag, overlapping __enter__/__exit__ pairs from
# different threads can restore a stale value and leave gradients disabled (or
# enabled) for everyone — with a thread-local, each thread owns its own mode.
_GRAD_MODE = threading.local()


class no_grad:
    """Context manager that disables gradient tracking on the current thread.

    Mirrors ``torch.no_grad``: operations executed inside the block create
    tensors detached from the autograd graph, which keeps inference (anomaly
    scoring over streams) cheap.  The mode is thread-local, so a serving
    worker scoring under ``no_grad`` never disables the tape for a training
    thread running concurrently.
    """

    def __enter__(self) -> "no_grad":
        self._previous = is_grad_enabled()
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _GRAD_MODE.enabled = self._previous


def is_grad_enabled() -> bool:
    """Whether new operations are recorded on this thread's autograd tape."""
    return getattr(_GRAD_MODE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it matches ``shape``.

    NumPy broadcasting may have expanded an operand during the forward pass;
    the corresponding gradient has to be reduced back to the operand's shape.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum across dimensions that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A NumPy-backed tensor with reverse-mode autograd support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        op: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Callable[[], None] = lambda: None
        self._parents: Tuple[Tensor, ...] = parents if self.requires_grad or any(
            p.requires_grad for p in parents
        ) else ()
        self.op = op

    # ------------------------------------------------------------------ #
    # Constructors and basic protocol
    # ------------------------------------------------------------------ #
    @staticmethod
    def ensure(value: ArrayLike) -> "Tensor":
        """Wrap ``value`` in a :class:`Tensor` if it is not one already."""
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag}, op={self.op or 'leaf'})"

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value held by a 0-d or single-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    def _make_result(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        op: str,
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, parents=parents if requires else (), op=op)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = Tensor.ensure(other)
        out = self._make_result(self.data + other_t.data, (self, other_t), "add")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other_t.requires_grad:
                    other_t._accumulate(_unbroadcast(out.grad, other_t.shape))

            out._backward = backward
        return out

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out = self._make_result(-self.data, (self,), "neg")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(-out.grad)

            out._backward = backward
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = Tensor.ensure(other)
        out = self._make_result(self.data - other_t.data, (self, other_t), "sub")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other_t.requires_grad:
                    other_t._accumulate(_unbroadcast(-out.grad, other_t.shape))

            out._backward = backward
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor.ensure(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = Tensor.ensure(other)
        out = self._make_result(self.data * other_t.data, (self, other_t), "mul")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad * other_t.data, self.shape))
                if other_t.requires_grad:
                    other_t._accumulate(_unbroadcast(out.grad * self.data, other_t.shape))

            out._backward = backward
        return out

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = Tensor.ensure(other)
        out = self._make_result(self.data / other_t.data, (self, other_t), "div")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad / other_t.data, self.shape))
                if other_t.requires_grad:
                    grad_other = -out.grad * self.data / (other_t.data ** 2)
                    other_t._accumulate(_unbroadcast(grad_other, other_t.shape))

            out._backward = backward
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor.ensure(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out = self._make_result(self.data ** exponent, (self,), "pow")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

            out._backward = backward
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = Tensor.ensure(other)
        out = self._make_result(self.data @ other_t.data, (self, other_t), "matmul")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    grad_self = out.grad @ np.swapaxes(other_t.data, -1, -2)
                    self._accumulate(_unbroadcast(grad_self, self.shape))
                if other_t.requires_grad:
                    grad_other = np.swapaxes(self.data, -1, -2) @ out.grad
                    other_t._accumulate(_unbroadcast(grad_other, other_t.shape))

            out._backward = backward
        return out

    # ------------------------------------------------------------------ #
    # Activations and element-wise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = self._make_result(value, (self,), "exp")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * value)

            out._backward = backward
        return out

    def log(self, eps: float = 1e-12) -> "Tensor":
        """Natural logarithm with an epsilon floor for numerical safety."""
        clipped = np.maximum(self.data, eps)
        out = self._make_result(np.log(clipped), (self,), "log")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad / clipped)

            out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        out = self._make_result(value, (self,), "sigmoid")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * value * (1.0 - value))

            out._backward = backward
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = self._make_result(value, (self,), "tanh")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * (1.0 - value ** 2))

            out._backward = backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make_result(self.data * mask, (self,), "relu")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * mask)

            out._backward = backward
        return out

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        value = exp / exp.sum(axis=axis, keepdims=True)
        out = self._make_result(value, (self,), "softmax")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    dot = (out.grad * value).sum(axis=axis, keepdims=True)
                    self._accumulate(value * (out.grad - dot))

            out._backward = backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        value = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)
        out = self._make_result(value, (self,), "clip")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * mask)

            out._backward = backward
        return out

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out = self._make_result(np.abs(self.data), (self,), "abs")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * sign)

            out._backward = backward
        return out

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        value = self.data.sum(axis=axis, keepdims=keepdims)
        out = self._make_result(value, (self,), "sum")
        if out.requires_grad:

            def backward() -> None:
                if not self.requires_grad:
                    return
                grad = out.grad
                if axis is not None and not keepdims:
                    axes = (axis,) if isinstance(axis, int) else tuple(axis)
                    axes = tuple(a % self.ndim for a in axes)
                    grad = np.expand_dims(grad, axis=axes)
                self._accumulate(np.broadcast_to(grad, self.shape).copy())

            out._backward = backward
        return out

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        value = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make_result(value, (self,), "max")
        if out.requires_grad:

            def backward() -> None:
                if not self.requires_grad:
                    return
                grad = out.grad
                expanded_value = value
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis=axis)
                    expanded_value = np.expand_dims(value, axis=axis)
                mask = self.data == expanded_value
                counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                self._accumulate(mask * grad / counts)

            out._backward = backward
        return out

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_result(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad.reshape(self.shape))

            out._backward = backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.ndim)))
        out = self._make_result(self.data.transpose(axes_tuple), (self,), "transpose")
        if out.requires_grad:
            inverse = np.argsort(axes_tuple)

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad.transpose(inverse))

            out._backward = backward
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out = self._make_result(self.data[index], (self,), "getitem")
        if out.requires_grad:

            def backward() -> None:
                if self.requires_grad:
                    grad = np.zeros_like(self.data)
                    np.add.at(grad, index, out.grad)
                    self._accumulate(grad)

            out._backward = backward
        return out

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
        out = Tensor(data, requires_grad=requires, parents=tuple(tensors) if requires else (), op="concat")
        if requires:
            sizes = [t.data.shape[axis] for t in tensors]
            offsets = np.cumsum([0] + sizes)

            def backward() -> None:
                for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                    if tensor.requires_grad:
                        slicer = [slice(None)] * out.grad.ndim
                        slicer[axis] = slice(start, stop)
                        tensor._accumulate(out.grad[tuple(slicer)])

            out._backward = backward
        return out

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor.ensure(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)
        requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
        out = Tensor(data, requires_grad=requires, parents=tuple(tensors) if requires else (), op="stack")
        if requires:

            def backward() -> None:
                grads = np.moveaxis(out.grad, axis, 0)
                for tensor, grad in zip(tensors, grads):
                    if tensor.requires_grad:
                        tensor._accumulate(grad)

            out._backward = backward
        return out

    # ------------------------------------------------------------------ #
    # Backpropagation
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate gradients from this tensor through the graph."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        self.grad = np.asarray(_as_array(grad), dtype=np.float64).reshape(self.shape)

        ordering: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                ordering.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(ordering):
            if node.grad is not None:
                node._backward()
