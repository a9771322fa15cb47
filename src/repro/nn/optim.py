"""Gradient-based optimisers for the :mod:`repro.nn` substrate.

The paper trains CLSTM with the Adam optimiser (learning rate 0.001) "for its
computing efficiency and low memory cost"; SGD with momentum is also provided
for completeness and for the ablation benchmarks.

Both optimisers step over a **flat buffer**: all managed parameters are viewed
as one contiguous ``float64`` array, so a step is a handful of vectorised
NumPy passes over ~1.4 M doubles (for the paper-scale CLSTM).  After each step
the parameters are rebound to fresh views into the new flat array, which
preserves the repo-wide invariant that every write path *rebinds*
``parameter.data`` — the fused-weight caches in :mod:`repro.nn.fused` rely on
array identity as their staleness check.  ``tests/test_nn_losses_optim.py``
keeps the textbook per-parameter step as the reference: the two agree
bit-for-bit, and parameters whose gradient is ``None`` are skipped identically.

Every optimiser buffer pins its dtype explicitly (``float64``): parameters
and optimiser state live at full precision regardless of the inference
precision selected through :mod:`repro.nn.backend` — the reduced-precision
path is inference-only, and its weight variants are *derived* from these
float64 parameters at fuse time.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


class Optimizer:
    """Base class holding a list of parameters to update.

    Provides the flat-buffer plumbing shared by :class:`SGD` and
    :class:`Adam`: gathering all gradients into one contiguous array,
    maintaining a cached flat copy of the parameter data, and scattering an
    updated flat array back by rebinding each ``parameter.data`` to a view.
    """

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self._shapes = [p.data.shape for p in self.parameters]
        sizes = [p.data.size for p in self.parameters]
        self._offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self._numel = int(self._offsets[-1])
        # (views, flat array) — valid while every parameter.data is still the
        # view we rebound it to; any external rebind (load_state_dict, model
        # merge) invalidates the cache and forces a re-gather.
        self._flat_cache: Optional[Tuple[Tuple[np.ndarray, ...], np.ndarray]] = None

    def zero_grad(self) -> None:
        """Reset gradients of every managed parameter."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Flat-buffer plumbing
    # ------------------------------------------------------------------ #
    def _segment(self, index: int) -> slice:
        return slice(int(self._offsets[index]), int(self._offsets[index + 1]))

    def _gather_flat_grad(self) -> Tuple[Optional[np.ndarray], List[int]]:
        """All gradients as one flat array, plus the indices missing a grad.

        Missing gradients are zero-filled in the buffer; callers restore those
        parameters' state after the vectorised update so the semantics match
        the per-parameter step (a grad-less parameter is skipped entirely).
        Returns ``(None, missing)`` when no parameter has a gradient.
        """
        missing = [i for i, p in enumerate(self.parameters) if p.grad is None]
        if len(missing) == len(self.parameters):
            return None, missing
        if not missing:
            return np.concatenate([p.grad.ravel() for p in self.parameters]), missing
        flat = np.zeros(self._numel, dtype=np.float64)
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is not None:
                flat[self._segment(index)] = parameter.grad.ravel()
        return flat, missing

    def _flat_data(self) -> np.ndarray:
        """Current parameter values as one flat array (cached across steps)."""
        cache = self._flat_cache
        if cache is not None and all(
            p.data is view for p, view in zip(self.parameters, cache[0])
        ):
            return cache[1]
        return np.concatenate([np.asarray(p.data).ravel() for p in self.parameters])

    def _scatter_flat_data(self, flat: np.ndarray, skip: Iterable[int] = ()) -> None:
        """Rebind every parameter to a view into ``flat`` and cache it.

        Indices in ``skip`` (parameters the step left untouched because they
        had no gradient) keep their current ``data`` binding — rebinding them
        would needlessly invalidate the identity-keyed fused-weight caches.
        Their segments in ``flat`` hold the restored old values, so the cached
        flat buffer stays consistent with every parameter either way.
        """
        skip_set = set(skip)
        views = []
        for index, (parameter, shape) in enumerate(zip(self.parameters, self._shapes)):
            if index in skip_set:
                views.append(parameter.data)
                continue
            view = flat[self._segment(index)].reshape(shape)
            parameter.data = view
            views.append(view)
        self._flat_cache = (tuple(views), flat)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._flat_velocity = np.zeros(self._numel, dtype=np.float64) if momentum > 0.0 else None

    def step(self) -> None:
        grad, missing = self._gather_flat_grad()
        if grad is None:
            return
        data = self._flat_data()
        if self.momentum > 0.0:
            velocity = self._flat_velocity
            saved = [(i, velocity[self._segment(i)].copy()) for i in missing]
            velocity *= self.momentum
            velocity += grad
            for index, segment in saved:
                velocity[self._segment(index)] = segment
            update = velocity
        else:
            update = grad
        new_data = data - self.lr * update
        for index in missing:
            segment = self._segment(index)
            new_data[segment] = data[segment]
        self._scatter_flat_data(new_data, skip=missing)


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba), the paper's training optimiser."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._flat_first = np.zeros(self._numel)
        self._flat_second = np.zeros(self._numel)
        self._scratch = np.empty(self._numel)
        self._scratch2 = np.empty(self._numel)

    def step(self) -> None:
        grad, missing = self._gather_flat_grad()
        if grad is None:
            self._step_count += 1
            return
        data = self._flat_data()
        # Grad-less parameters are skipped entirely: their moments and values
        # are put back after the vectorised pass over the whole buffer.
        saved = [
            (segment, self._flat_first[segment].copy(), self._flat_second[segment].copy())
            for segment in map(self._segment, missing)
        ]
        new_data = self.advance(data, grad)
        for segment, first_segment, second_segment in saved:
            self._flat_first[segment] = first_segment
            self._flat_second[segment] = second_segment
            new_data[segment] = data[segment]
        self._scatter_flat_data(new_data, skip=missing)

    def advance(
        self, data: np.ndarray, grad: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """One Adam step over flat buffers: the arithmetic of :meth:`step`.

        Advances the moment buffers in place and returns the updated values —
        a new array, or ``out`` (which may be ``data`` itself: a training
        arena that owns its flat buffer steps in place, nothing to rebind).
        """
        self._step_count += 1
        if self.weight_decay > 0.0:
            grad = grad + self.weight_decay * data
        first, second = self._flat_first, self._flat_second
        # Moment updates and the Adam step, fully in place via one scratch
        # buffer — the whole step is a handful of vectorised passes.
        scratch = self._scratch
        np.multiply(grad, 1.0 - self.beta1, out=scratch)
        first *= self.beta1
        first += scratch
        np.multiply(grad, grad, out=scratch)
        scratch *= 1.0 - self.beta2
        second *= self.beta2
        second += scratch
        bias_correction1 = 1.0 - self.beta1 ** self._step_count
        bias_correction2 = 1.0 - self.beta2 ** self._step_count
        # The textbook per-parameter operation order, kept exactly so the
        # trajectory stays bit-for-bit the reference step's:
        # data - (lr * (first / bc1)) / (sqrt(second / bc2) + eps)
        denominator = scratch
        np.divide(second, bias_correction2, out=denominator)
        np.sqrt(denominator, out=denominator)
        denominator += self.eps
        update = self._scratch2
        np.divide(first, bias_correction1, out=update)
        update *= self.lr
        update /= denominator
        return np.subtract(data, update, out=out)


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Clip gradients in place so their global L2 norm does not exceed ``max_norm``.

    Returns the pre-clipping norm.  ``max_norm <= 0`` disables clipping (the
    norm is still computed and returned) — this makes ``gradient_clip=0``
    a safe "off switch" for every caller, matching ``TrainingConfig``'s
    documented contract.  The global norm is one flat vectorised pass over
    the gradient buffers — a single BLAS dot per gradient view, no
    temporaries — instead of per-parameter Python-level squares, and scaling
    happens in place without reallocating each gradient.  Gradient clipping
    keeps recurrent training stable for the longer TWI-style sequences.
    """
    parameters = [p for p in parameters if p.grad is not None]
    if not parameters:
        return 0.0
    total = 0.0
    for parameter in parameters:
        flat = parameter.grad.ravel()
        total += float(flat @ flat)
    total = float(np.sqrt(total))
    if max_norm > 0.0 and total > max_norm:
        scale = max_norm / total
        for parameter in parameters:
            parameter.grad *= scale
    return total
