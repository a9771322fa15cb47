"""Module/parameter abstraction, mirroring a minimal ``torch.nn.Module``.

A :class:`Module` owns named :class:`Parameter` tensors and child modules and
exposes them for optimisers (:mod:`repro.nn.optim`) and serialisation
(:mod:`repro.nn.serialization`).  The CLSTM, its decoders and every baseline
model are built on top of this class.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A trainable tensor.

    Identical to :class:`Tensor` but always created with
    ``requires_grad=True`` and recognised by :meth:`Module.parameters`.
    """

    def __init__(self, data) -> None:
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True)


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}

    # ------------------------------------------------------------------ #
    # Attribute registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def parameters(self) -> Iterator[Parameter]:
        """Yield every trainable parameter of this module and its children."""
        for _, parameter in self.named_parameters():
            yield parameter

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs."""
        for name, parameter in self._parameters.items():
            yield f"{prefix}{name}", parameter
        for child_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{child_name}.")

    def num_parameters(self) -> int:
        """Total number of scalar parameters (paper reports 1,382,713 for CLSTM)."""
        return sum(parameter.size for parameter in self.parameters())

    # ------------------------------------------------------------------ #
    # Gradient state
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        """Reset all parameter gradients."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # ------------------------------------------------------------------ #
    # State serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a name → array snapshot of all parameters (copies)."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values from a snapshot produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': expected {parameter.data.shape}, got {value.shape}"
                )
            parameter.data = value.copy()

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError("Module subclasses must implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
