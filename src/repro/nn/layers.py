"""Feed-forward building blocks: Linear, MLP decoder, Sequential.

These layers are the non-recurrent half of the CLSTM architecture: the decoder
``De_I`` / ``De_A`` layers (Eq. 12 in the paper) are linear or shallow MLP
mappings from hidden space back to the original feature spaces, and the
baseline autoencoders (LTR, VEC, RTFM's scorer) are stacks of Linear layers.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Linear", "Sequential", "MLP", "Activation", "SoftmaxHead"]


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with Xavier-uniform initialisation."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Activation(Module):
    """Wraps an element-wise activation so it can live inside a Sequential."""

    _FUNCTIONS: dict[str, Callable[[Tensor], Tensor]] = {
        "relu": F.relu,
        "tanh": F.tanh,
        "sigmoid": F.sigmoid,
    }

    def __init__(self, name: str) -> None:
        super().__init__()
        if name not in self._FUNCTIONS:
            raise ValueError(f"unknown activation '{name}'; options: {sorted(self._FUNCTIONS)}")
        self.name = name

    def forward(self, x: Tensor) -> Tensor:
        return self._FUNCTIONS[self.name](x)


class SoftmaxHead(Module):
    """Softmax output layer.

    Used by the action-feature decoder ``De_I`` so that reconstructed action
    features remain probability distributions, which is required for the
    Jensen–Shannon reconstruction error (Eq. 14) to be well defined.
    """

    def __init__(self, axis: int = -1) -> None:
        super().__init__()
        self.axis = axis

    def forward(self, x: Tensor) -> Tensor:
        return F.softmax(x, axis=self.axis)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            self.register_module(name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __iter__(self):
        return iter(self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)


class MLP(Module):
    """Multi-layer perceptron used by decoders and baseline autoencoders.

    Parameters
    ----------
    sizes:
        Layer widths including input and output, e.g. ``[64, 128, 400]``.
    activation:
        Hidden activation name (``relu``, ``tanh`` or ``sigmoid``).
    output_activation:
        Optional activation applied to the final layer (``softmax`` maps to a
        :class:`SoftmaxHead`).
    """

    def __init__(
        self,
        sizes: Sequence[int],
        activation: str = "relu",
        output_activation: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        sizes = list(sizes)
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        rng = rng if rng is not None else np.random.default_rng(0)
        layers: List[Module] = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(fan_in, fan_out, rng=rng))
            if i < len(sizes) - 2:
                layers.append(Activation(activation))
        if output_activation == "softmax":
            layers.append(SoftmaxHead())
        elif output_activation is not None:
            layers.append(Activation(output_activation))
        self.network = Sequential(*layers)
        self.sizes = sizes

    def forward(self, x: Tensor) -> Tensor:
        return self.network(x)

