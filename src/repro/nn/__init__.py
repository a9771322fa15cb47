"""Minimal NumPy neural-network substrate used by the AOVLIS reproduction.

The original system is implemented in PyTorch; this package provides the
framework pieces the paper's models need — a reverse-mode autograd tensor,
Linear/LSTM/coupled-LSTM layers, JS/KL/MSE losses and the Adam optimiser —
without any external deep-learning dependency.
"""

from .tensor import Tensor, no_grad, is_grad_enabled
from .module import Module, Parameter
from .layers import Linear, Dropout, Sequential, MLP, Activation, SoftmaxHead
from .recurrent import LSTMCell, CoupledLSTMCell, run_lstm
from .fused import (
    FusedGateWeights,
    Workspace,
    fuse_lstm_cell,
    fuse_coupled_cell,
    lstm_forward_fused,
    coupled_pair_forward_fused,
)
from .backend import resolve_precision
from .backprop import (
    TrainingArena,
    BPTTCache,
    lstm_forward_cached,
    lstm_backward,
    coupled_pair_forward_cached,
    coupled_pair_backward,
    weighted_loss_grad,
)
from .losses import (
    mse_loss,
    l2_loss,
    kl_divergence_loss,
    js_divergence_loss,
    weighted_reconstruction_loss,
)
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .serialization import save_state, save_module, load_state, load_into_module
from . import backprop
from . import functional
from . import init

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Parameter",
    "Linear",
    "Dropout",
    "Sequential",
    "MLP",
    "Activation",
    "SoftmaxHead",
    "LSTMCell",
    "CoupledLSTMCell",
    "run_lstm",
    "FusedGateWeights",
    "Workspace",
    "resolve_precision",
    "fuse_lstm_cell",
    "fuse_coupled_cell",
    "lstm_forward_fused",
    "coupled_pair_forward_fused",
    "TrainingArena",
    "BPTTCache",
    "lstm_forward_cached",
    "lstm_backward",
    "coupled_pair_forward_cached",
    "coupled_pair_backward",
    "weighted_loss_grad",
    "mse_loss",
    "l2_loss",
    "kl_divergence_loss",
    "js_divergence_loss",
    "weighted_reconstruction_loss",
    "SGD",
    "Adam",
    "Optimizer",
    "clip_grad_norm",
    "save_state",
    "save_module",
    "load_state",
    "load_into_module",
    "backprop",
    "functional",
    "init",
]
