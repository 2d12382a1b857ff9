"""Numpy autograd and neural-network substrate.

A from-scratch replacement for the PyTorch layer the paper builds on:
reverse-mode AD (:mod:`~repro.nn.tensor`), differentiable primitives
(:mod:`~repro.nn.functional`), modules (:mod:`~repro.nn.modules`) and
optimizers (:mod:`~repro.nn.optim`).  All convergence experiments run
on this substrate for real.
"""

from . import _heap  # noqa: F401  (sets the process's malloc policy)
from . import functional
from .fused import expert_ffn, weighted_scatter_add
from .init import normal, xavier_uniform
from .modules import (
    Embedding,
    FeedForward,
    Linear,
    LayerNorm,
    Module,
    ModuleList,
    MultiHeadAttention,
    Parameter,
    Sequential,
)
from .optim import Adam, Optimizer, clip_grad_norm
from .serialization import load_checkpoint, save_checkpoint
from .tensor import (
    Tensor,
    gather,
    inference_mode,
    is_inference,
)

__all__ = [
    "Adam",
    "Embedding",
    "FeedForward",
    "LayerNorm",
    "Linear",
    "Module",
    "ModuleList",
    "MultiHeadAttention",
    "Optimizer",
    "Parameter",
    "Sequential",
    "Tensor",
    "clip_grad_norm",
    "expert_ffn",
    "functional",
    "gather",
    "inference_mode",
    "is_inference",
    "load_checkpoint",
    "normal",
    "save_checkpoint",
    "weighted_scatter_add",
    "xavier_uniform",
]
