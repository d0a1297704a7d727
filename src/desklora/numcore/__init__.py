"""Minimal dense-array core with reverse-mode autodiff: tape nodes hold
read-only numpy arrays in float32 ("full") or float64 ("double")."""

from .autograd import (
    DOUBLE,
    FULL,
    GradNode,
    Parameter,
    backward,
    checkpoint,
    constant,
    grad_enabled,
    metering,
    no_grad,
    storage_dtype,
)
from .ops import (
    KVCache,
    add,
    astype,
    causal_attention,
    dropout,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    scale,
    softmax_cross_entropy,
    transpose,
)
from .rng import Rng

__all__ = [
    "GradNode",
    "KVCache",
    "Parameter",
    "Rng",
    "DOUBLE",
    "FULL",
    "add",
    "astype",
    "backward",
    "causal_attention",
    "checkpoint",
    "constant",
    "dropout",
    "gather_rows",
    "gelu",
    "grad_enabled",
    "layer_norm",
    "matmul",
    "metering",
    "no_grad",
    "scale",
    "softmax_cross_entropy",
    "storage_dtype",
    "transpose",
]
