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
    metering,
    no_grad,
    storage_dtype,
)
from .gradcheck import finite_diff_check
from .ops import (
    add,
    astype,
    causal_attention,
    dropout,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    mul,
    scale,
    softmax,
    softmax_cross_entropy,
    sum_all,
    transpose,
)
from .rng import Rng, RowRngs

__all__ = [
    "GradNode",
    "Parameter",
    "Rng",
    "RowRngs",
    "DOUBLE",
    "FULL",
    "add",
    "astype",
    "backward",
    "causal_attention",
    "checkpoint",
    "constant",
    "dropout",
    "finite_diff_check",
    "gather_rows",
    "gelu",
    "layer_norm",
    "matmul",
    "metering",
    "mul",
    "no_grad",
    "scale",
    "softmax",
    "softmax_cross_entropy",
    "storage_dtype",
    "sum_all",
    "transpose",
]
