"""Minimal dense-tensor core with reverse-mode autodiff."""

from .autograd import (
    GradNode,
    Parameter,
    backward,
    checkpoint,
    constant,
    metering,
    no_grad,
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
from .tensor import DOUBLE, DTYPES, FULL, Tensor, ones, storage_dtype, zeros

__all__ = [
    "GradNode",
    "Parameter",
    "Rng",
    "RowRngs",
    "Tensor",
    "DOUBLE",
    "DTYPES",
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
    "ones",
    "scale",
    "softmax",
    "softmax_cross_entropy",
    "storage_dtype",
    "sum_all",
    "transpose",
    "zeros",
]
