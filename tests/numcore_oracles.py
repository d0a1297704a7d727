"""Test-only numcore helpers: `mul` and `sum_all` turn an op's output into the
scalar a gradient probe differentiates, `finite_diff_check` compares an
analytic gradient with central differences, and `gelu_expression` is GELU
written out of place. The engine never calls them."""

import math

import numpy as np

from desklora.errors import ContractError, DimensionError
from desklora.numcore import DOUBLE, GradNode, Parameter, backward, constant, no_grad
from desklora.numcore.autograd import op_output


def mul(a: GradNode, b) -> GradNode:
    if not isinstance(b, GradNode):
        if np.ndim(b) != 0:
            raise DimensionError("mul: second operand must be a GradNode or a scalar")
        s = float(b)
        return op_output(a.value * s, (a,), lambda g: (g * s,))
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} differ")
    da, db = a.value, b.value
    return op_output(da * db, (a, b), lambda g: (g * db, g * da))


def sum_all(x: GradNode) -> GradNode:
    shape = x.shape
    return op_output(x.value.sum(), (x,), lambda g: (np.broadcast_to(g, shape).astype(g.dtype),))


def finite_diff_check(f, x, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps a GradNode to a scalar GradNode; `x` is evaluated in 64-bit
    precision. Relative error per element is
    |analytic - (f(x+h*e) - f(x-h*e)) / 2h| / (|analytic| + 1e-8).
    """
    base = np.asarray(x, dtype=np.float64)
    leaf = Parameter(base, DOUBLE)
    out = f(leaf)
    if out.value.size != 1:
        raise ContractError("finite_diff_check requires a scalar-valued function")
    backward(out)
    analytic = leaf.grad.reshape(-1)

    flat = base.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        for sign in (+1.0, -1.0):
            probe = flat.copy()
            probe[i] += sign * h
            with no_grad():
                val = f(constant(probe.reshape(base.shape), DOUBLE)).value.item()
            if sign > 0:
                plus = val
            else:
                minus = val
        fd = (plus - minus) / (2.0 * h)
        err = abs(analytic[i] - fd) / (abs(analytic[i]) + 1e-8)
        worst = max(worst, err)
    return worst


def gelu_expression(d: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU's tanh approximation at `d` and its input gradient for the output
    gradient `g`, as plain out-of-place numpy expressions: the rounding
    `numcore.gelu` must reproduce bit for bit."""
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (d + 0.044715 * (d * d * d)))
    dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * d * d)
    return 0.5 * d * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * d * dt)
