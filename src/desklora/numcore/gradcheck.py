"""Central finite-difference oracle for gradient verification."""

import numpy as np

from ..errors import ContractError
from .autograd import DOUBLE, GradNode, Parameter, backward, constant, no_grad


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
