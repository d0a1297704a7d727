"""Differentiable operations over GradNodes.

Every op computes its value in the storage precision of its inputs, applies
the 16-bit rounding boundary when the result is tagged "reduced", and records
local-backward closures on the tape. Broadcasting is deliberately narrow:
elementwise ops accept exact-match shapes or python scalars only.
"""

import math

import numpy as np

from ..errors import ContractError, DimensionError
from .autograd import GradNode, op_output
from .rng import Rng
from .tensor import DOUBLE, FULL, REDUCED, Tensor


def _out_dtype(*nodes) -> str:
    tags = {n.value.dtype for n in nodes}
    if REDUCED in tags:
        return REDUCED
    if FULL in tags:
        return FULL
    return DOUBLE


def _node(arr: np.ndarray, dtype: str, parents) -> GradNode:
    return op_output(Tensor(arr, dtype), parents)


# ---------------------------------------------------------------------------
# elementwise family
# ---------------------------------------------------------------------------


def add(a: GradNode, b) -> GradNode:
    if not isinstance(b, GradNode):
        if np.ndim(b) != 0:
            raise DimensionError("add: second operand must be a GradNode or a scalar")
        return _node(a.value.data + float(b), a.value.dtype, ((a, lambda g: g),))
    if a.value.shape != b.value.shape:
        raise DimensionError(f"add: shapes {a.value.shape} and {b.value.shape} differ")
    dtype = _out_dtype(a, b)
    return _node(a.value.data + b.value.data, dtype, ((a, lambda g: g), (b, lambda g: g)))


def mul(a: GradNode, b) -> GradNode:
    if not isinstance(b, GradNode):
        if np.ndim(b) != 0:
            raise DimensionError("mul: second operand must be a GradNode or a scalar")
        s = float(b)
        return _node(a.value.data * s, a.value.dtype, ((a, lambda g: g * s),))
    if a.value.shape != b.value.shape:
        raise DimensionError(f"mul: shapes {a.value.shape} and {b.value.shape} differ")
    dtype = _out_dtype(a, b)
    da, db = a.value.data, b.value.data
    return _node(da * db, dtype, ((a, lambda g: g * db), (b, lambda g: g * da)))


def scale(a: GradNode, s: float) -> GradNode:
    return mul(a, float(s))


def neg(a: GradNode) -> GradNode:
    return scale(a, -1.0)


def sub(a: GradNode, b) -> GradNode:
    return add(a, neg(b)) if isinstance(b, GradNode) else add(a, -b)


def dropout(x: GradNode, rate: float, rng: Rng | None = None) -> GradNode:
    """Zero each element with probability `rate`, scaling survivors by 1/(1-rate).

    Dropout is on exactly when an `rng` is passed; without one, or at rate 0,
    it returns `x` itself. Mask draws come from the given stream, so the same
    stream yields the same mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    keep = (rng.uniform(x.value.shape) >= rate).astype(x.value.data.dtype)
    factor = keep / (1.0 - rate)
    factor = factor.astype(x.value.data.dtype)
    return _node(x.value.data * factor, x.value.dtype, ((x, lambda g: g * factor),))


def astype(x: GradNode, dtype: str) -> GradNode:
    """Precision boundary: re-tag (and round, for "reduced"), or `x` itself if it has `dtype`."""
    if x.value.dtype == dtype:
        return x
    return _node(x.value.data, dtype, ((x, lambda g: g),))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: GradNode, b: GradNode) -> GradNode:
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-D operands, got {a.value.shape} and {b.value.shape}"
        )
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul: inner dimensions differ: {a.value.shape} x {b.value.shape}"
        )
    da, db = a.value.data, b.value.data
    out = da @ db
    return _node(out, _out_dtype(a, b), ((a, lambda g: g @ db.T), (b, lambda g: da.T @ g)))


def transpose(a: GradNode) -> GradNode:
    if a.value.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D tensor, got {a.value.shape}")
    return _node(a.value.data.T, a.value.dtype, ((a, lambda g: g.T),))


def gather_rows(table: GradNode, ids: np.ndarray) -> GradNode:
    """Row lookup (embedding). Backward scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise DimensionError(f"gather_rows expects 1-D ids, got {ids.shape}")
    n_rows = table.value.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        bad = int(ids[(ids < 0) | (ids >= n_rows)][0])
        raise IndexError(f"row id {bad} out of range for table with {n_rows} rows")
    shape = table.value.shape

    def back(g):
        acc = np.zeros(shape, dtype=g.dtype)
        np.add.at(acc, ids, g)
        return acc

    return _node(table.value.data[ids], table.value.dtype, ((table, back),))


def sum_all(x: GradNode) -> GradNode:
    shape = x.value.shape
    return _node(
        np.asarray(x.value.data.sum()),
        x.value.dtype,
        ((x, lambda g: np.broadcast_to(g, shape).astype(g.dtype)),),
    )


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: GradNode) -> GradNode:
    d = x.value.data
    inner = _GELU_C * (d + 0.044715 * d**3)
    t = np.tanh(inner)
    out = 0.5 * d * (1.0 + t)

    def back(g):
        dt = (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * d * d)
        return g * (0.5 * (1.0 + t) + 0.5 * d * dt)

    return _node(out, x.value.dtype, ((x, back),))


def softmax(x: GradNode, axis: int = -1) -> GradNode:
    d = x.value.data
    m = d.max(axis=axis, keepdims=True)
    e = np.exp(d - m)
    s = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        return s * (g - (g * s).sum(axis=axis, keepdims=True))

    return _node(s, x.value.dtype, ((x, back),))


def layer_norm(x: GradNode, gain: GradNode, bias: GradNode, eps: float = 1e-5) -> GradNode:
    """Standardize over the last axis, then apply the affine (gain, bias)."""
    if eps <= 0:
        raise ContractError(f"layer_norm eps must be positive, got {eps}")
    d = x.value.data
    n = d.shape[-1]
    if n <= 0:
        raise DimensionError("layer_norm: empty last axis")
    if gain.value.shape != (n,) or bias.value.shape != (n,):
        raise DimensionError(
            f"layer_norm: gain/bias must have shape ({n},), "
            f"got {gain.value.shape} and {bias.value.shape}"
        )
    mu = d.mean(axis=-1, keepdims=True)
    xc = d - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gv = gain.value.data
    out = xhat * gv + bias.value.data

    lead = tuple(range(d.ndim - 1))

    def back_x(g):
        dxhat = g * gv
        dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
        dmu = -(dxhat.sum(axis=-1, keepdims=True)) * inv + dvar * (-2.0) * xc.mean(
            axis=-1, keepdims=True
        )
        return dxhat * inv + dvar * (2.0 / n) * xc + dmu / n

    def back_gain(g):
        return (g * xhat).sum(axis=lead) if lead else g * xhat

    def back_bias(g):
        return g.sum(axis=lead) if lead else g

    return _node(
        out,
        _out_dtype(x, gain, bias),
        ((x, back_x), (gain, back_gain), (bias, back_bias)),
    )


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: GradNode, targets) -> GradNode:
    """Mean negative log-likelihood of `targets` under row-softmax of `logits`."""
    d = logits.value.data
    if d.ndim != 2:
        raise DimensionError(f"softmax_cross_entropy expects [N x V] logits, got {d.shape}")
    t = np.asarray(targets, dtype=np.int64)
    n, v = d.shape
    if t.shape != (n,):
        raise DimensionError(f"targets shape {t.shape} does not match {n} logit rows")
    if t.size and (t.min() < 0 or t.max() >= v):
        bad = int(t[(t < 0) | (t >= v)][0])
        raise IndexError(f"target id {bad} out of range for vocab of {v}")

    m = d.max(axis=-1, keepdims=True)
    shifted = d - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    nll = (lse.reshape(-1) - shifted[np.arange(n), t])
    loss = np.asarray(nll.mean())

    def back(g):
        p = np.exp(shifted - lse)
        p[np.arange(n), t] -= 1.0
        return (float(g) / n) * p

    return _node(loss, logits.value.dtype, ((logits, back),))


# ---------------------------------------------------------------------------
# fused causal self-attention
# ---------------------------------------------------------------------------


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary position mix over half-dimension pairs. x: [T, H, hd]."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    c = cos[:, None, :]
    s = sin[:, None, :]
    return np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)


def _unrotate_grad(g: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    half = g.shape[-1] // 2
    g1, g2 = g[..., :half], g[..., half:]
    c = cos[:, None, :]
    s = sin[:, None, :]
    return np.concatenate([g1 * c + g2 * s, -g1 * s + g2 * c], axis=-1)


def causal_attention(
    q: GradNode,
    k: GradNode,
    v: GradNode,
    n_heads: int,
    rope: tuple[np.ndarray, np.ndarray] | None = None,
    key_bias: np.ndarray | None = None,
) -> GradNode:
    """Multi-head causal attention over a [T x d] sequence.

    `rope` is the (cos, sin) table for the first T positions; `key_bias` is an
    additive pre-softmax logit bias per key position, applied to every query
    and head (the diacritic-emphasis hook).
    """
    shape = q.value.shape
    if shape != k.value.shape or shape != v.value.shape:
        raise DimensionError(
            f"attention q/k/v shapes differ: {shape}, {k.value.shape}, {v.value.shape}"
        )
    t_len, d = shape
    if d % n_heads != 0:
        raise DimensionError(f"model width {d} not divisible by {n_heads} heads")
    hd = d // n_heads
    compute = q.value.data.dtype

    qh = q.value.data.reshape(t_len, n_heads, hd)
    kh = k.value.data.reshape(t_len, n_heads, hd)
    vh = v.value.data.reshape(t_len, n_heads, hd)
    if rope is not None:
        cos = rope[0][:t_len].astype(compute)
        sin = rope[1][:t_len].astype(compute)
        qr = _rotate(qh, cos, sin)
        kr = _rotate(kh, cos, sin)
    else:
        cos = sin = None
        qr, kr = qh, kh

    inv_sqrt = 1.0 / math.sqrt(hd)
    scores = np.einsum("ihd,jhd->hij", qr, kr) * inv_sqrt
    if key_bias is not None:
        scores = scores + np.asarray(key_bias, dtype=compute)[None, None, :]
    mask = np.triu(np.full((t_len, t_len), -np.inf, dtype=compute), k=1)
    scores = scores + mask[None, :, :]

    m = scores.max(axis=-1, keepdims=True)
    w = np.exp(scores - m)
    w = w / w.sum(axis=-1, keepdims=True)
    out = np.einsum("hij,jhd->ihd", w, vh).reshape(t_len, d)

    cache: dict = {}

    def shared(g):
        if cache.get("id") != id(g):
            gh = g.reshape(t_len, n_heads, hd)
            dw = np.einsum("ihd,jhd->hij", gh, vh)
            ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True))
            dqr = np.einsum("hij,jhd->ihd", ds, kr) * inv_sqrt
            dkr = np.einsum("hij,ihd->jhd", ds, qr) * inv_sqrt
            dv = np.einsum("hij,ihd->jhd", w, gh)
            if rope is not None:
                dq = _unrotate_grad(dqr, cos, sin)
                dk = _unrotate_grad(dkr, cos, sin)
            else:
                dq, dk = dqr, dkr
            cache["id"] = id(g)
            cache["grads"] = (
                dq.reshape(t_len, d),
                dk.reshape(t_len, d),
                dv.reshape(t_len, d),
            )
        return cache["grads"]

    return _node(
        out,
        _out_dtype(q, k, v),
        (
            (q, lambda g: shared(g)[0]),
            (k, lambda g: shared(g)[1]),
            (v, lambda g: shared(g)[2]),
        ),
    )
