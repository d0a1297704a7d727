"""Differentiable operations over GradNodes.

Every op computes a plain numpy result from its inputs' values and hands it to
`op_output`, which stores it as the node value in the inputs' precision
(float64 when every input is float64, else float32), copying it only when it
is not C-contiguous or has another dtype. The node records the op's parents
and one backward closure that returns every parent's gradient from a single
call, so the parents' gradients share their intermediate products.
Broadcasting is deliberately narrow: elementwise ops accept exact-match
shapes or python scalars only. Ops over sequences take leading
batch axes: `matmul`, `layer_norm`, `gather_rows`, `softmax_cross_entropy` and
`causal_attention` read a `[B, T, d]` activation as B sequences of `[T, d]`,
and a `[T, d]` one as a batch of one.
"""

import math

import numpy as np

from ..errors import ContractError, DimensionError
from .autograd import GradNode, op_output, storage_dtype
from .rng import Rng, RowRngs


# ---------------------------------------------------------------------------
# elementwise family
# ---------------------------------------------------------------------------


def add(a: GradNode, b) -> GradNode:
    if not isinstance(b, GradNode):
        if np.ndim(b) != 0:
            raise DimensionError("add: second operand must be a GradNode or a scalar")
        return op_output(a.value + float(b), (a,), lambda g: (g,))
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} differ")
    return op_output(a.value + b.value, (a, b), lambda g: (g, g))


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


def scale(a: GradNode, s: float) -> GradNode:
    return mul(a, float(s))


def dropout(x: GradNode, rate: float, rng: Rng | RowRngs | None = None) -> GradNode:
    """Zero each element with probability `rate`, scaling survivors by 1/(1-rate).

    Dropout is on exactly when an `rng` is passed; without one, or at rate 0,
    it returns `x` itself. Mask draws come from the given stream, so the same
    stream yields the same mask; a `RowRngs` draws row b's mask from its
    stream b, the mask that stream alone gives for `x[b]`.
    """
    factor = dropout_factor(x.value, rate, rng)
    if factor is None:
        return x
    return op_output(x.value * factor, (x,), lambda g: (g * factor,))


def dropout_factor(x: np.ndarray, rate: float, rng: Rng | RowRngs | None) -> np.ndarray | None:
    """`dropout`'s multiplier for `x`, keep / (1 - rate) drawn from `rng`; None when off."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return None
    return ((rng.uniform(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)).astype(x.dtype)


def astype(x: GradNode, dtype: str) -> GradNode:
    """Precision boundary: `x` in precision `dtype`, or `x` itself if it has it."""
    target = storage_dtype(dtype)
    if x.dtype == target:
        return x
    return op_output(x.value, (x,), lambda g: (g,), dtype=target)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: GradNode, b: GradNode) -> GradNode:
    """`a @ b` for an activation `a` [..., K] and a 2-D weight `b` [K, N]. The
    leading axes of `a` flatten into rows, so `b`'s gradient sums over them all."""
    da, db = a.value, b.value
    if da.ndim < 2 or db.ndim != 2:
        raise DimensionError(f"matmul expects [..., K] x [K, N] operands, got {da.shape} and {db.shape}")
    if da.shape[-1] != db.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ: {da.shape} x {db.shape}")
    (k, n), lead = db.shape, da.shape[:-1]
    rows = da.reshape(-1, k)
    out = (rows @ db).reshape(*lead, n)

    def grad_fn(g):
        g = g.reshape(-1, n)
        return (g @ db.T).reshape(da.shape), rows.T @ g

    return op_output(out, (a, b), grad_fn)


def transpose(a: GradNode) -> GradNode:
    """The 2-D `a` transposed, stored C-contiguous like every node value: the
    tied head's matmul reads a contiguous Eᵀ, and operand layouts decide a
    matmul's rounding."""
    if a.value.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D tensor, got {a.shape}")
    return op_output(a.value.T, (a,), lambda g: (g.T,))


def gather_rows(table: GradNode, ids: np.ndarray) -> GradNode:
    """Row lookup (embedding) for [T] or [B, T] ids. Backward scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim not in (1, 2):
        raise DimensionError(f"gather_rows expects [T] or [B, T] ids, got {ids.shape}")
    n_rows = table.value.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        bad = int(ids[(ids < 0) | (ids >= n_rows)][0])
        raise IndexError(f"row id {bad} out of range for table with {n_rows} rows")
    shape = table.value.shape

    def grad_fn(g):
        acc = np.zeros(shape, dtype=g.dtype)
        np.add.at(acc, ids.reshape(-1), g.reshape(-1, *shape[1:]))
        return (acc,)

    return op_output(table.value[ids], (table,), grad_fn)


def sum_all(x: GradNode) -> GradNode:
    shape = x.shape
    return op_output(x.value.sum(), (x,), lambda g: (np.broadcast_to(g, shape).astype(g.dtype),))


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: GradNode) -> GradNode:
    d = x.value
    inner = _GELU_C * (d + 0.044715 * (d * d * d))
    t = np.tanh(inner)
    out = 0.5 * d * (1.0 + t)

    def grad_fn(g):
        dt = (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * d * d)
        return (g * (0.5 * (1.0 + t) + 0.5 * d * dt),)

    return op_output(out, (x,), grad_fn)


def softmax(x: GradNode, axis: int = -1) -> GradNode:
    d = x.value
    m = d.max(axis=axis, keepdims=True)
    e = np.exp(d - m)
    s = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return op_output(s, (x,), grad_fn)


def layer_norm(x: GradNode, gain: GradNode, bias: GradNode, eps: float = 1e-5) -> GradNode:
    """Standardize over the last axis, then apply the affine (gain, bias)."""
    if eps <= 0:
        raise ContractError(f"layer_norm eps must be positive, got {eps}")
    d = x.value
    n = d.shape[-1]
    if n <= 0:
        raise DimensionError("layer_norm: empty last axis")
    if gain.shape != (n,) or bias.shape != (n,):
        raise DimensionError(
            f"layer_norm: gain/bias must have shape ({n},), got {gain.shape} and {bias.shape}"
        )
    mu = d.mean(axis=-1, keepdims=True)
    xc = d - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gv = gain.value
    out = xhat * gv + bias.value

    lead = tuple(range(d.ndim - 1))

    def grad_fn(g):
        dxhat = g * gv
        dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
        dmu = -(dxhat.sum(axis=-1, keepdims=True)) * inv + dvar * (-2.0) * xc.mean(
            axis=-1, keepdims=True
        )
        dx = dxhat * inv + dvar * (2.0 / n) * xc + dmu / n
        if not lead:
            return dx, g * xhat, g
        return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return op_output(out, (x, gain, bias), grad_fn)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: GradNode, targets) -> GradNode:
    """Mean negative log-likelihood of `targets` [...] under the last-axis
    softmax of `logits` [..., V], over every target: for [B, T, V] logits, the
    mean over all B*T positions, which equals the mean of the B per-sequence means."""
    d = logits.value
    if d.ndim < 2:
        raise DimensionError(f"softmax_cross_entropy expects [..., N, V] logits, got {d.shape}")
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != d.shape[:-1]:
        raise DimensionError(f"targets shape {t.shape} does not match logits {d.shape}")
    v = d.shape[-1]
    if t.size and (t.min() < 0 or t.max() >= v):
        bad = int(t[(t < 0) | (t >= v)][0])
        raise IndexError(f"target id {bad} out of range for vocab of {v}")

    t = t.reshape(-1)
    n = t.size
    flat = d.reshape(n, v)
    shifted = flat - flat.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    nll = (lse.reshape(-1) - shifted[np.arange(n), t])
    loss = nll.mean()

    def grad_fn(g):
        p = np.exp(shifted - lse)
        p[np.arange(n), t] -= 1.0
        return (((float(g) / n) * p).reshape(d.shape),)

    return op_output(loss, (logits,), grad_fn)


# ---------------------------------------------------------------------------
# fused causal self-attention
# ---------------------------------------------------------------------------


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary position mix over half-dimension pairs. x: [B, H, T, hd]; cos, sin: [T, hd/2]."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def _unrotate_grad(g: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    half = g.shape[-1] // 2
    g1, g2 = g[..., :half], g[..., half:]
    return np.concatenate([g1 * cos + g2 * sin, -g1 * sin + g2 * cos], axis=-1)


def causal_attention(
    q: GradNode,
    k: GradNode,
    v: GradNode,
    n_heads: int,
    rope: tuple[np.ndarray, np.ndarray] | None = None,
    key_bias: np.ndarray | None = None,
) -> GradNode:
    """Multi-head causal attention over [B, T, d] sequences, or one [T, d] sequence.

    `rope` is the (cos, sin) table for the first T positions; `key_bias` is an
    additive pre-softmax logit bias per key position ([B, T], or [T] for one
    sequence), applied to every query and head of its row (the
    diacritic-emphasis hook). Scores and weights are [B, H, T, T] batched matmuls.
    """
    shape = q.shape
    if shape != k.shape or shape != v.shape:
        raise DimensionError(f"attention q/k/v shapes differ: {shape}, {k.shape}, {v.shape}")
    if len(shape) not in (2, 3):
        raise DimensionError(f"attention expects [T, d] or [B, T, d] inputs, got {shape}")
    t_len, d = shape[-2:]
    if d % n_heads != 0:
        raise DimensionError(f"model width {d} not divisible by {n_heads} heads")
    hd = d // n_heads
    compute = q.dtype

    def heads(x: np.ndarray) -> np.ndarray:  # [..., T, d] -> [B, H, T, hd]
        return x.reshape(-1, t_len, n_heads, hd).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:  # [B, H, T, hd] -> the input's shape
        return x.transpose(0, 2, 1, 3).reshape(shape)

    qh, kh, vh = heads(q.value), heads(k.value), heads(v.value)
    if rope is not None:
        cos = rope[0][:t_len].astype(compute)
        sin = rope[1][:t_len].astype(compute)
        qr = _rotate(qh, cos, sin)
        kr = _rotate(kh, cos, sin)
    else:
        cos = sin = None
        qr, kr = qh, kh

    inv_sqrt = 1.0 / math.sqrt(hd)
    scores = np.matmul(qr, kr.swapaxes(-1, -2)) * inv_sqrt
    if key_bias is not None:
        bias = np.asarray(key_bias, dtype=compute).reshape(-1, 1, 1, t_len)
        scores = scores + bias
    mask = np.triu(np.full((t_len, t_len), -np.inf, dtype=compute), k=1)
    scores = scores + mask

    m = scores.max(axis=-1, keepdims=True)
    w = np.exp(scores - m)
    w = w / w.sum(axis=-1, keepdims=True)
    out = merge(np.matmul(w, vh))

    def grad_fn(g):
        gh = heads(g)
        dw = np.matmul(gh, vh.swapaxes(-1, -2))
        ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True))
        dq = np.matmul(ds, kr) * inv_sqrt
        dk = np.matmul(ds.swapaxes(-1, -2), qr) * inv_sqrt
        dv = np.matmul(w.swapaxes(-1, -2), gh)
        if rope is not None:
            dq, dk = _unrotate_grad(dq, cos, sin), _unrotate_grad(dk, cos, sin)
        return merge(dq), merge(dk), merge(dv)

    return op_output(out, (q, k, v), grad_fn)
