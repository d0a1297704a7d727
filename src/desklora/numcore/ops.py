"""Differentiable operations over GradNodes.

Every op computes a plain numpy result from its inputs' values and hands it to
`op_output`, which stores it as the node value in the inputs' precision
(float64 when every input is float64, else float32), copying it only when it
is not C-contiguous or has another dtype. The node records the op's parents
and one backward closure that returns every parent's gradient from a single
call, so the parents' gradients share their intermediate products.
Broadcasting is deliberately narrow: `add` takes exact-match shapes only,
and `scale` alone takes a python scalar. Ops over sequences take leading
batch axes: `matmul`, `layer_norm` (RMS layer normalization),
`gather_rows`, `softmax_cross_entropy` and `causal_attention` read a
`[B, T, d]` activation as B sequences of `[T, d]`, and a `[T, d]` one as a
batch of one. `causal_attention` alone takes queries for fewer positions
than its keys, and can also continue B rows from a `KVCache` of their earlier
keys and values, for tape-free decoding.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, DimensionError
from .autograd import GradNode, op_output, storage_dtype
from .rng import Rng


# ---------------------------------------------------------------------------
# elementwise family
# ---------------------------------------------------------------------------


def add(a: GradNode, b: GradNode) -> GradNode:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} differ")
    return op_output(a.value + b.value, (a, b), lambda g: (g, g))


def scale(a: GradNode, s: float) -> GradNode:
    """`a` times the python scalar `s`. The engine path never calls it; it stays
    for the tests and because deskbench's tracer wraps it by name."""
    s = float(s)
    return op_output(a.value * s, (a,), lambda g: (g * s,))


def dropout(x: GradNode, rate: float, rng: Rng | None = None) -> GradNode:
    """Zero each element with probability `rate`, scaling survivors by 1/(1-rate).

    Dropout is on exactly when an `rng` is passed; without one, or at rate 0,
    it returns `x` itself. The mask is one uniform draw over `x`'s full shape,
    batch axes included, so the same stream yields the same mask.
    `lora.forward` draws the same mask through `dropout_factor`; this op stays
    for the tests and because deskbench's tracer wraps it by name.
    """
    factor = dropout_factor(x.value, rate, rng)
    if factor is None:
        return x
    return op_output(x.value * factor, (x,), lambda g: (g * factor,))


def dropout_factor(x: np.ndarray, rate: float, rng: Rng | None) -> np.ndarray | None:
    """`dropout`'s multiplier for `x`, keep / (1 - rate) drawn from `rng`; None when off."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return None
    return ((rng.uniform(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)).astype(x.dtype)


def astype(x: GradNode, dtype: str) -> GradNode:
    """Precision boundary: `x` in precision `dtype`, or `x` itself if it has it.
    No engine path calls it; it stays for the tests and because deskbench's
    tracer wraps it by name."""
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


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: GradNode) -> GradNode:
    """The tanh approximation `0.5 x (1 + tanh(c (x + 0.044715 x^3)))`, c = √(2/π).
    Forward and backward run in place on two buffers, in the operation order of
    the plain expression, so they round exactly as it does."""
    d = x.value
    t = d * d
    t *= d
    t *= 0.044715
    t += d
    t *= _GELU_C
    np.tanh(t, out=t)  # kept for backward
    out = 1.0 + t
    out *= 0.5 * d

    def grad_fn(g):
        # (1 - t^2) c (1 + 3·0.044715 d^2), then 0.5 (1 + t) + 0.5 d · that
        dt = t * t
        np.subtract(1.0, dt, out=dt)
        dt *= _GELU_C
        u = d * (3 * 0.044715)
        u *= d
        u += 1.0
        dt *= u
        np.multiply(d, 0.5, out=u)
        u *= dt
        np.add(t, 1.0, out=dt)
        dt *= 0.5
        dt += u
        return (np.multiply(g, dt, out=dt if g.dtype == dt.dtype else None),)

    return op_output(out, (x,), grad_fn, saved=(t,))


def layer_norm(x: GradNode, gain: GradNode, eps: float = 1e-5) -> GradNode:
    """RMS layer normalization (Zhang and Sennrich 2019): scale each vector over
    the last axis to unit root mean square, `x * rsqrt(mean(x^2) + eps)`, then
    by `gain`. There is no centring and no bias. The mean square accumulates in
    float64, so a float32 row whose squares overflow float32 still normalizes."""
    if eps <= 0:
        raise ContractError(f"layer_norm eps must be positive, got {eps}")
    d = x.value
    n = d.shape[-1]
    if n <= 0:
        raise DimensionError("layer_norm: empty last axis")
    if gain.shape != (n,):
        raise DimensionError(f"layer_norm: gain must have shape ({n},), got {gain.shape}")
    ms = np.einsum("...i,...i->...", d, d, dtype=np.float64)[..., None] / n
    inv = (1.0 / np.sqrt(ms + eps)).astype(d.dtype)
    xhat = d * inv
    gv = gain.value

    def grad_fn(g):
        ghat = g * gv
        dx = inv * (ghat - xhat * (np.einsum("...i,...i->...", ghat, xhat)[..., None] / n))
        return dx, np.einsum("ti,ti->i", g.reshape(-1, n), xhat.reshape(-1, n))

    return op_output(xhat * gv, (x, gain), grad_fn)


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
    """Rotary position mix over half-dimension pairs. x: [B, H, T, hd]; cos, sin:
    [T, hd/2], or [B, 1, T, hd/2] for per-row positions."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


@dataclass
class KVCache:
    """What causal attention keeps of B rows between calls: the rotated keys and
    the values [..., B, H, L, hd] and the positions each row holds [B]. The
    keys' and values' leading axes index layers. `layer` and `rows` give
    views that write through. Attention writes a call's keys and values at
    each row's next positions, all T of them however few queries the call
    has; the caller advances `lengths` once every layer has run. Rows that
    hold the same length are written and read by slice, rows of different
    lengths by per-row gathers. A caller may set a row's length to 0 to
    refill it from position 0: attention then masks every key past the row's
    new positions, so what the earlier fill left there is never read."""

    keys: np.ndarray
    values: np.ndarray
    lengths: np.ndarray

    def layer(self, i: int) -> "KVCache":
        return KVCache(self.keys[i], self.values[i], self.lengths)

    def rows(self, start: int, stop: int) -> "KVCache":
        rows = slice(start, stop)
        return KVCache(self.keys[..., rows, :, :, :], self.values[..., rows, :, :, :],
                       self.lengths[rows])


def causal_attention(
    q: GradNode,
    k: GradNode,
    v: GradNode,
    n_heads: int,
    rope: tuple[np.ndarray, np.ndarray],
    cache: KVCache | None = None,
) -> GradNode:
    """Multi-head causal attention over [B, T, d] sequences, or one [T, d] sequence.

    `k` and `v` hold the T positions the call feeds; `q` may hold fewer
    rows, T_q <= T, which are the queries of the last T_q positions, and the
    result has `q`'s shape. `rope` is a (cos, sin) table over positions, at
    least as long as the positions the call reaches. Without a `cache`, a row's
    keys sit at positions 0..T-1 and scores and weights are [B, H, T_q, T]
    batched matmuls. With one (one layer's, B rows), row b's T new positions
    follow the `cache.lengths[b]` it holds: they are rotated there, written into
    the cache, and each query attends over every key the row holds up to its
    own position. When every row holds the same length, as on a fill from
    length 0, the call takes one slice of the rope table and the cache and the
    triangular mask; rows of different lengths gather per row.
    """
    if len(k.shape) not in (2, 3):
        raise DimensionError(f"attention expects [T, d] or [B, T, d] inputs, got {k.shape}")
    if (k.shape != v.shape or len(q.shape) != len(k.shape) or q.shape[:-2] != k.shape[:-2]
            or q.shape[-1] != k.shape[-1]):
        raise DimensionError(f"attention q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    t_q, (t_len, d) = q.shape[-2], k.shape[-2:]
    if not 0 < t_q <= t_len:
        raise DimensionError(f"attention takes 1 to {t_len} queries for {t_len} keys, got {t_q}")
    if d % n_heads != 0:
        raise DimensionError(f"model width {d} not divisible by {n_heads} heads")
    hd = d // n_heads
    compute = q.dtype

    def heads(x: np.ndarray) -> np.ndarray:  # [..., T, d] -> [B, H, T, hd]
        return x.reshape(-1, x.shape[-2], n_heads, hd).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray, shape) -> np.ndarray:  # [B, H, T, hd] -> [..., T, d]
        return x.transpose(0, 2, 1, 3).reshape(shape)

    qh, kh, vh = heads(q.value), heads(k.value), heads(v.value)
    lengths = None if cache is None else cache.lengths
    if lengths is None or (lengths == lengths[0]).all():  # every row at start..start+T-1
        start = 0 if lengths is None else int(lengths[0])
        n_keys = start + t_len
        at = slice(start, n_keys)
        mask = np.triu(np.full((t_q, n_keys), -np.inf, dtype=compute), k=n_keys - t_q + 1)
    else:  # row b at positions lengths[b] onwards
        positions = lengths[:, None] + np.arange(t_len)  # [B, T]
        at, n_keys = positions[:, None], int(positions.max()) + 1  # at: [B, 1, T]
        mask = np.where(np.arange(n_keys) <= at[..., t_len - t_q:, None],
                        compute.type(0), compute.type(-np.inf))
    cos = rope[0][at].astype(compute)  # [T, hd/2], or [B, 1, T, hd/2] per row
    sin = rope[1][at].astype(compute)
    cos_q, sin_q = cos[..., t_len - t_q:, :], sin[..., t_len - t_q:, :]
    qr, kr = _rotate(qh, cos_q, sin_q), _rotate(kh, cos, sin)

    if cache is not None:
        if isinstance(at, slice):
            cache.keys[:, :, at], cache.values[:, :, at] = kr, vh
        else:
            rows = np.arange(qh.shape[0])[:, None]
            cache.keys[rows, :, positions] = kr.transpose(0, 2, 1, 3)
            cache.values[rows, :, positions] = vh.transpose(0, 2, 1, 3)
        kr, vh = cache.keys[:, :, :n_keys], cache.values[:, :, :n_keys]

    inv_sqrt = 1.0 / math.sqrt(hd)
    scores = np.matmul(qr, kr.swapaxes(-1, -2)) * inv_sqrt + mask

    m = scores.max(axis=-1, keepdims=True)
    w = np.exp(scores - m)
    w = w / w.sum(axis=-1, keepdims=True)
    out = merge(np.matmul(w, vh), q.shape)

    def grad_fn(g):
        gh = heads(g)
        dw = np.matmul(gh, vh.swapaxes(-1, -2))
        ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True))
        dq = np.matmul(ds, kr) * inv_sqrt
        dk = np.matmul(ds.swapaxes(-1, -2), qr) * inv_sqrt
        dv = np.matmul(w.swapaxes(-1, -2), gh)
        return (merge(_rotate(dq, cos_q, -sin_q), q.shape),  # the inverse rotation
                merge(_rotate(dk, cos, -sin), k.shape), merge(dv, k.shape))

    return op_output(out, (q, k, v), grad_fn, saved=(w, qr, kr))
