"""Blockwise 4-bit NormalFloat quantization with double-quantized scales,
plus signed 8-bit dynamic quantization for optimizer moments.

The 4-bit codebook places its levels at standard-normal quantiles: 8 on the
negative side, an exact zero, and 7 on the positive side, rescaled so the
extreme levels are exactly +-1. The quantile probabilities run from
OFFSET = 1 - (1/32 + 1/30)/2 down to 0.5 on each side, which avoids a
duplicated zero level. The constants below were produced once from a normal
inverse-CDF oracle and are frozen; a golden test re-derives them.

Both codebooks map a block-scaled value to its nearest level, the lower code
on a tie. NF4 binary-searches its 15 midpoints. The 8-bit codebook, which
the optimizer requantizes every step, looks the code up instead: a table
keyed on a float64's bits >> 45 (exponent and top 7 mantissa bits) holds at
most one midpoint per bucket, so one comparison finishes the search.
`encode_blocks8`/`decode_blocks8` apply it to whole [n, STATE8_BLOCK_SIZE]
rows, which is how `trainer.optim.AdamW` keeps its flat state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .binfmt import Reader, Writer

NF4_OFFSET = 1.0 - 0.5 * (1.0 / 32.0 + 1.0 / 30.0)

NF4_VALUES = np.array(
    [
        -1.0,
        -0.7229566441594734,
        -0.5626168879699849,
        -0.44070973186421625,
        -0.3379151367131279,
        -0.2461122513474594,
        -0.1609301443802907,
        -0.07958031495840909,
        0.0,
        0.09104997598578049,
        0.1847734028004556,
        0.28444130892108205,
        0.3949174259199071,
        0.5250729594465005,
        0.696192805632343,
        1.0,
    ],
    dtype=np.float64,
)

NF4_ZERO_CODE = 8

DEFAULT_BLOCK_SIZE = 64
DEFAULT_DQ_GROUP = 256
STATE8_BLOCK_SIZE = 256


def _dynamic8_values() -> np.ndarray:
    # 7 "decades" of linear-fraction midpoints, denser toward zero; rescaled
    # so the top level is exactly 1, mirrored, with an exact zero: 255 levels.
    pos = []
    for i in range(7):
        bounds = np.linspace(0.1, 1.0, 2**i + 1)
        mids = (bounds[:-1] + bounds[1:]) / 2.0
        pos.extend((10.0 ** (i - 6)) * mids)
    pos = np.sort(np.asarray(pos, dtype=np.float64))
    pos /= pos[-1]
    return np.concatenate([-pos[::-1], [0.0], pos])


DYNAMIC8_VALUES = _dynamic8_values()
DYNAMIC8_ZERO_CODE = 127


def max_half_gap(codebook: np.ndarray) -> float:
    """Half the largest adjacent-level distance: the worst-case unit error."""
    return float(np.diff(np.sort(codebook)).max() / 2.0)


def _nearest_codes(normalized: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Nearest level per element; ties at midpoints resolve to the lower code."""
    mids = (codebook[:-1] + codebook[1:]) / 2.0
    return np.searchsorted(mids, normalized, side="left").astype(np.uint8)


_KEY_SHIFT = 45  # a float64's bits >> 45: sign, 11 exponent bits, top 7 mantissa bits
_KEY_MAX = (1 << 18) - 1  # the largest key of a non-negative float64


def _key(x: float) -> int:
    return int(np.float64(x).view(np.uint64)) >> _KEY_SHIFT


def _dynamic8_table():
    """The lookup behind `_nearest_dynamic8`. A bucket is the float64 range of
    one key, from the smallest positive midpoint's key `first` to 1.0's:
    2,797 buckets, each holding at most one midpoint. For x >= 0 the code is
    ZERO + (positive midpoints below the bucket) + (x > the bucket's midpoint).
    A negative x mirrors it: the midpoints are symmetric, and the tie goes the
    other way (x > -midpoint), so the lower code still wins. Key k's row is
    k - first for x >= 0 and _KEY_MAX - k - first for x < 0; a bucket
    without a midpoint compares against +inf. Returns first, codes, midpoints."""
    zero = DYNAMIC8_ZERO_CODE
    pos = ((DYNAMIC8_VALUES[:-1] + DYNAMIC8_VALUES[1:]) / 2.0)[zero:]
    first = _key(pos[0])
    keys = np.arange(first, _key(1.0) + 1, dtype=np.uint64)
    lo = (keys << np.uint64(_KEY_SHIFT)).view(np.float64)
    hi = ((keys + np.uint64(1)) << np.uint64(_KEY_SHIFT)).view(np.float64)
    below = np.searchsorted(pos, lo, side="left")
    inside = np.searchsorted(pos, hi, side="left") - below
    assert inside.max() <= 1, "a bucket holds two midpoints"
    mid = pos[np.minimum(below, pos.size - 1)]
    base = np.zeros(_KEY_MAX - 2 * first + 1, dtype=np.uint8)
    threshold = np.full(base.size, np.inf)
    rows = keys.astype(np.int64) - first
    base[rows], threshold[rows] = zero + below, np.where(inside, mid, np.inf)
    rows = _KEY_MAX - 2 * first - rows
    base[rows], threshold[rows] = zero - below - inside, np.where(inside, -mid, np.inf)
    return first, base, threshold


_DYN8_FIRST, _DYN8_BASE, _DYN8_THRESHOLD = _dynamic8_table()


def _nearest_dynamic8(normalized: np.ndarray) -> np.ndarray:
    """`_nearest_codes(normalized, DYNAMIC8_VALUES)` by table lookup, for
    float64 values in [-1, 1]."""
    key = normalized.view(np.int64) >> _KEY_SHIFT
    key ^= key >> 63  # a negative value's key becomes _KEY_MAX - its magnitude's
    np.clip(key, _DYN8_FIRST, _KEY_MAX - _DYN8_FIRST, out=key)
    key -= _DYN8_FIRST
    codes = np.take(_DYN8_BASE, key)
    codes += normalized > np.take(_DYN8_THRESHOLD, key)
    return codes


def _scale_and_code(blocks: np.ndarray, nearest, zero_code: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row of float64 [n, block] `blocks` scaled by its absmax onto its
    nearest level: uint8 codes [n, block] and float32 absmax [n]. An all-zero
    row gets `zero_code` throughout."""
    absmax = np.abs(blocks).max(axis=1)
    safe = np.where(absmax == 0.0, 1.0, absmax)
    codes = nearest(blocks / safe[:, None])
    codes[absmax == 0.0, :] = zero_code
    return codes, absmax.astype(np.float32)


def _encode_blocks(x: np.ndarray, block_size: int, nearest,
                   zero_code: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Blockwise absmax scaling onto the nearest level: x's shape, one uint8
    code per element and one float32 absmax per block. The tail block is
    zero-padded; an all-zero block gets `zero_code` throughout."""
    x = np.asarray(x, dtype=np.float64)
    _check_finite(x)
    flat = x.reshape(-1)
    numel = flat.size
    n_blocks = (numel + block_size - 1) // block_size

    padded = np.zeros(n_blocks * block_size, dtype=np.float64)
    padded[:numel] = flat
    codes, absmax = _scale_and_code(padded.reshape(n_blocks, block_size), nearest, zero_code)
    return tuple(x.shape), codes.reshape(-1)[:numel], absmax


def _decode_blocks(codes: np.ndarray, absmax: np.ndarray, block_size: int,
                   codebook: np.ndarray, shape: tuple, out_dtype) -> np.ndarray:
    """`codebook[codes]` times each element's block absmax, in float64, cast
    to `out_dtype`. A block larger than the tensor is its only block, so its
    scale repeats numel times, never block_size times."""
    numel = codes.size
    scales = np.repeat(absmax.astype(np.float64), min(block_size, numel))[:numel]
    return (codebook[codes] * scales).astype(out_dtype).reshape(shape)


def _check_finite(x: np.ndarray):
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x.reshape(-1)))[0])
        raise ValueError(f"non-finite input at flat index {bad}")


# ---------------------------------------------------------------------------
# 4-bit weights
# ---------------------------------------------------------------------------


@dataclass
class DoubleQuantState:
    """8-bit affine re-quantization of the per-block scales."""

    absmax_codes: np.ndarray  # uint8, one per block
    group_size: int
    group_scale: np.ndarray  # float32, one per group
    group_offset: np.ndarray  # float32, one per group


@dataclass
class QuantizedTensor:
    shape: tuple
    codes: np.ndarray  # uint8, two 4-bit codes per byte
    absmax: np.ndarray | None  # float32 per block; None when double-quantized
    dq: DoubleQuantState | None
    block_size: int

    @property
    def numel(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def n_blocks(self) -> int:
        return (self.numel + self.block_size - 1) // self.block_size


def _pack4(codes: np.ndarray) -> np.ndarray:
    if codes.size % 2:
        codes = np.concatenate([codes, np.zeros(1, dtype=codes.dtype)])
    pairs = codes.reshape(-1, 2).astype(np.uint8)
    return (pairs[:, 0] | (pairs[:, 1] << 4)).astype(np.uint8)


def _unpack4(packed: np.ndarray, numel: int) -> np.ndarray:
    lo = packed & 0x0F
    hi = packed >> 4
    out = np.empty(packed.size * 2, dtype=np.uint8)
    out[0::2] = lo
    out[1::2] = hi
    return out[:numel]


def _quantize_absmax(absmax: np.ndarray, group_size: int) -> DoubleQuantState:
    n = absmax.size
    n_groups = (n + group_size - 1) // group_size
    codes = np.empty(n, dtype=np.uint8)
    scales = np.empty(n_groups, dtype=np.float32)
    offsets = np.empty(n_groups, dtype=np.float32)
    for gi in range(n_groups):
        chunk = absmax[gi * group_size : (gi + 1) * group_size]
        lo = float(chunk.min())
        hi = float(chunk.max())
        step = (hi - lo) / 255.0
        offsets[gi] = lo
        scales[gi] = step
        if step == 0.0:
            codes[gi * group_size : (gi + 1) * group_size] = 0
        else:
            q = np.rint((chunk - lo) / step)
            codes[gi * group_size : (gi + 1) * group_size] = np.clip(q, 0, 255).astype(np.uint8)
    return DoubleQuantState(
        absmax_codes=codes, group_size=group_size, group_scale=scales, group_offset=offsets
    )


def _reconstruct_absmax(dq: DoubleQuantState) -> np.ndarray:
    n = dq.absmax_codes.size
    out = np.empty(n, dtype=np.float32)
    for gi in range((n + dq.group_size - 1) // dq.group_size):
        sl = slice(gi * dq.group_size, (gi + 1) * dq.group_size)
        out[sl] = dq.group_offset[gi] + dq.absmax_codes[sl].astype(np.float32) * dq.group_scale[gi]
    return out


def quantize(
    x: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    double_quant: bool = False,
    dq_group: int = DEFAULT_DQ_GROUP,
) -> QuantizedTensor:
    """Blockwise absmax-scaled nearest-level 4-bit quantization."""
    shape, codes, absmax32 = _encode_blocks(
        x, block_size, lambda u: _nearest_codes(u, NF4_VALUES), NF4_ZERO_CODE)
    packed = _pack4(codes)
    if double_quant:
        dq = _quantize_absmax(absmax32, dq_group)
        return QuantizedTensor(shape, packed, None, dq, block_size)
    return QuantizedTensor(shape, packed, absmax32, None, block_size)


def reconstructed_absmax(q: QuantizedTensor) -> np.ndarray:
    if q.dq is not None:
        return _reconstruct_absmax(q.dq)
    return q.absmax


def dequantize(q: QuantizedTensor, out_dtype=np.float32) -> np.ndarray:
    return _decode_blocks(_unpack4(q.codes, q.numel), reconstructed_absmax(q), q.block_size,
                          NF4_VALUES, q.shape, out_dtype)


def bits_per_param(q: QuantizedTensor) -> float:
    """Storage cost per element, counting codes plus scale metadata."""
    numel = q.numel
    n_blocks = q.n_blocks
    if q.dq is None:
        return (4.0 * numel + 32.0 * n_blocks) / numel
    n_groups = (n_blocks + q.dq.group_size - 1) // q.dq.group_size
    return (4.0 * numel + 8.0 * n_blocks + 64.0 * n_groups) / numel


def quantized_nbytes(q: QuantizedTensor) -> int:
    """Payload bytes: packed codes plus scale data (headers excluded)."""
    n = int(q.codes.size)
    if q.dq is None:
        return n + 4 * int(q.absmax.size)
    return n + int(q.dq.absmax_codes.size) + 8 * int(q.dq.group_scale.size)


# ---------------------------------------------------------------------------
# 8-bit optimizer state
# ---------------------------------------------------------------------------


@dataclass
class Quantized8bitState:
    shape: tuple
    codes: np.ndarray  # uint8 indices into DYNAMIC8_VALUES
    absmax: np.ndarray  # float32 per block
    block_size: int

    @property
    def numel(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def nbytes(self) -> int:
        return int(self.codes.size) + 4 * int(self.absmax.size)


def quantize_state8(x: np.ndarray, block_size: int = STATE8_BLOCK_SIZE) -> Quantized8bitState:
    shape, codes, absmax = _encode_blocks(x, block_size, _nearest_dynamic8, DYNAMIC8_ZERO_CODE)
    return Quantized8bitState(shape, codes, absmax, block_size)


def dequantize_state8(q: Quantized8bitState, out_dtype=np.float32) -> np.ndarray:
    return _decode_blocks(q.codes, q.absmax, q.block_size, DYNAMIC8_VALUES, q.shape, out_dtype)


def encode_blocks8(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`quantize_state8` of whole blocks: finite float64 [n, block] rows to
    uint8 codes [n, block] and float32 absmax [n], with no padding or copy."""
    return _scale_and_code(blocks, _nearest_dynamic8, DYNAMIC8_ZERO_CODE)


def decode_blocks8(codes: np.ndarray, absmax: np.ndarray) -> np.ndarray:
    """`dequantize_state8` of whole blocks, in float64: codes [n, block] and
    absmax [n] to [n, block]."""
    out = np.take(DYNAMIC8_VALUES, codes)
    out *= absmax.astype(np.float64)[:, None]
    return out


# ---------------------------------------------------------------------------
# serialization (layout in binfmt)
# ---------------------------------------------------------------------------

_QNF4 = (b"QNF4", 2)
_QST8 = (b"QST8", 2)


def dumps_qnf4(q: QuantizedTensor) -> bytes:
    w = Writer(*_QNF4)
    w.pack("IB", q.block_size, q.dq is not None)
    w.shape(q.shape)
    w.array(q.codes, "u1")
    if q.dq is None:
        w.array(q.absmax, "<f4")
    else:
        w.pack("I", q.dq.group_size)
        w.array(q.dq.group_scale, "<f4")
        w.array(q.dq.group_offset, "<f4")
        w.array(q.dq.absmax_codes, "u1")
    return w.getvalue()


def loads_qnf4(data: bytes) -> QuantizedTensor:
    r = Reader(data, *_QNF4)
    block_size, dq_flag = r.unpack("IB")
    r.expect(block_size >= 1 and dq_flag <= 1, f"block size {block_size}, double-quant flag {dq_flag}")
    shape = r.shape()
    numel = math.prod(shape)
    n_blocks = -(-numel // block_size)
    codes = r.array("u1", (numel + 1) // 2)
    if dq_flag:
        (group_size,) = r.unpack("I")
        r.expect(group_size >= 1, "double-quant group size 0")
        n_groups = -(-n_blocks // group_size)
        scale = r.array("<f4", n_groups)
        offset = r.array("<f4", n_groups)
        dq = DoubleQuantState(r.array("u1", n_blocks), group_size, scale, offset)
        q = QuantizedTensor(shape, codes, None, dq, block_size)
    else:
        q = QuantizedTensor(shape, codes, r.array("<f4", n_blocks), None, block_size)
    r.done()
    return q


def dumps_state8(q: Quantized8bitState) -> bytes:
    w = Writer(*_QST8)
    w.pack("I", q.block_size)
    w.shape(q.shape)
    w.array(q.codes, "u1")
    w.array(q.absmax, "<f4")
    return w.getvalue()


def loads_state8(data: bytes) -> Quantized8bitState:
    r = Reader(data, *_QST8)
    (block_size,) = r.unpack("I")
    r.expect(block_size >= 1, "block size 0")
    shape = r.shape()
    numel = math.prod(shape)
    codes = r.array("u1", numel)
    r.expect(codes.size == 0 or codes.max() < DYNAMIC8_VALUES.size, "code outside the 8-bit codebook")
    absmax = r.array("<f4", -(-numel // block_size))
    r.done()
    return Quantized8bitState(shape, codes, absmax, block_size)
