"""Blockwise 4-bit NormalFloat quantization with double-quantized scales,
plus signed 8-bit dynamic quantization for optimizer moments.

The 4-bit codebook places its levels at standard-normal quantiles: 8 on the
negative side, an exact zero, and 7 on the positive side, rescaled so the
extreme levels are exactly +-1. The quantile probabilities run from
OFFSET = 1 - (1/32 + 1/30)/2 down to 0.5 on each side, which avoids a
duplicated zero level. The constants below were produced once from a normal
inverse-CDF oracle and are frozen; a golden test re-derives them.
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
    return np.searchsorted(mids, normalized, side="left")


def _block_scales(absmax: np.ndarray, block_size: int, numel: int) -> np.ndarray:
    """One float64 scale per element. A block larger than the tensor is its
    only block, so it repeats numel times, never block_size times."""
    return np.repeat(absmax.astype(np.float64), min(block_size, numel))[:numel]


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
    x = np.asarray(x, dtype=np.float64)
    _check_finite(x)
    shape = tuple(x.shape)
    flat = x.reshape(-1)
    numel = flat.size
    n_blocks = (numel + block_size - 1) // block_size

    padded = np.zeros(n_blocks * block_size, dtype=np.float64)
    padded[:numel] = flat
    blocks = padded.reshape(n_blocks, block_size)
    absmax = np.abs(blocks).max(axis=1)

    safe = np.where(absmax == 0.0, 1.0, absmax)
    normalized = blocks / safe[:, None]
    codes = _nearest_codes(normalized, NF4_VALUES).astype(np.uint8)
    codes[absmax == 0.0, :] = NF4_ZERO_CODE

    flat_codes = codes.reshape(-1)[:numel]
    packed = _pack4(flat_codes)
    absmax32 = absmax.astype(np.float32)

    if double_quant:
        dq = _quantize_absmax(absmax32, dq_group)
        return QuantizedTensor(shape, packed, None, dq, block_size)
    return QuantizedTensor(shape, packed, absmax32, None, block_size)


def reconstructed_absmax(q: QuantizedTensor) -> np.ndarray:
    if q.dq is not None:
        return _reconstruct_absmax(q.dq)
    return q.absmax


def dequantize(q: QuantizedTensor, out_dtype=np.float32) -> np.ndarray:
    codes = _unpack4(q.codes, q.numel)
    values = NF4_VALUES[codes]
    scales = _block_scales(reconstructed_absmax(q), q.block_size, q.numel)
    return (values * scales).astype(out_dtype).reshape(q.shape)


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
    x = np.asarray(x, dtype=np.float64)
    _check_finite(x)
    shape = tuple(x.shape)
    flat = x.reshape(-1)
    numel = flat.size
    n_blocks = (numel + block_size - 1) // block_size

    padded = np.zeros(n_blocks * block_size, dtype=np.float64)
    padded[:numel] = flat
    blocks = padded.reshape(n_blocks, block_size)
    absmax = np.abs(blocks).max(axis=1)
    safe = np.where(absmax == 0.0, 1.0, absmax)
    codes = _nearest_codes(blocks / safe[:, None], DYNAMIC8_VALUES).astype(np.uint8)
    codes[absmax == 0.0, :] = DYNAMIC8_ZERO_CODE
    return Quantized8bitState(shape, codes.reshape(-1)[:numel], absmax.astype(np.float32), block_size)


def dequantize_state8(q: Quantized8bitState, out_dtype=np.float32) -> np.ndarray:
    values = DYNAMIC8_VALUES[q.codes]
    scales = _block_scales(q.absmax, q.block_size, q.numel)
    return (values * scales).astype(out_dtype).reshape(q.shape)


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
