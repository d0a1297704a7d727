"""Gradient clipping and optimizers: AdamW over one flat, chunked state whose
moments are blockwise 8-bit codes (or float64 values for oracle comparisons),
and plain SGD for accumulation-equivalence checks.

AdamW updates its state the way the 8-bit optimizer of Dettmers et al. 2022
(arXiv 2110.02861, §2) does: block by block, never holding a whole moment in
full precision.

- **Flat state.** At its first step the optimizer binds a layout to the
  parameters: each one's elements, padded to whole `STATE8_BLOCK_SIZE`
  blocks, laid end to end in parameter order. A moment is one array over
  that layout: uint8 codes plus one float32 absmax per block for `adamw8`,
  float64 values for `adamw`. A parameter's blocks are the ones
  `quantize_state8` makes of it, so its stretch of the layout holds what a
  per-parameter step would.
- **Checkpoint.** The OPT8 file is this layout as it stands: each
  parameter's name and shape, then both moments over every padded element.
  `loads` only parses, so `inspect` needs no model. It rejects a repeated
  name, a code outside the codebook, an absmax that is NaN, infinite or
  negative, a float64 moment value that is not finite, and a padding
  element that is not zero: at the next step a padding value would enter
  its block's absmax. The loaded moments are adopted when the layout binds,
  and a state laid out for other parameters is a `FormatError`.
- **Chunked step.** The layout is cut into chunks of at most `CHUNK_BLOCKS`
  blocks: a parameter larger than that gets chunks of its own, smaller ones
  share one. Per chunk the step dequantizes both moments, runs Adam in
  float64, checks the moments finite (for `adamw8`, within float32, which
  holds each block's absmax), writes the parameters' new values and
  requantizes. Every operation is elementwise or per block, so the result is
  bit for bit the per-parameter step's, and the float64 temporaries are
  O(chunk). A step needs a gradient for every parameter: one missing is a
  `ContractError` before anything is written. A non-finite moment raises
  `TrainingError` before its chunk is written, but the chunks before it stay
  stepped, so training has to stop there.
- **Ledger.** The padded state plus `WORKING_BYTES` for one chunk's
  temporaries are charged to the host-side optimizer_states pool when the
  layout binds. A parameter's new value is built next to the old one and
  handed over, so a step also holds one more copy of its largest parameter.
"""

import math

import numpy as np

from ..binfmt import Reader, Writer
from ..errors import ContractError, FormatError, TrainingError
from ..numcore.autograd import node_value
from ..quant import (
    DYNAMIC8_VALUES,
    DYNAMIC8_ZERO_CODE,
    F32_OVERFLOW,
    STATE8_BLOCK_SIZE,
    decode_blocks8,
    encode_blocks8,
    expect_scales,
)

BETAS = (0.9, 0.999)
EPS = 1e-8

CHUNK_BLOCKS = 64  # 16,384 elements per chunk
CHUNK_ELEMENTS = CHUNK_BLOCKS * STATE8_BLOCK_SIZE
WORKING_BYTES = 6 * CHUNK_ELEMENTS * 8  # a chunk's temporaries: 5.5 float64 chunks measured


def global_grad_norm(grads: dict) -> float:
    total = 0.0
    for g in grads.values():
        total += float((g.astype(np.float64) ** 2).sum())
    return float(np.sqrt(total))


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm.

    Mutates `grads` in place and returns the scale applied (1.0 if untouched).
    """
    if max_norm <= 0:
        raise TrainingError(f"max_norm must be positive, got {max_norm}")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name!r}")
    norm = global_grad_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    scale = max_norm / norm
    for name in grads:
        grads[name] = grads[name] * scale
    return scale


def _expect_complete(params: list, grads: dict):
    missing = next((name for name, _ in params if name not in grads), None)
    if missing is not None:
        raise ContractError(f"no gradient for parameter {missing!r}")


_OPT8 = (b"OPT8", 3)


def _spans(layout: list) -> tuple[list, int]:
    """Each parameter's (flat start, element count, padded end) in the layout,
    and the padded total: arithmetic only, so a damaged shape allocates nothing."""
    spans, total = [], 0
    for _, shape in layout:
        numel = math.prod(shape)
        end = total + -(-numel // STATE8_BLOCK_SIZE) * STATE8_BLOCK_SIZE
        spans.append((total, numel, end))
        total = end
    return spans, total


def _expect_zero_padding(r: Reader, flat: np.ndarray, layout: list, zero):
    """A padding element enters its block's absmax at the next step, so it
    must hold the zero a step writes there."""
    for (name, _), (start, numel, end) in zip(layout, _spans(layout)[0]):
        r.expect(bool(np.all(flat[start + numel:end] == zero)), f"padding of {name!r} is not zero")


class _Checkpointable:
    """OPT8 state: kind text, u32 step, u32 count, each parameter's name and
    shape in layout order, then m and v, each over the whole padded layout
    (`_Codes8.dump` or `_Values64.dump`). A stateless kind writes count 0."""

    store = None  # the moment type; None when the optimizer keeps no moments
    _layout: list = []  # [(name, shape)] the moments are laid out for
    _state: tuple = ()  # (m, v), each a `store`

    def dumps(self) -> bytes:
        w = Writer(*_OPT8)
        w.text(self.kind)
        w.pack("II", self.step_count, len(self._layout))
        for name, shape in self._layout:
            w.text(name)
            w.shape(shape)
        for moment in self._state:
            moment.dump(w)
        return w.getvalue()

    def loads(self, data: bytes):
        r = Reader(data, *_OPT8)
        found = r.text()
        r.expect(found == self.kind, f"holds {found!r} state, expected {self.kind!r}")
        step, count = r.unpack("II")
        r.expect(count == 0 or self.store is not None, f"{self.kind} state lists {count} parameters")
        layout, names = [], set()
        for _ in range(count):
            name = r.text()
            r.expect(name not in names, f"parameter {name!r} listed twice")
            names.add(name)
            layout.append((name, r.shape()))
        state = tuple(self.store.load(r, layout) for _ in range(2)) if self.store else ()
        r.done()
        self._restore(step, layout, state)


class Sgd(_Checkpointable):
    """Plain gradient descent; stateless."""

    kind = "sgd"

    def __init__(self):
        self.step_count = 0

    def _restore(self, step: int, layout: list, state: tuple):
        self.step_count = step

    def step(self, params: list, grads: dict, lr: float):
        _expect_complete(params, grads)
        self.step_count += 1
        for name, p in params:
            p.assign(p.value - lr * grads[name])


class _Codes8:
    """One moment over the flat layout: uint8 codes, one float32 absmax per block."""

    def __init__(self, codes: np.ndarray, absmax: np.ndarray):
        self.codes, self.absmax = codes, absmax

    @classmethod
    def zeros(cls, n_blocks: int) -> "_Codes8":
        return cls(np.full(n_blocks * STATE8_BLOCK_SIZE, DYNAMIC8_ZERO_CODE, dtype=np.uint8),
                   np.zeros(n_blocks, dtype=np.float32))

    def read(self, e0: int, e1: int) -> np.ndarray:
        b = STATE8_BLOCK_SIZE
        return decode_blocks8(self.codes[e0:e1].reshape(-1, b), self.absmax[e0 // b:e1 // b]).reshape(-1)

    def write(self, e0: int, e1: int, x: np.ndarray):
        b = STATE8_BLOCK_SIZE
        codes, absmax = encode_blocks8(x.reshape(-1, b))
        self.codes[e0:e1] = codes.reshape(-1)
        self.absmax[e0 // b:e1 // b] = absmax

    def dump(self, w: Writer):
        w.array(self.codes, "u1")
        w.array(self.absmax, "<f4")

    @classmethod
    def load(cls, r: Reader, layout: list) -> "_Codes8":
        total = _spans(layout)[1]
        codes = r.array("u1", total)
        r.expect(codes.size == 0 or codes.max() < DYNAMIC8_VALUES.size, "code outside the 8-bit codebook")
        absmax = r.array("<f4", total // STATE8_BLOCK_SIZE)
        expect_scales(r, absmax, "block absmax")
        _expect_zero_padding(r, codes, layout, DYNAMIC8_ZERO_CODE)
        return cls(codes, absmax)


class _Values64:
    """One moment over the flat layout as float64 values."""

    def __init__(self, values: np.ndarray):
        self.values = values

    @classmethod
    def zeros(cls, n_blocks: int) -> "_Values64":
        return cls(np.zeros(n_blocks * STATE8_BLOCK_SIZE, dtype=np.float64))

    def read(self, e0: int, e1: int) -> np.ndarray:
        return self.values[e0:e1].copy()

    def write(self, e0: int, e1: int, x: np.ndarray):
        self.values[e0:e1] = x

    def dump(self, w: Writer):
        w.array(self.values, "<f8")

    @classmethod
    def load(cls, r: Reader, layout: list) -> "_Values64":
        values = r.array("<f8", _spans(layout)[1])
        r.expect(bool(np.isfinite(values).all()), "moment value NaN or infinite")
        _expect_zero_padding(r, values, layout, 0.0)
        return cls(values)


def _first_difference(saved: list, signature: list) -> str:
    for i, (a, b) in enumerate(zip(saved, signature)):
        if a != b:
            return f"parameter {i} is {a}, the model's {b}"
    return f"it lists {len(saved)} parameters, the model {len(signature)}"


class AdamW(_Checkpointable):
    """Adam with bias correction, `BETAS` and `EPS`, and no weight decay, over
    the flat, chunked state the module docstring describes. With
    `quantized=True` (the default) the moments are 8-bit codes, otherwise
    float64; that is the only difference between `adamw8` and `adamw`."""

    def __init__(self, quantized: bool = True, ledger=None):
        self.quantized = quantized
        self.store = _Codes8 if quantized else _Values64
        self.ledger = ledger
        self.step_count = 0
        self._chunks = None  # cut when the layout binds to the parameters
        self._charged = 0

    @property
    def kind(self) -> str:
        return "adamw8" if self.quantized else "adamw"

    def _restore(self, step: int, layout: list, state: tuple):
        if self._charged:
            self.ledger.release("optimizer_states", self._charged)
            self._charged = 0
        self.step_count, self._layout, self._state, self._chunks = step, layout, state, None

    def _bind(self, signature: list):
        """Check the loaded state is laid out for these parameters (a state for
        none is fresh), cut the chunks, charge the ledger and adopt the loaded
        moments or allocate zeroed ones."""
        if self._layout and self._layout != signature:
            raise FormatError(f"optimizer state for {len(self._layout)} parameters does not fit "
                              f"the model: {_first_difference(self._layout, signature)}")
        b = STATE8_BLOCK_SIZE
        spans, total = _spans(signature)
        chunks, filled = [], 0
        for i, (start, numel, _) in enumerate(spans):
            for lo in range(0, max(numel, 1), CHUNK_ELEMENTS):
                hi = min(lo + CHUNK_ELEMENTS, numel)
                blocks = -(-hi // b) - lo // b
                if not chunks or filled + blocks > CHUNK_BLOCKS:
                    chunks.append([])
                    filled = 0
                chunks[-1].append((i, lo, hi, start + lo, start + (hi + b - 1) // b * b))
                filled += blocks
        per_block = b + 4 if self.quantized else b * 8
        charge = 2 * per_block * (total // b) + WORKING_BYTES
        if self.ledger is not None:
            self.ledger.allocate("optimizer_states", charge)
            self._charged = charge
        if not self._layout:
            self._state = (self.store.zeros(total // b), self.store.zeros(total // b))
        self._layout, self._chunks = signature, chunks

    def step(self, params: list, grads: dict, lr: float):
        _expect_complete(params, grads)
        self.step_count += 1
        signature = [(name, p.value.shape) for name, p in params]
        if self._chunks is None:
            self._bind(signature)
        elif signature != self._layout:
            raise ContractError("the parameters differ from those the optimizer state is laid out for")
        fresh: dict = {}  # parameter index -> its new value, filled chunk by chunk
        for chunk in self._chunks:
            self._update(chunk, params, grads, lr, fresh)

    def _update(self, chunk: list, params: list, grads: dict, lr: float, fresh: dict):
        """One Adam step over a chunk's pieces (index, lo, hi, flat lo, flat
        end), consecutive in the layout, whose flat range [e0, e1) is whole blocks."""
        t = self.step_count
        b1, b2 = BETAS
        e0, e1 = chunk[0][3], chunk[-1][4]
        g = np.zeros(e1 - e0)
        for i, lo, hi, f0, _ in chunk:
            name, p = params[i]
            grad = grads[name]
            if grad.shape != p.value.shape:
                raise ContractError(f"gradient of {name!r} has shape {grad.shape}, "
                                    f"the parameter {p.value.shape}")
            g[f0 - e0:f0 - e0 + hi - lo] = grad.reshape(-1)[lo:hi]

        m_state, v_state = self._state
        m = m_state.read(e0, e1)
        m *= b1
        term = np.multiply(g, 1 - b1)
        m += term
        v = v_state.read(e0, e1)
        v *= b2
        np.multiply(g, 1 - b2, out=term)
        term *= g
        v += term
        del g, term  # each `del` here keeps the step's peak within WORKING_BYTES
        limit = F32_OVERFLOW if self.quantized else np.inf  # an 8-bit block keeps a float32 absmax
        finite = np.abs(m) < limit
        finite &= np.abs(v) < limit
        if not finite.all():
            bad = e0 + int(np.argmin(finite))
            i = next(i for i, _, _, f0, f1 in chunk if f0 <= bad < f1)
            beyond = " (an 8-bit block's absmax must fit float32)" if self.quantized else ""
            raise TrainingError(f"non-finite moments for {params[i][0]!r} at step {t}{beyond}",
                                step=t)
        del finite

        update = np.divide(v, 1 - b2**t)
        np.maximum(update, 0.0, out=update)
        np.sqrt(update, out=update)
        update += EPS
        np.divide(m / (1 - b1**t), update, out=update)
        for i, lo, hi, f0, _ in chunk:
            p = params[i][1]
            if lo == 0:
                fresh[i] = np.empty(p.value.size, dtype=p.value.dtype)
            fresh[i][lo:hi] = p.value.reshape(-1)[lo:hi] - lr * update[f0 - e0:f0 - e0 + hi - lo]
            if hi == p.value.size:  # hand the new value over; `assign` would copy it
                p.value = node_value(fresh.pop(i).reshape(p.value.shape), p.value.dtype)
        del update

        m_state.write(e0, e1, m)
        v_state.write(e0, e1, v)


def make_optimizer(kind: str, ledger=None):
    if kind == "adamw8":
        return AdamW(quantized=True, ledger=ledger)
    if kind == "adamw":
        return AdamW(quantized=False, ledger=ledger)
    if kind == "sgd":
        return Sgd()
    raise FormatError(f"unknown optimizer kind {kind!r}")


def loads_optimizer(data: bytes):
    """The optimizer an OPT8 blob was written by."""
    opt = make_optimizer(Reader(data, *_OPT8).text())
    opt.loads(data)
    return opt
