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
  `quantize_state8` makes of it, so the OPT8 file, one QST8 moment (or one
  float64 array) per parameter, is what a per-parameter step would write.
  `loads` only parses, so `inspect` needs no model; the loaded moments enter
  the layout when it binds, and one that names no parameter, has another
  shape or another block size is a `FormatError`.
- **Chunked step.** The layout is cut into chunks of at most `CHUNK_BLOCKS`
  blocks: a parameter larger than that gets chunks of its own, smaller ones
  share one. Per chunk the step dequantizes both moments, runs Adam in
  float64, checks the moments finite (for `adamw8`, within float32, which
  holds each block's absmax), writes the parameters' new values and
  requantizes. Every operation is elementwise or per block, so the result is
  bit for bit the per-parameter step's, and the float64 temporaries are
  O(chunk). A parameter absent from the gradients keeps its value and state.
  A non-finite moment raises `TrainingError` before its chunk is written, but
  the chunks before it stay stepped, so training has to stop there.
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
    DYNAMIC8_ZERO_CODE,
    F32_OVERFLOW,
    STATE8_BLOCK_SIZE,
    Quantized8bitState,
    decode_blocks8,
    dumps_state8,
    encode_blocks8,
    loads_state8,
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


_OPT8 = (b"OPT8", 2)


class _Checkpointable:
    """OPT8 state: kind text, u32 step, u32 count, then per parameter its name
    and (m, v), as nested QST8 blobs when quantized, else shaped f64 arrays."""

    quantized = False

    def dumps(self) -> bytes:
        moments = self.moments
        w = Writer(*_OPT8)
        w.text(self.kind)
        w.pack("II", self.step_count, len(moments))
        for name in sorted(moments):
            w.text(name)
            for state in moments[name]:
                if self.quantized:
                    w.blob(dumps_state8(state))
                else:
                    w.shape(state.shape)
                    w.array(state, "<f8")
        return w.getvalue()

    def loads(self, data: bytes):
        r = Reader(data, *_OPT8)
        found = r.text()
        r.expect(found == self.kind, f"holds {found!r} state, expected {self.kind!r}")
        step, count = r.unpack("II")
        moments = {}
        for _ in range(count):
            name = r.text()
            if not self.quantized:
                moments[name] = tuple(r.array("<f8", r.shape()) for _ in range(2))
                continue
            moments[name] = tuple(loads_state8(r.blob()) for _ in range(2))
            for state in moments[name]:
                r.expect(state.block_size == STATE8_BLOCK_SIZE,
                         f"moment of {name!r} in blocks of {state.block_size}, "
                         f"expected {STATE8_BLOCK_SIZE}")
        r.done()
        self._restore(step, moments)


class Sgd(_Checkpointable):
    """Plain gradient descent; stateless."""

    kind = "sgd"
    moments: dict = {}  # always empty

    def __init__(self, **_):
        self.step_count = 0

    def _restore(self, step: int, moments: dict):
        if moments:
            raise FormatError(f"sgd state holds moments for {sorted(moments)}")
        self.step_count = step

    def step(self, params: list, grads: dict, lr: float):
        self.step_count += 1
        for name, p in params:
            g = grads.get(name)
            if g is None:
                continue
            p.assign(p.value - lr * g)


class _Codes8:
    """One moment over the flat layout: uint8 codes, one float32 absmax per block."""

    def __init__(self, n_blocks: int):
        self.codes = np.full(n_blocks * STATE8_BLOCK_SIZE, DYNAMIC8_ZERO_CODE, dtype=np.uint8)
        self.absmax = np.zeros(n_blocks, dtype=np.float32)

    def read(self, e0: int, e1: int) -> np.ndarray:
        b = STATE8_BLOCK_SIZE
        return decode_blocks8(self.codes[e0:e1].reshape(-1, b), self.absmax[e0 // b:e1 // b]).reshape(-1)

    def write(self, e0: int, e1: int, x: np.ndarray):
        b = STATE8_BLOCK_SIZE
        codes, absmax = encode_blocks8(x.reshape(-1, b))
        self.codes[e0:e1] = codes.reshape(-1)
        self.absmax[e0 // b:e1 // b] = absmax

    def get(self, e0: int, shape: tuple) -> Quantized8bitState:
        numel, b = math.prod(shape), STATE8_BLOCK_SIZE
        return Quantized8bitState(shape, self.codes[e0:e0 + numel].copy(),
                                  self.absmax[e0 // b:(e0 + numel + b - 1) // b].copy(), b)

    def put(self, e0: int, state: Quantized8bitState):
        b0 = e0 // STATE8_BLOCK_SIZE
        self.codes[e0:e0 + state.codes.size] = state.codes
        self.absmax[b0:b0 + state.absmax.size] = state.absmax


class _Values64:
    """One moment over the flat layout as float64 values."""

    def __init__(self, n_blocks: int):
        self.values = np.zeros(n_blocks * STATE8_BLOCK_SIZE, dtype=np.float64)

    def read(self, e0: int, e1: int) -> np.ndarray:
        return self.values[e0:e1].copy()

    def write(self, e0: int, e1: int, x: np.ndarray):
        self.values[e0:e1] = x

    def get(self, e0: int, shape: tuple) -> np.ndarray:
        return self.values[e0:e0 + math.prod(shape)].reshape(shape).copy()

    def put(self, e0: int, state: np.ndarray):
        self.values[e0:e0 + state.size] = state.reshape(-1)


class AdamW(_Checkpointable):
    """Adam with bias correction, `BETAS` and `EPS`, and no weight decay, over
    the flat, chunked state the module docstring describes. With
    `quantized=True` (the default) the moments are 8-bit codes, otherwise
    float64; that is the only difference between `adamw8` and `adamw`."""

    def __init__(self, quantized: bool = True, ledger=None):
        self.quantized = quantized
        self.ledger = ledger
        self.step_count = 0
        self._loaded: dict = {}  # name -> (m, v) from `loads`, until the layout binds
        self._bound = None  # [(name, shape)] the layout was bound to
        self._charged = 0

    @property
    def kind(self) -> str:
        return "adamw8" if self.quantized else "adamw"

    @property
    def moments(self) -> dict:
        """name -> (m, v) for every parameter with state: `Quantized8bitState`s,
        or float64 arrays of the parameter's shape. Copies."""
        if self._bound is None:
            return self._loaded
        return {name: tuple(s.get(self._starts[i], shape) for s in self._state)
                for i, (name, shape) in enumerate(self._bound) if self._has[i]}

    def _restore(self, step: int, moments: dict):
        if self._charged:
            self.ledger.release("optimizer_states", self._charged)
            self._charged = 0
        self.step_count, self._loaded, self._bound = step, moments, None

    def _bind(self, signature: list):
        """Lay the parameters out, cut the chunks, charge the ledger and move
        the loaded moments in."""
        index = {name: i for i, (name, _) in enumerate(signature)}
        extra = sorted(set(self._loaded) - set(index))
        if extra:
            raise FormatError(f"optimizer state for {extra}, which the model lacks")
        for name, states in self._loaded.items():
            shape = signature[index[name]][1]
            for state in states:
                if tuple(state.shape) != shape:
                    raise FormatError(f"optimizer state for {name!r} has shape "
                                      f"{tuple(state.shape)}, the parameter {shape}")
        b = STATE8_BLOCK_SIZE
        starts, chunks, total, filled = [], [], 0, 0
        for i, (_, shape) in enumerate(signature):
            numel = math.prod(shape)
            starts.append(total)
            for lo in range(0, max(numel, 1), CHUNK_ELEMENTS):
                hi = min(lo + CHUNK_ELEMENTS, numel)
                blocks = -(-hi // b) - lo // b
                if not chunks or filled + blocks > CHUNK_BLOCKS:
                    chunks.append([])
                    filled = 0
                chunks[-1].append((i, lo, hi, total + lo, total + (hi + b - 1) // b * b))
                filled += blocks
            total += -(-numel // b) * b
        store, per_block = (_Codes8, b + 4) if self.quantized else (_Values64, b * 8)
        charge = 2 * per_block * (total // b) + WORKING_BYTES
        if self.ledger is not None:
            self.ledger.allocate("optimizer_states", charge)
            self._charged = charge
        self._state = (store(total // b), store(total // b))
        self._starts, self._chunks = starts, chunks
        self._has = [name in self._loaded for name, _ in signature]
        for name, states in self._loaded.items():
            for s, state in zip(self._state, states):
                s.put(starts[index[name]], state)
        self._loaded, self._bound = {}, signature

    def step(self, params: list, grads: dict, lr: float):
        self.step_count += 1
        signature = [(name, p.value.shape) for name, p in params]
        if self._bound is None:
            self._bind(signature)
        elif signature != self._bound:
            raise ContractError("the parameters differ from those the optimizer state is laid out for")
        fresh: dict = {}  # parameter index -> its new value, filled chunk by chunk
        for chunk in self._chunks:
            run: list = []
            for piece in chunk:
                if params[piece[0]][0] in grads:
                    run.append(piece)
                elif run:
                    self._update(run, params, grads, lr, fresh)
                    run = []
            if run:
                self._update(run, params, grads, lr, fresh)

    def _update(self, run: list, params: list, grads: dict, lr: float, fresh: dict):
        """One Adam step over consecutive pieces (index, lo, hi, flat lo, flat
        end) whose flat range [e0, e1) is whole blocks."""
        t = self.step_count
        b1, b2 = BETAS
        e0, e1 = run[0][3], run[-1][4]
        g = np.zeros(e1 - e0)
        for i, lo, hi, f0, _ in run:
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
            i = next(i for i, _, _, f0, f1 in run if f0 <= bad < f1)
            beyond = " (an 8-bit block's absmax must fit float32)" if self.quantized else ""
            raise TrainingError(f"non-finite moments for {params[i][0]!r} at step {t}{beyond}",
                                step=t)
        del finite

        update = np.divide(v, 1 - b2**t)
        np.maximum(update, 0.0, out=update)
        np.sqrt(update, out=update)
        update += EPS
        np.divide(m / (1 - b1**t), update, out=update)
        for i, lo, hi, f0, _ in run:
            p = params[i][1]
            if lo == 0:
                fresh[i] = np.empty(p.value.size, dtype=p.value.dtype)
            fresh[i][lo:hi] = p.value.reshape(-1)[lo:hi] - lr * update[f0 - e0:f0 - e0 + hi - lo]
            self._has[i] = True
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
