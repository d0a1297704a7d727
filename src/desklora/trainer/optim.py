"""Gradient clipping and optimizers: Adam with moments held in blockwise
8-bit dynamic quantization (host-resident in the ledger), a full-precision
variant for oracle comparisons, and plain SGD for accumulation-equivalence
checks.
"""

import numpy as np

from ..binfmt import Reader, Writer
from ..errors import FormatError, TrainingError
from ..quant import (
    STATE8_BLOCK_SIZE,
    dequantize_state8,
    dumps_state8,
    loads_state8,
    quantize_state8,
)

BETAS = (0.9, 0.999)
EPS = 1e-8


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


def _nbytes(moments: dict) -> int:
    return sum(m.nbytes + v.nbytes for m, v in moments.values())


class _Checkpointable:
    """OPT8 state: kind text, u32 step, u32 count, then per parameter its name
    and (m, v), as nested QST8 blobs when quantized, else shaped f64 arrays."""

    quantized = False
    ledger = None

    def dumps(self) -> bytes:
        w = Writer(*_OPT8)
        w.text(self.kind)
        w.pack("II", self.step_count, len(self.moments))
        for name in sorted(self.moments):
            w.text(name)
            for state in self.moments[name]:
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
            moments[name] = tuple(
                loads_state8(r.blob()) if self.quantized else r.array("<f8", r.shape())
                for _ in range(2)
            )
        r.done()
        if self.ledger is not None:
            self.ledger.release("optimizer_states", _nbytes(self.moments))
            self.ledger.allocate("optimizer_states", _nbytes(moments))
        self.step_count, self.moments = step, moments


class Sgd(_Checkpointable):
    """Plain gradient descent; stateless."""

    kind = "sgd"

    def __init__(self, **_):
        self.step_count = 0
        self.moments: dict = {}  # stays empty

    def step(self, params: list, grads: dict, lr: float):
        self.step_count += 1
        for name, p in params:
            g = grads.get(name)
            if g is None:
                continue
            p.assign(p.value - lr * g)


class AdamW(_Checkpointable):
    """Adam with bias correction, `BETAS` and `EPS`, and no weight decay.

    With `quantized=True` (the default) the first and second moments live as
    blockwise 8-bit states, dequantized for the update and requantized after;
    otherwise as float64 arrays. Their bytes are charged to the ledger's
    host-side optimizer_states pool, on first use and on load.
    """

    def __init__(self, quantized: bool = True, block_size: int = STATE8_BLOCK_SIZE, ledger=None):
        self.quantized = quantized
        self.block_size = block_size
        self.ledger = ledger
        self.step_count = 0
        self.moments: dict = {}  # name -> (m, v) as Quantized8bitState or ndarray

    @property
    def kind(self) -> str:
        return "adamw8" if self.quantized else "adamw"

    def _init_state(self, name: str, shape):
        zeros = np.zeros(shape, dtype=np.float64)
        if self.quantized:
            m = quantize_state8(zeros, self.block_size)
            v = quantize_state8(zeros, self.block_size)
        else:
            m, v = zeros.copy(), zeros.copy()
        if self.ledger is not None:
            self.ledger.allocate("optimizer_states", m.nbytes + v.nbytes)
        self.moments[name] = (m, v)

    def step(self, params: list, grads: dict, lr: float):
        self.step_count += 1
        t = self.step_count
        b1, b2 = BETAS
        for name, p in params:
            g = grads.get(name)
            if g is None:
                continue
            if name not in self.moments:
                self._init_state(name, p.value.shape)
            g64 = g.astype(np.float64)
            m, v = self.moments[name]
            if self.quantized:
                m, v = dequantize_state8(m, np.float64), dequantize_state8(v, np.float64)
            m = b1 * m + (1 - b1) * g64
            v = b2 * v + (1 - b2) * g64 * g64
            if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v))):
                raise TrainingError(f"non-finite moments for {name!r} at step {t}", step=t)
            m_hat = m / (1 - b1**t)
            v_hat = np.maximum(v / (1 - b2**t), 0.0)
            update = m_hat / (np.sqrt(v_hat) + EPS)
            p.assign(p.value - lr * update)
            if self.quantized:
                m, v = quantize_state8(m, self.block_size), quantize_state8(v, self.block_size)
            self.moments[name] = (m, v)


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
