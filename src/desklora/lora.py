"""QLoRA's linear layer as one op: y = x·Wᵀ + s·(dropout(x)·Aᵀ)·Bᵀ (Dettmers et al. 2023, eq. 5).

A `FrozenLinear` holds a 4-bit base W [d_out x d_in] (`q`) that never receives
gradients, dequantized on first use into the layer's precision and kept until
`release` (training releases it when it returns), and optionally a trainable
adapter A [r x d_in], B [d_out x r] with s = alpha / r. B starts at zero
(`attach`), so a fresh adapter is an exact identity perturbation. `forward`
records one tape node whose backward gives x's, A's and B's gradients and
never forms W's; dropout runs only given an rng. The adapter file stores A
and B in the layer's precision, so they reload exactly.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .binfmt import Reader, Writer
from .errors import ConfigError, DimensionError, FormatError
from .numcore import DOUBLE, FULL, GradNode, Parameter, Rng, storage_dtype
from .numcore.autograd import op_output
from .numcore.ops import dropout_factor
from .quant import QuantizedTensor, dequantize
from .util import from_known_keys


@dataclass
class LoraConfig:
    r: int = 8
    alpha: float = 32.0
    dropout: float = 0.05

    def __post_init__(self):
        if self.r <= 0:
            raise ConfigError(f"rank must be positive, got {self.r}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def scaling(self) -> float:
        return self.alpha / self.r

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LoraConfig":
        return from_known_keys(cls, d)


@dataclass
class LoraAdapter:
    a: Parameter  # [r x d_in]
    b: Parameter  # [d_out x r]
    scaling: float
    dropout: float


@dataclass
class FrozenLinear:
    """A named frozen linear layer: quantized base, precision, optional adapter."""

    name: str
    q: QuantizedTensor  # [d_out x d_in]
    dtype: str
    adapter: LoraAdapter | None = None
    _weight: np.ndarray | None = field(default=None, init=False, repr=False)

    def weight(self) -> np.ndarray:
        """The dequantized base [d_out x d_in], read-only, built on first use and
        kept until `release` as a view of a contiguous Wᵀ, the layout that x·Wᵀ reads."""
        if self._weight is None:
            wt = np.ascontiguousarray(dequantize(self.q, storage_dtype(self.dtype)).T)
            wt.flags.writeable = False
            self._weight = wt.T
        return self._weight

    def release(self):
        """Drop the dequantized copy; the next `weight()` rebuilds the same values."""
        self._weight = None


def with_adapter(base: QuantizedTensor, cfg: LoraConfig, a_init: np.ndarray, name: str = "",
                 dtype: str = FULL) -> FrozenLinear:
    """The frozen layer `name` over `base` with A = `a_init` and B = 0 in precision
    `dtype`, named `{name}.lora_a` and `{name}.lora_b`."""
    prefix = f"{name}." if name else ""
    a = Parameter(a_init, dtype, name=prefix + "lora_a")
    b = Parameter(np.zeros((base.shape[0], cfg.r)), dtype, name=prefix + "lora_b")
    return FrozenLinear(name, base, dtype, LoraAdapter(a=a, b=b, scaling=cfg.scaling, dropout=cfg.dropout))


def attach(base: QuantizedTensor, cfg: LoraConfig, rng: Rng, name: str = "",
           dtype: str = FULL) -> FrozenLinear:
    """Give a frozen quantized weight a zero-initialized adapter in precision
    `dtype`; A is drawn in 32-bit before widening, so every precision starts alike."""
    if len(base.shape) != 2:
        raise ConfigError(f"adapters attach to 2-D weights, got shape {base.shape}")
    d_out, d_in = base.shape
    if cfg.r > min(d_in, d_out):
        raise ConfigError(f"rank {cfg.r} exceeds min(d_in={d_in}, d_out={d_out})")
    a_init = rng.split("lora_a").normal((cfg.r, d_in), std=1.0 / np.sqrt(cfg.r)).astype(np.float32)
    return with_adapter(base, cfg, a_init, name, dtype)


def forward(layer: FrozenLinear, x: GradNode, rng: Rng | None = None) -> GradNode:
    """y = x·Wᵀ + s·(dropout(x)·Aᵀ)·Bᵀ over the rows of x [..., d_in], as one node
    over x, A and B (x·Wᵀ over x alone without an adapter). x is a parent twice,
    once per path, so the tape adds its base and branch gradients one at a time,
    in the order and rounding of an unfused matmul graph. Dropout runs exactly
    when `rng` is given, with the mask `numcore.dropout` would draw.
    Besides its output, the node charges what its backward keeps: the rank-r
    product, Aᵀ, Bᵀ and the multiplier."""
    (d_out, d_in), xv, ad = layer.q.shape, x.value, layer.adapter
    if xv.shape[-1] != d_in:
        raise DimensionError(f"{layer.name or 'linear layer'}: input width {xv.shape[-1]} != d_in {d_in}")
    w, rows = layer.weight(), xv.reshape(-1, d_in)
    y, saved = rows @ w.T, ()

    def base_grad(g):
        return (g.reshape(-1, d_out) @ w).reshape(xv.shape)

    parents, grad_fn = (x,), lambda g: (base_grad(g),)
    if ad is not None:
        # contiguous Aᵀ and Bᵀ, as for Wᵀ: operand layouts decide a matmul's rounding
        at, bt = (np.ascontiguousarray(p.value.T) for p in (ad.a, ad.b))
        s = ad.scaling
        f = dropout_factor(xv, ad.dropout, rng)
        drop = (lambda v: v) if f is None else (lambda v: v * f.reshape(v.shape))
        h = drop(rows) @ at
        y = y + (h @ bt) * s

        def grad_fn(g):
            gs = g.reshape(-1, d_out) * s
            hg = gs @ bt.T  # the gradient of h = drop(x)·Aᵀ
            return (base_grad(g), drop(hg @ at.T).reshape(xv.shape),
                    (drop(rows).T @ hg).T, (h.T @ gs).T)

        parents = (x, x, ad.a, ad.b)
        saved = (h, at, bt) if f is None else (h, at, bt, f)
    dtype = np.float64 if xv.dtype == w.dtype == np.float64 else np.float32
    return op_output(y.reshape(*xv.shape[:-1], d_out), parents, grad_fn, saved=saved, dtype=dtype)


def merge(layer: FrozenLinear) -> np.ndarray:
    """Fold the adapter into a dense full-precision weight W' = W + s * B A."""
    w = dequantize(layer.q, np.float64)
    ba = layer.adapter.b.value.astype(np.float64) @ layer.adapter.a.value.astype(np.float64)
    return (w + layer.adapter.scaling * ba).astype(np.float32)


# ---------------------------------------------------------------------------
# adapter checkpoint: u32 r, f32 alpha, u32 layer count, then per layer its
# name, its precision tag ("full" or "double"), and A and B as shaped arrays
# in that precision (f32 or f64), so a full-precision file ends with B's last f32
# ---------------------------------------------------------------------------

_LORA = (b"LORA", 3)


def dumps_adapters(layers: list[FrozenLinear], cfg: LoraConfig) -> bytes:
    w = Writer(*_LORA)
    w.pack("IfI", cfg.r, cfg.alpha, len(layers))
    for layer in layers:
        w.text(layer.name)
        w.text(layer.dtype)
        for p in (layer.adapter.a, layer.adapter.b):
            w.shape(p.shape)
            w.array(p.value, storage_dtype(layer.dtype))
    return w.getvalue()


def loads_adapters(data: bytes) -> dict:
    """Parse an adapter checkpoint into {layer name: (A, B)} plus header info."""
    r = Reader(data, *_LORA)
    rank, alpha, n_layers = r.unpack("IfI")
    weights = {}
    for _ in range(n_layers):
        name = r.text()
        precision = r.text()
        r.expect(precision in (FULL, DOUBLE), f"layer {name!r}: unknown precision {precision!r}")
        a = r.array(storage_dtype(precision), r.shape())
        b = r.array(storage_dtype(precision), r.shape())
        r.expect(a.ndim == b.ndim == 2 and a.shape[0] == rank == b.shape[1],
                 f"layer {name!r}: A {a.shape} and B {b.shape} are not rank-{rank} factors")
        weights[name] = (a, b)
    r.done()
    return {"r": rank, "alpha": alpha, "weights": weights}


def apply_adapter_state(layers: list[FrozenLinear], cfg: LoraConfig, state: dict):
    """Load saved A/B matrices into the adapters `cfg` configures, layer by layer.
    The file must hold the same rank, alpha (as its f32), layers and precision:
    anything else would run at another scaling or round the saved values."""
    if state["r"] != cfg.r or state["alpha"] != float(np.float32(cfg.alpha)):
        raise FormatError(f"adapter checkpoint has rank {state['r']}, alpha {state['alpha']}; "
                          f"the model expects rank {cfg.r}, alpha {cfg.alpha}")
    weights = state["weights"]
    extra = sorted(set(weights) - {layer.name for layer in layers})
    if extra:
        raise FormatError(f"adapter checkpoint has layers the model lacks: {extra}")
    for layer in layers:
        if layer.name not in weights:
            raise FormatError(f"adapter checkpoint missing layer {layer.name!r}")
        a, b = weights[layer.name]
        if a.dtype != storage_dtype(layer.dtype):
            raise FormatError(f"adapter checkpoint layer {layer.name!r} is {a.dtype}; "
                              f"the model is {layer.dtype}")
        ad = layer.adapter
        if a.shape != ad.a.value.shape or b.shape != ad.b.value.shape:
            raise FormatError(f"adapter checkpoint layer {layer.name!r} has A {a.shape}, B {b.shape}; "
                              f"the model expects {ad.a.value.shape}, {ad.b.value.shape}")
        ad.a.assign(a)
        ad.b.assign(b)
