"""Low-rank adapters over frozen quantized linear layers.

The adapted weight is W + (alpha/r) * B @ A with W held as a 4-bit
QuantizedTensor that never receives gradients. B starts at zero so a freshly
attached adapter is an exact identity perturbation. A layer computes in the
precision its adapter was created in (`attach`), which `apply_adapter_state`
keeps and its dequantized base shares; `forward` drops out only given an rng.
The adapter file stores A and B in that precision, so they reload exactly.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .binfmt import Reader, Writer
from .errors import ConfigError, DimensionError, FormatError
from .numcore import (
    DOUBLE, FULL, GradNode, Parameter, Rng, RowRngs, Tensor, add, dropout, matmul, scale,
    storage_dtype, transpose,
)
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


class FrozenWeight:
    """Named quantized constant, dequantized once into one precision on first use."""

    __slots__ = ("q", "dtype", "name", "_node")

    def __init__(self, q: QuantizedTensor, dtype: str, name: str):
        self.q = q
        self.dtype = dtype
        self.name = name
        self._node: GradNode | None = None

    def node(self) -> GradNode:
        if self._node is None:
            self._node = GradNode(Tensor(dequantize(self.q, storage_dtype(self.dtype)), self.dtype))
        return self._node


@dataclass
class LoraAdapter:
    a: Parameter  # [r x d_in]
    b: Parameter  # [d_out x r]
    scaling: float
    dropout: float

    @property
    def n_params(self) -> int:
        return self.a.value.numel + self.b.value.numel


@dataclass
class AdaptedLinear:
    """Frozen quantized base weight plus a trainable low-rank branch."""

    base: QuantizedTensor  # [d_out x d_in]
    adapter: LoraAdapter
    name: str = ""
    frozen: FrozenWeight = field(init=False, repr=False)

    def __post_init__(self):
        self.frozen = FrozenWeight(self.base, self.adapter.a.value.dtype, self.name)

    @property
    def d_out(self) -> int:
        return self.base.shape[0]

    @property
    def d_in(self) -> int:
        return self.base.shape[1]

    def base_weight(self) -> GradNode:
        """Dequantized base as a gradient-free constant in the adapter's precision."""
        return self.frozen.node()


def attach(base: QuantizedTensor, cfg: LoraConfig, rng: Rng, name: str = "",
           dtype: str = FULL) -> AdaptedLinear:
    """Wrap a frozen quantized weight with a zero-initialized adapter in precision
    `dtype`; A is drawn in 32-bit before widening, so every precision starts alike."""
    if len(base.shape) != 2:
        raise ConfigError(f"adapters attach to 2-D weights, got shape {base.shape}")
    d_out, d_in = base.shape
    if cfg.r > min(d_in, d_out):
        raise ConfigError(f"rank {cfg.r} exceeds min(d_in={d_in}, d_out={d_out})")
    a_init = rng.split("lora_a").normal((cfg.r, d_in), std=1.0 / np.sqrt(cfg.r)).astype(np.float32)
    a = Parameter(Tensor(a_init, dtype), name=f"{name}.lora_a" if name else "lora_a")
    b = Parameter(Tensor(np.zeros((d_out, cfg.r)), dtype), name=f"{name}.lora_b" if name else "lora_b")
    adapter = LoraAdapter(a=a, b=b, scaling=cfg.scaling, dropout=cfg.dropout)
    return AdaptedLinear(base=base, adapter=adapter, name=name)


def forward(layer: AdaptedLinear, x: GradNode, rng: Rng | RowRngs | None = None) -> GradNode:
    """y = dequantize(W) x + scaling * B (A dropout(x)) over the rows of x [..., d_in];
    the dropout runs exactly when `rng` is given (see `numcore.dropout`)."""
    if x.value.shape[-1] != layer.d_in:
        raise DimensionError(
            f"{layer.name or 'adapted linear'}: input width {x.value.shape[-1]} != d_in {layer.d_in}"
        )
    y = matmul(x, transpose(layer.base_weight()))
    ad = layer.adapter
    xd = dropout(x, ad.dropout, rng)
    branch = matmul(matmul(xd, transpose(ad.a)), transpose(ad.b))
    return add(y, scale(branch, ad.scaling))


def merge(layer: AdaptedLinear) -> np.ndarray:
    """Fold the adapter into a dense full-precision weight W' = W + s * B A."""
    w = dequantize(layer.base, np.float64)
    ba = layer.adapter.b.value.data.astype(np.float64) @ layer.adapter.a.value.data.astype(np.float64)
    return (w + layer.adapter.scaling * ba).astype(np.float32)


# ---------------------------------------------------------------------------
# adapter checkpoint: u32 r, f32 alpha, u32 layer count, then per layer its
# name, its precision tag ("full" or "double"), and A and B as shaped arrays
# in that precision (f32 or f64), so a full-precision file ends with B's last f32
# ---------------------------------------------------------------------------

_LORA = (b"LORA", 3)


def dumps_adapters(layers: list[AdaptedLinear], cfg: LoraConfig) -> bytes:
    w = Writer(*_LORA)
    w.pack("IfI", cfg.r, cfg.alpha, len(layers))
    for layer in layers:
        precision = layer.adapter.a.value.dtype
        w.text(layer.name)
        w.text(precision)
        for p in (layer.adapter.a, layer.adapter.b):
            w.shape(p.value.shape)
            w.array(p.value.data, storage_dtype(precision))
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


def apply_adapter_state(layers: list[AdaptedLinear], state: dict):
    """Load saved A/B matrices into matching layers by name, in each layer's precision."""
    weights = state["weights"]
    for layer in layers:
        if layer.name not in weights:
            raise FormatError(f"adapter checkpoint missing layer {layer.name!r}")
        a, b = weights[layer.name]
        ad = layer.adapter
        if a.shape != ad.a.value.shape or b.shape != ad.b.value.shape:
            raise FormatError(f"adapter checkpoint layer {layer.name!r} has A {a.shape}, B {b.shape}; "
                              f"the model expects {ad.a.value.shape}, {ad.b.value.shape}")
        ad.a.assign(Tensor(a, ad.a.value.dtype))
        ad.b.assign(Tensor(b, ad.b.value.dtype))
