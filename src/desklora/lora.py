"""Low-rank adapters over frozen quantized linear layers.

The adapted weight is W + (alpha/r) * B @ A with W held as a 4-bit
QuantizedTensor that never receives gradients. B starts at zero so a freshly
attached adapter is an exact identity perturbation. An `eq1_literal` switch
drops the alpha/r factor for fidelity experiments with the bare h = W + BA
form.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .binfmt import Reader, Writer
from .errors import ConfigError, DimensionError, FormatError
from .numcore import DOUBLE, FULL, GradNode, Parameter, Rng, Tensor, add, dropout, matmul, scale, transpose
from .quant import QuantizedTensor, dequantize
from .util import from_known_keys


@dataclass
class LoraConfig:
    r: int = 8
    alpha: float = 32.0
    dropout: float = 0.05
    eq1_literal: bool = False  # drop the alpha/r factor

    def __post_init__(self):
        if self.r <= 0:
            raise ConfigError(f"rank must be positive, got {self.r}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def scaling(self) -> float:
        return 1.0 if self.eq1_literal else self.alpha / self.r

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LoraConfig":
        return from_known_keys(cls, d)


class FrozenWeight:
    """Quantized constant with a per-precision dequantization cache."""

    __slots__ = ("q", "_cache")

    def __init__(self, q: QuantizedTensor):
        self.q = q
        self._cache: dict = {}

    def node(self, dtype: str) -> GradNode:
        if dtype not in self._cache:
            np_dtype = np.float64 if dtype == DOUBLE else np.float32
            self._cache[dtype] = GradNode(Tensor(dequantize(self.q, np_dtype), dtype))
        return self._cache[dtype]


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
    _frozen: FrozenWeight = field(init=False, repr=False)

    def __post_init__(self):
        self._frozen = FrozenWeight(self.base)

    @property
    def d_out(self) -> int:
        return self.base.shape[0]

    @property
    def d_in(self) -> int:
        return self.base.shape[1]

    def base_weight(self, dtype: str = FULL) -> GradNode:
        """Dequantized base as a gradient-free constant, cached per precision."""
        return self._frozen.node(dtype)


def attach(base: QuantizedTensor, cfg: LoraConfig, rng: Rng, name: str = "") -> AdaptedLinear:
    """Wrap a frozen quantized weight with a zero-initialized adapter."""
    if len(base.shape) != 2:
        raise ConfigError(f"adapters attach to 2-D weights, got shape {base.shape}")
    d_out, d_in = base.shape
    if cfg.r > min(d_in, d_out):
        raise ConfigError(f"rank {cfg.r} exceeds min(d_in={d_in}, d_out={d_out})")
    a = Parameter(
        Tensor(rng.split("lora_a").normal((cfg.r, d_in), std=1.0 / np.sqrt(cfg.r)), FULL),
        name=f"{name}.lora_a" if name else "lora_a",
    )
    b = Parameter(Tensor(np.zeros((d_out, cfg.r)), FULL), name=f"{name}.lora_b" if name else "lora_b")
    adapter = LoraAdapter(a=a, b=b, scaling=cfg.scaling, dropout=cfg.dropout)
    return AdaptedLinear(base=base, adapter=adapter, name=name)


def forward(
    layer: AdaptedLinear,
    x: GradNode,
    train_mode: bool = False,
    rng: Rng | None = None,
    dtype: str = FULL,
) -> GradNode:
    """y = dequantize(W) x + scaling * B (A dropout(x)), row-major batched."""
    if x.value.shape[-1] != layer.d_in:
        raise DimensionError(
            f"{layer.name or 'adapted linear'}: input width {x.value.shape[-1]} != d_in {layer.d_in}"
        )
    w = layer.base_weight(dtype)
    y = matmul(x, transpose(w))
    ad = layer.adapter
    xd = dropout(x, ad.dropout, rng, train_mode)
    branch = matmul(matmul(xd, transpose(ad.a)), transpose(ad.b))
    return add(y, scale(branch, ad.scaling))


def merge(layer: AdaptedLinear) -> np.ndarray:
    """Fold the adapter into a dense full-precision weight W' = W + s * B A."""
    w = dequantize(layer.base, np.float64)
    ba = layer.adapter.b.value.data.astype(np.float64) @ layer.adapter.a.value.data.astype(np.float64)
    return (w + layer.adapter.scaling * ba).astype(np.float32)


def trainable_fraction(adapted_layers, extra_trainable: int = 0, extra_frozen: int = 0) -> float:
    """Adapter parameters over all parameters, counting frozen base elements."""
    adapter_params = sum(layer.adapter.n_params for layer in adapted_layers)
    base_params = sum(layer.base.numel for layer in adapted_layers)
    total = adapter_params + base_params + extra_trainable + extra_frozen
    return adapter_params / total if total else 0.0


# ---------------------------------------------------------------------------
# adapter checkpoint: per layer a name, then A and B as shaped f32 arrays
# ---------------------------------------------------------------------------

_LORA = (b"LORA", 2)


def dumps_adapters(layers: list[AdaptedLinear], cfg: LoraConfig) -> bytes:
    w = Writer(*_LORA)
    w.pack("IfI", cfg.r, cfg.alpha, len(layers))
    for layer in layers:
        w.text(layer.name)
        for mat in (layer.adapter.a.value.data, layer.adapter.b.value.data):
            w.shape(mat.shape)
            w.array(mat, "<f4")
    return w.getvalue()


def loads_adapters(data: bytes) -> dict:
    """Parse an adapter checkpoint into {layer name: (A, B)} plus header info."""
    r = Reader(data, *_LORA)
    rank, alpha, n_layers = r.unpack("IfI")
    weights = {}
    for _ in range(n_layers):
        name = r.text()
        a = r.array("<f4", r.shape())
        b = r.array("<f4", r.shape())
        r.expect(a.ndim == b.ndim == 2 and a.shape[0] == rank == b.shape[1],
                 f"layer {name!r}: A {a.shape} and B {b.shape} are not rank-{rank} factors")
        weights[name] = (a, b)
    r.done()
    return {"r": rank, "alpha": alpha, "weights": weights}


def apply_adapter_state(layers: list[AdaptedLinear], state: dict):
    """Load saved A/B matrices into matching layers by name."""
    weights = state["weights"]
    for layer in layers:
        if layer.name not in weights:
            raise FormatError(f"adapter checkpoint missing layer {layer.name!r}")
        a, b = weights[layer.name]
        ad = layer.adapter
        if a.shape != ad.a.value.shape or b.shape != ad.b.value.shape:
            raise FormatError(f"adapter checkpoint layer {layer.name!r} has A {a.shape}, B {b.shape}; "
                              f"the model expects {ad.a.value.shape}, {ad.b.value.shape}")
        ad.a.assign(Tensor(a, FULL))
        ad.b.assign(Tensor(b, FULL))
