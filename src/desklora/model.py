"""Tiny decoder-only transformer built on QLoRA's frozen-linear op.

A block's six linear layers are `lora.FrozenLinear`s, frozen 4-bit bases that
each run as one `lora.forward` node; Q/K/V/O carry trainable low-rank adapters,
the MLP's two none. The token embedding (tied to the output head), layer-norm
gains and biases remain trainable in the model's precision. Rotary position
mixing, pre-norm blocks, GELU MLP. An additive pre-softmax attention bias can
emphasize keys whose token carries a combining diacritic: the model keeps one
diacritic flag per token id, and its precision is fixed when it is built or
loaded. `forward` and `loss` take one sequence or a batch of equal-length
sequences; dropout runs exactly when they get an rng.

`_assemble` alone lays out, names and freezes a model's tensors: `build` and
`load_model` supply the values, and the inventory reads the objects' names.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import lora
from .binfmt import Reader, Writer
from .errors import ConfigError, ContractError, FormatError
from .lora import FrozenLinear, LoraAdapter, LoraConfig
from .numcore import (
    DOUBLE,
    FULL,
    GradNode,
    Parameter,
    Rng,
    RowRngs,
    add,
    causal_attention,
    checkpoint,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    no_grad,
    softmax_cross_entropy,
    storage_dtype,
    transpose,
)
from .quant import QuantizedTensor, dumps_qnf4, loads_qnf4, quantize
from .util import from_known_keys

INIT_STD = 0.02
ROPE_BASE = 10000.0
QUANT_BLOCK_SIZE = 64
DOUBLE_QUANT = True


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ffn: int = 256
    max_seq_len: int = 128
    diacritic_bias: float = 0.0
    dtype: str = FULL
    lora: LoraConfig = field(default_factory=LoraConfig)

    def __post_init__(self):
        if self.vocab_size <= 0:
            raise ConfigError(f"vocab_size must be positive, got {self.vocab_size}")
        if self.max_seq_len < 1:
            raise ConfigError(f"max_seq_len must be >= 1, got {self.max_seq_len}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ConfigError("head dimension must be even for rotary mixing")
        if self.dtype not in (FULL, DOUBLE):
            raise ConfigError(f"model dtype must be full or double, got {self.dtype!r}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return from_known_keys(cls, d)


@dataclass
class Block:
    q: FrozenLinear
    k: FrozenLinear
    v: FrozenLinear
    o: FrozenLinear
    w1: FrozenLinear  # [d_ffn x d_model], no adapter
    w2: FrozenLinear  # [d_model x d_ffn], no adapter
    ln1_g: Parameter
    ln1_b: Parameter
    ln2_g: Parameter
    ln2_b: Parameter

    def frozen(self) -> tuple[FrozenLinear, ...]:
        return (self.q, self.k, self.v, self.o, self.w1, self.w2)

    def adapted(self) -> tuple[FrozenLinear, ...]:
        return tuple(layer for layer in self.frozen() if layer.adapter is not None)

    def norms(self) -> tuple[Parameter, ...]:
        return (self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b)


def _rope_tables(max_len: int, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(head_dim // 2, dtype=np.float64)[None, :]
    theta = pos / (ROPE_BASE ** (2.0 * idx / head_dim))
    return np.cos(theta), np.sin(theta)


class TransformerModel:
    def __init__(self, cfg: ModelConfig, embedding: Parameter, blocks: list[Block],
                 lnf_g: Parameter, lnf_b: Parameter, diacritic_flags):
        self.cfg = cfg
        self.embedding = embedding
        self.blocks = blocks
        self.lnf_g = lnf_g
        self.lnf_b = lnf_b
        self.diacritic_flags = np.asarray(diacritic_flags, dtype=bool)
        if self.diacritic_flags.shape != (cfg.vocab_size,):
            raise ConfigError(f"{self.diacritic_flags.shape} diacritic flags for vocab {cfg.vocab_size}")
        self.rope = _rope_tables(cfg.max_seq_len, cfg.head_dim)

    # -- parameter bookkeeping ------------------------------------------------

    def adapted_layers(self) -> list[FrozenLinear]:
        return [layer for blk in self.blocks for layer in blk.adapted()]

    def frozen_tensors(self) -> list[tuple[str, QuantizedTensor]]:
        return [(w.name, w.q) for blk in self.blocks for w in blk.frozen()]

    def masters(self) -> list[Parameter]:
        """Trainable parameters other than the adapters: embedding and norms."""
        return [self.embedding, *(p for blk in self.blocks for p in blk.norms()),
                self.lnf_g, self.lnf_b]

    def trainable_parameters(self) -> list[tuple[str, Parameter]]:
        """(name, parameter) in the order the optimizer and the gradient-norm sum follow."""
        params = [self.embedding]
        for blk in self.blocks:
            params += blk.norms()
            params += [p for layer in blk.adapted() for p in (layer.adapter.a, layer.adapter.b)]
        params += [self.lnf_g, self.lnf_b]
        return [(p.name, p) for p in params]

    def trainable_fraction(self) -> float:
        """Elements the optimizer updates (adapters, embedding and norms) over
        all elements, frozen bases included."""
        trained = sum(p.value.size for _, p in self.trainable_parameters())
        return trained / (trained + sum(q.numel for _, q in self.frozen_tensors()))

    def base_bytes(self) -> bytes:
        """Serialized frozen weights; byte-stable across training."""
        return b"".join(dumps_qnf4(q) for _, q in self.frozen_tensors())

    def zero_grads(self):
        for _, p in self.trainable_parameters():
            p.zero_grad()

    # -- forward --------------------------------------------------------------

    def _block_fn(self, blk: Block, i: int, t_len: int, key_bias, rng):
        cos, sin = self.rope
        rope = (cos[:t_len], sin[:t_len])
        cfg = self.cfg

        def run(x: GradNode) -> GradNode:
            h = layer_norm(x, blk.ln1_g, blk.ln1_b)
            sub = rng.split("block", i) if rng is not None else None
            q = lora.forward(blk.q, h, sub.split("q") if sub else None)
            k = lora.forward(blk.k, h, sub.split("k") if sub else None)
            v = lora.forward(blk.v, h, sub.split("v") if sub else None)
            attn = causal_attention(q, k, v, cfg.n_heads, rope, key_bias)
            x = add(x, lora.forward(blk.o, attn, sub.split("o") if sub else None))
            h2 = layer_norm(x, blk.ln2_g, blk.ln2_b)
            return add(x, lora.forward(blk.w2, gelu(lora.forward(blk.w1, h2))))

        return run

    def key_bias(self, ids: np.ndarray) -> np.ndarray | None:
        """Pre-softmax bias per key position (ids' shape), or None when no position gets one."""
        if self.cfg.diacritic_bias == 0.0:
            return None
        flagged = self.diacritic_flags[ids]
        return self.cfg.diacritic_bias * flagged if flagged.any() else None

    def forward(self, tokens, rng: Rng | RowRngs | None = None,
                checkpointing: bool = False) -> GradNode:
        """Logits [T x vocab] for token ids [T], or [B x T x vocab] for a batch
        [B x T]. Dropout only when `rng` is given; with a `RowRngs` of one
        stream per row, row b's masks are those its stream gives the [T] row alone."""
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim not in (1, 2) or ids.size == 0:
            raise ContractError(f"forward expects non-empty [T] or [B x T] ids, got shape {ids.shape}")
        t_len = ids.shape[-1]
        if t_len > self.cfg.max_seq_len:
            raise ContractError(f"sequence length {t_len} exceeds max_seq_len {self.cfg.max_seq_len}")

        x = gather_rows(self.embedding, ids)  # rejects ids outside the vocab
        key_bias = self.key_bias(ids)

        for i, blk in enumerate(self.blocks):
            fn = self._block_fn(blk, i, t_len, key_bias, rng)
            x = checkpoint(fn, x) if checkpointing else fn(x)

        x = layer_norm(x, self.lnf_g, self.lnf_b)
        return matmul(x, transpose(self.embedding))

    def loss(self, window, rng: Rng | RowRngs | None = None,
             checkpointing: bool = False) -> GradNode:
        """Mean next-token NLL over a window [T+1] or a batch of windows [B x T+1]
        (the mean over all B*T targets); inputs window[..., :-1], targets window[..., 1:]."""
        window = np.asarray(window, dtype=np.int64)
        if window.ndim not in (1, 2) or window.shape[-1] < 2:
            raise ContractError("loss needs windows of at least 2 tokens")
        logits = self.forward(window[..., :-1], rng=rng, checkpointing=checkpointing)
        return softmax_cross_entropy(logits, window[..., 1:])

    def forward_ids(self, ids) -> np.ndarray:
        """Evaluation-mode logits [T x vocab] for ids [T] as a plain array; no tape is built."""
        with no_grad():
            return self.forward(ids).value


def _assemble(cfg: ModelConfig, flags, base, master, adapted) -> TransformerModel:
    """Lay out a model's named tensors in its precision. `base(name, shape)` gives a
    frozen QuantizedTensor; `master(name, shape, fill)` the values of a trainable
    non-adapter tensor, `fill` being the constant a fresh norm starts at (None for
    the embedding); `adapted(name, base, i, tag)` projection `tag` of block `i`.
    """
    d, dtype = cfg.d_model, cfg.dtype

    def param(name, shape, fill=None) -> Parameter:
        return Parameter(master(name, shape, fill), dtype, name=name)

    def frozen(name, shape) -> FrozenLinear:
        return FrozenLinear(name, base(name, shape), dtype)

    blocks = []
    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        q, k, v, o = (adapted(pre + tag, base(pre + tag, (d, d)), i, tag) for tag in "qkvo")
        blocks.append(Block(
            q, k, v, o, frozen(pre + "w1", (cfg.d_ffn, d)), frozen(pre + "w2", (d, cfg.d_ffn)),
            param(pre + "ln1_g", (d,), 1.0), param(pre + "ln1_b", (d,), 0.0),
            param(pre + "ln2_g", (d,), 1.0), param(pre + "ln2_b", (d,), 0.0),
        ))
    return TransformerModel(cfg, param("embedding", (cfg.vocab_size, d)), blocks,
                            param("lnf_g", (d,), 1.0), param("lnf_b", (d,), 0.0), flags)


def build(cfg: ModelConfig, rng: Rng, diacritic_flags=None) -> TransformerModel:
    """Initialize, quantize the linear bases, and wrap Q/K/V/O with adapters.
    `diacritic_flags` (one per token id) may be omitted at zero bias."""
    if diacritic_flags is None:
        if cfg.diacritic_bias != 0.0:
            raise ConfigError("a nonzero diacritic_bias needs the vocabulary's diacritic flags")
        diacritic_flags = np.zeros(cfg.vocab_size, dtype=bool)

    def base(name, shape) -> QuantizedTensor:
        w = rng.split("init", name).normal(shape, std=INIT_STD).astype(np.float32)
        return quantize(w, QUANT_BLOCK_SIZE, double_quant=DOUBLE_QUANT)

    def master(name, shape, fill) -> np.ndarray:
        return rng.split(name).normal(shape, std=INIT_STD) if fill is None else np.full(shape, fill)

    def adapted(name, q, i, tag) -> FrozenLinear:
        return lora.attach(q, cfg.lora, rng.split("lora", i, tag), name=name, dtype=cfg.dtype)

    return _assemble(cfg, diacritic_flags, base, master, adapted)


# ---------------------------------------------------------------------------
# diacritic flags
# ---------------------------------------------------------------------------

# U+064B..U+065F encode as 0xD9 0x8B..0x9F; U+0670 as 0xD9 0xB0. 0xD9 is always
# a lead byte in UTF-8, so a byte-pair scan is exact.
def token_has_diacritic(token_bytes: bytes) -> bool:
    for j in range(len(token_bytes) - 1):
        if token_bytes[j] == 0xD9:
            nxt = token_bytes[j + 1]
            if 0x8B <= nxt <= 0x9F or nxt == 0xB0:
                return True
    return False



# model checkpoint: config JSON, one u8 diacritic flag per token id, a u32
# count and that many (name, QNF4 blob) frozen weights, then a u32 count and
# that many (name, shape, array) masters in the model's storage precision (f32
# for full, f64 for double). Adapters live in their own LORA file.

_DMDL = (b"DMDL", 4)


def save_model(model: TransformerModel, path):
    w = Writer(*_DMDL)
    w.text(json.dumps(model.cfg.to_dict(), sort_keys=True))
    w.array(model.diacritic_flags, "u1")
    frozen = model.frozen_tensors()
    w.pack("I", len(frozen))
    for name, q in frozen:
        w.text(name)
        w.blob(dumps_qnf4(q))
    masters = model.masters()
    w.pack("I", len(masters))
    for p in masters:
        w.text(p.name)
        w.shape(p.value.shape)
        w.array(p.value, storage_dtype(model.cfg.dtype))
    with open(path, "wb") as f:
        f.write(w.getvalue())


def load_model(path) -> TransformerModel:
    """Rebuild a saved model in its saved precision; its adapters start at zero
    (see apply_adapter_state). A tensor the layout lacks, misses or shapes
    otherwise is a FormatError."""
    with open(path, "rb") as f:
        r = Reader(f.read(), *_DMDL)
    try:
        cfg = ModelConfig.from_dict(json.loads(r.text()))
    except (ValueError, ConfigError) as e:
        raise FormatError(f"{path}: bad model config: {e}") from e
    flags = r.array("u1", cfg.vocab_size)
    r.expect(int(flags.max()) <= 1, "diacritic flags must be 0 or 1")

    def named(read) -> dict:
        (count,) = r.unpack("I")
        out = {}
        for _ in range(count):
            name = r.text()
            r.expect(name not in out, f"tensor {name!r} appears twice")
            out[name] = read()
        return out

    frozen = named(lambda: loads_qnf4(r.blob()))
    masters = named(lambda: r.array(storage_dtype(cfg.dtype), r.shape()))
    r.done()

    def take(table: dict, name: str, shape):
        r.expect(name in table, f"no tensor named {name!r}")
        x = table.pop(name)
        r.expect(tuple(x.shape) == shape,
                 f"{name!r} has shape {tuple(x.shape)} where the config implies {shape}")
        return x

    def adapted(name, q, _i, _tag) -> FrozenLinear:
        (d_out, d_in), lcfg = q.shape, cfg.lora
        a = Parameter(np.zeros((lcfg.r, d_in)), cfg.dtype, name=f"{name}.lora_a")
        b = Parameter(np.zeros((d_out, lcfg.r)), cfg.dtype, name=f"{name}.lora_b")
        return FrozenLinear(name, q, cfg.dtype, LoraAdapter(a, b, lcfg.scaling, lcfg.dropout))

    model = _assemble(cfg, flags, lambda name, shape: take(frozen, name, shape),
                      lambda name, shape, _fill: take(masters, name, shape), adapted)
    r.expect(not frozen and not masters, f"unexpected tensors {sorted([*frozen, *masters])}")
    return model
