"""Tiny decoder-only transformer built on QLoRA's frozen-linear op.

A block's six linear layers are `lora.FrozenLinear`s, frozen 4-bit bases that
each run as one `lora.forward` node; Q/K/V/O carry trainable low-rank adapters,
the MLP's two none. The token embedding (tied to the output head) and the
norms' gains remain trainable in the model's precision. Rotary position
mixing, pre-norm blocks, GELU MLP. Each norm is RMS layer normalization with a
gain and no bias, as in Qwen2, at eps 1e-5 where Qwen2 uses 1e-6. The model's
precision is fixed when it is built or loaded. `forward` and `loss` take one
sequence or a batch of equal-length sequences; dropout runs exactly when they
get an rng. With `checkpointing`, each block keeps what its linear layers
and norms keep, but not what attention and GELU keep for backward, which
reruns those two ops instead (selective recomputation, Korthikanti et al.
2022, arXiv 2205.05198, §5). Under `no_grad`, `forward` also continues the
rows of a `KVCache` (`kv_cache`), which holds each layer's rotated keys and
values, so greedy decoding feeds only new tokens. Such a cached forward
computes only what its last-position logits need: every block writes K and
V at all fed positions, but the last block's queries, attention output, MLP
and the final norm run at each row's last position alone.

`_assemble` alone lays out, names and freezes a model's tensors: `build` and
`load_model` supply the values, and the inventory reads the objects' names.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import lora
from .binfmt import Reader, Writer
from .errors import ConfigError, ContractError, FormatError
from .lora import FrozenLinear, LoraConfig
from .numcore import (
    DOUBLE,
    FULL,
    GradNode,
    KVCache,
    Parameter,
    Rng,
    add,
    causal_attention,
    checkpoint,
    constant,
    gather_rows,
    gelu,
    grad_enabled,
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
    ln2_g: Parameter

    def frozen(self) -> tuple[FrozenLinear, ...]:
        return (self.q, self.k, self.v, self.o, self.w1, self.w2)

    def adapted(self) -> tuple[FrozenLinear, ...]:
        return tuple(layer for layer in self.frozen() if layer.adapter is not None)

    def norms(self) -> tuple[Parameter, ...]:
        return (self.ln1_g, self.ln2_g)


def _rope_tables(max_len: int, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(head_dim // 2, dtype=np.float64)[None, :]
    theta = pos / (ROPE_BASE ** (2.0 * idx / head_dim))
    return np.cos(theta), np.sin(theta)


class TransformerModel:
    def __init__(self, cfg: ModelConfig, embedding: Parameter, blocks: list[Block],
                 lnf_g: Parameter):
        self.cfg = cfg
        self.embedding = embedding
        self.blocks = blocks
        self.lnf_g = lnf_g
        self.rope = _rope_tables(cfg.max_seq_len, cfg.head_dim)

    # -- parameter bookkeeping ------------------------------------------------

    def adapted_layers(self) -> list[FrozenLinear]:
        return [layer for blk in self.blocks for layer in blk.adapted()]

    def frozen_tensors(self) -> list[tuple[str, QuantizedTensor]]:
        return [(w.name, w.q) for blk in self.blocks for w in blk.frozen()]

    def masters(self) -> list[Parameter]:
        """Trainable parameters other than the adapters: embedding and norms."""
        return [self.embedding, *(p for blk in self.blocks for p in blk.norms()), self.lnf_g]

    def trainable_parameters(self) -> list[tuple[str, Parameter]]:
        """(name, parameter) in the order the optimizer and the gradient-norm sum follow."""
        params = [self.embedding]
        for blk in self.blocks:
            params += blk.norms()
            params += [p for layer in blk.adapted() for p in (layer.adapter.a, layer.adapter.b)]
        params.append(self.lnf_g)
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

    def _block(self, blk: Block, i: int, x: GradNode, rng, cache: KVCache | None,
               checkpointing: bool) -> GradNode:
        cfg = self.cfg
        # with a cache, the last block's output reaches only the head, which
        # reads each row's last position: past K and V, the block runs there alone
        tail = cache is not None and i == cfg.n_layers - 1
        run = checkpoint if checkpointing else (lambda fn, *xs: fn(*xs))

        def attend(q, k, v):
            return causal_attention(q, k, v, cfg.n_heads, self.rope, cache)

        h = layer_norm(x, blk.ln1_g)
        sub = rng.split("block", i) if rng is not None else None
        k = lora.forward(blk.k, h, sub.split("k") if sub else None)
        v = lora.forward(blk.v, h, sub.split("v") if sub else None)
        if tail:
            x, h = (constant(a.value[:, -1:], cfg.dtype) for a in (x, h))
        q = lora.forward(blk.q, h, sub.split("q") if sub else None)
        x = add(x, lora.forward(blk.o, run(attend, q, k, v), sub.split("o") if sub else None))
        h2 = layer_norm(x, blk.ln2_g)
        return add(x, lora.forward(blk.w2, run(gelu, lora.forward(blk.w1, h2))))

    def kv_cache(self, batch: int) -> KVCache:
        """An empty cache for `batch` rows of tape-free decoding (see `forward`):
        per layer the rotated keys and the values [batch, H, max_seq_len,
        head_dim] in the model's precision, and no positions held yet."""
        cfg = self.cfg
        dtype = storage_dtype(cfg.dtype)
        shape = (cfg.n_layers, batch, cfg.n_heads, cfg.max_seq_len, cfg.head_dim)
        return KVCache(np.zeros(shape, dtype), np.zeros(shape, dtype),
                       np.zeros(batch, dtype=np.int64))

    def forward(self, tokens, rng: Rng | None = None,
                checkpointing: bool = False, cache: KVCache | None = None) -> GradNode:
        """Logits [T x vocab] for token ids [T], or [B x T x vocab] for a batch
        [B x T]. Dropout only when `rng` is given: each adapted projection
        draws one mask over the whole [B x T x d] input from its split of it.
        With `checkpointing`, every block runs `causal_attention` and `gelu`
        under `checkpoint`, so backward reruns them rather than holding their
        weights, rotated queries and keys, and tanh; gradients stay bit-identical.

        With a `cache` of B rows (under `no_grad` only), ids [B x T] continue
        them: row b's tokens take positions `cache.lengths[b]` onwards, attend
        over what the row holds, and are added to it. The result is then
        each row's last-position logits [B x vocab], and only they are
        computed: past its K and V, the last block runs at each row's last
        position, [B x 1 x d], and so do the final norm and the head."""
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim not in (1, 2) or ids.size == 0:
            raise ContractError(f"forward expects non-empty [T] or [B x T] ids, got shape {ids.shape}")
        t_len = ids.shape[-1]
        held = 0 if cache is None else cache.lengths.max(initial=0)
        if held + t_len > self.cfg.max_seq_len:
            raise ContractError(f"sequence length {held + t_len} exceeds max_seq_len {self.cfg.max_seq_len}")
        if cache is not None:
            if grad_enabled():
                raise ContractError("a K/V cache is for tape-free decoding: run forward under no_grad")
            if ids.shape[:-1] != cache.lengths.shape:
                raise ContractError(f"ids {ids.shape} do not continue a cache of {cache.lengths.size} rows")

        x = gather_rows(self.embedding, ids)  # rejects ids outside the vocab
        for i, blk in enumerate(self.blocks):
            x = self._block(blk, i, x, rng, None if cache is None else cache.layer(i),
                            checkpointing)

        x = layer_norm(x, self.lnf_g)
        if cache is not None:
            cache.lengths += t_len
            x = constant(x.value[:, 0], self.cfg.dtype)  # [B x 1 x d] -> [B x d]
        return matmul(x, transpose(self.embedding))

    def loss(self, window, rng: Rng | None = None,
             checkpointing: bool = False) -> GradNode:
        """Mean next-token NLL over a window [T+1] or a batch of windows [B x T+1]
        (the mean over all B*T targets); inputs window[..., :-1], targets window[..., 1:]."""
        window = np.asarray(window, dtype=np.int64)
        if window.ndim not in (1, 2) or window.shape[-1] < 2:
            raise ContractError("loss needs windows of at least 2 tokens")
        logits = self.forward(window[..., :-1], rng=rng, checkpointing=checkpointing)
        return softmax_cross_entropy(logits, window[..., 1:])

    def forward_ids(self, ids, cache: KVCache | None = None) -> np.ndarray:
        """Evaluation-mode logits as a plain array, with no tape built: [T x vocab]
        for ids [T], or with a `cache` each row's last-position logits [B x vocab]
        for the ids [B x T] that continue it (see `forward`)."""
        with no_grad():
            return self.forward(ids, cache=cache).value


def _assemble(cfg: ModelConfig, base, master, adapted) -> TransformerModel:
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
            param(pre + "ln1_g", (d,), 1.0), param(pre + "ln2_g", (d,), 1.0),
        ))
    return TransformerModel(cfg, param("embedding", (cfg.vocab_size, d)), blocks,
                            param("lnf_g", (d,), 1.0))


def build(cfg: ModelConfig, rng: Rng) -> TransformerModel:
    """Initialize, quantize the linear bases, and wrap Q/K/V/O with adapters."""

    def base(name, shape) -> QuantizedTensor:
        w = rng.split("init", name).normal(shape, std=INIT_STD).astype(np.float32)
        return quantize(w, QUANT_BLOCK_SIZE, double_quant=DOUBLE_QUANT)

    def master(name, shape, fill) -> np.ndarray:
        return rng.split(name).normal(shape, std=INIT_STD) if fill is None else np.full(shape, fill)

    def adapted(name, q, i, tag) -> FrozenLinear:
        return lora.attach(q, cfg.lora, rng.split("lora", i, tag), name=name, dtype=cfg.dtype)

    return _assemble(cfg, base, master, adapted)


# model checkpoint: config JSON, a u32 count and that many (name, QNF4 blob)
# frozen weights, then a u32 count and that many (name, shape, array) masters
# in the model's storage precision (f32 for full, f64 for double). Adapters
# live in their own LORA file.

_DMDL = (b"DMDL", 6)


def save_model(model: TransformerModel, path):
    w = Writer(*_DMDL)
    w.text(json.dumps(model.cfg.to_dict(), sort_keys=True))
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
        return lora.with_adapter(q, cfg.lora, np.zeros((cfg.lora.r, q.shape[1])), name, cfg.dtype)

    model = _assemble(cfg, lambda name, shape: take(frozen, name, shape),
                      lambda name, shape, _fill: take(masters, name, shape), adapted)
    r.expect(not frozen and not masters, f"unexpected tensors {sorted([*frozen, *masters])}")
    return model
