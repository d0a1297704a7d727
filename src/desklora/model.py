"""Tiny decoder-only transformer with adapter-wrapped attention projections.

All linear weights are frozen as blockwise 4-bit tensors at build time; the
Q/K/V/O projections carry trainable low-rank adapters, the MLP stays fully
frozen, and the token embedding (tied to the output head), layer-norm gains
and biases remain trainable in full precision. Rotary position mixing,
pre-norm blocks, GELU MLP. An additive pre-softmax attention bias can
emphasize keys whose token carries a combining diacritic: the model keeps one
diacritic flag per token id, and its precision is fixed when it is built or
loaded. Dropout runs exactly when `forward` gets an rng.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import lora
from .binfmt import Reader, Writer
from .errors import ConfigError, ContractError, FormatError
from .lora import AdaptedLinear, FrozenWeight, LoraAdapter, LoraConfig
from .numcore import (
    DOUBLE,
    FULL,
    REDUCED,
    GradNode,
    Parameter,
    Rng,
    Tensor,
    add,
    astype,
    causal_attention,
    checkpoint,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    no_grad,
    softmax_cross_entropy,
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
        if isinstance(self.lora, dict):
            self.lora = LoraConfig.from_dict(self.lora)

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
    q: AdaptedLinear
    k: AdaptedLinear
    v: AdaptedLinear
    o: AdaptedLinear
    w1: FrozenWeight  # [d_ffn x d_model]
    w2: FrozenWeight  # [d_model x d_ffn]
    ln1_g: Parameter
    ln1_b: Parameter
    ln2_g: Parameter
    ln2_b: Parameter


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

    def adapted_layers(self) -> list[AdaptedLinear]:
        out = []
        for blk in self.blocks:
            out.extend([blk.q, blk.k, blk.v, blk.o])
        return out

    def frozen_tensors(self) -> list[tuple[str, QuantizedTensor]]:
        out = []
        for i, blk in enumerate(self.blocks):
            for tag, layer in (("q", blk.q), ("k", blk.k), ("v", blk.v), ("o", blk.o)):
                out.append((f"layer{i}.{tag}", layer.base))
            out.append((f"layer{i}.w1", blk.w1.q))
            out.append((f"layer{i}.w2", blk.w2.q))
        return out

    def trainable_parameters(self) -> list[tuple[str, Parameter]]:
        params: list[tuple[str, Parameter]] = [("embedding", self.embedding)]
        for i, blk in enumerate(self.blocks):
            params.append((f"layer{i}.ln1_g", blk.ln1_g))
            params.append((f"layer{i}.ln1_b", blk.ln1_b))
            params.append((f"layer{i}.ln2_g", blk.ln2_g))
            params.append((f"layer{i}.ln2_b", blk.ln2_b))
            for tag, layer in (("q", blk.q), ("k", blk.k), ("v", blk.v), ("o", blk.o)):
                params.append((f"layer{i}.{tag}.lora_a", layer.adapter.a))
                params.append((f"layer{i}.{tag}.lora_b", layer.adapter.b))
        params.append(("lnf_g", self.lnf_g))
        params.append(("lnf_b", self.lnf_b))
        return params

    def parameter_counts(self) -> dict:
        cfg = self.cfg
        adapters = sum(l.adapter.n_params for l in self.adapted_layers())
        frozen = sum(q.numel for _, q in self.frozen_tensors())
        norms = cfg.n_layers * 4 * cfg.d_model + 2 * cfg.d_model
        return {
            "embedding": cfg.vocab_size * cfg.d_model,
            "norms": norms,
            "adapters": adapters,
            "frozen": frozen,
        }

    def trainable_fraction(self) -> float:
        counts = self.parameter_counts()
        return lora.trainable_fraction(
            self.adapted_layers(),
            extra_trainable=counts["embedding"] + counts["norms"],
            extra_frozen=sum(q.numel for name, q in self.frozen_tensors() if "w" in name),
        )

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
            m = matmul(h2, transpose(blk.w1.node()))
            m = gelu(m)
            m = matmul(m, transpose(blk.w2.node()))
            return add(x, m)

        return run

    def key_bias(self, ids: np.ndarray) -> np.ndarray | None:
        """Pre-softmax bias per key position, or None when no position gets one."""
        if self.cfg.diacritic_bias == 0.0:
            return None
        flagged = self.diacritic_flags[ids]
        return self.cfg.diacritic_bias * flagged if flagged.any() else None

    def forward(self, tokens, rng: Rng | None = None, mixed: bool = False,
                checkpointing: bool = False) -> GradNode:
        """Logits [T x vocab] for a token id sequence; dropout only when `rng` is given."""
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ContractError(f"forward expects a non-empty 1-D id sequence, got shape {ids.shape}")
        if ids.size > self.cfg.max_seq_len:
            raise ContractError(f"sequence length {ids.size} exceeds max_seq_len {self.cfg.max_seq_len}")

        x = gather_rows(self.embedding, ids)  # rejects ids outside the vocab
        key_bias = self.key_bias(ids)
        if mixed:
            x = astype(x, REDUCED)

        for i, blk in enumerate(self.blocks):
            fn = self._block_fn(blk, i, ids.size, key_bias, rng)
            x = checkpoint(fn, x) if checkpointing else fn(x)

        x = layer_norm(x, self.lnf_g, self.lnf_b)
        return matmul(x, transpose(self.embedding))

    def loss(self, window, rng: Rng | None = None, mixed: bool = False,
             checkpointing: bool = False) -> GradNode:
        """Mean next-token NLL over a window; inputs window[:-1], targets window[1:]."""
        window = np.asarray(window, dtype=np.int64)
        if window.size < 2:
            raise ContractError("loss needs a window of at least 2 tokens")
        logits = self.forward(window[:-1], rng=rng, mixed=mixed, checkpointing=checkpointing)
        return softmax_cross_entropy(logits, window[1:])

    def forward_ids(self, ids) -> np.ndarray:
        """Evaluation-mode logits as a plain array; no tape is built."""
        with no_grad():
            return self.forward(ids).value.data


def build(cfg: ModelConfig, rng: Rng, diacritic_flags=None) -> TransformerModel:
    """Initialize, quantize the linear bases, and wrap Q/K/V/O with adapters.
    `diacritic_flags` (one per token id) may be omitted at zero bias."""
    if diacritic_flags is None:
        if cfg.diacritic_bias != 0.0:
            raise ConfigError("a nonzero diacritic_bias needs the vocabulary's diacritic flags")
        diacritic_flags = np.zeros(cfg.vocab_size, dtype=bool)
    dtype = cfg.dtype
    emb = Parameter(
        Tensor(rng.split("embedding").normal((cfg.vocab_size, cfg.d_model), std=INIT_STD), dtype),
        name="embedding",
    )

    def quantized(tag: str, shape) -> QuantizedTensor:
        w = rng.split("init", tag).normal(shape, std=INIT_STD).astype(np.float32)
        return quantize(w, QUANT_BLOCK_SIZE, double_quant=DOUBLE_QUANT)

    blocks = []
    for i in range(cfg.n_layers):
        adapted = {}
        for tag in ("q", "k", "v", "o"):
            base = quantized(f"layer{i}.{tag}", (cfg.d_model, cfg.d_model))
            adapted[tag] = lora.attach(base, cfg.lora, rng.split("lora", i, tag),
                                       name=f"layer{i}.{tag}", dtype=dtype)
        blocks.append(
            Block(
                q=adapted["q"],
                k=adapted["k"],
                v=adapted["v"],
                o=adapted["o"],
                w1=FrozenWeight(quantized(f"layer{i}.w1", (cfg.d_ffn, cfg.d_model)), dtype),
                w2=FrozenWeight(quantized(f"layer{i}.w2", (cfg.d_model, cfg.d_ffn)), dtype),
                ln1_g=Parameter(Tensor(np.ones(cfg.d_model), dtype), name=f"layer{i}.ln1_g"),
                ln1_b=Parameter(Tensor(np.zeros(cfg.d_model), dtype), name=f"layer{i}.ln1_b"),
                ln2_g=Parameter(Tensor(np.ones(cfg.d_model), dtype), name=f"layer{i}.ln2_g"),
                ln2_b=Parameter(Tensor(np.zeros(cfg.d_model), dtype), name=f"layer{i}.ln2_b"),
            )
        )
    lnf_g = Parameter(Tensor(np.ones(cfg.d_model), dtype), name="lnf_g")
    lnf_b = Parameter(Tensor(np.zeros(cfg.d_model), dtype), name="lnf_b")
    return TransformerModel(cfg, emb, blocks, lnf_g, lnf_b, diacritic_flags)


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



# ---------------------------------------------------------------------------
# embedding initialization from external word vectors
# ---------------------------------------------------------------------------


def init_embeddings_from_vectors(model: TransformerModel, vector_file, tokenizer) -> int:
    """Overwrite embedding rows for vocab tokens found in a word-vector file.

    File format: one line per token, `token v1 v2 ... vd` with d == d_model.
    Returns the number of rows overwritten.
    """
    token_to_id = tokenizer.token_strings()
    emb = model.embedding.value.data.copy()
    d = model.cfg.d_model
    count = 0
    with open(vector_file, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2 or not parts[0]:
                continue
            token, vec = parts[0], parts[1:]
            if len(vec) != d:
                raise ConfigError(
                    f"{vector_file}:{line_no}: vector dim {len(vec)} != d_model {d}"
                )
            if token in token_to_id:
                emb[token_to_id[token]] = np.asarray([float(x) for x in vec], dtype=emb.dtype)
                count += 1
    if count:
        model.embedding.assign(Tensor(emb, model.cfg.dtype))
    return count


# model checkpoint: config JSON, one u8 diacritic flag per token id, f32
# embedding, per layer the q/k/v/o/w1/w2 QNF4 blobs and four f32 norms, then
# the f32 final norm

_DMDL = (b"DMDL", 3)
_NORMS = ("ln1_g", "ln1_b", "ln2_g", "ln2_b")


def save_model(model: TransformerModel, path):
    w = Writer(*_DMDL)
    w.text(json.dumps(model.cfg.to_dict(), sort_keys=True))
    w.array(model.diacritic_flags, "u1")
    w.array(model.embedding.value.data, "<f4")
    for blk in model.blocks:
        for q in (blk.q.base, blk.k.base, blk.v.base, blk.o.base, blk.w1.q, blk.w2.q):
            w.blob(dumps_qnf4(q))
        for tag in _NORMS:
            w.array(getattr(blk, tag).value.data, "<f4")
    w.array(model.lnf_g.value.data, "<f4")
    w.array(model.lnf_b.value.data, "<f4")
    with open(path, "wb") as f:
        f.write(w.getvalue())


def load_model(path) -> TransformerModel:
    """Rebuild a saved model in its saved precision; its adapters start at zero
    (see apply_adapter_state)."""
    with open(path, "rb") as f:
        r = Reader(f.read(), *_DMDL)
    try:
        cfg = ModelConfig.from_dict(json.loads(r.text()))
    except (ValueError, ConfigError) as e:
        raise FormatError(f"{path}: bad model config: {e}") from e
    d, dtype, lcfg = cfg.d_model, cfg.dtype, cfg.lora
    flags = r.array("u1", cfg.vocab_size)
    r.expect(int(flags.max()) <= 1, "diacritic flags must be 0 or 1")

    def master(name: str, shape) -> Parameter:
        return Parameter(Tensor(r.array("<f4", shape), dtype), name=name)

    def base(shape) -> QuantizedTensor:
        q = loads_qnf4(r.blob())
        r.expect(q.shape == shape, f"frozen weight of shape {q.shape} where the config implies {shape}")
        return q

    def adapted(name: str) -> AdaptedLinear:
        a = Parameter(Tensor(np.zeros((lcfg.r, d)), dtype), name=f"{name}.lora_a")
        b = Parameter(Tensor(np.zeros((d, lcfg.r)), dtype), name=f"{name}.lora_b")
        return AdaptedLinear(base((d, d)), LoraAdapter(a, b, lcfg.scaling, lcfg.dropout), name)

    emb = master("embedding", (cfg.vocab_size, d))
    blocks = []
    for i in range(cfg.n_layers):
        q, k, v, o = (adapted(f"layer{i}.{tag}") for tag in "qkvo")
        w1 = FrozenWeight(base((cfg.d_ffn, d)), dtype)
        w2 = FrozenWeight(base((d, cfg.d_ffn)), dtype)
        blocks.append(Block(q, k, v, o, w1, w2, *(master(f"layer{i}.{tag}", (d,)) for tag in _NORMS)))
    model = TransformerModel(cfg, emb, blocks, master("lnf_g", (d,)), master("lnf_b", (d,)), flags)
    r.done()
    return model
