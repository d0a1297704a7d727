"""Shared fixtures: a deterministic synthetic Arabic corpus generator used by
preprocessing sweeps, the training-loop tests, and the acceptance suite;
shards written with the ids a tokenizer's `encode` gives; the merge-agreement
check that `test_lora` and C04 share; the base of the stub models that the
evaluation tests score and decode with; the full-window greedy loop that
the batched decoder is checked against; a reader that cuts an OPT8 file
back into per-parameter moments; and a writer of the retired DMDL 5 model
layout."""

import itertools
import json
import math

import numpy as np
import pytest

from desklora.arabicprep import write_shards
from desklora.arabicprep.shards import DEFAULT_SHARD_DOCS
from desklora.binfmt import Reader, Writer
from desklora.numcore import KVCache
from desklora.quant import STATE8_BLOCK_SIZE, Quantized8bitState, dequantize, dumps_qnf4

MSA_WORDS = [
    "مرحبا", "كتاب", "مدرسة", "الطقس", "اليوم", "جميل", "قال", "ذهب", "البيت",
    "الولد", "كبير", "صغير", "شمس", "قمر", "بحر", "مدينة", "علم", "لغة",
    "عربية", "جملة", "كلمة", "حرف", "صباح", "مساء", "خير", "معتدل", "درجة",
    "الحرارة", "قرأ", "كتب", "درس", "فهم", "سماء", "ارض", "ماء", "طعام",
    "كَتَبَ", "مُعلم", "العربيَّة", "قصة", "طويلة", "قصيرة", "جديدة", "قديمة",
]

DIALECT_WORDS = {
    "EGY": ["النهاردة", "ايه", "عايز", "فين", "دلوقتي", "اوي"],
    "GLF": ["وش", "شلون", "الحين", "وايد", "ابغى"],
    "LEV": ["شو", "بدي", "هيك", "كتير", "هلق"],
    "MGR": ["كيفاش", "واش", "بزاف", "ديال", "زوين"],
}

TERMINATORS = [".", "؟", "!", "؛"]

# fixed word-transition table: sentences walk a sparse Markov chain, so the
# corpus has learnable structure instead of uniform word soup
_chain_rng = np.random.default_rng(123)
TRANSITIONS = {
    w: [MSA_WORDS[int(i)] for i in _chain_rng.integers(0, len(MSA_WORDS), 4)]
    for w in MSA_WORDS
}


def synth_sentence(rng: np.random.Generator, dialect: str | None = None) -> str:
    n_words = int(rng.integers(3, 9))
    word = MSA_WORDS[int(rng.integers(0, len(MSA_WORDS)))]
    words = [word]
    for _ in range(n_words - 1):
        word = TRANSITIONS[word][int(rng.integers(0, 4))]
        words.append(word)
    if dialect:
        pool = DIALECT_WORDS[dialect]
        words.insert(int(rng.integers(0, len(words))), pool[int(rng.integers(0, len(pool)))])
    return " ".join(words) + TERMINATORS[int(rng.integers(0, len(TERMINATORS)))]


def synth_raw_docs(n_docs: int, seed: int = 0, dialect_fraction: float = 0.2) -> list[dict]:
    rng = np.random.default_rng(seed)
    docs = []
    dialects = list(DIALECT_WORDS)
    for i in range(n_docs):
        dialect = None
        if rng.random() < dialect_fraction:
            dialect = dialects[int(rng.integers(0, len(dialects)))]
        n_sents = int(rng.integers(1, 4))
        text = " ".join(synth_sentence(rng, dialect if s == 0 else None) for s in range(n_sents))
        if i % 17 == 0:
            text = "web http://x.example " + text + " (end)"  # cleaning fodder
        docs.append({"text": text, "source": ["wikipedia", "bactrian", "other"][i % 3]})
    return docs


def write_jsonl(path, docs):
    with open(path, "w", encoding="utf-8") as f:
        for d in docs:
            f.write(json.dumps(d, ensure_ascii=False) + "\n")
    return path


def write_encoded_shards(docs, vocab, policy, out_dir, shard_docs=DEFAULT_SHARD_DOCS):
    """`write_shards` with the ids `vocab.encode` gives, as `desklora prep --vocab` writes."""
    ids = [vocab.encode(d.text) for d in docs]
    return write_shards(docs, ids, vocab.vocab_hash(), policy, out_dir, shard_docs)


def merge_agreement(layer, x, y) -> float:
    """Worst elementwise ratio of |y - x·(W + s·B·A)ᵀ| to the float32 rounding
    bound 8·eps32·(|x|·|W|ᵀ + s·|x|·|A|ᵀ·|B|ᵀ): y is a 32-bit output for the
    32-bit input x, and the reference is exact up to float64 rounding, with W
    the layer's dequantized base. Below 1 passes. An absolute bound would not
    do: outputs reach |y| ≈ 14, where one float32 ulp is 9.5e-7."""
    x = np.asarray(x, dtype=np.float32).astype(np.float64)
    w = dequantize(layer.q, np.float64)
    a, b = (p.value.astype(np.float64) for p in (layer.adapter.a, layer.adapter.b))
    s = layer.adapter.scaling
    reference = x @ (w + s * (b @ a)).T
    bound = 8 * np.finfo(np.float32).eps * (np.abs(x) @ np.abs(w).T
                                            + s * (np.abs(x) @ np.abs(a).T) @ np.abs(b).T)
    return float(np.max(np.abs(np.asarray(y, dtype=np.float64) - reference) / bound))


def opt8_moments(blob: bytes) -> dict:
    """name -> (m, v) of an OPT8 file, cut by its documented layout: each
    parameter's elements padded to whole 8-bit blocks, end to end in file
    order. `Quantized8bitState`s for `adamw8`, float64 arrays of the
    parameter's shape for `adamw`; padding dropped."""
    r, b = Reader(blob, b"OPT8", 3), STATE8_BLOCK_SIZE
    kind = r.text()
    _, count = r.unpack("II")
    layout = [(r.text(), r.shape()) for _ in range(count)]
    starts = list(itertools.accumulate((-(-math.prod(s) // b) * b for _, s in layout), initial=0))
    moments = []
    for _ in range(2):
        if kind == "adamw8":
            codes, absmax = r.array("u1", starts[-1]), r.array("<f4", starts[-1] // b)
            moments.append([Quantized8bitState(shape, codes[s:s + math.prod(shape)],
                                               absmax[s // b:-(-(s + math.prod(shape)) // b)], b)
                            for (_, shape), s in zip(layout, starts)])
        else:
            values = r.array("<f8", starts[-1])
            moments.append([values[s:s + math.prod(shape)].reshape(shape)
                            for (_, shape), s in zip(layout, starts)])
    r.done()
    return {name: (m, v) for (name, _), m, v in zip(layout, *moments)}


def dmdl5_bytes(model) -> bytes:
    """`model` as a DMDL 5 file, the LayerNorm layout: DMDL 6's fields, with a
    zero bias master after each norm gain (`ln1_b`, `ln2_b`, `lnf_b`)."""
    w = Writer(b"DMDL", 5)
    w.text(json.dumps(model.cfg.to_dict(), sort_keys=True))
    frozen = model.frozen_tensors()
    w.pack("I", len(frozen))
    for name, q in frozen:
        w.text(name)
        w.blob(dumps_qnf4(q))
    masters = []
    for p in model.masters():
        masters.append((p.name, p.value))
        if p.name.endswith("_g"):
            masters.append((p.name[:-1] + "b", np.zeros_like(p.value)))
    w.pack("I", len(masters))
    for name, value in masters:
        w.text(name)
        w.shape(value.shape)
        w.array(value, value.dtype)
    return w.getvalue()


class PositionLogitsModel:
    """A stub model whose logits depend on positions alone: a subclass's
    `logits_at(positions)` gives one row per position. It serves the greedy
    decoder as a built model does: `kv_cache` holds each row's length only,
    and `forward_ids` with a cache returns each row's last-position logits."""

    class cfg:
        max_seq_len = 64

    def kv_cache(self, batch):
        empty = np.zeros((0, batch, 0, 0, 0))
        return KVCache(empty, empty, np.zeros(batch, dtype=np.int64))

    def forward_ids(self, ids, cache=None):
        t_len = np.shape(ids)[-1]
        if cache is None:
            return self.logits_at(np.arange(t_len))
        last = cache.lengths + t_len - 1
        cache.lengths += t_len
        return self.logits_at(last)


def reference_greedy(model, prompt, max_new):
    """Greedy decoding that recomputes the full slid window for every token."""
    ids, limit = [int(i) for i in prompt], model.cfg.max_seq_len
    for _ in range(max_new):
        ids.append(int(np.argmax(model.forward_ids(np.asarray(ids[-limit:]))[-1])))
    return ids[len(prompt):]


@pytest.fixture(scope="session")
def small_corpus_docs():
    return synth_raw_docs(200, seed=11)


@pytest.fixture(scope="session")
def corpus_50kb_docs():
    docs = synth_raw_docs(1200, seed=7)
    total = sum(len(d["text"].encode("utf-8")) for d in docs)
    assert total >= 50_000
    return docs
