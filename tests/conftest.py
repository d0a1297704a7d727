"""Shared fixtures: a deterministic synthetic Arabic corpus generator used by
preprocessing sweeps, the training-loop tests, and the acceptance suite; and
the merge-agreement check that `test_lora` and C04 share."""

import json

import numpy as np
import pytest

from desklora.quant import dequantize

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


@pytest.fixture(scope="session")
def small_corpus_docs():
    return synth_raw_docs(200, seed=11)


@pytest.fixture(scope="session")
def corpus_50kb_docs():
    docs = synth_raw_docs(1200, seed=7)
    total = sum(len(d["text"].encode("utf-8")) for d in docs)
    assert total >= 50_000
    return docs
