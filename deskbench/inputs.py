"""Seeded input generator for the benchmark.

Everything here is a pure function of its arguments: the same seed gives the
same corpus, token windows and eval sets. The generator keeps its own word
lists and transition table instead of importing the test fixtures, so an edit
to a test never shifts benchmark data.

Text comes from a sparse word-level Markov chain over Arabic words (each word
has four possible successors), so the corpus has learnable structure and
repeats BPE pieces the way real text does. Training windows come from a
token-level chain of the same shape, so the training workloads need no
tokenizer in set-up.
"""

import json

import numpy as np

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
DIALECTS = ("MSA", *DIALECT_WORDS)
TERMINATORS = [".", "؟", "!", "؛"]
SOURCES = ("wikipedia", "bactrian", "other")

# The "language" is fixed; seeds only choose which sentences are drawn from it.
_LANGUAGE_SEED = 123
_chain_rng = np.random.default_rng(_LANGUAGE_SEED)
TRANSITIONS = {
    w: [MSA_WORDS[int(i)] for i in _chain_rng.integers(0, len(MSA_WORDS), 4)] for w in MSA_WORDS
}

URL_NOISE_EVERY = 17  # one document in 17 carries a URL and Latin text for cleaning
DIALECT_FRACTION = 0.2  # share of documents whose first sentence carries a dialect word


def sentence(rng: np.random.Generator, n_words: int, dialect: str = "MSA") -> str:
    word = MSA_WORDS[int(rng.integers(0, len(MSA_WORDS)))]
    words = [word]
    for _ in range(n_words - 1):
        word = TRANSITIONS[word][int(rng.integers(0, 4))]
        words.append(word)
    if dialect != "MSA":
        pool = DIALECT_WORDS[dialect]
        words.insert(int(rng.integers(0, len(words))), pool[int(rng.integers(0, len(pool)))])
    return " ".join(words) + TERMINATORS[int(rng.integers(0, len(TERMINATORS)))]


def corpus(n_docs: int, seed: int) -> list[dict]:
    """Raw JSONL records {text, source} for `desklora prep`."""
    rng = np.random.default_rng([seed, 1])
    docs = []
    for i in range(n_docs):
        dialect = "MSA"
        if rng.random() < DIALECT_FRACTION:
            dialect = DIALECTS[1 + int(rng.integers(0, len(DIALECT_WORDS)))]
        n_sents = int(rng.integers(1, 4))
        text = " ".join(
            sentence(rng, int(rng.integers(3, 9)), dialect if s == 0 else "MSA")
            for s in range(n_sents)
        )
        if i % URL_NOISE_EVERY == 0:
            text = "web http://x.example " + text + " (end)"
        docs.append({"text": text, "source": SOURCES[i % len(SOURCES)]})
    return docs


def token_windows(n_windows: int, width: int, vocab_size: int, seed: int) -> np.ndarray:
    """[n_windows x width] int64 ids from a token chain with four successors per id.

    Ids below 4 are the tokenizer's specials and never appear.
    """
    succ = np.random.default_rng(_LANGUAGE_SEED).integers(4, vocab_size, (vocab_size, 4))
    rng = np.random.default_rng([seed, 2])
    starts = rng.integers(4, vocab_size, n_windows)
    picks = rng.integers(0, 4, (n_windows, width))
    out = np.empty((n_windows, width), dtype=np.int64)
    out[:, 0] = starts
    for j in range(1, width):
        out[:, j] = succ[out[:, j - 1], picks[:, j]]
    return out


def eval_sets(seed: int, n_lm_per_dialect: int, n_qa: int, n_mt: int, n_robust: int,
              prompt_words: int) -> dict:
    """lm, qa, mt and robustness records for `desklora eval`.

    lm items cover all five dialects. qa questions and mt sources run to
    `prompt_words` words so their prompts are long enough for greedy decoding
    to slide past the model's context.
    """
    rng = np.random.default_rng([seed, 3])

    def dialect_of(i):
        return DIALECTS[i % len(DIALECTS)]

    lm = [
        {"text": sentence(rng, int(rng.integers(6, 12)), d), "dialect": d}
        for d in DIALECTS
        for _ in range(n_lm_per_dialect)
    ]
    qa = []
    for i in range(n_qa):
        question = sentence(rng, prompt_words, dialect_of(i))
        answer = question.split()[int(rng.integers(0, 3))]
        qa.append({"question": question, "answers": [answer], "dialect": dialect_of(i)})
    mt = [
        {
            "source": sentence(rng, prompt_words, dialect_of(i)),
            "references": [sentence(rng, 8)],
            "dialect": dialect_of(i),
        }
        for i in range(n_mt)
    ]
    robustness = [{"text": sentence(rng, int(rng.integers(8, 14)))} for _ in range(n_robust)]
    return {"lm": lm, "qa": qa, "mt": mt, "robustness": robustness}


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r, ensure_ascii=False) + "\n")


def repeated_share(items) -> float:
    """Share of items equal to an earlier item."""
    seen = set()
    repeats = 0
    total = 0
    for it in items:
        total += 1
        if it in seen:
            repeats += 1
        else:
            seen.add(it)
    return repeats / total if total else 0.0
