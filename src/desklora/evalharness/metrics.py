"""Core evaluation metrics: perplexity, next-word accuracy, QA token-F1 and
exact match, and smoothed corpus-free BLEU.

QA and BLEU normalize text the SQuAD way adapted to Arabic: diacritics
stripped and alif variants unified before whitespace tokenization.
"""

import math
from collections import Counter

import numpy as np

from ..arabicprep import NormalizationPolicy
from ..arabicprep.bpe import frame_document
from ..arabicprep.textops import replace_chars, text_replacements
from ..errors import ContractError

_MATCH_POLICY = NormalizationPolicy(
    unify_alif=True,
    unify_ya=False,
    unify_ta_marbuta=False,
    strip_tatweel=True,
    strip_diacritics=True,
    normalize_digits=False,
)
_MATCH_PAIRS = text_replacements(_MATCH_POLICY)


def normalize_for_match(text: str) -> str:
    return " ".join(replace_chars(text, _MATCH_PAIRS).split())


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    x = logits.astype(np.float64)
    x = x - x.max(axis=-1, keepdims=True)
    return x - np.log(np.exp(x).sum(axis=-1, keepdims=True))


def _teacher_forced(model, seq) -> tuple[float, int]:
    """Total NLL and argmax hits of the ids of one document, read as the open
    document `frame_document(seq)[:-1]`: its closing EOS is not scored.

    A sequence longer than the model's window is scored in consecutive
    windows of at most `max_seq_len` inputs, each starting again at position
    0, as a slid window does in greedy decoding (`harness.greedy_batch`).
    Argmax ties resolve to the lowest id.
    """
    ids = frame_document(seq)[:-1]
    inputs, targets = ids[:-1], ids[1:]
    limit = model.cfg.max_seq_len
    nll, hits = 0.0, 0
    for start in range(0, targets.size, limit):
        logits = model.forward_ids(inputs[start : start + limit])
        target = targets[start : start + limit]
        logp = _log_softmax(logits)
        nll += float(-logp[np.arange(target.size), target].sum())
        hits += int((logits.argmax(axis=-1) == target).sum())
    return nll, hits


def lm_scores(model, sequences) -> tuple[float, float]:
    """(perplexity, next-word accuracy) over tokenized documents, from one
    teacher-forced pass per document (`_teacher_forced`).

    Perplexity is exp(total NLL / total predicted tokens); accuracy the
    fraction of positions where argmax(logits) hits the actual next token,
    argmax ties resolving to the lowest token id.
    """
    total, hits, count = 0.0, 0, 0
    for seq in sequences:
        nll, seq_hits = _teacher_forced(model, seq)
        total, hits, count = total + nll, hits + seq_hits, count + len(seq)
    if count == 0:
        raise ContractError("language-model scores need at least one non-empty sequence")
    return float(math.exp(total / count)), hits / count


def perplexity(model, sequences) -> float:
    """exp(total NLL / total predicted tokens) over tokenized sequences.
    `dialect_breakdown` calls `lm_scores`; this stays public because
    deskbench's tracer wraps it by name."""
    return lm_scores(model, sequences)[0]


def next_word_accuracy(model, sequences) -> float:
    """Fraction of positions where argmax(logits) hits the actual next token.
    `dialect_breakdown` calls `lm_scores`; this stays public because
    deskbench's tracer wraps it by name."""
    return lm_scores(model, sequences)[1]


def token_f1(tokens_a, tokens_b) -> float:
    """Multiset token overlap F1; 1.0 when both sides are empty."""
    a, b = Counter(tokens_a), Counter(tokens_b)
    if not a and not b:
        return 1.0
    overlap = sum((a & b).values())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(a.values())
    recall = overlap / sum(b.values())
    return 2 * precision * recall / (precision + recall)


def qa_f1(prediction: str, golds) -> float:
    """Best token-bag F1 of the prediction against any gold answer."""
    pred_tokens = normalize_for_match(prediction).split()
    return max(token_f1(pred_tokens, normalize_for_match(g).split()) for g in golds)


def exact_match(prediction: str, golds) -> int:
    norm = normalize_for_match(prediction)
    return int(any(norm == normalize_for_match(g) for g in golds))


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(prediction: str, references, max_n: int = 4) -> float:
    """Geometric mean of clipped n-gram precisions times the brevity penalty.

    Higher-order precisions (n >= 2) use add-one smoothing so short outputs
    never zero out; result lies in [0, 1].
    """
    pred = normalize_for_match(prediction).split()
    refs = [normalize_for_match(r).split() for r in references]
    if not pred or not refs:
        return 0.0
    c = len(pred)
    # effective reference length: closest to c, ties toward the shorter
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    log_precisions = []
    for n in range(1, max_n + 1):
        counts = _ngram_counts(pred, n)
        total = sum(counts.values())
        clipped = 0
        if counts:
            best = Counter()
            for ref in refs:
                rc = _ngram_counts(ref, n)
                for gram in counts:
                    best[gram] = max(best[gram], rc.get(gram, 0))
            clipped = sum(min(cnt, best[gram]) for gram, cnt in counts.items())
        if n == 1:
            if clipped == 0:
                return 0.0
            log_precisions.append(math.log(clipped / total))
        else:
            log_precisions.append(math.log((clipped + 1) / (total + 1)))
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return float(bp * math.exp(sum(log_precisions) / max_n))
