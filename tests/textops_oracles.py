"""Test-only per-character and per-word forms of the text stage: each applies
its rule one character, word or marker at a time, as the specification
reads. `desklora.arabicprep` runs the same rules as single string passes;
tests assert the two agree exactly. The package never calls these."""

from desklora.arabicprep.dialect import DIALECTS, UNKNOWN, DEFAULT_THRESHOLD
from desklora.arabicprep.morph import _split_word
from desklora.arabicprep.shards import Document
from desklora.arabicprep.textops import (
    _ALIF_MAP, _DIGIT_MAP, _KEEP, _TA_MAP, _YA_MAP, DIACRITICS, TATWEEL,
)

_TERMINATORS = frozenset(".!؟؛")


def clean(text: str) -> str:
    out = []
    for ch in text:
        if ch in _KEEP:
            out.append(ch)
        else:
            out.append(" ")
    return " ".join("".join(out).split())


def normalize(text: str, policy) -> str:
    table: dict[str, str] = {}
    if policy.unify_alif:
        table.update(_ALIF_MAP)
    if policy.unify_ya:
        table.update(_YA_MAP)
    if policy.unify_ta_marbuta:
        table.update(_TA_MAP)
    if policy.normalize_digits:
        table.update(_DIGIT_MAP)
    out = []
    for ch in text:
        if policy.strip_tatweel and ch == TATWEEL:
            continue
        out.append(table.get(ch, ch))
    return "".join(out)


def handle_diacritics(text: str, policy) -> str:
    if not policy.strip_diacritics:
        return text
    return "".join(ch for ch in text if ch not in DIACRITICS)


def segment_sentences(text: str) -> list[str]:
    sentences: list[str] = []
    buf: list[str] = []

    def flush():
        s = "".join(buf).strip()
        buf.clear()
        if s:
            sentences.append(s)

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            flush()
            i += 1
            continue
        buf.append(ch)
        if ch in _TERMINATORS:
            while i + 1 < n and text[i + 1] in _TERMINATORS:
                i += 1
                buf.append(text[i])
            flush()
        i += 1
    flush()
    return sentences


def morph_presegment(text: str) -> str:
    return " ".join(_split_word(w) for w in text.split(" "))


def tag_dialect(text: str, lexicon, threshold: float = DEFAULT_THRESHOLD) -> tuple[str, float]:
    tokens = text.split()
    if not tokens:
        return UNKNOWN, 0.0
    counts: dict[str, int] = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    joined = " " + " ".join(tokens) + " "

    best_dialect = "MSA"
    best_score = 0.0
    for dialect in DIALECTS:
        if dialect == "MSA":
            continue
        score = 0.0
        for term, weight in lexicon.markers.get(dialect, []):
            if " " in term:
                score += weight * joined.count(f" {term} ")
            else:
                score += weight * counts.get(term, 0)
        score /= len(tokens)
        if score > best_score:
            best_score = score
            best_dialect = dialect
    if best_score >= threshold and best_dialect != "MSA":
        return best_dialect, best_score
    return "MSA", 0.0


def preprocess_text(text: str, policy) -> str:
    return handle_diacritics(normalize(clean(text), policy), policy)


def prepare_documents(raw_docs, policy, lexicon, per_sentence: bool = False) -> list[Document]:
    out = []
    for raw in raw_docs:
        text = preprocess_text(raw.get("text", ""), policy)
        if not text:
            continue
        source = raw.get("source", "other")
        given = raw.get("dialect")
        units = segment_sentences(text) if per_sentence else [text]
        for unit in units:
            dialect = given if given else tag_dialect(unit, lexicon)[0]
            out.append(Document(text=morph_presegment(unit), source=source, dialect=dialect))
    return out


def encode_text(text: str, vocab, policy) -> list[int]:
    return vocab.encode(morph_presegment(preprocess_text(text, policy)))
