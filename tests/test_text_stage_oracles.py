"""The text stage's string passes equal its per-character and per-word
oracles (`tests/textops_oracles.py`) exactly, under every normalization
policy, per document and per sentence, on adversarial Unicode."""

import itertools
import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desklora.arabicprep import (
    DIALECT_TAGS,
    DialectLexicon,
    NormalizationPolicy,
    bpe_train,
    clean,
    encode_text,
    handle_diacritics,
    morph_presegment,
    normalize,
    prepare_documents,
    preprocess_text,
    segment_sentences,
    tag_dialect,
)
from tests import textops_oracles as oracle
from tests.conftest import DIALECT_WORDS, synth_raw_docs

POLICIES = [NormalizationPolicy(*flags) for flags in itertools.product((False, True), repeat=6)]

_DEFAULT_MAPPING = json.loads(resources.files("desklora.arabicprep").joinpath(
    "data/dialect_lexicon.json").read_text(encoding="utf-8"))
# uneven weights make the score's summation order visible, and multi-word
# terms take the other counting branch
_WEIGHTS = (0.1, 0.3, 0.7, 1.0, -0.2, 0.05)
_ODD_MAPPING = {
    dialect: [{"term": e["term"], "weight": _WEIGHTS[i % len(_WEIGHTS)]} for i, e in enumerate(entries)]
    for dialect, entries in _DEFAULT_MAPPING.items()
}
# "على طول" and "يا ريت" hold no single-word marker, so only the multi-word count sees them
_ODD_MAPPING["EGY"] += [{"term": "على طول", "weight": 0.3}, {"term": "ايه ده", "weight": 0.45}]
_ODD_MAPPING["LEV"] += [{"term": "يا ريت", "weight": 0.15}]

_WHITESPACE = [ch for ch in map(chr, range(0x110000)) if ch.isspace()]
_CHARS = (
    [chr(c) for c in range(0x0621, 0x064B)]  # Arabic letters and tatweel
    + [chr(c) for c in range(0x064B, 0x0660)] + ["ٰ", "ٱ"]  # diacritics, alef wasla
    + [chr(c) for c in range(0x0660, 0x066A)] + [chr(c) for c in range(0x06F0, 0x06FA)]
    + ["​", *_WHITESPACE, *".!:\"()؟؛،", "0", "9", "a", "Z", "-", "é", "퟿"]
)
_WORDS = sorted({e["term"] for entries in _ODD_MAPPING.values() for e in entries}
                | {w for words in DIALECT_WORDS.values() for w in words}
                | {"والكتاب", "بالمدرسة", "كتابهم", "فبكتابها", "أحمد", "إلى", "آخر", "مدرسة", "مستشفى"})
WORD = st.sampled_from(_WORDS)
TEXT = st.lists(st.one_of(st.sampled_from(_CHARS), WORD, WORD.map(" {} ".format)), max_size=40).map("".join)
RAW_DOCS = st.lists(st.fixed_dictionaries(
    {"text": TEXT, "source": st.sampled_from(["wikipedia", "other", "elsewhere"])},
    optional={"dialect": st.sampled_from([*DIALECT_TAGS, ""])}), max_size=4)

_VOCAB = bpe_train([d["text"] for d in synth_raw_docs(40, seed=4)], vocab_size=320)
_LEXICONS: dict = {}


def lexicons(policy):
    key = tuple(policy.to_dict().values())
    if key not in _LEXICONS:
        _LEXICONS[key] = (DialectLexicon.default(policy), DialectLexicon.from_mapping(_ODD_MAPPING, policy))
    return _LEXICONS[key]


def exact(tagged):
    """A tag_dialect result with its confidence's bits, so 0.0 and -0.0 differ."""
    return tagged[0], tagged[1].hex()


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: "".join("01"[v] for v in p.to_dict().values()))
@settings(max_examples=25, deadline=None)
@given(raw_docs=RAW_DOCS, per_sentence=st.booleans())
def test_text_stage_equals_its_oracles(policy, raw_docs, per_sentence):
    for lexicon in lexicons(policy):
        assert prepare_documents(raw_docs, policy, lexicon, per_sentence) == (
            oracle.prepare_documents(raw_docs, policy, lexicon, per_sentence))
    for raw in raw_docs:
        text = raw["text"]
        assert clean(text) == oracle.clean(text)
        assert normalize(text, policy) == oracle.normalize(text, policy)
        assert handle_diacritics(text, policy) == oracle.handle_diacritics(text, policy)
        assert segment_sentences(text) == oracle.segment_sentences(text)
        assert morph_presegment(text) == oracle.morph_presegment(text)
        prepared = preprocess_text(text, policy)
        assert prepared == oracle.preprocess_text(text, policy)
        assert encode_text(text, _VOCAB, policy) == oracle.encode_text(text, _VOCAB, policy)
        for lexicon in lexicons(policy):
            for unit in (prepared, text):
                assert exact(tag_dialect(unit, lexicon)) == exact(oracle.tag_dialect(unit, lexicon))


@pytest.mark.parametrize("per_sentence", [False, True])
def test_synthetic_corpus_equals_the_oracle_under_every_policy(per_sentence):
    raw_docs = synth_raw_docs(60, seed=21, dialect_fraction=0.5)
    for policy in POLICIES:
        for lexicon in lexicons(policy):
            assert prepare_documents(raw_docs, policy, lexicon, per_sentence) == (
                oracle.prepare_documents(raw_docs, policy, lexicon, per_sentence))


@pytest.mark.parametrize("text", [
    "هو على طول خالص", "على طول على طول", "يا ريت", "ايه ده يا ايه", "الطقس جميل", "",
])
def test_tag_dialect_equals_the_oracle_on_multi_word_markers(text):
    for policy in (POLICIES[0], NormalizationPolicy()):
        for lexicon in lexicons(policy):
            assert exact(tag_dialect(text, lexicon)) == exact(oracle.tag_dialect(text, lexicon))


@pytest.mark.parametrize("text", [
    "ماذا؟! حقا.\nنعم", "؟!؛..", "\n\nأ\n", "أ .ب", "أ\u0085ب؟　ج! ", "مرحبا\u001cبكم!!\n؟",
])
def test_segment_sentences_equals_the_oracle_on_terminator_runs_and_newlines(text):
    assert segment_sentences(text) == oracle.segment_sentences(text)
