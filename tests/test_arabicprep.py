import numpy as np
import pytest

from desklora.arabicprep import (
    BOUNDARY,
    DialectLexicon,
    NormalizationPolicy,
    clean,
    handle_diacritics,
    morph_presegment,
    normalize,
    prepare_documents,
    preprocess_text,
    segment_sentences,
    strip_boundaries,
    tag_dialect,
)
from desklora.errors import DataError
from tests.conftest import DIALECT_WORDS, synth_raw_docs


DEFAULTS = NormalizationPolicy()


class TestClean:
    def test_latin_removed(self):
        assert clean("hello مرحبا world") == "مرحبا"

    def test_whitespace_collapsed(self):
        assert clean("مرحبا   بكم") == "مرحبا بكم"
        assert clean("  مرحبا\t\nبكم  ") == "مرحبا بكم"

    def test_latin_only_empty(self):
        assert clean("just some english text!?") == "!"  # neutral punct survives
        assert clean("plain words only") == ""

    def test_keeps_diacritics_and_punct(self):
        assert clean("كَتَبَ؟") == "كَتَبَ؟"
        assert clean("قال: نعم (جيد).") == "قال: نعم (جيد)."

    def test_keeps_digits(self):
        assert clean("درجة ٢٥ و 30") == "درجة ٢٥ و 30"

    def test_separator_substitution_avoids_fusing(self):
        assert clean("مرحبا-بكم") == "مرحبا بكم"


class TestNormalize:
    def test_alif_forms(self):
        assert normalize("أإآ", DEFAULTS) == "ااا"
        assert normalize("ٱ", DEFAULTS) == "ا"

    def test_tatweel_stripped(self):
        assert normalize("مـــرحبا", DEFAULTS) == "مرحبا"

    def test_ya_unified(self):
        assert normalize("على", DEFAULTS) == "علي"

    def test_ta_marbuta_default_off(self):
        assert normalize("مدرسة", DEFAULTS) == "مدرسة"
        on = NormalizationPolicy(unify_ta_marbuta=True)
        assert normalize("مدرسة", on) == "مدرسه"

    def test_digit_folding_flag(self):
        on = NormalizationPolicy(normalize_digits=True)
        assert normalize("٢٥", on) == "25"
        assert normalize("٢٥", DEFAULTS) == "٢٥"

    def test_idempotent_sweep(self):
        docs = synth_raw_docs(10_000, seed=3)
        for d in docs:
            once = normalize(clean(d["text"]), DEFAULTS)
            assert normalize(once, DEFAULTS) == once


class TestDiacritics:
    def test_strip(self):
        on = NormalizationPolicy(strip_diacritics=True)
        assert handle_diacritics("كَتَبَ", on) == "كتب"
        assert handle_diacritics("ٰ", on) == ""

    def test_off_is_identity(self):
        assert handle_diacritics("كَتَبَ", DEFAULTS) == "كَتَبَ"

    def test_idempotent(self):
        on = NormalizationPolicy(strip_diacritics=True)
        once = handle_diacritics("كَتَبَ مُحَمَّد", on)
        assert handle_diacritics(once, on) == once


class TestSegmentation:
    def test_basic_split(self):
        assert segment_sentences("ذهبت؟ نعم.") == ["ذهبت؟", "نعم."]

    def test_no_terminator_single_sentence(self):
        assert segment_sentences("مرحبا بكم في المدرسة") == ["مرحبا بكم في المدرسة"]

    def test_terminator_runs_stay_together(self):
        assert segment_sentences("حقا؟! نعم.") == ["حقا؟!", "نعم."]

    def test_empty_segments_dropped(self):
        assert segment_sentences("نعم. . !") == ["نعم.", ".", "!"]
        assert segment_sentences("") == []

    def test_newline_splits(self):
        assert segment_sentences("سطر اول\nسطر ثان") == ["سطر اول", "سطر ثان"]

    def test_reconstruction_round_trip(self):
        docs = synth_raw_docs(300, seed=5)
        for d in docs:
            text = normalize(clean(d["text"]), DEFAULTS)
            joined = " ".join(segment_sentences(text))
            assert joined == " ".join(text.split())


class TestDialect:
    def lexicon(self):
        return DialectLexicon.default(DEFAULTS)

    def test_egy_marker(self):
        d, conf = tag_dialect("الدنيا حر شوية النهاردة", self.lexicon())
        assert d == "EGY" and conf > 0

    def test_mgr_marker(self):
        d, _ = tag_dialect("كيفاش الجو", self.lexicon())
        assert d == "MGR"

    def test_msa_default(self):
        assert tag_dialect("الطقس معتدل اليوم", self.lexicon()) == ("MSA", 0.0)

    def test_empty_text(self):
        assert tag_dialect("", self.lexicon()) == ("UNK", 0.0)

    def test_threshold(self):
        # one weak marker among many tokens falls below the default threshold
        text = "النهاردة " + " ".join(["كلمة"] * 30)
        d, conf = tag_dialect(text, self.lexicon())
        assert d == "MSA" and conf == 0.0

    def test_deterministic(self):
        text = "شو هاد الطقس"
        assert tag_dialect(text, self.lexicon()) == tag_dialect(text, self.lexicon())

    def test_synthetic_unambiguous_suite_100pct(self):
        lex = self.lexicon()
        rng = np.random.default_rng(9)
        for dialect, words in DIALECT_WORDS.items():
            for marker in words:
                filler = ["اليوم", "جميل"]
                sent = " ".join(filler[: int(rng.integers(0, 3))] + [marker])
                normalized = preprocess_text(sent, DEFAULTS)
                got, _ = tag_dialect(normalized, lex)
                assert got == dialect, (marker, got)

    @pytest.mark.parametrize("weight", [float("inf"), float("-inf"), float("nan")])
    def test_a_weight_that_is_not_finite_is_data_error(self, weight):
        with pytest.raises(DataError, match="weights must be finite"):
            DialectLexicon.from_mapping({"EGY": [{"term": "أيه", "weight": weight}]}, DEFAULTS)

    def test_markers_normalized_under_policy(self):
        # markers written with alif hamza still match normalized text
        lex = DialectLexicon.from_mapping({"EGY": [{"term": "أيه", "weight": 1.0}]}, DEFAULTS)
        assert lex.markers["EGY"][0][0] == "ايه"


class TestMorph:
    def test_conjunction_article_chain(self):
        assert morph_presegment("والكتاب") == f"و{BOUNDARY}ال{BOUNDARY}كتاب"

    def test_short_word_untouched(self):
        assert morph_presegment("كتاب") == "كتاب"

    def test_suffix_split(self):
        assert morph_presegment("كتابهم") == f"ك{BOUNDARY}تاب{BOUNDARY}هم"

    def test_at_most_two_prefixes(self):
        out = morph_presegment("وبالكتاب")
        assert out.count(BOUNDARY) <= 3
        assert strip_boundaries(out) == "وبالكتاب"

    def test_strip_round_trip_sweep(self):
        for d in synth_raw_docs(500, seed=6):
            text = preprocess_text(d["text"], DEFAULTS)
            assert strip_boundaries(morph_presegment(text)) == text


class TestPipeline:
    def test_idempotence_of_composed_pipeline(self):
        for d in synth_raw_docs(10_000, seed=8):
            once = preprocess_text(d["text"], DEFAULTS)
            assert preprocess_text(once, DEFAULTS) == once

    def test_empty_docs_dropped(self):
        raw = [{"text": "some english only"}, {"text": "مرحبا بكم"}]
        docs = prepare_documents(raw, DEFAULTS)
        assert len(docs) == 1

    def test_given_dialect_trusted(self):
        raw = [{"text": "مرحبا بكم", "dialect": "LEV"}]
        assert prepare_documents(raw, DEFAULTS)[0].dialect == "LEV"

    def test_tagging_applied_when_missing(self):
        raw = [{"text": "كيفاش الجو اليوم"}]
        assert prepare_documents(raw, DEFAULTS)[0].dialect == "MGR"

    def test_per_sentence_mode_splits(self):
        raw = [{"text": "ذهبت؟ نعم."}]
        docs = prepare_documents(raw, DEFAULTS, per_sentence=True)
        assert [d.text for d in docs] == ["ذهبت؟", "نعم."]

