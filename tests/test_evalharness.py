import json
import math

import numpy as np
import pytest

from desklora.arabicprep import NormalizationPolicy, bpe_train
from desklora.arabicprep.bpe import BOS_ID
from desklora.arabicprep.textops import DIACRITICS
from desklora.errors import ConfigError, ContractError, DataError, FormatError
from desklora.evalharness import (
    EvalReport,
    PerturbationConfig,
    bleu,
    dialect_breakdown,
    emit_report,
    exact_match,
    greedy_continue,
    load_eval_set,
    next_word_accuracy,
    normalize_for_match,
    perplexity,
    perturb,
    qa_f1,
    robustness_curve,
    token_f1,
    validate_report,
)
from desklora.evalharness.perturb import CONFUSABLE_GROUPS, _GROUP_OF
from desklora.lora import LoraConfig
from desklora.model import ModelConfig, build
from desklora.numcore import Rng
from tests.conftest import synth_raw_docs


class FakeCfg:
    max_seq_len = 64


class UniformModel:
    cfg = FakeCfg()

    def __init__(self, vocab_size):
        self.v = vocab_size

    def forward_ids(self, ids):
        return np.zeros((len(ids), self.v))


class ScriptedModel:
    """Emits a saturated one-hot for a fixed script, position by position."""

    cfg = FakeCfg()

    def __init__(self, script, vocab_size):
        self.script = list(script)
        self.v = vocab_size

    def forward_ids(self, ids):
        out = np.zeros((len(ids), self.v))
        for i in range(len(ids)):
            out[i, self.script[min(i, len(self.script) - 1)]] = 1000.0
        return out


class ConstantModel:
    """Ignores input entirely; always argmaxes the same token."""

    cfg = FakeCfg()

    def __init__(self, token, vocab_size):
        self.token = token
        self.v = vocab_size

    def forward_ids(self, ids):
        out = np.zeros((len(ids), self.v))
        out[:, self.token] = 5.0
        return out


class TableModel:
    """Deterministic random logit table keyed by position; an oracle fixture."""

    cfg = FakeCfg()

    def __init__(self, vocab_size, seed=0):
        self.v = vocab_size
        self.rng = np.random.default_rng(seed)
        self.table = self.rng.normal(size=(64, vocab_size))

    def forward_ids(self, ids):
        return self.table[: len(ids)]


class TestPerplexity:
    def test_uniform_logits_equals_vocab_size(self):
        model = UniformModel(256)
        ppl = perplexity(model, [[1, 2, 3], [4, 5]])
        assert ppl == pytest.approx(256.0, abs=1e-6)

    def test_perfect_predictor_gives_one(self):
        seq = [7, 3, 9, 1]
        model = ScriptedModel(seq, 16)
        assert perplexity(model, [seq]) == pytest.approx(1.0, abs=1e-9)

    def test_matches_brute_force_nll_walker(self):
        model = TableModel(11, seed=4)
        seq = [3, 7, 1, 9, 5]
        # independent direct-probability walk
        total_nll = 0.0
        ids = [1, *seq]  # BOS prefix
        logits = model.forward_ids(np.asarray(ids[:-1]))
        for pos, tok in enumerate(seq):
            row = logits[pos]
            probs = np.exp(row) / np.exp(row).sum()
            total_nll += -math.log(probs[tok])
        expected = math.exp(total_nll / len(seq))
        assert perplexity(model, [seq]) == pytest.approx(expected, abs=1e-6)

    def test_empty_set_rejected(self):
        with pytest.raises(ContractError):
            perplexity(UniformModel(4), [])

    def test_always_at_least_one(self):
        model = TableModel(7, seed=5)
        assert perplexity(model, [[1, 2, 3, 4]]) >= 1.0


    def test_long_text_scored_in_windows(self):
        """A text of 2.5 windows is scored in consecutive windows of at most
        max_seq_len inputs, each starting again at position 0."""
        cfg = ModelConfig(vocab_size=64, d_model=16, n_heads=2, n_layers=1, d_ffn=32,
                          max_seq_len=8, lora=LoraConfig(r=2, dropout=0.0))
        model = build(cfg, Rng(0))
        seq = [int(t) for t in Rng(1).integers(4, 64, (20,))]
        ids = np.asarray([BOS_ID, *seq])
        inputs, targets = ids[:-1], ids[1:]
        nll, hits = 0.0, 0
        for start in (0, 8, 16):
            logits = model.forward_ids(inputs[start : start + 8])
            target = targets[start : start + 8]
            x = logits.astype(np.float64)
            x = x - x.max(axis=-1, keepdims=True)
            logp = x - np.log(np.exp(x).sum(axis=-1, keepdims=True))
            nll -= logp[np.arange(target.size), target].sum()
            hits += int((logits.argmax(axis=-1) == target).sum())
        assert math.isfinite(nll)
        assert perplexity(model, [seq]) == pytest.approx(math.exp(nll / 20), rel=1e-12)
        assert next_word_accuracy(model, [seq]) == hits / 20


class TestNextWordAccuracy:
    def test_memorizing_model(self):
        seq = [2, 8, 4, 6]
        assert next_word_accuracy(ScriptedModel(seq, 16), [seq]) == 1.0

    def test_adversarial_model_zero(self):
        # argmax is always PAD (0), which never occurs in the text
        assert next_word_accuracy(ConstantModel(0, 16), [[3, 4, 5]]) == 0.0

    def test_hand_fixture(self):
        # script predicts [5, 5, 5]; sequence is [5, 2, 5] -> 2 of 3 correct
        model = ConstantModel(5, 8)
        assert next_word_accuracy(model, [[5, 2, 5]]) == pytest.approx(2 / 3)


class TestQaMetrics:
    def test_exact_match_gives_full_f1(self):
        assert qa_f1("الطقس جميل", ["الطقس جميل"]) == 1.0
        assert exact_match("الطقس جميل", ["الطقس جميل"]) == 1

    def test_disjoint_zero(self):
        assert qa_f1("شمس قمر", ["بحر نهر"]) == 0.0
        assert exact_match("شمس", ["قمر"]) == 0

    def test_partial_overlap_two_of_four(self):
        # prediction has 2 tokens, both inside a 4-token gold: P=1, R=0.5, F1=2/3
        assert qa_f1("واحد اثنان", ["واحد اثنان ثلاثة اربعة"]) == pytest.approx(2 / 3)

    def test_max_over_golds(self):
        assert qa_f1("نعم", ["لا", "نعم"]) == 1.0

    def test_normalization_applied(self):
        assert exact_match("كَتَبَ أحمد", ["كتب احمد"]) == 1
        assert qa_f1("إلى", ["الى"]) == 1.0

    def test_symmetry_single_gold(self):
        a, b = "شمس قمر بحر", "قمر نهر"
        assert qa_f1(a, [b]) == pytest.approx(qa_f1(b, [a]))

    def test_em_implies_f1(self):
        for pred, gold in [("كتاب", "كتاب"), ("أهلا وسهلا", "اهلا وسهلا")]:
            if exact_match(pred, [gold]):
                assert qa_f1(pred, [gold]) == 1.0

    def test_token_f1_multiset(self):
        assert token_f1([1, 1, 2], [1, 2, 2]) == pytest.approx(2 * (2 / 3) * (2 / 3) / (4 / 3))


class TestBleu:
    def test_identity_long_enough(self):
        assert bleu("واحد اثنان ثلاثة اربعة", ["واحد اثنان ثلاثة اربعة"]) == pytest.approx(1.0)

    def test_zero_unigram_overlap(self):
        assert bleu("شمس قمر بحر نهر", ["جبل وادي سهل صحراء"]) == 0.0

    def test_hand_computed_brevity_case(self):
        # pred "the cat sat" vs ref "the cat sat down": p1..p4 = 1 (smoothed),
        # BP = exp(1 - 4/3)
        got = bleu("the cat sat", ["the cat sat down"])
        assert got == pytest.approx(math.exp(1 - 4 / 3), rel=1e-12)

    def test_range(self):
        rng = np.random.default_rng(0)
        words = ["ا", "ب", "ج", "د", "ه"]
        for _ in range(50):
            pred = " ".join(rng.choice(words, size=rng.integers(1, 8)))
            ref = " ".join(rng.choice(words, size=rng.integers(1, 8)))
            assert 0.0 <= bleu(pred, [ref]) <= 1.0

    def test_empty_prediction(self):
        assert bleu("", ["شيء"]) == 0.0

    def test_identity_shorter_than_max_n(self):
        assert bleu("كتاب جديد", ["كتاب جديد"]) == pytest.approx(1.0)


class TestPerturb:
    def test_level_zero_identity_for_all_op_sets(self):
        text = "الطقس جميل اليوم"
        for ops in (("delete",), ("swap_adjacent", "substitute_confusable"), None):
            kwargs = {"ops": ops} if ops else {}
            assert perturb(text, 0.0, seed=3, **kwargs) == text

    def test_deterministic_under_seed(self):
        text = "مرحبا بكم في المدينة"
        a = perturb(text, 0.4, seed=9)
        b = perturb(text, 0.4, seed=9)
        assert a == b
        assert perturb(text, 0.4, seed=10) != a or True  # different seed may differ

    def test_binomial_fraction_delete_only(self):
        text = "ا" * 100_000
        out = perturb(text, 0.3, ops=("delete",), seed=1)
        affected = len(text) - len(out)
        assert 0.29 * len(text) <= affected <= 0.31 * len(text)

    def test_substitution_stays_in_group(self):
        text = "ب" * 500
        out = perturb(text, 1.0, ops=("substitute_confusable",), seed=2)
        group = _GROUP_OF["ب"]
        assert len(out) == 500
        assert all(c in group and c != "ب" for c in out)

    def test_strip_diacritic_only_affects_diacritics(self):
        text = "كَتَبَ"
        out = perturb(text, 1.0, ops=("strip_one_diacritic",), seed=3)
        assert out == "كتب"
        plain = "كتب"
        assert perturb(plain, 1.0, ops=("strip_one_diacritic",), seed=3) == plain

    def test_swap_adjacent(self):
        out = perturb("ab", 1.0, ops=("swap_adjacent",), seed=4)
        assert out == "ba"

    def test_level_validation(self):
        with pytest.raises(ContractError):
            perturb("x", 1.5)
        with pytest.raises(ConfigError):
            PerturbationConfig(levels=(0.0, 2.0))


VOCAB = bpe_train([d["text"] for d in synth_raw_docs(60, seed=20)], vocab_size=384)
POLICY = NormalizationPolicy()


class TestRobustnessCurve:
    def test_level_zero_similarity_exactly_one(self):
        model = TableModel(VOCAB.n_tokens, seed=6)
        curve = robustness_curve(
            model, ["الطقس جميل اليوم"], VOCAB, POLICY,
            PerturbationConfig(levels=(0.0, 0.3), seed=5), max_new=8,
        )
        assert curve[0] == (0.0, 1.0)

    def test_constant_model_flat_at_one(self):
        model = ConstantModel(9, VOCAB.n_tokens)
        curve = robustness_curve(
            model, ["مرحبا بكم", "الطقس جميل"], VOCAB, POLICY,
            PerturbationConfig(levels=(0.0, 0.25, 0.5), seed=7), max_new=6,
        )
        assert all(sim == 1.0 for _, sim in curve)

    def test_curve_shape(self):
        model = TableModel(VOCAB.n_tokens, seed=8)
        cfg = PerturbationConfig(seed=11)
        curve = robustness_curve(model, ["كتاب المدرسة الكبير"], VOCAB, POLICY, cfg, max_new=4)
        assert [l for l, _ in curve] == list(cfg.levels)
        assert all(0.0 <= s <= 1.0 for _, s in curve)


class TestEvalSets:
    def write(self, tmp_path, name, rows):
        p = tmp_path / name
        with open(p, "w", encoding="utf-8") as f:
            for r in rows:
                f.write(json.dumps(r, ensure_ascii=False) + "\n")
        return p

    def test_load_and_validate(self, tmp_path):
        p = self.write(tmp_path, "lm.jsonl", [{"text": "مرحبا"}, {"text": "كتاب", "dialect": "EGY"}])
        es = load_eval_set(p, "lm")
        assert len(es.items) == 2
        assert es.dialects() == ["MSA", "EGY"]

    def test_missing_field_rejected(self, tmp_path):
        p = self.write(tmp_path, "qa.jsonl", [{"question": "من؟"}])
        with pytest.raises(DataError):
            load_eval_set(p, "qa")

    def test_empty_rejected(self, tmp_path):
        p = self.write(tmp_path, "lm.jsonl", [])
        with pytest.raises(DataError):
            load_eval_set(p, "lm")

    def test_empty_gold_answers_rejected(self, tmp_path):
        p = self.write(tmp_path, "qa.jsonl", [{"question": "من؟", "answers": []}])
        with pytest.raises(DataError):
            load_eval_set(p, "qa")

    @pytest.mark.parametrize("kind, line", [
        ("lm", "{bad"),
        ("lm", "5"),
        ("lm", '["text"]'),
        ("lm", '{"text": 5}'),
        ("robustness", '{"text": null}'),
        ("qa", '{"question": 5, "answers": ["a"]}'),
        ("qa", '{"question": "q", "answers": "a"}'),
        ("qa", '{"question": "q", "answers": ["a", 1]}'),
        ("mt", '{"source": ["s"], "references": ["r"]}'),
        ("mt", '{"source": "s", "references": []}'),
        ("mt", '{"source": "s"}'),
    ])
    def test_malformed_line_names_path_and_line(self, tmp_path, kind, line):
        good = {"lm": '{"text": "t"}', "robustness": '{"text": "t"}',
                "qa": '{"question": "q", "answers": ["a"]}',
                "mt": '{"source": "s", "references": ["r"]}'}[kind]
        p = tmp_path / f"{kind}.jsonl"
        p.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{kind}.jsonl:3: "):
            load_eval_set(p, kind)


class TestDialectBreakdown:
    def eval_sets(self, tmp_path):
        lm_rows = [
            {"text": "الطقس جميل اليوم", "dialect": "MSA"},
            {"text": "مرحبا بكم في المدرسة", "dialect": "MSA"},
            {"text": "الدنيا حر النهاردة", "dialect": "EGY"},
        ]
        qa_rows = [{"question": "كيف الطقس", "answers": ["جميل"], "dialect": "MSA"}]
        sets = {}
        with open(tmp_path / "lm.jsonl", "w", encoding="utf-8") as f:
            for r in lm_rows:
                f.write(json.dumps(r, ensure_ascii=False) + "\n")
        with open(tmp_path / "qa.jsonl", "w", encoding="utf-8") as f:
            for r in qa_rows:
                f.write(json.dumps(r, ensure_ascii=False) + "\n")
        sets["lm"] = load_eval_set(tmp_path / "lm.jsonl", "lm")
        sets["qa"] = load_eval_set(tmp_path / "qa.jsonl", "qa")
        return sets

    def test_composition_matches_standalone(self, tmp_path):
        from desklora.arabicprep import encode_text

        sets = self.eval_sets(tmp_path)
        model = TableModel(VOCAB.n_tokens, seed=9)
        report = dialect_breakdown(model, sets, VOCAB, POLICY)
        msa_items = sets["lm"].subset("MSA")
        seqs = [encode_text(it["text"], VOCAB, POLICY) for it in msa_items]
        assert report.tables["perplexity"]["MSA"] == pytest.approx(perplexity(model, seqs))

    def test_one_teacher_forced_pass_per_sequence(self, tmp_path):
        from desklora.arabicprep import encode_text

        class CountingModel(TableModel):
            calls = 0

            def forward_ids(self, ids):
                self.calls += 1
                return super().forward_ids(ids)

        sets = self.eval_sets(tmp_path)
        model = CountingModel(VOCAB.n_tokens, seed=9)
        report = dialect_breakdown(model, {"lm": sets["lm"]}, VOCAB, POLICY)
        assert model.calls == len(sets["lm"].items)  # each sequence fits one window
        for dialect in ("MSA", "EGY"):
            seqs = [encode_text(it["text"], VOCAB, POLICY) for it in sets["lm"].subset(dialect)]
            assert report.tables["perplexity"][dialect] == perplexity(model, seqs)
            assert report.tables["next_word_accuracy"][dialect] == next_word_accuracy(model, seqs)

    def test_zero_item_dialects_warned(self, tmp_path):
        sets = self.eval_sets(tmp_path)
        model = TableModel(VOCAB.n_tokens, seed=9)
        report = dialect_breakdown(model, sets, VOCAB, POLICY)
        assert any("GLF" in w for w in report.warnings)
        assert "GLF" not in report.tables["perplexity"]

    def test_single_dialect_one_column(self, tmp_path):
        sets = self.eval_sets(tmp_path)
        model = TableModel(VOCAB.n_tokens, seed=9)
        report = dialect_breakdown(model, {"qa": sets["qa"]}, VOCAB, POLICY)
        assert list(report.tables["qa_f1"].keys()) == ["MSA"]

    def test_report_schema_valid(self, tmp_path):
        sets = self.eval_sets(tmp_path)
        model = TableModel(VOCAB.n_tokens, seed=9)
        report = dialect_breakdown(model, sets, VOCAB, POLICY, metadata={"model_hash": "abc"})
        validate_report(report.to_dict())


class TestEmitReport:
    def sample_report(self):
        return EvalReport(
            tables={"perplexity": {"MSA": 12.5, "EGY": 14.0}},
            curves={"robustness": [(0.0, 1.0), (0.5, 0.7)]},
            metadata={"model_hash": "deadbeef"},
            warnings=["qa: no items for dialect GLF; omitted"],
        )

    def test_json_round_trip(self, tmp_path):
        report = self.sample_report()
        paths = emit_report(report, tmp_path)
        with open(paths["json"], "r", encoding="utf-8") as f:
            parsed = json.load(f)
        again = EvalReport.from_dict(parsed)
        assert again.tables == report.tables
        assert again.curves == report.curves
        assert again.metadata == report.metadata

    def test_csv_rows(self, tmp_path):
        paths = emit_report(self.sample_report(), tmp_path)
        lines = open(paths["csv"], encoding="utf-8").read().strip().splitlines()
        assert lines[0] == "kind,metric,dialect,level,value"
        scalar_rows = [l for l in lines if l.startswith("scalar")]
        curve_rows = [l for l in lines if l.startswith("curve")]
        assert len(scalar_rows) == 2  # one per (metric, dialect)
        assert len(curve_rows) == 2  # one per level

    def test_model_hash_in_outputs(self, tmp_path):
        paths = emit_report(self.sample_report(), tmp_path)
        assert "deadbeef" in open(paths["txt"], encoding="utf-8").read()
        assert "deadbeef" in open(paths["json"], encoding="utf-8").read()

    def test_invalid_report_rejected(self):
        with pytest.raises(FormatError):
            validate_report({"format": "desklora-report", "tables": {"x": {"MSA": float("nan")}},
                             "curves": {}, "warnings": [], "metadata": {}})
