import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from desklora import cli
from desklora.arabicprep import BpeVocab, ShardReader, encode_text
from desklora.arabicprep.bpe import BOS_ID, SEP_ID
from desklora.evalharness import (
    MAX_NEW_TOKENS, OPS, bleu, exact_match, lm_scores, perturb, qa_f1, token_f1,
)
from desklora.evalharness.harness import DIALECT_ORDER
from desklora.errors import FormatError
from desklora.lora import dumps_adapters
from desklora.model import load_model
from desklora.quant import dumps_qnf4, quantize
from desklora.numcore import Parameter
from desklora.trainer import AdamW, MemoryBudget, load_checkpoint, read_trainer_state
from desklora.util import sha256_file
from tests.conftest import dmdl5_bytes, opt8_moments, reference_greedy, synth_raw_docs, write_jsonl


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "docs.jsonl"
    write_jsonl(path, synth_raw_docs(120, seed=21))
    return path


@pytest.fixture(scope="module")
def shards_dir(tmp_path_factory, corpus_path):
    out = tmp_path_factory.mktemp("shards")
    rc = cli.main([
        "prep", "--input", str(corpus_path), "--out", str(out), "--vocab-size", "384",
    ])
    assert rc == 0
    return out


def rerun_from_echo(out, new_out):
    """Run the command whose resolved_config.json is in `out` again, from
    that file alone with only its `out` changed to `new_out`."""
    echo = json.loads((out / "resolved_config.json").read_text())
    echo["config"][echo["command"]]["out"] = str(new_out)
    path = new_out.parent / f"{new_out.name}_echo.json"
    path.write_text(json.dumps(echo["config"]))
    return cli.main([echo["command"], "--config", str(path)])


def same_bytes(a, b, names):
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def run_train(shards, out, extra=()):
    return cli.main([
        "train", "--shards", str(shards), "--out", str(out),
        "--steps", "5", "--warmup", "1", "--seq-len", "24", "--lr", "1e-3",
        "--d-model", "16", "--n-heads", "2", "--n-layers", "1", "--d-ffn", "32",
        "--rank", "2", "--checkpoint-every", "5", "--seed", "9", "--accum", "2",
        *extra,
    ])


class TestPrep:
    def test_three_doc_fixture(self, tmp_path):
        src = tmp_path / "three.jsonl"
        write_jsonl(src, [
            {"text": "مرحبا بكم في المدرسة"},
            {"text": "الطقس جميل اليوم"},
            {"text": "كتاب جديد على الطاولة"},
        ])
        rc = cli.main(["prep", "--input", str(src), "--out", str(tmp_path / "o"),
                       "--vocab-size", "300"])
        assert rc == 0
        reader = ShardReader(tmp_path / "o")
        assert len(reader) == 3

    def test_printed_counts_are_the_written_manifests(self, corpus_path, tmp_path, capsys):
        assert cli.main(["prep", "--input", str(corpus_path), "--out", str(tmp_path / "o"),
                         "--vocab-size", "300"]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("  by "):
                label, table = line[len("  by "):].split(": ")
                printed[label] = {k: int(v) for k, v in (kv.split("=") for kv in table.split("  "))}
        counts = json.loads((tmp_path / "o" / "manifest.json").read_text(encoding="utf-8"))["counts"]
        assert len(counts["source"]) > 1 and len(counts["dialect"]) > 1
        assert printed == counts

    def test_empty_after_cleaning_dropped(self, tmp_path):
        src = tmp_path / "drop.jsonl"
        write_jsonl(src, [
            {"text": "english only text"},
            {"text": "مرحبا بكم في البيت"},
            {"text": "الطقس جميل جدا اليوم"},
        ])
        rc = cli.main(["prep", "--input", str(src), "--out", str(tmp_path / "o"),
                       "--vocab-size", "300"])
        assert rc == 0
        assert len(ShardReader(tmp_path / "o")) == 2

    def test_rerun_byte_identical(self, corpus_path, tmp_path):
        for name in ("a", "b"):
            rc = cli.main(["prep", "--input", str(corpus_path), "--out",
                           str(tmp_path / name), "--vocab-size", "384"])
            assert rc == 0
        for fname in ("manifest.json", "shard_0000.bin", "vocab.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_trained_ids_match_a_reused_vocab(self, corpus_path, tmp_path):
        """Training's ids and `--vocab`'s encoded ids write the same shards."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prep": {"shard_docs": 40}}))
        trained, reused = tmp_path / "trained", tmp_path / "reused"
        assert cli.main(["prep", "--config", str(cfg), "--input", str(corpus_path),
                         "--out", str(trained), "--vocab-size", "384"]) == 0
        assert cli.main(["prep", "--config", str(cfg), "--input", str(corpus_path),
                         "--out", str(reused), "--vocab", str(trained / "vocab.json")]) == 0
        manifest = json.loads((trained / "manifest.json").read_text(encoding="utf-8"))
        assert len(manifest["shards"]) == 3
        same_bytes(trained, reused,
                   ["manifest.json", "vocab.json", *(e["file"] for e in manifest["shards"])])

    def test_missing_input_is_config_error(self, tmp_path):
        assert cli.main(["prep", "--out", str(tmp_path / "o")]) == 2

    def test_unreadable_input_is_data_error(self, tmp_path):
        rc = cli.main(["prep", "--input", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_malformed_record_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "d.jsonl"
        write_jsonl(src, [{"text": "كتب الولد"}, {"text": 5}])
        assert cli.main(["prep", "--input", str(src), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "d.jsonl:2: field 'text' must be a string" in err and "Traceback" not in err

    @pytest.mark.parametrize("vocab_size, rc", [((1 << 21) + 1, 2), (1 << 21, 3)])
    def test_vocab_size_bound_checked_before_reading(self, tmp_path, vocab_size, rc):
        """Pair keys hold ids in 21 bits; the missing input shows what was read."""
        assert cli.main(["prep", "--input", str(tmp_path / "nope.jsonl"), "--out",
                         str(tmp_path / "o"), "--vocab-size", str(vocab_size)]) == rc

    @pytest.mark.parametrize("content", [
        '{"format": "desklora-bpe", "version": 1, "merges": [[101, 1',  # truncated
        '{"format": "desklora-bpe", "version": 1, "vocab_size": 300}',  # no merges
        "[]",
        *(json.dumps({"format": "desklora-bpe", "version": 1, "vocab_size": 300,
                      "specials": ["<pad>", "<bos>", "<eos>", "<sep>"], "merges": merges})
          for merges in ([[-3, 5]], [[900, 5]], [[5]], [["a", "b"]], [[101, 102], [101, 102]])),
    ])
    def test_damaged_vocab_is_data_error(self, corpus_path, tmp_path, content):
        (tmp_path / "vocab.json").write_text(content)
        assert cli.main(["prep", "--input", str(corpus_path), "--out", str(tmp_path / "o"),
                         "--vocab", str(tmp_path / "vocab.json")]) == 3

    def test_policy_flags_respected(self, tmp_path):
        src = tmp_path / "d.jsonl"
        write_jsonl(src, [{"text": "كَتَبَ الولد الدرس"}])
        rc = cli.main(["prep", "--input", str(src), "--out", str(tmp_path / "o"),
                       "--vocab-size", "300", "--strip-diacritics"])
        assert rc == 0
        resolved = json.loads((tmp_path / "o" / "resolved_config.json").read_text())
        assert resolved["config"]["prep"]["policy"]["strip_diacritics"] is True


class TestTrain:
    def test_metrics_lines_match_steps(self, shards_dir, tmp_path):
        out = tmp_path / "run"
        assert run_train(shards_dir, out) == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 steps

    def test_resolved_config_written(self, shards_dir, tmp_path):
        out = tmp_path / "run"
        assert run_train(shards_dir, out) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["command"] == "train"
        assert resolved["config"]["train"]["train"]["total_steps"] == 5

    def test_stage_chaining_uses_previous_adapters(self, shards_dir, tmp_path, capsys):
        first = tmp_path / "s1"
        assert run_train(shards_dir, first) == 0
        ckpt = first / "step_000005"
        adapters_hash = sha256_file(ckpt / "adapters.lora")

        second = tmp_path / "s2"
        rc = run_train(shards_dir, second, extra=["--stage", "egy", "--init-from", str(ckpt)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert adapters_hash[:12] in printed
        assert (second / "egy" / "step_000005").exists()

    @pytest.mark.parametrize("start, flag, value, key", [
        ("--init-from", "--rank", "4", "train.model.lora.r"),
        ("--resume", "--d-model", "32", "train.model.d_model"),
        ("--init-from", "--seq-len", "32", "train.train.seq_len"),  # the checkpoint's window is 24
    ])
    def test_model_value_unlike_the_checkpoints_exits_2(self, shards_dir, trained_ckpt, tmp_path,
                                                        capsys, start, flag, value, key):
        rc = run_train(shards_dir, tmp_path / "run", extra=[start, str(trained_ckpt), flag, value])
        assert rc == 2  # run_train's own --rank 2 and --d-model 16 match the checkpoint
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err, err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("init_from", [False, True])
    def test_echo_reruns_its_run(self, shards_dir, trained_ckpt, tmp_path, init_from):
        extra = ["--init-from", str(trained_ckpt)] if init_from else []
        assert run_train(shards_dir, tmp_path / "one", extra=extra) == 0  # at --rank 2
        assert rerun_from_echo(tmp_path / "one", tmp_path / "two") == 0
        same_bytes(tmp_path / "one" / "step_000005", tmp_path / "two" / "step_000005",
                   ("model.qnf4", "adapters.lora", "optimizer.st8"))

    def test_partial_budget_trains_with_the_default_budget(self, shards_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"train": {"budget": {}}}}))
        assert run_train(shards_dir, tmp_path / "run", extra=["--config", str(cfg)]) == 0
        resolved = json.loads((tmp_path / "run" / "resolved_config.json").read_text())["config"]
        assert resolved["train"]["train"]["budget"] == dataclasses.asdict(MemoryBudget())

    def test_dialect_filter_selects_only_tagged_docs(self, shards_dir, tmp_path, capsys):
        out = tmp_path / "egy"
        rc = run_train(shards_dir, out, extra=["--dialect", "EGY"])
        assert rc == 0
        printed = capsys.readouterr().out
        reader = ShardReader(shards_dir)
        egy_tokens = sum(len(t) + 1 for t in reader.iter_tokens("EGY"))
        expected_windows = egy_tokens // 25  # seq_len 24 -> width 25
        assert f"{expected_windows} windows" in printed

    def test_unknown_dialect_filter_is_data_error(self, shards_dir, tmp_path):
        rc = run_train(shards_dir, tmp_path / "x", extra=["--dialect", "ZZZ"])
        assert rc == 3

    def test_damaged_trainer_state_resume_is_data_error(self, shards_dir, tmp_path, capsys):
        assert run_train(shards_dir, tmp_path / "run") == 0
        ckpt = tmp_path / "run" / "step_000005"
        state = ckpt / "trainer_state"
        state.write_bytes(state.read_bytes()[:20])
        capsys.readouterr()
        for argv in (["inspect", str(ckpt)], ["train", "--shards", str(shards_dir), "--out",
                                               str(tmp_path / "again"), "--resume", str(ckpt)]):
            assert cli.main(argv) == 3, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and "trainer_state" in err, err

    @pytest.mark.parametrize("swap", ["shape", "name"])
    def test_resume_with_another_models_optimizer_state_exits_3(self, shards_dir, tmp_path,
                                                               capsys, swap):
        every = ["--checkpoint-every", "4"]  # step 4 of 5, so the resume takes a step
        assert run_train(shards_dir, tmp_path / "run", extra=every) == 0
        ckpt = tmp_path / "run" / "step_000004"
        name, p = load_checkpoint(ckpt)[0].trainable_parameters()[0]
        shape = (p.value.shape[0] + 1, *p.value.shape[1:]) if swap == "shape" else p.value.shape
        foreign = AdamW()
        foreign.step([(name if swap == "shape" else "elsewhere", Parameter(np.zeros(shape)))],
                     {name if swap == "shape" else "elsewhere": np.ones(shape)}, lr=0.1)
        (ckpt / "optimizer.st8").write_bytes(foreign.dumps())
        capsys.readouterr()
        rc = run_train(shards_dir, tmp_path / "again", extra=[*every, "--resume", str(ckpt)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: optimizer state for "), err

    def test_resume_with_a_nan_absmax_exits_3(self, shards_dir, tmp_path, capsys):
        assert run_train(shards_dir, tmp_path / "run") == 0
        path = tmp_path / "run" / "step_000005" / "optimizer.st8"
        blob = path.read_bytes()
        m = next(iter(opt8_moments(blob).values()))[0]
        absmax = m.absmax.astype("<f4").tobytes()  # the first parameter's m blocks
        assert blob.count(absmax) == 1
        path.write_bytes(blob.replace(absmax, np.array(np.nan, "<f4").tobytes() + absmax[4:]))
        with pytest.raises(FormatError, match="absmax NaN, infinite or negative"):
            AdamW().loads(path.read_bytes())
        capsys.readouterr()
        rc = run_train(shards_dir, tmp_path / "again", extra=["--resume", str(path.parent)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("data error: OPT8: block absmax NaN")

    def test_precision_is_not_a_setting(self, shards_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"train": {"precision": "full"}}}))
        assert run_train(shards_dir, tmp_path / "run", extra=["--config", str(cfg)]) == 2
        with pytest.raises(SystemExit) as e:
            run_train(shards_dir, tmp_path / "run", extra=["--precision", "full"])
        assert e.value.code == 2

    def test_determinism_hash_identical(self, shards_dir, tmp_path):
        for name in ("a", "b"):
            assert run_train(shards_dir, tmp_path / name) == 0
        for fname in ("model.qnf4", "adapters.lora", "optimizer.st8"):
            assert sha256_file(tmp_path / "a" / "step_000005" / fname) == sha256_file(
                tmp_path / "b" / "step_000005" / fname
            )
        # metrics identical once the wall-clock column is dropped
        def strip_wall(p):
            lines = (p / "metrics.csv").read_text().strip().splitlines()
            return [",".join(l.split(",")[:-1]) for l in lines]
        assert strip_wall(tmp_path / "a") == strip_wall(tmp_path / "b")


@pytest.fixture(scope="module")
def trained_ckpt(shards_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run_train(shards_dir, out) == 0
    return out / "step_000005"


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("evalsets")
    write_jsonl(d / "lm.jsonl", [
        {"text": "الطقس جميل اليوم", "dialect": "MSA"},
        {"text": "الدنيا حر النهاردة", "dialect": "EGY"},
    ])
    write_jsonl(d / "qa.jsonl", [
        {"question": "كيف الطقس", "answers": ["جميل"], "dialect": "MSA"},
    ])
    write_jsonl(d / "robust.jsonl", [{"text": "الطقس جميل اليوم"}])
    return d


class TestEval:
    def run_eval(self, ckpt, shards, eval_files, out, extra=()):
        return cli.main([
            "eval", "--checkpoint", str(ckpt), "--shards", str(shards),
            "--out", str(out), "--lm", str(eval_files / "lm.jsonl"),
            "--qa", str(eval_files / "qa.jsonl"),
            "--robustness", str(eval_files / "robust.jsonl"),
            "--levels", "0,0.5", "--max-new", "6", *extra,
        ])

    def test_report_files_emitted_and_valid(self, trained_ckpt, shards_dir, eval_files, tmp_path):
        rc = self.run_eval(trained_ckpt, shards_dir, eval_files, tmp_path / "rep")
        assert rc == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        from desklora.evalharness import validate_report

        validate_report(report)
        assert report["metadata"]["model_hash"]
        assert (tmp_path / "rep" / "report.txt").exists()
        assert (tmp_path / "rep" / "curves.csv").exists()

    def test_compare_with_itself_identical_columns(self, trained_ckpt, shards_dir, eval_files, tmp_path):
        rc = self.run_eval(trained_ckpt, shards_dir, eval_files, tmp_path / "rep",
                           extra=["--compare", str(trained_ckpt)])
        assert rc == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        for metric, row in report["comparison"].items():
            for dialect, cells in row.items():
                assert cells["base"] == cells["finetuned"], (metric, dialect)

    def test_a_version_4_model_file_exits_3(self, trained_ckpt, shards_dir, eval_files, tmp_path,
                                            capsys):
        """A checkpoint whose model file is DMDL 4, which held one diacritic
        flag per token id after the config, is refused by its version."""
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for name in os.listdir(trained_ckpt):
            (ckpt / name).write_bytes((trained_ckpt / name).read_bytes())
        data = (ckpt / "model.qnf4").read_bytes()
        assert data[:6] == b"DMDL" + (6).to_bytes(2, "little")
        end = 10 + int.from_bytes(data[6:10], "little")  # the config text's blob
        vocab = json.loads(data[10:end])["vocab_size"]
        (ckpt / "model.qnf4").write_bytes(
            b"DMDL" + (4).to_bytes(2, "little") + data[6:end] + bytes(vocab) + data[end:])
        assert self.run_eval(ckpt, shards_dir, eval_files, tmp_path / "rep") == 3
        err = capsys.readouterr().err
        assert "unsupported version 4, expected 6" in err and "Traceback" not in err
        assert not (tmp_path / "rep").exists()

    def test_a_version_5_model_file_exits_3(self, trained_ckpt, shards_dir, eval_files, tmp_path,
                                            capsys):
        """A checkpoint whose model file is DMDL 5, which held a LayerNorm bias
        after each norm gain, is refused by its version."""
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for name in os.listdir(trained_ckpt):
            (ckpt / name).write_bytes((trained_ckpt / name).read_bytes())
        (ckpt / "model.qnf4").write_bytes(dmdl5_bytes(load_model(trained_ckpt / "model.qnf4")))
        assert self.run_eval(ckpt, shards_dir, eval_files, tmp_path / "rep") == 3
        err = capsys.readouterr().err
        assert "unsupported version 5, expected 6" in err and "Traceback" not in err
        assert not (tmp_path / "rep").exists()

    def test_report_equals_a_full_window_reference(self, trained_ckpt, shards_dir, tmp_path):
        """Every section, several dialects and the compare side, checked against
        a per-prompt greedy loop that recomputes the full window for every
        token: the values that argmax gives are exactly the reference's."""
        # 40 steps at a high rate: continuations that differ from prompt to prompt
        extra = ["--steps", "40", "--lr", "1e-2", "--checkpoint-every", "40"]
        assert run_train(shards_dir, tmp_path / "run", extra=extra) == 0
        ckpt, base_ckpt = tmp_path / "run" / "step_000040", trained_ckpt
        long = " ".join(["الطقس جميل اليوم"] * 4)  # longer than the 24-token window
        sets = {
            "lm": [{"text": "الطقس جميل اليوم", "dialect": "MSA"},
                   {"text": "الدنيا حر النهاردة", "dialect": "EGY"}],
            "qa": [{"question": "كيف الطقس", "answers": ["ماء مرحبا"], "dialect": "MSA"},
                   {"question": long, "answers": ["قصيرة"], "dialect": "EGY"},
                   {"question": "ذهب الولد", "answers": ["مرحبا"], "dialect": "EGY"}],
            "mt": [{"source": "مرحبا بكم", "references": ["قصيرة ماء حرف"], "dialect": "LEV"},
                   {"source": long, "references": ["قصيرة ماء مرحبا"], "dialect": "MSA"},
                   {"source": "كتاب جديد", "references": ["مرحبا"], "dialect": "MSA"}],
            "robustness": [{"text": "الطقس جميل اليوم"}, {"text": long},
                           {"text": "ذهب الولد الي المدرسة"}],
        }
        paths = {}
        for kind, rows in sets.items():
            paths[kind] = write_jsonl(tmp_path / f"{kind}.jsonl", rows)
        levels, max_new, seed = (0.0, 0.3, 0.6), 30, 5
        assert cli.main([
            "eval", "--checkpoint", str(ckpt), "--shards", str(shards_dir),
            "--out", str(tmp_path / "rep"), "--lm", str(paths["lm"]), "--qa", str(paths["qa"]),
            "--mt", str(paths["mt"]), "--robustness", str(paths["robustness"]),
            "--levels", ",".join(map(str, levels)), "--max-new", str(max_new), "--seed", str(seed),
            "--compare", str(base_ckpt),
        ]) == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())

        vocab = BpeVocab.load(shards_dir / "vocab.json")
        policy = ShardReader(shards_dir).policy
        encode = lambda text: encode_text(text, vocab, policy)

        def reference_tables(model):
            decode = lambda prompt: vocab.decode(reference_greedy(model, prompt, MAX_NEW_TOKENS))
            tables = {}
            for dialect in DIALECT_ORDER:
                pick = lambda kind: [it for it in sets[kind] if it["dialect"] == dialect]
                if lm := pick("lm"):
                    ppl, acc = lm_scores(model, [encode(it["text"]) for it in lm])
                    tables.setdefault("perplexity", {})[dialect] = ppl
                    tables.setdefault("next_word_accuracy", {})[dialect] = acc
                if mt := pick("mt"):
                    preds = [decode([BOS_ID, *encode(it["source"]), SEP_ID]) for it in mt]
                    tables.setdefault("bleu", {})[dialect] = float(np.mean(
                        [bleu(p, it["references"]) for p, it in zip(preds, mt)]))
                if qa := pick("qa"):
                    preds = [decode([BOS_ID, *encode(it["question"]), SEP_ID]) for it in qa]
                    tables.setdefault("qa_f1", {})[dialect] = float(np.mean(
                        [qa_f1(p, it["answers"]) for p, it in zip(preds, qa)]))
                    tables.setdefault("qa_exact_match", {})[dialect] = float(np.mean(
                        [exact_match(p, it["answers"]) for p, it in zip(preds, qa)]))
            return tables

        model, _ = load_checkpoint(ckpt)
        base, _ = load_checkpoint(base_ckpt)
        assert report["tables"] == reference_tables(model)
        assert {metric: {d: cells["base"] for d, cells in row.items()}
                for metric, row in report["comparison"].items()} == reference_tables(base)
        texts = [it["text"] for it in sets["robustness"]]
        clean = [reference_greedy(model, [BOS_ID, *encode(t)], max_new) for t in texts]
        curve = [[level, float(np.mean([
            token_f1(c, reference_greedy(model, [BOS_ID, *encode(perturb(t, level, OPS, seed))],
                                         max_new)) for t, c in zip(texts, clean)]))]
            for level in levels]
        assert report["curves"]["robustness"] == curve

    def test_lm_text_longer_than_the_window(self, trained_ckpt, shards_dir, tmp_path):
        model, _ = load_checkpoint(trained_ckpt)
        vocab = BpeVocab.load(shards_dir / "vocab.json")
        text = " ".join(["الطقس جميل اليوم"] * 6)
        n_ids = len(encode_text(text, vocab, ShardReader(shards_dir).policy))
        assert 2 * model.cfg.max_seq_len < n_ids < 3 * model.cfg.max_seq_len
        write_jsonl(tmp_path / "long.jsonl", [{"text": text}])
        rc = cli.main(["eval", "--checkpoint", str(trained_ckpt), "--shards", str(shards_dir),
                       "--out", str(tmp_path / "rep"), "--lm", str(tmp_path / "long.jsonl")])
        assert rc == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert np.isfinite(report["tables"]["perplexity"]["MSA"])

    def test_seed_flag_beats_the_config_file(self, shards_dir, eval_files, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"train": {"seed": 3}},
                                   "eval": {"perturbation": {"seed": 3}}}))
        assert run_train(shards_dir, tmp_path / "run", extra=["--config", str(cfg)]) == 0  # --seed 9
        resolved = json.loads((tmp_path / "run" / "resolved_config.json").read_text())["config"]
        assert resolved["train"]["train"]["seed"] == 9 and "seed" not in resolved["train"]
        assert read_trainer_state(tmp_path / "run" / "step_000005")["seed"] == 9
        rc = self.run_eval(tmp_path / "run" / "step_000005", shards_dir, eval_files,
                           tmp_path / "rep", extra=["--config", str(cfg), "--seed", "7"])
        assert rc == 0
        resolved = json.loads((tmp_path / "rep" / "resolved_config.json").read_text())["config"]
        assert resolved["eval"]["perturbation"]["seed"] == 7 and "seed" not in resolved["eval"]
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert report["metadata"]["perturbation"]["seed"] == 7

    @pytest.mark.parametrize("perturbation", [{"bogus": 1}, {"levels": [2.0]}])
    def test_bad_perturbation_config_exits_2_before_reading(self, tmp_path, capsys, perturbation):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eval": {"perturbation": perturbation}}))
        rc = cli.main(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "no_ckpt"),
                       "--shards", str(tmp_path / "no_shards"), "--out", str(tmp_path / "rep")])
        assert rc == 2  # reading the missing checkpoint or shards first would exit 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_echo_reruns_its_run(self, trained_ckpt, shards_dir, eval_files, tmp_path):
        rc = self.run_eval(trained_ckpt, shards_dir, eval_files, tmp_path / "one",
                           extra=["--seed", "4"])
        assert rc == 0
        assert rerun_from_echo(tmp_path / "one", tmp_path / "two") == 0
        same_bytes(tmp_path / "one", tmp_path / "two", ("report.json",))

    def test_missing_eval_file_names_path(self, trained_ckpt, shards_dir, tmp_path, capsys):
        rc = cli.main([
            "eval", "--checkpoint", str(trained_ckpt), "--shards", str(shards_dir),
            "--out", str(tmp_path / "rep"), "--lm", str(tmp_path / "missing.jsonl"),
        ])
        assert rc == 3
        assert "missing.jsonl" in capsys.readouterr().err

    def test_malformed_eval_line_is_data_error(self, trained_ckpt, shards_dir, tmp_path, capsys):
        (tmp_path / "lm.jsonl").write_text('{"text": "t"}\n{bad\n', encoding="utf-8")
        rc = cli.main([
            "eval", "--checkpoint", str(trained_ckpt), "--shards", str(shards_dir),
            "--out", str(tmp_path / "rep"), "--lm", str(tmp_path / "lm.jsonl"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "lm.jsonl:2: invalid JSON" in err and "Traceback" not in err

    def test_adapters_at_another_alpha_exit_3(self, trained_ckpt, shards_dir, eval_files, tmp_path,
                                              capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for name in os.listdir(trained_ckpt):
            (ckpt / name).write_bytes((trained_ckpt / name).read_bytes())
        model, _ = load_checkpoint(ckpt)
        half = dataclasses.replace(model.cfg.lora, alpha=model.cfg.lora.alpha / 2)
        (ckpt / "adapters.lora").write_bytes(dumps_adapters(model.adapted_layers(), half))
        assert self.run_eval(ckpt, shards_dir, eval_files, tmp_path / "rep") == 3
        err = capsys.readouterr().err
        assert "data error: adapter checkpoint has rank" in err and "Traceback" not in err
        assert not (tmp_path / "rep").exists()

    def test_eval_deterministic(self, trained_ckpt, shards_dir, eval_files, tmp_path):
        for name in ("a", "b"):
            assert self.run_eval(trained_ckpt, shards_dir, eval_files, tmp_path / name) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_vocab_hash_mismatch_rejected(self, trained_ckpt, eval_files, tmp_path, corpus_path):
        other = tmp_path / "other_shards"
        assert cli.main(["prep", "--input", str(corpus_path), "--out", str(other),
                         "--vocab-size", "300"]) == 0
        rc = cli.main([
            "eval", "--checkpoint", str(trained_ckpt), "--shards", str(other),
            "--out", str(tmp_path / "rep"), "--lm", str(eval_files / "lm.jsonl"),
        ])
        assert rc == 2


class TestPerturbInspect:
    def test_perturb_stdout(self, capsys):
        assert cli.main(["perturb", "--text", "مرحبا بكم", "--level", "0"]) == 0
        assert capsys.readouterr().out.strip() == "مرحبا بكم"

    def test_inspect_artifacts(self, shards_dir, trained_ckpt, capsys):
        rc = cli.main(["inspect", str(shards_dir), str(trained_ckpt),
                       str(shards_dir / "vocab.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shard set" in out
        assert "checkpoint at step 5" in out
        assert "tokenizer" in out

    def test_inspect_missing_path(self):
        assert cli.main(["inspect", "/nonexistent/path"]) == 3

    @pytest.mark.parametrize("text", ["[]", "3", '"x"'])
    def test_inspect_json_without_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "x.json"
        path.write_text(text)
        assert cli.main(["inspect", str(path)]) == 0
        assert capsys.readouterr().out == f"{path}: unrecognized format\n"

    @staticmethod
    def artifacts(trained_ckpt, shards_dir, tmp_path):
        """One file of each container kind: QNF4, LORA, DMDL, OPT8 and SHRD."""
        (tmp_path / "w.qnf4").write_bytes(dumps_qnf4(quantize(np.linspace(-1, 1, 40))))
        return [tmp_path / "w.qnf4", trained_ckpt / "adapters.lora",
                trained_ckpt / "model.qnf4", trained_ckpt / "optimizer.st8",
                shards_dir / "shard_0000.bin"]

    def test_inspect_loads_every_artifact_kind(self, trained_ckpt, shards_dir, tmp_path, capsys):
        rc = cli.main(["inspect", *map(str, self.artifacts(trained_ckpt, shards_dir, tmp_path))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "QNF4 tensor shape (40,)" in out
        assert "adapter checkpoint r=2" in out
        assert "model checkpoint, 1 layers, d_model 16" in out
        assert "adamw8 optimizer state at step 5" in out
        reader = ShardReader(shards_dir)
        tokens = sum(d["tokens"] for d in reader.docs)
        assert f"token shard, {len(reader)} docs, {tokens} tokens" in out

    @pytest.mark.parametrize("keep", [6, 14])
    def test_truncated_shard_with_its_checksum_is_a_data_error(self, shards_dir, tmp_path, keep,
                                                               capsys):
        for f in shards_dir.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        blob = (shards_dir / "shard_0000.bin").read_bytes()[:keep]
        (tmp_path / "shard_0000.bin").write_bytes(blob)
        manifest = json.loads((shards_dir / "manifest.json").read_text(encoding="utf-8"))
        manifest["shards"][0]["sha256"] = hashlib.sha256(blob).hexdigest()
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(FormatError, match="shard_0000.bin: SHRD: truncated"):
            ShardReader(tmp_path)
        capsys.readouterr()
        assert cli.main(["inspect", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("edit", [
        {"tables": []},
        {"tables": {"perplexity": {"MSA": True}}},
        {"curves": {"robustness": 5}},
        {"curves": {"robustness": [1]}},
        {"curves": {"robustness": [["a", "b"]]}},
    ])
    def test_inspect_damaged_report_is_a_data_error(self, tmp_path, capsys, edit):
        report = {"format": "desklora-report", "version": 1, "metadata": {},
                  "tables": {"perplexity": {"MSA": 3.5}}, "curves": {"robustness": [[0, 1.0]]},
                  "warnings": []}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert cli.main(["inspect", str(path)]) == 0
        path.write_text(json.dumps(report | edit))
        capsys.readouterr()
        assert cli.main(["inspect", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err

    def test_inspect_truncated_artifacts_are_data_errors(self, trained_ckpt, shards_dir, tmp_path,
                                                         capsys):
        for path in self.artifacts(trained_ckpt, shards_dir, tmp_path):
            cut = tmp_path / f"cut_{path.name}"
            cut.write_bytes(path.read_bytes()[:20])
            assert cli.main(["inspect", str(cut)]) == 3, path.name
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and err.count("\n") == 1, err


class TestConfigFile:
    def test_file_plus_flag_precedence(self, corpus_path, tmp_path):
        cfg = {"prep": {"input": str(corpus_path), "out": str(tmp_path / "from_file"),
                        "vocab_size": 300}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        # flag overrides the file's out dir
        rc = cli.main(["prep", "--config", str(cfg_path), "--out", str(tmp_path / "flag_out")])
        assert rc == 0
        assert (tmp_path / "flag_out" / "manifest.json").exists()
        assert not (tmp_path / "from_file").exists()

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"nonsense": {}}))
        assert cli.main(["prep", "--config", str(p), "--input", "x", "--out", "y"]) == 2

    def test_shard_docs_out_of_range_rejected(self, tmp_path):
        src = write_jsonl(tmp_path / "docs.jsonl", synth_raw_docs(5, seed=3))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"prep": {"shard_docs": 0}}))
        rc = cli.main(["prep", "--config", str(p), "--input", str(src), "--out",
                       str(tmp_path / "o"), "--vocab-size", "300"])
        assert rc == 2

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"prep": {"frobnicate": 1}}))
        assert cli.main(["prep", "--config", str(p), "--input", "x", "--out", "y"]) == 2

    def test_diacritic_bias_is_an_unknown_model_key(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"train": {"model": {"diacritic_bias": 0.0}}}))
        rc = cli.main(["train", "--config", str(p), "--shards", str(tmp_path / "no_shards"),
                       "--out", str(tmp_path / "out")])
        assert rc == 2  # reading the missing shards first would exit 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "diacritic_bias" in err, err

    @pytest.mark.parametrize("cfg", [{"global": {"seed": 1}}, {"global": {"out": "o"}},
                                     {"prep": {"seed": 1}}, {"train": {"seed": 1}},
                                     {"eval": {"seed": 1}}, {"train": {"lora": {"r": 2}}},
                                     {"train": {"train": {"weight_decay": 0.0}}},
                                     {"train": {"train": {"betas": [0.9, 0.999]}}},
                                     {"train": {"train": {"eps": 1e-8}}}])
    def test_keys_nothing_reads_rejected(self, tmp_path, cfg):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["prep", "--config", str(p), "--input", "x", "--out", "y"]) == 2

    @pytest.mark.parametrize("command, section", [
        ("train", {"model": 5}), ("train", {"lora": [1]}), ("train", {"train": 5}),
        ("train", {"shards": 5}), ("train", {"train": {"budget": {"device_bytes": -1}}}),
        ("prep", {"vocab_size": "abc"}), ("prep", {"shard_docs": "x"}), ("prep", {"policy": 5}),
        ("prep", {"per_sentence": "no"}), ("eval", {"max_new": "abc"}),
        ("train", {"train": {"seq_len": 64}, "model": {"max_seq_len": 32}}),
    ])
    def test_bad_value_exits_2_before_reading(self, tmp_path, capsys, command, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({command: section}))
        paths = {key: tmp_path / f"no_{key}" for key in cli.REQUIRED[command] if key not in section}
        argv = [x for key, path in paths.items() for x in (f"--{key}", str(path))]
        rc = cli.main([command, "--config", str(cfg), *argv])
        assert rc == 2  # reading the missing input, shards or checkpoint first would exit 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("section, extra", [
        ({}, ["--checkpoint-every", "0"]), ({"train": {"keep_checkpoints": 0}}, []),
    ])
    def test_no_checkpoints_exits_2_before_reading(self, tmp_path, capsys, section, extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": section}))
        rc = cli.main(["train", "--config", str(cfg), "--shards", str(tmp_path / "no_shards"),
                       "--out", str(tmp_path / "out"), *extra])
        assert rc == 2  # reading the missing shards first would exit 3
        err = capsys.readouterr().err
        assert err == "config error: checkpoint_every and keep_checkpoints must be >= 1\n", err
        assert not (tmp_path / "out").exists()

    def test_train_has_no_diacritic_bias_flag(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            cli.main(["train", "--shards", str(tmp_path / "no_shards"),
                      "--out", str(tmp_path / "out"), "--diacritic-bias", "0.5"])
        assert e.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_prep_has_no_seed_flag(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["prep", "--input", "x", "--out", "y", "--seed", "1"])
        assert e.value.code == 2

    def test_reproduce_from_resolved_echo(self, corpus_path, tmp_path):
        assert cli.main(["prep", "--input", str(corpus_path), "--out", str(tmp_path / "one"),
                         "--vocab-size", "384", "--no-unify-ya"]) == 0
        assert rerun_from_echo(tmp_path / "one", tmp_path / "two") == 0
        same_bytes(tmp_path / "one", tmp_path / "two",
                   ("manifest.json", "shard_0000.bin", "vocab.json"))
