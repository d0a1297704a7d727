"""The benchmark's four workloads and the checks on their outputs.

Each workload calls the public entry points a user calls: `desklora prep`,
`desklora.trainer.train` and `desklora eval`. Set-up makes the inputs and
everything the timed call needs; `op` times one public call; `check` runs
outside the timed region and returns, per operation, what was wrong with
its outputs.

- prep: BPE training and encoding in arabicprep do the work; numcore idles.
- finetune: forward and backward at the C09 shape, 8-bit AdamW state
  requantization about a tenth of a step; prep and decoding idle.
- finetune_long: the CLI-default memory recipe (one sequence per micro-batch,
  accumulation 8, seq_len 128, gradient checkpointing, periodic saves), so
  attention's T^2 cost and checkpoint recompute dominate and the optimizer
  is small. The only workload on the checkpoint path.
- evaluate: forward-only greedy decoding that reruns the whole sliding window
  for every token, plus teacher-forced perplexity; backward and the
  optimizer idle.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import desklora.cli as cli
import desklora.trainer as trainer
from desklora.arabicprep import (
    BOUNDARY,
    BpeVocab,
    DialectLexicon,
    NormalizationPolicy,
    ShardReader,
    encode_text,
    prepare_documents,
    strip_boundaries,
)
from desklora.arabicprep.bpe import BOS_ID, SEP_ID
from desklora.evalharness import (
    DEFAULT_LEVELS,
    MAX_NEW_TOKENS,
    OPS,
    bleu,
    exact_match,
    perturb,
    qa_f1,
    token_f1,
)
from desklora.lora import LoraConfig
from desklora.model import ModelConfig, build
from desklora.numcore import Rng
from desklora.trainer import TrainConfig, load_checkpoint

from . import inputs


@dataclass(frozen=True)
class Sizes:
    prep_docs: int = 1200
    finetune_steps: int = 40
    finetune_windows: int = 256
    long_seq_len: int = 128
    long_steps: int = 12
    eval_corpus_docs: int = 80
    eval_train_steps: int = 10
    eval_lm_per_dialect: int = 4
    eval_qa: int = 4
    eval_mt: int = 4
    eval_robust: int = 3
    eval_prompt_words: int = 30
    robust_max_new: int = 16


FULL = Sizes()
# Small enough for a test to run every workload in a few seconds.
TINY = Sizes(prep_docs=40, finetune_steps=8,
             finetune_windows=16, long_seq_len=16, long_steps=8,
             eval_corpus_docs=30, eval_train_steps=2, eval_lm_per_dialect=1, eval_qa=1,
             eval_mt=1, eval_robust=1, eval_prompt_words=6, robust_max_new=2)

LR = 3e-3
VOCAB_SIZE = 512
FINETUNE_SEQ_LEN = 48
LONG_CHECKPOINT_EVERY = 4
FINAL_LOSS_STEPS = 10


@dataclass
class OpResult:
    wall_s: float  # wall time of the public call
    work: float  # work units the call completed
    latencies_ms: list  # what a user waits on: one per call, or one per optimizer step
    data: dict = field(default_factory=dict)  # outputs the checks read


def run_cli(*args) -> int:
    """`desklora <args>` in this process, with its progress output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in args])


def run_cli_child(*args):
    """`desklora <args>` in a child process, for set-up work whose memory must
    stay out of this process's peak RSS. Raises if the command fails."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "desklora.cli", *(str(a) for a in args)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up: desklora {args[0]} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(hashlib.sha256(b).digest())
    return h.hexdigest()


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _same_as_first(results, key) -> list[list[str]]:
    first = results[0].data[key]
    return [[] if r.data[key] == first else [f"{key} differs from the first operation's"]
            for r in results]


def _merge_errors(*lists) -> list[list[str]]:
    return [sum(per_op, []) for per_op in zip(*lists)]


def _guarded(check, *args) -> list[str]:
    """Run one output check; a check that raises has found a broken output."""
    try:
        return check(*args)
    except Exception as e:  # any failure to read or verify an output fails the operation
        return [f"{check.__name__} raised {type(e).__name__}: {e}"]


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, sizes: Sizes, seed: int, work_dir: str):
        self.sizes = sizes
        self.seed = seed
        self.work_dir = work_dir

    def path(self, *parts) -> str:
        return os.path.join(self.work_dir, *parts)

    def setup(self):
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def check(self, results) -> list[list[str]]:
        raise NotImplementedError

    def fingerprint(self, results) -> dict:
        """Values that must repeat exactly across runs of one commit and seed."""
        raise NotImplementedError

    def summary(self, results) -> dict:
        """End-to-end figures under the names the workload's users know them by."""
        raise NotImplementedError

    def layer_values(self, results) -> dict:
        """Per-layer metrics that come from outputs rather than spans."""
        return {}

    def properties(self) -> dict:
        """Input properties the workload's behaviour depends on."""
        return {}


# ---------------------------------------------------------------------------
# prep
# ---------------------------------------------------------------------------


def check_prep_output(out_dir, expected_texts) -> list[str]:
    """Every shard document decodes to its prepared text, without boundary markers."""
    errors = []
    reader = ShardReader(out_dir)
    vocab = BpeVocab.load(os.path.join(out_dir, "vocab.json"))
    if reader.vocab_hash != vocab.vocab_hash():
        errors.append("shard manifest vocab hash does not match vocab.json")
    if len(reader) != len(expected_texts):
        return errors + [f"{len(reader)} shard documents, expected {len(expected_texts)}"]
    bad = []
    for i, text in enumerate(expected_texts):
        decoded = vocab.decode(reader.doc_tokens(i))
        if BOUNDARY in decoded or decoded != strip_boundaries(text):
            bad.append(i)
    if bad:
        errors.append(f"{len(bad)} shard documents do not decode to their text (first {bad[0]})")
    return errors


class Prep(Workload):
    """`desklora prep --vocab-size 512` over a 1200-document synthetic corpus."""

    name = "prep"
    work_unit = "KB"

    def setup(self):
        os.makedirs(self.work_dir, exist_ok=True)
        self.raw = inputs.corpus(self.sizes.prep_docs, self.seed)
        self.corpus_path = self.path("corpus.jsonl")
        inputs.write_jsonl(self.corpus_path, self.raw)
        self.corpus_kb = sum(len(d["text"].encode("utf-8")) for d in self.raw) / 1000

    def op(self, index: int) -> OpResult:
        out = self.path(f"prep_{index}")
        t0 = time.perf_counter()
        rc = run_cli("prep", "--input", self.corpus_path, "--out", out,
                     "--vocab-size", VOCAB_SIZE)
        wall = time.perf_counter() - t0
        return OpResult(wall, self.corpus_kb, [wall * 1e3], {"rc": rc, "out": out})

    def check(self, results) -> list[list[str]]:
        policy = NormalizationPolicy()  # the CLI default, which the operations use
        docs = prepare_documents(self.raw, policy, DialectLexicon.default(policy))
        self.texts = [d.text for d in docs]
        per_op = []
        for r in results:
            if r.data["rc"] != 0:
                per_op.append([f"desklora prep exited with {r.data['rc']}"])
                continue
            per_op.append(_guarded(check_prep_output, r.data["out"], self.texts))
            r.data["artifacts"] = _digest(_read(os.path.join(r.data["out"], "vocab.json")),
                                          _read(os.path.join(r.data["out"], "manifest.json")))
        if any(r.data["rc"] != 0 for r in results):
            return per_op
        return _merge_errors(per_op, _same_as_first(results, "artifacts"))

    def fingerprint(self, results) -> dict:
        return {"artifacts": results[0].data.get("artifacts")}

    def summary(self, results) -> dict:
        wall = sum(r.wall_s for r in results)
        return {"prep_kb_per_s": sum(r.work for r in results) / wall}

    def layer_values(self, results) -> dict:
        return {"arabicprep.encode.repeat_piece_share": self.properties()["repeat_piece_share"]}

    def properties(self) -> dict:
        props = {"corpus_kb": self.corpus_kb, "documents": len(self.raw),
                 "vocab_size": VOCAB_SIZE}
        texts = getattr(self, "texts", None)  # set by check()
        if texts is not None:
            pieces = [p for t in texts for p in t.split(BOUNDARY) if p]
            props.update(prepared_documents=len(texts), pieces=len(pieces),
                         repeat_piece_share=inputs.repeated_share(pieces))
        return props


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def read_metrics_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        return [dict(zip(header, (float(x) for x in line.strip().split(",")))) for line in f]


def final_loss(rows) -> float:
    return float(np.mean([r["loss"] for r in rows[-FINAL_LOSS_STEPS:]]))


def check_training_output(rows, base_before: bytes, model, checkpoint_dir, probe) -> list[str]:
    """Loss fell, the frozen base is untouched, the final checkpoint reloads exactly."""
    errors = []
    losses = [r["loss"] for r in rows]
    if not rows or not all(math.isfinite(x) for x in losses):
        errors.append("metrics.csv is empty or holds a non-finite loss")
    elif not final_loss(rows) < losses[0]:
        errors.append(f"final loss {final_loss(rows):.4f} is not below the first {losses[0]:.4f}")
    if model.base_bytes() != base_before:
        errors.append("training changed the quantized base weights")
    reloaded, _ = load_checkpoint(checkpoint_dir)
    if not np.array_equal(reloaded.forward_ids(probe), model.forward_ids(probe)):
        errors.append("final checkpoint reloads with different logits")
    return errors


class _Training(Workload):
    work_unit = "tok"
    checkpointing = False

    def _build(self):
        cfg = ModelConfig(
            vocab_size=VOCAB_SIZE, d_model=64, n_heads=4, n_layers=2, d_ffn=256,
            max_seq_len=self.seq_len + 1, lora=LoraConfig(r=8, dropout=0.05),
        )
        return build(cfg, Rng(self.seed))

    def setup(self):
        os.makedirs(self.work_dir, exist_ok=True)
        self.windows = inputs.token_windows(self.n_windows, self.seq_len + 1,
                                            VOCAB_SIZE, self.seed)
        self.model = self._build()
        self.config = TrainConfig(
            micro_batch=self.micro_batch, accumulation_steps=self.accumulation, lr_max=LR,
            warmup_steps=max(1, self.steps // 5), total_steps=self.steps, max_grad_norm=1.0,
            seq_len=self.seq_len, seed=self.seed, optimizer="adamw8",
            checkpointing=self.checkpointing, checkpoint_every=self.checkpoint_every,
        )

    def op(self, index: int) -> OpResult:
        model = self.model if index == 0 else self._build()
        out = self.path(f"train_{index}")
        t0 = time.perf_counter()
        result = trainer.train(model, self.windows, self.config, out)
        wall = time.perf_counter() - t0
        rows = read_metrics_csv(os.path.join(out, "metrics.csv"))
        tokens = self.steps * self.micro_batch * self.accumulation * self.seq_len
        return OpResult(wall, tokens, [r["wall_ms"] for r in rows], {
            "rows": rows, "model": model, "checkpoint": result.final_checkpoint,
            "trajectory": [tuple(v for k, v in r.items() if k != "wall_ms") for r in rows],
        })

    def check(self, results) -> list[list[str]]:
        base_before = self._build().base_bytes()
        probe = self.windows[0][:-1]
        outputs = [_guarded(check_training_output, r.data["rows"], base_before, r.data["model"],
                            r.data["checkpoint"], probe) for r in results]
        return _merge_errors(outputs, _same_as_first(results, "trajectory"))

    def fingerprint(self, results) -> dict:
        rows = results[0].data["rows"]
        return {"final_loss": final_loss(rows), "device_hw_mb": _device_hw_mb(rows),
                "trajectory": _digest(repr(results[0].data["trajectory"]).encode())}

    def summary(self, results) -> dict:
        steps_ms = [x for r in results for x in r.latencies_ms]
        rows = results[0].data["rows"]
        out = {
            "train_tokens_per_s": sum(r.work for r in results) / sum(r.wall_s for r in results),
            "step_ms_p50": float(np.median(steps_ms)),
            "step_samples": len(steps_ms),
            "final_loss": final_loss(rows),
            "device_hw_mb": _device_hw_mb(rows),
        }
        if len(steps_ms) >= 100:
            out["step_ms_p90"] = float(np.percentile(steps_ms, 90))
        return out

    def layer_values(self, results) -> dict:
        rows = results[0].data["rows"]
        return {
            "trainer.ledger.host_hw_mb": max(r["host_hw_bytes"] for r in rows) / 2**20,
            "trainer.ledger.device_hw_mb": _device_hw_mb(rows),
            "trainer.final_loss": final_loss(rows),
        }

    def properties(self) -> dict:
        return {"windows": self.n_windows, "seq_len": self.seq_len,
                "micro_batch": self.micro_batch, "accumulation": self.accumulation,
                "steps_per_call": self.steps, "checkpointing": self.checkpointing,
                "checkpoint_every": self.checkpoint_every,
                "vocab_size": VOCAB_SIZE}


def _device_hw_mb(rows) -> float:
    return max(r["device_hw_bytes"] for r in rows) / 2**20


class Finetune(_Training):
    """C09 shape: 8 sequences of 48 tokens per step, d=64, 2 layers, r=8, adamw8."""

    name = "finetune"

    def __init__(self, sizes, seed, work_dir):
        super().__init__(sizes, seed, work_dir)
        self.micro_batch, self.accumulation = 8, 1
        self.seq_len = FINETUNE_SEQ_LEN
        self.steps = self.checkpoint_every = sizes.finetune_steps
        self.n_windows = sizes.finetune_windows


class FinetuneLong(_Training):
    """One 128-token sequence per micro-batch, accumulation 8, checkpointing, periodic saves."""

    name = "finetune_long"

    def __init__(self, sizes, seed, work_dir):
        super().__init__(sizes, seed, work_dir)
        self.micro_batch, self.accumulation = 1, 8
        self.seq_len = sizes.long_seq_len
        self.steps = sizes.long_steps
        self.checkpoint_every = LONG_CHECKPOINT_EVERY
        self.checkpointing = True
        self.n_windows = self.steps * self.accumulation


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def reference_greedy(model, prompt, max_new: int) -> list[int]:
    """Greedy decoding that recomputes the full window through `forward_ids`."""
    ids = [int(i) for i in prompt]
    out = []
    limit = model.cfg.max_seq_len
    for _ in range(max_new):
        logits = model.forward_ids(np.asarray(ids[-limit:], dtype=np.int64))
        nxt = int(np.argmax(logits[-1]))
        out.append(nxt)
        ids.append(nxt)
    return out


def _reference_nll(model, seq) -> tuple[float, int, int]:
    ids = np.asarray([BOS_ID, *seq], dtype=np.int64)
    logits = model.forward_ids(ids[:-1]).astype(np.float64)
    x = logits - logits.max(axis=-1, keepdims=True)
    logp = x - np.log(np.exp(x).sum(axis=-1, keepdims=True))
    target = np.asarray(seq)
    nll = -logp[np.arange(len(seq)), target]
    hits = int((logits.argmax(axis=-1) == target).sum())
    return float(nll.sum()), len(seq), hits


def reference_report(model, sets, vocab, policy, seed: int, robust_max_new: int) -> dict:
    """Expected report tables and robustness curve, plus every greedy call's
    (prompt length, new tokens)."""
    tables: dict = {}
    greedy_calls = []

    def greedy(prompt, max_new):
        greedy_calls.append((len(prompt), max_new))
        return reference_greedy(model, prompt, max_new)

    for dialect in inputs.DIALECTS:
        seqs = [encode_text(it["text"], vocab, policy)
                for it in sets["lm"] if it.get("dialect", "MSA") == dialect]
        seqs = [s for s in seqs if s]
        if not seqs:
            continue
        total = count = hits = 0
        for s in seqs:
            nll, n, h = _reference_nll(model, s)
            total, count, hits = total + nll, count + n, hits + h
        tables.setdefault("perplexity", {})[dialect] = math.exp(total / count)
        tables.setdefault("next_word_accuracy", {})[dialect] = hits / count
    for dialect in inputs.DIALECTS:
        items = [it for it in sets["mt"] if it.get("dialect", "MSA") == dialect]
        if items:
            scores = []
            for it in items:
                prompt = [BOS_ID, *encode_text(it["source"], vocab, policy), SEP_ID]
                scores.append(bleu(vocab.decode(greedy(prompt, MAX_NEW_TOKENS)), it["references"]))
            tables.setdefault("bleu", {})[dialect] = float(np.mean(scores))
    for dialect in inputs.DIALECTS:
        items = [it for it in sets["qa"] if it.get("dialect", "MSA") == dialect]
        if items:
            f1s, ems = [], []
            for it in items:
                prompt = [BOS_ID, *encode_text(it["question"], vocab, policy), SEP_ID]
                pred = vocab.decode(greedy(prompt, MAX_NEW_TOKENS))
                f1s.append(qa_f1(pred, it["answers"]))
                ems.append(exact_match(pred, it["answers"]))
            tables.setdefault("qa_f1", {})[dialect] = float(np.mean(f1s))
            tables.setdefault("qa_exact_match", {})[dialect] = float(np.mean(ems))
    texts = [it["text"] for it in sets["robustness"]]
    clean = [greedy([BOS_ID, *encode_text(t, vocab, policy)], robust_max_new) for t in texts]
    curve = []
    for level in DEFAULT_LEVELS:
        sims = []
        for text, base in zip(texts, clean):
            noisy = perturb(text, level, OPS, seed)
            cont = greedy([BOS_ID, *encode_text(noisy, vocab, policy)], robust_max_new)
            sims.append(token_f1(base, cont))
        curve.append([float(level), float(np.mean(sims))])
    return {"tables": tables, "curve": curve, "greedy_calls": greedy_calls}


def check_eval_report(report: dict, expected: dict) -> list[str]:
    """The report's tables and robustness curve equal the reference computation."""
    errors = []
    tables = report.get("tables", {})
    if sorted(tables) != sorted(expected["tables"]):
        errors.append(f"report metrics {sorted(tables)} != {sorted(expected['tables'])}")
    for metric, row in expected["tables"].items():
        got = tables.get(metric, {})
        if sorted(got) != sorted(row):
            errors.append(f"{metric}: dialects {sorted(got)} != {sorted(row)}")
            continue
        for dialect, want in row.items():
            if not math.isclose(got[dialect], want, rel_tol=1e-9, abs_tol=1e-12):
                errors.append(f"{metric}/{dialect}: report {got[dialect]!r} != reference {want!r}")
    curve = report.get("curves", {}).get("robustness")
    if curve is None or len(curve) != len(expected["curve"]) or any(
        not (math.isclose(a[0], b[0]) and math.isclose(a[1], b[1], rel_tol=1e-9, abs_tol=1e-12))
        for a, b in zip(curve, expected["curve"])
    ):
        errors.append(f"robustness curve {curve} != reference {expected['curve']}")
    return errors


def _msa_perplexity(results):
    report = results[0].data.get("report", {})
    return report.get("tables", {}).get("perplexity", {}).get("MSA", 0.0)


def window_slide_share(greedy_calls, max_seq_len: int) -> float:
    """Share of greedy steps whose context is longer than the model's window."""
    slid = total = 0
    for prompt_len, max_new in greedy_calls:
        total += max_new
        slid += sum(1 for j in range(max_new) if prompt_len + j > max_seq_len)
    return slid / total if total else 0.0


class Evaluate(Workload):
    """`desklora eval` on a checkpoint trained briefly in set-up at the finetune shape.

    Set-up runs `desklora prep` and `desklora train` in child processes, so
    the run's peak RSS is that of the eval path, not of set-up training."""

    name = "evaluate"
    work_unit = "item"

    def setup(self):
        s = self.sizes
        os.makedirs(self.work_dir, exist_ok=True)
        corpus_path = self.path("corpus.jsonl")
        inputs.write_jsonl(corpus_path, inputs.corpus(s.eval_corpus_docs, self.seed))
        self.shards = self.path("shards")
        run_cli_child("prep", "--input", corpus_path, "--out", self.shards,
                      "--vocab-size", VOCAB_SIZE)
        steps = s.eval_train_steps
        run_cli_child(
            "train", "--shards", self.shards, "--out", self.path("train"), "--steps", steps,
            "--warmup", max(1, steps // 5), "--lr", LR, "--micro-batch", 8, "--accum", 1,
            "--seq-len", FINETUNE_SEQ_LEN, "--clip", 1.0, "--optimizer", "adamw8",
            "--checkpoint-every", steps, "--seed", self.seed, "--d-model", 64, "--n-heads", 4,
            "--n-layers", 2, "--d-ffn", 256, "--max-seq-len", FINETUNE_SEQ_LEN + 1,
            "--rank", 8, "--lora-dropout", 0.05,
        )
        self.checkpoint = self.path("train", f"step_{steps:06d}")
        if not os.path.isdir(self.checkpoint):
            raise RuntimeError(f"set-up: desklora train left no checkpoint {self.checkpoint}")
        self.vocab = BpeVocab.load(os.path.join(self.shards, "vocab.json"))
        self.policy = ShardReader(self.shards).policy
        self.sets = inputs.eval_sets(self.seed, s.eval_lm_per_dialect, s.eval_qa, s.eval_mt,
                                     s.eval_robust, s.eval_prompt_words)
        self.set_paths = {}
        for kind, records in self.sets.items():
            self.set_paths[kind] = self.path(f"{kind}.jsonl")
            inputs.write_jsonl(self.set_paths[kind], records)
        self.items = (len(self.sets["lm"]) + len(self.sets["qa"]) + len(self.sets["mt"])
                      + len(self.sets["robustness"]) * (len(DEFAULT_LEVELS) + 1))

    def op(self, index: int) -> OpResult:
        out = self.path(f"eval_{index}")
        p = self.set_paths
        t0 = time.perf_counter()
        rc = run_cli("eval", "--checkpoint", self.checkpoint, "--shards", self.shards,
                     "--out", out, "--lm", p["lm"], "--qa", p["qa"], "--mt", p["mt"],
                     "--robustness", p["robustness"], "--max-new", self.sizes.robust_max_new,
                     "--seed", self.seed)
        wall = time.perf_counter() - t0
        data = {"rc": rc}
        if rc == 0:
            data["report_bytes"] = _read(os.path.join(out, "report.json"))
            data["report"] = json.loads(data["report_bytes"])
        return OpResult(wall, self.items, [wall * 1e3], data)

    def check(self, results) -> list[list[str]]:
        model, _ = load_checkpoint(self.checkpoint)
        self.expected = reference_report(model, self.sets, self.vocab, self.policy, self.seed,
                                         self.sizes.robust_max_new)
        self.max_seq_len = model.cfg.max_seq_len
        per_op = [_guarded(check_eval_report, r.data["report"], self.expected) if r.data["rc"] == 0
                  else [f"desklora eval exited with {r.data['rc']}"] for r in results]
        if any(r.data["rc"] != 0 for r in results):
            return per_op
        return _merge_errors(per_op, _same_as_first(results, "report_bytes"))

    def fingerprint(self, results) -> dict:
        return {"eval_ppl": _msa_perplexity(results),
                "report": _digest(results[0].data.get("report_bytes", b""))}

    def summary(self, results) -> dict:
        return {
            "eval_items_per_s": sum(r.work for r in results) / sum(r.wall_s for r in results),
            "eval_ppl": _msa_perplexity(results),
        }

    def layer_values(self, results) -> dict:
        return {"evalharness.eval_ppl": _msa_perplexity(results),
                "evalharness.window_slide_share": self.properties()["window_slide_share"]}

    def properties(self) -> dict:
        props = {"items": self.items, "lm": len(self.sets["lm"]), "qa": len(self.sets["qa"]),
                 "mt": len(self.sets["mt"]), "robustness_texts": len(self.sets["robustness"]),
                 "levels": len(DEFAULT_LEVELS), "vocab_tokens": self.vocab.n_tokens}
        expected = getattr(self, "expected", None)
        if expected is not None:
            long_prompts = [n for n, new in expected["greedy_calls"] if new == MAX_NEW_TOKENS]
            props.update(
                prompt_tokens_min=min(long_prompts), prompt_tokens_max=max(long_prompts),
                prompt_tokens_median=float(np.median(long_prompts)),
                greedy_calls=len(expected["greedy_calls"]),
                window_slide_share=window_slide_share(expected["greedy_calls"],
                                                      self.max_seq_len),
            )
        return props


WORKLOADS = {cls.name: cls for cls in (Prep, Finetune, FinetuneLong, Evaluate)}
