"""Evaluation pipeline: eval-set loading, greedy generation, robustness
curves, per-dialect metric tables, and report emission (JSON + text + CSV).
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ..arabicprep import NormalizationPolicy, encode_text, read_jsonl
from ..arabicprep.bpe import BOS_ID, SEP_ID
from ..errors import ContractError, FormatError
from .metrics import bleu, exact_match, lm_scores, qa_f1, token_f1
from .perturb import PerturbationConfig, perturb

EVAL_KINDS = ("lm", "qa", "mt", "robustness")
# `read_jsonl`'s field types: `list` is a non-empty list of strings.
_REQUIRED_FIELDS = {
    "lm": {"text": str},
    "qa": {"question": str, "answers": list},
    "mt": {"source": str, "references": list},
    "robustness": {"text": str},
}

DIALECT_ORDER = ("MSA", "EGY", "GLF", "LEV", "MGR")
MAX_NEW_TOKENS = 64


@dataclass
class EvalSet:
    kind: str
    items: list

    def dialects(self) -> list[str]:
        seen = []
        for item in self.items:
            d = item.get("dialect", "MSA")
            if d not in seen:
                seen.append(d)
        return seen

    def subset(self, dialect: str) -> list:
        return [it for it in self.items if it.get("dialect", "MSA") == dialect]


def load_eval_set(path, kind: str) -> EvalSet:
    if kind not in EVAL_KINDS:
        raise ContractError(f"unknown eval kind {kind!r}; choose from {EVAL_KINDS}")
    return EvalSet(kind=kind, items=read_jsonl(path, _REQUIRED_FIELDS[kind]))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def greedy_continue(model, prompt_ids, max_new: int = MAX_NEW_TOKENS) -> list[int]:
    """Temperature-0 continuation; context slides within max_seq_len."""
    ids = [int(i) for i in prompt_ids]
    out: list[int] = []
    limit = model.cfg.max_seq_len
    for _ in range(max_new):
        window = ids[-limit:]
        logits = model.forward_ids(np.asarray(window, dtype=np.int64))
        nxt = int(logits[-1].argmax())  # ties: lowest id
        out.append(nxt)
        ids.append(nxt)
    return out


def answer_question(model, question: str, vocab, policy: NormalizationPolicy,
                    max_new: int = MAX_NEW_TOKENS) -> str:
    prompt = [BOS_ID, *encode_text(question, vocab, policy), SEP_ID]
    return vocab.decode(greedy_continue(model, prompt, max_new))


# ---------------------------------------------------------------------------
# robustness
# ---------------------------------------------------------------------------


def robustness_curve(
    model,
    texts,
    vocab,
    policy: NormalizationPolicy,
    pcfg: PerturbationConfig,
    max_new: int = MAX_NEW_TOKENS,
) -> list[tuple[float, float]]:
    """Mean continuation token-F1 between clean and perturbed inputs per level."""
    if not texts:
        raise ContractError("robustness_curve needs at least one text")
    clean_continuations = []
    for text in texts:
        ids = [BOS_ID, *encode_text(text, vocab, policy)]
        clean_continuations.append(greedy_continue(model, ids, max_new))
    curve = []
    for level in pcfg.levels:
        sims = []
        for text, base in zip(texts, clean_continuations):
            noisy = perturb(text, level, pcfg.ops, pcfg.seed)
            ids = [BOS_ID, *encode_text(noisy, vocab, policy)]
            cont = greedy_continue(model, ids, max_new)
            sims.append(token_f1(base, cont))
        curve.append((float(level), float(np.mean(sims))))
    return curve


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    tables: dict = field(default_factory=dict)  # metric -> dialect -> value
    curves: dict = field(default_factory=dict)  # name -> list of (level, value)
    warnings: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    comparison: dict | None = None  # metric -> dialect -> {label: value}

    def to_dict(self) -> dict:
        d = {
            "format": "desklora-report",
            "version": 1,
            "metadata": self.metadata,
            "tables": self.tables,
            "curves": {k: [[l, v] for l, v in pts] for k, pts in self.curves.items()},
            "warnings": self.warnings,
        }
        if self.comparison is not None:
            d["comparison"] = self.comparison
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        validate_report(d)
        return cls(
            tables=d["tables"],
            curves={k: [(l, v) for l, v in pts] for k, pts in d["curves"].items()},
            warnings=d.get("warnings", []),
            metadata=d.get("metadata", {}),
            comparison=d.get("comparison"),
        )


def _is_number(x) -> bool:
    """A finite JSON number; a JSON true is no number, though `bool` is an `int`."""
    return (isinstance(x, int) and not isinstance(x, bool)) or (
        isinstance(x, float) and bool(np.isfinite(x)))


def validate_report(d: dict):
    if not isinstance(d, dict) or d.get("format") != "desklora-report":
        raise FormatError("not a report object")
    for key in ("metadata", "tables", "curves", "warnings"):
        if key not in d:
            raise FormatError(f"report missing {key!r}")
    tables, curves = d["tables"], d["curves"]
    if not (isinstance(tables, dict) and all(isinstance(row, dict) for row in tables.values())):
        raise FormatError("tables must map each metric to a dialect map")
    for metric, row in tables.items():
        for dialect, value in row.items():
            if not _is_number(value):
                raise FormatError(f"{metric}/{dialect} is not a finite number: {value!r}")
    if not (isinstance(curves, dict) and all(isinstance(pts, list) for pts in curves.values())):
        raise FormatError("curves must map each name to a list of points")
    for name, pts in curves.items():
        for pt in pts:
            if not (isinstance(pt, (list, tuple)) and len(pt) == 2 and all(map(_is_number, pt))):
                raise FormatError(f"bad curve point in {name!r}: {pt}")


def dialect_breakdown(
    model,
    eval_sets: dict,
    vocab,
    policy: NormalizationPolicy,
    metadata: dict | None = None,
) -> EvalReport:
    """Per-dialect perplexity/accuracy (lm), BLEU (mt), and F1/EM (qa) tables."""
    report = EvalReport(metadata=dict(metadata or {}))

    lm = eval_sets.get("lm")
    if lm is not None:
        for dialect in DIALECT_ORDER:
            items = lm.subset(dialect)
            if not items:
                report.warnings.append(f"lm: no items for dialect {dialect}; omitted")
                continue
            seqs = [encode_text(it["text"], vocab, policy) for it in items]
            seqs = [s for s in seqs if s]
            if not seqs:
                report.warnings.append(f"lm: dialect {dialect} only had empty texts; omitted")
                continue
            ppl, accuracy = lm_scores(model, seqs)
            report.tables.setdefault("perplexity", {})[dialect] = ppl
            report.tables.setdefault("next_word_accuracy", {})[dialect] = accuracy

    mt = eval_sets.get("mt")
    if mt is not None:
        for dialect in DIALECT_ORDER:
            items = mt.subset(dialect)
            if not items:
                report.warnings.append(f"mt: no items for dialect {dialect}; omitted")
                continue
            scores = []
            for it in items:
                prompt = [BOS_ID, *encode_text(it["source"], vocab, policy), SEP_ID]
                pred = vocab.decode(greedy_continue(model, prompt))
                scores.append(bleu(pred, it["references"]))
            report.tables.setdefault("bleu", {})[dialect] = float(np.mean(scores))

    qa = eval_sets.get("qa")
    if qa is not None:
        for dialect in DIALECT_ORDER:
            items = qa.subset(dialect)
            if not items:
                report.warnings.append(f"qa: no items for dialect {dialect}; omitted")
                continue
            f1s, ems = [], []
            for it in items:
                pred = answer_question(model, it["question"], vocab, policy)
                f1s.append(qa_f1(pred, it["answers"]))
                ems.append(exact_match(pred, it["answers"]))
            report.tables.setdefault("qa_f1", {})[dialect] = float(np.mean(f1s))
            report.tables.setdefault("qa_exact_match", {})[dialect] = float(np.mean(ems))

    return report


def _format_table(tables: dict) -> list[str]:
    dialects = [d for d in DIALECT_ORDER if any(d in row for row in tables.values())]
    lines = []
    header = f"{'metric':<20}" + "".join(f"{d:>10}" for d in dialects)
    lines.append(header)
    lines.append("-" * len(header))
    for metric in sorted(tables):
        row = tables[metric]
        cells = "".join(
            f"{row[d]:>10.4f}" if d in row else f"{'-':>10}" for d in dialects
        )
        lines.append(f"{metric:<20}" + cells)
    return lines


def emit_report(report: EvalReport, out_dir) -> dict:
    """Write report.json, report.txt, and curves.csv; returns the file paths."""
    os.makedirs(out_dir, exist_ok=True)
    d = report.to_dict()
    validate_report(d)

    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(d, f, ensure_ascii=False, sort_keys=True, indent=1)
        f.write("\n")

    txt_path = os.path.join(out_dir, "report.txt")
    lines = ["evaluation report", ""]
    for key in sorted(report.metadata):
        lines.append(f"{key}: {report.metadata[key]}")
    if report.metadata:
        lines.append("")
    if report.tables:
        lines.extend(_format_table(report.tables))
        lines.append("")
    if report.comparison:
        lines.append("comparison")
        for metric in sorted(report.comparison):
            for dialect in sorted(report.comparison[metric]):
                cells = report.comparison[metric][dialect]
                rendered = "  ".join(f"{k}={v:.4f}" for k, v in sorted(cells.items()))
                lines.append(f"  {metric:<18} {dialect:<5} {rendered}")
        lines.append("")
    for name, pts in report.curves.items():
        lines.append(f"curve {name}: " + "  ".join(f"{l:.2f}:{v:.4f}" for l, v in pts))
    for w in report.warnings:
        lines.append(f"warning: {w}")
    with open(txt_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")

    csv_path = os.path.join(out_dir, "curves.csv")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("kind,metric,dialect,level,value\n")
        for metric in sorted(report.tables):
            for dialect, value in report.tables[metric].items():
                f.write(f"scalar,{metric},{dialect},,{value:.10g}\n")
        for name, pts in report.curves.items():
            for level, value in pts:
                f.write(f"curve,{name},,{level:.10g},{value:.10g}\n")

    return {"json": json_path, "txt": txt_path, "csv": csv_path}
