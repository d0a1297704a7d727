"""Evaluation pipeline: eval-set loading, greedy generation, robustness
curves, per-dialect metric tables, and report emission (JSON + text + CSV).

Greedy generation decodes all of a section's prompts in lockstep
(`greedy_batch`) over one K/V cache row per prompt: a row whose context fits
the model's window extends its row by one token per step, and a row whose
context has outgrown the window refills its row with the slid window from
position 0. Rows fed alike share one batched forward. Such a forward
computes only each row's last-position logits: its last block runs past K
and V at one position per row, and a fill, whose rows all start at 0, reads
the rope table, the mask and the cache by slice. Cached logits agree with a
full-window recompute up to float rounding, so the continuations are the ids
that recomputing every step gives.

QA and MT prompts are `frame_prompt(ids)`; robustness texts decode as open
documents, `frame_document(ids)[:-1]`, which the model continues.
"""

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from ..arabicprep import NormalizationPolicy, encode_text, read_jsonl
from ..arabicprep.bpe import frame_document, frame_prompt
from ..arabicprep.dialect import DIALECTS
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

DIALECT_ORDER = DIALECTS
MAX_NEW_TOKENS = 64


@dataclass
class EvalSet:
    kind: str
    items: list

    def subset(self, dialect: str) -> list:
        return [it for it in self.items if it.get("dialect", "MSA") == dialect]


def load_eval_set(path, kind: str) -> EvalSet:
    if kind not in EVAL_KINDS:
        raise ContractError(f"unknown eval kind {kind!r}; choose from {EVAL_KINDS}")
    return EvalSet(kind=kind, items=read_jsonl(path, _REQUIRED_FIELDS[kind]))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def greedy_batch(model, prompts, max_new: int = MAX_NEW_TOKENS) -> list[list[int]]:
    """Temperature-0 continuations of `prompts`, decoded in lockstep.

    A context slides within `max_seq_len`, and a slid window numbers its
    positions from 0 again. Every prompt has a K/V cache row. At each step a
    row that holds its context feeds its newest id; a row that holds nothing
    yet, or whose context has outgrown the window, is reset to length 0 and
    feeds its whole window, which refills it from position 0. Neighbouring
    rows fed the same number of ids share one forward. Argmax ties resolve to
    the lowest id.
    """
    limit = model.cfg.max_seq_len
    # Rows sorted by prompt length: contexts grow in step, so the rows fed
    # the same number of ids stay neighbours and each forward reads a slice
    # of the cache, never a copy.
    order = sorted(range(len(prompts)), key=lambda b: len(prompts[b]))
    contexts = [[int(i) for i in prompts[b]] for b in order]
    cache = model.kv_cache(len(contexts))
    for _ in range(max_new):
        cache.lengths[[len(ctx) > limit for ctx in contexts]] = 0  # refill slid windows
        feeds = [ctx[-1:] if held else ctx[-limit:] for held, ctx in zip(cache.lengths, contexts)]
        start = 0
        for _, group in itertools.groupby(feeds, key=len):
            ids = np.asarray(list(group), dtype=np.int64)
            stop = start + len(ids)
            for ctx, row in zip(contexts[start:stop], model.forward_ids(ids, cache.rows(start, stop))):
                ctx.append(int(row.argmax()))
            start = stop
    continuations = dict(zip(order, contexts))
    return [continuations[b][len(p):] for b, p in enumerate(prompts)]


def greedy_continue(model, prompt_ids, max_new: int = MAX_NEW_TOKENS) -> list[int]:
    """Temperature-0 continuation of one prompt: `greedy_batch` of one row.
    The eval sections call `greedy_batch`; this stays public because
    deskbench's tracer wraps it by name."""
    return greedy_batch(model, [prompt_ids], max_new)[0]


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
    """Mean continuation token-F1 between clean and perturbed inputs per level.
    The clean prompts and every level's noisy ones decode in one batch."""
    if not texts:
        raise ContractError("robustness_curve needs at least one text")
    n = len(texts)
    inputs = list(texts) + [perturb(text, level, pcfg.ops, pcfg.seed)
                            for level in pcfg.levels for text in texts]
    conts = greedy_batch(model, [frame_document(encode_text(t, vocab, policy))[:-1] for t in inputs],
                         max_new)
    clean = conts[:n]
    return [(float(level), float(np.mean([token_f1(base, cont) for base, cont
                                          in zip(clean, conts[(j + 1) * n:(j + 2) * n])])))
            for j, level in enumerate(pcfg.levels)]


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


def _by_dialect(eval_set: EvalSet, report: EvalReport) -> dict:
    """{dialect: items} in DIALECT_ORDER, warning in `report` of each dialect without items."""
    subsets = {}
    for dialect in DIALECT_ORDER:
        items = eval_set.subset(dialect)
        if items:
            subsets[dialect] = items
        else:
            report.warnings.append(f"{eval_set.kind}: no items for dialect {dialect}; omitted")
    return subsets


def dialect_breakdown(
    model,
    eval_sets: dict,
    vocab,
    policy: NormalizationPolicy,
    metadata: dict | None = None,
) -> EvalReport:
    """Per-dialect perplexity/accuracy (lm), BLEU (mt), and F1/EM (qa) tables.
    The mt prompts of every dialect decode in one batch, and the qa prompts in another."""
    report = EvalReport(metadata=dict(metadata or {}))

    lm = eval_sets.get("lm")
    if lm is not None:
        for dialect, items in _by_dialect(lm, report).items():
            seqs = [encode_text(it["text"], vocab, policy) for it in items]
            seqs = [s for s in seqs if s]
            if not seqs:
                report.warnings.append(f"lm: dialect {dialect} only had empty texts; omitted")
                continue
            ppl, accuracy = lm_scores(model, seqs)
            report.tables.setdefault("perplexity", {})[dialect] = ppl
            report.tables.setdefault("next_word_accuracy", {})[dialect] = accuracy

    def decode_section(eval_set: EvalSet, key: str):
        """{dialect: [(item, decoded prediction)]} over one batch of every dialect's prompts."""
        subsets = _by_dialect(eval_set, report)
        prompts = [frame_prompt(encode_text(it[key], vocab, policy))
                   for items in subsets.values() for it in items]
        preds = iter(greedy_batch(model, prompts))
        return {dialect: [(it, vocab.decode(next(preds))) for it in items]
                for dialect, items in subsets.items()}

    mt = eval_sets.get("mt")
    if mt is not None:
        for dialect, pairs in decode_section(mt, "source").items():
            scores = [bleu(pred, it["references"]) for it, pred in pairs]
            report.tables.setdefault("bleu", {})[dialect] = float(np.mean(scores))

    qa = eval_sets.get("qa")
    if qa is not None:
        for dialect, pairs in decode_section(qa, "question").items():
            f1s = [qa_f1(pred, it["answers"]) for it, pred in pairs]
            ems = [exact_match(pred, it["answers"]) for it, pred in pairs]
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
