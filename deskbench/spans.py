"""Span tracing installed from outside the program, and the per-layer
metrics derived from the spans.

The tracer wraps public functions of each desklora layer. Callers import by
name (`from ..numcore import backward`), so a wrapper is installed at every
`desklora.*` module attribute bound to the wrapped function, plus on a few
public methods. Spans (name, start, end, parent) stay in memory and are
written out when the run ends. `restore` puts every original object back.
"""

import contextlib
import functools
import sys
import time

NUMCORE_OPS = (
    "matmul", "causal_attention", "gelu", "layer_norm", "dropout", "gather_rows",
    "softmax_cross_entropy", "add", "scale", "transpose", "astype",
)

# (span name, defining module, attribute)
FUNCTIONS = (
    ("arabicprep.prepare_documents", "desklora.arabicprep.pipeline", "prepare_documents"),
    ("arabicprep.bpe_train", "desklora.arabicprep.bpe", "bpe_train"),
    ("arabicprep.write_shards", "desklora.arabicprep.shards", "write_shards"),
    *((f"numcore.{op}", "desklora.numcore.ops", op) for op in NUMCORE_OPS),
    ("numcore.backward", "desklora.numcore.autograd", "backward"),
    ("numcore.checkpoint", "desklora.numcore.autograd", "checkpoint"),
    ("lora.forward", "desklora.lora", "forward"),
    ("quant.quantize_state8", "desklora.quant", "quantize_state8"),
    ("quant.dequantize_state8", "desklora.quant", "dequantize_state8"),
    ("quant.dequantize", "desklora.quant", "dequantize"),
    ("quant.dumps_qnf4", "desklora.quant", "dumps_qnf4"),
    ("quant.loads_qnf4", "desklora.quant", "loads_qnf4"),
    ("model.save_model", "desklora.model", "save_model"),
    ("model.load_model", "desklora.model", "load_model"),
    ("trainer.train", "desklora.trainer.loop", "train"),
    ("trainer.save_checkpoint", "desklora.trainer.loop", "save_checkpoint"),
    ("trainer.load_checkpoint", "desklora.trainer.loop", "load_checkpoint"),
    ("trainer.global_grad_norm", "desklora.trainer.optim", "global_grad_norm"),
    ("trainer.clip_gradients", "desklora.trainer.optim", "clip_gradients"),
    ("evalharness.greedy_continue", "desklora.evalharness.harness", "greedy_continue"),
    ("evalharness.robustness_curve", "desklora.evalharness.harness", "robustness_curve"),
    ("evalharness.emit_report", "desklora.evalharness.harness", "emit_report"),
    ("evalharness.perplexity", "desklora.evalharness.metrics", "perplexity"),
    ("evalharness.next_word_accuracy", "desklora.evalharness.metrics", "next_word_accuracy"),
    ("evalharness.bleu", "desklora.evalharness.metrics", "bleu"),
    ("evalharness.qa_f1", "desklora.evalharness.metrics", "qa_f1"),
    ("evalharness.perturb", "desklora.evalharness.perturb", "perturb"),
)

# (span name, defining module, class, method)
METHODS = (
    ("model.loss", "desklora.model", "TransformerModel", "loss"),
    ("model.forward_ids", "desklora.model", "TransformerModel", "forward_ids"),
    ("trainer.optimizer_step", "desklora.trainer.optim", "AdamW", "step"),
    ("arabicprep.encode", "desklora.arabicprep.bpe", "BpeVocab", "encode"),
    ("arabicprep.shard_reader", "desklora.arabicprep.shards", "ShardReader", "__init__"),
)

# Sizes recorded on a span: positions a forward computes, tokens a greedy call
# generates, merges bpe_train learns.
SIZES = {
    "model.forward_ids": lambda args, kwargs, result: len(args[1]),
    "evalharness.greedy_continue": lambda args, kwargs, result: len(result),
    "arabicprep.bpe_train": lambda args, kwargs, result: len(result.merges),
}


class Tracer:
    """In-memory span recorder. Span i has parent index parents[i] (-1 at the top)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []  # (owner, attribute, original)

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn, size=None):
        names, starts, ends, parents, sizes, stack = (
            self.names, self.starts, self.ends, self.parents, self.sizes, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            sizes.append(0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()
            if size is not None:
                sizes[idx] = size(args, kwargs, result)
            return result

        return traced

    def install(self):
        import desklora.cli  # noqa: F401  (imports every layer, so all aliases exist)

        modules = [m for n, m in list(sys.modules.items())
                   if (n == "desklora" or n.startswith("desklora.")) and m is not None]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, SIZES.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, module, cls, attr in METHODS:
            owner = getattr(sys.modules[module], cls)
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, SIZES.get(name)))

    def restore(self):
        while self._installed:
            owner, key, original = self._installed.pop()
            setattr(owner, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,name,start_s,end_s,parent,size\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                f.write(f"{i},{name},{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f},"
                        f"{self.parents[i]},{self.sizes[i]}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Span duration minus the time its child spans cover.

    Spans come from one thread and nest, so the children of a span never
    overlap and the time they cover is the sum of their durations.
    """
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


def _within(names, parents, targets) -> list[bool]:
    """Per span: does a strict ancestor carry one of `targets`? Parents precede children."""
    flags = [False] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            flags[i] = flags[p] or names[p] in targets
    return flags


LAYERS = ("arabicprep", "numcore", "lora", "quant", "model", "trainer", "evalharness")

# Per-layer metrics in the order BENCHMARK.json lists them, with units. `.s` is
# self time and `.calls` a call count, both per operation of the workload (one
# prep call, one optimizer step, one eval call).
PER_LAYER = (
    ("arabicprep.prepare_documents.s", "s/op"),
    ("arabicprep.bpe_train.s", "s/op"),
    ("arabicprep.bpe_train.merges", "count"),
    ("arabicprep.encode.s", "s/op"),
    ("arabicprep.encode.calls", "calls/op"),
    ("arabicprep.encode.repeat_piece_share", "ratio"),
    ("arabicprep.write_shards.s", "s/op"),
    ("arabicprep.shard_reader.s", "s/op"),
    *((f"numcore.{op}.{kind}", unit) for op in NUMCORE_OPS
      for kind, unit in (("s", "s/op"), ("calls", "calls/op"))),
    ("numcore.backward.s", "s/op"),
    ("numcore.checkpoint.s", "s/op"),
    ("numcore.recompute_s", "s/op"),
    ("numcore.ops_per_sequence", "count"),
    ("numcore.recompute_ratio", "ratio"),
    ("lora.forward.s", "s/op"),
    ("lora.forward.calls", "calls/op"),
    ("quant.quantize_state8.s", "s/op"),
    ("quant.dequantize_state8.s", "s/op"),
    ("quant.dequantize.calls", "calls/op"),
    ("quant.dumps_qnf4.s", "s/op"),
    ("quant.loads_qnf4.s", "s/op"),
    ("model.loss.s", "s/op"),
    ("model.forward_ids.s", "s/op"),
    ("model.forward_ids.calls", "calls/op"),
    ("model.forward_ids.positions_per_token", "pos/tok"),
    ("model.save_model.s", "s/op"),
    ("model.load_model.s", "s/op"),
    ("trainer.phase.forward_s", "s/op"),
    ("trainer.phase.backward_s", "s/op"),
    ("trainer.phase.optimizer_s", "s/op"),
    ("trainer.phase.clip_s", "s/op"),
    ("trainer.phase.forward_share", "ratio"),
    ("trainer.phase.backward_share", "ratio"),
    ("trainer.phase.optimizer_share", "ratio"),
    ("trainer.phase.clip_share", "ratio"),
    ("trainer.save_checkpoint.s", "s/op"),
    ("trainer.load_checkpoint.s", "s/op"),
    ("trainer.ledger.host_hw_mb", "MiB"),
    ("trainer.ledger.device_hw_mb", "MiB"),
    ("trainer.final_loss", "nats"),
    ("evalharness.greedy_continue.s", "s/op"),
    ("evalharness.greedy_continue.calls", "calls/op"),
    ("evalharness.greedy_continue.tokens_per_s", "tok/s"),
    ("evalharness.perplexity.s", "s/op"),
    ("evalharness.next_word_accuracy.s", "s/op"),
    ("evalharness.robustness_curve.s", "s/op"),
    ("evalharness.perturb.s", "s/op"),
    ("evalharness.bleu.s", "s/op"),
    ("evalharness.qa_f1.s", "s/op"),
    ("evalharness.emit_report.s", "s/op"),
    ("evalharness.window_slide_share", "ratio"),
    ("evalharness.eval_ppl", "ppl"),
    *((f"{layer}.self_share", "ratio") for layer in LAYERS),
    ("evalharness.greedy_continue.share", "ratio"),
    ("trace.untraced_work_per_s", "1/s"),
    ("trace.traced_work_per_s", "1/s"),
    ("trace.overhead", "ratio"),
)

_SELF_TIME_SPANS = (
    "arabicprep.prepare_documents", "arabicprep.bpe_train", "arabicprep.encode",
    "arabicprep.write_shards", "arabicprep.shard_reader",
    *(f"numcore.{op}" for op in NUMCORE_OPS), "numcore.backward", "numcore.checkpoint",
    "lora.forward", "quant.quantize_state8", "quant.dequantize_state8", "quant.dumps_qnf4",
    "quant.loads_qnf4", "model.loss", "model.forward_ids", "model.save_model",
    "model.load_model", "trainer.save_checkpoint", "trainer.load_checkpoint",
    "evalharness.greedy_continue", "evalharness.perplexity", "evalharness.next_word_accuracy",
    "evalharness.robustness_curve", "evalharness.perturb", "evalharness.bleu",
    "evalharness.qa_f1", "evalharness.emit_report",
)
_CALL_COUNT_SPANS = (
    "arabicprep.encode", *(f"numcore.{op}" for op in NUMCORE_OPS), "lora.forward",
    "model.forward_ids", "evalharness.greedy_continue",
)
_OP_SPANS = frozenset(f"numcore.{op}" for op in NUMCORE_OPS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(tracer: Tracer, n_ops: int, op_s_total: float, step_s_total: float = 0.0) -> dict:
    """Span-derived per-layer metrics, per operation of the workload.

    `op_s_total` is the summed wall time of the traced public calls; each
    layer's self time is reported as a share of it. `step_s_total` is the
    summed wall time of the traced optimizer steps; the trainer phases are
    reported as shares of it.
    """
    names, starts, ends, parents, sizes = (
        tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.sizes
    )
    own = self_times(starts, ends, parents)
    dur = [e - s for s, e in zip(starts, ends)]
    in_backward = _within(names, parents, {"numcore.backward"})
    in_forward = _within(names, parents, {"model.loss", "model.forward_ids"})
    in_loss = _within(names, parents, {"model.loss"})
    in_greedy = _within(names, parents, {"evalharness.greedy_continue"})
    in_train = _within(names, parents, {"trainer.train"})
    in_clip = _within(names, parents, {"trainer.global_grad_norm", "trainer.clip_gradients"})

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, name in enumerate(names):
        self_s[name] = self_s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1

    phase_s = {"forward": 0.0, "backward": 0.0, "optimizer": 0.0, "clip": 0.0}
    recompute_s = 0.0
    op_calls_in_forward = op_calls_in_backward = op_calls_in_loss = 0
    forward_passes = 0
    greedy_positions = greedy_tokens = 0
    greedy_s = 0.0
    dequant_after_step1 = 0
    stepped: set[int] = set()  # train spans whose first optimizer step has started
    train_of = [-1] * len(names)
    for i, name in enumerate(names):
        p = parents[i]
        train_of[i] = i if name == "trainer.train" else (train_of[p] if p >= 0 else -1)
        if name in ("model.loss", "model.forward_ids") and not in_forward[i]:
            forward_passes += 1
        if name == "numcore.backward" and in_train[i] and not in_backward[i]:
            phase_s["backward"] += dur[i]
        elif name == "model.loss" and in_train[i]:
            phase_s["forward"] += dur[i]
        elif name == "trainer.optimizer_step":
            phase_s["optimizer"] += dur[i]
            stepped.add(train_of[i])
        elif name in ("trainer.global_grad_norm", "trainer.clip_gradients") and not in_clip[i]:
            phase_s["clip"] += dur[i]
        elif name == "quant.dequantize" and train_of[i] >= 0 and train_of[i] in stepped:
            dequant_after_step1 += 1
        if in_backward[i] and name != "numcore.backward":
            recompute_s += own[i]
        if name in _OP_SPANS:
            op_calls_in_forward += in_forward[i]
            op_calls_in_backward += in_backward[i]
            op_calls_in_loss += in_loss[i]
        if name == "model.forward_ids" and in_greedy[i]:
            greedy_positions += sizes[i]
        if name == "evalharness.greedy_continue" and not in_greedy[i]:
            greedy_tokens += sizes[i]
            greedy_s += dur[i]

    n = max(n_ops, 1)
    m = {f"{name}.s": self_s.get(name, 0.0) / n for name in _SELF_TIME_SPANS}
    m.update({f"{name}.calls": calls.get(name, 0) / n for name in _CALL_COUNT_SPANS})
    m["arabicprep.bpe_train.merges"] = float(max(
        (sizes[i] for i, name in enumerate(names) if name == "arabicprep.bpe_train"), default=0
    ))
    m["numcore.recompute_s"] = recompute_s / n
    m["numcore.ops_per_sequence"] = _ratio(op_calls_in_forward, forward_passes)
    m["numcore.recompute_ratio"] = _ratio(op_calls_in_backward, op_calls_in_loss)
    m["quant.dequantize.calls"] = dequant_after_step1 / n
    m["model.forward_ids.positions_per_token"] = _ratio(greedy_positions, greedy_tokens)
    m["evalharness.greedy_continue.tokens_per_s"] = _ratio(greedy_tokens, greedy_s)
    m["evalharness.greedy_continue.share"] = _ratio(greedy_s, op_s_total)
    for layer in LAYERS:
        layer_s = sum(v for name, v in self_s.items() if name.split(".", 1)[0] == layer)
        m[f"{layer}.self_share"] = _ratio(layer_s, op_s_total)
    for phase, total in phase_s.items():
        m[f"trainer.phase.{phase}_s"] = total / n
        m[f"trainer.phase.{phase}_share"] = _ratio(total, step_s_total)
    return m
