"""Training loop: gradient accumulation, warmup+cosine schedule, clipping,
8-bit-state AdamW, optional gradient checkpointing, a memory ledger with
budget enforcement, per-step metrics, and deterministic checkpoint/resume.
Each micro-batch runs as one [micro_batch x seq_len+1] graph whose dropout
masks come from one stream, keyed by step and micro-batch index. The model
derives its precision itself, `backward` sums micro-batch gradients into each
`grad` of every trainable parameter, and `checkpoint` finds the activation
meter through autograd. Checkpointing reruns each block's attention and GELU
in backward (see `model.TransformerModel.forward`). Windows hold documents
framed as the LM scorer reads them (`frame_document`). The frozen layers'
dequantized bases live while `train` runs, which drops them when it returns,
aborted or not.
"""

import json
import math
import os
import re
import shutil
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..arabicprep.bpe import frame_document
from ..errors import ConfigError, ContractError, DataError, FormatError, TrainingError
from ..lora import apply_adapter_state, dumps_adapters, loads_adapters
from ..model import TransformerModel, load_model, save_model
from ..numcore import Rng, backward, storage_dtype
from ..quant import quantized_nbytes
from ..util import sha256_file, sha256_json
from .ledger import ActivationMeter, MemoryBudget, MemoryLedger
from .optim import clip_gradients, global_grad_norm, make_optimizer

METRICS_HEADER = "step,loss,lr,grad_norm,device_hw_bytes,host_hw_bytes,wall_ms"


@dataclass
class TrainConfig:
    micro_batch: int = 1
    accumulation_steps: int = 16
    lr_max: float = 5e-5
    warmup_steps: int = 100
    total_steps: int = 10000
    max_grad_norm: float = 0.3
    seq_len: int = 128
    seed: int = 0
    checkpointing: bool = False
    optimizer: str = "adamw8"  # adamw8 | adamw | sgd
    checkpoint_every: int = 1000
    keep_checkpoints: int = 2
    budget: MemoryBudget = field(default_factory=MemoryBudget)

    def __post_init__(self):
        if not 0 < self.warmup_steps < self.total_steps:
            raise ConfigError(
                f"need 0 < warmup ({self.warmup_steps}) < total ({self.total_steps})"
            )
        if self.lr_max <= 0:
            raise ConfigError(f"lr_max must be positive, got {self.lr_max}")
        if self.max_grad_norm <= 0:
            raise ConfigError(f"max_grad_norm must be positive, got {self.max_grad_norm}")
        if self.micro_batch < 1 or self.accumulation_steps < 1:
            raise ConfigError("micro_batch and accumulation_steps must be >= 1")
        if self.checkpoint_every < 1 or self.keep_checkpoints < 1:
            raise ConfigError("checkpoint_every and keep_checkpoints must be >= 1")
        if self.seq_len < 2:
            raise ConfigError(f"seq_len must be >= 2, got {self.seq_len}")
        if self.optimizer not in ("adamw8", "adamw", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def lr_at(t: int, cfg: TrainConfig) -> float:
    """Linear warmup to lr_max, then cosine decay to zero at total_steps."""
    if not 0 <= t <= cfg.total_steps:
        raise ContractError(f"step {t} outside [0, {cfg.total_steps}]")
    if t <= cfg.warmup_steps:
        return cfg.lr_max * t / cfg.warmup_steps
    progress = (t - cfg.warmup_steps) / (cfg.total_steps - cfg.warmup_steps)
    return cfg.lr_max * 0.5 * (1.0 + math.cos(math.pi * progress))


def effective_batch(cfg: TrainConfig) -> int:
    return cfg.micro_batch * cfg.accumulation_steps


@dataclass
class MetricsRecord:
    step: int
    loss: float
    lr: float
    grad_norm: float
    device_hw_bytes: int
    host_hw_bytes: int
    wall_ms: float

    def csv_row(self) -> str:
        return (
            f"{self.step},{self.loss:.10g},{self.lr:.10g},{self.grad_norm:.10g},"
            f"{self.device_hw_bytes},{self.host_hw_bytes},{self.wall_ms:.3f}"
        )


def pack_windows(doc_token_lists, seq_len: int) -> np.ndarray:
    """Concatenate the documents, each framed as `BOS ids EOS`
    (`frame_document`), and cut (seq_len+1)-long windows."""
    stream = np.concatenate([np.empty(0, dtype=np.int64), *map(frame_document, doc_token_lists)])
    width = seq_len + 1
    n = stream.size // width
    if n == 0:
        raise DataError(
            f"corpus too small: {stream.size} tokens cannot fill one window of {width}"
        )
    return stream[: n * width].reshape(n, width)


@dataclass
class TrainResult:
    final_checkpoint: str
    metrics: list


class _WindowOrder:
    """Epoch-shuffled window order as a pure function of (seed, epoch)."""

    def __init__(self, n_windows: int, seed: int):
        self.n = n_windows
        self.rng = Rng(seed)
        self._epoch = -1
        self._perm = None

    def window_index(self, micro_idx: int) -> int:
        epoch, pos = divmod(micro_idx, self.n)
        if epoch != self._epoch:
            self._perm = self.rng.split("order", epoch).permutation(self.n)
            self._epoch = epoch
        return int(self._perm[pos])


def register_static_memory(model: TransformerModel, ledger: MemoryLedger):
    """Charge quantized bases, their dequantized copies (each frozen layer holds
    one from its first use until `train` returns), adapter masters, and the
    other masters."""
    ledger.allocate("quantized_weights", sum(quantized_nbytes(q) for _, q in model.frozen_tensors()))
    ledger.allocate("dequantized_weights", sum(
        layer.q.numel * storage_dtype(layer.dtype).itemsize
        for blk in model.blocks for layer in blk.frozen()))
    ledger.allocate("adapters", sum(p.value.nbytes for layer in model.adapted_layers()
                                    for p in (layer.adapter.a, layer.adapter.b)))
    ledger.allocate("other", sum(p.value.nbytes for p in model.masters()))


def save_checkpoint(out_dir, model: TransformerModel, optimizer, step: int,
                    cfg: TrainConfig, vocab_hash: str = ""):
    """Write the checkpoint into `out_dir.tmp`, then rename it to `out_dir`, so
    a save that fails midway leaves no `out_dir` for a resume to read."""
    out_dir = os.path.normpath(out_dir)
    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    save_model(model, os.path.join(tmp, "model.qnf4"))
    with open(os.path.join(tmp, "adapters.lora"), "wb") as f:
        f.write(dumps_adapters(model.adapted_layers(), model.cfg.lora))
    with open(os.path.join(tmp, "optimizer.st8"), "wb") as f:
        f.write(optimizer.dumps())
    state = {
        "step": step,
        "seed": cfg.seed,
        "vocab_hash": vocab_hash,
        "config": cfg.to_dict(),
        "config_digest": sha256_json(cfg.to_dict()),
    }
    with open(os.path.join(tmp, "trainer_state"), "w", encoding="utf-8") as f:
        json.dump(state, f, sort_keys=True, indent=1)
        f.write("\n")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)


_STATE_FIELDS = {"step": int, "seed": int, "vocab_hash": str, "config": dict, "config_digest": str}


def read_trainer_state(ckpt_dir) -> dict:
    """A checkpoint's `trainer_state`; FormatError unless it is JSON holding every field."""
    path = os.path.join(ckpt_dir, "trainer_state")
    with open(path, "r", encoding="utf-8") as f:
        try:
            state = json.load(f)
        except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
            raise FormatError(f"{path}: not JSON: {e}") from e
    bad = [k for k, kind in _STATE_FIELDS.items() if not isinstance(state, dict)
           or not isinstance(state.get(k), kind)]
    if bad:
        raise FormatError(f"{path}: missing or mistyped fields {bad}")
    return state


def load_checkpoint(ckpt_dir):
    """Rebuild the model (bases + masters + adapters) and the trainer state."""
    model = load_model(os.path.join(ckpt_dir, "model.qnf4"))
    with open(os.path.join(ckpt_dir, "adapters.lora"), "rb") as f:
        apply_adapter_state(model.adapted_layers(), model.cfg.lora, loads_adapters(f.read()))
    return model, read_trainer_state(ckpt_dir)


def checkpoint_hash(ckpt_dir) -> str:
    """Stable content hash over the model and adapter files."""
    return sha256_json(
        {
            "model": sha256_file(os.path.join(ckpt_dir, "model.qnf4")),
            "adapters": sha256_file(os.path.join(ckpt_dir, "adapters.lora")),
        }
    )


def _rows_up_to(metrics_path, step: int) -> list[str]:
    """The rows of an earlier run's metrics.csv for steps up to `step`; a
    resume rewrites the file with these, so a step it repeats appears once."""
    try:
        with open(metrics_path, "r", encoding="utf-8") as f:
            lines = f.readlines()[1:]
    except FileNotFoundError:
        return []
    rows = []
    for line in lines:
        head = line.split(",", 1)[0]
        if head.isdecimal() and int(head) <= step:
            rows.append(line if line.endswith("\n") else line + "\n")
    return rows


def _checkpoints_up_to(out_dir, step: int) -> list[str]:
    """The `step_*` checkpoint directories in `out_dir` up to `step`, in step
    order, so a resumed run prunes them under `keep_checkpoints` too."""
    found = []
    for name in os.listdir(out_dir):
        m = re.fullmatch(r"step_(\d+)", name)
        path = os.path.join(out_dir, name)
        if m and int(m.group(1)) <= step and os.path.isdir(path):
            found.append((int(m.group(1)), path))
    return [path for _, path in sorted(found)]


def train(
    model: TransformerModel,
    windows: np.ndarray,
    cfg: TrainConfig,
    out_dir,
    resume_from=None,
    vocab_hash: str = "",
    log=None,
) -> TrainResult:
    """Run total_steps optimizer macro-steps over packed windows.

    Each step sums the gradients of `accumulation_steps` micro-batches of
    `micro_batch` windows and steps once on their mean. With `resume_from`,
    the optimizer state and step counter continue from that checkpoint
    directory; the model passed in must already carry its weights.
    """
    windows = np.asarray(windows, dtype=np.int64)
    if windows.ndim != 2 or windows.shape[0] == 0:
        raise DataError(f"windows must be [N x seq_len+1], got {windows.shape}")

    os.makedirs(out_dir, exist_ok=True)
    ledger = MemoryLedger(cfg.budget)
    register_static_memory(model, ledger)
    meter = ActivationMeter(ledger)
    optimizer = make_optimizer(cfg.optimizer, ledger=ledger)

    start_step = 0
    if resume_from is not None:
        state = read_trainer_state(resume_from)
        if state["config_digest"] != sha256_json(cfg.to_dict()):
            raise ConfigError("resume config does not match checkpoint config")
        if vocab_hash and state["vocab_hash"] and state["vocab_hash"] != vocab_hash:
            raise ConfigError("vocab hash mismatch between checkpoint and current tokenization")
        start_step = int(state["step"])
        with open(os.path.join(resume_from, "optimizer.st8"), "rb") as f:
            optimizer.loads(f.read())

    params = model.trainable_parameters()
    order = _WindowOrder(windows.shape[0], cfg.seed)
    run_rng = Rng(cfg.seed)

    metrics: list[MetricsRecord] = []
    metrics_path = os.path.join(out_dir, "metrics.csv")
    earlier_rows = _rows_up_to(metrics_path, start_step) if resume_from is not None else []
    metrics_file = open(metrics_path, "w", encoding="utf-8")
    metrics_file.write("".join([METRICS_HEADER + "\n", *earlier_rows]))

    kept_checkpoints = _checkpoints_up_to(out_dir, start_step)
    micro_idx = start_step * cfg.accumulation_steps * cfg.micro_batch
    final_dir = os.path.join(out_dir, f"step_{cfg.total_steps:06d}")

    try:
        for t in range(start_step + 1, cfg.total_steps + 1):
            t0 = time.perf_counter()
            model.zero_grads()
            micro_losses = []
            for micro in range(cfg.accumulation_steps):
                batch = windows[[order.window_index(micro_idx + bi) for bi in range(cfg.micro_batch)]]
                micro_idx += cfg.micro_batch
                with meter.scope():
                    loss = model.loss(batch, rng=run_rng.split("drop", t, micro),
                                      checkpointing=cfg.checkpointing)
                    loss_value = loss.value.item()
                    if not math.isfinite(loss_value):
                        raise TrainingError(f"non-finite loss at step {t}", step=t)
                    backward(loss)
                micro_losses.append(loss_value)
            grads = {name: p.grad / cfg.accumulation_steps for name, p in params}
            model.zero_grads()

            grad_norm = global_grad_norm(grads)
            if not math.isfinite(grad_norm):
                raise TrainingError(f"non-finite gradient norm at step {t}", step=t)
            clip_gradients(grads, cfg.max_grad_norm)
            lr = lr_at(t, cfg)
            optimizer.step(params, grads, lr)

            record = MetricsRecord(
                step=t,
                loss=float(np.mean(micro_losses)),
                lr=lr,
                grad_norm=grad_norm,
                device_hw_bytes=ledger.device_high_water,
                host_hw_bytes=ledger.host_high_water,
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
            metrics.append(record)
            metrics_file.write(record.csv_row() + "\n")
            if log is not None and (t % max(1, cfg.total_steps // 20) == 0 or t == 1):
                log(f"step {t}/{cfg.total_steps} loss {record.loss:.4f} lr {lr:.3g}")

            if t % cfg.checkpoint_every == 0 or t == cfg.total_steps:
                ckpt = os.path.join(out_dir, f"step_{t:06d}")
                save_checkpoint(ckpt, model, optimizer, t, cfg, vocab_hash)
                kept_checkpoints.append(ckpt)
                while len(kept_checkpoints) > cfg.keep_checkpoints:
                    shutil.rmtree(kept_checkpoints.pop(0), ignore_errors=True)
    finally:
        metrics_file.close()
        for blk in model.blocks:  # the bases' float copies; the next forward rebuilds them
            for layer in blk.frozen():
                layer.release()

    return TrainResult(final_checkpoint=final_dir, metrics=metrics)
