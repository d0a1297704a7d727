"""Print sha256 digests of short training runs, to show that a change leaves
training bit-identical.

    PYTHONPATH=src python tests/training_digests.py

Each run is 3 adamw8 steps of `train()` at deskbench's `finetune` shape
(vocab 512, d 64, 4 heads, 2 layers, d_ffn 256, r 8, dropout 0.05, windows
of 48 + 1 tokens, seed 1), for every combination of precision (full,
double), checkpointing (off, on) and micro-batch x accumulation (8x1, 2x3).
Each line prints two digests. The first covers the trained values: the
trainable parameters, the frozen bases and every step's loss and gradient
norm. The second covers every step's ledger high-waters, so a change to what
the ledger charges moves it alone. Each line ends with the run's last-step
loss, so a change that alters the numerics can quote the loss on both sides.
Run it on both sides of a change and compare the eight lines. pytest does
not collect this file.
"""

import hashlib
import itertools
import tempfile

import numpy as np

from desklora.lora import LoraConfig
from desklora.model import ModelConfig, build
from desklora.numcore import DOUBLE, FULL, Rng
from desklora.trainer import TrainConfig, train

SEED = 1
STEPS = 3
SEQ_LEN = 48
VOCAB_SIZE = 512


def run_digest(dtype: str, checkpointing: bool, micro_batch: int,
               accumulation: int) -> tuple[str, str, float]:
    """The run's trained-values digest, its ledger digest and its last step's loss."""
    cfg = ModelConfig(vocab_size=VOCAB_SIZE, d_model=64, n_heads=4, n_layers=2, d_ffn=256,
                      max_seq_len=SEQ_LEN + 1, dtype=dtype, lora=LoraConfig(r=8, dropout=0.05))
    model = build(cfg, Rng(SEED))
    windows = np.random.default_rng(SEED).integers(4, VOCAB_SIZE, (32, SEQ_LEN + 1))
    tcfg = TrainConfig(micro_batch=micro_batch, accumulation_steps=accumulation, lr_max=3e-3,
                       warmup_steps=1, total_steps=STEPS, max_grad_norm=1.0, seq_len=SEQ_LEN,
                       seed=SEED, optimizer="adamw8", checkpointing=checkpointing,
                       checkpoint_every=STEPS)
    with tempfile.TemporaryDirectory() as out:
        result = train(model, windows, tcfg, out)
    values, ledger = hashlib.sha256(), hashlib.sha256()
    for name, p in model.trainable_parameters():
        values.update(name.encode())
        values.update(np.ascontiguousarray(p.value).tobytes())
    values.update(model.base_bytes())
    for r in result.metrics:
        values.update(repr((r.step, r.loss, r.grad_norm)).encode())
        ledger.update(repr((r.step, r.device_hw_bytes, r.host_hw_bytes)).encode())
    return values.hexdigest(), ledger.hexdigest(), result.metrics[-1].loss


def main():
    for dtype, checkpointing, (micro, accum) in itertools.product(
            (FULL, DOUBLE), (False, True), ((8, 1), (2, 3))):
        values, ledger, loss = run_digest(dtype, checkpointing, micro, accum)
        print(f"{dtype:<6} checkpointing={int(checkpointing)} {micro}x{accum}  values {values[:16]}  "
              f"ledger {ledger[:16]}  loss {loss:.6f}")


if __name__ == "__main__":
    main()
