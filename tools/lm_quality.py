"""Language-model quality of the `evaluate` recipe, per seed.

    python tools/lm_quality.py SEED [SEED ...]

For each seed, through `python -m desklora.cli` child processes on this
checkout's `src/`:
  - prep: `deskbench.inputs.corpus(1200, seed)` at vocab 512;
  - train: 150 steps at deskbench's `evaluate` shape (d 64, 4 heads, 2
    layers, d_ffn 256, rank 8, micro-batch 8, seq_len 48), warmup 30,
    lr 3e-3, clip 1.0, adamw8;
  - eval --lm: the lm items of `deskbench.inputs.eval_sets(seed + 100, 20,
    20, 20, 3, 30)`.
It prints one table row per seed: the final loss (the mean of the last 10
losses) and each dialect's perplexity / next-word accuracy. Everything it
writes goes to a temporary directory.
"""

import csv
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from deskbench import inputs  # noqa: E402

STEPS = 150
SHAPE = ("--micro-batch", 8, "--accum", 1, "--seq-len", 48, "--max-seq-len", 49,
         "--d-model", 64, "--n-heads", 4, "--n-layers", 2, "--d-ffn", 256,
         "--rank", 8, "--lora-dropout", 0.05, "--optimizer", "adamw8")


def desklora(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "desklora.cli", *map(str, args)], env=env,
                   check=True, stdout=subprocess.DEVNULL)


def measure(seed: int, work: str) -> tuple[float, dict]:
    """(final loss, {dialect: (perplexity, next-word accuracy)}) for one seed."""
    corpus, lm = os.path.join(work, "corpus.jsonl"), os.path.join(work, "lm.jsonl")
    shards, train, report = (os.path.join(work, d) for d in ("shards", "train", "eval"))
    inputs.write_jsonl(corpus, inputs.corpus(1200, seed))
    inputs.write_jsonl(lm, inputs.eval_sets(seed + 100, 20, 20, 20, 3, 30)["lm"])
    desklora("prep", "--input", corpus, "--out", shards, "--vocab-size", 512)
    desklora("train", "--shards", shards, "--out", train, "--steps", STEPS, "--warmup", 30,
             "--lr", 3e-3, "--clip", 1.0, "--checkpoint-every", STEPS, "--seed", seed, *SHAPE)
    desklora("eval", "--checkpoint", os.path.join(train, f"step_{STEPS:06d}"),
             "--shards", shards, "--lm", lm, "--out", report)
    with open(os.path.join(train, "metrics.csv"), newline="") as f:
        losses = [float(row["loss"]) for row in csv.DictReader(f)]
    with open(os.path.join(report, "report.json"), encoding="utf-8") as f:
        tables = json.load(f)["tables"]
    scores = {d: (tables["perplexity"][d], tables["next_word_accuracy"][d])
              for d in inputs.DIALECTS if d in tables["perplexity"]}
    return sum(losses[-10:]) / 10, scores


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    print("| seed | final loss | " + " | ".join(inputs.DIALECTS) + " |")
    print("|---|---|" + "---|" * len(inputs.DIALECTS))
    for seed in map(int, argv):
        with tempfile.TemporaryDirectory() as work:
            loss, scores = measure(seed, work)
        cells = [f"{scores[d][0]:.1f} / {scores[d][1]:.3f}" if d in scores else "-"
                 for d in inputs.DIALECTS]
        print(f"| {seed} | {loss:.3f} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
