"""`desklora inspect`: one line or three per artifact. Each artifact is
loaded whole, so a damaged one fails as its loader does."""

import json
import os

from .arabicprep import BpeVocab, ShardReader, loads_shard
from .evalharness import validate_report
from .lora import loads_adapters
from .model import load_model
from .quant import loads_qnf4
from .trainer import checkpoint_hash, loads_optimizer, read_trainer_state
from .util import sha256_file


def describe(path):
    """Print what the artifact or directory at `path` is, loading it to check it."""
    if os.path.isdir(path):
        manifest = os.path.join(path, "manifest.json")
        state = os.path.join(path, "trainer_state")
        if os.path.exists(manifest):
            reader = ShardReader(path)
            counts = reader.manifest["counts"]
            print(f"{path}: shard set, {len(reader)} docs, "
                  f"{len(reader.manifest['shards'])} shards, vocab {reader.vocab_hash[:12]}")
            print(f"  policy: {reader.policy.to_dict()}")
            print(f"  dialects: {counts['dialect']}")
            return
        if os.path.exists(state):
            st = read_trainer_state(path)
            print(f"{path}: checkpoint at step {st['step']}, seed {st['seed']}, "
                  f"hash {checkpoint_hash(path)[:12]}")
            return
        print(f"{path}: directory (no manifest or trainer_state)")
        return
    with open(path, "rb") as f:
        data = f.read()
    head = data[:4]
    if head == b"QNF4":
        q = loads_qnf4(data)
        print(f"{path}: QNF4 tensor shape {q.shape}, block {q.block_size}, "
              f"double-quant {q.dq is not None}")
    elif head == b"LORA":
        state = loads_adapters(data)
        print(f"{path}: adapter checkpoint r={state['r']} alpha={state['alpha']} "
              f"layers={len(state['weights'])}")
    elif head == b"DMDL":
        cfg = load_model(path).cfg
        print(f"{path}: model checkpoint, {cfg.n_layers} layers, d_model {cfg.d_model}, "
              f"vocab {cfg.vocab_size}, sha256 {sha256_file(path)[:12]}")
    elif head == b"OPT8":
        opt = loads_optimizer(data)
        print(f"{path}: {opt.kind} optimizer state at step {opt.step_count}")
    elif head == b"SHRD":
        counts, ids = loads_shard(data)
        print(f"{path}: token shard, {counts.size} docs, {ids.size} tokens")
    else:
        try:
            with open(path, "r", encoding="utf-8") as f:
                obj = json.load(f)
            kind = obj.get("format") if isinstance(obj, dict) else None
            if kind == "desklora-bpe":
                vocab = BpeVocab.load(path)
                print(f"{path}: tokenizer, {vocab.n_tokens} tokens, hash {vocab.vocab_hash()[:12]}")
                return
            if kind == "desklora-report":
                validate_report(obj)
                print(f"{path}: eval report, metrics {sorted(obj['tables'])}")
                return
        except (json.JSONDecodeError, UnicodeDecodeError):
            pass
        print(f"{path}: unrecognized format")
