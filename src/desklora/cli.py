"""Command-line pipeline: prep -> train -> eval -> report, plus standalone
perturbation and artifact inspection.

Configuration precedence is flags > config file > defaults. The config file
is one JSON document with per-command sections; unknown keys are rejected.
Every command writes its resolved configuration next to its outputs so a run
can be reproduced from the echo alone.

Exit codes: 0 ok, 2 config error, 3 data error, 4 training abort.
"""

import argparse
import json
import os
import sys

from .arabicprep import (
    BpeVocab,
    DialectLexicon,
    NormalizationPolicy,
    ShardReader,
    bpe_train,
    prepare_documents,
    read_jsonl,
    write_shards,
)
from .arabicprep.bpe import SEP_ID
from .errors import BudgetError, ConfigError, DataError, DeskloraError, TrainingError
from .evalharness import (
    PerturbationConfig,
    dialect_breakdown,
    emit_report,
    load_eval_set,
    perturb,
    robustness_curve,
    validate_report,
)
from .lora import LoraConfig, loads_adapters
from .model import ModelConfig, build, build_diacritic_mask, load_model
from .numcore import Rng
from .quant import loads_qnf4, loads_state8
from .trainer import (
    MemoryBudget,
    TrainConfig,
    checkpoint_hash,
    load_checkpoint,
    loads_optimizer,
    pack_windows,
    train,
)
from .util import sha256_file

_POLICY_KEYS = set(NormalizationPolicy().to_dict())
_SECTION_KEYS = {
    "global": {"seed", "out"},
    "prep": {"input", "out", "vocab_size", "vocab", "per_sentence", "lexicon",
             "shard_docs", "policy", "seed"},
    "train": {"shards", "out", "train", "model", "lora", "stage", "dialect",
              "resume", "init_from", "seed"},
    "eval": {"checkpoint", "shards", "out", "lm", "qa", "mt", "robustness",
             "perturbation", "compare", "max_new", "seed"},
}


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for section, body in cfg.items():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        unknown = set(body) - _SECTION_KEYS[section]
        if unknown:
            raise ConfigError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
        if section == "prep" and "policy" in body:
            bad = set(body["policy"]) - _POLICY_KEYS
            if bad:
                raise ConfigError(f"unknown policy keys: {sorted(bad)}")
    return cfg


def _merge(file_section: dict, overrides: dict) -> dict:
    out = dict(file_section)
    for key, value in overrides.items():
        if value is not None:
            out[key] = value
    return out


def _write_resolved(out_dir: str, command: str, resolved: dict):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.json"), "w", encoding="utf-8") as f:
        json.dump({"command": command, "config": resolved}, f,
                  ensure_ascii=False, sort_keys=True, indent=1)
        f.write("\n")


# ---------------------------------------------------------------------------
# prep
# ---------------------------------------------------------------------------


def cmd_prep(args) -> int:
    file_cfg = _load_config_file(args.config)
    section = _merge(file_cfg.get("prep", {}), {
        "input": args.input,
        "out": args.out,
        "vocab_size": args.vocab_size,
        "vocab": args.vocab,
        "per_sentence": args.per_sentence or None,
        "lexicon": args.lexicon,
        "seed": args.seed,
    })
    policy_dict = dict(section.get("policy", {}))
    for key in _POLICY_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            policy_dict[key] = flag
    if not section.get("input"):
        raise ConfigError("prep needs --input (or prep.input in the config file)")
    if not section.get("out"):
        raise ConfigError("prep needs --out (or prep.out in the config file)")

    policy = NormalizationPolicy.from_dict({**NormalizationPolicy().to_dict(), **policy_dict})
    lexicon = (
        DialectLexicon.from_file(section["lexicon"], policy)
        if section.get("lexicon")
        else DialectLexicon.default(policy)
    )
    raw = read_jsonl(section["input"])
    docs = prepare_documents(raw, policy, lexicon, per_sentence=bool(section.get("per_sentence")))
    if not docs:
        raise DataError("all documents were dropped by cleaning; nothing to write")

    if section.get("vocab"):
        vocab = BpeVocab.load(section["vocab"])
    else:
        vocab = bpe_train((d.text for d in docs), vocab_size=int(section.get("vocab_size", 8192)))

    out_dir = section["out"]
    os.makedirs(out_dir, exist_ok=True)
    vocab.save(os.path.join(out_dir, "vocab.json"))
    write_shards(docs, vocab, policy, out_dir, shard_docs=int(section.get("shard_docs", 4096)))

    reader = ShardReader(out_dir)
    counts = reader.manifest["counts"]
    print(f"prepared {len(docs)} documents ({len(raw) - len(docs)} dropped) -> {out_dir}")
    for label, table in (("source", counts["source"]), ("dialect", counts["dialect"])):
        rendered = "  ".join(f"{k}={v}" for k, v in sorted(table.items()))
        print(f"  by {label}: {rendered}")
    print(f"  vocab: {vocab.n_tokens} tokens, hash {vocab.vocab_hash()[:12]}")

    resolved = {"prep": {**section, "policy": policy.to_dict()}}
    _write_resolved(out_dir, "prep", resolved)
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _windows_from_shards(reader: ShardReader, seq_len: int, dialect: str | None):
    docs = list(reader.iter_tokens(dialect))
    if dialect is not None and not docs:
        raise DataError(f"no documents tagged {dialect!r} in the shard set")
    return pack_windows([d.tolist() for d in docs], seq_len, SEP_ID)


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config)
    section = _merge(file_cfg.get("train", {}), {
        "shards": args.shards,
        "out": args.out,
        "stage": args.stage,
        "dialect": args.dialect,
        "resume": args.resume,
        "init_from": args.init_from,
        "seed": args.seed,
    })
    if not section.get("shards"):
        raise ConfigError("train needs --shards (or train.shards in the config file)")
    if not section.get("out"):
        raise ConfigError("train needs --out (or train.out in the config file)")

    train_over = dict(section.get("train", {}))
    for key in ("total_steps", "warmup_steps", "lr_max", "micro_batch", "accumulation_steps",
                "seq_len", "max_grad_norm", "precision", "optimizer", "checkpoint_every"):
        flag = getattr(args, key, None)
        if flag is not None:
            train_over[key] = flag
    if args.checkpointing:
        train_over["checkpointing"] = True
    if section.get("seed") is not None:
        train_over.setdefault("seed", int(section["seed"]))
    train_cfg = TrainConfig.from_dict({**TrainConfig(seq_len=128).to_dict(), **train_over})

    reader = ShardReader(section["shards"])
    vocab = BpeVocab.load(os.path.join(section["shards"], "vocab.json"))
    if vocab.vocab_hash() != reader.vocab_hash:
        raise ConfigError("vocab.json does not match the shard manifest vocab hash")

    out_dir = section["out"]
    if section.get("stage"):
        out_dir = os.path.join(out_dir, section["stage"])

    resume = section.get("resume")
    start = resume or section.get("init_from")
    if start:
        model, state = load_checkpoint(start)
        if state["vocab_hash"] and state["vocab_hash"] != vocab.vocab_hash():
            raise ConfigError("vocab hash mismatch between checkpoint and shard set")
        if not resume:
            adapters_hash = sha256_file(os.path.join(start, "adapters.lora"))
            print(f"initialized from {start} (adapters sha256 {adapters_hash[:12]})")
    else:
        model_over = dict(section.get("model", {}))
        for key in ("d_model", "n_heads", "n_layers", "d_ffn", "max_seq_len", "diacritic_bias"):
            flag = getattr(args, key, None)
            if flag is not None:
                model_over[key] = flag
        lora_over = dict(section.get("lora", {}))
        for arg_key, cfg_key in (("rank", "r"), ("alpha", "alpha"), ("lora_dropout", "dropout")):
            flag = getattr(args, arg_key, None)
            if flag is not None:
                lora_over[cfg_key] = flag
        lora_cfg = LoraConfig.from_dict({**LoraConfig().to_dict(), **lora_over})
        model_cfg = ModelConfig.from_dict({
            **{"vocab_size": vocab.n_tokens,
               "max_seq_len": max(train_cfg.seq_len, 16)},
            **model_over,
            "lora": lora_cfg.to_dict(),
        })
        model = build(model_cfg, Rng(train_cfg.seed))

    windows = _windows_from_shards(reader, train_cfg.seq_len, section.get("dialect"))
    frac = model.trainable_fraction()
    print(f"training: {windows.shape[0]} windows of {train_cfg.seq_len + 1} tokens, "
          f"effective batch {train_cfg.micro_batch * train_cfg.accumulation_steps}, "
          f"trainable fraction {frac:.4%}")

    mask_fn = None
    if model.cfg.diacritic_bias != 0.0:
        mask_fn = lambda ids: build_diacritic_mask(ids[:-1], vocab.token_bytes_of)  # noqa: E731

    resolved = {
        "train": {
            **section,
            "train": train_cfg.to_dict(),
            "model": model.cfg.to_dict(),
        }
    }
    _write_resolved(out_dir, "train", resolved)

    result = train(
        model,
        windows,
        train_cfg,
        out_dir,
        resume_from=resume,
        vocab_hash=vocab.vocab_hash(),
        mask_fn=mask_fn,
        log=print,
    )
    final = result.final_checkpoint
    print(f"done: final checkpoint {final} (hash {checkpoint_hash(final)[:12]})")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    file_cfg = _load_config_file(args.config)
    section = _merge(file_cfg.get("eval", {}), {
        "checkpoint": args.checkpoint,
        "shards": args.shards,
        "out": args.out,
        "lm": args.lm,
        "qa": args.qa,
        "mt": args.mt,
        "robustness": args.robustness,
        "compare": args.compare,
        "max_new": args.max_new,
        "seed": args.seed,
    })
    for required in ("checkpoint", "shards", "out"):
        if not section.get(required):
            raise ConfigError(f"eval needs --{required} (or eval.{required} in the config file)")
    for key in ("lm", "qa", "mt", "robustness"):
        path = section.get(key)
        if path and not os.path.exists(path):
            raise DataError(f"eval set file not found: {path}")

    reader = ShardReader(section["shards"])
    vocab = BpeVocab.load(os.path.join(section["shards"], "vocab.json"))
    policy = reader.policy

    def load_side(ckpt_dir):
        model, state = load_checkpoint(ckpt_dir)
        if state["vocab_hash"] and state["vocab_hash"] != vocab.vocab_hash():
            raise ConfigError(
                f"vocab hash mismatch between checkpoint {ckpt_dir} and eval tokenization"
            )
        return model

    model = load_side(section["checkpoint"])

    sets = {}
    for kind in ("lm", "qa", "mt"):
        if section.get(kind):
            sets[kind] = load_eval_set(section[kind], kind)
    pcfg_dict = dict(section.get("perturbation", {}))
    if args.levels:
        pcfg_dict["levels"] = [float(x) for x in args.levels.split(",")]
    if section.get("seed") is not None:
        pcfg_dict.setdefault("seed", int(section["seed"]))
    pcfg = PerturbationConfig(**pcfg_dict)

    metadata = {
        "model_hash": checkpoint_hash(section["checkpoint"]),
        "vocab_hash": vocab.vocab_hash(),
        "perturbation": pcfg.to_dict(),
    }
    report = dialect_breakdown(model, sets, vocab, policy, metadata=metadata)

    if section.get("robustness"):
        robust_set = load_eval_set(section["robustness"], "robustness")
        texts = [it["text"] for it in robust_set.items]
        max_new = int(section.get("max_new") or 16)
        report.curves["robustness"] = robustness_curve(
            model, texts, vocab, policy, pcfg, max_new=max_new
        )

    if section.get("compare"):
        other = load_side(section["compare"])
        other_report = dialect_breakdown(other, sets, vocab, policy, metadata={})
        comparison = {}
        for metric, row in report.tables.items():
            comparison[metric] = {}
            for dialect, value in row.items():
                comparison[metric][dialect] = {
                    "finetuned": value,
                    "base": other_report.tables.get(metric, {}).get(dialect, float("nan")),
                }
        report.comparison = comparison
        report.metadata["compare_hash"] = checkpoint_hash(section["compare"])

    out_dir = section["out"]
    paths = emit_report(report, out_dir)
    _write_resolved(out_dir, "eval", {"eval": {**section, "perturbation": pcfg.to_dict()}})
    print(f"report written: {paths['json']}")
    return 0


# ---------------------------------------------------------------------------
# perturb / inspect
# ---------------------------------------------------------------------------


def cmd_perturb(args) -> int:
    if args.text is not None:
        text = args.text
    elif args.infile:
        with open(args.infile, "r", encoding="utf-8") as f:
            text = f.read()
    else:
        text = sys.stdin.read()
    ops = tuple(args.ops.split(",")) if args.ops else None
    kwargs = {"ops": ops} if ops else {}
    print(perturb(text, args.level, seed=args.seed or 0, **kwargs))
    return 0


def _inspect_one(path):
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
            with open(state, "r", encoding="utf-8") as f:
                st = json.load(f)
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
    elif head == b"QST8":
        s = loads_state8(data)
        print(f"{path}: QST8 optimizer moment shape {s.shape}, block {s.block_size}")
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
        print(f"{path}: token shard, sha256 {sha256_file(path)[:12]}")
    else:
        try:
            with open(path, "r", encoding="utf-8") as f:
                obj = json.load(f)
            if obj.get("format") == "desklora-bpe":
                vocab = BpeVocab.load(path)
                print(f"{path}: tokenizer, {vocab.n_tokens} tokens, hash {vocab.vocab_hash()[:12]}")
                return
            if obj.get("format") == "desklora-report":
                validate_report(obj)
                print(f"{path}: eval report, metrics {sorted(obj['tables'])}")
                return
        except (json.JSONDecodeError, UnicodeDecodeError):
            pass
        print(f"{path}: unrecognized format")


def cmd_inspect(args) -> int:
    for path in args.paths:
        if not os.path.exists(path):
            raise DataError(f"no such path: {path}")
        _inspect_one(path)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="desklora", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="clean, tag, tokenize, and shard a JSONL corpus")
    p.add_argument("--config")
    p.add_argument("--input")
    p.add_argument("--out")
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--vocab", help="reuse an existing tokenizer file")
    p.add_argument("--per-sentence", dest="per_sentence", action="store_true", default=False)
    p.add_argument("--lexicon")
    p.add_argument("--seed", type=int)
    for key in sorted(_POLICY_KEYS):
        flag = "--" + key.replace("_", "-")
        p.add_argument(flag, dest=key, action="store_true", default=None)
        p.add_argument("--no-" + key.replace("_", "-"), dest=key, action="store_false", default=None)
    p.set_defaults(func=cmd_prep)

    t = sub.add_parser("train", help="fine-tune on a shard set")
    t.add_argument("--config")
    t.add_argument("--shards")
    t.add_argument("--out")
    t.add_argument("--steps", dest="total_steps", type=int)
    t.add_argument("--warmup", dest="warmup_steps", type=int)
    t.add_argument("--lr", dest="lr_max", type=float)
    t.add_argument("--micro-batch", dest="micro_batch", type=int)
    t.add_argument("--accum", dest="accumulation_steps", type=int)
    t.add_argument("--seq-len", dest="seq_len", type=int)
    t.add_argument("--clip", dest="max_grad_norm", type=float)
    t.add_argument("--precision", choices=("full", "mixed"))
    t.add_argument("--optimizer", choices=("adamw8", "adamw", "sgd"))
    t.add_argument("--checkpointing", action="store_true", default=False)
    t.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--d-model", dest="d_model", type=int)
    t.add_argument("--n-heads", dest="n_heads", type=int)
    t.add_argument("--n-layers", dest="n_layers", type=int)
    t.add_argument("--d-ffn", dest="d_ffn", type=int)
    t.add_argument("--max-seq-len", dest="max_seq_len", type=int)
    t.add_argument("--diacritic-bias", dest="diacritic_bias", type=float)
    t.add_argument("--rank", type=int)
    t.add_argument("--alpha", type=float)
    t.add_argument("--lora-dropout", dest="lora_dropout", type=float)
    t.add_argument("--resume", help="checkpoint dir to continue")
    t.add_argument("--init-from", dest="init_from", help="checkpoint dir to start a new stage from")
    t.add_argument("--stage", help="stage name; outputs nest under out/<stage>")
    t.add_argument("--dialect", help="train only on documents with this dialect tag")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="run metrics and emit a report")
    e.add_argument("--config")
    e.add_argument("--checkpoint")
    e.add_argument("--shards", help="shard dir supplying vocab and policy")
    e.add_argument("--out")
    e.add_argument("--lm")
    e.add_argument("--qa")
    e.add_argument("--mt")
    e.add_argument("--robustness")
    e.add_argument("--levels", help="comma-separated perturbation levels")
    e.add_argument("--max-new", dest="max_new", type=int)
    e.add_argument("--compare", help="second checkpoint for side-by-side tables")
    e.add_argument("--seed", type=int)
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("perturb", help="perturb text from --text/--in/stdin")
    r.add_argument("--text")
    r.add_argument("--in", dest="infile")
    r.add_argument("--level", type=float, required=True)
    r.add_argument("--ops", help="comma-separated op subset")
    r.add_argument("--seed", type=int)
    r.set_defaults(func=cmd_perturb)

    i = sub.add_parser("inspect", help="describe artifacts (shards, checkpoints, vocabs)")
    i.add_argument("paths", nargs="+")
    i.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except (TrainingError, BudgetError) as e:
        print(f"training abort: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except DeskloraError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
