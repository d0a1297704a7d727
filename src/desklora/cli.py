"""Command-line pipeline: prep -> train -> eval -> report, plus standalone
perturbation and artifact inspection.

`FLAGS` is the one table from flags to config fields: each row names a
command, a flag, the path of the config field the flag sets and its type. The
prep, train and eval parsers are generated from it, and each flag's --help
names its path. The config file holds a JSON object per command, shaped like
that command's dataclass (`PrepCommand`, `TrainCommand`, `EvalCommand`), so
the table's paths are the file's schema; unknown keys and mistyped values are
rejected in every section. `resolve` lays each given flag over the file at its
path (flags > config file > defaults) and builds the typed config, so every
config error exits 2 before any shard, vocabulary or checkpoint is opened.
Only `train.model.vocab_size` comes from the data. Each command writes its
full resolved config, defaults included, to `resolved_config.json`; fed back
as --config with only `out` changed, it reruns the same run.

Exit codes: 0 ok, 2 config error, 3 data error, 4 training abort.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

from .arabicprep import (
    BpeVocab, DialectLexicon, NormalizationPolicy, ShardReader, bpe_train_encode,
    prepare_documents, read_jsonl, write_shards,
)
from .arabicprep.bpe import check_vocab_size
from .arabicprep.shards import DEFAULT_SHARD_DOCS
from .describe import describe
from .errors import BudgetError, ConfigError, DataError, DeskloraError, TrainingError
from .evalharness import (
    PerturbationConfig, dialect_breakdown, emit_report, load_eval_set, perturb, robustness_curve,
)
from .model import ModelConfig, build
from .numcore import Rng
from .trainer import TrainConfig, checkpoint_hash, effective_batch, load_checkpoint, pack_windows, train
from .util import from_known_keys, sha256_file


@dataclass
class PrepCommand:
    """`desklora prep`'s config: the `prep` section of a config file."""

    input: str = None
    out: str = None
    vocab_size: int = 8192
    vocab: str = None
    per_sentence: bool = False
    lexicon: str = None
    shard_docs: int = DEFAULT_SHARD_DOCS
    policy: NormalizationPolicy = field(default_factory=NormalizationPolicy)

    def __post_init__(self):  # bpe_train_encode and write_shards check these too, after reading
        check_vocab_size(self.vocab_size)
        if self.shard_docs < 1:
            raise ConfigError(f"shard_docs must be >= 1, got {self.shard_docs}")


@dataclass
class TrainCommand:
    """`desklora train`'s config: the `train` section of a config file."""

    shards: str = None
    out: str = None
    stage: str = None
    dialect: str = None
    resume: str = None
    init_from: str = None
    train: TrainConfig = field(default_factory=TrainConfig)
    model: ModelConfig = None  # built by `_build`: its defaults depend on train.seq_len


@dataclass
class EvalCommand:
    """`desklora eval`'s config: the `eval` section of a config file."""

    checkpoint: str = None
    shards: str = None
    out: str = None
    lm: str = None
    qa: str = None
    mt: str = None
    robustness: str = None
    compare: str = None
    max_new: int = 16
    perturbation: PerturbationConfig = field(default_factory=PerturbationConfig)

    def __post_init__(self):
        if self.max_new < 1:
            raise ConfigError(f"max_new must be >= 1, got {self.max_new}")


COMMANDS = {"prep": PrepCommand, "train": TrainCommand, "eval": EvalCommand}
REQUIRED = {"prep": ("input", "out"), "train": ("shards", "out"),
            "eval": ("checkpoint", "shards", "out")}
SWITCH = "switch"  # a flag that sets its field to true and takes no value


def levels(text: str) -> list:
    return [float(x) for x in text.split(",")]


class Flag(NamedTuple):
    command: str
    flag: str
    path: tuple  # field names from the command's dataclass down
    kind: object  # int, float, str, levels, SWITCH, or bool for a --x/--no-x pair
    help: str = ""


FLAGS = (
    Flag("prep", "--input", ("input",), str),
    Flag("prep", "--out", ("out",), str),
    Flag("prep", "--vocab-size", ("vocab_size",), int),
    Flag("prep", "--vocab", ("vocab",), str, "reuse an existing tokenizer file"),
    Flag("prep", "--per-sentence", ("per_sentence",), SWITCH),
    Flag("prep", "--lexicon", ("lexicon",), str),
    *(Flag("prep", "--" + key.replace("_", "-"), ("policy", key), bool)
      for key in NormalizationPolicy().to_dict()),
    Flag("train", "--shards", ("shards",), str),
    Flag("train", "--out", ("out",), str),
    Flag("train", "--steps", ("train", "total_steps"), int),
    Flag("train", "--warmup", ("train", "warmup_steps"), int),
    Flag("train", "--lr", ("train", "lr_max"), float),
    Flag("train", "--micro-batch", ("train", "micro_batch"), int),
    Flag("train", "--accum", ("train", "accumulation_steps"), int),
    Flag("train", "--seq-len", ("train", "seq_len"), int),
    Flag("train", "--clip", ("train", "max_grad_norm"), float),
    Flag("train", "--optimizer", ("train", "optimizer"), str, "adamw8, adamw or sgd"),
    Flag("train", "--checkpointing", ("train", "checkpointing"), SWITCH),
    Flag("train", "--checkpoint-every", ("train", "checkpoint_every"), int),
    Flag("train", "--seed", ("train", "seed"), int),
    Flag("train", "--d-model", ("model", "d_model"), int),
    Flag("train", "--n-heads", ("model", "n_heads"), int),
    Flag("train", "--n-layers", ("model", "n_layers"), int),
    Flag("train", "--d-ffn", ("model", "d_ffn"), int),
    Flag("train", "--max-seq-len", ("model", "max_seq_len"), int, "default max(seq_len, 16)"),
    Flag("train", "--rank", ("model", "lora", "r"), int),
    Flag("train", "--alpha", ("model", "lora", "alpha"), float),
    Flag("train", "--lora-dropout", ("model", "lora", "dropout"), float),
    Flag("train", "--resume", ("resume",), str, "checkpoint dir to continue"),
    Flag("train", "--init-from", ("init_from",), str, "checkpoint dir to start a new stage from"),
    Flag("train", "--stage", ("stage",), str, "stage name; outputs nest under out/<stage>"),
    Flag("train", "--dialect", ("dialect",), str, "train only on documents with this dialect tag"),
    Flag("eval", "--checkpoint", ("checkpoint",), str),
    Flag("eval", "--shards", ("shards",), str, "shard dir supplying vocab and policy"),
    Flag("eval", "--out", ("out",), str),
    Flag("eval", "--lm", ("lm",), str),
    Flag("eval", "--qa", ("qa",), str),
    Flag("eval", "--mt", ("mt",), str),
    Flag("eval", "--robustness", ("robustness",), str),
    Flag("eval", "--levels", ("perturbation", "levels"), levels,
         "comma-separated perturbation levels"),
    Flag("eval", "--max-new", ("max_new",), int,
         "tokens generated per robustness continuation; QA and MT keep their own cap"),
    Flag("eval", "--compare", ("compare",), str, "second checkpoint for side-by-side tables"),
    Flag("eval", "--seed", ("perturbation", "seed"), int),
)


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
        if section not in COMMANDS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
    return cfg


def _build(command: str, section: dict):
    """The command's config from its section of the file, flags laid over."""
    if command != "train":
        return from_known_keys(COMMANDS[command], section)
    model = section.get("model", {})
    if not isinstance(model, dict):
        raise ConfigError(f"train.model must be an object, got {type(model).__name__}")
    run = from_known_keys(TrainCommand, {k: v for k, v in section.items() if k != "model"})
    # vocab_size 1 stands in until cmd_train reads the shard set's vocabulary
    run.model = from_known_keys(
        ModelConfig, {"vocab_size": 1, "max_seq_len": max(run.train.seq_len, 16), **model})
    _fits_window(run.train, run.model, "train.model")
    return run


def _fits_window(train_cfg: TrainConfig, model_cfg: ModelConfig, source: str):
    if train_cfg.seq_len > model_cfg.max_seq_len:
        raise ConfigError(f"train.train.seq_len {train_cfg.seq_len} exceeds the max_seq_len "
                          f"{model_cfg.max_seq_len} of {source}")


def resolve(command: str, args):
    """Lay the flags given in `args` over the config file's section for
    `command` and build the command's config. Returns it with the section as
    given (file plus flags, no defaults). Every section in the file is built,
    so a config error anywhere in it is raised before any data is read."""
    given = vars(args)
    sections = _load_config_file(given["config"])
    for row in FLAGS:
        value = given.get(row.flag[2:].replace("-", "_"))
        if row.command == command and value is not None:
            node, where = sections.setdefault(command, {}), command
            for key in row.path[:-1]:
                node, where = node.setdefault(key, {}), f"{where}.{key}"
                if not isinstance(node, dict):
                    raise ConfigError(f"{where} must be an object, got {type(node).__name__}")
            node[row.path[-1]] = value
    section = sections.setdefault(command, {})
    cfg = {name: _build(name, body) for name, body in sections.items()}[command]
    for key in REQUIRED[command]:
        if getattr(cfg, key) is None:
            flag = next(r.flag for r in FLAGS if r.command == command and r.path == (key,))
            raise ConfigError(f"{command} needs {flag} (or {command}.{key} in the config file)")
    return cfg, section


def _must_match(given: dict, actual: dict, source: str, where: str = "train.model"):
    """Every value in `given` equals `actual`'s at the same key; else ConfigError."""
    for key, value in given.items():
        if isinstance(value, dict):
            _must_match(value, actual[key], source, f"{where}.{key}")
        elif value != actual[key]:
            raise ConfigError(f"{where}.{key} is {value!r} but {source} has {actual[key]!r}")


def _write_resolved(out_dir: str, command: str, cfg):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.json"), "w", encoding="utf-8") as f:
        json.dump({"command": command, "config": {command: asdict(cfg)}}, f,
                  ensure_ascii=False, sort_keys=True, indent=1)
        f.write("\n")


def cmd_prep(args) -> int:
    run, _ = resolve("prep", args)
    lexicon = (DialectLexicon.from_file(run.lexicon, run.policy) if run.lexicon
               else DialectLexicon.default(run.policy))
    raw = read_jsonl(run.input)
    docs = prepare_documents(raw, run.policy, lexicon, per_sentence=run.per_sentence)
    if not docs:
        raise DataError("all documents were dropped by cleaning; nothing to write")

    if run.vocab:
        vocab = BpeVocab.load(run.vocab)
        ids = [vocab.encode(d.text) for d in docs]
    else:  # training's final stream is the corpus' encoding
        vocab, ids = bpe_train_encode([d.text for d in docs], vocab_size=run.vocab_size)
    os.makedirs(run.out, exist_ok=True)
    vocab.save(os.path.join(run.out, "vocab.json"))
    counts = write_shards(docs, ids, vocab.vocab_hash(), run.policy, run.out,
                          shard_docs=run.shard_docs)["counts"]
    print(f"prepared {len(docs)} documents ({len(raw) - len(docs)} dropped) -> {run.out}")
    for label, table in (("source", counts["source"]), ("dialect", counts["dialect"])):
        rendered = "  ".join(f"{k}={v}" for k, v in sorted(table.items()))
        print(f"  by {label}: {rendered}")
    print(f"  vocab: {vocab.n_tokens} tokens, hash {vocab.vocab_hash()[:12]}")
    _write_resolved(run.out, "prep", run)
    return 0


def cmd_train(args) -> int:
    run, section = resolve("train", args)
    reader = ShardReader(run.shards)
    vocab = BpeVocab.load(os.path.join(run.shards, "vocab.json"))
    if vocab.vocab_hash() != reader.vocab_hash:
        raise ConfigError("vocab.json does not match the shard manifest vocab hash")
    out_dir = os.path.join(run.out, run.stage) if run.stage else run.out

    # a model value the file or a flag gives must match the checkpoint's, or the vocabulary's
    start = run.resume or run.init_from
    if start:
        model, state = load_checkpoint(start)
        if state["vocab_hash"] and state["vocab_hash"] != vocab.vocab_hash():
            raise ConfigError("vocab hash mismatch between checkpoint and shard set")
        _must_match(section.get("model", {}), model.cfg.to_dict(), f"checkpoint {start}")
        _fits_window(run.train, model.cfg, f"checkpoint {start}")
        if not run.resume:
            adapters_hash = sha256_file(os.path.join(start, "adapters.lora"))
            print(f"initialized from {start} (adapters sha256 {adapters_hash[:12]})")
    else:
        model_cfg = replace(run.model, vocab_size=vocab.n_tokens)
        _must_match(section.get("model", {}), model_cfg.to_dict(), "the shard set's vocabulary")
        model = build(model_cfg, Rng(run.train.seed))
    run.model = model.cfg

    docs = list(reader.iter_tokens(run.dialect))
    if run.dialect is not None and not docs:
        raise DataError(f"no documents tagged {run.dialect!r} in the shard set")
    windows = pack_windows(docs, run.train.seq_len)
    frac = model.trainable_fraction()
    print(f"training: {windows.shape[0]} windows of {run.train.seq_len + 1} tokens, "
          f"effective batch {effective_batch(run.train)}, "
          f"trainable fraction {frac:.4%}")
    _write_resolved(out_dir, "train", run)

    result = train(model, windows, run.train, out_dir, resume_from=run.resume,
                   vocab_hash=vocab.vocab_hash(), log=print)
    final = result.final_checkpoint
    print(f"done: final checkpoint {final} (hash {checkpoint_hash(final)[:12]})")
    return 0


def cmd_eval(args) -> int:
    run, _ = resolve("eval", args)
    set_paths = {"lm": run.lm, "qa": run.qa, "mt": run.mt}
    for path in (*set_paths.values(), run.robustness):
        if path and not os.path.exists(path):
            raise DataError(f"eval set file not found: {path}")

    reader = ShardReader(run.shards)
    vocab = BpeVocab.load(os.path.join(run.shards, "vocab.json"))
    policy = reader.policy

    def load_side(ckpt_dir):
        model, state = load_checkpoint(ckpt_dir)
        if state["vocab_hash"] and state["vocab_hash"] != vocab.vocab_hash():
            raise ConfigError(
                f"vocab hash mismatch between checkpoint {ckpt_dir} and eval tokenization")
        return model

    model = load_side(run.checkpoint)
    sets = {kind: load_eval_set(path, kind) for kind, path in set_paths.items() if path}

    metadata = {"model_hash": checkpoint_hash(run.checkpoint), "vocab_hash": vocab.vocab_hash(),
                "perturbation": run.perturbation.to_dict()}
    report = dialect_breakdown(model, sets, vocab, policy, metadata=metadata)

    if run.robustness:
        texts = [it["text"] for it in load_eval_set(run.robustness, "robustness").items]
        report.curves["robustness"] = robustness_curve(
            model, texts, vocab, policy, run.perturbation, max_new=run.max_new)

    if run.compare:
        other = load_side(run.compare)
        other_report = dialect_breakdown(other, sets, vocab, policy, metadata={})
        base = other_report.tables
        report.comparison = {
            metric: {dialect: {"finetuned": value,
                               "base": base.get(metric, {}).get(dialect, float("nan"))}
                     for dialect, value in row.items()}
            for metric, row in report.tables.items()}
        report.metadata["compare_hash"] = checkpoint_hash(run.compare)

    paths = emit_report(report, run.out)
    _write_resolved(run.out, "eval", run)
    print(f"report written: {paths['json']}")
    return 0


def cmd_perturb(args) -> int:
    if args.text is not None:
        text = args.text
    elif args.infile:
        with open(args.infile, "r", encoding="utf-8") as f:
            text = f.read()
    else:
        text = sys.stdin.read()
    kwargs = {"ops": tuple(args.ops.split(","))} if args.ops else {}
    print(perturb(text, args.level, seed=args.seed or 0, **kwargs))
    return 0


def cmd_inspect(args) -> int:
    for path in args.paths:
        if not os.path.exists(path):
            raise DataError(f"no such path: {path}")
        describe(path)
    return 0


_HANDLERS = {
    "prep": (cmd_prep, "clean, tag, tokenize, and shard a JSONL corpus"),
    "train": (cmd_train, "fine-tune on a shard set"),
    "eval": (cmd_eval, "run metrics and emit a report"),
}
_ACTIONS = {bool: {"action": argparse.BooleanOptionalAction},
            SWITCH: {"action": "store_const", "const": True}}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="desklora", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in _HANDLERS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for row in (r for r in FLAGS if r.command == command):
            where = f"[config: {command}.{'.'.join(row.path)}]"
            p.add_argument(row.flag, help=f"{row.help} {where}".lstrip(),
                           **_ACTIONS.get(row.kind, {"type": row.kind}))
        p.set_defaults(func=func)

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
