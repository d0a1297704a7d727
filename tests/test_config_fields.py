"""Every config field is read by the code it configures, and every CLI flag
sets the config field its table row names. A field that nothing outside its
own class body reads does nothing, however it is validated or saved; a row
whose path names no field would fail in a user's run, not here."""

import ast
import dataclasses
import json
import pathlib

import pytest

import desklora
from desklora import cli
from desklora.arabicprep import NormalizationPolicy
from desklora.errors import ConfigError
from desklora.evalharness import PerturbationConfig
from desklora.lora import LoraConfig
from desklora.model import ModelConfig
from desklora.trainer import MemoryBudget, TrainConfig
from desklora.util import from_known_keys


def attribute_reads(root: pathlib.Path, skip_class: str) -> set:
    """Names of the attributes loaded in `root`'s modules, outside the body of class `skip_class`."""
    names = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skipped = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == skip_class
            for inner in ast.walk(node)
        }
        names.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in skipped
        )
    return names


@pytest.mark.parametrize("cls", [ModelConfig, LoraConfig, TrainConfig, MemoryBudget,
                                 PerturbationConfig, NormalizationPolicy, *cli.COMMANDS.values()])
def test_every_config_field_is_read_outside_its_class(cls):
    reads = attribute_reads(pathlib.Path(desklora.__file__).parent, cls.__name__)
    unread = [f.name for f in dataclasses.fields(cls) if f.name not in reads]
    assert unread == []


def field_type(command: str, path: tuple):
    """The annotation of the field at `path` below `command`'s config class."""
    kind = cli.COMMANDS[command]
    for key in path:
        fields = {f.name: f.type for f in dataclasses.fields(kind)}
        assert key in fields, f"{kind.__name__} has no field {key!r}"
        kind = fields[key]
    return kind


ROWS = pytest.mark.parametrize("row", cli.FLAGS, ids=[f"{r.command} {r.flag}" for r in cli.FLAGS])


@ROWS
def test_every_flag_names_a_field_of_its_type(row):
    expected = {cli.SWITCH: bool, cli.levels: tuple}.get(row.kind, row.kind)
    assert field_type(row.command, row.path) is expected


# A value for the file and a conflicting one for the flag, both valid where
# the defaults of the other fields hold; the argv that sets the flag's value;
# and the value the field then holds.
_VALUES = {int: (128, 256), float: (0.25, 0.5), str: ("file", "flag"),
           cli.SWITCH: (False, True), bool: (True, False), cli.levels: ([0.1], (0.2, 0.3))}
_SPECIAL = {"--n-heads": (2, 4), "--vocab-size": (300, 400), "--optimizer": ("adamw", "sgd")}


def flag_argv(row, value) -> list:
    if row.kind is bool:
        return [row.flag if value else "--no-" + row.flag[2:]]
    if row.kind == cli.SWITCH:
        return [row.flag]
    if row.kind == cli.levels:
        return [row.flag, ",".join(map(str, value))]
    return [row.flag, str(value)]


@ROWS
def test_flag_lands_in_its_field_and_beats_the_file(row, tmp_path):
    file_value, flag_value = _SPECIAL.get(row.flag, _VALUES[row.kind])
    section = {key: f"file_{key}" for key in cli.REQUIRED[row.command]}
    node = section
    for key in row.path[:-1]:
        node = node.setdefault(key, {})
    node[row.path[-1]] = file_value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({row.command: section}))

    args = cli._build_parser().parse_args(
        [row.command, "--config", str(cfg_path), *flag_argv(row, flag_value)])
    value, _ = cli.resolve(row.command, args)
    for key in row.path:
        value = getattr(value, key)
    assert value == flag_value


@pytest.mark.parametrize("cls, d, ok", [
    (TrainConfig, {"total_steps": True}, False),  # a bool is no int
    (TrainConfig, {"lr_max": 1}, True),  # an int serves as a float
    (LoraConfig, {"r": 2.0}, False),
    (ModelConfig, {"vocab_size": 16, "dtype": None}, False),  # None only where it is the default
    (cli.TrainCommand, {"stage": None}, True),
    (NormalizationPolicy, {"unify_alif": 1}, False),
    (cli.PrepCommand, {"policy": {"unify_ya": "no"}}, False),  # nested configs are checked too
    (TrainConfig, {"budget": {"host_bytes": 0}}, False),
    (TrainConfig, {"budget": {}}, True),
    (TrainConfig, {"checkpoint_every": 0}, False),
    (TrainConfig, {"keep_checkpoints": 0}, False),
])
def test_from_known_keys_checks_scalar_types(cls, d, ok):
    if ok:
        from_known_keys(cls, d)
    else:
        with pytest.raises(ConfigError):
            from_known_keys(cls, d)
