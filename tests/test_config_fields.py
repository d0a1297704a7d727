"""Every field of the model, adapter and training configs is read by the code
it configures. A field that nothing outside its own class body reads does
nothing, however it is validated or saved."""

import ast
import dataclasses
import pathlib

import pytest

import desklora
from desklora.lora import LoraConfig
from desklora.model import ModelConfig
from desklora.trainer import TrainConfig


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


@pytest.mark.parametrize("cls", [ModelConfig, LoraConfig, TrainConfig])
def test_every_config_field_is_read_outside_its_class(cls):
    reads = attribute_reads(pathlib.Path(desklora.__file__).parent, cls.__name__)
    unread = [f.name for f in dataclasses.fields(cls) if f.name not in reads]
    assert unread == []
