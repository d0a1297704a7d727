"""Guards on what the package exports: numcore exports only what another
module runs or deskbench's tracer wraps, and every name the tracer wraps
still exists, so a removal fails here and not inside a traced run."""

import ast
import importlib
import pathlib

from deskbench import spans
from desklora import numcore

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _imported_from(path: pathlib.Path, node: ast.ImportFrom) -> str:
    """The absolute module name an ImportFrom in `path` reads from."""
    if node.level == 0:
        return node.module
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    base = package[:len(package) - (node.level - 1)]
    return ".".join([*base, *([node.module] if node.module else [])])


def _numcore_imports_outside_numcore() -> set:
    names = set()
    for path in SRC.rglob("*.py"):
        if "numcore" in path.relative_to(SRC).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                module = _imported_from(path, node)
                if module == "desklora.numcore" or module.startswith("desklora.numcore."):
                    names.update(alias.name for alias in node.names)
    return names


def test_numcore_exports_only_what_the_engine_or_the_tracer_uses():
    traced = set(spans.NUMCORE_OPS) | {attr for _, module, attr in spans.FUNCTIONS
                                       if module.startswith("desklora.numcore")}
    unused = sorted(set(numcore.__all__) - _numcore_imports_outside_numcore() - traced)
    assert not unused, f"desklora.numcore exports names no other module imports: {unused}"


def test_every_name_the_tracer_wraps_exists():
    missing = [f"{module}.{attr}" for _, module, attr in spans.FUNCTIONS
               if not hasattr(importlib.import_module(module), attr)]
    missing += [f"{module}.{cls}.{method}" for _, module, cls, method in spans.METHODS
                if not hasattr(getattr(importlib.import_module(module), cls, None), method)]
    assert not missing, f"deskbench/spans.py wraps names that no longer exist: {missing}"
