"""Small shared helpers: hashing, canonical JSON and config dicts."""

import dataclasses
import hashlib
import json

from .errors import ConfigError


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def sha256_json(obj) -> str:
    return sha256_bytes(canonical_json(obj).encode("utf-8"))


def _fits(kind, value) -> bool:
    """Whether a JSON value suits a field annotated with scalar `kind`: a bool
    is no int, and an int serves as a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, kind) or (kind is float and isinstance(value, int))


def from_known_keys(cls, d):
    """Build config dataclass `cls` from a dict, rejecting keys it has no field
    for and values of the wrong type. A field annotated int, float, bool or str
    takes a value of that type, or None where its default is None; a field
    annotated with a dataclass takes a dict, built the same way."""
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} needs a JSON object, got {type(d).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {unknown}")
    values = {}
    for key, value in d.items():
        kind = fields[key].type
        if value is None and fields[key].default is None:
            pass
        elif dataclasses.is_dataclass(kind):
            if not isinstance(value, kind):
                value = from_known_keys(kind, value)
        elif kind in (int, float, bool, str) and not _fits(kind, value):
            raise ConfigError(f"{cls.__name__}.{key} must be {kind.__name__}, got {value!r}")
        values[key] = value
    try:
        return cls(**values)
    except (TypeError, ValueError) as e:  # a missing field, or a value __post_init__ cannot take
        raise ConfigError(f"{cls.__name__}: {e}") from e


def must_match(given: dict, actual: dict, source: str, where: str):
    """Every value in `given` equals `actual`'s at the same key path, a key
    `actual` lacks included; else ConfigError naming the first that differs."""
    for key, value in given.items():
        path = f"{where}.{key}"
        if key not in actual:
            raise ConfigError(f"{path} is {value!r} but {source} has no {key!r}")
        if isinstance(value, dict) and isinstance(actual[key], dict):
            must_match(value, actual[key], source, path)
        elif value != actual[key]:
            raise ConfigError(f"{path} is {value!r} but {source} has {actual[key]!r}")
