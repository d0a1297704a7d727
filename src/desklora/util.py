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


def from_known_keys(cls, d):
    """Build config dataclass `cls` from a dict, rejecting keys it has no field for."""
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} needs a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {unknown}")
    try:
        return cls(**d)
    except TypeError as e:  # a missing field, or a value of the wrong type
        raise ConfigError(f"{cls.__name__}: {e}") from e
