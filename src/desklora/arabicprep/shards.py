"""Tokenized corpus storage: binary shards plus a JSON manifest. The caller
tokenizes; `write_shards` stores the ids it is given.

A shard is a binfmt container, magic "SHRD" version 2: a u32 doc count, a
u32 token count per document, then all documents' u32 token ids end to end,
last in the file. The manifest records the normalization policy, the
tokenizer hash, per-shard checksums, per-source/dialect counts, and a
per-document index so readers can seek without scanning.
"""

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..binfmt import Reader, Writer
from ..errors import ConfigError, ContractError, DataError, FormatError
from ..util import sha256_bytes
from .dialect import DIALECTS, UNKNOWN
from .textops import NormalizationPolicy

SOURCES = ("bactrian", "openassistant", "wikipedia", "other")
DIALECT_TAGS = (*DIALECTS, UNKNOWN)

_SHRD = (b"SHRD", 2)
MANIFEST_NAME = "manifest.json"
DEFAULT_SHARD_DOCS = 4096
_MANIFEST_SLICE = 256  # doc index entries per json encode


@dataclass
class Document:
    text: str
    source: str = "other"
    dialect: str = "UNK"
    id: str = field(default="")

    def __post_init__(self):
        if self.source not in SOURCES:
            self.source = "other"
        if self.dialect not in DIALECT_TAGS:
            raise DataError(f"unknown dialect tag {self.dialect!r}")
        if not self.id:
            h = hashlib.sha256(f"{self.source}\x00{self.text}".encode("utf-8"))
            self.id = h.hexdigest()[:16]


def _shard_file(n: int) -> str:
    return f"shard_{n:04d}.bin"


def dumps_shard(token_lists) -> bytes:
    """One shard holding each document's ids, a list or an array per document.
    An id outside u32, the type the file holds, is a ContractError."""
    flat = np.concatenate(token_lists) if len(token_lists) else np.zeros(0, np.uint32)
    if flat.size and (flat.min() < 0 or flat.max() > 0xFFFFFFFF):
        raise ContractError(f"shard ids must fit u32; they span {flat.min()} to {flat.max()}")
    w = Writer(*_SHRD)
    w.pack("I", len(token_lists))
    w.array([len(ids) for ids in token_lists], "<u4")
    w.array(flat, "<u4")
    return w.getvalue()


def loads_shard(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """A shard's per-document token counts and its read-only flat token ids."""
    r = Reader(data, *_SHRD)
    (n_docs,) = r.unpack("I")
    counts = r.array("<u4", n_docs)
    ids = r.array("<u4", int(counts.sum(dtype=np.uint64)))
    r.done()
    ids.flags.writeable = False
    return counts, ids


def write_shards(
    docs: list[Document],
    ids,
    vocab_hash: str,
    policy: NormalizationPolicy,
    out_dir,
    shard_docs: int = DEFAULT_SHARD_DOCS,
) -> dict:
    """Store tokenized documents in shards; returns the manifest it wrote.
    The caller tokenizes: ids[i] holds docs[i]'s token ids under the
    tokenizer whose hash is vocab_hash."""
    if shard_docs < 1:
        raise ConfigError(f"shard_docs must be >= 1, got {shard_docs}")
    if not docs:
        raise DataError("no documents to write")
    if len(ids) != len(docs):
        raise ContractError(f"{len(ids)} token id lists for {len(docs)} documents")
    for doc in docs:
        if not doc.text:
            raise DataError(f"document {doc.id} is empty; drop it before writing")
    os.makedirs(out_dir, exist_ok=True)

    doc_index = []
    shard_files = []
    for start in range(0, len(docs), shard_docs):
        token_lists = ids[start : start + shard_docs]
        for local, (doc, doc_ids) in enumerate(zip(docs[start : start + shard_docs], token_lists)):
            doc_index.append(
                {
                    "id": doc.id,
                    "source": doc.source,
                    "dialect": doc.dialect,
                    "shard": len(shard_files),
                    "index": local,
                    "tokens": len(doc_ids),
                }
            )
        blob = dumps_shard(token_lists)
        fname = _shard_file(len(shard_files))
        with open(os.path.join(out_dir, fname), "wb") as f:
            f.write(blob)
        shard_files.append({"file": fname, "sha256": sha256_bytes(blob), "count": len(token_lists)})

    manifest = {
        "format": "desklora-shards",
        "version": 1,
        "policy": policy.to_dict(),
        "vocab_hash": vocab_hash,
        "shards": shard_files,
        "counts": {key: Counter(d[key] for d in doc_index) for key in ("source", "dialect")},
        "docs": doc_index,
    }

    def dumps(obj) -> str:
        return json.dumps(obj, ensure_ascii=False, sort_keys=True)

    # dumps, not dump: only a one-shot encode runs json's C encoder. It holds
    # every chunk until it joins them, so the doc index goes in slices.
    head, tail = dumps({**manifest, "docs": 0}).split('"docs": 0', 1)
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as f:
        f.write(head + '"docs": [')
        for start in range(0, len(doc_index), _MANIFEST_SLICE):
            f.write((", " if start else "") + dumps(doc_index[start : start + _MANIFEST_SLICE])[1:-1])
        f.write("]" + tail + "\n")
    return manifest


def _is_count(x) -> bool:
    return type(x) is int and x >= 0  # a JSON true is no count


def _check_manifest(m, where):
    """Raise FormatError unless `m` has the shape write_shards gives a manifest:
    the doc index lists every shard slot once, in order, and the counts
    tally the doc index."""
    if not (isinstance(m, dict) and m.get("format") == "desklora-shards" and m.get("version") == 1):
        raise FormatError(f"{where}: not a shard manifest")
    shards, docs = m.get("shards"), m.get("docs")
    if not (isinstance(m.get("vocab_hash"), str) and isinstance(shards, list)
            and isinstance(docs, list) and all(isinstance(e, dict) for e in shards + docs)):
        raise FormatError(f"{where}: manifest needs vocab_hash, a shard list and a doc list")
    for n, e in enumerate(shards):
        if not (e.get("file") == _shard_file(n) and isinstance(e.get("sha256"), str)
                and _is_count(e.get("count"))):
            raise FormatError(f"{where}: shard entry {n} is damaged")
    for i, d in enumerate(docs):
        if not (isinstance(d.get("id"), str) and d.get("source") in SOURCES
                and d.get("dialect") in DIALECT_TAGS
                and all(_is_count(d.get(k)) for k in ("shard", "index", "tokens"))):
            raise FormatError(f"{where}: doc entry {i} is damaged")
    slots = [(n, i) for n, e in enumerate(shards) for i in range(e["count"])]
    if [(d["shard"], d["index"]) for d in docs] != slots:
        raise FormatError(f"{where}: the doc index does not list each shard slot once, in order")
    tally = {key: Counter(d[key] for d in docs) for key in ("source", "dialect")}
    if m.get("counts") != tally:
        raise FormatError(f"{where}: counts do not tally the doc index")


class ShardReader:
    """Seekable zero-copy access to tokenized documents. A damaged manifest
    raises FormatError, a shard that fails its checksum DataError."""

    def __init__(self, shard_dir):
        self.dir = shard_dir
        path = os.path.join(shard_dir, MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as f:
                self.manifest = json.load(f)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"{path}: not valid JSON: {e}") from e
        _check_manifest(self.manifest, path)
        try:
            self.policy = NormalizationPolicy.from_dict(self.manifest.get("policy"))
        except ConfigError as e:
            raise FormatError(f"{path}: {e}") from e
        self.vocab_hash = self.manifest["vocab_hash"]
        self.docs = self.manifest["docs"]

        self._shards = []  # per shard: (each doc's start offset and the end, flat ids)
        first = 0  # the shard's first doc in the doc index
        for entry in self.manifest["shards"]:
            with open(os.path.join(shard_dir, entry["file"]), "rb") as f:
                blob = f.read()
            if sha256_bytes(blob) != entry["sha256"]:
                raise DataError(f"{entry['file']}: checksum mismatch, shard is corrupt")
            try:
                counts, ids = loads_shard(blob)
            except FormatError as e:
                raise FormatError(f"{entry['file']}: {e}") from e
            if counts.tolist() != [d["tokens"] for d in self.docs[first:first + entry["count"]]]:
                raise FormatError(f"{path}: the doc index disagrees with {entry['file']}")
            first += entry["count"]
            self._shards.append((np.concatenate(([0], np.cumsum(counts, dtype=np.int64))), ids))

    def __len__(self) -> int:
        return len(self.docs)

    def doc_tokens(self, i: int) -> np.ndarray:
        meta = self.docs[i]
        bounds, ids = self._shards[meta["shard"]]
        return ids[bounds[meta["index"]]:bounds[meta["index"] + 1]]

    def iter_tokens(self, dialect: str | None = None):
        for i, meta in enumerate(self.docs):
            if dialect is None or meta["dialect"] == dialect:
                yield self.doc_tokens(i)
