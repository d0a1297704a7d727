"""Tokenized corpus storage: binary shards plus a JSON manifest. The caller
tokenizes; `write_shards` stores the ids it is given.

A shard is a binfmt container, magic "SHRD" version 3: a u32 doc count, a
u32 token count per document, a u8 source code per document, a u8 dialect
code per document, then all documents' u32 token ids end to end, last in the
file. A source code indexes SOURCES and a dialect code DIALECT_TAGS, so the
order of both tables is part of the format: reordering either one needs a
new version. The manifest describes the set, not its documents: the
normalization policy, the tokenizer hash, and each shard's file and checksum.
"""

import bisect
import json
import os
from dataclasses import dataclass

import numpy as np

from ..binfmt import Reader, Writer
from ..errors import ConfigError, ContractError, DataError, FormatError
from ..util import sha256_bytes
from .dialect import DIALECTS, UNKNOWN
from .textops import NormalizationPolicy

SOURCES = ("bactrian", "openassistant", "wikipedia", "other")
DIALECT_TAGS = (*DIALECTS, UNKNOWN)
_TAGS = (("source", SOURCES), ("dialect", DIALECT_TAGS))  # each shard's code arrays, in order

_SHRD = (b"SHRD", 3)
_MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.json"
DEFAULT_SHARD_DOCS = 4096


@dataclass
class Document:
    text: str
    source: str = "other"
    dialect: str = "UNK"

    def __post_init__(self):
        if self.source not in SOURCES:
            self.source = "other"
        if self.dialect not in DIALECT_TAGS:
            raise DataError(f"unknown dialect tag {self.dialect!r}")


def _shard_file(n: int) -> str:
    return f"shard_{n:04d}.bin"


def tag_counts(sources, dialects) -> dict:
    """Documents per source and per dialect, from their code arrays; a tag
    that no document holds is left out."""
    return {key: {table[c]: int(n) for c, n in enumerate(np.bincount(codes)) if n}
            for (key, table), codes in zip(_TAGS, (sources, dialects))}


def dumps_shard(token_lists, sources, dialects) -> bytes:
    """One shard holding each document's ids, a list or an array per document,
    and its source and dialect codes. An id outside u32, the type the file
    holds, is a ContractError."""
    flat = np.concatenate(token_lists) if len(token_lists) else np.zeros(0, np.uint32)
    if flat.size and (flat.min() < 0 or flat.max() > 0xFFFFFFFF):
        raise ContractError(f"shard ids must fit u32; they span {flat.min()} to {flat.max()}")
    w = Writer(*_SHRD)
    w.pack("I", len(token_lists))
    w.array([len(ids) for ids in token_lists], "<u4")
    w.array(sources, "u1")
    w.array(dialects, "u1")
    w.array(flat, "<u4")
    return w.getvalue()


def loads_shard(data: bytes) -> tuple[np.ndarray, ...]:
    """A shard's per-document token counts, source codes and dialect codes,
    and its read-only flat token ids. A code outside its table is a FormatError."""
    r = Reader(data, *_SHRD)
    (n_docs,) = r.unpack("I")
    counts = r.array("<u4", n_docs)
    sources, dialects = r.array("u1", n_docs), r.array("u1", n_docs)
    for (name, table), codes in zip(_TAGS, (sources, dialects)):
        r.expect(codes.max(initial=0) < len(table), f"a {name} code past its {len(table)} tags")
    ids = r.array("<u4", int(counts.sum(dtype=np.uint64)))
    r.done()
    ids.flags.writeable = False
    return counts, sources, dialects, ids


def write_shards(
    docs: list[Document],
    ids,
    vocab_hash: str,
    policy: NormalizationPolicy,
    out_dir,
    shard_docs: int = DEFAULT_SHARD_DOCS,
) -> dict:
    """Store tokenized documents in shards; returns the documents per source
    and per dialect, as `ShardReader.counts` gives them. The caller tokenizes:
    ids[i] holds docs[i]'s token ids under the tokenizer whose hash is vocab_hash."""
    if shard_docs < 1:
        raise ConfigError(f"shard_docs must be >= 1, got {shard_docs}")
    if not docs:
        raise DataError("no documents to write")
    if len(ids) != len(docs):
        raise ContractError(f"{len(ids)} token id lists for {len(docs)} documents")
    for i, doc in enumerate(docs):
        if not doc.text:
            raise DataError(f"document {i} is empty; drop it before writing")
    os.makedirs(out_dir, exist_ok=True)

    sources = np.array([SOURCES.index(d.source) for d in docs], np.uint8)
    dialects = np.array([DIALECT_TAGS.index(d.dialect) for d in docs], np.uint8)
    shard_files = []
    for start in range(0, len(docs), shard_docs):
        part = slice(start, start + shard_docs)
        blob = dumps_shard(ids[part], sources[part], dialects[part])
        fname = _shard_file(len(shard_files))
        with open(os.path.join(out_dir, fname), "wb") as f:
            f.write(blob)
        shard_files.append({"file": fname, "sha256": sha256_bytes(blob)})

    manifest = {"format": "desklora-shards", "version": _MANIFEST_VERSION,
                "policy": policy.to_dict(), "vocab_hash": vocab_hash, "shards": shard_files}
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True)
        f.write("\n")
    return tag_counts(sources, dialects)


def _check_manifest(m, where):
    """Raise FormatError unless `m` has the shape write_shards gives a manifest."""
    if not (isinstance(m, dict) and m.get("format") == "desklora-shards"):
        raise FormatError(f"{where}: not a shard manifest")
    if m.get("version") != _MANIFEST_VERSION:
        raise FormatError(f"{where}: unsupported manifest version {m.get('version')!r}, "
                          f"expected {_MANIFEST_VERSION}; run desklora prep again")
    shards = m.get("shards")
    if not (isinstance(m.get("vocab_hash"), str) and isinstance(shards, list)
            and all(isinstance(e, dict) for e in shards)):
        raise FormatError(f"{where}: manifest needs vocab_hash and a shard list")
    for n, e in enumerate(shards):
        if not (e.get("file") == _shard_file(n) and isinstance(e.get("sha256"), str)):
            raise FormatError(f"{where}: shard entry {n} is damaged")


class ShardReader:
    """Seekable zero-copy access to tokenized documents. A damaged manifest
    or shard raises FormatError, a shard that fails its checksum DataError."""

    def __init__(self, shard_dir):
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

        self._shards = []  # per shard: (each doc's start offset and the end, flat ids)
        self._starts = [0]  # each shard's first document, then the document count
        tags = [(np.zeros(0, np.uint8),) * 2]  # per shard: (source codes, dialect codes)
        for entry in self.manifest["shards"]:
            with open(os.path.join(shard_dir, entry["file"]), "rb") as f:
                blob = f.read()
            if sha256_bytes(blob) != entry["sha256"]:
                raise DataError(f"{entry['file']}: checksum mismatch, shard is corrupt")
            try:
                counts, *shard_tags, ids = loads_shard(blob)
            except FormatError as e:
                raise FormatError(f"{entry['file']}: {e}") from e
            self._shards.append((np.concatenate(([0], np.cumsum(counts, dtype=np.int64))), ids))
            self._starts.append(self._starts[-1] + counts.size)
            tags.append(shard_tags)
        self._sources, self._dialects = map(np.concatenate, zip(*tags))

    def __len__(self) -> int:
        return self._starts[-1]

    def doc_tokens(self, i: int) -> np.ndarray:
        i = range(len(self))[i]  # IndexError past either end; a negative i counts from the end
        n = bisect.bisect_right(self._starts, i) - 1
        bounds, ids = self._shards[n]
        j = i - self._starts[n]
        return ids[bounds[j]:bounds[j + 1]]

    def iter_tokens(self, dialect: str | None = None):
        """Each document's ids in order, or only those tagged `dialect`; a tag
        that is not in DIALECT_TAGS matches no document."""
        if dialect is None:
            docs = range(len(self))
        elif dialect in DIALECT_TAGS:
            docs = np.flatnonzero(self._dialects == DIALECT_TAGS.index(dialect))
        else:
            docs = ()
        for i in docs:
            yield self.doc_tokens(i)

    def counts(self) -> dict:
        """Documents per source and per dialect, as `write_shards` returns them."""
        return tag_counts(self._sources, self._dialects)
