"""Tokenized corpus storage: binary shards plus a JSON manifest.

Shard layout (little-endian): magic "SHRD", u16 version, u16 doc count, then
per document a u32 token count followed by that many u32 token ids. The
manifest records the normalization policy, the tokenizer hash, per-shard
checksums, per-source/dialect counts, and a per-document index so readers
can seek without scanning.
"""

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DataError, FormatError
from ..util import sha256_bytes
from .textops import NormalizationPolicy

SOURCES = ("bactrian", "openassistant", "wikipedia", "other")
DIALECT_TAGS = ("MSA", "EGY", "GLF", "LEV", "MGR", "UNK")

SHARD_MAGIC = b"SHRD"
SHARD_VERSION = 1
SHARD_HEADER = struct.Struct("<4sHH")
MANIFEST_NAME = "manifest.json"
DEFAULT_SHARD_DOCS = 4096


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


def _shard_bytes(token_lists: list[list[int]]) -> bytes:
    parts = [SHARD_HEADER.pack(SHARD_MAGIC, SHARD_VERSION, len(token_lists))]
    for ids in token_lists:
        parts.append(struct.pack("<I", len(ids)))
        parts.append(np.asarray(ids, dtype="<u4").tobytes())
    return b"".join(parts)


def write_shards(
    docs: list[Document],
    tokenizer,
    policy: NormalizationPolicy,
    out_dir,
    shard_docs: int = DEFAULT_SHARD_DOCS,
) -> str:
    """Tokenize documents into shards; returns the manifest path."""
    if not 1 <= shard_docs <= 0xFFFF:  # the shard header stores the doc count as a u16
        raise ConfigError(f"shard_docs must be in [1, 65535], got {shard_docs}")
    if not docs:
        raise DataError("no documents to write")
    os.makedirs(out_dir, exist_ok=True)

    doc_index = []
    shard_files = []
    counts_source: dict[str, int] = {}
    counts_dialect: dict[str, int] = {}

    for shard_no in range(0, len(docs), shard_docs):
        chunk = docs[shard_no : shard_no + shard_docs]
        token_lists = []
        for local, doc in enumerate(chunk):
            if not doc.text:
                raise DataError(f"document {doc.id} is empty; drop it before writing")
            ids = tokenizer.encode(doc.text)
            token_lists.append(ids)
            doc_index.append(
                {
                    "id": doc.id,
                    "source": doc.source,
                    "dialect": doc.dialect,
                    "shard": len(shard_files),
                    "index": local,
                    "tokens": len(ids),
                }
            )
            counts_source[doc.source] = counts_source.get(doc.source, 0) + 1
            counts_dialect[doc.dialect] = counts_dialect.get(doc.dialect, 0) + 1
        blob = _shard_bytes(token_lists)
        fname = f"shard_{len(shard_files):04d}.bin"
        with open(os.path.join(out_dir, fname), "wb") as f:
            f.write(blob)
        shard_files.append({"file": fname, "sha256": sha256_bytes(blob), "count": len(chunk)})

    manifest = {
        "format": "desklora-shards",
        "version": 1,
        "policy": policy.to_dict(),
        "vocab_hash": tokenizer.vocab_hash(),
        "shards": shard_files,
        "counts": {"source": counts_source, "dialect": counts_dialect},
        "docs": doc_index,
    }
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, ensure_ascii=False, sort_keys=True)
        f.write("\n")
    return manifest_path


class ShardReader:
    """Seekable zero-copy access to tokenized documents."""

    def __init__(self, shard_dir):
        self.dir = shard_dir
        with open(os.path.join(shard_dir, MANIFEST_NAME), "r", encoding="utf-8") as f:
            self.manifest = json.load(f)
        if self.manifest.get("format") != "desklora-shards":
            raise FormatError(f"{shard_dir}: not a shard directory")
        self.policy = NormalizationPolicy.from_dict(self.manifest["policy"])
        self.vocab_hash = self.manifest["vocab_hash"]
        self.docs = self.manifest["docs"]

        self._buffers: list[bytes] = []
        self._offsets: list[list[tuple[int, int]]] = []  # per shard: (offset, count)
        for entry in self.manifest["shards"]:
            with open(os.path.join(shard_dir, entry["file"]), "rb") as f:
                blob = f.read()
            if sha256_bytes(blob) != entry["sha256"]:
                raise DataError(f"{entry['file']}: checksum mismatch, shard is corrupt")
            magic, version, count = SHARD_HEADER.unpack_from(blob, 0)
            if magic != SHARD_MAGIC or version != SHARD_VERSION:
                raise FormatError(f"{entry['file']}: bad shard header")
            if count != entry["count"]:
                raise DataError(f"{entry['file']}: doc count mismatch")
            offsets = []
            off = SHARD_HEADER.size
            for _ in range(count):
                (n,) = struct.unpack_from("<I", blob, off)
                off += 4
                offsets.append((off, n))
                off += 4 * n
            if off != len(blob):
                raise FormatError(f"{entry['file']}: trailing bytes")
            self._buffers.append(blob)
            self._offsets.append(offsets)

    def __len__(self) -> int:
        return len(self.docs)

    def doc_meta(self, i: int) -> dict:
        return self.docs[i]

    def doc_tokens(self, i: int) -> np.ndarray:
        meta = self.docs[i]
        off, n = self._offsets[meta["shard"]][meta["index"]]
        return np.frombuffer(self._buffers[meta["shard"]], dtype="<u4", count=n, offset=off)

    def iter_tokens(self, dialect: str | None = None):
        for i, meta in enumerate(self.docs):
            if dialect is None or meta["dialect"] == dialect:
                yield self.doc_tokens(i)
