"""Byte-level BPE: 256 byte tokens plus four specials, then greedy
most-frequent-pair merges. Ties break on the lexicographically smallest
(left bytes, right bytes) pair, and training stops early once no adjacent
pair repeats, since single-occurrence merges cannot generalize.

The morphological boundary marker acts as a hard pre-tokenization split:
merges never cross it and it is dropped from the encoded stream, so decoding
returns the text without markers.
"""

import json

import numpy as np

from ..errors import ConfigError
from ..util import sha256_json
from .morph import BOUNDARY

SPECIALS = ("<pad>", "<bos>", "<eos>", "<sep>")
PAD_ID, BOS_ID, EOS_ID, SEP_ID = 0, 1, 2, 3
N_SPECIALS = len(SPECIALS)
BYTE_OFFSET = N_SPECIALS  # byte b encodes as id BYTE_OFFSET + b
FIRST_MERGE_ID = BYTE_OFFSET + 256

_KEY_SHIFT = 21  # ids stay far below 2^21


def _pair_key(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return (left.astype(np.int64) << _KEY_SHIFT) | right.astype(np.int64)


def _merge_piece(ids: np.ndarray, a: int, b: int, new_id: int) -> np.ndarray:
    """Replace non-overlapping (a, b) occurrences left to right."""
    hits = np.flatnonzero((ids[:-1] == a) & (ids[1:] == b))
    if hits.size == 0:
        return ids
    keep = []
    last = -2
    for i in hits.tolist():
        if i > last + 1:
            keep.append(i)
            last = i
    out = ids.copy()
    out[keep] = new_id
    return np.delete(out, [i + 1 for i in keep])


class BpeVocab:
    def __init__(self, merges: list[tuple[int, int]], vocab_size: int):
        self.vocab_size = vocab_size
        self.merges = [(int(a), int(b)) for a, b in merges]
        self.token_bytes: list[bytes] = [b""] * N_SPECIALS + [bytes([i]) for i in range(256)]
        for a, b in self.merges:
            self.token_bytes.append(self.token_bytes[a] + self.token_bytes[b])
        self._rank_by_key = {
            int(_pair_key(np.asarray([a]), np.asarray([b]))[0]): rank
            for rank, (a, b) in enumerate(self.merges)
        }

    @property
    def n_tokens(self) -> int:
        return len(self.token_bytes)

    def token_bytes_of(self, token_id: int) -> bytes:
        return self.token_bytes[token_id]

    def token_strings(self) -> dict:
        """Decodable token strings to ids (first id wins on byte collisions)."""
        out: dict[str, int] = {}
        for i, bs in enumerate(self.token_bytes):
            if not bs:
                continue
            try:
                s = bs.decode("utf-8")
            except UnicodeDecodeError:
                continue
            out.setdefault(s, i)
        return out

    # -- encode / decode ------------------------------------------------------

    def _encode_piece(self, piece: str) -> np.ndarray:
        raw = piece.encode("utf-8")
        ids = np.frombuffer(raw, dtype=np.uint8).astype(np.int64) + BYTE_OFFSET
        while ids.size >= 2:
            keys = _pair_key(ids[:-1], ids[1:])
            best_rank = None
            for k in np.unique(keys).tolist():
                rank = self._rank_by_key.get(k)
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
            if best_rank is None:
                break
            a, b = self.merges[best_rank]
            ids = _merge_piece(ids, a, b, FIRST_MERGE_ID + best_rank)
        return ids

    def encode(self, text: str) -> list[int]:
        pieces = text.split(BOUNDARY)
        out: list[int] = []
        for piece in pieces:
            if piece:
                out.extend(self._encode_piece(piece).tolist())
        return out

    def decode(self, ids) -> str:
        data = b"".join(self.token_bytes[int(i)] for i in ids)
        return data.decode("utf-8", errors="replace")

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "desklora-bpe",
            "version": 1,
            "vocab_size": self.vocab_size,
            "specials": list(SPECIALS),
            "merges": [[a, b] for a, b in self.merges],
        }

    def vocab_hash(self) -> str:
        return sha256_json(self.to_dict())

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "BpeVocab":
        with open(path, "r", encoding="utf-8") as f:
            d = json.load(f)
        if d.get("format") != "desklora-bpe":
            raise ConfigError(f"{path}: not a tokenizer file")
        return cls(merges=[tuple(m) for m in d["merges"]], vocab_size=d["vocab_size"])


def bpe_train(corpus, vocab_size: int = 8192) -> BpeVocab:
    """Learn merges from an iterable of texts."""
    if vocab_size <= 256 + N_SPECIALS:
        raise ConfigError(f"vocab_size must exceed {256 + N_SPECIALS}, got {vocab_size}")
    pieces: list[np.ndarray] = []
    for text in corpus:
        for piece in text.split(BOUNDARY):
            if piece:
                raw = piece.encode("utf-8")
                pieces.append(np.frombuffer(raw, dtype=np.uint8).astype(np.int64) + BYTE_OFFSET)
    if not pieces:
        raise ConfigError("cannot train a tokenizer on an empty corpus")

    token_bytes: list[bytes] = [b""] * N_SPECIALS + [bytes([i]) for i in range(256)]
    merges: list[tuple[int, int]] = []
    next_id = FIRST_MERGE_ID

    while next_id < vocab_size:
        keys_parts = [_pair_key(p[:-1], p[1:]) for p in pieces if p.size >= 2]
        if not keys_parts:
            break
        keys, counts = np.unique(np.concatenate(keys_parts), return_counts=True)
        top = int(counts.max())
        if top < 2:
            break
        candidates = keys[counts == top].tolist()
        best = min(
            candidates,
            key=lambda k: (token_bytes[k >> _KEY_SHIFT], token_bytes[k & ((1 << _KEY_SHIFT) - 1)]),
        )
        a, b = best >> _KEY_SHIFT, best & ((1 << _KEY_SHIFT) - 1)
        merges.append((a, b))
        token_bytes.append(token_bytes[a] + token_bytes[b])
        pieces = [_merge_piece(p, a, b, next_id) if p.size >= 2 else p for p in pieces]
        next_id += 1

    return BpeVocab(merges=merges, vocab_size=vocab_size)
