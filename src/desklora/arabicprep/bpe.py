"""Byte-level BPE (Sennrich et al. 2016): 256 byte tokens plus four specials,
then greedy most-frequent-pair merges.

The specials frame every sequence the model reads, and only this module
says how: `frame_document` gives `BOS ids EOS`, which training packs and the
LM scorer reads up to its EOS; `frame_prompt` gives `BOS ids SEP`, and SEP
means "a response follows" (QA and MT generation). PAD is never fed.

A pair's count is the number of adjacent positions holding it, overlapping
runs included ("aaa" counts (a, a) twice). The most frequent pair merges,
ties going to the smallest (left bytes, right bytes), and its occurrences are
replaced left to right without overlap. Training stops once no pair repeats,
since single-occurrence merges cannot generalize.

Training keeps the corpus in one flat int32 stream, with -1 (no byte's id)
before each piece and at the end, and the pair counts in sorted arrays built
once. A merge finds its hits h with one vectorized scan, subtracts the pairs
at {h-1, h, h+1}, writes the new id, deletes h+1 and adds the pairs around
each new token (all new, as they hold the new id): one pass, not a recount.
The hits are sorted and at least 2 apart, so the positions {h-1, h, h+1}
laid out hit by hit are sorted already, and a duplicate sits next to its twin.

Training's final stream is the encoding of its corpus, so `bpe_train_encode`
returns it split per text. The encoder below applies the merges in rank
order, each one left to right without overlap; training applied the same
merges in the same order, with the same rule for runs (the 1st, 3rd, ... hit
of an a == b run).

Encoding merges, in each piece, every occurrence of the lowest-rank present
pair left to right without overlap, until no pair has a rank. It does so in
one pass per piece. The ids form a doubly linked list (next/prev positions; a
removed id holds -1), and a heap holds (rank, position) for every adjacent
pair that has a rank. The smallest entry pops. It is stale, and skipped, if
its position no longer holds that rank's pair; otherwise the left id becomes
the merged id, the right one is unlinked and the pairs on either side are
pushed. This yields the rule's ids:
- a merged id only appears in merges of higher rank, so popped ranks never
  decrease;
- entries of equal rank pop in position order, which is the left-to-right,
  non-overlapping rule, runs such as "aaaa" included.
The heap needs one rank per pair, so `load` rejects a repeated merge. The
morphological boundary marker splits pieces: merges never cross it and it is
dropped from the encoded stream, so decoding returns the text unmarked.
"""

import heapq
import json

import numpy as np

from ..errors import ConfigError, FormatError
from ..util import sha256_json
from .morph import BOUNDARY

SPECIALS = ("<pad>", "<bos>", "<eos>", "<sep>")
PAD_ID, BOS_ID, EOS_ID, SEP_ID = 0, 1, 2, 3
N_SPECIALS = len(SPECIALS)
BYTE_OFFSET = N_SPECIALS  # byte b encodes as id BYTE_OFFSET + b
FIRST_MERGE_ID = BYTE_OFFSET + 256

_KEY_SHIFT = 21  # a pair key packs (left << 21) | right, so ids must stay below 2^21
MAX_VOCAB_SIZE = 1 << _KEY_SHIFT


def frame_document(ids) -> np.ndarray:
    """A document as the model reads it: BOS, its ids, EOS."""
    return np.concatenate(([BOS_ID], np.asarray(ids, dtype=np.int64), [EOS_ID]))


def frame_prompt(ids) -> np.ndarray:
    """A prompt as the model reads it: BOS, its ids, SEP."""
    return np.concatenate(([BOS_ID], np.asarray(ids, dtype=np.int64), [SEP_ID]))


def check_vocab_size(vocab_size: int):
    if not FIRST_MERGE_ID < vocab_size <= MAX_VOCAB_SIZE:
        raise ConfigError(
            f"vocab_size must be in ({FIRST_MERGE_ID}, {MAX_VOCAB_SIZE}], got {vocab_size}")


class BpeVocab:
    def __init__(self, merges: list[tuple[int, int]], vocab_size: int):
        self.vocab_size = vocab_size
        self.merges = [(int(a), int(b)) for a, b in merges]
        self.token_bytes: list[bytes] = [b""] * N_SPECIALS + [bytes([i]) for i in range(256)]
        for a, b in self.merges:
            self.token_bytes.append(self.token_bytes[a] + self.token_bytes[b])
        self._rank = {pair: rank for rank, pair in enumerate(self.merges)}

    @property
    def n_tokens(self) -> int:
        return len(self.token_bytes)

    # -- encode / decode ------------------------------------------------------

    def encode(self, text: str) -> list[int]:
        out: list[int] = []
        rank_of, merges = self._rank.get, self.merges
        for piece in text.split(BOUNDARY):
            ids = [b + BYTE_OFFSET for b in piece.encode("utf-8")]
            heap = [(rank, i) for i, pair in enumerate(zip(ids, ids[1:]))
                    if (rank := rank_of(pair)) is not None]
            heapq.heapify(heap)
            n = len(ids)
            nxt, prv = list(range(1, n + 1)), list(range(-1, n - 1))
            while heap:
                rank, i = heapq.heappop(heap)
                j = nxt[i]  # a removed i holds -1, so its stale pair never matches
                if j == n or merges[rank] != (ids[i], ids[j]):
                    continue
                ids[i], ids[j] = FIRST_MERGE_ID + rank, -1
                nxt[i] = k = nxt[j]
                if k < n:
                    prv[k] = i
                    if (r := rank_of((ids[i], ids[k]))) is not None:
                        heapq.heappush(heap, (r, i))
                if (h := prv[i]) >= 0 and (r := rank_of((ids[h], ids[i]))) is not None:
                    heapq.heappush(heap, (r, h))
            out.extend(x for x in ids if x >= 0)
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
            f.write(json.dumps(self.to_dict(), sort_keys=True) + "\n")  # C encoder, as in write_shards

    @classmethod
    def load(cls, path) -> "BpeVocab":
        """Read a tokenizer file written by `save`; any other content raises FormatError."""
        try:
            with open(path, "r", encoding="utf-8") as f:
                d = json.load(f)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"{path}: tokenizer file is not valid JSON: {e}") from e
        if not (isinstance(d, dict) and d.get("format") == "desklora-bpe"
                and d.get("version") == 1 and d.get("specials") == list(SPECIALS)):
            raise FormatError(f"{path}: not a tokenizer file")
        merges, vocab_size = d.get("merges"), d.get("vocab_size")
        if not isinstance(merges, list):
            raise FormatError(f"{path}: merges must be a list")
        for rank, m in enumerate(merges):
            new_id = FIRST_MERGE_ID + rank
            if not (isinstance(m, list) and len(m) == 2
                    and all(type(x) is int and 0 <= x < new_id for x in m)):
                raise FormatError(f"{path}: merge {rank} must be two ids below {new_id}, got {m!r}")
        if len({tuple(m) for m in merges}) != len(merges):
            raise FormatError(f"{path}: a merge pair is listed twice")
        if not (type(vocab_size) is int
                and FIRST_MERGE_ID + len(merges) <= vocab_size <= MAX_VOCAB_SIZE):
            raise FormatError(f"{path}: vocab_size {vocab_size!r} does not hold "
                              f"{FIRST_MERGE_ID + len(merges)} tokens")
        return cls(merges=[tuple(m) for m in merges], vocab_size=vocab_size)


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, in order."""
    return x[np.diff(x, prepend=x[:1] - 1) != 0]


def _pair_keys(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Keys of the pairs (left[i], right[i]) that hold no -1 separator."""
    real = (left >= 0) & (right >= 0)
    return (left[real].astype(np.int64) << _KEY_SHIFT) | right[real]


def bpe_train(corpus, vocab_size: int = 8192) -> BpeVocab:
    """Learn merges from an iterable of texts. `prep` calls `bpe_train_encode`;
    this stays public because deskbench's tracer wraps it by name."""
    return bpe_train_encode(corpus, vocab_size)[0]


def bpe_train_encode(texts, vocab_size: int = 8192) -> tuple[BpeVocab, list[np.ndarray]]:
    """Learn merges from an iterable of texts, and return them with each
    text's ids: what `BpeVocab.encode` gives for it, as an int32 array."""
    check_vocab_size(vocab_size)
    pieces: list[bytes] = []
    n_pieces = []  # per text
    for text in texts:
        text_pieces = [p.encode("utf-8") for p in text.split(BOUNDARY) if p]
        pieces += text_pieces
        n_pieces.append(len(text_pieces))
    if not pieces:
        raise ConfigError("cannot train a tokenizer on an empty corpus")
    byte_ids = np.frombuffer(b"".join(pieces), dtype=np.uint8).astype(np.int32) + BYTE_OFFSET
    stream = np.insert(byte_ids, np.cumsum([0] + [len(p) for p in pieces]), -1)
    del pieces, byte_ids  # the stream holds the corpus now
    keys, counts = np.unique(_pair_keys(stream[:-1], stream[1:]), return_counts=True)

    token_bytes: list[bytes] = [b""] * N_SPECIALS + [bytes([i]) for i in range(256)]
    merges: list[tuple[int, int]] = []
    for new_id in range(FIRST_MERGE_ID, vocab_size):
        if (top := counts.max(initial=0)) < 2:
            break
        tied = [(k >> _KEY_SHIFT, k & (MAX_VOCAB_SIZE - 1)) for k in keys[counts == top].tolist()]
        a, b = min(tied, key=lambda pair: (token_bytes[pair[0]], token_bytes[pair[1]]))
        merges.append((a, b))
        token_bytes.append(token_bytes[a] + token_bytes[b])

        hits = np.flatnonzero(stream[:-1] == a)
        hits = hits[stream[hits + 1] == b]
        # Only a == b gives adjacent hits: in each run of them keep the 1st, 3rd, ...
        run_start = np.maximum.accumulate(np.where(np.diff(hits, prepend=-2) != 1, hits, 0))
        hits = hits[(hits - run_start) % 2 == 0]
        # The stream starts and ends with -1, so h - 1 and h + 2 are in range.
        at = _sorted_distinct(np.stack([hits - 1, hits, hits + 1], 1).ravel())
        gone, gone_counts = np.unique(_pair_keys(stream[at], stream[at + 1]), return_counts=True)
        counts[np.searchsorted(keys, gone)] -= gone_counts
        stream[hits] = new_id
        stream = np.delete(stream, hits + 1)
        placed = hits - np.arange(hits.size)  # the new tokens' positions after the deletions
        at = _sorted_distinct(np.stack([placed - 1, placed], 1).ravel())
        born, born_counts = np.unique(_pair_keys(stream[at], stream[at + 1]), return_counts=True)
        keys, counts = keys[counts > 0], counts[counts > 0]
        where = np.searchsorted(keys, born)
        keys, counts = np.insert(keys, where, born), np.insert(counts, where, born_counts)

    # Separator k opens piece k, so text t ends at separator ends[t], and the
    # ends[t] separators before it are not ids.
    ends = np.cumsum(n_pieces)
    ids = np.split(stream[stream >= 0], (np.flatnonzero(stream < 0)[ends] - ends)[:-1])
    return BpeVocab(merges=merges, vocab_size=vocab_size), ids
