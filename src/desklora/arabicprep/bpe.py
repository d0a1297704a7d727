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
before each piece and at the end. Each pair's count sits under a key of its
later id, left id and right id, so the keys sort in the order they are added:
the pairs a merge creates all hold the new, largest id. A merge of (a, b)
finds its hits h with one vectorized scan. Hit h loses (stream[h-1], a),
(a, b) and (b, stream[h+2]) and gains (stream[h-1], new) and
(new, stream[h+2]); two hits 2 apart share the (b, a) between them, which
becomes (new, new). `bincount` tallies the hits' left and right neighbours,
`searchsorted` finds the keys to decrement, and the new keys are appended:
no sort, insert or delete per merge. The stream then drops each h+1 through
one boolean mask. Ties compare each token's rank among the distinct byte
strings so far, which each merge updates, instead of the bytes themselves.

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

import bisect
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

_KEY_SHIFT = 21  # a pair key packs three ids in 21 bits each, so ids must stay below 2^21
MAX_VOCAB_SIZE = 1 << _KEY_SHIFT
_ID_MASK = MAX_VOCAB_SIZE - 1
_PAIR_MASK = (1 << 2 * _KEY_SHIFT) - 1  # a key's (left << 21) | right
_NO_KEY = np.iinfo(np.int64).max  # sorts after every key


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
            f.write(json.dumps(self.to_dict(), sort_keys=True) + "\n")  # dumps runs the C encoder

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


def _pair_keys(left, right) -> np.ndarray:
    """Keys of the pairs (left[i], right[i]): the later of the two ids, then
    left, then right, 21 bits each, so that keys sort by the later id first."""
    keys = np.maximum(left, right, dtype=np.int64)
    keys <<= _KEY_SHIFT
    keys |= left
    keys <<= _KEY_SHIFT
    keys |= right
    return keys


def _tally(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids in `ids` other than -1, ascending, and how often each occurs."""
    n = np.bincount(ids + 1)[1:]
    distinct = np.flatnonzero(n)
    return distinct, n[distinct]


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
    real = (stream[:-1] >= 0) & (stream[1:] >= 0)
    keys = _pair_keys(stream[:-1][real], stream[1:][real])
    del real  # before np.unique copies the keys: the peak of training is here
    keys, counts = np.unique(keys, return_counts=True)
    n_keys = keys.size  # keys grow at the end: past n_keys they hold _NO_KEY, counted 0

    token_bytes: list[bytes] = [b""] * N_SPECIALS + [bytes([i]) for i in range(256)]
    # rank[id] is the place of id's bytes among the distinct byte strings so
    # far, so ranks compare as bytes do, and equal bytes share a rank.
    ordered = token_bytes[BYTE_OFFSET:]
    rank = np.zeros(vocab_size, dtype=np.int64)
    rank[BYTE_OFFSET:FIRST_MERGE_ID] = np.arange(256)
    merges: list[tuple[int, int]] = []
    for new_id in range(FIRST_MERGE_ID, vocab_size):
        if (top := counts.max(initial=0)) < 2:
            break
        tied = np.flatnonzero(counts == top)
        pairs = keys[tied] & _PAIR_MASK
        by_bytes = rank[pairs >> _KEY_SHIFT] * len(ordered) + rank[pairs & _ID_MASK]
        first = by_bytes == by_bytes.min()  # more than one only where byte strings repeat
        best = tied[first][np.argmin(pairs[first])]
        a, b = divmod(int(keys[best]) & _PAIR_MASK, MAX_VOCAB_SIZE)
        merges.append((a, b))
        token_bytes.append(new_bytes := token_bytes[a] + token_bytes[b])
        at = bisect.bisect_left(ordered, new_bytes)
        if at == len(ordered) or ordered[at] != new_bytes:
            ordered.insert(at, new_bytes)
            live = rank[:new_id]
            live[live >= at] += 1
        rank[new_id] = at

        hits = np.flatnonzero(stream[:-1] == a)
        hits = hits[stream[hits + 1] == b]
        if a == b:  # only then can hits be adjacent: in each run of them keep the 1st, 3rd, ...
            run_start = np.maximum.accumulate(np.where(np.diff(hits, prepend=-2) != 1, hits, 0))
            hits = hits[(hits - run_start) % 2 == 0]
        counts[best] -= hits.size
        # Hit h loses (stream[h-1], a) and (b, stream[h+2]) and gains the same
        # neighbours around new_id; the stream starts and ends with -1, so
        # h - 1 and h + 2 are in range. Two hits 2 apart share the pair
        # between them, (b, a): it counts as the earlier hit's right pair, and
        # it becomes (new_id, new_id).
        left, right = stream[hits - 1], stream[hits + 2]
        two_apart = np.diff(hits) == 2
        left[1:][two_apart] = -1
        x, x_counts = _tally(left)
        y, y_counts = _tally(right)
        counts[np.searchsorted(keys, _pair_keys(x, a))] -= x_counts
        counts[np.searchsorted(keys, _pair_keys(b, y))] -= y_counts
        right[:-1][two_apart] = new_id
        y, y_counts = _tally(right)
        # Every new pair holds new_id, the largest id, so its key sorts after
        # all others: x < new_id puts (x, new_id) before (new_id, y).
        born = np.concatenate((_pair_keys(x, new_id), _pair_keys(new_id, y)))
        if n_keys + born.size > keys.size:
            keys = np.append(keys, np.full(keys.size + born.size, _NO_KEY))
            counts = np.append(counts, np.zeros(counts.size + born.size, dtype=counts.dtype))
        keys[n_keys:n_keys + born.size] = born
        counts[n_keys:n_keys + born.size] = np.concatenate((x_counts, y_counts))
        n_keys += born.size

        stream[hits] = new_id
        keep = np.ones(stream.size, dtype=bool)
        keep[hits + 1] = False
        stream = stream[keep]

    # Separator k opens piece k, so text t ends at separator ends[t], and the
    # ends[t] separators before it are not ids.
    ends = np.cumsum(n_pieces)
    ids = np.split(stream[stream >= 0], (np.flatnonzero(stream < 0)[ends] - ends)[:-1])
    return BpeVocab(merges=merges, vocab_size=vocab_size), ids
