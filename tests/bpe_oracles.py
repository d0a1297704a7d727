"""Test-only BPE trainer: `train_encode` is the trainer `bpe_train_encode`
ran before it counted each merge's pairs from the hits' neighbours. Each merge
re-sorts the pairs around its hits with `np.unique` and copies the stream and
key arrays (`np.delete`, `np.insert`). Its merges and ids are the reference the
engine's trainer is checked against at sizes where the pure-Python
`oracle_merges` is too slow. The engine never calls it."""

import numpy as np

from desklora.arabicprep.bpe import (
    BYTE_OFFSET,
    FIRST_MERGE_ID,
    MAX_VOCAB_SIZE,
    N_SPECIALS,
    BpeVocab,
    check_vocab_size,
)
from desklora.arabicprep.morph import BOUNDARY
from desklora.errors import ConfigError

_KEY_SHIFT = 21


def _sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, in order."""
    return x[np.diff(x, prepend=x[:1] - 1) != 0]


def _pair_keys(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Keys of the pairs (left[i], right[i]) that hold no -1 separator."""
    real = (left >= 0) & (right >= 0)
    return (left[real].astype(np.int64) << _KEY_SHIFT) | right[real]


def train_encode(texts, vocab_size: int = 8192) -> tuple[BpeVocab, list[np.ndarray]]:
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
