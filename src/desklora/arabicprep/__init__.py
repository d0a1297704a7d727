"""Arabic corpus preparation: cleaning, normalization, diacritics,
segmentation, dialect tagging, clitic pre-segmentation, byte-level BPE,
and shard serialization."""

from .bpe import BOS_ID, EOS_ID, PAD_ID, SEP_ID, SPECIALS, BpeVocab, bpe_train, bpe_train_encode
from .dialect import DEFAULT_THRESHOLD, DIALECTS, DialectLexicon, tag_dialect
from .morph import BOUNDARY, morph_presegment, strip_boundaries
from .pipeline import encode_text, prepare_documents, preprocess_text, read_jsonl
from .shards import DIALECT_TAGS, SOURCES, Document, ShardReader, loads_shard, write_shards
from .textops import (
    DIACRITICS,
    NormalizationPolicy,
    clean,
    handle_diacritics,
    normalize,
    segment_sentences,
)

__all__ = [
    "BOS_ID",
    "BOUNDARY",
    "BpeVocab",
    "DEFAULT_THRESHOLD",
    "DIACRITICS",
    "DIALECTS",
    "DIALECT_TAGS",
    "DialectLexicon",
    "Document",
    "EOS_ID",
    "NormalizationPolicy",
    "PAD_ID",
    "SEP_ID",
    "SOURCES",
    "SPECIALS",
    "ShardReader",
    "bpe_train",
    "bpe_train_encode",
    "clean",
    "encode_text",
    "handle_diacritics",
    "loads_shard",
    "morph_presegment",
    "normalize",
    "prepare_documents",
    "preprocess_text",
    "read_jsonl",
    "segment_sentences",
    "strip_boundaries",
    "tag_dialect",
    "write_shards",
]
