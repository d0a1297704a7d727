"""End-to-end corpus preparation: clean, normalize, diacritics, segment,
dialect-tag, clitic-presegment; plus the matching text encoder used at
evaluation time so shards and eval inputs share one policy.

Before segmentation a text takes `clean`'s regex and split, then the
policy's `text_replacements`, which normalize letters and strip diacritics
in one list of `str.replace` passes. Per call, `prepare_documents` builds
that list and the dialect lexicon's index once, and splits each distinct
word into clitics once.
"""

import json

from ..errors import DataError
from .bpe import BpeVocab
from .dialect import DialectLexicon, dialect_tagger
from .morph import morph_presegment, presegmenter
from .shards import Document
from .textops import NormalizationPolicy, clean, replace_chars, segment_sentences, text_replacements


def preprocess_text(text: str, policy: NormalizationPolicy) -> str:
    return replace_chars(clean(text), text_replacements(policy))


def prepare_documents(
    raw_docs,
    policy: NormalizationPolicy,
    lexicon: DialectLexicon | None = None,
    per_sentence: bool = False,
) -> list[Document]:
    """Raw {text, source, dialect?} records to tagged, presegmented Documents.

    Documents that clean to nothing are dropped. Dialect tags from the input
    are trusted; missing tags come from the marker lexicon, per document or
    per sentence depending on `per_sentence`.
    """
    lexicon = lexicon or DialectLexicon.default(policy)
    pairs = text_replacements(policy)
    tag = dialect_tagger(lexicon)
    presegment = presegmenter()
    out: list[Document] = []
    for raw in raw_docs:
        text = replace_chars(clean(raw.get("text", "")), pairs)
        if not text:
            continue
        source = raw.get("source", "other")
        given = raw.get("dialect")
        units = segment_sentences(text) if per_sentence else [text]
        for unit in units:
            dialect = given if given else tag(unit)[0]
            out.append(Document(text=presegment(unit), source=source, dialect=dialect))
    return out


# What a required field's type means in a JSONL record: its name for errors and its test.
_FIELD_TYPES = {
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a non-empty list of strings",
           lambda v: isinstance(v, list) and bool(v) and all(isinstance(e, str) for e in v)),
}


def read_jsonl(path, fields: dict | None = None) -> list[dict]:
    """The JSON objects of a JSONL file, one per non-blank line. Each must hold
    every field of `fields` (name -> `str`, or `list` for a non-empty list of
    strings; by default a string "text"). A violation, an unreadable or empty
    file is a DataError that names the path, and the line where there is one."""
    fields = {"text": str} if fields is None else fields
    records = []
    try:
        f = open(path, "r", encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    with f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{line_no}: invalid JSON: {e}") from e
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{line_no}: expected a JSON object")
            for name, kind in fields.items():
                label, valid = _FIELD_TYPES[kind]
                if name not in obj:
                    raise DataError(f"{path}:{line_no}: missing field {name!r}")
                if not valid(obj[name]):
                    raise DataError(f"{path}:{line_no}: field {name!r} must be {label}")
            records.append(obj)
    if not records:
        raise DataError(f"{path}: no records found")
    return records


def encode_text(text: str, vocab: BpeVocab, policy: NormalizationPolicy) -> list[int]:
    """Tokenize free text exactly the way shard preparation does."""
    return vocab.encode(morph_presegment(preprocess_text(text, policy)))
