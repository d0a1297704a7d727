"""Marker-lexicon dialect tagging.

Each dialect has a weighted term list; a text's score per dialect is the
weight sum of matched markers divided by its token count. Modern Standard
Arabic is the default class: it carries no markers and wins whenever no
dialect clears the threshold. Marker terms are normalized under the active
policy at load time so they match normalized text.
"""

import json
import math
from dataclasses import dataclass
from importlib import resources

from ..errors import DataError
from .textops import NormalizationPolicy, clean, replace_chars, text_replacements

DIALECTS = ("MSA", "EGY", "GLF", "LEV", "MGR")
UNKNOWN = "UNK"
DEFAULT_THRESHOLD = 0.05


@dataclass
class DialectLexicon:
    markers: dict  # dialect -> list of (term, weight), terms pre-normalized

    @classmethod
    def from_mapping(cls, mapping: dict, policy: NormalizationPolicy | None = None) -> "DialectLexicon":
        policy = policy or NormalizationPolicy()
        pairs = text_replacements(policy)
        markers: dict = {d: [] for d in DIALECTS if d != "MSA"}
        for dialect, entries in mapping.items():
            if dialect == "MSA":
                continue
            terms = []
            for entry in entries:
                term = replace_chars(clean(entry["term"]), pairs)
                weight = float(entry.get("weight", 1.0))
                if not math.isfinite(weight):
                    raise DataError(f"dialect lexicon: {dialect} term {entry['term']!r} "
                                    f"has weight {weight}; weights must be finite")
                if term:
                    terms.append((term, weight))
            markers[dialect] = terms
        return cls(markers=markers)

    @classmethod
    def from_file(cls, path, policy: NormalizationPolicy | None = None) -> "DialectLexicon":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_mapping(json.load(f), policy)

    @classmethod
    def default(cls, policy: NormalizationPolicy | None = None) -> "DialectLexicon":
        data = resources.files("desklora.arabicprep").joinpath("data/dialect_lexicon.json")
        return cls.from_mapping(json.loads(data.read_text(encoding="utf-8")), policy)


def dialect_tagger(lexicon: DialectLexicon, threshold: float = DEFAULT_THRESHOLD):
    """`tag_dialect` with `lexicon` indexed once, for tagging many texts.

    Without multi-word markers, a dialect none of whose markers is a token of
    the text scores 0.0, which never beats the best score, so it is skipped;
    a text that holds no marker at all is MSA at once. Within a dialect, a
    marker that does not occur adds weight * 0 == 0.0 to a score that is
    never -0.0, so it is skipped too: the score is the sum over the occurring
    markers in lexicon order, bit for bit the sum over all of them."""
    index = []
    for dialect in DIALECTS:
        if dialect == "MSA":
            continue
        terms = lexicon.markers.get(dialect, [])
        index.append((dialect, terms, {term for term, _ in terms}))
    multi = any(" " in term for _, terms, _ in index for term, _ in terms)
    markers = set().union(*(words for _, _, words in index))

    def tag(text: str) -> tuple[str, float]:
        tokens = text.split()
        if not tokens:
            return UNKNOWN, 0.0
        present = set(tokens)
        if not multi and markers.isdisjoint(present):
            return "MSA", 0.0
        joined = " " + " ".join(tokens) + " " if multi else ""

        best_dialect = "MSA"
        best_score = 0.0
        for dialect, terms, words in index:
            if not multi and words.isdisjoint(present):
                continue
            score = 0.0
            for term, weight in terms:
                if term in present:
                    score += weight * tokens.count(term)
                elif " " in term and (n := joined.count(f" {term} ")):
                    score += weight * n
            score /= len(tokens)
            if score > best_score:  # ties keep the earlier dialect in fixed order
                best_score = score
                best_dialect = dialect
        if best_score >= threshold and best_dialect != "MSA":
            return best_dialect, best_score
        return "MSA", 0.0

    return tag


def tag_dialect(
    text: str, lexicon: DialectLexicon, threshold: float = DEFAULT_THRESHOLD
) -> tuple[str, float]:
    """Return (dialect, confidence); MSA with confidence 0 when nothing matches."""
    return dialect_tagger(lexicon, threshold)(text)
