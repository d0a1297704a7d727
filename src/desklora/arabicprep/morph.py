"""Clitic pre-segmentation: a zero-width boundary marker separates leading
conjunction/preposition/article chains and one trailing pronoun suffix, so
subword merges never cross these morpheme boundaries. Markers are consumed
at tokenization; decoding yields the unmarked text.
"""

BOUNDARY = "​"

# longest-match order
_PREFIXES = ("ال", "و", "ف", "ب", "ك", "ل")
_SUFFIXES = ("ها", "هم", "هن", "كم", "نا", "ني", "ه", "ك", "ي")

_MIN_STEM = 3
_MAX_PREFIXES = 2


def _split_word(word: str) -> str:
    if len(word) <= 4:
        return word
    prefixes: list[str] = []
    stem = word
    for _ in range(_MAX_PREFIXES):
        for p in _PREFIXES:
            if stem.startswith(p) and len(stem) - len(p) >= _MIN_STEM:
                prefixes.append(p)
                stem = stem[len(p):]
                break
        else:
            break
    suffix = ""
    for s in _SUFFIXES:
        if stem.endswith(s) and len(stem) - len(s) >= _MIN_STEM:
            suffix = s
            stem = stem[: -len(s)]
            break
    parts = prefixes + [stem] + ([suffix] if suffix else [])
    return BOUNDARY.join(parts)


class _Splits(dict):
    """Each word's clitic split, computed on first lookup."""

    def __missing__(self, word: str) -> str:
        split = self[word] = _split_word(word)
        return split


def presegmenter():
    """A `morph_presegment` that splits each distinct word once, remembering
    the words for as long as the returned function lives."""
    lookup = _Splits().__getitem__
    return lambda text: " ".join(map(lookup, text.split(" ")))


def morph_presegment(text: str) -> str:
    """Insert clitic boundaries into words longer than four letters."""
    return presegmenter()(text)


def strip_boundaries(text: str) -> str:
    return text.replace(BOUNDARY, "")
