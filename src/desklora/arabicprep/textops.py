"""Arabic text cleaning, letter normalization, diacritics handling, and
sentence segmentation, each as whole-string passes in C.

- `clean` keeps the Arabic letter block, alef wasla, combining diacritics,
  Arabic and a small set of neutral punctuation, and digits. One regex turns
  each run of any other character into one space, so unrelated words never
  fuse; `split` and `join` then collapse whitespace and trim. Every character
  outside the kept set becomes whitespace, and none inside it is whitespace,
  so the words are the maximal runs of kept characters, as when each dropped
  character becomes its own space.
- `normalize` and `handle_diacritics` replace characters: one `str.replace`
  per (character, replacement) pair the policy enables. Letters and digits
  map to their unified form; tatweel and diacritics map to "". No
  replacement is a character that another pair replaces, so the passes
  equal mapping each character once, in any order, and `text_replacements`
  joins both steps' pairs into one list. (`str.translate` gives the same
  text, but looks up each non-ASCII character in a dict: about ten times
  slower on Arabic text.)
- `segment_sentences` splits with one regex: at each newline, and after each
  run of terminators, so "؟!" ends one sentence.
"""

import re
from dataclasses import asdict, dataclass

from ..util import from_known_keys

ARABIC_LETTERS = frozenset(chr(c) for c in range(0x0621, 0x064B))  # includes tatweel 0x0640
# alef wasla participates in alif unification, so cleaning must let it through
ALEF_WASLA = "ٱ"
DIACRITICS = frozenset(chr(c) for c in range(0x064B, 0x0660)) | {"ٰ"}
ARABIC_PUNCT = frozenset("؟؛،")
NEUTRAL_PUNCT = frozenset('.!:"()')
DIGITS = frozenset("0123456789") | frozenset(chr(c) for c in range(0x0660, 0x066A)) | frozenset(
    chr(c) for c in range(0x06F0, 0x06FA)
)

_KEEP = ARABIC_LETTERS | {ALEF_WASLA} | DIACRITICS | ARABIC_PUNCT | NEUTRAL_PUNCT | DIGITS

TATWEEL = "ـ"

_ALIF_MAP = {"أ": "ا", "إ": "ا", "آ": "ا", ALEF_WASLA: "ا"}
_YA_MAP = {"ى": "ي"}
_TA_MAP = {"ة": "ه"}
_DIGIT_MAP = {chr(0x0660 + i): str(i) for i in range(10)}
_DIGIT_MAP.update({chr(0x06F0 + i): str(i) for i in range(10)})


@dataclass
class NormalizationPolicy:
    unify_alif: bool = True
    unify_ya: bool = True
    unify_ta_marbuta: bool = False
    strip_tatweel: bool = True
    strip_diacritics: bool = False
    normalize_digits: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationPolicy":
        """Rebuild a policy from `to_dict`'s output; other keys or types raise ConfigError."""
        return from_known_keys(cls, d)


_DROPPED_RUN = re.compile("[^" + "".join(re.escape(ch) for ch in sorted(_KEEP)) + "]+")


def clean(text: str) -> str:
    """Drop foreign scripts and symbols, collapse whitespace runs, trim."""
    return " ".join(_DROPPED_RUN.sub(" ", text).split())


def _letter_pairs(policy: NormalizationPolicy) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for on, mapping in ((policy.unify_alif, _ALIF_MAP), (policy.unify_ya, _YA_MAP),
                        (policy.unify_ta_marbuta, _TA_MAP), (policy.normalize_digits, _DIGIT_MAP)):
        if on:
            pairs += mapping.items()
    if policy.strip_tatweel:
        pairs.append((TATWEEL, ""))
    return pairs


_NO_DIACRITICS = [(ch, "") for ch in sorted(DIACRITICS)]


def text_replacements(policy: NormalizationPolicy) -> list[tuple[str, str]]:
    """The (character, replacement) pairs of `normalize` then `handle_diacritics`."""
    return _letter_pairs(policy) + (_NO_DIACRITICS if policy.strip_diacritics else [])


def replace_chars(text: str, pairs) -> str:
    """Apply each (character, replacement) pair of `text_replacements` to the whole text."""
    for old, new in pairs:
        text = text.replace(old, new)
    return text


def normalize(text: str, policy: NormalizationPolicy) -> str:
    """Unify letter variants per policy; idempotent."""
    return replace_chars(text, _letter_pairs(policy))


def handle_diacritics(text: str, policy: NormalizationPolicy) -> str:
    """Remove combining diacritics (U+064B..U+065F, U+0670) when configured."""
    return replace_chars(text, _NO_DIACRITICS) if policy.strip_diacritics else text


_SENTENCE_END = re.compile(r"\n|(?<=[.!؟؛])(?![.!؟؛])")


def segment_sentences(text: str) -> list[str]:
    """Split after sentence terminators (runs like ؟! stay together) and newlines."""
    return [s for s in map(str.strip, _SENTENCE_END.split(text)) if s]
