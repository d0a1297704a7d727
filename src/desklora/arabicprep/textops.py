"""Arabic text cleaning, letter normalization, diacritics handling, and
sentence segmentation.

Cleaning keeps the Arabic letter block, combining diacritics, Arabic and a
small set of neutral punctuation, and digits; everything else becomes a
space so unrelated words never fuse, then whitespace runs collapse.
"""

from dataclasses import dataclass

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
        return {
            "unify_alif": self.unify_alif,
            "unify_ya": self.unify_ya,
            "unify_ta_marbuta": self.unify_ta_marbuta,
            "strip_tatweel": self.strip_tatweel,
            "strip_diacritics": self.strip_diacritics,
            "normalize_digits": self.normalize_digits,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationPolicy":
        """Rebuild a policy from `to_dict`'s output; other keys or types raise ConfigError."""
        return from_known_keys(cls, d)


def clean(text: str) -> str:
    """Drop foreign scripts and symbols, collapse whitespace runs, trim."""
    out = []
    for ch in text:
        if ch in _KEEP:
            out.append(ch)
        else:
            out.append(" ")
    return " ".join("".join(out).split())


def normalize(text: str, policy: NormalizationPolicy) -> str:
    """Unify letter variants per policy; idempotent."""
    table: dict[str, str] = {}
    if policy.unify_alif:
        table.update(_ALIF_MAP)
    if policy.unify_ya:
        table.update(_YA_MAP)
    if policy.unify_ta_marbuta:
        table.update(_TA_MAP)
    if policy.normalize_digits:
        table.update(_DIGIT_MAP)
    out = []
    for ch in text:
        if policy.strip_tatweel and ch == TATWEEL:
            continue
        out.append(table.get(ch, ch))
    return "".join(out)


def handle_diacritics(text: str, policy: NormalizationPolicy) -> str:
    """Remove combining diacritics (U+064B..U+065F, U+0670) when configured."""
    if not policy.strip_diacritics:
        return text
    return "".join(ch for ch in text if ch not in DIACRITICS)


_TERMINATORS = frozenset(".!؟؛")


def segment_sentences(text: str) -> list[str]:
    """Split after sentence terminators (runs like ؟! stay together) and newlines."""
    sentences: list[str] = []
    buf: list[str] = []

    def flush():
        s = "".join(buf).strip()
        buf.clear()
        if s:
            sentences.append(s)

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            flush()
            i += 1
            continue
        buf.append(ch)
        if ch in _TERMINATORS:
            while i + 1 < n and text[i + 1] in _TERMINATORS:
                i += 1
                buf.append(text[i])
            flush()
        i += 1
    flush()
    return sentences
