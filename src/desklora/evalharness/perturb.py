"""Character-level input perturbations for robustness testing.

Each character position is independently selected with the given probability;
a uniformly chosen enabled op is applied there. Confusable substitution swaps
within fixed visually/phonetically confusable Arabic groups. Everything is
deterministic under the seed.
"""

from dataclasses import dataclass, field

from ..arabicprep.textops import DIACRITICS
from ..errors import ConfigError, ContractError
from ..numcore import Rng

OPS = ("swap_adjacent", "delete", "substitute_confusable", "strip_one_diacritic")

CONFUSABLE_GROUPS = ("بتث", "جحخ", "دذ", "رز", "سش", "صض", "طظ", "عغ", "فق")

_GROUP_OF = {}
for _group in CONFUSABLE_GROUPS:
    for _ch in _group:
        _GROUP_OF[_ch] = _group

DEFAULT_LEVELS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass
class PerturbationConfig:
    levels: tuple = DEFAULT_LEVELS
    ops: tuple = OPS
    seed: int = 0

    def __post_init__(self):
        self.levels = tuple(float(l) for l in self.levels)
        if any(not 0.0 <= l <= 1.0 for l in self.levels):
            raise ConfigError(f"perturbation levels must lie in [0, 1]: {self.levels}")
        self.ops = tuple(self.ops)
        bad = [op for op in self.ops if op not in OPS]
        if bad:
            raise ConfigError(f"unknown perturbation ops {bad}; choose from {OPS}")
        if not self.ops:
            raise ConfigError("need at least one perturbation op")

    def to_dict(self) -> dict:
        return {"levels": list(self.levels), "ops": list(self.ops), "seed": self.seed}


def perturb(text: str, level: float, ops=OPS, seed: int = 0) -> str:
    """Apply random character edits at the given rate; identity at level 0."""
    if not 0.0 <= level <= 1.0:
        raise ContractError(f"level must lie in [0, 1], got {level}")
    ops = tuple(ops)
    if not ops:
        raise ContractError("need at least one perturbation op")
    if level == 0.0 or not text:
        return text

    g = Rng(seed).split("perturb")
    chars = list(text)
    out: list[str] = []
    consumed = False
    for i, ch in enumerate(chars):
        u = float(g.uniform(()))
        if consumed:
            consumed = False
            continue
        if u >= level:
            out.append(ch)
            continue
        op = ops[int(g.integers(0, len(ops)))]
        if op == "swap_adjacent":
            if i + 1 < len(chars):
                out.append(chars[i + 1])
                out.append(ch)
                consumed = True
            else:
                out.append(ch)
        elif op == "delete":
            continue
        elif op == "substitute_confusable":
            group = _GROUP_OF.get(ch)
            if group:
                others = [c for c in group if c != ch]
                out.append(others[int(g.integers(0, len(others)))])
            else:
                out.append(ch)
        elif op == "strip_one_diacritic":
            if ch not in DIACRITICS:
                out.append(ch)
    return "".join(out)
