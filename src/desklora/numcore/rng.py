"""Deterministic counter-based randomness with splittable streams.

Built on numpy's Philox bit generator, which produces the same stream for
the same key on every platform. Child streams are derived by mixing string
or integer tags into the parent key with splitmix64, so any call site can
carve out an independent, reproducible stream without consuming draws from
its parent. A draw over a batch comes from one stream: training splits one
per micro-batch, so a row's dropout mask depends on the batch it runs in.
"""

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _fold_tag(key: int, tag) -> int:
    if isinstance(tag, str):
        # FNV-1a over utf-8 bytes, then folded into the key
        h = 0xCBF29CE484222325
        for b in tag.encode("utf-8"):
            h = ((h ^ b) * 0x100000001B3) & _MASK
        tag = h
    elif not isinstance(tag, (int, np.integer)):
        raise TypeError(f"rng tags must be str or int, got {type(tag).__name__}")
    key, out = _splitmix64((key ^ (int(tag) & _MASK)) & _MASK)
    return out


class Rng:
    """Seeded stream. Identical seed and tag path give identical draws."""

    __slots__ = ("seed", "_key", "_generator")

    def __init__(self, seed: int, _key: int | None = None):
        self.seed = int(seed) & _MASK
        self._key = self.seed if _key is None else (_key & _MASK)
        self._generator = None

    @property
    def _gen(self) -> np.random.Generator:  # built on the first draw: many splits never draw
        if self._generator is None:
            self._generator = np.random.Generator(np.random.Philox(key=self._key))
        return self._generator

    def split(self, *tags) -> "Rng":
        """Derive an independent child stream keyed by the given tags."""
        key = self._key
        for tag in tags:
            key = _fold_tag(key, tag)
        return Rng(self.seed, _key=key)

    def normal(self, shape=(), std: float = 1.0, mean: float = 0.0) -> np.ndarray:
        return self._gen.normal(loc=mean, scale=std, size=shape)

    def uniform(self, shape=()) -> np.ndarray:
        return self._gen.random(size=shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
