"""Test-only quantization helper: `nearest_codes` is the binary search over a
codebook's midpoints that the engine's NF4 midpoint count and 8-bit table
lookup are checked against. The engine never calls it."""

import numpy as np


def nearest_codes(normalized: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Nearest level per element; ties at midpoints resolve to the lower code."""
    mids = (codebook[:-1] + codebook[1:]) / 2.0
    return np.searchsorted(mids, normalized, side="left").astype(np.uint8)
