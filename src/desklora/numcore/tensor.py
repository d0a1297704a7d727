"""Dense tensor values with explicit precision tags.

Two tags are supported: "full" (32-bit storage and compute) and "double"
(64-bit, used for gradient checking).
"""

import numpy as np

FULL = "full"
DOUBLE = "double"

DTYPES = (FULL, DOUBLE)

_STORAGE = {FULL: np.float32, DOUBLE: np.float64}


def storage_dtype(dtype: str) -> type:
    return _STORAGE[dtype]


class Tensor:
    """Immutable dense value: contiguous row-major buffer plus precision tag."""

    __slots__ = ("data", "dtype")

    def __init__(self, data, dtype: str = FULL):
        if dtype not in _STORAGE:
            raise ValueError(f"unknown dtype tag {dtype!r}")
        arr = np.asarray(data, dtype=_STORAGE[dtype])
        if not arr.flags.c_contiguous or not arr.flags.owndata:
            arr = arr.copy(order="C")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "dtype", dtype)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def numel(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def tolist(self):
        return self.data.tolist()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype!r})"


def zeros(shape, dtype: str = FULL) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_STORAGE[dtype]), dtype)


def ones(shape, dtype: str = FULL) -> Tensor:
    return Tensor(np.ones(shape, dtype=_STORAGE[dtype]), dtype)
