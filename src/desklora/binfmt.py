"""The one binary container behind QNF4, LORA, OPT8, DMDL and SHRD files.

Layout, little-endian: a 4-byte magic, a u16 version, then the format's
fields in the order its writer emits them: packed scalars; blobs (u32 length
and the bytes; text is a UTF-8 blob, and DMDL nests each QNF4 tensor as a
blob); shapes (u32 rank and one u32 per dimension); and raw arrays whose
element count the reader derives from a shape or count it has already read.

Every read is bounds-checked. A short read, a wrong magic or version, a
value the format rejects, or bytes left after the last field raise
FormatError, which the CLI reports as a data error with exit code 3.

There is no checksum trailer, so a file ends with its last array's last
element, and an edited value parses. Two tests in `deskbench/test_deskbench.py`
rely on this: `test_training_check_rejects_each_corruption` overwrites the
last f32 of `adapters.lora` and expects other logits, and
`test_prep_check_rejects_a_changed_shard_token` flips a shard's last token id
and expects other text. So SHRD v3 keeps the token ids last, after its tags.
"""

import math
import struct

import numpy as np

from .errors import FormatError

_MAX_RANK = 32  # the most dimensions every supported numpy gives an array


def _little(dtype) -> np.dtype:
    """`dtype` (a numpy type or code) as the file holds it: little-endian."""
    return np.dtype(dtype).newbyteorder("<")


class Writer:
    def __init__(self, magic: bytes, version: int):
        self._parts = [magic, struct.pack("<H", version)]

    def pack(self, fmt: str, *values):
        self._parts.append(struct.pack("<" + fmt, *values))

    def blob(self, data: bytes):
        self.pack("I", len(data))
        self._parts.append(data)

    def text(self, s: str):
        self.blob(s.encode("utf-8"))

    def shape(self, shape):
        self.pack(f"I{len(shape)}I", len(shape), *shape)

    def array(self, arr: np.ndarray, dtype):
        self._parts.append(np.ascontiguousarray(arr, dtype=_little(dtype)).tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Reads the fields back in order; every failure is a FormatError."""

    def __init__(self, data: bytes, magic: bytes, version: int):
        self.kind = magic.decode("ascii")
        self._data = memoryview(data)
        head = bytes(self._data[:4])
        self.expect(head == magic, f"bad magic {head!r}")
        self._off = 4
        (found,) = self.unpack("H")
        self.expect(found == version, f"unsupported version {found}, expected {version}")

    def expect(self, ok: bool, what: str):
        if not ok:
            raise FormatError(f"{self.kind}: {what}")

    def _take(self, n: int) -> memoryview:
        left = len(self._data) - self._off
        self.expect(n <= left, f"truncated: need {n} bytes at offset {self._off}, {left} left")
        self._off += n
        return self._data[self._off - n : self._off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack("<" + fmt, self._take(struct.calcsize("<" + fmt)))

    def blob(self) -> bytes:
        (n,) = self.unpack("I")
        return bytes(self._take(n))

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{self.kind}: text field is not UTF-8") from e

    def shape(self) -> tuple:
        (rank,) = self.unpack("I")
        self.expect(rank <= _MAX_RANK, f"rank {rank} exceeds {_MAX_RANK}")
        return self.unpack(f"{rank}I")

    def array(self, dtype, shape) -> np.ndarray:
        """A writable copy of the next prod(shape) elements; `shape` may be a count."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        dtype = _little(dtype)
        raw = self._take(math.prod(shape) * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def done(self):
        left = len(self._data) - self._off
        self.expect(left == 0, f"{left} trailing bytes after offset {self._off}")
