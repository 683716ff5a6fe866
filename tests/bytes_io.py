"""Checkpoint writing and reading and .mha reading on bytes in memory.

Each function runs the package's one stream writer or parser over an
``io.BytesIO``, so a test of these bytes tests the code that
``save_checkpoint``, ``load_checkpoint`` and ``read_mha_file`` run on a file.
``EndlessStream`` stands in for an input that never ends, such as
``/dev/zero``, and counts what the parsers read of it.
"""

import io

import numpy as np

from densect.mha import Volume, _read
from densect.model import DenseNetModel, _read_checkpoint, _write_checkpoint


def checkpoint_bytes(model: DenseNetModel) -> bytes:
    """The bytes ``save_checkpoint`` writes for ``model``."""
    f = io.BytesIO()
    _write_checkpoint(f, model)
    return f.getvalue()


def model_from_checkpoint_bytes(buf: bytes, dtype=np.float32) -> DenseNetModel:
    """The model ``load_checkpoint`` returns for a file holding ``buf``."""
    return _read_checkpoint(io.BytesIO(buf), dtype)


def read_mha(data: bytes) -> Volume:
    """The Volume ``read_mha_file`` returns for a file holding ``data``."""
    return _read(io.BytesIO(bytes(data)))


class EndlessStream(io.RawIOBase):
    """An unending binary stream of one byte value; ``tell`` counts the
    bytes handed out."""

    def __init__(self, byte: bytes):
        self.byte, self.handed = byte, 0

    def readable(self):
        return True

    def readinto(self, b):
        b[:] = self.byte * len(b)
        self.handed += len(b)
        return len(b)

    def tell(self):
        return self.handed
