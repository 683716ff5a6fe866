"""Checkpoint writing and .mha reading on bytes in memory.

Each function runs the package's one stream writer or parser over an
``io.BytesIO``, so a test of these bytes tests the code that
``save_checkpoint`` and ``read_mha_file`` run on a file.
"""

import io

from densect.mha import Volume, _read
from densect.model import DenseNetModel, _write_checkpoint


def checkpoint_bytes(model: DenseNetModel) -> bytes:
    """The bytes ``save_checkpoint`` writes for ``model``."""
    f = io.BytesIO()
    _write_checkpoint(f, model)
    return f.getvalue()


def read_mha(data: bytes) -> Volume:
    """The Volume ``read_mha_file`` returns for a file holding ``data``."""
    return _read(io.BytesIO(bytes(data)))
