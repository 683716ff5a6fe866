"""The scalar loss the tests differentiate through: one recorded node."""

import numpy as np

from densect.tensor import Tensor, record


def project(t: Tensor, r) -> Tensor:
    """The recorded scalar sum(t * r), r broadcast to t's shape and dtype;
    its backward rule returns g * r."""
    r = np.broadcast_to(np.asarray(r, dtype=t.dtype), t.shape)
    return record((t,), (t.data * r).sum(), lambda g: (g * r,))
