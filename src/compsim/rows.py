"""Row-wise norms, inner products and magnitudes over stacks of complex
vectors, rounded exactly as numpy rounds them for a single vector.

Batched reductions such as ``np.linalg.norm(x, axis=-1)`` or ``einsum`` sum
in another order than ``np.linalg.norm`` and ``np.vdot`` of one vector, and
``np.abs`` of a complex array takes a vector path that differs from ``abs``
of a complex scalar, so their last bits differ. The forms here give every row
the bits of its single-vector call, whatever the stack's size or shape, so a
block of trials evaluates to the same bits as each of its trials alone.
"""

from __future__ import annotations

import numpy as np


def squared_norms(x: np.ndarray) -> np.ndarray:
    """The squared ``np.linalg.norm`` of each row (last axis) of complex ``x``,
    before its square root."""
    return np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)


def norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row (last axis) of complex ``x``."""
    return np.sqrt(squared_norms(x))


def inner(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.vdot(c, v)`` of each pair of rows: sum conj(c) v over the last axis."""
    return np.vecdot(c, v)


def magnitude(z: np.ndarray) -> np.ndarray:
    """``abs`` of each complex entry, as of a numpy complex scalar."""
    return np.hypot(z.real, z.imag)
