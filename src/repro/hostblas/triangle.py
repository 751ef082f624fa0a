"""Cached triangle index pairs.

Every routine that touches one triangle of a square block (the syrk
update, the diagonal-tile update of a Cholesky step, triangular
inversion) needs the ``(rows, cols)`` index pairs of that triangle.
``np.tril_indices`` rebuilds them on each call; a batched factorization
asks for the same few orders thousands of times, so they are built once
per order here and shared as read-only arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["tril_pairs", "triu_pairs"]


@lru_cache(maxsize=256)
def tril_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(rows, cols)`` of the lower triangle of an order-``n`` block."""
    rows, cols = np.tril_indices(n)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def triu_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(rows, cols)`` of the upper triangle of an order-``n`` block.

    The transposed lower pairs: the same index set as
    ``np.triu_indices(n)``, visited column by column instead of row by row.
    """
    rows, cols = tril_pairs(n)
    return cols, rows
