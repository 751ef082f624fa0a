"""Triangular matrix inversion (``trtri``).

The vbatched ``trsm`` kernel (paper §III-E2) first inverts the diagonal
blocks with ``trtri`` and then applies them via ``gemm``; this is the
host reference for that kernel.
"""

from __future__ import annotations

import numpy as np

from ..errors import ArgumentError
from .triangle import tril_pairs, triu_pairs
from .trsm import trsm

__all__ = ["trtri"]


def trtri(uplo: str, diag: str, a: np.ndarray, nb: int = 32) -> np.ndarray:
    """Invert a triangular matrix in place and return it.

    Only the ``uplo`` triangle is referenced or written; the opposite
    triangle is untouched.  Singular (zero) diagonal entries raise
    :class:`ZeroDivisionError` with the 1-based LAPACK info index in the
    message.
    """
    u, d = uplo.lower(), diag.lower()
    if u not in ("l", "u"):
        raise ArgumentError(1, f"uplo must be 'l' or 'u', got {uplo!r}")
    if d not in ("n", "u"):
        raise ArgumentError(2, f"diag must be 'n' or 'u', got {diag!r}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ArgumentError(3, f"A must be square, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return a
    if d == "n":
        diag_vals = np.diagonal(a)
        zeros = np.flatnonzero(diag_vals == 0)
        if zeros.size:
            raise ZeroDivisionError(
                f"trtri: A({zeros[0] + 1},{zeros[0] + 1}) is exactly zero (info={zeros[0] + 1})"
            )

    # Blocked inversion: inv([[A11, 0], [A21, A22]]) has (2,1) block
    # -inv(A22) @ A21 @ inv(A11).  We sweep diagonal blocks, inverting
    # each in place, then fold the off-diagonal panels with two trsm
    # applications (one with the not-yet-inverted trailing block, one
    # scaling by the already-inverted leading block).
    if u == "l":
        for j0 in range(0, n, nb):
            j1 = min(j0 + nb, n)
            if j0 > 0:
                # A21 := -inv(A22block-so-far)?  Use the standard order:
                # panel := A[j0:j1, :j0];  panel := -inv(D) @ panel @ L11inv
                panel = a[j0:j1, :j0]
                # multiply on the left by inv of current diagonal block:
                trsm("l", "l", "n", d, 1.0, a[j0:j1, j0:j1], panel)
                panel *= -1.0
                # multiply on the right by the already-inverted leading
                # lower-triangular block (stored in a[:j0, :j0]).
                panel[...] = panel @ _tri_view(a[:j0, :j0], lower=True, unit=(d == "u"))
            _invert_diag_block(a[j0:j1, j0:j1], lower=True, unit=(d == "u"))
    else:
        for j0 in range(0, n, nb):
            j1 = min(j0 + nb, n)
            if j0 > 0:
                panel = a[:j0, j0:j1]
                trsm("r", "u", "n", d, 1.0, a[j0:j1, j0:j1], panel)
                panel *= -1.0
                panel[...] = _tri_view(a[:j0, :j0], lower=False, unit=(d == "u")) @ panel
            _invert_diag_block(a[j0:j1, j0:j1], lower=False, unit=(d == "u"))
    return a


def _tri_view(a: np.ndarray, lower: bool, unit: bool) -> np.ndarray:
    """Materialize the triangular part of ``a`` (unit diagonal if asked)."""
    t = np.tril(a) if lower else np.triu(a)
    if unit:
        np.fill_diagonal(t, 1.0)
    return t


def _invert_diag_block(a: np.ndarray, lower: bool, unit: bool) -> None:
    """Unblocked in-place inversion of one triangular diagonal block.

    Column-by-column: solve ``A x = e_j`` by substitution, exploiting
    that the inverse of a triangular matrix is triangular with the same
    shape.
    """
    n = a.shape[0]
    eye = np.eye(n, dtype=a.dtype)
    trsm("l", "l" if lower else "u", "n", "u" if unit else "n", 1.0, a, eye, nb=max(n, 1))
    rows, cols = tril_pairs(n) if lower else triu_pairs(n)
    # The inverse of a triangular matrix is triangular with the same
    # shape; copy back only that triangle (unit diagonals stay implicit).
    a[rows, cols] = eye[rows, cols]
