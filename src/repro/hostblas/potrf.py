"""Cholesky factorization: unblocked ``potf2`` and blocked ``potrf``.

``potrf`` follows Algorithm 1 of the paper exactly — the left-looking
blocked sweep whose three steps (customized ``syrk`` panel update,
``potf2`` tile factorization, ``trsm`` panel solve) are what the fused
device kernel stitches together.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ArgumentError
from .triangle import tril_pairs
from .trsm import trsm

__all__ = ["potf2", "potrf"]


def potf2(a: np.ndarray, uplo: str = "l") -> int:
    """Unblocked Cholesky of ``A`` in place; returns a LAPACK info code.

    ``info = 0`` on success; ``info = j`` (1-based) if the leading minor
    of order ``j`` is not positive definite — in which case the first
    ``j - 1`` columns hold the partial factor, as LAPACK specifies.
    Only the ``uplo`` triangle is referenced and written.
    """
    u = uplo.lower()
    if u not in ("l", "u"):
        raise ArgumentError(2, f"uplo must be 'l' or 'u', got {uplo!r}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ArgumentError(1, f"A must be square, got shape {a.shape}")
    n = a.shape[0]
    if u == "u":
        # Factor the plain-transpose *view* so a single lower-oriented
        # loop serves both cases: for Hermitian A stored upper,
        # A^T = conj(A) = U^T (U^T)^H, i.e. the lower factor of a.T is
        # exactly U^T, which lives in a's upper triangle — in place.
        return potf2(a.T, "l")

    for j in range(n):
        # d = A[j,j] - dot(L[j,:j], conj(L[j,:j]))
        row = a[j, :j]
        d = a[j, j].real - np.real(row @ row.conj())
        if d <= 0 or math.isnan(d):
            return j + 1
        d = math.sqrt(d)
        a[j, j] = d
        if j + 1 < n:
            # Column update, vectorized over the rows below j.
            a[j + 1 :, j] -= a[j + 1 :, :j] @ row.conj()
            a[j + 1 :, j] /= d
    return 0


def potrf(a: np.ndarray, uplo: str = "l", nb: int = 32) -> int:
    """Blocked left-looking Cholesky of ``A`` in place (Algorithm 1).

    Returns the LAPACK info code (0 = success).  For each panel ``i``:

    1. *panel update* — subtract ``A[i:, :i] @ A[i:i+nb, :i]^H`` from the
       current ``m x nb`` panel (the customized rank-k ``syrk`` of
       Figure 2, where ``B`` is a portion of ``A``);
    2. *tile factorize* — ``potf2`` on the ``nb x nb`` diagonal tile;
    3. *panel factorize* — ``trsm`` on the rows below the tile.
    """
    u = uplo.lower()
    if u not in ("l", "u"):
        raise ArgumentError(2, f"uplo must be 'l' or 'u', got {uplo!r}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ArgumentError(1, f"A must be square, got shape {a.shape}")
    if nb <= 0:
        raise ArgumentError(3, f"nb must be positive, got {nb}")
    if u == "u":
        return potrf(a.T, "l", nb)

    n = a.shape[0]
    for j0 in range(0, n, nb):
        j1 = min(j0 + nb, n)
        if j0 > 0:
            # Step 1: C[m x nb] -= A[m x k] @ B[nb x k]^H with B a slice
            # of A — exactly the fused kernel's customized update.  The
            # diagonal tile is updated on its lower triangle only so the
            # strictly-upper triangle stays untouched (LAPACK contract).
            b = a[j0:j1, :j0]
            upd_tile = b @ b.conj().T
            rows, cols = tril_pairs(j1 - j0)
            a[j0:j1, j0:j1][rows, cols] -= upd_tile[rows, cols]
            if j1 < n:
                a[j1:, j0:j1] -= a[j1:, :j0] @ b.conj().T
        info = potf2(a[j0:j1, j0:j1], "l")
        if info != 0:
            return j0 + info
        if j1 < n:
            # Step 3: A[j1:, j0:j1] := A[j1:, j0:j1] @ L11^-H
            trsm("r", "l", "c", "n", 1.0, a[j0:j1, j0:j1], a[j1:, j0:j1])
    return 0
