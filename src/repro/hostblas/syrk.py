"""Symmetric (Hermitian) rank-k update (``syrk``/``herk``)."""

from __future__ import annotations

import numpy as np

from ..errors import ArgumentError
from .gemm import apply_op
from .triangle import tril_pairs, triu_pairs

__all__ = ["syrk"]


def syrk(
    uplo: str,
    trans: str,
    alpha: complex,
    a: np.ndarray,
    beta: complex,
    c: np.ndarray,
) -> np.ndarray:
    """Compute ``C := alpha * op(A) @ op(A)^H + beta * C`` on one triangle.

    ``trans='n'`` performs ``A @ A^H`` (``A`` is ``n x k``); ``trans='t'``
    (or ``'c'``) performs ``A^H @ A`` (``A`` is ``k x n``).  Only the
    triangle selected by ``uplo`` (``'l'`` or ``'u'``) is referenced and
    updated — the opposite triangle is left untouched, exactly as BLAS
    specifies, which the Cholesky driver depends on.
    """
    u = uplo.lower()
    if u not in ("l", "u"):
        raise ArgumentError(1, f"uplo must be 'l' or 'u', got {uplo!r}")
    t = trans.lower()
    if t not in ("n", "t", "c"):
        raise ArgumentError(2, f"trans must be 'n', 't' or 'c', got {trans!r}")
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ArgumentError(6, f"C must be square, got shape {c.shape}")

    opa = apply_op(a, "n" if t == "n" else t)
    n = c.shape[0]
    if opa.shape[0] != n:
        raise ArgumentError(4, f"op(A) has {opa.shape[0]} rows, C has order {n}")

    # Full product, then masked copy into the requested triangle.  The
    # dense matmul is far faster than per-column triangular updates in
    # NumPy, and the mask preserves the untouched-triangle contract.
    full = alpha * (opa @ opa.conj().T)
    rows, cols = tril_pairs(n) if u == "l" else triu_pairs(n)
    if beta == 0:
        c[rows, cols] = full[rows, cols]
    else:
        c[rows, cols] = beta * c[rows, cols] + full[rows, cols]
    return c
