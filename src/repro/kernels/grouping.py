"""Size-bucketed vectorized execution for the simulated kernel numerics.

The paper's central performance lever is grouping nearly-equal sizes so
one launch does dense, coherent work (implicit sorting + ETM, §III-D).
The simulated kernels used to execute their functional plane one matrix
at a time in Python loops — paying interpreter overhead per matrix,
which is exactly the overhead the paper's batching eliminates on real
hardware.  This module is the software analogue of that fix, following
the batched-GEMM grouping strategy of Jhurani & Mullowney
(arXiv:1304.7053) and the bucketing of Boukaram et al.
(arXiv:1707.05141):

* partition a launch's work items into buckets that one stacked array
  can hold — identical ``(n, lda)`` for the BLAS kernels; for the fused
  Cholesky step, :data:`ROW_BIN`-wide bins of *remaining rows*, padded
  to the bin's tallest matrix the way the paper's fused kernel pads its
  block dimension to ``max_m`` and idles the extra threads,
* materialize each bucket as a 3-D ndarray stack (zero padding, with a
  unit diagonal on padded tile rows so padding factors as the identity),
* run the whole bucket through *batched* NumPy primitives
  (``matmul`` over the leading batch axis, vectorized column sweeps),
* scatter only each matrix's real entries back into its device view.

Every kernel keeps its original per-matrix loop as a *reference* path
(:func:`reference_numerics` / ``set_reference_numerics``) so the
vectorized path can be differentially tested against it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..hostblas.triangle import tril_pairs, triu_pairs

__all__ = [
    "SizeBucket",
    "partition_buckets",
    "grouped_first_seen",
    "reference_numerics",
    "set_reference_numerics",
    "reference_enabled",
    "batched_potf2",
    "batched_lower_trtri",
    "ROW_BIN",
    "row_bins",
    "bucket_fused_step",
    "bucket_gemm",
    "bucket_syrk",
]


#: Row-bin width of the fused Cholesky step: matrices whose remaining
#: row counts fall in one ``ROW_BIN``-row band share one padded stack.
ROW_BIN = 64

# ----------------------------------------------------------------------
# reference-mode switch
# ----------------------------------------------------------------------
_reference = os.environ.get("REPRO_REFERENCE_KERNELS", "") not in ("", "0", "false")


def reference_enabled() -> bool:
    """True when kernels should run their per-matrix reference loops."""
    return _reference


def set_reference_numerics(flag: bool) -> bool:
    """Select the numerics path globally; returns the previous setting.

    ``True`` restores the original one-matrix-at-a-time loops (the
    differential-testing baseline); ``False`` (default) runs the
    size-bucketed vectorized path.  Also settable via the
    ``REPRO_REFERENCE_KERNELS=1`` environment variable at import time.
    """
    global _reference
    previous = _reference
    _reference = bool(flag)
    return previous


@contextmanager
def reference_numerics(flag: bool = True):
    """Context manager selecting the numerics path for the enclosed code.

    ``reference_numerics()`` runs the per-matrix reference loops;
    ``reference_numerics(False)`` forces the vectorized path regardless
    of the ambient setting.
    """
    previous = set_reference_numerics(flag)
    try:
        yield
    finally:
        set_reference_numerics(previous)


# ----------------------------------------------------------------------
# bucket partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SizeBucket:
    """One same-shape bucket: a key plus positions into the launch list."""

    key: tuple
    positions: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


def partition_buckets(keys) -> list[SizeBucket]:
    """Partition launch positions into same-key buckets.

    ``keys`` is a sequence of hashables (one per work item, e.g.
    ``(n, lda)`` tuples); the result preserves first-seen key order and
    each bucket's positions preserve issue order, so the vectorized path
    visits work in the same order the reference loop would.
    """
    groups: dict[tuple, list[int]] = {}
    for pos, key in enumerate(keys):
        groups.setdefault(key, []).append(pos)
    return [
        SizeBucket(key, np.asarray(positions, dtype=np.int64))
        for key, positions in groups.items()
    ]


def grouped_first_seen(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique values and counts in first-seen order (vectorized).

    Equivalent to accumulating ``dict[value] += 1`` over ``values`` —
    the grouping every kernel's timing plane performs — but via
    ``np.unique``.  First-seen order matters: block groups are fed to
    the exact scheduler in issue order.
    """
    values = np.asarray(values)
    if values.size == 0:
        return values, np.zeros(0, dtype=np.int64)
    uniq, first, counts = np.unique(values, return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    return uniq[order], counts[order]


# ----------------------------------------------------------------------
# batched numeric primitives
# ----------------------------------------------------------------------
def _conj_t(stack: np.ndarray) -> np.ndarray:
    """Batched conjugate transpose of a 3-D stack (a view for real dtypes)."""
    flipped = np.swapaxes(stack, -1, -2)
    return np.conj(flipped) if np.iscomplexobj(flipped) else flipped


def batched_potf2(t: np.ndarray) -> np.ndarray:
    """In-place batched unblocked lower Cholesky of a ``(B, m, n)`` stack.

    The top ``n x n`` tile of each slice is factored with
    :func:`repro.hostblas.potf2` semantics; rows below it (``m > n``, a
    tall panel) are solved against the new factor in the same column
    sweep, i.e. ``X @ L^H = B`` as ``trsm('r', 'l', 'c', 'n', 1.0, L, B)``
    computes it.  Returns an int64 info array (0 on success, 1-based
    failing pivot otherwise); a failed matrix's columns from the failing
    one onward are left untouched, and already-failed matrices stop
    receiving writes.
    """
    bsz, n = t.shape[0], t.shape[2]
    infos = np.zeros(bsz, dtype=np.int64)
    active = np.ones(bsz, dtype=bool)
    for j in range(n):
        row_h = _conj_t(t[:, j : j + 1, :j])
        d = t[:, j, j].real - (t[:, j : j + 1, :j] @ row_h)[:, 0, 0].real
        bad = active & ~(d > 0)  # also catches NaN
        if bad.any():
            infos[bad] = j + 1
            active &= ~bad
            if not active.any():
                break
        dj = np.sqrt(np.where(active, d, 1.0))
        col = t[:, j + 1 :, j]
        if j > 0:
            col = col - (t[:, j + 1 :, :j] @ row_h)[:, :, 0]
        col = col / dj[:, None]
        if active.all():
            t[:, j, j] = dj
            t[:, j + 1 :, j] = col
        else:
            t[active, j, j] = dj[active]
            t[active, j + 1 :, j] = col[active]
    return infos


def batched_lower_trtri(l: np.ndarray) -> np.ndarray:
    """Batched inverse of a ``(B, n, n)`` stack of lower triangles.

    Row-wise forward substitution on the identity, vectorized over the
    batch; returns a new stack whose strict upper triangle is zero.
    Raises :class:`ZeroDivisionError` on an exactly-zero diagonal, as
    the host reference does.
    """
    bsz, n = l.shape[0], l.shape[1]
    diag = np.diagonal(l, axis1=1, axis2=2)
    zeros = np.argwhere(diag == 0)
    if zeros.size:
        j = int(zeros[0, 1])
        raise ZeroDivisionError(
            f"trtri: A({j + 1},{j + 1}) is exactly zero (info={j + 1})"
        )
    inv = np.zeros_like(l)
    eye = np.eye(n, dtype=l.dtype)
    for i in range(n):
        rhs = eye[i] - np.einsum("bk,bkj->bj", l[:, i, :i], inv[:, :i, :])
        inv[:, i, :] = rhs / l[:, i, i, None]
    return np.tril(inv)


def row_bins(rows: np.ndarray) -> list[np.ndarray]:
    """Positions of ``rows`` grouped into :data:`ROW_BIN`-wide row bins.

    ``rows`` holds each work item's remaining row count (all positive);
    bin ``k`` collects the items with ``k*ROW_BIN < rows <= (k+1)*ROW_BIN``.
    Bins come out in ascending order, each in issue order.
    """
    keys = (np.asarray(rows, dtype=np.int64) - 1) // ROW_BIN
    order = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[order])) + 1
    return np.split(order, cuts)


def bucket_fused_step(views: list[np.ndarray], j0: int, nb: int) -> np.ndarray:
    """Vectorized fused Algorithm-1 step over one row bin.

    ``views`` are ``n x n`` matrix views of any orders ``n > j0``.  Their
    panels (rows ``j0:``, columns ``j0:j0 + nb``) are gathered into one
    zero-padded ``(B, M, jb)`` stack, where ``M`` is the largest
    remaining row count and ``jb = min(nb, M)``; tile rows past a
    matrix's own panel width get a unit diagonal, so padding factors as
    the identity and never fails.  Each matrix's panel update is one
    ``matmul`` straight from its view into a same-shape update stack
    (NumPy's stacked ``matmul`` would make the same per-slice BLAS call,
    after copying every history block into the stack).  The stack then
    takes the steps of
    :func:`repro.kernels.fused_potrf.fused_step_numerics` once: the
    update is subtracted (lower triangle only on the tile), and one
    :func:`batched_potf2` sweep over the tall panel factors the tile and
    solves the rows below it.  A matrix whose tile fails keeps its rows
    below as updated, as if the solve were skipped.  Only each matrix's
    real panel entries are scattered back.  Returns the per-matrix info
    array (0, or the 1-based global failing pivot).
    """
    rows = np.fromiter((v.shape[0] for v in views), dtype=np.int64, count=len(views)) - j0
    big_m = int(rows.max())
    jb = min(nb, big_m)
    jbs = np.minimum(rows, nb)
    s = np.zeros((len(views), big_m, jb), dtype=views[0].dtype)
    upd = np.zeros_like(s)
    for b, (v, m, w) in enumerate(zip(views, rows.tolist(), jbs.tolist())):
        s[b, :m, :w] = v[j0:, j0 : j0 + w]
        if j0 > 0:
            np.matmul(v[j0:, :j0], _conj_t(v[j0 : j0 + w, :j0]), out=upd[b, :m, :w])
    pad_b, pad_r = np.nonzero(np.arange(jb) >= jbs[:, None])
    s[pad_b, pad_r, pad_r] = 1
    tr, tc = tril_pairs(jb)
    s[:, tr, tc] -= upd[:, tr, tc]
    s[:, jb:] -= upd[:, jb:]
    infos = batched_potf2(s)
    for b in np.flatnonzero((infos > 0) & (rows > jb)):
        # A failed tile skips the panel solve: its rows below keep the
        # updated values, recomputed here exactly as above.
        m = int(rows[b])
        s[b, jb:m] = views[b][j0 + jb :, j0 : j0 + jb] - upd[b, jb:m]
    for b, (v, m, w) in enumerate(zip(views, rows.tolist(), jbs.tolist())):
        v[j0:, j0 : j0 + w] = s[b, :m, :w]
    return np.where(infos > 0, infos + j0, 0)


def _apply_op_stack(stack: np.ndarray, trans: str) -> np.ndarray:
    """Batched ``op(A)`` for a BLAS trans flag over a 3-D stack."""
    t = trans.lower()
    if t == "n":
        return stack
    if t == "t":
        return np.swapaxes(stack, -1, -2)
    return _conj_t(stack)


def bucket_gemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    transa: str,
    transb: str,
    alpha: complex,
    beta: complex,
) -> np.ndarray:
    """Batched ``C := alpha op(A) @ op(B) + beta C`` on stacked operands.

    ``c`` is updated in place and returned; semantics match
    :func:`repro.hostblas.gemm` per matrix (including the ``k == 0``
    scale-only and ``beta == 0`` overwrite-even-NaN cases).
    """
    opa = _apply_op_stack(a, transa)
    opb = _apply_op_stack(b, transb)
    if opa.shape[-1] == 0:
        c *= beta
        return c
    if beta == 0:
        c[...] = opa @ opb
        if alpha != 1:
            c *= alpha
    else:
        if beta != 1:
            c *= beta
        c += alpha * (opa @ opb)
    return c


def bucket_syrk(
    a: np.ndarray,
    c: np.ndarray,
    uplo: str,
    trans: str,
    alpha: complex,
    beta: complex,
) -> np.ndarray:
    """Batched rank-k update ``C := alpha op(A) op(A)^H + beta C``.

    Touches only the ``uplo`` triangle of each ``c`` slice, exactly as
    :func:`repro.hostblas.syrk` specifies; ``c`` is updated in place.
    """
    opa = _apply_op_stack(a, "n" if trans.lower() == "n" else trans)
    n = c.shape[-1]
    full = alpha * (opa @ _conj_t(opa))
    rows, cols = tril_pairs(n) if uplo.lower() == "l" else triu_pairs(n)
    if beta == 0:
        c[:, rows, cols] = full[:, rows, cols]
    else:
        c[:, rows, cols] = beta * c[:, rows, cols] + full[:, rows, cols]
    return c
