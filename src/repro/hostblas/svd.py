"""One-sided Jacobi SVD (gesvj), the reference for the vbatched driver.

Hestenes' method: right plane rotations orthogonalize the columns of
``A`` in place (``A G_1 G_2 ... = U diag(s)``) while the rotations
accumulate into ``V``.  Singular values are the final column norms,
``U`` the normalized columns.  Real precisions only — the vbatched
driver mirrors that restriction.

A sweep visits the column pairs in the parallel round-robin ordering
(Brent & Luk; the batched GPU Jacobi of Boukaram et al.): ``n - 1``
rounds (``n`` for odd ``n``) of ``n // 2`` disjoint pairs.  The pairs of
one round commute, so :func:`jacobi_sweep` rotates them all at once,
across a whole stack of same-order matrices — the ordering the
vbatched kernel's cost model charges, run one size bucket per call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["round_robin_schedule", "jacobi_sweep", "gesvj"]


@lru_cache(maxsize=None)
def round_robin_schedule(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The round-robin pairing of ``n`` columns, one ``(p, q)`` per round.

    Circle method: column 0 stays put while the others rotate one seat
    per round; an odd ``n`` adds a bye seat whose partner sits the round
    out.  Each round's ``p`` and ``q`` are int64 arrays with ``p < q``
    elementwise and no column repeated; over the whole schedule every
    pair ``p < q`` appears exactly once.
    """
    if n < 2:
        return ()
    seats = n + (n % 2)
    ring = list(range(seats))
    rounds = []
    for _ in range(seats - 1):
        pairs = sorted(
            (min(x, y), max(x, y))
            for x, y in zip(ring[: seats // 2], reversed(ring[seats // 2 :]))
            if max(x, y) < n
        )
        p, q = (np.array(col, dtype=np.int64) for col in zip(*pairs))
        p.flags.writeable = q.flags.writeable = False
        rounds.append((p, q))
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return tuple(rounds)


def jacobi_sweep(a: np.ndarray, v: np.ndarray, tol: float) -> np.ndarray:
    """One round-robin sweep of one-sided Jacobi rotations, in place.

    ``a`` is a ``(k, m, n)`` stack of same-shape matrices and ``v`` the
    ``(k, n, n)`` stack of their rotation accumulators.  Every round of
    :func:`round_robin_schedule` computes the three inner products of
    its pairs for the whole stack at once; a pair whose normalized
    off-diagonal product exceeds ``tol`` gets a plane rotation applied
    to the columns of both ``a`` and ``v``, a skipped pair the identity
    (``c = 1, s = 0``).  Returns the rotations applied per matrix (0
    means converged).  A matrix's result does not depend on the others
    in its stack.
    """
    k, m, n = a.shape
    # Row layout: row j holds column j of A followed by column j of V,
    # so one gather per round moves both operands of every rotation.
    w = np.empty((k, n, m + n), dtype=a.dtype)
    w[:, :, :m] = np.swapaxes(a, 1, 2)
    w[:, :, m:] = np.swapaxes(v, 1, 2)
    rotations = np.zeros(k, dtype=np.int64)
    for p, q in round_robin_schedule(n):
        wp = w[:, p]
        wq = w[:, q]
        ap, aq = wp[..., :m], wq[..., :m]
        apq = np.einsum("khi,khi->kh", ap, aq).astype(np.float64, copy=False)
        app = np.einsum("khi,khi->kh", ap, ap).astype(np.float64, copy=False)
        aqq = np.einsum("khi,khi->kh", aq, aq).astype(np.float64, copy=False)
        rotate = (np.abs(apq) > tol * np.sqrt(app * aqq)) & (app != 0.0) & (aqq != 0.0)
        if not rotate.any():
            continue
        rotations += np.count_nonzero(rotate, axis=1)
        zeta = (aqq - app) / np.where(rotate, 2.0 * apq, 1.0)
        # The smaller root of t^2 + 2 zeta t = 1; a skipped pair gets
        # t = 0, i.e. the identity rotation.
        t = np.copysign(rotate / (np.abs(zeta) + np.hypot(1.0, zeta)), zeta)
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = (c * t).astype(a.dtype)[..., None]
        c = c.astype(a.dtype)[..., None]
        w[:, p] = c * wp - s * wq
        w[:, q] = s * wp + c * wq
    a[...] = np.swapaxes(w[:, :, :m], 1, 2)
    v[...] = np.swapaxes(w[:, :, m:], 1, 2)
    return rotations


def gesvj(
    a: np.ndarray,
    tol: float = 1.0e-10,
    max_sweeps: int = 30,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Full SVD ``a = u @ diag(s) @ vt`` of a real ``m x n`` matrix, m >= n.

    Returns ``(u, s, vt, sweeps)`` with ``u`` of shape ``(m, n)``, the
    singular values descending, and ``sweeps`` the count actually spent
    (0 for an already-orthogonal column set).  ``a`` is not modified.
    """
    a = np.array(a, copy=True)
    if a.dtype.kind in "biu":
        a = a.astype(np.float64)
    if a.ndim != 2:
        raise ValueError(f"gesvj needs a 2-D matrix, got shape {a.shape}")
    if np.iscomplexobj(a):
        raise ValueError("gesvj supports real precisions only")
    m, n = a.shape
    if m < n:
        raise ValueError(f"gesvj needs m >= n, got {a.shape}")
    v = np.eye(n, dtype=a.dtype)
    sweeps = 0
    for _ in range(max_sweeps):
        if jacobi_sweep(a[None], v[None], tol)[0] == 0:
            break
        sweeps += 1
    s = np.sqrt(np.sum(np.abs(a) ** 2, axis=0))
    order = np.argsort(-s, kind="stable")
    s = s[order]
    u = a[:, order]
    v = v[:, order]
    nonzero = s > 0
    u[:, nonzero] = u[:, nonzero] / s[nonzero]
    return u, s.astype(a.dtype), v.T.copy(), sweeps
