"""Output checks that do not trust the program under test.

Every check compares what the program returned against something the
benchmark computes apart from it -- LAPACK ``dpotrf`` info codes,
NumPy Cholesky factors and singular values, closed-form flop counts --
or against a property the method must have (one resolution per future,
``max_batch`` respected).  Each returns the number of operations whose
check failed, so the caller can count them in ``failed``.
"""

from __future__ import annotations

import numpy as np

#: Relative Frobenius tolerance of a Cholesky factor against NumPy's.
#: The inputs are ``M M^T + n I`` (condition number below ~10), where
#: both factors agree to ~1e-15; a wrong factor misses by far more.
FACTOR_RTOL = 1e-11

#: Relative tolerance of recorded flops against the closed forms below
#: (float summation order is the only legitimate difference).
FLOPS_RTOL = 1e-9


def potrf_flops(n: int) -> float:
    """LAPACK operation count of an ``n x n`` Cholesky factorization."""
    n = float(n)
    return n**3 / 3.0 + n**2 / 2.0 + n / 6.0


def geqrf_flops(n: int) -> float:
    """LAPACK operation count of an ``n x n`` Householder QR."""
    n = float(n)
    return 4.0 * n**3 / 3.0 + 2.0 * n**2 + 14.0 * n / 3.0


def jacobi_sweep_flops(n: int) -> float:
    """One one-sided Jacobi sweep of order ``n``: ``n(n-1)/2`` column
    pairs, each three dot products and two two-column rotations."""
    n = float(n)
    return 9.0 * n * n * max(0.0, n - 1.0)


CLOSED_FORM_FLOPS = {
    "potrf": potrf_flops,
    "geqrf": geqrf_flops,
    "gesvj": jacobi_sweep_flops,
}


def padded_waste(batches) -> float:
    """``1 - useful/padded`` over ``(op, sizes)`` batches.

    A batch pads every matrix to its largest; the flop count of each op
    is the closed form above (for ``gesvj`` per sweep, which cancels in
    the ratio because every matrix of a batch runs the same budget).
    """
    useful = padded = 0.0
    for op, sizes in batches:
        flops = CLOSED_FORM_FLOPS[op]
        useful += sum(flops(n) for n in sizes)
        padded += len(sizes) * flops(max(sizes))
    return 1.0 - useful / padded if padded else 0.0


def check_serve_phase(req_sizes, resolutions, responses, records, max_batch: int) -> int:
    """Failed requests of one closed-loop serving phase.

    ``req_sizes`` maps request key -> matrix order, ``resolutions`` key
    -> how many times its future resolved, ``responses`` key ->
    ``(info, batch_id)`` for futures that carried a response, and
    ``records`` the server's batch records of the phase as ``(batch_id,
    size, useful_flops)``.

    A request fails when its future resolved other than exactly once,
    when it carries an error or a nonzero ``info``, or when the batch it
    rode violated ``max_batch``, disagrees with the responses on its
    size, or recorded useful flops other than the closed-form Cholesky
    count of its members.  Batch sizes must also sum to the number of
    requests; a shortfall counts as that many failures.
    """
    bad = {k for k in req_sizes if resolutions.get(k, 0) != 1}
    bad |= {k for k in req_sizes if k not in responses or responses[k][0] != 0}
    members: dict[int, list] = {}
    for k, (_, batch_id) in responses.items():
        members.setdefault(batch_id, []).append(k)
    for batch_id, size, useful in records:
        keys = members.get(batch_id, [])
        expected = sum(potrf_flops(req_sizes[k]) for k in keys)
        if (
            size > max_batch
            or size != len(keys)
            or abs(useful - expected) > FLOPS_RTOL * max(expected, 1.0)
        ):
            bad |= set(keys)
    recorded = {batch_id for batch_id, _, _ in records}
    bad |= {k for batch_id, keys in members.items() if batch_id not in recorded for k in keys}
    shortfall = max(0, len(req_sizes) - sum(size for _, size, _ in records))
    return max(len(bad), shortfall)


def check_factors(infos, factors, ref_infos, ref_factors) -> int:
    """Failed matrices of one factorized batch.

    A matrix fails when its ``info`` differs from LAPACK ``dpotrf``'s
    (indefinite matrices included) or, for an SPD matrix, when the lower
    triangle of its factor misses NumPy's Cholesky factor by more than
    :data:`FACTOR_RTOL` in relative Frobenius norm.
    """
    failed = 0
    for info, factor, ref_info, ref in zip(infos, factors, ref_infos, ref_factors):
        if int(info) != int(ref_info):
            failed += 1
        elif ref is not None:
            err = np.linalg.norm(np.tril(factor) - ref)
            if not err <= FACTOR_RTOL * max(np.linalg.norm(ref), 1e-300):
                failed += 1
    if len(infos) != len(ref_infos):
        failed += abs(len(ref_infos) - len(infos))
    return failed


def check_compression(ranks, ref_ranks, max_rel_error: float, tol: float,
                      potrf_failures: int, diag_blocks: int) -> int:
    """Failed operations of one kernel-matrix compression.

    ``ranks`` and ``ref_ranks`` map tile ``(i, j)`` to the rank the
    program chose and to the count of NumPy singular values above
    ``tol * sigma_0``.  A tile fails on any difference (or when missing);
    every tile fails when the reconstruction error exceeds ``50 * tol``;
    each failed diagonal Cholesky block is one more failure.
    """
    if not max_rel_error <= 50.0 * tol:
        tiles_failed = len(ref_ranks)
    else:
        tiles_failed = sum(1 for key, r in ref_ranks.items() if ranks.get(key) != r)
    tiles_failed += sum(1 for key in ranks if key not in ref_ranks)
    return tiles_failed + min(max(int(potrf_failures), 0), diag_blocks)

