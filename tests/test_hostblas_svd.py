"""One-sided Jacobi SVD: the host reference and the round-robin sweep.

``hostblas.gesvj`` is checked against ``numpy.linalg.svd`` on
rectangular, degenerate and rank-deficient inputs; the round-robin
schedule is checked as a tournament; and the vectorized sweep is
checked for bucket independence — a matrix's factors must not depend
on which other matrices share its stack, nor on the reference switch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import VBatch
from repro.device import Device
from repro.flops import default_svd_sweeps
from repro.hostblas import gesvj, jacobi_sweep, round_robin_schedule
from repro.kernels.grouping import reference_numerics
from repro.ops import OpOptions, run_op_vbatched

_DTYPE = {"s": np.float32, "d": np.float64}
_RTOL = {"s": 2e-5, "d": 1e-12}
# Jacobi stops rotating a pair once its cosine is below tol (1e-10), so
# U's columns are orthogonal to tol in d (float32 rounding dominates in s).
_ORTH = {"s": 1e-5, "d": 2e-10}


def _kernel_tile(m, n, seed):
    """An off-diagonal Gaussian-kernel block: numerically low rank."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, m)
    y = rng.uniform(2.0, 3.0, n)
    return np.exp(-((x[:, None] - y[None, :]) ** 2) / 0.5)


def _check_svd(a, prec):
    """Compare gesvj with numpy's SVD; reconstruct; input untouched."""
    a = a.astype(_DTYPE[prec])
    before = a.copy()
    u, s, vt, _ = gesvj(a)
    assert np.array_equal(a, before), "gesvj modified its input"
    m, n = a.shape
    assert u.shape == (m, n) and s.shape == (n,) and vt.shape == (n, n)
    assert u.dtype == s.dtype == vt.dtype == a.dtype
    rtol = _RTOL[prec]
    scale = max(float(np.linalg.norm(a, 2)), 1.0)
    ref = np.linalg.svd(a.astype(np.float64), compute_uv=False)
    assert np.all(np.diff(s) <= 0), "singular values not descending"
    assert np.allclose(s, ref, rtol=10 * rtol, atol=10 * rtol * scale)
    assert np.allclose(u @ (s[:, None] * vt), a, rtol=10 * rtol, atol=10 * rtol * scale)
    assert np.allclose(vt @ vt.T, np.eye(n), atol=_ORTH[prec])
    live = s > 1e3 * rtol * scale  # columns of U exist only for nonzero sigma
    assert np.allclose(u[:, live].T @ u[:, live], np.eye(int(live.sum())), atol=_ORTH[prec])


@pytest.mark.parametrize("prec", ["s", "d"])
class TestGesvjAgainstNumpy:
    @pytest.mark.parametrize("m,n", [(1, 1), (5, 1), (2, 2), (7, 2), (9, 9), (12, 7),
                                     (16, 16), (30, 11), (40, 40)])
    def test_random_rectangular(self, prec, m, n):
        a = np.random.default_rng(m * 100 + n).standard_normal((m, n))
        _check_svd(a, prec)

    def test_zero_matrix_and_zero_columns(self, prec):
        _check_svd(np.zeros((6, 4)), prec)
        a = np.random.default_rng(1).standard_normal((8, 5))
        a[:, [1, 3]] = 0.0
        _check_svd(a, prec)
        u, s, _, _ = gesvj(a.astype(_DTYPE[prec]))
        assert np.count_nonzero(s) == 3
        assert np.all(u[:, s == 0] == 0)

    def test_duplicate_columns(self, prec):
        a = np.random.default_rng(2).standard_normal((10, 6))
        a[:, 4] = a[:, 1]
        a[:, 5] = -2.0 * a[:, 0]
        _check_svd(a, prec)

    def test_rank_deficient_kernel_tile(self, prec):
        a = _kernel_tile(24, 17, seed=3)
        _check_svd(a, prec)
        s = gesvj(a.astype(_DTYPE[prec]))[1]
        assert np.count_nonzero(s > 1e-3 * s[0]) < 17

    def test_orthogonal_columns_need_no_sweep(self, prec):
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((9, 6)))
        a = (q * np.arange(6, 0, -1)).astype(_DTYPE[prec])
        u, s, vt, sweeps = gesvj(a, tol=1e-5)
        assert sweeps == 0
        assert np.allclose(s, np.arange(6, 0, -1), rtol=_RTOL[prec] * 10)


def test_gesvj_promotes_integer_input():
    a = np.array([[3, 1], [1, 2], [0, 4]])
    u, s, vt, _ = gesvj(a)
    assert s.dtype == np.float64
    assert np.allclose(s, np.linalg.svd(a, compute_uv=False), rtol=1e-12)
    assert np.allclose(u @ (s[:, None] * vt), a, atol=1e-12)


def test_gesvj_rejects_bad_shapes_and_complex():
    with pytest.raises(ValueError, match="m >= n"):
        gesvj(np.ones((2, 3)))
    with pytest.raises(ValueError, match="2-D"):
        gesvj(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="real"):
        gesvj(np.eye(3, dtype=np.complex128))


@pytest.mark.parametrize("n", [2, 3, 17, 64, 100, 128])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_inputs_converge_within_sweep_budget(n, seed):
    """The planner's fixed budget reaches rounding-level accuracy.

    The rotation count itself can need one sweep more at n = 128: a
    last sweep of a handful of rotations at the tol threshold.
    """
    a = np.random.default_rng([seed, n]).standard_normal((n, n))
    u, s, vt, _ = gesvj(a, max_sweeps=default_svd_sweeps(n))
    ref = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(s, ref, rtol=0, atol=1e-13 * ref[0])
    assert np.allclose(u @ (s[:, None] * vt), a, rtol=0, atol=1e-13 * ref[0])
    assert np.allclose(vt @ vt.T, np.eye(n), atol=_ORTH["d"])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 128))
def test_round_robin_schedule_is_a_tournament(n):
    rounds = round_robin_schedule(n)
    assert len(rounds) == (n - 1 if n % 2 == 0 else n)
    seen = set()
    for p, q in rounds:
        assert p.shape == q.shape == (n // 2,)
        cols = np.concatenate((p, q))
        assert len(set(cols.tolist())) == cols.size, "a column plays twice in one round"
        assert np.all((0 <= cols) & (cols < n))
        for x, y in zip(p.tolist(), q.tolist()):
            pair = (min(x, y), max(x, y))
            assert pair not in seen, f"pair {pair} repeats"
            seen.add(pair)
    assert len(seen) == n * (n - 1) // 2


@pytest.mark.parametrize("prec", ["s", "d"])
def test_sweep_result_does_not_depend_on_its_stack(prec):
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((5, 12, 9)).astype(_DTYPE[prec])
    stack[3] = 0.0
    v_stack = np.broadcast_to(np.eye(9, dtype=_DTYPE[prec]), (5, 9, 9)).copy()
    alone_a, alone_v = stack[1:2].copy(), v_stack[1:2].copy()
    for _ in range(9):
        rot_all = jacobi_sweep(stack, v_stack, 1e-10)
        rot_one = jacobi_sweep(alone_a, alone_v, 1e-10)
        assert rot_all[1] == rot_one[0]
        assert rot_all[3] == 0
    assert np.array_equal(stack[1], alone_a[0])
    assert np.array_equal(v_stack[1], alone_v[0])


def _serve_svd(matrices, sweeps):
    """Run the vbatched SVD; per matrix ``(U, sigma, V^T, sweeps_done)``."""
    dev = Device()
    batch = VBatch.from_host(dev, matrices)
    max_n = max(m.shape[0] for m in matrices)
    result = run_op_vbatched(dev, batch, max_n, "gesvj", OpOptions(sweeps=sweeps))
    factors = batch.download_matrices()
    batch.free()
    out = result.outputs
    return [
        (factors[i], out["singular_values"][i, : m.shape[0]], out["vt"][i],
         int(out["sweeps_done"][i]))
        for i, m in enumerate(matrices)
    ]


def test_served_svd_is_bucket_independent():
    rng = np.random.default_rng(11)
    target = rng.standard_normal((14, 14))
    tile = _kernel_tile(14, 14, seed=12)
    others = [rng.standard_normal((n, n)) for n in (14, 9, 14, 21, 1, 9)]
    sweeps = 9
    alone = _serve_svd([target], sweeps)[0] + _serve_svd([tile], sweeps)[0]
    mixed = _serve_svd([others[0], target, *others[1:4], tile, *others[4:]], sweeps)
    with reference_numerics():
        reference = _serve_svd([others[0], target, *others[1:4], tile, *others[4:]], sweeps)
    for results in (mixed, reference):
        got = results[1] + results[5]
        for x, y in zip(alone, got):
            assert np.array_equal(x, y)
    for (u, s, vt, _), a in zip(mixed, [others[0], target, *others[1:4], tile, *others[4:]]):
        n = a.shape[0]
        assert np.allclose(u[:n, :n] @ (s[:, None] * vt), a, atol=1e-10 * max(1.0, s[0]))
