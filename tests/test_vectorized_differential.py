"""Differential tests: bucketed-vectorized kernels vs the per-matrix
reference path.

Every kernel's ``run_numerics`` has two implementations — the original
per-matrix loop (the reference, selected by
``grouping.reference_numerics()`` or ``REPRO_REFERENCE_KERNELS=1``) and
the size-bucketed batched-NumPy path.  These tests factorize identical
batches down both paths and require the factors, infos, and padding
bytes to agree.
"""

import math

import numpy as np
import pytest

from repro import Device, PotrfOptions, VBatch, potrf_vbatched
from repro.baselines import run_cpu_percore, run_cpu_percore_measured
from repro.distributions import gaussian_sizes, uniform_sizes
from repro.hostblas import cholesky_residual, make_spd_batch
from repro.kernels import fused_potrf, grouping, potf2 as panel_potf2
from repro.kernels.fused_potrf import FusedPotrfStepKernel


def factorize(sizes, mats, approach, reference, ldas=None, precision="d", **opts):
    """One full factorization; returns (downloaded factors, infos)."""
    device = Device()
    if ldas is None:
        batch = VBatch.from_host(device, mats)
    else:
        batch = VBatch.allocate(device, sizes, precision, ldas=ldas)
        for i, (n, lda) in enumerate(zip(sizes, ldas)):
            buf = batch.matrices[i].data
            buf[...] = -777.0  # sentinel in the padding rows
            buf[:n, :n] = mats[i]
    with grouping.reference_numerics(reference):
        potrf_vbatched(device, batch, PotrfOptions(approach=approach, **opts))
    outs = [m.data.copy() for m in batch.matrices]
    infos = batch.infos_dev.data.copy()
    return outs, infos


def tol(precision):
    return 1e-4 if precision in ("s", "c") else 1e-12


class TestReferenceSwitch:
    def test_context_manager_restores(self):
        assert not grouping.reference_enabled()
        with grouping.reference_numerics():
            assert grouping.reference_enabled()
        assert not grouping.reference_enabled()

    def test_set_returns_previous(self):
        prev = grouping.set_reference_numerics(True)
        try:
            assert prev is False
            assert grouping.reference_enabled()
        finally:
            grouping.set_reference_numerics(prev)


class TestDifferentialFactorization:
    @pytest.mark.parametrize("approach", ["fused", "separated"])
    @pytest.mark.parametrize("dist", ["uniform", "gaussian"])
    def test_distributions_match_reference(self, approach, dist):
        gen = uniform_sizes if dist == "uniform" else gaussian_sizes
        sizes = gen(40, 96, seed=7).tolist()
        mats = make_spd_batch(sizes, "d", seed=3)
        ref, ref_infos = factorize(sizes, [m.copy() for m in mats], approach, True)
        vec, vec_infos = factorize(sizes, [m.copy() for m in mats], approach, False)
        assert np.array_equal(ref_infos, vec_infos)
        for r, v in zip(ref, vec):
            np.testing.assert_allclose(v, r, rtol=tol("d"), atol=tol("d"))

    def test_single_precision_tolerance(self):
        sizes = uniform_sizes(24, 64, seed=1).tolist()
        mats = make_spd_batch(sizes, "s", seed=5)
        ref, _ = factorize(sizes, [m.copy() for m in mats], "fused", True)
        vec, _ = factorize(sizes, [m.copy() for m in mats], "fused", False)
        for r, v in zip(ref, vec):
            np.testing.assert_allclose(v, r, rtol=tol("s"), atol=tol("s"))

    @pytest.mark.parametrize("approach", ["fused", "separated"])
    def test_lda_padding_matches_reference(self, approach):
        sizes = [5, 33, 33, 64, 17, 5, 33]
        ldas = [8, 40, 40, 64, 32, 8, 48]  # repeated (n, lda) -> real buckets
        mats = make_spd_batch(sizes, "d", seed=11)
        ref, ref_infos = factorize(sizes, mats, approach, True, ldas=ldas)
        vec, vec_infos = factorize(sizes, mats, approach, False, ldas=ldas)
        assert np.array_equal(ref_infos, vec_infos)
        for n, lda, r, v in zip(sizes, ldas, ref, vec):
            np.testing.assert_allclose(v[:n, :n], r[:n, :n], rtol=1e-12, atol=1e-12)
            # Both paths must leave the padding rows untouched.
            assert np.all(r[n:, :] == -777.0)
            assert np.all(v[n:, :] == -777.0)
        worst = max(
            cholesky_residual(a, v[:n, :n])
            for a, v, n in zip(mats, vec, sizes)
        )
        assert worst < 1e-13

    @pytest.mark.parametrize("approach", ["fused", "separated"])
    def test_failed_matrices_match_reference(self, approach):
        """Early-terminated (non-SPD) matrices: same infos, same partial
        factors, and no writes past the failing column."""
        sizes = [48, 48, 48, 48, 32]
        mats = make_spd_batch(sizes, "d", seed=2)
        mats[1][20, 20] = -5.0  # fails at pivot 21
        mats[3][0, 0] = -1.0  # fails immediately
        ref, ref_infos = factorize(
            sizes, [m.copy() for m in mats], approach, True, on_error="info"
        )
        vec, vec_infos = factorize(
            sizes, [m.copy() for m in mats], approach, False, on_error="info"
        )
        assert np.array_equal(ref_infos, vec_infos)
        assert ref_infos[1] != 0 and ref_infos[3] != 0
        assert ref_infos[0] == ref_infos[2] == ref_infos[4] == 0
        for r, v in zip(ref, vec):
            np.testing.assert_allclose(v, r, rtol=1e-12, atol=1e-12)

    def test_env_var_selects_reference(self, monkeypatch):
        import importlib

        monkeypatch.setenv("REPRO_REFERENCE_KERNELS", "1")
        mod = importlib.reload(grouping)
        try:
            assert mod.reference_enabled()
        finally:
            monkeypatch.delenv("REPRO_REFERENCE_KERNELS")
            importlib.reload(grouping)
        assert not grouping.reference_enabled()


class TestRowBinnedFusedStep:
    """One fused launch per step over orders that share padded row bins."""

    NB = 16
    # 1, below nb, non-multiples of nb, a multiple, and orders whose
    # remaining rows fall in three different ROW_BIN-wide bins.
    SIZES = [1, 7, 23, 45, 64, 100, 150, 7, 45, 100]
    # (matrix, 0-based pivot made negative): mid-tile in a matrix
    # shorter than its bin's panel, at a tile boundary, mid-tile, and at
    # the boundary of a last, partial panel.
    INDEFINITE = [(1, 3), (3, 32), (5, 20), (6, 144)]
    NAN = (8, 30, 5)  # matrix 8 gets NaN at (30, 5); fails at pivot 31

    def _batch(self, precision):
        mats = make_spd_batch(self.SIZES, precision, seed=21)
        for i, col in self.INDEFINITE:
            mats[i][col, col] = -1.0
        i, r, c = self.NAN
        mats[i][r, c] = mats[i][c, r] = np.nan
        return mats

    def _factorize(self, mats, reference, ldas=None, precision="d"):
        return factorize(self.SIZES, [m.copy() for m in mats], "fused", reference,
                         ldas=ldas, precision=precision, nb=self.NB)

    @pytest.mark.parametrize("precision", ["s", "d", "c", "z"])
    @pytest.mark.parametrize("padded", [False, True])
    def test_mixed_bins_match_reference(self, precision, padded):
        assert max(self.SIZES) > 2 * grouping.ROW_BIN  # three bins at step 0
        mats = self._batch(precision)
        ldas = [n + 3 for n in self.SIZES] if padded else None
        ref, ref_infos = self._factorize(mats, True, ldas, precision)
        vec, vec_infos = self._factorize(mats, False, ldas, precision)
        assert np.array_equal(ref_infos, vec_infos)
        expected = np.zeros(len(self.SIZES), dtype=np.int64)
        for i, col in self.INDEFINITE:
            expected[i] = col + 1
        expected[self.NAN[0]] = self.NAN[1] + 1
        assert np.array_equal(vec_infos, expected)
        for n, r, v in zip(self.SIZES, ref, vec):
            np.testing.assert_allclose(v, r, rtol=tol(precision), atol=tol(precision))
            if padded:
                assert np.all(v[n:, :] == -777.0)

    @pytest.mark.parametrize("precision", ["d", "z"])
    def test_alone_matches_inside_mixed_stack(self, precision):
        mats = self._batch(precision)
        mixed, infos = self._factorize(mats, False, precision=precision)
        for i in (0, 2, 4, 7, 9):  # the SPD matrices, from two row bins
            assert infos[i] == 0
            device = Device()
            batch = VBatch.from_host(device, [mats[i].copy()])
            with grouping.reference_numerics(False):
                potrf_vbatched(device, batch, PotrfOptions(approach="fused", nb=self.NB))
            alone = batch.matrices[0].data
            err = np.linalg.norm(alone - mixed[i]) / np.linalg.norm(alone)
            assert err <= 1e-13

    def test_bucket_step_matches_single_matrix_step(self):
        mats = self._batch("d")[2:7]  # orders 23, 45, 64, 100, 150
        j0 = self.NB
        stacked = [m.copy() for m in mats]
        singles = [m.copy() for m in mats]
        for a in stacked + singles:  # factor the first panel exactly
            fused_potrf.fused_step_numerics(a, 0, self.NB)
        infos = grouping.bucket_fused_step(stacked, j0, self.NB)
        for a, single, info in zip(stacked, singles, infos):
            assert info == fused_potrf.fused_step_numerics(single, j0, self.NB)
            np.testing.assert_allclose(a, single, rtol=1e-12, atol=1e-12)

    def test_row_bins_group_by_remaining_rows(self):
        w = grouping.ROW_BIN
        rows = np.array([w + 1, 1, w, 2 * w + 5, w + 7, 3])
        bins = grouping.row_bins(rows)
        assert [b.tolist() for b in bins] == [[1, 2, 5], [0, 4], [3]]


def _stratified_sizes(count, max_size, rng):
    """One order per stratum of ``1..max_size`` (``count`` strata)."""
    edges = np.linspace(0, max_size, count + 1)
    return np.clip(np.ceil(rng.uniform(edges[:-1], edges[1:])), 1, max_size).astype(int)


class TestFusedWorkCounts:
    def test_one_potf2_per_row_bin_per_launch(self, monkeypatch):
        sizes = _stratified_sizes(300, 256, np.random.default_rng(5))
        mats = make_spd_batch(sizes.tolist(), "d", seed=4)
        potf2_calls = []
        real_potf2 = grouping.batched_potf2

        def counting_potf2(t):
            potf2_calls.append(t.shape[0])
            return real_potf2(t)

        def forbidden(*args, **kwargs):
            raise AssertionError("per-matrix fused step outside reference mode")

        launches = []
        real_run = FusedPotrfStepKernel.run_numerics

        def counting_run(self):
            j0 = self.step * self.nb
            sizes_i = self.batch.sizes_host[self.indices]
            live = (sizes_i > j0) & (self.batch.infos_dev.data[self.indices] == 0)
            remaining = sizes_i[live] - j0
            bins = len(np.unique((remaining - 1) // grouping.ROW_BIN))
            limit = math.ceil(self.max_m / grouping.ROW_BIN)
            before = len(potf2_calls)
            real_run(self)
            launches.append((len(potf2_calls) - before, bins, limit, int(live.sum())))

        monkeypatch.setattr(grouping, "batched_potf2", counting_potf2)
        monkeypatch.setattr(fused_potrf, "fused_step_numerics", forbidden)
        monkeypatch.setattr(panel_potf2, "fused_step_numerics", forbidden)
        monkeypatch.setattr(FusedPotrfStepKernel, "run_numerics", counting_run)
        device = Device()
        batch = VBatch.from_host(device, mats)
        with grouping.reference_numerics(False):
            potrf_vbatched(device, batch, PotrfOptions(approach="fused"))
        assert np.all(batch.infos_dev.data == 0)
        assert launches
        for calls, bins, limit, live in launches:
            assert calls == bins <= limit
        # Every live matrix of every launch went through a stacked call.
        assert sum(potf2_calls) == sum(live for *_, live in launches)
        assert len(potf2_calls) == sum(calls for calls, *_ in launches)


class TestBucketHelpers:
    def test_partition_first_seen_order(self):
        keys = [(8, 8), (4, 4), (8, 8), (4, 8), (4, 4)]
        buckets = grouping.partition_buckets(keys)
        assert [b.key for b in buckets] == [(8, 8), (4, 4), (4, 8)]
        assert [b.positions.tolist() for b in buckets] == [[0, 2], [1, 4], [3]]

    def test_grouped_first_seen_preserves_issue_order(self):
        vals = np.array([7, 3, 7, 7, 5, 3])
        uniq, counts = grouping.grouped_first_seen(vals)
        assert uniq.tolist() == [7, 3, 5]
        assert counts.tolist() == [3, 2, 1]

    def test_grouped_first_seen_empty(self):
        uniq, counts = grouping.grouped_first_seen(np.array([], dtype=np.int64))
        assert uniq.size == 0 and counts.size == 0


class TestMeasuredPercoreBaseline:
    SIZES = np.array([24, 40, 16, 32, 8, 48, 12, 20])

    def test_dynamic_thread_pool_factorizes(self):
        mats = make_spd_batch(self.SIZES.tolist(), "d", seed=3)
        orig = [a.copy() for a in mats]
        r = run_cpu_percore_measured(
            self.SIZES, "d", scheduling="dynamic", workers=3, matrices=mats
        )
        assert r.label == "cpu-1core-dynamic-measured"
        assert r.elapsed > 0 and r.extra["failed"] == 0
        assert r.core_busy.shape == (3,)
        worst = max(cholesky_residual(a, l) for a, l in zip(orig, mats))
        assert worst < 1e-13

    def test_static_round_robin(self):
        r = run_cpu_percore_measured(self.SIZES, "d", scheduling="static", workers=2)
        assert r.label == "cpu-1core-static-measured"
        assert r.extra["workers"] == 2 and r.extra["failed"] == 0
        assert r.core_busy.shape == (2,)
        assert 0.0 < r.extra["utilization"] <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_cpu_percore_measured(np.array([]), "d")
        with pytest.raises(ValueError):
            run_cpu_percore_measured(self.SIZES, "d", scheduling="guided")
        with pytest.raises(ValueError):
            run_cpu_percore_measured(self.SIZES, "d", executor="mpi")
        with pytest.raises(ValueError):
            run_cpu_percore_measured(self.SIZES, "d", matrices=[np.eye(2)])

    def test_modeled_and_measured_report_same_flops(self):
        modeled = run_cpu_percore(self.SIZES, "d")
        measured = run_cpu_percore_measured(self.SIZES, "d", workers=2)
        assert modeled.total_flops == measured.total_flops
