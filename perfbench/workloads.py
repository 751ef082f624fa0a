"""The benchmark's three workloads.

Each workload makes its inputs and reference results from the seed in
its constructor (untimed), builds the system under test in
:meth:`setup` (timed as set-up, warm-up pass included), and runs one
unit of timed work per :meth:`round`.  Round ``i`` always does the same
work for the same seed, so counts taken over fixed rounds repeat
exactly.  Every round checks its outputs with :mod:`perfbench.checks`
after its timer has stopped.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.lapack as lapack

from . import checks

MAX_N = 256


@dataclass
class RoundResult:
    """One round's timings, outcome counts and simulated-device totals."""

    wall_s: float
    attempted: int
    failed: int
    #: Matrices (requests) the round resolved.
    matrices: int
    #: Host seconds of each call that dispatched one batch.
    batch_s: list = field(default_factory=list)
    useful_flops: float = 0.0
    sim_s: float = 0.0


def _failed_round(attempted: int) -> RoundResult:
    """A round the program aborted: every operation in it failed."""
    traceback.print_exc(file=sys.stderr)
    return RoundResult(wall_s=float("nan"), attempted=attempted, failed=attempted, matrices=0)


def _spd(n: int, rng) -> np.ndarray:
    """``M M^T + n I`` with standard-normal ``M``: SPD, condition < ~10."""
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def _stratified_sizes(count: int, rng) -> np.ndarray:
    """``count`` orders uniform on ``1..MAX_N``, one per equal-width stratum.

    Plain uniform draws move the batch's total flops by ~9 % (quartile
    spread) from seed to seed; one draw per stratum keeps the work of
    every seed within a fraction of a percent while the order of the
    matrices and their values still come from the seed.
    """
    strata = (np.arange(count) + rng.random(count)) / count
    sizes = 1 + np.floor(strata * MAX_N).astype(np.int64)
    rng.shuffle(sizes)
    return sizes


class ServeTiming:
    """Closed loop of Cholesky requests on one long-lived timing-only server."""

    name = "serve-timing"
    CPUS = None
    #: Requests per timed phase; 128 are kept outstanding throughout.
    PHASE = 2048
    OUTSTANDING = 128
    WARMUP = 512
    MAX_BATCH = 32
    #: ``sim_gflops`` covers exactly this many first rounds.
    MIN_ROUNDS = 4
    TRACE_PAIRS = 6

    def __init__(self, seed: int):
        self.seed = seed
        # Timing-only devices never read values, so requests of one
        # order share one zero matrix (the server never writes to it).
        self.zeros = {n: np.zeros((n, n)) for n in range(1, MAX_N + 1)}
        self.server = None

    def _sizes(self, index: int, count: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 0, index + 1])
        return rng.integers(1, MAX_N + 1, size=count)

    def setup(self) -> None:
        from repro import BatchServer, Device

        self.server = BatchServer(Device(execute_numerics=False), max_batch=self.MAX_BATCH)
        self._phase(self._sizes(-1, self.WARMUP))

    def round(self, index: int) -> RoundResult:
        try:
            return self._phase(self._sizes(index, self.PHASE))
        except Exception:
            return _failed_round(self.PHASE)

    def lapack_floor_s(self) -> float:
        return 0.0  # no numerics run on this workload

    def _phase(self, sizes) -> RoundResult:
        server = self.server
        zeros = self.zeros
        first_record = len(server.metrics.batches)
        resolutions: dict[int, int] = {}

        def on_done(fut):
            resolutions[fut.req_id] = resolutions.get(fut.req_id, 0) + 1

        futures = []
        batch_s = []

        def submit(n):
            fut = server.submit(zeros[int(n)])
            fut.add_done_callback(on_done)
            futures.append((fut, int(n)))

        clock = time.perf_counter
        t0 = clock()
        head = min(self.OUTSTANDING, len(sizes))
        for n in sizes[:head]:
            submit(n)
        nxt = head
        outstanding = head
        while outstanding:
            tp = clock()
            served = server.pump(force=True)
            if not served:
                break
            batch_s.append(clock() - tp)
            outstanding -= served
            for n in sizes[nxt: nxt + served]:
                submit(n)
            refill = min(served, len(sizes) - nxt)
            nxt += refill
            outstanding += refill
        wall = clock() - t0

        req_sizes, responses = {}, {}
        for fut, n in futures:
            req_sizes[fut.req_id] = n
            if fut.done() and fut.exception(timeout=0) is None:
                resp = fut.result(timeout=0)
                responses[fut.req_id] = (resp.info, resp.batch_id)
        records = server.metrics.batches[first_record:]
        failed = checks.check_serve_phase(
            req_sizes, resolutions, responses,
            [(r.batch_id, r.size, r.useful_flops) for r in records], self.MAX_BATCH,
        )
        return RoundResult(
            wall_s=wall,
            attempted=len(sizes),
            failed=failed,
            matrices=sum(r.size for r in records),
            batch_s=batch_s,
            useful_flops=sum(r.useful_flops for r in records),
            sim_s=sum(r.sim_elapsed for r in records),
        )


class FactorSharded:
    """``run_potrf_vbatched`` on one fp64 batch over a two-device group.

    The process keeps to one core (:attr:`CPUS`).  With two cores the two
    shard threads pass the interpreter lock from core to core after every
    small NumPy call; the round then takes about 1.8x as long and its
    median moves by 15-28 % (quartile spread) from one run to the next,
    against about 5 % for the single-threaded workloads.
    """

    name = "factor-sharded"
    #: Cores the process may use (``None``: all it was given).
    CPUS = 1
    COUNT = 300
    #: One indefinite matrix per sixth of the size range (2 % of 300).
    INDEFINITE = 6
    WARMUP = 24
    MIN_ROUNDS = 1
    TRACE_PAIRS = 3

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.sizes = _stratified_sizes(self.COUNT, rng)
        self.matrices = [_spd(int(n), rng) for n in self.sizes]
        by_size = np.argsort(self.sizes, kind="stable")
        width = self.COUNT // self.INDEFINITE
        for j in range(self.INDEFINITE):
            i = int(by_size[j * width + int(rng.integers(width))])
            col = int(rng.integers(self.sizes[i]))
            self.matrices[i][col, col] = -1.0  # pivot ``col`` goes negative
        self.ref_infos = [int(lapack.dpotrf(a, lower=1)[1]) for a in self.matrices]
        self.ref_factors = [
            np.linalg.cholesky(a) if info == 0 else None
            for a, info in zip(self.matrices, self.ref_infos)
        ]
        warm_sizes = _stratified_sizes(self.WARMUP, rng)
        self.warmup = [_spd(int(n), rng) for n in warm_sizes]
        self.group = None

    def setup(self) -> None:
        from repro import DeviceGroup

        self.group = DeviceGroup.simulated(2)
        self._factor(self.warmup)

    def round(self, index: int) -> RoundResult:
        try:
            return self._round()
        except Exception:
            return _failed_round(self.COUNT)

    def _factor(self, matrices):
        from repro.core import driver
        from repro.core.batch import VBatch

        staging = self.group.staging_device
        clock = time.perf_counter
        t0 = clock()
        batch = VBatch.from_host(staging, matrices)
        try:
            tb = clock()
            result = driver.run_potrf_vbatched(
                staging, batch, int(batch.sizes_host.max()), driver.PotrfOptions(),
                devices=self.group,
            )
            batch_s = clock() - tb
            factors = batch.download_matrices()
        finally:
            batch.free()
        return clock() - t0, batch_s, result, factors

    def _round(self) -> RoundResult:
        wall, batch_s, result, factors = self._factor(self.matrices)
        failed = checks.check_factors(result.infos, factors, self.ref_infos, self.ref_factors)
        return RoundResult(
            wall_s=wall,
            attempted=self.COUNT,
            failed=failed,
            matrices=self.COUNT,
            batch_s=[batch_s],
            useful_flops=result.total_flops,
            sim_s=result.elapsed,
        )

    def lapack_floor_s(self) -> float:
        """Host seconds of per-matrix LAPACK ``dpotrf`` on the same inputs."""
        t0 = time.perf_counter()
        for a in self.matrices:
            lapack.dpotrf(a, lower=1)
        return time.perf_counter() - t0


def _gaussian_kernel(n_points: int, lengthscale: float, seed: int) -> np.ndarray:
    """Gaussian kernel over sorted uniform points, as the app defines it."""
    x = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, n_points))
    d = x[:, None] - x[None, :]
    return np.exp(-(d * d) / (2.0 * lengthscale * lengthscale))


def _fixed_clusters(n_points: int, width: int) -> list[slice]:
    """Blocks of ``width`` points; a shorter remainder joins the last one."""
    bounds = list(range(0, n_points, width)) + [n_points]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < width:
        bounds.pop(-2)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


class HmatrixCompress:
    """Block low-rank compression through one cross-op server, numerics on.

    Clusters have a fixed width, so every seed compresses the same tile
    shapes (six 40x40 and four 40x60 tiles; blocks of 40 and 60) and the
    host work does not move with the seed; the seed moves the points,
    hence every tile's values, ranks and Jacobi convergence.
    """

    name = "hmatrix-compress"
    CPUS = None
    N_POINTS = 260
    CLUSTER = 40
    WARMUP_POINTS = 120
    LENGTHSCALE = 0.12
    TOL = 1e-6
    RIDGE = 1e-6
    MAX_BATCH = 288
    MIN_ROUNDS = 1
    TRACE_PAIRS = 2

    def __init__(self, seed: int):
        self.seed = seed
        k = _gaussian_kernel(self.N_POINTS, self.LENGTHSCALE, seed)
        clusters = _fixed_clusters(self.N_POINTS, self.CLUSTER)
        self.diag = [k[c, c] + self.RIDGE * (c.stop - c.start) * np.eye(c.stop - c.start)
                     for c in clusters]
        self.tiles = {
            (i, j): k[clusters[i], clusters[j]]
            for i in range(len(clusters))
            for j in range(i + 2, len(clusters))
        }
        self.ref_ranks = {}
        for key, tile in self.tiles.items():
            s = np.linalg.svd(tile, compute_uv=False)
            self.ref_ranks[key] = int(np.count_nonzero(s > self.TOL * s[0]))
        self.server = None
        self._batch_s: list[float] = []

    def setup(self) -> None:
        from repro import BatchServer, Device

        server = BatchServer(Device(), policy="cross-op", max_batch=self.MAX_BATCH)

        # The app pumps the server itself; time each pump that dispatched.
        # The class attribute is looked up per call so that a traced round
        # runs through its wrapper.
        def timed_pump(force=False):
            t0 = time.perf_counter()
            served = type(server).pump(server, force=force)
            if served:
                self._batch_s.append(time.perf_counter() - t0)
            return served

        server.pump = timed_pump
        self.server = server
        self._compress(self.WARMUP_POINTS)

    def _compress(self, n_points: int):
        from repro.apps.hmatrix import compress_kernel_matrix

        return compress_kernel_matrix(
            self.server, n_points=n_points, lengthscale=self.LENGTHSCALE, tol=self.TOL,
            min_cluster=self.CLUSTER, max_cluster=self.CLUSTER, seed=self.seed,
            ridge=self.RIDGE,
        )

    def round(self, index: int) -> RoundResult:
        ops = len(self.diag) + len(self.tiles)
        try:
            return self._round(ops)
        except Exception:
            return _failed_round(ops)

    def _round(self, ops: int) -> RoundResult:
        first_record = len(self.server.metrics.batches)
        self._batch_s = []
        t0 = time.perf_counter()
        result = self._compress(self.N_POINTS)
        wall = time.perf_counter() - t0
        ranks = {(i, j): r for i, j, r in result.ranks}
        failed = checks.check_compression(
            ranks, self.ref_ranks, result.max_rel_error, self.TOL,
            result.potrf_failures, len(self.diag),
        )
        records = self.server.metrics.batches[first_record:]
        return RoundResult(
            wall_s=wall,
            attempted=ops,
            failed=failed,
            matrices=sum(r.size for r in records),
            batch_s=list(self._batch_s),
            useful_flops=sum(r.useful_flops for r in records),
            sim_s=sum(r.sim_elapsed for r in records),
        )

    def lapack_floor_s(self) -> float:
        """Host seconds of LAPACK on the same problems: ``dpotrf`` of each
        diagonal block, ``dgeqrf`` of each zero-embedded tile and a full
        SVD (``dgesdd``) of each ``R`` factor."""
        embedded = []
        for tile in self.tiles.values():
            order = max(tile.shape)
            e = np.zeros((order, order))
            e[: tile.shape[0], : tile.shape[1]] = tile
            embedded.append(e)
        t0 = time.perf_counter()
        for block in self.diag:
            lapack.dpotrf(block, lower=1)
        for e in embedded:
            qr = lapack.dgeqrf(e)[0]
            np.linalg.svd(np.triu(qr))
        return time.perf_counter() - t0


WORKLOADS = {w.name: w for w in (ServeTiming, FactorSharded, HmatrixCompress)}
