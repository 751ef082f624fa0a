"""Each output check accepts a correct output and rejects a corrupted one.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import numpy as np
import pytest
import scipy.linalg.lapack as lapack

from perfbench import checks
from perfbench.tracing import SpanRecorder, layer_metrics, self_time


# -- factor-sharded ---------------------------------------------------------
@pytest.fixture
def factored():
    rng = np.random.default_rng(0)
    mats = []
    for n in (5, 9, 17, 3):
        m = rng.standard_normal((n, n))
        mats.append(m @ m.T + n * np.eye(n))
    mats[2][4, 4] = -1.0  # indefinite: LAPACK stops at column 5
    infos = [int(lapack.dpotrf(a, lower=1)[1]) for a in mats]
    refs = [np.linalg.cholesky(a) if i == 0 else None for a, i in zip(mats, infos)]
    outputs = [lapack.dpotrf(a, lower=1)[0] for a in mats]
    return infos, outputs, refs


def test_factor_check_accepts_lapack_output(factored):
    infos, outputs, refs = factored
    assert infos[2] == 5
    assert checks.check_factors(infos, outputs, infos, refs) == 0


def test_factor_check_rejects_flipped_info(factored):
    infos, outputs, refs = factored
    for i in (0, 2):  # an SPD matrix reported failed; the indefinite one reported fine
        flipped = list(infos)
        flipped[i] = 0 if infos[i] else 1
        assert checks.check_factors(flipped, outputs, infos, refs) == 1


def test_factor_check_rejects_perturbed_entry(factored):
    infos, outputs, refs = factored
    bad = [f.copy() for f in outputs]
    bad[1][6, 3] *= 1.0 + 1e-8
    assert checks.check_factors(infos, bad, infos, refs) == 1


def test_factor_check_ignores_upper_triangle(factored):
    infos, outputs, refs = factored
    junk = [f.copy() for f in outputs]
    junk[1][0, 5] = 1e9  # the factor lives in the lower triangle only
    assert checks.check_factors(infos, junk, infos, refs) == 0


# -- hmatrix-compress -------------------------------------------------------
REF_RANKS = {(0, 2): 7, (0, 3): 5, (1, 3): 7}


def test_compression_check_accepts_matching_ranks():
    assert checks.check_compression(dict(REF_RANKS), REF_RANKS, 1e-6, 1e-6, 0, 4) == 0


@pytest.mark.parametrize("delta", [-1, 1])
def test_compression_check_rejects_rank_off_by_one(delta):
    ranks = dict(REF_RANKS)
    ranks[(0, 3)] += delta
    assert checks.check_compression(ranks, REF_RANKS, 1e-6, 1e-6, 0, 4) == 1


def test_compression_check_rejects_error_and_cholesky_failures():
    assert checks.check_compression(dict(REF_RANKS), REF_RANKS, 51e-6, 1e-6, 0, 4) == 3
    assert checks.check_compression(dict(REF_RANKS), REF_RANKS, 1e-6, 1e-6, 2, 4) == 2
    missing = dict(REF_RANKS)
    del missing[(1, 3)]
    assert checks.check_compression(missing, REF_RANKS, 1e-6, 1e-6, 0, 4) == 1


# -- serve-timing -----------------------------------------------------------
SIZES = {0: 10, 1: 12, 2: 11, 3: 200, 4: 180}
BATCH_OF = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}


def _phase():
    resolutions = {k: 1 for k in SIZES}
    responses = {k: (0, BATCH_OF[k]) for k in SIZES}
    records = [
        (b, sum(1 for k in SIZES if BATCH_OF[k] == b),
         sum(checks.potrf_flops(SIZES[k]) for k in SIZES if BATCH_OF[k] == b))
        for b in (0, 1)
    ]
    return resolutions, responses, records


def test_serve_check_accepts_clean_phase():
    assert checks.check_serve_phase(SIZES, *_phase(), max_batch=32) == 0


@pytest.mark.parametrize("count", [0, 2])
def test_serve_check_rejects_request_resolved_never_or_twice(count):
    resolutions, responses, records = _phase()
    resolutions[3] = count
    if count == 0:  # never served: its batch went out without it
        del responses[3]
        records[1] = (1, 1, checks.potrf_flops(SIZES[4]))
    assert checks.check_serve_phase(SIZES, resolutions, responses, records, 32) == 1


def test_serve_check_rejects_nonzero_info():
    resolutions, responses, records = _phase()
    responses[1] = (4, 0)
    assert checks.check_serve_phase(SIZES, resolutions, responses, records, 32) == 1


def test_serve_check_rejects_oversized_batch_and_wrong_flops():
    resolutions, responses, records = _phase()
    assert checks.check_serve_phase(SIZES, resolutions, responses, records, max_batch=2) == 3
    b, size, useful = records[1]
    records[1] = (b, size, useful * (1 + 1e-6))
    assert checks.check_serve_phase(SIZES, resolutions, responses, records, 32) == 2


def test_serve_check_rejects_batch_sizes_not_summing_to_requests():
    resolutions, responses, records = _phase()
    records[0] = (0, 2, records[0][2])
    assert checks.check_serve_phase(SIZES, resolutions, responses, records, 32) == 3


# -- closed forms and tracing -----------------------------------------------
def test_padded_waste_is_zero_for_equal_sizes_and_grows_with_spread():
    assert checks.padded_waste([("potrf", [64, 64, 64])]) == 0.0
    mixed = checks.padded_waste([("geqrf", [8, 64])])
    assert mixed == pytest.approx(0.5 * (1 - checks.geqrf_flops(8) / checks.geqrf_flops(64)))


class _S:
    def __init__(self, start, end, name="x", parent=None):
        self.start, self.end, self.name, self.parent = start, end, name, parent


def test_self_time_subtracts_union_of_children():
    parent = _S(0.0, 10.0)
    kids = [_S(1.0, 3.0), _S(2.0, 4.0), _S(8.0, 12.0)]
    assert self_time(parent, kids) == pytest.approx(10.0 - 3.0 - 2.0)


def test_recorder_nests_spans_and_skips_same_name_reentry():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: [inner(), inner()])
    again = rec.wrap("outer", lambda: outer())
    again()
    names = [s.name for s in rec.spans]
    assert names == ["inner", "inner", "outer"]
    assert all(s.parent is rec.spans[-1] for s in rec.spans[:2])
    assert layer_metrics(rec)["batcher.batches"] == 0

