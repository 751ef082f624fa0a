"""Host-time benchmark of the repro stack: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-timing --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run and writes its spans to
``perfbench/out/``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set before NumPy loads: one BLAS thread, so that a workload's busy
#: threads stay within the cores it may use (see README.md).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-ups per run; ``setup_s`` is the median import time plus the
#: median set-up time, each over this many samples.
SETUPS = 3

_IMPORT_PROBE = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"

WORKLOAD_NAMES = ("serve-timing", "factor-sharded", "hmatrix-compress")

E2E_UNITS = {
    "setup_s": "s",
    "matrices_per_s": "1/s",
    "batch_ms_p50": "ms",
    "batch_ms_p90": "ms",
    "solve_s": "s",
    "sim_gflops": "Gflop/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics the traced run adds to :func:`layer_metrics`'s.
TRACE_EXTRAS = (
    "kernels.lapack_floor_ratio", "model.sim_gflops", "trace.overhead_s", "trace.spans",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _import_s(first: float) -> float:
    """Median seconds to import ``repro``: this process's own import and
    ``SETUPS - 1`` fresh interpreters (one import is too noisy alone)."""
    import numpy as np

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = [first]
    for _ in range(SETUPS - 1):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                               capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(probe.stdout))
    return float(np.median(samples))


def _untraced(wl, seconds: float, first_import_s: float):
    import numpy as np

    import_s = _import_s(first_import_s)
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)

    rounds = []
    start = time.perf_counter()
    while len(rounds) < wl.MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(wl.round(len(rounds)))

    ok = [r for r in rounds if r.failed < r.attempted]
    walls = [r.wall_s for r in ok]
    batch_s = [b for r in ok for b in r.batch_s]
    first = rounds[: wl.MIN_ROUNDS]
    sim_s = sum(r.sim_s for r in first)
    metrics = {
        "setup_s": import_s + float(np.median(setups)),
        "matrices_per_s": float(np.median([r.matrices / r.wall_s for r in ok])) if ok else 0.0,
        "batch_ms_p50": 1e3 * float(np.percentile(batch_s, 50)) if batch_s else 0.0,
        "batch_ms_p90": 1e3 * float(np.percentile(batch_s, 90)) if batch_s else 0.0,
        "solve_s": float(np.median(walls)) if walls else 0.0,
        "sim_gflops": sum(r.useful_flops for r in first) / sim_s / 1e9 if sim_s else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
    }
    print("round seconds " + " ".join(f"{w:.3f}" for w in walls))
    print(f"rounds {len(rounds)}, batch samples {len(batch_s)}, "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s, import {import_s:.3f} s")
    return rounds, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def _traced(wl, seed: int):
    import numpy as np

    from perfbench.tracing import SpanRecorder, layer_metrics

    wl.setup()
    floor_s = float(np.median([wl.lapack_floor_s() for _ in range(3)]))
    rec = SpanRecorder()
    rounds, traced, overheads = [], [], []
    for pair in range(wl.TRACE_PAIRS):
        plain = wl.round(2 * pair)
        rec.install()
        try:
            marked = wl.round(2 * pair + 1)
        finally:
            rec.restore()
        rounds += [plain, marked]
        traced.append(marked)
        overheads.append(marked.wall_s - plain.wall_s)

    values = layer_metrics(rec)
    numerics = values["kernels.run_numerics_s"] / len(traced)
    values["kernels.lapack_floor_ratio"] = numerics / floor_s if floor_s else 0.0
    sim_s = sum(r.sim_s for r in traced)
    values["model.sim_gflops"] = sum(r.useful_flops for r in traced) / sim_s / 1e9 if sim_s else 0.0
    values["trace.overhead_s"] = float(np.median(overheads))
    values["trace.spans"] = len(rec.spans)

    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{wl.name}-seed{seed}.json"
    traced_s = sum(r.wall_s for r in traced)
    rec.dump(path, {"workload": wl.name, "seed": seed, "traced_rounds": len(traced),
                    "traced_s": traced_s, "lapack_floor_s": floor_s})
    print(f"traced rounds {len(traced)} ({traced_s:.3f} s), lapack floor {floor_s:.4f} s, "
          f"spans {len(rec.spans)} -> {path.relative_to(ROOT)}")
    return rounds, {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("gflops"):
        return "Gflop/s"
    if name == "batcher.mean_batch_size":
        return "matrices"
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: part of setup_s)

    import_s = time.perf_counter() - t0

    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    if wl.CPUS is not None:
        # Threads started from here on (the shard threads) inherit this.
        cpus = sorted(os.sched_getaffinity(0))[: wl.CPUS]
        os.sched_setaffinity(0, cpus)
    if args.trace:
        rounds, metrics = _traced(wl, args.seed)
    else:
        rounds, metrics = _untraced(wl, args.seconds, import_s)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}")
    # Every operation whose check failed is in ``failed``; all others passed.
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
