"""In-memory span recorder wrapped around the program's layer boundaries.

The traced run patches the public functions of each layer for the
duration of one traced round and restores them afterwards; ``src/`` is
never edited.  Every wrapped call records one span: its name, start and
end (host ``perf_counter`` seconds), the enclosing span and the batch it
belongs to (one id per ``BatchServer.pump`` or ``run_potrf_vbatched``
call).  The enclosing span travels in a context variable, so it follows
the program into the shard threads that ``execute_concurrently`` starts
under a copy of the caller's context.  Spans stay in memory until
:meth:`SpanRecorder.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import Counter

from .checks import padded_waste

__all__ = ["SpanRecorder", "layer_metrics", "self_time"]


class _Span:
    __slots__ = ("name", "start", "end", "parent", "batch", "thread")

    def __init__(self, name, start, parent, batch):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.batch = batch
        self.thread = threading.get_ident()


class SpanRecorder:
    """Collects spans and counts from the wrapped layer calls."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.counts: Counter = Counter()
        #: ``(op, sizes)`` of every batch the batcher formed.
        self.batches: list[tuple[str, list[int]]] = []
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._batch = contextvars.ContextVar("perfbench_batch", default=None)
        self._batch_ids = itertools.count()
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def wrap(self, name: str, fn, new_batch: bool = False):
        """``fn`` recording one span per call.

        A call made while a span of the same name is already open (a
        subclass reaching its parent's ``run_numerics``) records nothing,
        so inclusive times never count one interval twice.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current.get()
            node = parent
            while node is not None:
                if node.name == name:
                    return fn(*args, **kwargs)
                node = node.parent
            batch_token = None
            if new_batch:
                batch_token = self._batch.set(next(self._batch_ids))
            span = _Span(name, time.perf_counter(), parent, self._batch.get())
            token = self._current.set(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._current.reset(token)
                if batch_token is not None:
                    self._batch.reset(batch_token)
                self.spans.append(span)

        return traced

    def counting(self, name: str, fn):
        """``fn`` bumping ``counts[name]`` per call, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            # Shard threads call in concurrently; += alone can lose updates.
            with self._count_lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------
    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`.

        Class attributes are read from ``__dict__`` so a classmethod is
        re-wrapped as one.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from repro.core import batch as core_batch
        from repro.core import driver as core_driver
        from repro.core import plan as core_plan
        from repro.device import device as dev
        from repro.device import executor
        from repro.device.kernel import Kernel
        from repro.extensions import kernels as ext_kernels
        from repro.serving import batcher, metrics, server

        span = self.wrap

        self.patch(server.BatchServer, "submit", lambda f: span("server.submit", f))
        self.patch(server.BatchServer, "pump",
                   lambda f: span("server.pump", f, new_batch=True))
        self.patch(batcher.Batcher, "next_batch", self._next_batch)
        self.patch(metrics.ServerMetrics, "record_batch",
                   lambda f: span("metrics.record_batch", f))
        self.patch(core_batch.VBatch, "from_host", lambda f: span("batch.from_host", f))
        for attr in ("download_matrices", "download_infos"):
            self.patch(core_batch.VBatch, attr, lambda f: span("batch.download", f))
        self.patch(core_plan.PlanCache, "get_or_build", self._get_or_build)
        self.patch(dev.Device, "prepare_launch", lambda f: span("device.prepare_launch", f))
        self.patch(dev.Device, "launch", lambda f: self.counting("device.launches", f))
        self.patch(executor.PlanExecutor, "execute", lambda f: span("executor.execute", f))
        self.patch(executor, "execute_concurrently",
                   lambda f: span("topology.execute_concurrently", f))
        for cls in _kernel_classes(Kernel):
            if "run_numerics" in cls.__dict__:
                self.patch(cls, "run_numerics", lambda f: span("kernels.run_numerics", f))
        self.patch(ext_kernels, "jacobi_sweep", lambda f: span("hostblas.jacobi_sweep", f))
        self.patch(server, "run_op_vbatched", lambda f: span("ops.run_op_vbatched", f))
        for module in (core_driver, server):
            self.patch(module, "run_potrf_vbatched",
                       lambda f: span("driver.run_potrf_vbatched", f, new_batch=True))

    def _next_batch(self, fn):
        traced = self.wrap("batcher.next_batch", fn)

        @functools.wraps(fn)
        def next_batch(*args, **kwargs):
            batch = traced(*args, **kwargs)
            if batch:
                self.batches.append((batch[0].factor_op, [r.n for r in batch]))
            return batch

        return next_batch

    def _get_or_build(self, fn):
        traced = self.wrap("plan.get_or_build", fn)

        @functools.wraps(fn)
        def get_or_build(cache, key, batch, build):
            return traced(cache, key, batch, self.wrap("plan.build", build))

        return get_or_build

    # -- output ------------------------------------------------------------
    def dump(self, path, meta: dict) -> None:
        """Write every span (ids are list positions) as one JSON file."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        threads = {t: i for i, t in enumerate(dict.fromkeys(s.thread for s in self.spans))}
        doc = dict(meta)
        doc["spans"] = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": None if s.parent is None else index.get(id(s.parent)),
                "batch": s.batch,
                "thread": threads[s.thread],
            }
            for s in self.spans
        ]
        doc["counts"] = dict(self.counts)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _kernel_classes(base):
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def self_time(span, children) -> float:
    """``span``'s duration minus the part of it its children cover."""
    covered = 0.0
    cursor = span.start
    for start, end in sorted((max(c.start, span.start), min(c.end, span.end)) for c in children):
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return (span.end - span.start) - covered


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer totals over every span recorded so far."""
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    children: dict[int, list] = {}
    for s in rec.spans:
        inclusive[s.name] += s.end - s.start
        calls[s.name] += 1
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    execute_self = shard_wait = 0.0
    for s in rec.spans:
        kids = children.get(id(s), [])
        if s.name == "executor.execute":
            execute_self += self_time(s, kids)
        elif s.name == "topology.execute_concurrently":
            longest = max(
                (k.end - k.start for k in kids if k.name == "executor.execute"), default=0.0
            )
            shard_wait += (s.end - s.start) - longest

    sizes = [len(b) for _, b in rec.batches]
    return {
        "server.submit_s": inclusive["server.submit"],
        "batcher.next_batch_s": inclusive["batcher.next_batch"],
        "batcher.batches": len(sizes),
        "batcher.mean_batch_size": sum(sizes) / len(sizes) if sizes else 0.0,
        "batcher.padded_waste_ratio": padded_waste(rec.batches),
        "metrics.record_batch_s": inclusive["metrics.record_batch"],
        "batch.from_host_s": inclusive["batch.from_host"],
        "batch.download_s": inclusive["batch.download"],
        "plan.get_or_build_s": inclusive["plan.get_or_build"],
        "plan.lookups": calls["plan.get_or_build"],
        "plan.builds": calls["plan.build"],
        "device.prepare_launch_s": inclusive["device.prepare_launch"],
        "device.prepare_launch_calls": calls["device.prepare_launch"],
        "device.launches": rec.counts["device.launches"],
        "executor.execute_s": execute_self,
        "topology.execute_concurrently_s": inclusive["topology.execute_concurrently"],
        "topology.shard_wait_s": shard_wait,
        "kernels.run_numerics_s": inclusive["kernels.run_numerics"],
        "hostblas.jacobi_sweep_s": inclusive["hostblas.jacobi_sweep"],
        "hostblas.jacobi_sweep_calls": calls["hostblas.jacobi_sweep"],
        "ops.run_op_vbatched_s": inclusive["ops.run_op_vbatched"],
    }
