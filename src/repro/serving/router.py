"""The fleet front door: SLO classes, fair queuing, retries, shedding.

:class:`FleetRouter` sits in front of N :class:`~repro.serving.fleet.Replica`
batch servers and owns everything a single server cannot:

* **SLO classes** — every request belongs to one of the
  :data:`DEFAULT_SLOS` classes (``interactive`` / ``batch`` /
  ``best-effort``): a strict dispatch priority, a p95 target, and a
  shed level.  Under overload the router rejects the *lowest* classes
  first (typed :class:`~repro.errors.OverloadShedError`), which is what
  keeps the interactive tail flat instead of letting one shared queue
  collapse for everyone.
* **Weighted-fair tenancy** — within a class, tenants share capacity by
  start-time fair queuing (SFQ) over per-tenant FIFO queues: each
  admitted request gets a virtual start tag
  ``max(V, tenant_finish)`` and advances its tenant's finish tag by
  ``cost / weight``; dispatch always takes the smallest start tag, so
  no backlogged tenant is ever starved and long-run service tracks the
  configured weights.  Per-tenant quotas bound outstanding requests
  (typed :class:`~repro.errors.QuotaExceededError`).
* **Deadline-aware admission** — a request whose relative deadline the
  current backlog-delay estimate already dooms is refused up front
  (:class:`~repro.errors.DeadlineUnmeetableError`) instead of being
  served as a guaranteed miss.
* **Faults, retries, health** — a dispatch that dies with a retryable
  device fault (:class:`~repro.errors.DeviceError`,
  :class:`~repro.errors.PlanExecutionError`) is retried as a group on a
  *different* healthy replica with exponential backoff, bounded by the
  :class:`~repro.serving.faults.RetryPolicy`; repeated faults (or
  stall-slow batches) trip the replica's circuit breaker and eject it
  for a cooldown.  Retries exhausted resolve the client future with
  :class:`~repro.errors.RetriesExhaustedError` — an admitted request
  always terminates with a response or a typed error, never a hang.
* **Cancellation** — :meth:`FleetRouter.cancel` (and per-request hard
  ``timeout``) propagates through every stage: queued tickets drop out
  of the fair queues, forwarded tickets are pulled back out of the
  replica's batcher (``BatchServer.cancel``), and a dispatch that
  already launched completes but has its result discarded.

Two driving modes mirror :class:`~repro.serving.server.BatchServer`:
the deterministic synchronous :meth:`pump` loop on an injected
(virtual) clock — what the open-loop ``fleet-bench`` and the chaos CI
job drive — and a threaded mode (:meth:`start`) where each replica's
own worker batches and the router forwards/retries via future
callbacks.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    AdmissionError,
    ArgumentError,
    DeadlineUnmeetableError,
    OverloadShedError,
    QuotaExceededError,
    RequestCancelled,
    RetriesExhaustedError,
    ServingError,
)
from ..types import Precision
from .. import flops as _flops
from .faults import RetryPolicy
from .fleet import FleetMetrics, Replica, build_fleet
from .request import RequestFuture

__all__ = ["DEFAULT_SLOS", "FleetRouter", "SLOClass", "Ticket"]


@dataclass(frozen=True)
class SLOClass:
    """One service class: priority, latency target, shed behaviour.

    ``priority`` — smaller dispatches first (strict across classes).
    ``target_p95`` — the class's latency objective (seconds); the
    router never enforces it directly, but the chaos CI job asserts the
    interactive class stays under it while shedding.  ``shed_at`` —
    fraction of the router's ``queue_limit`` above which *new*
    submissions of this class are shed (``None`` = never shed early;
    only the hard queue limit refuses).  ``default_deadline`` — relative
    deadline applied when the caller gives none.
    """

    name: str
    priority: int
    target_p95: float | None = None
    default_deadline: float | None = None
    shed_at: float | None = None


DEFAULT_SLOS = {
    "interactive": SLOClass("interactive", 0, target_p95=0.05, default_deadline=0.1),
    "batch": SLOClass("batch", 1, shed_at=0.85),
    "best-effort": SLOClass("best-effort", 2, shed_at=0.5),
}


@dataclass(eq=False)
class Ticket:
    """One admitted request, as the router tracks it end to end.

    The client-facing handle: ``ticket.future.result()`` blocks for the
    terminal :class:`~repro.serving.request.Response` or typed error;
    ``router.cancel(ticket)`` abandons it.  ``outcome`` is one of
    ``"completed"`` / ``"failed"`` / ``"cancelled"`` once terminal, and
    ``completed_at`` stamps the router clock at that instant.
    """

    ticket_id: int
    matrix: np.ndarray
    rhs: np.ndarray | None
    tenant: str
    slo: SLOClass
    arrival: float
    cost: float
    deadline: float | None = None
    timeout: float | None = None
    future: RequestFuture = field(default_factory=RequestFuture)
    attempts: int = 0
    not_before: float = 0.0
    start_tag: float = 0.0
    cancelled: bool = False
    last_error: BaseException | None = None
    replica: Replica | None = None
    replica_future: RequestFuture | None = None
    outcome: str | None = None
    completed_at: float | None = None

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])


class _ClassQueue:
    """Start-time fair queuing across tenants within one SLO class."""

    def __init__(self):
        self.virtual = 0.0
        self.queues: dict[str, deque[Ticket]] = {}
        self.finish: dict[str, float] = {}
        self.size = 0

    def push(self, ticket: Ticket, weight: float) -> None:
        start = max(self.virtual, self.finish.get(ticket.tenant, 0.0))
        ticket.start_tag = start
        self.finish[ticket.tenant] = start + ticket.cost / max(weight, 1e-9)
        self.queues.setdefault(ticket.tenant, deque()).append(ticket)
        self.size += 1

    def _prune(self, q: deque) -> None:
        while q and q[0].outcome is not None:
            q.popleft()
            self.size -= 1

    def pop(self, now: float) -> Ticket | None:
        """The eligible head with the smallest start tag, or ``None``.

        A tenant whose head is backing off (``not_before`` in the
        future) is skipped — retries never block other tenants.
        """
        best = None
        for q in self.queues.values():
            self._prune(q)
            if not q:
                continue
            head = q[0]
            if head.not_before > now:
                continue
            if best is None or (head.start_tag, head.ticket_id) < (
                best.start_tag, best.ticket_id
            ):
                best = head
        if best is None:
            return None
        q = self.queues[best.tenant]
        q.popleft()
        self.size -= 1
        self.virtual = max(self.virtual, best.start_tag)
        return best

    def earliest_wakeup(self, now: float) -> float | None:
        """Soonest future instant a currently-blocked head unblocks."""
        times = []
        for q in self.queues.values():
            self._prune(q)
            if q and q[0].not_before > now:
                times.append(q[0].not_before)
        return min(times, default=None)

    def tickets(self) -> list[Ticket]:
        return [t for q in self.queues.values() for t in q if t.outcome is None]


@dataclass
class _TenantState:
    name: str
    weight: float = 1.0
    quota: int | None = None
    outstanding: int = 0


@dataclass
class _RetryGroup:
    not_before: float
    tickets: list
    exclude: str | None = None


class FleetRouter:
    """Front-end router over N replicated batch servers.

    Parameters
    ----------
    replicas:
        Pre-built :class:`~repro.serving.fleet.Replica` list; ``None``
        builds ``replica_count`` fresh ones via
        :func:`~repro.serving.fleet.build_fleet` (each with its own
        device group of ``devices_per_replica``, all sharing one plan
        cache, ``fault_injector`` installed on every server).
    queue_limit:
        Hard bound on admitted-but-unfinished requests; SLO shed levels
        are fractions of it.
    slos:
        Class table (name -> :class:`SLOClass`); defaults to
        :data:`DEFAULT_SLOS`.
    retry:
        :class:`~repro.serving.faults.RetryPolicy`; ``RetryPolicy(0)``
        disables re-dispatch.
    shed / admission_control:
        Master switches for overload shedding and deadline-aware
        admission (both on by default; the "no-fleet" bench baseline
        turns them off).
    slow_factor:
        A successful batch slower than ``slow_factor`` x the EMA batch
        time counts against its replica's health (stall detection).
    clock:
        Wall-clock source; the deterministic bench injects a virtual
        clock shared with every replica server.
    """

    def __init__(
        self,
        replicas: list[Replica] | None = None,
        *,
        replica_count: int = 2,
        devices_per_replica: int = 1,
        policy: str = "greedy-window",
        max_batch: int = 32,
        max_wait: float = 2e-3,
        queue_limit: int = 4096,
        slos: dict[str, SLOClass] | None = None,
        default_slo: str = "batch",
        default_weight: float = 1.0,
        retry: RetryPolicy | None = None,
        fault_injector=None,
        shed: bool = True,
        admission_control: bool = True,
        slow_factor: float = 8.0,
        options=None,
        optimize: str | None = None,
        plan_cache=None,
        execute_numerics: bool = True,
        health_threshold: int = 2,
        health_cooldown: float = 0.25,
        clock=time.monotonic,
        name: str = "fleet",
        adaptive: bool = False,
        tuning_cache=None,
        adaptive_options: dict | None = None,
    ):
        if queue_limit <= 0:
            raise ArgumentError(7, f"queue_limit must be positive, got {queue_limit}")
        if default_weight <= 0:
            raise ArgumentError(10, f"default_weight must be positive, got {default_weight}")
        self.name = str(name)
        self.clock = clock
        self.max_batch = int(max_batch)
        self.queue_limit = int(queue_limit)
        self.retry = retry if retry is not None else RetryPolicy()
        self.shed_enabled = bool(shed)
        self.admission_control = bool(admission_control)
        self.slow_factor = float(slow_factor)
        self.default_weight = float(default_weight)
        self.slos = dict(slos) if slos is not None else dict(DEFAULT_SLOS)
        if default_slo not in self.slos:
            raise ArgumentError(9, f"default_slo {default_slo!r} not in slo table")
        self.default_slo = default_slo
        if replicas is None:
            replicas = build_fleet(
                replica_count,
                devices_per_replica=devices_per_replica,
                policy=policy,
                max_batch=max_batch,
                max_wait=max_wait,
                options=options,
                optimize=optimize,
                plan_cache=plan_cache,
                fault_injector=fault_injector,
                execute_numerics=execute_numerics,
                clock=clock,
                health_threshold=health_threshold,
                health_cooldown=health_cooldown,
                name=name,
                adaptive=adaptive,
                tuning_cache=tuning_cache,
                adaptive_options=adaptive_options,
            )
        if not replicas:
            raise ArgumentError(1, "fleet needs at least one replica")
        self.replicas = list(replicas)
        self.metrics = FleetMetrics()
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._queues = {
            c.name: _ClassQueue()
            for c in sorted(self.slos.values(), key=lambda c: c.priority)
        }
        self._class_order = sorted(self.slos.values(), key=lambda c: c.priority)
        self._tenants: dict[str, _TenantState] = {}
        self._retry_groups: list[_RetryGroup] = []
        self._pending = 0
        self._next_ticket = 0
        self._rr = 0
        self._accepting = True
        self._stopping = False
        self._threaded = False
        self._thread: threading.Thread | None = None
        self._service_ema: float | None = None
        self._batch_ema: float | None = None
        self._seen_errors: deque[int] = deque(maxlen=256)

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------
    def set_tenant(self, name: str, *, weight: float | None = None, quota: int | None = None):
        """Register/update one tenant's fair-share weight and quota."""
        with self._lock:
            state = self._tenant(name)
            if weight is not None:
                if weight <= 0:
                    raise ArgumentError(2, f"tenant weight must be positive, got {weight}")
                state.weight = float(weight)
            state.quota = quota if quota is None else int(quota)
            return state

    def _tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = self._tenants[name] = _TenantState(name, weight=self.default_weight)
        return state

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(
        self,
        matrix: np.ndarray,
        rhs: np.ndarray | None = None,
        *,
        tenant: str = "default",
        slo: str | None = None,
        deadline: float | None = None,
        timeout: float | None = None,
    ) -> Ticket:
        """Admit one problem into the fleet; returns its :class:`Ticket`.

        ``deadline`` (relative seconds) is scheduling pressure and a
        miss statistic; ``timeout`` (relative seconds) is a hard cancel:
        a request still unserved at ``arrival + timeout`` resolves with
        :class:`~repro.errors.RequestCancelled`.  Refusals raise typed
        :class:`~repro.errors.AdmissionError` subclasses and count in
        the fleet metrics under their own outcome.
        """
        slo_cls = self.slos.get(slo if slo is not None else self.default_slo)
        if slo_cls is None:
            known = ", ".join(sorted(self.slos))
            raise ArgumentError(4, f"unknown slo class {slo!r}; known: {known}")
        if deadline is None:
            deadline = slo_cls.default_deadline
        if deadline is not None and deadline < 0:
            raise ArgumentError(5, f"deadline cannot be negative, got {deadline}")
        if timeout is not None and timeout <= 0:
            raise ArgumentError(6, f"timeout must be positive, got {timeout}")
        with self._lock:
            now = self.clock()
            self.metrics.record_outcome(tenant, slo_cls.name, "submitted")
            if not self._accepting:
                raise AdmissionError("fleet router is not accepting requests")
            state = self._tenant(tenant)
            if state.quota is not None and state.outstanding >= state.quota:
                self.metrics.record_outcome(tenant, slo_cls.name, "rejected_quota")
                raise QuotaExceededError(tenant, state.quota)
            if self._pending >= self.queue_limit:
                self.metrics.record_outcome(tenant, slo_cls.name, "rejected_full")
                raise AdmissionError(
                    f"fleet backlog full ({self.queue_limit} outstanding); request rejected"
                )
            if (
                self.shed_enabled
                and slo_cls.shed_at is not None
                and self._pending >= slo_cls.shed_at * self.queue_limit
            ):
                self.metrics.record_outcome(tenant, slo_cls.name, "shed")
                raise OverloadShedError(
                    slo_cls.name, self._pending, int(slo_cls.shed_at * self.queue_limit)
                )
            if self.admission_control and deadline is not None:
                estimate = self._backlog_delay(slo_cls)
                # Refuse only clearly-doomed requests: the estimate is
                # an EMA-based guess, so demand a 2x margin before
                # turning a maybe-miss into a certain rejection.
                if estimate > 2.0 * deadline:
                    self.metrics.record_outcome(tenant, slo_cls.name, "rejected_deadline")
                    raise DeadlineUnmeetableError(deadline, estimate)
            precision = Precision.from_dtype(matrix.dtype)
            ticket = Ticket(
                ticket_id=self._next_ticket,
                matrix=matrix,
                rhs=rhs,
                tenant=tenant,
                slo=slo_cls,
                arrival=now,
                cost=_flops.potrf_flops(int(matrix.shape[0]), precision) / 1e9,
                deadline=None if deadline is None else now + deadline,
                timeout=None if timeout is None else now + timeout,
            )
            self._next_ticket += 1
            self._queues[slo_cls.name].push(ticket, state.weight)
            state.outstanding += 1
            self._pending += 1
            self.metrics.record_admit(tenant, slo_cls.name, self._pending)
            self._cond.notify_all()
            return ticket

    def _backlog_delay(self, slo_cls: SLOClass) -> float:
        """Estimated queueing delay a new request of this class faces:
        same-or-higher-priority backlog over the fleet's healthy
        service rate (EMA of per-request simulated service time)."""
        if self._service_ema is None:
            return 0.0
        ahead = sum(
            q.size
            for cls, q in (
                (self.slos[name], queue) for name, queue in self._queues.items()
            )
            if cls.priority <= slo_cls.priority
        )
        ahead += sum(r.outstanding for r in self.replicas)
        now = self.clock()
        healthy = sum(1 for r in self.replicas if r.health.healthy(now)) or 1
        return ahead * self._service_ema / healthy

    @property
    def pending(self) -> int:
        """Admitted requests not yet terminal (queued + in flight)."""
        with self._lock:
            return self._pending

    def idle(self) -> bool:
        with self._lock:
            return (
                all(q.size == 0 for q in self._queues.values())
                and not self._retry_groups
                and all(not r.assigned for r in self.replicas)
            )

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, ticket: Ticket, reason: str = "cancelled by client") -> bool:
        """Abandon one admitted request; returns False if already terminal.

        Propagation: still fair-queued -> dropped and resolved now;
        forwarded but not yet launched -> pulled out of the replica's
        batcher (or flagged so its dispatch drops it); already launched
        -> the batch completes, the result is discarded and the future
        still resolves with :class:`~repro.errors.RequestCancelled`.
        """
        with self._lock:
            if ticket.outcome is not None:
                return False
            ticket.cancelled = True
            if ticket.replica_future is None:
                # Still in a class queue; lazily pruned from the deque.
                self._terminal(ticket, "cancelled", error=RequestCancelled(reason))
                return True
            if not ticket.replica_future.done():
                outcome = ticket.replica.server.cancel(ticket.replica_future.req_id)
                if outcome == "cancelled" and not self._threaded:
                    # Replica future just resolved; finalize inline so
                    # sync-mode callers see the cancel without a pump.
                    ticket.replica.assigned.pop(ticket.replica_future.req_id, None)
                    self._terminal(ticket, "cancelled", error=RequestCancelled(reason))
            return True

    def _expire(self, now: float) -> None:
        """Hard-timeout sweep: cancel overdue tickets wherever they are."""
        with self._lock:
            overdue = [
                t
                for q in self._queues.values()
                for t in q.tickets()
                if t.timeout is not None and t.timeout <= now
            ]
            for group in self._retry_groups:
                overdue.extend(
                    t
                    for t in group.tickets
                    if t.outcome is None and t.timeout is not None and t.timeout <= now
                )
            for replica in self.replicas:
                overdue.extend(
                    t
                    for t in list(replica.assigned.values())
                    if t.outcome is None
                    and not t.cancelled
                    and t.timeout is not None
                    and t.timeout <= now
                )
        for ticket in overdue:
            self.cancel(ticket, reason=f"client timeout after {now - ticket.arrival:.3f}s")

    # ------------------------------------------------------------------
    # dispatch (synchronous pump mode)
    # ------------------------------------------------------------------
    def pump(self, now: float | None = None) -> int:
        """Advance the fleet at instant ``now``: expire timeouts, feed
        free healthy replicas in priority/fair order, dispatch one batch
        each, and sweep outcomes (complete / retry / eject).  Returns
        the number of batches dispatched — the deterministic engine the
        open-loop bench drives on a virtual clock.
        """
        now = self.clock() if now is None else float(now)
        self._expire(now)
        dispatched = 0
        count = len(self.replicas)
        order = [self.replicas[(self._rr + i) % count] for i in range(count)]
        self._rr = (self._rr + 1) % count
        for replica in order:
            if not replica.free_at(now):
                continue
            self._feed(replica, now)
            if replica.server.queue_depth == 0:
                continue
            try:
                replica.server.pump(force=True)
            except Exception:
                # The batch's futures carry the typed error; the sweep
                # below turns it into retries/terminal failures.
                pass
            dispatched += 1
            self._sweep(replica, now)
        return dispatched

    def _feed(self, replica: Replica, now: float) -> None:
        """Move due work onto one free replica, retry groups first."""
        with self._lock:
            for group in list(self._retry_groups):
                if group.not_before > now:
                    continue
                if group.exclude == replica.name and len(self.replicas) > 1:
                    continue
                self._retry_groups.remove(group)
                live = [t for t in group.tickets if t.outcome is None]
                for ticket in live:
                    if ticket.cancelled:
                        self._terminal(
                            ticket, "cancelled",
                            error=RequestCancelled("cancelled while awaiting retry"),
                        )
                    else:
                        self._forward(ticket, replica, now)
                if live:
                    # Keep the retried group its own dispatch: its batch
                    # key then matches the failed attempt's and the
                    # stats merge stays idempotent.
                    return
            while replica.server.queue_depth < self.max_batch:
                ticket = self._next_ticket_for_dispatch(now)
                if ticket is None:
                    break
                self._forward(ticket, replica, now)

    def _next_ticket_for_dispatch(self, now: float) -> Ticket | None:
        for cls in self._class_order:
            ticket = self._queues[cls.name].pop(now)
            if ticket is not None:
                return ticket
        return None

    def _forward(self, ticket: Ticket, replica: Replica, now: float) -> None:
        rel_deadline = (
            None if ticket.deadline is None else max(ticket.deadline - now, 0.0)
        )
        fut = replica.server.submit(ticket.matrix, ticket.rhs, deadline=rel_deadline)
        ticket.replica = replica
        ticket.replica_future = fut
        ticket.attempts += 1
        replica.assigned[fut.req_id] = ticket
        if self._threaded:
            fut.add_done_callback(lambda _fut, t=ticket: self._on_replica_done(t))

    def _sweep(self, replica: Replica, now: float) -> None:
        """Collect resolved replica futures after a sync-mode dispatch."""
        with self._lock:
            done = [
                (rid, t)
                for rid, t in replica.assigned.items()
                if t.replica_future.done()
            ]
            for rid, _ in done:
                del replica.assigned[rid]
        successes: dict[int, list] = {}
        failures: dict[int, list] = {}
        for _, ticket in done:
            err = ticket.replica_future.exception(timeout=0)
            if err is None:
                resp = ticket.replica_future.result(timeout=0)
                successes.setdefault(resp.batch_id, []).append((ticket, resp))
            else:
                failures.setdefault(id(err), []).append((ticket, err))

        elapsed = 0.0
        for batch_id, pairs in sorted(successes.items()):
            e = pairs[0][1].service_sim
            elapsed = max(elapsed, e)
            completion = now + e
            self._record_success_batch(replica, batch_id, pairs, now, completion, e)
        replica.busy_until = max(replica.busy_until, now) + elapsed
        replica.dispatches += len(successes)

        for _, pairs in failures.items():
            self._handle_failed_batch(replica, pairs, now)

    def _record_success_batch(
        self, replica: Replica, batch_id: int, pairs, now: float, completion: float, e: float
    ) -> None:
        key = (replica.name, frozenset(t.ticket_id for t, _ in pairs))
        self.metrics.record_attempt(key, self._batch_launch_stats(replica, batch_id))
        replica.health.record_success()
        # Stall detection: a "successful" batch that took slow_factor x
        # the EMA batch time still counts against the replica's health.
        if (
            self._batch_ema is not None
            and self._batch_ema > 0
            and e > self.slow_factor * self._batch_ema
        ):
            if replica.health.record_slow(now):
                self.metrics.record_ejection(replica.name)
        self._batch_ema = e if self._batch_ema is None else 0.8 * self._batch_ema + 0.2 * e
        per_req = e / max(len(pairs), 1)
        self._service_ema = (
            per_req if self._service_ema is None else 0.9 * self._service_ema + 0.1 * per_req
        )
        for ticket, resp in pairs:
            if ticket.cancelled:
                self._terminal(
                    ticket, "cancelled",
                    error=RequestCancelled("client gone; result discarded"),
                    completed_at=completion,
                )
                continue
            missed = ticket.deadline is not None and completion > ticket.deadline
            self.metrics.record_completion(
                ticket.tenant, ticket.slo.name, completion - ticket.arrival, missed
            )
            self._terminal(
                ticket, "completed", response=resp, completed_at=completion, counted=True
            )

    def _batch_launch_stats(self, replica: Replica, batch_id: int):
        for record in reversed(replica.server.metrics.batches):
            if record.batch_id == batch_id:
                return record.launch_stats
        return None

    def _handle_failed_batch(self, replica: Replica, pairs, now: float) -> None:
        err = pairs[0][1]
        cancels = [t for t, _ in pairs if isinstance(err, RequestCancelled) or t.cancelled]
        faulted = [t for t, _ in pairs if t not in cancels]
        for ticket in cancels:
            self._terminal(
                ticket, "cancelled",
                error=err if isinstance(err, RequestCancelled) else RequestCancelled(str(err)),
                completed_at=now,
            )
        if not faulted:
            return
        self.metrics.record_dispatch_fault(err)
        key = (replica.name, frozenset(t.ticket_id for t in faulted + cancels))
        partial_stats = getattr(err, "partial_launch_stats", None)
        if partial_stats is not None:
            self.metrics.record_attempt(key, partial_stats)
        partial = getattr(err, "partial", None)
        if partial:
            self.metrics.record_salvaged(partial)
        if replica.health.record_failure(now):
            self.metrics.record_ejection(replica.name)
        retryable = self.retry.retryable(err)
        group = []
        for ticket in faulted:
            ticket.last_error = err
            if retryable and ticket.attempts <= self.retry.max_retries:
                group.append(ticket)
                self.metrics.record_retry(type(err).__name__)
            elif retryable:
                self._terminal(
                    ticket, "failed",
                    error=RetriesExhaustedError(ticket.attempts, err),
                    completed_at=now,
                )
            else:
                self._terminal(ticket, "failed", error=err, completed_at=now)
        if group:
            attempt = max(t.attempts for t in group)
            not_before = now + self.retry.delay(attempt)
            for ticket in group:
                ticket.not_before = not_before
                ticket.replica = None
                ticket.replica_future = None
            with self._lock:
                self._retry_groups.append(
                    _RetryGroup(
                        not_before,
                        group,
                        exclude=replica.name if len(self.replicas) > 1 else None,
                    )
                )
                self._cond.notify_all()

    def _terminal(
        self,
        ticket: Ticket,
        outcome: str,
        *,
        response=None,
        error=None,
        completed_at: float | None = None,
        counted: bool = False,
    ) -> None:
        with self._lock:
            if ticket.outcome is not None:
                return
            ticket.outcome = outcome
            ticket.completed_at = completed_at
            self._pending -= 1
            self._tenant(ticket.tenant).outstanding -= 1
            if not counted:
                self.metrics.record_outcome(ticket.tenant, ticket.slo.name, outcome)
            self._cond.notify_all()
        if response is not None:
            ticket.future.set_result(response)
        else:
            ticket.future.set_exception(
                error if error is not None else ServingError("request terminated")
            )

    # ------------------------------------------------------------------
    # event horizon (virtual-clock driving)
    # ------------------------------------------------------------------
    def next_event_time(self, now: float) -> float | None:
        """Earliest instant >= ``now`` at which :meth:`pump` could make
        progress, or ``None`` when the fleet is idle.  The open-loop
        bench advances its virtual clock to ``min(next arrival, this)``.
        """
        with self._lock:
            if self.idle():
                return None
            candidates = []
            queued = any(q.size for q in self._queues.values())
            backlogged = queued or any(r.server.queue_depth for r in self.replicas)
            due_retry = [g.not_before for g in self._retry_groups]
            if backlogged or due_retry:
                for r in self.replicas:
                    at = max(r.busy_until, now)
                    if not r.health.healthy(now):
                        at = max(at, r.health.ejected_until)
                    candidates.append(at)
            candidates.extend(t for t in due_retry)
            for q in self._queues.values():
                wake = q.earliest_wakeup(now)
                if wake is not None:
                    candidates.append(wake)
            for replica in self.replicas:
                for t in replica.assigned.values():
                    if t.timeout is not None:
                        candidates.append(max(t.timeout, now))
            if not candidates:
                return now
            return max(min(candidates), now)

    def drain(self, timeout_events: int = 100000, timeout: float | None = 30.0) -> bool:
        """Pump until idle on the router's own clock (sync mode).

        Virtual-clock callers (the bench) drive their own loop; this is
        the convenience for tests and threaded callers.  Returns True
        once idle, False when ``timeout`` wall seconds (``None``: no
        limit) or ``timeout_events`` sync pumps run out first.
        """
        if self._threaded:
            with self._cond:
                return self._cond.wait_for(self.idle, timeout=timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        now = self.clock()
        for _ in range(timeout_events):
            if self.idle():
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            progressed = self.pump(now)
            nxt = self.next_event_time(now)
            if nxt is None:
                return self.idle()
            if not progressed:
                now = nxt if nxt > now else now + 1e-4
            else:
                now = max(now, nxt)
        return self.idle()

    # ------------------------------------------------------------------
    # threaded mode
    # ------------------------------------------------------------------
    def start(self) -> "FleetRouter":
        """Run the fleet asynchronously: every replica's own worker
        thread batches; the router thread forwards and retries."""
        with self._lock:
            if self._stopping:
                raise ServingError("cannot start a stopped router")
            if self._thread is not None:
                return self
            self._threaded = True
            for replica in self.replicas:
                replica.server.start()
            self._thread = threading.Thread(
                target=self._run, name="repro-fleet-router", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while True:
            with self._cond:
                if self._stopping and all(q.size == 0 for q in self._queues.values()):
                    return
                self._cond.wait(timeout=2e-3)
            now = self.clock()
            self._expire(now)
            with self._lock:
                while True:
                    replica = self._pick_replica(now)
                    if replica is None:
                        break
                    ticket = self._next_due(now)
                    if ticket is None:
                        break
                    self._forward(ticket, replica, now)

    def _pick_replica(self, now: float) -> Replica | None:
        """Least-loaded healthy replica with forwarding headroom."""
        best = None
        for replica in self.replicas:
            if not replica.health.healthy(now):
                continue
            if replica.outstanding >= 2 * self.max_batch:
                continue
            if best is None or replica.outstanding < best.outstanding:
                best = replica
        return best

    def _next_due(self, now: float) -> Ticket | None:
        for group in list(self._retry_groups):
            if group.not_before > now:
                continue
            self._retry_groups.remove(group)
            live = [t for t in group.tickets if t.outcome is None and not t.cancelled]
            for ticket in group.tickets:
                if ticket.outcome is None and ticket.cancelled:
                    self._terminal(
                        ticket, "cancelled",
                        error=RequestCancelled("cancelled while awaiting retry"),
                    )
            if live:
                for extra in live[1:]:
                    # Threaded mode retries per ticket; re-queue the rest.
                    self._retry_groups.append(_RetryGroup(group.not_before, [extra]))
                return live[0]
        return self._next_ticket_for_dispatch(now)

    def _on_replica_done(self, ticket: Ticket) -> None:
        """Threaded-mode completion callback (replica worker thread)."""
        now = self.clock()
        replica = ticket.replica
        with self._lock:
            if ticket.replica_future is not None and ticket.replica_future.req_id is not None:
                replica.assigned.pop(ticket.replica_future.req_id, None)
        err = ticket.replica_future.exception(timeout=0)
        if err is None:
            resp = ticket.replica_future.result(timeout=0)
            self._record_success_batch(
                replica, resp.batch_id, [(ticket, resp)], now, now, resp.service_sim
            )
        else:
            new_error = id(err) not in self._seen_errors
            if new_error:
                self._seen_errors.append(id(err))
            if not new_error:
                # Health/fault accounting happened for a batchmate;
                # still route this ticket through retry/terminal logic.
                self._handle_ticket_failure(replica, ticket, err, now, account=False)
            else:
                self._handle_ticket_failure(replica, ticket, err, now, account=True)
        with self._cond:
            self._cond.notify_all()

    def _handle_ticket_failure(
        self, replica: Replica, ticket: Ticket, err: BaseException, now: float, account: bool
    ) -> None:
        if account:
            self.metrics.record_dispatch_fault(err)
            if replica.health.record_failure(now):
                self.metrics.record_ejection(replica.name)
            partial = getattr(err, "partial", None)
            if partial:
                self.metrics.record_salvaged(partial)
        if ticket.cancelled or isinstance(err, RequestCancelled):
            self._terminal(
                ticket, "cancelled",
                error=err if isinstance(err, RequestCancelled) else RequestCancelled(str(err)),
                completed_at=now,
            )
            return
        ticket.last_error = err
        if self._stopping and self.retry.retryable(err):
            # No router thread is left to run the retry.
            self._terminal(
                ticket, "cancelled",
                error=RequestCancelled("router shut down before request was served"),
                completed_at=now,
            )
        elif self.retry.retryable(err) and ticket.attempts <= self.retry.max_retries:
            self.metrics.record_retry(type(err).__name__)
            ticket.not_before = now + self.retry.delay(ticket.attempts)
            ticket.replica = None
            ticket.replica_future = None
            with self._lock:
                self._retry_groups.append(
                    _RetryGroup(
                        ticket.not_before,
                        [ticket],
                        exclude=replica.name if len(self.replicas) > 1 else None,
                    )
                )
        elif self.retry.retryable(err):
            self._terminal(
                ticket, "failed",
                error=RetriesExhaustedError(ticket.attempts, err), completed_at=now,
            )
        else:
            self._terminal(ticket, "failed", error=err, completed_at=now)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Close admission, then drain or cancel the backlog; stops the
        router thread and every replica server.  Idempotent.

        ``timeout`` bounds the whole call: the drain, the router thread's
        exit and the replica shutdowns share it.  Tickets still queued
        or awaiting a retry under ``drain=False``, or when the drain runs
        out of time, resolve with :class:`~repro.errors.RequestCancelled`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def remaining() -> float | None:
            return None if deadline is None else max(deadline - time.monotonic(), 0.0)

        with self._lock:
            self._accepting = False
        drained = drain and self.drain(timeout=timeout)
        with self._cond:
            # Stopping first: no retry is scheduled after the backlog sweep.
            self._stopping = True
            queued = [] if drained else self._take_backlog()
            self._cond.notify_all()
            thread = self._thread
        for ticket in queued:
            self._terminal(
                ticket, "cancelled",
                error=RequestCancelled("router shut down before request was served"),
            )
        if thread is not None:
            thread.join(remaining())
        for replica in self.replicas:
            replica.server.shutdown(drain=drain, timeout=remaining())

    def _take_backlog(self) -> list[Ticket]:
        """Every ticket not yet forwarded (caller holds ``_lock``)."""
        queued = [t for q in self._queues.values() for t in q.tickets()]
        for group in self._retry_groups:
            queued.extend(t for t in group.tickets if t.outcome is None)
        self._retry_groups.clear()
        return queued

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def replica_table(self) -> list[dict]:
        """One health/throughput row per replica (snapshot embeds it)."""
        now = self.clock()
        rows = []
        for replica in self.replicas:
            health = replica.health
            rows.append(
                {
                    "name": replica.name,
                    "healthy": health.healthy(now),
                    "dispatches": replica.dispatches,
                    "outstanding": replica.outstanding,
                    "failures": health.failures,
                    "slow_dispatches": health.slow_dispatches,
                    "ejections": health.ejections,
                    "completed": replica.server.metrics.completed,
                }
            )
        return rows

    def snapshot(self) -> dict:
        """Fleet-wide JSON-ready report: router metrics, replica table,
        and the summed replica serving metrics."""
        snap = self.metrics.snapshot()
        snap["replicas"] = self.replica_table()
        snap["replica_serving"] = {
            r.name: r.server.metrics.snapshot() for r in self.replicas
        }
        adaptive = {
            r.name: r.server.tuner.snapshot()
            for r in self.replicas
            if r.server.tuner is not None
        }
        if adaptive:
            snap["adaptive"] = adaptive
        return snap
