"""Fleet router end-to-end tests (repro.serving.router / .fleet).

The router's contract: every admitted request terminates (response or
typed error, never a hang), higher SLO classes dispatch first, tenants
share within a class by weight, overload sheds the bottom classes, and
cancellation/timeouts propagate through every stage.  All sync-mode
tests run on a virtual clock, so ordering assertions are deterministic.
"""

import threading
import time

import numpy as np
import pytest

from repro import make_spd_batch
from repro.core import PlanCache
from repro.errors import (
    AdmissionError,
    ArgumentError,
    DeadlineUnmeetableError,
    OverloadShedError,
    QuotaExceededError,
    RequestCancelled,
)
from repro.serving import (
    ARRIVAL_PATTERNS,
    FaultInjector,
    FleetRouter,
    RetryPolicy,
    VirtualClock,
    arrival_trace,
    build_fleet,
    open_loop,
)
from repro.serving.loadgen import WorkItem


def _router(**kw):
    kw.setdefault("replica_count", 2)
    kw.setdefault("max_batch", 8)
    kw.setdefault("execute_numerics", False)
    return FleetRouter(**kw)


def _mats(k, n=16):
    return [np.zeros((n, n)) for _ in range(k)]


class TestBuildFleet:
    def test_validation(self):
        with pytest.raises(ArgumentError, match="replica_count"):
            build_fleet(0)
        with pytest.raises(ArgumentError, match="devices_per_replica"):
            build_fleet(1, devices_per_replica=0)

    def test_replicas_share_one_plan_cache_and_get_unique_names(self):
        cache = PlanCache(max_plans=8)
        replicas = build_fleet(3, plan_cache=cache, name="f")
        assert [r.name for r in replicas] == ["f:r0", "f:r1", "f:r2"]
        assert all(r.server.plan_cache is cache for r in replicas)
        assert len({id(r.server) for r in replicas}) == 3

    def test_router_validation(self):
        with pytest.raises(ArgumentError, match="queue_limit"):
            _router(queue_limit=0)
        with pytest.raises(ArgumentError, match="default_slo"):
            _router(default_slo="platinum")
        with pytest.raises(ArgumentError, match="at least one replica"):
            FleetRouter(replicas=[])
        router = _router()
        with pytest.raises(ArgumentError, match="unknown slo"):
            router.submit(np.zeros((8, 8)), slo="platinum")
        with pytest.raises(ArgumentError, match="weight"):
            router.set_tenant("t", weight=0.0)
        router.shutdown()


class TestNumerics:
    def test_fleet_factors_match_cholesky(self):
        matrices = make_spd_batch([24, 7, 16, 33, 12], seed=2)
        router = FleetRouter(replica_count=2, max_batch=4, execute_numerics=True)
        tickets = [router.submit(m) for m in matrices]
        assert router.drain()
        router.shutdown()
        for m, t in zip(matrices, tickets):
            resp = t.future.result(timeout=0)
            assert resp.ok and t.outcome == "completed"
            # LAPACK convention: only the lower triangle is the factor.
            assert np.allclose(np.tril(resp.factor), np.linalg.cholesky(m))


class TestSchedulingOrder:
    def test_interactive_dispatches_before_earlier_batch_work(self):
        clock = VirtualClock()
        router = _router(replica_count=1, clock=clock)
        later = router.submit(np.zeros((16, 16)), slo="interactive", deadline=10.0)
        sooner = [router.submit(m, slo="batch") for m in _mats(3)]
        assert router._next_ticket_for_dispatch(clock()) is later
        assert router._next_ticket_for_dispatch(clock()) is sooner[0]
        router.shutdown(drain=False)

    def test_weighted_fair_share_within_a_class(self):
        clock = VirtualClock()
        router = _router(replica_count=1, clock=clock)
        router.set_tenant("heavy", weight=4.0)
        router.set_tenant("light", weight=1.0)
        for tenant in ("heavy", "light"):
            for m in _mats(8):
                router.submit(m, tenant=tenant, slo="batch")
        first5 = [router._next_ticket_for_dispatch(clock()).tenant for _ in range(5)]
        # Equal-cost backlog: virtual start tags give weight-4 four pops
        # for every one the weight-1 tenant gets.
        assert first5.count("heavy") == 4 and first5.count("light") == 1
        router.shutdown(drain=False)

    def test_backlogged_light_tenant_is_never_starved(self):
        clock = VirtualClock()
        router = _router(replica_count=1, clock=clock)
        router.set_tenant("heavy", weight=100.0)
        for m in _mats(50):
            router.submit(m, tenant="heavy", slo="batch")
        router.submit(np.zeros((16, 16)), tenant="light", slo="batch")
        popped = [router._next_ticket_for_dispatch(clock()).tenant for _ in range(51)]
        assert "light" in popped
        router.shutdown(drain=False)


class TestAdmission:
    def test_quota_bounds_outstanding_and_releases_on_completion(self):
        router = _router(replica_count=1)
        router.set_tenant("capped", quota=2)
        for m in _mats(2):
            router.submit(m, tenant="capped")
        with pytest.raises(QuotaExceededError):
            router.submit(np.zeros((16, 16)), tenant="capped")
        assert router.metrics.outcome("rejected_quota", tenant="capped") == 1
        assert router.drain()
        ticket = router.submit(np.zeros((16, 16)), tenant="capped")
        assert router.drain() and ticket.outcome == "completed"
        router.shutdown()

    def test_shed_levels_protect_higher_classes(self):
        clock = VirtualClock()
        router = _router(replica_count=1, queue_limit=10, clock=clock)
        for m in _mats(5):
            router.submit(m, slo="batch")
        # Depth 5 = best-effort shed level (0.5 x 10) but not batch's.
        with pytest.raises(OverloadShedError):
            router.submit(np.zeros((16, 16)), slo="best-effort")
        router.submit(np.zeros((16, 16)), slo="batch")
        for m in _mats(4):
            router.submit(m, slo="interactive", deadline=100.0)
        with pytest.raises(AdmissionError, match="backlog full"):
            router.submit(np.zeros((16, 16)), slo="interactive", deadline=100.0)
        snap = router.metrics.snapshot()
        assert snap["requests"]["shed"] == 1
        assert router.metrics.outcome("rejected_full", slo="interactive") == 1
        router.shutdown(drain=False)

    def test_shed_disabled_admits_best_effort_to_the_hard_limit(self):
        clock = VirtualClock()
        router = _router(replica_count=1, queue_limit=10, shed=False, clock=clock)
        for m in _mats(9):
            router.submit(m, slo="best-effort")
        router.submit(np.zeros((16, 16)), slo="best-effort")
        with pytest.raises(AdmissionError):
            router.submit(np.zeros((16, 16)), slo="best-effort")
        router.shutdown(drain=False)

    def test_deadline_aware_admission_refuses_doomed_requests(self):
        clock = VirtualClock()
        router = _router(replica_count=1, clock=clock)
        router.submit(np.zeros((16, 16)), slo="interactive", deadline=100.0)
        router._service_ema = 1.0  # pretend each request takes 1 sim-second
        with pytest.raises(DeadlineUnmeetableError) as err:
            router.submit(np.zeros((16, 16)), slo="interactive", deadline=0.1)
        assert err.value.estimate > 2 * 0.1
        # A roomy deadline sails through the same backlog.
        router.submit(np.zeros((16, 16)), slo="interactive", deadline=100.0)
        assert router.metrics.outcome("rejected_deadline") == 1
        router.shutdown(drain=False)


class TestCancellation:
    def test_cancel_queued_ticket_resolves_immediately(self):
        clock = VirtualClock()
        router = _router(replica_count=1, clock=clock)
        ticket = router.submit(np.zeros((16, 16)))
        assert router.cancel(ticket) is True
        assert ticket.outcome == "cancelled"
        with pytest.raises(RequestCancelled):
            ticket.future.result(timeout=0)
        assert router.cancel(ticket) is False  # already terminal
        assert router.pending == 0
        router.pump(clock())  # lazy queue prune
        assert router.idle()
        router.shutdown(drain=False)

    def test_cancel_forwarded_ticket_pulls_it_from_the_batcher(self):
        clock = VirtualClock()
        router = _router(replica_count=1, clock=clock)
        ticket = router.submit(np.zeros((16, 16)))
        replica = router.replicas[0]
        router._feed(replica, clock())  # forwarded, not yet launched
        assert replica.server.queue_depth == 1
        assert router.cancel(ticket) is True
        assert ticket.outcome == "cancelled" and replica.server.queue_depth == 0
        with pytest.raises(RequestCancelled):
            ticket.future.result(timeout=0)
        assert router.idle()
        router.shutdown(drain=False)

    def test_hard_timeout_expires_queued_work(self):
        clock = VirtualClock()
        router = _router(replica_count=1, clock=clock)
        doomed = router.submit(np.zeros((16, 16)), timeout=0.5)
        clock.t = 1.0
        router.pump(clock())
        assert doomed.outcome == "cancelled"
        with pytest.raises(RequestCancelled, match="timeout"):
            doomed.future.result(timeout=0)
        assert router.metrics.outcome("cancelled") == 1
        router.shutdown(drain=False)


class TestFaultsAndHealth:
    def test_retry_lands_on_a_healthy_replica_and_stats_stay_logical(self):
        injector = FaultInjector(rate=1.0, kinds=("shard-failure",), seed=5, max_faults=1)
        router = _router(
            replica_count=2,
            fault_injector=injector,
            retry=RetryPolicy(max_retries=2, backoff=1e-4),
        )
        tickets = [router.submit(m) for m in _mats(8)]
        assert router.drain()
        router.shutdown()
        assert all(t.outcome == "completed" for t in tickets)
        assert injector.injected("shard-failure") == 1
        snap = router.metrics.snapshot()
        assert snap["retries"].get("PlanExecutionError", 0) == 8
        # One logical batch, two dispatch attempts: the keyed merge must
        # count it once.
        assert snap["launch_stats"]["batches"] == 1
        # The retry ran on the other replica (exclude on first re-dispatch).
        faulted = {t.replica.name for t in tickets}
        assert len(faulted) == 1

    def test_ejected_replica_takes_no_traffic(self):
        router = _router(replica_count=2)
        router.replicas[0].health.ejected_until = float("inf")
        tickets = [router.submit(m) for m in _mats(12)]
        assert router.drain()
        router.shutdown()
        assert all(t.outcome == "completed" for t in tickets)
        assert router.replicas[0].dispatches == 0
        assert router.replicas[1].dispatches > 0

    def test_stalls_complete_but_pay_their_surcharge(self):
        clock = VirtualClock()
        injector = FaultInjector(rate=1.0, kinds=("stall",), seed=0, stall_s=2.0)
        router = _router(replica_count=1, fault_injector=injector, clock=clock)
        ticket = router.submit(np.zeros((16, 16)))
        assert router.drain()
        router.shutdown()
        assert ticket.outcome == "completed"
        assert ticket.completed_at - ticket.arrival >= 2.0

    def test_consecutive_faults_eject_and_metrics_record_it(self):
        injector = FaultInjector(rate=1.0, kinds=("device-oom",), seed=0)
        router = _router(
            replica_count=1,
            fault_injector=injector,
            retry=RetryPolicy(max_retries=3, backoff=1e-4),
            health_cooldown=1e-3,
        )
        ticket = router.submit(np.zeros((16, 16)))
        assert router.drain()
        router.shutdown()
        assert ticket.outcome == "failed"
        assert router.replicas[0].health.ejections >= 1
        snap = router.snapshot()
        assert snap["replicas"][0]["ejections"] >= 1
        assert snap["classes"]["batch"]["outcomes"]["failed"] == 1


class TestThreadedMode:
    def test_threaded_fleet_serves_and_drains(self):
        router = FleetRouter(replica_count=2, max_batch=4, max_wait=1e-3)
        router.start()
        tickets = [router.submit(m) for m in make_spd_batch([12, 8, 20, 9, 16, 8], seed=4)]
        responses = [t.future.result(timeout=10.0) for t in tickets]
        assert all(r.ok for r in responses)
        router.shutdown()
        assert all(t.outcome == "completed" for t in tickets)

    def test_threaded_retry_recovers_from_a_seeded_fault(self):
        injector = FaultInjector(rate=0.3, kinds=("device-oom",), seed=11, max_faults=2)
        router = FleetRouter(
            replica_count=2,
            max_batch=4,
            max_wait=1e-3,
            execute_numerics=False,
            fault_injector=injector,
            retry=RetryPolicy(max_retries=3, backoff=1e-4),
        )
        router.start()
        tickets = [router.submit(m) for m in _mats(16)]
        for t in tickets:
            t.future.result(timeout=10.0)
        router.shutdown()
        assert all(t.outcome == "completed" for t in tickets)


class TestShutdown:
    def test_non_drain_shutdown_cancels_the_backlog(self):
        clock = VirtualClock()
        router = _router(replica_count=1, clock=clock)
        tickets = [router.submit(m) for m in _mats(4)]
        router.shutdown(drain=False)
        assert all(t.outcome == "cancelled" for t in tickets)
        with pytest.raises(AdmissionError):
            router.submit(np.zeros((16, 16)))

    def test_shutdown_timeout_bounds_the_call_and_resolves_every_ticket(self):
        router = FleetRouter(replica_count=1, max_batch=2, max_wait=60.0)
        server = router.replicas[0].server
        release = threading.Event()
        dispatch = server._dispatch

        def stalled_dispatch(*args, **kwargs):
            release.wait(5.0)
            return dispatch(*args, **kwargs)

        server._dispatch = stalled_dispatch
        router.start()
        tickets = [router.submit(m) for m in make_spd_batch([8] * 8, seed=5)]
        started = time.monotonic()
        router.shutdown(drain=True, timeout=0.3)
        assert time.monotonic() - started < 0.3 + 0.5
        release.set()
        for ticket in tickets:
            ticket.future.exception(timeout=5.0)  # resolves, one way or another
        outcomes = [t.outcome for t in tickets]
        assert set(outcomes) <= {"completed", "failed", "cancelled"}
        assert outcomes.count("cancelled") >= 1
        assert router.pending == 0

    def test_context_manager_drains_on_clean_exit(self):
        with _router(replica_count=1) as router:
            ticket = router.submit(np.zeros((16, 16)))
        assert ticket.outcome == "completed"


class TestOpenLoop:
    def test_arrival_traces_are_seed_deterministic_and_increasing(self):
        for pattern in ARRIVAL_PATTERNS:
            a = arrival_trace(pattern, 64, rate=100.0, seed=9)
            b = arrival_trace(pattern, 64, rate=100.0, seed=9)
            assert np.array_equal(a, b)
            assert len(a) == 64 and np.all(np.diff(a) >= 0)
            assert not np.array_equal(a, arrival_trace(pattern, 64, rate=100.0, seed=10))
        with pytest.raises(ArgumentError, match="pattern"):
            arrival_trace("constant", 8, rate=1.0)

    def test_patterns_draw_distinct_streams(self):
        traces = [arrival_trace(p, 32, rate=50.0, seed=0) for p in ARRIVAL_PATTERNS]
        for i in range(len(traces)):
            for j in range(i + 1, len(traces)):
                assert not np.array_equal(traces[i], traces[j])

    def test_open_loop_serves_everything_and_reports_refusals(self):
        clock = VirtualClock()
        router = _router(replica_count=2, queue_limit=64, clock=clock)
        items = [
            WorkItem(at=i * 1e-3, matrix=np.zeros((16, 16)), tenant="t", slo="batch")
            for i in range(20)
        ]
        pairs = open_loop(router, items, clock)
        router.shutdown(drain=True)
        assert len(pairs) == 20
        assert all(not isinstance(out, AdmissionError) for _, out in pairs)
        assert all(out.outcome == "completed" for _, out in pairs)
        # Virtual time advanced past the last arrival.
        assert clock() >= items[-1].at
