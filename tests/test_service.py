"""Unit tests of the serving core: cache tiers, single-flight, pool, service.

The deterministic concurrency tests replace the process pool with an
in-test fake whose futures are completed by hand, so leader/follower
interleavings are forced rather than raced.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future
from dataclasses import replace

import pytest

from repro.experiments import (
    STATUS_ERROR,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_TIMEOUT,
    ResultStore,
    RunRecord,
    ScenarioSpec,
    load_records,
)
from repro.service import (
    PoolSaturated,
    ResultCache,
    ServiceConfig,
    ServicePool,
    ServiceRequest,
    ServiceRequestError,
    ServiceResponse,
    SolveService,
)

TINY = ScenarioSpec(
    kind="fulfillment",
    num_slices=1,
    shelf_columns=3,
    shelf_bands=1,
    num_stations=1,
    num_products=2,
    units=4,
    horizon=150,
)


OTHER = replace(TINY, units=5)


def record_for(spec: ScenarioSpec, status: str = STATUS_OK, **kwargs) -> RunRecord:
    return RunRecord(spec=spec, status=status, **kwargs)


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        record, tier = cache.get(TINY.scenario_id)
        assert record is None and tier == "miss"
        flight, leader = cache.lease(TINY.scenario_id)
        assert leader
        cache.complete(TINY.scenario_id, flight, record_for(TINY))
        record, tier = cache.get(TINY.scenario_id)
        assert record is not None and tier == "hit"
        assert cache.stats["hits_memory"] == 1 and cache.stats["misses"] == 1

    def test_lru_eviction(self):
        # One shard == one global LRU (multi-shard eviction semantics are
        # covered in tests/test_service_sharding.py).
        cache = ResultCache(capacity=2, shards=1)
        specs = [
            TINY,
            ScenarioSpec(**{f: getattr(TINY, f) for f in TINY.__dataclass_fields__} | {"units": 6}),
            ScenarioSpec(**{f: getattr(TINY, f) for f in TINY.__dataclass_fields__} | {"units": 8}),
        ]
        for spec in specs:
            flight, _ = cache.lease(spec.scenario_id)
            cache.complete(spec.scenario_id, flight, record_for(spec))
        assert len(cache) == 2
        # The first-inserted entry was evicted; the last two are resident.
        assert cache.get(specs[0].scenario_id)[0] is None
        assert cache.get(specs[2].scenario_id)[0] is not None

    @pytest.mark.parametrize("status", [STATUS_TIMEOUT, STATUS_ERROR])
    def test_nondeterministic_outcomes_never_cached(self, status):
        cache = ResultCache(capacity=4)
        flight, _ = cache.lease(TINY.scenario_id)
        cache.complete(TINY.scenario_id, flight, record_for(TINY, status=status, message="x"))
        # The follower still receives the record ...
        assert flight.record is not None and flight.record.status == status
        # ... but a later request recomputes.
        assert cache.get(TINY.scenario_id) == (None, "miss")

    def test_single_flight_lease_and_coalesce(self):
        cache = ResultCache(capacity=4)
        flight, leader = cache.lease(TINY.scenario_id)
        assert leader
        follower_flight, follower_leader = cache.lease(TINY.scenario_id)
        assert not follower_leader and follower_flight is flight
        assert cache.stats["coalesced"] == 1
        cache.complete(TINY.scenario_id, flight, record_for(TINY))
        assert flight.event.is_set() and flight.record.ok
        # The flight is closed: the next lease opens a fresh one.
        _, leader_again = cache.lease(TINY.scenario_id)
        assert leader_again

    def test_abandon_wakes_followers_empty_handed(self):
        cache = ResultCache(capacity=4)
        flight, _ = cache.lease(TINY.scenario_id)
        cache.abandon(TINY.scenario_id, flight)
        assert flight.event.is_set() and flight.record is None

    def test_persistent_tier_round_trip(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.append(record_for(TINY, status=STATUS_INFEASIBLE, message="no stock"))
        # A fresh cache warm-boots from the file ...
        cache = ResultCache(capacity=4, store=ResultStore(path))
        record, tier = cache.get(TINY.scenario_id)
        assert record.status == STATUS_INFEASIBLE and tier == "hit"
        # ... and completions persist for the next boot.
        other = ScenarioSpec(
            **{f: getattr(TINY, f) for f in TINY.__dataclass_fields__} | {"units": 6}
        )
        flight, _ = cache.lease(other.scenario_id)
        cache.complete(other.scenario_id, flight, record_for(other))
        reloaded = ResultCache(capacity=4, store=ResultStore(path))
        assert reloaded.get(other.scenario_id)[0] is not None

    def test_store_tier_promotes_on_memory_miss(self, tmp_path):
        path = tmp_path / "results.jsonl"
        seed_store = ResultStore(path)
        seed_store.append(record_for(TINY))
        cache = ResultCache(capacity=4, store=ResultStore(path))
        # Evict the memory tier by hand, then look up again.
        for shard in cache._shards:
            shard.memory.clear()
        record, tier = cache.get(TINY.scenario_id)
        assert record is not None and tier == "store"
        assert cache.stats["hits_store"] == 1

    def test_records_of_another_epoch_are_misses(self, tmp_path):
        path = tmp_path / "results.jsonl"
        document = record_for(TINY).to_dict()
        del document["epoch"]  # written before output epochs existed
        path.write_text(json.dumps(document) + "\n")
        cache = ResultCache(capacity=4, store=ResultStore(path))
        assert len(cache) == 0
        assert cache.get(TINY.scenario_id) == (None, "miss")
        # A current record for the id supersedes the stale line, which stays.
        flight, _ = cache.lease(TINY.scenario_id)
        cache.complete(TINY.scenario_id, flight, record_for(TINY))
        assert [r.epoch for r in load_records(path)] == [0, record_for(TINY).epoch]
        assert ResultCache(capacity=4, store=ResultStore(path)).get(TINY.scenario_id)[1] == "hit"


# ---------------------------------------------------------------------------
# ServicePool (admission control only; compute goes through real spawn
# workers in the benchmark and HTTP tests)
# ---------------------------------------------------------------------------

class TestServicePoolValidation:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            ServicePool(workers=0)
        with pytest.raises(ValueError):
            ServicePool(workers=1, max_pending=-1)

    def test_retry_after_positive(self):
        pool = ServicePool(workers=1, max_pending=0)
        try:
            assert pool._retry_after() > 0
        finally:
            pool.drain(timeout=10)

    def test_drain_rejects_new_submissions(self):
        pool = ServicePool(workers=1, max_pending=0)
        assert pool.drain(timeout=10)
        with pytest.raises(PoolSaturated):
            pool.submit(TINY.to_dict())
        assert pool.stats["rejected"] == 1


# ---------------------------------------------------------------------------
# SolveService over a hand-driven fake pool
# ---------------------------------------------------------------------------

class FakePool:
    """Admission-compatible pool whose futures the test completes by hand."""

    def __init__(self, capacity: int = 8):
        self.capacity = capacity
        self.futures = []
        self.workers = 1
        self.max_pending = capacity - 1
        self.stats = {"submitted": 0, "completed": 0, "rejected": 0, "worker_lost": 0}
        self._draining = False

    @property
    def draining(self):
        return self._draining

    @property
    def in_flight(self):
        return len([f for f in self.futures if not f.done()])

    def submit(self, document, timeout_seconds=None):
        if self.in_flight >= self.capacity:
            self.stats["rejected"] += 1
            raise PoolSaturated("fake pool full", retry_after_seconds=1.0)
        future = Future()
        future.document = document
        self.futures.append(future)
        self.stats["submitted"] += 1
        return future

    def warm_up(self, timeout=None):
        pass

    def drain(self, timeout=None):
        self._draining = True
        return all(f.done() for f in self.futures)

    def snapshot(self):
        return {**self.stats, "in_flight": self.in_flight, "workers": 1,
                "max_pending": self.max_pending, "draining": float(self._draining)}


@pytest.fixture()
def service():
    svc = SolveService(ServiceConfig(workers=1, warm_up=False, coalesce_wait_seconds=30.0))
    svc.pool = FakePool()
    return svc


def complete_next(svc: SolveService, spec: ScenarioSpec, status: str = STATUS_OK) -> None:
    """Finish the oldest unfinished fake future with a run-record document."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        pending = [f for f in svc.pool.futures if not f.done()]
        if pending:
            pending[0].set_result(record_for(spec, status=status).to_dict())
            return
        time.sleep(0.005)
    raise AssertionError("no pending fake future appeared")


class TestSolveService:
    def test_miss_compute_then_hit(self, service):
        request = ServiceRequest(scenario=TINY)
        worker = threading.Thread(
            target=lambda: setattr(service, "_last", service.resolve(request))
        )
        worker.start()
        complete_next(service, TINY)
        worker.join(timeout=10)
        response = service._last
        assert response.state == STATUS_OK and response.cache == "miss"
        assert response.record["scenario_id"] == TINY.scenario_id
        # Second request is a pure memory hit: no new pool submission.
        hit = service.resolve(ServiceRequest(scenario=TINY))
        assert hit.state == STATUS_OK and hit.cache == "hit"
        assert service.pool.stats["submitted"] == 1

    def test_record_of_another_epoch_is_recomputed_not_served(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ResultStore(path).append(record_for(TINY, num_agents=99, epoch=0))
        svc = SolveService(
            ServiceConfig(
                workers=1, warm_up=False, coalesce_wait_seconds=30.0, store_path=str(path)
            )
        )
        svc.pool = FakePool()
        worker = threading.Thread(
            target=lambda: setattr(svc, "_last", svc.resolve(ServiceRequest(scenario=TINY)))
        )
        worker.start()
        complete_next(svc, TINY)
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert svc._last.cache == "miss" and svc._last.record["num_agents"] == 0
        assert svc.pool.stats["submitted"] == 1
        assert [r.num_agents for r in load_records(path)] == [99, 0]

    def test_fresh_bypasses_cache_but_updates_it(self, service):
        first = threading.Thread(
            target=lambda: service.resolve(ServiceRequest(scenario=TINY))
        )
        first.start()
        complete_next(service, TINY)
        first.join(timeout=10)
        responses = []
        second = threading.Thread(
            target=lambda: responses.append(
                service.resolve(ServiceRequest(scenario=TINY, fresh=True))
            )
        )
        second.start()
        complete_next(service, TINY)
        second.join(timeout=10)
        assert responses[0].cache == "bypass"
        assert service.pool.stats["submitted"] == 2

    def test_concurrent_identical_requests_coalesce(self, service):
        """N identical concurrent requests trigger exactly one computation."""
        responses = []
        lock = threading.Lock()

        def call():
            response = service.resolve(ServiceRequest(scenario=TINY))
            with lock:
                responses.append(response)

        threads = [threading.Thread(target=call) for _ in range(5)]
        for thread in threads:
            thread.start()
        # Wait until every follower joined the leader's flight.
        deadline = time.monotonic() + 5.0
        while service.cache.stats["coalesced"] < 4 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert service.cache.stats["coalesced"] == 4
        complete_next(service, TINY)
        for thread in threads:
            thread.join(timeout=10)
        assert len(responses) == 5
        assert service.pool.stats["submitted"] == 1
        assert sum(1 for r in responses if r.cache == "miss") == 1
        assert sum(1 for r in responses if r.cache == "coalesced") == 4
        assert all(r.state == STATUS_OK for r in responses)

    def test_saturation_is_an_explicit_rejection(self, service):
        service.pool.capacity = 0
        response = service.resolve(ServiceRequest(scenario=TINY))
        assert response.state == "rejected"
        assert response.retry_after_seconds and response.retry_after_seconds > 0
        assert response.http_status == 429
        # The abandoned flight did not wedge the id: a later request leads again.
        _, leader = service.cache.lease(TINY.scenario_id)
        assert leader

    def test_draining_rejects_with_503(self, service):
        service.begin_drain()
        response = service.resolve(ServiceRequest(scenario=TINY))
        assert response.state == "rejected" and response.http_status == 503

    def test_submit_status_wait_lifecycle(self, service):
        pending = service.submit(ServiceRequest(scenario=TINY))
        assert pending.state == "pending" and pending.request_id
        assert service.status("nope") is None
        complete_next(service, TINY)
        final = service.wait(pending.request_id, timeout=10)
        assert final.state == STATUS_OK and final.request_id == pending.request_id
        assert service.status(pending.request_id).state == STATUS_OK

    def test_submission_history_evicts_finished_entries_only(self, service):
        service._SUBMISSION_HISTORY = 1
        in_flight = service.submit(ServiceRequest(scenario=OTHER))
        deadline = time.monotonic() + 5.0
        while not service.pool.futures and time.monotonic() < deadline:
            time.sleep(0.005)
        flight, _ = service.cache.lease(TINY.scenario_id)
        service.cache.complete(TINY.scenario_id, flight, record_for(TINY))
        finished = service.submit(ServiceRequest(scenario=TINY))
        assert service.wait(finished.request_id, timeout=10).cache == "hit"
        service.submit(ServiceRequest(scenario=TINY))
        # Past the limit the oldest *finished* entry goes; the older one
        # still computing stays resolvable.
        assert service.status(finished.request_id) is None
        assert service.status(in_flight.request_id).state in ("pending", "running")
        complete_next(service, OTHER)
        final = service.wait(in_flight.request_id, timeout=10)
        assert final.state == STATUS_OK and final.request_id == in_flight.request_id

    def test_worker_failure_becomes_error_record(self, service):
        worker = threading.Thread(
            target=lambda: setattr(service, "_last", service.resolve(ServiceRequest(scenario=TINY)))
        )
        worker.start()
        deadline = time.monotonic() + 5.0
        while not service.pool.futures and time.monotonic() < deadline:
            time.sleep(0.005)
        service.pool.futures[0].set_exception(RuntimeError("worker exploded"))
        worker.join(timeout=10)
        response = service._last
        assert response.state == STATUS_ERROR
        assert "worker exploded" in response.message
        # Failures are not cached: the next request recomputes.
        assert service.cache.get(TINY.scenario_id) == (None, "miss")

    def test_metrics_and_health_shape(self, service):
        health = service.health()
        assert health["status"] == "ok" and health["workers"] == 1
        metrics = service.metrics()
        assert set(metrics) >= {"requests", "cache", "pool", "latency_seconds", "draining"}
        assert set(metrics["latency_seconds"]) == {"cold", "warm", "coalesced"}

    def test_batch_preserves_input_order(self, service):
        other = ScenarioSpec(
            **{f: getattr(TINY, f) for f in TINY.__dataclass_fields__} | {"units": 6}
        )
        requests = [ServiceRequest(scenario=TINY), ServiceRequest(scenario=other)]
        collected = []

        def consume():
            collected.extend(service.resolve_batch(requests))

        consumer = threading.Thread(target=consume)
        consumer.start()
        complete_next(service, TINY)
        complete_next(service, other)
        consumer.join(timeout=10)
        assert [r.scenario_id for r in collected] == [TINY.scenario_id, other.scenario_id]
        assert all(r.state == STATUS_OK for r in collected)


# ---------------------------------------------------------------------------
# API validation
# ---------------------------------------------------------------------------

class TestApiValidation:
    def test_request_rejects_nonpositive_timeout(self):
        with pytest.raises(ServiceRequestError):
            ServiceRequest(scenario=TINY, timeout_seconds=0.0)

    def test_response_rejects_unknown_state(self):
        with pytest.raises(ServiceRequestError):
            ServiceResponse(state="weird")

    def test_response_rejects_unknown_cache_outcome(self):
        with pytest.raises(ServiceRequestError):
            ServiceResponse(state=STATUS_OK, cache="disk")

    def test_http_status_mapping(self):
        assert ServiceResponse(state=STATUS_OK).http_status == 200
        assert ServiceResponse(state=STATUS_INFEASIBLE).http_status == 200
        assert ServiceResponse(state="pending").http_status == 202
        assert ServiceResponse(state="invalid").http_status == 400
        assert ServiceResponse(state="rejected").http_status == 429
        assert ServiceResponse(state="rejected", info={"draining": 1.0}).http_status == 503
