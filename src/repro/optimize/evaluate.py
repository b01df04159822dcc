"""Candidate evaluators: every design is scored by the serving layer.

The optimizer never runs the pipeline itself — it hands candidate
:class:`~repro.experiments.scenario.ScenarioSpec` objects to an *evaluator*
and gets :class:`~repro.experiments.store.RunRecord` results back, together
with the cache tier that answered.  Three implementations share the protocol:

* :class:`CachedEvaluator` — the local batch path.  ``workers=0`` computes
  misses inline behind a content-addressed
  :class:`~repro.service.cache.ResultCache` (optionally backed by a
  persistent JSONL :class:`~repro.experiments.store.ResultStore`);
  ``workers>=1`` hands each proposal batch to a private in-process
  :class:`~repro.service.server.SolveService`, whose cache, single-flight
  coalescing and self-healing :class:`~repro.service.pool.ServicePool`
  compute the misses in parallel.  Re-visited candidates — a search walking
  back over its own footsteps, or a resumed campaign — are cache hits and
  cost nothing.
* :class:`ServiceEvaluator` — wraps a live in-process
  :class:`~repro.service.server.SolveService` (the ``POST /optimize``
  endpoint's path): every candidate goes through ``resolve()`` and shares
  the service's cache, pool, backpressure and metrics.
* :class:`RemoteEvaluator` — drives a fleet of ``repro serve`` replicas
  round-robin over HTTP via
  :class:`~repro.service.client.RoundRobinClient`; the replicas' shared
  JSONL store is then the campaign's warm tier.

Evaluators must never raise for a *candidate's* failure: an infeasible or
crashed run comes back as a structured record and the objective maps it to a
finite worst-case score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..deadline import check_budget
from ..experiments.runner import execute_scenario
from ..experiments.scenario import ScenarioSpec
from ..experiments.store import STATUS_ERROR, ResultStore, RunRecord
from ..service.api import ServiceRequest, ServiceResponse
from ..service.cache import ResultCache
from ..service.client import RoundRobinClient, ServiceClientError
from ..service.server import ServiceConfig, SolveService
from .space import OptimizeError

#: Run records the evaluator's cache keeps in memory.
_CACHE_CAPACITY = 4096


@dataclass
class Evaluation:
    """One scored candidate: the record plus how the lookup resolved."""

    spec: ScenarioSpec
    record: RunRecord
    #: Cache outcome: ``hit``/``store``/``coalesced`` (served warm), ``miss``
    #: (computed), or ``""`` when the tier is unknown (remote error paths).
    cache: str

    @property
    def served_from_cache(self) -> bool:
        return self.cache in ("hit", "store", "coalesced")


def _error_record(spec: ScenarioSpec, message: str) -> RunRecord:
    return RunRecord(spec=spec, status=STATUS_ERROR, message=message)


def _from_response(spec: ScenarioSpec, response: ServiceResponse) -> Evaluation:
    """The evaluation of one :class:`SolveService` response."""
    if response.record is not None:
        record = RunRecord.from_dict(response.record)
    else:  # rejected (saturated/draining): a structured failure, not a crash
        record = _error_record(spec, response.message or f"service {response.state}")
    return Evaluation(spec=spec, record=record, cache=response.cache)


class CachedEvaluator:
    """ResultCache-fronted evaluation, inline or on a private SolveService.

    ``workers=0`` computes misses inline (no subprocess spawn — the fast
    mode for tests, examples and small campaigns); ``workers>=1`` resolves
    each :meth:`evaluate_many` batch concurrently on an in-process
    :class:`SolveService`, so a hill-climbing step's neighbors compute in
    parallel and duplicate ids inside one batch coalesce onto one run.
    """

    def __init__(
        self,
        workers: int = 0,
        store_path: Optional[str] = None,
        timeout_seconds: Optional[float] = None,
    ):
        self.timeout_seconds = check_budget(timeout_seconds, error=OptimizeError)
        self.evaluations = 0
        self.service: Optional[SolveService] = None
        if workers >= 1:
            self.service = SolveService(
                ServiceConfig(
                    workers=workers,
                    max_pending=64,
                    cache_capacity=_CACHE_CAPACITY,
                    store_path=store_path,
                    timeout_seconds=timeout_seconds,
                    cache_shards=4,
                    warm_up=False,
                )
            )
            self.cache = self.service.cache
        else:
            store = ResultStore(store_path) if store_path else None
            self.cache = ResultCache(capacity=_CACHE_CAPACITY, store=store, shards=4)

    def evaluate(self, spec: ScenarioSpec) -> Evaluation:
        return self.evaluate_many([spec])[0]

    def evaluate_many(self, specs: Sequence[ScenarioSpec]) -> List[Evaluation]:
        """Evaluate a proposal batch, in order."""
        self.evaluations += len(specs)
        if self.service is None:
            return [self._evaluate_inline(spec) for spec in specs]
        # The service applies its own timeout_seconds to every request.
        responses = self.service.resolve_batch([ServiceRequest(scenario=spec) for spec in specs])
        return [
            _from_response(spec, response) for spec, response in zip(specs, responses)
        ]

    def _evaluate_inline(self, spec: ScenarioSpec) -> Evaluation:
        record, tier = self.cache.get(spec.scenario_id)
        if record is None:
            record = RunRecord.from_dict(
                execute_scenario(spec.to_dict(), self.timeout_seconds)
            )
            flight, leader = self.cache.lease(spec.scenario_id)
            if leader:
                self.cache.complete(spec.scenario_id, flight, record)
        return Evaluation(spec=spec, record=record, cache=tier)

    # -- accounting / lifecycle -------------------------------------------------
    def stats(self) -> Dict[str, float]:
        snapshot = self.cache.stats
        hits = snapshot["hits_memory"] + snapshot["hits_store"] + snapshot["coalesced"]
        return {
            "evaluations": self.evaluations,
            "hits": hits,
            "misses": snapshot["misses"],
            "hit_rate": self.cache.hit_rate,
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.drain(timeout=60.0)


class _TalliedEvaluator:
    """Hit/miss accounting of the evaluators that only see responses."""

    def __init__(self) -> None:
        self.evaluations = 0
        self._hits = 0

    def _tally(self, evaluation: Evaluation) -> Evaluation:
        self.evaluations += 1
        self._hits += evaluation.served_from_cache
        return evaluation

    def evaluate_many(self, specs: Sequence[ScenarioSpec]) -> List[Evaluation]:
        # Sequential: an in-server campaign shares the service's admission
        # bound with ordinary traffic, and over a fleet the rotation spreads
        # the cold solves while the replicas' shared store warms later ones.
        return [self.evaluate(spec) for spec in specs]

    def stats(self) -> Dict[str, float]:
        return {
            "evaluations": self.evaluations,
            "hits": self._hits,
            "misses": self.evaluations - self._hits,
            "hit_rate": self._hits / self.evaluations if self.evaluations else 0.0,
        }


class ServiceEvaluator(_TalliedEvaluator):
    """Evaluate through a live in-process :class:`SolveService`.

    The ``POST /optimize`` endpoint runs its campaign on this evaluator, so
    candidates share the service's cache, single-flight coalescing, worker
    pool and metrics with ordinary ``/solve`` traffic.
    """

    def __init__(self, service, timeout_seconds: Optional[float] = None):
        super().__init__()
        self.service = service
        self.timeout_seconds = timeout_seconds

    def evaluate(self, spec: ScenarioSpec) -> Evaluation:
        request = ServiceRequest(scenario=spec, timeout_seconds=self.timeout_seconds)
        return self._tally(_from_response(spec, self.service.resolve(request)))

    def close(self) -> None:  # the service's lifecycle belongs to its owner
        pass


class RemoteEvaluator(_TalliedEvaluator):
    """Evaluate against a fleet of ``repro serve`` replicas, round-robin."""

    def __init__(self, urls: Sequence[str], timeout: float = 300.0):
        super().__init__()
        self.client = RoundRobinClient(urls, timeout=timeout)

    def evaluate(self, spec: ScenarioSpec) -> Evaluation:
        cache = ""
        try:
            status, document = self.client.solve_prepared(
                self.client.render(ServiceRequest(scenario=spec))
            )
            if status < 400 and isinstance(document.get("record"), dict):
                record = RunRecord.from_dict(document["record"])
                cache = str(document.get("cache", ""))
            else:
                record = _error_record(
                    spec,
                    f"replica answered HTTP {status}: "
                    f"{document.get('message') or document.get('state', '')}",
                )
        except ServiceClientError as error:
            record = _error_record(spec, f"replica unreachable: {error}")
        return self._tally(Evaluation(spec=spec, record=record, cache=cache))

    def close(self) -> None:
        self.client.close()
