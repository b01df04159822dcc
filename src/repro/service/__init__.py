"""Concurrent solve/simulate serving layer.

Turns the one-shot pipeline into a long-lived service traffic can hit:

* :mod:`repro.service.api`    — the request/response contract
  (:class:`ServiceRequest`/:class:`ServiceResponse`, serialized in
  :mod:`repro.io.serialization`);
* :mod:`repro.service.cache`  — content-addressed result cache keyed on
  ``scenario_id``: in-memory LRU + persistent JSONL tier
  (:class:`~repro.experiments.store.ResultStore`) + single-flight
  coalescing of concurrent identical requests;
* :mod:`repro.service.pool`   — the one process pool that runs scenarios
  (cold requests, sweeps, local optimize workers): explicit backpressure,
  per-request timeouts, and worker crashes confined to their scenario;
* :mod:`repro.service.server` — the transport-independent
  :class:`SolveService` core and the ``ThreadingHTTPServer`` front end
  (submit/status/result/health/metrics endpoints, NDJSON batch streaming,
  graceful SIGINT/SIGTERM drain);
* :mod:`repro.service.prefork` — the multi-process pre-fork front end:
  ``http_workers`` server processes sharing one port (SO_REUSEPORT, or a
  shared inherited listener), the JSONL store as the cross-process warm
  layer, and a hand-rolled ``POST /solve`` hot path;
* :mod:`repro.service.client` — :class:`ServiceClient`, the one
  keep-alive client of every endpoint, its round-robin replica fan-out,
  and the cold/warm/overload + saturation load-generator harness behind
  ``repro loadtest``.

``repro serve`` boots the server; latency/throughput reporting lives in
:mod:`repro.analysis.service`.
"""

from .api import (
    CACHE_OUTCOMES,
    SERVICE_STATES,
    STATE_INVALID,
    STATE_PENDING,
    STATE_REJECTED,
    STATE_RUNNING,
    ServiceRequest,
    ServiceRequestError,
    ServiceResponse,
)
from .cache import CACHEABLE_STATUSES, ResultCache
from .client import (
    LoadTestOptions,
    LoadTestReport,
    RoundRobinClient,
    ServiceClient,
    ServiceClientError,
    run_loadtest,
    run_saturation,
    service_summary,
)
from .pool import PoolDraining, PoolSaturated, ServicePool
from .prefork import PreforkServer
from .server import ServiceConfig, ServiceServer, SolveService

__all__ = [
    "CACHEABLE_STATUSES",
    "CACHE_OUTCOMES",
    "SERVICE_STATES",
    "STATE_INVALID",
    "STATE_PENDING",
    "STATE_REJECTED",
    "STATE_RUNNING",
    "LoadTestOptions",
    "LoadTestReport",
    "PoolDraining",
    "PoolSaturated",
    "PreforkServer",
    "ResultCache",
    "RoundRobinClient",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceRequest",
    "ServiceRequestError",
    "ServiceResponse",
    "ServiceServer",
    "ServicePool",
    "SolveService",
    "run_loadtest",
    "run_saturation",
    "service_summary",
]
