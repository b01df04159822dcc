"""Request/response contract of the serving layer.

A :class:`ServiceRequest` wraps one :class:`~repro.experiments.scenario.
ScenarioSpec` plus serving knobs; a :class:`ServiceResponse` reports how the
service resolved it — from which cache tier, after how long, and with which
:class:`~repro.experiments.store.RunRecord` (embedded as a document, so a
response is self-describing without the service that produced it).

States split in two families:

* *terminal pipeline outcomes* mirror the run-record statuses (``ok``,
  ``infeasible``, ``timeout``, ``error``) — all of these are HTTP 200: an
  infeasible instance is a result, not a server failure;
* *service-level states*: ``rejected`` (backpressure/draining; HTTP 429/503
  with a retry-after hint), ``invalid`` (malformed request; HTTP 400),
  ``pending``/``running`` (asynchronous submissions in flight; HTTP 202).

The JSON schemas live with every other artifact schema in
:mod:`repro.io.serialization` (``service_request_to_dict`` & friends).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..deadline import check_budget
from ..experiments.scenario import ScenarioSpec
from ..experiments.store import RUN_STATUSES

#: Service-level states (terminal pipeline states are the run statuses).
STATE_REJECTED = "rejected"
STATE_INVALID = "invalid"
STATE_PENDING = "pending"
STATE_RUNNING = "running"
SERVICE_STATES = RUN_STATUSES + (
    STATE_REJECTED,
    STATE_INVALID,
    STATE_PENDING,
    STATE_RUNNING,
)

#: How a response was resolved against the content-addressed cache.
CACHE_HIT = "hit"  # in-memory LRU tier
CACHE_STORE = "store"  # persistent JSONL tier, promoted to memory
CACHE_COALESCED = "coalesced"  # joined an identical in-flight computation
CACHE_MISS = "miss"  # computed by the worker pool
CACHE_BYPASS = "bypass"  # request forced recomputation (``fresh=True``)
CACHE_OUTCOMES = (CACHE_HIT, CACHE_STORE, CACHE_COALESCED, CACHE_MISS, CACHE_BYPASS, "")


class ServiceRequestError(ValueError):
    """Raised for structurally invalid service requests."""


@dataclass(frozen=True)
class ServiceRequest:
    """One solve/simulate request: a scenario plus serving knobs."""

    scenario: ScenarioSpec
    #: Per-request compute budget, positive when set (overrides the server
    #: default); the worker holds the run to it with one deadline scope.
    timeout_seconds: Optional[float] = None
    #: Skip cache lookup and recompute (the result still refreshes the cache).
    fresh: bool = False
    #: Optional client-supplied tag echoed back in the response (tracing).
    tag: str = ""

    def __post_init__(self) -> None:
        check_budget(self.timeout_seconds, error=ServiceRequestError)

    @property
    def scenario_id(self) -> str:
        return self.scenario.scenario_id

    def to_dict(self) -> Dict:
        from ..io.serialization import service_request_to_dict

        return service_request_to_dict(self)

    @staticmethod
    def from_dict(document: Dict) -> "ServiceRequest":
        from ..io.serialization import service_request_from_dict

        return service_request_from_dict(document)


@dataclass
class ServiceResponse:
    """How the service resolved one request."""

    state: str
    scenario_id: str = ""
    request_id: str = ""
    #: One of :data:`CACHE_OUTCOMES` ("" while pending/rejected/invalid).
    cache: str = ""
    #: The run-record document for terminal pipeline states, else ``None``.
    record: Optional[Dict] = None
    message: str = ""
    #: Client-supplied tag echoed from the request.
    tag: str = ""
    #: Seconds the request spent queued/admitted before compute started.
    queue_seconds: float = 0.0
    #: Seconds of worker-pool compute (0 for cache hits).
    compute_seconds: float = 0.0
    #: Suggested back-off for ``rejected`` responses (HTTP Retry-After).
    retry_after_seconds: Optional[float] = None
    #: Free-form serving metadata (worker counts, drain flags, ...).
    info: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.state not in SERVICE_STATES:
            raise ServiceRequestError(
                f"unknown service state {self.state!r}; expected one of {SERVICE_STATES}"
            )
        if self.cache not in CACHE_OUTCOMES:
            raise ServiceRequestError(
                f"unknown cache outcome {self.cache!r}; expected one of {CACHE_OUTCOMES}"
            )

    # -- queries ----------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        """True once the request has a final pipeline outcome."""
        return self.state in RUN_STATUSES

    @property
    def ok(self) -> bool:
        return self.state == "ok"

    @property
    def served_from_cache(self) -> bool:
        return self.cache in (CACHE_HIT, CACHE_STORE, CACHE_COALESCED)

    @property
    def http_status(self) -> int:
        """The HTTP status code this response travels under."""
        if self.state in RUN_STATUSES:
            return 200
        if self.state in (STATE_PENDING, STATE_RUNNING):
            return 202
        if self.state == STATE_INVALID:
            return 400
        # rejected: 429 under backpressure, 503 while draining
        return 503 if self.info.get("draining") else 429

    def to_dict(self) -> Dict:
        from ..io.serialization import service_response_to_dict

        return service_response_to_dict(self)

    @staticmethod
    def from_dict(document: Dict) -> "ServiceResponse":
        from ..io.serialization import service_response_from_dict

        return service_response_from_dict(document)
