"""The serving layer: request resolution core + HTTP front end.

Two classes, deliberately separated:

* :class:`SolveService` is the transport-independent core.  It resolves
  :class:`~repro.service.api.ServiceRequest` objects against the
  content-addressed :class:`~repro.service.cache.ResultCache` (memory LRU,
  persistent JSONL tier, single-flight coalescing) and dispatches cold
  requests onto the bounded :class:`~repro.service.pool.ServicePool`.
  Every request resolves to exactly one
  :class:`~repro.service.api.ServiceResponse`; overload resolves to an
  explicit rejection with a retry-after hint, never an unbounded queue.

* :class:`ServiceServer` wraps the core in a ``ThreadingHTTPServer``:

  ============================  ======  =========================================
  endpoint                      method  behaviour
  ============================  ======  =========================================
  ``/healthz``                  GET     liveness: version, uptime, drain state
  ``/metrics``                  GET     counters, cache/pool stats, latency pcts
  ``/events``                   GET     live SSE stream of structured events
  ``/dashboard``                GET     one JSON snapshot: metrics + recent events
  ``/solve``                    POST    synchronous solve/simulate (one JSON doc)
  ``/batch``                    POST    NDJSON stream, one response line per spec
  ``/submit``                   POST    asynchronous solve -> ``request_id``
  ``/status/<id>``              GET     state of an asynchronous submission
  ``/result/<id>``              GET     response of a finished submission
  ``/optimize``                 POST    start an optimization campaign -> id
  ``/optimize/status[/<id>]``   GET     campaign list / one campaign's state
  ============================  ======  =========================================

  ``/events`` speaks Server-Sent Events (``text/event-stream``): one
  ``id:``/``event:``/``data:`` frame per structured event, a ``: keep-alive``
  comment while idle, replay of the retained ring via ``?since=SEQ`` or the
  standard ``Last-Event-ID`` header (the reconnect path).  A slow or dead
  client drops events, it never stalls the service.

  Terminal pipeline outcomes (``ok``/``infeasible``/``timeout``/``error``)
  travel as HTTP 200 — an infeasible instance is an answer.  Backpressure is
  429 with ``Retry-After``, draining is 503, malformed input is 400.

Shutdown: ``stop()`` (the CLI wires it to SIGINT/SIGTERM) flips the service
into draining mode — new work is rejected with 503, in-flight requests run
to completion, the worker pool drains, and only then does the listening
socket close.
"""

from __future__ import annotations

import itertools
import json
import queue
import threading
import time
import uuid
from collections import Counter, deque
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..deadline import check_budget
from ..experiments.scenario import ScenarioSpec
from ..obs import AlertMonitor, EventLog, MetricsRegistry, parse_rules, span
from ..experiments.store import (
    STATUS_ERROR,
    STATUS_TIMEOUT,
    ResultStore,
    RunRecord,
)
from .api import (
    CACHE_MISS,
    STATE_INVALID,
    STATE_PENDING,
    STATE_REJECTED,
    STATE_RUNNING,
    ServiceRequest,
    ServiceRequestError,
    ServiceResponse,
)
from .cache import ResultCache
from .pool import PoolDraining, PoolSaturated, ServicePool

#: Hard service-side ceiling on one computation when no timeout is set: the
#: backstop that stops a wedged worker from consuming a pool slot (and
#: blocking its leader thread) forever.
MAX_COMPUTE_SECONDS = 3600.0


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one service instance."""

    host: str = "127.0.0.1"
    #: Port 0 binds an ephemeral port (read it back from ``ServiceServer.port``).
    port: int = 8321
    workers: int = 2
    #: Cold requests allowed to wait beyond the computing ones; one more
    #: concurrent cold request is rejected with 429 + Retry-After.
    max_pending: int = 8
    cache_capacity: int = 1024
    #: Default per-request compute budget (requests may override).
    timeout_seconds: Optional[float] = None
    #: Path of the persistent JSONL cache tier (None: memory only).
    store_path: Optional[str] = None
    #: How long a coalesced follower waits for its leader before erroring.
    coalesce_wait_seconds: float = 600.0
    #: Independently locked cache shards (keyed by scenario_id prefix).
    cache_shards: int = 8
    #: Largest request body accepted before answering 413 — the bound that
    #: stops a hostile or buggy Content-Length from driving an unbounded
    #: read/allocation on the handler thread.
    max_body_bytes: int = 8 * 1024 * 1024
    #: HTTP worker *processes*.  1 keeps the in-process ThreadingHTTPServer;
    #: >1 serves through the pre-fork accept loop (:mod:`repro.service.
    #: prefork`), one process per worker sharing the port via SO_REUSEPORT
    #: (or a shared inherited listener where unavailable).
    http_workers: int = 1
    #: Spawn the worker processes at startup instead of on first request.
    warm_up: bool = True
    start_method: str = "spawn"
    #: Optional JSONL sink every event appends to (flock-safe).
    events_path: Optional[str] = None
    #: Alert rule specs evaluated server-side over the metrics registry;
    #: firings surface as ``alert.fired`` events on ``/events``.
    alert_rules: Tuple[str, ...] = ()
    #: Seconds between server-side alert evaluations.
    alert_interval: float = 1.0

    def __post_init__(self) -> None:
        check_budget(self.timeout_seconds)


@dataclass
class _Submission:
    """Registry entry of one asynchronous ``/submit`` request."""

    request_id: str
    scenario_id: str
    state: str = STATE_PENDING
    response: Optional[ServiceResponse] = None
    done: threading.Event = field(default_factory=threading.Event)


@dataclass
class _Campaign:
    """Registry entry of one ``/optimize`` campaign running on the service."""

    campaign_id: str
    optimizer: str
    objective: str
    budget: int
    seed: int
    preset: str = ""
    state: str = "running"  # running | done | failed
    steps: int = 0
    evaluations: int = 0
    baseline_score: Optional[float] = None
    best_score: Optional[float] = None
    best_scenario_id: str = ""
    error: str = ""
    #: The full ``optimize-report`` document once the campaign finishes.
    report: Optional[Dict] = None
    done: threading.Event = field(default_factory=threading.Event)

    def summary(self) -> Dict:
        return {
            "campaign_id": self.campaign_id,
            "state": self.state,
            "preset": self.preset,
            "optimizer": self.optimizer,
            "objective": self.objective,
            "budget": self.budget,
            "seed": self.seed,
            "steps": self.steps,
            "evaluations": self.evaluations,
            "baseline_score": self.baseline_score,
            "best_score": self.best_score,
            "best_scenario_id": self.best_scenario_id,
            "error": self.error,
        }

    def detail(self) -> Dict:
        document = self.summary()
        document["schema"] = "optimize-status"
        document["version"] = 1
        if self.report is not None:
            document["report"] = self.report
        return document


def _trim_history(order: deque, entries: Dict, limit: int) -> None:
    """Evict the oldest finished entries until at most ``limit`` remain.

    An entry still in flight is never evicted — an acknowledged id must stay
    resolvable until done — so a registry of running entries may outgrow
    ``limit``.
    """
    while len(order) > limit:
        for index, stale_id in enumerate(order):
            stale = entries.get(stale_id)
            if stale is None or stale.done.is_set():
                del order[index]
                entries.pop(stale_id, None)
                break
        else:  # everything retained is still running; allow growth
            break


class SolveService:
    """Transport-independent request resolution (cache -> coalesce -> pool)."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        store = (
            ResultStore(self.config.store_path)
            if self.config.store_path
            else None
        )
        self.cache = ResultCache(
            capacity=self.config.cache_capacity,
            store=store,
            shards=self.config.cache_shards,
        )
        self.pool = ServicePool(
            workers=self.config.workers,
            max_pending=self.config.max_pending,
            start_method=self.config.start_method,
        )
        self._draining = False
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._states: Counter = Counter()
        self._active = 0
        #: Per-instance registry: request counters, latency histograms, and
        #: the per-run metrics every pool worker serializes back.  Latency
        #: percentiles derive from the shared histogram buckets — bounded
        #: memory under sustained load, one source of truth for both the
        #: JSON and the Prometheus exposition.
        self.registry = MetricsRegistry()
        for tier in ("cold", "warm", "coalesced"):
            self.registry.histogram(
                "repro_request_seconds",
                "Terminal request latency by cache tier",
                tier=tier,
            )
        #: Prefetched metric handles for :meth:`try_fast` — the registry
        #: lookup (name + label matching) is measurable at fast-path rates.
        self._warm_seconds = self.registry.histogram(
            "repro_request_seconds", tier="warm"
        )
        self._fast_counters: Dict[str, object] = {}
        #: Per-instance structured event log: the operational moments the
        #: ``/events`` SSE stream, ``/dashboard`` and ``repro top`` observe
        #: (its default 2048 retained events are their replay tail).
        self.events = EventLog(path=self.config.events_path)
        #: Server-side alert evaluation (rules from the config), firing
        #: ``alert.fired``/``alert.resolved`` events into the same stream.
        self.alerts: Optional[AlertMonitor] = None
        if self.config.alert_rules:
            self.alerts = AlertMonitor(
                self._alert_snapshot,
                parse_rules(list(self.config.alert_rules)),
                interval=self.config.alert_interval,
                events=self.events,
            ).start()
        self._submissions: Dict[str, _Submission] = {}
        self._submission_order: deque = deque()
        self._request_ids = itertools.count(1)
        self._campaigns: Dict[str, _Campaign] = {}
        self._campaign_order: deque = deque()
        self._campaign_ids = itertools.count(1)
        if self.config.warm_up:
            self.pool.warm_up()
        self.events.emit(
            "service.started",
            "service",
            workers=self.config.workers,
            max_pending=self.config.max_pending,
            alert_rules=len(self.config.alert_rules),
        )

    def _alert_snapshot(self) -> Dict:
        """The registry snapshot the server-side alert rules evaluate."""
        self._sync_gauges()
        return self.registry.snapshot()

    # -- bookkeeping ------------------------------------------------------------
    def _observe(self, response: ServiceResponse, seconds: float) -> None:
        with self._lock:
            self._states[response.state] += 1
        self.registry.counter(
            "repro_requests_total", "Requests resolved, by final state",
            state=response.state,
        ).inc()
        if response.terminal:
            bucket = (
                "coalesced"
                if response.cache == "coalesced"
                else ("warm" if response.served_from_cache else "cold")
            )
            self.registry.histogram("repro_request_seconds", tier=bucket).observe(
                seconds
            )

    def _next_request_id(self) -> str:
        return f"req-{next(self._request_ids):06d}"

    @property
    def draining(self) -> bool:
        return self._draining

    # -- resolution -------------------------------------------------------------
    def resolve(
        self, request: ServiceRequest, request_id: str = ""
    ) -> ServiceResponse:
        """Resolve one request to a terminal or rejected response (blocking).

        ``request_id`` (client-supplied or front-end generated) is echoed on
        the response and stamped on the request's span so one id follows a
        request through logs, traces and the HTTP reply.
        """
        arrival = time.perf_counter()
        with self._lock:
            self._active += 1
        try:
            with span(
                "service.resolve",
                scenario_id=request.scenario_id,
                request_id=request_id,
            ) as sp:
                response = self._resolve_inner(request, arrival)
                sp.set_attr("state", response.state)
                sp.set_attr("cache", response.cache)
        finally:
            with self._lock:
                self._active -= 1
        if request_id and not response.request_id:
            response.request_id = request_id
        seconds = time.perf_counter() - arrival
        self._observe(response, seconds)
        if response.terminal:
            self.events.emit(
                "service.request",
                "service",
                level="debug",
                request_id=request_id,
                scenario_id=request.scenario_id,
                state=response.state,
                cache=response.cache,
                seconds=round(seconds, 6),
            )
        return response

    def _rejected(self, request: ServiceRequest, message: str, retry_after: float) -> ServiceResponse:
        self.events.emit(
            "service.rejected",
            "service",
            level="warning",
            message=message,
            scenario_id=request.scenario_id,
            retry_after=retry_after,
            draining=self._draining,
        )
        return ServiceResponse(
            state=STATE_REJECTED,
            scenario_id=request.scenario_id,
            message=message,
            tag=request.tag,
            retry_after_seconds=retry_after,
            info={"draining": 1.0} if self._draining else {},
        )

    def _terminal(
        self,
        request: ServiceRequest,
        record: RunRecord,
        cache: str,
        arrival: float,
        compute_seconds: float = 0.0,
    ) -> ServiceResponse:
        queue_seconds = max(0.0, time.perf_counter() - arrival - compute_seconds)
        return ServiceResponse(
            state=record.status,
            scenario_id=request.scenario_id,
            cache=cache,
            record=record.to_dict(),
            message=record.message,
            tag=request.tag,
            queue_seconds=queue_seconds,
            compute_seconds=compute_seconds,
        )

    def _resolve_inner(self, request: ServiceRequest, arrival: float) -> ServiceResponse:
        if self._draining:
            return self._rejected(request, "service is draining", retry_after=5.0)
        scenario_id = request.scenario_id

        if not request.fresh:
            record, tier = self.cache.get(scenario_id)
            if record is not None:
                return self._terminal(request, record, tier, arrival)

        leader = False
        for attempt in range(2):  # a follower re-leases once if its leader abandons
            if attempt and not request.fresh:
                # The abandonment may have raced another thread's completion;
                # never recompute a record that is cached by now.
                record, tier = self.cache.get(scenario_id)
                if record is not None:
                    return self._terminal(request, record, tier, arrival)
            flight, leader = self.cache.lease(scenario_id)
            if leader:
                break
            if flight.event.wait(timeout=self.config.coalesce_wait_seconds):
                if flight.record is not None:
                    return self._terminal(request, flight.record, "coalesced", arrival)
                if flight.abandoned and attempt == 0:
                    # The leader gave up without a record (pool rejection,
                    # crash); the pool may have slots again — race the other
                    # followers to lease and lead the retry ourselves.
                    continue
                message = "coalesced computation was abandoned by its leader"
            else:
                message = (
                    f"coalesced computation did not finish within "
                    f"{self.config.coalesce_wait_seconds:g}s"
                )
            # A fabricated failure record did not come from the cache: leave
            # the cache label empty so clients don't count it as a hit.
            record = RunRecord(spec=request.scenario, status=STATUS_ERROR, message=message)
            return self._terminal(request, record, "", arrival)

        # Leader: this request owns the computation for its scenario id.
        timeout = request.timeout_seconds or self.config.timeout_seconds
        try:
            try:
                future = self.pool.submit(request.scenario.to_dict(), timeout)
            except PoolDraining as error:
                self.cache.abandon(scenario_id, flight)
                return self._rejected(request, str(error), error.retry_after_seconds)
            except PoolSaturated as error:
                self.cache.abandon(scenario_id, flight)
                return self._rejected(request, str(error), error.retry_after_seconds)

            compute_start = time.perf_counter()
            # The worker holds the run to its deadline; this wait is only a
            # backstop against a wedged worker, a native HiGHS call or one
            # long search step, which no deadline check can interrupt.  It
            # always exists: a blocked leader would leak a slot and a thread.
            backstop = (
                MAX_COMPUTE_SECONDS if timeout is None else timeout * 2.0 + 60.0
            )
            try:
                document = future.result(timeout=backstop)
                obs_payload = document.pop("obs", None)
                if obs_payload:
                    # Worker-side run metrics fold into this instance's
                    # registry before the record is cached or served.
                    self.registry.merge(obs_payload.get("metrics", {}))
                record = RunRecord.from_dict(document)
            except FutureTimeout:
                record = RunRecord(
                    spec=request.scenario,
                    status=STATUS_TIMEOUT,
                    message=f"worker did not answer within the {backstop:g}s backstop",
                )
            except Exception as error:  # noqa: BLE001 - e.g. a malformed record
                record = RunRecord(
                    spec=request.scenario,
                    status=STATUS_ERROR,
                    message=f"worker failed: {type(error).__name__}: {error}",
                )
            compute_seconds = time.perf_counter() - compute_start
            self.cache.complete(scenario_id, flight, record)
            cache = "bypass" if request.fresh else CACHE_MISS
            return self._terminal(request, record, cache, arrival, compute_seconds)
        except BaseException:
            self.cache.abandon(scenario_id, flight)
            raise

    # -- fast path --------------------------------------------------------------
    def _fast_counter(self, state: str):
        handle = self._fast_counters.get(state)
        if handle is None:
            handle = self.registry.counter(
                "repro_requests_total", "Requests resolved, by final state",
                state=state,
            )
            self._fast_counters[state] = handle
        return handle

    def try_fast(self, request: ServiceRequest, request_id: str = "") -> Optional[bytes]:
        """Answer a warm memory hit with minimal bookkeeping, or ``None``.

        The serving fast path: one sharded-dict probe, a response body
        assembled from a payload pre-rendered once per record, prefetched
        metric handles — no span, no per-request debug event, no submission
        registry.  Anything that is not a plain warm memory hit (miss,
        ``fresh``, draining, store-tier promotion) returns ``None`` and the
        caller falls back to :meth:`resolve`, which owns the full semantics.

        Returns the complete JSON response body (newline-terminated bytes)
        with the exact ``service-response`` field set, so clients cannot
        tell which path answered.
        """
        if self._draining or request.fresh:
            return None
        arrival = time.perf_counter()
        record = self.cache.get_memory(request.scenario_id)
        if record is None:
            return None
        parts = getattr(record, "_fast_parts", None)
        if parts is None:
            # Everything constant for this record renders once; only
            # request_id, tag and queue_seconds vary per request.
            from ..io.serialization import SCHEMA_VERSION

            parts = (
                '{"schema": "service-response", "version": '
                + str(SCHEMA_VERSION)
                + ', "state": ' + json.dumps(record.status)
                + ', "scenario_id": ' + json.dumps(record.scenario_id)
                + ', "request_id": ',
                ', "cache": "hit", "record": '
                + json.dumps(record.to_dict(), sort_keys=True)
                + ', "message": ' + json.dumps(record.message)
                + ', "tag": ',
                ', "queue_seconds": ',
                ', "compute_seconds": 0.0, "retry_after_seconds": null, "info": {}}\n',
            )
            record._fast_parts = parts  # idempotent; benign if threads race
        seconds = time.perf_counter() - arrival
        with self._lock:
            self._states[record.status] += 1
        self._fast_counter(record.status).inc()
        self._warm_seconds.observe(seconds)
        body = (
            parts[0] + json.dumps(request_id)
            + parts[1] + json.dumps(request.tag)
            + parts[2] + f"{seconds:.6f}" + parts[3]
        )
        return body.encode("utf-8")

    # -- asynchronous submissions ----------------------------------------------
    #: Finished submissions retained for ``/result`` polling.
    _SUBMISSION_HISTORY = 1024

    def submit(self, request: ServiceRequest, request_id: str = "") -> ServiceResponse:
        """Start resolving in the background; answer immediately with an id.

        A client-supplied ``request_id`` becomes the submission id (so the
        caller can poll ``/status/<id>`` with its own correlation id) unless
        it is already taken, in which case a fresh one is generated.
        """
        if self._draining:
            return self._rejected(request, "service is draining", retry_after=5.0)
        with self._lock:
            taken = request_id in self._submissions
        submission = _Submission(
            request_id=(
                request_id if request_id and not taken else self._next_request_id()
            ),
            scenario_id=request.scenario_id,
        )
        with self._lock:
            self._submissions[submission.request_id] = submission
            self._submission_order.append(submission.request_id)
            _trim_history(
                self._submission_order, self._submissions, self._SUBMISSION_HISTORY
            )

        def run() -> None:
            submission.state = STATE_RUNNING
            response = self.resolve(request, request_id=submission.request_id)
            response.request_id = submission.request_id
            submission.response = response
            submission.state = response.state
            submission.done.set()

        threading.Thread(target=run, name=submission.request_id, daemon=True).start()
        return ServiceResponse(
            state=STATE_PENDING,
            scenario_id=submission.scenario_id,
            request_id=submission.request_id,
            tag=request.tag,
        )

    def status(self, request_id: str) -> Optional[ServiceResponse]:
        """The current state of a submission (None for unknown ids)."""
        with self._lock:
            submission = self._submissions.get(request_id)
        if submission is None:
            return None
        if submission.response is not None:
            return submission.response
        return ServiceResponse(
            state=submission.state,
            scenario_id=submission.scenario_id,
            request_id=request_id,
        )

    def wait(self, request_id: str, timeout: Optional[float] = None) -> Optional[ServiceResponse]:
        """Block until a submission finishes; None for unknown ids."""
        with self._lock:
            submission = self._submissions.get(request_id)
        if submission is None:
            return None
        submission.done.wait(timeout=timeout)
        return self.status(request_id)

    # -- batches ----------------------------------------------------------------
    def resolve_batch_completed(
        self, requests: List[ServiceRequest]
    ) -> Iterable[Tuple[int, ServiceResponse]]:
        """Resolve a batch concurrently, yielding ``(index, response)`` pairs
        in *completion* order.

        This is what the ``/batch`` NDJSON stream serves: a fast line (cache
        hit) reaches the client immediately instead of queueing behind a slow
        cold solve that happened to come earlier in the input.  Each pair
        carries its input index so consumers can reorder.  Identical specs
        inside one batch coalesce exactly like concurrent clients would.
        """
        done: "queue.Queue[Tuple[int, ServiceResponse]]" = queue.Queue()
        # Bound the thread fan-out (the pool bounds compute; this bounds the
        # coalescing/waiting threads a huge batch would otherwise spawn).
        slots = threading.Semaphore(64)

        def run(index: int, request: ServiceRequest) -> None:
            try:
                response = self.resolve(request)
            except Exception as error:  # noqa: BLE001 - a batch line never kills the stream
                response = ServiceResponse(
                    state=STATUS_ERROR,
                    scenario_id=request.scenario_id,
                    message=f"unexpected service failure: {type(error).__name__}: {error}",
                    tag=request.tag,
                )
            done.put((index, response))
            slots.release()

        def start_all() -> None:
            for index, request in enumerate(requests):
                slots.acquire()
                threading.Thread(
                    target=run, args=(index, request), name=f"batch-{index}", daemon=True
                ).start()

        # Launch from a producer thread: for batches larger than the slot
        # bound, early responses must stream while later ones still wait to
        # start — the consumer loop below cannot wait for the full fan-out.
        threading.Thread(target=start_all, name="batch-producer", daemon=True).start()
        for _ in range(len(requests)):
            yield done.get()

    def resolve_batch(self, requests: List[ServiceRequest]) -> Iterable[ServiceResponse]:
        """Resolve a batch concurrently, yielding responses in input order.

        Responses stream as soon as they are available *in order* — the
        consumer can act on early results while later ones still compute.
        (The HTTP front end streams :meth:`resolve_batch_completed` instead,
        tagging lines with their index; this wrapper keeps the in-order
        contract for in-process callers.)
        """
        buffered: Dict[int, ServiceResponse] = {}
        next_index = 0
        for index, response in self.resolve_batch_completed(requests):
            buffered[index] = response
            while next_index in buffered:
                yield buffered.pop(next_index)
                next_index += 1

    # -- optimization campaigns --------------------------------------------------
    #: Hard ceiling on one campaign's evaluation budget: every evaluation is
    #: a pipeline run on this service's pool, so an unbounded budget would be
    #: an unbounded compute request hiding behind a single POST.
    OPTIMIZE_MAX_BUDGET = 512
    #: Concurrent running campaigns (each fans out onto the shared pool).
    OPTIMIZE_MAX_RUNNING = 2
    #: Finished campaigns retained for ``/optimize/status`` polling.
    _CAMPAIGN_HISTORY = 64

    def start_optimize(self, document: Dict) -> Tuple[int, Dict]:
        """Start an optimization campaign; returns ``(http_status, body)``.

        The campaign runs on a background thread and evaluates every
        candidate through :meth:`resolve` — sharing the cache, coalescing,
        worker pool and metrics with ordinary traffic — while progress is
        published under ``/optimize/status/<id>`` and as ``optimize.*``
        events on the SSE stream.
        """
        from ..optimize import (
            DesignSpace,
            OptimizeError,
            ServiceEvaluator,
            knob_from_dict,
            make_objective,
            make_optimizer,
            preset_space,
            run_campaign,
        )

        if self._draining:
            return 503, {"error": "service is draining", "retry_after_seconds": 5.0}
        if not isinstance(document, dict):
            return 400, {"error": "optimize request must be a JSON object"}
        preset = str(document.get("preset", "slotting-small"))
        try:
            budget = int(document.get("budget", 16))
            seed = int(document.get("seed", 0))
            if not 1 <= budget <= self.OPTIMIZE_MAX_BUDGET:
                raise OptimizeError(
                    f"budget must be between 1 and {self.OPTIMIZE_MAX_BUDGET} "
                    f"evaluations (got {budget})"
                )
            space_document = document.get("space")
            if space_document is not None:
                space = DesignSpace(
                    base=ScenarioSpec.from_dict(space_document["base"]),
                    knobs=tuple(
                        knob_from_dict(knob) for knob in space_document["knobs"]
                    ),
                )
                preset = ""
            else:
                space = preset_space(preset, seed=int(document.get("space_seed", 0)))
            options = document.get("options") or {}
            if not isinstance(options, dict):
                raise OptimizeError("options must be a JSON object")
            optimizer = make_optimizer(
                str(document.get("optimizer", "anneal")), **options
            )
            objective = make_objective(
                str(document.get("objective", "throughput")),
                violation_weight=float(document.get("violation_weight", 0.1)),
            )
        except (OptimizeError, KeyError, TypeError, ValueError) as error:
            return 400, {"error": f"invalid optimize request: {error}"}

        with self._lock:
            running = sum(
                1 for entry in self._campaigns.values() if entry.state == "running"
            )
            if running >= self.OPTIMIZE_MAX_RUNNING:
                return 429, {
                    "error": (
                        f"{running} campaigns already running "
                        f"(limit {self.OPTIMIZE_MAX_RUNNING})"
                    ),
                    "retry_after_seconds": 10.0,
                }
            campaign = _Campaign(
                campaign_id=f"opt-{next(self._campaign_ids):06d}",
                optimizer=optimizer.name,
                objective=objective.name,
                budget=budget,
                seed=seed,
                preset=preset,
            )
            self._campaigns[campaign.campaign_id] = campaign
            self._campaign_order.append(campaign.campaign_id)
            _trim_history(self._campaign_order, self._campaigns, self._CAMPAIGN_HISTORY)

        evaluator = ServiceEvaluator(self, timeout_seconds=self.config.timeout_seconds)

        def progress(record, _replayed: bool) -> None:
            with self._lock:
                campaign.steps = record.step + 1
                campaign.evaluations = record.evaluations
                campaign.best_score = record.best_score
                campaign.best_scenario_id = record.best_scenario_id

        def run() -> None:
            try:
                result = run_campaign(
                    space,
                    optimizer,
                    objective,
                    evaluator,
                    budget=budget,
                    seed=seed,
                    events=self.events,
                    registry=self.registry,
                    progress=progress,
                )
                with self._lock:
                    campaign.state = "done"
                    campaign.baseline_score = result.baseline_score
                    campaign.best_score = result.best_score
                    campaign.best_scenario_id = result.best_spec.scenario_id
                    campaign.evaluations = result.evaluations
                    campaign.steps = len(result.steps)
                    campaign.report = result.to_dict()
            except Exception as error:  # noqa: BLE001 - campaign failure is a status
                with self._lock:
                    campaign.state = "failed"
                    campaign.error = f"{type(error).__name__}: {error}"
            finally:
                campaign.done.set()

        threading.Thread(target=run, name=campaign.campaign_id, daemon=True).start()
        return 202, {
            "schema": "optimize-submitted",
            "version": 1,
            "campaign_id": campaign.campaign_id,
            "state": "running",
            "preset": preset,
            "optimizer": optimizer.name,
            "objective": objective.name,
            "budget": budget,
            "seed": seed,
        }

    def optimize_status(self, campaign_id: Optional[str] = None) -> Optional[Dict]:
        """One campaign's detail, or the registry summary (None: unknown id)."""
        with self._lock:
            if campaign_id is None:
                return {
                    "schema": "optimize-status",
                    "version": 1,
                    "campaigns": [
                        self._campaigns[entry].summary()
                        for entry in self._campaign_order
                        if entry in self._campaigns
                    ],
                }
            campaign = self._campaigns.get(campaign_id)
            return campaign.detail() if campaign is not None else None

    def wait_optimize(
        self, campaign_id: str, timeout: Optional[float] = None
    ) -> Optional[Dict]:
        """Block until a campaign finishes; None for unknown ids."""
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            return None
        campaign.done.wait(timeout=timeout)
        return self.optimize_status(campaign_id)

    # -- health/metrics ---------------------------------------------------------
    def health(self) -> Dict:
        from .. import __version__

        return {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "draining": self._draining,
            "workers": self.pool.workers,
            "in_flight": self.pool.in_flight,
        }

    def dashboard(self, events_limit: int = 50) -> Dict:
        """One JSON snapshot for live monitors: health + metrics + event tail."""
        return {
            "schema": "service-dashboard",
            "version": 1,
            "health": self.health(),
            "metrics": self.metrics(),
            "events": self.events.recent(limit=events_limit),
            "last_event_seq": self.events.last_seq,
        }

    def _sync_gauges(self) -> None:
        """Refresh the scrape-time gauges from the live cache/pool state."""
        cache = self.cache.snapshot()
        pool = self.pool.snapshot()
        capacity = max(1.0, float(pool["workers"] + pool["max_pending"]))
        gauges = {
            "repro_uptime_seconds": round(time.monotonic() - self._started, 3),
            "repro_requests_active": self._active,
            "repro_draining": float(self._draining),
            "repro_cache_size": cache["size"],
            "repro_cache_hit_rate": cache["hit_rate"],
            "repro_pool_in_flight": pool["in_flight"],
            "repro_pool_workers": pool["workers"],
            "repro_pool_workers_lost": pool["worker_lost"],
            "repro_pool_saturation": pool["in_flight"] / capacity,
        }
        for name, value in gauges.items():
            self.registry.gauge(name, f"Service gauge {name}").set(value)

    def metrics(self) -> Dict:
        with self._lock:
            states = dict(self._states)
            active = self._active
        self._sync_gauges()
        latencies = {
            tier: self.registry.histogram("repro_request_seconds", tier=tier).summary()
            for tier in ("cold", "warm", "coalesced")
        }
        return {
            "requests": {"total": sum(states.values()), "by_state": states, "active": active},
            "cache": self.cache.snapshot(),
            "pool": self.pool.snapshot(),
            "latency_seconds": latencies,
            "registry": self.registry.snapshot(),
            "draining": self._draining,
        }

    def metrics_prometheus(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        self._sync_gauges()
        return self.registry.to_prometheus()

    # -- shutdown ---------------------------------------------------------------
    def begin_drain(self) -> None:
        if not self._draining:
            self.events.emit(
                "service.drain", "service", in_flight=self.pool.in_flight
            )
        self._draining = True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Reject new work, wait for in-flight work, shut the pool down."""
        self.begin_drain()
        if self.alerts is not None:
            self.alerts.stop()
        drained = self.pool.drain(timeout=timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._active > 0:
            if deadline is not None and time.monotonic() > deadline:
                self.events.emit(
                    "service.drained", "service", level="warning", complete=False
                )
                return False
            time.sleep(0.01)
        self.events.emit("service.drained", "service", complete=drained)
        return drained


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------

def _parse_request(document: Dict) -> ServiceRequest:
    """Accept a service-request document or a bare scenario document."""
    if not isinstance(document, dict):
        raise ServiceRequestError("request body must be a JSON object")
    if document.get("schema") == "scenario":
        return ServiceRequest(scenario=ScenarioSpec.from_dict(document))
    return ServiceRequest.from_dict(document)


# The rules below are shared by both HTTP front ends (this module's
# handler and the pre-fork ``POST /solve`` path), so a malformed request
# gets the same answer from either.

class _BadRequest(Exception):
    """A request answered with ``status`` and ``document`` instead of served.

    ``close`` marks answers given without consuming the body: keep-alive
    would desynchronize, so the connection must close.
    """

    def __init__(self, status: int, document: Dict, close: bool = False):
        super().__init__(status, document)
        self.status = status
        self.document = document
        self.close = close


def _content_length(value: Optional[str], limit: int) -> int:
    """The declared body length; :class:`_BadRequest` when the header is
    missing, malformed, negative or over ``limit``."""
    if value is None:
        raise _BadRequest(411, {"error": "Content-Length required"}, close=True)
    value = value.strip()
    try:
        length = int(value)
    except ValueError:
        raise _BadRequest(
            400, {"error": f"malformed Content-Length {value!r}"}, close=True
        ) from None
    if length < 0:
        raise _BadRequest(400, {"error": "Content-Length must be non-negative"}, close=True)
    if length > limit:
        # Reading (or skipping) the body would be exactly the unbounded
        # work the limit exists to avoid: answer and drop the connection.
        raise _BadRequest(
            413,
            {"error": f"request body of {length} bytes exceeds the {limit}-byte limit"},
            close=True,
        )
    return length


def _request_id(supplied: Optional[str]) -> str:
    """Accept the client's ``X-Request-Id`` or mint one."""
    supplied = (supplied or "").strip()
    # Header values travel into logs and response headers verbatim; keep
    # them bounded and printable.
    if supplied and len(supplied) <= 128 and supplied.isprintable():
        return supplied
    return f"req-{uuid.uuid4().hex[:12]}"


def _json_body(raw: bytes):
    """A request body's JSON document; :class:`_BadRequest` when it is not
    UTF-8 JSON."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _BadRequest(400, {"error": f"malformed JSON body: {error}"}) from None


def _solve_request(raw: bytes) -> ServiceRequest:
    """The request a ``/solve`` or ``/submit`` body carries; :class:`_BadRequest`
    with an ``invalid`` service response when it carries none."""
    document = _json_body(raw)
    try:
        return _parse_request(document)
    except (ServiceRequestError, ValueError, TypeError) as error:
        invalid = ServiceResponse(state=STATE_INVALID, message=str(error))
        raise _BadRequest(invalid.http_status, invalid.to_dict()) from None


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the :class:`SolveService` core."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    #: http.server writes status line, headers and body as separate small
    #: sends; with Nagle + delayed ACK that costs ~40ms per warm response.
    disable_nagle_algorithm = True
    #: Set by :class:`ServiceServer`.
    service: SolveService
    quiet: bool = True
    #: The correlation id of the request currently being handled (set per
    #: request in do_GET/do_POST, echoed on responses and in log lines).
    request_id: str = ""

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debug aid only
            if self.request_id:
                format = f"{format} rid={self.request_id}"
            super().log_message(format, *args)

    # -- plumbing ---------------------------------------------------------------
    def _send_json(self, status: int, document: Dict, retry_after: Optional[float] = None) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.request_id:
            self.send_header("X-Request-Id", self.request_id)
        if retry_after is not None:
            self.send_header("Retry-After", f"{max(1, round(retry_after))}")
        self.end_headers()
        self.wfile.write(body)

    def _send_response(self, response: ServiceResponse) -> None:
        self._send_json(
            response.http_status, response.to_dict(), response.retry_after_seconds
        )

    def _read_body(self) -> bytes:
        length = _content_length(
            self.headers.get("Content-Length"), self.service.config.max_body_bytes
        )
        try:
            return self.rfile.read(length)
        except OSError:
            raise _BadRequest(400, {"error": "unreadable request body"}, close=True) from None

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.request_id:
            self.send_header("X-Request-Id", self.request_id)
        self.end_headers()
        self.wfile.write(body)

    # -- GET --------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.request_id = _request_id(self.headers.get("X-Request-Id"))
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            health = self.service.health()
            self._send_json(200 if health["status"] == "ok" else 503, health)
            return
        if parsed.path == "/metrics":
            query = parse_qs(parsed.query)
            if query.get("format", [""])[0] == "prometheus":
                self._send_text(
                    200,
                    self.service.metrics_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
                return
            self._send_json(200, self.service.metrics())
            return
        if parsed.path == "/dashboard":
            query = parse_qs(parsed.query)
            try:
                limit = int(query.get("events", ["50"])[0])
            except ValueError:
                self._send_json(400, {"error": "events must be an integer"})
                return
            self._send_json(200, self.service.dashboard(events_limit=limit))
            return
        if parsed.path == "/events":
            self._handle_events(parse_qs(parsed.query))
            return
        if parsed.path in ("/optimize/status", "/optimize/status/"):
            self._send_json(200, self.service.optimize_status())
            return
        if parsed.path.startswith("/optimize/status/"):
            campaign_id = parsed.path[len("/optimize/status/"):]
            status = self.service.optimize_status(campaign_id)
            if status is None:
                self._send_json(404, {"error": f"unknown campaign {campaign_id!r}"})
                return
            self._send_json(200, status)
            return
        for prefix, waits in (("/status/", False), ("/result/", True)):
            if self.path.startswith(prefix):
                request_id = self.path[len(prefix):]
                response = (
                    self.service.wait(
                        request_id, timeout=self.service.config.coalesce_wait_seconds
                    )
                    if waits
                    else self.service.status(request_id)
                )
                if response is None:
                    self._send_json(404, {"error": f"unknown request id {request_id!r}"})
                    return
                self._send_response(response)
                return
        self._send_json(404, {"error": f"no such endpoint {self.path!r}"})

    # -- SSE --------------------------------------------------------------------
    def _handle_events(self, query: Dict[str, List[str]]) -> None:
        """Stream structured events as Server-Sent Events until disconnect.

        Query parameters:

        * ``since=SEQ``     — replay retained events with ``seq > SEQ`` first
          (``0`` replays the whole ring; default: live only).  The standard
          ``Last-Event-ID`` header takes precedence — a reconnecting
          EventSource client resumes without losing retained events.
        * ``max=N``         — close cleanly after N events (0 = unbounded);
          the bounded-read mode tests and smoke jobs use.
        * ``keepalive=S``   — idle seconds between ``: keep-alive`` comments.

        The stream is delimited by connection close; a client that goes away
        simply ends the handler thread (its subscription is dropped).
        """
        last_event_id = (self.headers.get("Last-Event-ID") or "").strip()
        try:
            since = int(last_event_id) if last_event_id else int(query.get("since", ["-1"])[0])
            max_events = int(query.get("max", ["0"])[0])
            keepalive = float(query.get("keepalive", ["15"])[0])
        except ValueError:
            self._send_json(400, {"error": "since/max must be integers, keepalive a number"})
            return
        keepalive = max(0.05, keepalive)
        subscription = self.service.events.subscribe(since=since)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        if self.request_id:
            self.send_header("X-Request-Id", self.request_id)
        self.end_headers()
        self.close_connection = True
        sent = 0
        try:
            # An opening comment confirms liveness before any event arrives.
            self.wfile.write(b": stream opened\n\n")
            self.wfile.flush()
            idle = 0.0
            while max_events <= 0 or sent < max_events:
                # Wake at least twice per second so a drain ends the stream
                # promptly; only send the keep-alive once idle long enough.
                tick = min(keepalive, 0.5)
                event = subscription.get(timeout=tick)
                if event is None:
                    if self.service.draining:
                        break
                    idle += tick
                    if idle >= keepalive:
                        self.wfile.write(b": keep-alive\n\n")
                        self.wfile.flush()
                        idle = 0.0
                    continue
                idle = 0.0
                frame = (
                    f"id: {event.seq}\nevent: {event.kind}\ndata: {event.to_json()}\n\n"
                )
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
                sent += 1
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # the client went away mid-stream; nothing to answer
        finally:
            self.service.events.unsubscribe(subscription)

    # -- POST -------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self.request_id = _request_id(self.headers.get("X-Request-Id"))
        try:
            self._post(self._read_body())
        except _BadRequest as bad:
            if bad.close:
                self.close_connection = True
            self._send_json(bad.status, bad.document)

    def _post(self, raw: bytes) -> None:
        if self.path in ("/solve", "/submit"):
            request = _solve_request(raw)
            if self.path == "/solve":
                self._send_response(
                    self.service.resolve(request, request_id=self.request_id)
                )
            else:
                self._send_response(
                    self.service.submit(request, request_id=self.request_id)
                )
            return
        if self.path == "/batch":
            self._handle_batch(raw)
            return
        if self.path == "/optimize":
            status, payload = self.service.start_optimize(_json_body(raw))
            self._send_json(
                status, payload, retry_after=payload.get("retry_after_seconds")
            )
            return
        self._send_json(404, {"error": f"no such endpoint {self.path!r}"})

    def _handle_batch(self, raw: bytes) -> None:
        """NDJSON stream: one response line per input spec, in *completion*
        order, each line tagged with its input ``index``.

        The response is length-delimited by connection close (no
        Content-Length), so lines flush to the client the moment they
        resolve — a warm hit never queues behind an earlier cold solve.
        Clients that need input order reorder on ``index``
        (:meth:`~repro.service.client.ServiceClient.batch` does).
        """
        try:
            text = raw.decode("utf-8")
            if text.lstrip().startswith("["):
                documents = json.loads(text)
            else:  # NDJSON input
                documents = [json.loads(line) for line in text.splitlines() if line.strip()]
            if not isinstance(documents, list):
                raise ValueError("batch body must be a JSON array or NDJSON lines")
            requests = [_parse_request(document) for document in documents]
        except (ValueError, TypeError, ServiceRequestError) as error:
            self._send_json(400, {"error": f"malformed batch: {error}"})
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        for index, response in self.service.resolve_batch_completed(requests):
            document = response.to_dict()
            document["index"] = index
            self.wfile.write((json.dumps(document, sort_keys=True) + "\n").encode())
            self.wfile.flush()


class ServiceServer:
    """``ThreadingHTTPServer`` front end with a graceful start/stop lifecycle."""

    def __init__(self, config: Optional[ServiceConfig] = None, quiet: bool = True):
        self.config = config or ServiceConfig()
        self.service = SolveService(self.config)
        handler = type(
            "BoundServiceHandler",
            (_ServiceHandler,),
            {"service": self.service, "quiet": quiet},
        )
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 to the ephemeral assignment)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """Serve in a background thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` foreground mode)."""
        self._httpd.serve_forever(poll_interval=0.05)

    def stop(self, drain_timeout: Optional[float] = 60.0) -> bool:
        """Graceful shutdown: drain in-flight work, then close the socket.

        New requests are rejected (503) the moment this is called; requests
        already executing complete and are answered.  Returns ``True`` when
        everything drained within ``drain_timeout``.
        """
        self.service.begin_drain()
        drained = self.service.drain(timeout=drain_timeout)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        return drained


__all__ = ["ServiceConfig", "ServiceServer", "SolveService"]
