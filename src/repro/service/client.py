"""The service's HTTP client and the load-generator harness.

:class:`ServiceClient` speaks the JSON contract of :mod:`repro.service.server`
over one keep-alive socket, so a load-test thread models one keep-alive
user.  Requests go out as bytes and replies come back through a readline
header scan: :meth:`~ServiceClient.render` serializes a ``/solve`` request
once and :meth:`~ServiceClient.solve_prepared` replays it, which is how the
load generator reaches tens of thousands of requests per second.
:class:`RoundRobinClient` fans those bytes out over a replica fleet.

:func:`run_loadtest` is the measurement harness behind ``repro loadtest``
and ``benchmarks/test_bench_service.py``.  It drives a running service
through three phases:

* **cold**  — every distinct scenario once, forced to recompute
  (``fresh=True``): the full solve→simulate pipeline latency;
* **warm**  — N concurrent clients hammering the same scenarios: the
  content-addressed cache path, which the acceptance bar requires to be
  ≥ 10× faster at the median than cold;
* **overload** (optional) — a burst of *distinct* fresh scenarios sized
  beyond the pool's admission bound: the service must answer every one,
  mostly with explicit 429 rejections, and never crash or queue unboundedly.

:func:`run_saturation` measures warm throughput at increasing concurrency;
both run their client threads through one driver loop.

HTTP 429/503 are counted as *rejections* (correct overload behaviour), 5xx
as server errors, socket-level failures as transport errors; the report's
:meth:`~LoadTestReport.acceptable` collapses all of that into the PR's
acceptance criteria.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import cycle, islice
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from ..experiments.scenario import ScenarioSpec
from ..experiments.store import RUN_STATUSES
from .api import ServiceRequest, ServiceResponse


class ServiceClientError(RuntimeError):
    """Raised for transport-level failures and replies that do not parse."""


def _read_head(rfile: BinaryIO, line: bytes) -> Tuple[int, Optional[int], bool]:
    """Parse a response head from its status ``line`` on.

    Returns ``(status, Content-Length or None, close)``; an interim
    ``100 Continue`` head is skipped.  Raises ``ConnectionError`` when the
    connection closes early and ``ValueError`` on a malformed head.
    """
    while True:
        if not line:
            raise ConnectionError("connection closed before the status line")
        status = int(line.partition(b" ")[2][:3])
        length: Optional[int] = None
        close = False
        while True:
            header = rfile.readline(65537)
            if not header:
                raise ConnectionError("connection closed inside the response headers")
            if header in (b"\r\n", b"\n"):
                break
            key, _, value = header.partition(b":")
            key = key.strip().lower()
            if key == b"content-length":
                length = int(value)
            elif key == b"connection":
                close = value.strip().lower() == b"close"
        if status != 100:
            return status, length, close
        line = rfile.readline(65537)


def _label(wire: bytes) -> str:
    """``METHOD /path`` of a rendered request, for error messages."""
    return wire.partition(b" HTTP/")[0].decode("latin-1")


class ServiceClient:
    """One keep-alive HTTP/1.1 connection to a running service.

    ``batch`` and ``stream_events`` answers are delimited by connection
    close, so each of those calls opens a connection of its own.
    """

    def __init__(self, base_url: str, timeout: float = 300.0):
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme not in ("", "http"):
            raise ServiceClientError(f"only http:// urls are supported (got {base_url!r})")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._rfile: Optional[BinaryIO] = None

    # -- plumbing ---------------------------------------------------------------
    def close(self) -> None:
        for stream in (self._rfile, self._sock):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self._rfile = self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _wire(
        self, method: str, path: str, body: Optional[bytes] = None, close: bool = False
    ) -> bytes:
        """One request as bytes."""
        if not (path.isascii() and path.isprintable()) or " " in path:
            raise ServiceClientError(f"invalid request path {path!r}")
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        if close:
            head += "Connection: close\r\n"
        return (head + "\r\n").encode("latin-1") + (body or b"")

    def _send(self, wire: bytes) -> Tuple[int, Dict]:
        """Send ``wire`` on the keep-alive connection; ``(status, reply document)``.

        The request is sent once more, on a new connection, only when a
        reused connection fails before any reply arrives (the server closed
        it while idle).  A timeout, a failure after the reply began, or a
        reply that does not parse raises :class:`ServiceClientError`.
        """
        while True:
            reused = self._sock is not None
            try:
                if not reused:
                    self._sock = socket.create_connection(
                        (self.host, self.port), timeout=self.timeout
                    )
                    self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    self._rfile = self._sock.makefile("rb", 65536)
                self._sock.sendall(wire)
                line = self._rfile.readline(65537)
                if not line:
                    raise ConnectionError("connection closed before the status line")
                break
            except OSError as error:
                self.close()
                if not reused or isinstance(error, socket.timeout):
                    raise ServiceClientError(
                        f"{_label(wire)} failed: {type(error).__name__}: {error}"
                    ) from error
        try:
            status, length, close = _read_head(self._rfile, line)
            body = self._rfile.read() if length is None else self._rfile.read(length)
            if length is not None and len(body) < length:
                raise ConnectionError("connection closed inside the response body")
        except (OSError, ValueError) as error:
            self.close()
            raise ServiceClientError(
                f"{_label(wire)}: broken reply: {type(error).__name__}: {error}"
            ) from error
        if close or length is None:
            self.close()
        try:
            return status, json.loads(body) if body else {}
        except ValueError as error:
            raise ServiceClientError(f"{_label(wire)}: non-JSON reply: {error}") from error

    def _request(
        self, method: str, path: str, document: Optional[Dict] = None
    ) -> Tuple[int, Dict]:
        body = None if document is None else json.dumps(document).encode()
        return self._send(self._wire(method, path, body))

    @contextmanager
    def _stream(
        self, method: str, path: str, body: Optional[bytes], timeout: float
    ) -> Iterator[BinaryIO]:
        """A dedicated connection for a close-delimited answer; yields its body."""
        with socket.create_connection((self.host, self.port), timeout=timeout) as sock:
            with sock.makefile("rb") as rfile:
                sock.sendall(self._wire(method, path, body, close=True))
                try:
                    status, _, _ = _read_head(rfile, rfile.readline(65537))
                except ValueError as error:
                    raise ServiceClientError(f"{method} {path}: broken reply: {error}") from error
                if status != 200:
                    raise ServiceClientError(f"{method} {path} failed with HTTP {status}")
                yield rfile

    # -- endpoints --------------------------------------------------------------
    def health(self) -> Dict:
        return self._request("GET", "/healthz")[1]

    def metrics(self) -> Dict:
        return self._request("GET", "/metrics")[1]

    def dashboard(self, events_limit: int = 50) -> Dict:
        return self._request("GET", f"/dashboard?events={events_limit}")[1]

    def optimize(self, document: Dict) -> Tuple[int, Dict]:
        """Start an optimization campaign (``POST /optimize``)."""
        return self._request("POST", "/optimize", document)

    def optimize_status(self, campaign_id: str = "") -> Tuple[int, Dict]:
        """One campaign's status, or the campaign registry when id is empty."""
        path = "/optimize/status" + (f"/{campaign_id}" if campaign_id else "")
        return self._request("GET", path)

    def wait_optimize(
        self, campaign_id: str, timeout: float = 600.0, poll: float = 0.2
    ) -> Dict:
        """Poll ``/optimize/status/<id>`` until the campaign leaves ``running``."""
        deadline = time.monotonic() + timeout
        while True:
            status, document = self.optimize_status(campaign_id)
            if status != 200:
                raise ServiceClientError(
                    f"campaign {campaign_id!r}: HTTP {status}: {document.get('error')}"
                )
            if document.get("state") != "running":
                return document
            if time.monotonic() >= deadline:
                raise ServiceClientError(
                    f"campaign {campaign_id!r} still running after {timeout:g}s"
                )
            time.sleep(poll)

    def stream_events(
        self,
        since: int = -1,
        max_events: int = 0,
        max_seconds: float = 30.0,
        keepalive: float = 15.0,
    ) -> List[Dict]:
        """Read the SSE ``/events`` stream and collect the ``data:`` payloads.

        Returns once the server closes the stream (``max_events`` reached,
        drain) or ``max_seconds`` elapses client-side, whichever is first.
        """
        path = f"/events?since={since}&max={max_events}&keepalive={keepalive:g}"
        events: List[Dict] = []
        deadline = time.monotonic() + max_seconds
        try:
            with self._stream("GET", path, None, timeout=max(0.2, max_seconds)) as rfile:
                while time.monotonic() < deadline:
                    line = rfile.readline()
                    if not line:
                        break  # server closed the stream
                    text = line.decode("utf-8", errors="replace").strip()
                    if not text.startswith("data:"):
                        continue  # id:/event: fields and keep-alive comments
                    try:
                        events.append(json.loads(text[len("data:"):]))
                    except ValueError as error:
                        raise ServiceClientError(f"malformed SSE data line: {error}") from error
                    if max_events and len(events) >= max_events:
                        break
        except OSError as error:
            if not events:  # a timeout after some events is a normal tail end
                raise ServiceClientError(f"GET /events failed: {error}") from error
        return events

    def render(self, request: ServiceRequest) -> bytes:
        """Serialize one ``/solve`` request to bytes :meth:`solve_prepared` replays."""
        return self._wire("POST", "/solve", json.dumps(request.to_dict()).encode())

    def solve_prepared(self, wire: bytes) -> Tuple[int, Dict]:
        """Send bytes from :meth:`render`; returns ``(status, response document)``."""
        return self._send(wire)

    def solve(self, request: ServiceRequest) -> Tuple[int, ServiceResponse]:
        status, document = self._send(self.render(request))
        return status, ServiceResponse.from_dict(document)

    def submit(self, request: ServiceRequest) -> Tuple[int, ServiceResponse]:
        status, document = self._request("POST", "/submit", request.to_dict())
        return status, ServiceResponse.from_dict(document)

    def status(self, request_id: str) -> Tuple[int, Dict]:
        return self._request("GET", f"/status/{request_id}")

    def result(self, request_id: str) -> Tuple[int, ServiceResponse]:
        status, document = self._request("GET", f"/result/{request_id}")
        if status == 404:
            raise ServiceClientError(f"unknown request id {request_id!r}")
        return status, ServiceResponse.from_dict(document)

    def batch(self, requests: Sequence[ServiceRequest]) -> List[ServiceResponse]:
        """POST /batch; collects the NDJSON stream back into *input order*.

        The server streams lines in completion order, each tagged with its
        input ``index``; this client reorders on that tag.
        """
        body = json.dumps([request.to_dict() for request in requests]).encode()
        try:
            with self._stream("POST", "/batch", body, self.timeout) as rfile:
                lines = rfile.read().splitlines()
        except OSError as error:
            raise ServiceClientError(f"POST /batch failed: {error}") from error
        tagged: List[Tuple[int, ServiceResponse]] = []
        for line in lines:
            if not line.strip():
                continue
            try:
                document = json.loads(line)
                index = int(document.pop("index"))
            except (ValueError, KeyError) as error:
                raise ServiceClientError(
                    f"POST /batch: malformed line {line[:80]!r}: {error!r}"
                ) from error
            tagged.append((index, ServiceResponse.from_dict(document)))
        tagged.sort(key=lambda pair: pair[0])
        return [response for _, response in tagged]


class RoundRobinClient:
    """Fan one logical client out over N service replicas, round-robin.

    Holds one keep-alive :class:`ServiceClient` per replica and rotates per
    request.  ``render`` produces replica-agnostic wire bytes (the servers
    do not dispatch on ``Host``), so one rendering serves the whole fleet.
    """

    def __init__(self, urls: Sequence[str], timeout: float = 300.0):
        if not urls:
            raise ServiceClientError("round-robin client needs at least one url")
        self.clients = [ServiceClient(url, timeout=timeout) for url in urls]
        self._next = 0

    def render(self, request: ServiceRequest) -> bytes:
        return self.clients[0].render(request)

    def solve_prepared(self, wire: bytes) -> Tuple[int, Dict]:
        client = self.clients[self._next]
        self._next = (self._next + 1) % len(self.clients)
        return client.solve_prepared(wire)

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def __enter__(self) -> "RoundRobinClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# load generator
# ---------------------------------------------------------------------------

def service_summary(metrics: Dict) -> Dict:
    """Condense a ``/metrics`` document into the load-test report's service section.

    Cache hit rate, pool saturation and runs by pipeline status come from
    the metrics registry snapshot; pool rejections from the pool section.
    """
    if not metrics:
        return {}
    entries = metrics["registry"]["metrics"]
    gauges = {entry["name"]: entry["value"] for entry in entries if entry["type"] == "gauge"}
    runs_by_status: Dict[str, int] = {}
    for entry in entries:
        if entry["name"] == "repro_runs_total":
            status = entry["labels"].get("status", "unknown")
            runs_by_status[status] = runs_by_status.get(status, 0) + int(entry["value"])
    return {
        "cache_hit_rate": float(gauges["repro_cache_hit_rate"]),
        "cache_size": int(gauges["repro_cache_size"]),
        "pool_saturation": float(gauges["repro_pool_saturation"]),
        "pool_in_flight": int(gauges["repro_pool_in_flight"]),
        "pool_workers": int(gauges["repro_pool_workers"]),
        "pool_rejected": int(metrics["pool"]["rejected"]),
        "runs_by_status": dict(sorted(runs_by_status.items())),
    }


@dataclass
class LoadTestOptions:
    """Shape of one load-test run."""

    clients: int = 8
    #: Warm-phase requests each client issues (round-robin over the specs).
    requests_per_client: int = 4
    #: Run the overload phase (burst of distinct fresh scenarios).
    overload: bool = False
    #: Overload burst size (0: 4× the pool's total admission bound is a good
    #: default, but the harness cannot see the server config — so explicit).
    overload_requests: int = 32
    timeout: float = 300.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"clients must be at least 1 (got {self.clients})")
        if self.requests_per_client < 1:
            raise ValueError(
                f"requests_per_client must be at least 1 (got {self.requests_per_client})"
            )


@dataclass
class LoadTestReport:
    """Everything one load-test run measured."""

    url: str
    num_scenarios: int
    clients: int
    #: Service replicas driven round-robin (1: classic single-server run).
    replicas: int = 1
    #: Saturation-curve points (clients × workers × replicas), when measured.
    saturation: List[Dict] = field(default_factory=list)
    #: Per-phase latency samples (seconds): cold / warm / overload.
    phase_latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Wall-clock seconds per phase.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: HTTP-status histogram over every request.
    http_statuses: Dict[int, int] = field(default_factory=dict)
    #: Terminal-state histogram over every parsed response.
    states: Dict[str, int] = field(default_factory=dict)
    transport_errors: int = 0
    server_errors: int = 0
    rejections: int = 0
    cache_hits: int = 0
    #: /metrics snapshot taken after the run (in-memory convenience; the
    #: serialized report carries the condensed ``service`` section instead).
    metrics: Dict = field(default_factory=dict)
    #: Server-side headline numbers condensed from the metrics registry
    #: (cache hit rate, pool saturation, runs by status).
    service: Dict = field(default_factory=dict)

    # -- derived ----------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        return sum(self.http_statuses.values()) + self.transport_errors

    @property
    def warm_throughput_rps(self) -> float:
        seconds = self.phase_seconds.get("warm", 0.0)
        count = len(self.phase_latencies.get("warm", []))
        return count / seconds if seconds > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        answered = sum(self.states.values())
        return self.cache_hits / answered if answered else 0.0

    @property
    def rejection_rate(self) -> float:
        total = self.total_requests
        return self.rejections / total if total else 0.0

    def percentile(self, phase: str, fraction: float) -> float:
        from ..analysis.service import percentile

        return percentile(self.phase_latencies.get(phase, []), fraction)

    @property
    def speedup_p50(self) -> float:
        """Cold p50 over warm p50 (the ≥ 10× acceptance bar)."""
        warm = self.percentile("warm", 0.5)
        cold = self.percentile("cold", 0.5)
        return cold / warm if warm > 0 else 0.0

    def acceptable(self) -> Tuple[bool, List[str]]:
        """The PR's acceptance bar; returns (ok, list of violated criteria)."""
        problems: List[str] = []
        if self.transport_errors:
            problems.append(f"{self.transport_errors} transport error(s)")
        if self.server_errors:
            problems.append(f"{self.server_errors} 5xx server error(s)")
        failed = self.states.get("error", 0)
        if failed:
            problems.append(f"{failed} run(s) ended in state 'error'")
        if self.cache_hits == 0:
            problems.append("no cache hits observed (warm phase never hit)")
        if self.speedup_p50 < 10.0:
            problems.append(
                f"warm p50 only {self.speedup_p50:.1f}x faster than cold (need >= 10x)"
            )
        return (not problems, problems)

    def headline(self) -> str:
        ok, problems = self.acceptable()
        verdict = "PASS" if ok else "FAIL: " + "; ".join(problems)
        return (
            f"loadtest {self.url}: {self.total_requests} requests, "
            f"{self.clients} clients, {self.num_scenarios} scenarios\n"
            f"  cold p50 {self.percentile('cold', 0.5) * 1000:.1f}ms -> warm p50 "
            f"{self.percentile('warm', 0.5) * 1000:.1f}ms ({self.speedup_p50:.0f}x), "
            f"warm throughput {self.warm_throughput_rps:.1f} req/s\n"
            f"  cache hit rate {self.cache_hit_rate:.0%}, rejections {self.rejections}, "
            f"transport errors {self.transport_errors}, server errors {self.server_errors}\n"
            f"  verdict: {verdict}"
        )

    def to_dict(self) -> Dict:
        from ..analysis.service import latency_summary

        document = {
            "schema": "bench-service",
            "version": 1,
            "url": self.url,
            "clients": self.clients,
            "replicas": self.replicas,
            "num_scenarios": self.num_scenarios,
            "total_requests": self.total_requests,
            "latency_seconds": {
                phase: latency_summary(samples)
                for phase, samples in self.phase_latencies.items()
            },
            "phase_seconds": {k: round(v, 6) for k, v in self.phase_seconds.items()},
            "speedup_p50": self.speedup_p50,
            "warm_throughput_rps": self.warm_throughput_rps,
            "cache_hit_rate": self.cache_hit_rate,
            "rejection_rate": self.rejection_rate,
            "rejections": self.rejections,
            "transport_errors": self.transport_errors,
            "server_errors": self.server_errors,
            "http_statuses": {str(k): v for k, v in sorted(self.http_statuses.items())},
            "states": dict(sorted(self.states.items())),
            "service": self.service,
        }
        if self.saturation:
            document["saturation"] = self.saturation
        return document


#: One request as the driver saw it: (seconds, HTTP status or ``None`` for a
#: transport failure, response state, cache outcome).
Observation = Tuple[float, Optional[int], str, str]


def _drive(
    urls: Sequence[str],
    wires: Iterable[bytes],
    deadline: float,
    timeout: float,
    observations: List[Observation],
) -> None:
    """One client thread: send ``wires`` round-robin over keep-alive
    connections to ``urls`` until they run out or ``deadline`` passes."""
    with RoundRobinClient(urls, timeout=timeout) as client:
        for wire in wires:
            if time.perf_counter() >= deadline:
                break
            start = time.perf_counter()
            try:
                status, document = client.solve_prepared(wire)
            except ServiceClientError:
                observations.append((time.perf_counter() - start, None, "", ""))
                continue
            observations.append(
                (
                    time.perf_counter() - start,
                    status,
                    document.get("state", ""),
                    document.get("cache", ""),
                )
            )


def _run_clients(
    urls: Sequence[str],
    per_client: Sequence[Iterable[bytes]],
    timeout: float,
    duration: float = math.inf,
) -> Tuple[float, List[Observation]]:
    """One :func:`_drive` thread per wire sequence, bounded by the sequences'
    lengths or by ``duration`` seconds; returns (wall seconds, observations).

    Callers render the requests before the clock starts: the measurement is
    the service, not this generator's JSON encoder (and replayed identical
    bytes are exactly what a cache-warm fleet sees).
    """
    sinks: List[List[Observation]] = [[] for _ in per_client]
    deadline = time.perf_counter() + duration
    threads = [
        threading.Thread(
            target=_drive, args=(urls, wires, deadline, timeout, sink), daemon=True
        )
        for wires, sink in zip(per_client, sinks)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, [entry for sink in sinks for entry in sink]


def _record(report: LoadTestReport, phase: str, observations: List[Observation]) -> None:
    """Fold one phase's observations into the report."""
    for seconds, status, state, cache in observations:
        if status is None:
            report.transport_errors += 1
            continue
        report.http_statuses[status] = report.http_statuses.get(status, 0) + 1
        if status >= 500 and status != 503:
            report.server_errors += 1
        if status in (429, 503):
            report.rejections += 1
        if state in RUN_STATUSES:
            report.states[state] = report.states.get(state, 0) + 1
            report.phase_latencies.setdefault(phase, []).append(seconds)
            if cache in ("hit", "store", "coalesced"):
                report.cache_hits += 1


def run_loadtest(
    url: Union[str, Sequence[str]],
    specs: Sequence[ScenarioSpec],
    options: Optional[LoadTestOptions] = None,
) -> LoadTestReport:
    """Drive a running service (or replica fleet) through cold/warm(/overload).

    ``url`` may be one base url or a sequence of replica urls; with several,
    every client thread rotates across the fleet round-robin and the phases
    measure aggregate fleet behaviour (the persistent store is the layer
    that keeps replica caches coherent).
    """
    options = options or LoadTestOptions()
    if not specs:
        raise ValueError("loadtest needs at least one scenario spec")
    urls = [url] if isinstance(url, str) else list(url)
    if not urls:
        raise ValueError("loadtest needs at least one service url")
    report = LoadTestReport(
        url=urls[0],
        num_scenarios=len(specs),
        clients=options.clients,
        replicas=len(urls),
    )
    clients = options.clients
    with RoundRobinClient(urls, timeout=options.timeout) as probe:
        # cold: every distinct scenario once, recomputation forced
        cold = [
            probe.render(ServiceRequest(scenario=spec, fresh=True, tag="cold"))
            for spec in specs
        ]
        # warm: concurrent clients replaying the same scenarios
        warm = [probe.render(ServiceRequest(scenario=spec, tag="warm")) for spec in specs]
        phases = {
            "cold": [cold[index::clients] for index in range(clients)],
            "warm": [
                list(islice(cycle(warm), index, index + options.requests_per_client))
                for index in range(clients)
            ],
        }
        # overload: a burst of distinct fresh scenarios beyond admission
        if options.overload:
            burst = [
                probe.render(
                    ServiceRequest(
                        scenario=replace(specs[i % len(specs)], seed=10_000 + i),
                        fresh=True,
                        tag="overload",
                    )
                )
                for i in range(options.overload_requests)
            ]
            phases["overload"] = [burst[index::clients] for index in range(clients)]
        for phase, per_client in phases.items():
            seconds, observations = _run_clients(urls, per_client, options.timeout)
            report.phase_seconds[phase] = seconds
            _record(report, phase, observations)
        try:
            report.metrics = probe.clients[0].metrics()
        except ServiceClientError:
            report.metrics = {}
    report.service = service_summary(report.metrics)
    return report


# ---------------------------------------------------------------------------
# saturation curve
# ---------------------------------------------------------------------------

def run_saturation(
    urls: Union[str, Sequence[str]],
    specs: Sequence[ScenarioSpec],
    clients_grid: Sequence[int] = (1, 2, 4, 8),
    duration: float = 1.0,
    http_workers: int = 1,
    timeout: float = 30.0,
) -> List[Dict]:
    """Measure warm throughput at increasing concurrency; one dict per point.

    Assumes the fleet is already warm for ``specs`` (run a loadtest or replay
    the cold phase first): every request should be a cache hit, so the curve
    isolates the serving front end.  Each point drives N client threads for
    ``duration`` seconds and reports aggregate throughput plus latency
    percentiles; ``http_workers`` is carried into the point verbatim so the
    published curve is self-describing (clients × workers × replicas).
    """
    from ..analysis.service import percentile

    if not specs:
        raise ValueError("saturation needs at least one scenario spec")
    url_list = [urls] if isinstance(urls, str) else list(urls)
    with RoundRobinClient(url_list, timeout=timeout) as probe:
        wires = [
            probe.render(ServiceRequest(scenario=spec, tag="saturation")) for spec in specs
        ]
    points: List[Dict] = []
    for clients in clients_grid:
        if clients < 1:
            raise ValueError(f"clients must be positive (got {clients})")
        elapsed, observations = _run_clients(
            url_list,
            [islice(cycle(wires), offset, None) for offset in range(clients)],
            timeout,
            duration,
        )
        rejections = sum(status in (429, 503) for _, status, _, _ in observations)
        latencies = [
            seconds
            for seconds, status, state, _ in observations
            if state in RUN_STATUSES and status < 500 and status != 429
        ]
        points.append(
            {
                "clients": clients,
                "http_workers": http_workers,
                "replicas": len(url_list),
                "seconds": round(elapsed, 6),
                "requests": len(latencies),
                "throughput_rps": (
                    round(len(latencies) / elapsed, 3) if elapsed > 0 else 0.0
                ),
                "p50_ms": round(percentile(latencies, 0.5) * 1000, 3),
                "p99_ms": round(percentile(latencies, 0.99) * 1000, 3),
                "errors": len(observations) - len(latencies) - rejections,
                "rejections": rejections,
            }
        )
    return points


__all__ = [
    "LoadTestOptions",
    "LoadTestReport",
    "RoundRobinClient",
    "ServiceClient",
    "ServiceClientError",
    "run_loadtest",
    "run_saturation",
    "service_summary",
]
