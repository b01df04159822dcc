"""Pre-fork HTTP front end: N server processes sharing one port.

One Python process tops out far below the serving targets the roadmap sets —
the GIL serializes request handling no matter how many threads the
``ThreadingHTTPServer`` spawns.  :class:`PreforkServer` runs ``http_workers``
*processes*, each a full :class:`~repro.service.server.SolveService` with its
own sharded cache, compute pool and metrics registry, all accepting on the
same address:

* **SO_REUSEPORT** (Linux, the primary mode): every worker binds its own
  listening socket on the shared port and the kernel load-balances incoming
  connections across them — no accept lock, no passing file descriptors.
  The parent holds a bound-but-not-listening probe socket so the port stays
  reserved (and port 0 resolves) without ever stealing a connection.
* **shared-listener fallback** (no SO_REUSEPORT): the parent binds and
  listens once and ships the socket to every spawned worker through
  :mod:`multiprocessing`'s fd-passing reduction; workers compete on
  ``accept``.

State that must be shared is shared through files, not memory: the
persistent JSONL tier is the common warm layer (any worker's computation
warms every other worker via :meth:`~repro.experiments.store.ResultStore.
refresh`), and the event log appends under ``flock``.  Per-worker metrics
come back to the parent on shutdown via the ``MetricsRegistry.drain()``
snapshot hand-off and merge into one fleet-wide registry.

Inside each worker, :class:`_TurboHandler` short-circuits ``POST /solve`` —
by far the hottest verb — before any of ``http.server``'s generic machinery
runs: a single readline header scan, a memoized body→request parse, the
:meth:`~repro.service.server.SolveService.try_fast` warm path, and one
``write`` for the whole response.  Every other verb/path falls through to
the stock :class:`~repro.service.server._ServiceHandler` routes unchanged.
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import socket
import threading
import time
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional

from .api import ServiceRequest
from .server import (
    ServiceConfig,
    SolveService,
    _BadRequest,
    _content_length,
    _request_id,
    _ServiceHandler,
    _solve_request,
)

#: Memoized raw-body-bytes -> parsed request.  Loadtests (and real fleets
#: replaying popular scenarios) send byte-identical bodies thousands of
#: times; parsing JSON + rebuilding the spec + hashing the scenario id costs
#: more than the rest of the warm path combined.  Bounded by periodic clear.
_PARSE_CACHE: Dict[bytes, ServiceRequest] = {}
_PARSE_CACHE_LIMIT = 4096


def _parse_body_cached(body: bytes) -> ServiceRequest:
    """Parse a ``/solve`` body, memoized on the exact bytes."""
    request = _PARSE_CACHE.get(body)
    if request is None:
        request = _solve_request(body)
        if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
            _PARSE_CACHE.clear()
        _PARSE_CACHE[body] = request
    return request


class _TurboHandler(_ServiceHandler):
    """:class:`_ServiceHandler` with a hand-rolled ``POST /solve`` hot path."""

    def handle_one_request(self) -> None:  # noqa: C901 - mirrors the stdlib shape
        try:
            self.raw_requestline = self.rfile.readline(65537)
            if len(self.raw_requestline) > 65536:
                self.requestline = ""
                self.request_version = ""
                self.command = ""
                self.send_error(414)
                return
            if not self.raw_requestline:
                self.close_connection = True
                return
            if self.raw_requestline.startswith(b"POST /solve "):
                self._fast_solve()
                return
            # Anything else: the stock http.server machinery, verbatim.
            if not self.parse_request():
                return
            method_name = "do_" + self.command
            if not hasattr(self, method_name):
                self.send_error(501, f"Unsupported method ({self.command!r})")
                return
            getattr(self, method_name)()
            self.wfile.flush()
        except TimeoutError as error:
            self.log_error("Request timed out: %r", error)
            self.close_connection = True

    # -- hot path ---------------------------------------------------------------
    def _fast_solve(self) -> None:
        """One ``POST /solve`` with minimal framing: readline header scan,
        memoized parse, ``try_fast`` warm answer, single response write."""
        rfile = self.rfile
        content_length: Optional[str] = None
        request_id = ""
        expect_continue = False
        self.close_connection = False
        while True:
            line = rfile.readline(65537)
            if not line or line in (b"\r\n", b"\n"):
                break
            key, _, value = line.partition(b":")
            key = key.strip().lower()
            if key == b"content-length":
                content_length = value.decode("latin-1")
            elif key == b"x-request-id":
                request_id = value.decode("latin-1")
            elif key == b"connection":
                if value.strip().lower() == b"close":
                    self.close_connection = True
            elif key == b"expect":
                if value.strip().lower() == b"100-continue":
                    expect_continue = True
        self.request_id = request_id = _request_id(request_id)
        try:
            length = _content_length(content_length, self.service.config.max_body_bytes)
            if expect_continue:
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = rfile.read(length)
            if len(body) < length:
                self.close_connection = True
                return
            request = _parse_body_cached(body)
        except _BadRequest as bad:
            self._fast_json(bad.status, bad.document, close=bad.close)
            return
        payload = self.service.try_fast(request, request_id)
        if payload is not None:
            self._fast_send(200, payload)
            return
        # Cold/coalesced/draining/fresh: the full resolution machinery.
        response = self.service.resolve(request, request_id=request_id)
        payload = (json.dumps(response.to_dict(), sort_keys=True) + "\n").encode()
        self._fast_send(
            response.http_status, payload, retry_after=response.retry_after_seconds
        )

    def _fast_json(self, status: int, document: Dict, close: bool = False) -> None:
        if close:
            self.close_connection = True
        payload = (json.dumps(document, sort_keys=True) + "\n").encode()
        self._fast_send(status, payload)

    def _fast_send(
        self, status: int, payload: bytes, retry_after: Optional[float] = None
    ) -> None:
        """Status line + headers + body in one buffer, one ``write``."""
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
        )
        if self.request_id:
            head += f"X-Request-Id: {self.request_id}\r\n"
        if retry_after is not None:
            head += f"Retry-After: {max(1, round(retry_after))}\r\n"
        head += (
            "Connection: close\r\n\r\n"
            if self.close_connection
            else "Connection: keep-alive\r\n\r\n"
        )
        self.wfile.write(head.encode("latin-1") + payload)


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

def _bind_reuseport(host: str, port: int, listen: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    if listen:
        sock.listen(128)
    return sock


class _WorkerHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` adopting an already-bound, listening socket.

    The listener is made non-blocking: in shared-listener mode every worker
    selects on the same socket, and the workers that lose the race for a
    connection must get ``EAGAIN`` back from ``accept()`` rather than block
    in it — a blocked accept loop never sees ``shutdown()``.
    """

    def __init__(self, sock: socket.socket, handler) -> None:
        super().__init__(sock.getsockname()[:2], handler, bind_and_activate=False)
        self.socket.close()  # the unbound one the base class minted
        sock.setblocking(False)
        self.socket = sock
        host, port = sock.getsockname()[:2]
        self.server_name = host
        self.server_port = port
        self.daemon_threads = True


def _worker_main(
    config: ServiceConfig,
    conn,
    listener: Optional[socket.socket],
    port: int,
    quiet: bool,
) -> None:
    """One pre-fork worker: a full service + accept loop, parent-controlled.

    Protocol on ``conn``: the worker sends ``("ready", port)`` once it is
    accepting (or ``("error", message)``), then blocks for the parent's
    ``"stop"``; on stop it drains, sends ``("metrics", snapshot)`` — the
    ``MetricsRegistry.drain()`` hand-off the parent merges — and exits.
    """
    # Shutdown is orchestrated by the parent over the pipe; a terminal
    # Ctrl-C must not yank workers out from under in-flight requests.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        service = SolveService(config)
        if listener is None:
            listener = _bind_reuseport(config.host, port, listen=True)
        handler = type(
            "BoundTurboHandler",
            (_TurboHandler,),
            {"service": service, "quiet": quiet},
        )
        httpd = _WorkerHTTPServer(listener, handler)
    except Exception as error:  # noqa: BLE001 - the parent needs the reason
        conn.send(("error", f"{type(error).__name__}: {error}"))
        return
    thread = threading.Thread(
        target=httpd.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="prefork-accept",
        daemon=True,
    )
    thread.start()
    conn.send(("ready", httpd.server_port))
    try:
        while True:
            message = conn.recv()
            if message == "stop":
                break
    except (EOFError, OSError):
        pass  # the parent went away; drain and exit anyway
    service.begin_drain()
    httpd.shutdown()
    httpd.server_close()
    service.drain(timeout=30.0)
    try:
        conn.send(("metrics", service.registry.drain()))
    except (BrokenPipeError, OSError):
        pass


# ---------------------------------------------------------------------------
# parent
# ---------------------------------------------------------------------------

class PreforkServer:
    """N worker processes accepting on one shared port (see module docs).

    API mirrors :class:`~repro.service.server.ServiceServer` — ``start()`` /
    ``serve_forever()`` / ``stop()`` / ``url`` — so the CLI and the
    benchmarks treat the two interchangeably.  After ``stop()``,
    :attr:`registry` holds the merged per-worker metrics.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        quiet: bool = True,
        reuse_port: Optional[bool] = None,
    ):
        self.config = config or ServiceConfig()
        if self.config.http_workers < 1:
            raise ValueError(
                f"http_workers must be at least 1 (got {self.config.http_workers})"
            )
        self.quiet = quiet
        self.reuse_port = (
            hasattr(socket, "SO_REUSEPORT") if reuse_port is None else reuse_port
        )
        from ..obs import MetricsRegistry

        #: Fleet-wide metrics, merged from worker ``drain()`` snapshots.
        self.registry = MetricsRegistry()
        self._listener: Optional[socket.socket] = None
        self._probe: Optional[socket.socket] = None
        self._workers: List[multiprocessing.Process] = []
        self._pipes: List = []
        self._port = 0
        self._stopped = threading.Event()

    # -- addresses --------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle --------------------------------------------------------------
    def start(self, ready_timeout: float = 60.0) -> "PreforkServer":
        """Bind, spawn every worker, and wait until all of them accept."""
        if self.reuse_port:
            # Bound but *not* listening: reserves the port (resolving port 0)
            # without joining the kernel's connection distribution — only the
            # workers' listening sockets ever receive a connection.
            self._probe = _bind_reuseport(self.config.host, self.config.port, listen=False)
            self._port = self._probe.getsockname()[1]
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host, self.config.port))
            listener.listen(128)
            self._listener = listener
            self._port = listener.getsockname()[1]
        context = multiprocessing.get_context(self.config.start_method)
        for index in range(self.config.http_workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(
                    self.config,
                    child_conn,
                    self._listener,
                    self._port,
                    self.quiet,
                ),
                # Not daemonic: each worker runs its own compute pool (child
                # processes), which daemonic processes may not have.  Orphan
                # protection comes from the pipe instead — a worker that sees
                # EOF on its control pipe drains and exits.
                name=f"repro-http-{index}",
            )
            process.start()
            child_conn.close()
            self._workers.append(process)
            self._pipes.append(parent_conn)
        deadline = time.monotonic() + ready_timeout
        for index, conn in enumerate(self._pipes):
            remaining = max(0.1, deadline - time.monotonic())
            if not conn.poll(remaining):
                self.stop(drain_timeout=1.0)
                raise RuntimeError(f"http worker {index} did not come up in {ready_timeout:g}s")
            kind, detail = conn.recv()
            if kind != "ready":
                self.stop(drain_timeout=1.0)
                raise RuntimeError(f"http worker {index} failed to start: {detail}")
        return self

    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`stop` (the CLI foreground)."""
        self._stopped.wait()

    def stop(self, drain_timeout: Optional[float] = 60.0) -> bool:
        """Drain every worker, merge its metrics snapshot, reap processes."""
        timeout = 60.0 if drain_timeout is None else drain_timeout
        for conn in self._pipes:
            try:
                conn.send("stop")
            except (BrokenPipeError, OSError):
                pass
        clean = True
        deadline = time.monotonic() + timeout
        for conn in self._pipes:
            try:
                if conn.poll(max(0.1, deadline - time.monotonic())):
                    kind, payload = conn.recv()
                    if kind == "metrics":
                        self.registry.merge(payload)
                    else:
                        clean = False
                else:
                    clean = False
            except (EOFError, OSError):
                clean = False
            finally:
                conn.close()
        for process in self._workers:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
                clean = False
        self._workers.clear()
        self._pipes.clear()
        for sock in (self._probe, self._listener):
            if sock is not None:
                sock.close()
        self._probe = None
        self._listener = None
        self._stopped.set()
        return clean


__all__ = ["PreforkServer"]
