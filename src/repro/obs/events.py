"""Structured event log: the pipeline's *what-just-happened* instrument.

The span tracer answers *where does time go* and the metrics registry *how
much and how often*; the event log records **discrete operational moments** —
a sweep run finishing, a disruption striking an agent, a request bouncing off
a saturated pool, an alert rule firing — as append-only JSONL records that a
human (``repro top``), a machine (the ``/events`` SSE stream) or a file tail
can watch while the pipeline is still running.

One record per event::

    {"seq": 17, "ts": 1754650000.25, "mono": 3.141592653, "level": "info",
     "component": "sweep", "kind": "run.finished", "message": "ok",
     "run_id": "sweep-1", "request_id": "", "scenario_id": "8a65fb6b025c",
     "fields": {"status": "ok", "seconds": 1.25}}

Design rules, in priority order:

* **Process-safe by serialization.**  Every event is fully rendered to one
  JSON line before any I/O and appended under a POSIX ``flock`` (the same
  discipline as :class:`~repro.experiments.store.ResultStore`), so spawned
  sweep/pool workers and their parent can interleave on one file without
  ever tearing a line.  Workers inherit the sink through the
  ``REPRO_EVENTS`` environment variable — no plumbing.
* **Bounded everywhere.**  The in-memory tail is a ring buffer; subscriber
  queues are bounded and *drop* on overflow (a slow SSE client loses events,
  it never stalls the pipeline or grows memory).
* **Deterministic serialization.**  With injected clocks two identical event
  sequences serialize byte-identically: fixed key order, fixed rounding,
  monotonically assigned sequence numbers.

Context (``run_id`` / ``request_id`` / ``scenario_id``) propagates through
:func:`event_context` per thread, mirroring the X-Request-Id threading the
service layer already does for spans.
"""

from __future__ import annotations

import json
import os
import queue
import threading
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from time import monotonic
from time import time as wall_time
from typing import Callable, Dict, Iterator, List, Optional, Union

try:  # POSIX advisory file locking; absent on some platforms (e.g. Windows)
    import fcntl
except ImportError:  # pragma: no cover - exercised only off-POSIX
    fcntl = None  # type: ignore[assignment]

PathLike = Union[str, Path]

#: Event severities, from chattiest to loudest.
EVENT_LEVELS = ("debug", "info", "warning", "error")

#: Decimal places of serialized wall/monotonic timestamps (1 µs / 1 ns).
WALL_DIGITS = 6
MONO_DIGITS = 9

#: Context keys that propagate onto every event emitted in scope.
CONTEXT_KEYS = ("run_id", "request_id", "scenario_id")


class EventError(ValueError):
    """Raised for invalid event levels or malformed subscriptions."""


class Event:
    """One structured, timestamped operational event."""

    __slots__ = (
        "seq",
        "ts",
        "mono",
        "level",
        "component",
        "kind",
        "message",
        "run_id",
        "request_id",
        "scenario_id",
        "fields",
    )

    def __init__(
        self,
        seq: int,
        ts: float,
        mono: float,
        level: str,
        component: str,
        kind: str,
        message: str = "",
        run_id: str = "",
        request_id: str = "",
        scenario_id: str = "",
        fields: Optional[Dict] = None,
    ):
        self.seq = seq
        self.ts = ts
        self.mono = mono
        self.level = level
        self.component = component
        self.kind = kind
        self.message = message
        self.run_id = run_id
        self.request_id = request_id
        self.scenario_id = scenario_id
        self.fields = fields or {}

    def to_dict(self) -> Dict:
        """Serialize with fixed key order and fixed time rounding."""
        return {
            "seq": self.seq,
            "ts": round(self.ts, WALL_DIGITS),
            "mono": round(self.mono, MONO_DIGITS),
            "level": self.level,
            "component": self.component,
            "kind": self.kind,
            "message": self.message,
            "run_id": self.run_id,
            "request_id": self.request_id,
            "scenario_id": self.scenario_id,
            "fields": {k: self.fields[k] for k in sorted(self.fields)},
        }

    def to_json(self) -> str:
        """One JSONL line (the wire and file format)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, document: Dict) -> "Event":
        return cls(
            seq=int(document.get("seq", 0)),
            ts=float(document.get("ts", 0.0)),
            mono=float(document.get("mono", 0.0)),
            level=str(document.get("level", "info")),
            component=str(document.get("component", "")),
            kind=str(document.get("kind", "")),
            message=str(document.get("message", "")),
            run_id=str(document.get("run_id", "")),
            request_id=str(document.get("request_id", "")),
            scenario_id=str(document.get("scenario_id", "")),
            fields=dict(document.get("fields", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Event({self.kind!r}, {self.component!r}, seq={self.seq})"


class Subscription:
    """A bounded live feed of events for one consumer (e.g. one SSE client).

    Events arriving while the queue is full are *dropped* for this consumer
    (counted in :attr:`dropped`) — a slow reader never exerts backpressure
    on the emitting pipeline.
    """

    def __init__(self, capacity: int = 1024):
        self._queue: "queue.Queue[Event]" = queue.Queue(maxsize=capacity)
        self.dropped = 0
        self.closed = False

    def _offer(self, event: Event) -> None:
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            self.dropped += 1

    def get(self, timeout: Optional[float] = None) -> Optional[Event]:
        """The next event, or ``None`` when ``timeout`` elapses quietly."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None


class EventLog:
    """Process-safe structured event logger with ring buffer and subscribers.

    Parameters
    ----------
    capacity:
        Events retained in the in-memory ring (the ``/dashboard`` tail and
        the SSE replay window).
    path:
        Optional JSONL sink; every event appends one line under ``flock``.
    clock / wall:
        Injectable monotonic/wall clocks — fixed clocks make the serialized
        log a pure function of the emitted sequence (pinned by the
        byte-determinism tests).
    """

    def __init__(
        self,
        capacity: int = 2048,
        path: Optional[PathLike] = None,
        clock: Callable[[], float] = monotonic,
        wall: Callable[[], float] = wall_time,
    ):
        if capacity < 1:
            raise EventError(f"capacity must be at least 1 (got {capacity})")
        self.enabled = True
        self._capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._clock = clock
        self._wall = wall
        self._subscribers: List[Subscription] = []
        self._path: Optional[Path] = None
        if path:
            self.attach_file(path)

    # -- sinks -------------------------------------------------------------------
    @property
    def path(self) -> Optional[Path]:
        return self._path

    def attach_file(self, path: PathLike) -> None:
        """Append every future event to ``path`` (creating it immediately)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.touch()
        self._path = target

    def detach_file(self) -> None:
        self._path = None

    def _write_line(self, line: str) -> None:
        if self._path is None:
            return
        with self._path.open("a") as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            handle.write(line + "\n")
            handle.flush()

    # -- emission ----------------------------------------------------------------
    def emit(
        self,
        kind: str,
        component: str,
        level: str = "info",
        message: str = "",
        **fields,
    ) -> Optional[Event]:
        """Record one event: ring, subscribers, and the file sink (if any).

        Context bound by :func:`event_context` on the calling thread rides
        along; explicit ``run_id``/``request_id``/``scenario_id`` keyword
        fields override it.  Returns the event, or ``None`` when disabled.
        """
        if not self.enabled:
            return None
        if level not in EVENT_LEVELS:
            raise EventError(
                f"unknown level {level!r}; expected one of {EVENT_LEVELS}"
            )
        context = _CONTEXT.values
        run_id, request_id, scenario_id = (
            str(fields.pop(key, "") or context.get(key, "")) for key in CONTEXT_KEYS
        )
        with self._lock:
            self._seq += 1
            event = Event(
                self._seq,
                self._wall(),
                self._clock(),
                level,
                component,
                kind,
                message,
                run_id,
                request_id,
                scenario_id,
                fields,
            )
            self._ring.append(event)
            subscribers = list(self._subscribers) if self._subscribers else None
        if subscribers:
            for subscription in subscribers:
                subscription._offer(event)
        if self._path is not None:
            self._write_line(event.to_json())
        return event

    # -- queries -----------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    def recent(
        self,
        limit: int = 100,
        level: Optional[str] = None,
        component: Optional[str] = None,
        since: int = 0,
    ) -> List[Dict]:
        """The newest matching events from the ring, oldest first."""
        with self._lock:
            events = list(self._ring)
        selected = [
            event
            for event in events
            if event.seq > since
            and (level is None or event.level == level)
            and (component is None or event.component == component)
        ]
        return [event.to_dict() for event in selected[-max(0, limit):]]

    # -- subscriptions -----------------------------------------------------------
    def subscribe(self, since: int = -1, capacity: int = 1024) -> Subscription:
        """A live feed, optionally preloaded with the ring tail after ``since``.

        ``since=-1`` skips replay (live only); ``since=0`` replays the whole
        retained ring — the reconnect path: a client that remembers the last
        ``seq`` it saw passes it and misses nothing still retained.
        """
        subscription = Subscription(capacity=capacity)
        with self._lock:
            if since >= 0:
                for event in self._ring:
                    if event.seq > since:
                        subscription._offer(event)
            self._subscribers.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        subscription.closed = True
        with self._lock:
            if subscription in self._subscribers:
                self._subscribers.remove(subscription)

    @property
    def num_subscribers(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def clear(self) -> None:
        """Forget the ring and reset the sequence (tests only; sinks keep lines)."""
        with self._lock:
            self._ring.clear()
            self._seq = 0


# ---------------------------------------------------------------------------
# thread-local context propagation
# ---------------------------------------------------------------------------

class _ThreadContext(threading.local):
    #: What a thread that bound nothing reads: a class attribute, found
    #: without the failed per-thread lookup a missing attribute costs.
    values: Dict[str, str] = {}


_CONTEXT = _ThreadContext()


def current_context() -> Dict[str, str]:
    """The calling thread's bound event context (empty dict when none)."""
    return _CONTEXT.values or {}


@contextmanager
def event_context(**values: str) -> Iterator[None]:
    """Bind ``run_id``/``request_id``/``scenario_id`` onto emitted events.

    Nested contexts layer (inner values win); the previous binding is
    restored on exit.  Unknown keys are rejected so typos fail loudly.
    """
    for key in values:
        if key not in CONTEXT_KEYS:
            raise EventError(
                f"unknown context key {key!r}; expected one of {CONTEXT_KEYS}"
            )
    previous = current_context()
    merged = {**previous, **{k: str(v) for k, v in values.items()}}
    _CONTEXT.values = merged
    try:
        yield
    finally:
        _CONTEXT.values = previous


# ---------------------------------------------------------------------------
# the process-wide log
# ---------------------------------------------------------------------------

#: The process-wide default log (sweep runner, sim engine, CLI).
EVENT_LOG = EventLog()


def get_event_log() -> EventLog:
    return EVENT_LOG


def emit_event(
    kind: str, component: str, level: str = "info", message: str = "", **fields
) -> Optional[Event]:
    """Emit onto the process-wide log (the module-level convenience)."""
    return EVENT_LOG.emit(kind, component, level=level, message=message, **fields)


def read_events(path: PathLike) -> List[Dict]:
    """Parse an events JSONL file, skipping malformed/partial lines."""
    events: List[Dict] = []
    target = Path(path)
    if not target.exists():
        return events
    for line in target.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            document = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(document, dict):
            events.append(document)
    return events


# Ambient file sink: spawned workers inherit the environment, so a parent
# exporting REPRO_EVENTS=/path/events.jsonl gets every worker's events
# interleaved (flock-safe) into one file without any plumbing.
_ambient = os.environ.get("REPRO_EVENTS", "")
if _ambient and _ambient not in ("0", "false", "no"):  # pragma: no cover - spawn path
    try:
        EVENT_LOG.attach_file(_ambient)
    except OSError:
        pass
