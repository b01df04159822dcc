"""The structured event log: determinism, bounded fan-out, and SSE framing.

Three layers under test:

* :class:`~repro.obs.events.EventLog` in isolation — byte-determinism under
  fixed clocks (two identical emit sequences serialize identically, in
  memory and on disk), ring/replay semantics, bounded subscriptions that
  drop instead of stalling, thread-local context layering;
* the JSONL file sink — flock-appended lines parse back, malformed/partial
  lines are skipped, not fatal;
* the live ``GET /events`` Server-Sent-Events endpoint on a real
  :class:`~repro.service.server.ServiceServer` — well-formed ``id:`` /
  ``event:`` / ``data:`` frames, keep-alive comments while idle, replay via
  ``since=`` and ``Last-Event-ID`` (the reconnect path), and a client that
  disconnects mid-stream leaving the server healthy with no leaked
  subscription.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.obs import (
    CONTEXT_KEYS,
    Event,
    EventError,
    EventLog,
    current_context,
    event_context,
    read_events,
)
from repro.service import ServiceConfig, ServiceServer


class FakeClock:
    """A deterministic clock: starts at ``start``, advances ``step`` per call."""

    def __init__(self, start: float = 0.0, step: float = 0.125):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def fixed_log(tmp_path=None, **kwargs) -> EventLog:
    log = EventLog(
        clock=FakeClock(start=0.0, step=0.25),
        wall=FakeClock(start=1_754_650_000.0, step=1.0),
        path=(tmp_path / "events.jsonl") if tmp_path else None,
        **kwargs,
    )
    return log


def emit_sample_sequence(log: EventLog) -> None:
    log.emit("sweep.started", "sweep", message="smoke", total=9, workers=2)
    with event_context(run_id="sweep-1", scenario_id="8a65fb6b025c"):
        log.emit("run.started", "runner", message="smoke/tiny")
        log.emit(
            "run.finished",
            "runner",
            level="warning",
            message="timeout",
            status="timeout",
            seconds=1.25,
        )
    log.emit("sweep.finished", "sweep", total=9, seconds=3.5)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_event_log_is_byte_deterministic_under_fixed_clocks(tmp_path):
    first = fixed_log(tmp_path / "a")
    second = fixed_log(tmp_path / "b")
    emit_sample_sequence(first)
    emit_sample_sequence(second)
    lines_a = (tmp_path / "a" / "events.jsonl").read_bytes()
    lines_b = (tmp_path / "b" / "events.jsonl").read_bytes()
    assert lines_a == lines_b
    assert len(lines_a.splitlines()) == 4
    memory_a = [json.dumps(e, sort_keys=True) for e in first.recent()]
    memory_b = [json.dumps(e, sort_keys=True) for e in second.recent()]
    assert memory_a == memory_b
    # The file and the ring agree byte for byte.
    assert lines_a.decode().splitlines() == memory_a


def test_event_serialization_has_fixed_key_order_and_rounding():
    event = Event(
        seq=17,
        ts=1754650000.123456789,
        mono=3.14159265358979,
        level="info",
        component="sweep",
        kind="run.finished",
        message="ok",
        fields={"b": 2, "a": 1},
    )
    document = event.to_dict()
    assert list(document) == [
        "seq", "ts", "mono", "level", "component", "kind",
        "message", "run_id", "request_id", "scenario_id", "fields",
    ]
    assert document["ts"] == 1754650000.123457  # 1 µs
    assert document["mono"] == 3.141592654  # 1 ns
    assert list(document["fields"]) == ["a", "b"]
    assert Event.from_dict(json.loads(event.to_json())).to_json() == event.to_json()


def test_sequence_numbers_are_monotonic_and_clear_resets():
    log = fixed_log()
    emit_sample_sequence(log)
    seqs = [e["seq"] for e in log.recent()]
    assert seqs == [1, 2, 3, 4]
    assert log.last_seq == 4
    log.clear()
    assert log.last_seq == 0 and log.recent() == []


# ---------------------------------------------------------------------------
# ring, subscriptions, context
# ---------------------------------------------------------------------------


def test_ring_buffer_evicts_oldest():
    log = EventLog(capacity=3)
    for index in range(5):
        log.emit("tick", "test", index=index)
    seqs = [e["seq"] for e in log.recent()]
    assert seqs == [3, 4, 5]
    assert log.last_seq == 5


def test_subscribe_replays_ring_tail_after_since():
    log = fixed_log()
    emit_sample_sequence(log)
    live_only = log.subscribe(since=-1)
    assert live_only.get(timeout=0.01) is None
    full = log.subscribe(since=0)
    assert [full.get(timeout=0.01).seq for _ in range(4)] == [1, 2, 3, 4]
    partial = log.subscribe(since=2)
    assert [partial.get(timeout=0.01).seq for _ in range(2)] == [3, 4]
    assert partial.get(timeout=0.01) is None
    # New events reach every live subscriber.
    log.emit("tick", "test")
    assert live_only.get(timeout=0.01).seq == 5
    assert full.get(timeout=0.01).seq == 5
    for subscription in (live_only, full, partial):
        log.unsubscribe(subscription)
    assert log.num_subscribers == 0


def test_slow_subscriber_drops_instead_of_stalling():
    log = EventLog()
    subscription = log.subscribe(capacity=2)
    for index in range(5):
        log.emit("tick", "test", index=index)
    assert subscription.dropped == 3
    assert subscription.get(timeout=0.01).seq == 1
    assert subscription.get(timeout=0.01).seq == 2
    assert subscription.get(timeout=0.01) is None
    log.unsubscribe(subscription)
    assert subscription.closed


def test_event_context_layers_and_explicit_kwargs_win():
    log = fixed_log()
    with event_context(run_id="outer"):
        with event_context(scenario_id="abc123"):
            assert current_context() == {"run_id": "outer", "scenario_id": "abc123"}
            event = log.emit("tick", "test")
            assert event.run_id == "outer" and event.scenario_id == "abc123"
            override = log.emit("tick", "test", scenario_id="explicit")
            assert override.scenario_id == "explicit" and override.run_id == "outer"
        assert current_context() == {"run_id": "outer"}
    assert current_context() == {}
    # Context never leaks into the free-form fields payload.
    assert event.to_dict()["fields"] == {}
    # Outside any context, an explicit id still becomes the event's id.
    bare = log.emit("tick", "test", request_id="r-1", tick=3)
    assert (bare.run_id, bare.request_id, bare.scenario_id) == ("", "r-1", "")
    assert bare.fields == {"tick": 3}


def test_unknown_context_key_and_level_fail_loudly():
    log = EventLog()
    with pytest.raises(EventError, match="unknown context key"):
        with event_context(trace_id="nope"):
            pass  # pragma: no cover - context manager raises on entry
    with pytest.raises(EventError, match="unknown level"):
        log.emit("tick", "test", level="fatal")
    assert set(CONTEXT_KEYS) == {"run_id", "request_id", "scenario_id"}


def test_disabled_log_is_silent(tmp_path):
    log = fixed_log(tmp_path)
    log.enabled = False
    assert log.emit("tick", "test") is None
    assert log.last_seq == 0
    assert (tmp_path / "events.jsonl").read_text() == ""
    log.enabled = True
    assert log.emit("tick", "test").seq == 1


# ---------------------------------------------------------------------------
# the JSONL file sink
# ---------------------------------------------------------------------------


def test_read_events_skips_malformed_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    log = fixed_log(tmp_path)
    emit_sample_sequence(log)
    raw = path.read_text()
    # Simulate a torn write and stray junk between two valid appends.
    lines = raw.splitlines()
    mangled = "\n".join(
        lines[:2] + ['{"seq": 99, "truncat', "not json at all", "[1, 2, 3]", ""] + lines[2:]
    )
    path.write_text(mangled + "\n")
    events = read_events(path)
    assert [e["seq"] for e in events] == [1, 2, 3, 4]
    assert events[2]["scenario_id"] == "8a65fb6b025c"
    assert read_events(tmp_path / "missing.jsonl") == []


def test_detach_file_stops_appending(tmp_path):
    log = fixed_log(tmp_path)
    log.emit("tick", "test")
    log.detach_file()
    log.emit("tick", "test")
    assert len(read_events(tmp_path / "events.jsonl")) == 1
    assert log.last_seq == 2  # the ring still records


# ---------------------------------------------------------------------------
# the /events SSE endpoint
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    instance = ServiceServer(
        ServiceConfig(port=0, workers=1, max_pending=4, warm_up=False)
    ).start()
    yield instance
    assert instance.stop(drain_timeout=30)


def parse_sse(payload: str):
    """Split an SSE byte stream into (comments, frames) where each frame is
    the dict of ``field: value`` lines between blank-line delimiters."""
    comments, frames, current = [], [], {}
    for line in payload.split("\n"):
        if line.startswith(":"):
            comments.append(line)
        elif not line:
            if current:
                frames.append(current)
                current = {}
        else:
            field, _, value = line.partition(":")
            current[field] = value.lstrip()
    if current:
        frames.append(current)
    return comments, frames


def stream_raw(server, query: str, headers=None, read_seconds: float = 5.0) -> str:
    """GET /events and read until the server closes (bounded by ``max=``)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=read_seconds)
    try:
        connection.request("GET", f"/events?{query}", headers=headers or {})
        reply = connection.getresponse()
        assert reply.status == 200
        assert reply.headers["Content-Type"].startswith("text/event-stream")
        return reply.read().decode("utf-8")
    finally:
        connection.close()


def test_sse_frames_are_well_formed(server):
    events = server.service.events
    base = events.last_seq
    events.emit("test.alpha", "test", message="first", index=1)
    events.emit("test.beta", "test", level="warning", message="second", index=2)
    payload = stream_raw(server, f"since={base}&max=2")
    comments, frames = parse_sse(payload)
    assert ": stream opened" in comments
    assert len(frames) == 2
    for frame, kind in zip(frames, ("test.alpha", "test.beta")):
        assert set(frame) == {"id", "event", "data"}
        assert frame["event"] == kind
        document = json.loads(frame["data"])
        assert document["kind"] == kind
        assert int(frame["id"]) == document["seq"]
    assert json.loads(frames[1]["data"])["fields"] == {"index": 2}


def test_sse_sends_keepalive_comments_while_idle(server):
    events = server.service.events

    def emit_soon():
        time.sleep(0.8)
        events.emit("test.late", "test", message="wake up")

    import threading

    thread = threading.Thread(target=emit_soon)
    thread.start()
    try:
        payload = stream_raw(server, f"since={events.last_seq}&max=1&keepalive=0.2")
    finally:
        thread.join()
    comments, frames = parse_sse(payload)
    assert any(comment == ": keep-alive" for comment in comments)
    assert len(frames) == 1 and frames[0]["event"] == "test.late"


def test_sse_reconnect_replays_via_last_event_id(server):
    events = server.service.events
    base = events.last_seq
    first = events.emit("test.one", "test").seq
    events.emit("test.two", "test")
    # A first read consumed up to `first`; the reconnect passes it back.
    payload = stream_raw(server, "max=1", headers={"Last-Event-ID": str(first)})
    _, frames = parse_sse(payload)
    assert [f["event"] for f in frames] == ["test.two"]
    # `since=` works the same way when no header is set.
    payload = stream_raw(server, f"since={base}&max=2")
    _, frames = parse_sse(payload)
    assert [f["event"] for f in frames] == ["test.one", "test.two"]


def test_sse_client_disconnect_mid_stream_is_clean(server):
    events = server.service.events
    baseline = events.num_subscribers
    connection = http.client.HTTPConnection(server.host, server.port, timeout=5)
    connection.request("GET", f"/events?since={events.last_seq}&keepalive=0.1")
    reply = connection.getresponse()
    assert reply.status == 200
    assert reply.fp.readline() == b": stream opened\n"
    assert events.num_subscribers == baseline + 1
    # Hang up mid-stream without reading to the end.  (Closing the response
    # too matters: it holds its own reference to the socket, and the FIN only
    # goes out once both are gone.)
    reply.close()
    connection.close()
    # The handler notices on its next write (keep-alive or event) and drops
    # the subscription.
    deadline = time.time() + 5.0
    while events.num_subscribers > baseline and time.time() < deadline:
        events.emit("test.poke", "test")
        time.sleep(0.05)
    assert events.num_subscribers == baseline
    # The server is still perfectly healthy for the next client.
    connection = http.client.HTTPConnection(server.host, server.port, timeout=5)
    connection.request("GET", "/healthz")
    health = json.loads(connection.getresponse().read())
    connection.close()
    assert health["status"] == "ok"
    assert "uptime_seconds" in health and "version" in health


def test_sse_rejects_malformed_parameters(server):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=5)
    connection.request("GET", "/events?since=abc")
    reply = connection.getresponse()
    body = json.loads(reply.read())
    connection.close()
    assert reply.status == 400
    assert "since" in body["error"]


def test_dashboard_snapshot_carries_the_event_tail(server):
    events = server.service.events
    marker = events.emit("test.dash", "test", message="dashboard marker").seq
    connection = http.client.HTTPConnection(server.host, server.port, timeout=5)
    connection.request("GET", "/dashboard?events=10")
    document = json.loads(connection.getresponse().read())
    connection.close()
    assert document["schema"] == "service-dashboard"
    assert document["last_event_seq"] >= marker
    kinds = [e["kind"] for e in document["events"]]
    assert "test.dash" in kinds
    assert document["health"]["status"] == "ok"
