"""ServiceClient against scripted servers and a live one.

The scripted server answers each request with the next canned reply, so
the tests pin what the client does with a dropped keep-alive connection
and with replies it cannot parse.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.experiments import ScenarioSpec
from repro.service import (
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceRequest,
    ServiceResponse,
    ServiceServer,
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


def reply(body: bytes, close: bool = False) -> bytes:
    head = f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}\r\n"
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode() + body


ANSWER = json.dumps(ServiceResponse(state="ok", cache="hit").to_dict()).encode()


class ScriptedServer:
    """Answers request k with ``replies[k]`` over keep-alive connections;
    a ``None`` reply closes the connection without answering."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while self.replies:
            connection, _ = self.listener.accept()
            with connection, connection.makefile("rb") as rfile:
                while self.replies:
                    length = None
                    line = rfile.readline()
                    if not line:
                        break  # the client closed the connection
                    while line not in (b"\r\n", b""):
                        key, _, value = line.partition(b":")
                        if key.strip().lower() == b"content-length":
                            length = int(value)
                        line = rfile.readline()
                    rfile.read(length or 0)
                    self.requests += 1
                    answer = self.replies.pop(0)
                    if answer is None:
                        break
                    connection.sendall(answer)

    def close(self) -> None:
        self.replies.clear()
        # Closing the listener does not wake a blocked accept(); a connection does.
        socket.create_connection(self.listener.getsockname()[:2], timeout=5).close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()
        self.listener.close()


@pytest.fixture()
def scripted():
    servers = []

    def start(*replies) -> ScriptedServer:
        servers.append(ScriptedServer(replies))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def test_resends_once_after_the_server_drops_an_idle_connection(scripted):
    server = scripted(reply(ANSWER), None, reply(ANSWER))
    with ServiceClient(server.url, timeout=10) as client:
        wire = client.render(ServiceRequest(scenario=TINY))
        assert client.solve_prepared(wire)[1]["state"] == "ok"
        # Sent on the kept-alive connection, which the server closes unanswered.
        status, document = client.solve_prepared(wire)
    assert status == 200 and document["cache"] == "hit"
    assert server.requests == 3


def test_a_reply_that_does_not_parse_is_not_resent(scripted):
    server = scripted(reply(ANSWER), reply(b"not json"), reply(ANSWER))
    with ServiceClient(server.url, timeout=10) as client:
        wire = client.render(ServiceRequest(scenario=TINY))
        client.solve_prepared(wire)
        with pytest.raises(ServiceClientError, match="non-JSON reply"):
            client.solve_prepared(wire)
    assert server.requests == 2


def test_batch_line_without_index_is_an_error(scripted):
    server = scripted(reply(ANSWER + b"\n", close=True))
    with ServiceClient(server.url, timeout=10) as client:
        with pytest.raises(ServiceClientError, match="malformed line"):
            client.batch([ServiceRequest(scenario=TINY)])


def test_stream_events_reads_a_bounded_replay():
    instance = ServiceServer(ServiceConfig(port=0, workers=1, warm_up=False)).start()
    try:
        for index in range(3):
            instance.service.events.emit("test.marker", "test", index=index)
        with ServiceClient(instance.url, timeout=30) as client:
            events = client.stream_events(since=0, max_events=3, max_seconds=30)
    finally:
        instance.stop(drain_timeout=10)
    assert len(events) == 3
    assert [event["kind"] for event in events] == [
        "service.started", "test.marker", "test.marker",
    ]
    assert [event["seq"] for event in events] == sorted(event["seq"] for event in events)
