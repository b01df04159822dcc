"""Pre-fork server tests: worker fleet boot, hot-path parity, metrics merge.

Each parametrized mode boots one two-worker fleet for the whole module:
``reuseport`` (per-worker SO_REUSEPORT listeners) where the platform has
it, and ``shared-listener`` (one inherited socket) everywhere.  All solve
traffic goes through the hand-rolled ``POST /solve`` turbo path; the other
endpoints exercise the stock-machinery fallback inside the same handler.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.experiments import ScenarioSpec
from repro.service import (
    PreforkServer,
    RoundRobinClient,
    ServiceClient,
    ServiceConfig,
    ServiceRequest,
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
OTHER = ScenarioSpec(
    **{f: getattr(TINY, f) for f in TINY.__dataclass_fields__} | {"units": 6}
)

MODES = ["shared-listener"] + (
    ["reuseport"] if hasattr(socket, "SO_REUSEPORT") else []
)


@pytest.fixture(scope="module", params=MODES)
def fleet(request, tmp_path_factory):
    store = tmp_path_factory.mktemp("prefork") / f"{request.param}.jsonl"
    config = ServiceConfig(
        port=0,
        workers=1,
        max_pending=4,
        warm_up=True,
        http_workers=2,
        store_path=store,
        max_body_bytes=64 * 1024,
    )
    server = PreforkServer(
        config, quiet=True, reuse_port=(request.param == "reuseport")
    ).start(ready_timeout=180.0)
    yield server
    assert server.stop(drain_timeout=60.0)


def raw_roundtrip(server, payload: bytes) -> int:
    """One raw POST /solve, returns the HTTP status code."""
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(payload)
        sock.settimeout(30)
        reply = sock.recv(65536)
    return int(reply.split(None, 2)[1])


class TestFleetEndpoints:
    def test_health_through_stock_fallback(self, fleet):
        # GET endpoints bypass the turbo prefix and run the stock machinery.
        with ServiceClient(fleet.url, timeout=60) as client:
            health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 1

    def test_solve_cold_then_warm_on_turbo_path(self, fleet):
        with ServiceClient(fleet.url, timeout=300) as client:
            status, cold = client.solve(ServiceRequest(scenario=TINY))
            assert status == 200 and cold.state == "ok"
            status, warm = client.solve(ServiceRequest(scenario=TINY))
        assert status == 200 and warm.state == "ok" and warm.served_from_cache
        assert warm.record["scenario_id"] == TINY.scenario_id
        assert warm.record["schema"] == "experiment-run"

    def test_warm_results_visible_from_every_worker(self, fleet):
        """The JSONL store is the shared warm layer: whichever worker accepts
        a fresh connection serves the already-computed result from cache."""
        with ServiceClient(fleet.url, timeout=300) as client:
            client.solve(ServiceRequest(scenario=TINY))
        for _ in range(6):  # fresh connections land on arbitrary workers
            with ServiceClient(fleet.url, timeout=60) as client:
                status, response = client.solve(ServiceRequest(scenario=TINY))
            assert status == 200 and response.state == "ok"
            assert response.served_from_cache

    def test_fast_client_request_id_echo(self, fleet):
        with ServiceClient(fleet.url, timeout=300) as seed:
            seed.solve(ServiceRequest(scenario=TINY))
        with ServiceClient(fleet.url, timeout=60) as client:
            wire = client.render(ServiceRequest(scenario=TINY))
            for _ in range(50):
                status, document = client.solve_prepared(wire)
                assert status == 200
                assert document["state"] == "ok"
                assert document["cache"] in ("hit", "store", "coalesced")

    def test_round_robin_client_spreads_over_replica_urls(self, fleet):
        with ServiceClient(fleet.url, timeout=300) as seed:
            seed.solve(ServiceRequest(scenario=TINY))
        # Same fleet listed twice: the client rotates between connections.
        with RoundRobinClient([fleet.url, fleet.url], timeout=60) as client:
            wire = client.render(ServiceRequest(scenario=TINY))
            for _ in range(10):
                status, document = client.solve_prepared(wire)
                assert status == 200 and document["cache"] in ("hit", "store", "coalesced")

    def test_batch_preserves_input_order(self, fleet):
        with ServiceClient(fleet.url, timeout=300) as client:
            responses = client.batch(
                [ServiceRequest(scenario=TINY), ServiceRequest(scenario=OTHER)]
            )
        assert [r.scenario_id for r in responses] == [
            TINY.scenario_id,
            OTHER.scenario_id,
        ]
        assert all(r.state == "ok" for r in responses)

    def test_metrics_counts_turbo_requests(self, fleet):
        with ServiceClient(fleet.url, timeout=300) as client:
            client.solve(ServiceRequest(scenario=TINY))
            metrics = client.metrics()
        assert metrics["requests"]["total"] >= 1
        assert metrics["cache"]["hit_rate"] > 0


class TestTurboBodyBounds:
    def head(self, fleet, length, extra: str = "") -> bytes:
        return (
            f"POST /solve HTTP/1.1\r\nHost: {fleet.host}:{fleet.port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {length}\r\n"
            f"{extra}Connection: close\r\n\r\n"
        ).encode()

    def test_missing_content_length_is_411(self, fleet):
        payload = (
            f"POST /solve HTTP/1.1\r\nHost: {fleet.host}:{fleet.port}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        assert raw_roundtrip(fleet, payload) == 411

    def test_negative_content_length_is_400(self, fleet):
        assert raw_roundtrip(fleet, self.head(fleet, -7)) == 400

    def test_malformed_content_length_is_400(self, fleet):
        assert raw_roundtrip(fleet, self.head(fleet, "banana")) == 400

    def test_oversize_body_is_413_without_reading_it(self, fleet):
        # Claim a body over max_body_bytes; never send it.  The server must
        # reject from the header alone (and close), not buffer the body.
        oversize = 64 * 1024 + 1
        assert raw_roundtrip(fleet, self.head(fleet, oversize)) == 413

    def test_invalid_json_body_is_400(self, fleet):
        body = b"{not json"
        assert raw_roundtrip(fleet, self.head(fleet, len(body)) + body) == 400

    def test_expect_100_continue_is_honoured(self, fleet):
        with ServiceClient(fleet.url, timeout=300) as seed:
            seed.solve(ServiceRequest(scenario=TINY))
        body = json.dumps(ServiceRequest(scenario=TINY).to_dict()).encode()
        with socket.create_connection((fleet.host, fleet.port), timeout=30) as sock:
            sock.sendall(self.head(fleet, len(body), extra="Expect: 100-continue\r\n"))
            sock.settimeout(30)
            interim = sock.recv(64)
            assert b"100 Continue" in interim
            sock.sendall(body)
            reply = b""
            while b"\r\n\r\n" not in reply:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        assert reply.split(None, 2)[1] == b"200"


class TestLifecycle:
    def test_stop_merges_per_worker_metrics(self, tmp_path):
        config = ServiceConfig(
            port=0, workers=1, max_pending=4, warm_up=False,
            http_workers=2, store_path=tmp_path / "results.jsonl",
        )
        server = PreforkServer(config, quiet=True).start(ready_timeout=180.0)
        try:
            with ServiceClient(server.url, timeout=300) as client:
                client.solve(ServiceRequest(scenario=TINY))
                client.solve(ServiceRequest(scenario=TINY))
        finally:
            assert server.stop(drain_timeout=60.0)
        merged = server.registry.snapshot()
        served = sum(
            entry["value"]
            for entry in merged["metrics"]
            if entry["name"] == "repro_requests_total"
        )
        assert served >= 2.0

    def test_socket_closed_after_stop(self, tmp_path):
        config = ServiceConfig(
            port=0, workers=1, warm_up=False, http_workers=2,
            store_path=tmp_path / "results.jsonl",
        )
        server = PreforkServer(config, quiet=True).start(ready_timeout=180.0)
        host, port = server.host, server.port
        assert server.stop(drain_timeout=30.0)
        deadline = time.monotonic() + 10.0
        refused = False
        while time.monotonic() < deadline and not refused:
            try:
                probe = socket.create_connection((host, port), timeout=2)
                probe.close()
                time.sleep(0.1)
            except OSError:
                refused = True
        assert refused


class TestSharedListener:
    def test_accept_without_a_pending_connection_returns(self):
        """Shared-listener workers all wake on one connection; the ones that
        lose the accept race must return to their serve loop, or
        ``shutdown()`` waits on a thread blocked in ``accept()`` forever."""
        from http.server import BaseHTTPRequestHandler

        from repro.service.prefork import _WorkerHTTPServer

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        httpd = _WorkerHTTPServer(listener, BaseHTTPRequestHandler)
        returned = threading.Event()

        def accept_once() -> None:
            httpd._handle_request_noblock()
            returned.set()

        threading.Thread(target=accept_once, daemon=True).start()
        try:
            assert returned.wait(1.0), "accept() blocked on a listener with no connection"
        finally:
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept()
            except OSError:
                pass
            httpd.server_close()
