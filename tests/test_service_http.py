"""HTTP front-end tests: endpoints, error mapping, and graceful shutdown.

One module-scoped server (1 spawn worker) backs the endpoint tests; the
shutdown tests boot their own short-lived instances, including a real
``repro serve`` subprocess that gets SIGINT mid-request.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments import ScenarioSpec
from repro.experiments.store import RUN_STATUSES
from repro.service import (
    LoadTestOptions,
    PreforkServer,
    RoundRobinClient,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceRequest,
    ServiceResponse,
    ServiceServer,
    run_loadtest,
    run_saturation,
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


@pytest.fixture(scope="module")
def server():
    instance = ServiceServer(
        ServiceConfig(port=0, workers=1, max_pending=4, warm_up=True)
    ).start()
    yield instance
    instance.stop(drain_timeout=30)


@pytest.fixture()
def client(server):
    with ServiceClient(server.url, timeout=180) as connection:
        yield connection


class TestEndpoints:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 1

    def test_solve_cold_then_warm(self, client):
        status, cold = client.solve(ServiceRequest(scenario=TINY))
        assert status == 200 and cold.state == "ok"
        assert cold.cache in ("miss", "hit", "store")  # module ordering agnostic
        status, warm = client.solve(ServiceRequest(scenario=TINY))
        assert status == 200 and warm.state == "ok" and warm.served_from_cache
        assert warm.record["scenario_id"] == TINY.scenario_id
        # The embedded record is a full run-record document.
        assert warm.record["schema"] == "experiment-run"
        assert warm.record["status"] == "ok"

    def test_metrics_after_traffic(self, client):
        client.solve(ServiceRequest(scenario=TINY))
        metrics = client.metrics()
        assert metrics["requests"]["total"] >= 1
        assert metrics["cache"]["hit_rate"] > 0
        assert metrics["pool"]["workers"] == 1

    def test_batch_ndjson_stream(self, client):
        responses = client.batch(
            [ServiceRequest(scenario=TINY), ServiceRequest(scenario=OTHER)]
        )
        assert [r.scenario_id for r in responses] == [
            TINY.scenario_id,
            OTHER.scenario_id,
        ]
        assert all(r.state == "ok" for r in responses)

    def test_submit_status_result(self, client):
        status, pending = client.submit(ServiceRequest(scenario=TINY))
        assert status == 202 and pending.state == "pending"
        status, document = client.status(pending.request_id)
        assert status in (200, 202)
        status, final = client.result(pending.request_id)
        assert status == 200 and final.state == "ok"

    def test_unknown_request_id_is_404(self, client):
        status, _ = client.status("req-999999")
        assert status == 404
        with pytest.raises(ServiceClientError):
            client.result("req-999999")

    def test_unknown_endpoint_is_404(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        connection.request("GET", "/nope")
        assert connection.getresponse().status == 404
        connection.close()

    def test_malformed_json_is_400(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        connection.request(
            "POST", "/solve", body=b"{not json", headers={"Content-Type": "application/json"}
        )
        assert connection.getresponse().status == 400
        connection.close()

    def test_invalid_request_document_is_400(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        body = json.dumps({"schema": "warehouse"}).encode()
        connection.request("POST", "/solve", body=body)
        reply = connection.getresponse()
        assert reply.status == 400
        document = json.loads(reply.read())
        assert document["state"] == "invalid"
        connection.close()

    def test_bare_scenario_document_is_accepted(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=180)
        connection.request("POST", "/solve", body=json.dumps(TINY.to_dict()).encode())
        reply = connection.getresponse()
        assert reply.status == 200
        assert json.loads(reply.read())["state"] == "ok"
        connection.close()

    def test_ndjson_batch_body_is_accepted(self, server):
        body = "\n".join(
            json.dumps(spec.to_dict()) for spec in (TINY, OTHER)
        ).encode()
        connection = http.client.HTTPConnection(server.host, server.port, timeout=180)
        connection.request("POST", "/batch", body=body)
        reply = connection.getresponse()
        assert reply.status == 200
        lines = [line for line in reply.read().decode().splitlines() if line.strip()]
        assert len(lines) == 2
        assert all(json.loads(line)["state"] == "ok" for line in lines)
        connection.close()

    def test_batch_lines_carry_completion_index(self, server):
        body = "\n".join(
            json.dumps(spec.to_dict()) for spec in (TINY, OTHER)
        ).encode()
        connection = http.client.HTTPConnection(server.host, server.port, timeout=180)
        connection.request("POST", "/batch", body=body)
        reply = connection.getresponse()
        assert reply.status == 200
        documents = [
            json.loads(line) for line in reply.read().decode().splitlines() if line.strip()
        ]
        # Lines stream in completion order; the index field maps each line
        # back to its submission slot so clients can reassemble the order.
        assert sorted(document["index"] for document in documents) == [0, 1]
        connection.close()

    def test_fast_client_speaks_to_the_threading_server(self, server):
        with ServiceClient(server.url, timeout=180) as seed:
            seed.solve(ServiceRequest(scenario=TINY))
        with ServiceClient(server.url, timeout=60) as client:
            wire = client.render(ServiceRequest(scenario=TINY))
            for _ in range(20):
                status, document = client.solve_prepared(wire)
                assert status == 200
                assert document["state"] == "ok" and document["state"] in RUN_STATUSES
                assert document["cache"] in ("hit", "store", "coalesced")

    def test_round_robin_client_over_two_replicas(self, server):
        replica = ServiceServer(
            ServiceConfig(port=0, workers=1, max_pending=4, warm_up=False)
        ).start()
        try:
            for url in (server.url, replica.url):
                with ServiceClient(url, timeout=180) as seed:
                    status, response = seed.solve(ServiceRequest(scenario=TINY))
                    assert status == 200 and response.state == "ok"
            with RoundRobinClient([server.url, replica.url], timeout=60) as client:
                wire = client.render(ServiceRequest(scenario=TINY))
                for _ in range(8):
                    status, document = client.solve_prepared(wire)
                    assert status == 200 and document["cache"] in ("hit", "store", "coalesced")
        finally:
            replica.stop(drain_timeout=30)

    def test_remote_evaluator_over_the_service(self, server):
        from repro.optimize import RemoteEvaluator

        evaluator = RemoteEvaluator([server.url, server.url], timeout=180)
        try:
            evaluations = [evaluator.evaluate(TINY) for _ in range(3)]
        finally:
            evaluator.close()
        assert all(e.record.status == "ok" for e in evaluations)
        assert evaluations[-1].served_from_cache
        assert evaluations[-1].record.spec.scenario_id == TINY.scenario_id
        assert evaluator.stats()["evaluations"] == 3

    def test_loadtest_multi_replica_with_saturation_curve(self, server):
        urls = [server.url, server.url]  # one fleet listed twice
        report = run_loadtest(
            urls,
            [TINY],
            LoadTestOptions(clients=2, requests_per_client=2, timeout=180),
        )
        assert report.replicas == 2
        assert report.transport_errors == 0 and report.server_errors == 0
        report.saturation = run_saturation(
            urls, [TINY], clients_grid=(1, 2), duration=0.2, timeout=60
        )
        assert len(report.saturation) == 2
        for point in report.saturation:
            assert point["replicas"] == 2
            assert point["errors"] == 0
            assert point["throughput_rps"] > 0
        document = report.to_dict()
        assert document["replicas"] == 2
        assert [p["clients"] for p in document["saturation"]] == [1, 2]
        from repro.analysis import loadtest_report

        assert "saturation curve" in loadtest_report(report)

    def test_loadtest_harness_round_trip(self, server):
        report = run_loadtest(
            server.url,
            [TINY, OTHER],
            LoadTestOptions(clients=4, requests_per_client=2, timeout=180),
        )
        assert report.transport_errors == 0 and report.server_errors == 0
        assert report.cache_hits > 0
        assert report.total_requests == 2 + 4 * 2
        # The serialized report condenses the server-side registry into a
        # service section (replacing the raw /metrics dump).
        service = report.service
        assert service["cache_hit_rate"] > 0
        assert 0.0 <= service["pool_saturation"] <= 1.0
        assert service["runs_by_status"].get("ok", 0) >= 1
        document = report.to_dict()
        assert "metrics" not in document
        assert document["service"] == service
        # The rendered report carries the service-side columns.
        from repro.analysis import loadtest_report

        text = loadtest_report(report)
        assert "cache hit rate" in text and "pool saturation" in text


class TestBodyBounds:
    """``_read_body`` rejects hostile Content-Length values up front."""

    @staticmethod
    def raw_status(host: str, port: int, content_length) -> int:
        head = (
            f"POST /solve HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {content_length}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(head)
            sock.settimeout(30)
            reply = sock.recv(65536)
        return int(reply.split(None, 2)[1])

    def test_negative_content_length_is_400(self, server):
        assert self.raw_status(server.host, server.port, -5) == 400

    def test_oversize_content_length_is_413_without_reading(self, server):
        # Claim a body over the default 8 MiB bound but never send a byte:
        # the server must answer from the header alone instead of blocking
        # on (or allocating) the advertised body.
        assert self.raw_status(server.host, server.port, 9 * 1024 * 1024) == 413

    def test_bound_is_configurable(self):
        instance = ServiceServer(
            ServiceConfig(port=0, workers=1, warm_up=False, max_body_bytes=1024)
        ).start()
        try:
            connection = http.client.HTTPConnection(
                instance.host, instance.port, timeout=30
            )
            connection.request("POST", "/solve", body=b"x" * 2048)
            assert connection.getresponse().status == 413
            connection.close()
        finally:
            instance.stop(drain_timeout=10)


def _malformed_json(raw: bytes) -> str:
    try:
        json.loads(raw.decode("utf-8"))
    except ValueError as error:
        return f"malformed JSON body: {error}"
    raise AssertionError(f"{raw!r} parses")


#: case -> (Content-Length header line, or None for the body's length; body;
#: the threading server's status and document).
MALFORMED_SOLVES = {
    "length-missing": ("", b"", 411, {"error": "Content-Length required"}),
    "length-banana": (
        "Content-Length: banana\r\n", b"", 400,
        {"error": "malformed Content-Length 'banana'"},
    ),
    "length-negative": (
        "Content-Length: -5\r\n", b"", 400,
        {"error": "Content-Length must be non-negative"},
    ),
    "length-over-limit": (
        "Content-Length: 2048\r\n", b"", 413,
        {"error": "request body of 2048 bytes exceeds the 1024-byte limit"},
    ),
    "body-not-json": (None, b"{not json", 400, {"error": _malformed_json(b"{not json")}),
    "body-not-utf8": (None, b"\xff\xfe{}", 400, {"error": _malformed_json(b"\xff\xfe{}")}),
    "body-not-a-request": (
        None, b"[1, 2]", 400,
        ServiceResponse(state="invalid", message="request body must be a JSON object").to_dict(),
    ),
}


@pytest.fixture(scope="module", params=["threading", "prefork"])
def front_end(request):
    config = ServiceConfig(
        port=0, workers=1, warm_up=False, http_workers=1, max_body_bytes=1024
    )
    if request.param == "threading":
        instance = ServiceServer(config).start()
    else:
        instance = PreforkServer(config).start(ready_timeout=180.0)
    yield instance
    instance.stop(drain_timeout=30)


class TestMalformedSolve:
    """Both HTTP stacks answer a malformed ``POST /solve`` identically."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_SOLVES))
    def test_answer_matches_the_threading_server(self, front_end, case):
        length, body, status, document = MALFORMED_SOLVES[case]
        if length is None:
            length = f"Content-Length: {len(body)}\r\n"
        head = (
            "POST /solve HTTP/1.1\r\nHost: test\r\nX-Request-Id: probe-1\r\n"
            f"{length}Connection: close\r\n\r\n"
        ).encode()
        with socket.create_connection((front_end.host, front_end.port), timeout=30) as sock:
            sock.sendall(head + body)
            reply = http.client.HTTPResponse(sock)
            reply.begin()
            answer = (reply.status, json.loads(reply.read()), reply.getheader("X-Request-Id"))
            reply.close()
        assert answer == (status, document, "probe-1")


class TestGracefulShutdown:
    def test_stop_completes_in_flight_request_and_closes_socket(self):
        instance = ServiceServer(
            ServiceConfig(port=0, workers=1, max_pending=4, warm_up=True)
        ).start()
        host, port = instance.host, instance.port
        outcome = {}

        def in_flight():
            with ServiceClient(instance.url, timeout=180) as client:
                try:
                    outcome["status"], outcome["response"] = client.solve(
                        ServiceRequest(scenario=TINY, fresh=True)
                    )
                except ServiceClientError as error:  # pragma: no cover - fail loudly
                    outcome["error"] = error

        worker = threading.Thread(target=in_flight)
        worker.start()
        time.sleep(0.05)  # let the request reach the pool
        assert instance.stop(drain_timeout=60)
        worker.join(timeout=30)
        # The in-flight request either completed or was cleanly rejected —
        # never dropped on the floor.
        assert "error" not in outcome
        assert outcome["status"] in (200, 503)
        if outcome["status"] == 200:
            assert outcome["response"].state == "ok"
        # The listening socket is closed: new connections are refused.
        with pytest.raises(OSError):
            probe = socket.create_connection((host, port), timeout=2)
            probe.close()

    def test_draining_service_rejects_new_requests(self):
        instance = ServiceServer(ServiceConfig(port=0, workers=1, warm_up=False)).start()
        try:
            instance.service.begin_drain()
            with ServiceClient(instance.url, timeout=30) as client:
                status, response = client.solve(ServiceRequest(scenario=TINY))
                assert status == 503 and response.state == "rejected"
                health = client.health()
                assert health["status"] == "draining"
        finally:
            instance.stop(drain_timeout=10)


@pytest.mark.skipif(not hasattr(signal, "SIGINT"), reason="POSIX signals required")
class TestSigintSubprocess:
    def test_sigint_during_in_flight_request_drains_cleanly(self, tmp_path):
        """Boot ``repro serve``, fire a request, SIGINT mid-flight: the
        request completes (or is cleanly rejected), the process exits 0, and
        the socket closes."""
        repo_src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{repo_src}:{env.get('PYTHONPATH', '')}".rstrip(":")
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            url = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if "listening on" in line:
                    url = line.rsplit(" ", 1)[-1].strip()
                    break
            assert url, "server never announced its address"

            outcome = {}

            def in_flight():
                with ServiceClient(url, timeout=180) as client:
                    try:
                        outcome["status"], _ = client.solve(
                            ServiceRequest(scenario=TINY, fresh=True)
                        )
                    except ServiceClientError as error:
                        outcome["error"] = error

            worker = threading.Thread(target=in_flight)
            worker.start()
            time.sleep(0.3)  # request is in flight (worker pool is spawning/solving)
            process.send_signal(signal.SIGINT)
            worker.join(timeout=120)
            assert process.wait(timeout=120) == 0
            assert "error" not in outcome
            assert outcome["status"] in (200, 503)
            # Socket closed after drain.
            host, port = url.rsplit("//", 1)[-1].split(":")
            with pytest.raises(OSError):
                probe = socket.create_connection((host, int(port)), timeout=2)
                probe.close()
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.wait(timeout=30)

    def test_sigterm_at_the_announcement_drains(self):
        """A client may signal as soon as it reads the listening line.  The
        server signals itself from inside that print: it must still drain and
        exit 0, not die by the default action and orphan its pool worker."""
        repo_src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{repo_src}:{env.get('PYTHONPATH', '')}".rstrip(":")
        code = (
            "import builtins, os, signal, sys\n"
            "from repro.cli import main\n"
            "announce = builtins.print\n"
            "def signalling_print(*args, **kwargs):\n"
            "    announce(*args, **kwargs)\n"
            "    if str(args[0] if args else '').startswith('repro service listening on '):\n"
            "        os.kill(os.getpid(), signal.SIGTERM)\n"
            "builtins.print = signalling_print\n"
            "sys.exit(main(['serve', '--port', '0', '--workers', '1']))\n"
        )
        process = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            returncode = process.wait(timeout=120)
        finally:
            # Whatever the server left behind (an orphaned worker holds the
            # output pipe open) goes with its session.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        output = process.stdout.read()
        process.stdout.close()
        assert returncode == 0, output
        assert "signal SIGTERM: draining" in output and "service stopped" in output
