"""Chaos tests of the one execution backend: worker crashes stay confined.

A real :class:`~repro.service.pool.ServicePool` loses its only worker to
SIGKILL — mid-request or idle — and every request, the killed one included,
must still come back ``ok``, through the bare pool, ``SolveService.resolve``
and the HTTP front end.  The pools fork so a stubbed runner (looked up by
the pool per submission) reaches the workers and the tests stay fast.  Also
here: the worker-mode ``CachedEvaluator`` (which runs on the same pool),
in-process timeouts off the main thread, and a server killed outright,
whose worker and resource tracker must not outlive it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.experiments import STATUS_OK, execute_scenario, smoke_suite
from repro.experiments import runner as runner_module
from repro.optimize import CachedEvaluator
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServicePool,
    ServiceRequest,
    ServiceServer,
    SolveService,
)

SMOKE = smoke_suite()
SPEC, OTHER, THIRD = SMOKE[0], SMOKE[4], SMOKE[2]
#: Environment variable naming the pid file of the stalled first attempt.
PID_FILE = "REPRO_TEST_STALLED_PID"


def _stall_first_attempt(document, timeout_seconds=None, collect_obs=False):
    """Worker stub (module-level so it pickles): the first attempt publishes
    its pid and stalls until the test kills it; later attempts run for real."""
    try:
        claim = os.open(os.environ[PID_FILE], os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return execute_scenario(document, timeout_seconds, collect_obs)
    os.write(claim, str(os.getpid()).encode())
    os.close(claim)
    time.sleep(60)


@pytest.fixture()
def stalled_pid(monkeypatch, tmp_path):
    """Route pool work through the stub; returns a waiter for the stalled pid."""
    pid_file = tmp_path / "stalled.pid"
    monkeypatch.setenv(PID_FILE, str(pid_file))
    monkeypatch.setattr(runner_module, "execute_scenario", _stall_first_attempt)

    def wait(timeout: float = 30.0) -> int:
        deadline = time.monotonic() + timeout
        while not (pid_file.exists() and pid_file.read_text()):
            assert time.monotonic() < deadline, "no worker started the scenario"
            time.sleep(0.01)
        return int(pid_file.read_text())

    return wait


@pytest.fixture()
def no_leaked_children():
    """Fail a test that leaves a child process of its own behind."""
    before = set(multiprocessing.active_children())
    yield before
    assert set(multiprocessing.active_children()) <= before


def _new_children(before) -> list:
    return [child for child in multiprocessing.active_children() if child not in before]


class TestWorkerCrash:
    def test_worker_killed_mid_request_reruns_its_scenario(
        self, stalled_pid, no_leaked_children
    ):
        pool = ServicePool(workers=1, max_pending=2, start_method="fork")
        try:
            future = pool.submit(SPEC.to_dict())
            os.kill(stalled_pid(), signal.SIGKILL)
            document = future.result(timeout=30)
            assert document["status"] == STATUS_OK, document["message"]
            assert document["scenario_id"] == SPEC.scenario_id
            assert pool.stats["worker_lost"] == 1
            assert pool.submit(OTHER.to_dict()).result(timeout=30)["status"] == STATUS_OK
        finally:
            assert pool.drain(timeout=30)

    def test_service_resolves_through_a_worker_kill(self, stalled_pid, no_leaked_children):
        service = SolveService(
            ServiceConfig(workers=1, warm_up=False, start_method="fork")
        )
        try:
            with ThreadPoolExecutor(max_workers=1) as caller:
                pending = caller.submit(service.resolve, ServiceRequest(scenario=SPEC))
                os.kill(stalled_pid(), signal.SIGKILL)
                response = pending.result(timeout=30)
            assert response.state == STATUS_OK and response.cache == "miss"
            after = service.resolve(ServiceRequest(scenario=OTHER))
            assert after.state == STATUS_OK and after.cache == "miss"
            assert service.metrics()["pool"]["worker_lost"] == 1
            assert "repro_pool_workers_lost 1" in service.metrics_prometheus()
        finally:
            assert service.drain(timeout=30)

    def test_racing_submitters_through_a_kill_lose_no_scenario(
        self, stalled_pid, no_leaked_children
    ):
        # More workers than cores and a short switch interval: submitters,
        # executor callbacks and re-run threads race the executor swap.
        # Every future resolves to its own ok record, and the one break is
        # counted once.
        specs = SMOKE[:8]
        workers = (os.cpu_count() or 1) + 1
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        pool = ServicePool(workers=workers, max_pending=len(specs), start_method="fork")
        try:
            first = pool.submit(specs[0].to_dict())
            pid = stalled_pid()
            with ThreadPoolExecutor(max_workers=len(specs)) as submitters:
                racing = [submitters.submit(pool.submit, spec.to_dict()) for spec in specs[1:]]
                os.kill(pid, signal.SIGKILL)
                futures = [first] + [handle.result(timeout=30) for handle in racing]
            documents = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(previous)
            assert pool.drain(timeout=60)
        assert [d["status"] for d in documents] == [STATUS_OK] * len(specs)
        assert [d["scenario_id"] for d in documents] == [s.scenario_id for s in specs]
        assert pool.stats["worker_lost"] == 1
        assert pool.stats["completed"] == pool.stats["submitted"] == len(specs)
        assert pool.in_flight == 0

    def test_idle_worker_kill_does_not_fail_the_next_request(self, no_leaked_children):
        pool = ServicePool(workers=1, max_pending=0, start_method="fork")
        try:
            pool.warm_up()
            (worker,) = _new_children(no_leaked_children)
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=10)
            document = pool.submit(SPEC.to_dict()).result(timeout=30)
            assert document["status"] == STATUS_OK, document["message"]
            assert pool.stats["worker_lost"] == 1
        finally:
            assert pool.drain(timeout=30)

    def test_http_cold_solves_after_a_worker_kill(self, no_leaked_children):
        server = ServiceServer(
            ServiceConfig(port=0, workers=1, start_method="fork")
        ).start()
        try:
            (worker,) = _new_children(no_leaked_children)
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=10)
            with ServiceClient(server.url, timeout=60) as client:
                for spec in (SPEC, OTHER):
                    status, response = client.solve(ServiceRequest(scenario=spec))
                    assert status == 200 and response.state == STATUS_OK
                    assert response.cache == "miss"
        finally:
            assert server.stop(drain_timeout=30)


class TestWorkerModeEvaluator:
    def test_batch_coalesces_duplicates_and_matches_inline(self, no_leaked_children):
        evaluator = CachedEvaluator(workers=1)
        try:
            batch = evaluator.evaluate_many([SPEC, OTHER, SPEC])
            revisit = evaluator.evaluate(OTHER)
        finally:
            evaluator.close()
        assert batch[1].cache == "miss"
        # The two copies of SPEC resolve concurrently: one computes, the
        # other is answered from its run.
        assert sorted(e.served_from_cache for e in (batch[0], batch[2])) == [False, True]
        assert revisit.served_from_cache
        inline = CachedEvaluator()
        for evaluation in [*batch, revisit]:
            expected = inline.evaluate(evaluation.spec).record
            assert evaluation.record.fingerprint() == expected.fingerprint()


def test_timeout_budget_works_off_the_main_thread():
    # A budget is a deadline scope of the calling thread, so it holds off the
    # main thread too; a generous one lets the run finish.
    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.update(execute_scenario(THIRD.to_dict(), 60))
    )
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert outcome["status"] == STATUS_OK, outcome["message"]


#: A server stand-in: warms a one-worker pool, prints the pids of its worker
#: and of the multiprocessing resource tracker, then waits to be killed.
_ORPHAN_PROBE = """
import sys
from multiprocessing import resource_tracker
from repro.service import ServicePool

pool = ServicePool(workers=1)
pool.warm_up(timeout=120)
print(*pool._executor._processes, resource_tracker._resource_tracker._pid, flush=True)
sys.stdin.read()
"""


def _gone(pid: int) -> bool:
    """True when ``pid`` has exited: no /proc entry, or a zombie left unreaped."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_a_killed_server_leaves_no_worker_behind():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    server = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_PROBE],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    orphans = []
    try:
        orphans = [int(pid) for pid in server.stdout.readline().split()]
        assert len(orphans) == 2, "the server printed no worker and tracker pids"
        server.kill()
        server.wait(timeout=10)
        deadline = time.monotonic() + 10
        while not all(_gone(pid) for pid in orphans) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in orphans if not _gone(pid)] == []
    finally:
        server.kill()
        server.wait(timeout=10)
        server.stdin.close()
        server.stdout.close()
        for pid in orphans:
            if not _gone(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
