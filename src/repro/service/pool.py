"""Bounded, self-healing process pool: the one backend that runs scenarios.

Cold service requests, sweeps with ``workers > 1`` and optimize campaigns on
local workers all run :func:`repro.experiments.runner.execute_scenario` on
this pool, so a served request and a sweep run are bit-identical
computations.

*Backpressure*: at most ``workers`` requests compute while at most
``max_pending`` wait; one more and :meth:`submit` raises
:class:`PoolSaturated` with a retry-after hint instead of queueing without
bound — an overloaded service degrades into fast, honest 429s.

*Crash confinement*: the future :meth:`submit` returns always resolves to a
run-record document.  A worker that dies hard (segfault, OOM kill, SIGKILL)
breaks the whole executor and fails every scenario it held, healthy ones
included.  The pool swaps a fresh executor in for new work and re-runs each
scenario the break took down alone on a one-worker executor, where a second
crash is that scenario's own ``error`` record (``worker crashed: ...``).
``stats["worker_lost"]`` counts the broken executors.

Draining (SIGINT/SIGTERM) flips the pool into reject-new/finish-in-flight
mode; :meth:`drain` then blocks until the in-flight work, re-runs included,
has been handed back to its waiters.

*Orphan-free*: a worker exits as soon as the process that spawned it dies,
so a server killed without draining leaves neither its workers nor, once
they are gone, the multiprocessing resource tracker behind.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from multiprocessing import get_context, parent_process
from typing import Dict, Optional

from ..experiments import runner
from ..experiments.scenario import ScenarioSpec
from ..experiments.store import STATUS_ERROR, RunRecord


class PoolSaturated(Exception):
    """Raised when admission would exceed the bounded queue depth."""

    def __init__(self, message: str, retry_after_seconds: float):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class PoolDraining(PoolSaturated):
    """Raised for submissions arriving after shutdown began."""


def _exit_with_parent() -> None:  # module-level: must be picklable for spawn
    """Worker initializer: exit the moment the spawning process dies.

    A daemon thread waits on the parent's sentinel, which becomes ready when
    the parent process exits, however it dies.  A parent-death signal would
    not do: it fires when the spawning *thread* exits, and an executor's
    workers spawn on whichever thread submits next, often a short-lived
    request handler.
    """
    parent = parent_process()
    if parent is None:
        return

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _ping() -> str:  # module-level: must be picklable for spawn
    runner.load_pipeline()
    return "pong"


def _failure(document: Dict, verb: str, error: BaseException) -> Dict:
    """The ``error`` record of a scenario its worker could not run."""
    return RunRecord(
        spec=ScenarioSpec.from_dict(document),
        status=STATUS_ERROR,
        message=f"worker {verb}: {type(error).__name__}: {error}",
    ).to_dict()


class ServicePool:
    """Admission-controlled, crash-confining process pool for scenario runs."""

    def __init__(
        self,
        workers: int = 2,
        max_pending: int = 8,
        start_method: str = "spawn",
    ):
        if workers < 1:
            raise ValueError(f"workers must be at least 1 (got {workers})")
        if max_pending < 0:
            raise ValueError(f"max_pending must be non-negative (got {max_pending})")
        self.workers = workers
        self.max_pending = max_pending
        self._context = get_context(start_method)
        self._executor = self._new_executor(workers)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._in_flight = 0
        self._draining = False
        #: Solo re-runs after a break compute at most ``workers`` at a time.
        self._rerun_slots = threading.Semaphore(workers)
        self.stats: Dict[str, int] = dict.fromkeys(
            ("submitted", "completed", "rejected", "worker_lost"), 0
        )

    def _new_executor(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=self._context,
            initializer=_exit_with_parent,
        )

    # -- lifecycle --------------------------------------------------------------
    def warm_up(self, timeout: Optional[float] = 60.0) -> None:
        """Eagerly spawn every worker and load the pipeline in it.

        Keeps the spawn and the pipeline imports (scipy and the core, which
        the serving process itself never loads) off the first request's path.
        """
        pings = [self._executor.submit(_ping) for _ in range(self.workers)]
        for ping in pings:
            ping.result(timeout=timeout)

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, wait for in-flight work, shut the executor down.

        Returns ``True`` when every in-flight request finished within
        ``timeout`` (``None`` waits indefinitely).
        """
        with self._idle:
            self._draining = True
            drained = self._idle.wait_for(lambda: self._in_flight == 0, timeout=timeout)
            executor = self._executor
        # cancel_futures only matters on abnormal exits: admission control
        # already guarantees nothing new entered after the drain flag flipped.
        executor.shutdown(wait=drained, cancel_futures=True)
        return drained

    # -- admission --------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self._in_flight

    def _retry_after(self) -> float:
        """A crude queue-delay estimate: pending depth over worker parallelism."""
        backlog = max(1, self._in_flight - self.workers + 1)
        return round(0.5 * backlog / self.workers + 0.5, 3)

    def submit(self, document: Dict, timeout_seconds: Optional[float] = None) -> Future:
        """Admit one scenario document, or raise :class:`PoolSaturated`.

        The future resolves to the run-record document, carrying the
        worker's run metrics (and any traced spans) under an ``obs`` key for
        the caller to merge and strip.
        """
        with self._lock:
            if self._draining:
                self.stats["rejected"] += 1
                raise PoolDraining("service is draining", retry_after_seconds=5.0)
            if self._in_flight >= self.workers + self.max_pending:
                self.stats["rejected"] += 1
                raise PoolSaturated(
                    f"queue full ({self._in_flight} in flight, "
                    f"{self.workers} workers + {self.max_pending} pending allowed)",
                    retry_after_seconds=self._retry_after(),
                )
            self._in_flight += 1
            self.stats["submitted"] += 1
        outcome: Future = Future()
        outcome.add_done_callback(self._on_done)
        while True:
            executor = self._executor
            try:
                # Looked up per call, so a stubbed runner reaches the workers.
                work = executor.submit(runner.execute_scenario, document, timeout_seconds, True)
                break
            except BrokenExecutor:
                self._replace(executor)
            except RuntimeError as error:  # shut down under a timed-out drain
                outcome.set_result(_failure(document, "failed", error))
                return outcome

        def settle(done: Future) -> None:  # mostly on the executor's own thread
            try:
                outcome.set_result(done.result())
            except BrokenExecutor:
                # The re-run shuts this executor down, joining its management
                # thread: it has to run on a thread of its own.
                threading.Thread(
                    target=self._rerun,
                    args=(executor, document, timeout_seconds, outcome),
                    daemon=True,
                ).start()
            except Exception as error:  # noqa: BLE001 - incl. pickling and cancellation
                outcome.set_result(_failure(document, "failed", error))

        work.add_done_callback(settle)
        return outcome

    def _replace(self, broken: ProcessPoolExecutor) -> None:
        """Swap a fresh executor in for ``broken`` (once) and shut it down."""
        with self._lock:
            if self._executor is not broken:
                return
            self._executor = self._new_executor(self.workers)
            self.stats["worker_lost"] += 1
        broken.shutdown(wait=True)

    def _rerun(
        self,
        broken: ProcessPoolExecutor,
        document: Dict,
        timeout_seconds: Optional[float],
        outcome: Future,
    ) -> None:
        """Re-run one scenario a broken executor took down, on its own worker."""
        try:
            self._replace(broken)
            with self._rerun_slots, self._new_executor(1) as solo:
                result = solo.submit(
                    runner.execute_scenario, document, timeout_seconds, True
                ).result()
        except BrokenExecutor as error:
            with self._lock:
                self.stats["worker_lost"] += 1
            result = _failure(document, "crashed", error)
        except Exception as error:  # noqa: BLE001 - the future must resolve
            result = _failure(document, "failed", error)
        # Resolved only once the solo executor has joined its worker, so a
        # drained pool leaves no child process behind.
        outcome.set_result(result)

    def _on_done(self, _future: Future) -> None:
        with self._idle:
            self._in_flight -= 1
            self.stats["completed"] += 1
            self._idle.notify_all()

    # -- accounting -------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {
                **self.stats,
                "in_flight": self._in_flight,
                "workers": self.workers,
                "max_pending": self.max_pending,
                "draining": float(self._draining),
            }


__all__ = ["PoolDraining", "PoolSaturated", "ServicePool"]
