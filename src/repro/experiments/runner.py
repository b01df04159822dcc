"""Parallel experiment orchestration: many solve→simulate runs, one result file.

:func:`run_sweep` executes a list of scenarios through the full pipeline —
map generation, flow synthesis, decomposition, realization, validation, and
(optionally) the digital twin — either in-process or, with ``workers > 1``,
on the self-healing :class:`~repro.service.pool.ServicePool` that also
serves cold requests.  Every scenario yields exactly one
:class:`~repro.experiments.store.RunRecord`:

* a *successful* run carries the solution/simulation headline numbers;
* an *infeasible* instance (stock-insufficient demand, unsatisfiable
  contracts) is a first-class result, not a crash;
* a worker exception is captured as a structured ``error`` record (with the
  traceback in the message) without aborting the batch, and so is a worker
  that dies hard (``worker crashed: ...``);
* runs exceeding the per-run timeout are recorded as ``timeout``, with the
  stage that ran out named in the message.  The budget is one
  :func:`~repro.deadline.deadline_scope` around the run, so it holds on any
  thread: HiGHS gets what is left of it, and realization, routing and the
  sim engine check it as they loop.

Workers are spawned (not forked) by default so runs are isolated and
reproducible, and records are appended to the store in scenario order, so a
sweep's output file is deterministic modulo wall-clock timings.

Importing this module does not load the pipeline: :func:`load_pipeline`
imports the solver, the core and the simulation runner when a run first
needs them, and a pool worker calls it while it warms up.  So the processes
that only describe, cache or serve scenarios (the ``repro serve`` front end,
its clients, the CLI parser) never load scipy.
"""

from __future__ import annotations

import os
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence

from ..deadline import ScenarioTimeout, check_budget, deadline_scope
from ..traffic.component import TrafficError
from ..warehouse import WarehouseError, WorkloadError
from .scenario import SOLVER_BACKEND, ScenarioError, ScenarioSpec, parse_service_time
from .store import (
    STATUS_ERROR,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_TIMEOUT,
    ResultStore,
    RunRecord,
)


@contextmanager
def _events_env(path: Optional[str]):
    """Export ``REPRO_EVENTS`` so spawned workers inherit the event sink."""
    if not path:
        yield
        return
    previous = os.environ.get("REPRO_EVENTS")
    os.environ["REPRO_EVENTS"] = str(path)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_EVENTS", None)
        else:
            os.environ["REPRO_EVENTS"] = previous


def _sim_payload(report) -> Dict[str, float]:
    """Condense a :class:`~repro.sim.runner.SimulationReport` for the record."""
    trace = report.trace
    payload = {
        "units_served": float(trace.units_served),
        "realized_throughput": float(report.realized_throughput),
        "synthesized_throughput": float(report.synthesized_throughput),
        "throughput_ratio": float(report.throughput_ratio),
        "orders_created": float(trace.orders_created),
        "orders_served": float(trace.orders_served),
        "contract_violations": float(report.num_violations),
        "contracts_ok": float(report.contracts_ok),
    }
    if report.routing is not None:
        routing = report.routing
        payload.update(
            {
                "routing_completed": float(routing.completed),
                "routing_inflation": float(routing.inflation),
                "routing_replans": float(routing.replans),
                "routing_expansions": float(routing.expansions),
                "routing_conflicts": float(routing.conflicts),
                "routing_max_edge_load": float(routing.max_edge_load),
            }
        )
    if report.resilience is not None:
        resilience = report.resilience
        payload.update(
            {
                "throughput_retention": float(resilience.throughput_retention),
                "disruptions": float(resilience.num_disruptions),
                "recoveries": float(resilience.num_recoveries),
                "mean_recovery_latency": float(resilience.mean_recovery_latency),
                "agent_downtime": float(resilience.agent_downtime),
                "dropped_orders": float(resilience.dropped_orders),
                "late_orders": float(resilience.late_orders),
                "breach_windows": float(resilience.breach_windows),
            }
        )
    return payload


def _obs_payload(status: str, timings: Dict[str, float]) -> Dict:
    """Condense one run's observability into a process-crossing document.

    A worker-local :class:`~repro.obs.MetricsRegistry` records the run's
    outcome and per-stage wall times (the record's own ``timings``); the
    worker's process-wide registry — where the sim engine accumulates
    disruption and contract-breach counters — is *drained* in (shipped
    exactly once, even when a pool worker is reused).  In-process runs skip
    the drain: their sim counters already accumulate directly into the
    parent's registry, and draining it here would cycle the parent's own
    totals back through the merge.  Spans are not shipped: in-process they
    stay in the parent's tracer, and a spawned worker (which traces under
    ``REPRO_OBS=1``) discards its finished spans after each run until worker
    traces are stitched under the parent's.  The parent folds the metrics
    into its own registry and drops the payload before the record reaches
    the result store.
    """
    from multiprocessing import parent_process

    from ..obs import MetricsRegistry, drain_spans, get_registry

    registry = MetricsRegistry()
    registry.counter(
        "repro_runs_total", "Pipeline runs by outcome status", status=status
    ).inc()
    for stage, seconds in timings.items():
        registry.histogram(
            "repro_stage_seconds", "Pipeline stage wall time", stage=stage
        ).observe(seconds)
    if parent_process() is not None:
        registry.merge(get_registry().drain())
        drain_spans()
    return {"metrics": registry.snapshot()}


def load_pipeline() -> SimpleNamespace:
    """Import the solve→simulate pipeline; returns the pieces a run calls.

    The first call in a process pays for the solver (scipy), the contract
    algebra, the core and the simulation runner; later calls only look the
    modules up.  :meth:`~repro.service.pool.ServicePool.warm_up` has every
    worker call it, so a worker's first cold request does not pay.
    """
    from ..core.flow_synthesis import FlowSynthesisError
    from ..core.pipeline import SolverOptions, SynthesisOptions, WSPSolver
    from ..sim.runner import SimulationConfig

    return SimpleNamespace(
        FlowSynthesisError=FlowSynthesisError,
        SimulationConfig=SimulationConfig,
        SolverOptions=SolverOptions,
        SynthesisOptions=SynthesisOptions,
        WSPSolver=WSPSolver,
    )


def execute_scenario(
    document: Dict,
    timeout_seconds: Optional[float] = None,
    collect_obs: bool = False,
) -> Dict:
    """Run one scenario end to end; always returns a run-record document.

    This is the worker entry point: it takes and returns plain dictionaries
    so it crosses process boundaries cheaply, and it never raises — every
    failure mode is folded into the record's ``status``/``message``.  With
    ``collect_obs`` the document carries an extra ``obs`` key (a metrics
    snapshot) for the parent to merge and strip.
    """
    pipeline = load_pipeline()
    from ..obs import emit_event, event_context, stage

    spec = ScenarioSpec.from_dict(document)
    timings: Dict[str, float] = {}
    run_started = time.perf_counter()

    def record(status: str, message: str = "", **outcome) -> Dict:
        result = RunRecord(
            spec=spec, status=status, message=message, timings=timings, **outcome
        ).to_dict()
        # Emitted with an explicit scenario_id: the except handlers below run
        # after the event_context block has already unwound.
        emit_event(
            "run.finished",
            "runner",
            level="info" if status in (STATUS_OK, STATUS_INFEASIBLE) else "warning",
            message=message[:200],
            scenario_id=spec.scenario_id,
            status=status,
            seconds=round(time.perf_counter() - run_started, 6),
        )
        if collect_obs:
            result["obs"] = _obs_payload(status, timings)
        return result

    try:
        with event_context(scenario_id=spec.scenario_id), deadline_scope(
            timeout_seconds
        ) as deadline:
            emit_event("run.started", "runner", message=spec.label)
            with stage(timings, "generate", "experiments.generate"):
                designed, workload = spec.build()
                if deadline is not None:
                    deadline.check()

            options = pipeline.SolverOptions(
                synthesis=pipeline.SynthesisOptions(objective=spec.objective)
            )
            solver = pipeline.WSPSolver(designed.traffic_system, options)
            solution = solver.solve(workload, horizon=spec.horizon)
            timings.update(solution.timings)
            if not solution.succeeded:
                return record(STATUS_INFEASIBLE, solution.message)

            sim: Dict[str, float] = {}
            if spec.simulate:
                config = pipeline.SimulationConfig(
                    seed=spec.seed,
                    service_time=parse_service_time(spec.service_time),
                    arrival_rate=spec.arrival_rate,
                    record_events=False,
                    routing=spec.routing_config(),
                    disruptions=spec.disruption_config(),
                )
                report = solver.simulate(solution, config)
                timings["simulation"] = report.seconds
                sim = _sim_payload(report)

            return record(
                STATUS_OK,
                num_agents=solution.num_agents,
                units_delivered=solution.plan.total_delivered(),
                plan_feasible=solution.plan_is_feasible,
                workload_serviced=solution.services_workload,
                sim=sim,
            )
    except ScenarioTimeout as error:
        # The solver and the twin time their stages into dicts of their own,
        # which a run that ran out never returns.
        timings.update(error.timings)
        return record(STATUS_TIMEOUT, str(error))
    except (
        ScenarioError, WarehouseError, WorkloadError, TrafficError, pipeline.FlowSynthesisError
    ) as error:
        # A spec naming a retired solver is a tool error, not an infeasible design.
        status = STATUS_INFEASIBLE if spec.backend == SOLVER_BACKEND else STATUS_ERROR
        return record(status, str(error))
    except Exception:
        return record(STATUS_ERROR, traceback.format_exc(limit=8).strip())


@dataclass(frozen=True)
class SweepOptions:
    """Knobs of one batch run."""

    workers: int = 1
    #: Per-run wall-clock budget, positive when set (one deadline scope per
    #: run; see :mod:`repro.deadline`).
    timeout_seconds: Optional[float] = None
    #: ``multiprocessing`` start method; spawn keeps workers state-free.
    start_method: str = "spawn"
    #: Shared JSONL event sink.  The parent's event log appends here, and the
    #: path is exported as ``REPRO_EVENTS`` around pool creation so spawned
    #: workers interleave their ``run.started``/``run.finished`` events into
    #: the same file (flock-safe) — the feed ``repro top --events`` tails.
    events_path: Optional[str] = None

    def __post_init__(self) -> None:
        check_budget(self.timeout_seconds, error=ScenarioError)


def run_sweep(
    specs: Sequence[ScenarioSpec],
    options: Optional[SweepOptions] = None,
    store: Optional[ResultStore] = None,
    progress: Optional[Callable[[RunRecord], None]] = None,
) -> List[RunRecord]:
    """Execute every scenario and return one record each, in scenario order.

    With ``options.workers > 1`` the runs execute on a
    :class:`~repro.service.pool.ServicePool`; a worker crash (even an
    interpreter abort) is confined to its scenario and surfaces as an
    ``error`` record.  Records are appended to ``store`` and reported through
    ``progress`` as soon as each scenario's result is available.
    """
    from ..obs import get_event_log, get_registry

    options = options or SweepOptions()
    if options.workers < 1:
        raise ScenarioError("workers must be at least 1")
    events = get_event_log()
    if options.events_path:
        events.attach_file(options.events_path)
    documents = [spec.to_dict() for spec in specs]
    status_counts: Dict[str, int] = {}
    sweep_started = time.perf_counter()
    events.emit(
        "sweep.started",
        "sweep",
        message=f"{len(specs)} scenario(s) on {options.workers} worker(s)",
        total=len(specs),
        workers=options.workers,
    )

    def finalize(document: Dict) -> RunRecord:
        obs_payload = document.pop("obs", None)
        if obs_payload:
            # Worker metrics fold into the process-wide registry (the store
            # only ever sees the plain record).
            get_registry().merge(obs_payload.get("metrics", {}))
        record = RunRecord.from_dict(document)
        # The pool words the records of runs its workers could not finish.
        verb, _, cause = record.message.partition(": ")
        if record.status == STATUS_ERROR and verb in ("worker crashed", "worker failed"):
            events.emit(
                "run.crashed" if verb == "worker crashed" else "run.failed",
                "sweep",
                level="error",
                message=cause[:200],
                scenario_id=record.scenario_id,
            )
        if store is not None:
            store.append(record)
        status_counts[record.status] = status_counts.get(record.status, 0) + 1
        events.emit(
            "sweep.progress",
            "sweep",
            message=record.spec.label,
            scenario_id=record.scenario_id,
            status=record.status,
            completed=sum(status_counts.values()),
            total=len(specs),
        )
        if progress is not None:
            progress(record)
        return record

    def done(records: List[RunRecord]) -> List[RunRecord]:
        events.emit(
            "sweep.finished",
            "sweep",
            message=f"{status_counts.get(STATUS_OK, 0)}/{len(records)} ok",
            total=len(records),
            seconds=round(time.perf_counter() - sweep_started, 6),
            **{f"status_{name}": count for name, count in sorted(status_counts.items())},
        )
        return records

    if not specs:
        return done([])
    # Only a single *requested* worker runs in-process; a one-scenario sweep
    # with workers > 1 still goes through the pool so a hard crash is
    # captured as a record instead of taking the parent down.
    if options.workers == 1:
        return done(
            [
                finalize(execute_scenario(document, options.timeout_seconds, True))
                for document in documents
            ]
        )

    from ..service.pool import ServicePool

    with _events_env(options.events_path):
        pool = ServicePool(
            workers=min(options.workers, len(documents)),
            max_pending=len(documents),
            start_method=options.start_method,
        )
        try:
            futures = [pool.submit(document, options.timeout_seconds) for document in documents]
            records = [finalize(future.result()) for future in futures]
        finally:
            pool.drain()
    return done(records)
