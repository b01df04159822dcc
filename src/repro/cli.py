"""Command-line interface.

The CLI exposes the common workflows without writing Python:

* ``python -m repro maps`` — list the built-in map presets and their statistics;
* ``python -m repro show --map NAME`` — render a map's traffic system (Fig. 4/5 view);
* ``python -m repro solve --map NAME --units N [--horizon T]`` — run the full
  pipeline on a preset and print a solution report (optionally saving the plan);
* ``python -m repro simulate --map NAME --units N [--seed S]`` — solve, then
  execute the realized plan in the discrete-event digital twin and print the
  simulation report (throughput vs. the synthesized flow, order latencies,
  contract-monitor verdict, congestion heatmap); ``--routing ROUTER`` swaps
  the abstract plan replay for grid-routed motion planned by a MAPF router
  (prioritized, cbs, ecbs or windowed lifelong replanning); ``--disruptions
  SPEC`` injects stochastic failures (agent breakdowns/slowdowns, station
  outages, blocked aisles, demand surges) with online recovery and prints the
  resilience telemetry (throughput retention, recovery latency, breach
  windows) plus a disruption timeline;
* ``python -m repro table1`` — regenerate the paper's Table I (small presets by
  default, ``--paper-scale`` for the full-size maps);
* ``python -m repro sweep`` — generate a parametric scenario suite and run the
  solve→simulate pipeline over it on a worker pool, appending one JSONL record
  per run (``--report`` aggregates a result file, ``--compare`` diffs two
  result files for regressions);
* ``python -m repro optimize`` — closed-loop design search: perturb a
  scenario's slotting/layout knobs, score every candidate through the
  solve→simulate pipeline (cached, parallel, or against a ``repro serve``
  fleet), and keep the best design; seeded, resumable (``--log``/
  ``--resume``), with an ASCII convergence trace and a JSON report;
* ``python -m repro serve`` — boot the long-lived serving layer: an HTTP
  front end (submit/status/result/health/metrics, NDJSON batch streaming)
  over a content-addressed result cache (in-memory LRU + optional persistent
  JSONL tier, single-flight coalescing) and a bounded worker pool with
  explicit backpressure; SIGINT/SIGTERM drain gracefully;
* ``python -m repro loadtest`` — drive a running service through
  cold/warm(/overload) phases with concurrent clients and print the latency/
  throughput/hit-rate report (optionally writing ``BENCH_service.json``);
* ``python -m repro top`` — live curses-free ANSI dashboard: poll a running
  service's ``/dashboard`` snapshot (pool saturation, cache hit-rate, request
  states, latency, recent events) or tail an in-progress sweep's ``--events``
  JSONL file (progress, pass rate, ETA, disruptions/breaches);
* ``python -m repro profile solve|simulate|sweep`` — run a pipeline target
  under the span tracer and cProfile at once and print the span tree, the
  top-k span hotspots by self time, and the C-level function table
  (``--save-trace`` writes the span tree as JSON);
* ``python -m repro validate --plan plan.json`` — re-validate a saved plan
  against the three feasibility conditions.

The module imports only what :func:`build_parser` needs (the version, the
preset-suite, router and optimize choices); each ``cmd_*`` imports the
pipeline pieces it runs.  So ``repro --version``, ``repro serve``, ``repro
loadtest`` and ``repro top`` start without loading the solver, the contract
algebra, the simulation runner or networkx.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
import time
from typing import TYPE_CHECKING, List, Optional, Sequence

from . import __version__
from .deadline import check_budget
from .experiments import PRESET_SUITES
from .optimize import OBJECTIVES, OPTIMIZE_PRESETS, OPTIMIZERS
from .sim.routers import ROUTERS

if TYPE_CHECKING:
    from .sim.stations import ServiceTimeModel

#: The Table-I instance sets at both scales (map preset -> (units, horizon)).
TABLE1_PAPER = {
    "sorting-center": ((160, 320, 480), 3600),
    "fulfillment-1": ((550, 825, 1100), 3600),
    "fulfillment-2": ((1200, 1320, 1440), 3600),
}
TABLE1_SMALL = {
    "sorting-center-small": ((16, 32, 48), 1500),
    "fulfillment-1-small": ((24, 36, 48), 1500),
    "fulfillment-2-small": ((36, 48, 60), 1500),
}


def _designed(name: str):
    from .maps import MAP_REGISTRY

    if name not in MAP_REGISTRY:
        raise SystemExit(
            f"unknown map {name!r}; available: {', '.join(sorted(MAP_REGISTRY))}"
        )
    obj = MAP_REGISTRY[name]()
    return obj.designed if hasattr(obj, "designed") else obj


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_maps(_: argparse.Namespace) -> int:
    from .maps import MAP_REGISTRY, PAPER_MAP_STATS

    print(f"{'preset':<24s} {'cells':>6s} {'shelves':>8s} {'stations':>9s} {'products':>9s} {'components':>11s}")
    for name in sorted(MAP_REGISTRY):
        designed = _designed(name)
        grid = designed.warehouse.floorplan.grid
        system = designed.traffic_system
        print(
            f"{name:<24s} {grid.width * grid.height:>6d} {grid.num_shelves:>8d} "
            f"{grid.num_stations:>9d} {designed.warehouse.num_products:>9d} "
            f"{system.num_components:>11d}"
        )
        if name in PAPER_MAP_STATS:
            cells, shelves, stations, products = PAPER_MAP_STATS[name]
            print(
                f"{'  (paper)':<24s} {cells:>6d} {shelves:>8d} {stations:>9d} {products:>9d}"
            )
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    from .analysis import render_traffic_system
    from .io import save_map

    designed = _designed(args.map)
    print(designed.warehouse.summary())
    print(designed.traffic_system.summary())
    print()
    print(render_traffic_system(designed.traffic_system))
    if args.save_map:
        save_map(designed.warehouse.floorplan.grid, args.save_map)
        print(f"\nmap written to {args.save_map}")
    return 0


def _solve_preset(args: argparse.Namespace):
    """Shared solve preamble of ``solve`` / ``simulate``: preset -> solution.

    Exits with a clean message on structurally invalid instances (e.g. demand
    exceeding stock); returns ``(designed, workload, solver, solution)``.
    """
    from .core import SolverOptions, SynthesisOptions, WSPSolver
    from .warehouse import WarehouseError, Workload, WorkloadError

    designed = _designed(args.map)
    options = SolverOptions(synthesis=SynthesisOptions(objective=args.objective))
    solver = WSPSolver(designed.traffic_system, options)
    try:
        workload = Workload.uniform(designed.warehouse.catalog, args.units)
        solution = solver.solve(workload, horizon=args.horizon)
    except (WarehouseError, WorkloadError) as error:
        raise SystemExit(f"invalid instance: {error}")
    return designed, workload, solver, solution


def cmd_solve(args: argparse.Namespace) -> int:
    from .analysis import compute_plan_metrics
    from .io import plan_to_dict, save_json

    _, workload, _, solution = _solve_preset(args)
    if not solution.succeeded:
        print(f"INFEASIBLE: {solution.message}")
        return 1
    print(solution.summary())
    print(f"plan feasible:      {solution.plan_is_feasible}")
    print(f"workload serviced:  {solution.services_workload}")
    metrics = compute_plan_metrics(solution.plan, workload)
    print(f"service makespan:   {metrics.service_makespan}")
    print(f"agents:             {metrics.num_agents}")
    print(f"throughput:         {metrics.throughput:.3f} units/timestep")
    for stage, seconds in sorted(solution.timings.items()):
        print(f"  {stage:<14s} {seconds:8.3f}s")
    if args.save_plan:
        save_json(plan_to_dict(solution.plan), args.save_plan)
        print(f"plan written to {args.save_plan}")
    return 0


def _parse_service_time(spec: str) -> ServiceTimeModel:
    """``"0"`` / ``"uniform:2,6"`` / ``"geometric:4"`` -> a service-time model."""
    from .experiments import ScenarioError, parse_service_time

    try:
        return parse_service_time(spec)
    except ScenarioError as error:
        raise SystemExit(f"invalid --service-time: {error}")


def cmd_simulate(args: argparse.Namespace) -> int:
    from .analysis import (
        compute_sim_metrics,
        render_congestion,
        render_disruption_timeline,
        render_edge_heatmap,
        throughput_gap_report,
    )
    from .io import save_json, trace_to_dict
    from .sim import (
        DisruptionError,
        OrderStreamError,
        RoutingConfig,
        SimulationConfig,
        SimulationSetupError,
        parse_disruptions,
    )

    # `not (x > 0)` also rejects NaN, which `x <= 0` would let through.
    if args.arrival_rate is not None and not args.arrival_rate > 0:
        raise SystemExit(
            f"--arrival-rate must be positive (got {args.arrival_rate:g}); "
            "omit it for the deterministic all-at-t0 workload"
        )
    if args.routing_window < 0:
        raise SystemExit(
            f"--routing-window must be non-negative (got {args.routing_window})"
        )
    if args.routing == "abstract" and args.routing_window:
        raise SystemExit(
            "--routing-window only applies to grid routers; pass --routing "
            "prioritized|cbs|ecbs|lifelong alongside it"
        )
    routing = (
        None
        if args.routing == "abstract"
        else RoutingConfig(router=args.routing, window=args.routing_window)
    )
    try:
        disruptions = parse_disruptions(args.disruptions)
    except DisruptionError as error:
        raise SystemExit(f"invalid --disruptions: {error}")
    config = SimulationConfig(
        seed=args.seed,
        service_time=_parse_service_time(args.service_time),
        arrival_rate=args.arrival_rate,
        routing=routing,
        disruptions=disruptions,
    )
    designed, _, solver, solution = _solve_preset(args)
    warehouse = designed.warehouse
    if not solution.succeeded:
        print(f"INFEASIBLE: {solution.message}")
        return 1
    print(solution.summary())
    print()
    try:
        report = solver.simulate(solution, config)
    except (OrderStreamError, SimulationSetupError) as error:
        raise SystemExit(f"invalid simulation config: {error}")
    print(report.summary())
    metrics = compute_sim_metrics(report)
    print(f"  verdict:             {throughput_gap_report(metrics)}")
    for stage, seconds in sorted(solution.timings.items()):
        print(f"  {stage:<14s} {seconds:8.3f}s")
    if report.resilience is not None:
        print()
        print("Disruption timeline (event density over simulated time):")
        print(render_disruption_timeline(report.trace))
    if args.heatmap:
        print()
        print("Congestion (agent-ticks per cell; '#' shelves, '@' obstacles):")
        print(render_congestion(warehouse, report.trace.visits))
        if report.routing is not None:
            print()
            print("Edge congestion (crossings per cell, grid-routed motion):")
            print(render_edge_heatmap(warehouse, report.routing.edge_traversals))
    if args.save_trace:
        save_json(trace_to_dict(report.trace), args.save_trace)
        print(f"\ntrace written to {args.save_trace}")
    return 0 if report.contracts_ok else 1


def cmd_table1(args: argparse.Namespace) -> int:
    from .analysis import BenchmarkRow, table1_report
    from .core import WSPSolver
    from .warehouse import Workload

    table = TABLE1_PAPER if args.paper_scale else TABLE1_SMALL
    rows: List[BenchmarkRow] = []
    for map_name, (workloads, horizon) in table.items():
        designed = _designed(map_name)
        solver = WSPSolver(designed.traffic_system)
        for units in workloads:
            workload = Workload.uniform(designed.warehouse.catalog, units)
            solution = solver.solve(workload, horizon=horizon)
            if not solution.succeeded:
                print(f"{map_name}/{units}: INFEASIBLE — {solution.message}")
                continue
            rows.append(
                BenchmarkRow(
                    map_name=map_name,
                    unique_products=designed.warehouse.num_products,
                    units_moved=units,
                    runtime_seconds=solution.synthesis_seconds,
                    num_agents=solution.num_agents,
                    units_delivered=solution.plan.total_delivered(),
                    plan_feasible=solution.plan_is_feasible,
                    workload_serviced=solution.services_workload,
                )
            )
            print(
                f"{map_name:<22s} units={units:5d}  synthesis={solution.synthesis_seconds:7.2f}s  "
                f"agents={solution.num_agents}"
            )
    print()
    print(table1_report(rows, markdown=args.markdown))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import compare_sweeps, sweep_report
    from .experiments import ResultStore, SweepOptions, load_records, preset_scenarios, run_sweep

    if args.report and args.compare:
        raise SystemExit("--report and --compare are mutually exclusive")
    if (args.report or args.compare) and args.out:
        raise SystemExit("--out only applies when running a sweep, not with --report/--compare")
    if args.report:
        records = load_records(args.report)
        print(sweep_report(records, markdown=args.markdown))
        return 0
    if args.compare:
        if not args.tolerance > 0:
            raise SystemExit(f"--tolerance must be positive (got {args.tolerance:g})")
        baseline_path, candidate_path = args.compare
        comparison = compare_sweeps(
            load_records(baseline_path),
            load_records(candidate_path),
            runtime_factor=args.tolerance,
        )
        print(comparison.summary())
        return 0 if comparison.ok else 1

    if args.workers < 1:
        raise SystemExit(f"--workers must be at least 1 (got {args.workers})")
    if args.limit < 0:
        raise SystemExit(f"--limit must be non-negative (got {args.limit})")
    check_budget(args.timeout, "--timeout", SystemExit)
    from .obs import AlertError, AlertMonitor, get_event_log, get_registry, parse_rules

    try:
        alert_rules = parse_rules(args.alert or ())
    except AlertError as error:
        raise SystemExit(f"--alert: {error}") from error
    specs = preset_scenarios(args.preset, seed=args.seed)
    if args.limit > 0:
        specs = specs[: args.limit]
    # Pure append: an existing file may hold older-schema or partial lines,
    # which must not prevent adding this sweep's records.
    store = ResultStore(args.out, load_existing=False) if args.out else None
    print(
        f"sweep {args.preset!r}: {len(specs)} scenario(s), "
        f"{args.workers} worker(s)"
        + (f", {args.timeout:g}s/run timeout" if args.timeout else "")
        + (f", events -> {args.events}" if args.events else "")
    )

    # The progress line is *driven by the event stream*: each finished run
    # emits a sweep.progress event, and the callback drains the subscription
    # synchronously so lines never interleave with the final report.
    events = get_event_log()
    subscription = None if args.quiet else events.subscribe()
    started = time.monotonic()
    pass_counts = {"total": 0, "ok": 0}

    def progress(_record) -> None:
        if subscription is None:
            return
        while True:
            event = subscription.get(timeout=0)
            if event is None:
                break
            if event.kind != "sweep.progress":
                continue
            fields = event.fields
            completed = int(fields.get("completed", 0))
            total = int(fields.get("total", 0)) or 1
            pass_counts["total"] = completed
            if fields.get("status") == "ok":
                pass_counts["ok"] += 1
            elapsed = time.monotonic() - started
            eta = elapsed / completed * (total - completed) if completed else 0.0
            rate = 100.0 * pass_counts["ok"] / completed if completed else 0.0
            print(
                f"  [{completed}/{total}] pass {rate:3.0f}% "
                f"elapsed {elapsed:5.1f}s eta {eta:5.1f}s | "
                f"{fields.get('status', '?'):<10s} {event.message}",
                flush=True,
            )

    monitor = (
        AlertMonitor(lambda: get_registry().snapshot(), alert_rules, interval=0.5)
        if alert_rules
        else None
    )
    if monitor is not None:
        monitor.start()
    try:
        records = run_sweep(
            specs,
            SweepOptions(
                workers=args.workers,
                timeout_seconds=args.timeout,
                events_path=args.events,
            ),
            store=store,
            progress=progress,
        )
    finally:
        if monitor is not None:
            monitor.stop()
        if subscription is not None:
            events.unsubscribe(subscription)
    print()
    print(sweep_report(records, markdown=args.markdown))
    if args.out:
        print(f"\n{len(records)} record(s) appended to {args.out}")
    if monitor is not None:
        print()
        print(monitor.summary())
        if monitor.any_fired:
            return 1
    return 0 if not any(record.failed for record in records) else 1


def cmd_optimize(args: argparse.Namespace) -> int:
    from .analysis.optimize import optimize_report
    from .io import load_json, save_json
    from .obs import EventLog, get_event_log, get_registry
    from .optimize import (
        CachedEvaluator,
        OptimizeError,
        RemoteEvaluator,
        make_objective,
        make_optimizer,
        preset_space,
        run_campaign,
    )

    if args.report:
        print(optimize_report(load_json(args.report), markdown=args.markdown))
        return 0
    if args.budget < 1:
        raise SystemExit(f"--budget must be at least 1 evaluation (got {args.budget})")
    if args.workers < 0:
        raise SystemExit(f"--workers must be non-negative (got {args.workers})")
    check_budget(args.timeout, "--timeout", SystemExit)
    if args.resume and not args.log:
        raise SystemExit("--resume needs --log (the campaign file to resume from)")
    try:
        space = preset_space(args.preset, seed=args.space_seed)
        options = (
            {"batch_size": args.batch}
            if args.optimizer == "hill"
            else {"initial_temperature": args.temperature, "cooling": args.cooling}
        )
        optimizer = make_optimizer(args.optimizer, **options)
        objective = make_objective(
            args.objective, violation_weight=args.violation_weight
        )
    except OptimizeError as error:
        raise SystemExit(str(error)) from error

    if args.url:
        evaluator = RemoteEvaluator(args.url, timeout=args.timeout or 300.0)
        mode = f"fleet of {len(args.url)} replica(s)"
    else:
        evaluator = CachedEvaluator(
            workers=args.workers,
            store_path=args.store,
            timeout_seconds=args.timeout,
        )
        mode = (
            f"{args.workers} local worker(s)" if args.workers else "in-process"
        )
    events = EventLog(capacity=2048, path=args.events) if args.events else get_event_log()
    print(
        f"optimize {args.preset!r}: {optimizer.name}/{objective.name}, "
        f"budget {args.budget}, seed {args.seed}, {mode}"
        + (f", log -> {args.log}" if args.log else "")
    )

    def progress(record, replayed: bool) -> None:
        if args.quiet:
            return
        marker = "replay" if replayed else ("accept" if record.accepted else "reject")
        star = " *" if record.improved else ""
        print(
            f"  [{record.evaluations}/{args.budget}] step {record.step}: "
            f"chosen {record.chosen_score:.4f} ({marker}) "
            f"best {record.best_score:.4f}{star}",
            flush=True,
        )

    try:
        result = run_campaign(
            space,
            optimizer,
            objective,
            evaluator,
            budget=args.budget,
            seed=args.seed,
            log_path=args.log,
            resume=args.resume,
            events=events,
            registry=get_registry(),
            progress=progress,
        )
    except OptimizeError as error:
        raise SystemExit(str(error)) from error
    finally:
        evaluator.close()
    print()
    print(optimize_report(result.to_dict(), markdown=args.markdown))
    if args.out:
        save_json(result.to_dict(), args.out)
        print(f"\nreport written to {args.out}")
    return 0 if result.best_score >= result.baseline_score else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import PreforkServer, ServiceConfig, ServiceServer

    if args.workers < 1:
        raise SystemExit(f"--workers must be at least 1 (got {args.workers})")
    if args.http_workers < 1:
        raise SystemExit(f"--http-workers must be at least 1 (got {args.http_workers})")
    if args.max_pending < 0:
        raise SystemExit(f"--max-pending must be non-negative (got {args.max_pending})")
    if args.cache_capacity < 1:
        raise SystemExit(f"--cache-capacity must be at least 1 (got {args.cache_capacity})")
    if args.cache_shards < 1:
        raise SystemExit(f"--cache-shards must be at least 1 (got {args.cache_shards})")
    if args.max_body_bytes < 1:
        raise SystemExit(f"--max-body-bytes must be positive (got {args.max_body_bytes})")
    check_budget(args.timeout, "--timeout", SystemExit)
    from .obs import AlertError, parse_rules

    try:
        parse_rules(args.alert or ())  # fail fast on malformed rule specs
    except AlertError as error:
        raise SystemExit(f"--alert: {error}") from error
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.max_pending,
        cache_capacity=args.cache_capacity,
        cache_shards=args.cache_shards,
        max_body_bytes=args.max_body_bytes,
        http_workers=args.http_workers,
        timeout_seconds=args.timeout,
        store_path=args.store,
        events_path=args.events,
        alert_rules=tuple(args.alert or ()),
        alert_interval=args.alert_interval,
    )
    if config.http_workers > 1:
        # Multi-process pre-fork accept loop; requires --store to share the
        # warm tier across workers (memory caches are per-process).
        server = PreforkServer(config, quiet=not args.verbose)
    else:
        server = ServiceServer(config, quiet=not args.verbose)
    server.start()
    stop_requested = threading.Event()

    def request_stop(signum, _frame):
        print(f"\nsignal {signal.Signals(signum).name}: draining ...", flush=True)
        stop_requested.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, request_stop)
    try:
        # Announced once the handlers are in: a client may signal as soon as
        # it reads the port line (machine-read by the CI smoke job and the
        # tests), and the default action would kill the server undrained.
        print(f"repro service listening on {server.url}", flush=True)
        print(
            f"  http_workers={config.http_workers} workers={config.workers} "
            f"max_pending={config.max_pending} "
            f"cache={config.cache_capacity}x{config.cache_shards}sh"
            + (f" store={config.store_path}" if config.store_path else "")
            + (f" events={config.events_path}" if config.events_path else "")
            + (f" alerts={len(config.alert_rules)}" if config.alert_rules else ""),
            flush=True,
        )
        # Wait with a timeout: a bare Event.wait() parks the main thread in an
        # uninterruptible lock acquire and the signal handler never runs.
        while not stop_requested.wait(timeout=0.5):
            pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    drained = server.stop(drain_timeout=args.drain_timeout)
    print("service stopped" + ("" if drained else " (drain timed out)"), flush=True)
    return 0 if drained else 1


def cmd_loadtest(args: argparse.Namespace) -> int:
    from .analysis.service import loadtest_report as render_loadtest_report
    from .experiments import preset_scenarios
    from .io import save_json
    from .obs import AlertError, AlertMonitor, baseline_rule, parse_rules
    from .service import (
        LoadTestOptions,
        ServiceClient,
        ServiceClientError,
        run_loadtest,
        run_saturation,
    )

    urls = list(args.url) if args.url else ["http://127.0.0.1:8321"]
    if args.clients < 1:
        raise SystemExit(f"--clients must be at least 1 (got {args.clients})")
    if args.requests < 1:
        raise SystemExit(f"--requests must be at least 1 (got {args.requests})")
    if args.limit < 0:
        raise SystemExit(f"--limit must be non-negative (got {args.limit})")
    saturation_grid: list = []
    if args.saturation:
        try:
            saturation_grid = [int(part) for part in args.saturation.split(",") if part.strip()]
        except ValueError:
            raise SystemExit(f"--saturation must be a comma list of client counts (got {args.saturation!r})")
        if not saturation_grid or any(count < 1 for count in saturation_grid):
            raise SystemExit(f"--saturation needs positive client counts (got {args.saturation!r})")
    try:
        alert_rules = parse_rules(args.alert or ())
        if args.alert_baseline:
            alert_rules.append(
                baseline_rule(args.alert_baseline, factor=args.baseline_factor)
            )
    except (AlertError, OSError) as error:
        raise SystemExit(f"--alert: {error}") from error
    specs = [spec for spec in preset_scenarios(args.preset, seed=args.seed) if spec.is_valid()]
    if args.limit > 0:
        specs = specs[: args.limit]
    if not specs:
        raise SystemExit(f"preset {args.preset!r} produced no valid scenarios to request")
    options = LoadTestOptions(
        clients=args.clients,
        requests_per_client=args.requests,
        overload=args.overload,
        overload_requests=args.overload_requests,
        timeout=args.request_timeout,
    )
    print(
        f"loadtest {', '.join(urls)}: {len(specs)} scenario(s), {args.clients} client(s), "
        f"{args.requests} warm request(s)/client"
        + (", overload phase enabled" if args.overload else "")
        + (f", saturation grid {saturation_grid}" if saturation_grid else "")
    )
    # One health probe per replica before driving load: fail fast on a wrong
    # URL, and show what is actually serving (version, uptime, drain state).
    for url in urls:
        try:
            with ServiceClient(url, timeout=10.0) as probe:
                health = probe.health()
        except ServiceClientError as error:
            raise SystemExit(f"service not reachable at {url}: {error}") from error
        print(
            f"  {url}: {health.get('status', '?')} v{health.get('version', '?')} "
            f"up {health.get('uptime_seconds', 0.0):.0f}s "
            f"workers={health.get('workers', '?')} "
            f"draining={str(health.get('draining', False)).lower()}",
            flush=True,
        )

    def scrape():
        try:
            with ServiceClient(urls[0], timeout=10.0) as client:
                return client.metrics().get("registry")
        except ServiceClientError:
            return None

    monitor = (
        AlertMonitor(scrape, alert_rules, interval=args.alert_interval)
        if alert_rules
        else None
    )
    if monitor is not None:
        monitor.start()
    try:
        report = run_loadtest(urls, specs, options)
        if saturation_grid:
            report.saturation = run_saturation(
                urls,
                specs,
                clients_grid=saturation_grid,
                duration=args.saturation_duration,
                http_workers=args.saturation_workers,
                timeout=args.request_timeout,
            )
    finally:
        if monitor is not None:
            monitor.stop()
    print()
    print(render_loadtest_report(report, markdown=args.markdown))
    if args.out:
        save_json(report.to_dict(), args.out)
        print(f"\nreport written to {args.out}")
    ok, _ = report.acceptable()
    if monitor is not None:
        print()
        print(monitor.summary())
        if monitor.any_fired:
            return 1
    return 0 if ok else 1


def cmd_top(args: argparse.Namespace) -> int:
    from .analysis.dashboard import (
        CLEAR_SCREEN,
        render_service_frame,
        render_sweep_frame,
    )

    if args.interval <= 0:
        raise SystemExit(f"--interval must be positive (got {args.interval:g})")
    color = sys.stdout.isatty() and not args.no_color

    def frame() -> Optional[str]:
        if args.events:
            from .obs import read_events

            return render_sweep_frame(
                read_events(args.events), now=time.time(), color=color
            )
        from .service import ServiceClient, ServiceClientError

        try:
            with ServiceClient(args.url, timeout=10.0) as client:
                return render_service_frame(client.dashboard(), color=color)
        except ServiceClientError as error:
            if args.once:
                raise SystemExit(f"service not reachable at {args.url}: {error}")
            return None  # keep polling: top should survive a server restart

    if args.once:
        print(frame(), end="", flush=True)
        return 0
    try:
        while True:
            rendered = frame()
            print(
                CLEAR_SCREEN
                + (rendered if rendered is not None else f"waiting for {args.url} ...\n")
                + f"\n(refresh {args.interval:g}s, ctrl-c to quit)",
                end="",
                flush=True,
            )
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print(flush=True)
        return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .analysis.obs import hotspot_report, span_tree_table
    from .io import save_json
    from .obs import profile_call

    if args.top < 1:
        raise SystemExit(f"--top must be at least 1 (got {args.top})")

    if args.target == "sweep":
        from .experiments import preset_scenarios, run_sweep

        if args.limit < 0:
            raise SystemExit(f"--limit must be non-negative (got {args.limit})")
        specs = preset_scenarios(args.preset, seed=args.seed)
        if args.limit > 0:
            specs = specs[: args.limit]
        print(f"profiling sweep {args.preset!r}: {len(specs)} scenario(s)")

        def task():
            return run_sweep(specs)

    else:
        from .core import SolverOptions, SynthesisOptions, WSPSolver
        from .sim import DisruptionError, RoutingConfig, SimulationConfig, parse_disruptions
        from .warehouse import WarehouseError, Workload, WorkloadError

        designed = _designed(args.map)
        options = SolverOptions(synthesis=SynthesisOptions(objective=args.objective))
        solver = WSPSolver(designed.traffic_system, options)
        try:
            workload = Workload.uniform(designed.warehouse.catalog, args.units)
        except (WarehouseError, WorkloadError) as error:
            raise SystemExit(f"invalid instance: {error}")
        if args.target == "solve":
            print(f"profiling solve: map={args.map} units={args.units}")

            def task():
                return solver.solve(workload, horizon=args.horizon)

        else:
            routing = (
                None
                if args.routing == "abstract"
                else RoutingConfig(router=args.routing)
            )
            try:
                disruptions = parse_disruptions(args.disruptions)
            except DisruptionError as error:
                raise SystemExit(f"invalid --disruptions: {error}")
            config = SimulationConfig(
                seed=args.seed,
                record_events=False,
                routing=routing,
                disruptions=disruptions,
            )
            print(
                f"profiling simulate: map={args.map} units={args.units} "
                f"routing={args.routing}"
            )

            def task():
                solution = solver.solve(workload, horizon=args.horizon)
                if not solution.succeeded:
                    raise SystemExit(f"INFEASIBLE: {solution.message}")
                return solver.simulate(solution, config)

    result = profile_call(task, use_cprofile=not args.no_cprofile, top=args.top)
    document = result.trace.to_dict()
    print()
    print("Span tree (total/self wall time per pipeline phase):")
    print(span_tree_table(document))
    print()
    print(f"Top {args.top} span hotspots by self time:")
    print(hotspot_report(document, top=args.top))
    if not args.no_cprofile:
        print()
        print(f"Top {args.top} functions ({args.sort}) — cProfile:")
        print(result.function_table(top=args.top, sort=args.sort))
    if args.save_trace:
        save_json(document, args.save_trace)
        print(f"\ntrace written to {args.save_trace}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .io import load_json, plan_from_dict
    from .warehouse import PlanValidator

    plan = plan_from_dict(load_json(args.plan))
    report = PlanValidator(plan.warehouse).validate(plan)
    print(plan.summary())
    print(report.summary())
    for violation in report.violations[:20]:
        print(f"  {violation}")
    return 0 if report.is_feasible else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Contract-based co-design of warehouse traffic systems (DATE 2023 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    maps_parser = subparsers.add_parser("maps", help="list built-in map presets")
    maps_parser.set_defaults(handler=cmd_maps)

    show_parser = subparsers.add_parser("show", help="render a map's traffic system")
    show_parser.add_argument("--map", required=True, help="map preset name")
    show_parser.add_argument("--save-map", help="also write the grid in .map format")
    show_parser.set_defaults(handler=cmd_show)

    solve_parser = subparsers.add_parser("solve", help="solve a WSP instance on a preset map")
    solve_parser.add_argument("--map", required=True, help="map preset name")
    solve_parser.add_argument("--units", type=int, required=True, help="total workload units")
    solve_parser.add_argument("--horizon", type=int, default=3600, help="timestep limit T")
    solve_parser.add_argument(
        "--objective", default="min_agents", choices=("none", "min_agents", "min_carrying")
    )
    solve_parser.add_argument("--save-plan", help="write the realized plan as JSON")
    solve_parser.set_defaults(handler=cmd_solve)

    simulate_parser = subparsers.add_parser(
        "simulate", help="solve a preset, then execute the plan in the digital twin"
    )
    simulate_parser.add_argument("--map", required=True, help="map preset name")
    simulate_parser.add_argument("--units", type=int, required=True, help="total workload units")
    simulate_parser.add_argument("--horizon", type=int, default=3600, help="timestep limit T")
    simulate_parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    simulate_parser.add_argument(
        "--objective", default="min_agents", choices=("none", "min_agents", "min_carrying")
    )
    simulate_parser.add_argument(
        "--service-time",
        default="0",
        help="station service time per unit: N, uniform:LO,HI or geometric:MEAN (ticks)",
    )
    simulate_parser.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        help="Poisson order arrivals per tick (default: all orders at t=0)",
    )
    simulate_parser.add_argument(
        "--routing",
        default="abstract",
        choices=ROUTERS,
        help="execution mode: abstract plan replay, or grid-routed motion "
        "via a MAPF router (prioritized, cbs, ecbs, lifelong)",
    )
    simulate_parser.add_argument(
        "--routing-window",
        type=int,
        default=0,
        help="steps committed per replanning episode (0 = router default)",
    )
    simulate_parser.add_argument(
        "--disruptions",
        default="none",
        help="failure injection spec: comma-separated kind:rate[:duration] "
        "entries (breakdown, slowdown, outage, block, surge) plus deadline:N "
        "and norecover; e.g. 'breakdown:0.02:25,block:0.01'",
    )
    simulate_parser.add_argument(
        "--heatmap", action="store_true", help="print the congestion heatmap"
    )
    simulate_parser.add_argument("--save-trace", help="write the simulation trace as JSON")
    simulate_parser.set_defaults(handler=cmd_simulate)

    table1_parser = subparsers.add_parser("table1", help="regenerate the paper's Table I")
    table1_parser.add_argument("--paper-scale", action="store_true", help="use the paper-scale presets")
    table1_parser.add_argument("--markdown", action="store_true", help="emit a markdown table")
    table1_parser.set_defaults(handler=cmd_table1)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a scenario sweep in parallel, or report on result files"
    )
    sweep_parser.add_argument(
        "--preset",
        default="smoke",
        choices=sorted(PRESET_SUITES),
        help="scenario suite to run",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=1, help="parallel worker processes"
    )
    sweep_parser.add_argument(
        "--timeout", type=float, default=None, help="per-run wall-clock budget (seconds)"
    )
    sweep_parser.add_argument("--seed", type=int, default=0, help="suite base seed")
    sweep_parser.add_argument(
        "--limit", type=int, default=0, help="run only the first N scenarios"
    )
    sweep_parser.add_argument("--out", help="append one JSONL record per run to this file")
    sweep_parser.add_argument(
        "--report", help="skip running; aggregate an existing JSONL result file"
    )
    sweep_parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("BASELINE", "CANDIDATE"),
        help="skip running; diff two result files for regressions",
    )
    sweep_parser.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help="--compare: flag runs slower than TOLERANCE x baseline",
    )
    sweep_parser.add_argument("--markdown", action="store_true", help="emit markdown tables")
    sweep_parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-run progress/ETA lines"
    )
    sweep_parser.add_argument(
        "--events",
        help="append structured events (sweep/run lifecycle, sim disruptions) "
        "to this JSONL file; workers share the sink, `repro top --events` tails it",
    )
    sweep_parser.add_argument(
        "--alert",
        action="append",
        metavar="RULE",
        help="alert rule evaluated over live metrics, e.g. "
        "'repro_runs_total{status=error} > 0'; repeatable; any firing "
        "rule makes the sweep exit non-zero",
    )
    sweep_parser.set_defaults(handler=cmd_sweep)

    optimize_parser = subparsers.add_parser(
        "optimize",
        help="closed-loop design search: perturb a scenario, re-simulate, keep if better",
    )
    optimize_parser.add_argument(
        "--preset",
        default="slotting-small",
        choices=sorted(OPTIMIZE_PRESETS),
        help="design-space preset (base scenario + search knobs)",
    )
    optimize_parser.add_argument(
        "--optimizer",
        default="anneal",
        choices=sorted(OPTIMIZERS),
        help="search strategy",
    )
    optimize_parser.add_argument(
        "--objective",
        default="throughput",
        choices=sorted(OBJECTIVES),
        help="score maximized over candidate designs",
    )
    optimize_parser.add_argument(
        "--budget",
        type=int,
        default=24,
        help="total pipeline evaluations (baseline included)",
    )
    optimize_parser.add_argument("--seed", type=int, default=0, help="search rng seed")
    optimize_parser.add_argument(
        "--space-seed", type=int, default=0, help="base scenario seed of the preset"
    )
    optimize_parser.add_argument(
        "--batch", type=int, default=4, help="hill climbing: neighbors per step"
    )
    optimize_parser.add_argument(
        "--temperature",
        type=float,
        default=0.02,
        help="annealing: initial temperature",
    )
    optimize_parser.add_argument(
        "--cooling", type=float, default=0.92, help="annealing: geometric cooling factor"
    )
    optimize_parser.add_argument(
        "--violation-weight",
        type=float,
        default=0.1,
        help="objective penalty per contract violation",
    )
    optimize_parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="local evaluation worker processes (0: evaluate in-process)",
    )
    optimize_parser.add_argument(
        "--url",
        action="append",
        help="evaluate candidates on a running `repro serve` replica; repeat "
        "to drive a fleet round-robin",
    )
    optimize_parser.add_argument(
        "--store",
        help="persistent JSONL result store backing the evaluation cache "
        "(re-visited designs across campaigns become warm hits)",
    )
    optimize_parser.add_argument(
        "--timeout", type=float, default=None, help="per-evaluation compute budget (s)"
    )
    optimize_parser.add_argument(
        "--log",
        help="campaign JSONL trajectory log (header + one line per step); "
        "enables --resume",
    )
    optimize_parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted campaign from --log by replaying it "
        "(logged scores are reused, nothing re-evaluates)",
    )
    optimize_parser.add_argument(
        "--out", help="write the full optimize-report JSON to this file"
    )
    optimize_parser.add_argument(
        "--report",
        help="skip searching; render an existing optimize-report JSON file",
    )
    optimize_parser.add_argument(
        "--markdown", action="store_true", help="emit markdown tables"
    )
    optimize_parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-step progress lines"
    )
    optimize_parser.add_argument(
        "--events",
        help="append optimize.* structured events to this JSONL file "
        "(`repro top --events` tails it)",
    )
    optimize_parser.set_defaults(handler=cmd_optimize)

    serve_parser = subparsers.add_parser(
        "serve", help="boot the concurrent solve/simulate serving layer"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8321, help="bind port (0 for an ephemeral port)"
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, help="worker processes computing cold requests"
    )
    serve_parser.add_argument(
        "--http-workers",
        type=int,
        default=1,
        help="HTTP server processes; >1 boots the pre-fork accept loop "
        "(SO_REUSEPORT or a shared listener) with one full service per process "
        "— pair with --store so the workers share a warm tier",
    )
    serve_parser.add_argument(
        "--cache-shards",
        type=int,
        default=8,
        help="independently-locked result-cache shards (keyed by scenario_id prefix)",
    )
    serve_parser.add_argument(
        "--max-body-bytes",
        type=int,
        default=8 * 1024 * 1024,
        help="largest accepted request body; bigger Content-Lengths get HTTP 413",
    )
    serve_parser.add_argument(
        "--max-pending",
        type=int,
        default=8,
        help="cold requests allowed to queue beyond the computing ones "
        "(one more is rejected with 429 + Retry-After)",
    )
    serve_parser.add_argument(
        "--cache-capacity", type=int, default=1024, help="in-memory LRU entries"
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=None, help="default per-request compute budget (s)"
    )
    serve_parser.add_argument(
        "--store",
        help="persistent cache tier: append-only JSONL result file "
        "(results survive restarts and warm the cache at boot)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=60.0,
        help="seconds to wait for in-flight requests on shutdown",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve_parser.add_argument(
        "--events",
        help="append the service's structured events to this JSONL file "
        "(also streamed live on GET /events)",
    )
    serve_parser.add_argument(
        "--alert",
        action="append",
        metavar="RULE",
        help="server-side alert rule, e.g. 'repro_pool_saturation > 0.9 for 10s'; "
        "repeatable; firings appear as alert.fired events on /events",
    )
    serve_parser.add_argument(
        "--alert-interval",
        type=float,
        default=1.0,
        help="seconds between server-side alert evaluations",
    )
    serve_parser.set_defaults(handler=cmd_serve)

    loadtest_parser = subparsers.add_parser(
        "loadtest", help="drive a running service through cold/warm/overload phases"
    )
    loadtest_parser.add_argument(
        "--url",
        action="append",
        help="base URL of the running service; repeat to drive a replica "
        "fleet round-robin (default: http://127.0.0.1:8321)",
    )
    loadtest_parser.add_argument(
        "--saturation",
        metavar="CLIENTS",
        help="after the phases, measure a warm saturation curve at these "
        "comma-separated client counts, e.g. '1,2,4,8' (adds a `saturation` "
        "section to the report)",
    )
    loadtest_parser.add_argument(
        "--saturation-duration",
        type=float,
        default=1.0,
        help="seconds each saturation point runs",
    )
    loadtest_parser.add_argument(
        "--saturation-workers",
        type=int,
        default=1,
        help="annotate saturation points with the serving fleet's --http-workers "
        "count (the curve is clients x workers x replicas)",
    )
    loadtest_parser.add_argument(
        "--preset",
        default="smoke",
        choices=sorted(PRESET_SUITES),
        help="scenario suite to request",
    )
    loadtest_parser.add_argument("--seed", type=int, default=0, help="suite base seed")
    loadtest_parser.add_argument(
        "--limit", type=int, default=0, help="use only the first N scenarios"
    )
    loadtest_parser.add_argument(
        "--clients", type=int, default=8, help="concurrent client connections"
    )
    loadtest_parser.add_argument(
        "--requests", type=int, default=4, help="warm-phase requests per client"
    )
    loadtest_parser.add_argument(
        "--overload",
        action="store_true",
        help="also run the overload phase (burst of distinct fresh scenarios; "
        "expects explicit 429 rejections, not failures)",
    )
    loadtest_parser.add_argument(
        "--overload-requests", type=int, default=32, help="overload burst size"
    )
    loadtest_parser.add_argument(
        "--request-timeout", type=float, default=300.0, help="per-request client timeout (s)"
    )
    loadtest_parser.add_argument("--out", help="write the report as JSON (BENCH_service.json)")
    loadtest_parser.add_argument("--markdown", action="store_true", help="emit markdown tables")
    loadtest_parser.add_argument(
        "--alert",
        action="append",
        metavar="RULE",
        help="alert rule evaluated against the service's /metrics registry "
        "while the load runs, e.g. 'repro_requests_total{status=429} > 10'; "
        "repeatable; any firing rule makes the loadtest exit non-zero",
    )
    loadtest_parser.add_argument(
        "--alert-baseline",
        metavar="BENCH_JSON",
        help="derive a warm-p50 regression rule from a BENCH_service.json baseline",
    )
    loadtest_parser.add_argument(
        "--baseline-factor",
        type=float,
        default=1.5,
        help="--alert-baseline: fire when warm p50 exceeds FACTOR x baseline",
    )
    loadtest_parser.add_argument(
        "--alert-interval",
        type=float,
        default=1.0,
        help="seconds between alert evaluations (each scrapes /metrics)",
    )
    loadtest_parser.set_defaults(handler=cmd_loadtest)

    top_parser = subparsers.add_parser(
        "top", help="live ANSI dashboard over a running service or an in-progress sweep"
    )
    top_parser.add_argument(
        "--url",
        default="http://127.0.0.1:8321",
        help="poll this service's /dashboard endpoint",
    )
    top_parser.add_argument(
        "--events",
        help="instead of a service, tail this sweep events JSONL file "
        "(the sweep's --events sink)",
    )
    top_parser.add_argument(
        "--interval", type=float, default=1.0, help="seconds between refreshes"
    )
    top_parser.add_argument(
        "--once", action="store_true", help="render a single frame and exit (no clear)"
    )
    top_parser.add_argument(
        "--no-color", action="store_true", help="disable ANSI colors"
    )
    top_parser.set_defaults(handler=cmd_top)

    profile_parser = subparsers.add_parser(
        "profile", help="profile a pipeline target: span tree + hotspots + cProfile"
    )
    profile_parser.add_argument(
        "target",
        choices=("solve", "simulate", "sweep"),
        help="what to profile: one solve, one solve+simulate, or a scenario sweep",
    )
    profile_parser.add_argument(
        "--map", default="sorting-center-small", help="map preset (solve/simulate)"
    )
    profile_parser.add_argument(
        "--units", type=int, default=16, help="total workload units (solve/simulate)"
    )
    profile_parser.add_argument("--horizon", type=int, default=1500, help="timestep limit T")
    profile_parser.add_argument(
        "--objective", default="min_agents", choices=("none", "min_agents", "min_carrying")
    )
    profile_parser.add_argument(
        "--routing",
        default="abstract",
        choices=ROUTERS,
        help="simulate: execution mode (abstract replay or a MAPF router)",
    )
    profile_parser.add_argument(
        "--disruptions", default="none", help="simulate: failure-injection spec"
    )
    profile_parser.add_argument("--seed", type=int, default=0, help="simulation/suite seed")
    profile_parser.add_argument(
        "--preset",
        default="smoke",
        choices=sorted(PRESET_SUITES),
        help="sweep: scenario suite to profile",
    )
    profile_parser.add_argument(
        "--limit", type=int, default=2, help="sweep: profile only the first N scenarios"
    )
    profile_parser.add_argument(
        "--top", type=int, default=10, help="rows in the hotspot/function tables"
    )
    profile_parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "ncalls"),
        help="cProfile sort order",
    )
    profile_parser.add_argument(
        "--no-cprofile",
        action="store_true",
        help="skip the C-level profiler (span tracing only; lower overhead)",
    )
    profile_parser.add_argument("--save-trace", help="write the span trace as JSON")
    profile_parser.set_defaults(handler=cmd_profile)

    validate_parser = subparsers.add_parser("validate", help="validate a saved plan")
    validate_parser.add_argument("--plan", required=True, help="plan JSON file")
    validate_parser.set_defaults(handler=cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
