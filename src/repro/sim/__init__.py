"""repro.sim — discrete-event execution engine (digital twin) for realized plans.

The static pipeline proves a plan *exists*; this package *executes* it over
simulated time and observes whether the promises hold dynamically:

* :mod:`repro.sim.engine`       — deterministic, seedable event-heap engine;
* :mod:`repro.sim.agents`       — plan replay, one engine event per eventful tick;
* :mod:`repro.sim.routing`      — grid-routed execution: agent motion re-planned
  on the floorplan by a pluggable MAPF router (prioritized/CBS/ECBS/lifelong)
  with reservation-based collision avoidance and congestion telemetry;
* :mod:`repro.sim.disruptions`  — stochastic failure injection (breakdowns,
  slowdowns, station outages, blocked aisles, demand surges) with online
  recovery (leg reassignment, windowed re-routing, station failover) and
  resilience telemetry;
* :mod:`repro.sim.stations`     — station/shelf service processes with queues
  and configurable service-time distributions;
* :mod:`repro.sim.workload_gen` — deterministic and Poisson order streams with
  product-mix sampling;
* :mod:`repro.sim.telemetry`    — the trace: visits, per-period flows, queue
  lengths, order latencies, event log;
* :mod:`repro.sim.monitors`     — runtime assume-guarantee contract monitoring;
* :mod:`repro.sim.runner`       — one-call orchestration into a
  :class:`SimulationReport`.

Typical use, given a solved instance::

    report = solver.simulate(solution)            # or simulate_solution(solution)
    print(report.summary())
    assert report.contracts_ok

Only :mod:`~repro.sim.monitors` and :mod:`~repro.sim.runner` reach the
contract algebra, the solver and the pipeline core, and only
:mod:`~repro.sim.routing` reaches the MAPF solvers, so the names these three
export resolve on first access (PEP 562): a process that only describes
scenarios (the ``repro serve`` front end, its HTTP clients, the CLI parser)
imports this package without loading scipy or :mod:`repro.mapf`.  Every other
submodule loads eagerly; :data:`ROUTERS` comes from :mod:`~repro.sim.routers`.
"""

from .agents import ExecutionError, PlanExecutor
from .disruptions import (
    DISRUPTION_KINDS,
    DisruptionConfig,
    DisruptionError,
    DisruptionProcess,
    ResilienceReport,
    ResilientPlanExecutor,
    ScriptedDisruption,
    canonical_edges,
    nominal_deliveries_by,
    parse_disruptions,
    severity_ladder,
)
from .engine import (
    PRIORITY_AGENTS,
    PRIORITY_ARRIVALS,
    PRIORITY_DISRUPTIONS,
    PRIORITY_MONITORS,
    PRIORITY_STATIONS,
    PRIORITY_TELEMETRY,
    Event,
    SimulationEngine,
    SimulationError,
)
from .routers import ROUTERS
from .stations import (
    ServiceModelError,
    ServiceTimeModel,
    ShelfProcess,
    StationProcess,
    build_shelf_processes,
    build_station_processes,
)
from .telemetry import SimulationTrace, TraceRecorder
from .workload_gen import (
    DeterministicOrderStream,
    Order,
    OrderBook,
    OrderStreamError,
    PoissonOrderStream,
    product_mix_from_workload,
)

#: Exported names resolved on first access, and the submodule defining each.
_LAZY = {
    "ContractMonitor": "monitors",
    "MonitorError": "monitors",
    "MonitorReport": "monitors",
    "MonitorViolation": "monitors",
    "monitor_from_synthesis": "monitors",
    "SimulationConfig": "runner",
    "SimulationReport": "runner",
    "SimulationSetupError": "runner",
    "simulate_plan": "runner",
    "simulate_solution": "runner",
    "DEFAULT_LIFELONG_WINDOW": "routing",
    "RoutingConfig": "routing",
    "RoutingError": "routing",
    "RoutingReport": "routing",
    "edge_load_by_vertex": "routing",
    "edge_traversal_counts": "routing",
    "free_flow_cost": "routing",
    "plan_goal_specs": "routing",
    "plan_waypoints": "routing",
    "route_plan": "routing",
}


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY.values():  # the deferred submodules themselves
        return import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    names = set(globals()) - {"_LAZY", "__getattr__", "__dir__"}
    return sorted(names | set(_LAZY) | set(_LAZY.values()))


__all__ = [
    "ContractMonitor",
    "DEFAULT_LIFELONG_WINDOW",
    "DISRUPTION_KINDS",
    "DeterministicOrderStream",
    "DisruptionConfig",
    "DisruptionError",
    "DisruptionProcess",
    "Event",
    "ExecutionError",
    "ROUTERS",
    "ResilienceReport",
    "ResilientPlanExecutor",
    "ScriptedDisruption",
    "RoutingConfig",
    "RoutingError",
    "RoutingReport",
    "MonitorError",
    "MonitorReport",
    "MonitorViolation",
    "Order",
    "OrderBook",
    "OrderStreamError",
    "PlanExecutor",
    "PoissonOrderStream",
    "PRIORITY_AGENTS",
    "PRIORITY_ARRIVALS",
    "PRIORITY_DISRUPTIONS",
    "PRIORITY_MONITORS",
    "PRIORITY_STATIONS",
    "PRIORITY_TELEMETRY",
    "ServiceModelError",
    "ServiceTimeModel",
    "ShelfProcess",
    "SimulationConfig",
    "SimulationEngine",
    "SimulationError",
    "SimulationReport",
    "SimulationSetupError",
    "SimulationTrace",
    "StationProcess",
    "TraceRecorder",
    "build_shelf_processes",
    "build_station_processes",
    "canonical_edges",
    "edge_load_by_vertex",
    "edge_traversal_counts",
    "free_flow_cost",
    "monitor_from_synthesis",
    "nominal_deliveries_by",
    "parse_disruptions",
    "plan_goal_specs",
    "plan_waypoints",
    "product_mix_from_workload",
    "route_plan",
    "severity_ladder",
    "simulate_plan",
    "simulate_solution",
]
