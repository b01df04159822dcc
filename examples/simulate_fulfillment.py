#!/usr/bin/env python3
"""Digital twin: execute a synthesized fulfillment-center plan over time.

The static pipeline (see ``quickstart.py``) proves a collision-free plan
exists and that it services the workload.  This example goes one step
further and *executes* that plan in the discrete-event engine of
:mod:`repro.sim`, under three scenarios:

1. the deterministic baseline — instantaneous station service, every order
   present at tick 0: the realized throughput must match the synthesized
   flow value and the runtime contract monitor must stay silent;
2. a stochastic day — Poisson order arrivals and geometric packing times:
   queues breathe, latency distributions appear, contracts still hold;
3. an undersized station — packing far slower than the agents deliver:
   the backlog grows without bound and the monitor reports the breach.

Run with:  python examples/simulate_fulfillment.py
"""

from repro.analysis import (
    compute_sim_metrics,
    render_congestion,
    throughput_gap_report,
)
from repro.core import WSPSolver
from repro.maps import fulfillment_center_1_small
from repro.sim import ServiceTimeModel, SimulationConfig
from repro.warehouse import Workload


def solve():
    designed = fulfillment_center_1_small()
    warehouse = designed.warehouse
    print(warehouse.summary())
    workload = Workload.uniform(warehouse.catalog, 24)
    solver = WSPSolver(designed.traffic_system)
    solution = solver.solve(workload, horizon=1500)
    print(solution.summary())
    print()
    return designed, solver, solution


def baseline(designed, solver, solution):
    print("=== 1. deterministic baseline (the twin must match the promise) ===")
    report = solver.simulate(solution, SimulationConfig(seed=0))
    print(report.summary())
    metrics = compute_sim_metrics(report)
    print(f"  verdict:             {throughput_gap_report(metrics)}")
    print()
    print("Congestion heatmap (agent-ticks per cell, ' '→'$' cold→hot):")
    print(render_congestion(designed.warehouse, report.trace.visits))
    print()


def stochastic_day(solver, solution):
    print("=== 2. a stochastic day (Poisson orders, geometric packing) ===")
    config = SimulationConfig(
        seed=7,
        arrival_rate=0.05,
        service_time=ServiceTimeModel.geometric(3.0),
    )
    report = solver.simulate(solution, config)
    print(report.summary())
    print()


def undersized_station(solver, solution):
    print("=== 3. an undersized station (packing slower than delivery) ===")
    config = SimulationConfig(
        seed=0, service_time=ServiceTimeModel.deterministic(400)
    )
    report = solver.simulate(solution, config)
    print(report.summary())
    print()
    print(
        "The monitor names the broken promise: the plan hands units over on "
        "schedule,\nbut the station's service rate cannot honor the workload "
        "contract by the horizon."
    )


if __name__ == "__main__":
    designed, solver, solution = solve()
    baseline(designed, solver, solution)
    stochastic_day(solver, solution)
    undersized_station(solver, solution)
