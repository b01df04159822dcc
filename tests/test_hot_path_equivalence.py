"""The event-sparse hot path reproduces the tick-by-tick oracles byte for byte.

Realization (periodic motion tiled to the horizon, loads replayed at their
events), plan validation (numpy screens ahead of the per-cell checks),
:meth:`Plan.deliveries` and plan replay (engine events only at eventful
ticks, queue lengths reported at their changes, entries tallied as they
happen) are each compared with the straightforward loops kept in
``reference_hot_path.py`` on the preset suites' scenarios: the plan
matrices, the realization's counts, the validation reports and the
serialized traces must be identical.
"""

import itertools
import json
import random

import numpy as np
import pytest

import reference_hot_path as reference
from repro.core import DeliverySchedule, RealizationOptions, WSPSolver, realize_cycle_set
from repro.core.pipeline import (
    build_delivery_schedule,
    decompose_flow_set,
    synthesize_flows,
)
from repro.experiments.generator import (
    mix_suite,
    resilience_suite,
    routing_scale_suite,
    routing_suite,
    smoke_suite,
)
from repro.io import trace_to_dict
from repro.maps import MAP_REGISTRY
from repro.sim import RoutingConfig, ServiceTimeModel, SimulationConfig, simulate_plan
from repro.sim.disruptions import (
    DisruptionConfig,
    ResilienceReport,
    ResilientPlanExecutor,
    parse_disruptions,
)
from repro.sim.engine import SimulationEngine
from repro.sim.telemetry import TraceRecorder
from repro.warehouse import LocationMatrix, Plan, PlanValidator, Workload
from repro.warehouse.products import EMPTY_HANDED


STORM = "breakdown:0.02:12,slowdown:0.02:10,outage:0.01:20,block:0.02:8,surge:0.05:2"


def _layouts():
    """Distinct (map, workload, horizon) instances of the preset suites."""
    specs = [spec for seed in range(3) for spec in smoke_suite(seed)]
    for suite in (routing_suite, mix_suite, resilience_suite, routing_scale_suite):
        specs += suite(0)
    built = [(spec.label, *spec.build(), spec.horizon) for spec in specs]
    designed = MAP_REGISTRY["fulfillment-1-small"]()
    designed = getattr(designed, "designed", designed)
    built.append(
        ("fulfillment-1-small", designed, Workload.uniform(designed.warehouse.catalog, 48), 1500)
    )
    seen, instances = set(), []
    for label, designed, workload, horizon in built:
        key = (
            horizon,
            tuple(workload.demands),
            designed.warehouse.stock.as_array().tobytes(),
            tuple(c.vertices for c in designed.traffic_system.components),
        )
        if key not in seen:
            seen.add(key)
            instances.append((label, designed, workload, horizon))
    return instances


@pytest.fixture(scope="module")
def instances():
    """Synthesized, decomposed instances (stock-infeasible ones dropped)."""
    solved = []
    for label, designed, workload, horizon in _layouts():
        if not workload.is_satisfied_by(designed.warehouse.total_stock()):
            continue
        synthesis = synthesize_flows(designed.traffic_system, workload, horizon)
        if not synthesis.succeeded:
            continue
        solved.append(
            (
                label,
                designed,
                workload,
                synthesis,
                decompose_flow_set(synthesis.flow_set),
                build_delivery_schedule(synthesis.flow_set, workload),
            )
        )
    assert len(solved) >= 15
    return solved


@pytest.fixture(scope="module")
def plans(instances):
    """The realized plan of every instance (default options)."""
    return [
        (label, designed, workload, synthesis, realize_cycle_set(cycle_set, schedule))
        for label, designed, workload, synthesis, cycle_set, schedule in instances
    ]


def _outcome(realize, cycle_set, schedule, options):
    try:
        result = realize(cycle_set, schedule, options)
    except Exception as error:  # noqa: BLE001 - the failure itself is compared
        return (type(error).__name__, str(error))
    return (
        result.plan.positions.tobytes(),
        result.plan.carrying.tobytes(),
        result.plan.positions.shape,
        result.plan.metadata,
        list(result.deliveries.items()),
        list(result.pickups.items()),
        result.property41_violations,
    )


@pytest.mark.parametrize(
    "options",
    [
        RealizationOptions(),
        RealizationOptions(preload_agents=False),
        RealizationOptions(strict_periods=False),
    ],
    ids=["default", "no-preload", "lenient"],
)
def test_realization_matches_reference(instances, options):
    for label, _, _, _, cycle_set, schedule in instances:
        assert _outcome(realize_cycle_set, cycle_set, schedule, options) == _outcome(
            reference.realize_cycle_set, cycle_set, schedule, options
        ), label


def test_lenient_realization_counts_tiled_violations_like_reference(instances):
    """A cycle time too short for Property 4.1: the lag counts of the tiled
    periods must add up exactly as the tick-by-tick loop counts them."""
    label, _, _, _, cycle_set, schedule = instances[0]
    squeezed = type(cycle_set)(
        system=cycle_set.system,
        cycles=cycle_set.cycles,
        cycle_time=max(1, cycle_set.cycle_time // 3),
        num_periods=cycle_set.num_periods * 3,
    )
    lenient = RealizationOptions(strict_periods=False)
    ours = _outcome(realize_cycle_set, squeezed, schedule, lenient)
    assert ours == _outcome(reference.realize_cycle_set, squeezed, schedule, lenient), label
    assert ours[-1] > 0
    strict = RealizationOptions()
    assert _outcome(realize_cycle_set, squeezed, schedule, strict) == _outcome(
        reference.realize_cycle_set, squeezed, schedule, strict
    )


def test_contended_stock_realization_matches_reference(monkeypatch):
    """Table I's Fulfillment-1/550 with one unit of every product at each
    row's last stocked cell, and every pickup at a row scheduled for the
    row's first product: the agents sharing a row race for that unit, so a
    cell that stocks an agent's target when its check is scheduled can be
    empty by the time the agent gets there."""
    designed = MAP_REGISTRY["fulfillment-1"]()
    workload = Workload.uniform(designed.warehouse.catalog, 550)
    synthesis = synthesize_flows(designed.traffic_system, workload, 3600)
    cycle_set = decompose_flow_set(synthesis.flow_set)
    schedule = build_delivery_schedule(synthesis.flow_set, workload)
    warehouse = designed.warehouse
    stock = warehouse.stock.as_array()
    lean = np.zeros_like(stock)
    for component in designed.traffic_system.components:
        stocked = [v for v in component.vertices if stock[:, v].any()]
        if stocked:
            lean[1:, stocked[-1]] = 1
    contended = DeliverySchedule(
        {row: queue[:1] * len(queue) for row, queue in schedule.queues.items()}
    )
    options = RealizationOptions(preload_agents=False)
    monkeypatch.setattr(
        warehouse, "stock", LocationMatrix(warehouse.catalog, warehouse.floorplan, lean)
    )
    assert _outcome(realize_cycle_set, cycle_set, contended, options) == _outcome(
        reference.realize_cycle_set, cycle_set, contended, options
    )


def _report(report):
    return (
        [(v.condition, v.agent, v.timestep, v.detail) for v in report.violations],
        list(report.delivered.items()),
        list(report.pickups.items()),
    )


def test_validation_and_deliveries_match_reference(plans):
    for label, designed, _, _, realized in plans:
        plan = realized.plan
        ours = PlanValidator(designed.warehouse).validate(plan)
        assert ours.is_feasible, label
        assert _report(ours) == _report(
            reference.PlanValidator(designed.warehouse).validate(plan)
        ), label
        assert plan.deliveries() == reference.plan_deliveries(plan), label


REPLAYS = {
    "events": SimulationConfig(seed=3),
    "no-events": SimulationConfig(seed=3, record_events=False),
    "stochastic": SimulationConfig(
        seed=5,
        service_time=ServiceTimeModel.uniform(1, 6),
        arrival_rate=0.4,
        record_events=False,
    ),
    "truncated": SimulationConfig(seed=2, max_ticks=137, record_events=False),
    # The twin benchmark's storm on one slow server per station: outages,
    # failovers and queues that back up, through the resilient executor.
    "storm": SimulationConfig(
        seed=7,
        service_time=ServiceTimeModel.geometric(3),
        servers_per_station=1,
        disruptions=parse_disruptions(STORM),
    ),
}


def _replay(plan, designed, workload, synthesis, config):
    report = simulate_plan(
        plan,
        designed.traffic_system,
        flow_set=synthesis.flow_set,
        workload=workload,
        synthesis=synthesis,
        config=config,
    )
    monitor = [
        (v.contract, v.constraint, v.kind, v.amount, v.detail, v.tick)
        for v in report.monitor.violations
    ]
    return json.dumps(trace_to_dict(report.trace), sort_keys=True), monitor


def _both(plan, designed, workload, synthesis, config):
    ours = _replay(plan, designed, workload, synthesis, config)
    with reference.reference_replay():
        theirs = _replay(plan, designed, workload, synthesis, config)
    return ours, theirs


@pytest.mark.parametrize("mode", sorted(REPLAYS))
def test_replay_matches_reference(plans, mode):
    # The resilient executor steps every agent every tick, so the storm takes
    # every tenth plan: four plans, one and two station queues, live
    # breaches and failovers among them.
    chosen = plans[::10] if mode == "storm" else plans
    for label, designed, workload, synthesis, realized in chosen:
        ours, theirs = _both(realized.plan, designed, workload, synthesis, REPLAYS[mode])
        assert ours == theirs, label


def test_pending_legs_match_reference():
    """A breakdown hands the donor's future legs to idle agents.  The legs and
    the idle verdicts found from the agents' load-change steps must equal the
    per-step walk's on the twin's three plans: for every agent, from several
    plan steps, loaded and empty-handed, with random steps already
    transferred away, in full and truncated runs."""
    rng = random.Random(0)
    checked = 0
    for spec in routing_scale_suite(0)[:3]:
        designed, workload = spec.build()
        system = designed.traffic_system
        plan = WSPSolver(system).solve(workload, horizon=spec.horizon).plan
        for max_ticks in (None, plan.horizon // 2):
            executor = ResilientPlanExecutor(
                SimulationEngine(),
                plan,
                system,
                TraceRecorder(system.floorplan.num_vertices, plan.num_agents, 1, plan.horizon),
                {},
                {},
                DisruptionConfig(),
                ResilienceReport(),
                max_ticks=max_ticks,
            )
            for agent, state in enumerate(executor.states):
                steps = executor.change_steps[agent]
                starts = {0, 1, plan.horizon // 3, plan.horizon - 2}
                starts.update(rng.sample(steps, min(3, len(steps))))
                for start, carry, suppressed in itertools.product(
                    sorted(starts),
                    (int(plan.carrying[agent, 0]), EMPTY_HANDED),
                    (set(), set(steps[::2]), set(rng.sample(steps, len(steps) // 3))),
                ):
                    state.plan_idx, state.carry = start, carry
                    state.suppressed = suppressed | {rng.randrange(plan.horizon) for _ in range(3)}
                    legs = executor._pending_legs(agent)
                    assert legs == reference.pending_legs(executor, agent), spec.label
                    assert executor._is_idle(agent) == reference.is_idle(executor, agent)
                    checked += bool(legs)
    assert checked > 100


def test_routed_replay_matches_reference(plans):
    label, designed, workload, synthesis, realized = min(
        plans, key=lambda item: item[4].plan.positions.size
    )
    config = SimulationConfig(seed=1, routing=RoutingConfig(router="prioritized"))
    ours, theirs = _both(realized.plan, designed, workload, synthesis, config)
    assert ours == theirs, label


def test_mangled_plan_replay_matches_reference(plans):
    """Tripled agents overrun component capacities (live breaches, stockouts)
    and an extra agent loads and unloads off the floorplan."""
    label, designed, workload, synthesis, realized = plans[0]
    plan = realized.plan
    stray = np.full((1, plan.horizon), -1, dtype=np.int64)
    toggled = np.where(np.arange(plan.horizon) % 5 < 2, 1, 0).reshape(1, -1)
    mangled = Plan(
        positions=np.vstack([plan.positions] * 3 + [stray]),
        carrying=np.vstack([plan.carrying] * 3 + [toggled]),
        warehouse=plan.warehouse,
        metadata=dict(plan.metadata),
    )
    for config in (REPLAYS["events"], REPLAYS["stochastic"]):
        ours, theirs = _both(mangled, designed, workload, synthesis, config)
        assert ours == theirs, label
        assert any(kind == "live-capacity" for _, _, kind, *_ in ours[1])
