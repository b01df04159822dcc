"""Property test: the screened :class:`PlanValidator` reports exactly what the
cell-by-cell loops report, on realized plans broken in every way the three
feasibility conditions can be broken.

The screens (edge codes, per-column sorts, swap codes, load-change masks)
may over-flag but must never miss a cell; the per-cell checks then decide.
Any under-flagging shows up here as a missing or reordered violation, a
different ``max_violations`` cut-off, or different pickup/delivery counts.
The same screens, as :func:`may_collide`, stand in front of the routed
paths' conflict count; that they never miss a conflict is checked too.
"""

from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_hot_path as reference
from repro.core import WSPSolver
from repro.experiments.generator import smoke_suite
from repro.mapf import find_conflicts
from repro.warehouse import Plan, PlanValidator, Warehouse
from repro.warehouse.plan import may_collide
from repro.warehouse.products import LocationMatrix

HORIZON = 160

KINDS = (
    "teleport",
    "negative-vertex",
    "vertex-beyond",
    "triple-collision",
    "same-move",
    "swap",
    "product-change",
    "unknown-product",
    "pickups-past-stock",
)


@lru_cache(maxsize=None)
def base_plans():
    """Realized smoke-suite plans, truncated to keep the oracle quick."""
    plans = []
    for spec in smoke_suite(0):
        if spec.name.endswith("infeasible-stock"):
            continue
        designed, workload = spec.build()
        solution = WSPSolver(designed.traffic_system).solve(workload, horizon=spec.horizon)
        if solution.succeeded:
            plans.append(solution.plan.truncated(HORIZON))
        if len(plans) == 3:
            break
    return tuple(plans)


@st.composite
def broken_plans(draw):
    plan = draw(st.sampled_from(base_plans()))
    positions, carrying = plan.positions.copy(), plan.carrying.copy()
    agents, ticks = positions.shape
    warehouse = plan.warehouse
    num_vertices = warehouse.floorplan.num_vertices
    num_products = warehouse.num_products
    adjacency = warehouse.floorplan.adjacency
    stock = warehouse.stock.as_array()
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=3, max_size=8)):
        a = draw(st.integers(0, agents - 1))
        t = draw(st.integers(0, ticks - 2))
        b, c = (a + 1) % agents, (a + 2) % agents
        u = draw(st.integers(0, num_vertices - 1))
        v = draw(st.sampled_from(adjacency[u]))
        if kind == "teleport":
            positions[a, t] = u
        elif kind == "negative-vertex":
            positions[a, t] = draw(st.integers(-3, -1))
        elif kind == "vertex-beyond":
            positions[a, t] = num_vertices + draw(st.integers(0, 2))
        elif kind == "triple-collision":
            positions[b, t] = positions[c, t] = positions[a, t]
        elif kind == "same-move":
            positions[a, t : t + 2] = positions[b, t : t + 2] = (u, v)
        elif kind == "swap":
            if draw(st.booleans()):
                u = draw(st.integers(-3, -1))  # off the floorplan: still a swap
            positions[a, t : t + 2] = (u, v)
            positions[b, t : t + 2] = (v, u)
        elif kind == "product-change":
            length = draw(st.integers(1, 30))
            carrying[a, t : t + length] = draw(st.integers(0, num_products))
        elif kind == "unknown-product":
            length = draw(st.integers(1, 20))
            carrying[a, t : t + length] = draw(
                st.sampled_from([-2, num_products + 1, num_products + 7])
            )
        else:  # pickups-past-stock: pick from one shelf cell again and again
            product, vertex = (int(i) for i in np.argwhere(stock > 0)[0])
            repeats = draw(st.integers(1, 6))
            t = min(t, ticks - 2 * repeats)
            positions[a, t : t + 2 * repeats] = vertex
            carrying[a, t : t + 2 * repeats] = [0, product] * repeats
    broken = Plan(positions=positions, carrying=carrying, warehouse=warehouse)
    if draw(st.booleans()):
        # Check against lean shelves (at most a few units per cell), so the
        # plan's own pickups outrun the stock as well.
        lean = np.minimum(stock, draw(st.integers(1, 3)))
        warehouse = Warehouse(
            floorplan=warehouse.floorplan,
            catalog=warehouse.catalog,
            stock=LocationMatrix(warehouse.catalog, warehouse.floorplan, lean),
            name=warehouse.name,
        )
    return broken, warehouse


def _report(report):
    return (
        [(v.condition, v.agent, v.timestep, v.detail) for v in report.violations],
        list(report.delivered.items()),
        list(report.pickups.items()),
    )


# The first draw solves the base plans, which is slow by design.
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=broken_plans())
def test_screened_validator_matches_cell_by_cell_loops(case):
    plan, warehouse = case
    for track_inventory in (True, False):
        for max_violations in (1, 3, 100):
            ours = PlanValidator(warehouse, track_inventory, max_violations)
            theirs = reference.PlanValidator(warehouse, track_inventory, max_violations)
            assert _report(ours.validate(plan)) == _report(theirs.validate(plan))
    assert plan.deliveries() == reference.plan_deliveries(plan)


@settings(max_examples=300, deadline=None)
@given(
    paths=st.lists(
        st.lists(st.integers(0, 6), min_size=1, max_size=6), min_size=1, max_size=4
    )
)
def test_may_collide_never_misses_a_conflict(paths):
    # Padding repeats each path's last vertex, as find_conflicts does.
    horizon = max(len(path) for path in paths)
    positions = np.array(
        [path + [path[-1]] * (horizon - len(path)) for path in paths], dtype=np.int64
    )
    if find_conflicts(paths):
        assert may_collide(positions)
