"""The one-dict-per-row compile equals the operator-chained one.

``synthesize_flows`` compiles the component and workload contracts and the
aggregate MILP by filling one coefficient dict per row, and reads UNITSAT
from ``TrafficSystem.units_table()``.  ``reference_contracts`` keeps the
compile built from ``LinearExpr`` operators and a per-vertex UNITSAT sum.
Instance by instance (compile only, no solve), the two must agree on every
constraint's name, sense, constant and coefficient items in insertion order,
on each contract's variable order, and on the sparse arrays handed to HiGHS.

The oracle's model has no rounding cuts: the synthesized model must repeat
its rows exactly and then append the ``pickup-rounding`` rows that
:func:`_expected_cuts` derives here from the per-vertex UNITSAT sum.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import reference_contracts as reference

from repro.core import FlowVariablePool, SynthesisOptions, synthesize_flows
from repro.core.component_contracts import component_contracts, traffic_system_contract
from repro.core.flow_synthesis import _build_model
from repro.core.workload_contract import workload_contract
from repro.experiments.generator import mix_suite, scaling_suite, smoke_suite
from repro.maps import MAP_REGISTRY, toy_warehouse
from repro.solver import LinearExpr
from repro.solver.scipy_backend import _build_sparse
from repro.warehouse import ProductError, Workload

#: (label, map preset or None for the toy map, units, horizon, objective).
TABLE1 = [
    (f"{map_name}-{units}", map_name, units, horizon, "min_agents")
    for map_name, workloads, horizon in (
        ("sorting-center-small", (16, 32, 48), 1500),
        ("fulfillment-1-small", (24, 36, 48), 1500),
        ("fulfillment-2-small", (36, 48, 60), 1500),
        ("fulfillment-1", (550,), 3600),
        ("fulfillment-2", (1320,), 3600),
    )
    for units in workloads
]
MAP_INSTANCES = [("toy-8", None, 8, 600, "min_carrying")] + TABLE1
SUITE_SPECS = {spec.label: spec for spec in smoke_suite(0) + mix_suite(0) + scaling_suite(0)}


def _designed(map_name):
    if map_name is None:
        return toy_warehouse()
    built = MAP_REGISTRY[map_name]()
    return getattr(built, "designed", built)


def _compile(system, workload, horizon, objective):
    """Both compiles of one instance, as ``synthesize_flows`` sizes them."""
    options = SynthesisOptions(objective=objective)
    num_periods = horizon // system.cycle_time(options.cycle_time_factor)
    warmup = options.resolve_warmup(system, num_periods)
    pool = FlowVariablePool.for_workload(system, workload)
    fast = (
        traffic_system_contract(pool, num_periods),
        workload_contract(pool, workload, num_periods, warmup_periods=warmup),
        _build_model(pool, workload, num_periods, warmup, objective),
    )
    oracle = (
        reference.traffic_system_contract(pool, num_periods),
        reference.workload_contract(pool, workload, num_periods, warmup_periods=warmup),
        reference.build_model(pool, workload, num_periods, warmup, objective),
    )
    return pool, num_periods, fast, oracle


def _expected_cuts(system, pool, workload, effective):
    """The ``pickup-rounding[k]`` rows: Σ_{r∈R_k} pickups[r] ≥ ⌈w_k / effective⌉.

    ``R_k`` is the set of shelving rows with UNITSAT > 0 for ``k``.  The rows
    exist only when ⌈K/m⌉ > Σ_k w_k / effective, with ``K`` the requested
    products some row stocks and ``m`` the most of them one row stocks.
    """
    products = workload.requested_products()
    rows = [row.index for row in system.shelving_rows()]
    stocked = {
        row: [k for k in products if reference.units_at(system, row, k) > 0] for row in rows
    }
    rows_of = {k: [row for row in rows if k in stocked[row]] for k in products}
    count = sum(1 for k in products if rows_of[k])
    widest = max((len(kinds) for kinds in stocked.values()), default=0)
    demand = Fraction(sum(workload.demand(k) for k in products), effective)
    if count == 0 or math.ceil(Fraction(count, widest)) <= demand:
        return []
    return [
        (
            LinearExpr.sum(pool.total_pickup(row) for row in rows_of[k])
            >= math.ceil(Fraction(workload.demand(k), effective))
        ).named(f"pickup-rounding[{k}]")
        for k in products
    ]


def _rows(constraints):
    return [
        (c.name, c.sense, c.expr.constant, list(c.expr.coeffs.items())) for c in constraints
    ]


def _assert_same_contract(contract, expected):
    assert contract.name == expected.name
    assert _rows(contract.assumptions) == _rows(expected.assumptions)
    assert _rows(contract.guarantees) == _rows(expected.guarantees)
    assert contract.variables == expected.variables
    assert contract.variables == reference.variables_of(contract.all_constraints())


def _assert_same_arrays(model, expected):
    ours, theirs = _build_sparse(model), _build_sparse(expected)
    for mine, other in zip(ours, theirs):
        if hasattr(mine, "tocsr"):
            assert mine.shape == other.shape
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(mine, part), getattr(other, part))
        elif isinstance(mine, tuple):
            assert all(np.array_equal(a, b) for a, b in zip(mine, other))
        elif isinstance(mine, np.ndarray):
            assert np.array_equal(mine, other)
        else:
            assert mine == other


def _check_instance(system, workload, horizon, objective):
    """Compare both compiles; returns the expected rounding cuts."""
    pool, num_periods, fast, oracle = _compile(system, workload, horizon, objective)
    stocked = [
        (row.index, product)
        for row in system.shelving_rows()
        for product in pool.products
        if reference.units_at(system, row.index, product) > 0
    ]
    assert list(pool.pickup_vars) == stocked
    (traffic, demand, model), (traffic_ref, demand_ref, model_ref) = fast, oracle
    _assert_same_contract(traffic, traffic_ref)
    _assert_same_contract(demand, demand_ref)
    for contract, component in zip(component_contracts(pool, num_periods), system.components):
        _assert_same_contract(contract, reference.component_contract(pool, component, num_periods))
    assert model.variables == model_ref.variables
    compiled = model_ref.num_constraints
    assert _rows(model.constraints[:compiled]) == _rows(model_ref.constraints)
    warmup = SynthesisOptions(objective=objective).resolve_warmup(system, num_periods)
    cuts = _expected_cuts(system, pool, workload, num_periods - warmup)
    assert _rows(model.constraints[compiled:]) == _rows(cuts)
    assert list(model.objective.coeffs.items()) == list(model_ref.objective.coeffs.items())
    model_ref.add_constraints(cuts)
    _assert_same_arrays(model, model_ref)
    return cuts


@pytest.mark.parametrize(
    "map_name, units, horizon, objective",
    [instance[1:] for instance in MAP_INSTANCES],
    ids=[instance[0] for instance in MAP_INSTANCES],
)
def test_map_instances_compile_identically(map_name, units, horizon, objective):
    designed = _designed(map_name)
    workload = Workload.uniform(designed.warehouse.catalog, units)
    _check_instance(designed.traffic_system, workload, horizon, objective)


@pytest.mark.parametrize("label", sorted(SUITE_SPECS))
def test_suite_scenarios_compile_identically(label):
    spec = SUITE_SPECS[label]
    designed, workload = spec.build()
    _check_instance(designed.traffic_system, workload, spec.horizon, spec.objective)


@pytest.mark.parametrize("units", (550, 825, 1100))
def test_fulfillment_1_gets_no_rounding_cuts(units):
    """A Fulfillment-1 row stocks up to 28 of its 55 products, so ⌈K/m⌉ = 2
    is below Σ_k d_k (7.5–15): its model is the uncut oracle's, array for
    array."""
    designed = _designed("fulfillment-1")
    workload = Workload.uniform(designed.warehouse.catalog, units)
    assert _check_instance(designed.traffic_system, workload, 3600, "min_agents") == []


def test_fulfillment_2_gets_one_cut_per_product():
    designed = _designed("fulfillment-2")
    workload = Workload.uniform(designed.warehouse.catalog, 1320)
    cuts = _check_instance(designed.traffic_system, workload, 3600, "min_agents")
    assert len(cuts) == len(workload.requested_products())


@pytest.mark.parametrize("map_name", sorted(MAP_REGISTRY))
def test_units_table_equals_per_vertex_sum(map_name):
    system = _designed(map_name).traffic_system
    table = system.units_table()
    products = range(1, system.warehouse.num_products + 1)
    assert len(table) == system.num_components
    for component in system.components:
        assert table[component.index][0] == 0
        assert [table[component.index][k] for k in products] == [
            reference.units_at(system, component.index, k) for k in products
        ]


def test_moved_stock_changes_the_next_compile():
    designed = toy_warehouse()
    system, stock = designed.traffic_system, designed.warehouse.stock
    workload = Workload.uniform(designed.warehouse.catalog, 8)

    def pickup_stock_rows():
        result = synthesize_flows(system, workload, 600)
        return _rows(
            c for c in result.traffic_contract.guarantees if c.name.startswith("pickup-stock")
        )

    before = pickup_stock_rows()
    product = workload.requested_products()[0]
    source = stock.vertices_with(product)[0]
    target = next(
        v
        for row in system.shelving_rows()
        if system.owner_of(source) != row.index
        for v in row.vertices
        if system.floorplan.is_shelf_access(v)
    )
    stock.remove(product, source, 1)
    stock.place(product, target, 1)
    after = pickup_stock_rows()
    assert after != before
    _, _, _, (traffic_ref, _, _) = _compile(system, workload, 600, "min_agents")
    assert after == _rows(
        c for c in traffic_ref.guarantees if c.name.startswith("pickup-stock")
    )


def test_units_at_rejects_products_outside_the_catalog():
    system = toy_warehouse().traffic_system
    for product in (0, system.warehouse.num_products + 1):
        for component in system.components:
            with pytest.raises(ProductError):
                system.units_at(component.index, product)
