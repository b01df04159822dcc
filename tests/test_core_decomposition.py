"""Tests for flow decomposition, cycle formation and delivery scheduling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AgentFlowSet,
    DecompositionError,
    SynthesisOptions,
    build_delivery_schedule,
    decompose_flow_set,
    extract_carrying_paths,
    extract_empty_paths,
    synthesize_flows,
)
from repro.maps import FulfillmentLayout, generate_fulfillment_center, toy_warehouse
from repro.warehouse import Workload


@pytest.fixture(scope="module")
def designed():
    return toy_warehouse()


@pytest.fixture(scope="module")
def system(designed):
    return designed.traffic_system


@pytest.fixture(scope="module")
def workload(designed):
    return Workload.uniform(designed.warehouse.catalog, 8)


@pytest.fixture(scope="module")
def flow_set(system, workload):
    result = synthesize_flows(system, workload, horizon=600)
    assert result.succeeded
    return result.flow_set


class TestPathExtraction:
    def test_carrying_path_counts_match_flows(self, flow_set):
        paths = extract_carrying_paths(flow_set)
        assert len(paths) == sum(flow_set.pickups.values())
        for path in paths:
            assert path.loaded
            assert flow_set.system.component(path.start).is_shelving_row
            assert flow_set.system.component(path.end).is_station_queue

    def test_empty_path_counts_match_flows(self, flow_set):
        paths = extract_empty_paths(flow_set)
        assert len(paths) == sum(flow_set.dropoffs.values())
        for path in paths:
            assert not path.loaded
            assert flow_set.system.component(path.start).is_station_queue
            assert flow_set.system.component(path.end).is_shelving_row

    def test_paths_follow_traffic_edges(self, flow_set):
        edges = set(flow_set.system.edges())
        for path in extract_carrying_paths(flow_set) + extract_empty_paths(flow_set):
            for u, v in zip(path.components, path.components[1:]):
                assert (u, v) in edges

    def test_edge_usage_matches_flow_values(self, flow_set):
        usage = {}
        for path in extract_carrying_paths(flow_set):
            for u, v in zip(path.components, path.components[1:]):
                usage[(u, v)] = usage.get((u, v), 0) + 1
        assert usage == {k: v for k, v in flow_set.loaded_flows.items() if v}


    def test_circulation_through_the_start_is_cancelled(self):
        layout = FulfillmentLayout(
            num_slices=2,
            shelf_columns=4,
            shelf_bands=1,
            shelf_depth=1,
            num_stations=2,
            num_products=2,
            name="circulation",
        )
        system = generate_fulfillment_center(layout).traffic_system
        # Row 1 sends one unit to queue 5 (1→2→3→8→9→5); a loaded circulation
        # 0→1→2→3→4→0 shares its first arcs, and the walk meets it first.
        flow_set = AgentFlowSet(
            system=system,
            cycle_time=system.cycle_time(),
            num_periods=10,
            loaded_flows={
                (0, 1): 1, (1, 2): 2, (2, 3): 2, (3, 4): 1,
                (4, 0): 1, (3, 8): 1, (8, 9): 1, (9, 5): 1,
            },
            pickups={1: 1},
            dropoffs={5: 1},
        )
        paths = extract_carrying_paths(flow_set)
        assert [path.components for path in paths] == [(1, 2, 3, 8, 9, 5)]


class TestCycleFormation:
    def test_decomposed_cycle_set_is_valid(self, flow_set):
        cycle_set = decompose_flow_set(flow_set)
        cycle_set.validate()
        assert cycle_set.cycle_time == flow_set.cycle_time
        assert cycle_set.num_periods == flow_set.num_periods

    def test_throughput_preserved(self, flow_set):
        cycle_set = decompose_flow_set(flow_set)
        assert cycle_set.deliveries_per_period() == flow_set.deliveries_per_period()

    def test_agent_count_matches_flow(self, flow_set):
        cycle_set = decompose_flow_set(flow_set)
        assert cycle_set.num_agents == flow_set.num_agents

    def test_component_load_matches_inflow(self, flow_set):
        cycle_set = decompose_flow_set(flow_set)
        load = cycle_set.component_load()
        for component in flow_set.system.components:
            assert load.get(component.index, 0) == flow_set.total_inflow_of(component.index)


class TestDeliverySchedule:
    def test_required_units_scheduled(self, flow_set, workload):
        schedule = build_delivery_schedule(flow_set, workload)
        scheduled = schedule.scheduled_units()
        for product in workload.requested_products():
            assert scheduled.get(product, 0) >= workload.demand(product)

    def test_schedule_respects_row_stock(self, flow_set, workload, system):
        schedule = build_delivery_schedule(flow_set, workload)
        for row, queue in schedule.queues.items():
            per_product = {}
            for product in queue:
                per_product[product] = per_product.get(product, 0) + 1
            for product, units in per_product.items():
                assert units <= system.units_at(row, product)

    def test_schedule_rows_have_pickup_flow(self, flow_set, workload):
        schedule = build_delivery_schedule(flow_set, workload)
        for row in schedule.queues:
            assert flow_set.pickups.get(row, 0) > 0

    def test_schedule_respects_row_capacity(self, flow_set, workload):
        schedule = build_delivery_schedule(flow_set, workload)
        for row, queue in schedule.queues.items():
            assert len(queue) <= flow_set.num_periods * flow_set.pickups[row]

    def test_missing_pickup_rate_rejected(self, flow_set, designed):
        # Ask for a product the flow set never picks up (demand 0 in synthesis).
        impossible = Workload.from_mapping(designed.warehouse.catalog, {1: 1, 2: 1, 3: 1, 4: 1})
        # flow_set was synthesized for the uniform workload over all 4 products,
        # so this actually works; instead fabricate a workload with a product
        # that has no pickup rate by zeroing the rates.
        stripped = type(flow_set)(
            system=flow_set.system,
            cycle_time=flow_set.cycle_time,
            num_periods=flow_set.num_periods,
            warmup_periods=flow_set.warmup_periods,
            loaded_flows=dict(flow_set.loaded_flows),
            empty_flows=dict(flow_set.empty_flows),
            pickups=dict(flow_set.pickups),
            dropoffs=dict(flow_set.dropoffs),
            pickup_rates={},
        )
        with pytest.raises(DecompositionError):
            build_delivery_schedule(stripped, impossible)


class TestDecompositionPropertyBased:
    @settings(max_examples=8, deadline=None)
    @given(
        units=st.integers(min_value=2, max_value=20),
        products=st.integers(min_value=1, max_value=6),
    )
    def test_small_layouts_decompose_cleanly(self, units, products):
        layout = FulfillmentLayout(
            num_slices=2,
            shelf_columns=4,
            shelf_bands=1,
            shelf_depth=1,
            num_stations=2,
            num_products=products,
            name="hypothesis-decomposition",
        )
        designed = generate_fulfillment_center(layout)
        workload = Workload.uniform(designed.warehouse.catalog, units)
        result = synthesize_flows(designed.traffic_system, workload, horizon=900)
        assert result.succeeded
        cycle_set = decompose_flow_set(result.flow_set)
        cycle_set.validate()
        schedule = build_delivery_schedule(result.flow_set, workload)
        scheduled = schedule.scheduled_units()
        for product in workload.requested_products():
            assert scheduled.get(product, 0) >= workload.demand(product)
