"""Tests for the traffic system, its graph, validation and design helpers."""

import networkx as nx
import pytest

from repro.experiments.generator import mix_suite, routing_scale_suite, scaling_suite, smoke_suite
from repro.maps import MAP_REGISTRY, TOY_LAYOUT, generate_fulfillment_center, toy_warehouse
from repro.traffic import (
    ComponentKind,
    TrafficError,
    TrafficSystem,
    assert_valid,
    auto_connections,
    build_traffic_system,
    chain_connections,
    split_path,
    validate,
)


@pytest.fixture(scope="module")
def designed():
    return toy_warehouse()


@pytest.fixture(scope="module")
def system(designed):
    return designed.traffic_system


class TestTrafficSystemBasics:
    def test_component_lookup(self, system):
        first = system.component(0)
        assert system.component_by_name(first.name) is first
        with pytest.raises(TrafficError):
            system.component_by_name("no-such-component")

    def test_vertex_ownership_is_partition(self, system):
        owners = {}
        for component in system.components:
            for vertex in component.vertices:
                assert vertex not in owners
                owners[vertex] = component.index
        for vertex in owners:
            assert system.owner_of(vertex) == owners[vertex]
        assert set(system.used_vertices()) == set(owners)

    def test_unused_vertices_are_not_critical(self, system, designed):
        floorplan = designed.warehouse.floorplan
        for vertex in system.unused_vertices():
            assert vertex not in floorplan.shelf_access
            assert vertex not in floorplan.stations

    def test_kind_partition(self, system):
        total = (
            len(system.shelving_rows())
            + len(system.station_queues())
            + len(system.transports())
        )
        assert total == system.num_components

    def test_inlets_outlets_are_inverse(self, system):
        for component in system.components:
            for outlet in system.outlets_of(component.index):
                assert component.index in system.inlets_of(outlet)
            for inlet in system.inlets_of(component.index):
                assert component.index in system.outlets_of(inlet)

    def test_edges_match_outlets(self, system):
        edges = set(system.edges())
        for component in system.components:
            for outlet in system.outlets_of(component.index):
                assert (component.index, outlet) in edges

    def test_cycle_time_and_capacity(self, system):
        assert system.cycle_time() == 2 * system.max_component_length
        assert system.cycle_time(factor=3) == 3 * system.max_component_length
        assert system.station_throughput_capacity() == sum(
            c.capacity for c in system.station_queues()
        )

    def test_units_at(self, system, designed):
        total = sum(
            system.units_at(c.index, product)
            for c in system.components
            for product in designed.warehouse.catalog.product_ids
        )
        assert total == designed.warehouse.stock.total_units_all()

    def test_station_vertices_in(self, system, designed):
        all_station_vertices = set()
        for queue in system.station_queues():
            all_station_vertices.update(system.station_vertices_in(queue.index))
        assert all_station_vertices == set(designed.warehouse.station_vertices)

    def test_networkx_export(self, system):
        graph = system.to_networkx()
        assert graph.number_of_nodes() == system.num_components
        assert graph.number_of_edges() == len(system.edges())
        assert system.is_strongly_connected()


class TestConstructionErrors:
    def test_overlapping_components_rejected(self, designed):
        warehouse = designed.warehouse
        floorplan = warehouse.floorplan
        cells = [floorplan.cell_of(v) for v in designed.traffic_system.component(0).vertices]
        paths = [("a", cells), ("b", cells)]
        with pytest.raises(TrafficError):
            TrafficSystem.from_cell_paths(warehouse, paths, [("a", "b")])

    def test_duplicate_names_rejected(self, designed):
        warehouse = designed.warehouse
        floorplan = warehouse.floorplan
        cells = [floorplan.cell_of(v) for v in designed.traffic_system.component(0).vertices]
        other = [floorplan.cell_of(v) for v in designed.traffic_system.component(1).vertices]
        with pytest.raises(TrafficError):
            TrafficSystem.from_cell_paths(warehouse, [("a", cells), ("a", other)], [])

    def test_unknown_connection_rejected(self, designed):
        warehouse = designed.warehouse
        floorplan = warehouse.floorplan
        cells = [floorplan.cell_of(v) for v in designed.traffic_system.component(0).vertices]
        with pytest.raises(TrafficError):
            TrafficSystem.from_cell_paths(warehouse, [("a", cells)], [("a", "ghost")])


class TestValidation:
    def test_generated_systems_are_valid(self, system):
        report = validate(system)
        assert report.is_valid, [str(v) for v in report.violations]
        assert_valid(system)
        assert "satisfies" in report.summary()

    def test_missing_connection_reported(self, designed):
        # Rebuild the toy traffic system but drop all connections: every
        # component then violates the inlet/outlet count rule and the graph
        # is not strongly connected.
        warehouse = designed.warehouse
        floorplan = warehouse.floorplan
        paths = [
            (c.name, [floorplan.cell_of(v) for v in c.vertices])
            for c in designed.traffic_system.components
        ]
        system = TrafficSystem.from_cell_paths(warehouse, paths, [])
        report = validate(system)
        assert not report.is_valid
        assert report.by_rule("outlet-count")
        assert report.by_rule("strong-connectivity")
        with pytest.raises(TrafficError):
            assert_valid(system)

    def test_bad_adjacency_reported(self, designed):
        warehouse = designed.warehouse
        floorplan = warehouse.floorplan
        components = designed.traffic_system.components
        paths = [
            (c.name, [floorplan.cell_of(v) for v in c.vertices]) for c in components
        ]
        # Connect two components whose exit/entry are far apart.
        bogus = [(components[0].name, components[-1].name)]
        original = [
            (components[i].name, components[j].name)
            for i, j in designed.traffic_system.edges()
        ]
        system = TrafficSystem.from_cell_paths(warehouse, paths, original + bogus)
        report = validate(system)
        adjacency_rules = report.by_rule("connection-adjacency")
        outlet_rules = report.by_rule("outlet-count")
        assert adjacency_rules or outlet_rules

    def test_coverage_violation_reported(self, designed):
        # Drop one shelving-row component: its shelf-access vertices become
        # uncovered.
        warehouse = designed.warehouse
        floorplan = warehouse.floorplan
        keep = [c for c in designed.traffic_system.components if not c.is_shelving_row]
        paths = [(c.name, [floorplan.cell_of(v) for v in c.vertices]) for c in keep]
        name_set = {c.name for c in keep}
        connections = [
            (designed.traffic_system.component(i).name, designed.traffic_system.component(j).name)
            for i, j in designed.traffic_system.edges()
            if designed.traffic_system.component(i).name in name_set
            and designed.traffic_system.component(j).name in name_set
        ]
        system = TrafficSystem.from_cell_paths(warehouse, paths, connections)
        report = validate(system)
        assert report.by_rule("coverage")


class TestDesignHelpers:
    def test_split_path_round_trip(self):
        cells = [(x, 0) for x in range(13)]
        pieces = split_path(cells, max_length=5)
        assert [c for piece in pieces for c in piece] == cells
        assert all(2 <= len(piece) <= 5 for piece in pieces)

    def test_split_path_short_path_untouched(self):
        cells = [(x, 0) for x in range(4)]
        assert split_path(cells, max_length=10) == [cells]

    def test_split_path_bad_arguments(self):
        with pytest.raises(TrafficError):
            split_path([(0, 0), (1, 0), (2, 0)], max_length=1)

    def test_chain_connections(self):
        assert chain_connections(["a", "b", "c"]) == [("a", "b"), ("b", "c")]
        assert chain_connections(["solo"]) == []

    def test_auto_connections_matches_explicit_on_toy(self, designed):
        warehouse = designed.warehouse
        floorplan = warehouse.floorplan
        paths = [
            (c.name, [floorplan.cell_of(v) for v in c.vertices])
            for c in designed.traffic_system.components
        ]
        derived = set(auto_connections(warehouse, paths))
        explicit = {
            (designed.traffic_system.component(i).name, designed.traffic_system.component(j).name)
            for i, j in designed.traffic_system.edges()
        }
        # Every explicitly designed connection is discoverable from adjacency.
        assert explicit <= derived

    def test_build_traffic_system_auto(self, designed):
        warehouse = designed.warehouse
        floorplan = warehouse.floorplan
        paths = [
            (c.name, [floorplan.cell_of(v) for v in c.vertices])
            for c in designed.traffic_system.components
        ]
        system = build_traffic_system(warehouse, paths, connections=None, validate_rules=False)
        assert system.num_components == designed.traffic_system.num_components


def _networkx_answers(system):
    """``(is_strongly_connected, max_shelving_to_station_hops)`` computed by
    networkx on the exported graph."""
    graph = system.to_networkx()
    connected = graph.number_of_nodes() <= 1 or nx.is_strongly_connected(graph)
    reverse = graph.reverse(copy=False)
    distances = {}
    for station in system.station_queues():
        for node, hops in nx.single_source_shortest_path_length(reverse, station.index).items():
            distances[node] = min(hops, distances.get(node, hops))
    reached = [distances[c.index] for c in system.shelving_rows() if c.index in distances]
    return connected, max(reached, default=0)


def _registry_systems():
    for name in sorted(MAP_REGISTRY):
        designed = MAP_REGISTRY[name]()
        yield name, getattr(designed, "designed", designed).traffic_system


class TestGraphSearches:
    """The breadth-first graph queries agree with networkx."""

    def test_registry_maps(self):
        for name, system in _registry_systems():
            answers = (system.is_strongly_connected(), system.max_shelving_to_station_hops())
            assert answers == _networkx_answers(system), name

    def test_preset_suites(self):
        for suite in (smoke_suite, scaling_suite, mix_suite, routing_scale_suite):
            for spec in suite(0):
                system = spec.build()[0].traffic_system
                answers = (system.is_strongly_connected(), system.max_shelving_to_station_hops())
                assert answers == _networkx_answers(system), spec.label

    def test_one_outlet_removed(self):
        """Every single-arc deletion on every registry map: each cuts the
        system apart, and some lengthen the way to a station."""
        disconnected = lengthened = 0
        for name, system in _registry_systems():
            hops = system.max_shelving_to_station_hops()
            for arc in system.edges():
                cut = TrafficSystem(
                    warehouse=system.warehouse,
                    components=system.components,
                    outlets={
                        source: tuple(t for t in targets if (source, t) != arc)
                        for source, targets in system.outlets.items()
                    },
                    name=system.name,
                )
                answers = (cut.is_strongly_connected(), cut.max_shelving_to_station_hops())
                assert answers == _networkx_answers(cut), (name, arc)
                disconnected += not answers[0]
                lengthened += answers[1] > hops
        assert disconnected > 0 and lengthened > 0

