"""The traffic system and its component graph ``Gs`` (Sec. IV-A of the paper).

A :class:`TrafficSystem` is a set of disjoint components over a warehouse
floorplan plus the inlet/outlet relations between them.  The relations induce
the directed *traffic-system graph* ``Gs = (Vs, Es)`` whose vertices are the
components; an arc ``(Ci, Cj)`` means ``Ci`` is an inlet of ``Cj`` (agents can
move from ``Ci``'s exit to ``Cj``'s entry).

The class offers the queries the rest of the methodology needs: kind-filtered
component lists, the longest-component length ``m`` (which fixes the cycle
time ``tc = 2m``), vertex→component lookup, breadth-first reachability over
``Gs`` (strong connectivity, shelving-to-station hop counts) and a networkx
export for analysis; networkx is imported only by that export.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..warehouse.floorplan import FloorplanGraph, VertexId
from ..warehouse.products import ProductError
from ..warehouse.warehouse import Warehouse
from .component import Component, ComponentKind, TrafficError, make_component

if TYPE_CHECKING:
    import networkx as nx

ComponentId = int


@dataclass
class TrafficSystem:
    """A traffic system: components + inlet/outlet wiring over a warehouse.

    Build one with :meth:`from_paths` (explicit connections) or via
    :mod:`repro.traffic.design` helpers; the constructor itself only checks
    basic referential integrity — run :func:`repro.traffic.validation.validate`
    for the full design-rule check.
    """

    warehouse: Warehouse
    components: Tuple[Component, ...]
    outlets: Dict[ComponentId, Tuple[ComponentId, ...]]
    name: str = "traffic-system"
    _vertex_owner: Dict[VertexId, ComponentId] = field(default_factory=dict, repr=False)
    _inlets: Dict[ComponentId, Tuple[ComponentId, ...]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        indices = [c.index for c in self.components]
        if indices != list(range(len(self.components))):
            raise TrafficError("component indices must be dense and ordered 0..n-1")
        owner: Dict[VertexId, ComponentId] = {}
        for component in self.components:
            for vertex in component.vertices:
                if vertex in owner:
                    raise TrafficError(
                        f"vertex {vertex} belongs to both component "
                        f"{self.components[owner[vertex]].name!r} and {component.name!r}"
                    )
                owner[vertex] = component.index
        self._vertex_owner = owner

        inlets: Dict[ComponentId, List[ComponentId]] = {c.index: [] for c in self.components}
        for source, targets in self.outlets.items():
            if not 0 <= source < len(self.components):
                raise TrafficError(f"outlet source {source} is not a component index")
            for target in targets:
                if not 0 <= target < len(self.components):
                    raise TrafficError(f"outlet target {target} is not a component index")
                inlets[target].append(source)
        for component in self.components:
            self.outlets.setdefault(component.index, ())
        self._inlets = {cid: tuple(sources) for cid, sources in inlets.items()}

    # -- construction --------------------------------------------------------
    @staticmethod
    def from_paths(
        warehouse: Warehouse,
        paths: Sequence[Tuple[str, Sequence[VertexId]]],
        connections: Sequence[Tuple[str, str]],
        name: str = "traffic-system",
    ) -> "TrafficSystem":
        """Build a traffic system from named vertex paths and named connections.

        ``paths`` is a sequence of ``(component_name, vertex_path)``;
        ``connections`` is a sequence of ``(from_name, to_name)`` meaning the
        first component is an inlet of the second.
        """
        floorplan = warehouse.floorplan
        components: List[Component] = []
        by_name: Dict[str, int] = {}
        for index, (component_name, vertices) in enumerate(paths):
            if component_name in by_name:
                raise TrafficError(f"duplicate component name {component_name!r}")
            components.append(
                make_component(floorplan, index, component_name, vertices)
            )
            by_name[component_name] = index
        outlets: Dict[ComponentId, List[ComponentId]] = {i: [] for i in range(len(components))}
        for from_name, to_name in connections:
            if from_name not in by_name or to_name not in by_name:
                raise TrafficError(
                    f"connection ({from_name!r} -> {to_name!r}) references unknown components"
                )
            outlets[by_name[from_name]].append(by_name[to_name])
        return TrafficSystem(
            warehouse=warehouse,
            components=tuple(components),
            outlets={cid: tuple(targets) for cid, targets in outlets.items()},
            name=name,
        )

    @staticmethod
    def from_cell_paths(
        warehouse: Warehouse,
        cell_paths: Sequence[Tuple[str, Sequence[Tuple[int, int]]]],
        connections: Sequence[Tuple[str, str]],
        name: str = "traffic-system",
    ) -> "TrafficSystem":
        """Like :meth:`from_paths` but with paths given as grid cells."""
        floorplan = warehouse.floorplan
        vertex_paths = [
            (component_name, [floorplan.vertex_at(cell) for cell in cells])
            for component_name, cells in cell_paths
        ]
        return TrafficSystem.from_paths(warehouse, vertex_paths, connections, name=name)

    # -- basic queries --------------------------------------------------------
    @property
    def floorplan(self) -> FloorplanGraph:
        return self.warehouse.floorplan

    @property
    def num_components(self) -> int:
        return len(self.components)

    def component(self, component_id: ComponentId) -> Component:
        return self.components[component_id]

    def component_by_name(self, name: str) -> Component:
        for component in self.components:
            if component.name == name:
                return component
        raise TrafficError(f"no component named {name!r}")

    def outlets_of(self, component_id: ComponentId) -> Tuple[ComponentId, ...]:
        return self.outlets.get(component_id, ())

    def inlets_of(self, component_id: ComponentId) -> Tuple[ComponentId, ...]:
        return self._inlets.get(component_id, ())

    def owner_of(self, vertex: VertexId) -> Optional[ComponentId]:
        """The component containing ``vertex`` (None for unused vertices)."""
        return self._vertex_owner.get(vertex)

    def used_vertices(self) -> Tuple[VertexId, ...]:
        return tuple(self._vertex_owner)

    def unused_vertices(self) -> Tuple[VertexId, ...]:
        used = self._vertex_owner
        return tuple(
            v for v in range(self.floorplan.num_vertices) if v not in used
        )

    # -- kind-filtered views ----------------------------------------------------
    def shelving_rows(self) -> Tuple[Component, ...]:
        return tuple(c for c in self.components if c.is_shelving_row)

    def station_queues(self) -> Tuple[Component, ...]:
        return tuple(c for c in self.components if c.is_station_queue)

    def transports(self) -> Tuple[Component, ...]:
        return tuple(c for c in self.components if c.is_transport)

    # -- methodology-level quantities ---------------------------------------------
    @property
    def max_component_length(self) -> int:
        """``m`` — the length of the longest component (fixes tc = 2m)."""
        return max(c.length for c in self.components)

    def cycle_time(self, factor: int = 2) -> int:
        """The cycle time ``tc = factor * m`` (Property 4.1 uses factor = 2)."""
        return factor * self.max_component_length

    def station_throughput_capacity(self) -> int:
        """Upper bound on deliveries per cycle period: Σ ⌊|C|/2⌋ over station queues."""
        return sum(c.capacity for c in self.station_queues())

    def max_shelving_to_station_hops(self) -> int:
        """Longest shortest-hop distance from a shelving row to a station queue.

        Used by the synthesis stage to size the warm-up margin of the workload
        contract: a unit picked up ``d`` components away from its drop-off
        queue is delivered ``d`` cycle periods later, so the last useful pickup
        period is ``q_c - d``.
        """
        stations = [c.index for c in self.station_queues()]
        if not stations:
            return 0
        distances = _hops_from(stations, self._reversed_outlets())
        hops = [distances[c.index] for c in self.shelving_rows() if c.index in distances]
        return max(hops) if hops else 0

    def units_table(self) -> List[List[int]]:
        """UNITSAT for every component and product: ``table[i][k] = UNITSAT(Ci, ρk)``.

        Sums each component's shelf-access columns of the *current* location
        matrix; column 0 (ρ0) is zero.  Nothing is cached, so stock moved
        between two calls shows in the second.
        """
        shelf_access = self.floorplan.shelf_access
        owned = [(v, c) for v, c in self._vertex_owner.items() if v in shelf_access]
        table = np.zeros((len(self.components), self.warehouse.num_products + 1), dtype=np.int64)
        if owned:
            vertices, owners = zip(*owned)
            units = self.warehouse.stock.as_array()[:, list(vertices)]
            np.add.at(table, list(owners), units.T)
        return table.tolist()

    def units_at(self, component_id: ComponentId, product: int) -> int:
        """UNITSAT(Ci, ρk): stocked units of a product accessible from a component.

        One entry of :meth:`units_table`, which code reading many entries uses.
        """
        if not 1 <= product <= self.warehouse.num_products:
            raise ProductError(f"invalid product id {product}")
        return self.units_table()[component_id][product]

    def station_vertices_in(self, component_id: ComponentId) -> Tuple[VertexId, ...]:
        stations = self.warehouse.station_vertices
        return tuple(v for v in self.component(component_id).vertices if v in stations)

    # -- graph views ----------------------------------------------------------------
    def edges(self) -> Tuple[Tuple[ComponentId, ComponentId], ...]:
        """All arcs (Ci, Cj) of the traffic-system graph Gs."""
        result: List[Tuple[ComponentId, ComponentId]] = []
        for source, targets in sorted(self.outlets.items()):
            for target in targets:
                result.append((source, target))
        return tuple(result)

    def _reversed_outlets(self) -> Dict[ComponentId, List[ComponentId]]:
        """The arcs of ``Gs`` reversed: each component's inlets, read from ``outlets``."""
        reverse: Dict[ComponentId, List[ComponentId]] = {c.index: [] for c in self.components}
        for source, targets in self.outlets.items():
            for target in targets:
                reverse[target].append(source)
        return reverse

    def to_networkx(self) -> "nx.DiGraph":
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for component in self.components:
            graph.add_node(
                component.index,
                name=component.name,
                kind=component.kind.value,
                length=component.length,
            )
        graph.add_edges_from(self.edges())
        return graph

    def is_strongly_connected(self) -> bool:
        """Every component reaches every other: one search each way from component 0."""
        if self.num_components <= 1:
            return True
        return (
            len(_hops_from([0], self.outlets)) == self.num_components
            and len(_hops_from([0], self._reversed_outlets())) == self.num_components
        )

    def summary(self) -> str:
        return (
            f"traffic system {self.name!r}: {self.num_components} components "
            f"({len(self.shelving_rows())} shelving rows, "
            f"{len(self.station_queues())} station queues, "
            f"{len(self.transports())} transports), "
            f"m={self.max_component_length}, "
            f"{len(self.edges())} connections"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrafficSystem({self.summary()})"


def _hops_from(
    sources: Sequence[ComponentId], arcs: Mapping[ComponentId, Sequence[ComponentId]]
) -> Dict[ComponentId, int]:
    """Fewest arcs from any of ``sources`` to every component they reach (BFS)."""
    hops = dict.fromkeys(sources, 0)
    queue = deque(hops)
    while queue:
        node = queue.popleft()
        for target in arcs.get(node, ()):
            if target not in hops:
                hops[target] = hops[node] + 1
                queue.append(target)
    return hops
