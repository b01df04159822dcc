"""The floorplan graph ``G = (V, E)`` of a warehouse (Sec. III of the paper).

Each vertex is a one-agent-wide cell an agent may occupy; there is an edge
between two vertices iff an agent can move between them in one timestep.  The
graph is derived from a :class:`~repro.warehouse.grid.GridMap` and annotated
with the shelf-access vertex set ``S`` and the station vertex set ``R``.

Vertices are integer ids (dense, 0..|V|-1) with a bidirectional mapping to
``(x, y)`` cells; the dense ids keep plans and reservation tables compact
(plain numpy int arrays) for team sizes in the hundreds.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .grid import Cell, GridMap

if TYPE_CHECKING:
    import networkx as nx

VertexId = int


class FloorplanError(ValueError):
    """Raised for inconsistent floorplan graphs."""


#: Bounded LRU of built floorplan graphs keyed by the grid's full identity
#: (ASCII rendering + name).  Repeated :class:`ScenarioSpec` builds of the
#: same map — the common case in the serving layer, where every request for a
#: scenario re-materializes its warehouse — then share one graph instead of
#: re-deriving adjacency for every request.  Graphs are treated as immutable
#: after construction (nothing in the code base mutates one), which is what
#: makes sharing sound.
_FROM_GRID_CACHE: "OrderedDict[Tuple[str, str], FloorplanGraph]" = OrderedDict()
_FROM_GRID_CAPACITY = 64
_from_grid_stats = {"hits": 0, "misses": 0}


def from_grid_cache_info() -> Dict[str, int]:
    """Hit/miss counters of the ``from_grid`` memo (for the micro-benchmark)."""
    return dict(_from_grid_stats, size=len(_FROM_GRID_CACHE))


def from_grid_cache_clear() -> None:
    """Drop every memoized floorplan graph and reset the counters."""
    _FROM_GRID_CACHE.clear()
    _from_grid_stats["hits"] = 0
    _from_grid_stats["misses"] = 0


@dataclass
class FloorplanGraph:
    """Undirected floorplan graph with shelf-access and station annotations.

    Use :meth:`from_grid` to build one; direct construction is exposed for
    tests and for hand-crafted graphs.
    """

    cells: List[Cell]
    adjacency: List[Tuple[VertexId, ...]]
    shelf_access: FrozenSet[VertexId]
    stations: FrozenSet[VertexId]
    grid: Optional[GridMap] = None
    _cell_index: Dict[Cell, VertexId] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if len(self.adjacency) != len(self.cells):
            raise FloorplanError("adjacency list length must match vertex count")
        if not self._cell_index:
            self._cell_index = {cell: i for i, cell in enumerate(self.cells)}
        for vertex_set, label in ((self.shelf_access, "shelf access"), (self.stations, "station")):
            for v in vertex_set:
                if not 0 <= v < len(self.cells):
                    raise FloorplanError(f"{label} vertex {v} out of range")

    # -- construction ---------------------------------------------------------
    @staticmethod
    def from_grid(grid: GridMap) -> "FloorplanGraph":
        """Build the floorplan graph of a grid map.

        * vertices  — traversable cells (open floor and stations);
        * edges     — 4-adjacency between traversable cells;
        * ``S``     — traversable cells adjacent to at least one shelf;
        * ``R``     — station cells.

        Results are memoized per grid identity (ASCII + name): building the
        same map twice returns the same (immutable-by-convention) graph.
        """
        key = (grid.to_ascii(), grid.name)
        cached = _FROM_GRID_CACHE.get(key)
        if cached is not None:
            _FROM_GRID_CACHE.move_to_end(key)
            _from_grid_stats["hits"] += 1
            return cached
        _from_grid_stats["misses"] += 1
        cells = grid.traversable_cells()
        index = {cell: i for i, cell in enumerate(cells)}
        adjacency: List[Tuple[VertexId, ...]] = []
        for cell in cells:
            adjacency.append(tuple(index[n] for n in grid.neighbors(cell)))
        shelf_access = frozenset(index[c] for c in grid.shelf_access_cells())
        stations = frozenset(index[c] for c in grid.station_cells())
        graph = FloorplanGraph(
            cells=cells,
            adjacency=adjacency,
            shelf_access=shelf_access,
            stations=stations,
            grid=grid,
            _cell_index=index,
        )
        _FROM_GRID_CACHE[key] = graph
        while len(_FROM_GRID_CACHE) > _FROM_GRID_CAPACITY:
            _FROM_GRID_CACHE.popitem(last=False)
        return graph

    # -- vertex/cell mapping ---------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.cells)

    def vertex_at(self, cell: Cell) -> VertexId:
        try:
            return self._cell_index[cell]
        except KeyError as exc:
            raise FloorplanError(f"no vertex at cell {cell}") from exc

    def has_vertex_at(self, cell: Cell) -> bool:
        return cell in self._cell_index

    def cell_of(self, vertex: VertexId) -> Cell:
        try:
            return self.cells[vertex]
        except IndexError as exc:
            raise FloorplanError(f"vertex {vertex} out of range") from exc

    def neighbors(self, vertex: VertexId) -> Tuple[VertexId, ...]:
        return self.adjacency[vertex]

    def are_adjacent(self, u: VertexId, v: VertexId) -> bool:
        return v in self.adjacency[u]

    def degree(self, vertex: VertexId) -> int:
        return len(self.adjacency[vertex])

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    # -- annotations ------------------------------------------------------------
    def is_shelf_access(self, vertex: VertexId) -> bool:
        return vertex in self.shelf_access

    def is_station(self, vertex: VertexId) -> bool:
        return vertex in self.stations

    # -- graph algorithms --------------------------------------------------------
    def bfs_distances(self, source: VertexId) -> Dict[VertexId, int]:
        """Unweighted shortest-path distances from ``source`` to every reachable vertex."""
        distances = {source: 0}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in self.adjacency[current]:
                if neighbor not in distances:
                    distances[neighbor] = distances[current] + 1
                    queue.append(neighbor)
        return distances

    def shortest_path(self, source: VertexId, target: VertexId) -> Optional[List[VertexId]]:
        """One unweighted shortest path, or ``None`` when unreachable."""
        if source == target:
            return [source]
        parents: Dict[VertexId, VertexId] = {source: source}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in self.adjacency[current]:
                if neighbor not in parents:
                    parents[neighbor] = current
                    if neighbor == target:
                        path = [target]
                        while path[-1] != source:
                            path.append(parents[path[-1]])
                        return list(reversed(path))
                    queue.append(neighbor)
        return None

    def is_connected(self, vertices: Optional[Iterable[VertexId]] = None) -> bool:
        """Whether the graph (or an induced subset of it) is connected."""
        if vertices is None:
            targets = set(range(self.num_vertices))
        else:
            targets = set(vertices)
        if not targets:
            return True
        start = next(iter(targets))
        seen = {start}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for neighbor in self.adjacency[current]:
                if neighbor in targets and neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return seen == targets

    def to_networkx(self) -> "nx.Graph":
        """Export to a networkx graph (vertex attribute ``cell``; flags for S and R)."""
        import networkx as nx

        graph = nx.Graph()
        for vertex, cell in enumerate(self.cells):
            graph.add_node(
                vertex,
                cell=cell,
                shelf_access=vertex in self.shelf_access,
                station=vertex in self.stations,
            )
        for vertex, neighbors in enumerate(self.adjacency):
            for neighbor in neighbors:
                if vertex < neighbor:
                    graph.add_edge(vertex, neighbor)
        return graph

    def induced_path_is_simple(self, vertices: Sequence[VertexId]) -> bool:
        """True when ``vertices`` form a simple path in the graph (in order).

        Used by the traffic-system validator: every component must be a
        disjoint simple path of floorplan vertices.
        """
        if len(vertices) != len(set(vertices)):
            return False
        return all(
            self.are_adjacent(u, v) for u, v in zip(vertices, vertices[1:])
        )

    def summary(self) -> str:
        return (
            f"floorplan: {self.num_vertices} vertices, {self.num_edges} edges, "
            f"{len(self.shelf_access)} shelf-access, {len(self.stations)} stations"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FloorplanGraph({self.summary()})"
