"""Shared true-distance heuristic tables for the MAPF search core.

Every low-level search in this package is guided by the single-agent BFS
distance-to-goal — the classic admissible, consistent MAPF heuristic.  The
seed implementation recomputed that BFS (a per-vertex Python dict) once per
``shortest_path_lengths`` call, i.e. once per agent per CBS/ECBS *episode*;
on lifelong instances with dozens of replan episodes the heuristic phase
alone rivalled the search itself.

:class:`DistanceTables` fixes the cost structure:

* the floorplan's adjacency is flattened once into CSR-style numpy arrays
  (``indptr`` / ``indices``), so a BFS wavefront expands with vectorized
  gather/scatter operations instead of per-neighbor dict probes;
* one ``int32`` distance row is computed per *goal vertex* and kept (at
  most one row per vertex, ``4 * num_vertices`` bytes each), so every
  low-level call, every CT node, every replan episode and every later
  routing pass that targets the same goal shares one row;
* next to each row sits a list copy (:meth:`DistanceTables.row`), which
  the searches and the dispatch loop index: reading a Python list yields an
  ``int``, reading the array a numpy scalar that costs an ``int()`` call;
* rows confined to a corridor (an allowed-vertex set) are kept, with their
  lists, in an LRU of at most :data:`CORRIDOR_ROWS` rows per floorplan,
  since the corridors a router hands out are unbounded in number;
* tables are registered per floorplan (keyed by object identity) and live
  exactly as long as the graph: a ``weakref.finalize`` on the graph drops its
  entry.  Together with the ``FloorplanGraph.from_grid`` memo, repeated
  scenario builds of one map share both the graph and its distance tables.

Unreachable vertices hold :data:`UNREACHABLE` (-1); callers test with
``table[v] >= 0`` instead of dict membership.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..warehouse.floorplan import FloorplanGraph, VertexId

#: Sentinel distance for vertices a goal cannot be reached from.
UNREACHABLE = -1

#: Corridor-confined rows kept per floorplan (least recently used evicted).
CORRIDOR_ROWS = 1024

#: A distance row and its list copy, cached and evicted together.
_Row = Tuple[np.ndarray, List[int]]


class DistanceTables:
    """Per-floorplan cache of vectorized single-source BFS distance rows."""

    def __init__(self, floorplan: FloorplanGraph) -> None:
        adjacency = floorplan.adjacency
        degrees = np.fromiter(
            (len(neighbors) for neighbors in adjacency),
            dtype=np.int64,
            count=len(adjacency),
        )
        self.num_vertices = len(adjacency)
        self.indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=self.indptr[1:])
        self.indices = np.fromiter(
            (n for neighbors in adjacency for n in neighbors),
            dtype=np.int64,
            count=int(self.indptr[-1]),
        )
        self._tables: Dict[VertexId, _Row] = {}
        self._masked: "OrderedDict[Tuple[VertexId, FrozenSet[VertexId]], _Row]" = (
            OrderedDict()
        )
        #: Guards the corridor LRU: routing runs on several threads share one
        #: graph's tables, and a lookup re-orders the LRU.
        self._masked_lock = threading.Lock()

    def table(
        self, goal: VertexId, corridor: Optional[FrozenSet[VertexId]] = None
    ) -> np.ndarray:
        """BFS distances to ``goal`` as an ``int32`` row (-1 = unreachable).

        With a ``corridor`` (an allowed-vertex set), distances are computed on
        the induced subgraph: vertices outside the corridor stay -1, which the
        low-level searches treat as walls — the standard way to confine an
        agent's motion to a designated region of the floorplan.
        """
        return self._entry(goal, corridor)[0]

    def row(
        self, goal: VertexId, corridor: Optional[FrozenSet[VertexId]] = None
    ) -> List[int]:
        """:meth:`table`'s row as a list of ``int`` (shared: do not mutate)."""
        return self._entry(goal, corridor)[1]

    def _entry(
        self, goal: VertexId, corridor: Optional[FrozenSet[VertexId]]
    ) -> _Row:
        if corridor is None:
            cached = self._tables.get(goal)
            if cached is None:
                distances = self._bfs(goal)
                cached = self._tables[goal] = (distances, distances.tolist())
            return cached
        key = (goal, corridor)
        masked = self._masked
        with self._masked_lock:
            cached = masked.get(key)
            if cached is not None:
                masked.move_to_end(key)
                return cached
            allowed = np.zeros(self.num_vertices, dtype=bool)
            allowed[list(corridor)] = True
            distances = self._bfs(goal, allowed)
            cached = masked[key] = (distances, distances.tolist())
            if len(masked) > CORRIDOR_ROWS:
                masked.popitem(last=False)
        return cached

    def distance(self, source: VertexId, goal: VertexId) -> int:
        """True single-agent distance ``source -> goal`` (-1 when unreachable)."""
        return self.row(goal)[source]

    def _bfs(self, source: VertexId, allowed: Optional[np.ndarray] = None) -> np.ndarray:
        """Vectorized BFS wavefront over the CSR adjacency."""
        distances = np.full(self.num_vertices, UNREACHABLE, dtype=np.int32)
        if not 0 <= source < self.num_vertices:
            raise ValueError(f"BFS source {source} outside the floorplan")
        if allowed is not None and not allowed[source]:
            return distances
        distances[source] = 0
        frontier = np.array([source], dtype=np.int64)
        depth = 0
        while frontier.size:
            starts = self.indptr[frontier]
            counts = self.indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            # Gather every neighbor of the wavefront in one shot: for each
            # frontier vertex expand its CSR slice [start, start+count).
            offsets = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
            neighbors = self.indices[offsets + np.arange(total)]
            fresh_mask = distances[neighbors] == UNREACHABLE
            if allowed is not None:
                fresh_mask &= allowed[neighbors]
            fresh = neighbors[fresh_mask]
            if fresh.size == 0:
                break
            frontier = np.unique(fresh)
            depth += 1
            distances[frontier] = depth
        return distances

    @property
    def cached_goals(self) -> int:
        return len(self._tables)

    @property
    def cached_corridor_rows(self) -> int:
        return len(self._masked)


#: Per-floorplan registry keyed by ``id(graph)``; each graph's finalizer
#: removes its entry, so the tables live exactly as long as the graph.
_TABLES: Dict[int, DistanceTables] = {}


def distance_tables(floorplan: FloorplanGraph) -> DistanceTables:
    """The shared :class:`DistanceTables` of a floorplan graph.

    Keyed by object identity (floorplan graphs are memoized and treated as
    immutable).  The entry is dropped when the graph is collected, before its
    id can be reused, so an identity collision with another graph cannot
    happen; the tables themselves hold no reference to the graph.
    """
    key = id(floorplan)
    tables = _TABLES.get(key)
    if tables is None:
        tables = DistanceTables(floorplan)
        _TABLES[key] = tables
        weakref.finalize(floorplan, _TABLES.pop, key, None).atexit = False
    return tables


def agent_row(tables: DistanceTables, agent) -> List[int]:
    """Distance row for one MAPF agent, honoring its corridor when usable.

    Falls back to the unmasked row when the corridor does not connect the
    agent's start to its goal (e.g. the agent strayed off its corridor while
    idling) — confinement is a routing preference, never a completeness trap.
    """
    corridor = getattr(agent, "corridor", None)
    if corridor is not None:
        row = tables.row(agent.goal, corridor)
        if row[agent.start] >= 0:
            return row
    return tables.row(agent.goal)


def heuristic_row(
    floorplan: FloorplanGraph, goal: VertexId, heuristic=None
) -> List[int]:
    """Normalize a caller-provided heuristic into a list distance row.

    Accepts ``None`` (the shared true-distance row), a list (used as-is), an
    ndarray row, or the legacy ``Dict[vertex, distance]`` shape the public
    API documented before the table rewrite.
    """
    if heuristic is None:
        return distance_tables(floorplan).row(goal)
    if isinstance(heuristic, list):
        return heuristic
    if isinstance(heuristic, np.ndarray):
        return heuristic.tolist()
    row = [UNREACHABLE] * floorplan.num_vertices
    for vertex, value in heuristic.items():
        row[vertex] = int(value)
    return row
