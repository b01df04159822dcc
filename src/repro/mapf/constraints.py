"""Space-time constraints and reservation tables for MAPF search.

CBS/ECBS resolve conflicts by branching on *constraints* ("agent a may not be
at vertex v at time t" / "may not traverse edge (u, v) at time t"); prioritized
planning and the lifelong planner use a *reservation table* holding the
space-time cells already claimed by other agents.  Both are provided here.

Beyond the membership tests the seed shipped, both structures expose the
*interval views* the SIPP low level needs (per-vertex sorted blocked-time
lists; for :class:`ReservationTable`, the merged safe intervals themselves,
cached per vertex), maintain incremental per-vertex indices so "latest time
this vertex is touched" is O(1) instead of a scan over every reservation,
and — for :class:`ConstraintSet` — a canonical
:meth:`~ConstraintSet.signature` that CBS/ECBS use to dedupe constraint-tree
nodes reached via different branch orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..warehouse.floorplan import VertexId

#: "Forever" for interval arithmetic — far beyond any reachable timestep.
_INF = 1 << 60

#: Safe intervals of one vertex — inclusive ``(start, end)`` pairs in
#: increasing order — and the start of each, for bisecting.
IntervalIndex = Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]

#: The safe intervals of a vertex nothing blocks, shared by every such vertex.
UNBLOCKED: IntervalIndex = (((0, _INF),), (0,))


def _merge_intervals(
    blocked: Sequence[int], parked_from: Optional[int]
) -> Tuple[Tuple[int, int], ...]:
    """Safe intervals of one vertex from its blocked ticks + parked tail.

    Returns inclusive ``(start, end)`` pairs in increasing order; the final
    interval ends at :data:`_INF` unless a parked agent blocks the vertex
    forever from some tick on.
    """
    horizon = parked_from
    times = sorted(
        {t for t in blocked if t >= 0 and (horizon is None or t < horizon)}
    )
    intervals: List[Tuple[int, int]] = []
    start = 0
    for t in times:
        if t > start:
            intervals.append((start, t - 1))
        start = t + 1
    if horizon is None:
        intervals.append((start, _INF))
    elif start < horizon:
        intervals.append((start, horizon - 1))
    return tuple(intervals)


def interval_index(blocked: Sequence[int], parked_from: Optional[int]) -> IntervalIndex:
    """:func:`_merge_intervals` with the start of each interval."""
    intervals = _merge_intervals(blocked, parked_from)
    return intervals, tuple(interval[0] for interval in intervals)


@dataclass(frozen=True)
class Constraint:
    """A single space-time prohibition for one agent.

    ``edge_from`` is ``None`` for vertex constraints; for edge constraints the
    agent is forbidden from moving ``edge_from -> vertex`` arriving at
    ``timestep``.
    """

    agent: int
    vertex: VertexId
    timestep: int
    edge_from: Optional[VertexId] = None

    @property
    def is_edge_constraint(self) -> bool:
        return self.edge_from is not None


#: Canonical hashable form of one constraint (``edge_from`` is -1 for vertex
#: constraints so the tuple stays homogeneous and sortable).
ConstraintKey = Tuple[int, int, VertexId, int]


class ConstraintSet:
    """Constraints indexed for O(1) lookup during low-level search."""

    def __init__(self, constraints: Iterable[Constraint] = ()) -> None:
        self._vertex: Dict[int, Set[Tuple[VertexId, int]]] = {}
        self._edge: Dict[int, Set[Tuple[VertexId, VertexId, int]]] = {}
        self._latest: Dict[int, int] = {}
        self._blocked_cache: Dict[int, Dict[VertexId, Tuple[int, ...]]] = {}
        self._signature: Optional[FrozenSet[ConstraintKey]] = None
        for constraint in constraints:
            self.add(constraint)

    def add(self, constraint: Constraint) -> None:
        agent = constraint.agent
        if constraint.is_edge_constraint:
            self._edge.setdefault(agent, set()).add(
                (constraint.edge_from, constraint.vertex, constraint.timestep)
            )
        else:
            self._vertex.setdefault(agent, set()).add(
                (constraint.vertex, constraint.timestep)
            )
        self._latest[agent] = max(self._latest.get(agent, 0), constraint.timestep)
        self._blocked_cache.pop(agent, None)
        self._signature = None

    def extended(self, constraint: Constraint) -> "ConstraintSet":
        """A copy of this set with one extra constraint (used by CBS branching)."""
        clone = ConstraintSet()
        clone._vertex = {agent: set(items) for agent, items in self._vertex.items()}
        clone._edge = {agent: set(items) for agent, items in self._edge.items()}
        clone._latest = dict(self._latest)
        clone.add(constraint)
        return clone

    def violates_vertex(self, agent: int, vertex: VertexId, timestep: int) -> bool:
        return (vertex, timestep) in self._vertex.get(agent, ())

    def violates_edge(
        self, agent: int, from_vertex: VertexId, to_vertex: VertexId, timestep: int
    ) -> bool:
        return (from_vertex, to_vertex, timestep) in self._edge.get(agent, ())

    def latest_constraint_time(self, agent: int) -> int:
        """The latest timestep any constraint on ``agent`` refers to.

        The low-level search must keep planning at least until this time, so
        that "goal reached" cannot dodge a later constraint at the goal vertex.
        """
        return self._latest.get(agent, 0)

    def vertex_blocked_times(self, agent: int) -> Dict[VertexId, Tuple[int, ...]]:
        """Per-vertex sorted blocked timesteps for ``agent`` (SIPP intervals).

        Cached per agent and invalidated by :meth:`add`, so the SIPP low level
        builds each agent's safe-interval index once per CT node rather than
        once per expansion.
        """
        cached = self._blocked_cache.get(agent)
        if cached is None:
            by_vertex: Dict[VertexId, List[int]] = {}
            for vertex, timestep in self._vertex.get(agent, ()):
                by_vertex.setdefault(vertex, []).append(timestep)
            cached = {
                vertex: tuple(sorted(times)) for vertex, times in by_vertex.items()
            }
            self._blocked_cache[agent] = cached
        return cached

    def vertex_constraints(self, agent: int) -> Set[Tuple[VertexId, int]]:
        """The raw vertex-constraint pairs for ``agent`` (read-only use)."""
        return self._vertex.get(agent, set())

    def latest_vertex_constraint(self, agent: int, vertex: VertexId) -> int:
        """Latest constrained timestep on ``vertex`` for ``agent`` (-1 if none)."""
        times = self.vertex_blocked_times(agent).get(vertex)
        return times[-1] if times else -1

    def edge_constraints(self, agent: int) -> Set[Tuple[VertexId, VertexId, int]]:
        """The raw edge-constraint triples for ``agent`` (read-only use)."""
        return self._edge.get(agent, set())

    def signature(self) -> FrozenSet[ConstraintKey]:
        """Canonical hashable identity of this constraint set.

        Two CT nodes whose constraint sets compare equal here have identical
        low-level search problems for every agent — regardless of the branch
        order that produced them — so CBS/ECBS prune the duplicate before
        paying for its replans.
        """
        if self._signature is None:
            keys: List[ConstraintKey] = []
            for agent, items in self._vertex.items():
                keys.extend((agent, -1, vertex, t) for vertex, t in items)
            for agent, items in self._edge.items():
                keys.extend((agent, u, v, t) for u, v, t in items)
            self._signature = frozenset(keys)
        return self._signature


@dataclass
class ReservationTable:
    """Space-time reservations used by prioritized / lifelong planning.

    ``vertex_reservations[(v, t)]`` marks vertex ``v`` occupied at time ``t``;
    ``edge_reservations[(u, v, t)]`` marks the move ``u -> v`` arriving at
    ``t`` as taken (so the opposite move would be a swap).  ``parked[(v)]``
    records agents that sit on ``v`` forever from a given time (agents resting
    at their goal).

    Each vertex's blocked times are maintained incrementally on
    :meth:`reserve_path`, so the SIPP low level reads sorted interval
    boundaries.  :meth:`safe_intervals` caches each vertex's
    merged safe intervals until :meth:`reserve_path` reserves a new cell on
    the vertex or parks on it; every later low-level search of a prioritized
    solve reads them instead of merging again.
    """

    vertex_reservations: Set[Tuple[VertexId, int]] = field(default_factory=set)
    edge_reservations: Set[Tuple[VertexId, VertexId, int]] = field(default_factory=set)
    parked: Dict[VertexId, int] = field(default_factory=dict)
    _vertex_times: Dict[VertexId, Set[int]] = field(default_factory=dict, repr=False)
    _latest: int = field(default=0, repr=False)
    _blocked_cache: Dict[VertexId, Tuple[int, ...]] = field(
        default_factory=dict, repr=False
    )
    _interval_cache: Dict[VertexId, IntervalIndex] = field(
        default_factory=dict, repr=False
    )

    def reserve_path(self, path: Sequence[VertexId], park_at_goal: bool = True) -> None:
        """Reserve every space-time cell of a path (and optionally its goal forever)."""
        for t, vertex in enumerate(path):
            cell = (vertex, t)
            if cell not in self.vertex_reservations:
                self.vertex_reservations.add(cell)
                self._vertex_times.setdefault(vertex, set()).add(t)
                if t > self._latest:
                    self._latest = t
                self._blocked_cache.pop(vertex, None)
                self._interval_cache.pop(vertex, None)
            if t:
                self.edge_reservations.add((path[t - 1], vertex, t))
        if park_at_goal and path:
            goal = path[-1]
            previous = self.parked.get(goal)
            parked_from = len(path) - 1
            if previous is None or parked_from < previous:
                self.parked[goal] = parked_from
                self._interval_cache.pop(goal, None)

    def blocked_times(self, vertex: VertexId) -> Tuple[int, ...]:
        """Sorted timesteps at which ``vertex`` is reserved by a transit.

        The parked tail is *not* included — callers read ``parked[vertex]``
        directly, because a parked vertex is blocked on an unbounded interval
        rather than at discrete ticks.
        """
        cached = self._blocked_cache.get(vertex)
        if cached is None:
            cached = tuple(sorted(self._vertex_times.get(vertex, ())))
            self._blocked_cache[vertex] = cached
        return cached

    def safe_intervals(self, vertex: VertexId) -> IntervalIndex:
        """Safe intervals of ``vertex`` under the reservations alone.

        Transits block single ticks and a parked agent blocks every tick
        from the one it parks at.  Every vertex nothing blocks shares the
        :data:`UNBLOCKED` entry.
        """
        cached = self._interval_cache.get(vertex)
        if cached is None:
            if vertex in self._vertex_times or vertex in self.parked:
                cached = interval_index(
                    self.blocked_times(vertex), self.parked.get(vertex)
                )
            else:
                cached = UNBLOCKED
            self._interval_cache[vertex] = cached
        return cached

    def latest_reserved_time(self) -> int:
        return self._latest
