"""Single-agent low-level searches of every MAPF solver here — SIPP edition.

Three entry points:

* :func:`shortest_path_lengths` — true single-agent BFS distances used as the
  admissible heuristic, served from the per-floorplan
  :class:`~repro.mapf.heuristics.DistanceTables`, which live as long as the
  graph does;
* :func:`space_time_astar` — *Safe Interval Path Planning* (SIPP): instead of
  expanding one node per (vertex, tick) — where almost every expansion on a
  congested map is a forced wait — the search state is (vertex, safe
  interval).  The blocked ticks of a vertex (its CBS constraints, transiting
  reservations, parked tails) partition its timeline into a handful of safe
  intervals, and one expansion covers every wait inside an interval.  g is the
  earliest arrival time in the interval, the heuristic is consistent for
  earliest arrival, so the search stays optimal while expanding orders of
  magnitude fewer nodes than per-tick A*;
* :func:`space_time_focal_astar` — the bounded-suboptimal ECBS low level.
  It stays time-expanded (its focal ordering needs per-tick collision counts
  against concrete paths) but replaces the seed's rebuild-the-focal-list-per-
  expansion selection with the classic two-structure scheme: a bucketed open
  list keyed by f plus a persistent focal heap swept incrementally as the
  w·f_min threshold grows.  Collision counts come from an occupancy index of
  the other agents' paths that costs O(path length) per path added; the ECBS
  root grows one index, a planned path at a time.

Both searches order their open lists with *bucket queues*: every edge costs
one tick and the BFS heuristic is consistent, so f-values are small dense
integers and a dict-of-stacks with a lazily drained key heap replaces the
binary heap's O(log n) pushes with O(1) appends.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..warehouse.floorplan import FloorplanGraph, VertexId
from .constraints import (
    _INF,
    UNBLOCKED,
    ConstraintSet,
    ReservationTable,
    IntervalIndex,
    interval_index,
)
from .heuristics import distance_tables, heuristic_row
from .problem import Path


def shortest_path_lengths(
    floorplan: FloorplanGraph, goal: VertexId
) -> Dict[VertexId, int]:
    """BFS distances to ``goal`` (admissible, consistent heuristic).

    Kept as the documented dict-shaped public API.  The row comes from the
    floorplan's shared :class:`~repro.mapf.heuristics.DistanceTables`, which
    keep every goal's row for as long as the graph lives, so repeated calls
    for one goal cost a lookup plus this dict, not a BFS.
    """
    row = distance_tables(floorplan).row(goal)
    return {vertex: d for vertex, d in enumerate(row) if d >= 0}


@dataclass
class SearchStats:
    """Node counters exposed by the searches (used in benchmark reports)."""

    expansions: int = 0
    generated: int = 0


class _BucketQueue:
    """Open list keyed by integer f-value: dict of stacks + lazy key heap.

    Pushes are O(1); pops take the minimum f bucket (LIFO within a bucket,
    which is deterministic and, with a consistent heuristic, keeps the search
    depth-first along the current best front).
    """

    __slots__ = ("_buckets", "_keys")

    def __init__(self) -> None:
        self._buckets: Dict[int, List] = {}
        self._keys: List[int] = []

    def push(self, f_value: int, item) -> None:
        bucket = self._buckets.get(f_value)
        if bucket is None:
            self._buckets[f_value] = [item]
            heapq.heappush(self._keys, f_value)
        else:
            bucket.append(item)

    def pop(self):
        """The next (f, item) in f order, or ``None`` when empty."""
        while self._keys:
            f_value = self._keys[0]
            bucket = self._buckets.get(f_value)
            if bucket:
                return f_value, bucket.pop()
            heapq.heappop(self._keys)
            del self._buckets[f_value]
        return None


class _SafeIntervals:
    """Lazy per-vertex safe-interval index for one agent's low-level search.

    A vertex the agent has no vertex constraint on reads the reservation
    table's cached intervals, or the shared :data:`UNBLOCKED` entry when
    there is no table; only a constrained vertex merges its constraint ticks
    with the reservations, once per search.
    """

    __slots__ = ("_constraint_blocked", "_reservations", "_cache")

    def __init__(
        self,
        constraint_blocked: Dict[VertexId, Tuple[int, ...]],
        reservations: Optional[ReservationTable],
    ) -> None:
        self._constraint_blocked = constraint_blocked
        self._reservations = reservations
        self._cache: Dict[VertexId, IntervalIndex] = {}

    def intervals(self, vertex: VertexId) -> IntervalIndex:
        """``(intervals, starts)`` of a vertex; ``starts`` supports bisect."""
        cached = self._cache.get(vertex)
        if cached is None:
            reservations = self._reservations
            constrained = self._constraint_blocked.get(vertex)
            if constrained is None:
                cached = (
                    UNBLOCKED
                    if reservations is None
                    else reservations.safe_intervals(vertex)
                )
            elif reservations is None:
                cached = interval_index(constrained, None)
            else:
                cached = interval_index(
                    constrained + reservations.blocked_times(vertex),
                    reservations.parked.get(vertex),
                )
            self._cache[vertex] = cached
        return cached


def _locate(starts: Sequence[int], intervals, time: int) -> Optional[int]:
    """Index of the safe interval containing ``time``, or ``None``."""
    idx = bisect_right(starts, time) - 1
    if idx >= 0 and intervals[idx][1] >= time:
        return idx
    return None


def _reconstruct_sipp(
    parents: Dict, arrivals: Dict, state: Tuple[VertexId, int]
) -> Path:
    """Expand a SIPP state chain into a per-tick path (waits made explicit)."""
    chain: List[Tuple[VertexId, int]] = []
    current: Optional[Tuple[VertexId, int]] = state
    while current is not None:
        chain.append((current[0], arrivals[current]))
        current = parents.get(current)
    chain.reverse()
    path: List[VertexId] = [chain[0][0]]
    previous_vertex, previous_time = chain[0]
    for vertex, time in chain[1:]:
        path.extend([previous_vertex] * (time - previous_time - 1))
        path.append(vertex)
        previous_vertex, previous_time = vertex, time
    return tuple(path)


def space_time_astar(
    floorplan: FloorplanGraph,
    start: VertexId,
    goal: VertexId,
    agent: int = 0,
    constraints: Optional[ConstraintSet] = None,
    reservations: Optional[ReservationTable] = None,
    start_time: int = 0,
    max_timestep: Optional[int] = None,
    heuristic=None,
    stats: Optional[SearchStats] = None,
) -> Optional[Path]:
    """Optimal single-agent path in space-time under constraints / reservations.

    Returns the path as a vertex tuple whose first element is ``start`` at
    ``start_time`` (the returned path's timestamps are relative: index ``i``
    corresponds to absolute time ``start_time + i``), or ``None`` when no path
    exists within ``max_timestep``.

    ``heuristic`` accepts the legacy ``Dict[vertex, distance]`` shape, a
    numpy distance row or a list; by default the shared per-floorplan row is
    used.
    """
    h = heuristic_row(floorplan, goal, heuristic)
    if h[start] < 0:
        return None
    stats = stats if stats is not None else SearchStats()
    if constraints is None:
        constraint_blocked: Dict[VertexId, Tuple[int, ...]] = {}
        edge_constraints: Set[Tuple[VertexId, VertexId, int]] = set()
        latest_constraint = 0
    else:
        constraint_blocked = constraints.vertex_blocked_times(agent)
        edge_constraints = constraints.edge_constraints(agent)
        latest_constraint = constraints.latest_constraint_time(agent)

    if constraint_blocked or reservations is None:
        intervals_of = _SafeIntervals(constraint_blocked, reservations).intervals
    else:
        # No vertex constraint: the table's cached intervals are the agent's.
        intervals_of = reservations.safe_intervals
    goal_intervals, _ = intervals_of(goal)
    if not goal_intervals or goal_intervals[-1][1] != _INF:
        # A parked agent blocks the goal forever: resting there is impossible.
        return None
    goal_state = (goal, len(goal_intervals) - 1)

    start_intervals, start_starts = intervals_of(start)
    start_idx = _locate(start_starts, start_intervals, start_time)
    if start_idx is None:
        return None
    start_state = (start, start_idx)
    if start_state == goal_state:
        # The start lies in the goal's last, unbounded interval: the search
        # would expand the start state first and find it is the goal.
        stats.expansions += 1
        return (start,)

    horizon_guard = max_timestep if max_timestep is not None else (
        floorplan.num_vertices * 4
        + latest_constraint
        + (reservations.latest_reserved_time() if reservations is not None else 0)
    )
    latest_arrival = start_time + horizon_guard
    # A swap happens when the opposite move is reserved for the same step.
    edge_reservations = (
        reservations.edge_reservations if reservations is not None else ()
    )

    arrivals: Dict[Tuple[VertexId, int], int] = {start_state: start_time}
    parents: Dict[Tuple[VertexId, int], Tuple[VertexId, int]] = {}
    closed: Set[Tuple[VertexId, int]] = set()
    open_queue = _BucketQueue()
    open_queue.push(h[start], start_state)

    while True:
        popped = open_queue.pop()
        if popped is None:
            return None
        _, state = popped
        if state in closed:
            continue
        closed.add(state)
        stats.expansions += 1
        if state == goal_state:
            return _reconstruct_sipp(parents, arrivals, state)
        vertex, interval_idx = state
        g_time = arrivals[state]
        interval_end = intervals_of(vertex)[0][interval_idx][1]
        # The agent may wait anywhere inside its interval before departing;
        # arrivals beyond the horizon cap are pruned.
        earliest = g_time + 1
        latest = min(interval_end + 1, latest_arrival)
        if latest < earliest:
            continue
        for neighbor in floorplan.neighbors(vertex):
            h_neighbor = h[neighbor]
            if h_neighbor < 0:
                continue
            nbr_intervals, nbr_starts = intervals_of(neighbor)
            first = bisect_right(nbr_starts, earliest) - 1
            if first < 0:
                first = 0
            for idx in range(first, len(nbr_intervals)):
                lo, hi = nbr_intervals[idx]
                if lo > latest:
                    break
                arrival = max(earliest, lo)
                bound = min(latest, hi)
                while arrival <= bound and (
                    (vertex, neighbor, arrival) in edge_constraints
                    or (neighbor, vertex, arrival) in edge_reservations
                ):
                    arrival += 1
                if arrival > bound:
                    continue
                next_state = (neighbor, idx)
                if arrival < arrivals.get(next_state, _INF):
                    arrivals[next_state] = arrival
                    parents[next_state] = state
                    stats.generated += 1
                    open_queue.push(arrival - start_time + h_neighbor, next_state)


class _Occupancy:
    """Collision probes against a set of paths that only ever grows.

    Each path is indexed once, when it is added, in O(its length): a count per
    ``(vertex, tick)`` cell it holds, the tick its rest at its last vertex
    starts (agents rest at their goal forever), and a count per move for swap
    detection.  A probe is two dict lookups plus a bisect over the rest-start
    ticks of the target vertex.  ECBS keeps one index for its root and adds
    each agent's path once it is planned; an index lives as long as its
    caller holds it.
    """

    __slots__ = ("_cells", "_rest", "_moves")

    def __init__(self, paths: Sequence[Sequence[VertexId]] = ()) -> None:
        self._cells: Dict[Tuple[VertexId, int], int] = {}
        #: Per vertex, the sorted ticks from which a path rests on it.
        self._rest: Dict[VertexId, List[int]] = {}
        self._moves: Dict[Tuple[VertexId, VertexId, int], int] = {}
        for path in paths:
            self.add(path)

    def add(self, path: Sequence[VertexId]) -> None:
        """Index one more path."""
        cells, moves = self._cells, self._moves
        for t, vertex in enumerate(path):
            cells[(vertex, t)] = cells.get((vertex, t), 0) + 1
            if t and path[t - 1] != vertex:
                key = (path[t - 1], vertex, t)
                moves[key] = moves.get(key, 0) + 1
        if path:
            insort(self._rest.setdefault(path[-1], []), len(path))

    def probe(self, from_vertex: VertexId, to_vertex: VertexId, arrival: int) -> int:
        """Collisions incurred by moving ``from -> to`` arriving at ``arrival``."""
        extra = self._cells.get((to_vertex, arrival), 0)
        rest = self._rest.get(to_vertex)
        if rest is not None:
            extra += bisect_right(rest, arrival)
        if from_vertex != to_vertex:
            extra += self._moves.get((to_vertex, from_vertex, arrival), 0)
        return extra


def _reconstruct(
    parents: Dict[Tuple[VertexId, int], Tuple[VertexId, int]],
    state: Tuple[VertexId, int],
) -> Path:
    path = [state[0]]
    while state in parents:
        state = parents[state]
        path.append(state[0])
    return tuple(reversed(path))


def space_time_focal_astar(
    floorplan: FloorplanGraph,
    start: VertexId,
    goal: VertexId,
    agent: int,
    constraints: ConstraintSet,
    other_paths: Union[Sequence[Sequence[VertexId]], _Occupancy],
    suboptimality: float = 1.5,
    heuristic=None,
    max_timestep: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Tuple[Path, int]]:
    """Bounded-suboptimal low-level search (the ECBS low level).

    Expands, among the nodes whose f-value is within ``suboptimality`` of the
    best f in the open list, the one that collides least with ``other_paths``.
    Returns ``(path, lower_bound)`` where ``lower_bound`` is the minimum f-value
    seen in the open list (used by the high level to bound global cost), or
    ``None`` when no path exists.

    ``other_paths`` is a sequence of paths or an occupancy index already
    built over them (the ECBS root passes the one it grows).
    """
    h = heuristic_row(floorplan, goal, heuristic)
    if h[start] < 0:
        return None
    stats = stats if stats is not None else SearchStats()
    goal_clear = constraints.latest_vertex_constraint(agent, goal) + 1
    if start == goal and goal_clear <= 0:
        # Nothing constrains the goal, so the search would expand the start
        # state first, at f = h[start], and find it is the goal.
        stats.expansions += 1
        return (start,), h[start]
    vertex_constraints = constraints.vertex_constraints(agent)
    edge_constraints = constraints.edge_constraints(agent)
    horizon_guard = max_timestep if max_timestep is not None else (
        floorplan.num_vertices * 4 + constraints.latest_constraint_time(agent)
    )
    occupancy = (
        other_paths
        if isinstance(other_paths, _Occupancy)
        else _Occupancy(other_paths)
    )

    counter = itertools.count()
    start_state = (start, 0)
    g_scores: Dict[Tuple[VertexId, int], int] = {start_state: 0}
    parents: Dict[Tuple[VertexId, int], Tuple[VertexId, int]] = {}
    closed: Set[Tuple[VertexId, int]] = set()

    # Two-structure focal search: unswept nodes live in f-keyed buckets; once
    # the (monotonically growing) threshold w * f_min reaches a bucket, its
    # entries move to the focal heap ordered by (conflicts, f, g).  ``live``
    # counts unexpanded entries per f so f_min is read off a lazily drained
    # key heap without scanning the open list.
    buckets: Dict[int, List] = {}
    sweep_heap: List[int] = []
    fmin_heap: List[int] = []
    live: Dict[int, int] = {}
    focal: List[Tuple[int, int, int, int, Tuple[VertexId, int]]] = []
    lower_bound = h[start]
    threshold = suboptimality * lower_bound

    def push(entry, f_value: int) -> None:
        live[f_value] = live.get(f_value, 0) + 1
        heapq.heappush(fmin_heap, f_value)
        if f_value <= threshold:
            heapq.heappush(focal, entry)
        else:
            bucket = buckets.get(f_value)
            if bucket is None:
                buckets[f_value] = [entry]
            else:
                bucket.append(entry)
            heapq.heappush(sweep_heap, f_value)

    push((0, h[start], 0, next(counter), start_state), h[start])

    while True:
        while fmin_heap and live.get(fmin_heap[0], 0) == 0:
            heapq.heappop(fmin_heap)
        if not fmin_heap:
            return None
        fmin = fmin_heap[0]
        if fmin > lower_bound:
            lower_bound = fmin
            threshold = suboptimality * fmin
        while sweep_heap and sweep_heap[0] <= threshold:
            f_key = heapq.heappop(sweep_heap)
            for entry in buckets.pop(f_key, ()):
                heapq.heappush(focal, entry)
        if not focal:
            # Only stale bookkeeping can leave focal empty here; the next
            # iteration drains it via the live counts.
            continue
        conflicts, f_value, g_value, _, state = heapq.heappop(focal)
        live[f_value] -= 1
        if state in closed:
            continue
        closed.add(state)
        vertex, time = state
        stats.expansions += 1
        if vertex == goal and time >= goal_clear:
            return _reconstruct(parents, state), lower_bound
        if time >= horizon_guard:
            continue
        next_time = time + 1
        for neighbor in (vertex,) + floorplan.neighbors(vertex):
            if vertex_constraints and (neighbor, next_time) in vertex_constraints:
                continue
            if (
                edge_constraints
                and neighbor != vertex
                and (vertex, neighbor, next_time) in edge_constraints
            ):
                continue
            h_neighbor = h[neighbor]
            if h_neighbor < 0:
                continue
            next_state = (neighbor, next_time)
            tentative = g_value + 1
            if tentative < g_scores.get(next_state, _INF):
                g_scores[next_state] = tentative
                parents[next_state] = state
                extra = occupancy.probe(vertex, neighbor, next_time)
                stats.generated += 1
                push(
                    (
                        conflicts + extra,
                        tentative + h_neighbor,
                        tentative,
                        next(counter),
                        next_state,
                    ),
                    tentative + h_neighbor,
                )
