"""Multi-agent path finding (MAPF) problem definitions.

The paper benchmarks its methodology against Iterated EECBS, a search-based
lifelong multi-agent path planner.  This package provides the baseline stack
from scratch: single-agent space-time A*, prioritized planning, Conflict-Based
Search (CBS), bounded-suboptimal ECBS (the focal-search family EECBS belongs
to), and a lifelong/MAPD wrapper that strings together per-leg searches the
way the paper's baseline experiment does.

This module holds the shared problem/solution types:

* :class:`MAPFProblem` — a set of agents with start and goal vertices on a
  warehouse floorplan graph;
* :class:`MAPFSolution` — one path per agent plus cost metrics;
* conflict detection used by the validators and by CBS/ECBS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..warehouse.floorplan import FloorplanGraph, VertexId

Path = Tuple[VertexId, ...]


class MAPFError(ValueError):
    """Raised for malformed MAPF problems or solutions."""


@dataclass(frozen=True)
class MAPFAgent:
    """One agent: a start vertex and a goal vertex.

    ``corridor`` optionally confines the agent's motion to an allowed-vertex
    set (solvers treat vertices outside it as walls) — used by the grid
    router to keep each leg on the traffic system's designated circuit.
    Solvers quietly drop the corridor when it does not connect the agent's
    start to its goal.
    """

    agent_id: int
    start: VertexId
    goal: VertexId
    corridor: Optional[FrozenSet[VertexId]] = None


@dataclass
class MAPFProblem:
    """A one-shot MAPF instance on a floorplan graph."""

    floorplan: FloorplanGraph
    agents: Tuple[MAPFAgent, ...]

    def __post_init__(self) -> None:
        # One pass over the vertices accepts a valid problem; only an invalid
        # one walks the agents, to name the first offender.
        starts = {agent.start for agent in self.agents}
        vertices = starts.union(agent.goal for agent in self.agents)
        if len(starts) == len(self.agents) and (
            not vertices
            or (0 <= min(vertices) and max(vertices) < self.floorplan.num_vertices)
        ):
            return
        seen_starts: Dict[VertexId, int] = {}
        for agent in self.agents:
            for vertex, label in ((agent.start, "start"), (agent.goal, "goal")):
                if not 0 <= vertex < self.floorplan.num_vertices:
                    raise MAPFError(
                        f"agent {agent.agent_id}: {label} vertex {vertex} outside the floorplan"
                    )
            if agent.start in seen_starts:
                raise MAPFError(
                    f"agents {seen_starts[agent.start]} and {agent.agent_id} share start "
                    f"vertex {agent.start}"
                )
            seen_starts[agent.start] = agent.agent_id

    @staticmethod
    def from_pairs(
        floorplan: FloorplanGraph,
        pairs: Sequence[Tuple[VertexId, VertexId]],
        corridors: Optional[Sequence[Optional[FrozenSet[VertexId]]]] = None,
    ) -> "MAPFProblem":
        agents = tuple(
            MAPFAgent(
                agent_id=i,
                start=start,
                goal=goal,
                corridor=corridors[i] if corridors is not None else None,
            )
            for i, (start, goal) in enumerate(pairs)
        )
        return MAPFProblem(floorplan=floorplan, agents=agents)

    @property
    def num_agents(self) -> int:
        return len(self.agents)


@dataclass(frozen=True)
class Conflict:
    """A vertex or edge (swap) conflict between two agents at a timestep."""

    kind: str  # "vertex" | "edge"
    agent_a: int
    agent_b: int
    timestep: int
    vertex: VertexId
    other_vertex: Optional[VertexId] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == "vertex":
            return (
                f"vertex conflict: agents {self.agent_a}/{self.agent_b} at "
                f"{self.vertex} (t={self.timestep})"
            )
        return (
            f"edge conflict: agents {self.agent_a}/{self.agent_b} swap "
            f"{self.vertex}<->{self.other_vertex} (t={self.timestep})"
        )


def position_at(path: Sequence[VertexId], timestep: int) -> VertexId:
    """Position along a path at a timestep; agents wait at their goal forever."""
    if not path:
        raise MAPFError("empty path")
    if timestep < len(path):
        return path[timestep]
    return path[-1]


def find_conflicts(paths: Sequence[Sequence[VertexId]]) -> List[Conflict]:
    """All vertex and edge conflicts between a set of paths."""
    conflicts: List[Conflict] = []
    horizon = max((len(path) for path in paths), default=0)
    for t in range(horizon):
        occupied: Dict[VertexId, int] = {}
        for agent, path in enumerate(paths):
            vertex = position_at(path, t)
            if vertex in occupied:
                conflicts.append(
                    Conflict("vertex", occupied[vertex], agent, t, vertex)
                )
            else:
                occupied[vertex] = agent
        if t == 0:
            continue
        moves: Dict[Tuple[VertexId, VertexId], int] = {}
        for agent, path in enumerate(paths):
            before, after = position_at(path, t - 1), position_at(path, t)
            if before != after:
                moves[(before, after)] = agent
        for (before, after), agent in moves.items():
            other = moves.get((after, before))
            if other is not None and other != agent and agent < other:
                conflicts.append(Conflict("edge", agent, other, t, before, after))
    return conflicts


def first_conflict(paths: Sequence[Sequence[VertexId]]) -> Optional[Conflict]:
    """The earliest conflict, or None when the paths are collision-free.

    Scans timesteps in ascending order and returns at the first hit (vertex
    conflicts before edge conflicts within a tick, matching
    :func:`find_conflicts` order), so conflict-free suffixes are never paid
    for — CBS/ECBS call this once per constraint-tree node.
    """
    horizon = max((len(path) for path in paths), default=0)
    positions = [path[0] if path else None for path in paths]
    for t in range(horizon):
        occupied: Dict[VertexId, int] = {}
        previous = positions
        positions = [position_at(path, t) for path in paths]
        for agent, vertex in enumerate(positions):
            if vertex in occupied:
                return Conflict("vertex", occupied[vertex], agent, t, vertex)
            occupied[vertex] = agent
        if t == 0:
            continue
        moves: Dict[Tuple[VertexId, VertexId], int] = {}
        for agent, (before, after) in enumerate(zip(previous, positions)):
            if before != after:
                moves[(before, after)] = agent
        for (before, after), agent in moves.items():
            other = moves.get((after, before))
            if other is not None and other != agent and agent < other:
                return Conflict("edge", agent, other, t, before, after)
    return None


def count_conflicts(paths: Sequence[Sequence[VertexId]]) -> int:
    """Total number of vertex/edge conflicts between the paths.

    Cheaper than ``len(find_conflicts(paths))``: counts collisions from
    per-tick occupancy without materializing :class:`Conflict` objects.  Used
    by the ECBS high level to order its focal list.
    """
    total = 0
    horizon = max((len(path) for path in paths), default=0)
    positions = [path[0] if path else None for path in paths]
    for t in range(horizon):
        previous = positions
        positions = [position_at(path, t) for path in paths]
        counts: Dict[VertexId, int] = {}
        for vertex in positions:
            counts[vertex] = counts.get(vertex, 0) + 1
        for n in counts.values():
            if n > 1:
                total += n - 1
        if t == 0:
            continue
        moves: Dict[Tuple[VertexId, VertexId], int] = {}
        for before, after in zip(previous, positions):
            if before != after:
                moves[(before, after)] = moves.get((before, after), 0) + 1
        for (before, after), n in moves.items():
            if before < after:
                total += n * moves.get((after, before), 0)
    return total


@dataclass
class MAPFSolution:
    """One path per agent (indexed consistently with the problem's agents)."""

    problem: MAPFProblem
    paths: Tuple[Path, ...]
    expansions: int = 0
    runtime_seconds: float = 0.0
    solver: str = ""
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.paths) != self.problem.num_agents:
            raise MAPFError(
                f"solution has {len(self.paths)} paths for {self.problem.num_agents} agents"
            )

    # -- costs -------------------------------------------------------------------
    @property
    def makespan(self) -> int:
        return max((len(path) - 1 for path in self.paths), default=0)

    @property
    def sum_of_costs(self) -> int:
        return sum(len(path) - 1 for path in self.paths)

    # -- validity -----------------------------------------------------------------
    def conflicts(self) -> List[Conflict]:
        return find_conflicts(self.paths)

    def is_valid(self) -> bool:
        """Paths start/end correctly, respect adjacency, and never conflict."""
        floorplan = self.problem.floorplan
        for agent, path in zip(self.problem.agents, self.paths):
            if not path or path[0] != agent.start or path[-1] != agent.goal:
                return False
            for u, v in zip(path, path[1:]):
                if u != v and not floorplan.are_adjacent(u, v):
                    return False
        return not self.conflicts()

    def summary(self) -> str:
        return (
            f"{self.solver or 'mapf'} solution: {self.problem.num_agents} agents, "
            f"makespan {self.makespan}, sum-of-costs {self.sum_of_costs}, "
            f"{self.expansions} expansions, {self.runtime_seconds:.3f}s"
        )
