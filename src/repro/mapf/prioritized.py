"""Prioritized planning (cooperative A*).

Agents are planned one at a time in a fixed priority order; each agent's path
is found with space-time A* against a reservation table containing the paths
of all higher-priority agents.  Fast and usually good, but incomplete: a
low-priority agent can be boxed in by earlier reservations, in which case the
solver reports failure (callers may retry with a different order).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from .astar import SearchStats, space_time_astar
from .constraints import ReservationTable
from .heuristics import agent_row, distance_tables
from .problem import MAPFProblem, MAPFSolution


def solve_prioritized(
    problem: MAPFProblem,
    order: Optional[Sequence[int]] = None,
    max_timestep: Optional[int] = None,
) -> Optional[MAPFSolution]:
    """Plan all agents in priority order; returns None when any agent fails.

    ``order`` lists agent ids from highest to lowest priority (default: the
    problem's agent order).
    """
    start_time = time.perf_counter()
    order = list(order) if order is not None else [a.agent_id for a in problem.agents]
    if sorted(order) != sorted(a.agent_id for a in problem.agents):
        raise ValueError("priority order must be a permutation of the agent ids")

    reservations = ReservationTable()
    stats = SearchStats()
    tables = distance_tables(problem.floorplan)
    paths = {}
    for agent_id in order:
        agent = problem.agents[agent_id]
        heuristic = agent_row(tables, agent)
        path = space_time_astar(
            problem.floorplan,
            agent.start,
            agent.goal,
            agent=agent_id,
            reservations=reservations,
            max_timestep=max_timestep,
            heuristic=heuristic,
            stats=stats,
        )
        if path is None:
            return None
        reservations.reserve_path(path)
        paths[agent_id] = path

    solution = MAPFSolution(
        problem=problem,
        paths=tuple(paths[a.agent_id] for a in problem.agents),
        expansions=stats.expansions,
        runtime_seconds=time.perf_counter() - start_time,
        solver="prioritized",
    )
    return solution
