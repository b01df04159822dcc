"""MAPF / MAPD baselines: space-time A*, prioritized planning, CBS, ECBS, lifelong.

These solvers are the comparison substrate for the paper's evaluation (an
Iterated-EECBS-style lifelong planner given the same shelf/station visit
sequences as the co-design solution).  They are complete, tested
implementations in their own right and can be used independently of the
co-design pipeline.
"""

from .astar import (
    SearchStats,
    shortest_path_lengths,
    space_time_astar,
    space_time_focal_astar,
)
from .cbs import CBSOptions, solve_cbs
from .constraints import Constraint, ConstraintSet, ReservationTable
from .ecbs import ECBSOptions, solve_ecbs
from .heuristics import DistanceTables, agent_row, distance_tables
from .mapd import (
    ENGINES,
    STATUS_COMPLETED,
    STATUS_EPISODE_LIMIT,
    STATUS_STALLED,
    STATUS_TIME_LIMIT,
    IteratedPlanner,
    IteratedPlannerOptions,
    LifelongError,
    LifelongResult,
    LifelongTask,
    goal_sequences_from_plan,
)
from .prioritized import solve_prioritized
from .problem import (
    Conflict,
    MAPFAgent,
    MAPFError,
    MAPFProblem,
    MAPFSolution,
    count_conflicts,
    find_conflicts,
    first_conflict,
    position_at,
)

__all__ = [
    "CBSOptions",
    "Conflict",
    "Constraint",
    "ConstraintSet",
    "DistanceTables",
    "ECBSOptions",
    "ENGINES",
    "IteratedPlanner",
    "IteratedPlannerOptions",
    "LifelongError",
    "LifelongResult",
    "LifelongTask",
    "MAPFAgent",
    "MAPFError",
    "MAPFProblem",
    "MAPFSolution",
    "ReservationTable",
    "STATUS_COMPLETED",
    "STATUS_EPISODE_LIMIT",
    "STATUS_STALLED",
    "STATUS_TIME_LIMIT",
    "SearchStats",
    "agent_row",
    "count_conflicts",
    "distance_tables",
    "find_conflicts",
    "first_conflict",
    "goal_sequences_from_plan",
    "position_at",
    "shortest_path_lengths",
    "solve_cbs",
    "solve_ecbs",
    "solve_prioritized",
    "space_time_astar",
    "space_time_focal_astar",
]
