"""ECBS — bounded-suboptimal Conflict-Based Search (the EECBS family).

ECBS(w) relaxes CBS at both levels with focal search:

* the low level returns a path whose cost is within ``w`` of that agent's
  optimum, preferring paths that collide little with the other agents
  (:func:`repro.mapf.astar.space_time_focal_astar`);
* the high level keeps, next to the cost-ordered open list, a *focal list*
  of nodes whose cost is within ``w`` of the global lower bound and expands
  the one with the fewest conflicts.

The result is a solution whose sum-of-costs is at most ``w`` times the optimal
one, found orders of magnitude faster than CBS on congested instances.  EECBS
(the paper's baseline) additionally uses online cost estimates to pick nodes;
the scaling behaviour that matters for the paper's comparison — exponential
growth with team size and plan length — is shared by the whole family, and the
lifelong wrapper in :mod:`repro.mapf.mapd` is built on this solver.

The high level maintains the open/focal pair incrementally (three lazy heaps:
lower-bound order, cost order for unswept nodes, and the focal heap itself)
instead of rescanning and re-sorting the whole open list per expansion, reuses
the shared per-goal distance tables, counts child conflicts without
materializing conflict objects, and dedupes constraint-tree nodes whose
constraint sets were already explored via a different branch order.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..deadline import current_deadline
from ..obs import span
from ..warehouse.plan import may_collide
from .astar import SearchStats, _Occupancy, space_time_focal_astar
from .cbs import _branch_constraints
from .constraints import ConstraintSet
from .heuristics import agent_row, distance_tables
from .problem import MAPFProblem, MAPFSolution, Path, count_conflicts, first_conflict


@dataclass
class ECBSOptions:
    """Suboptimality factor and search limits (time: the caller's deadline)."""

    suboptimality: float = 1.5
    max_nodes: int = 20_000

    def __post_init__(self) -> None:
        if self.suboptimality < 1.0:
            raise ValueError("the suboptimality factor must be at least 1.0")


@dataclass
class _Node:
    cost: int
    lower_bound: int
    conflicts: int
    order: int
    constraints: ConstraintSet
    paths: Tuple[Path, ...]
    bounds: Tuple[int, ...]
    expanded: bool = False


def _padded(paths: List[Path]) -> np.ndarray:
    """One row per path, each padded with its last vertex to the longest."""
    horizon = max(len(path) for path in paths)
    return np.array(
        [path + (path[-1],) * (horizon - len(path)) for path in paths],
        dtype=np.int64,
    )


def solve_ecbs(
    problem: MAPFProblem, options: Optional[ECBSOptions] = None
) -> Optional[MAPFSolution]:
    """Bounded-suboptimal MAPF via ECBS(w); returns None on failure."""
    options = options or ECBSOptions()
    start_time = time.perf_counter()
    deadline = current_deadline()
    floorplan = problem.floorplan
    stats = SearchStats()
    expanded = 0
    generated = 1  # the root
    deduped = 0
    with span(
        "mapf.ecbs", agents=len(problem.agents), suboptimality=options.suboptimality
    ) as sp:
        try:
            with sp.timer("heuristic"):
                tables = distance_tables(floorplan)
                heuristics = {
                    agent.agent_id: agent_row(tables, agent)
                    for agent in problem.agents
                }

            def plan_agent(
                agent_id: int,
                constraints: ConstraintSet,
                other_paths: Union[List[Path], _Occupancy],
            ) -> Optional[Tuple[Path, int]]:
                agent = problem.agents[agent_id]
                return space_time_focal_astar(
                    floorplan,
                    agent.start,
                    agent.goal,
                    agent=agent_id,
                    constraints=constraints,
                    other_paths=other_paths,
                    suboptimality=options.suboptimality,
                    heuristic=heuristics[agent_id],
                    stats=stats,
                )

            # Each root path is planned against the ones before it, so the
            # root grows one occupancy index, a path at a time.
            root_constraints = ConstraintSet()
            root_paths: List[Path] = []
            root_bounds: List[int] = []
            root_occupancy = _Occupancy()
            for agent in problem.agents:
                with sp.timer("low_level"):
                    result = plan_agent(
                        agent.agent_id, root_constraints, root_occupancy
                    )
                if result is None:
                    sp.set_attr("outcome", "root_unsolvable")
                    return None
                path, bound = result
                root_paths.append(path)
                root_bounds.append(bound)
                root_occupancy.add(path)

            counter = itertools.count()
            with sp.timer("conflict_detection"):
                # The root is expanded first, so only whether its count is 0
                # matters; the numpy screen's "no collision" is exact.
                root_conflicts = (
                    count_conflicts(root_paths)
                    if root_paths and may_collide(_padded(root_paths))
                    else 0
                )
            with sp.timer("ct_management"):
                root = _Node(
                    cost=sum(len(p) - 1 for p in root_paths),
                    lower_bound=sum(root_bounds),
                    conflicts=root_conflicts,
                    order=next(counter),
                    constraints=root_constraints,
                    paths=tuple(root_paths),
                    bounds=tuple(root_bounds),
                )
                # open: by lower bound (exact min via lazy pops); unswept: by
                # cost, swept into focal once the w * LB threshold reaches
                # them; focal: by (conflicts, cost, insertion).
                open_heap: List[Tuple[int, int, _Node]] = [
                    (root.lower_bound, root.order, root)
                ]
                unswept: List[Tuple[int, int, _Node]] = [(root.cost, root.order, root)]
                focal: List[Tuple[int, int, int, _Node]] = []
                seen_signatures = {root_constraints.signature()}
            best_bound = root.lower_bound

            while True:
                with sp.timer("ct_management"):
                    while open_heap and open_heap[0][2].expanded:
                        heapq.heappop(open_heap)
                    if not open_heap:
                        break
                    best_bound = open_heap[0][0]
                    threshold = options.suboptimality * best_bound
                    while unswept and unswept[0][0] <= threshold:
                        _, order, node = heapq.heappop(unswept)
                        if not node.expanded:
                            heapq.heappush(
                                focal, (node.conflicts, node.cost, order, node)
                            )
                    node = None
                    while focal:
                        _, cost, order, candidate = heapq.heappop(focal)
                        if candidate.expanded:
                            continue
                        if cost > threshold:
                            # The lower bound moved down (a child undercut its
                            # parent); park the node until the window regrows.
                            heapq.heappush(unswept, (cost, order, candidate))
                            continue
                        node = candidate
                        break
                    if node is None:
                        # Every focal candidate drained; the node holding the
                        # minimum lower bound is always eligible, re-sweep.
                        continue
                    node.expanded = True
                expanded += 1
                if expanded > options.max_nodes:
                    sp.set_attr("outcome", "node_limit")
                    return None
                if deadline is not None and deadline.expired():
                    sp.set_attr("outcome", "time_limit")
                    return None

                # count_conflicts is 0 exactly when first_conflict finds none.
                conflict = None
                if node.conflicts:
                    with sp.timer("conflict_detection"):
                        conflict = first_conflict(node.paths)
                    sp.add("conflict_checks")
                if conflict is None:
                    sp.set_attr("outcome", "solved")
                    return MAPFSolution(
                        problem=problem,
                        paths=node.paths,
                        expansions=stats.expansions,
                        runtime_seconds=time.perf_counter() - start_time,
                        solver=f"ecbs({options.suboptimality})",
                        metadata={
                            "ct_nodes": float(expanded),
                            "lower_bound": float(best_bound),
                        },
                    )
                for constraint in _branch_constraints(conflict):
                    child_constraints = node.constraints.extended(constraint)
                    with sp.timer("ct_management"):
                        signature = child_constraints.signature()
                        if signature in seen_signatures:
                            deduped += 1
                            continue
                        seen_signatures.add(signature)
                    other_paths = [
                        path
                        for i, path in enumerate(node.paths)
                        if i != constraint.agent
                    ]
                    with sp.timer("low_level"):
                        result = plan_agent(
                            constraint.agent, child_constraints, other_paths
                        )
                    if result is None:
                        continue
                    new_path, new_bound = result
                    child_paths = list(node.paths)
                    child_paths[constraint.agent] = new_path
                    child_bounds = list(node.bounds)
                    child_bounds[constraint.agent] = new_bound
                    with sp.timer("conflict_detection"):
                        child_conflicts = count_conflicts(child_paths)
                    with sp.timer("ct_management"):
                        child = _Node(
                            cost=sum(len(p) - 1 for p in child_paths),
                            lower_bound=sum(child_bounds),
                            conflicts=child_conflicts,
                            order=next(counter),
                            constraints=child_constraints,
                            paths=tuple(child_paths),
                            bounds=tuple(child_bounds),
                        )
                        heapq.heappush(
                            open_heap, (child.lower_bound, child.order, child)
                        )
                        heapq.heappush(unswept, (child.cost, child.order, child))
                    generated += 1
            sp.set_attr("outcome", "exhausted")
            return None
        finally:
            sp.add("ct_nodes_expanded", expanded)
            sp.add("ct_nodes_generated", generated)
            sp.add("ct_nodes_deduped", deduped)
            sp.add("low_level_expansions", stats.expansions)
            sp.add("low_level_generated", stats.generated)
