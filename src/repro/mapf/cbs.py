"""Conflict-Based Search (CBS) — optimal MAPF.

CBS searches a binary *constraint tree*: the root plans every agent
independently; whenever two paths conflict, the node is split into two
children, each forbidding one of the agents from the conflicting vertex/edge
at that timestep, and the affected agent is re-planned.  The tree is explored
in order of solution cost, so the first conflict-free node is optimal
(sum-of-costs).

This is the optimal anchor of the baseline family; the paper's baseline
(EECBS) is its bounded-suboptimal descendant — see :mod:`repro.mapf.ecbs`.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..deadline import current_deadline
from ..obs import span
from .astar import SearchStats, space_time_astar
from .constraints import Constraint, ConstraintSet
from .heuristics import agent_row, distance_tables
from .problem import Conflict, MAPFProblem, MAPFSolution, Path, first_conflict


@dataclass
class CBSOptions:
    """Limits for the constraint-tree search (time: the caller's deadline)."""

    max_nodes: int = 20_000


@dataclass(order=True)
class _CTNode:
    cost: int
    order: int
    constraints: ConstraintSet = field(compare=False)
    paths: Tuple[Path, ...] = field(compare=False)


def _branch_constraints(conflict: Conflict) -> List[Constraint]:
    """The two constraints CBS branches on for a conflict."""
    if conflict.kind == "vertex":
        return [
            Constraint(conflict.agent_a, conflict.vertex, conflict.timestep),
            Constraint(conflict.agent_b, conflict.vertex, conflict.timestep),
        ]
    # Edge (swap) conflict: a moved vertex->other, b moved other->vertex.
    return [
        Constraint(
            conflict.agent_a,
            conflict.other_vertex,
            conflict.timestep,
            edge_from=conflict.vertex,
        ),
        Constraint(
            conflict.agent_b,
            conflict.vertex,
            conflict.timestep,
            edge_from=conflict.other_vertex,
        ),
    ]


def solve_cbs(
    problem: MAPFProblem, options: Optional[CBSOptions] = None
) -> Optional[MAPFSolution]:
    """Optimal CBS; returns None on failure (unsolvable or limits exceeded)."""
    options = options or CBSOptions()
    start_time = time.perf_counter()
    deadline = current_deadline()
    floorplan = problem.floorplan
    stats = SearchStats()
    expanded = 0
    generated = 1  # the root
    deduped = 0
    # Phase timers are placed at CT-node granularity (not inside the low-level
    # expansion loop) so the instrumented search stays within the overhead
    # budget while still splitting the hot path into its four phases.
    with span("mapf.cbs", agents=len(problem.agents)) as sp:
        try:
            with sp.timer("heuristic"):
                tables = distance_tables(floorplan)
                heuristics = {
                    agent.agent_id: agent_row(tables, agent)
                    for agent in problem.agents
                }

            def plan_agent(agent_id: int, constraints: ConstraintSet) -> Optional[Path]:
                agent = problem.agents[agent_id]
                return space_time_astar(
                    floorplan,
                    agent.start,
                    agent.goal,
                    agent=agent_id,
                    constraints=constraints,
                    heuristic=heuristics[agent_id],
                    stats=stats,
                )

            root_constraints = ConstraintSet()
            root_paths: List[Path] = []
            for agent in problem.agents:
                with sp.timer("low_level"):
                    path = plan_agent(agent.agent_id, root_constraints)
                if path is None:
                    sp.set_attr("outcome", "root_unsolvable")
                    return None
                root_paths.append(path)

            counter = itertools.count()
            with sp.timer("ct_management"):
                root = _CTNode(
                    cost=sum(len(p) - 1 for p in root_paths),
                    order=next(counter),
                    constraints=root_constraints,
                    paths=tuple(root_paths),
                )
                open_heap = [root]
                # Two branches taken in different orders produce identical
                # constraint sets; replanning such a duplicate CT node repeats
                # the exact low-level searches of its twin, so dedupe on the
                # canonical constraint signature before paying for them.
                seen_signatures = {root_constraints.signature()}

            while open_heap:
                if expanded >= options.max_nodes:
                    sp.set_attr("outcome", "node_limit")
                    return None
                if deadline is not None and deadline.expired():
                    sp.set_attr("outcome", "time_limit")
                    return None
                with sp.timer("ct_management"):
                    node = heapq.heappop(open_heap)
                expanded += 1
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
                        solver="cbs",
                        metadata={"ct_nodes": float(expanded)},
                    )
                for constraint in _branch_constraints(conflict):
                    child_constraints = node.constraints.extended(constraint)
                    with sp.timer("ct_management"):
                        signature = child_constraints.signature()
                        if signature in seen_signatures:
                            deduped += 1
                            continue
                        seen_signatures.add(signature)
                    with sp.timer("low_level"):
                        new_path = plan_agent(constraint.agent, child_constraints)
                    if new_path is None:
                        continue
                    child_paths = list(node.paths)
                    child_paths[constraint.agent] = new_path
                    with sp.timer("ct_management"):
                        heapq.heappush(
                            open_heap,
                            _CTNode(
                                cost=sum(len(p) - 1 for p in child_paths),
                                order=next(counter),
                                constraints=child_constraints,
                                paths=tuple(child_paths),
                            ),
                        )
                    generated += 1
            sp.set_attr("outcome", "exhausted")
            return None
        finally:
            sp.add("ct_nodes_expanded", expanded)
            sp.add("ct_nodes_generated", generated)
            sp.add("ct_nodes_deduped", deduped)
            sp.add("low_level_expansions", stats.expansions)
            sp.add("low_level_generated", stats.generated)
