"""Lifelong / multi-goal planning: the paper's "Iterated EECBS" baseline.

The paper benchmarks its methodology against a search-based lifelong planner:
Iterated EECBS is given the start position of every agent of the co-design
solution and asked to find a plan in which every agent visits the same
sequence of shelves and stations.  This module implements that experiment
shape:

* :func:`goal_sequences_from_plan` extracts, for every agent of a realized
  co-design plan, the ordered list of vertices where it picked up or dropped
  off a product;
* :class:`IteratedPlanner` repeatedly solves one-shot MAPF instances ("give
  every agent its next pending goal") with a configurable solver — ECBS by
  default, CBS or prioritized planning for ablations — and stitches the
  resulting paths into one long plan.

Two replanning regimes are supported.  With the default
``commit_window=None`` every episode is committed in full: agents run all the
way to their next goal before anyone replans.  With a positive
``commit_window`` only the first ``commit_window`` steps of each episode's
solution are executed before the planner replans from the new positions —
the rolling-horizon scheme lifelong systems (RHCR-style) use.  Small windows
react quickly to the evolving goal set but pay for many more solver episodes;
large windows amortize the search but commit to stale paths longer.  The
grid-routed execution mode of :mod:`repro.sim.routing` exposes exactly this
trade-off.

Tasks may carry per-goal *release ticks*.  A released goal is dispatched only
when it can no longer be finished early — when ``now + distance >= release``
— so arrivals never precede the tick the upstream plan promised.  This is how
the grid-routed simulator keeps the routed run on the abstract plan's
timeline: without pacing, routers compress a 400-tick plan into ~150 ticks
and every per-period flow rate the AG contracts promised is overshot.
Agents whose next goal is not yet released idle in place (retreating off task
endpoints as usual), episodes are committed only up to the next release
event, and stretches where *nothing* is dispatchable fast-forward without a
solver call.

An episode the engine cannot solve no longer silently truncates the run.
The planner retries with progressively fewer dispatched agents (holding the
agents with the most release slack first — the classic MAPD fallback of
parking low-urgency agents out of the way); only when not even a single
agent can make progress does it stop, and then the result carries an
explicit ``status`` ("stalled" / "episode_limit" / "time_limit") instead of
masquerading as a short-but-complete plan.

The runtime of this baseline grows steeply with the number of agents and with
the number of goals per agent, which is exactly the scaling contrast the
paper's evaluation reports (the baseline fails to terminate within an hour on
the largest instance while the co-design methodology finishes in about a
minute).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..deadline import check_budget, current_deadline, deadline_scope
from ..warehouse.floorplan import FloorplanGraph, VertexId
from ..warehouse.plan import Plan
from .cbs import CBSOptions, solve_cbs
from .ecbs import ECBSOptions, solve_ecbs
from .heuristics import distance_tables
from .prioritized import solve_prioritized
from .problem import MAPFProblem, MAPFSolution, find_conflicts

#: Solvers usable as the per-episode engine.
ENGINES = ("ecbs", "cbs", "prioritized")

#: Node budget for the demotion-ladder retries of an unsolvable episode: the
#: reduced instances are near-trivial when solvable at all, so failing fast
#: beats burning the full per-episode budget on each rung.
_FALLBACK_NODE_LIMIT = 2_000

#: Lifelong run outcomes (``LifelongResult.status``).
STATUS_COMPLETED = "completed"
STATUS_STALLED = "stalled"
STATUS_EPISODE_LIMIT = "episode_limit"
STATUS_TIME_LIMIT = "time_limit"


class LifelongError(ValueError):
    """Raised for malformed lifelong planning requests."""


@dataclass
class LifelongTask:
    """One agent's start position and ordered goal sequence.

    ``releases`` optionally pins each goal to a release tick: the planner
    dispatches the agent so it arrives no earlier than ``releases[k]`` at
    ``goals[k]``.  Empty means "as fast as possible" (the legacy behaviour).
    """

    agent_id: int
    start: VertexId
    goals: Tuple[VertexId, ...]
    releases: Tuple[int, ...] = ()
    #: Optional per-goal allowed-vertex sets (``None`` entries = unconfined):
    #: while pursuing goal ``k`` the agent's motion is confined to
    #: ``corridors[k]`` — how the grid router keeps each leg on the traffic
    #: system's designated circuit.
    corridors: Tuple[Optional[FrozenSet[VertexId]], ...] = ()

    def __post_init__(self) -> None:
        if self.releases and len(self.releases) != len(self.goals):
            raise LifelongError(
                f"agent {self.agent_id}: {len(self.releases)} release ticks "
                f"for {len(self.goals)} goals"
            )
        if self.corridors and len(self.corridors) != len(self.goals):
            raise LifelongError(
                f"agent {self.agent_id}: {len(self.corridors)} corridors "
                f"for {len(self.goals)} goals"
            )


@dataclass
class LifelongResult:
    """Outcome of an :class:`IteratedPlanner` run."""

    completed: bool
    paths: Tuple[Tuple[VertexId, ...], ...]
    goals_completed: int
    goals_total: int
    episodes: int
    expansions: int
    runtime_seconds: float
    engine: str
    #: Per agent (in task order), the tick at which each *completed* goal was
    #: reached — ``goal_arrivals[i][j]`` indexes into ``paths[i]``.  Consumers
    #: that replay the plan (the grid-routed simulator) use these to anchor
    #: load changes to the tick the agent actually stood on the waypoint.
    goal_arrivals: Tuple[Tuple[int, ...], ...] = ()
    #: Per agent, the tick each completed goal's leg was dispatched (the agent
    #: started pursuing it).  ``arrival - leg_start`` is the leg's true travel
    #: cost — under release pacing, raw arrivals mostly measure planned
    #: waiting, not congestion.
    leg_starts: Tuple[Tuple[int, ...], ...] = ()
    #: Why the run ended: "completed", or the explicit truncation reason
    #: ("stalled" | "episode_limit" | "time_limit").
    status: str = STATUS_COMPLETED

    @property
    def makespan(self) -> int:
        return max((len(p) - 1 for p in self.paths), default=0)

    @property
    def truncated(self) -> bool:
        """True when the run ended before every goal was served."""
        return not self.completed

    def is_collision_free(self) -> bool:
        return not find_conflicts(self.paths)

    def summary(self) -> str:
        status = "completed" if self.completed else f"TRUNCATED ({self.status})"
        return (
            f"iterated {self.engine}: {status}, {self.goals_completed}/{self.goals_total} goals, "
            f"{self.episodes} episodes, makespan {self.makespan}, "
            f"{self.expansions} expansions, {self.runtime_seconds:.2f}s"
        )


@dataclass
class IteratedPlannerOptions:
    """Engine selection and limits for the lifelong baseline."""

    engine: str = "ecbs"
    suboptimality: float = 1.5
    #: Seconds for one solve, nested in the caller's deadline (the earlier wins).
    time_limit: Optional[float] = None
    max_episodes: int = 10_000
    per_episode_node_limit: int = 20_000
    #: ``None`` commits every episode in full (replan only when an agent
    #: reaches its goal); a positive value commits only that many steps per
    #: episode before replanning from the new positions (rolling horizon).
    commit_window: Optional[int] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise LifelongError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        check_budget(self.time_limit, "time_limit", LifelongError)
        if self.commit_window is not None and self.commit_window < 1:
            raise LifelongError(
                f"commit_window must be at least 1 step, got {self.commit_window}"
            )


class IteratedPlanner:
    """Repeatedly solve one-shot MAPF instances until every goal is visited."""

    def __init__(self, floorplan: FloorplanGraph, options: Optional[IteratedPlannerOptions] = None):
        self.floorplan = floorplan
        self.options = options or IteratedPlannerOptions()

    # -- public API ----------------------------------------------------------------
    def solve(self, tasks: Sequence[LifelongTask]) -> LifelongResult:
        with deadline_scope(self.options.time_limit):
            return self._solve(tasks)

    # -- internals --------------------------------------------------------------------
    def _solve(self, tasks: Sequence[LifelongTask]) -> LifelongResult:
        start_time = time.perf_counter()
        deadline = current_deadline()
        options = self.options
        tables = distance_tables(self.floorplan)
        pending: Dict[int, List[VertexId]] = {
            task.agent_id: list(task.goals) for task in tasks
        }
        release_queues: Dict[int, List[int]] = {
            task.agent_id: list(task.releases) if task.releases else [0] * len(task.goals)
            for task in tasks
        }
        corridor_queues: Dict[int, List[Optional[FrozenSet[VertexId]]]] = {
            task.agent_id: (
                list(task.corridors) if task.corridors else [None] * len(task.goals)
            )
            for task in tasks
        }
        positions: Dict[int, VertexId] = {task.agent_id: task.start for task in tasks}
        cumulative: Dict[int, List[VertexId]] = {
            task.agent_id: [task.start] for task in tasks
        }
        arrivals: Dict[int, List[int]] = {task.agent_id: [] for task in tasks}
        #: Last corridor of agents whose goal queue has drained — they keep
        #: idling inside it instead of wandering the open floorplan.
        finished_corridor: Dict[int, Optional[FrozenSet[VertexId]]] = {}
        leg_starts: Dict[int, List[int]] = {task.agent_id: [] for task in tasks}
        goals_total = sum(len(task.goals) for task in tasks)
        goals_completed = 0
        expansions = 0
        episodes = 0
        now = 0
        status = STATUS_COMPLETED

        while any(pending.values()):
            if episodes >= options.max_episodes:
                status = STATUS_EPISODE_LIMIT
                break
            if deadline is not None and deadline.expired():
                status = STATUS_TIME_LIMIT
                break

            # -- release gating: a goal is dispatched once it can no longer be
            # finished before its release tick (now + distance >= release);
            # travel takes at least the BFS distance, so a gated dispatch can
            # never arrive early.  Every agent — dispatched, gated, or done —
            # stays confined to its current leg corridor: a confined leg is
            # worthless if the agent may wander off-circuit while waiting.
            active: Dict[int, VertexId] = {}
            urgency: Dict[int, int] = {}
            corridors: Dict[int, Optional[FrozenSet[VertexId]]] = {}
            next_dispatch: Optional[int] = None
            for task in tasks:
                queue = pending[task.agent_id]
                if not queue:
                    corridors[task.agent_id] = finished_corridor.get(task.agent_id)
                    continue
                corridors[task.agent_id] = corridor_queues[task.agent_id][0]
                goal = queue[0]
                release = release_queues[task.agent_id][0]
                distance = tables.distance(positions[task.agent_id], goal)
                dispatch_at = release - max(0, distance)
                if now >= dispatch_at:
                    active[task.agent_id] = goal
                    urgency[task.agent_id] = release
                    if len(leg_starts[task.agent_id]) == len(arrivals[task.agent_id]):
                        leg_starts[task.agent_id].append(now)
                elif next_dispatch is None or dispatch_at < next_dispatch:
                    next_dispatch = dispatch_at

            if not active:
                if next_dispatch is None:
                    # Unreachable goals only; treat as a stall, not success.
                    status = STATUS_STALLED
                    break
                # Nothing is dispatchable yet: fast-forward to the next
                # release event without paying for a solver episode.
                steps = next_dispatch - now
                for task in tasks:
                    cumulative[task.agent_id].extend(
                        [positions[task.agent_id]] * steps
                    )
                now = next_dispatch
                continue

            episodes += 1
            pending_cells = {queue[0] for queue in pending.values() if queue}
            solution, solved_active = self._solve_with_fallback(
                tasks, positions, active, urgency, corridors, pending_cells
            )
            if solution is None:
                out_of_time = deadline is not None and deadline.expired()
                status = STATUS_TIME_LIMIT if out_of_time else STATUS_STALLED
                break
            expansions += solution.expansions
            horizon = max(len(path) for path in solution.paths)
            # Everyone commits the same number of ticks, so the stitched paths
            # stay aligned (a prefix of a collision-free episode solution is
            # itself collision-free).
            commit = (
                horizon
                if options.commit_window is None
                else min(horizon, options.commit_window + 1)
            )
            if next_dispatch is not None:
                # Stop the commit at the next release event so freshly
                # released goals are planned the tick they become urgent.
                commit = min(commit, next_dispatch - now + 1)
            for task, path in zip(tasks, solution.paths):
                agent_id = task.agent_id
                base = len(cumulative[agent_id]) - 1  # tick of the current position
                padded = list(path) + [path[-1]] * (horizon - len(path))
                committed = padded[:commit]
                cumulative[agent_id].extend(committed[1:])
                positions[agent_id] = committed[-1]
                if (
                    agent_id in solved_active
                    and pending[agent_id]
                    and committed[-1] == pending[agent_id][0]
                ):
                    pending[agent_id].pop(0)
                    release_queues[agent_id].pop(0)
                    done_corridor = corridor_queues[agent_id].pop(0)
                    if not corridor_queues[agent_id]:
                        finished_corridor[agent_id] = done_corridor
                    goals_completed += 1
                    # The goal is normally reached at the path's end (index
                    # len(path) - 1); under a commit window the agent may also
                    # happen to stand on the goal exactly at the window edge
                    # while still en route (reservation detours can revisit
                    # the goal vertex), so clamp into the committed range.
                    arrivals[agent_id].append(base + min(len(path), commit) - 1)
            now += commit - 1

        return LifelongResult(
            completed=not any(pending.values()),
            paths=tuple(tuple(cumulative[task.agent_id]) for task in tasks),
            goals_completed=goals_completed,
            goals_total=goals_total,
            episodes=episodes,
            expansions=expansions,
            runtime_seconds=time.perf_counter() - start_time,
            engine=options.engine,
            goal_arrivals=tuple(tuple(arrivals[task.agent_id]) for task in tasks),
            leg_starts=tuple(
                tuple(leg_starts[task.agent_id][: len(arrivals[task.agent_id])])
                for task in tasks
            ),
            status=status if any(pending.values()) else STATUS_COMPLETED,
        )

    def _solve_with_fallback(
        self,
        tasks: Sequence[LifelongTask],
        positions: Dict[int, VertexId],
        active: Dict[int, VertexId],
        urgency: Dict[int, int],
        corridors: Dict[int, Optional[FrozenSet[VertexId]]],
        pending_cells: Set[VertexId],
    ) -> Tuple[Optional[MAPFSolution], Set[int]]:
        """Solve the episode, demoting low-urgency agents when it is unsolvable.

        Returns ``(solution, dispatched_agents)``; demoted agents idle this
        episode (retreating off task endpoints) and are retried next episode
        from the new configuration.  Demotion order: latest release first
        (most slack), ties by agent id — the most urgent agent is held last.
        Every rung shares the run's deadline; the ladder stops when it passes.
        """
        problem = self._episode_problem(
            tasks, positions, active, pending_cells, corridors
        )
        solution = self._solve_episode(problem, set(active))
        if solution is not None or len(active) <= 1:
            return solution, set(active)
        deadline = current_deadline()
        by_urgency = sorted(active, key=lambda a: (urgency.get(a, 0), a))
        for keep in range(len(by_urgency) - 1, 0, -1):
            if deadline is not None and deadline.expired():
                break
            subset = {agent_id: active[agent_id] for agent_id in by_urgency[:keep]}
            problem = self._episode_problem(
                tasks, positions, subset, pending_cells, corridors
            )
            solution = self._solve_episode(
                problem, set(subset), node_limit=_FALLBACK_NODE_LIMIT
            )
            if solution is not None:
                return solution, set(subset)
        return None, set()

    def _episode_problem(
        self,
        tasks: Sequence[LifelongTask],
        positions: Dict[int, VertexId],
        active: Dict[int, VertexId],
        pending_cells: Set[VertexId],
        corridors: Optional[Dict[int, Optional[FrozenSet[VertexId]]]] = None,
    ) -> MAPFProblem:
        goals: Dict[int, VertexId] = {}
        taken: set = set()

        # First pass — dispatched agents head for their next goal; two agents
        # aiming at the same cell in the same episode cannot both finish
        # there, so the later one waits this episode.
        for task in tasks:
            goal = active.get(task.agent_id)
            if goal is None:
                continue
            current = positions[task.agent_id]
            if goal != current and goal in taken:
                goal = current
            taken.add(goal)
            goals[task.agent_id] = goal

        # Second pass — idle agents (no pending work, a gated release, or
        # demoted by the fallback ladder) park where they are unless they
        # block a pending goal or an assigned episode goal, in which case
        # they retreat to the nearest free cell (the usual MAPD "move idle
        # agents off task endpoints" rule).  Retreats honor the agent's
        # corridor: an idle agent stepping off-circuit would cross component
        # boundaries the traffic contracts never promised flow on.
        for task in tasks:
            if task.agent_id in goals:
                continue
            current = positions[task.agent_id]
            goal = current
            if current in pending_cells or current in taken:
                goal = self._retreat_target(
                    current,
                    pending_cells | taken,
                    (corridors or {}).get(task.agent_id),
                )
            taken.add(goal)
            goals[task.agent_id] = goal

        # Every agent is masked by its current leg corridor (waiting and
        # retreating included); solvers quietly drop a mask that does not
        # connect an agent's start to its episode goal.
        pairs = [(positions[task.agent_id], goals[task.agent_id]) for task in tasks]
        masks = [(corridors or {}).get(task.agent_id) for task in tasks]
        return MAPFProblem.from_pairs(self.floorplan, pairs, corridors=masks)

    def _retreat_target(
        self,
        start: VertexId,
        blocked: set,
        corridor: Optional[FrozenSet[VertexId]] = None,
    ) -> VertexId:
        """Nearest reachable vertex not in ``blocked`` (within the corridor).

        Must never raise: when every reachable vertex is blocked (tiny or
        saturated floorplans where all free cells are task endpoints, or a
        corridor with no spare cell), the agent waits in place — ``start`` is
        returned as the sentinel even though it is itself blocked.  The
        episode then degrades gracefully (the blocked agent parks and the
        solver reports the episode unsolvable or routes around it) instead of
        crashing the whole lifelong run.

        The BFS runs over the whole floorplan (an off-corridor vertex can
        lead back into the corridor) and stops at the first vertex that
        qualifies: BFS discovery order is nearest first.
        """
        allowed = corridor if corridor is not None and start in corridor else None
        if start not in blocked:
            return start
        adjacency = self.floorplan.adjacency
        seen = {start}
        queue = deque([start])
        while queue:
            for vertex in adjacency[queue.popleft()]:
                if vertex in seen:
                    continue
                if vertex not in blocked and (allowed is None or vertex in allowed):
                    return vertex
                seen.add(vertex)
                queue.append(vertex)
        # Fully blocked: wait in place (sentinel), never raise.
        return start

    def _solve_episode(
        self,
        problem: MAPFProblem,
        dispatched: Set[int],
        node_limit: Optional[int] = None,
    ) -> Optional[MAPFSolution]:
        options = self.options
        budget = node_limit if node_limit is not None else options.per_episode_node_limit
        if options.engine == "cbs":
            return solve_cbs(problem, CBSOptions(max_nodes=budget))
        if options.engine == "prioritized":
            # Prioritized planning is incomplete: a low-priority agent can be
            # boxed in by earlier reservations.  Working agents plan first
            # (idle agents rarely need right-of-way), and every rotation of
            # the order is retried (deterministic, at most n cheap solves)
            # before declaring the episode unsolvable.  The rotation sweep
            # honors the run's deadline: at fleet scale n solves of an
            # unsolvable instance would otherwise blow straight through the
            # caller's time budget.
            deadline = current_deadline()
            agent_ids = sorted(
                (agent.agent_id for agent in problem.agents),
                key=lambda a: (a not in dispatched, a),
            )
            for shift in range(max(1, len(agent_ids))):
                if shift and deadline is not None and deadline.expired():
                    return None
                order = agent_ids[shift:] + agent_ids[:shift]
                solution = solve_prioritized(problem, order=order)
                if solution is not None:
                    return solution
            return None
        return solve_ecbs(
            problem,
            ECBSOptions(suboptimality=options.suboptimality, max_nodes=budget),
        )


# ---------------------------------------------------------------------------
# bridging from co-design plans
# ---------------------------------------------------------------------------

def goal_sequences_from_plan(plan: Plan, max_goals_per_agent: Optional[int] = None) -> List[LifelongTask]:
    """Extract each agent's shelf/station visit sequence from a realized plan.

    A goal is recorded at every vertex where the agent's carried product
    changes (a pickup or a drop-off) — exactly the "same sequence of shelves
    and stations" the paper hands to its Iterated EECBS baseline.
    ``max_goals_per_agent`` truncates the sequences so scaled-down baseline
    comparisons stay tractable.
    """
    tasks: List[LifelongTask] = []
    for agent in range(plan.num_agents):
        carrying = plan.carrying[agent]
        positions = plan.positions[agent]
        goals: List[VertexId] = []
        for t in range(plan.horizon - 1):
            if carrying[t + 1] != carrying[t]:
                vertex = int(positions[t])
                if not goals or goals[-1] != vertex:
                    goals.append(vertex)
        if max_goals_per_agent is not None:
            goals = goals[:max_goals_per_agent]
        tasks.append(
            LifelongTask(agent_id=agent, start=int(positions[0]), goals=tuple(goals))
        )
    return tasks
