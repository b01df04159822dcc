"""Experiment E8: co-design methodology vs. the search-based lifelong baseline.

The paper gives Iterated EECBS the start positions and shelf/station visit
sequences of the co-design solution on the largest instance; the baseline
fails to terminate within an hour while the methodology needs about a minute.
At laptop scale we reproduce the *shape* of that result: the baseline's
runtime grows steeply (super-linearly) with the number of agents it must
coordinate, while the co-design runtime is paid once for the whole team and
does not depend on how many of its agents the baseline is later asked to
replay.
"""

from __future__ import annotations

import pytest

from repro.core import WSPSolver
from repro.maps import fulfillment_center_1_small
from repro.mapf import (
    STATUS_TIME_LIMIT,
    IteratedPlanner,
    IteratedPlannerOptions,
    goal_sequences_from_plan,
)
from repro.warehouse import Workload

#: Team-size prefixes handed to the baseline and its per-run time limit (s).
TEAM_PREFIXES = (2, 4, 6)
BASELINE_TIME_LIMIT = 20.0
GOALS_PER_AGENT = 3


@pytest.fixture(scope="module")
def codesign_solution():
    designed = fulfillment_center_1_small()
    workload = Workload.uniform(designed.warehouse.catalog, 40)
    solution = WSPSolver(designed.traffic_system).solve(workload, horizon=1500)
    assert solution.succeeded
    return designed, solution


def test_codesign_full_team(benchmark, codesign_solution):
    """The methodology's cost for the full team (the baseline's reference point)."""
    designed, _ = codesign_solution
    workload = Workload.uniform(designed.warehouse.catalog, 40)

    def run():
        return WSPSolver(designed.traffic_system).solve(workload, horizon=1500)

    solution = benchmark.pedantic(run, rounds=1, iterations=1)
    assert solution.succeeded
    benchmark.extra_info["num_agents"] = solution.num_agents
    benchmark.extra_info["synthesis_seconds"] = solution.synthesis_seconds


@pytest.mark.parametrize("engine", ["prioritized", "ecbs"])
@pytest.mark.parametrize("team_size", TEAM_PREFIXES)
def test_baseline_team_prefix(benchmark, codesign_solution, engine, team_size):
    """The baseline replaying a team prefix of the co-design solution."""
    designed, solution = codesign_solution
    tasks = goal_sequences_from_plan(solution.plan, max_goals_per_agent=GOALS_PER_AGENT)
    subset = tasks[:team_size]

    def run():
        planner = IteratedPlanner(
            designed.warehouse.floorplan,
            IteratedPlannerOptions(engine=engine, time_limit=BASELINE_TIME_LIMIT),
        )
        return planner.solve(subset)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["completed"] = result.completed
    benchmark.extra_info["goals_completed"] = result.goals_completed
    benchmark.extra_info["expansions"] = result.expansions
    # When the baseline does finish, its plan must be collision-free.
    if result.completed:
        assert result.is_collision_free()


def test_baseline_scaling_is_superlinear(benchmark, codesign_solution):
    """The qualitative Sec. V claim: baseline cost blows up with team size.

    Measured as: the per-agent runtime of the ECBS baseline on the largest
    prefix is at least twice the per-agent runtime on the smallest prefix, or
    the largest prefix runs out of its time budget while the smallest one
    finishes in a tenth of it.
    """
    designed, solution = codesign_solution
    tasks = goal_sequences_from_plan(solution.plan, max_goals_per_agent=GOALS_PER_AGENT)
    runtimes = {}
    completed = {}
    statuses = {}

    def sweep():
        for team_size in (TEAM_PREFIXES[0], TEAM_PREFIXES[-1]):
            planner = IteratedPlanner(
                designed.warehouse.floorplan,
                IteratedPlannerOptions(engine="ecbs", time_limit=BASELINE_TIME_LIMIT),
            )
            result = planner.solve(tasks[:team_size])
            runtimes[team_size] = result.runtime_seconds
            completed[team_size] = result.completed
            statuses[team_size] = result.status
        return runtimes

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    small, large = TEAM_PREFIXES[0], TEAM_PREFIXES[-1]
    benchmark.extra_info["runtimes"] = {str(k): round(v, 3) for k, v in runtimes.items()}
    benchmark.extra_info["completed"] = {str(k): v for k, v in completed.items()}
    benchmark.extra_info["status"] = {str(k): v for k, v in statuses.items()}
    if completed[large]:
        per_agent_small = runtimes[small] / small
        per_agent_large = runtimes[large] / large
        assert per_agent_large >= 2 * per_agent_small
    else:
        # Failing to finish the large prefix inside the budget *is* the paper's
        # observed outcome at full scale, provided the budget is what ended
        # it: a stall or the episode cap would be our planner's failure, not
        # the problem's.  The small prefix shows the budget is ample for a
        # small team.
        assert completed[small]
        assert runtimes[small] < BASELINE_TIME_LIMIT / 10
        assert statuses[large] == STATUS_TIME_LIMIT
