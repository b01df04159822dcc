"""Experiments E5–E7: regenerate the paper's Table I.

Nine WSP instances — three workload sizes on each of the three evaluation maps
— are solved end to end; the benchmarked quantity is the agent-flow-synthesis
runtime, which is exactly what the paper's Table I reports.  The assembled
table (with the paper's runtimes side by side and the plan-level verification
columns the paper omits) is printed at the end of the benchmark session.

By default the structurally identical small presets are used so the whole
suite runs in well under a minute; set ``REPRO_PAPER_SCALE=1`` to run the
paper-scale maps and workloads.  At paper scale every row must reach its
pinned agent count within the paper's runtime, and the nine rows are
persisted to ``BENCH_table1.json`` (with ``REPRO_BENCH_WRITE=1``); small
runs never write it.  Each row splits ``synthesis_s`` into the model build
(``build_s``: compiling the contracts and the MILP) and the HiGHS solve
(``solve_s``), and records the solve's branch-and-bound ``nodes``; version 1
rows had ``synthesis_s`` alone, version 2 rows no ``nodes``.  The cyclic GC
is collected before each timed row, so no row pays for a full collection
of the garbage an earlier row or map build left.
"""

from __future__ import annotations

import gc
from pathlib import Path

import pytest

from repro.analysis import paper_runtime

from .conftest import (
    get_designed,
    paper_scale_enabled,
    row_from_solution,
    solve_instance,
    write_bench,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_table1.json"

#: (map preset, workloads, horizon) per Table-I block, at both scales.
PAPER_INSTANCES = {
    "sorting-center": ((160, 320, 480), 3600),
    "fulfillment-1": ((550, 825, 1100), 3600),
    "fulfillment-2": ((1200, 1320, 1440), 3600),
}
SMALL_INSTANCES = {
    "sorting-center-small": ((16, 32, 48), 1500),
    "fulfillment-1-small": ((24, 36, 48), 1500),
    "fulfillment-2-small": ((36, 48, 60), 1500),
}
#: Agents per paper-scale row: the per-product contract model's optimum.
PAPER_AGENTS = {
    "sorting-center": (20, 20, 40),
    "fulfillment-1": (64, 96, 128),
    "fulfillment-2": (198, 198, 198),
}


def _instances():
    table = PAPER_INSTANCES if paper_scale_enabled() else SMALL_INSTANCES
    for map_name, (workloads, horizon) in table.items():
        for units in workloads:
            yield map_name, units, horizon


@pytest.fixture(scope="module")
def bench_rows():
    return []


@pytest.mark.parametrize(
    "map_name, units, horizon",
    list(_instances()),
    ids=[f"{m}-{u}" for m, u, _ in _instances()],
)
def test_table1_instance(
    benchmark, map_name, units, horizon, designed_maps, table1_collector, bench_rows, paper_scale
):
    """One Table-I row: benchmark the flow synthesis, verify the realized plan."""
    designed = get_designed(designed_maps, map_name)
    solutions = []

    def run():
        solution = solve_instance(designed, units, horizon)
        solutions.append(solution)
        return solution.synthesis_seconds

    # A full collection (0.03-0.05 s) otherwise lands inside a timed row:
    # Fulfillment-1/550's build, right after its map build, and some
    # Fulfillment-2 rows.
    gc.collect()
    benchmark.pedantic(run, rounds=1, iterations=1)
    solution = solutions[-1]
    table1_collector.add(row_from_solution(map_name, units, solution))

    products = designed.warehouse.num_products
    row = {
        "map": map_name,
        "products": products,
        "units": units,
        "horizon": horizon,
        "paper_s": paper_runtime(map_name, products, units),
        "synthesis_s": solution.synthesis_seconds,
        "build_s": solution.synthesis.build_seconds,
        "solve_s": solution.synthesis.solve_seconds,
        "nodes": solution.synthesis.nodes,
        "variables": solution.synthesis.num_variables,
        "constraints": solution.synthesis.num_constraints,
        "agents": solution.num_agents,
        "feasible": solution.plan_is_feasible,
        "serviced": solution.services_workload,
    }
    bench_rows.append(row)

    # The realized plan must be feasible and actually service the workload —
    # the paper's headline claim for every Table-I instance.
    assert solution.plan_is_feasible
    assert solution.services_workload
    benchmark.extra_info["synthesis_seconds"] = solution.synthesis_seconds
    benchmark.extra_info["num_agents"] = solution.num_agents
    benchmark.extra_info["units_delivered"] = solution.plan.total_delivered()
    if paper_scale:
        workloads, _ = PAPER_INSTANCES[map_name]
        assert solution.num_agents == PAPER_AGENTS[map_name][workloads.index(units)]
        assert row["synthesis_s"] <= row["paper_s"]


def test_emit_bench_table1_json(bench_rows, paper_scale):
    """Assemble the nine rows; persist them only at paper scale."""
    document = {"schema": "bench-table1", "version": 3, "rows": bench_rows}
    if paper_scale:
        document = write_bench(BENCH_PATH, document)
    assert len(document["rows"]) == 9
