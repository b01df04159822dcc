"""Shared fixtures and helpers for the benchmark harness.

Every benchmark runs at a laptop-friendly scale by default; set the
environment variable ``REPRO_PAPER_SCALE=1`` to run the paper-scale presets
(Table I's nine rows then synthesize within the paper's reported runtimes).

The Table-I benchmarks accumulate their rows in a session-scoped collector and
print the assembled table (ours vs. the paper) at the end of the session, so
``pytest benchmarks/ --benchmark-only`` reproduces the paper's table directly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import pytest

from repro.analysis import BenchmarkRow, table1_report
from repro.core import SolverOptions, WSPSolver
from repro.maps import MAP_REGISTRY
from repro.warehouse import Workload


def paper_scale_enabled() -> bool:
    return os.environ.get("REPRO_PAPER_SCALE", "0") not in ("0", "", "false", "no")


#: Decimal places every float in a BENCH_*.json is rounded to before writing.
BENCH_FLOAT_DIGITS = 6


def round_floats(value, digits: int = BENCH_FLOAT_DIGITS):
    """Recursively round every float in a JSON-able document.

    Full-precision floats (``0.7804878048780488``) made successive benchmark
    runs churn every BENCH file line even when nothing meaningful moved;
    rounding to a fixed precision keeps diffs to genuinely changed numbers.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {key: round_floats(item, digits) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(item, digits) for item in value]
    return value


def write_bench(path: Path, document: Dict) -> Dict:
    """Serialize one BENCH_*.json artifact: sorted keys, fixed float rounding.

    The file is written only when ``REPRO_BENCH_WRITE=1``, so a plain test
    run leaves the tracked artifacts alone.  Either way the return value is
    the document round-tripped through exactly that JSON text, so callers
    assert on what would be persisted.
    """
    text = json.dumps(round_floats(document), indent=2, sort_keys=True) + "\n"
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        path.write_text(text)
    return json.loads(text)


@dataclass
class Table1Collector:
    """Accumulates Table-I rows across benchmark tests."""

    rows: List[BenchmarkRow] = field(default_factory=list)

    def add(self, row: BenchmarkRow) -> None:
        self.rows.append(row)

    def report(self) -> str:
        ordered = sorted(self.rows, key=lambda r: (r.map_name, r.units_moved))
        return table1_report(ordered)


@pytest.fixture(scope="session")
def paper_scale() -> bool:
    return paper_scale_enabled()


@pytest.fixture(scope="session")
def designed_maps() -> Dict[str, object]:
    """Cache of generated maps so each preset is only built once per session."""
    return {}


@pytest.fixture(scope="session")
def table1_collector():
    collector = Table1Collector()
    yield collector
    if collector.rows:
        print("\n\n" + collector.report() + "\n")


def get_designed(designed_maps: Dict[str, object], name: str):
    """Fetch (and cache) a designed warehouse from the map registry."""
    if name not in designed_maps:
        obj = MAP_REGISTRY[name]()
        designed_maps[name] = obj.designed if hasattr(obj, "designed") else obj
    return designed_maps[name]


def solve_instance(designed, units: int, horizon: int, options: SolverOptions = None):
    """Solve one uniform-workload instance end to end and return the solution."""
    workload = Workload.uniform(designed.warehouse.catalog, units)
    solver = WSPSolver(designed.traffic_system, options or SolverOptions())
    solution = solver.solve(workload, horizon=horizon)
    if not solution.succeeded:
        raise AssertionError(f"instance {designed.warehouse.name}/{units}: {solution.message}")
    return solution


def row_from_solution(map_name: str, units: int, solution) -> BenchmarkRow:
    return BenchmarkRow(
        map_name=map_name,
        unique_products=solution.instance.warehouse.num_products,
        units_moved=units,
        runtime_seconds=solution.synthesis_seconds,
        num_agents=solution.num_agents,
        units_delivered=solution.plan.total_delivered() if solution.plan else 0,
        plan_feasible=solution.plan_is_feasible,
        workload_serviced=solution.services_workload,
    )
