"""One timing source: every reported stage time is its span's duration.

``WSPSolution.timings``, the synthesis ``build_seconds``/``solve_seconds``,
``SimulationReport.seconds``, a run record's ``timings`` and the
``repro_stage_seconds`` histogram all come from :func:`repro.obs.stage`.
Under tracing each must equal the duration of its span exactly, and an
untraced run must report the same timing keys it always has.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import WSPSolver
from repro.experiments.generator import smoke_suite
from repro.experiments.runner import execute_scenario
from repro.obs import capture_trace, disable_tracing, drain_spans
from repro.sim.runner import SimulationConfig

SOLVE_STAGES = ["synthesis", "decomposition", "realization", "validation"]
SUITE = smoke_suite()
SPEC = SUITE[0]
INFEASIBLE = next(spec for spec in SUITE if spec.name == "smoke/infeasible-stock")


@pytest.fixture(autouse=True)
def _tracing_off():
    disable_tracing()
    drain_spans()
    yield
    disable_tracing()
    drain_spans()


def spans_named(roots, name):
    """Every span called ``name`` in the trees under ``roots``, in start order."""
    found = []

    def visit(node):
        if node.name == name:
            found.append(node)
        for child in node.children:
            visit(child)

    for root in roots:
        visit(root)
    return found


def solve(spec):
    designed, workload = spec.build()
    solver = WSPSolver(designed.traffic_system)
    return solver, solver.solve(workload, horizon=spec.horizon)


def test_solution_timings_equal_their_stage_spans():
    with capture_trace() as capture:
        _, solution = solve(SPEC)
    assert solution.succeeded
    assert list(solution.timings) == SOLVE_STAGES
    for key in SOLVE_STAGES:
        spans = spans_named(capture.spans, f"solver.{key}")
        assert spans, f"no solver.{key} span"
        assert solution.timings[key] == sum((sp.duration for sp in spans), 0.0)
    (build,) = spans_named(capture.spans, "solver.synthesis.build")
    (highs,) = spans_named(capture.spans, "solver.synthesis.solve")
    assert solution.synthesis.build_seconds == build.duration
    assert solution.synthesis.solve_seconds == highs.duration
    (root,) = spans_named(capture.spans, "solver.solve")
    assert not [name for name in root.counters if name.startswith("seconds.")]


def test_simulation_seconds_equal_the_sim_span():
    solver, solution = solve(SPEC)
    with capture_trace() as capture:
        report = solver.simulate(solution, SimulationConfig(seed=SPEC.seed))
    (sim_span,) = spans_named(capture.spans, "sim.simulate")
    assert report.seconds == sim_span.duration
    assert solution.timings["simulation"] == report.seconds


def test_stage_histogram_sums_equal_the_record_timings():
    with capture_trace() as capture:
        document = execute_scenario(SPEC.to_dict(), collect_obs=True)
    payload = document.pop("obs")
    assert list(payload) == ["metrics"], "spans stay with the caller's tracer"
    sums = {
        entry["labels"]["stage"]: entry["sum"]
        for entry in payload["metrics"]["metrics"]
        if entry["name"] == "repro_stage_seconds"
    }
    assert document["status"] == "ok"
    assert sums == document["timings"]
    (generate,) = spans_named(capture.spans, "experiments.generate")
    assert document["timings"]["generate"] == generate.duration
    assert spans_named(capture.spans, "solver.synthesis")


def test_untraced_runs_keep_their_timing_keys():
    _, solution = solve(SPEC)
    assert list(solution.timings) == SOLVE_STAGES
    record = execute_scenario(SPEC.to_dict())
    assert list(record["timings"]) == sorted(SOLVE_STAGES + ["generate", "simulation"])
    infeasible = execute_scenario(INFEASIBLE.to_dict())
    assert infeasible["status"] == "infeasible"
    assert list(infeasible["timings"]) == ["generate"]
    assert drain_spans() == []


def test_a_spawned_worker_drops_its_spans_after_each_run(monkeypatch):
    # Nothing reads a worker's spans until they are stitched under the
    # parent's, so a long-lived worker must not keep them run after run.
    import multiprocessing

    import repro.obs
    from repro.obs import MetricsRegistry

    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    # The payload drains the worker's registry; a fresh one stands in for it.
    monkeypatch.setattr(repro.obs, "get_registry", MetricsRegistry)
    with capture_trace() as capture:
        document = execute_scenario(SPEC.to_dict(), collect_obs=True)
    assert document["status"] == "ok"
    assert list(document["obs"]) == ["metrics"]
    assert capture.spans == []
