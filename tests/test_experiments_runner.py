"""Tests for the batch runner (orchestration, isolation, determinism) and the
sweep aggregation / regression-comparison layer."""

import os
import time
from dataclasses import replace

import pytest

from repro.analysis import (
    aggregate_sweep,
    compare_sweeps,
    scaling_rows,
    sweep_report,
    sweep_table,
)
from repro.experiments import (
    STATUS_ERROR,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_TIMEOUT,
    ResultStore,
    ScenarioError,
    ScenarioSpec,
    SweepOptions,
    execute_scenario,
    run_sweep,
)

#: A tiny suite exercising both kinds plus one structurally infeasible run.
TINY = [
    ScenarioSpec(num_slices=2, shelf_columns=4, num_products=4, units=8, horizon=800),
    ScenarioSpec(
        kind="sorting", shelf_columns=5, shelf_bands=1, num_stations=2, units=6, horizon=800
    ),
    ScenarioSpec(num_products=4, units=500_000, horizon=800, name="infeasible"),
]


@pytest.fixture(scope="module")
def tiny_records():
    return run_sweep(TINY, SweepOptions(workers=1))


def _crash_or_execute(document, timeout_seconds=None, collect_obs=False):
    """Worker stub (module-level so it pickles): hard-kills marked scenarios."""
    if document.get("name") == "hard-crash":
        os._exit(13)
    return execute_scenario(document, timeout_seconds, collect_obs)


class TestRunner:
    def test_statuses_and_payload(self, tiny_records):
        assert [r.status for r in tiny_records] == [
            STATUS_OK,
            STATUS_OK,
            STATUS_INFEASIBLE,
        ]
        for record in tiny_records[:2]:
            assert record.num_agents > 0
            assert record.units_delivered > 0
            assert record.plan_feasible and record.workload_serviced
            assert record.sim["contracts_ok"] == 1.0
            assert "synthesis" in record.timings and "simulation" in record.timings
        failure = tiny_records[2]
        assert "stocked" in failure.message
        assert failure.num_agents == 0 and not failure.sim

    def test_infeasible_run_does_not_kill_the_batch(self, tiny_records):
        # The infeasible scenario sits *before* the end of the list and the
        # other records are still produced — structured capture, no abort.
        assert len(tiny_records) == len(TINY)

    def test_records_are_deterministic(self, tiny_records):
        rerun = run_sweep(TINY, SweepOptions(workers=1))
        assert [r.fingerprint() for r in rerun] == [
            r.fingerprint() for r in tiny_records
        ]

    def test_parallel_matches_serial_in_spec_order(self, tiny_records):
        parallel = run_sweep(TINY, SweepOptions(workers=2))
        assert [r.fingerprint() for r in parallel] == [
            r.fingerprint() for r in tiny_records
        ]

    def test_store_receives_records_in_order(self, tmp_path, tiny_records):
        store = ResultStore(tmp_path / "results.jsonl")
        seen = []
        run_sweep(
            TINY,
            SweepOptions(workers=2),
            store=store,
            progress=lambda record: seen.append(record.scenario_id),
        )
        assert seen == [spec.scenario_id for spec in TINY]
        reloaded = ResultStore(tmp_path / "results.jsonl")
        assert [r.fingerprint() for r in reloaded] == [
            r.fingerprint() for r in tiny_records
        ]

    def test_timeout_is_a_structured_record(self):
        records = run_sweep(TINY[:1], SweepOptions(workers=1, timeout_seconds=1e-4))
        assert records[0].status == STATUS_TIMEOUT
        assert "timeout" in records[0].message

    def test_highs_gets_what_is_left_of_the_timeout(self, monkeypatch):
        from repro.core import flow_synthesis

        build, solve = ScenarioSpec.build, flow_synthesis.solve_model
        build_seconds = 0.3
        limits = []

        def slow_build(spec):
            time.sleep(build_seconds)
            return build(spec)

        def recording_solve(model, time_limit=None):
            limits.append(time_limit)
            return solve(model, time_limit=time_limit)

        monkeypatch.setattr(ScenarioSpec, "build", slow_build)
        monkeypatch.setattr(flow_synthesis, "solve_model", recording_solve)
        spec = replace(TINY[0], simulate=False)
        document = execute_scenario(spec.to_dict(), timeout_seconds=1.0)
        assert document["status"] == STATUS_OK
        assert len(limits) == 1
        assert 0 < limits[0] < 1.0 - build_seconds

    def test_worker_exception_is_captured_as_error(self):
        # An invalid spec smuggled past the generator must surface as an
        # infeasible/error record, not an exception out of the batch.
        bogus = replace(ScenarioSpec(), kind="fulfillment", shelf_depth=3)
        records = run_sweep([bogus, TINY[0]], SweepOptions(workers=1))
        assert records[0].status == STATUS_INFEASIBLE
        assert records[1].status == STATUS_OK

    def test_unexpected_exception_is_error_status(self, monkeypatch):
        monkeypatch.setattr(
            ScenarioSpec, "build", lambda self: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        document = execute_scenario(TINY[0].to_dict())
        assert document["status"] == STATUS_ERROR
        assert "boom" in document["message"]

    def test_rejects_zero_workers(self):
        with pytest.raises(ScenarioError):
            run_sweep(TINY, SweepOptions(workers=0))

    def test_hard_worker_crash_is_confined_to_its_scenario(self, monkeypatch):
        # A worker that dies without raising (segfault, OOM kill — modelled
        # with os._exit) breaks the process pool; the runner must attribute
        # the crash to one scenario and still run the remaining ones on a
        # fresh pool.  Fork start method so the stubbed worker reaches the
        # children.
        from repro.experiments import runner as runner_module

        monkeypatch.setattr(runner_module, "execute_scenario", _crash_or_execute)
        specs = [replace(TINY[0], name="hard-crash"), TINY[0], TINY[1]]
        records = run_sweep(specs, SweepOptions(workers=2, start_method="fork"))
        assert [r.status for r in records] == [STATUS_ERROR, STATUS_OK, STATUS_OK]
        assert "worker crashed" in records[0].message


class TestAggregation:
    def test_aggregate_counts_and_percentiles(self, tiny_records):
        summary = aggregate_sweep(tiny_records)
        assert summary.total == 3
        assert summary.by_status == {STATUS_OK: 2, STATUS_INFEASIBLE: 1}
        assert summary.pass_rate == pytest.approx(2 / 3)
        assert summary.synthesis_max >= summary.synthesis_p50 > 0
        assert summary.units_delivered > 0
        assert "pass rate" in summary.summary()

    def test_aggregate_empty(self):
        summary = aggregate_sweep([])
        assert summary.total == 0
        assert summary.pass_rate == 0.0
        assert summary.synthesis_p50 == 0.0

    def test_summary_without_a_successful_run_reports_no_runtimes(self, tiny_records):
        for records in ([], tiny_records[2:]):  # nothing, and one infeasible run
            text = aggregate_sweep(records).summary()
            assert "no run succeeded" in text
            assert "0.000s" not in text

    def test_sweep_table_and_report(self, tiny_records):
        table = sweep_table(tiny_records)
        assert "infeasible" in table
        assert "Experiment sweep" in table
        markdown = sweep_table(tiny_records, markdown=True)
        assert markdown.startswith("| Scenario |")
        report = sweep_report(tiny_records)
        assert "non-ok runs:" in report and "stocked" in report

    def test_scaling_rows_only_successful(self, tiny_records):
        rows = scaling_rows(tiny_records)
        assert len(rows) == 2
        assert all(seconds > 0 for _, _, seconds in rows)
        assert rows == sorted(rows, key=lambda row: (row[0], row[1]))


class TestComparison:
    def test_identical_sweeps_are_clean(self, tiny_records):
        comparison = compare_sweeps(tiny_records, tiny_records)
        assert comparison.ok
        assert comparison.matched == 3
        assert "no regressions" in comparison.summary()

    def test_status_regression_flagged(self, tiny_records):
        broken = [
            replace(r, status=STATUS_ERROR, message="crash") if r.ok else r
            for r in tiny_records
        ]
        comparison = compare_sweeps(tiny_records, broken)
        assert not comparison.ok
        assert len(comparison.status_regressions) == 2
        # The reverse direction is an informational fix, not a regression.
        assert compare_sweeps(broken, tiny_records).ok

    def test_runtime_regression_flagged(self, tiny_records):
        slow = [
            replace(r, timings={**r.timings, "synthesis": r.synthesis_seconds * 10 + 1})
            for r in tiny_records
        ]
        comparison = compare_sweeps(tiny_records, slow, runtime_factor=1.5)
        assert not comparison.ok
        assert len(comparison.runtime_regressions) == 2
        # A generous tolerance lets the same slowdown through.
        assert compare_sweeps(tiny_records, slow, runtime_factor=1000.0).ok

    def test_result_change_flagged(self, tiny_records):
        changed = [
            replace(r, num_agents=r.num_agents + 1) if r.ok else r for r in tiny_records
        ]
        comparison = compare_sweeps(tiny_records, changed)
        assert not comparison.ok
        assert len(comparison.result_changes) == 2

    def test_nonok_to_crash_is_a_regression(self, tiny_records):
        # infeasible -> error/timeout must fail the gate even though neither
        # side is ok; the reverse direction is a (partial) fix.
        crashed = [
            replace(r, status=STATUS_ERROR, message="crash") if not r.ok else r
            for r in tiny_records
        ]
        comparison = compare_sweeps(tiny_records, crashed)
        assert not comparison.ok
        assert comparison.status_regressions == ["infeasible: infeasible -> error"]
        assert compare_sweeps(crashed, tiny_records).status_fixes == [
            "infeasible: error -> infeasible"
        ]
        timed_out = [
            replace(r, status=STATUS_TIMEOUT) if not r.ok else r for r in crashed
        ]
        flipped = compare_sweeps(crashed, timed_out)
        assert not flipped.ok
        assert flipped.result_changes == ["infeasible: error -> timeout"]

    def test_epoch_change_is_reported_apart_from_regressions(self, tiny_records):
        older = [replace(r, epoch=0) for r in tiny_records]
        comparison = compare_sweeps(older, tiny_records)
        assert comparison.ok
        assert comparison.epoch_changes == [f"epoch 0 -> {tiny_records[0].epoch}: 3 scenario(s)"]
        assert "output epoch changed" in comparison.summary()
        assert compare_sweeps(tiny_records, tiny_records).epoch_changes == []

    def test_missing_and_new_scenarios(self, tiny_records):
        comparison = compare_sweeps(tiny_records, tiny_records[1:])
        assert comparison.ok  # informational only
        assert len(comparison.missing_scenarios) == 1
        reverse = compare_sweeps(tiny_records[1:], tiny_records)
        assert len(reverse.new_scenarios) == 1

    def test_rejects_bad_tolerance(self, tiny_records):
        with pytest.raises(ValueError):
            compare_sweeps(tiny_records, tiny_records, runtime_factor=0)
