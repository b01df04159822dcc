"""End-to-end tests of the digital twin: pipeline integration, determinism,
conservation, contract monitoring, serialization and the CLI subcommand."""

import numpy as np
import pytest

from repro.analysis import (
    compute_sim_metrics,
    render_congestion,
    throughput_gap_report,
)
from repro.cli import main
from repro.core import WSPSolver
from repro.io import load_json, save_json, trace_from_dict, trace_to_dict
from repro.maps import toy_warehouse
from repro.sim import (
    ServiceTimeModel,
    SimulationConfig,
    SimulationSetupError,
    simulate_plan,
    simulate_solution,
)
from repro.warehouse import Workload


@pytest.fixture(scope="module")
def designed():
    return toy_warehouse()


@pytest.fixture(scope="module")
def solution(designed):
    workload = Workload.uniform(designed.warehouse.catalog, 8)
    solution = WSPSolver(designed.traffic_system).solve(workload, horizon=600)
    assert solution.succeeded
    return solution


@pytest.fixture(scope="module")
def baseline_report(solution):
    """The deterministic baseline run (instant service, orders at t=0)."""
    return simulate_solution(solution, SimulationConfig(seed=0))


class TestDeterministicBaseline:
    def test_realized_matches_synthesized_throughput(self, baseline_report):
        assert baseline_report.synthesized_throughput > 0
        assert baseline_report.throughput_ratio == pytest.approx(1.0, abs=0.1)

    def test_served_equals_plan_deliveries(self, solution, baseline_report):
        assert baseline_report.units_served == solution.plan.total_delivered()
        assert baseline_report.trace.station_backlog == 0

    def test_zero_contract_violations_for_feasible_plan(self, baseline_report):
        assert baseline_report.monitor is not None
        assert baseline_report.monitor.ok, [
            str(v) for v in baseline_report.monitor.violations
        ]
        assert baseline_report.contracts_ok

    def test_all_orders_fulfilled(self, baseline_report):
        trace = baseline_report.trace
        assert trace.orders_created == 8
        assert trace.orders_served == 8
        assert trace.order_latencies and all(l >= 0 for l in trace.order_latencies)

    def test_summary_mentions_headline_numbers(self, baseline_report):
        text = baseline_report.summary()
        assert "units served" in text
        assert "contract monitor" in text


class TestDeterminism:
    CONFIG = dict(
        arrival_rate=0.08, service_time=ServiceTimeModel.geometric(2.5)
    )

    def test_same_seed_identical_trace(self, solution):
        first = simulate_solution(solution, SimulationConfig(seed=11, **self.CONFIG))
        second = simulate_solution(solution, SimulationConfig(seed=11, **self.CONFIG))
        assert first.trace.events == second.trace.events
        assert first.trace.units_served == second.trace.units_served
        assert first.trace.order_latencies == second.trace.order_latencies
        assert np.array_equal(first.trace.visits, second.trace.visits)

    def test_different_seed_different_trace(self, solution):
        first = simulate_solution(solution, SimulationConfig(seed=11, **self.CONFIG))
        second = simulate_solution(solution, SimulationConfig(seed=12, **self.CONFIG))
        assert first.trace.events != second.trace.events


def _spans(spans):
    for span in spans:
        yield span
        yield from _spans(span["children"])


def test_nominal_replay_runs_no_per_tick_event():
    """A nominal smoke-scenario replay's engine handles events, not ticks:
    nothing runs in the telemetry band, yet every station still gets its
    per-tick queue series (stations report it at hand-offs and completions)."""
    from repro.experiments.generator import smoke_suite
    from repro.obs import capture_trace

    spec = smoke_suite(1)[0]
    designed, workload = spec.build()
    solution = WSPSolver(designed.traffic_system).solve(workload, horizon=spec.horizon)
    assert solution.succeeded
    with capture_trace():
        report = simulate_solution(
            solution, SimulationConfig(seed=spec.seed, record_events=False)
        )
    runs = [s for s in _spans(report.trace.obs["spans"]) if s["name"] == "sim.engine.run"]
    assert len(runs) == 1
    assert "events.telemetry" not in runs[0]["counters"]
    queues = report.trace.queue_samples
    assert sorted(queues) == [c.index for c in designed.traffic_system.station_queues()]
    assert all(samples.shape == (report.ticks,) for samples in queues.values())


class TestFlowConservation:
    def test_baseline_trace_is_conserved(self, baseline_report):
        assert baseline_report.trace.conservation_report() == []

    def test_orders_in_equals_served_plus_pending(self, solution):
        report = simulate_solution(
            solution,
            SimulationConfig(
                seed=3, arrival_rate=0.2, service_time=ServiceTimeModel.deterministic(8)
            ),
        )
        trace = report.trace
        assert trace.orders_created == trace.orders_served + trace.orders_pending
        assert trace.conservation_report() == []

    def test_units_flow_picked_to_served(self, solution):
        report = simulate_solution(
            solution,
            SimulationConfig(seed=4, service_time=ServiceTimeModel.deterministic(25)),
        )
        trace = report.trace
        picked = trace.units_picked + trace.units_preloaded
        assert picked == trace.units_handed_off + trace.units_in_transit
        assert trace.units_handed_off == trace.units_served + trace.station_backlog
        assert trace.station_backlog > 0  # slow service must leave a queue


class TestContractMonitor:
    def test_undersized_station_reports_breach(self, solution):
        report = simulate_solution(
            solution,
            SimulationConfig(seed=0, service_time=ServiceTimeModel.deterministic(300)),
        )
        assert not report.contracts_ok
        breaches = report.monitor.violations_of_kind("workload-service")
        assert breaches, "an undersized station must breach the workload contract"
        assert any("demanded units served" in v.detail for v in breaches)

    def test_monitor_counts_constraints(self, baseline_report):
        monitor = baseline_report.monitor
        assert monitor.constraints_checked > 0
        assert monitor.periods_measured > 0
        assert "contract monitor" in monitor.summary()


class TestPipelineIntegration:
    def test_solver_simulate_stage(self, designed):
        workload = Workload.uniform(designed.warehouse.catalog, 8)
        solver = WSPSolver(designed.traffic_system)
        solution = solver.solve(workload, horizon=600)
        report = solver.simulate(solution)
        assert solution.simulation is report
        assert "simulation" in solution.timings
        assert report.contracts_ok

    def test_simulate_unsolved_solution_raises(self, designed):
        workload = Workload.uniform(designed.warehouse.catalog, 8)
        solver = WSPSolver(designed.traffic_system)
        solution = solver.solve(workload, horizon=600)
        solution.realization = None  # simulate a failed solve
        with pytest.raises(SimulationSetupError):
            solver.simulate(solution)
        with pytest.raises(SimulationSetupError):
            solution.simulate()

    def test_simulate_round_tripped_plan(self, solution, designed):
        """A plan reloaded from JSON (fresh Warehouse object) must still simulate."""
        from repro.io import plan_from_dict, plan_to_dict

        reloaded = plan_from_dict(plan_to_dict(solution.plan))
        assert reloaded.warehouse is not designed.warehouse
        report = simulate_plan(
            plan=reloaded,
            system=designed.traffic_system,
            flow_set=solution.flow_set,
            workload=solution.instance.workload,
            synthesis=solution.synthesis,
        )
        assert report.throughput_ratio == pytest.approx(1.0, abs=0.1)
        assert report.contracts_ok

    def test_simulate_plan_without_flow_set(self, solution, designed):
        report = simulate_plan(
            plan=solution.plan,
            system=designed.traffic_system,
            workload=solution.instance.workload,
        )
        assert report.units_served > 0
        assert report.synthesized_throughput == 0.0


class TestSimMetricsAndRendering:
    def test_compute_sim_metrics(self, baseline_report):
        metrics = compute_sim_metrics(baseline_report)
        assert metrics.throughput_ratio == pytest.approx(
            baseline_report.throughput_ratio, abs=1e-9
        )
        assert metrics.units_served == baseline_report.units_served
        payload = metrics.as_dict()
        assert payload["orders_served"] == 8
        assert "within" in throughput_gap_report(metrics)

    def test_gap_report_flags_shortfall(self, solution):
        report = simulate_solution(
            solution,
            SimulationConfig(seed=0, service_time=ServiceTimeModel.deterministic(300)),
        )
        metrics = compute_sim_metrics(report)
        assert "below" in throughput_gap_report(metrics)

    def test_truncated_run_verdict_reads_the_reports_ratio(self, solution):
        # 150 of the plan's 600 ticks: scored over the ticks it covered, the
        # run would read as on target (ratio ~1.03) beside a TRUNCATED report.
        report = simulate_solution(solution, SimulationConfig(seed=0, max_ticks=150))
        assert report.truncated
        metrics = compute_sim_metrics(report)
        assert metrics.throughput_ratio == report.throughput_ratio < 0.5
        assert "below" in throughput_gap_report(metrics)

    def test_render_congestion(self, designed, baseline_report):
        picture = render_congestion(designed.warehouse, baseline_report.trace.visits)
        grid = designed.warehouse.grid
        lines = picture.splitlines()
        assert len(lines) == grid.height
        assert all(len(line) == grid.width for line in lines)
        assert "$" in picture  # the hottest cell is marked
        with pytest.raises(ValueError):
            render_congestion(designed.warehouse, [0, 1, 2])


class TestTraceSerialization:
    def test_round_trip(self, baseline_report, tmp_path):
        document = trace_to_dict(baseline_report.trace)
        path = tmp_path / "trace.json"
        save_json(document, path)
        restored = trace_from_dict(load_json(path))
        original = baseline_report.trace
        assert restored.ticks == original.ticks
        assert restored.units_served == original.units_served
        assert restored.units_preloaded == original.units_preloaded
        assert np.array_equal(restored.visits, original.visits)
        assert restored.transitions.keys() == original.transitions.keys()
        for key, counts in original.transitions.items():
            assert np.array_equal(restored.transitions[key], counts)
        assert restored.events == original.events
        assert restored.realized_throughput() == pytest.approx(
            original.realized_throughput()
        )

    def test_schema_tag_checked(self):
        with pytest.raises(Exception):
            trace_from_dict({"schema": "plan"})


class TestSimulateCli:
    def test_simulate_subcommand(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.json"
        code = main(
            [
                "simulate",
                "--map",
                "sorting-center-small",
                "--units",
                "16",
                "--seed",
                "0",
                "--horizon",
                "900",
                "--heatmap",
                "--save-trace",
                str(trace_file),
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "realized throughput" in output
        assert "all contracts honored" in output
        assert "Congestion" in output
        assert trace_file.exists()
        restored = trace_from_dict(load_json(trace_file))
        assert restored.units_served > 0

    def test_simulate_with_stochastic_options(self, capsys):
        code = main(
            [
                "simulate",
                "--map",
                "sorting-center-small",
                "--units",
                "16",
                "--horizon",
                "900",
                "--service-time",
                "geometric:2",
                "--arrival-rate",
                "0.05",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "poisson(0.05/tick)" in output

    def test_bad_service_time_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate",
                    "--map",
                    "sorting-center-small",
                    "--units",
                    "16",
                    "--service-time",
                    "bogus",
                ]
            )
