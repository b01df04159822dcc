"""One deadline per run: the scope, its nesting, and where a run runs out.

:mod:`repro.deadline` holds a run's time budget as a per-thread scope.
These tests pin the nesting rule, that a run on any thread stops when its
budget is spent and names the ``timings`` stage it was in, and that every
entry point refuses a budget that is zero, negative or NaN.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core import flow_synthesis, realization
from repro.deadline import (
    Deadline,
    ScenarioTimeout,
    check_budget,
    current_deadline,
    deadline_scope,
)
from repro.experiments import (
    STATUS_OK,
    STATUS_TIMEOUT,
    ScenarioError,
    ScenarioSpec,
    SweepOptions,
    execute_scenario,
)
from repro.experiments.generator import routing_scale_suite
from repro.mapf import IteratedPlannerOptions, LifelongError
from repro.obs import stage
from repro.optimize import CachedEvaluator, OptimizeError
from repro.service import ServiceConfig, ServiceRequest
from repro.service.api import ServiceRequestError
from repro.sim import runner as sim_runner

TINY = ScenarioSpec(num_slices=2, shelf_columns=4, num_products=4, units=8, horizon=800)
BAD_BUDGETS = [0.0, -1.0, float("nan")]
#: The ``timings`` stages of a finished simulated run, in the order they run.
STAGES = ["generate", "synthesis", "decomposition", "realization", "validation", "simulation"]


def _timed_up_to(document, stage_name):
    """Every stage up to the one that ran out kept its seconds, no later one ran."""
    return set(document["timings"]) == set(STAGES[: STAGES.index(stage_name) + 1])


class TestScope:
    def test_no_scope_no_deadline(self):
        assert current_deadline() is None
        with deadline_scope(None) as deadline:
            assert deadline is None and current_deadline() is None

    def test_nested_scopes_take_the_earlier_instant(self):
        # A shorter inner scope ends first ...
        with deadline_scope(60.0) as outer:
            with deadline_scope(10.0) as inner:
                assert current_deadline() is inner and inner.at < outer.at
            assert current_deadline() is outer
        # ... and a longer one cannot stretch the enclosing scope.
        with deadline_scope(10.0) as outer:
            with deadline_scope(60.0) as inner:
                assert inner is outer

    def test_an_unbudgeted_scope_keeps_the_enclosing_deadline(self):
        with deadline_scope(5.0) as outer, deadline_scope(None) as inner:
            assert inner is outer

    def test_a_scope_is_restored_after_its_block_raises(self):
        with deadline_scope(30.0) as outer:
            with pytest.raises(RuntimeError):
                with deadline_scope(1.0):
                    raise RuntimeError("boom")
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_a_scope_belongs_to_its_thread(self):
        seen = []
        with deadline_scope(30.0):
            thread = threading.Thread(target=lambda: seen.append(current_deadline()))
            thread.start()
            thread.join()
        assert seen == [None]

    def test_check_raises_once_the_instant_passes(self):
        deadline = Deadline(0.01)
        deadline.check()
        time.sleep(0.02)
        assert deadline.expired() and deadline.remaining() == 0.0
        with pytest.raises(ScenarioTimeout, match=r"run exceeded the 0\.01s timeout$"):
            deadline.check()

    def test_the_outermost_stage_names_a_timeout(self):
        timings = {}
        with pytest.raises(ScenarioTimeout) as caught:
            with stage(timings, "synthesis", "solver.synthesis"):
                with stage(timings, "solve", "solver.synthesis.solve"):
                    raise ScenarioTimeout(0.05)
        assert str(caught.value) == "run exceeded the 0.05s timeout in synthesis"
        assert set(timings) == {"synthesis", "solve"}
        assert caught.value.timings is timings


class TestBudgetRule:
    @pytest.mark.parametrize("seconds", BAD_BUDGETS)
    def test_rule_refuses_spent_budgets(self, seconds):
        with pytest.raises(ValueError, match="must be positive"):
            check_budget(seconds)
        with pytest.raises(ValueError):
            Deadline(seconds)

    def test_rule_accepts_none_and_positive(self):
        assert check_budget(None) is None
        assert check_budget(0.05) == 0.05

    @pytest.mark.parametrize("seconds", BAD_BUDGETS)
    def test_every_entry_point_refuses_a_spent_budget(self, seconds):
        with pytest.raises(ScenarioError, match="timeout_seconds"):
            SweepOptions(timeout_seconds=seconds)
        with pytest.raises(OptimizeError, match="timeout_seconds"):
            CachedEvaluator(timeout_seconds=seconds)
        with pytest.raises(ValueError, match="timeout_seconds"):
            ServiceConfig(timeout_seconds=seconds)
        with pytest.raises(ServiceRequestError, match="timeout_seconds"):
            ServiceRequest(scenario=TINY, timeout_seconds=seconds)
        with pytest.raises(LifelongError, match="time_limit"):
            IteratedPlannerOptions(time_limit=seconds)
        for command in (["sweep", "--preset", "smoke"], ["optimize"], ["serve"]):
            with pytest.raises(SystemExit, match="--timeout must be positive"):
                main([*command, "--timeout", str(seconds)])


def _sleep_past_the_deadline():
    time.sleep(current_deadline().remaining() + 0.01)


def _run_out_in(monkeypatch, owner, name):
    """Make ``owner.name`` sleep until the run's deadline has passed."""
    original = getattr(owner, name)

    def late(*args, **kwargs):
        _sleep_past_the_deadline()
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, late)


class TestRunsOutOfTime:
    def test_a_routed_run_off_the_main_thread_times_out(self):
        # ~0.2 s of routing and replay: only cooperative checks stop it on
        # a thread that cannot take a signal.
        spec = replace(routing_scale_suite(0)[2], router="ecbs")
        outcome = {}

        def run():
            started = time.perf_counter()
            outcome.update(execute_scenario(spec.to_dict(), 0.05))
            outcome["seconds"] = time.perf_counter() - started

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert outcome["status"] == STATUS_TIMEOUT, outcome["message"]
        assert outcome["message"] == "run exceeded the 0.05s timeout in simulation"
        assert outcome["seconds"] < 0.15

    @pytest.mark.parametrize(
        "owner, name, stage_name",
        [
            (ScenarioSpec, "build", "generate"),
            (realization, "_place_agents", "realization"),
            (sim_runner, "build_shelf_processes", "simulation"),
        ],
    )
    def test_a_timeout_names_its_stage(self, monkeypatch, owner, name, stage_name):
        _run_out_in(monkeypatch, owner, name)
        document = execute_scenario(TINY.to_dict(), timeout_seconds=0.5)
        assert document["status"] == STATUS_TIMEOUT
        assert document["message"] == f"run exceeded the 0.5s timeout in {stage_name}"
        assert _timed_up_to(document, stage_name), document["timings"]

    def test_highs_out_of_time_names_synthesis(self, monkeypatch):
        solve = flow_synthesis.solve_model

        def late_solve(model, time_limit=None):
            _sleep_past_the_deadline()
            # What is left is nothing: HiGHS stops at its time limit.
            return solve(model, time_limit=current_deadline().remaining())

        monkeypatch.setattr(flow_synthesis, "solve_model", late_solve)
        document = execute_scenario(TINY.to_dict(), timeout_seconds=0.5)
        assert document["status"] == STATUS_TIMEOUT
        assert document["message"] == "run exceeded the 0.5s timeout in synthesis"
        assert _timed_up_to(document, "synthesis"), document["timings"]

    def test_a_run_within_its_budget_is_untouched(self):
        document = execute_scenario(TINY.to_dict(), timeout_seconds=60)
        assert document["status"] == STATUS_OK
        assert _timed_up_to(document, "simulation"), document["timings"]
        assert current_deadline() is None
