"""Scenario generation and parallel experiment orchestration.

The experiment subsystem turns the repository from "solve the three catalog
presets" into a design-space exploration platform:

* :mod:`repro.experiments.scenario`  — declarative, JSON-serializable
  :class:`ScenarioSpec` (map geometry + workload + solver + sim knobs) with a
  stable :attr:`~ScenarioSpec.scenario_id` identity;
* :mod:`repro.experiments.generator` — grid sweeps, seeded random sampling,
  and named preset suites (``smoke``, ``scaling``, ``mix``, ``routing``,
  ``resilience``);
* :mod:`repro.experiments.runner`    — the batch orchestrator: in-process or
  on the service layer's worker pool, per-run timeouts, crash isolation,
  structured failure capture;
* :mod:`repro.experiments.store`     — :class:`RunRecord` and the append-only
  JSONL :class:`ResultStore`.

Aggregation and regression reporting over result files live in
:mod:`repro.analysis.experiments`; ``repro sweep`` is the CLI front end.
"""

from .generator import (
    PRESET_SUITES,
    describe_suite,
    grid_scenarios,
    mix_suite,
    preset_scenarios,
    random_scenarios,
    resilience_suite,
    routing_suite,
    scaling_suite,
    smoke_suite,
)
from .runner import ScenarioTimeout, SweepOptions, execute_scenario, run_sweep
from .scenario import (
    SCENARIO_KINDS,
    SWEEPABLE_FIELDS,
    WORKLOAD_MIXES,
    ScenarioError,
    ScenarioSpec,
    parse_service_time,
)
from .store import (
    OUTPUT_EPOCH,
    RUN_STATUSES,
    STATUS_ERROR,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_TIMEOUT,
    ResultStore,
    RunRecord,
    load_records,
)

__all__ = [
    "OUTPUT_EPOCH",
    "PRESET_SUITES",
    "RUN_STATUSES",
    "SCENARIO_KINDS",
    "STATUS_ERROR",
    "STATUS_INFEASIBLE",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "SWEEPABLE_FIELDS",
    "WORKLOAD_MIXES",
    "ResultStore",
    "RunRecord",
    "ScenarioError",
    "ScenarioSpec",
    "ScenarioTimeout",
    "SweepOptions",
    "describe_suite",
    "execute_scenario",
    "grid_scenarios",
    "load_records",
    "mix_suite",
    "parse_service_time",
    "preset_scenarios",
    "random_scenarios",
    "resilience_suite",
    "routing_suite",
    "run_sweep",
    "scaling_suite",
    "smoke_suite",
]
