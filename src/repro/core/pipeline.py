"""End-to-end WSP solver: the methodology of Fig. 2, as one object.

:class:`WSPSolver` wires the stages together:

1. traffic-system design rule check (the system is provided by the map
   generator or the user — co-design means the layout ships with its traffic
   system);
2. agent-flow synthesis (contracts → ILP, Sec. IV-D);
3. flow → agent-cycle decomposition (Sec. IV-E);
4. realization into a concrete, collision-free plan (Sec. IV-C);
5. independent plan validation and workload-service verification.

Stages 2–5 each run under :func:`repro.obs.stage`, the one timing source:
it adds the stage's wall time to :attr:`WSPSolution.timings` (``synthesis``
— the "runtime" column of the paper's Table I — ``decomposition``,
``realization`` and ``validation``) and, while tracing, that time is the
duration of the stage's ``solver.<key>`` span.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports core)
    from ..sim.runner import SimulationConfig, SimulationReport

from ..obs import span, stage
from ..solver import SolveStatus
from ..traffic.system import TrafficSystem
from ..traffic.validation import assert_valid
from ..warehouse.plan import Plan, PlanValidationReport, PlanValidator
from ..warehouse.warehouse import WSPInstance
from ..warehouse.workload import Workload
from .agent_cycles import AgentCycleSet, DeliverySchedule
from .flow_decomposition import build_delivery_schedule, decompose_flow_set
from .flow_synthesis import (
    AgentFlowSet,
    FlowSynthesisError,
    FlowSynthesisResult,
    SynthesisOptions,
    synthesize_flows,
)
from .realization import RealizationError, RealizationOptions, RealizationResult, realize_cycle_set

#: Largest cycle-time factor a solve retries with when realization violates
#: Property 4.1 (never needed on the generated maps; kept as a safety net).
MAX_CYCLE_TIME_FACTOR = 4


@dataclass(frozen=True)
class SolverOptions:
    """Options of the end-to-end solver."""

    synthesis: SynthesisOptions = field(default_factory=SynthesisOptions)
    realization: RealizationOptions = field(default_factory=RealizationOptions)


@dataclass
class WSPSolution:
    """Everything produced by one end-to-end solve."""

    instance: WSPInstance
    traffic_system: TrafficSystem
    synthesis: FlowSynthesisResult
    flow_set: Optional[AgentFlowSet] = None
    cycle_set: Optional[AgentCycleSet] = None
    schedule: Optional[DeliverySchedule] = None
    realization: Optional[RealizationResult] = None
    plan_report: Optional[PlanValidationReport] = None
    #: Filled by :meth:`WSPSolver.simulate` / :meth:`simulate` (stage 6).
    simulation: Optional["SimulationReport"] = None
    timings: Dict[str, float] = field(default_factory=dict)
    message: str = ""

    @property
    def succeeded(self) -> bool:
        return self.plan is not None

    @property
    def plan(self) -> Optional[Plan]:
        return self.realization.plan if self.realization else None

    @property
    def num_agents(self) -> int:
        return self.cycle_set.num_agents if self.cycle_set else 0

    @property
    def services_workload(self) -> bool:
        plan = self.plan
        if plan is None:
            return False
        return plan.services(self.instance.workload)

    @property
    def plan_is_feasible(self) -> bool:
        return self.plan_report.is_feasible if self.plan_report else False

    @property
    def synthesis_seconds(self) -> float:
        """The quantity Table I reports: time to generate the agent flow set."""
        return self.timings.get("synthesis", 0.0)

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())

    def simulate(
        self, config: Optional["SimulationConfig"] = None
    ) -> "SimulationReport":
        """Execute the realized plan in the digital twin (see :mod:`repro.sim`).

        Stores the report on :attr:`simulation`, adds a ``simulation`` entry to
        :attr:`timings`, and returns the report.
        """
        from ..sim.runner import simulate_solution  # local: sim imports core

        report = simulate_solution(self, config)
        self.simulation = report
        self.timings["simulation"] = self.timings.get("simulation", 0.0) + report.seconds
        return report

    def summary(self) -> str:
        if not self.succeeded:
            return f"WSP solve failed: {self.message or self.synthesis.status.value}"
        delivered = self.plan.total_delivered() if self.plan else 0
        return (
            f"WSP solved: {self.num_agents} agents, {delivered} units delivered "
            f"(workload {self.instance.workload.total_units}), "
            f"synthesis {self.synthesis_seconds:.3f}s, total {self.total_seconds:.3f}s"
        )


class WSPSolver:
    """Solve WSP instances on a warehouse with a designed traffic system."""

    def __init__(self, traffic_system: TrafficSystem, options: Optional[SolverOptions] = None):
        self.traffic_system = traffic_system
        self.options = options or SolverOptions()
        assert_valid(traffic_system)

    def simulate(
        self, solution: WSPSolution, config: Optional["SimulationConfig"] = None
    ) -> "SimulationReport":
        """Stage 6: execute a solved instance's plan in the digital twin.

        Runs the realized plan through :mod:`repro.sim` — order stream, agent
        executors, station service queues, telemetry and the runtime contract
        monitor — and returns the :class:`~repro.sim.runner.SimulationReport`
        (also stored on ``solution.simulation``).  Raises
        :class:`~repro.sim.runner.SimulationSetupError` when the solution has
        no realized plan.
        """
        return solution.simulate(config)

    # -- public API -------------------------------------------------------------
    def solve_instance(self, instance: WSPInstance) -> WSPSolution:
        """Solve a WSP instance end to end."""
        if instance.warehouse is not self.traffic_system.warehouse:
            raise FlowSynthesisError(
                "the instance's warehouse is not the one this solver's traffic system was designed for"
            )
        instance.validate()
        with span(
            "solver.solve",
            map=self.traffic_system.warehouse.name,
            units=instance.workload.total_units,
            horizon=instance.horizon,
        ) as solve_span:
            solution = self._solve_staged(instance, solve_span)
            solve_span.set_attr("succeeded", solution.succeeded)
            return solution

    def _solve_staged(self, instance: WSPInstance, solve_span) -> WSPSolution:
        timings: Dict[str, float] = {}

        factor = self.options.synthesis.cycle_time_factor
        last_message = ""
        synthesis_result: Optional[FlowSynthesisResult] = None
        while factor <= MAX_CYCLE_TIME_FACTOR:
            synthesis_options = replace(self.options.synthesis, cycle_time_factor=factor)
            with stage(
                timings, "synthesis", "solver.synthesis", cycle_time_factor=factor
            ):
                synthesis_result = synthesize_flows(
                    self.traffic_system, instance.workload, instance.horizon, synthesis_options
                )
            if not synthesis_result.succeeded:
                return WSPSolution(
                    instance=instance,
                    traffic_system=self.traffic_system,
                    synthesis=synthesis_result,
                    timings=timings,
                    message=(
                        "no agent flow set satisfies the traffic-system and workload contracts: "
                        + (synthesis_result.message or synthesis_result.status.value)
                    ),
                )

            with stage(timings, "decomposition", "solver.decomposition"):
                cycle_set = decompose_flow_set(synthesis_result.flow_set)
                schedule = build_delivery_schedule(
                    synthesis_result.flow_set, instance.workload
                )

            try:
                with stage(
                    timings, "realization", "solver.realization", cycle_time_factor=factor
                ):
                    realization = realize_cycle_set(
                        cycle_set, schedule, self.options.realization
                    )
            except RealizationError as error:
                last_message = str(error)
                factor += 1
                solve_span.add("realization_retries")
                continue

            with stage(timings, "validation", "solver.validation"):
                plan_report = PlanValidator(instance.warehouse).validate(realization.plan)

            return WSPSolution(
                instance=instance,
                traffic_system=self.traffic_system,
                synthesis=synthesis_result,
                flow_set=synthesis_result.flow_set,
                cycle_set=cycle_set,
                schedule=schedule,
                realization=realization,
                plan_report=plan_report,
                timings=timings,
                message=last_message,
            )

        return WSPSolution(
            instance=instance,
            traffic_system=self.traffic_system,
            synthesis=synthesis_result,
            timings=timings,
            message=f"realization failed up to cycle-time factor "
            f"{MAX_CYCLE_TIME_FACTOR}: {last_message}",
        )

    def solve(self, workload: Workload, horizon: int) -> WSPSolution:
        """Convenience wrapper: build the instance and solve it."""
        instance = WSPInstance(self.traffic_system.warehouse, workload, horizon)
        return self.solve_instance(instance)


def solve_wsp(
    traffic_system: TrafficSystem,
    workload: Workload,
    horizon: int,
    options: Optional[SolverOptions] = None,
) -> WSPSolution:
    """One-shot helper: ``WSPSolver(traffic_system, options).solve(workload, horizon)``."""
    return WSPSolver(traffic_system, options).solve(workload, horizon)
