"""Per-layer tracing for the traced benchmark run.

:class:`LayerTracer` wraps each layer's public entry point at the site the
pipeline imports it from, records a span around every call and a few counts
from its arguments or return value, and accumulates *self time* per layer: a
span's duration minus the part of it covered by child spans.  The benchmark
opens one root span per unit of work; the root's self time is the
``trace.unattributed_s`` remainder, so the layer self times plus that
remainder sum exactly to ``trace.wall_s``.

Nothing in ``src/`` is edited: :meth:`LayerTracer.install` swaps module and
class attributes and :meth:`LayerTracer.uninstall` restores them.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "maps.build_s": "s",
    "core.synthesis_s": "s",
    "core.model_vars": "count",
    "core.model_constraints": "count",
    "solver.solve_s": "s",
    "solver.calls": "count",
    "core.decomposition_s": "s",
    "core.cycles": "count",
    "core.realization_s": "s",
    "core.realization.calls": "count",
    "core.agent_ticks": "count",
    "warehouse.validation_s": "s",
    "sim.replay_s": "s",
    "sim.events": "count",
    "sim.ticks": "count",
    "sim.route_s": "s",
    "mapf.expansions": "count",
    "mapf.replans": "count",
    "mapf.conflicts": "count",
    "routing.goals_done_frac": "share",
    "routing.inflation": "ratio",
    "sim.disruptions": "count",
    "sim.recoveries": "count",
    "sim.retention": "ratio",
    "experiments.overhead_s": "s",
    "service.queue_s": "s",
    "service.compute_s": "s",
    "service.transport_s": "s",
    "service.hit_rate": "share",
    "service.rejected": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.unattributed_frac": "share",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "share",
}

ROOT = "trace.unattributed_s"

#: Layer self-time metrics (what ``compare.py`` may name as the mover).
LAYER_TIMES: Tuple[str, ...] = tuple(
    name for name in PER_LAYER_UNITS if name.endswith("_s") and not name.startswith("trace.")
)


class LayerTracer:
    """Span stack, self times and counts of one single-threaded traced pass."""

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.wall_seconds = 0.0
        self._child_seconds: List[float] = []
        self._patched: List[Tuple[object, str, object]] = []
        # Raw sums behind the derived ratios.
        self._goals = [0, 0]
        self._costs = [0, 0]
        self._retention: List[float] = []

    # -- spans ------------------------------------------------------------------
    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        start = time.perf_counter()
        self._child_seconds.append(0.0)
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            children = self._child_seconds.pop()
            self.self_seconds[layer] += duration - children
            if self._child_seconds:
                self._child_seconds[-1] += duration
            else:
                self.wall_seconds += duration

    def root(self):
        """The span around one unit of work; its self time is unattributed."""
        return self.span(ROOT)

    def add_time(self, layer: str, seconds: float) -> None:
        """Attribute time measured outside any span (the service split)."""
        self.self_seconds[layer] += seconds

    # -- wrappers -----------------------------------------------------------------
    def _wrap(
        self,
        owner: object,
        attr: str,
        layer: Optional[str],
        after: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if layer is None:
                result = original(*args, **kwargs)
            else:
                with self.span(layer):
                    result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point at its import site."""
        from repro.core import flow_synthesis, pipeline
        from repro.experiments import runner, scenario
        from repro.sim import engine
        from repro.sim import runner as sim_runner
        from repro.warehouse import plan

        counts = self.counts

        def solved(args, kwargs, _result):
            model = args[0] if args else kwargs["model"]
            counts["solver.calls"] += 1
            counts["core.model_vars"] += model.num_variables
            counts["core.model_constraints"] += model.num_constraints

        def decomposed(_args, _kwargs, cycle_set):
            counts["core.cycles"] += cycle_set.num_cycles

        def realized(_args, _kwargs, result):
            counts["core.realization.calls"] += 1
            counts["core.agent_ticks"] += result.plan.num_agents * result.plan.horizon

        def simulated(_args, _kwargs, report):
            counts["sim.ticks"] += report.ticks
            resilience = report.resilience
            if resilience is not None:
                counts["sim.disruptions"] += resilience.num_disruptions
                counts["sim.recoveries"] += resilience.num_recoveries
                self._retention.append(resilience.throughput_retention)

        def routed(_args, _kwargs, result):
            routing = result[1]
            counts["mapf.expansions"] += routing.expansions
            counts["mapf.replans"] += routing.replans
            counts["mapf.conflicts"] += routing.conflicts
            self._goals[0] += routing.goals_completed
            self._goals[1] += routing.goals_total
            self._costs[0] += routing.routed_cost
            self._costs[1] += routing.free_flow_cost

        def ran(_args, _kwargs, events):
            counts["sim.events"] += events

        self._wrap(scenario.ScenarioSpec, "build", "maps.build_s")
        self._wrap(runner, "execute_scenario", "experiments.overhead_s")
        self._wrap(pipeline, "synthesize_flows", "core.synthesis_s")
        self._wrap(flow_synthesis, "solve_model", "solver.solve_s", solved)
        self._wrap(pipeline, "decompose_flow_set", "core.decomposition_s", decomposed)
        self._wrap(pipeline, "build_delivery_schedule", "core.decomposition_s")
        self._wrap(pipeline, "realize_cycle_set", "core.realization_s", realized)
        self._wrap(plan.PlanValidator, "validate", "warehouse.validation_s")
        self._wrap(sim_runner, "simulate_plan", "sim.replay_s", simulated)
        self._wrap(sim_runner, "route_plan", "sim.route_s", routed)
        self._wrap(engine.SimulationEngine, "run", None, ran)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- report -----------------------------------------------------------------
    def metrics(self, overhead_seconds: float, untraced_seconds: float) -> Dict[str, float]:
        """Every per-layer metric; layers the pass did not reach read 0."""
        values = {name: 0.0 for name in PER_LAYER_UNITS}
        values.update(self.self_seconds)
        values.update(self.counts)
        if self._goals[1]:
            values["routing.goals_done_frac"] = self._goals[0] / self._goals[1]
        if self._costs[1]:
            values["routing.inflation"] = self._costs[0] / self._costs[1]
        if self._retention:
            values["sim.retention"] = sum(self._retention) / len(self._retention)
        wall = self.wall_seconds
        values["trace.wall_s"] = wall
        values["trace.unattributed_frac"] = values[ROOT] / wall if wall else 0.0
        values["trace.overhead_s"] = overhead_seconds
        values["trace.overhead_frac"] = (
            overhead_seconds / untraced_seconds if untraced_seconds else 0.0
        )
        return values
