"""Runtime assume-guarantee contract monitoring over the simulated trace.

The synthesis stage promises behaviour in the language of per-cycle-period
flow variables (``f[i, j, k]``, ``fin``, ``fout``, aggregates).  The simulated
trace *observes* the same quantities: cross-component transitions with the
carried product, pickups and hand-offs per component and product.  The
monitor closes the loop: it binds every contract variable to its observed
average per-period rate and re-evaluates the very
:class:`~repro.solver.expressions.LinearConstraint` objects the contracts were
compiled from — assumptions (what the environment owed the components) and
guarantees (what the components promised) are reported separately, so a breach
names who broke the deal.

Two measurement conventions keep the binding faithful:

* The **traffic-system contract** is evaluated over *all* complete periods
  (counts / periods): its bounds (stock, capacity) are whole-run quantities.
* The **workload contract** divides demand over the *effective* periods
  (``num_periods - warmup``), so its observed rates use the same denominator —
  otherwise a correct plan would be flagged for its warm-up transient.

Counting over a finite window leaves O(1) units "in flight" per constraint
(agents mid-component at the window edges), so each traffic-contract
constraint is checked with a slack of a few units spread over the measured
periods: the largest component capacity + 1 per window.  The workload
contract is checked with *zero* slack: served units are cumulative events, so
its ≥-rate guarantees must hold exactly once the demand is serviced.

Besides the post-hoc contract evaluation, the monitor runs *live*: attached to
the engine it re-checks the hard per-period capacity assumption at every
period boundary and stamps the first violating tick.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..contracts import AGContract
from ..solver.expressions import LinearConstraint, Variable
from ..traffic.system import TrafficSystem
from ..warehouse.workload import Workload
from .engine import PRIORITY_MONITORS, SimulationEngine
from .telemetry import SimulationTrace, TraceRecorder

#: Flow-variable name grammar shared with :mod:`repro.core.flow_variables`.
_VARIABLE_RE = re.compile(r"^(f|loaded|empty|fin|fout|pickups|dropoffs)\[([\d,]+)\]$")

ASSUMPTION = "assumption"
GUARANTEE = "guarantee"
SERVICE = "workload-service"
LIVE_CAPACITY = "live-capacity"


class MonitorError(ValueError):
    """Raised when a contract variable cannot be bound to a trace observable."""


@dataclass(frozen=True)
class MonitorViolation:
    """One observed breach of a monitored contract constraint."""

    contract: str
    constraint: str
    kind: str
    amount: float
    detail: str
    tick: Optional[int] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f" @ t={self.tick}" if self.tick is not None else ""
        return f"[{self.kind}] {self.contract}/{self.constraint}{where}: {self.detail}"


@dataclass
class MonitorReport:
    """Outcome of checking the contracts against one trace."""

    violations: List[MonitorViolation]
    constraints_checked: int
    periods_measured: int
    effective_periods: int

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def num_violations(self) -> int:
        return len(self.violations)

    def violations_of_kind(self, kind: str) -> List[MonitorViolation]:
        return [v for v in self.violations if v.kind == kind]

    def summary(self) -> str:
        status = (
            "all contracts honored"
            if self.ok
            else f"{self.num_violations} violation(s): "
            + ", ".join(
                f"{len(self.violations_of_kind(k))} {k}"
                for k in (ASSUMPTION, GUARANTEE, SERVICE, LIVE_CAPACITY)
                if self.violations_of_kind(k)
            )
        )
        return (
            f"contract monitor: {status} "
            f"({self.constraints_checked} constraints over {self.periods_measured} periods)"
        )


@dataclass
class ContractMonitor:
    """Checks compiled contracts against a simulation trace.

    Parameters
    ----------
    system:
        The traffic system the contracts were compiled for (names and
        capacities for diagnostics and the live capacity check).
    traffic_contract, demand_contract:
        The contracts produced by the synthesis stage
        (:attr:`~repro.core.flow_synthesis.FlowSynthesisResult.traffic_contract`
        / ``workload_contract``).  Either may be ``None`` to skip it.
    warmup_periods:
        The warm-up margin the workload contract was compiled with.
    """

    system: TrafficSystem
    traffic_contract: Optional[AGContract] = None
    demand_contract: Optional[AGContract] = None
    warmup_periods: int = 0
    live_violations: List[MonitorViolation] = field(default_factory=list)
    _live_seen: Dict[Tuple[int, int], int] = field(default_factory=dict)

    # -- live monitoring ---------------------------------------------------------
    def attach(
        self, engine: SimulationEngine, recorder: TraceRecorder, cycle_time: int
    ) -> None:
        """Re-check the per-period capacity assumption at every period boundary."""

        def check_period() -> None:
            now = engine.now
            period = now // cycle_time - 1
            if period < 0 or period >= recorder.periods:
                return
            entries = recorder.entries_per_component(period)
            for index in sorted(entries):
                component = self.system.component(index)
                entered = entries[index]
                if entered > component.capacity:
                    key = (index, period)
                    if key in self._live_seen:
                        continue
                    self._live_seen[key] = now
                    violation = MonitorViolation(
                        contract=f"component[{component.name}]",
                        constraint=f"capacity[{component.name}]",
                        kind=LIVE_CAPACITY,
                        amount=float(entered - component.capacity),
                        detail=(
                            f"{entered} agents entered in period {period} "
                            f"(capacity {component.capacity})"
                        ),
                        tick=now,
                    )
                    self.live_violations.append(violation)
                    from ..obs import emit_event, get_registry

                    get_registry().counter(
                        "repro_contract_breach_total",
                        "Live contract breaches observed by the sim monitors",
                        kind=LIVE_CAPACITY,
                    ).inc()
                    emit_event(
                        "contract.breach",
                        "sim",
                        level="error",
                        message=violation.detail,
                        contract=violation.contract,
                        amount=violation.amount,
                        tick=now,
                    )

        engine.every(cycle_time, check_period, PRIORITY_MONITORS, start=cycle_time)

    # -- post-hoc evaluation -------------------------------------------------------
    def evaluate(
        self, trace: SimulationTrace, workload: Optional[Workload] = None
    ) -> MonitorReport:
        periods = max(1, trace.periods)
        effective = max(1, periods - self.warmup_periods)
        slack = float(max(c.capacity for c in self.system.components) + 1)
        violations: List[MonitorViolation] = list(self.live_violations)
        checked = 0

        # Drop-off variables bind to physical hand-offs in the traffic
        # contract (its flow meaning) and to completed station services in
        # the workload contract (its end-to-end meaning).
        observed = _observed(trace)
        if self.traffic_contract is not None:
            assignment = self._bind(self.traffic_contract, observed, float(periods))
            checked += self._check(
                self.traffic_contract, assignment, slack / periods, violations
            )
        if self.demand_contract is not None:
            assignment = self._bind(
                self.demand_contract,
                dict(observed, **_dropoff_totals(trace.served)),
                float(effective),
            )
            # No window slack here: served counts are cumulative events, so a
            # serviced workload satisfies its ≥-rate guarantees exactly, and
            # any in-flight allowance would swallow the (small) per-product
            # demand rates and make these checks vacuous.
            checked += self._check(self.demand_contract, assignment, 0.0, violations)
        if workload is not None:
            checked += self._check_service(workload, trace, violations)

        return MonitorReport(
            violations=violations,
            constraints_checked=checked,
            periods_measured=periods,
            effective_periods=effective,
        )

    # -- variable binding ----------------------------------------------------------
    def _bind(
        self,
        contract: AGContract,
        observed: Mapping[str, Mapping[Tuple[int, ...], int]],
        denominator: float,
    ) -> Dict[Variable, float]:
        """Observed average per-period rate of every contract variable.

        ``observed`` holds the trace's totals per variable family, keyed by
        the variable's indices (see :func:`_observed`).  Its few hundred keys
        are named once, the way the flow variables are, and each variable is
        looked up by name; one nothing was observed for binds to 0.
        """
        counts = {
            f"{family}[{','.join(map(str, indices))}]": count
            for family, table in observed.items()
            for indices, count in table.items()
            # Off-component hand-offs and pickups (index -1) name no variable.
            if min(indices) >= 0
        }
        assignment: Dict[Variable, float] = {}
        for variable in contract.variables:
            count = counts.get(variable.name)
            if count is None:
                if _VARIABLE_RE.match(variable.name) is None:
                    raise MonitorError(
                        f"contract variable {variable.name!r} is not a flow variable; "
                        "the monitor only understands flow-synthesis contracts"
                    )
                count = 0
            assignment[variable] = count / denominator
        return assignment

    def _check(
        self,
        contract: AGContract,
        assignment: Mapping[Variable, float],
        tolerance: float,
        violations: List[MonitorViolation],
    ) -> int:
        checked = 0
        for kind, constraints in (
            (ASSUMPTION, contract.assumptions),
            (GUARANTEE, contract.guarantees),
        ):
            for constraint in constraints:
                checked += 1
                amount = constraint.violation(assignment)
                if amount > tolerance + 1e-9:
                    violations.append(
                        MonitorViolation(
                            contract=contract.name,
                            constraint=constraint.name or repr(constraint),
                            kind=kind,
                            amount=amount,
                            detail=(
                                f"observed rates violate {constraint.name or constraint!r} "
                                f"by {amount:.3f} units/period"
                            ),
                        )
                    )
        return checked

    def _check_service(
        self, workload: Workload, trace: SimulationTrace, violations: List[MonitorViolation]
    ) -> int:
        """Cumulative end-to-end check: every demanded unit served by the horizon."""
        served = trace.served_per_product()
        shortfall = workload.shortfall(served)
        for product, missing in sorted(shortfall.items()):
            violations.append(
                MonitorViolation(
                    contract="workload",
                    constraint=f"service[{product}]",
                    kind=SERVICE,
                    amount=float(missing),
                    detail=(
                        f"product {product}: {served.get(product, 0)} of "
                        f"{workload.demand(product)} demanded units served by the horizon"
                    ),
                )
            )
        return workload.num_requested_products


def _totals(table: Mapping) -> Dict[Tuple[int, ...], int]:
    """Each key's count summed over the periods."""
    return {key: int(counts.sum()) for key, counts in table.items()}


def _per_component(totals: Mapping[Tuple[int, ...], int]) -> Dict[Tuple[int, ...], int]:
    """``(component, product)`` totals summed over the products, keyed ``(component,)``."""
    summed: Dict[Tuple[int, ...], int] = {}
    for (component, _), count in totals.items():
        summed[(component,)] = summed.get((component,), 0) + count
    return summed


def _dropoff_totals(table: Mapping) -> Dict[str, Dict[Tuple[int, ...], int]]:
    fout = _totals(table)
    return {"fout": fout, "dropoffs": _per_component(fout)}


def _observed(trace: SimulationTrace) -> Dict[str, Dict[Tuple[int, ...], int]]:
    """The trace's totals per flow-variable family, keyed by the variable's indices.

    Aggregated in one pass per count table; drop-offs are hand-offs here.
    """
    transitions = _totals(trace.transitions)
    loaded: Dict[Tuple[int, ...], int] = {}
    empty: Dict[Tuple[int, ...], int] = {}
    for (i, j, k), count in transitions.items():
        family = loaded if k != 0 else empty
        family[(i, j)] = family.get((i, j), 0) + count
    pickups = _totals(trace.pickups)
    return {
        "f": transitions,
        "loaded": loaded,
        "empty": empty,
        "fin": pickups,
        "pickups": _per_component(pickups),
        **_dropoff_totals(trace.handoffs),
    }


def monitor_from_synthesis(system: TrafficSystem, synthesis) -> ContractMonitor:
    """Build a monitor from a :class:`~repro.core.flow_synthesis.FlowSynthesisResult`."""
    flow_set = getattr(synthesis, "flow_set", None)
    return ContractMonitor(
        system=system,
        traffic_contract=getattr(synthesis, "traffic_contract", None),
        demand_contract=getattr(synthesis, "workload_contract", None),
        warmup_periods=flow_set.warmup_periods if flow_set is not None else 0,
    )
