"""Metrics over simulated traces: realized vs. synthesized service quality.

Static :mod:`repro.analysis.metrics` scores a *plan*; this module scores an
*execution* — a :class:`~repro.sim.runner.SimulationReport` produced by the
digital twin.  The headline quantity is the realized/synthesized throughput
ratio: 1.0 means the executed system delivers exactly what the contract-based
synthesis promised; below 1.0 quantifies how much the dynamics (service
queues, stochastic arrivals, stockouts) eat into the promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - the runner loads the solver
    from ..sim.runner import SimulationReport


@dataclass(frozen=True)
class SimMetrics:
    """Aggregate statistics of one simulated execution."""

    ticks: int
    num_agents: int
    units_served: int
    units_handed_off: int
    station_backlog: int
    realized_throughput: float
    synthesized_throughput: float
    throughput_ratio: float
    orders_created: int
    orders_served: int
    mean_order_latency: Optional[float]
    p95_order_latency: Optional[float]
    mean_queue_length: float
    max_queue_length: int
    stockouts: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "ticks": self.ticks,
            "num_agents": self.num_agents,
            "units_served": self.units_served,
            "units_handed_off": self.units_handed_off,
            "station_backlog": self.station_backlog,
            "realized_throughput": self.realized_throughput,
            "synthesized_throughput": self.synthesized_throughput,
            "throughput_ratio": self.throughput_ratio,
            "orders_created": self.orders_created,
            "orders_served": self.orders_served,
            "mean_order_latency": (
                -1.0 if self.mean_order_latency is None else self.mean_order_latency
            ),
            "p95_order_latency": (
                -1.0 if self.p95_order_latency is None else self.p95_order_latency
            ),
            "mean_queue_length": self.mean_queue_length,
            "max_queue_length": self.max_queue_length,
            "stockouts": self.stockouts,
        }


def compute_sim_metrics(report: "SimulationReport") -> SimMetrics:
    """Condense a :class:`~repro.sim.runner.SimulationReport` into :class:`SimMetrics`.

    The throughput ratio is the report's own: normalized over the ticks the
    plan promised, so a truncated run is never scored over its shorter span.
    """
    trace = report.trace
    return SimMetrics(
        ticks=trace.ticks,
        num_agents=trace.num_agents,
        units_served=trace.units_served,
        units_handed_off=trace.units_handed_off,
        station_backlog=trace.station_backlog,
        realized_throughput=report.realized_throughput,
        synthesized_throughput=report.synthesized_throughput,
        throughput_ratio=report.throughput_ratio,
        orders_created=trace.orders_created,
        orders_served=trace.orders_served,
        mean_order_latency=trace.mean_order_latency(),
        p95_order_latency=trace.p95_order_latency(),
        mean_queue_length=trace.mean_queue_length(),
        max_queue_length=trace.max_queue_length(),
        stockouts=trace.stockouts,
    )


def throughput_gap_report(metrics: SimMetrics, tolerance: float = 0.1) -> str:
    """One-line verdict on whether execution honored the synthesized promise."""
    if metrics.synthesized_throughput <= 0:
        return "no synthesized flow value to compare against"
    gap = 1.0 - metrics.throughput_ratio
    if abs(gap) <= tolerance:
        return (
            f"realized throughput within {tolerance:.0%} of the synthesized flow "
            f"(ratio {metrics.throughput_ratio:.3f})"
        )
    direction = "below" if gap > 0 else "above"
    return (
        f"realized throughput {abs(gap):.1%} {direction} the synthesized flow "
        f"(ratio {metrics.throughput_ratio:.3f}; backlog {metrics.station_backlog}, "
        f"stockouts {metrics.stockouts})"
    )
