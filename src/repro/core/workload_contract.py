"""The workload contract (Sec. IV-D of the paper).

A workload contract makes no assumptions and guarantees that, for every
product ``ρk`` with demand ``w_k``, the total per-period station drop-off flow
is at least ``w_k / q_c`` where ``q_c`` is the number of cycle periods that
fit in the timestep limit ``T``.

We additionally support a *warm-up margin*: the realization's agent cycles
only start delivering once their pipelines are primed, so the pipeline
reserves ``warmup_periods`` periods by dividing the demand over
``q_c - warmup_periods`` periods instead.  With agent preloading enabled
(see :mod:`repro.core.realization`) one period of margin is enough to cover
every rounding and start-up effect; setting the margin to zero recovers the
paper's formula verbatim.
"""

from __future__ import annotations

from ..contracts import AGContract
from ..solver.expressions import GE, add_terms, linear_row
from ..warehouse.workload import Workload
from .flow_variables import FlowVariablePool


class WorkloadContractError(ValueError):
    """Raised when a workload cannot be expressed for the given horizon."""


def workload_contract(
    pool: FlowVariablePool,
    workload: Workload,
    num_periods: int,
    warmup_periods: int = 0,
) -> AGContract:
    """Build the workload contract ``˜C_w`` for ``num_periods`` cycle periods."""
    if num_periods <= 0:
        raise WorkloadContractError(
            "the timestep limit T is shorter than a single cycle period; "
            "increase T or reduce the longest component"
        )
    effective = num_periods - warmup_periods
    if effective <= 0:
        raise WorkloadContractError(
            f"warm-up margin ({warmup_periods} periods) leaves no usable periods "
            f"out of {num_periods}"
        )
    guarantees = tuple(
        linear_row(
            add_terms({}, pool.product_dropoffs.get(product, ()), 1.0),
            GE,
            workload.demand(product) / effective,
            f"workload[{product}]",
        )
        for product in workload.requested_products()
    )
    return AGContract(name="workload", assumptions=(), guarantees=guarantees)
