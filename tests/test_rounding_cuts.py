"""The rounding cuts change how fast HiGHS proves the optimum, not the optimum.

``_build_model`` appends ``pickup-rounding[k]`` rows (Σ_{r∈R_k} pickups[r] ≥
⌈w_k / effective⌉) to the aggregate MILP.  ``reference_contracts.build_model``
keeps the model without them.  On every instance both models must reach the
same status and objective, and the uncut model's integer solution must
satisfy every cut row: a valid cut removes only fractional points.

The same instances pin ``solve_model``'s HiGHS options: the cut model solved
by ``milp`` at HiGHS's defaults reaches the same status and an objective
within 1e-6 (another optimal vertex can read 21.000000000000004 for 21.0).
"""

import pytest

import reference_contracts as reference

from repro.core import FlowVariablePool, SynthesisOptions
from repro.core.flow_synthesis import _build_model
from repro.experiments.generator import mix_suite, scaling_suite, smoke_suite
from repro.maps import MAP_REGISTRY, toy_warehouse
from repro.solver import scipy_backend, solve_model
from repro.warehouse import Workload

#: (label, map preset or None for the toy map, units, horizon, objective).
MAP_INSTANCES = [("toy-8", None, 8, 600, "min_carrying")] + [
    (f"{map_name}-{units}", map_name, units, 1500, "min_agents")
    for map_name, workloads in (
        ("sorting-center-small", (16, 32, 48)),
        ("fulfillment-1-small", (24, 36, 48)),
        ("fulfillment-2-small", (36, 48, 60)),
    )
    for units in workloads
]
SUITE_SPECS = {spec.label: spec for spec in smoke_suite(0) + mix_suite(0) + scaling_suite(0)}


def _designed(map_name):
    if map_name is None:
        return toy_warehouse()
    built = MAP_REGISTRY[map_name]()
    return getattr(built, "designed", built)


def _solve_at_highs_defaults(model):
    """``solve_model`` without the options it adds to ``time_limit``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy_backend, "_HIGHS_OPTIONS", {})
        return solve_model(model)


def _check_same_optimum(system, workload, horizon, objective):
    options = SynthesisOptions(objective=objective)
    num_periods = horizon // system.cycle_time(options.cycle_time_factor)
    warmup = options.resolve_warmup(system, num_periods)
    pool = FlowVariablePool.for_workload(system, workload)
    cut = _build_model(pool, workload, num_periods, warmup, objective)
    uncut = reference.build_model(pool, workload, num_periods, warmup, objective)
    cuts = [c for c in cut.constraints if c.name.startswith("pickup-rounding")]
    assert cut.num_constraints == uncut.num_constraints + len(cuts)
    with_cuts, without = solve_model(cut), solve_model(uncut)
    assert with_cuts.status == without.status
    assert with_cuts.objective == without.objective
    defaults = _solve_at_highs_defaults(cut)
    assert with_cuts.status == defaults.status
    assert with_cuts.objective == pytest.approx(defaults.objective, abs=1e-6)
    if without.status.has_solution:
        violated = [c.name for c in cuts if not c.is_satisfied(without.values)]
        assert violated == []
    return cuts


@pytest.mark.parametrize(
    "map_name, units, horizon, objective",
    [instance[1:] for instance in MAP_INSTANCES],
    ids=[instance[0] for instance in MAP_INSTANCES],
)
def test_map_instances_keep_their_optimum(map_name, units, horizon, objective):
    designed = _designed(map_name)
    workload = Workload.uniform(designed.warehouse.catalog, units)
    cuts = _check_same_optimum(designed.traffic_system, workload, horizon, objective)
    assert cuts or map_name is None


@pytest.mark.parametrize("label", sorted(SUITE_SPECS))
def test_suite_scenarios_keep_their_optimum(label):
    spec = SUITE_SPECS[label]
    designed, workload = spec.build()
    _check_same_optimum(designed.traffic_system, workload, spec.horizon, spec.objective)
