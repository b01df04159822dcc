"""Digests of what the pipeline computes for a fixed set of runs.

The golden tests compare two runs of the same code, and the equivalence
oracles run old and new code on the same plan, so neither notices a change
that makes the pipeline return another plan.  ``output_digests.json`` pins
the outputs themselves.  Per run it keeps the status, the agent count and
sha256 digests of:

* the plan's ``positions`` and ``carrying`` matrices;
* the simulation trace's JSON, event log included;
* the run record's :meth:`~repro.experiments.store.RunRecord.fingerprint`
  (runs described by a :class:`~repro.experiments.scenario.ScenarioSpec`).

The runs are the smoke suite at seed 0, the nine small Table-I presets,
``routing_suite(0)`` (paced) plus one unpaced ECBS run, and three twin
configurations of ``routing_scale_suite(0)[0]`` with Poisson arrivals,
``uniform:2,6`` service and a storm of disruptions.

A change that alters any digest bumps
:data:`~repro.experiments.store.OUTPUT_EPOCH` and regenerates the file::

    PYTHONPATH=src python tests/output_digests.py          # compare, exit 1 on a change
    PYTHONPATH=src python tests/output_digests.py --write  # regenerate

``--write`` refuses to record changed digests under an unchanged epoch.  The
digests hold for the scipy, numpy and HiGHS versions the file names; another
HiGHS build may return another optimal vertex, so on such a host
``tests/test_output_digests.py`` compares only statuses and agent counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

PATH = Path(__file__).with_name("output_digests.json")

#: What one run's entry records.
FIELDS = ("status", "agents", "plan", "trace", "record")

#: The storm of disruptions the twin benchmark replays.
STORM = "breakdown:0.02:12,slowdown:0.02:10,outage:0.01:20,block:0.02:8,surge:0.05:2"

#: The small Table-I presets: (map, units); horizon 1500.
TABLE1_SMALL = [
    (map_name, units)
    for map_name, workloads in (
        ("sorting-center-small", (16, 32, 48)),
        ("fulfillment-1-small", (24, 36, 48)),
        ("fulfillment-2-small", (36, 48, 60)),
    )
    for units in workloads
]


def versions() -> Dict[str, str]:
    """The numerical stack the digests depend on."""
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core as highs

        version = ".".join(
            str(getattr(highs, f"HIGHS_VERSION_{part}")) for part in ("MAJOR", "MINOR", "PATCH")
        )
    except (ImportError, AttributeError):
        version = "unknown"
    return {"highs": version, "numpy": numpy.__version__, "scipy": scipy.__version__}


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def _json_sha(document) -> str:
    return _sha(json.dumps(document, sort_keys=True).encode())


def _plan_sha(plan) -> str:
    digest = hashlib.sha256()
    for matrix in (plan.positions, plan.carrying):
        digest.update(f"{matrix.dtype}{matrix.shape}".encode())
        digest.update(matrix.tobytes())
    return digest.hexdigest()[:16]


def _trace_sha(report) -> str:
    from repro.io import trace_to_dict

    document = trace_to_dict(report.trace)
    document.pop("obs", None)  # span timings of a traced run, not an output
    return _json_sha(document)


def _entry(status: str, agents: int, plan=None, report=None, record=None) -> Dict:
    return {
        "status": status,
        "agents": agents,
        "plan": None if plan is None else _plan_sha(plan),
        "trace": None if report is None else _trace_sha(report),
        "record": None if record is None else _json_sha(record.fingerprint()),
    }


def _spec_entry(spec) -> Dict:
    """One scenario through ``execute_scenario``, then its plan and trace."""
    from repro.core import WSPSolver
    from repro.experiments import RunRecord, execute_scenario, parse_service_time
    from repro.sim.runner import SimulationConfig

    record = RunRecord.from_dict(execute_scenario(spec.to_dict()))
    if not record.ok:
        return _entry(record.status, record.num_agents, record=record)
    designed, workload = spec.build()
    solver = WSPSolver(designed.traffic_system)
    solution = solver.solve(workload, horizon=spec.horizon)
    config = SimulationConfig(
        seed=spec.seed,
        service_time=parse_service_time(spec.service_time),
        arrival_rate=spec.arrival_rate,
        routing=spec.routing_config(),
        disruptions=spec.disruption_config(),
    )
    report = solver.simulate(solution, config)
    return _entry(record.status, record.num_agents, solution.plan, report, record)


def _solution_entry(solution, config) -> Dict:
    report = solution.simulate(config)
    return _entry("ok", solution.num_agents, solution.plan, report)


def compute() -> Dict:
    """Run the fixed set; returns the document ``output_digests.json`` holds."""
    from repro.core import WSPSolver
    from repro.experiments import OUTPUT_EPOCH
    from repro.experiments.generator import routing_scale_suite, routing_suite, smoke_suite
    from repro.maps import MAP_REGISTRY
    from repro.sim.routing import RoutingConfig
    from repro.sim.runner import SimulationConfig
    from repro.warehouse import Workload

    runs: Dict[str, Dict] = {}
    for spec in smoke_suite(0):
        runs[f"smoke:{spec.label}"] = _spec_entry(spec)
    for map_name, units in TABLE1_SMALL:
        built = MAP_REGISTRY[map_name]()
        designed = getattr(built, "designed", built)
        workload = Workload.uniform(designed.warehouse.catalog, units)
        solution = WSPSolver(designed.traffic_system).solve(workload, horizon=1500)
        runs[f"table1:{map_name}-{units}"] = _solution_entry(solution, SimulationConfig())
    routing = routing_suite(0)
    for spec in routing:
        runs[f"routing:{spec.label}"] = _spec_entry(spec)
    designed, workload = routing[0].build()
    solution = WSPSolver(designed.traffic_system).solve(workload, horizon=routing[0].horizon)
    unpaced = SimulationConfig(routing=RoutingConfig(router="ecbs", pace_to_plan=False))
    runs["routing:unpaced-ecbs"] = _solution_entry(solution, unpaced)
    twin = routing_scale_suite(0)[0]
    poisson = dict(arrival_rate=0.05, service_time="uniform:2,6")
    for name, knobs in (
        ("poisson", dict(router="abstract", **poisson)),
        ("poisson-ecbs", poisson),
        ("storm", dict(router="abstract", disruptions=STORM)),
    ):
        runs[f"twin:{name}"] = _spec_entry(replace(twin, name=f"twin/{name}", **knobs))
    return {"epoch": OUTPUT_EPOCH, "versions": versions(), "runs": runs}


def load() -> Optional[Dict]:
    return json.loads(PATH.read_text()) if PATH.exists() else None


def differences(stored: Dict, current: Dict, fields=FIELDS) -> List[str]:
    """One line per run whose ``fields`` differ, or that only one side has."""
    lines = []
    before, after = stored["runs"], current["runs"]
    for name in sorted(set(before) | set(after)):
        if name not in after or name not in before:
            lines.append(f"{name}: {'missing' if name not in after else 'new'}")
            continue
        changed = [key for key in fields if before[name].get(key) != after[name].get(key)]
        if changed:
            lines.append(f"{name}: {', '.join(changed)} changed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {PATH.name}")
    args = parser.parse_args(argv)
    stored, current = load(), compute()
    changes = [] if stored is None else differences(stored, current)
    if stored is not None and stored["versions"] != current["versions"]:
        print(f"note: digests made with {stored['versions']}, this host has {current['versions']}")
    if not args.write:
        if stored is None:
            print(f"{PATH.name} is missing; run with --write")
            return 1
        print("\n".join(changes) if changes else f"all {len(current['runs'])} digests match")
        return 1 if changes else 0
    altered = [line for line in changes if line.endswith(" changed")]  # not new or missing
    if altered and stored["epoch"] == current["epoch"]:
        print("\n".join(altered))
        print(
            f"outputs changed but OUTPUT_EPOCH is still {current['epoch']}: bump it in "
            "src/repro/experiments/store.py and say why in CHANGES.md, then write again"
        )
        return 1
    PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(current['runs'])} digests to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
