"""JSON serialization of warehouses, traffic systems, workloads and plans.

The schemas are deliberately simple and explicit (plain dictionaries with a
``"schema"`` tag and a version), so solutions computed by the pipeline can be
archived, diffed and re-validated without the library that produced them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from ..traffic.system import TrafficSystem
from ..warehouse.floorplan import FloorplanGraph
from ..warehouse.grid import GridMap
from ..warehouse.plan import Plan
from ..warehouse.products import LocationMatrix, ProductCatalog
from ..warehouse.warehouse import Warehouse
from ..warehouse.workload import Workload

PathLike = Union[str, Path]

SCHEMA_VERSION = 1


class SerializationError(ValueError):
    """Raised when loading malformed documents."""


def _check_schema(document: Dict, expected: str) -> None:
    if document.get("schema") != expected:
        raise SerializationError(
            f"expected a {expected!r} document, got {document.get('schema')!r}"
        )


# -- warehouse ----------------------------------------------------------------

def warehouse_to_dict(warehouse: Warehouse) -> Dict:
    grid = warehouse.grid
    if grid is None:
        raise SerializationError("only grid-backed warehouses can be serialized")
    stock_entries: List[List[int]] = []
    matrix = warehouse.stock
    for product in warehouse.catalog.product_ids:
        for vertex in matrix.vertices_with(product):
            cell = warehouse.floorplan.cell_of(vertex)
            stock_entries.append([product, cell[0], cell[1], matrix.units_at(product, vertex)])
    return {
        "schema": "warehouse",
        "version": SCHEMA_VERSION,
        "name": warehouse.name,
        "grid": grid.to_ascii(),
        "products": list(warehouse.catalog.names),
        "stock": stock_entries,
    }


def warehouse_from_dict(document: Dict) -> Warehouse:
    _check_schema(document, "warehouse")
    grid = GridMap.from_ascii(document["grid"], name=document.get("name", "warehouse"))
    floorplan = FloorplanGraph.from_grid(grid)
    catalog = ProductCatalog(tuple(document["products"]))
    stock = LocationMatrix(catalog, floorplan)
    for product, x, y, units in document["stock"]:
        stock.place(int(product), floorplan.vertex_at((int(x), int(y))), int(units))
    return Warehouse(
        floorplan=floorplan, catalog=catalog, stock=stock, name=document.get("name", "")
    )


# -- traffic system --------------------------------------------------------------

def traffic_system_to_dict(system: TrafficSystem) -> Dict:
    floorplan = system.floorplan
    return {
        "schema": "traffic-system",
        "version": SCHEMA_VERSION,
        "name": system.name,
        "warehouse": warehouse_to_dict(system.warehouse),
        "components": [
            {
                "name": component.name,
                "cells": [list(floorplan.cell_of(v)) for v in component.vertices],
            }
            for component in system.components
        ],
        "connections": [
            [system.component(i).name, system.component(j).name] for i, j in system.edges()
        ],
    }


def traffic_system_from_dict(document: Dict) -> TrafficSystem:
    _check_schema(document, "traffic-system")
    warehouse = warehouse_from_dict(document["warehouse"])
    cell_paths = [
        (entry["name"], [tuple(cell) for cell in entry["cells"]])
        for entry in document["components"]
    ]
    connections = [tuple(pair) for pair in document["connections"]]
    return TrafficSystem.from_cell_paths(
        warehouse, cell_paths, connections, name=document.get("name", "traffic-system")
    )


# -- workload ----------------------------------------------------------------------

def workload_to_dict(workload: Workload) -> Dict:
    return {
        "schema": "workload",
        "version": SCHEMA_VERSION,
        "demands": list(workload.demands),
    }


def workload_from_dict(document: Dict) -> Workload:
    _check_schema(document, "workload")
    return Workload(tuple(int(d) for d in document["demands"]))


# -- plan ---------------------------------------------------------------------------

def plan_to_dict(plan: Plan) -> Dict:
    return {
        "schema": "plan",
        "version": SCHEMA_VERSION,
        "positions": plan.positions.tolist(),
        "carrying": plan.carrying.tolist(),
        "metadata": dict(plan.metadata),
        "warehouse": warehouse_to_dict(plan.warehouse),
    }


def plan_from_dict(document: Dict) -> Plan:
    _check_schema(document, "plan")
    warehouse = warehouse_from_dict(document["warehouse"])
    return Plan(
        positions=np.asarray(document["positions"], dtype=np.int64),
        carrying=np.asarray(document["carrying"], dtype=np.int64),
        warehouse=warehouse,
        metadata={k: float(v) for k, v in document.get("metadata", {}).items()},
    )


# -- simulation trace ------------------------------------------------------------------

def _keyed_counts_to_list(table: Dict) -> List[List]:
    """``{key_tuple: per-period ndarray} -> [[*key, [counts...]], ...]`` (sorted)."""
    return [
        [*key, [int(c) for c in counts]] for key, counts in sorted(table.items())
    ]


def _keyed_counts_from_list(entries: List[List], key_width: int) -> Dict:
    table = {}
    for entry in entries:
        key = tuple(int(i) for i in entry[:key_width])
        table[key] = np.asarray(entry[key_width], dtype=np.int64)
    return table


def resilience_to_dict(report) -> Dict:
    """Serialize a :class:`~repro.sim.disruptions.ResilienceReport`."""
    return {"schema": "sim-resilience", "version": SCHEMA_VERSION, **report.to_dict()}


def resilience_from_dict(document: Dict):
    """Rebuild a :class:`~repro.sim.disruptions.ResilienceReport`."""
    from ..sim.disruptions import ResilienceReport  # local: io stays import-light

    _check_schema(document, "sim-resilience")
    return ResilienceReport.from_dict(
        {k: v for k, v in document.items() if k not in ("schema", "version")}
    )


def trace_to_dict(trace) -> Dict:
    """Serialize a :class:`~repro.sim.telemetry.SimulationTrace`.

    The event log is included when the trace carries one, so archived traces
    remain byte-comparable determinism witnesses.  The resilience section is
    only present for disrupted runs — nominal traces keep the pre-disruption
    schema byte for byte.
    """
    document = {
        "schema": "sim-trace",
        "version": SCHEMA_VERSION,
        "ticks": trace.ticks,
        "num_agents": trace.num_agents,
        "cycle_time": trace.cycle_time,
        "seed": trace.seed,
        "periods": trace.periods,
        "visits": [int(v) for v in trace.visits],
        "transitions": _keyed_counts_to_list(trace.transitions),
        "pickups": _keyed_counts_to_list(trace.pickups),
        "handoffs": _keyed_counts_to_list(trace.handoffs),
        "served": _keyed_counts_to_list(trace.served),
        "queue_samples": [
            [int(component), [int(s) for s in samples]]
            for component, samples in sorted(trace.queue_samples.items())
        ],
        "order_latencies": [int(l) for l in trace.order_latencies],
        "orders_created": trace.orders_created,
        "orders_served": trace.orders_served,
        "units_picked": trace.units_picked,
        "units_preloaded": trace.units_preloaded,
        "units_handed_off": trace.units_handed_off,
        "units_served": trace.units_served,
        "stockouts": trace.stockouts,
        "events": None if trace.events is None else [list(e) for e in trace.events],
        # Realized per-agent vertex paths (grid-routed runs); None for
        # abstract replay, where the archived plan already holds the motion.
        "agent_paths": (
            None
            if trace.agent_paths is None
            else [[int(v) for v in path] for path in trace.agent_paths]
        ),
        "metadata": {k: float(v) for k, v in trace.metadata.items()},
    }
    if trace.resilience is not None:
        document["resilience"] = resilience_to_dict(trace.resilience)
    if trace.obs is not None:
        # Observability section: present only for traced runs, so untraced
        # trace documents stay byte-identical to the pre-obs schema.
        document["obs"] = trace.obs
    return document


def trace_from_dict(document: Dict):
    """Rebuild a :class:`~repro.sim.telemetry.SimulationTrace` from a document."""
    from ..sim.telemetry import SimulationTrace  # local: io stays import-light

    _check_schema(document, "sim-trace")
    events = document.get("events")
    agent_paths = document.get("agent_paths")
    resilience = document.get("resilience")
    return SimulationTrace(
        ticks=int(document["ticks"]),
        num_agents=int(document["num_agents"]),
        cycle_time=int(document["cycle_time"]),
        seed=int(document.get("seed", 0)),
        periods=int(document["periods"]),
        visits=np.asarray(document["visits"], dtype=np.int64),
        transitions=_keyed_counts_from_list(document["transitions"], 3),
        pickups=_keyed_counts_from_list(document["pickups"], 2),
        handoffs=_keyed_counts_from_list(document["handoffs"], 2),
        served=_keyed_counts_from_list(document["served"], 2),
        queue_samples={
            int(component): np.asarray(samples, dtype=np.int64)
            for component, samples in document.get("queue_samples", [])
        },
        order_latencies=[int(l) for l in document.get("order_latencies", [])],
        orders_created=int(document["orders_created"]),
        orders_served=int(document["orders_served"]),
        units_picked=int(document["units_picked"]),
        units_preloaded=int(document.get("units_preloaded", 0)),
        units_handed_off=int(document["units_handed_off"]),
        units_served=int(document["units_served"]),
        stockouts=int(document.get("stockouts", 0)),
        events=None if events is None else [tuple(e) for e in events],
        agent_paths=(
            None
            if agent_paths is None
            else [tuple(int(v) for v in path) for path in agent_paths]
        ),
        resilience=None if resilience is None else resilience_from_dict(resilience),
        metadata={k: float(v) for k, v in document.get("metadata", {}).items()},
        obs=document.get("obs"),
    )


# -- experiment scenarios and run records ---------------------------------------------

#: Schema-envelope keys of a scenario document; everything else is a
#: ScenarioSpec field and is passed to the constructor on load.
_SCENARIO_SKIP_KEYS = ("schema", "version")


def scenario_to_dict(spec) -> Dict:
    """Serialize a :class:`~repro.experiments.scenario.ScenarioSpec`."""
    from dataclasses import asdict

    document = {"schema": "scenario", "version": SCHEMA_VERSION, **asdict(spec)}
    # JSON has no tuple: emit the permutation as a list so documents survive
    # a wire round-trip unchanged (the spec normalizes it back on load).
    document["product_order"] = list(document["product_order"])
    return document


def scenario_from_dict(document: Dict):
    """Rebuild a :class:`~repro.experiments.scenario.ScenarioSpec`."""
    from ..experiments.scenario import ScenarioSpec  # local: io stays import-light

    _check_schema(document, "scenario")
    fields = {k: v for k, v in document.items() if k not in _SCENARIO_SKIP_KEYS}
    try:
        return ScenarioSpec(**fields)
    except TypeError as error:
        raise SerializationError(f"malformed scenario document: {error}") from error


def run_record_to_dict(record) -> Dict:
    """Serialize a :class:`~repro.experiments.store.RunRecord`."""
    return {
        "schema": "experiment-run",
        "version": SCHEMA_VERSION,
        "epoch": int(record.epoch),
        "scenario": scenario_to_dict(record.spec),
        "scenario_id": record.scenario_id,
        "status": record.status,
        "message": record.message,
        "timings": {stage: float(s) for stage, s in sorted(record.timings.items())},
        "num_agents": int(record.num_agents),
        "units_delivered": int(record.units_delivered),
        "plan_feasible": record.plan_feasible,
        "workload_serviced": record.workload_serviced,
        "sim": {key: float(v) for key, v in sorted(record.sim.items())},
    }


def run_record_from_dict(document: Dict):
    """Rebuild a :class:`~repro.experiments.store.RunRecord`."""
    from ..experiments.store import RunRecord  # local: io stays import-light

    _check_schema(document, "experiment-run")
    spec = scenario_from_dict(document["scenario"])
    # The stored "scenario_id" is informational: the id recomputed from the
    # embedded spec is canonical.  The two legitimately diverge when the
    # ScenarioSpec schema has gained fields since the file was written (new
    # defaults change the hash), and an old baseline must stay loadable — the
    # regression comparator then simply treats its runs as unmatched.
    return RunRecord(
        spec=spec,
        status=document["status"],
        message=document.get("message", ""),
        timings={k: float(v) for k, v in document.get("timings", {}).items()},
        num_agents=int(document.get("num_agents", 0)),
        units_delivered=int(document.get("units_delivered", 0)),
        plan_feasible=document.get("plan_feasible"),
        workload_serviced=document.get("workload_serviced"),
        sim={k: float(v) for k, v in document.get("sim", {}).items()},
        # Records written before output epochs existed are from epoch 0.
        epoch=int(document.get("epoch", 0)),
    )


# -- service requests and responses ---------------------------------------------------

def service_request_to_dict(request) -> Dict:
    """Serialize a :class:`~repro.service.api.ServiceRequest`."""
    return {
        "schema": "service-request",
        "version": SCHEMA_VERSION,
        "scenario": scenario_to_dict(request.scenario),
        "timeout_seconds": (
            None if request.timeout_seconds is None else float(request.timeout_seconds)
        ),
        "fresh": bool(request.fresh),
        "tag": str(request.tag),
    }


def service_request_from_dict(document: Dict):
    """Rebuild a :class:`~repro.service.api.ServiceRequest`."""
    from ..service.api import ServiceRequest, ServiceRequestError  # io stays import-light

    _check_schema(document, "service-request")
    timeout = document.get("timeout_seconds")
    try:
        return ServiceRequest(
            scenario=scenario_from_dict(document["scenario"]),
            timeout_seconds=None if timeout is None else float(timeout),
            fresh=bool(document.get("fresh", False)),
            tag=str(document.get("tag", "")),
        )
    except (KeyError, TypeError, ValueError, ServiceRequestError) as error:
        raise SerializationError(f"malformed service request: {error}") from error


def service_response_to_dict(response) -> Dict:
    """Serialize a :class:`~repro.service.api.ServiceResponse`.

    The embedded run record is already a document (the response carries it
    verbatim), so serialization nests it untouched.
    """
    return {
        "schema": "service-response",
        "version": SCHEMA_VERSION,
        "state": response.state,
        "scenario_id": response.scenario_id,
        "request_id": response.request_id,
        "cache": response.cache,
        "record": response.record,
        "message": response.message,
        "tag": response.tag,
        "queue_seconds": float(response.queue_seconds),
        "compute_seconds": float(response.compute_seconds),
        "retry_after_seconds": (
            None
            if response.retry_after_seconds is None
            else float(response.retry_after_seconds)
        ),
        "info": {k: float(v) for k, v in sorted(response.info.items())},
    }


def service_response_from_dict(document: Dict):
    """Rebuild a :class:`~repro.service.api.ServiceResponse`."""
    from ..service.api import ServiceRequestError, ServiceResponse  # io stays import-light

    _check_schema(document, "service-response")
    retry_after = document.get("retry_after_seconds")
    try:
        return ServiceResponse(
            state=document["state"],
            scenario_id=str(document.get("scenario_id", "")),
            request_id=str(document.get("request_id", "")),
            cache=str(document.get("cache", "")),
            record=document.get("record"),
            message=str(document.get("message", "")),
            tag=str(document.get("tag", "")),
            queue_seconds=float(document.get("queue_seconds", 0.0)),
            compute_seconds=float(document.get("compute_seconds", 0.0)),
            retry_after_seconds=None if retry_after is None else float(retry_after),
            info={k: float(v) for k, v in document.get("info", {}).items()},
        )
    except (KeyError, TypeError, ValueError, ServiceRequestError) as error:
        raise SerializationError(f"malformed service response: {error}") from error


# -- file helpers ---------------------------------------------------------------------

def save_json(document: Dict, path: PathLike) -> None:
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True))


def load_json(path: PathLike) -> Dict:
    return json.loads(Path(path).read_text())
