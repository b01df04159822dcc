"""Station and shelf service processes with queues and service-time models.

The realized plan encodes agent *motion* exactly, but a physical warehouse has
a second, slower side: once an agent hands a unit over at a picking station,
a human (or packing machine) still has to process it.  :class:`StationProcess`
models that downstream side as a FIFO queue with ``servers`` parallel servers
and a configurable :class:`ServiceTimeModel`; a unit only counts as *served*
(and can fulfill a customer order) when its service completes.

With the default instantaneous model (``deterministic(0)``) a hand-off is
served in the same tick, so the simulated service trace coincides with the
plan's drop-off events — that is the deterministic digital-twin baseline the
acceptance checks compare against the synthesized flow value.  Slower or
stochastic models back the queue up, which is how under-provisioned stations
are detected by the contract monitor.

Shelf-side, :class:`ShelfProcess` tracks per-row inventory depletion: every
pickup consumes one stocked unit, and picking from an exhausted row is
recorded as a stockout.  Shelf picking takes no extra simulated time — the
agent's traversal of the shelving row (already part of the plan) *is* the
service time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from ..traffic.system import ComponentId, TrafficSystem
from ..warehouse.products import ProductId
from .engine import PRIORITY_STATIONS, SimulationEngine
from .telemetry import TraceRecorder


class ServiceModelError(ValueError):
    """Raised for invalid service-time specifications."""


@dataclass(frozen=True)
class ServiceTimeModel:
    """A distribution of integer service times (in ticks).

    Use the factory methods; ``kind`` is one of ``deterministic`` (constant),
    ``uniform`` (integer-uniform on [lo, hi]) or ``geometric`` (memoryless
    with the given mean, the discrete analogue of exponential service).
    """

    kind: str
    params: Tuple[float, ...]

    @staticmethod
    def deterministic(ticks: int = 0) -> "ServiceTimeModel":
        if ticks < 0:
            raise ServiceModelError("service time must be non-negative")
        return ServiceTimeModel("deterministic", (float(ticks),))

    @staticmethod
    def uniform(lo: int, hi: int) -> "ServiceTimeModel":
        if lo < 0 or hi < lo:
            raise ServiceModelError(f"invalid uniform service range [{lo}, {hi}]")
        return ServiceTimeModel("uniform", (float(lo), float(hi)))

    @staticmethod
    def geometric(mean: float) -> "ServiceTimeModel":
        # Draws are >= 1 tick, so a mean below 1 is unrealizable (it would
        # silently clamp to a constant 1 and misreport the configured load).
        if mean < 1:
            raise ServiceModelError(
                f"geometric service mean must be at least 1 tick, got {mean:g}"
            )
        return ServiceTimeModel("geometric", (float(mean),))

    @property
    def mean(self) -> float:
        if self.kind == "uniform":
            return (self.params[0] + self.params[1]) / 2.0
        return self.params[0]

    @property
    def is_instant(self) -> bool:
        return self.kind == "deterministic" and self.params[0] == 0.0

    def sample(self, rng: np.random.Generator) -> int:
        if self.kind == "deterministic":
            return int(self.params[0])
        if self.kind == "uniform":
            lo, hi = int(self.params[0]), int(self.params[1])
            return int(rng.integers(lo, hi + 1))
        # geometric on {1, 2, ...}: mean m gives success probability 1/m.
        return int(rng.geometric(1.0 / self.params[0]))

    def describe(self) -> str:
        if self.kind == "deterministic":
            return f"deterministic({int(self.params[0])})"
        if self.kind == "uniform":
            return f"uniform({int(self.params[0])}, {int(self.params[1])})"
        return f"geometric(mean={self.params[0]:g})"


class StationProcess:
    """One station-queue component's packing process: FIFO queue + servers."""

    def __init__(
        self,
        engine: SimulationEngine,
        component_id: ComponentId,
        recorder: TraceRecorder,
        service_model: ServiceTimeModel,
        servers: int = 1,
        order_book=None,
    ) -> None:
        if servers <= 0:
            raise ServiceModelError("a station needs at least one server")
        self.engine = engine
        self.component_id = component_id
        self.recorder = recorder
        self.service_model = service_model
        self.servers = servers
        self.order_book = order_book
        self._waiting: Deque[ProductId] = deque()
        self._in_service = 0
        self.units_received = 0
        self.units_served = 0
        #: Outage switch (see :mod:`repro.sim.disruptions`): while offline the
        #: station accepts hand-offs but starts no new services; in-flight
        #: services run to completion (a packer finishes the unit in hand).
        self.online = True

    # -- queue state --------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Units handed over but not yet fully served (waiting + in service)."""
        return len(self._waiting) + self._in_service

    @property
    def backlog(self) -> int:
        return self.queue_length

    # -- events -------------------------------------------------------------------
    def handoff(self, product: ProductId) -> None:
        """An agent dropped ``product`` at this station's vertex this tick."""
        self.units_received += 1
        self.recorder.record_handoff(self.engine.now, self.component_id, product)
        self._waiting.append(product)
        self._report_queue()
        self._try_start()

    def go_offline(self) -> None:
        """Station outage begins: stop starting new services."""
        self.online = False

    def go_online(self) -> None:
        """Outage over: resume draining the queue this tick."""
        self.online = True
        self._try_start()

    def _report_queue(self) -> None:
        # Only hand-offs and completions change the length (starting a
        # service moves a unit within it), so the trace's per-tick series
        # needs a report at these two events alone.
        self.recorder.record_queue_length(
            self.engine.now, self.component_id, self.queue_length
        )

    def _try_start(self) -> None:
        while self.online and self._waiting and self._in_service < self.servers:
            product = self._waiting.popleft()
            self._in_service += 1
            delay = self.service_model.sample(self.engine.rng)
            self.engine.schedule(
                delay, lambda p=product: self._complete(p), PRIORITY_STATIONS
            )

    def _complete(self, product: ProductId) -> None:
        self._in_service -= 1
        self.units_served += 1
        self._report_queue()
        self.recorder.record_served(self.engine.now, self.component_id, product)
        if self.order_book is not None:
            self.order_book.unit_served(product, self.engine.now)
        self._try_start()


class ShelfProcess:
    """Inventory tracking of one shelving-row component."""

    def __init__(
        self,
        component_id: ComponentId,
        recorder: TraceRecorder,
        stock: Dict[ProductId, int],
    ) -> None:
        self.component_id = component_id
        self.recorder = recorder
        self.stock = dict(stock)
        self.units_picked = 0
        self.stockouts = 0

    def pick(self, product: ProductId, now: int) -> bool:
        """Consume one unit of ``product``; False (and a stockout) when exhausted."""
        remaining = self.stock.get(product, 0)
        if remaining <= 0:
            self.stockouts += 1
            return False
        self.stock[product] = remaining - 1
        self.units_picked += 1
        self.recorder.record_pickup(now, self.component_id, product)
        return True


def build_station_processes(
    engine: SimulationEngine,
    system: TrafficSystem,
    recorder: TraceRecorder,
    service_model: ServiceTimeModel,
    servers_per_station: Optional[int] = None,
    order_book=None,
) -> Dict[ComponentId, StationProcess]:
    """One :class:`StationProcess` per station-queue component.

    ``servers_per_station=None`` sizes each station by its number of station
    vertices (every physical picking station is one server).
    """
    processes: Dict[ComponentId, StationProcess] = {}
    for component in system.station_queues():
        if servers_per_station is None:
            servers = max(1, len(system.station_vertices_in(component.index)))
        else:
            servers = servers_per_station
        processes[component.index] = StationProcess(
            engine=engine,
            component_id=component.index,
            recorder=recorder,
            service_model=service_model,
            servers=servers,
            order_book=order_book,
        )
    return processes


def build_shelf_processes(
    system: TrafficSystem, recorder: TraceRecorder
) -> Dict[ComponentId, ShelfProcess]:
    """One :class:`ShelfProcess` per shelving row, seeded from the live stock."""
    processes: Dict[ComponentId, ShelfProcess] = {}
    table = system.units_table()
    for component in system.shelving_rows():
        units = table[component.index]
        stock = {
            product: units[product]
            for product in system.warehouse.catalog.product_ids
            if units[product] > 0
        }
        processes[component.index] = ShelfProcess(component.index, recorder, stock)
    return processes
