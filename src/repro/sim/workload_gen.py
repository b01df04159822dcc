"""Stochastic order workloads layered over :mod:`repro.warehouse.workload`.

The static side of the methodology compresses demand into one vector ``w``;
the digital twin re-expands it into an *order stream* arriving over simulated
time.  Two generators are provided:

* :class:`DeterministicOrderStream` — every demanded unit is an order present
  at tick 0 (the exact semantics of the paper's WSP instance; the acceptance
  baseline).
* :class:`PoissonOrderStream` — orders arrive as a Poisson process at a
  configurable rate, each requesting one unit of a product drawn from a
  product-mix distribution (by default the workload's demand mix).  All
  randomness comes from the engine's seeded generator, so streams are
  reproducible.

The :class:`OrderBook` matches served units to orders FIFO per product and
records per-order fulfillment latency.  Units served with no order waiting are
banked as buffer stock (the realized plans deliberately over-deliver), so a
later order for that product is fulfilled instantly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..warehouse.products import ProductId
from ..warehouse.workload import Workload
from .engine import PRIORITY_ARRIVALS, SimulationEngine
from .telemetry import TraceRecorder


class OrderStreamError(ValueError):
    """Raised for invalid order-stream specifications."""


@dataclass
class Order:
    """One customer order for a single unit of one product."""

    order_id: int
    product: ProductId
    arrival: int
    fulfilled: Optional[int] = None

    @property
    def latency(self) -> Optional[int]:
        if self.fulfilled is None:
            return None
        return self.fulfilled - self.arrival


class OrderBook:
    """FIFO matching of served units to orders, with over-delivery banking."""

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder
        self.orders: List[Order] = []
        self._pending: Dict[ProductId, Deque[Order]] = {}
        self._buffer: Dict[ProductId, int] = {}

    # -- arrivals -----------------------------------------------------------------
    def add_order(self, product: ProductId, now: int) -> Order:
        order = Order(order_id=len(self.orders), product=product, arrival=now)
        self.orders.append(order)
        self.recorder.record_order_created(now, order.order_id, product)
        banked = self._buffer.get(product, 0)
        if banked > 0:
            self._buffer[product] = banked - 1
            self._fulfill(order, now)
        else:
            self._pending.setdefault(product, deque()).append(order)
        return order

    # -- service ------------------------------------------------------------------
    def unit_served(self, product: ProductId, now: int) -> Optional[Order]:
        """A station finished one unit of ``product``; fulfill the oldest order."""
        queue = self._pending.get(product)
        if queue:
            order = queue.popleft()
            self._fulfill(order, now)
            return order
        self._buffer[product] = self._buffer.get(product, 0) + 1
        return None

    def _fulfill(self, order: Order, now: int) -> None:
        order.fulfilled = now
        self.recorder.record_order_fulfilled(
            now, order.order_id, order.product, order.latency or 0
        )

    # -- state --------------------------------------------------------------------
    @property
    def num_orders(self) -> int:
        return len(self.orders)

    @property
    def num_pending(self) -> int:
        return sum(len(q) for q in self._pending.values())

    def buffered_units(self) -> int:
        return sum(self._buffer.values())


def product_mix_from_workload(workload: Workload) -> Tuple[Tuple[ProductId, ...], np.ndarray]:
    """The workload's demand vector as a sampling distribution over products."""
    products = workload.requested_products()
    if not products:
        raise OrderStreamError("the workload demands no products; nothing to sample")
    weights = np.array([workload.demand(p) for p in products], dtype=float)
    return products, weights / weights.sum()


class DeterministicOrderStream:
    """All demanded units arrive as orders at tick 0, round-robin over products.

    The interleaving mirrors the delivery schedule's product interleaving so
    early deliveries fulfill early orders of every product.
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload

    def bind(self, engine: SimulationEngine, book: OrderBook) -> None:
        remaining = dict(self.workload.as_dict())

        def emit_all() -> None:
            while remaining:
                for product in sorted(list(remaining)):
                    book.add_order(product, engine.now)
                    remaining[product] -= 1
                    if remaining[product] == 0:
                        del remaining[product]

        engine.schedule_at(0, emit_all, PRIORITY_ARRIVALS)

    def describe(self) -> str:
        return f"deterministic({self.workload.total_units} orders at t=0)"


class PoissonOrderStream:
    """Poisson order arrivals with product-mix sampling.

    Parameters
    ----------
    rate:
        Expected orders per tick (λ of the per-tick Poisson draw).
    workload:
        Source of the product mix (and of nothing else — total volume is
        governed by ``rate`` and the horizon).
    mix:
        Explicit ``(products, probabilities)`` overriding the workload mix.
    until:
        Last arrival tick (inclusive); ``None`` keeps arriving as long as the
        engine runs.
    """

    def __init__(
        self,
        rate: float,
        workload: Optional[Workload] = None,
        mix: Optional[Tuple[Sequence[ProductId], Sequence[float]]] = None,
        until: Optional[int] = None,
    ) -> None:
        if not rate > 0:  # also rejects NaN
            raise OrderStreamError(f"arrival rate must be positive, got {rate}")
        if mix is not None:
            products, probs = mix
            probabilities = np.asarray(probs, dtype=float)
            if len(products) != len(probabilities) or not len(products):
                raise OrderStreamError("mix products and probabilities must align")
            probabilities = probabilities / probabilities.sum()
            self.products: Tuple[ProductId, ...] = tuple(int(p) for p in products)
            self.probabilities = probabilities
        elif workload is not None:
            self.products, self.probabilities = product_mix_from_workload(workload)
        else:
            raise OrderStreamError("provide either a workload or an explicit mix")
        self.rate = float(rate)
        self.until = until

    def bind(self, engine: SimulationEngine, book: OrderBook) -> None:
        def tick() -> None:
            count = int(engine.rng.poisson(self.rate))
            if count > 0:
                choices = engine.rng.choice(
                    len(self.products), size=count, p=self.probabilities
                )
                for index in choices:
                    book.add_order(self.products[int(index)], engine.now)

        engine.every(1, tick, PRIORITY_ARRIVALS, start=0, until=self.until)

    def describe(self) -> str:
        horizon = "∞" if self.until is None else str(self.until)
        return (
            f"poisson(rate={self.rate:g}/tick over {len(self.products)} products, "
            f"until t={horizon})"
        )
