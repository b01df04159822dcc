"""Mapping an agent flow set to an agent cycle set (Sec. IV-E of the paper).

The synthesized flow set satisfies loaded / empty-handed flow conservation
(Properties 4.2 / 4.3 in aggregate form), so it decomposes into

* *carrying paths*: unit paths of loaded agent flow starting at a shelving row
  with pickups and ending at a station queue with drop-offs; and
* *empty paths*: unit paths of empty-handed flow from station queues back to
  shelving rows.

Pairing each carrying path with an empty path returning from its drop-off
component to its pickup component yields the paper's agent cycles.  An exact
one-to-one pairing need not exist (only the per-endpoint counts are
guaranteed); when it does not, alternating carrying/empty paths are chained
into longer closed walks — an Eulerian-circuit argument over the "path graph"
(one arc per extracted path) shows the chaining always closes, because at
every component the number of incoming path-arcs equals the number of outgoing
ones.  Throughput is unaffected; DESIGN.md records the deviation.

The product dimension is handled by :func:`build_delivery_schedule`, which
turns the continuous per-product pickup rates into per-shelving-row product
queues (time multiplexing of low-demand products across cycle periods).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..traffic.system import ComponentId, TrafficSystem
from ..warehouse.products import ProductId
from ..warehouse.workload import Workload
from .agent_cycles import (
    DROPOFF,
    PICKUP,
    AgentCycle,
    AgentCycleSet,
    CycleAction,
    CycleError,
    DeliverySchedule,
)
from .flow_synthesis import AgentFlowSet


class DecompositionError(RuntimeError):
    """Raised when a flow set cannot be decomposed (it violates conservation)."""


@dataclass(frozen=True)
class FlowPath:
    """One unit-flow path extracted from the flow set."""

    loaded: bool
    components: Tuple[ComponentId, ...]

    @property
    def start(self) -> ComponentId:
        return self.components[0]

    @property
    def end(self) -> ComponentId:
        return self.components[-1]


# ---------------------------------------------------------------------------
# path extraction
# ---------------------------------------------------------------------------

def _extract_paths(
    system: TrafficSystem,
    edge_flows: Dict[Tuple[ComponentId, ComponentId], int],
    supplies: Dict[ComponentId, int],
    demands: Dict[ComponentId, int],
    loaded: bool,
) -> List[FlowPath]:
    """Decompose one commodity's flow into unit paths from supplies to demands.

    Standard flow decomposition: repeatedly walk from a component with
    remaining supply along arcs with remaining flow until a component with
    remaining demand is reached; circulation loops encountered on the way are
    cancelled so the walk always terminates.
    """
    remaining = dict(edge_flows)
    supplies = dict(supplies)
    demands = dict(demands)
    paths: List[FlowPath] = []
    kind = "loaded" if loaded else "empty"

    def next_hop(component: ComponentId) -> Optional[ComponentId]:
        for outlet in system.outlets_of(component):
            if remaining.get((component, outlet), 0) > 0:
                return outlet
        return None

    for start in sorted(supplies):
        while supplies.get(start, 0) > 0:
            walk = [start]
            positions = {start: 0}
            while True:
                current = walk[-1]
                if demands.get(current, 0) > 0 and len(walk) > 1:
                    break
                hop = next_hop(current)
                if hop is None:
                    raise DecompositionError(
                        f"{kind} flow decomposition stuck at component "
                        f"{system.component(current).name!r}"
                    )
                if hop in positions:
                    # Cancel the circulation loop and continue from its start.
                    # The walk already consumed the loop's other arcs.
                    loop_start = positions[hop]
                    remaining[(current, hop)] -= 1
                    for dropped in walk[loop_start + 1 :]:
                        del positions[dropped]
                    walk = walk[: loop_start + 1]
                    continue
                remaining[(current, hop)] -= 1
                walk.append(hop)
                positions[hop] = len(walk) - 1
            supplies[start] -= 1
            demands[walk[-1]] -= 1
            paths.append(FlowPath(loaded=loaded, components=tuple(walk)))
    return paths


def extract_carrying_paths(flow_set: AgentFlowSet) -> List[FlowPath]:
    """Property 4.2 (aggregate): loaded paths from pickup rows to drop-off queues."""
    supplies = {c: v for c, v in flow_set.pickups.items() if v > 0}
    demands = {c: v for c, v in flow_set.dropoffs.items() if v > 0}
    if sum(supplies.values()) != sum(demands.values()):
        raise DecompositionError(
            f"total pickups per period ({sum(supplies.values())}) do not match "
            f"total drop-offs per period ({sum(demands.values())})"
        )
    return _extract_paths(
        flow_set.system, dict(flow_set.loaded_flows), supplies, demands, loaded=True
    )


def extract_empty_paths(flow_set: AgentFlowSet) -> List[FlowPath]:
    """Property 4.3 (aggregate): empty-handed paths from drop-off queues to pickup rows."""
    supplies = {c: v for c, v in flow_set.dropoffs.items() if v > 0}
    demands = {c: v for c, v in flow_set.pickups.items() if v > 0}
    return _extract_paths(
        flow_set.system, dict(flow_set.empty_flows), supplies, demands, loaded=False
    )


# ---------------------------------------------------------------------------
# cycle formation
# ---------------------------------------------------------------------------

def _chain_paths_into_cycles(
    carrying: Sequence[FlowPath], empty: Sequence[FlowPath]
) -> List[List[FlowPath]]:
    """Chain alternating carrying / empty paths into closed walks.

    Exact pairs (an empty path returning straight to the carrying path's start)
    are preferred, giving the paper's one-pickup/one-drop-off cycles; the
    remainder is chained greedily, which always closes because every
    component's incoming and outgoing path counts balance.
    """
    unused_empty: Dict[ComponentId, List[FlowPath]] = {}
    for path in empty:
        unused_empty.setdefault(path.start, []).append(path)
    unused_carrying: Dict[ComponentId, List[FlowPath]] = {}
    for path in carrying:
        unused_carrying.setdefault(path.start, []).append(path)

    chains: List[List[FlowPath]] = []

    def pop_empty(start: ComponentId, preferred_end: Optional[ComponentId]) -> FlowPath:
        bucket = unused_empty.get(start)
        if not bucket:
            raise DecompositionError(
                f"no empty-return path available from component {start}"
            )
        if preferred_end is not None:
            for i, candidate in enumerate(bucket):
                if candidate.end == preferred_end:
                    return bucket.pop(i)
        return bucket.pop()

    def pop_carrying(start: ComponentId) -> FlowPath:
        bucket = unused_carrying.get(start)
        if not bucket:
            raise DecompositionError(
                f"no carrying path available from component {start}"
            )
        return bucket.pop()

    for start in sorted(unused_carrying):
        while unused_carrying.get(start):
            first = pop_carrying(start)
            chain = [first]
            current_end = first.end
            while True:
                empty_path = pop_empty(current_end, preferred_end=chain[0].start)
                chain.append(empty_path)
                if empty_path.end == chain[0].start:
                    break
                chain.append(pop_carrying(empty_path.end))
                current_end = chain[-1].end
            chains.append(chain)
    leftovers = sum(len(b) for b in unused_carrying.values()) + sum(
        len(b) for b in unused_empty.values()
    )
    if leftovers:
        raise DecompositionError(
            f"{leftovers} extracted paths could not be chained into cycles"
        )
    return chains


def _chain_to_cycle(index: int, chain: Sequence[FlowPath]) -> AgentCycle:
    """Convert an alternating closed chain of paths into an :class:`AgentCycle`.

    Each path contributes all of its components except the last one (which is
    the next path's first).  A carrying path's pickup happens at its first
    component; its drop-off happens at its last component, i.e. at the first
    component of the empty path that follows it in the chain.
    """
    components: List[ComponentId] = []
    actions: List[Optional[CycleAction]] = []
    offsets: List[int] = []
    for path in chain:
        offsets.append(len(components))
        span = path.components[:-1]
        components.extend(span)
        actions.extend([None] * len(span))
    for position, path in enumerate(chain):
        if not path.loaded:
            continue
        actions[offsets[position]] = CycleAction(PICKUP)
        drop_offset = offsets[(position + 1) % len(chain)]
        actions[drop_offset] = CycleAction(DROPOFF)
    return AgentCycle(index=index, components=tuple(components), actions=tuple(actions))


def decompose_flow_set(flow_set: AgentFlowSet) -> AgentCycleSet:
    """Map an agent flow set to an agent cycle set (the paper's Sec. IV-E step)."""
    carrying = extract_carrying_paths(flow_set)
    empty = extract_empty_paths(flow_set)
    chains = _chain_paths_into_cycles(carrying, empty)
    cycles = tuple(_chain_to_cycle(i, chain) for i, chain in enumerate(chains))
    return AgentCycleSet(
        system=flow_set.system,
        cycles=cycles,
        cycle_time=flow_set.cycle_time,
        num_periods=flow_set.num_periods,
    )


# ---------------------------------------------------------------------------
# product scheduling
# ---------------------------------------------------------------------------

def build_delivery_schedule(
    flow_set: AgentFlowSet, workload: Workload
) -> DeliverySchedule:
    """Turn continuous per-product pickup rates into per-row product queues.

    The workload's units are allocated to shelving rows proportionally to the
    synthesized pickup rates (respecting local stock), interleaved so every
    product is served from the first periods, and the remaining pickup slots of
    the horizon are padded with the same product mix so cycles keep delivering.
    """
    stock = flow_set.system.units_table()
    demanded = {k: workload.demand(k) for k in workload.requested_products()}

    # Step 1 — integer allocation of each product's demand to rows.
    allocation: Dict[Tuple[ComponentId, ProductId], int] = {}
    row_capacity: Dict[ComponentId, int] = {
        row: flow_set.num_periods * rate for row, rate in flow_set.pickups.items()
    }
    row_used: Dict[ComponentId, int] = {row: 0 for row in row_capacity}
    for product, demand in demanded.items():
        rates = {
            row: rate
            for (row, p), rate in flow_set.pickup_rates.items()
            if p == product and rate > 0 and row in row_capacity
        }
        if not rates:
            raise DecompositionError(
                f"the flow set never picks up product {product} although it is demanded"
            )
        total_rate = sum(rates.values())
        assigned = 0
        shares: List[Tuple[ComponentId, int]] = []
        for row, rate in sorted(rates.items()):
            share = int(demand * rate / total_rate)
            share = min(share, stock[row][product])
            shares.append((row, share))
            assigned += share
        # Distribute the rounding remainder greedily where stock and capacity allow.
        remainder = demand - assigned
        shares_dict = dict(shares)
        candidates = sorted(rates, key=lambda row: -rates[row])
        index = 0
        while remainder > 0 and candidates:
            row = candidates[index % len(candidates)]
            if (
                shares_dict[row] < stock[row][product]
                and row_used[row] + shares_dict[row] < row_capacity[row]
            ):
                shares_dict[row] += 1
                remainder -= 1
            index += 1
            if index > 10 * len(candidates) * (demand + 1):
                raise DecompositionError(
                    f"could not allocate {remainder} remaining units of product {product} "
                    "to shelving rows (insufficient stock or pickup capacity)"
                )
        for row, units in shares_dict.items():
            if units:
                allocation[(row, product)] = units
                row_used[row] += units

    # Step 2 — per-row queues: required units first (interleaved), then padding.
    queues: Dict[ComponentId, List[ProductId]] = {}
    for row, capacity in row_capacity.items():
        row_products = [
            (product, units)
            for (r, product), units in sorted(allocation.items())
            if r == row
        ]
        queue = _interleave(row_products)
        # Padding: keep delivering the same mix for the rest of the horizon so
        # late pickups (whose deliveries would fall outside the horizon) never
        # eat into the required units.
        stock_left = {
            product: stock[row][product] - units
            for product, units in row_products
        }
        pad_source = [product for product, _ in row_products]
        pad_index = 0
        while len(queue) < capacity and pad_source:
            product = pad_source[pad_index % len(pad_source)]
            if stock_left.get(product, 0) > 0:
                queue.append(product)
                stock_left[product] -= 1
            else:
                pad_source = [p for p in pad_source if stock_left.get(p, 0) > 0]
                if not pad_source:
                    break
                continue
            pad_index += 1
        if queue:
            queues[row] = queue
    return DeliverySchedule(queues=queues)


def _interleave(products_with_units: Sequence[Tuple[ProductId, int]]) -> List[ProductId]:
    """Round-robin interleaving, e.g. [(1, 2), (2, 1)] -> [1, 2, 1]."""
    remaining = {product: units for product, units in products_with_units if units > 0}
    order = [product for product, units in products_with_units if units > 0]
    result: List[ProductId] = []
    while remaining:
        for product in list(order):
            if remaining.get(product, 0) > 0:
                result.append(product)
                remaining[product] -= 1
                if remaining[product] == 0:
                    del remaining[product]
    return result
