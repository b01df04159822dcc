"""Plans ``(π, φ)`` and the plan feasibility validator (Sec. III of the paper).

A :class:`Plan` stores, for every agent and every timestep, the vertex the
agent occupies and the product it carries (0 = ρ0, empty-handed).  The
:class:`PlanValidator` checks the three feasibility conditions of the paper —
unit moves, collision freedom, and the pickup/drop-off rules — and counts the
units actually delivered to stations so a plan can be checked against a
workload ("the plan *services* w").

The validator is deliberately independent of the planner: it re-derives
everything from the raw (π, φ) matrices and the warehouse, so it can catch
bugs in the realization algorithm as well as in the MAPF baselines.  It
still checks the full matrices, in two passes per condition: a numpy screen
flags every cell that could violate it (it may over-flag, never under-flag),
then the per-cell check runs on the flagged cells in agent/timestep order,
so violations, their order and the ``max_violations`` cap do not depend on
the screen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .products import EMPTY_HANDED, ProductId
from .warehouse import Warehouse
from .workload import Workload

VertexId = int


class PlanError(ValueError):
    """Raised for structurally malformed plans."""


@dataclass
class Plan:
    """A T-timestep plan for a team of agents.

    Attributes
    ----------
    positions:
        ``(num_agents, T)`` integer array; ``positions[i, t]`` is the vertex
        agent ``i`` occupies at timestep ``t`` (0-based timesteps).
    carrying:
        ``(num_agents, T)`` integer array; ``carrying[i, t]`` is the product
        agent ``i`` holds at timestep ``t`` (0 when empty-handed).
    warehouse:
        The warehouse the plan refers to (vertex ids index its floorplan).
    """

    positions: np.ndarray
    carrying: np.ndarray
    warehouse: Warehouse
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.int64)
        self.carrying = np.asarray(self.carrying, dtype=np.int64)
        if self.positions.ndim != 2 or self.carrying.ndim != 2:
            raise PlanError("positions and carrying must be 2-D (agents x timesteps)")
        if self.positions.shape != self.carrying.shape:
            raise PlanError(
                f"positions shape {self.positions.shape} != carrying shape {self.carrying.shape}"
            )

    # -- shape ----------------------------------------------------------------
    @property
    def num_agents(self) -> int:
        return int(self.positions.shape[0])

    @property
    def horizon(self) -> int:
        """Number of timesteps covered by the plan (the paper's T)."""
        return int(self.positions.shape[1])

    # -- per-agent views --------------------------------------------------------
    def state(self, agent: int, t: int) -> Tuple[VertexId, ProductId]:
        """The state ``(π_{i,t}, φ_{i,t})`` of an agent at a timestep."""
        return int(self.positions[agent, t]), int(self.carrying[agent, t])

    # -- deliveries ---------------------------------------------------------------
    def deliveries(self) -> List[Tuple[int, int, ProductId]]:
        """All drop-off events as ``(agent, timestep, product)`` triples.

        A delivery happens at step ``t+1`` when an agent that carried product
        ``k`` at ``t`` while standing on a station vertex is empty-handed at
        ``t+1``.  Triples are ordered by agent, then timestep.
        """
        before = self.carrying[:, :-1]
        agents, ticks = np.nonzero((before != EMPTY_HANDED) & (self.carrying[:, 1:] == EMPTY_HANDED))
        stations = np.fromiter(self.warehouse.station_vertices, dtype=np.int64)
        at_station = np.isin(self.positions[agents, ticks], stations)
        agents, ticks = agents[at_station], ticks[at_station]
        return list(
            zip(agents.tolist(), (ticks + 1).tolist(), before[agents, ticks].tolist())
        )

    def delivered_units(self) -> Dict[ProductId, int]:
        """Units of each product delivered to stations over the whole plan."""
        totals: Dict[ProductId, int] = {}
        for _, _, product in self.deliveries():
            totals[product] = totals.get(product, 0) + 1
        return totals

    def total_delivered(self) -> int:
        return sum(self.delivered_units().values())

    def services(self, workload: Workload) -> bool:
        """True when the plan delivers at least the demanded units of every product."""
        return workload.is_satisfied_by(self.delivered_units())

    # -- misc ---------------------------------------------------------------------
    def truncated(self, horizon: int) -> "Plan":
        """The plan restricted to its first ``horizon`` timesteps."""
        if horizon <= 0 or horizon > self.horizon:
            raise PlanError(f"cannot truncate a {self.horizon}-step plan to {horizon} steps")
        return Plan(
            positions=self.positions[:, :horizon].copy(),
            carrying=self.carrying[:, :horizon].copy(),
            warehouse=self.warehouse,
            metadata=dict(self.metadata),
        )

    def summary(self) -> str:
        return (
            f"plan: {self.num_agents} agents, {self.horizon} timesteps, "
            f"{self.total_delivered()} units delivered"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Plan({self.summary()})"


@dataclass
class PlanViolation:
    """One violated feasibility condition, with enough context to debug it."""

    condition: str
    agent: int
    timestep: int
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.condition}] agent {self.agent} @ t={self.timestep}: {self.detail}"


@dataclass
class PlanValidationReport:
    """Outcome of :meth:`PlanValidator.validate`."""

    violations: List[PlanViolation]
    delivered: Dict[ProductId, int]
    pickups: Dict[ProductId, int]

    @property
    def is_feasible(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "feasible" if self.is_feasible else f"{len(self.violations)} violations"
        return (
            f"plan validation: {status}; "
            f"{sum(self.delivered.values())} delivered, {sum(self.pickups.values())} picked up"
        )


class PlanValidator:
    """Checks the three feasibility conditions of Sec. III against a warehouse.

    Parameters
    ----------
    warehouse:
        The warehouse whose floorplan, stations and stock the plan must respect.
    track_inventory:
        When True (default), pickups consume stock from a working copy of the
        location matrix and picking from an empty shelf is a violation.  The
        paper's condition (3) is stated against the static PRODUCTSAT set; the
        tracked variant is strictly stronger and is what a physical warehouse
        requires.
    max_violations:
        Stop collecting violations after this many (keeps pathological plans
        from producing megabyte-sized reports).
    """

    def __init__(
        self,
        warehouse: Warehouse,
        track_inventory: bool = True,
        max_violations: int = 100,
    ) -> None:
        self.warehouse = warehouse
        self.track_inventory = track_inventory
        self.max_violations = max_violations

    # -- public API ---------------------------------------------------------------
    def validate(self, plan: Plan) -> PlanValidationReport:
        """Run all feasibility checks and count pickups / deliveries."""
        violations: List[PlanViolation] = []
        delivered: Dict[ProductId, int] = {}
        pickups: Dict[ProductId, int] = {}

        def add(violation: PlanViolation) -> bool:
            if len(violations) < self.max_violations:
                violations.append(violation)
            return len(violations) < self.max_violations

        self._check_vertices_exist(plan, add)
        self._check_moves(plan, add)
        self._check_collisions(plan, add)
        self._check_products(plan, add, delivered, pickups)
        return PlanValidationReport(violations=violations, delivered=delivered, pickups=pickups)

    def is_feasible(self, plan: Plan) -> bool:
        return self.validate(plan).is_feasible

    # -- condition checks -----------------------------------------------------------
    def _check_vertices_exist(self, plan: Plan, add) -> None:
        num_vertices = self.warehouse.floorplan.num_vertices
        bad = np.argwhere((plan.positions < 0) | (plan.positions >= num_vertices))
        for agent, t in bad:
            if not add(
                PlanViolation(
                    "vertex-range",
                    int(agent),
                    int(t),
                    f"vertex {int(plan.positions[agent, t])} outside floorplan",
                )
            ):
                return

    def _check_moves(self, plan: Plan, add) -> None:
        """Condition (1): an agent moves by zero or one edge per timestep."""
        floorplan = self.warehouse.floorplan
        num_vertices = floorplan.num_vertices
        src, dst = plan.positions[:, :-1], plan.positions[:, 1:]
        # Screen: moves between in-range vertices whose u·n+v edge code is
        # not an edge of the floorplan (out-of-range ends are the
        # vertex-range check's to report).
        moving = (src != dst) & (src >= 0) & (src < num_vertices)
        moving &= (dst >= 0) & (dst < num_vertices)
        agents, ticks = np.nonzero(moving)
        codes = src[agents, ticks] * num_vertices + dst[agents, ticks]
        adjacency = floorplan.adjacency
        edges = np.repeat(
            np.arange(len(adjacency), dtype=np.int64), [len(near) for near in adjacency]
        ) * num_vertices + np.fromiter(chain.from_iterable(adjacency), dtype=np.int64)
        jumps = np.isin(codes, edges, invert=True)
        for agent, t in zip(agents[jumps].tolist(), ticks[jumps].tolist()):
            u, v = int(src[agent, t]), int(dst[agent, t])
            if not add(
                PlanViolation(
                    "movement",
                    agent,
                    t + 1,
                    f"jump from {floorplan.cell_of(u)} to {floorplan.cell_of(v)}",
                )
            ):
                return

    def _check_collisions(self, plan: Plan, add) -> None:
        """Condition (2): no vertex collisions, no edge (swap) collisions.

        Sorted-code screens pick the timesteps that can hold a collision; the
        per-timestep checks below run on those only.
        """
        positions = plan.positions
        ordered = np.sort(positions, axis=0)
        for t in np.flatnonzero((ordered[1:] == ordered[:-1]).any(axis=0)).tolist():
            column = positions[:, t]
            order = np.argsort(column, kind="stable")
            sorted_vals = column[order]
            duplicates = np.nonzero(sorted_vals[1:] == sorted_vals[:-1])[0]
            for d in duplicates:
                agent_a, agent_b = int(order[d]), int(order[d + 1])
                if not add(
                    PlanViolation(
                        "vertex-collision",
                        agent_b,
                        t,
                        f"agents {agent_a} and {agent_b} both at vertex {int(sorted_vals[d])}",
                    )
                ):
                    return
        for t in _swap_candidates(positions).tolist():
            now = positions[:, t]
            nxt = positions[:, t + 1]
            moves = {}
            for agent in np.flatnonzero(now != nxt).tolist():
                moves[(int(now[agent]), int(nxt[agent]))] = agent
            for (u, v), agent in moves.items():
                other = moves.get((v, u))
                if other is not None and other != agent and agent < other:
                    if not add(
                        PlanViolation(
                            "edge-collision",
                            agent,
                            t + 1,
                            f"agents {agent} and {other} swap across edge ({u}, {v})",
                        )
                    ):
                        return

    def _check_products(
        self,
        plan: Plan,
        add,
        delivered: Dict[ProductId, int],
        pickups: Dict[ProductId, int],
    ) -> None:
        """Condition (3): pickups only at stocked shelf-access vertices, drop-offs at stations.

        Only load changes and out-of-range products can violate it or count
        as a pickup or delivery; a screen flags those steps and the per-step
        check runs on them, agent by agent in timestep order.
        """
        warehouse = self.warehouse
        stations = warehouse.station_vertices
        stock = warehouse.stock.copy() if self.track_inventory else None
        num_products = warehouse.num_products
        num_vertices = warehouse.floorplan.num_vertices

        carrying = plan.carrying
        unknown = (carrying != EMPTY_HANDED) & ((carrying < 1) | (carrying > num_products))
        flagged = (carrying[:, 1:] != carrying[:, :-1]) | unknown[:, 1:]
        rows, steps = np.nonzero(flagged)
        bounds = np.searchsorted(rows, np.arange(plan.num_agents + 1)).tolist()
        steps = steps.tolist()
        for agent in range(plan.num_agents):
            loads = carrying[agent]
            positions = plan.positions[agent]
            if unknown[agent, 0]:
                add(PlanViolation("product-range", agent, 0, f"unknown product {int(loads[0])}"))
            for t in steps[bounds[agent] : bounds[agent + 1]]:
                before, after = int(loads[t]), int(loads[t + 1])
                vertex = int(positions[t])
                if after != EMPTY_HANDED and not 1 <= after <= num_products:
                    if not add(
                        PlanViolation("product-range", agent, t + 1, f"unknown product {after}")
                    ):
                        return
                    continue
                if before == after:
                    continue
                if not 0 <= vertex < num_vertices:
                    continue  # already reported by the vertex-range check
                if before == EMPTY_HANDED:
                    # Pickup: the vertex must be a stocked shelf-access vertex.
                    available = warehouse.products_at(vertex)
                    if after not in available:
                        if not add(
                            PlanViolation(
                                "pickup",
                                agent,
                                t + 1,
                                f"picked product {after} at vertex {vertex} "
                                f"which offers {sorted(available)}",
                            )
                        ):
                            return
                        continue
                    if stock is not None:
                        if stock.units_at(after, vertex) <= 0:
                            if not add(
                                PlanViolation(
                                    "inventory",
                                    agent,
                                    t + 1,
                                    f"picked product {after} at vertex {vertex} but stock is exhausted",
                                )
                            ):
                                return
                            continue
                        stock.remove(after, vertex, 1)
                    pickups[after] = pickups.get(after, 0) + 1
                elif after == EMPTY_HANDED:
                    # Drop-off: only allowed at a station vertex.
                    if vertex not in stations:
                        if not add(
                            PlanViolation(
                                "dropoff",
                                agent,
                                t + 1,
                                f"dropped product {before} at non-station vertex {vertex}",
                            )
                        ):
                            return
                        continue
                    delivered[before] = delivered.get(before, 0) + 1
                else:
                    # Swapping one product for another in a single step is never allowed.
                    if not add(
                        PlanViolation(
                            "swap",
                            agent,
                            t + 1,
                            f"carried product changed {before} -> {after} without dropping off",
                        )
                    ):
                        return


def may_collide(positions: np.ndarray) -> bool:
    """Whether the numpy screens flag a vertex or swap collision.

    ``False`` is exact (the positions are collision-free); ``True`` may be a
    false alarm, which an exact per-tick check must settle.
    """
    ordered = np.sort(positions, axis=0)
    if (ordered[1:] == ordered[:-1]).any():
        return True
    return _swap_candidates(positions).size > 0


def _swap_candidates(positions: np.ndarray) -> np.ndarray:
    """Timesteps ``t`` at which two agents may swap across an edge into ``t + 1``.

    A swap (u→v and v→u in one step) shares its ``(t, min, max)`` code with
    its partner; so does a repeated move, which only over-flags.  Vertices are
    offset by the smallest one so negative ids cannot alias; when the codes
    could overflow, every timestep with a move is a candidate.
    """
    now, nxt = positions[:, :-1], positions[:, 1:]
    agents, ticks = np.nonzero(now != nxt)
    if len(ticks) < 2:
        return np.zeros(0, dtype=np.int64)
    u, v = now[agents, ticks], nxt[agents, ticks]
    low = int(min(u.min(), v.min()))
    span = int(max(u.max(), v.max())) - low + 1
    if now.shape[1] * span * span >= 2**62:
        return np.unique(ticks)
    codes = (ticks * span + (np.minimum(u, v) - low)) * span + (np.maximum(u, v) - low)
    codes.sort()
    return np.unique(codes[1:][codes[1:] == codes[:-1]] // (span * span))


def empty_plan(warehouse: Warehouse, num_agents: int, horizon: int) -> Plan:
    """A plan of stationary, empty-handed agents parked on distinct vertices.

    Useful as a neutral starting point in tests; the agents are placed on the
    lowest-numbered traversable vertices.
    """
    if num_agents > warehouse.floorplan.num_vertices:
        raise PlanError("more agents than vertices")
    positions = np.tile(
        np.arange(num_agents, dtype=np.int64).reshape(-1, 1), (1, horizon)
    )
    carrying = np.zeros((num_agents, horizon), dtype=np.int64)
    return Plan(positions=positions, carrying=carrying, warehouse=warehouse)
