"""Declarative scenario specifications for the experiment subsystem.

A :class:`ScenarioSpec` describes one end-to-end experiment — the map (a
parametric fulfillment-center or sorting-center layout), the workload (total
units and demand mix), the solver configuration, and the simulation knobs —
as a flat, JSON-serializable record.  ``build()`` turns the spec into the
concrete :class:`~repro.maps.fulfillment.DesignedWarehouse` and
:class:`~repro.warehouse.workload.Workload` the pipeline consumes, so the
experiment runner (and anything replaying a result file) can reconstruct the
exact instance from the record alone.

Scenarios are identified by :attr:`ScenarioSpec.scenario_id`, a stable hash
of every semantically relevant field (the cosmetic ``name`` is excluded).
Two sweeps that ran the same scenario therefore produce records that can be
matched for regression comparison, regardless of how the scenario was named
or in which order it was generated.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..maps.fulfillment import DesignedWarehouse, FulfillmentLayout, generate_fulfillment_center
from ..maps.sorting import SortingLayout, generate_sorting_center
from ..sim.disruptions import DisruptionError, parse_disruptions
from ..sim.routers import ROUTERS
from ..sim.stations import ServiceTimeModel
from ..warehouse import WarehouseError, Workload

SCENARIO_KINDS = ("fulfillment", "sorting")
WORKLOAD_MIXES = ("uniform", "zipf")
#: The one solver backend.  ``backend`` stays a field only because it is part
#: of the ``scenario_id`` payload; every other value is rejected.
SOLVER_BACKEND = "highs"


class ScenarioError(ValueError):
    """Raised for structurally invalid scenario specifications."""


def parse_service_time(spec: str) -> ServiceTimeModel:
    """``"0"`` / ``"uniform:2,6"`` / ``"geometric:4"`` -> a service-time model."""
    kind, _, params = spec.partition(":")
    try:
        if kind == "uniform":
            lo, hi = (int(p) for p in params.split(","))
            return ServiceTimeModel.uniform(lo, hi)
        if kind == "geometric":
            return ServiceTimeModel.geometric(float(params))
        return ServiceTimeModel.deterministic(int(kind))
    except ValueError as error:
        raise ScenarioError(
            f"invalid service time {spec!r} (use N, uniform:LO,HI or geometric:MEAN): {error}"
        ) from error


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment scenario: map parameters + workload + solver + sim knobs.

    For ``kind="sorting"`` the layout fields are reinterpreted under the
    paper's sorting-center reduction: ``shelf_columns`` are chute columns
    (spaced by ``chute_spacing``), ``shelf_bands`` are chute bands,
    ``num_stations``/``station_cells`` are bins/bin cells, and
    ``num_products`` is ignored — one product per chute is derived from the
    geometry.
    """

    kind: str = "fulfillment"
    # -- map geometry (FulfillmentLayout / SortingLayout parameters) ------------
    num_slices: int = 2
    shelf_columns: int = 4
    shelf_bands: int = 3
    shelf_depth: int = 1
    num_stations: int = 1
    station_cells: int = 1
    spread_station_cells: bool = False
    chute_spacing: int = 2
    extra_bottom_rows: int = 0
    num_products: int = 6
    stock_units_per_product: int = 0
    #: Slotting permutation: the product assigned to the i-th shuffled shelf is
    #: ``product_order[i % num_products]``.  Empty means the identity order
    #: ``(1, ..., num_products)`` — the round-robin stocking every pre-existing
    #: scenario used.  This is the combinatorial knob ``repro optimize``
    #: searches (neighbor = swap two positions).
    product_order: Tuple[int, ...] = ()
    # -- workload ---------------------------------------------------------------
    units: int = 12
    workload_mix: str = "uniform"
    zipf_exponent: float = 1.1
    horizon: int = 1000
    # -- solver -----------------------------------------------------------------
    backend: str = SOLVER_BACKEND
    objective: str = "min_agents"
    # -- simulation (stage 6) ---------------------------------------------------
    simulate: bool = True
    service_time: str = "0"
    arrival_rate: Optional[float] = None
    # -- routing (grid-routed execution; see repro.sim.routing) ------------------
    router: str = "abstract"
    routing_window: int = 0
    # -- disruptions (failure injection; see repro.sim.disruptions) ---------------
    #: Disruption spec string (``"none"`` or ``"breakdown:0.02:25,block:0.01"``;
    #: the grammar of :func:`repro.sim.disruptions.parse_disruptions`).
    disruptions: str = "none"
    # -- identity ---------------------------------------------------------------
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        # JSON round-trips deliver sequences as lists; normalize so equality,
        # hashing and asdict() behave identically for loaded and built specs.
        if not isinstance(self.product_order, tuple):
            object.__setattr__(self, "product_order", tuple(self.product_order))

    # -- identity / serialization ----------------------------------------------
    @property
    def label(self) -> str:
        """The display name: ``name`` if set, otherwise derived from the dims."""
        if self.name:
            return self.name
        router = "" if self.router == "abstract" else f"-{self.router}"
        disrupted = "" if self.disruptions == "none" else "-disrupted"
        return (
            f"{self.kind}-b{self.num_slices}c{self.shelf_columns}x{self.shelf_bands}"
            f"-st{self.num_stations}-u{self.units}-{self.workload_mix}-s{self.seed}"
            f"{router}{disrupted}"
        )

    @property
    def scenario_id(self) -> str:
        """Stable 12-hex-digit identity over every field except ``name``.

        Fields added after v1.2 are dropped from the hash payload while they
        hold their defaults, so every pre-existing scenario keeps its id and
        archived baselines stay matchable by ``repro sweep --compare`` across
        schema growth.  Follow the same pattern for future spec fields.

        The hash is computed once per instance and memoized (the spec is
        frozen, so it cannot go stale): the serving layer keys every cache
        lookup on this id, which makes it a hot path under load.
        """
        cached = self.__dict__.get("_scenario_id")
        if cached is not None:
            return cached
        payload = asdict(self)
        payload.pop("name")
        if payload["router"] == "abstract":
            del payload["router"]
        if payload["routing_window"] == 0:
            del payload["routing_window"]
        if payload["disruptions"] == "none":
            del payload["disruptions"]
        if not payload["product_order"]:
            del payload["product_order"]
        else:
            payload["product_order"] = list(payload["product_order"])
        canonical = json.dumps(payload, sort_keys=True)
        scenario_id = hashlib.sha1(canonical.encode()).hexdigest()[:12]
        # Frozen dataclass: the memo must bypass the frozen __setattr__.  The
        # cache lives outside the field set, so equality, asdict() and
        # replace() are unaffected.
        object.__setattr__(self, "_scenario_id", scenario_id)
        return scenario_id

    def to_dict(self) -> Dict:
        from ..io.serialization import scenario_to_dict  # io owns the schemas

        return scenario_to_dict(self)

    @staticmethod
    def from_dict(document: Dict) -> "ScenarioSpec":
        from ..io.serialization import scenario_from_dict

        return scenario_from_dict(document)

    def with_updates(self, **updates) -> "ScenarioSpec":
        """A copy of this spec with ``updates`` applied (frozen-safe replace).

        Unknown field names raise :class:`ScenarioError` instead of the bare
        ``TypeError`` ``dataclasses.replace`` gives — optimizer knobs are built
        from strings, and a typo must fail with the field name it tried.
        The copy is a fresh instance, so its ``scenario_id`` is recomputed
        (changing only ``name`` keeps the id; changing any hashed field
        changes it).
        """
        known = {f.name for f in fields(self)}
        unknown = sorted(set(updates) - known)
        if unknown:
            raise ScenarioError(
                f"unknown scenario field(s) {unknown}; expected among {sorted(known)}"
            )
        return replace(self, **updates)

    # -- validation -------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ScenarioError` when the spec cannot describe a map or solver."""
        if self.backend != SOLVER_BACKEND:
            raise ScenarioError(
                f"unsupported solver backend {self.backend!r}; "
                f"the only accepted value is {SOLVER_BACKEND!r}"
            )
        if self.kind not in SCENARIO_KINDS:
            raise ScenarioError(
                f"unknown scenario kind {self.kind!r}; expected one of {SCENARIO_KINDS}"
            )
        if self.workload_mix not in WORKLOAD_MIXES:
            raise ScenarioError(
                f"unknown workload mix {self.workload_mix!r}; expected one of {WORKLOAD_MIXES}"
            )
        if self.units < 0:
            raise ScenarioError("units must be non-negative")
        if self.horizon <= 0:
            raise ScenarioError("horizon must be positive")
        if self.arrival_rate is not None and not self.arrival_rate > 0:
            raise ScenarioError("arrival_rate must be positive when set")
        if self.router not in ROUTERS:
            raise ScenarioError(
                f"unknown router {self.router!r}; expected one of {ROUTERS}"
            )
        if self.routing_window < 0:
            raise ScenarioError("routing_window must be non-negative")
        if self.product_order and self.kind == "sorting":
            # Sorting centers derive one product per chute from the geometry;
            # a slotting permutation would be silently ignored at build time
            # while still perturbing the scenario's hash identity.
            raise ScenarioError("product_order only applies to fulfillment scenarios")
        if self.router == "abstract" and self.routing_window:
            # The window would be silently ignored at run time while still
            # perturbing the scenario's hash identity — reject the combination
            # (the CLI enforces the same rule).
            raise ScenarioError(
                "routing_window only applies to grid routers (router != 'abstract')"
            )
        parse_service_time(self.service_time)
        try:
            parse_disruptions(self.disruptions)
        except DisruptionError as error:
            raise ScenarioError(f"invalid disruptions {self.disruptions!r}: {error}") from error
        try:
            self.layout().validate()
        except WarehouseError as error:
            raise ScenarioError(f"invalid map geometry: {error}") from error

    def is_valid(self) -> bool:
        try:
            self.validate()
        except ScenarioError:
            return False
        return True

    # -- materialization --------------------------------------------------------
    def disruption_config(self):
        """The :class:`~repro.sim.disruptions.DisruptionConfig` this spec asks
        for, or ``None`` for nominal (undisrupted) execution."""
        return parse_disruptions(self.disruptions)

    def routing_config(self):
        """The :class:`~repro.sim.routing.RoutingConfig` this spec asks for,
        or ``None`` for the abstract (plan-replay) execution mode."""
        if self.router == "abstract":
            return None
        from ..sim.routing import RoutingConfig

        return RoutingConfig(router=self.router, window=self.routing_window)

    def _sorting_layout(self) -> SortingLayout:
        return SortingLayout(
            num_slices=self.num_slices,
            chute_columns=self.shelf_columns,
            chute_bands=self.shelf_bands,
            chute_spacing=self.chute_spacing,
            num_bins=self.num_stations,
            bin_cells=self.station_cells,
            extra_bottom_rows=self.extra_bottom_rows,
            name=self.label,
            seed=self.seed,
        )

    def layout(self):
        """The map-generator layout this spec describes."""
        if self.kind == "sorting":
            return self._sorting_layout().to_fulfillment_layout()
        return FulfillmentLayout(
            num_slices=self.num_slices,
            shelf_columns=self.shelf_columns,
            shelf_bands=self.shelf_bands,
            shelf_depth=self.shelf_depth,
            num_stations=self.num_stations,
            station_cells=self.station_cells,
            spread_station_cells=self.spread_station_cells,
            num_products=self.num_products,
            stock_units_per_product=self.stock_units_per_product,
            product_order=self.product_order,
            extra_bottom_rows=self.extra_bottom_rows,
            name=self.label,
            seed=self.seed,
        )

    def build(self) -> Tuple[DesignedWarehouse, Workload]:
        """Materialize the designed warehouse and the workload."""
        self.validate()
        if self.kind == "sorting":
            designed = generate_sorting_center(self._sorting_layout()).designed
        else:
            designed = generate_fulfillment_center(self.layout())
        catalog = designed.warehouse.catalog
        if self.workload_mix == "zipf":
            workload = Workload.zipf(
                catalog,
                self.units,
                exponent=self.zipf_exponent,
                rng=np.random.default_rng(self.seed),
            )
        else:
            workload = Workload.uniform(catalog, self.units)
        return designed, workload

    def describe(self) -> str:
        layout = self.layout()
        return (
            f"{self.label}: {self.kind}, {layout.width}x{layout.height} cells, "
            f"{layout.num_shelves} shelves, {self.units} units ({self.workload_mix}), "
            f"T={self.horizon}, seed={self.seed}"
        )


#: The spec field names a generator axis may vary (everything but ``name``).
SWEEPABLE_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(ScenarioSpec) if f.name != "name"
)
