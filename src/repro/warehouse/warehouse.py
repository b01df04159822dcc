"""The automated warehouse 5-tuple ``W = (G, S, R, ρ, Λ)`` and WSP instances.

:class:`Warehouse` bundles the floorplan graph, its shelf-access and station
annotations, the product catalog and the location matrix.  A
:class:`WSPInstance` adds the workload and the timestep limit, i.e. everything
Problem 3.1 of the paper takes as input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .floorplan import FloorplanGraph, VertexId
from .grid import GridMap
from .products import LocationMatrix, ProductCatalog, ProductId
from .workload import Workload, WorkloadError, check_workload_stock


class WarehouseError(ValueError):
    """Raised for structurally invalid warehouses or WSP instances."""


@dataclass
class Warehouse:
    """An automated warehouse ``W = (G, S, R, ρ, Λ)``.

    Attributes
    ----------
    floorplan:
        The floorplan graph ``G`` with shelf-access vertices ``S`` and station
        vertices ``R``.
    catalog:
        The product vector ``ρ``.
    stock:
        The location matrix ``Λ``.
    name:
        Human-readable name used in reports (defaults to the grid name).
    """

    floorplan: FloorplanGraph
    catalog: ProductCatalog
    stock: LocationMatrix
    name: str = ""

    def __post_init__(self) -> None:
        if self.stock.floorplan is not self.floorplan:
            raise WarehouseError("location matrix was built for a different floorplan")
        if self.stock.catalog is not self.catalog:
            raise WarehouseError("location matrix was built for a different catalog")
        if not self.name:
            grid = self.floorplan.grid
            self.name = grid.name if grid is not None else "warehouse"

    # -- convenience accessors ---------------------------------------------------
    @property
    def grid(self) -> Optional[GridMap]:
        return self.floorplan.grid

    @property
    def station_vertices(self) -> frozenset:
        return self.floorplan.stations

    @property
    def num_products(self) -> int:
        return self.catalog.num_products

    def products_at(self, vertex: VertexId) -> Tuple[ProductId, ...]:
        """PRODUCTSAT(v): products accessible from ``vertex`` (empty off shelf-access)."""
        if not self.floorplan.is_shelf_access(vertex):
            return ()
        return tuple(self.stock.products_at(vertex))

    def total_stock(self) -> Dict[ProductId, int]:
        return {k: self.stock.total_units(k) for k in self.catalog.product_ids}

    # -- validation ----------------------------------------------------------------
    def validate(self) -> None:
        """Check the structural invariants of Sec. III.

        * there is at least one station and one shelf-access vertex;
        * every stocked vertex is a shelf-access vertex (enforced by
          :class:`LocationMatrix`, re-checked here for safety);
        * the floorplan is connected over the vertices that matter (every
          shelf-access vertex can reach every station).
        """
        if not self.floorplan.stations:
            raise WarehouseError(f"warehouse {self.name!r} has no stations")
        if not self.floorplan.shelf_access:
            raise WarehouseError(f"warehouse {self.name!r} has no shelf-access vertices")
        for vertex in self.stock.stocked_vertices():
            if not self.floorplan.is_shelf_access(vertex):
                raise WarehouseError(
                    f"stock present at non-shelf-access vertex {vertex}"
                )
        some_station = next(iter(self.floorplan.stations))
        reachable = self.floorplan.bfs_distances(some_station)
        for vertex in self.floorplan.shelf_access:
            if vertex not in reachable:
                raise WarehouseError(
                    f"shelf-access vertex {vertex} cannot reach station {some_station}"
                )

    def summary(self) -> str:
        return (
            f"warehouse {self.name!r}: {self.floorplan.num_vertices} cells, "
            f"{len(self.floorplan.shelf_access)} shelf-access vertices, "
            f"{len(self.floorplan.stations)} stations, "
            f"{self.catalog.num_products} products, "
            f"{self.stock.total_units_all()} stocked units"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Warehouse({self.summary()})"


@dataclass
class WSPInstance:
    """A Warehouse Servicing Problem instance (Problem 3.1).

    ``warehouse`` + ``workload`` + timestep limit ``horizon`` (the paper's T).
    """

    warehouse: Warehouse
    workload: Workload
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise WarehouseError("the timestep limit T must be positive")
        if self.workload.num_products != self.warehouse.num_products:
            raise WarehouseError(
                f"workload covers {self.workload.num_products} products but the warehouse "
                f"has {self.warehouse.num_products}"
            )

    def validate(self) -> None:
        """Structural validation plus a stock-sufficiency check."""
        self.warehouse.validate()
        try:
            check_workload_stock(self.workload, self.warehouse.total_stock())
        except WorkloadError as exc:
            raise WarehouseError(str(exc)) from exc

    @property
    def name(self) -> str:
        return (
            f"{self.warehouse.name}"
            f"[{self.workload.total_units}u/{self.workload.num_requested_products}p"
            f"/T={self.horizon}]"
        )

    def summary(self) -> str:
        return (
            f"WSP instance {self.name}: "
            f"{self.workload.total_units} units of "
            f"{self.workload.num_requested_products} products within {self.horizon} steps"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WSPInstance({self.summary()})"


def build_warehouse(
    grid: GridMap,
    num_products: int,
    units_per_product: int = 50,
    seed: int = 0,
    name: str = "",
) -> Warehouse:
    """Convenience constructor: floorplan + generically named, randomly stocked products.

    The map generators in :mod:`repro.maps` use more structured stocking; this
    helper is for quick experiments and tests.
    """
    floorplan = FloorplanGraph.from_grid(grid)
    catalog = ProductCatalog.numbered(num_products)
    stock = LocationMatrix.spread_evenly(
        catalog, floorplan, units_per_product, rng=np.random.default_rng(seed)
    )
    return Warehouse(floorplan=floorplan, catalog=catalog, stock=stock, name=name or grid.name)
