"""Admissible domains: an outer shell minus separated holes.

Builders cover disks, balls and spherical annuli with analytic volume,
surface areas and mean curvature; RegionParams splits a domain into its
three bands by distance from the boundary.  The curvature sign convention
follows the distance function: the Laplacian of dist(x, boundary k)
approaches -(d-1) H at that boundary, which makes H = 1/R on a sphere of
radius R seen from inside and H = -1/a on a spherical hole of radius a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllBoundaryPotentialsEqual, BadRadii, ConfigError, InconsistentParams
from .profiles import RobinData


@dataclass(frozen=True)
class BoundaryComponent:
    """One boundary component with area, curvature data and Robin data."""

    index: int
    surface_area: float
    mean_curvature: float  # constant on a sphere
    curvature_integral: float  # integral of H over the component
    robin: RobinData
    orientation: str = "outer"  # "outer" shell or "hole"
    radius: float | None = None  # spherical components only

    def __post_init__(self):
        if not self.surface_area > 0:
            raise ConfigError("surface area must be positive")
        if self.orientation not in ("outer", "hole"):
            raise ConfigError("orientation must be 'outer' or 'hole'")

    @property
    def depth_sign(self) -> float:
        """d(depth into the domain)/dr at a spherical component: -1 on the
        outer shell, +1 on a hole; depth s lies at radius + depth_sign * s."""
        return -1.0 if self.orientation == "outer" else 1.0


@dataclass(frozen=True)
class DomainSpec:
    """Domain description: dimension, volume and boundary components."""

    dimension: int
    volume: float
    components: tuple[BoundaryComponent, ...]

    def __post_init__(self):
        if self.dimension < 2:
            raise ConfigError("dimension must be >= 2")
        if not self.volume > 0:
            raise ConfigError("volume must be positive")
        if not self.components:
            raise ConfigError("need at least one boundary component")

    def require_ccpb_admissible(self):
        """Conserved-charge runs need boundary potentials that are not all equal."""
        phis = [c.robin.phi_bd for c in self.components]
        if max(phis) == min(phis):
            raise AllBoundaryPotentialsEqual(
                "boundary potentials are all equal; the solution is constant"
            )


@dataclass(frozen=True)
class RegionParams:
    """Band parameters: Region I within T sqrt(eps) of a boundary, Region II
    out to eps**beta, Region III beyond."""

    eps: float
    beta: float
    T: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ConfigError("eps must be positive")
        if not 0 < self.beta < 0.5:
            raise ConfigError(f"beta must lie in (0, 1/2), got {self.beta!r}")
        if not self.T > 0:
            raise ConfigError("T must be positive")
        if self.inner_width >= self.outer_width:
            raise InconsistentParams(
                f"T*sqrt(eps) = {self.inner_width:.3e} must be below "
                f"eps**beta = {self.outer_width:.3e}"
            )

    @property
    def inner_width(self) -> float:
        return self.T * math.sqrt(self.eps)

    @property
    def outer_width(self) -> float:
        return self.eps**self.beta

    def band(self, distance):
        """Region (1, 2 or 3) of each point at the given distance from a
        boundary: Region I below T sqrt(eps), Region II up to and including
        eps**beta, Region III beyond."""
        distance = np.asarray(distance, dtype=float)
        return 1 + (distance >= self.inner_width) + (distance > self.outer_width)

    def depths(self, band: int) -> tuple[float, float]:
        """Depth range [lo, hi] of Region I (band 1) or Region II (band 2)."""
        if band not in (1, 2):
            raise ConfigError(f"band must be 1 or 2, got {band!r}")
        return (0.0, self.inner_width) if band == 1 else (self.inner_width, self.outer_width)


def _ball_volume(d: int, r: float) -> float:
    return math.pi ** (d / 2) * r**d / math.gamma(d / 2 + 1)


def _sphere_area(d: int, r: float) -> float:
    return d * _ball_volume(d, r) / r


def unit_sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    return _sphere_area(d, 1.0)


def make_disk(radius: float, robin: RobinData | None = None) -> DomainSpec:
    return make_ball(2, radius, robin)


def make_ball(d: int, radius: float, robin: RobinData | None = None) -> DomainSpec:
    if not radius > 0:
        raise BadRadii("radius must be positive")
    robin = robin or RobinData(0.0, 1.0)
    area = _sphere_area(d, radius)
    h = 1.0 / radius
    comp = BoundaryComponent(
        index=0, surface_area=area, mean_curvature=h,
        curvature_integral=h * area, robin=robin, orientation="outer",
        radius=radius,
    )
    return DomainSpec(dimension=d, volume=_ball_volume(d, radius), components=(comp,))


def make_annulus(
    d: int,
    inner_radius: float,
    outer_radius: float,
    robin_outer: RobinData | None = None,
    robin_inner: RobinData | None = None,
) -> DomainSpec:
    if not 0 < inner_radius < outer_radius:
        raise BadRadii("need 0 < a < R")
    robin_outer = robin_outer or RobinData(0.0, 1.0)
    robin_inner = robin_inner or RobinData(0.0, -1.0)
    area_out = _sphere_area(d, outer_radius)
    area_in = _sphere_area(d, inner_radius)
    h_out = 1.0 / outer_radius
    h_in = -1.0 / inner_radius  # hole boundary curves away from the domain
    outer = BoundaryComponent(
        index=0, surface_area=area_out, mean_curvature=h_out,
        curvature_integral=h_out * area_out, robin=robin_outer, orientation="outer",
        radius=outer_radius,
    )
    inner = BoundaryComponent(
        index=1, surface_area=area_in, mean_curvature=h_in,
        curvature_integral=h_in * area_in, robin=robin_inner, orientation="hole",
        radius=inner_radius,
    )
    return DomainSpec(
        dimension=d,
        volume=_ball_volume(d, outer_radius) - _ball_volume(d, inner_radius),
        components=(outer, inner),
    )
