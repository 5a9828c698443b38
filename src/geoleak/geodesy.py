"""Coordinate types, great-circle distance, and a local tangent-plane projection.

All distances are meters on a sphere of radius 6,371,000 m. Planar attack
geometry (circle intersections, annulus rasterization) runs in a local
equirectangular tangent plane anchored at a per-scenario origin. Between any
two points of a 5 km box centred on the origin, the planar distance differs
from the great-circle distance by at most 0.1% for origins up to 60°
latitude: the measured worst cases are 2.7e-4 at 35° and 6.8e-4 at 60°. The
error grows about as tan(latitude), to 2.2e-3 at 80°, and Projection.at
accepts origins up to MAX_ORIGIN_LAT_DEG (85°).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEGREE_LAT = EARTH_RADIUS_M * math.pi / 180.0

# Small-area validity windows: project() accepts points within one degree of
# the origin, unproject() accepts offsets up to 120 km.
PROJECT_WINDOW_DEG = 1.0
UNPROJECT_WINDOW_M = 120_000.0

# The largest |latitude| of a projection origin (Projection.at, BackgroundSpec)
MAX_ORIGIN_LAT_DEG = 85.0


class OutOfProjectionRange(ValueError):
    """Point lies outside the small-area validity window of a projection."""


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """WGS84 coordinate pair in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinates ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True)
class LocalPoint:
    """Planar offset from a projection origin: meters east (x), north (y)."""

    x: float
    y: float

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class Projection:
    """Equirectangular tangent plane anchored at ``origin``.

    meters_per_degree_lon is evaluated at the origin latitude, so the plane is
    only valid for small areas (see PROJECT_WINDOW_DEG / UNPROJECT_WINDOW_M).
    """

    origin: GeoPoint
    meters_per_degree_lat: float
    meters_per_degree_lon: float

    @classmethod
    def at(cls, origin: GeoPoint) -> "Projection":
        if abs(origin.lat) > MAX_ORIGIN_LAT_DEG:
            raise OutOfProjectionRange(f"projection origin too close to a pole: {origin.lat}")
        return cls(
            origin=origin,
            meters_per_degree_lat=METERS_PER_DEGREE_LAT,
            meters_per_degree_lon=METERS_PER_DEGREE_LAT * math.cos(math.radians(origin.lat)),
        )


def geo_centroid(points: Sequence[GeoPoint]) -> GeoPoint:
    """The mean latitude and mean longitude of a non-empty sequence of points."""
    return GeoPoint(sum(p.lat for p in points) / len(points), sum(p.lon for p in points) / len(points))


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in meters.

    Args:
        a, b: valid geographic points.

    Returns:
        Non-negative, exactly symmetric distance on the R = 6,371,000 m sphere.
    """
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    d_phi = math.radians(b.lat - a.lat)
    d_lam = math.radians(b.lon - a.lon)
    h = math.sin(d_phi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(d_lam / 2.0) ** 2
    h = min(h, 1.0)  # rounding can push h past 1 for near-antipodal points
    return 2.0 * EARTH_RADIUS_M * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))


def project(p: GeoPoint, proj: Projection) -> LocalPoint:
    """Map a geographic point onto the local tangent plane.

    Raises:
        OutOfProjectionRange: point more than PROJECT_WINDOW_DEG from the origin.
    """
    if (
        abs(p.lat - proj.origin.lat) >= PROJECT_WINDOW_DEG
        or abs(p.lon - proj.origin.lon) >= PROJECT_WINDOW_DEG
    ):
        raise OutOfProjectionRange(f"{p} too far from projection origin {proj.origin}")
    return LocalPoint(
        x=(p.lon - proj.origin.lon) * proj.meters_per_degree_lon,
        y=(p.lat - proj.origin.lat) * proj.meters_per_degree_lat,
    )


def unproject(q: LocalPoint, proj: Projection) -> GeoPoint:
    """Inverse of project(); exact up to floating-point rounding.

    Raises:
        OutOfProjectionRange: offset beyond UNPROJECT_WINDOW_M on either axis.
    """
    if abs(q.x) >= UNPROJECT_WINDOW_M or abs(q.y) >= UNPROJECT_WINDOW_M:
        raise OutOfProjectionRange(f"local offset ({q.x}, {q.y}) beyond plane validity")
    return GeoPoint(
        lat=proj.origin.lat + q.y / proj.meters_per_degree_lat,
        lon=proj.origin.lon + q.x / proj.meters_per_degree_lon,
    )


def unproject_arrays(x: np.ndarray, y: np.ndarray, proj: Projection) -> tuple[np.ndarray, np.ndarray]:
    """unproject() over arrays of offsets, in one call: the same floats and
    the same checks. Returns (lat, lon) arrays.

    Raises:
        OutOfProjectionRange: an offset beyond UNPROJECT_WINDOW_M on either axis.
        ValueError: a point that GeoPoint would reject (off the globe or NaN).
    """
    far = (np.abs(x) >= UNPROJECT_WINDOW_M) | (np.abs(y) >= UNPROJECT_WINDOW_M)
    if far.any():
        k = int(np.argmax(far))
        raise OutOfProjectionRange(f"local offset ({x[k]}, {y[k]}) beyond plane validity")
    lat = proj.origin.lat + y / proj.meters_per_degree_lat
    lon = proj.origin.lon + x / proj.meters_per_degree_lon
    bad = ~((-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"coordinates ({lat[k]}, {lon[k]}) are off the globe")
    return lat, lon
