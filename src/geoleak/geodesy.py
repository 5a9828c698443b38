"""Coordinate types, great-circle distance, and a local tangent-plane projection.

All distances are meters on a sphere of radius 6,371,000 m.

haversine_distance is the exact distance between two points. For many points
at once, unit_vectors puts them on the unit sphere, squared_chords gives one
point's squared chords to all of them, and chord_distance turns a squared
chord into a distance: within 1e-7 m + 1e-14 * d of haversine_distance up to
a quarter circumference, and within 0.27 m anywhere (see the comment above
unit_vectors). squared_chord turns a distance back into a squared chord.

Planar attack geometry (circle intersections, annulus rasterization) runs in
a local equirectangular tangent plane anchored at a per-scenario origin.
Between any two points of a 5 km box centred on the origin, the planar
distance differs from the great-circle distance by at most 0.1% for origins
up to 60° latitude: the measured worst cases are 2.7e-4 at 35° and 6.8e-4 at
60°. The error grows about as tan(latitude), to 2.2e-3 at 80°, and
Projection.at accepts origins up to MAX_ORIGIN_LAT_DEG (85°).
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


# The chord bound of the module docstring. In real arithmetic the squared
# chord c = |u - v|^2 between two points' unit vectors is exactly 4h, h being
# haversine_distance's haversine term, and 2R asin(sqrt(c) / 2) is their
# distance. Each unit-vector component is off by a few ulps (u = 2**-53):
# np.radians rounds the angle, by up to ~2u * pi radians, and cos, sin and
# their product add a few ulps each, whatever SIMD numpy dispatches, so each
# component lies within ~25u of the true one, and the chord within
# 2 sqrt(3) * 25u. The differences of nearby components are exact, and
# squaring, summing, sqrt and arcsin round by a few ulps relative. Up to a
# quarter circumference (10,007 km) the distance moves by at most sqrt(2) R
# per unit of chord, so the gap between chord_distance and
# haversine_distance is at most 9e-8 m + ~1e-15 * d < 1e-7 m + 1e-14 * d.
# Measured over ~310k pairs (points co-located, 1e-12 to 0.05 degrees apart
# or anywhere, at the poles and at +-180 degrees; x86-64 with numpy 2.4), the
# worst gap was 3.2e-9 m within 10 km and 5.6e-9 m up to 10,000 km. Past a
# quarter circumference arcsin steepens towards the antipode: over 400k
# random pairs the worst gap was 0.27 m, for pairs within 1e-5 degrees of
# antipodal.


def unit_vectors(lat: Sequence[float], lon: Sequence[float]) -> np.ndarray:
    """The points (lat[i], lon[i]) on the unit sphere, as the columns of a
    3 x n array: (cos lat cos lon, cos lat sin lon, sin lat)."""
    angles = np.radians((lat, lon))
    cos, sin = np.cos(angles), np.sin(angles)
    return np.array((cos[0] * cos[1], cos[0] * sin[1], sin[0]))


def squared_chords(vectors: np.ndarray, col: int) -> np.ndarray:
    """The squared chords |u - v|^2 from column col of a 3 x n array of unit
    vectors to each of its columns, from the differences of components."""
    d = vectors - vectors[:, col, None]
    d *= d
    return d[0] + d[1] + d[2]


def chord_distance(chord2: float | np.ndarray) -> float | np.ndarray:
    """The great-circle distance, in metres, between unit vectors chord2 =
    |u - v|^2 apart, for one squared chord or an array of them."""
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(np.sqrt(chord2) / 2.0, 1.0))


def squared_chord(d: float) -> float:
    """The squared chord between unit vectors d metres apart on the globe:
    0 at or below 0 m, inf at or beyond half the circumference."""
    if d <= 0.0:
        return 0.0
    if d >= math.pi * EARTH_RADIUS_M:
        return math.inf
    return (2.0 * math.sin(d / (2.0 * EARTH_RADIUS_M))) ** 2


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
