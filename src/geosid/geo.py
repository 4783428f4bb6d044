"""Geodesy primitives: great-circle distance, azimuth, cluster centroids.

Latitude/longitude are degrees at the API boundary; all trigonometry runs
in radians and double precision. Azimuths follow the north = 0,
east = +pi/2 convention and live in the principal range (-pi, +pi].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EARTH_RADIUS_KM",
    "AntimeridianWarning",
    "EmptyClusterError",
    "GeoPoint",
    "LocalPolar",
    "azimuth_rad",
    "geo_centroid",
    "group_centroids",
    "haversine_km",
    "local_polar",
    "to_local_polar",
]

EARTH_RADIUS_KM = 6371.0


class EmptyClusterError(ValueError):
    """An operation that needs at least one point received none."""


class AntimeridianWarning(UserWarning):
    """Cluster longitudes span more than 180 degrees; the raw-longitude mean
    used for the geographic centroid is unreliable there."""


def _normalize_lon(lon: float) -> float:
    """Wrap a longitude in degrees into (-180, +180]."""
    lon = math.fmod(lon, 360.0)
    if lon <= -180.0:
        lon += 360.0
    elif lon > 180.0:
        lon -= 360.0
    return lon


@dataclass(frozen=True)
class GeoPoint:
    """A point on the sphere. ``lat`` in [-90, +90], ``lon`` wrapped into
    (-180, +180] at construction."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinates ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, +90]")
        object.__setattr__(self, "lat", float(self.lat))
        object.__setattr__(self, "lon", _normalize_lon(float(self.lon)))


@dataclass(frozen=True)
class LocalPolar:
    """Polar coordinates of a point relative to a cluster center:
    radial distance ``d`` in km and azimuth ``sigma`` in (-pi, +pi]."""

    d: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d) and self.d >= 0.0):
            raise ValueError(f"radial distance must be finite and >= 0, got {self.d}")
        if not (-math.pi < self.sigma <= math.pi):
            raise ValueError(f"azimuth {self.sigma} outside (-pi, +pi]")


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometers.

    Uses the haversine form 2*R*asin(sqrt(sin^2(dlat/2) +
    cos(lat_a)*cos(lat_b)*sin^2(dlon/2))); symmetric, bounded by pi*R.
    """
    phi_a = math.radians(a.lat)
    phi_b = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dpsi = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi_a) * math.cos(phi_b) * math.sin(dpsi / 2.0) ** 2
    # float round-off can push h a hair past 1 for antipodal points
    h = min(1.0, max(0.0, h))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def azimuth_rad(center: GeoPoint, p: GeoPoint) -> float:
    """Azimuth of ``p`` as seen from ``center``: 0 = north, +pi/2 = east.

    Computed as the argument of x + iy with
    x = cos(lat0)*sin(lat_p) - sin(lat0)*cos(lat_p)*cos(dlon) and
    y = sin(dlon)*cos(lat_p). Returns 0 for the degenerate case p == center.
    """
    phi0 = math.radians(center.lat)
    phip = math.radians(p.lat)
    dpsi = math.radians(p.lon - center.lon)
    x = math.cos(phi0) * math.sin(phip) - math.sin(phi0) * math.cos(phip) * math.cos(dpsi)
    y = math.sin(dpsi) * math.cos(phip)
    if x == 0.0 and y == 0.0:
        return 0.0
    sigma = math.atan2(y, x)
    if sigma <= -math.pi:  # atan2 can yield -pi; principal range is (-pi, +pi]
        sigma = math.pi
    return sigma


def geo_centroid(points: list[GeoPoint]) -> GeoPoint:
    """Arithmetic mean of latitudes and longitudes of a non-empty cluster.

    Raises EmptyClusterError on an empty list. Clusters whose raw longitudes
    span more than 180 degrees straddle the antimeridian, where the raw mean
    is meaningless; a diagnostic AntimeridianWarning is emitted.
    """
    if not points:
        raise EmptyClusterError("geo_centroid of an empty cluster")
    lons = [p.lon for p in points]
    if max(lons) - min(lons) > 180.0:
        warnings.warn(
            "cluster longitudes span more than 180 degrees; centroid is unreliable",
            AntimeridianWarning,
            stacklevel=2,
        )
    # summed strictly left to right (sum() compensates since Python 3.12),
    # so group_centroids reproduces this result bit for bit
    lat_sum = lon_sum = 0.0
    for p in points:
        lat_sum += p.lat
        lon_sum += p.lon
    n = len(points)
    return GeoPoint(lat_sum / n, lon_sum / n)


def to_local_polar(center: GeoPoint, p: GeoPoint) -> LocalPolar:
    """Map ``p`` into the local polar frame anchored at ``center``."""
    return LocalPolar(haversine_km(center, p), azimuth_rad(center, p))


def local_polar(
    lat0: np.ndarray, lon0: np.ndarray, lat: np.ndarray, lon: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Columnar :func:`to_local_polar`: ``(d_km, sigma_rad)`` of each point
    (``lat``, ``lon``) in the frame anchored at (``lat0``, ``lon0``).

    Inputs are degree arrays that broadcast together. Same formulas as
    :func:`haversine_km` and :func:`azimuth_rad`, including the clip of
    ``h`` to [0, 1], sigma = 0 for coincident points and -pi -> +pi.
    numpy's vectorized sin/cos may differ from ``math`` in the last ulp, so
    the results agree with the scalar functions to ~1e-13, not bitwise.
    """
    phi0 = np.radians(lat0)
    phip = np.radians(lat)
    dphi = np.radians(np.subtract(lat, lat0))
    dpsi = np.radians(np.subtract(lon, lon0))
    cos0, sin0 = np.cos(phi0), np.sin(phi0)
    cosp, sinp = np.cos(phip), np.sin(phip)
    h = np.sin(dphi / 2.0) ** 2 + cos0 * cosp * np.sin(dpsi / 2.0) ** 2
    d_km = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    x = cos0 * sinp - sin0 * cosp * np.cos(dpsi)
    y = np.sin(dpsi) * cosp
    sigma = np.where((x == 0.0) & (y == 0.0), 0.0, np.arctan2(y, x))
    return d_km, np.where(sigma <= -math.pi, math.pi, sigma)


def group_centroids(
    groups: np.ndarray, lat: np.ndarray, lon: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Columnar :func:`geo_centroid`: mean (lat, lon) of each group
    ``0..groups.max()``, where ``groups[i]`` is the group of row i.

    Members are summed in ascending row order, so each centroid is
    bit-equal to :func:`geo_centroid` over the group's rows in that order.
    Every group id up to the maximum must occur. Warns
    AntimeridianWarning when some group's longitudes span more than 180
    degrees.
    """
    if groups.size == 0:
        raise EmptyClusterError("group_centroids of an empty point set")
    counts = np.bincount(groups)
    if not np.all(counts):
        raise EmptyClusterError(f"group {int(np.argmin(counts))} has no members")
    lon_max = np.full(counts.size, -np.inf)
    lon_min = np.full(counts.size, np.inf)
    np.maximum.at(lon_max, groups, lon)
    np.minimum.at(lon_min, groups, lon)
    if np.any(lon_max - lon_min > 180.0):
        warnings.warn(
            "cluster longitudes span more than 180 degrees; centroid is unreliable",
            AntimeridianWarning,
            stacklevel=2,
        )
    return np.bincount(groups, weights=lat) / counts, np.bincount(groups, weights=lon) / counts
