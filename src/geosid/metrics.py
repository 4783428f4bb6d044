"""Quantization quality and ranking metrics.

Quantization side: codebook utilization (distinct triples over total
capacity), independent coding rate (fraction of POIs whose triple is
unshared), and the geographic dispersion of each SID group around its own
geo-centroid (mean plus nearest-rank p90/p95 over the pooled distances).

Ranking side: Hit@N and NDCG@N for a single relevant item over an
externally supplied prediction list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .geo import GeoPoint, group_centroids, local_polar
from .sid import Sid, group_codes

# Not called here; kept bound because perfbench/tracer.py wraps these module
# attributes by name.
from .geo import geo_centroid, haversine_km  # noqa: F401

__all__ = [
    "QuantReport",
    "RankingCase",
    "build_quant_report",
    "cur",
    "geo_dispersion",
    "hit_at_n",
    "icr",
    "ndcg_at_n",
    "nearest_rank",
    "quant_report",
]


@dataclass(frozen=True)
class QuantReport:
    """One row of the quantization-metrics table.

    ``cur`` counts distinct observed triples against the full triple
    capacity K1*K2*K3 (the denominator choice is part of the report's
    meaning, so it is echoed by the table formatter).
    """

    cur: float
    icr: float
    avg_dist_km: float
    p90_dist_km: float
    p95_dist_km: float
    group_count: int
    poi_count: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.cur <= 1.0 or not 0.0 <= self.icr <= 1.0:
            raise ValueError("cur and icr must lie in [0, 1]")
        if min(self.avg_dist_km, self.p90_dist_km, self.p95_dist_km) < 0.0:
            raise ValueError("distances must be >= 0")
        if self.p90_dist_km > self.p95_dist_km:
            raise ValueError("p90 cannot exceed p95")

    def as_dict(self) -> dict:
        return {
            "cur": self.cur,
            "icr": self.icr,
            "avg_dist_km": self.avg_dist_km,
            "p90_dist_km": self.p90_dist_km,
            "p95_dist_km": self.p95_dist_km,
            "group_count": self.group_count,
            "poi_count": self.poi_count,
        }


@dataclass(frozen=True)
class RankingCase:
    """A prediction list and the single relevant SID it is scored against."""

    predicted: tuple[Sid, ...]
    truth: Sid

    def __post_init__(self) -> None:
        if not self.predicted:
            raise ValueError("predicted list must be non-empty")
        object.__setattr__(self, "predicted", tuple(self.predicted))

    @property
    def has_duplicates(self) -> bool:
        return len(set(self.predicted)) != len(self.predicted)


def _code_array(assignments: Mapping[str, Sid], what: str) -> tuple[list[str], np.ndarray]:
    """POI ids in sorted order and their (N, 3) triples in the same order."""
    if not assignments:
        raise ValueError(f"{what} of an empty assignment set")
    ids = sorted(assignments)
    codes = np.array([assignments[pid].key for pid in ids], dtype=np.int64)
    return ids, codes


def _triples(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group id of each row (distinct triples in ascending order) and the
    size of each group."""
    _, groups, _ = group_codes(codes)
    return groups, np.bincount(groups)


def _icr(counts: np.ndarray) -> float:
    return int(np.count_nonzero(counts == 1)) / int(counts.sum())


def _cur(counts: np.ndarray, capacities: tuple[int, int, int]) -> float:
    total = 1
    for cap in capacities:
        if cap <= 0:
            raise ValueError(f"layer capacities must be positive, got {capacities}")
        total *= cap
    return counts.size / total


def _dispersion(groups: np.ndarray, lat: np.ndarray, lon: np.ndarray) -> tuple[float, float, float]:
    center_lat, center_lon = group_centroids(groups, lat, lon)
    dists, _ = local_polar(center_lat[groups], center_lon[groups], lat, lon)
    dists.sort()
    return float(dists.mean()), float(nearest_rank(dists, 0.90)), float(nearest_rank(dists, 0.95))


def icr(assignments: Mapping[str, Sid]) -> float:
    """Fraction of POIs whose SID triple is shared with no other POI."""
    _, codes = _code_array(assignments, "icr")
    return _icr(_triples(codes)[1])


def cur(assignments: Mapping[str, Sid], capacities: tuple[int, int, int]) -> float:
    """Distinct observed triples over the total triple capacity."""
    _, codes = _code_array(assignments, "cur")
    return _cur(_triples(codes)[1], capacities)


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q*N)-th smallest value (1-based)."""
    if len(sorted_values) == 0:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    return sorted_values[math.ceil(q * len(sorted_values)) - 1]


def _locations(ids: list[str], locations: Mapping[str, GeoPoint]) -> tuple[np.ndarray, np.ndarray]:
    missing = [pid for pid in ids if pid not in locations]
    if missing:
        raise ValueError(f"missing locations for POIs: {missing[:5]}")
    lat = np.array([locations[pid].lat for pid in ids], dtype=float)
    lon = np.array([locations[pid].lon for pid in ids], dtype=float)
    return lat, lon


def geo_dispersion(
    assignments: Mapping[str, Sid], locations: Mapping[str, GeoPoint]
) -> tuple[float, float, float]:
    """(avg, p90, p95) distance in km from POIs to their SID group centroid.

    POIs are grouped by the bare triple; each group's reference point is
    the geographic centroid of its members (summed in POI-id order). The
    average is over all POIs, and the percentiles are nearest-rank over
    the pooled distance list.
    """
    ids, codes = _code_array(assignments, "geo_dispersion")
    lat, lon = _locations(ids, locations)
    return _dispersion(_triples(codes)[0], lat, lon)


def quant_report(
    codes: np.ndarray,
    lat: np.ndarray,
    lon: np.ndarray,
    capacities: tuple[int, int, int],
    groups: np.ndarray | None = None,
) -> QuantReport:
    """The full metrics row for an (N, 3) code array with the POIs' degree
    coordinates in the same row order. ``groups`` is the row grouping of
    ``group_codes(codes)`` when the caller already has it (a ``SidIndex``
    built on ``codes`` holds it as ``row_groups``)."""
    if codes.shape[0] == 0:
        raise ValueError("quant_report of an empty assignment set")
    groups, counts = _triples(codes) if groups is None else (groups, np.bincount(groups))
    avg, p90, p95 = _dispersion(groups, lat, lon)
    return QuantReport(
        cur=_cur(counts, capacities),
        icr=_icr(counts),
        avg_dist_km=avg,
        p90_dist_km=p90,
        p95_dist_km=p95,
        group_count=int(counts.size),
        poi_count=int(codes.shape[0]),
    )


def build_quant_report(
    assignments: Mapping[str, Sid],
    locations: Mapping[str, GeoPoint],
    capacities: tuple[int, int, int],
) -> QuantReport:
    """Assemble the full metrics row for one assignment set."""
    ids, codes = _code_array(assignments, "build_quant_report")
    lat, lon = _locations(ids, locations)
    return quant_report(codes, lat, lon, capacities)


def hit_at_n(case: RankingCase, n: int) -> int:
    """1 iff the truth appears among the first ``n`` predictions."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return int(any(sid == case.truth for sid in case.predicted[:n]))


def ndcg_at_n(case: RankingCase, n: int) -> float:
    """1/log2(1+rank) for the first occurrence of the truth within the top
    ``n``; 0 when absent. Single-relevant-item form, so values lie in [0, 1]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for rank, sid in enumerate(case.predicted[:n], start=1):
        if sid == case.truth:
            return 1.0 / math.log2(1.0 + rank)
    return 0.0
