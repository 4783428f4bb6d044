"""Semantic-geographic identifiers and codebook-conflict resolution.

A SID is the code triple (j1, j2, j3); several POIs may share one. The
resolvers below disambiguate shared triples: ordinal hard coding at a
fourth position, geographic closest-match, or a seeded random pick.
All orderings tie-break on the POI id so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .geo import EarthModel, GeoPoint, haversine_km

__all__ = [
    "EmptySidGroupError",
    "Sid",
    "SidIndex",
    "assemble",
    "check_codes",
    "group_codes",
    "hard_code_layer4",
    "resolve_closest",
    "resolve_random",
]


class EmptySidGroupError(KeyError):
    """No POI carries the requested SID triple."""


@dataclass(frozen=True, order=True)
class Sid:
    """Hierarchical code triple, optionally extended with a disambiguation
    ordinal ``j4`` (present only under layer-4 hard coding)."""

    j1: int
    j2: int
    j3: int
    j4: int = -1  # -1 encodes "absent" so instances stay orderable

    def __post_init__(self) -> None:
        j1, j2, j3, j4 = self.j1, self.j2, self.j3, self.j4
        # plain ints (not bool, not numpy) already in range need no coercion
        if (
            type(j1) is int and type(j2) is int and type(j3) is int and type(j4) is int
            and j1 >= 0 and j2 >= 0 and j3 >= 0 and j4 >= -1
        ):
            return
        for name in ("j1", "j2", "j3"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if not isinstance(self.j4, (int, np.integer)) or self.j4 < -1:
            raise ValueError(f"j4 must be >= 0 (or -1 for absent), got {self.j4!r}")
        object.__setattr__(self, "j4", int(self.j4))

    @property
    def key(self) -> tuple[int, int, int]:
        """The bare triple, ignoring any layer-4 ordinal."""
        return (self.j1, self.j2, self.j3)

    @property
    def has_layer4(self) -> bool:
        return self.j4 >= 0

    def __str__(self) -> str:
        base = f"{self.j1}-{self.j2}-{self.j3}"
        return f"{base}-{self.j4}" if self.has_layer4 else base


_CODE_NAMES = ("j1", "j2", "j3")


def _out_of_range(name: str, idx: int, cap: int) -> ValueError:
    return ValueError(f"{name}={idx} out of range for layer capacity {cap}")


def assemble(j1: int, j2: int, j3: int, capacities: tuple[int, int, int]) -> Sid:
    """Build a SID, validating each index against its layer capacity."""
    for name, idx, cap in zip(_CODE_NAMES, (j1, j2, j3), capacities):
        if not 0 <= idx < cap:
            raise _out_of_range(name, idx, cap)
    return Sid(j1, j2, j3)


def check_codes(codes: np.ndarray, capacities: tuple[int, int, int]) -> None:
    """Columnar :func:`assemble` check over an (N, 3) code array: raises the
    error ``assemble`` would raise for the first offending row."""
    bad = (codes < 0) | (codes >= np.asarray(capacities))
    if np.any(bad):
        row, col = divmod(int(np.argmax(bad)), 3)
        raise _out_of_range(_CODE_NAMES[col], int(codes[row, col]), capacities[col])


def group_codes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (N, L) integer code array in ascending
    lexicographic order, and for each row the index of its distinct row.

    Same result as ``np.unique(codes, axis=0, return_inverse=True)``, from
    one lexsort instead of a sort over row-sized void records.
    """
    order = np.lexsort(codes.T[::-1])
    ranked = codes[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    groups = np.empty(len(order), dtype=np.int64)
    groups[order] = np.cumsum(starts) - 1
    return ranked[starts], groups


class SidIndex:
    """Immutable two-way view of a POI -> SID assignment.

    Groups POIs by the bare triple; group member lists are sorted by POI id.
    """

    def __init__(self, assignments: Mapping[str, Sid]):
        if not assignments:
            raise ValueError("SidIndex needs at least one assignment")
        by_poi: dict[str, Sid] = {}
        groups: dict[tuple[int, int, int], list[str]] = {}
        for poi_id in sorted(assignments):
            sid = assignments[poi_id]
            by_poi[poi_id] = sid
            groups.setdefault(sid.key, []).append(poi_id)
        self._by_poi = by_poi
        self._groups = {key: tuple(members) for key, members in groups.items()}

    def sid_of(self, poi_id: str) -> Sid:
        return self._by_poi[poi_id]

    def group(self, sid: Sid) -> tuple[str, ...]:
        """POI ids sharing the triple of ``sid``, sorted by id."""
        try:
            return self._groups[sid.key]
        except KeyError:
            raise EmptySidGroupError(f"no POIs carry SID {sid.key}") from None

    def groups(self) -> Iterable[tuple[tuple[int, int, int], tuple[str, ...]]]:
        """All (triple, members) pairs in ascending triple order."""
        return sorted(self._groups.items())

    def __len__(self) -> int:
        return len(self._by_poi)

    def __contains__(self, poi_id: str) -> bool:
        return poi_id in self._by_poi

    @property
    def assignments(self) -> dict[str, Sid]:
        return dict(self._by_poi)


def hard_code_layer4(index: SidIndex) -> dict[str, Sid]:
    """Give every POI a globally unique 4-tuple.

    Within each triple group, members receive ordinals 0..n-1 in
    sorted-by-id order (the group order of the index).
    """
    out: dict[str, Sid] = {}
    for key, members in index.groups():
        for ordinal, poi_id in enumerate(members):
            out[poi_id] = Sid(key[0], key[1], key[2], ordinal)
    return out


def resolve_closest(
    index: SidIndex,
    sid: Sid,
    user: GeoPoint,
    locations: Mapping[str, GeoPoint],
    k: int = 10,
    earth: EarthModel = EarthModel(),
) -> list[str]:
    """The up-to-``k`` POIs of the SID group nearest to ``user``.

    Members are ordered by ascending great-circle distance, ties by POI id;
    the result is a prefix of the full ordering, so growing ``k`` only
    appends.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    members = index.group(sid)
    ranked = sorted(members, key=lambda pid: (haversine_km(user, locations[pid], earth), pid))
    return ranked[: min(k, len(ranked))]


def resolve_random(index: SidIndex, sid: Sid, seed: int = 0) -> str:
    """A uniform member of the SID group, deterministic under ``seed``."""
    members = index.group(sid)
    rng = np.random.default_rng(seed)
    return members[int(rng.integers(len(members)))]
