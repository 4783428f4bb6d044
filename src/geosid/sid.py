"""Semantic-geographic identifiers and codebook-conflict resolution.

A SID is the code triple (j1, j2, j3); several POIs may share one. The
resolvers below disambiguate shared triples: ordinal hard coding at a
fourth position, geographic closest-match, or a seeded random pick.
All orderings tie-break on the POI id so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geo import GeoPoint, haversine_km

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


def group_codes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of an (N, L) integer code array in ascending
    lexicographic order, for each row the index of its distinct row, and
    the row order that sorts by that index (rows of one distinct row in
    ascending row order: ``np.argsort(groups, kind="stable")``).

    The first two are ``np.unique(codes, axis=0, return_inverse=True)``,
    from one lexsort instead of a sort over row-sized void records; the
    order is the lexsort itself.
    """
    order = np.lexsort(codes.T[::-1])
    ranked = codes[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    groups = np.empty(len(order), dtype=np.int64)
    groups[order] = np.cumsum(starts) - 1
    return ranked[starts], groups, order


class SidIndex:
    """Immutable two-way view of a POI -> SID assignment, held as columns.

    ``ids`` is the POI ids in ascending order and ``codes`` the aligned
    read-only (N, 3) int64 triples; ``row_groups`` gives each row the
    position of its triple among the distinct triples in ascending order
    (the groups of ``group_codes(codes)``), also read-only. Every distinct
    triple has one shared :class:`Sid`, which all of its POIs map to, so
    an index builds one ``Sid`` per triple, not one per POI. Groups hold
    POIs by triple; member lists are sorted by POI id.

    Build it from a mapping, ``SidIndex({poi_id: sid})``, or from columns,
    ``SidIndex(ids, codes)``: POI ids in any order and an (N, 3) integer
    array in the same order. The index holds bare triples, so a mapped
    ``Sid`` with a layer-4 ordinal is rejected.
    """

    def __init__(
        self, assignments: Mapping[str, Sid] | Sequence[str], codes: np.ndarray | None = None
    ):
        if codes is None:
            sids = list(assignments.values())
            if any(sid.has_layer4 for sid in sids):
                raise ValueError("SidIndex holds bare triples; got a SID with a layer-4 ordinal")
            codes = np.array([sid.key for sid in sids], dtype=np.int64).reshape(len(sids), 3)
        ids = list(assignments)
        n = len(ids)
        if n == 0:
            raise ValueError("SidIndex needs at least one assignment")
        codes = np.asarray(codes)
        if codes.shape != (n, 3) or not np.issubdtype(codes.dtype, np.integer):
            raise ValueError(f"codes must be an ({n}, 3) integer array, got {codes.dtype} {codes.shape}")
        if np.any(codes < 0):
            raise ValueError("SID codes must be non-negative")
        order = sorted(range(n), key=ids.__getitem__)
        self.ids = tuple([ids[i] for i in order])
        self.codes = codes.astype(np.int64, copy=False)[order]
        self.codes.flags.writeable = False
        triples, rows_group, self._members = group_codes(self.codes)
        columns = triples.T.tolist()
        self._sids = np.empty(len(triples), dtype=object)
        self._sids[:] = list(map(Sid, *columns))
        self._slot = dict(zip(zip(*columns), range(len(triples))))
        self._by_poi = dict(zip(self.ids, self._sids[rows_group].tolist()))
        if len(self._by_poi) != n:
            dup = next(a for a, b in zip(self.ids, self.ids[1:]) if a == b)
            raise ValueError(f"duplicate POI id {dup!r}")
        self._bounds = np.concatenate(([0], np.cumsum(np.bincount(rows_group))))
        rows_group.flags.writeable = False
        self.row_groups = rows_group

    def sid_of(self, poi_id: str) -> Sid:
        return self._by_poi[poi_id]

    def sids_for(self, codes: np.ndarray) -> list[Sid]:
        """The shared ``Sid`` of each row of an (N, 3) code array; rows
        whose triple the index lacks get a new ``Sid``."""
        columns = codes.T.tolist()
        slots = np.fromiter(
            map(self._slot.get, zip(*columns), repeat(-1)), dtype=np.int64, count=codes.shape[0]
        )
        out = self._sids[slots].tolist()
        for row in np.flatnonzero(slots < 0).tolist():
            out[row] = Sid(columns[0][row], columns[1][row], columns[2][row])
        return out

    def _group_members(self, slot: int) -> tuple[str, ...]:
        rows = self._members[self._bounds[slot] : self._bounds[slot + 1]]
        return tuple([self.ids[row] for row in rows.tolist()])

    def group(self, sid: Sid) -> tuple[str, ...]:
        """POI ids sharing the triple of ``sid``, sorted by id."""
        slot = self._slot.get(sid.key)
        if slot is None:
            raise EmptySidGroupError(f"no POIs carry SID {sid.key}")
        return self._group_members(slot)

    def groups(self) -> Iterable[tuple[tuple[int, int, int], tuple[str, ...]]]:
        """All (triple, members) pairs in ascending triple order."""
        return [(sid.key, self._group_members(slot)) for slot, sid in enumerate(self._sids)]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, poi_id: str) -> bool:
        return poi_id in self._by_poi

    @property
    def assignments(self) -> dict[str, Sid]:
        """POI id -> shared ``Sid``, in ascending id order."""
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
) -> list[str]:
    """The up-to-``k`` POIs of the SID group nearest to ``user``.

    Members are ordered by ascending great-circle distance, ties by POI id;
    the result is a prefix of the full ordering, so growing ``k`` only
    appends.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    members = index.group(sid)
    ranked = sorted(members, key=lambda pid: (haversine_km(user, locations[pid]), pid))
    return ranked[: min(k, len(ranked))]


def resolve_random(index: SidIndex, sid: Sid, seed: int = 0) -> str:
    """A uniform member of the SID group, deterministic under ``seed``."""
    members = index.group(sid)
    rng = np.random.default_rng(seed)
    return members[int(rng.integers(len(members)))]
