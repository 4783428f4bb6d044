"""Corpus and codebook persistence plus synthetic corpus generation.

On-disk layout:

* POI metadata: one JSON object per line with keys ``id``, ``lat``,
  ``lon`` and optional ``category``.
* Embedding matrix: 16-byte header (magic ``GSEM``, u32 version, u32 N,
  u32 M, all little-endian), then N*M float32 little-endian values
  row-major, then a u64 checksum (first 8 bytes of the SHA-256 of header
  plus payload). The fixed-stride layout keeps the file memory-mappable.
* Codebook artifact: magic ``GSCB``, u32 version, u64 header length, a
  UTF-8 JSON header (config snapshot, layer shapes, per-cluster geo
  references, SID assignments), the centroid matrices as float32
  little-endian blocks in layer order, and the same trailing checksum.

Storage is 32-bit; computation stays double precision. Artifact centroids
are snapped to float32 at construction so save/load round-trips bit-exact.

``load_corpus`` builds columns, not per-POI objects: it checks each
metadata line in file order as it collects ids, coordinates and
categories, and returns them as a :class:`Corpus`, which the pipeline
reads directly and which still reads as a sequence of :class:`PoiRecord`.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .geo import EARTH_RADIUS_KM, GeoPoint, local_polar
from .quantizer import CodebookLayer, TrainConfig, enhanced_dim
from .sid import Sid, SidIndex

__all__ = [
    "ClusterGeo",
    "CodebookArtifact",
    "CodebookFormatError",
    "Corpus",
    "CorpusFormatError",
    "FrameTable",
    "PoiRecord",
    "SynthConfig",
    "export_geojson",
    "generate_synthetic",
    "load_codebook",
    "load_corpus",
    "save_codebook",
    "save_corpus",
]

_EMBED_MAGIC = b"GSEM"
_CODEBOOK_MAGIC = b"GSCB"
_FORMAT_VERSION = 1


class CorpusFormatError(ValueError):
    """A corpus file is missing, malformed, or inconsistent."""


class CodebookFormatError(ValueError):
    """A codebook artifact file is malformed, truncated, or corrupt."""


@dataclass(frozen=True)
class PoiRecord:
    """One point of interest: stable id, location, and the row index of its
    embedding in the corpus matrix."""

    id: str
    location: GeoPoint
    embedding_ref: int
    category: str | None = None


def _wrap_lon(lon: np.ndarray) -> np.ndarray:
    """Longitudes wrapped into (-180, +180] in place, with the steps and
    the bits of the scalar wrap in :class:`GeoPoint`: an exact fmod, then
    one +-360."""
    np.fmod(lon, 360.0, out=lon)
    lon[lon <= -180.0] += 360.0
    lon[lon > 180.0] -= 360.0
    return lon


class Corpus(Sequence[PoiRecord]):
    """A corpus's POI metadata as columns, in file row order: the ids, the
    float64 latitude and longitude in degrees and each POI's category or
    None. Longitudes are wrapped into (-180, +180] at construction, as
    :class:`GeoPoint` wraps them, and invalid coordinates are rejected.

    It reads as a sequence of :class:`PoiRecord`. Indexing and iteration
    build one record per access, with its row as ``embedding_ref``; a
    slice gives a list of records. The columns are read-only.
    """

    def __init__(
        self,
        ids: list[str],
        lat: np.ndarray,
        lon: np.ndarray,
        category: list[str | None] | None = None,
    ):
        n = len(ids)
        lat, lon = np.array(lat, dtype=np.float64), np.array(lon, dtype=np.float64)
        category = [None] * n if category is None else category
        if lat.shape != (n,) or lon.shape != (n,) or len(category) != n:
            raise ValueError(f"corpus columns must all have {n} rows")
        bad = ~(np.abs(lat) <= 90.0) | ~np.isfinite(lon)
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"POI {ids[row]!r}: invalid coordinates ({lat[row]}, {lon[row]})")
        self.ids, self.lat, self.lon, self.category = ids, lat, _wrap_lon(lon), category
        lat.flags.writeable = False
        lon.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    def _record(self, row: int) -> PoiRecord:
        location = GeoPoint(float(self.lat[row]), float(self.lon[row]))
        return PoiRecord(self.ids[row], location, row, self.category[row])

    def __getitem__(self, index):
        rows = range(len(self.ids))[index]
        if isinstance(rows, range):
            return [self._record(row) for row in rows]
        return self._record(rows)

    def __iter__(self):
        locations = map(GeoPoint, self.lat.tolist(), self.lon.tolist())
        return map(PoiRecord, self.ids, locations, range(len(self.ids)), self.category)


@dataclass(frozen=True)
class ClusterGeo:
    """Frozen training-time geo reference of one cluster: its centroid and
    the distance scale used to normalize member distances."""

    center: GeoPoint
    d_scale_km: float

    def __post_init__(self) -> None:
        if not self.d_scale_km > 0:
            raise ValueError(f"d_scale_km must be positive, got {self.d_scale_km}")


class FrameTable:
    """Columnar form of a cell -> ClusterGeo map for batch lookups.

    ``depth`` 1 keys cells by j1 (layer-2 frames), ``depth`` 2 by (j1, j2)
    (layer-3 frames). Cells are held as sorted packed keys (j1, or
    j1*K2 + j2) beside centre lat/lon and distance-scale columns, so the
    table grows with the cells seen in training, not with K1*K2.
    """

    def __init__(self, frames: Mapping, layer_sizes: tuple[int, ...], depth: int):
        cell_keys, refs = list(frames), list(frames.values())
        keys = np.array(cell_keys, dtype=np.int64).reshape(len(cell_keys), depth)
        bad = np.any((keys < 0) | (keys >= np.asarray(layer_sizes[:depth])), axis=1)
        if np.any(bad):
            key = cell_keys[int(np.argmax(bad))]
            raise ValueError(f"geo frame cell {key} outside layer sizes {tuple(layer_sizes)}")
        self._k2 = layer_sizes[1]
        cells = self._pack(keys)
        order = np.argsort(cells)
        self.cells = cells[order]
        self.lat = np.array([refs[i].center.lat for i in order], dtype=float)
        self.lon = np.array([refs[i].center.lon for i in order], dtype=float)
        self.scale = np.array([refs[i].d_scale_km for i in order], dtype=float)

    def _pack(self, codes: np.ndarray) -> np.ndarray:
        return codes[:, 0] if codes.shape[1] == 1 else codes[:, 0] * self._k2 + codes[:, 1]

    def polar(
        self, codes: np.ndarray, lat: np.ndarray, lon: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(d_km, sigma_rad, d_scale_km) of each row in the frame of its cell.

        ``codes`` is (N, depth). Rows whose cell has no frame get the
        neutral frame: zero distance and angle, scale 1.
        """
        n = codes.shape[0]
        d_km, sigma, scale = np.zeros(n), np.zeros(n), np.ones(n)
        if self.cells.size == 0:
            return d_km, sigma, scale
        cells = self._pack(codes)
        pos = np.minimum(np.searchsorted(self.cells, cells), self.cells.size - 1)
        rows = np.nonzero(self.cells[pos] == cells)[0]
        cell = pos[rows]
        d_km[rows], sigma[rows] = local_polar(self.lat[cell], self.lon[cell], lat[rows], lon[rows])
        scale[rows] = self.scale[cell]
        return d_km, sigma, scale


def _digest64(data: bytes | memoryview) -> bytes:
    return hashlib.sha256(data).digest()[:8]


# ---------------------------------------------------------------------------
# corpus


def save_corpus(
    pois: list[PoiRecord],
    embeddings: np.ndarray,
    poi_path: str | Path,
    embedding_path: str | Path,
) -> None:
    """Write the JSONL metadata file and the binary embedding matrix."""
    matrix = np.ascontiguousarray(embeddings, dtype=np.float32)
    if matrix.ndim != 2 or matrix.shape[0] != len(pois):
        raise ValueError(
            f"embedding matrix shape {matrix.shape} does not match {len(pois)} POI records"
        )
    with open(poi_path, "w", encoding="utf-8") as fh:
        for poi in pois:
            rec = {"id": poi.id, "lat": poi.location.lat, "lon": poi.location.lon}
            if poi.category is not None:
                rec["category"] = poi.category
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    header = _EMBED_MAGIC + struct.pack("<III", _FORMAT_VERSION, *matrix.shape)
    payload = matrix.tobytes(order="C")
    with open(embedding_path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(_digest64(header + payload))


def load_corpus(
    poi_path: str | Path, embedding_path: str | Path
) -> tuple[Corpus, np.ndarray]:
    """Parse and validate a corpus; embeddings come back float64.

    Every rejection names the offending record or line: duplicate ids,
    invalid coordinates, non-finite embedding values, count mismatches.
    Lines are checked in file order, so the first faulty one is named.
    """
    ids: list[str] = []
    lats: list[float] = []
    lons: list[float] = []
    categories: list[str | None] = []
    seen: set[str] = set()
    scan = json.JSONDecoder().scan_once
    inf = math.inf
    with open(poi_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec, end = scan(line, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(line):  # not one whole JSON value; json.loads says why
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusFormatError(f"{poi_path}, line {line_no}: invalid JSON ({exc})") from exc
            try:
                poi_id = rec["id"]
                if not isinstance(poi_id, str) or not poi_id:
                    raise ValueError("id must be a non-empty string")
                lat, lon = float(rec["lat"]), float(rec["lon"])
                if not (-90.0 <= lat <= 90.0 and -inf < lon < inf):
                    GeoPoint(lat, lon)  # raises, naming the fault
            except (KeyError, TypeError, ValueError) as exc:
                rid = rec.get("id", f"(line {line_no})") if isinstance(rec, dict) else line_no
                raise CorpusFormatError(f"{poi_path}, record {rid}: {exc}") from exc
            if poi_id in seen:
                raise CorpusFormatError(f"{poi_path}, record {poi_id!r}: duplicate id")
            seen.add(poi_id)
            category = rec.get("category")
            if category is not None and not isinstance(category, str):
                raise CorpusFormatError(f"{poi_path}, record {poi_id!r}: category must be a string")
            ids.append(poi_id)
            lats.append(lat)
            lons.append(lon)
            categories.append(category)

    raw = Path(embedding_path).read_bytes()
    if len(raw) < 24:
        raise CorpusFormatError(f"{embedding_path}: truncated (only {len(raw)} bytes)")
    if raw[:4] != _EMBED_MAGIC:
        raise CorpusFormatError(f"{embedding_path}: bad magic {raw[:4]!r}")
    version, n, m = struct.unpack("<III", raw[4:16])
    if version != _FORMAT_VERSION:
        raise CorpusFormatError(f"{embedding_path}: unsupported format version {version}")
    expected = 16 + 4 * n * m + 8
    if len(raw) != expected:
        raise CorpusFormatError(
            f"{embedding_path}: expected {expected} bytes for {n}x{m}, found {len(raw)}"
        )
    if raw[-8:] != _digest64(memoryview(raw)[:-8]):
        raise CorpusFormatError(f"{embedding_path}: checksum mismatch, file corrupt")
    if n != len(ids):
        raise CorpusFormatError(
            f"embedding count {n} does not match {len(ids)} records in {poi_path}"
        )
    if m % 2 != 0:
        raise CorpusFormatError(f"{embedding_path}: embedding dimension {m} must be even")
    matrix = np.frombuffer(raw, dtype="<f4", count=n * m, offset=16).reshape(n, m).astype(np.float64)
    bad = np.nonzero(~np.all(np.isfinite(matrix), axis=1))[0]
    if bad.size:
        raise CorpusFormatError(
            f"{embedding_path}: non-finite embedding for record {ids[bad[0]]!r}"
        )
    return Corpus(ids, lats, lons, categories), matrix


# ---------------------------------------------------------------------------
# codebook artifact


class CodebookArtifact:
    """Everything needed to assign new POIs: the trained layers, the frozen
    per-cluster geo references, and the training-time SID index.

    ``geo_second`` maps j1 -> ClusterGeo (present when the rotary stage
    feeds the second layer); ``geo_third`` maps (j1, j2) -> ClusterGeo
    (present when it feeds the third). Centroids are snapped to float32 on
    construction: the storage encoding, so round-trips are bit-exact.
    ``second_frames``/``third_frames`` are :class:`FrameTable` views of the
    two maps for replay, built once here; treat the maps as read-only.
    """

    format_version = _FORMAT_VERSION

    def __init__(
        self,
        config: TrainConfig,
        layers: tuple[CodebookLayer, CodebookLayer, CodebookLayer],
        geo_second: Mapping[int, ClusterGeo],
        geo_third: Mapping[tuple[int, int], ClusterGeo],
        sid_index: SidIndex,
    ):
        if len(layers) != 3:
            raise ValueError(f"artifact needs exactly 3 layers, got {len(layers)}")
        snapped = tuple(
            CodebookLayer(
                centroids=layer.centroids.astype(np.float32).astype(np.float64),
                metric=layer.metric,
            )
            for layer in layers
        )
        self._check_dims(config, snapped)
        self.config = config
        self.layers = snapped
        self.geo_second = dict(sorted(geo_second.items()))
        self.geo_third = dict(sorted(geo_third.items()))
        self.second_frames = FrameTable(self.geo_second, config.layer_sizes, 1)
        self.third_frames = FrameTable(self.geo_third, config.layer_sizes, 2)
        self.sid_index = sid_index

    @staticmethod
    def _check_dims(config: TrainConfig, layers: tuple[CodebookLayer, ...]) -> None:
        for level, (prev, layer) in enumerate(zip(layers, layers[1:]), start=2):
            expect = enhanced_dim(config, prev.dim) if level in config.geo_levels else prev.dim
            if layer.dim != expect:
                raise ValueError(
                    f"layer-{level} dimension {layer.dim} inconsistent with config (expected {expect})"
                )
        for level, (layer, k) in enumerate(zip(layers, config.layer_sizes), start=1):
            if layer.k != k:
                raise ValueError(f"layer {level} has {layer.k} centroids, config says {k}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CodebookArtifact):
            return NotImplemented
        return (
            self.config == other.config
            and all(
                a.metric == b.metric and np.array_equal(a.centroids, b.centroids)
                for a, b in zip(self.layers, other.layers)
            )
            and self.geo_second == other.geo_second
            and self.geo_third == other.geo_third
            and self.sid_index.ids == other.sid_index.ids
            and np.array_equal(self.sid_index.codes, other.sid_index.codes)
        )


def _config_to_dict(cfg: TrainConfig) -> dict:
    return {
        "layer_sizes": list(cfg.layer_sizes),
        "max_iters": cfg.max_iters,
        "tol": cfg.tol,
        "seed": cfg.seed,
        "variant": cfg.variant,
        "geo_attributes": sorted(cfg.geo_attributes),
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "rope_layer": cfg.rope_layer,
        "d_scale_km": cfg.d_scale_km,
    }


def _config_from_dict(data: dict) -> TrainConfig:
    return TrainConfig(
        layer_sizes=tuple(data["layer_sizes"]),
        max_iters=data["max_iters"],
        tol=data["tol"],
        seed=data["seed"],
        variant=data["variant"],
        geo_attributes=frozenset(data["geo_attributes"]),
        alpha=data["alpha"],
        beta=data["beta"],
        rope_layer=data["rope_layer"],
        d_scale_km=data["d_scale_km"],
    )


def save_codebook(artifact: CodebookArtifact, path: str | Path) -> None:
    """Serialize an artifact; byte-identical for equal artifacts."""
    index = artifact.sid_index
    header = {
        "format_version": artifact.format_version,
        "config": _config_to_dict(artifact.config),
        "layers": [
            {"k": layer.k, "dim": layer.dim, "metric": layer.metric} for layer in artifact.layers
        ],
        "geo_second": [
            [j1, g.center.lat, g.center.lon, g.d_scale_km]
            for j1, g in artifact.geo_second.items()
        ],
        "geo_third": [
            [j1, j2, g.center.lat, g.center.lon, g.d_scale_km]
            for (j1, j2), g in artifact.geo_third.items()
        ],
        "assignments": list(map(list, zip(index.ids, *index.codes.T.tolist()))),
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    blob = bytearray()
    blob += _CODEBOOK_MAGIC
    blob += struct.pack("<I", artifact.format_version)
    blob += struct.pack("<Q", len(header_bytes))
    blob += header_bytes
    for layer in artifact.layers:
        blob += layer.centroids.astype(np.float32).tobytes(order="C")
    blob += _digest64(bytes(blob))
    Path(path).write_bytes(bytes(blob))


def _why(exc: Exception) -> str:
    return f"missing {exc}" if isinstance(exc, KeyError) else str(exc)


def _parse_frames(path, name: str, rows: list, depth: int) -> dict:
    """Header ``name`` rows ``[j1, (j2,) lat, lon, d_scale_km]`` as a
    cell -> ClusterGeo map, keyed by j1 (depth 1) or (j1, j2) (depth 2)."""
    frames = {}
    for i, row in enumerate(rows):
        try:
            if not isinstance(row, list) or len(row) != depth + 3:
                raise ValueError(f"expected a list of {depth + 3} fields")
            *cell, lat, lon, scale = row
            key = int(cell[0]) if depth == 1 else (int(cell[0]), int(cell[1]))
            frames[key] = ClusterGeo(GeoPoint(lat, lon), scale)
        except (TypeError, ValueError) as exc:
            raise CodebookFormatError(f"{path}: {name} row {i} {row!r}: {exc}") from exc
    return frames


def load_codebook(path: str | Path) -> CodebookArtifact:
    """Parse and verify an artifact file; rejects tampering and truncation.
    Every malformed entry raises CodebookFormatError naming the file and
    the entry."""
    raw = Path(path).read_bytes()
    if len(raw) < 24:
        raise CodebookFormatError(f"{path}: truncated (only {len(raw)} bytes)")
    if raw[:4] != _CODEBOOK_MAGIC:
        raise CodebookFormatError(f"{path}: bad magic {raw[:4]!r}")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != _FORMAT_VERSION:
        raise CodebookFormatError(f"{path}: unsupported format version {version}")
    if raw[-8:] != _digest64(raw[:-8]):
        raise CodebookFormatError(f"{path}: checksum mismatch, file corrupt")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header_end = 16 + header_len
    if header_end > len(raw) - 8:
        raise CodebookFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[16:header_end].decode("utf-8"))
        config = _config_from_dict(header["config"])
        sections = [header[key] for key in ("layers", "geo_second", "geo_third", "assignments")]
        if not all(isinstance(section, list) for section in sections):
            raise TypeError("layers, geo_second, geo_third and assignments must be lists")
    except (ValueError, KeyError, TypeError) as exc:
        raise CodebookFormatError(f"{path}: malformed header ({_why(exc)})") from exc
    layer_specs, geo_second_rows, geo_third_rows, rows = sections

    offset = header_end
    layers = []
    for level, spec in enumerate(layer_specs, start=1):
        try:
            k, dim, metric = spec["k"], spec["dim"], spec["metric"]
            if not all(type(n) is int and n >= 1 for n in (k, dim)):
                raise ValueError(f"k and dim must be positive integers, got {k!r} and {dim!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise CodebookFormatError(f"{path}: layer {level} spec {spec!r}: {_why(exc)}") from exc
        nbytes = 4 * k * dim
        block = raw[offset : offset + nbytes]
        if len(block) != nbytes:
            raise CodebookFormatError(f"{path}: truncated centroid block")
        centroids = np.frombuffer(block, dtype="<f4").reshape(k, dim).astype(np.float64)
        try:
            layers.append(CodebookLayer(centroids=centroids, metric=metric))
        except ValueError as exc:
            raise CodebookFormatError(f"{path}: layer {level}: {exc}") from exc
        offset += nbytes
    if offset != len(raw) - 8:
        raise CodebookFormatError(f"{path}: {len(raw) - 8 - offset} unexpected trailing bytes")

    geo_second = _parse_frames(path, "geo_second", geo_second_rows, 1)
    geo_third = _parse_frames(path, "geo_third", geo_third_rows, 2)
    if not rows or set(map(type, rows)) != {list} or set(map(len, rows)) != {4}:
        bad = next((i for i, row in enumerate(rows) if not isinstance(row, list) or len(row) != 4), None)
        where = "" if bad is None else f" (row {bad}: {rows[bad]!r})"
        raise CodebookFormatError(f"{path}: SID assignments must be non-empty [id, j1, j2, j3] rows{where}")
    ids, *codes = zip(*rows)
    if set(map(type, ids)) != {str} or not all(ids):
        bad = next(i for i, poi_id in enumerate(ids) if not isinstance(poi_id, str) or not poi_id)
        raise CodebookFormatError(
            f"{path}: SID assignment row {bad}: POI id must be a non-empty string, got {ids[bad]!r}"
        )
    try:
        sid_index = SidIndex(ids, np.array(codes).T)
    except (TypeError, ValueError) as exc:
        raise CodebookFormatError(f"{path}: bad SID assignments ({exc})") from exc
    try:
        return CodebookArtifact(
            config=config,
            layers=tuple(layers),
            geo_second=geo_second,
            geo_third=geo_third,
            sid_index=sid_index,
        )
    except ValueError as exc:
        raise CodebookFormatError(f"{path}: inconsistent artifact ({exc})") from exc


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass(frozen=True)
class SynthConfig:
    """Desk-scale corpus surrogate.

    Embeddings: every cluster anchors its own primary direction and adds
    one of eight shared secondary offsets drawn from a corpus-wide plane
    (four pairs of nearby directions). The pairing is what keeps the
    residual hierarchy informative: after two quantization rounds the
    corpus collapses onto a handful of shared residual directions instead
    of pure noise, giving the third layer clean structure to modulate.

    Geography: each cluster's POIs fall into ``geo_subclusters_per_semantic``
    uniform discs of radius ``subcluster_spread_km`` whose centers sit
    ``subcluster_separation_km`` apart east-west. Sub-blob sizes are
    deliberately unequal (the first blob is heaviest) so that both the
    azimuth and the radial distance of the local polar frame carry signal.
    The geographic draw is independent of the embedding draw.
    """

    n_semantic_clusters: int = 4
    pois_per_cluster: int = 100
    geo_subclusters_per_semantic: int = 2
    subcluster_separation_km: float = 40.0
    subcluster_spread_km: float = 1.5
    embedding_dim: int = 16
    noise_std: float = 0.005
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.n_semantic_clusters, self.pois_per_cluster, self.geo_subclusters_per_semantic) < 1:
            raise ValueError("all counts must be >= 1")
        if self.embedding_dim < 4 or self.embedding_dim % 2 != 0:
            raise ValueError(f"embedding_dim must be even and >= 4, got {self.embedding_dim}")
        if self.embedding_dim < self.n_semantic_clusters + 2:
            raise ValueError(
                f"embedding_dim must be >= n_semantic_clusters + 2 to fit the cluster "
                f"directions, got {self.embedding_dim} < {self.n_semantic_clusters + 2}"
            )
        if self.subcluster_separation_km < 0 or self.subcluster_spread_km < 0:
            raise ValueError("separation and spread must be >= 0")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")


def _orthonormal_rows(
    rng: np.random.Generator, count: int, dim: int, against: list[np.ndarray] = []
) -> list[np.ndarray]:
    """Gram-Schmidt over standard-normal draws; avoids BLAS so the result
    depends only on the PCG64 stream. New rows are also orthogonal to
    ``against``."""
    basis = list(against)
    rows: list[np.ndarray] = []
    while len(rows) < count:
        candidate = rng.standard_normal(dim)
        for b in basis:
            candidate = candidate - np.sum(candidate * b) * b
        norm = np.sqrt(np.sum(candidate * candidate))
        if norm < 1e-9:
            continue
        candidate = candidate / norm
        basis.append(candidate)
        rows.append(candidate)
    return rows


def _offset_point(lat: float, lon: float, north_km: float, east_km: float) -> GeoPoint:
    dlat = math.degrees(north_km / EARTH_RADIUS_KM)
    dlon = math.degrees(east_km / (EARTH_RADIUS_KM * math.cos(math.radians(lat))))
    return GeoPoint(lat + dlat, lon + dlon)


# Shared secondary-offset ring: four direction pairs on a corpus-wide plane,
# 15 degrees around each pair center, pair centers 90 degrees apart.
_RING_RADIUS = 0.45
_RING_ANGLES_DEG = tuple(90 * p + 15 * t for p in range(4) for t in (-1, 1))


def generate_synthetic(cfg: SynthConfig) -> tuple[list[PoiRecord], np.ndarray]:
    """Deterministic corpus with decoupled semantic and geographic structure.

    An embedding is x = u_c + ring[m] + noise: the cluster's unit direction
    plus one of eight shared offsets on a corpus-wide plane (see
    :class:`SynthConfig`) plus isotropic Gaussian noise. Locations are
    drawn per POI from that cluster's sub-blob discs with unequal blob
    weights. PRNG: numpy PCG64; identical seeds reproduce the corpus
    bit-exactly.
    """
    rng = np.random.default_rng(cfg.seed)
    total = cfg.n_semantic_clusters * cfg.pois_per_cluster
    matrix = np.empty((total, cfg.embedding_dim), dtype=np.float64)
    pois: list[PoiRecord] = []

    cluster_dirs = _orthonormal_rows(rng, cfg.n_semantic_clusters, cfg.embedding_dim)
    g1, g2 = _orthonormal_rows(rng, 2, cfg.embedding_dim, against=cluster_dirs)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    ring = [
        _RING_RADIUS * (math.cos(phase + math.radians(a)) * g1 + math.sin(phase + math.radians(a)) * g2)
        for a in _RING_ANGLES_DEG
    ]

    n_sub = cfg.geo_subclusters_per_semantic
    idx = 0
    for c in range(cfg.n_semantic_clusters):
        anchor_lat = float(rng.uniform(22.0, 45.0))
        anchor_lon = float(rng.uniform(100.0, 120.0))
        sub_centers = [
            _offset_point(anchor_lat, anchor_lon, 0.0, (s - (n_sub - 1) / 2.0) * cfg.subcluster_separation_km)
            for s in range(n_sub)
        ]
        for i in range(cfg.pois_per_cluster):
            m = int(rng.integers(len(ring)))
            matrix[idx] = (
                cluster_dirs[c] + ring[m] + cfg.noise_std * rng.standard_normal(cfg.embedding_dim)
            )
            # first blob double-weighted: i mod (n_sub+1) of {0, 0, 1, .., n_sub-1}
            blob = max(0, (i % (n_sub + 1)) - 1)
            center = sub_centers[blob]
            radius = cfg.subcluster_spread_km * math.sqrt(rng.uniform())
            angle = rng.uniform(0.0, 2.0 * math.pi)
            location = _offset_point(
                center.lat, center.lon, radius * math.cos(angle), radius * math.sin(angle)
            )
            pois.append(PoiRecord(f"p{idx:06d}", location, idx, f"cluster{c:02d}"))
            idx += 1
    return pois, matrix


# ---------------------------------------------------------------------------
# geojson


def export_geojson(
    assignments: Mapping[str, Sid], locations: Mapping[str, GeoPoint], path: str | Path
) -> None:
    """One Point feature per POI with its SID codes; coordinates lon-first
    per the GeoJSON grammar. An empty assignment set yields an empty
    FeatureCollection."""
    features = []
    for pid in sorted(assignments):
        sid = assignments[pid]
        loc = locations[pid]
        props = {"id": pid, "sid": str(sid), "j1": sid.j1, "j2": sid.j2, "j3": sid.j3}
        if sid.has_layer4:
            props["j4"] = sid.j4
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [loc.lon, loc.lat]},
                "properties": props,
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh, indent=2)
        fh.write("\n")
