"""Corpus and codebook persistence plus synthetic corpus generation.

On-disk layout:

* POI metadata: one JSON object per line with keys ``id``, ``lat``,
  ``lon`` and optional ``category``.
* Embedding matrix: 16-byte header (magic ``GSEM``, u32 version, u32 N,
  u32 M, all little-endian), then N*M float32 little-endian values
  row-major, then a u64 checksum (first 8 bytes of the SHA-256 of header
  plus payload). The fixed-stride layout keeps the file memory-mappable.
* Codebook artifact: magic ``GSCB``, u32 version, u64 header length, a
  UTF-8 JSON header (config snapshot, layer shapes, the columns of each
  level's :class:`FrameTable` as rows ``[j1, (j2,) lat, lon, d_scale_km]``,
  SID assignments), the centroid matrices as float32 little-endian blocks
  in layer order, and the same trailing checksum.

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


class FrameTable:
    """One level's geo frames as read-only columns, one row per cell in
    ascending order: ``codes``, the (C, depth) int64 cells (j1 for the
    layer-2 frames, (j1, j2) for the layer-3 frames), each cell's centre
    ``lat`` and ``lon`` in degrees (longitude wrapped as in
    :class:`GeoPoint`) and its distance ``scale`` in km. Rejects a negative
    code, an invalid centre, a scale that is not finite and positive and a
    repeated cell, naming the row and the cell. ``cell in table`` takes a
    j1 or a (j1, j2) tuple.
    """

    def __init__(self, codes: np.ndarray, lat: np.ndarray, lon: np.ndarray, scale: np.ndarray):
        codes = np.array(codes, dtype=np.int64)
        lat, lon, scale = (np.array(col, dtype=np.float64) for col in (lat, lon, scale))
        if codes.shape[1:] not in ((1,), (2,)) or {lat.shape, lon.shape, scale.shape} != {codes.shape[:1]}:
            raise ValueError("frames need a (C, 1) or (C, 2) cell array and three C-row columns")
        for bad, why in (
            (np.any(codes < 0, axis=1), "negative cell code"),
            (~(np.abs(lat) <= 90.0) | ~np.isfinite(lon), "invalid latitude or longitude"),
            (~(np.isfinite(scale) & (scale > 0.0)), "d_scale_km must be finite and positive"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                cell = tuple(codes[i].tolist())
                raise ValueError(f"row {i} cell {cell}: {why}; got ({lat[i]}, {lon[i]}, {scale[i]})")
        order = np.lexsort(codes.T[::-1])
        codes = codes[order]
        repeated = np.all(codes[1:] == codes[:-1], axis=1)
        if repeated.any():
            at = int(np.argmax(repeated))
            cell = tuple(codes[at].tolist())
            raise ValueError(f"row {order[at + 1]} cell {cell}: repeats row {order[at]}")
        self.codes, self.lat, self.lon, self.scale = codes, lat[order], _wrap_lon(lon[order]), scale[order]
        for col in (self.codes, self.lat, self.lon, self.scale):
            col.flags.writeable = False
        # lookup keys: j1, or j1 * radix + j2, unique while j2 < radix
        self._radix = int(codes[:, -1].max(initial=-1)) + 1
        self._weights = np.array([self._radix, 1])[-codes.shape[1] :]
        self._keys = codes @ self._weights

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __contains__(self, cell) -> bool:
        cell = cell if isinstance(cell, tuple) else (cell,)
        return len(cell) == self.codes.shape[1] and bool(np.any(np.all(self.codes == cell, axis=1)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameTable):
            return NotImplemented
        columns = ("codes", "lat", "lon", "scale")
        return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in columns)

    def polar(
        self, codes: np.ndarray, lat: np.ndarray, lon: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(d_km, sigma_rad, d_scale_km) of each row in the frame of its cell.

        ``codes`` is (N, depth) and non-negative. Rows whose cell has no
        frame get the neutral frame: zero distance and angle, scale 1.
        """
        n = codes.shape[0]
        d_km, sigma, scale = np.zeros(n), np.zeros(n), np.ones(n)
        if self._keys.size == 0:
            return d_km, sigma, scale
        keys = codes @ self._weights
        pos = np.minimum(np.searchsorted(self._keys, keys), self._keys.size - 1)
        rows = np.nonzero((self._keys[pos] == keys) & (codes[:, -1] < self._radix))[0]
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
    per-cluster geo frames, and the training-time SID index.

    ``geo_second`` is the :class:`FrameTable` of the j1 cells (filled when
    the rotary stage feeds the second layer) and ``geo_third`` that of the
    (j1, j2) cells (filled when it feeds the third); None gives an empty
    table. Every cell must lie within the layer sizes. Centroids are
    snapped to float32 on construction: the storage encoding, so
    round-trips are bit-exact.
    """

    format_version = _FORMAT_VERSION

    def __init__(
        self,
        config: TrainConfig,
        layers: tuple[CodebookLayer, CodebookLayer, CodebookLayer],
        geo_second: FrameTable | None,
        geo_third: FrameTable | None,
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
        self.geo_second = self._check_frames(geo_second, 1, config.layer_sizes)
        self.geo_third = self._check_frames(geo_third, 2, config.layer_sizes)
        self.sid_index = sid_index

    @staticmethod
    def _check_frames(table: FrameTable | None, depth: int, layer_sizes: tuple[int, ...]) -> FrameTable:
        if table is None:
            return FrameTable(np.empty((0, depth), dtype=np.int64), (), (), ())
        if table.codes.shape[1] != depth:
            raise ValueError(f"geo frame cells need {depth} codes, got {table.codes.shape[1]}")
        bad = np.any(table.codes >= np.asarray(layer_sizes[:depth]), axis=1)
        if bad.any():
            cell = tuple(table.codes[np.argmax(bad)].tolist())
            raise ValueError(f"geo frame cell {cell} outside layer sizes {layer_sizes}")
        return table

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


_INT64 = range(-(2**63), 2**63)


def _is_number(value) -> bool:
    """A JSON float, or an int (not a bool) within int64."""
    return type(value) is float or (type(value) is int and value in _INT64)


def _config_from_dict(data: dict) -> TrainConfig:
    for name in ("tol", "alpha", "beta", "d_scale_km"):
        if not (_is_number(data[name]) or (name == "d_scale_km" and data[name] is None)):
            raise ValueError(f"config {name} must be a number, got {data[name]!r}")
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


def _frame_rows(table: FrameTable) -> list[list]:
    """A frame table as header rows ``[j1, (j2,) lat, lon, d_scale_km]``."""
    columns = (*table.codes.T.tolist(), table.lat.tolist(), table.lon.tolist(), table.scale.tolist())
    return list(map(list, zip(*columns)))


def save_codebook(artifact: CodebookArtifact, path: str | Path) -> None:
    """Serialize an artifact; byte-identical for equal artifacts."""
    index = artifact.sid_index
    header = {
        "format_version": artifact.format_version,
        "config": _config_to_dict(artifact.config),
        "layers": [
            {"k": layer.k, "dim": layer.dim, "metric": layer.metric} for layer in artifact.layers
        ],
        "geo_second": _frame_rows(artifact.geo_second),
        "geo_third": _frame_rows(artifact.geo_third),
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


def _parse_frames(path, name: str, rows: list, depth: int) -> FrameTable:
    """Header ``name`` rows ``[j1, (j2,) lat, lon, d_scale_km]`` as the
    depth-``depth`` :class:`FrameTable`. A row of the wrong shape or field
    type, or one the table rejects, is named."""
    for i, row in enumerate(rows):
        if not (
            isinstance(row, list) and len(row) == depth + 3 and all(map(_is_number, row[depth:]))
            and all(type(code) is int and code in _INT64 for code in row[:depth])
        ):
            why = f"expected {depth + 3} fields: integer cell codes, then lat, lon and d_scale_km"
            raise CodebookFormatError(f"{path}: {name} row {i} {row!r}: {why}")
    codes = np.array([row[:depth] for row in rows], dtype=np.int64).reshape(len(rows), depth)
    fields = np.array([row[depth:] for row in rows], dtype=np.float64).reshape(len(rows), 3)
    try:
        return FrameTable(codes, *fields.T)
    except ValueError as exc:
        raise CodebookFormatError(f"{path}: {name} {exc}") from exc


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
