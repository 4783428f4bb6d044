"""End-to-end training runs, ablation comparisons, and hyperparameter sweeps.

A run trains the two semantic layers, derives each cluster's geographic
frame (centroid plus distance scale, frozen into the artifact for later
assignment of unseen POIs), builds the variant-specific enhanced vectors
at the configured integration layer, trains the third layer, and scores
the resulting SID assignment.

``rope_layer`` placement: ``third`` (default) enhances second-layer
residuals using per-(j1, j2) geo frames; ``second`` enhances first-layer
residuals using per-j1 frames, so the second-layer codebook lives in the
enhanced dimension; ``both`` chains the two, recomputing the layer-3 geo
frames from the layer-2-enhanced clusters.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Sequence

import numpy as np

from .data_io import ClusterGeo, CodebookArtifact, PoiRecord
from .geo import GeoPoint, group_centroids, local_polar
from .metrics import QuantReport, quant_report
from .quantizer import (
    ROPE_LAYER_BOTH,
    ROPE_LAYER_SECOND,
    ROPE_LAYER_THIRD,
    TrainConfig,
    assign,
    build_variant_matrix,
    next_residuals,
    quantize_layer,
    train_third_layer,
)
from .sid import Sid, SidIndex, check_codes, group_codes

# Not called here; kept bound because perfbench/tracer.py wraps these module
# attributes by name.
from .geo import geo_centroid, to_local_polar  # noqa: F401
from .metrics import build_quant_report  # noqa: F401
from .sid import assemble  # noqa: F401

__all__ = [
    "DEFAULT_SWEEP_GRID",
    "PipelineError",
    "RunResult",
    "SweepGrid",
    "assign_with_codebook",
    "compare",
    "config_label",
    "format_quant_records",
    "format_quant_table",
    "resolve_worker_count",
    "run",
    "sweep_alpha_beta",
]

DEFAULT_SWEEP_GRID = (
    (0.0, 0.0),
    (0.25, 0.25),
    (0.25, 0.5),
    (0.5, 0.25),
    (0.5, 0.5),
    (0.5, 1.0),
    (1.0, 0.5),
    (1.0, 1.0),
)


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message is prefixed with the stage name."""


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class SweepGrid:
    """(alpha, beta) pairs for the rotation-scale sweep."""

    pairs: tuple[tuple[float, float], ...] = DEFAULT_SWEEP_GRID

    def __post_init__(self) -> None:
        pairs = tuple((float(a), float(b)) for a, b in self.pairs)
        if not pairs:
            raise ValueError("sweep grid must be non-empty")
        if any(a < 0 or b < 0 for a, b in pairs):
            raise ValueError("sweep grid entries must be >= 0")
        object.__setattr__(self, "pairs", pairs)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of one training run."""

    artifact: CodebookArtifact
    assignments: dict[str, Sid]
    report: QuantReport
    wall_time_s: float
    config: TrainConfig


def _coordinates(pois: Sequence[PoiRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Latitude and longitude columns of the POIs, in degrees."""
    n = len(pois)
    lat = np.fromiter((poi.location.lat for poi in pois), dtype=float, count=n)
    lon = np.fromiter((poi.location.lon for poi in pois), dtype=float, count=n)
    return lat, lon


def _cluster_frames(
    keys: np.ndarray, lat: np.ndarray, lon: np.ndarray, d_scale_override: float | None
) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """Geo frame per cluster key plus per-POI polar arrays.

    ``keys`` is (N, 1) for j1 clusters or (N, 2) for (j1, j2) clusters.
    The distance scale defaults to the cluster's maximum member distance
    (so normalized distances span the full range inside every cluster);
    clusters whose members all sit on the centroid get scale 1 km, which
    normalizes their zero distances to zero.
    """
    cells, groups = group_codes(keys)
    center_lat, center_lon = group_centroids(groups, lat, lon)
    d_km, sigma = local_polar(center_lat[groups], center_lon[groups], lat, lon)
    if d_scale_override is not None:
        cluster_scale = np.full(cells.shape[0], float(d_scale_override))
    else:
        cluster_scale = np.zeros(cells.shape[0])
        np.maximum.at(cluster_scale, groups, d_km)
        cluster_scale[cluster_scale == 0.0] = 1.0
    frames = {
        (cell[0] if len(cell) == 1 else tuple(cell)): ClusterGeo(GeoPoint(c_lat, c_lon), c_scale)
        for cell, c_lat, c_lon, c_scale in zip(
            cells.tolist(), center_lat.tolist(), center_lon.tolist(), cluster_scale.tolist()
        )
    }
    return frames, d_km, sigma, cluster_scale[groups]


def run(pois: Sequence[PoiRecord], embeddings: np.ndarray, cfg: TrainConfig) -> RunResult:
    """Train the full three-layer codebook and score the assignment.

    ``assignments`` maps each POI id, in ascending id order, to the shared
    ``Sid`` of its triple; the report is computed in the same id order."""
    t0 = time.perf_counter()
    if len(cfg.layer_sizes) != 3:
        raise ValueError(f"the 3-layer SID pipeline needs exactly 3 layer sizes, got {cfg.layer_sizes}")
    data = np.ascontiguousarray(embeddings, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != len(pois):
        raise ValueError(f"embedding matrix shape {data.shape} does not match {len(pois)} POIs")
    if data.shape[1] % 2 != 0:
        raise ValueError(f"embedding dimension must be even, got {data.shape[1]}")
    lat, lon = _coordinates(pois)
    k1, k2, k3 = cfg.layer_sizes
    geo_second: dict = {}
    geo_third: dict = {}

    with _stage("layer-1 clustering"):
        layer1, j1, r1 = quantize_layer(
            data, k1, metric=cfg.metric, seed=[cfg.seed, 0], max_iters=cfg.max_iters, tol=cfg.tol
        )

    l2_input = r1
    if cfg.uses_geo and cfg.rope_layer in (ROPE_LAYER_SECOND, ROPE_LAYER_BOTH):
        with _stage("layer-2 geo enhancement"):
            geo_second, d_km, sig, scale = _cluster_frames(j1[:, None], lat, lon, cfg.d_scale_km)
            l2_input = build_variant_matrix(r1, d_km, sig, cfg, scale)
    with _stage("layer-2 clustering"):
        layer2, j2, r2 = quantize_layer(
            l2_input, k2, metric=cfg.metric, seed=[cfg.seed, 1], max_iters=cfg.max_iters, tol=cfg.tol
        )

    l3_input = r2
    if cfg.uses_geo and cfg.rope_layer in (ROPE_LAYER_THIRD, ROPE_LAYER_BOTH):
        with _stage("layer-3 geo enhancement"):
            geo_third, d_km, sig, scale = _cluster_frames(
                np.stack([j1, j2], axis=1), lat, lon, cfg.d_scale_km
            )
            l3_input = build_variant_matrix(r2, d_km, sig, cfg, scale)
    with _stage("layer-3 clustering"):
        layer3, j3 = train_third_layer(l3_input, k3, cfg)

    with _stage("sid assembly"):
        codes = np.stack([j1, j2, j3], axis=1)
        check_codes(codes, cfg.layer_sizes)
        ids = [poi.id for poi in pois]
        by_id = sorted(range(len(ids)), key=ids.__getitem__)
        index = SidIndex([ids[i] for i in by_id], codes[by_id])
        # POI-id row order, the order metrics.geo_dispersion sums centroids in
        report = quant_report(index.codes, lat[by_id], lon[by_id], cfg.layer_sizes)
        artifact = CodebookArtifact(
            config=cfg,
            layers=(layer1, layer2, layer3),
            geo_second=geo_second,
            geo_third=geo_third,
            sid_index=index,
        )
    return RunResult(
        artifact=artifact,
        assignments=index.assignments,
        report=report,
        wall_time_s=time.perf_counter() - t0,
        config=cfg,
    )


def assign_with_codebook(
    artifact: CodebookArtifact, pois: Sequence[PoiRecord], embeddings: np.ndarray
) -> dict[str, Sid]:
    """Assign SIDs to (possibly unseen) POIs using the frozen artifact.

    Geo frames come from training time; a POI landing in a (j1, j2) cell
    that never occurred during training gets a neutral frame (zero angle
    and distance, so the rotary stage degenerates to mirror duplication).
    The returned SIDs are the artifact index's shared ``Sid`` objects;
    only triples the index lacks get new ones.
    """
    cfg = artifact.config
    data = np.ascontiguousarray(embeddings, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != len(pois):
        raise ValueError(f"embedding matrix shape {data.shape} does not match {len(pois)} POIs")
    if data.shape[1] != artifact.layers[0].dim:
        raise ValueError(
            f"embedding dimension {data.shape[1]} != codebook dimension {artifact.layers[0].dim}"
        )
    lat, lon = _coordinates(pois)

    j1 = np.atleast_1d(assign(data, artifact.layers[0]))
    r1 = next_residuals(data, artifact.layers[0].centroids[j1], cfg.metric)

    l2_input = r1
    if cfg.uses_geo and cfg.rope_layer in (ROPE_LAYER_SECOND, ROPE_LAYER_BOTH):
        d_km, sig, scale = artifact.second_frames.polar(j1[:, None], lat, lon)
        l2_input = build_variant_matrix(r1, d_km, sig, cfg, scale)
    j2 = np.atleast_1d(assign(l2_input, artifact.layers[1]))
    r2 = next_residuals(l2_input, artifact.layers[1].centroids[j2], cfg.metric)

    l3_input = r2
    if cfg.uses_geo and cfg.rope_layer in (ROPE_LAYER_THIRD, ROPE_LAYER_BOTH):
        d_km, sig, scale = artifact.third_frames.polar(np.stack([j1, j2], axis=1), lat, lon)
        l3_input = build_variant_matrix(r2, d_km, sig, cfg, scale)
    j3 = np.atleast_1d(assign(l3_input, artifact.layers[2]))
    codes = np.stack([j1, j2, j3], axis=1)
    check_codes(codes, cfg.layer_sizes)
    return dict(zip(map(attrgetter("id"), pois), artifact.sid_index.sids_for(codes)))


def resolve_worker_count(n_tasks: int) -> int:
    """Worker cap from GEOSID_THREADS (0 or unset = auto). Never changes
    results, only concurrency."""
    raw = os.environ.get("GEOSID_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"GEOSID_THREADS must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ValueError(f"GEOSID_THREADS must be >= 0, got {cap}")
    if cap == 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def config_label(cfg: TrainConfig) -> str:
    """Short human-readable tag for one configuration row."""
    parts = [cfg.variant]
    if cfg.variant == "pro_geo":
        attrs = "".join(a[0] + a[-1] for a in sorted(cfg.geo_attributes))
        parts.append(f"a={cfg.alpha:g},b={cfg.beta:g},{attrs}")
    if cfg.rope_layer != ROPE_LAYER_THIRD:
        parts.append(f"rope={cfg.rope_layer}")
    return " ".join(parts)


def compare(
    pois: Sequence[PoiRecord],
    embeddings: np.ndarray,
    cfgs: Sequence[TrainConfig],
    labels: Sequence[str] | None = None,
) -> list[tuple[str, QuantReport]]:
    """One report row per configuration, in input order.

    Independent configurations may execute concurrently (bounded by
    GEOSID_THREADS); rows are merged by position, never completion order.
    """
    if len(cfgs) < 2:
        raise ValueError("compare needs at least 2 configurations")
    if labels is None:
        labels = [config_label(cfg) for cfg in cfgs]
        counts: dict[str, int] = {}
        unique = []
        for label in labels:
            counts[label] = counts.get(label, 0) + 1
            unique.append(label if counts[label] == 1 else f"{label} #{counts[label]}")
        labels = unique
    elif len(labels) != len(cfgs):
        raise ValueError("labels must match configurations one-to-one")

    workers = resolve_worker_count(len(cfgs))
    if workers == 1:
        results = [run(pois, embeddings, cfg) for cfg in cfgs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda cfg: run(pois, embeddings, cfg), cfgs))
    return [(label, res.report) for label, res in zip(labels, results)]


def sweep_alpha_beta(
    pois: Sequence[PoiRecord],
    embeddings: np.ndarray,
    grid: SweepGrid,
    base_cfg: TrainConfig,
) -> list[tuple[tuple[float, float], QuantReport]]:
    """Run the base configuration once per (alpha, beta) pair."""
    cfgs = [replace(base_cfg, alpha=a, beta=b) for a, b in grid.pairs]
    labels = [f"alpha={a:g} beta={b:g}" for a, b in grid.pairs]
    if len(cfgs) == 1:
        rows = [(labels[0], run(pois, embeddings, cfgs[0]).report)]
    else:
        rows = compare(pois, embeddings, cfgs, labels=labels)
    return [(pair, report) for pair, (_, report) in zip(grid.pairs, rows)]


_TABLE_COLUMNS = ("CUR", "ICR", "Avg. Dist.", "p90 Dist.", "p95 Dist.", "Groups", "POIs")


def format_quant_table(rows: Sequence[tuple[str, QuantReport]]) -> str:
    """Aligned text table; CUR/ICR as percentages, distances in km.

    The header records the CUR denominator so the numbers are
    self-describing.
    """
    label_w = max(len("Config"), max((len(label) for label, _ in rows), default=0))
    out = ["# CUR = distinct SID triples / (K1*K2*K3); ICR = collision-free POI fraction"]
    header = f"{'Config':<{label_w}}  " + "  ".join(f"{c:>10}" for c in _TABLE_COLUMNS)
    out.append(header)
    for label, rep in rows:
        cells = (
            f"{100 * rep.cur:.2f}%",
            f"{100 * rep.icr:.2f}%",
            f"{rep.avg_dist_km:.3f}",
            f"{rep.p90_dist_km:.3f}",
            f"{rep.p95_dist_km:.3f}",
            str(rep.group_count),
            str(rep.poi_count),
        )
        out.append(f"{label:<{label_w}}  " + "  ".join(f"{c:>10}" for c in cells))
    return "\n".join(out) + "\n"


def format_quant_records(rows: Sequence[tuple[str, QuantReport]]) -> str:
    """Line-delimited JSON records, one per configuration row."""
    lines = [
        json.dumps({"label": label, **rep.as_dict()}, separators=(",", ":"))
        for label, rep in rows
    ]
    return "\n".join(lines) + "\n"
