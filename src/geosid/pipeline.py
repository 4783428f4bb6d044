"""End-to-end training runs, ablation comparisons, and hyperparameter sweeps.

Training and replay encode a POI through one layer walk: each level takes
the previous level's residuals, geo-enhanced first when the configuration
says so (``TrainConfig.geo_levels``), then clusters them. A run fits every
level and derives each cluster's geographic frame (centroid plus distance
scale, frozen into the artifact); replay assigns against the artifact's
layers and frames, so unseen POIs are encoded the way training encoded
its own.

``rope_layer`` placement: ``third`` (default) enhances second-layer
residuals using per-(j1, j2) geo frames; ``second`` enhances first-layer
residuals using per-j1 frames, so the second-layer codebook lives in the
enhanced dimension; ``both`` chains the two, recomputing the layer-3 geo
frames from the layer-2-enhanced clusters.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import quantizer
from .data_io import CodebookArtifact, FrameTable, PoiRecord, _check_unique_ids, _poi_columns
from .geo import group_centroids, local_polar
from .metrics import QuantReport, quant_report
from .quantizer import (
    METRIC_COSINE,
    ROPE_LAYER_THIRD,
    CodebookLayer,
    TrainConfig,
    assign,
    build_variant_matrix,
    next_residuals,
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
        for pair in pairs:
            for name, value in zip(("alpha", "beta"), pair):
                if not (math.isfinite(value) and value >= 0):
                    raise ValueError(f"sweep grid {name} must be finite and >= 0, got {value} in {pair}")
        object.__setattr__(self, "pairs", pairs)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of one training run."""

    artifact: CodebookArtifact
    assignments: dict[str, Sid]
    report: QuantReport
    wall_time_s: float
    config: TrainConfig


def _columns(
    pois: Sequence[PoiRecord], embeddings: np.ndarray
) -> tuple[Sequence[str], np.ndarray, np.ndarray, np.ndarray]:
    """The input boundary: the POI ids, the float64 embedding matrix and
    the latitude and longitude columns (degrees), read as ``save_corpus``
    reads them. Rejects a repeated POI id, a matrix that does not have one
    row per POI, an odd embedding dimension, or a non-finite row, naming
    its POI."""
    data = np.ascontiguousarray(embeddings, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != len(pois):
        raise ValueError(f"embedding matrix shape {data.shape} does not match {len(pois)} POIs")
    if data.shape[1] % 2 != 0:
        raise ValueError(f"embedding dimension must be even, got {data.shape[1]}")
    if not np.isfinite(data).all():
        row = int(np.argmin(np.isfinite(data).all(axis=1)))
        raise ValueError(f"non-finite embedding for POI {pois[row].id!r}")
    ids, lat, lon, _ = _poi_columns(pois)
    _check_unique_ids(ids)
    return ids, data, lat, lon


def _cluster_frames(
    keys: np.ndarray, lat: np.ndarray, lon: np.ndarray, d_scale_override: float | None
) -> tuple[FrameTable, np.ndarray, np.ndarray, np.ndarray]:
    """The frame table of the cluster keys plus per-POI polar arrays.

    ``keys`` is (N, 1) for j1 clusters or (N, 2) for (j1, j2) clusters.
    The distance scale defaults to the cluster's maximum member distance
    (so normalized distances span the full range inside every cluster);
    clusters whose members all sit on the centroid get scale 1 km, which
    normalizes their zero distances to zero.
    """
    cells, groups, _ = group_codes(keys)
    center_lat, center_lon = group_centroids(groups, lat, lon)
    d_km, sigma = local_polar(center_lat[groups], center_lon[groups], lat, lon)
    if d_scale_override is not None:
        cluster_scale = np.full(cells.shape[0], float(d_scale_override))
    else:
        cluster_scale = np.zeros(cells.shape[0])
        np.maximum.at(cluster_scale, groups, d_km)
        cluster_scale[cluster_scale == 0.0] = 1.0
    return FrameTable(cells, center_lat, center_lon, cluster_scale), d_km, sigma, cluster_scale[groups]


@dataclass(eq=False)
class _Walked:
    """One distinct state of a layer walk after level l: the code column,
    layer and fitted frame table (or None) of each level 1..l, and the
    residuals that feed level l+1 (None after the last level, and once
    level l+1's inputs are built)."""

    labels: tuple[np.ndarray, ...]
    layers: tuple[CodebookLayer, ...]
    frames: tuple[FrameTable | None, ...]
    residuals: np.ndarray | None


def _level_input(
    parent: _Walked,
    lat: np.ndarray,
    lon: np.ndarray,
    cfg: TrainConfig,
    level: int,
    artifact: CodebookArtifact | None,
) -> tuple[np.ndarray, FrameTable | None]:
    """Level ``level``'s input under ``cfg`` and its fitted frame table:
    the parent's residuals, geo-enhanced in the frame of each row's parent
    cell if the level is in ``cfg.geo_levels``. The table is None on
    replay and for a plain level."""
    x, frames = parent.residuals, None
    if level in cfg.geo_levels:
        with _stage(f"layer-{level} geo enhancement"):
            cells = np.column_stack(parent.labels)
            if artifact is None:
                frames, d_km, sigma, scale = _cluster_frames(cells, lat, lon, cfg.d_scale_km)
            else:
                table = (artifact.geo_second, artifact.geo_third)[level - 2]
                d_km, sigma, scale = table.polar(cells, lat, lon)
            x = build_variant_matrix(x, d_km, sigma, cfg, scale)
    return x, frames


def _cluster_level(
    parent: _Walked,
    x: np.ndarray,
    frames: FrameTable | None,
    cfg: TrainConfig,
    level: int,
    artifact: CodebookArtifact | None,
) -> _Walked:
    """Fit level ``level`` on ``x`` with seed ``[cfg.seed, level - 1]``, or
    assign ``x`` to the artifact's layer; then take the residuals that feed
    the next level, if there is one."""
    col = level - 1
    with _stage(f"layer-{level} clustering"):
        if artifact is None:
            fit = quantizer.kmeans_train(
                x, cfg.layer_sizes[col], metric=cfg.metric, seed=[cfg.seed, col],
                max_iters=cfg.max_iters, tol=cfg.tol,
            )
            layer, labels = fit.layer, fit.labels
        else:
            layer = artifact.layers[col]
            labels = assign(x, layer)
        residuals = None
        if level < 3:
            # only the cosine projection reads the centroid norms
            norms = layer.sq_norms[labels] if cfg.metric == METRIC_COSINE else None
            residuals = next_residuals(x, layer.centroids[labels], cfg.metric, norms)
    return _Walked(parent.labels + (labels,), parent.layers + (layer,), parent.frames + (frames,), residuals)


def _walk_layers(
    data: np.ndarray,
    lat: np.ndarray,
    lon: np.ndarray,
    cfgs: Sequence[TrainConfig],
    artifact: CodebookArtifact | None = None,
) -> list[tuple[np.ndarray, tuple[CodebookLayer, ...], tuple[FrameTable | None, ...]]]:
    """Encode every row level by level under each configuration: fit the
    levels, or replay ``artifact`` (``cfgs`` is then its one config).

    Level l takes the residuals of level l-1, geo-enhanced in the frame of
    each row's (j1, ..., j_{l-1}) cell if l is in ``cfg.geo_levels``.
    Fitting derives the frames from the rows and trains level l with seed
    ``[cfg.seed, l - 1]``; replay reads the artifact's frames and layers.
    Configurations with one ``cfg.prefix_key(l)`` share the state after
    level l, so each distinct level is clustered once; a single
    configuration, every replay batch, builds no key. Each level builds
    its distinct inputs and releases the parent states before it fits, so
    a single configuration holds one level input at a time.

    Returns, per configuration, the (N, 3) codes, the layers and the frame
    tables of levels 2 and 3 (None on replay and for plain levels).
    """
    states = [_Walked((), (), (), data)] * len(cfgs)
    for level in (1, 2, 3):
        keys = [0] if len(cfgs) == 1 else [cfg.prefix_key(level) for cfg in cfgs]
        inputs = {}  # prefix key -> (parent, input, frame table, config)
        for key, parent, cfg in zip(keys, states, cfgs):
            if key not in inputs:
                inputs[key] = (parent, *_level_input(parent, lat, lon, cfg, level, artifact), cfg)
        # no name outside this comprehension may keep a level input alive
        for parent in [entry[0] for entry in inputs.values()]:
            parent.residuals = None
        walked = {key: _cluster_level(*inputs.pop(key), level, artifact) for key in list(inputs)}
        states = [walked[key] for key in keys]
    return [(np.column_stack(state.labels), state.layers, state.frames[1:]) for state in states]


def _id_order(ids: Sequence[str]) -> np.ndarray:
    """The int64 row order that sorts the POI ids."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)


def _report(
    codes: np.ndarray,
    lat: np.ndarray,
    lon: np.ndarray,
    by_id: np.ndarray,
    cfg: TrainConfig,
    groups: np.ndarray | None = None,
) -> QuantReport:
    """A run's report: its codes checked against the layer sizes, then
    scored in POI-id row order, the order metrics.geo_dispersion sums
    centroids in. ``groups`` is the grouping of ``codes[by_id]`` if the
    caller has it."""
    with _stage("sid assembly"):
        check_codes(codes, cfg.layer_sizes)
        return quant_report(codes[by_id], lat[by_id], lon[by_id], cfg.layer_sizes, groups=groups)


def run(pois: Sequence[PoiRecord], embeddings: np.ndarray, cfg: TrainConfig) -> RunResult:
    """Train the full three-layer codebook and score the assignment.

    ``pois`` is a :class:`Corpus` or any sequence of :class:`PoiRecord`
    whose rows match ``embeddings``. ``assignments`` maps each POI id, in
    ascending id order, to the shared ``Sid`` of its triple; the report is
    computed in the same id order."""
    t0 = time.perf_counter()
    ids, data, lat, lon = _columns(pois, embeddings)
    [(codes, layers, (geo_second, geo_third))] = _walk_layers(data, lat, lon, [cfg])
    by_id = _id_order(ids)
    with _stage("sid assembly"):
        # index before report: the other order left freed heap pages that
        # the next replay batches fault back in, about 56 per 40 batches.
        # The index's ids are already sorted, so its rows are codes[by_id]
        # and the report reuses its grouping.
        index = SidIndex([ids[i] for i in by_id.tolist()], codes[by_id])
        report = _report(codes, lat, lon, by_id, cfg, index.row_groups)
        artifact = CodebookArtifact(
            config=cfg,
            layers=layers,
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
    only triples the index lacks get new ones. ``pois`` is a
    :class:`Corpus` or any sequence of :class:`PoiRecord`.
    """
    cfg = artifact.config
    ids, data, lat, lon = _columns(pois, embeddings)
    if data.shape[1] != artifact.layers[0].dim:
        raise ValueError(
            f"embedding dimension {data.shape[1]} != codebook dimension {artifact.layers[0].dim}"
        )
    [(codes, _, _)] = _walk_layers(data, lat, lon, [cfg], artifact)
    check_codes(codes, cfg.layer_sizes)
    return dict(zip(ids, artifact.sid_index.sids_for(codes)))


def resolve_worker_count(n_tasks: int) -> int:
    """Worker cap from GEOSID_THREADS (0 or unset = auto), at most
    ``n_tasks``. ``compare`` and ``sweep_alpha_beta`` run in one thread
    and call it only to validate the variable."""
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


def _reports(
    pois: Sequence[PoiRecord], embeddings: np.ndarray, cfgs: Sequence[TrainConfig]
) -> list[QuantReport]:
    """``run(pois, embeddings, cfg).report`` for each configuration, from
    one layer walk over all of them, in one thread."""
    resolve_worker_count(1)
    ids, data, lat, lon = _columns(pois, embeddings)
    by_id = _id_order(ids)
    return [
        _report(codes, lat, lon, by_id, cfg)
        for cfg, (codes, _, _) in zip(cfgs, _walk_layers(data, lat, lon, cfgs))
    ]


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
    pois: Sequence[PoiRecord], embeddings: np.ndarray, cfgs: Sequence[TrainConfig]
) -> list[tuple[str, QuantReport]]:
    """One report row per configuration, in input order: each row's report
    equals ``run(pois, embeddings, cfg).report``. Rows are labelled by
    ``config_label``; a label's n-th occurrence, n >= 2, ends in ``#n``.

    All configurations walk the layers together in one thread, and a
    level that several of them share (``TrainConfig.prefix_key``) is
    fitted once: the four cosine variants, for one, share levels 1 and 2.
    Only the reports are built, no artifacts. GEOSID_THREADS is validated
    but changes nothing.
    """
    if len(cfgs) < 2:
        raise ValueError("compare needs at least 2 configurations")
    counts: dict[str, int] = {}
    labels = []
    for label in map(config_label, cfgs):
        counts[label] = counts.get(label, 0) + 1
        labels.append(label if counts[label] == 1 else f"{label} #{counts[label]}")
    return list(zip(labels, _reports(pois, embeddings, cfgs)))


def sweep_alpha_beta(
    pois: Sequence[PoiRecord],
    embeddings: np.ndarray,
    grid: SweepGrid,
    base_cfg: TrainConfig,
) -> list[tuple[tuple[float, float], QuantReport]]:
    """The base configuration's report at each (alpha, beta) pair, from one
    layer walk as in ``compare``: the levels before the first geo-enhanced
    one are fitted once for the whole grid."""
    cfgs = [replace(base_cfg, alpha=a, beta=b) for a, b in grid.pairs]
    return list(zip(grid.pairs, _reports(pois, embeddings, cfgs)))


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
