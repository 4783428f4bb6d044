"""Residual k-means quantization over embedding vectors.

Layer l assigns each residual to the centroid maximizing cosine similarity
(or minimizing squared Euclidean distance for the baseline variant), then
removes the component along the assigned centroid:

    r^(l) = r^(l-1) - (<r^(l-1), c> / ||c||^2) * c

so successive layers see only what earlier layers could not explain. The
Euclidean baseline uses plain subtraction residuals r^(l-1) - c instead,
matching conventional residual quantization.

Everything here is deterministic: k-means++ seeding and all tie-breaks are
driven by numpy's PCG64 generator, assignment ties resolve to the lowest
index, and centroid updates accumulate members in ascending row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .georope import (
    ALL_ATTRIBUTES,
    build_geo_vector,
    normalize_geo_batch,
)

__all__ = [
    "METRIC_COSINE",
    "METRIC_EUCLIDEAN",
    "ROPE_LAYERS",
    "VARIANTS",
    "VARIANT_ADD",
    "VARIANT_CONCAT",
    "VARIANT_COSINE_ONLY",
    "VARIANT_EUCLIDEAN",
    "VARIANT_PRO_GEO",
    "CodebookLayer",
    "DegenerateCentroidError",
    "KMeansResult",
    "TrainConfig",
    "assign",
    "build_variant_matrix",
    "enhanced_dim",
    "kmeans_plus_plus_init",
    "kmeans_train",
    "next_residuals",
    "project_residual",
]

METRIC_COSINE = "cosine"
METRIC_EUCLIDEAN = "euclidean"
_METRICS = (METRIC_COSINE, METRIC_EUCLIDEAN)

VARIANT_PRO_GEO = "pro_geo"
VARIANT_EUCLIDEAN = "rq_kmeans_euclidean"
VARIANT_COSINE_ONLY = "cosine_only"
VARIANT_CONCAT = "concat_geo"
VARIANT_ADD = "add_geo"
VARIANTS = (VARIANT_PRO_GEO, VARIANT_EUCLIDEAN, VARIANT_COSINE_ONLY, VARIANT_CONCAT, VARIANT_ADD)

ROPE_LAYER_SECOND = "second"
ROPE_LAYER_THIRD = "third"
ROPE_LAYER_BOTH = "both"
ROPE_LAYERS = (ROPE_LAYER_SECOND, ROPE_LAYER_THIRD, ROPE_LAYER_BOTH)
_GEO_LEVELS = {ROPE_LAYER_SECOND: (2,), ROPE_LAYER_THIRD: (3,), ROPE_LAYER_BOTH: (2, 3)}


class DegenerateCentroidError(ValueError):
    """Projection against a zero-norm centroid is undefined."""


@dataclass(frozen=True, eq=False)
class CodebookLayer:
    """One trained layer: a (K, dim) centroid matrix plus its metric.

    Centroids are stored float64 and frozen read-only. A zero-norm centroid
    can appear only from degenerate (all-zero) training data; it acts as a
    sentinel that never wins a cosine assignment.

    ``sq_norms`` (each centroid's squared norm, ``_row_sq_norms`` of the
    centroids) and ``norms`` (their square roots) are derived once from
    the frozen centroids, read-only, and reused by every assignment and
    residual step against the layer.
    """

    centroids: np.ndarray
    metric: str = METRIC_COSINE
    sq_norms: np.ndarray = field(init=False, repr=False)
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.centroids, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError(f"centroids must be a (K, dim) matrix with K >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("centroids contain non-finite values")
        if self.metric not in _METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        sq_norms = _row_sq_norms(arr)
        norms = np.sqrt(sq_norms)
        for name, value in (("centroids", arr), ("sq_norms", sq_norms), ("norms", norms)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the full three-layer training run.

    ``layer_sizes`` follows the K-per-layer convention; ``variant`` selects
    the geo-enhancement strategy (``pro_geo`` rotary, ``concat_geo``,
    ``add_geo``, plain ``cosine_only``, or the ``rq_kmeans_euclidean``
    baseline); ``rope_layer`` says which clustering layer(s) consume the
    enhanced vectors. ``d_scale_km`` of None means each cluster normalizes
    distances against its own maximum member distance.
    """

    layer_sizes: tuple[int, ...] = (512, 512, 512)
    max_iters: int = 100
    tol: float = 1e-4
    seed: int = 0
    variant: str = VARIANT_PRO_GEO
    geo_attributes: frozenset[str] = frozenset(ALL_ATTRIBUTES)
    alpha: float = 0.5
    beta: float = 0.5
    rope_layer: str = ROPE_LAYER_THIRD
    d_scale_km: float | None = None

    def __post_init__(self) -> None:
        sizes = tuple(int(k) for k in self.layer_sizes)
        if len(sizes) < 2 or any(k < 1 for k in sizes):
            raise ValueError(f"layer_sizes needs >= 2 positive entries, got {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "geo_attributes", frozenset(self.geo_attributes))
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.rope_layer not in ROPE_LAYERS:
            raise ValueError(f"unknown rope_layer {self.rope_layer!r}; expected one of {ROPE_LAYERS}")
        unknown = self.geo_attributes - set(ALL_ATTRIBUTES)
        if unknown:
            raise ValueError(f"unknown geo attributes: {sorted(unknown)}")
        if self.variant == VARIANT_PRO_GEO and not self.geo_attributes:
            raise ValueError("pro_geo needs at least one geo attribute")
        # written so that NaN, which fails every comparison, fails each check
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.d_scale_km is not None and not (math.isfinite(self.d_scale_km) and self.d_scale_km > 0):
            raise ValueError(f"d_scale_km must be finite and positive when given, got {self.d_scale_km}")

    @property
    def metric(self) -> str:
        return METRIC_EUCLIDEAN if self.variant == VARIANT_EUCLIDEAN else METRIC_COSINE

    @property
    def uses_geo(self) -> bool:
        return self.variant in (VARIANT_PRO_GEO, VARIANT_CONCAT, VARIANT_ADD)

    @property
    def geo_levels(self) -> tuple[int, ...]:
        """Clustering levels (1-based) whose input is geo-enhanced: 3 for
        ``rope_layer`` third, 2 for second, both for both; none for the
        plain variants. Level l is enhanced in the frame of each row's
        (j1, ..., j_{l-1}) cell."""
        return _GEO_LEVELS[self.rope_layer] if self.uses_geo else ()

    def prefix_key(self, level: int) -> tuple:
        """Everything clustering levels 1..``level`` read from the
        configuration: the metric, seed and stopping rule, the first
        ``level`` layer sizes, and the enhancement settings of each
        geo-enhanced level up to ``level``. Configurations with equal keys
        fit those levels to the same bits, so a multi-configuration walk
        fits them once."""
        geo = tuple(
            (g, self.variant, self.alpha, self.beta, self.geo_attributes, self.d_scale_km)
            for g in self.geo_levels
            if g <= level
        )
        return (self.metric, self.seed, self.max_iters, self.tol, self.layer_sizes[:level], geo)


# rows squared per pass of _row_sq_norms
_NORM_CHUNK_ROWS = 1024


def _row_sq_norms(x: np.ndarray) -> np.ndarray:
    """``np.sum(x * x, axis=1)``, squared over blocks of rows: each row's
    sum has the same bits, and the squares never take a full copy of
    ``x`` (the geo-enhanced level input of a fit is the largest array a
    run holds)."""
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], _NORM_CHUNK_ROWS):
        block = x[start : start + _NORM_CHUNK_ROWS]
        np.sum(block * block, axis=1, out=out[start : start + _NORM_CHUNK_ROWS])
    return out


def _gram(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """All pairwise inner products as one (N, K) matrix product.

    Matmul lowers single-row or single-column products to vector kernels
    whose accumulation order differs from the matrix path; padding those
    shapes keeps a (row, centroid) pair on the matrix path. That does not
    make its bits independent of N: the BLAS may block or thread small row
    counts differently, and on numpy 2.4.6 with OpenBLAS 0.3.31 (AVX-512)
    a product over slices of 512 rows or fewer differs from the full
    product by up to 7e-14. Splitting the rows of a product can change a
    label.
    """
    v = np.vstack([vectors, vectors[:1]]) if vectors.shape[0] == 1 else vectors
    c = np.vstack([centroids, centroids[:1]]) if centroids.shape[0] == 1 else centroids
    return (v @ c.T)[: vectors.shape[0], : centroids.shape[0]]


def _cosine_similarities(
    vectors: np.ndarray,
    centroids: np.ndarray,
    vector_sq_norms: np.ndarray,
    centroid_sq_norms: np.ndarray | None = None,
    centroid_norms: np.ndarray | None = None,
) -> np.ndarray:
    """(N, K) cosine similarities; zero-norm rows score 0 and zero-norm
    centroids -2. ``vector_sq_norms`` is ``_row_sq_norms(vectors)``,
    computed by the caller; ``centroid_sq_norms`` and ``centroid_norms``
    are the centroids' squared norms and their roots, computed here when
    not given (a :class:`CodebookLayer` holds both).

    The division runs in place over the Gram matrix. A product of two
    positive roots never underflows to 0, so the only zero denominators
    are those of zero-norm rows and centroids, overwritten afterwards."""
    sims = _gram(vectors, centroids)
    if centroid_sq_norms is None:
        centroid_sq_norms = _row_sq_norms(centroids)
    if centroid_norms is None:
        centroid_norms = np.sqrt(centroid_sq_norms)
    denom = np.multiply.outer(np.sqrt(vector_sq_norms), centroid_norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(sims, denom, out=sims)
    zero_v = vector_sq_norms == 0.0
    if np.any(zero_v):
        sims[zero_v] = 0.0
    zero_c = centroid_sq_norms == 0.0
    if np.any(zero_c):
        sims[:, zero_c] = -2.0  # below any true cosine: degenerate sentinel never wins
    return sims


def _sq_euclidean(
    vectors: np.ndarray,
    centroids: np.ndarray,
    vector_sq_norms: np.ndarray,
    centroid_sq_norms: np.ndarray | None = None,
) -> np.ndarray:
    """(N, K) squared Euclidean distances via the expanded inner product
    ``(||v||^2 - 2 <v, c>) + ||c||^2``, evaluated in place over the Gram
    matrix. ``vector_sq_norms`` is ``_row_sq_norms(vectors)``, computed by
    the caller; ``centroid_sq_norms`` is computed here when not given."""
    if centroid_sq_norms is None:
        centroid_sq_norms = _row_sq_norms(centroids)
    dists = _gram(vectors, centroids)
    # -2g + n is n - 2g exactly: negation and commuted addition are exact
    np.multiply(dists, -2.0, out=dists)
    np.add(dists, vector_sq_norms[:, None], out=dists)
    return np.add(dists, centroid_sq_norms, out=dists)


def _scores_and_labels(
    vectors: np.ndarray,
    centroids: np.ndarray,
    metric: str,
    sq_norms: np.ndarray,
    centroid_sq_norms: np.ndarray | None = None,
    centroid_norms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row best centroid under ``metric`` and the (N, K) scores it was
    picked from: cosine similarities (argmax, first index wins ties; a
    zero-norm row goes to index 0) or squared Euclidean distances (argmin).
    ``sq_norms`` is ``_row_sq_norms(vectors)``; the centroid norms are as
    in :func:`_cosine_similarities`."""
    if metric == METRIC_COSINE:
        sims = _cosine_similarities(vectors, centroids, sq_norms, centroid_sq_norms, centroid_norms)
        labels = np.argmax(sims, axis=1)
        labels[sq_norms == 0.0] = 0
        return sims, labels
    dists = _sq_euclidean(vectors, centroids, sq_norms, centroid_sq_norms)
    return dists, np.argmin(dists, axis=1)


def _distances_and_labels(
    vectors: np.ndarray,
    centroids: np.ndarray,
    metric: str,
    sq_norms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Distance matrix plus per-row best assignment under ``metric``.

    Cosine distance is 1 - similarity with argmax assignment (first index
    wins ties); zero-norm rows go to index 0 by convention. Euclidean uses
    squared distance with argmin. ``sq_norms`` is ``_row_sq_norms(vectors)``
    when the caller already has it (k-means reuses one per fit).
    """
    if sq_norms is None:
        sq_norms = _row_sq_norms(vectors)
    scores, labels = _scores_and_labels(vectors, centroids, metric, sq_norms)
    if metric == METRIC_COSINE:
        np.subtract(1.0, scores, out=scores)
    return scores, labels


def _center_distances(
    vectors: np.ndarray, center: np.ndarray, metric: str, sq_norms: np.ndarray
) -> np.ndarray:
    """Distance of every row to one center: the column
    :func:`_distances_and_labels` gives for a one-centroid matrix, without
    the labels."""
    if metric == METRIC_COSINE:
        sims = _cosine_similarities(vectors, center[None, :], sq_norms)[:, 0]
        return np.subtract(1.0, sims, out=sims)
    return _sq_euclidean(vectors, center[None, :], sq_norms)[:, 0]


def assign(r: np.ndarray, layer: CodebookLayer) -> int | np.ndarray:
    """Best centroid index for a residual (or rows of residuals) under the
    layer's metric. Ties break to the lowest index; on a cosine layer a
    zero-norm residual carries no direction and gets index 0.

    Returns labels only: the labels of :func:`_distances_and_labels`
    against ``layer.centroids``, from the layer's cached centroid norms
    and without converting similarities into distances."""
    r = np.asarray(r, dtype=float)
    single = r.ndim == 1
    rows = np.atleast_2d(r)
    if rows.shape[1] != layer.dim:
        raise ValueError(f"residual dimension {rows.shape[1]} != layer dimension {layer.dim}")
    _, labels = _scores_and_labels(
        rows, layer.centroids, layer.metric, _row_sq_norms(rows), layer.sq_norms, layer.norms
    )
    return int(labels[0]) if single else labels


def project_residual(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Remove the component of ``r`` along ``c``: r - (<r,c>/||c||^2) c.

    Works on single vectors or row-aligned batches. The output is
    orthogonal to ``c``. Raises DegenerateCentroidError for zero ``c``.
    """
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    if r.shape != c.shape:
        raise ValueError(f"shape mismatch: residual {r.shape} vs centroid {c.shape}")
    cc = np.sum(c * c, axis=-1)
    if np.any(cc == 0.0):
        raise DegenerateCentroidError("cannot project onto a zero-norm centroid")
    return _project(r, c, cc)


def _project(r: np.ndarray, c: np.ndarray, cc: np.ndarray) -> np.ndarray:
    """r - (<r,c>/cc) c along the last axis, given ``cc = ||c||^2 > 0``
    per vector, evaluated in one scratch buffer."""
    buf = np.multiply(r, c)
    coef = np.sum(buf, axis=-1, keepdims=True)
    coef /= np.asarray(cc)[..., None]
    np.multiply(coef, c, out=buf)
    return np.subtract(r, buf, out=buf)


def kmeans_plus_plus_init(
    vectors: np.ndarray,
    k: int,
    metric: str,
    rng: np.random.Generator,
    sq_norms: np.ndarray | None = None,
) -> np.ndarray:
    """k-means++ seeding under the active metric.

    The first center is a uniform draw; each next center is drawn with
    probability proportional to the squared metric distance (cosine
    distance squared, or the squared Euclidean distance itself) to the
    nearest chosen center. Falls back to a uniform draw when every
    remaining point coincides with a chosen center. ``sq_norms`` is
    ``_row_sq_norms(vectors)`` if the caller has it; otherwise it is
    computed once here.
    """
    n = vectors.shape[0]
    if sq_norms is None:
        sq_norms = _row_sq_norms(vectors)
    centers = np.empty((k, vectors.shape[1]), dtype=float)
    idx = int(rng.integers(n))
    centers[0] = vectors[idx]
    if k == 1:
        return centers
    d_min = _center_distances(vectors, centers[0], metric, sq_norms)
    for j in range(1, k):
        weights = np.maximum(d_min, 0.0)
        if metric == METRIC_COSINE:
            weights = weights**2
        total = float(np.sum(weights))
        if total > 0.0:
            idx = int(rng.choice(n, p=weights / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = vectors[idx]
        d_new = _center_distances(vectors, centers[j], metric, sq_norms)
        d_min = np.minimum(d_min, d_new)
    return centers


@dataclass(frozen=True, eq=False)
class KMeansResult:
    """Trained layer plus the training-time view of it. ``converged`` is
    False when Lloyd stopped at ``max_iters`` instead of a fixed point."""

    layer: CodebookLayer
    labels: np.ndarray
    objective: float
    objective_history: tuple[float, ...]
    n_iters: int
    converged: bool


def _steal_farthest(
    dists: np.ndarray, labels: np.ndarray, counts: np.ndarray, taken: np.ndarray
) -> int:
    """Index of the point farthest from its own centroid among points whose
    cluster keeps >= 2 members; -1 if none qualifies. Ties -> lowest index."""
    candidates = (counts[labels] >= 2) & ~taken
    if not np.any(candidates):
        return -1
    own = dists[np.arange(labels.shape[0]), labels]
    return int(np.argmax(np.where(candidates, own, -np.inf)))


def kmeans_train(
    vectors: np.ndarray,
    k: int,
    metric: str = METRIC_COSINE,
    seed=0,
    max_iters: int = 100,
    tol: float = 1e-4,
    init_centroids: np.ndarray | None = None,
) -> KMeansResult:
    """Lloyd iteration under cosine or Euclidean distance.

    Each round assigns every vector to its best centroid, repairs empty
    clusters, and recomputes centroids as the arithmetic mean of members.
    The update sorts rows by label (stable, so members keep ascending row
    order) and reduces each cluster's rows with one ``np.add.reduce`` over
    axis 0: the same accumulation as ``data[labels == j].mean(axis=0)``,
    so results are reproducible bit for bit. Row norms are computed once
    per fit and shared by seeding, every round and the final objective.

    Stops with no repairs pending when no assignment changed (a fixed
    point, whatever ``tol`` is) or when the fraction of changed
    assignments drops below ``tol``; otherwise after ``max_iters`` rounds.

    Empty-cluster repair (and, for cosine, re-seeding of a centroid whose
    member mean is the zero vector): the point farthest from its own
    centroid, drawn from a cluster that keeps at least two members, becomes
    the new centroid; ties break to the lowest point index.

    ``seed`` feeds numpy's PCG64 generator for the k-means++ seeding; pass
    ``init_centroids`` to skip seeding entirely. The objective is the sum
    of metric distances to assigned centroids; its per-iteration history is
    returned for diagnostics.
    """
    data = np.ascontiguousarray(vectors, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError(f"vectors must be a non-empty (N, dim) matrix, got shape {data.shape}")
    n = data.shape[0]
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of vectors ({n})")
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}")

    sq_norms = _row_sq_norms(data)
    if init_centroids is not None:
        centroids = np.array(init_centroids, dtype=float)
        if centroids.shape != (k, data.shape[1]):
            raise ValueError(f"init_centroids shape {centroids.shape} != {(k, data.shape[1])}")
    else:
        centroids = kmeans_plus_plus_init(
            data, k, metric, np.random.default_rng(seed), sq_norms=sq_norms
        )

    rows = np.arange(n)
    labels = None
    history: list[float] = []
    converged = False
    iters = 0
    for _ in range(max_iters):
        iters += 1
        dists, new_labels = _distances_and_labels(data, centroids, metric, sq_norms)
        if labels is not None:
            history.append(float(np.sum(dists[rows, labels])))
        changed = n if labels is None else int(np.count_nonzero(new_labels != labels))
        labels = new_labels

        counts = np.bincount(labels, minlength=k)
        taken = np.zeros(n, dtype=bool)
        repaired = False
        for j in np.nonzero(counts == 0)[0]:
            p = _steal_farthest(dists, labels, counts, taken)
            if p < 0:
                break
            counts[labels[p]] -= 1
            labels[p] = j
            counts[j] = 1
            taken[p] = True
            repaired = True

        if (changed == 0 or changed / n < tol) and not repaired:
            converged = True
            break

        # a stable sort is one permutation whatever the key dtype; int16 keys
        # get numpy's radix sort
        keys = labels.astype(np.int16) if k <= np.iinfo(np.int16).max else labels
        order = np.argsort(keys, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(counts)))
        sums = np.zeros((k, data.shape[1]), dtype=float)
        for j in np.nonzero(counts)[0]:
            members = order[bounds[j] : bounds[j + 1]]
            np.add.reduce(data[members], axis=0, out=sums[j])
        centroids = sums / counts[:, None]

        if metric == METRIC_COSINE:
            for j in np.nonzero(_row_sq_norms(centroids) == 0.0)[0]:
                p = _steal_farthest(dists, labels, counts, taken)
                if p < 0 or sq_norms[p] == 0.0:
                    continue  # all-zero data: keep the zero sentinel
                counts[labels[p]] -= 1
                labels[p] = j
                counts[j] += 1
                taken[p] = True
                centroids[j] = data[p]

    if converged:
        objective = history[-1]
    else:
        dists, _ = _distances_and_labels(data, centroids, metric, sq_norms)
        objective = float(np.sum(dists[rows, labels]))
        history.append(objective)

    return KMeansResult(
        layer=CodebookLayer(centroids=centroids, metric=metric),
        labels=labels,
        objective=objective,
        objective_history=tuple(history),
        n_iters=iters,
        converged=converged,
    )


def next_residuals(
    vectors: np.ndarray, assigned: np.ndarray, metric: str, sq_norms: np.ndarray | None = None
) -> np.ndarray:
    """Per-row residuals for the next layer: projection residuals under the
    cosine metric, plain subtraction under Euclidean. Rows assigned to a
    degenerate zero-norm centroid pass through unchanged (there is no
    direction to remove).

    ``sq_norms`` is each assigned centroid's squared norm if the caller
    has it, for instance ``layer.sq_norms[labels]`` when ``assigned`` is
    ``layer.centroids[labels]``; otherwise it is computed once here. Each
    row's projection then reads that one norm."""
    data = np.asarray(vectors, dtype=float)
    assigned = np.asarray(assigned, dtype=float)
    if metric == METRIC_EUCLIDEAN:
        return data - assigned
    if sq_norms is None:
        sq_norms = np.sum(assigned * assigned, axis=-1)
    live = sq_norms > 0.0
    if np.all(live):
        return _project(data, assigned, sq_norms)
    residuals = data.copy()
    if np.any(live):
        residuals[live] = _project(data[live], assigned[live], sq_norms[live])
    return residuals


def enhanced_dim(cfg: TrainConfig, m: int) -> int:
    """Output dimension of the geo enhancement applied to m-dim residuals:
    one rotated m-block per active attribute for pro_geo (a lone attribute
    is padded with the unrotated copy), m+2 for concat, m otherwise."""
    if cfg.variant == VARIANT_CONCAT:
        return m + 2
    if cfg.variant != VARIANT_PRO_GEO:
        return m
    blocks = len(cfg.geo_attributes) if len(cfg.geo_attributes) > 1 else 2
    return blocks * m


def build_variant_matrix(
    r2: np.ndarray,
    d_km: np.ndarray,
    sigma_rad: np.ndarray,
    cfg: TrainConfig,
    d_scale_km: float | np.ndarray,
) -> np.ndarray:
    """Geo-enhanced vectors for a batch of residual rows.

    pro_geo stacks rotated copies (dimension 4M for the full attribute
    set); concat_geo appends the two normalized geo values (M+2); add_geo
    tiles (d_norm, sigma_norm) alternately across coordinates and adds them
    in place (M); the plain variants return the residuals untouched.
    """
    rows = np.atleast_2d(np.asarray(r2, dtype=float))
    if cfg.variant in (VARIANT_COSINE_ONLY, VARIANT_EUCLIDEAN):
        return rows
    geo = normalize_geo_batch(d_km, sigma_rad, d_scale_km)
    if cfg.variant == VARIANT_PRO_GEO:
        return build_geo_vector(rows, geo, cfg.alpha, cfg.beta, cfg.geo_attributes)
    d_norm = np.broadcast_to(np.asarray(geo.d_norm, dtype=float), rows.shape[:1])
    s_norm = np.broadcast_to(np.asarray(geo.sigma_norm, dtype=float), rows.shape[:1])
    if cfg.variant == VARIANT_CONCAT:
        return np.concatenate([rows, d_norm[:, None], s_norm[:, None]], axis=1)
    if cfg.variant == VARIANT_ADD:
        tiled = np.empty_like(rows)
        tiled[:, 0::2] = d_norm[:, None]
        tiled[:, 1::2] = s_norm[:, None]
        return rows + tiled
    raise ValueError(f"unknown variant {cfg.variant!r}")
