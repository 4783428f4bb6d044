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
import numbers
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


def _is_int(value, low: int) -> bool:
    """Whether ``value`` is an integer (numpy's included, bools not) >= ``low``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def _real(name: str, value) -> int | float:
    """Config field ``name`` as a Python int or float: a real number
    (numpy's included, bools not) that a float can hold."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number within float range, got {value}") from None
    return int(value) if isinstance(value, numbers.Integral) else number


class DegenerateCentroidError(ValueError):
    """Projection against a zero-norm centroid is undefined."""


@dataclass(frozen=True, eq=False)
class CodebookLayer:
    """One trained layer: a (K, dim) centroid matrix plus its metric.

    Centroids are stored float64 and frozen read-only. A zero-norm centroid
    can appear only from degenerate (all-zero) training data; it acts as a
    sentinel that never wins a cosine assignment.

    ``sq_norms`` (each centroid's squared norm, ``_row_sq_norms`` of the
    centroids), ``norms`` (their square roots) and ``zeros`` (the mask of
    zero-norm centroids, None when there is none) are derived once from
    the frozen centroids, read-only, and reused by every assignment and
    residual step against the layer.
    """

    centroids: np.ndarray
    metric: str = METRIC_COSINE
    sq_norms: np.ndarray = field(init=False, repr=False)
    norms: np.ndarray = field(init=False, repr=False)
    zeros: np.ndarray | None = field(init=False, repr=False)

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
        object.__setattr__(self, "zeros", None if sq_norms.all() else sq_norms == 0.0)

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

    Construction checks every field once: ``layer_sizes`` is three integers
    >= 1, ``max_iters`` an integer >= 1, ``seed`` one >= 0, and the other
    numbers fit a float. numpy numbers are stored as Python numbers, bools
    are rejected, and each ValueError starts with the field's name.
    """

    layer_sizes: tuple[int, int, int] = (512, 512, 512)
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
        sizes = self.layer_sizes
        if not (isinstance(sizes, (tuple, list)) and len(sizes) == 3 and all(_is_int(k, 1) for k in sizes)):
            raise ValueError(f"layer_sizes must be 3 layer sizes, each an integer >= 1, got {sizes!r}")
        object.__setattr__(self, "layer_sizes", tuple(map(int, sizes)))
        for name, low in (("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_int(value, low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("tol", "alpha", "beta", "d_scale_km"):
            value = getattr(self, name)
            if name != "d_scale_km" or value is not None:
                object.__setattr__(self, name, _real(name, value))
        attributes = self.geo_attributes
        try:
            names = None if isinstance(attributes, (str, bytes)) else frozenset(attributes)
        except TypeError:  # not iterable, or an unhashable member
            names = None
        if names is None or not all(isinstance(name, str) for name in names):
            raise ValueError(f"geo_attributes must be a collection of attribute names, got {attributes!r}")
        object.__setattr__(self, "geo_attributes", names)
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.rope_layer not in ROPE_LAYERS:
            raise ValueError(f"rope_layer must be one of {ROPE_LAYERS}, got {self.rope_layer!r}")
        unknown = self.geo_attributes - set(ALL_ATTRIBUTES)
        if unknown:
            raise ValueError(f"geo_attributes must be a subset of {ALL_ATTRIBUTES}, got {sorted(unknown)}")
        if self.variant == VARIANT_PRO_GEO and not self.geo_attributes:
            raise ValueError("geo_attributes must not be empty for pro_geo")
        # written so that NaN, which fails every comparison, fails each check
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
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
        np.add.reduce(block * block, axis=1, out=out[start : start + _NORM_CHUNK_ROWS])
    return out


# a distance block holds at most this many scores (1 MB of float64) ...
_BLOCK_SCORES = 1 << 17
# ... and at least this many rows: the BLAS may compute a product over 512
# rows or fewer to different bits than the same rows inside a larger product
_BLOCK_FLOOR = 1024


def _blocks(n: int, width: int):
    """Row ranges ``(lo, hi)`` of the distance blocks over ``n`` rows whose
    product has ``width`` columns: ``max(1024, 2^17 // width)`` rows rounded
    down to a multiple of 1,024, with a tail shorter than 1,024 rows folded
    into the block before it. Fewer rows than one block are one range."""
    step = max(_BLOCK_FLOOR, _BLOCK_SCORES // width) // _BLOCK_FLOOR * _BLOCK_FLOOR
    bounds = list(range(0, n, step)) + [n]
    if len(bounds) > 2 and n - bounds[-2] < _BLOCK_FLOOR:
        del bounds[-2]
    return zip(bounds[:-1], bounds[1:])


def _nearest(
    x: np.ndarray,
    layer: CodebookLayer,
    sq_norms: np.ndarray,
    roots: np.ndarray | None = None,
    at: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Each row's best centroid of ``layer`` and, when ``at`` is given, its
    distance to centroid ``at[i]``: ``(labels, distances)``, ``distances``
    None without ``at``. ``sq_norms`` is ``_row_sq_norms(x)``; ``roots``
    is its square root, computed here for a cosine layer when not given.

    Cosine similarity is ``g / outer(root, cnorm)`` over the Gram block
    ``g``, then zero rows score 0 and zero centroids -2 (a sentinel below
    any true cosine, so it never wins); labels are the argmax, first index
    on ties, and index 0 for a zero row; the distance is ``1 - s``.
    Squared Euclidean distance is ``(-2g + ||x||^2) + ||c||^2`` with the
    argmin. A product of two positive roots never underflows to 0, so the
    only zero denominators are those of the rows and centroids overwritten.
    The outer product of the roots is taken with ``np.einsum("i,j->ij")``:
    each entry is one rounded product, the bits of ``np.multiply.outer``,
    at about half its cost per block. The layer's centroid norms and
    zero-centroid mask are cached on the layer; the zero-row check runs
    once per call.

    The rows are walked in blocks (:func:`_blocks`), so no (N, K) matrix
    exists and a block's scores stay in cache between the product and the
    argmax. The 1,024-row floor keeps the bits: with numpy 2.4.6 and
    OpenBLAS 0.3.31 (AVX-512), a product over 512 rows or fewer differs
    from the full product by up to 7e-14, while blocks of 1,024 rows or
    more reproduce it exactly. Fewer rows than one block are one product
    of the whole input. Matmul lowers a single-row or single-column
    product to a vector kernel that accumulates in another order, so one
    row, and a one-centroid layer, is padded to two.

    A one-centroid pass (k-means++ seeding) takes its product as
    ``(2, M) @ (M, rows)``: the same bits as ``(rows, M) @ (M, 2)``, and
    OpenBLAS then packs only the two-row operand into its buffer; packing
    the whole level input instead keeps about 20 MB of it resident at
    10,240 x 256."""
    n, cosine, single = x.shape[0], layer.metric == METRIC_COSINE, layer.k == 1
    c = np.vstack([layer.centroids] * 2) if single else layer.centroids
    zero_x = zero_c = None
    if cosine:
        if roots is None:
            roots = np.sqrt(sq_norms)
        if not sq_norms.all():
            zero_x = sq_norms == 0.0
        zero_c = layer.zeros
    labels = np.zeros(n, dtype=np.intp)
    dists = None if at is None else np.empty(n)
    for lo, hi in _blocks(n, c.shape[0]):
        rows = x[lo:hi] if hi - lo > 1 else np.vstack([x[lo:hi]] * 2)
        # a one-centroid block is the first row of its product, contiguous
        s = (c @ rows.T)[0, : hi - lo, None] if single else (rows @ c.T)[: hi - lo]
        if cosine:
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(s, np.einsum("i,j->ij", roots[lo:hi], layer.norms), out=s)
            if zero_x is not None:
                s[zero_x[lo:hi]] = 0.0
            if zero_c is not None:
                s[:, zero_c] = -2.0
        else:
            np.multiply(s, -2.0, out=s)
            np.add(s, sq_norms[lo:hi, None], out=s)
            np.add(s, layer.sq_norms, out=s)
        if not single:  # one centroid labels every row 0
            (s.argmax if cosine else s.argmin)(axis=1, out=labels[lo:hi])
            if zero_x is not None:
                labels[lo:hi][zero_x[lo:hi]] = 0
        if dists is not None:
            own = s[:, 0] if single else s[np.arange(hi - lo), at[lo:hi]]
            if cosine:
                np.subtract(1.0, own, out=dists[lo:hi])
            else:
                dists[lo:hi] = own
    return labels, dists


def assign(r: np.ndarray, layer: CodebookLayer) -> int | np.ndarray:
    """Best centroid index for a residual (or rows of residuals) under the
    layer's metric. Ties break to the lowest index; on a cosine layer a
    zero-norm residual carries no direction and gets index 0.

    Returns labels only, from the layer's cached centroid norms."""
    r = np.asarray(r, dtype=float)
    single = r.ndim == 1
    rows = r if r.ndim == 2 else np.atleast_2d(r)
    if rows.shape[1] != layer.dim:
        raise ValueError(f"residual dimension {rows.shape[1]} != layer dimension {layer.dim}")
    labels, _ = _nearest(rows, layer, _row_sq_norms(rows))
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
    coef = buf.sum(axis=-1, keepdims=True)
    coef /= np.asarray(cc)[..., None]
    np.multiply(coef, c, out=buf)
    return np.subtract(r, buf, out=buf)


def kmeans_plus_plus_init(
    vectors: np.ndarray,
    k: int,
    metric: str,
    rng: np.random.Generator,
    sq_norms: np.ndarray | None = None,
    roots: np.ndarray | None = None,
) -> np.ndarray:
    """k-means++ seeding under the active metric.

    The first center is a uniform draw; each next center is drawn with
    probability proportional to the squared metric distance (cosine
    distance squared, or the squared Euclidean distance itself) to the
    nearest chosen center. Falls back to a uniform draw when every
    remaining point coincides with a chosen center. ``sq_norms`` is
    ``_row_sq_norms(vectors)`` and ``roots`` its square root if the caller
    has them; otherwise they are computed once here.
    """
    n = vectors.shape[0]
    if sq_norms is None:
        sq_norms = _row_sq_norms(vectors)
    if roots is None and metric == METRIC_COSINE:
        roots = np.sqrt(sq_norms)
    centers = np.empty((k, vectors.shape[1]), dtype=float)
    idx = int(rng.integers(n))
    centers[0] = vectors[idx]
    if k == 1:
        return centers
    # a one-centre pass labels every row 0: its distances are those at 0
    at = np.zeros(n, dtype=np.intp)

    def distances(center: np.ndarray) -> np.ndarray:
        return _nearest(vectors, CodebookLayer(center[None, :], metric), sq_norms, roots, at)[1]

    d_min = distances(centers[0])
    for j in range(1, k):
        weights = np.maximum(d_min, 0.0)
        if metric == METRIC_COSINE:
            weights **= 2
        total = float(np.sum(weights))
        if total > 0.0:
            idx = int(rng.choice(n, p=weights / total))
        else:
            idx = int(rng.integers(n))
        centers[j] = vectors[idx]
        np.minimum(d_min, distances(centers[j]), out=d_min)
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
    own: np.ndarray, labels: np.ndarray, counts: np.ndarray, taken: np.ndarray
) -> int:
    """Index of the point farthest from its own centroid (``own`` holds
    each row's distance to it) among points whose cluster keeps >= 2
    members; -1 if none qualifies. Ties -> lowest index."""
    candidates = (counts[labels] >= 2) & ~taken
    if not np.any(candidates):
        return -1
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
    so results are reproducible bit for bit. Row norms and their roots are
    computed once per fit and shared by seeding, every round and the final
    objective, and every distance pass walks the rows in blocks
    (:func:`_nearest`). Non-finite ``vectors`` or ``init_centroids`` are
    rejected, naming the first such row.

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
    _check_finite("vectors", data, sq_norms)
    if init_centroids is not None:
        centroids = np.array(init_centroids, dtype=float)
        if centroids.shape != (k, data.shape[1]):
            raise ValueError(f"init_centroids shape {centroids.shape} != {(k, data.shape[1])}")
        _check_finite("init_centroids", centroids, _row_sq_norms(centroids))
    roots = np.sqrt(sq_norms) if metric == METRIC_COSINE else None
    if init_centroids is None:
        centroids = kmeans_plus_plus_init(
            data, k, metric, np.random.default_rng(seed), sq_norms=sq_norms, roots=roots
        )

    labels = None
    history: list[float] = []
    converged = False
    iters = 0
    for _ in range(max_iters):
        iters += 1
        layer = CodebookLayer(centroids=centroids, metric=metric)
        new_labels, previous = _nearest(data, layer, sq_norms, roots, at=labels)
        if labels is not None:
            history.append(float(np.sum(previous)))
        changed = n if labels is None else int(np.count_nonzero(new_labels != labels))
        labels = new_labels

        # distances to the assigned centroids, one more pass, only for a repair;
        # a repair moves only rows it marks taken, which no later repair reads
        own = None
        counts = np.bincount(labels, minlength=k)
        taken = np.zeros(n, dtype=bool)
        repaired = False
        for j in np.nonzero(counts == 0)[0]:
            if own is None:
                own = _nearest(data, layer, sq_norms, roots, at=labels)[1]
            p = _steal_farthest(own, labels, counts, taken)
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
                if own is None:
                    own = _nearest(data, layer, sq_norms, roots, at=labels)[1]
                p = _steal_farthest(own, labels, counts, taken)
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
        layer = CodebookLayer(centroids=centroids, metric=metric)
        objective = float(np.sum(_nearest(data, layer, sq_norms, roots, at=labels)[1]))
        history.append(objective)

    return KMeansResult(
        layer=layer,
        labels=labels,
        objective=objective,
        objective_history=tuple(history),
        n_iters=iters,
        converged=converged,
    )


def _check_finite(name: str, matrix: np.ndarray, sq_norms: np.ndarray) -> None:
    """Reject a matrix with a NaN or infinite entry, naming its first such
    row. A row's squared norm is finite when all its entries are (barring
    overflow), so only rows whose norm is not are inspected."""
    for row in np.flatnonzero(~np.isfinite(sq_norms)):
        if not np.all(np.isfinite(matrix[row])):
            raise ValueError(f"{name}: non-finite value in row {row}")


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
    # one pass: a NaN minimum, like a zero one, takes the masked path
    if sq_norms.min(initial=math.inf) > 0.0:
        return _project(data, assigned, sq_norms)
    live = sq_norms > 0.0
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
