"""Independent brute-force oracles shared by the unit and acceptance tests.

The Lloyd oracle is a deliberately simple per-point loop: no vectorized
shortcuts, no k-means++ of its own, no shared code with the package
internals beyond numpy's elementary operations. The ``*_oracle`` array
functions are whole-array formulations that the package's blocked or
in-place kernels must match bit for bit.
"""

import numpy as np


def cosine_distance_point(x: np.ndarray, c: np.ndarray) -> float:
    nr = np.sqrt(np.sum(x * x))
    nc = np.sqrt(np.sum(c * c))
    if nc == 0.0:
        return 1.0 - (-2.0)  # degenerate sentinel never wins
    if nr == 0.0:
        return 1.0
    return 1.0 - (x @ c) / (nr * nc)


def sq_euclidean_point(x: np.ndarray, c: np.ndarray) -> float:
    return (np.sum(x * x) - 2.0 * (x @ c)) + np.sum(c * c)


def _point_distance(x: np.ndarray, c: np.ndarray, metric: str) -> float:
    return cosine_distance_point(x, c) if metric == "cosine" else sq_euclidean_point(x, c)


def lloyd_oracle(data: np.ndarray, k: int, metric: str, init_centroids: np.ndarray, max_iters: int = 100):
    """Plain Lloyd iteration from given centroids.

    Mirrors the documented contract: lowest-index tie-breaks, zero-norm rows
    assigned to 0 under cosine, empty clusters repaired by stealing the
    farthest point from a >=2-member cluster. Returns (labels, centroids,
    objective) at convergence (no label change and no repair) or after
    max_iters.
    """
    n, m = data.shape
    centroids = np.array(init_centroids, dtype=float)
    labels = None

    def distance_table(cents):
        table = np.empty((n, k))
        for i in range(n):
            for j in range(k):
                table[i, j] = _point_distance(data[i], cents[j], metric)
        return table

    def steal_farthest(dists, labels, counts, taken):
        best_p, best_d = -1, -np.inf
        for i in range(n):
            if counts[labels[i]] >= 2 and not taken[i] and dists[i, labels[i]] > best_d:
                best_p, best_d = i, dists[i, labels[i]]
        return best_p

    for _ in range(max_iters):
        dists = distance_table(centroids)
        new_labels = np.empty(n, dtype=int)
        for i in range(n):
            best = 0
            for j in range(1, k):
                if dists[i, j] < dists[i, best]:
                    best = j
            if metric == "cosine" and np.sum(data[i] * data[i]) == 0.0:
                best = 0
            new_labels[i] = best
        changed = n if labels is None else int(np.sum(new_labels != labels))
        labels = new_labels

        counts = np.bincount(labels, minlength=k)
        taken = np.zeros(n, dtype=bool)
        repaired = False
        for j in range(k):
            if counts[j] == 0:
                p = steal_farthest(dists, labels, counts, taken)
                if p < 0:
                    break
                counts[labels[p]] -= 1
                labels[p] = j
                counts[j] = 1
                taken[p] = True
                repaired = True

        if changed == 0 and not repaired:
            per_point = np.array([dists[i, labels[i]] for i in range(n)])
            return labels, centroids, float(np.sum(per_point))

        new_centroids = np.empty((k, m))
        for j in range(k):
            new_centroids[j] = data[labels == j].mean(axis=0)
        centroids = new_centroids
        if metric == "cosine":
            for j in range(k):
                if np.sum(centroids[j] * centroids[j]) == 0.0:
                    p = steal_farthest(dists, labels, counts, taken)
                    if p < 0 or np.sum(data[p] * data[p]) == 0.0:
                        continue
                    counts[labels[p]] -= 1
                    labels[p] = j
                    counts[j] += 1
                    taken[p] = True
                    centroids[j] = data[p]

    dists = distance_table(centroids)
    per_point = np.array([dists[i, labels[i]] for i in range(n)])
    return labels, centroids, float(np.sum(per_point))


def rotate_blockwise_oracle(v: np.ndarray, theta) -> np.ndarray:
    """Blockwise rotation in its two-temporary form: each output half is
    one expression over the even and odd coordinates, copied into place."""
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta)[..., None]
    s = np.sin(theta)[..., None]
    even = v[..., 0::2]
    odd = v[..., 1::2]
    out = np.empty(np.broadcast_shapes(v.shape[:-1], theta.shape) + v.shape[-1:], dtype=float)
    out[..., 0::2] = c * even - s * odd
    out[..., 1::2] = s * even + c * odd
    return out


def build_geo_vector_oracle(r2, sigma_norm, d_norm, alpha, beta, attributes) -> np.ndarray:
    """Geo-enhanced vector as a concatenation of separately rotated
    blocks in the order sigma+, sigma-, d+, d-, a lone block padded with
    the unrotated copy."""
    r2 = np.asarray(r2, dtype=float)
    sigma = np.asarray(sigma_norm, dtype=float)
    d = np.asarray(d_norm, dtype=float)
    angles = {"sigma+": alpha * sigma, "sigma-": -alpha * sigma, "d+": beta * d, "d-": -beta * d}
    blocks = [rotate_blockwise_oracle(r2, angles[a]) for a in ("sigma+", "sigma-", "d+", "d-") if a in attributes]
    if len(blocks) == 1:
        blocks.append(np.broadcast_to(r2, blocks[0].shape).copy())
    return np.concatenate(blocks, axis=-1)


def next_residuals_oracle(vectors: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """Cosine residuals with masked copies: rows whose assigned centroid
    has zero norm pass through, the others lose their component along it,
    r - (<r, c> / ||c||^2) c."""
    live = np.sum(assigned * assigned, axis=1) > 0.0
    out = np.empty_like(vectors)
    r, c = vectors[live], assigned[live]
    cc = np.sum(c * c, axis=-1, keepdims=True)
    out[live] = r - (np.sum(r * c, axis=-1, keepdims=True) / cc) * c
    out[~live] = vectors[~live]
    return out


def gram_oracle(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """All pairwise inner products as one (N, K) product over the whole
    input. A one-row input is padded to two rows, and a one-centroid
    matrix takes its product as ``(2, M) @ (M, N)``, the orientation of
    the package's one-centre pass."""
    v = np.vstack([vectors, vectors[:1]]) if vectors.shape[0] == 1 else vectors
    if centroids.shape[0] == 1:
        c = np.vstack([centroids, centroids])
        return (c @ v.T)[:1, : vectors.shape[0]].T
    return (v @ centroids.T)[: vectors.shape[0]]


def cosine_similarities_oracle(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(N, K) cosine similarities, divided in place over the whole Gram
    matrix; zero-norm rows score 0, then zero-norm centroids -2."""
    sims = gram_oracle(vectors, centroids).copy()
    vector_sq_norms = np.sum(vectors * vectors, axis=1)
    centroid_sq_norms = np.sum(centroids * centroids, axis=1)
    denom = np.multiply.outer(np.sqrt(vector_sq_norms), np.sqrt(centroid_sq_norms))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(sims, denom, out=sims)
    sims[vector_sq_norms == 0.0] = 0.0
    sims[:, centroid_sq_norms == 0.0] = -2.0
    return sims


def distances_and_labels_oracle(vectors: np.ndarray, centroids: np.ndarray, metric: str):
    """The (N, K) distance matrix and each row's best centroid: cosine
    distance 1 - similarity with the argmax (a zero row gets 0), or the
    squared Euclidean distance (-2g + ||v||^2) + ||c||^2 with the argmin;
    first index on ties."""
    if metric == "cosine":
        sims = cosine_similarities_oracle(vectors, centroids)
        labels = np.argmax(sims, axis=1)
        labels[np.sum(vectors * vectors, axis=1) == 0.0] = 0
        return 1.0 - sims, labels
    dists = gram_oracle(vectors, centroids) * -2.0
    dists = dists + np.sum(vectors * vectors, axis=1)[:, None]
    dists = dists + np.sum(centroids * centroids, axis=1)
    return dists, np.argmin(dists, axis=1)


def cluster_frames_oracle(keys: np.ndarray, lat: np.ndarray, lon: np.ndarray, d_scale_override):
    """Per-cluster frames as a dict, one Python object per cell: cell (j1,
    or (j1, j2)) -> (GeoPoint centre, scale), plus the per-POI polar
    arrays. The scale is the override, or the cluster's largest member
    distance with 1 km for a cluster whose members all sit on its centre.
    It calls the package's own centroid and polar kernels: what it keeps is
    the per-cell form that the column frame table replaced."""
    from geosid.geo import GeoPoint, group_centroids, local_polar
    from geosid.sid import group_codes

    cells, groups, _ = group_codes(keys)
    center_lat, center_lon = group_centroids(groups, lat, lon)
    d_km, sigma = local_polar(center_lat[groups], center_lon[groups], lat, lon)
    if d_scale_override is not None:
        cluster_scale = np.full(cells.shape[0], float(d_scale_override))
    else:
        cluster_scale = np.zeros(cells.shape[0])
        np.maximum.at(cluster_scale, groups, d_km)
        cluster_scale[cluster_scale == 0.0] = 1.0
    frames = {
        (cell[0] if len(cell) == 1 else tuple(cell)): (GeoPoint(c_lat, c_lon), c_scale)
        for cell, c_lat, c_lon, c_scale in zip(
            cells.tolist(), center_lat.tolist(), center_lon.tolist(), cluster_scale.tolist()
        )
    }
    return frames, d_km, sigma, cluster_scale[groups]


def generate_synthetic_oracle(cfg):
    """The synthetic corpus one POI at a time: per POI a ring draw, a noise
    row, a radius and an angle, a ``GeoPoint`` offset from its blob centre, a
    ``PoiRecord``, and its embedding row as one expression. Returns the
    list of records and the float64 matrix."""
    import math

    from geosid.data_io import _RING_ANGLES_DEG, _RING_RADIUS, PoiRecord, _orthonormal_rows
    from geosid.geo import EARTH_RADIUS_KM, GeoPoint

    def offset_point(lat, lon, north_km, east_km):
        dlat = math.degrees(north_km / EARTH_RADIUS_KM)
        dlon = math.degrees(east_km / (EARTH_RADIUS_KM * math.cos(math.radians(lat))))
        return GeoPoint(lat + dlat, lon + dlon)

    rng = np.random.default_rng(cfg.seed)
    total = cfg.n_semantic_clusters * cfg.pois_per_cluster
    matrix = np.empty((total, cfg.embedding_dim), dtype=np.float64)
    pois = []

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
            offset_point(anchor_lat, anchor_lon, 0.0, (s - (n_sub - 1) / 2.0) * cfg.subcluster_separation_km)
            for s in range(n_sub)
        ]
        for i in range(cfg.pois_per_cluster):
            m = int(rng.integers(len(ring)))
            matrix[idx] = cluster_dirs[c] + ring[m] + cfg.noise_std * rng.standard_normal(cfg.embedding_dim)
            blob = max(0, (i % (n_sub + 1)) - 1)
            center = sub_centers[blob]
            radius = cfg.subcluster_spread_km * math.sqrt(rng.uniform())
            angle = rng.uniform(0.0, 2.0 * math.pi)
            location = offset_point(center.lat, center.lon, radius * math.cos(angle), radius * math.sin(angle))
            pois.append(PoiRecord(f"p{idx:06d}", location, idx, f"cluster{c:02d}"))
            idx += 1
    return pois, matrix


def save_corpus_metadata_oracle(pois, path) -> None:
    """The JSONL metadata file written one ``json.dumps`` per record."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for poi in pois:
            rec = {"id": poi.id, "lat": poi.location.lat, "lon": poi.location.lon}
            if poi.category is not None:
                rec["category"] = poi.category
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
