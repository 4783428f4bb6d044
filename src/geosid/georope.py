"""Geographic rotary encoding of residual vectors.

A residual of even dimension M is rotated blockwise: each consecutive
coordinate pair (2i, 2i+1) is turned by the same angle. Stacking the
forward and reverse rotation doubles the dimension and makes the inner
product of two encoded vectors depend on their angle *difference* only:

    <T_a(u), T_b(v)> = cos(a - b) * <[u; u], [v; v]>

which in turn shifts the cosine distance of a pair by
2 * cos_sim(u, v) * sin^2((a - b) / 2). Both identities are checked
numerically by the verifier functions at the bottom of this module.

Angles are derived from local polar coordinates: the azimuth is halved
into [-pi/2, +pi/2] and the radial distance is mapped linearly onto
[0, pi] against a configurable scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALL_ATTRIBUTES",
    "ATTR_DIST_FWD",
    "ATTR_DIST_REV",
    "ATTR_SIGMA_FWD",
    "ATTR_SIGMA_REV",
    "NormalizedGeo",
    "build_geo_vector",
    "mirror_transform",
    "normalize_geo_batch",
    "rotate_blockwise",
    "verify_distance_shift_identity",
    "verify_inner_product_identity",
]

ATTR_SIGMA_FWD = "sigma+"
ATTR_SIGMA_REV = "sigma-"
ATTR_DIST_FWD = "d+"
ATTR_DIST_REV = "d-"

# Canonical stacking order of the rotated blocks.
ALL_ATTRIBUTES = (ATTR_SIGMA_FWD, ATTR_SIGMA_REV, ATTR_DIST_FWD, ATTR_DIST_REV)


@dataclass(frozen=True)
class NormalizedGeo:
    """Rotation-ready geo angles: ``sigma_norm`` in [-pi/2, +pi/2] and
    ``d_norm`` in [0, pi]. Fields may be scalars or equally-shaped arrays
    (one entry per vector in a batch)."""

    sigma_norm: float | np.ndarray
    d_norm: float | np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma_norm, dtype=float)
        d = np.asarray(self.d_norm, dtype=float)
        half_pi = np.pi / 2 + 1e-12
        # one pass per bound: min and max propagate NaN, which fails each
        # comparison, and an infinity is outside every bound
        if not (s.min(initial=0.0) >= -half_pi and s.max(initial=0.0) <= half_pi):
            raise ValueError("sigma_norm outside [-pi/2, +pi/2]")
        if not (d.min(initial=0.0) >= 0.0 and d.max(initial=0.0) <= np.pi + 1e-12):
            raise ValueError("d_norm outside [0, pi]")


def rotate_blockwise(v: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """Apply the 2x2 rotation R(theta) to each consecutive coordinate pair.

    ``v`` has shape (..., M) with M even; ``theta`` is a scalar or an array
    broadcastable to the leading dimensions (one angle per vector).
    Norm-preserving.
    """
    v = _even_rows(v)
    theta = np.asarray(theta, dtype=float)
    return _rotations(v, theta[..., None], 1)[..., 0, :]


def _even_rows(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1] % 2 != 0:
        raise ValueError(f"blockwise rotation needs an even dimension, got {v.shape[-1]}")
    return v


# rows per pass of _rotations' products: bounds its scratch arrays at a
# few MB however many rows a batch has
_ROTATION_CHUNK_ROWS = 1024


def _rotations(v: np.ndarray, theta: np.ndarray, blocks: int) -> np.ndarray:
    """R(theta[..., b]) v for each of the k angles on the last axis of
    ``theta``, as blocks 0..k-1 of a (..., ``blocks``, M) array; any
    further blocks are left for the caller to fill.

    Per pair the even output is cos*even - sin*odd and the odd one
    sin*even + cos*odd. They are evaluated as cos*v + sin*w with
    w = (-odd, even) per pair: negation and commuted addition are exact,
    so every output has the bits of the two-product form. The cosines and
    sines of all k angles are each one call over the stacked angles, with
    the bits of one call per angle (numpy's elementwise functions do not
    depend on array position). They are repeated along M (the repeated
    cosines become the output), so that every product is a contiguous pass
    over all blocks at once. The products run over chunks of rows, which
    changes no bit of an elementwise result."""
    m, k = v.shape[-1], theta.shape[-1]
    lead = np.broadcast(v[..., 0], theta[..., 0]).shape
    out = np.empty(lead + (blocks, m))
    out[..., :k, :] = np.cos(theta)[..., None]
    sin = np.sin(theta)
    if v.shape[:-1] != lead:
        v = np.broadcast_to(v, lead + (m,))
    if sin.shape[:-1] != lead:
        sin = np.broadcast_to(sin, lead + (k,))
    rows = v.reshape(-1, 1, m)
    rotated = out.reshape(-1, blocks, m)[:, :k]
    sin = sin.reshape(-1, k, 1)
    for start in range(0, rows.shape[0], _ROTATION_CHUNK_ROWS):
        chunk = slice(start, start + _ROTATION_CHUNK_ROWS)
        r, o = rows[chunk], rotated[chunk]
        np.multiply(o, r, out=o)
        w = np.empty_like(r)
        np.negative(r[..., 1::2], out=w[..., 0::2])
        w[..., 1::2] = r[..., 0::2]
        sin_w = sin[chunk].repeat(m, axis=-1)
        np.multiply(sin_w, w, out=sin_w)
        np.add(o, sin_w, out=o)
    return out


def mirror_transform(v: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """Forward/reverse rotation stack [R(theta) v ; R(-theta) v].

    Doubles the last dimension; the output norm is sqrt(2) times the input
    norm for every angle.
    """
    theta = np.asarray(theta, dtype=float)
    return np.concatenate([rotate_blockwise(v, theta), rotate_blockwise(v, -theta)], axis=-1)


def normalize_geo_batch(
    d_km: np.ndarray, sigma_rad: np.ndarray, d_scale_km: float | np.ndarray
) -> NormalizedGeo:
    """Turn local polar coordinates into rotation angles.

    The azimuth is halved so the full circle (-pi, pi] lands in
    (-pi/2, pi/2]; the distance is mapped linearly onto [0, pi], saturating
    at ``d_scale_km``, which may vary per entry.
    """
    scale = np.asarray(d_scale_km, dtype=float)
    if not scale.min(initial=math.inf) > 0:
        raise ValueError("d_scale_km must be positive")
    d_norm = np.pi * np.minimum(np.asarray(d_km, dtype=float) / scale, 1.0)
    return NormalizedGeo(np.asarray(sigma_rad, dtype=float) / 2.0, d_norm)


def build_geo_vector(
    r2: np.ndarray,
    geo: NormalizedGeo,
    alpha: float,
    beta: float,
    attributes: frozenset[str] | set[str] = frozenset(ALL_ATTRIBUTES),
) -> np.ndarray:
    """Stack rotated copies of ``r2`` for the active geo attributes.

    Each attribute contributes one blockwise-rotated copy, concatenated in
    the canonical order sigma+, sigma-, d+, d-:

        sigma+ -> R(+alpha * sigma_norm) r2      sigma- -> R(-alpha * sigma_norm) r2
        d+     -> R(+beta * d_norm) r2           d-     -> R(-beta * d_norm) r2

    The full set therefore yields [T_{alpha*sigma}(r2); T_{beta*d}(r2)] in
    R^{4M}; an opposite-sign pair is exactly one mirror transform (2M). A
    single attribute is stacked with the unrotated copy so every reduced
    variant keeps dimension 2M and stays comparable.

    ``r2`` may be a single vector (M,) or a batch (N, M); array-valued
    ``geo`` fields pair angles with batch rows.
    """
    unknown = set(attributes) - set(ALL_ATTRIBUTES)
    if unknown:
        raise ValueError(f"unknown geo attributes: {sorted(unknown)}")
    if not attributes:
        raise ValueError("at least one geo attribute is required")
    # written so that NaN, which fails every comparison, fails each check
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    r2 = _even_rows(r2)
    sigma = np.asarray(geo.sigma_norm, dtype=float)
    d = np.asarray(geo.d_norm, dtype=float)
    scaled = {
        ATTR_SIGMA_FWD: (alpha, sigma),
        ATTR_SIGMA_REV: (-alpha, sigma),
        ATTR_DIST_FWD: (beta, d),
        ATTR_DIST_REV: (-beta, d),
    }
    active = [scaled[a] for a in ALL_ATTRIBUTES if a in attributes]
    # one column of angles per active attribute
    angles = np.empty(np.broadcast(sigma, d).shape + (len(active),))
    for col, (scale, x) in enumerate(active):
        np.multiply(scale, x, out=angles[..., col])
    out = _rotations(r2, angles, max(len(active), 2))
    if len(active) == 1:
        out[..., 1, :] = r2
    return out.reshape(out.shape[:-2] + (-1,))


def _mirror_duplicate(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v, v], axis=-1)


def verify_inner_product_identity(trials: int, m: int, seed: int = 0) -> float:
    """Numerically check <T_a(u), T_b(v)> == cos(a-b) * <[u;u], [v;v]>.

    Runs ``trials`` random draws of u, v in R^{2m} (standard normal) and
    angles uniform in (-pi, pi]. Returns the worst error relative to the
    product of the transformed norms (the natural scale of the inner
    product), so near-orthogonal draws do not inflate the result.
    """
    if trials < 1 or m < 1:
        raise ValueError("trials and m must be >= 1")
    rng = np.random.default_rng(seed)
    dim = 2 * m
    u = rng.standard_normal((trials, dim))
    v = rng.standard_normal((trials, dim))
    th1 = rng.uniform(-np.pi, np.pi, size=trials)
    th2 = rng.uniform(-np.pi, np.pi, size=trials)
    tu = mirror_transform(u, th1)
    tv = mirror_transform(v, th2)
    lhs = np.sum(tu * tv, axis=-1)
    rhs = np.cos(th1 - th2) * np.sum(_mirror_duplicate(u) * _mirror_duplicate(v), axis=-1)
    scale = np.linalg.norm(tu, axis=-1) * np.linalg.norm(tv, axis=-1)
    return float(np.max(np.abs(lhs - rhs) / scale))


def verify_distance_shift_identity(trials: int, m: int, seed: int = 0) -> float:
    """Numerically check the cosine-distance shift of the mirror transform.

    For random u, v and angles a, b the distance change
    D_cos(T_a(u), T_b(v)) - D_cos([u;u], [v;v]) must equal
    2 * cos_sim(u, v) * sin^2((a - b)/2). Returns the worst absolute error.
    """
    if trials < 1 or m < 1:
        raise ValueError("trials and m must be >= 1")
    rng = np.random.default_rng(seed)
    dim = 2 * m
    u = rng.standard_normal((trials, dim))
    v = rng.standard_normal((trials, dim))
    th1 = rng.uniform(-np.pi, np.pi, size=trials)
    th2 = rng.uniform(-np.pi, np.pi, size=trials)
    tu = mirror_transform(u, th1)
    tv = mirror_transform(v, th2)
    cos_before = _cosine(_mirror_duplicate(u), _mirror_duplicate(v))
    cos_after = _cosine(tu, tv)
    delta = (1.0 - cos_after) - (1.0 - cos_before)
    expected = 2.0 * cos_before * np.sin((th1 - th2) / 2.0) ** 2
    return float(np.max(np.abs(delta - expected)))


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=-1) / (np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1))
