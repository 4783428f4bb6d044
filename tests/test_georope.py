import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import build_geo_vector_oracle, rotate_blockwise_oracle

from geosid.georope import (
    ALL_ATTRIBUTES,
    NormalizedGeo,
    build_geo_vector,
    mirror_transform,
    normalize_geo_batch,
    rotate_blockwise,
    verify_distance_shift_identity,
    verify_inner_product_identity,
)

angle_st = st.floats(min_value=-math.pi, max_value=math.pi)
vec_st = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=8
).filter(lambda v: len(v) % 2 == 0)


class TestRotateBlockwise:
    def test_zero_angle_is_identity(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(rotate_blockwise(v, 0.0), v)

    def test_quarter_turn(self):
        out = rotate_blockwise(np.array([1.0, 0.0]), math.pi / 2)
        assert np.allclose(out, [0.0, 1.0], atol=1e-12)

    def test_blockwise_half_turn(self):
        out = rotate_blockwise(np.array([1.0, 0.0, 2.0, 0.0]), math.pi)
        assert np.allclose(out, [-1.0, 0.0, -2.0, 0.0], atol=1e-12)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            rotate_blockwise(np.array([1.0, 2.0, 3.0]), 0.5)

    @given(vec_st, angle_st)
    def test_norm_preserved(self, v, theta):
        v = np.array(v)
        out = rotate_blockwise(v, theta)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), rel=1e-12, abs=1e-12)

    @given(vec_st, angle_st, angle_st)
    def test_composition(self, v, t1, t2):
        v = np.array(v)
        twice = rotate_blockwise(rotate_blockwise(v, t1), t2)
        once = rotate_blockwise(v, t1 + t2)
        assert np.allclose(twice, once, atol=1e-12 * (1 + np.linalg.norm(v)))

    @given(vec_st, angle_st)
    def test_inverse(self, v, theta):
        v = np.array(v)
        back = rotate_blockwise(rotate_blockwise(v, theta), -theta)
        assert np.allclose(back, v, atol=1e-12 * (1 + np.linalg.norm(v)))

    def test_batched_rows_and_angles(self):
        rows = np.arange(8.0).reshape(2, 4)
        thetas = np.array([0.0, math.pi])
        out = rotate_blockwise(rows, thetas)
        assert np.array_equal(out[0], rows[0])
        assert np.allclose(out[1], -rows[1], atol=1e-12)


class TestMirrorTransform:
    def test_zero_angle_duplicates(self):
        v = np.array([1.0, 2.0])
        assert np.array_equal(mirror_transform(v, 0.0), [1.0, 2.0, 1.0, 2.0])

    def test_quarter_turn(self):
        out = mirror_transform(np.array([1.0, 0.0]), math.pi / 2)
        assert np.allclose(out, [0.0, 1.0, 0.0, -1.0], atol=1e-12)

    @given(vec_st, angle_st)
    def test_sqrt2_norm(self, v, theta):
        v = np.array(v)
        ratio = np.linalg.norm(mirror_transform(v, theta)) / max(np.linalg.norm(v), 1e-300)
        if np.linalg.norm(v) > 1e-9:
            assert ratio == pytest.approx(math.sqrt(2), rel=1e-12)


class TestNormalizeGeo:
    def test_boundary_sigma(self):
        geo = normalize_geo_batch(0.0, math.pi, d_scale_km=5.0)
        assert geo.sigma_norm == pytest.approx(math.pi / 2)
        assert geo.d_norm == 0.0

    def test_full_scale_distance(self):
        geo = normalize_geo_batch(5.0, 0.0, d_scale_km=5.0)
        assert geo.sigma_norm == 0.0
        assert geo.d_norm == pytest.approx(math.pi)

    def test_linear_maps(self):
        geo = normalize_geo_batch(2.5, -math.pi / 2, d_scale_km=5.0)
        assert geo.sigma_norm == pytest.approx(-math.pi / 4)
        assert geo.d_norm == pytest.approx(math.pi / 2)

    def test_saturation_beyond_scale(self):
        assert normalize_geo_batch(50.0, 0.0, 5.0).d_norm == pytest.approx(math.pi)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            normalize_geo_batch(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            normalize_geo_batch(np.ones(2), np.zeros(2), np.array([5.0, -1.0]))

    def test_batch_matches_scalar(self):
        d = np.array([1.0, 7.0, 3.0])
        s = np.array([0.5, -2.0, 3.0])
        scale = np.array([5.0, 5.0, 2.0])
        batch = normalize_geo_batch(d, s, scale)
        for i in range(3):
            # the per-entry formula, bit for bit
            assert batch.sigma_norm[i] == s[i] / 2.0
            assert batch.d_norm[i] == math.pi * min(d[i] / scale[i], 1.0)


class TestBuildGeoVector:
    r2 = np.array([1.0, 2.0, 3.0, 4.0])
    geo = NormalizedGeo(0.3, 1.1)

    def test_full_set_is_4m(self):
        out = build_geo_vector(self.r2, self.geo, 0.5, 0.5)
        assert out.shape == (16,)

    def test_full_set_norm_doubles(self):
        out = build_geo_vector(self.r2, self.geo, 0.5, 0.5)
        assert np.linalg.norm(out) == pytest.approx(2 * np.linalg.norm(self.r2), rel=1e-12)

    def test_sigma_pair_at_zero_angle_duplicates(self):
        out = build_geo_vector(self.r2, NormalizedGeo(0.0, 1.1), 0.5, 0.5, {"sigma+", "sigma-"})
        assert np.array_equal(out, np.concatenate([self.r2, self.r2]))

    def test_sigma_pair_is_mirror_transform(self):
        out = build_geo_vector(self.r2, self.geo, 0.7, 0.5, {"sigma+", "sigma-"})
        assert np.allclose(out, mirror_transform(self.r2, 0.7 * 0.3), atol=1e-12)

    @pytest.mark.parametrize("attr", list(ALL_ATTRIBUTES))
    def test_single_attribute_is_2m_with_plain_copy(self, attr):
        out = build_geo_vector(self.r2, self.geo, 0.5, 0.5, {attr})
        assert out.shape == (8,)
        assert np.array_equal(out[4:], self.r2)

    def test_full_set_block_layout(self):
        out = build_geo_vector(self.r2, self.geo, 0.5, 0.25)
        expected = np.concatenate(
            [mirror_transform(self.r2, 0.5 * 0.3), mirror_transform(self.r2, 0.25 * 1.1)]
        )
        assert np.allclose(out, expected, atol=1e-12)

    def test_empty_attributes_rejected(self):
        with pytest.raises(ValueError):
            build_geo_vector(self.r2, self.geo, 0.5, 0.5, set())

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ValueError):
            build_geo_vector(self.r2, self.geo, 0.5, 0.5, {"sigma+", "bogus"})

    def test_batch_shape(self):
        rows = np.tile(self.r2, (5, 1))
        geo = NormalizedGeo(np.linspace(-1.0, 1.0, 5), np.linspace(0.0, math.pi, 5))
        assert build_geo_vector(rows, geo, 0.5, 0.5).shape == (5, 16)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_scale_rejected(self, field, value):
        scales = {"alpha": 0.5, "beta": 0.5, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0, got {value}"):
            build_geo_vector(self.r2, self.geo, scales["alpha"], scales["beta"])


_SUBSETS = [
    frozenset(a for bit, a in enumerate(ALL_ATTRIBUTES) if mask >> bit & 1) for mask in range(1, 16)
]
_coord_st = st.floats(min_value=-10, max_value=10, allow_nan=False)


@st.composite
def _geo_batches(draw):
    """(rows, sigma_norm, d_norm): a batch of even-dimensional rows, or a
    single row, with scalar angles or one angle per row."""
    n = draw(st.integers(1, 6))
    m = 2 * draw(st.integers(1, 4))
    rows = np.array(draw(st.lists(_coord_st, min_size=n * m, max_size=n * m))).reshape(n, m)
    if draw(st.booleans()):
        rows = rows[0]
    sigma_st = st.floats(-math.pi / 2, math.pi / 2)
    d_st = st.floats(0.0, math.pi)
    if draw(st.booleans()):
        sigma, d = draw(sigma_st), draw(d_st)
    else:
        sigma = np.array(draw(st.lists(sigma_st, min_size=n, max_size=n)))
        d = np.array(draw(st.lists(d_st, min_size=n, max_size=n)))
    return rows, sigma, d


class TestBuildGeoVectorBits:
    """Blocks written in place are the bits of the concatenated blocks."""

    @settings(max_examples=60, deadline=None)
    @given(_geo_batches(), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_matches_concatenated_blocks_for_every_subset(self, batch, alpha, beta):
        rows, sigma, d = batch
        geo = NormalizedGeo(sigma, d)
        for attributes in _SUBSETS:
            got = build_geo_vector(rows, geo, alpha, beta, attributes)
            want = build_geo_vector_oracle(rows, sigma, d, alpha, beta, attributes)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(_geo_batches())
    def test_rotate_blockwise_matches_two_temporary_form(self, batch):
        rows, sigma, _ = batch
        got = rotate_blockwise(rows, sigma)
        want = rotate_blockwise_oracle(rows, sigma)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rows_beyond_one_chunk(self):
        # more rows than one pass of the rotation kernel takes, with zeros
        # of both signs, whose sign bits the exact rewrites must keep
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(2500, 6))
        rows[::7, 1] = -0.0
        rows[::5, 2] = 0.0
        sigma = rng.uniform(-math.pi / 2, math.pi / 2, 2500)
        d = rng.uniform(0.0, math.pi, 2500)
        sigma[::11] = 0.0
        for attributes in (frozenset(ALL_ATTRIBUTES), frozenset({"d-"})):
            got = build_geo_vector(rows, NormalizedGeo(sigma, d), 0.5, 0.75, attributes)
            want = build_geo_vector_oracle(rows, sigma, d, 0.5, 0.75, attributes)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_subsets_are_all_fifteen(self):
        assert len(set(_SUBSETS)) == 15


class TestVerifiers:
    def test_identity_tight_over_random_trials(self):
        assert verify_inner_product_identity(1000, 64, seed=1) <= 1e-9

    def test_identity_small_dims(self):
        for m in (1, 2, 3):
            assert verify_inner_product_identity(200, m, seed=m) <= 1e-9

    def test_equal_angles_double_the_inner_product(self):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal(6), rng.standard_normal(6)
        tu, tv = mirror_transform(u, 0.8), mirror_transform(v, 0.8)
        assert float(tu @ tv) == pytest.approx(2 * float(u @ v), rel=1e-12)

    def test_quarter_turn_difference_kills_inner_product(self):
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        tu, tv = mirror_transform(u, math.pi / 4), mirror_transform(v, -math.pi / 4)
        assert abs(float(tu @ tv)) <= 1e-9 * np.linalg.norm(tu) * np.linalg.norm(tv)

    def test_delta_dcos_tight(self):
        assert verify_distance_shift_identity(1000, 64, seed=2) <= 1e-9

    def test_delta_dcos_zero_angle_corner(self):
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal(6), rng.standard_normal(6)
        tu, tv = mirror_transform(u, 0.5), mirror_transform(v, 0.5)
        before = 1 - (2 * (u @ v)) / (math.sqrt(2) * np.linalg.norm(u) * math.sqrt(2) * np.linalg.norm(v))
        after = 1 - (tu @ tv) / (np.linalg.norm(tu) * np.linalg.norm(tv))
        assert after - before == pytest.approx(0.0, abs=1e-12)

    def test_delta_dcos_orthogonal_vectors_corner(self):
        u = np.array([1.0, 0.0, 0.0, 0.0])
        v = np.array([0.0, 0.0, 1.0, 0.0])
        tu, tv = mirror_transform(u, 1.2), mirror_transform(v, -0.4)
        after = 1 - (tu @ tv) / (np.linalg.norm(tu) * np.linalg.norm(tv))
        assert after - 1.0 == pytest.approx(0.0, abs=1e-9)

    def test_delta_dcos_identical_vectors_half_turn_corner(self):
        u = np.array([0.3, -1.2, 0.5, 2.0])
        tu = mirror_transform(u, math.pi / 2)
        tv = mirror_transform(u, -math.pi / 2)
        after = 1 - (tu @ tv) / (np.linalg.norm(tu) * np.linalg.norm(tv))
        assert after - 0.0 == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [(0, 4), (10, 0)])
    def test_verifier_input_validation(self, bad):
        with pytest.raises(ValueError):
            verify_inner_product_identity(bad[0], bad[1])
        with pytest.raises(ValueError):
            verify_distance_shift_identity(bad[0], bad[1])

    @settings(max_examples=25)
    @given(angle_st, angle_st, angle_st)
    def test_absolute_rotation_shift_invariance(self, t1, t2, shift):
        rng = np.random.default_rng(7)
        u, v = rng.standard_normal(6), rng.standard_normal(6)

        def dcos(a, b):
            tu, tv = mirror_transform(u, a), mirror_transform(v, b)
            return 1 - (tu @ tv) / (np.linalg.norm(tu) * np.linalg.norm(tv))

        assert dcos(t1 + shift, t2 + shift) == pytest.approx(dcos(t1, t2), abs=1e-9)
