import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import lloyd_oracle

from geosid.geo import LocalPolar
from geosid.quantizer import (
    METRIC_COSINE,
    METRIC_EUCLIDEAN,
    CodebookLayer,
    DegenerateCentroidError,
    TrainConfig,
    _center_distances,
    _cosine_similarities,
    _distances_and_labels,
    _gram,
    _row_sq_norms,
    assign,
    assign_cosine,
    build_variant_matrix,
    build_variant_vector,
    enhanced_dim,
    kmeans_plus_plus_init,
    kmeans_train,
    next_residuals,
    project_residual,
    quantize_layer,
    train_hierarchy,
    train_third_layer,
)


class TestCodebookLayer:
    def test_basic(self):
        layer = CodebookLayer(centroids=np.eye(3))
        assert layer.k == 3 and layer.dim == 3

    def test_centroids_read_only(self):
        layer = CodebookLayer(centroids=np.eye(2))
        with pytest.raises(ValueError):
            layer.centroids[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.empty((0, 2)), np.array([1.0, 2.0]), np.array([[np.nan, 0.0]])])
    def test_rejects_bad_centroids(self, bad):
        with pytest.raises(ValueError):
            CodebookLayer(centroids=bad)

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            CodebookLayer(centroids=np.eye(2), metric="manhattan")


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.layer_sizes == (512, 512, 512)
        assert cfg.metric == METRIC_COSINE
        assert cfg.uses_geo

    def test_euclidean_metric(self):
        assert TrainConfig(variant="rq_kmeans_euclidean").metric == METRIC_EUCLIDEAN

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"layer_sizes": (4,)},
            {"layer_sizes": (4, 0, 4)},
            {"variant": "mystery"},
            {"rope_layer": "fourth"},
            {"alpha": -0.1},
            {"geo_attributes": frozenset({"up"})},
            {"geo_attributes": frozenset()},
            {"max_iters": 0},
            {"tol": -1.0},
            {"d_scale_km": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestAssignCosine:
    layer = CodebookLayer(centroids=np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_exact_match(self):
        assert assign_cosine(np.array([1.0, 0.0]), self.layer) == 0

    def test_tie_breaks_to_lowest_index(self):
        tie_layer = CodebookLayer(centroids=np.array([[2.0, 0.0], [0.0, 3.0]]))
        assert assign_cosine(np.array([1.0, 1.0]), tie_layer) == 0

    def test_zero_residual_convention(self):
        assert assign_cosine(np.array([0.0, 0.0]), self.layer) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assign_cosine(np.array([1.0, 0.0, 0.0]), self.layer)

    def test_rejects_euclidean_layer(self):
        layer = CodebookLayer(centroids=np.eye(2), metric=METRIC_EUCLIDEAN)
        with pytest.raises(ValueError):
            assign_cosine(np.array([1.0, 0.0]), layer)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, lam):
        r = np.array([0.6, -0.8])
        assert assign_cosine(lam * r, self.layer) == assign_cosine(r, self.layer)

    def test_batch_form(self):
        rows = np.array([[1.0, 0.1], [0.1, 1.0]])
        labels = assign_cosine(rows, self.layer)
        assert labels.tolist() == [0, 1]

    def test_euclidean_assign(self):
        layer = CodebookLayer(centroids=np.array([[0.0, 0.0], [10.0, 0.0]]), metric=METRIC_EUCLIDEAN)
        assert assign(np.array([9.0, 0.0]), layer) == 1


class TestProjectResidual:
    def test_hand_computed(self):
        out = project_residual(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert np.allclose(out, [0.0, 1.0])

    def test_parallel_haircut(self):
        out = project_residual(np.array([2.0, 0.0]), np.array([1.0, 0.0]))
        assert np.allclose(out, [0.0, 0.0])

    def test_orthogonal_unchanged(self):
        out = project_residual(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.array_equal(out, [0.0, 1.0])

    def test_zero_centroid_rejected(self):
        with pytest.raises(DegenerateCentroidError):
            project_residual(np.array([1.0, 1.0]), np.array([0.0, 0.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            project_residual(np.ones(3), np.ones(4))

    def test_orthogonality_on_random_pairs(self):
        rng = np.random.default_rng(11)
        r = rng.standard_normal((1000, 8))
        c = rng.standard_normal((1000, 8))
        out = project_residual(r, c)
        dots = np.abs(np.sum(out * c, axis=1))
        bound = 1e-9 * np.linalg.norm(r, axis=1) * np.linalg.norm(c, axis=1)
        assert np.all(dots <= bound)

    def test_batch_rows(self):
        r = np.array([[1.0, 1.0], [2.0, 0.0]])
        c = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert np.allclose(project_residual(r, c), [[0.0, 1.0], [0.0, 0.0]])


class TestKMeansTrain:
    def test_axis_split_reaches_optimum(self):
        data = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        res = kmeans_train(data, 2, seed=0)
        assert res.objective == 0.0
        assert res.labels[0] == res.labels[1] != res.labels[2] == res.labels[3]

    def test_k_equals_count(self):
        data = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        res = kmeans_train(data, 3, seed=5)
        assert sorted(map(tuple, res.layer.centroids)) == sorted(map(tuple, data))
        assert sorted(res.labels) == [0, 1, 2]

    def test_identical_vectors_trigger_repair(self):
        res = kmeans_train(np.tile([1.0, 1.0], (4, 1)), 2, seed=3)
        counts = np.bincount(res.labels, minlength=2)
        assert counts.min() >= 1  # repair keeps both clusters populated

    @pytest.mark.parametrize("k", [0, -1, 5])
    def test_bad_k(self, k):
        with pytest.raises(ValueError):
            kmeans_train(np.eye(4), k)

    def test_determinism(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(40, 6))
        a = kmeans_train(data, 5, seed=123)
        b = kmeans_train(data, 5, seed=123)
        assert np.array_equal(a.layer.centroids, b.layer.centroids)
        assert np.array_equal(a.labels, b.labels)
        assert a.objective == b.objective

    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    def test_objective_history_non_increasing(self, metric):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            data = rng.normal(size=(60, 5))
            res = kmeans_train(data, 4, metric=metric, seed=seed)
            hist = np.array(res.objective_history)
            assert np.all(np.diff(hist) <= 1e-9 * (1 + np.abs(hist[:-1])))

    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    def test_matches_bruteforce_lloyd_oracle(self, metric):
        rng = np.random.default_rng(42 if metric == METRIC_COSINE else 43)
        for trial in range(10):
            n = int(rng.integers(4, 13))
            k = min(int(rng.integers(1, 4)), n)
            m = int(rng.integers(1, 4))
            data = rng.normal(size=(n, m))
            init = kmeans_plus_plus_init(data, k, metric, np.random.default_rng(trial))
            res = kmeans_train(data, k, metric=metric, init_centroids=init)
            labels, centroids, objective = lloyd_oracle(data, k, metric, init)
            assert np.array_equal(res.labels, labels)
            assert np.array_equal(res.layer.centroids, centroids)
            assert res.objective == objective

    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    @pytest.mark.parametrize("dim", [1, 6])
    def test_matches_oracle_on_large_uneven_clusters(self, metric, dim):
        # clusters of several hundred rows: a blocked or pairwise reduction
        # in the centroid update would differ from the oracle's mean(axis=0)
        data = _uneven_blobs(dim, seed=dim)
        init = kmeans_plus_plus_init(data, 4, metric, np.random.default_rng(dim))
        res = kmeans_train(data, 4, metric=metric, init_centroids=init, max_iters=3)
        labels, centroids, objective = lloyd_oracle(data, 4, metric, init, max_iters=3)
        assert np.array_equal(res.labels, labels)
        assert np.array_equal(res.layer.centroids, centroids)
        assert res.objective == objective

    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    def test_matches_oracle_after_empty_cluster_repair(self, metric):
        data = _uneven_blobs(5, seed=7)
        init = kmeans_plus_plus_init(data, 3, metric, np.random.default_rng(3))
        init = np.vstack([init[:1], init])  # the duplicate centroid 1 never wins a tie
        _, first = _distances_and_labels(data, init, metric)
        assert np.bincount(first, minlength=4)[1] == 0  # so round 1 repairs before its update
        res = kmeans_train(data, 4, metric=metric, init_centroids=init, max_iters=3)
        labels, centroids, objective = lloyd_oracle(data, 4, metric, init, max_iters=3)
        assert np.array_equal(res.labels, labels)
        assert np.array_equal(res.layer.centroids, centroids)
        assert res.objective == objective

    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    def test_tol_zero_stops_at_fixed_point(self, metric):
        data = np.random.default_rng(1).normal(size=(2000, 8))
        loose = kmeans_train(data, 8, metric=metric, seed=1, tol=1e-4)
        exact = kmeans_train(data, 8, metric=metric, seed=1, tol=0.0)
        assert loose.converged and exact.converged
        assert exact.n_iters == loose.n_iters < 100
        assert np.array_equal(exact.labels, loose.labels)
        assert np.array_equal(exact.layer.centroids, loose.layer.centroids)
        assert exact.objective_history == loose.objective_history

    def test_max_iters_cap_respected(self):
        data = np.random.default_rng(0).normal(size=(50, 4))
        res = kmeans_train(data, 5, seed=1, max_iters=2)
        assert res.n_iters <= 2
        assert len(res.objective_history) >= 1
        # a converged fit records no objective for its first round
        assert res.converged == (len(res.objective_history) == res.n_iters - 1)

    def test_unconverged_flag(self):
        data = np.random.default_rng(0).normal(size=(200, 4))
        res = kmeans_train(data, 6, seed=1, max_iters=1)
        assert not res.converged
        assert len(res.objective_history) == res.n_iters == 1

    def test_init_centroids_shape_check(self):
        with pytest.raises(ValueError):
            kmeans_train(np.eye(3), 2, init_centroids=np.eye(3))


def _uneven_blobs(dim: int, seed: int) -> np.ndarray:
    """Four Gaussian blobs of 500, 250, 120 and 40 rows, shuffled."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(4, dim))
    data = np.concatenate(
        [c + rng.normal(size=(size, dim)) for c, size in zip(centers, (500, 250, 120, 40))]
    )
    return data[rng.permutation(data.shape[0])]


class TestPrecomputedNorms:
    """Row norms computed once per fit and passed down change no bit."""

    @staticmethod
    def _data_with_zeros():
        data = np.random.default_rng(5).normal(size=(300, 6))
        data[[3, 50]] = 0.0  # zero rows take the cosine convention path
        return data

    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    def test_distances_and_labels(self, metric):
        data = self._data_with_zeros()
        centroids = np.random.default_rng(6).normal(size=(5, 6))
        centroids[2] = 0.0  # zero centroid takes the sentinel path
        for c in (centroids, centroids[:1]):
            d_own, l_own = _distances_and_labels(data, c, metric)
            d_given, l_given = _distances_and_labels(data, c, metric, _row_sq_norms(data))
            assert np.array_equal(d_own, d_given)
            assert np.array_equal(l_own, l_given)

    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    def test_kmeans_plus_plus_draws_same_centres(self, metric):
        data = self._data_with_zeros()

        def per_centre_norms(rng):
            # seeding as it ran when every centre recomputed the data norms
            centers = np.empty((8, data.shape[1]))
            centers[0] = data[int(rng.integers(data.shape[0]))]
            d_min = _distances_and_labels(data, centers[:1], metric)[0][:, 0]
            for j in range(1, 8):
                weights = np.maximum(d_min, 0.0)
                if metric == METRIC_COSINE:
                    weights = weights**2
                centers[j] = data[int(rng.choice(data.shape[0], p=weights / np.sum(weights)))]
                d_new = _distances_and_labels(data, centers[j : j + 1], metric)[0][:, 0]
                d_min = np.minimum(d_min, d_new)
            return centers

        expected = per_centre_norms(np.random.default_rng(9))
        own = kmeans_plus_plus_init(data, 8, metric, np.random.default_rng(9))
        given = kmeans_plus_plus_init(
            data, 8, metric, np.random.default_rng(9), sq_norms=_row_sq_norms(data)
        )
        assert np.array_equal(own, expected)
        assert np.array_equal(given, expected)


def _masked_cosine(vectors, centroids, vector_sq_norms):
    """The cosine kernel as a masked divide into a zeroed buffer: the
    reference the in-place division must match bit for bit."""
    gram = _gram(vectors, centroids)
    centroid_sq_norms = _row_sq_norms(centroids)
    denom = np.sqrt(vector_sq_norms)[:, None] * np.sqrt(centroid_sq_norms)[None, :]
    sims = np.divide(gram, denom, out=np.zeros_like(gram), where=denom > 0.0)
    sims[:, centroid_sq_norms == 0.0] = -2.0
    return sims


class TestCosineKernel:
    """In-place cosine division against the masked-divide formula, on
    finite input."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(21)
        data = rng.normal(size=(64, 6))
        data[[0, 9]] = 0.0  # zero rows
        data[10] *= 1e-160  # squared norm in the subnormal range
        data[11] *= 1e-162  # squared norm underflows to 0, inner products do not
        data[12] *= 1e150  # large but finite squared norm
        centroids = rng.normal(size=(5, 6))
        centroids[1] = 0.0  # zero centroid
        centroids[3] *= 1e-160
        tiny = centroids.copy()
        tiny[4] *= 1e-162
        yield data, centroids
        yield data, centroids[:1]  # K = 1
        yield data, centroids[1:2]  # K = 1, zero centroid
        yield data, tiny
        yield data[:1], centroids  # N = 1
        yield data[10:12], tiny

    def test_bit_equal_to_masked_divide(self):
        for vectors, centroids in self._cases():
            norms = _row_sq_norms(vectors)
            got = _cosine_similarities(vectors, centroids, norms)
            want = _masked_cosine(vectors, centroids, norms)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    def test_center_distances_is_the_one_centroid_column(self, metric):
        for vectors, centroids in self._cases():
            norms = _row_sq_norms(vectors)
            for center in centroids:
                got = _center_distances(vectors, center, metric, norms)
                want = _distances_and_labels(vectors, center[None, :], metric, norms)[0][:, 0]
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestNextResiduals:
    def test_cosine_projection(self):
        vectors = np.array([[1.0, 1.0]])
        assigned = np.array([[1.0, 0.0]])
        assert np.allclose(next_residuals(vectors, assigned, METRIC_COSINE), [[0.0, 1.0]])

    def test_euclidean_subtraction(self):
        vectors = np.array([[1.0, 1.0]])
        assigned = np.array([[1.0, 0.0]])
        assert np.array_equal(next_residuals(vectors, assigned, METRIC_EUCLIDEAN), [[0.0, 1.0]])

    def test_zero_centroid_rows_pass_through(self):
        vectors = np.array([[1.0, 2.0], [3.0, 4.0]])
        assigned = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = next_residuals(vectors, assigned, METRIC_COSINE)
        assert np.array_equal(out[0], vectors[0])
        assert np.allclose(out[1], [0.0, 0.0])


class TestTrainHierarchy:
    def test_orthogonal_pair(self):
        cfg = TrainConfig(layer_sizes=(2, 1, 1), seed=0)
        h = train_hierarchy(np.array([[1.0, 0.0], [0.0, 1.0]]), cfg)
        assert h.codes[0, 0] != h.codes[1, 0]
        # each point equals its own layer-1 centroid, so residuals vanish
        assert np.allclose(h.residuals, 0.0)

    def test_single_poi(self):
        h = train_hierarchy(np.array([[3.0, 4.0]]), TrainConfig(layer_sizes=(1, 1, 1), seed=0))
        assert h.codes.tolist() == [[0, 0]]
        assert np.allclose(h.residuals, 0.0)

    def test_determinism(self):
        data = np.random.default_rng(9).normal(size=(30, 4))
        cfg = TrainConfig(layer_sizes=(3, 3, 3), seed=7)
        a = train_hierarchy(data, cfg)
        b = train_hierarchy(data, cfg)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.residuals, b.residuals)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.centroids, lb.centroids)

    def test_projection_orthogonality_invariant(self):
        data = np.random.default_rng(3).normal(size=(25, 6))
        cfg = TrainConfig(layer_sizes=(3, 3, 3), seed=1)
        h = train_hierarchy(data, cfg)
        assigned = h.layers[1].centroids[h.codes[:, 1]]
        dots = np.abs(np.sum(h.residuals * assigned, axis=1))
        bound = 1e-9 * np.linalg.norm(data, axis=1) * np.linalg.norm(assigned, axis=1) + 1e-15
        assert np.all(dots <= bound)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            train_hierarchy(np.ones((4, 3)), TrainConfig(layer_sizes=(2, 2, 2)))

    def test_nonfinite_rejected(self):
        data = np.ones((4, 2))
        data[1, 0] = np.nan
        with pytest.raises(ValueError):
            train_hierarchy(data, TrainConfig(layer_sizes=(2, 2, 2)))


class TestTrainThirdLayer:
    def test_antipodal_angles_separate(self):
        # two POIs with the same residual but opposite azimuth rotations
        from geosid.georope import NormalizedGeo, build_geo_vector

        r2 = np.array([1.0, 0.5, -0.5, 2.0])
        east = build_geo_vector(r2, NormalizedGeo(math.pi / 4, 1.0), 0.5, 0.5)
        west = build_geo_vector(r2, NormalizedGeo(-math.pi / 4, 1.0), 0.5, 0.5)
        layer, labels = train_third_layer(np.stack([east, west]), 2, TrainConfig(layer_sizes=(1, 1, 2)))
        assert labels[0] != labels[1]

    def test_k1_collapses(self):
        data = np.random.default_rng(0).normal(size=(10, 4))
        _, labels = train_third_layer(data, 1, TrainConfig(layer_sizes=(1, 1, 1)))
        assert np.all(labels == 0)

    def test_add_variant_keeps_dimension(self):
        cfg = TrainConfig(layer_sizes=(1, 1, 2), variant="add_geo")
        r2 = np.random.default_rng(1).normal(size=(6, 4))
        enhanced = build_variant_matrix(r2, np.ones(6), np.zeros(6), cfg, 5.0)
        assert enhanced.shape == (6, 4)
        layer, labels = train_third_layer(enhanced, 2, cfg)
        assert layer.dim == 4


class TestBuildVariantVector:
    polar = LocalPolar(2.0, 0.7)

    def test_concat_is_m_plus_2(self):
        cfg = TrainConfig(layer_sizes=(2, 2, 2), variant="concat_geo")
        out = build_variant_vector(np.arange(4.0), self.polar, cfg, d_scale_km=5.0)
        assert out.shape == (6,)
        assert out[4] == pytest.approx(math.pi * 2.0 / 5.0)  # d_norm
        assert out[5] == pytest.approx(0.35)  # sigma_norm

    def test_none_passthrough(self):
        cfg = TrainConfig(layer_sizes=(2, 2, 2), variant="cosine_only")
        r2 = np.arange(4.0)
        assert np.array_equal(build_variant_vector(r2, self.polar, cfg, 5.0), r2)

    def test_pro_geo_full_set_is_4m(self):
        cfg = TrainConfig(layer_sizes=(2, 2, 2), variant="pro_geo")
        assert build_variant_vector(np.arange(4.0), self.polar, cfg, 5.0).shape == (16,)

    def test_add_tiles_alternately(self):
        cfg = TrainConfig(layer_sizes=(2, 2, 2), variant="add_geo")
        r2 = np.zeros(4)
        out = build_variant_vector(r2, self.polar, cfg, 5.0)
        d_norm = math.pi * 2.0 / 5.0
        assert np.allclose(out, [d_norm, 0.35, d_norm, 0.35])

    def test_unknown_variant_rejected_at_dispatch(self):
        cfg = TrainConfig(layer_sizes=(2, 2, 2))
        object.__setattr__(cfg, "variant", "mystery")
        with pytest.raises(ValueError):
            build_variant_vector(np.arange(4.0), self.polar, cfg, 5.0)

    @pytest.mark.parametrize(
        "variant,attrs",
        [
            ("pro_geo", frozenset({"sigma+", "sigma-", "d+", "d-"})),
            ("pro_geo", frozenset({"sigma+", "sigma-"})),
            ("pro_geo", frozenset({"d+"})),
            ("concat_geo", frozenset({"sigma+"})),
            ("add_geo", frozenset({"sigma+"})),
            ("cosine_only", frozenset({"sigma+"})),
            ("rq_kmeans_euclidean", frozenset({"sigma+"})),
        ],
    )
    def test_width_matches_enhanced_dim(self, variant, attrs):
        cfg = TrainConfig(layer_sizes=(2, 2, 2), variant=variant, geo_attributes=attrs)
        out = build_variant_vector(np.arange(4.0), self.polar, cfg, 5.0)
        assert out.shape == (enhanced_dim(cfg, 4),)


class TestQuantizeLayer:
    def test_euclidean_residuals_are_subtraction(self):
        data = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        layer, labels, residuals = quantize_layer(data, 2, metric=METRIC_EUCLIDEAN, seed=0)
        assert np.allclose(residuals, data - layer.centroids[labels])

    def test_cosine_residuals_are_projections(self):
        data = np.random.default_rng(2).normal(size=(12, 4))
        layer, labels, residuals = quantize_layer(data, 3, metric=METRIC_COSINE, seed=0)
        assigned = layer.centroids[labels]
        dots = np.abs(np.sum(residuals * assigned, axis=1))
        assert np.all(dots <= 1e-9 * np.linalg.norm(data, axis=1) * np.linalg.norm(assigned, axis=1))
