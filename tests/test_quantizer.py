import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    cosine_similarities_oracle,
    distances_and_labels_oracle,
    gram_oracle,
    lloyd_oracle,
    next_residuals_oracle,
)

from geosid.data_io import SynthConfig, generate_synthetic, load_codebook, save_codebook
from geosid.pipeline import _walk_layers, run
from geosid.quantizer import (
    METRIC_COSINE,
    METRIC_EUCLIDEAN,
    CodebookLayer,
    DegenerateCentroidError,
    TrainConfig,
    _blocks,
    _nearest,
    _row_sq_norms,
    assign,
    build_variant_matrix,
    enhanced_dim,
    kmeans_plus_plus_init,
    kmeans_train,
    next_residuals,
    project_residual,
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

    @given(st.data())
    def test_cached_norms_are_the_row_norms(self, data):
        k, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=k * m, max_size=k * m))
        layer = CodebookLayer(centroids=np.array(values).reshape(k, m))
        want = _row_sq_norms(layer.centroids)
        assert np.array_equal(layer.sq_norms.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(layer.norms.view(np.uint64), np.sqrt(want).view(np.uint64))

    def test_cached_norms_read_only(self):
        layer = CodebookLayer(centroids=np.eye(2))
        for arr in (layer.sq_norms, layer.norms):
            with pytest.raises(ValueError):
                arr[0] = 5.0

    def test_cached_norms_after_load_codebook(self, tmp_path):
        pois, emb = generate_synthetic(SynthConfig(n_semantic_clusters=3, pois_per_cluster=12, embedding_dim=6))
        for variant in ("pro_geo", "rq_kmeans_euclidean"):
            cfg = TrainConfig(layer_sizes=(2, 3, 2), seed=4, variant=variant)
            save_codebook(run(pois, emb, cfg).artifact, tmp_path / "cb.bin")
            for layer in load_codebook(tmp_path / "cb.bin").layers:
                want = _row_sq_norms(layer.centroids)
                assert np.array_equal(layer.sq_norms.view(np.uint64), want.view(np.uint64))
                assert np.array_equal(layer.norms.view(np.uint64), np.sqrt(want).view(np.uint64))
                assert not layer.sq_norms.flags.writeable and not layer.norms.flags.writeable


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.layer_sizes == (512, 512, 512)
        assert cfg.metric == METRIC_COSINE
        assert cfg.uses_geo

    def test_euclidean_metric(self):
        assert TrainConfig(variant="rq_kmeans_euclidean").metric == METRIC_EUCLIDEAN

    @pytest.mark.parametrize("rope,levels", [("third", (3,)), ("second", (2,)), ("both", (2, 3))])
    def test_geo_levels(self, rope, levels):
        for variant in ("pro_geo", "concat_geo", "add_geo"):
            assert TrainConfig(variant=variant, rope_layer=rope).geo_levels == levels
        for variant in ("cosine_only", "rq_kmeans_euclidean"):
            assert TrainConfig(variant=variant, rope_layer=rope).geo_levels == ()

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", math.nan),
            ("beta", math.nan),
            ("tol", math.nan),
            ("alpha", math.inf),
            ("beta", math.inf),
            ("d_scale_km", math.inf),
            ("d_scale_km", math.nan),
        ],
    )
    def test_non_finite_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be .*, got {value}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            *[(name, True) for name in ("max_iters", "seed", "tol", "alpha", "beta", "d_scale_km")],
            ("layer_sizes", (2, True, 2)),
            ("layer_sizes", (2.5, 2, 2)),
            ("layer_sizes", (2.0, 2, 2)),
            ("layer_sizes", (2, 2)),
            ("layer_sizes", (2, 2, 2, 2)),
            ("layer_sizes", "222"),
            ("max_iters", 2.5),
            ("seed", 1.5),
            ("seed", -1),
            ("seed", np.bool_(True)),
            ("tol", "0.1"),
            *[pytest.param(name, 10**400, id=f"{name}-10**400") for name in ("tol", "alpha", "beta")],
            pytest.param("d_scale_km", 10**400, id="d_scale_km-10**400"),
        ],
    )
    def test_bad_value_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [5, [[1]], [1, "x"], "sigma+", None])
    def test_geo_attributes_not_names_rejected_naming_field(self, value):
        with pytest.raises(ValueError, match="^geo_attributes must be a collection of attribute names, got "):
            TrainConfig(geo_attributes=value)

    def test_numpy_numbers_taken_as_python_numbers(self):
        cfg = TrainConfig(
            layer_sizes=(np.int64(2), np.int32(3), np.uint8(4)), max_iters=np.int16(5),
            seed=np.uint64(6), tol=np.float32(0.5), alpha=np.float64(0.25), beta=np.int64(1),
            d_scale_km=np.float16(2.0),
        )
        assert cfg == TrainConfig(
            layer_sizes=(2, 3, 4), max_iters=5, seed=6, tol=0.5, alpha=0.25, beta=1, d_scale_km=2.0
        )
        values = (*cfg.layer_sizes, cfg.max_iters, cfg.seed, cfg.tol, cfg.alpha, cfg.beta, cfg.d_scale_km)
        assert [type(v) for v in values] == [int] * 5 + [float, float, int, float]


class TestAssignCosine:
    """``assign`` on a cosine layer."""

    layer = CodebookLayer(centroids=np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_exact_match(self):
        assert assign(np.array([1.0, 0.0]), self.layer) == 0

    def test_tie_breaks_to_lowest_index(self):
        tie_layer = CodebookLayer(centroids=np.array([[2.0, 0.0], [0.0, 3.0]]))
        assert assign(np.array([1.0, 1.0]), tie_layer) == 0

    def test_zero_residual_convention(self):
        assert assign(np.array([0.0, 0.0]), self.layer) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assign(np.array([1.0, 0.0, 0.0]), self.layer)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, lam):
        r = np.array([0.6, -0.8])
        assert assign(lam * r, self.layer) == assign(r, self.layer)

    def test_batch_form(self):
        rows = np.array([[1.0, 0.1], [0.1, 1.0]])
        labels = assign(rows, self.layer)
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
        _, first = distances_and_labels_oracle(data, init, metric)
        assert np.bincount(first, minlength=4)[1] == 0  # so round 1 repairs before its update
        res = kmeans_train(data, 4, metric=metric, init_centroids=init, max_iters=3)
        labels, centroids, objective = lloyd_oracle(data, 4, metric, init, max_iters=3)
        assert np.array_equal(res.labels, labels)
        assert np.array_equal(res.layer.centroids, centroids)
        assert res.objective == objective

    def test_matches_oracle_after_repair_and_zero_centroid_reseed(self):
        # rows on the x axis tie between centroids 0 and 1, so all go to 0;
        # centroid 2 duplicates 1 and stays empty, and its repair takes row 0
        # (every x-axis row is at cosine distance 1, the farthest); the rest
        # of cluster 0 sums to zero, so round 1 also reseeds centroid 0
        data = np.array(
            [[2.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [3.0, 0.0], [-3.0, 0.0], [0.0, -1.0], [1.0, -2.0]]
        )
        init = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, -1.0]])
        for centroids in (init, init[:2]):  # with the repair, and the reseed alone
            k = centroids.shape[0]
            rows = data if k == 3 else data[1:]
            res = kmeans_train(rows, k, metric=METRIC_COSINE, init_centroids=centroids, max_iters=4)
            labels, want, objective = lloyd_oracle(rows, k, METRIC_COSINE, centroids, max_iters=4)
            assert np.array_equal(res.labels, labels)
            assert np.array_equal(res.layer.centroids, want)
            assert res.objective == objective

    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected_naming_row(self, metric, value):
        data = np.random.default_rng(0).normal(size=(20, 3))
        init = data[:4].copy()
        bad = data.copy()
        bad[[7, 12], 1] = value
        with pytest.raises(ValueError, match=r"^vectors: non-finite value in row 7$"):
            kmeans_train(bad, 4, metric=metric)
        init[[2, 3], 0] = value
        with pytest.raises(ValueError, match=r"^init_centroids: non-finite value in row 2$"):
            kmeans_train(data, 4, metric=metric, init_centroids=init)

    def test_traced_peak_bounded_by_the_block(self):
        # one (N, K) float matrix here is 40 MB, and a Lloyd pass that held
        # whole matrices peaked at 121 MB. tracemalloc sees numpy's arrays,
        # not the BLAS pack buffer, whose share perfbench's peak_rss_mb shows
        data = np.random.default_rng(3).normal(size=(10_240, 64))
        tracemalloc.start()
        try:
            kmeans_train(data, 512, seed=1, max_iters=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

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

    @pytest.mark.parametrize("m", [1, 2, 3, 16, 64, 256])
    def test_row_norms_over_blocks_match_one_pass(self, m):
        # more rows than one block of the norm kernel, with zero rows
        x = np.random.default_rng(m).normal(size=(2500, m))
        x[[0, 1023, 1024, 2499]] = 0.0
        want = np.sum(x * x, axis=1)
        assert np.array_equal(_row_sq_norms(x).view(np.uint64), want.view(np.uint64))

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
        sq_norms = _row_sq_norms(data)
        for c in (centroids, centroids[:1]):
            layer = CodebookLayer(centroids=c, metric=metric)
            want_d, want_l = distances_and_labels_oracle(data, c, metric)
            at = np.arange(data.shape[0]) % layer.k
            for roots in (None, np.sqrt(sq_norms)):
                labels, dists = _nearest(data, layer, sq_norms, roots, at=at)
                assert np.array_equal(labels, want_l)
                want_at = want_d[np.arange(data.shape[0]), at]
                assert np.array_equal(dists.view(np.uint64), want_at.view(np.uint64))

    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    def test_kmeans_plus_plus_draws_same_centres(self, metric):
        data = self._data_with_zeros()

        def per_centre_norms(rng):
            # seeding as it ran when every centre recomputed the data norms
            centers = np.empty((8, data.shape[1]))
            centers[0] = data[int(rng.integers(data.shape[0]))]
            d_min = distances_and_labels_oracle(data, centers[:1], metric)[0][:, 0]
            for j in range(1, 8):
                weights = np.maximum(d_min, 0.0)
                if metric == METRIC_COSINE:
                    weights = weights**2
                centers[j] = data[int(rng.choice(data.shape[0], p=weights / np.sum(weights)))]
                d_new = distances_and_labels_oracle(data, centers[j : j + 1], metric)[0][:, 0]
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
    gram = gram_oracle(vectors, centroids)
    centroid_sq_norms = _row_sq_norms(centroids)
    denom = np.sqrt(vector_sq_norms)[:, None] * np.sqrt(centroid_sq_norms)[None, :]
    sims = np.divide(gram, denom, out=np.zeros_like(gram), where=denom > 0.0)
    sims[:, centroid_sq_norms == 0.0] = -2.0
    return sims


class TestCosineKernel:
    """Cosine division in the oracle and in the blocked kernel against the
    masked-divide formula, on finite input."""

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
            want = _masked_cosine(vectors, centroids, norms)
            got = cosine_similarities_oracle(vectors, centroids)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            layer = CodebookLayer(centroids=centroids)
            for j in range(layer.k):
                at = np.full(vectors.shape[0], j)
                _, dists = _nearest(vectors, layer, norms, at=at)
                assert np.array_equal(dists.view(np.uint64), (1.0 - want[:, j]).view(np.uint64))

    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    def test_center_distances_is_the_one_centroid_column(self, metric):
        for vectors, centroids in self._cases():
            norms = _row_sq_norms(vectors)
            at = np.zeros(vectors.shape[0], dtype=int)
            for center in centroids:
                layer = CodebookLayer(centroids=center[None, :], metric=metric)
                labels, got = _nearest(vectors, layer, norms, at=at)
                want = distances_and_labels_oracle(vectors, center[None, :], metric)[0][:, 0]
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                assert not np.any(labels)


class TestBlockedKernel:
    """Labels and distances at given labels from the blocked kernel are the
    bits of the whole-matrix oracle, for inputs on either side of every
    block edge."""

    def test_block_rule(self):
        assert list(_blocks(10_500, 64)) == [
            (0, 2048), (2048, 4096), (4096, 6144), (6144, 8192), (8192, 10_500)  # 260-row tail folded
        ]
        assert list(_blocks(2 * 16_384 + 1024, 8)) == [(0, 16_384), (16_384, 32_768), (32_768, 33_792)]
        assert list(_blocks(3000, 512)) == [(0, 1024), (1024, 3000)]
        assert list(_blocks(70_000, 2)) == [(0, 65_536), (65_536, 70_000)]  # a one-centre pass
        assert list(_blocks(66_000, 2)) == [(0, 66_000)]
        assert list(_blocks(256, 64)) == [(0, 256)]
        assert list(_blocks(1, 1000)) == [(0, 1)]

    @settings(max_examples=20, deadline=None)
    @pytest.mark.parametrize("k", [1, 8, 64])
    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    @given(data=st.data())
    def test_bit_equal_to_whole_matrix_oracle(self, metric, k, data):
        m = data.draw(st.integers(1, 6), "m")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        grid = data.draw(st.booleans(), "grid")  # small integers: ties and exact zeros
        zero_centroid = data.draw(st.booleans(), "zero centroid")
        tied = k > 1 and data.draw(st.booleans(), "tied centroids")
        b = 2048 if k == 64 else 16_384  # rows per block at K=64 and K=8
        for n in (1, 7, 1023, 1024, 1025, b - 1, b, b + 1, b + 1023, 3 * b + 5):
            if grid:
                x = rng.integers(-2, 3, size=(n, m)).astype(float)
                c = rng.integers(-2, 3, size=(k, m)).astype(float)
            else:
                x, c = rng.normal(size=(n, m)), rng.normal(size=(k, m))
            x[rng.random(n) < 0.01] = 0.0
            if zero_centroid:
                c[rng.integers(k)] = 0.0
            if tied:
                c[-1] = c[0]
            layer = CodebookLayer(centroids=c, metric=metric)
            at = rng.integers(k, size=n)
            labels, dists = _nearest(x, layer, _row_sq_norms(x), at=at)
            want_d, want_l = distances_and_labels_oracle(x, c, metric)
            assert np.array_equal(labels, want_l)
            assert np.array_equal(dists.view(np.uint64), want_d[np.arange(n), at].view(np.uint64))
            assert np.array_equal(_nearest(x, layer, _row_sq_norms(x))[0], want_l)


# small integer grids make ties, zero rows and zero centroids common
_grid_st = st.one_of(st.integers(-2, 2).map(float), st.floats(-10, 10))


@st.composite
def _rows_and_centroids(draw):
    n, k, m = draw(st.integers(1, 12)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = np.array(draw(st.lists(_grid_st, min_size=n * m, max_size=n * m))).reshape(n, m)
    centroids = np.array(draw(st.lists(_grid_st, min_size=k * m, max_size=k * m))).reshape(k, m)
    return rows, centroids


class TestAssignBits:
    """Labels-only ``assign`` on cached norms picks the labels of the full
    distance kernel."""

    @settings(max_examples=150)
    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    @given(case=_rows_and_centroids())
    def test_labels_match_distance_kernel(self, metric, case):
        rows, centroids = case
        layer = CodebookLayer(centroids=centroids, metric=metric)
        want = distances_and_labels_oracle(rows, layer.centroids, metric)[1]
        assert np.array_equal(assign(rows, layer), want)
        assert assign(rows[0], layer) == want[0]

    @pytest.mark.parametrize("metric", [METRIC_COSINE, METRIC_EUCLIDEAN])
    def test_degenerate_cases(self, metric):
        rows = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.0, -3.0]])
        cases = [
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),  # zero centroid
            np.array([[1.0, 0.0], [1.0, 0.0]]),  # tied centroids
            np.array([[1.0, 1.0]]),  # K = 1
            np.array([[0.0, 0.0]]),  # K = 1, zero centroid
        ]
        for centroids in cases:
            layer = CodebookLayer(centroids=centroids, metric=metric)
            for r in (rows, rows[1:2], np.zeros((3, 2))):
                want = distances_and_labels_oracle(r, layer.centroids, metric)[1]
                assert np.array_equal(assign(r, layer), want)


class TestNextResidualsBits:
    """Residuals from the gathered cached norms are the bits of residuals
    that recompute the norms, and of the masked-copy formulation."""

    @settings(max_examples=150)
    @given(case=_rows_and_centroids(), data=st.data())
    def test_cached_norms_change_no_bit(self, case, data):
        rows, centroids = case
        layer = CodebookLayer(centroids=centroids)
        labels = np.array(data.draw(st.lists(
            st.integers(0, layer.k - 1), min_size=rows.shape[0], max_size=rows.shape[0])))
        assigned = layer.centroids[labels]
        own = next_residuals(rows, assigned, METRIC_COSINE)
        given_norms = next_residuals(rows, assigned, METRIC_COSINE, layer.sq_norms[labels])
        want = next_residuals_oracle(rows, assigned)
        assert np.array_equal(own.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(given_norms.view(np.uint64), want.view(np.uint64))

    def test_zero_centroid_rows_with_cached_norms(self):
        layer = CodebookLayer(centroids=np.array([[0.0, 0.0], [3.0, 4.0]]))
        rows = np.array([[1.0, 2.0], [3.0, 4.0], [-1.0, 5.0]])
        labels = np.array([0, 1, 0])
        out = next_residuals(rows, layer.centroids[labels], METRIC_COSINE, layer.sq_norms[labels])
        assert np.array_equal(out[[0, 2]], rows[[0, 2]])
        assert np.array_equal(out, next_residuals_oracle(rows, layer.centroids[labels]))

    def test_single_vector(self):
        layer = CodebookLayer(centroids=np.array([[1.0, 2.0], [0.0, 0.0]]))
        r = np.array([3.0, -1.0])
        for j in range(layer.k):
            c = layer.centroids[j]
            want = next_residuals_oracle(r[None], c[None])[0]
            assert np.array_equal(next_residuals(r, c, METRIC_COSINE), want)
            assert np.array_equal(next_residuals(r, c, METRIC_COSINE, layer.sq_norms[j]), want)


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


def _fit_walk(data, cfg):
    """Training walk over rows that all sit at one point."""
    zeros = np.zeros(data.shape[0])
    [walked] = _walk_layers(np.asarray(data, dtype=float), zeros, zeros, [cfg])
    return walked


class TestTrainHierarchy:
    """The residual chain of a training walk: level l is fitted with seed
    [seed, l - 1] on the residuals of level l - 1."""

    def test_orthogonal_pair(self, kmeans_fits):
        cfg = TrainConfig(layer_sizes=(2, 1, 1), seed=0, variant="cosine_only")
        codes, _, _ = _fit_walk(np.array([[1.0, 0.0], [0.0, 1.0]]), cfg)
        assert codes[0, 0] != codes[1, 0]
        # each point equals its own layer-1 centroid, so residuals vanish
        assert np.allclose(kmeans_fits[1][0], 0.0)

    def test_single_poi(self, kmeans_fits):
        cfg = TrainConfig(layer_sizes=(1, 1, 1), seed=0, variant="cosine_only")
        codes, _, _ = _fit_walk(np.array([[3.0, 4.0]]), cfg)
        assert codes.tolist() == [[0, 0, 0]]
        assert np.allclose(kmeans_fits[1][0], 0.0)

    def test_determinism(self, kmeans_fits):
        data = np.random.default_rng(9).normal(size=(30, 4))
        cfg = TrainConfig(layer_sizes=(3, 3, 3), seed=7)
        codes_a, layers_a, frames_a = _fit_walk(data, cfg)
        codes_b, layers_b, frames_b = _fit_walk(data, cfg)
        assert np.array_equal(codes_a, codes_b)
        assert frames_a == frames_b
        for la, lb in zip(layers_a, layers_b):
            assert np.array_equal(la.centroids, lb.centroids)
        for (xa, _), (xb, _) in zip(kmeans_fits[:3], kmeans_fits[3:]):
            assert np.array_equal(xa, xb)
        assert [fit.labels.tolist() for _, fit in kmeans_fits[:3]] == codes_a.T.tolist()

    def test_projection_orthogonality_invariant(self, kmeans_fits):
        data = np.random.default_rng(3).normal(size=(25, 6))
        cfg = TrainConfig(layer_sizes=(3, 3, 3), seed=1, variant="cosine_only")
        codes, layers, _ = _fit_walk(data, cfg)
        residuals = kmeans_fits[2][0]  # level-3 input: the level-2 residuals
        assigned = layers[1].centroids[codes[:, 1]]
        dots = np.abs(np.sum(residuals * assigned, axis=1))
        bound = 1e-9 * np.linalg.norm(data, axis=1) * np.linalg.norm(assigned, axis=1) + 1e-15
        assert np.all(dots <= bound)


class TestTrainThirdLayer:
    """The third level: k-means over the geo-enhanced vectors, seeded [seed, 2]."""

    def test_antipodal_angles_separate(self):
        # two POIs with the same residual but opposite azimuth rotations
        from geosid.georope import NormalizedGeo, build_geo_vector

        r2 = np.array([1.0, 0.5, -0.5, 2.0])
        east = build_geo_vector(r2, NormalizedGeo(math.pi / 4, 1.0), 0.5, 0.5)
        west = build_geo_vector(r2, NormalizedGeo(-math.pi / 4, 1.0), 0.5, 0.5)
        labels = kmeans_train(np.stack([east, west]), 2, seed=[0, 2]).labels
        assert labels[0] != labels[1]

    def test_k1_collapses(self):
        data = np.random.default_rng(0).normal(size=(10, 4))
        assert np.all(kmeans_train(data, 1, seed=[0, 2]).labels == 0)

    def test_add_variant_keeps_dimension(self):
        cfg = TrainConfig(layer_sizes=(1, 1, 2), variant="add_geo")
        r2 = np.random.default_rng(1).normal(size=(6, 4))
        enhanced = build_variant_matrix(r2, np.ones(6), np.zeros(6), cfg, 5.0)
        assert enhanced.shape == (6, 4)
        assert kmeans_train(enhanced, 2, seed=[0, 2]).layer.dim == 4


class TestBuildVariantVector:
    """One-row ``build_variant_matrix``: a residual 2 km from its frame
    centre at azimuth 0.7 rad."""

    def _one_row(self, r2, cfg, d_scale_km):
        return build_variant_matrix(r2[None, :], np.array([2.0]), np.array([0.7]), cfg, d_scale_km)[0]

    def test_concat_is_m_plus_2(self):
        cfg = TrainConfig(layer_sizes=(2, 2, 2), variant="concat_geo")
        out = self._one_row(np.arange(4.0), cfg, d_scale_km=5.0)
        assert out.shape == (6,)
        assert out[4] == pytest.approx(math.pi * 2.0 / 5.0)  # d_norm
        assert out[5] == pytest.approx(0.35)  # sigma_norm

    def test_none_passthrough(self):
        cfg = TrainConfig(layer_sizes=(2, 2, 2), variant="cosine_only")
        r2 = np.arange(4.0)
        assert np.array_equal(self._one_row(r2, cfg, 5.0), r2)

    def test_pro_geo_full_set_is_4m(self):
        cfg = TrainConfig(layer_sizes=(2, 2, 2), variant="pro_geo")
        assert self._one_row(np.arange(4.0), cfg, 5.0).shape == (16,)

    def test_add_tiles_alternately(self):
        cfg = TrainConfig(layer_sizes=(2, 2, 2), variant="add_geo")
        out = self._one_row(np.zeros(4), cfg, 5.0)
        d_norm = math.pi * 2.0 / 5.0
        assert np.allclose(out, [d_norm, 0.35, d_norm, 0.35])

    def test_unknown_variant_rejected_at_dispatch(self):
        cfg = TrainConfig(layer_sizes=(2, 2, 2))
        object.__setattr__(cfg, "variant", "mystery")
        with pytest.raises(ValueError):
            self._one_row(np.arange(4.0), cfg, 5.0)

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
        out = self._one_row(np.arange(4.0), cfg, 5.0)
        assert out.shape == (enhanced_dim(cfg, 4),)


class TestQuantizeLayer:
    """One level: ``kmeans_train``, then ``next_residuals`` against the
    assigned centroids."""

    def test_euclidean_residuals_are_subtraction(self):
        data = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        fit = kmeans_train(data, 2, metric=METRIC_EUCLIDEAN, seed=0)
        assigned = fit.layer.centroids[fit.labels]
        assert np.array_equal(next_residuals(data, assigned, METRIC_EUCLIDEAN), data - assigned)

    def test_cosine_residuals_are_projections(self):
        data = np.random.default_rng(2).normal(size=(12, 4))
        fit = kmeans_train(data, 3, metric=METRIC_COSINE, seed=0)
        assigned = fit.layer.centroids[fit.labels]
        residuals = next_residuals(data, assigned, METRIC_COSINE)
        dots = np.abs(np.sum(residuals * assigned, axis=1))
        assert np.all(dots <= 1e-9 * np.linalg.norm(data, axis=1) * np.linalg.norm(assigned, axis=1))
