import numpy as np
import pytest

from oracles import lloyd_oracle

import geosid.pipeline
from geosid.data_io import CodebookArtifact, PoiRecord, SynthConfig, generate_synthetic
from geosid.geo import AntimeridianWarning, GeoPoint
from geosid.metrics import build_quant_report
from geosid.pipeline import (
    DEFAULT_SWEEP_GRID,
    SweepGrid,
    assign_with_codebook,
    compare,
    config_label,
    format_quant_records,
    format_quant_table,
    resolve_worker_count,
    run,
    sweep_alpha_beta,
)
from geosid.quantizer import TrainConfig, kmeans_plus_plus_init
from geosid.sid import Sid, SidIndex


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(SynthConfig(seed=0))


@pytest.fixture(scope="module")
def small_corpus():
    cfg = SynthConfig(n_semantic_clusters=2, pois_per_cluster=24, embedding_dim=8, seed=4)
    return generate_synthetic(cfg)


class TestRun:
    def test_two_poi_geo_split(self):
        # one semantic cluster, one POI in each of two blobs 40 km apart
        u = np.array([1.0, 0.0, 0.0, 0.0])
        w = np.array([0.0, 1.0, 0.0, 0.0])
        embeddings = np.stack([u + 0.02 * w, u - 0.02 * w])
        pois = [
            PoiRecord("east", GeoPoint(30.0, 110.2158), 0),
            PoiRecord("west", GeoPoint(30.0, 109.8), 1),
        ]
        cfg = TrainConfig(layer_sizes=(1, 1, 2), seed=0)
        res = run(pois, embeddings, cfg)
        assert res.assignments["east"].j3 != res.assignments["west"].j3

        # the third layer must agree with a brute-force 2-clustering of the
        # same enhanced vectors from the same seeding
        layer3 = res.artifact.layers[2]
        enhanced = _third_layer_input(pois, embeddings, cfg)
        init = kmeans_plus_plus_init(enhanced, 2, "cosine", np.random.default_rng([cfg.seed, 2]))
        labels, _, _ = lloyd_oracle(enhanced, 2, "cosine", init)
        got = [res.assignments["east"].j3, res.assignments["west"].j3]
        assert got == labels.tolist()

    def test_total_assignment(self, small_corpus):
        pois, embeddings = small_corpus
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=1))
        assert len(res.assignments) == len(pois)
        assert set(res.assignments) == {p.id for p in pois}

    def test_deterministic_rerun(self, small_corpus):
        pois, embeddings = small_corpus
        cfg = TrainConfig(layer_sizes=(2, 2, 2), seed=9)
        a = run(pois, embeddings, cfg)
        b = run(pois, embeddings, cfg)
        assert a.assignments == b.assignments
        assert a.report == b.report
        assert a.artifact == b.artifact

    def test_layers_1_2_shared_across_geo_variants(self, small_corpus):
        pois, embeddings = small_corpus
        runs = {
            variant: run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=3, variant=variant))
            for variant in ("pro_geo", "cosine_only", "concat_geo", "add_geo")
        }
        reference = runs["pro_geo"]
        for variant, res in runs.items():
            for level in (0, 1):
                assert np.array_equal(
                    res.artifact.layers[level].centroids,
                    reference.artifact.layers[level].centroids,
                ), variant
            assert all(
                res.assignments[p.id].key[:2] == reference.assignments[p.id].key[:2] for p in pois
            )

    def test_cosine_only_is_plain_three_layer(self, small_corpus):
        # with no geo enhancement, layer 3 clusters the raw second-layer residuals
        pois, embeddings = small_corpus
        cfg = TrainConfig(layer_sizes=(2, 2, 2), seed=5, variant="cosine_only")
        res = run(pois, embeddings, cfg)
        assert res.artifact.layers[2].dim == embeddings.shape[1]
        assert res.artifact.geo_second == {} and res.artifact.geo_third == {}

    def test_layer_sizes_must_be_three(self, small_corpus):
        pois, embeddings = small_corpus
        with pytest.raises(ValueError, match="3 layer sizes"):
            run(pois, embeddings, TrainConfig(layer_sizes=(2, 2), seed=0))

    def test_rope_layer_dims(self, small_corpus):
        pois, embeddings = small_corpus
        m = embeddings.shape[1]
        dims = {}
        for rope in ("second", "third", "both"):
            res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=2, rope_layer=rope))
            dims[rope] = tuple(layer.dim for layer in res.artifact.layers)
            assert len(res.assignments) == len(pois)
        assert dims["third"] == (m, m, 4 * m)
        assert dims["second"] == (m, 4 * m, 4 * m)
        assert dims["both"] == (m, 4 * m, 16 * m)

    def test_antimeridian_cluster_warns(self):
        u = np.array([1.0, 0.0, 0.0, 0.0])
        w = np.array([0.0, 1.0, 0.0, 0.0])
        embeddings = np.stack([u + 0.02 * w, u - 0.02 * w])
        pois = [
            PoiRecord("east", GeoPoint(10.0, 179.95), 0),
            PoiRecord("west", GeoPoint(10.0, -179.95), 1),
        ]
        with pytest.warns(AntimeridianWarning):
            run(pois, embeddings, TrainConfig(layer_sizes=(1, 1, 2), seed=0))

    def test_shared_sid_per_triple(self, small_corpus, monkeypatch):
        pois, embeddings = small_corpus
        perm = np.random.default_rng(2).permutation(len(pois))
        pois, embeddings = [pois[i] for i in perm], embeddings[perm]
        labels = []
        real_layer, real_third = geosid.pipeline.quantize_layer, geosid.pipeline.train_third_layer

        def layer(*args, **kwargs):
            out = real_layer(*args, **kwargs)
            labels.append(out[1])
            return out

        def third(*args, **kwargs):
            out = real_third(*args, **kwargs)
            labels.append(out[1])
            return out

        monkeypatch.setattr(geosid.pipeline, "quantize_layer", layer)
        monkeypatch.setattr(geosid.pipeline, "train_third_layer", third)
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=1))
        by_triple = {}
        for row, poi in enumerate(pois):
            sid = res.assignments[poi.id]
            assert sid == Sid(*(int(j[row]) for j in labels))
            assert sid is res.artifact.sid_index.sid_of(poi.id)
            assert by_triple.setdefault(sid.key, sid) is sid
        assert len(by_triple) < len(pois)

    def test_report_in_poi_id_order(self):
        # rows out of id order: the report must sum group centroids in id
        # order, as the report of the saved assignments does
        pois, embeddings = generate_synthetic(
            SynthConfig(n_semantic_clusters=8, pois_per_cluster=300, embedding_dim=16, seed=6)
        )
        perm = np.random.default_rng(6).permutation(len(pois))
        pois, embeddings = [pois[i] for i in perm], embeddings[perm]
        cfg = TrainConfig(layer_sizes=(4, 4, 4), seed=6, max_iters=10)
        res = run(pois, embeddings, cfg)
        locations = {poi.id: poi.location for poi in pois}
        assert res.report == build_quant_report(res.assignments, locations, cfg.layer_sizes)

    def test_d_scale_override_respected(self, small_corpus):
        pois, embeddings = small_corpus
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=2, d_scale_km=55.0))
        assert all(ref.d_scale_km == 55.0 for ref in res.artifact.geo_third.values())


class TestAssignWithCodebook:
    def test_matches_training_assignments(self, small_corpus):
        pois, embeddings = small_corpus
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=11))
        back = assign_with_codebook(res.artifact, pois, embeddings)
        agree = sum(back[p.id] == res.assignments[p.id] for p in pois)
        # float32 storage rounding may flip a marginal point, nothing more
        assert agree >= len(pois) - 1

    def test_neutral_frame_for_unseen_cells(self, small_corpus, monkeypatch):
        pois, embeddings = small_corpus
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=11))
        cells = list(res.artifact.geo_third)
        assert len(cells) >= 2
        kept = {cell: res.artifact.geo_third[cell] for cell in cells[::2]}
        half = CodebookArtifact(
            config=res.artifact.config,
            layers=res.artifact.layers,
            geo_second={},
            geo_third=kept,  # POIs in the dropped cells take the neutral path
            sid_index=res.artifact.sid_index,
        )

        frames = []
        real = geosid.pipeline.build_variant_matrix

        def record(r2, d_km, sigma, cfg, scale):
            frames.append((d_km, sigma, scale))
            return real(r2, d_km, sigma, cfg, scale)

        monkeypatch.setattr(geosid.pipeline, "build_variant_matrix", record)
        full_out = assign_with_codebook(res.artifact, pois, embeddings)
        half_out = assign_with_codebook(half, pois, embeddings)
        assert len(half_out) == len(pois)
        (d_full, s_full, scale_full), (d_half, s_half, scale_half) = frames

        in_kept = np.array([full_out[p.id].key[:2] in kept for p in pois])
        assert in_kept.any() and not in_kept.all()
        assert np.all(d_half[~in_kept] == 0.0)
        assert np.all(s_half[~in_kept] == 0.0)
        assert np.all(scale_half[~in_kept] == 1.0)
        assert np.array_equal(d_half[in_kept], d_full[in_kept])
        assert np.array_equal(s_half[in_kept], s_full[in_kept])
        assert np.array_equal(scale_half[in_kept], scale_full[in_kept])

    def test_no_frames_at_all(self, small_corpus):
        pois, embeddings = small_corpus
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=11))
        bare = CodebookArtifact(
            config=res.artifact.config,
            layers=res.artifact.layers,
            geo_second={},
            geo_third={},
            sid_index=res.artifact.sid_index,
        )
        assert len(assign_with_codebook(bare, pois, embeddings)) == len(pois)

    def test_triples_absent_from_training(self, small_corpus):
        pois, embeddings = small_corpus
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=11))
        full = res.artifact.sid_index
        kept = full.groups()[0][1]  # the index keeps one triple only
        partial = SidIndex(kept, np.array([full.sid_of(pid).key for pid in kept]))
        artifact = CodebookArtifact(
            config=res.artifact.config,
            layers=res.artifact.layers,
            geo_second=res.artifact.geo_second,
            geo_third=res.artifact.geo_third,
            sid_index=partial,
        )
        got = assign_with_codebook(artifact, pois, embeddings)
        want = assign_with_codebook(res.artifact, pois, embeddings)
        assert got == want
        assert list(got) == [p.id for p in pois]
        shared = partial.sid_of(kept[0])
        known = [pid for pid, sid in got.items() if sid == shared]
        unknown = [pid for pid, sid in got.items() if sid != shared]
        assert known and unknown
        assert all(got[pid] is shared for pid in known)
        assert all(got[pid] is not want[pid] for pid in unknown)

    def test_frame_cell_outside_layer_sizes_rejected(self, small_corpus):
        pois, embeddings = small_corpus
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=11))
        some_frame = next(iter(res.artifact.geo_third.values()))
        with pytest.raises(ValueError, match=r"\(0, 2\)"):
            CodebookArtifact(
                config=res.artifact.config,
                layers=res.artifact.layers,
                geo_second={},
                geo_third={(0, 2): some_frame},  # j2 == K2 would alias cell (1, 0)
                sid_index=res.artifact.sid_index,
            )

    def test_dimension_mismatch(self, small_corpus):
        pois, embeddings = small_corpus
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=11))
        with pytest.raises(ValueError):
            assign_with_codebook(res.artifact, pois, embeddings[:, :4])


class TestReplayInvariance:
    @pytest.fixture(scope="class")
    def trained(self):
        cfg = SynthConfig(n_semantic_clusters=8, pois_per_cluster=250, embedding_dim=16, seed=3)
        pois, embeddings = generate_synthetic(cfg)
        res = run(pois, embeddings, TrainConfig(layer_sizes=(4, 8, 8), seed=3, max_iters=20))
        return res.artifact, pois, embeddings

    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_batch_size_never_changes_a_sid(self, trained, batch):
        artifact, pois, embeddings = trained
        assert len(pois) == 2000
        whole = assign_with_codebook(artifact, pois, embeddings)
        batched = {}
        for start in range(0, len(pois), batch):
            stop = start + batch
            batched.update(assign_with_codebook(artifact, pois[start:stop], embeddings[start:stop]))
        assert batched == whole


class TestCompare:
    def test_geo_variant_beats_euclidean_baseline(self, corpus):
        pois, embeddings = corpus
        cfgs = [
            TrainConfig(layer_sizes=(4, 4, 8), seed=0, variant="pro_geo"),
            TrainConfig(layer_sizes=(4, 4, 8), seed=0, variant="rq_kmeans_euclidean"),
        ]
        rows = compare(pois, embeddings, cfgs)
        assert rows[0][1].avg_dist_km < rows[1][1].avg_dist_km

    def test_full_attribute_set_not_worse_than_plain(self, corpus):
        pois, embeddings = corpus
        geo = run(pois, embeddings, TrainConfig(layer_sizes=(4, 4, 8), seed=0, variant="pro_geo"))
        plain = run(pois, embeddings, TrainConfig(layer_sizes=(4, 4, 8), seed=0, variant="cosine_only"))
        assert geo.report.avg_dist_km <= plain.report.avg_dist_km

    def test_attribute_combination_table_has_eight_rows(self, small_corpus):
        pois, embeddings = small_corpus
        combos = (
            {"d+"}, {"d-"}, {"d+", "d-"},
            {"sigma+"}, {"sigma-"}, {"sigma+", "sigma-"},
            {"sigma+", "d+"}, {"sigma+", "sigma-", "d+", "d-"},
        )
        cfgs = [
            TrainConfig(layer_sizes=(2, 2, 2), seed=1, geo_attributes=frozenset(attrs))
            for attrs in combos
        ]
        rows = compare(pois, embeddings, cfgs)
        assert len(rows) == 8
        assert len({label for label, _ in rows}) == 8

    def test_duplicated_config_gives_identical_rows(self, small_corpus):
        pois, embeddings = small_corpus
        cfg = TrainConfig(layer_sizes=(2, 2, 2), seed=1)
        rows = compare(pois, embeddings, [cfg, cfg])
        assert rows[0][1] == rows[1][1]
        assert rows[0][0] != rows[1][0]  # labels disambiguated

    def test_requires_two_configs(self, small_corpus):
        pois, embeddings = small_corpus
        with pytest.raises(ValueError):
            compare(pois, embeddings, [TrainConfig(layer_sizes=(2, 2, 2))])

    def test_worker_count_does_not_change_results(self, small_corpus, monkeypatch):
        pois, embeddings = small_corpus
        cfgs = [
            TrainConfig(layer_sizes=(2, 2, 2), seed=s, variant=v)
            for s, v in [(1, "pro_geo"), (1, "cosine_only"), (2, "concat_geo")]
        ]
        monkeypatch.setenv("GEOSID_THREADS", "1")
        serial = compare(pois, embeddings, cfgs)
        monkeypatch.setenv("GEOSID_THREADS", "3")
        threaded = compare(pois, embeddings, cfgs)
        assert serial == threaded

    def test_worker_count_validation(self, monkeypatch):
        monkeypatch.setenv("GEOSID_THREADS", "quick")
        with pytest.raises(ValueError):
            resolve_worker_count(4)
        monkeypatch.setenv("GEOSID_THREADS", "-2")
        with pytest.raises(ValueError):
            resolve_worker_count(4)
        monkeypatch.setenv("GEOSID_THREADS", "0")
        assert 1 <= resolve_worker_count(4) <= 4

    def test_formatters(self, small_corpus):
        pois, embeddings = small_corpus
        cfg = TrainConfig(layer_sizes=(2, 2, 2), seed=1)
        rows = compare(pois, embeddings, [cfg, cfg])
        table = format_quant_table(rows)
        assert "CUR" in table and "Avg. Dist." in table and "p95 Dist." in table
        records = format_quant_records(rows).strip().split("\n")
        assert len(records) == 2
        import json

        parsed = json.loads(records[0])
        assert set(parsed) == {"label", "cur", "icr", "avg_dist_km", "p90_dist_km", "p95_dist_km", "group_count", "poi_count"}


class TestSweep:
    def test_zero_grid_equals_plain_cosine(self, small_corpus):
        # alpha = beta = 0 turns the rotary stack into mirror duplication,
        # which leaves every cosine similarity unchanged
        pois, embeddings = small_corpus
        base = TrainConfig(layer_sizes=(2, 2, 2), seed=6, variant="pro_geo")
        (pair, report), = sweep_alpha_beta(pois, embeddings, SweepGrid(pairs=((0.0, 0.0),)), base)
        plain = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=6, variant="cosine_only"))
        assert pair == (0.0, 0.0)
        assert report == plain.report

    def test_default_grid_has_eight_pairs(self, small_corpus):
        pois, embeddings = small_corpus
        base = TrainConfig(layer_sizes=(2, 2, 2), seed=2)
        results = sweep_alpha_beta(pois, embeddings, SweepGrid(), base)
        assert [pair for pair, _ in results] == list(DEFAULT_SWEEP_GRID)
        assert len(results) == 8

    def test_midpoint_not_worse_than_zero(self, corpus):
        pois, embeddings = corpus
        base = TrainConfig(layer_sizes=(4, 4, 8), seed=0)
        grid = SweepGrid(pairs=((0.0, 0.0), (0.5, 0.5)))
        results = dict(sweep_alpha_beta(pois, embeddings, grid, base))
        assert results[(0.5, 0.5)].avg_dist_km <= results[(0.0, 0.0)].avg_dist_km

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(pairs=())
        with pytest.raises(ValueError):
            SweepGrid(pairs=((0.5, -0.1),))


def test_config_label_mentions_variant():
    assert "pro_geo" in config_label(TrainConfig())
    assert "rope=second" in config_label(TrainConfig(rope_layer="second"))


def _third_layer_input(pois, embeddings, cfg):
    """Recompute the enhanced third-layer input the way run() builds it."""
    from geosid.pipeline import _cluster_frames
    from geosid.quantizer import build_variant_matrix, train_hierarchy

    hierarchy = train_hierarchy(embeddings, cfg)
    lat = np.array([p.location.lat for p in pois])
    lon = np.array([p.location.lon for p in pois])
    _, d_km, sigma, scale = _cluster_frames(hierarchy.codes, lat, lon, cfg.d_scale_km)
    return build_variant_matrix(hierarchy.residuals, d_km, sigma, cfg, scale)
