import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cluster_frames_oracle, lloyd_oracle

import geosid.pipeline
from geosid.data_io import (
    CodebookArtifact,
    Corpus,
    FrameTable,
    PoiRecord,
    SynthConfig,
    generate_synthetic,
    load_corpus,
    save_codebook,
    save_corpus,
)
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
from geosid.quantizer import ROPE_LAYERS, VARIANTS, TrainConfig, kmeans_plus_plus_init
from geosid.sid import Sid, SidIndex


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(SynthConfig(seed=0))


@pytest.fixture(scope="module")
def small_corpus():
    cfg = SynthConfig(n_semantic_clusters=2, pois_per_cluster=24, embedding_dim=8, seed=4)
    return generate_synthetic(cfg)


class TestRun:
    def test_two_poi_geo_split(self, kmeans_fits):
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
        enhanced = _third_layer_input(pois, embeddings, cfg, kmeans_fits)
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
        assert len(res.artifact.geo_second) == 0 and len(res.artifact.geo_third) == 0

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

    def test_shared_sid_per_triple(self, small_corpus, kmeans_fits):
        pois, embeddings = small_corpus
        perm = np.random.default_rng(2).permutation(len(pois))
        pois, embeddings = [pois[i] for i in perm], embeddings[perm]
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=1))
        labels = [fit.labels for _, fit in kmeans_fits]
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

    def test_odd_dimension_rejected(self, small_corpus):
        pois, embeddings = small_corpus
        with pytest.raises(ValueError, match="even"):
            run(pois, embeddings[:, :7], TrainConfig(layer_sizes=(2, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_embedding_names_poi(self, small_corpus, bad):
        pois, embeddings = small_corpus
        embeddings = embeddings.copy()
        embeddings[[5, 9]] = bad
        with pytest.raises(ValueError, match=re.escape(f"non-finite embedding for POI {pois[5].id!r}")):
            run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=1))

    def test_d_scale_override_respected(self, small_corpus):
        pois, embeddings = small_corpus
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=2, d_scale_km=55.0))
        assert len(res.artifact.geo_third) > 0
        assert np.all(res.artifact.geo_third.scale == 55.0)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


_frame_rows = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 3),
        st.floats(-90.0, 90.0),
        st.floats(-180.0, 180.0, exclude_min=True),
    ),
    min_size=1,
    max_size=40,
)


class TestClusterFrames:
    @settings(max_examples=150, deadline=None)
    @given(_frame_rows, st.sampled_from([1, 2]), st.sampled_from([None, 0.5, 55.0]))
    @example([(0, 0, 10.0, 180.0), (0, 1, 10.0, 180.0), (3, 0, -90.0, 0.0)], 2, None)
    @pytest.mark.filterwarnings("ignore::geosid.geo.AntimeridianWarning")
    def test_table_equals_dict_oracle(self, rows, depth, d_scale):
        codes = np.array([row[:2] for row in rows], dtype=np.int64)[:, :depth]
        lat = np.array([row[2] for row in rows])
        lon = np.array([row[3] for row in rows])
        table, d_km, sigma, scale = geosid.pipeline._cluster_frames(codes, lat, lon, d_scale)
        frames, d_want, sigma_want, scale_want = cluster_frames_oracle(codes, lat, lon, d_scale)
        cells = sorted(frames)
        assert table.codes.tolist() == [list(cell) if depth == 2 else [cell] for cell in cells]
        assert _bits(table.lat) == _bits([frames[cell][0].lat for cell in cells])
        assert _bits(table.lon) == _bits([frames[cell][0].lon for cell in cells])
        assert _bits(table.scale) == _bits([frames[cell][1] for cell in cells])
        for got, want in ((d_km, d_want), (sigma, sigma_want), (scale, scale_want)):
            assert _bits(got) == _bits(want)


class TestAssignWithCodebook:
    def test_matches_training_assignments(self, small_corpus):
        pois, embeddings = small_corpus
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=11))
        back = assign_with_codebook(res.artifact, pois, embeddings)
        agree = sum(back[p.id] == res.assignments[p.id] for p in pois)
        # float32 storage rounding may flip a marginal point, nothing more
        assert agree >= len(pois) - 1

    @pytest.mark.parametrize("rope", ["second", "third", "both"])
    @pytest.mark.parametrize("variant", ["pro_geo", "concat_geo", "add_geo"])
    def test_replays_geo_variants(self, small_corpus, variant, rope):
        pois, embeddings = small_corpus
        # K2, K3 > 2: at (2, 2, 2) pro_geo assigns the same with or without frames
        cfg = TrainConfig(layer_sizes=(2, 3, 6), seed=11, variant=variant, rope_layer=rope)
        res = run(pois, embeddings, cfg)
        whole = assign_with_codebook(res.artifact, pois, embeddings)
        agree = sum(whole[p.id] == res.assignments[p.id] for p in pois)
        assert agree >= len(pois) - 1
        rows = {}
        for i in range(len(pois)):
            rows.update(assign_with_codebook(res.artifact, pois[i : i + 1], embeddings[i : i + 1]))
        assert rows == whole

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_embedding_names_poi(self, small_corpus, bad):
        pois, embeddings = small_corpus
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=11))
        embeddings = embeddings.copy()
        embeddings[[5, 9]] = bad
        with pytest.raises(ValueError, match=re.escape(f"non-finite embedding for POI {pois[5].id!r}")):
            assign_with_codebook(res.artifact, pois, embeddings)

    def test_neutral_frame_for_unseen_cells(self, small_corpus, monkeypatch):
        pois, embeddings = small_corpus
        res = run(pois, embeddings, TrainConfig(layer_sizes=(2, 2, 2), seed=11))
        table = res.artifact.geo_third
        assert len(table) >= 2
        kept = FrameTable(table.codes[::2], table.lat[::2], table.lon[::2], table.scale[::2])
        half = CodebookArtifact(
            config=res.artifact.config,
            layers=res.artifact.layers,
            geo_second=None,
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
            geo_second=None,
            geo_third=None,
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
        table = res.artifact.geo_third
        with pytest.raises(ValueError, match=r"\(0, 2\)"):
            CodebookArtifact(
                config=res.artifact.config,
                layers=res.artifact.layers,
                geo_second=None,
                # j2 == K2 would alias cell (1, 0)
                geo_third=FrameTable(np.array([[0, 2]]), table.lat[:1], table.lon[:1], table.scale[:1]),
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


class TestCorpusInput:
    """A loaded ``Corpus`` and the same rows as a list of records give the
    same bits through every entry point."""

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        pois, embeddings = generate_synthetic(
            SynthConfig(n_semantic_clusters=3, pois_per_cluster=100, embedding_dim=8, seed=11)
        )
        # rows in a shuffled, non-id-sorted order
        perm = np.random.default_rng(5).permutation(len(pois))
        records = [PoiRecord(pois[r].id, pois[r].location, i, pois[r].category) for i, r in enumerate(perm)]
        assert [p.id for p in records] != sorted(p.id for p in records)
        base = tmp_path_factory.mktemp("corpus")
        save_corpus(records, embeddings[perm], base / "poi.jsonl", base / "embeddings.bin")
        corpus, matrix = load_corpus(base / "poi.jsonl", base / "embeddings.bin")
        assert isinstance(corpus, Corpus)
        return corpus, records, matrix

    _CONFIGS = [
        TrainConfig(layer_sizes=(3, 3, 4), seed=2, variant=variant, rope_layer=rope)
        for variant in VARIANTS
        for rope in ROPE_LAYERS
    ]

    def test_records_read_from_columns(self, loaded):
        corpus, records, _ = loaded
        assert len(corpus) == len(records)
        assert list(corpus) == records
        assert corpus[np.int64(5)] == records[5]
        assert corpus[np.int32(-1)] == records[-1]
        assert corpus[3:11:2] == records[3:11:2]
        assert corpus[::-1] == records[::-1]
        with pytest.raises(IndexError):
            corpus[len(records)]

    @pytest.mark.parametrize("cfg", _CONFIGS, ids=config_label)
    def test_run_and_replay_match_records(self, loaded, cfg, tmp_path):
        corpus, records, matrix = loaded
        from_columns = run(corpus, matrix, cfg)
        from_records = run(records, matrix, cfg)
        save_codebook(from_columns.artifact, tmp_path / "columns.bin")
        save_codebook(from_records.artifact, tmp_path / "records.bin")
        assert (tmp_path / "columns.bin").read_bytes() == (tmp_path / "records.bin").read_bytes()
        assert from_columns.report == from_records.report
        assert from_columns.assignments == from_records.assignments

        order = np.random.default_rng(6).permutation(len(records))
        for size, count in ((1, 20), (7, None), (256, None)):
            for start in range(0, len(order), size)[:count]:
                rows = order[start : start + size]
                batch = Corpus([corpus.ids[i] for i in rows], corpus.lat[rows], corpus.lon[rows])
                got = assign_with_codebook(from_columns.artifact, batch, matrix[rows])
                want = assign_with_codebook(from_columns.artifact, [records[i] for i in rows], matrix[rows])
                assert got == want

    def test_compare_matches_records(self, loaded):
        corpus, records, matrix = loaded
        assert compare(corpus, matrix, self._CONFIGS) == compare(records, matrix, self._CONFIGS)


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

    @pytest.mark.parametrize("bad", ["two_layers", "odd_dimension", "nonfinite_row"])
    def test_keeps_run_input_checks(self, small_corpus, bad):
        pois, embeddings = small_corpus
        good = TrainConfig(layer_sizes=(2, 2, 2), seed=1)
        cfg = good
        if bad == "two_layers":
            cfg = TrainConfig(layer_sizes=(2, 2), seed=1)
        elif bad == "odd_dimension":
            embeddings = embeddings[:, :7]
        else:
            embeddings = embeddings.copy()
            embeddings[11, 3] = np.nan
        with pytest.raises(ValueError) as from_run:
            run(pois, embeddings, cfg)
        with pytest.raises(ValueError, match=re.escape(str(from_run.value))) as from_compare:
            compare(pois, embeddings, [good, cfg])
        assert type(from_compare.value) is type(from_run.value)

    def test_resolves_worker_count_once(self, small_corpus, monkeypatch):
        # perfbench reads the worker count compare resolves through this
        # module attribute
        calls = []
        real = geosid.pipeline.resolve_worker_count
        monkeypatch.setattr(
            geosid.pipeline, "resolve_worker_count", lambda n: calls.append(n) or real(n)
        )
        pois, embeddings = small_corpus
        cfg = TrainConfig(layer_sizes=(2, 2, 2), seed=1)
        compare(pois, embeddings, [cfg, replace(cfg, variant="cosine_only"), cfg])
        assert calls == [1]
        monkeypatch.setenv("GEOSID_THREADS", "quick")  # validated, though unused
        with pytest.raises(ValueError, match="GEOSID_THREADS"):
            compare(pois, embeddings, [cfg, cfg])

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


# How each TrainConfig field enters TrainConfig.prefix_key. A new field
# must be added to one of the two sets, so that it is never shared silently.
_PREFIX_KEY_FIELDS = {
    "layer_sizes", "max_iters", "tol", "seed",  # every level
    "variant",  # the metric, and the enhancement of geo levels
    "rope_layer",  # which levels are geo-enhanced
    "geo_attributes", "alpha", "beta", "d_scale_km",  # geo levels
}
_NO_LEVEL_FIELDS: set[str] = set()  # fields no level's fit reads (none yet)

_SHARE_BASE = TrainConfig(layer_sizes=(3, 4, 5), seed=1, max_iters=20)


def _field_variations():
    """(field, base, base with that field changed): one or more per field in
    the prefix key. ``both`` and ``second`` bases put the geo settings on
    level 2 too."""
    base, both, second = (replace(_SHARE_BASE, rope_layer=r) for r in ("third", "both", "second"))
    return [
        ("seed", base, replace(base, seed=2)),
        ("max_iters", base, replace(base, max_iters=1)),
        ("tol", base, replace(base, tol=0.5)),
        ("layer_sizes", base, replace(base, layer_sizes=(3, 4, 6))),
        ("layer_sizes", base, replace(base, layer_sizes=(3, 5, 5))),
        *[("variant", base, replace(base, variant=v)) for v in VARIANTS if v != base.variant],
        *[("rope_layer", base, replace(base, rope_layer=r)) for r in ROPE_LAYERS if r != base.rope_layer],
        ("geo_attributes", base, replace(base, geo_attributes=frozenset({"d+", "sigma+"}))),
        ("alpha", base, replace(base, alpha=1.0)),
        ("alpha", second, replace(second, alpha=1.0)),
        ("beta", both, replace(both, beta=0.25)),
        ("d_scale_km", both, replace(both, d_scale_km=2.0)),
    ]


class TestSharedLevels:
    """compare and sweep fit a level once for every configuration whose
    prefix key up to that level is equal."""

    @pytest.fixture(scope="class")
    def share_corpus(self):
        return generate_synthetic(
            SynthConfig(n_semantic_clusters=3, pois_per_cluster=30, embedding_dim=8, seed=4)
        )

    def test_every_field_classified(self):
        names = {field.name for field in fields(TrainConfig)}
        assert not _PREFIX_KEY_FIELDS & _NO_LEVEL_FIELDS
        assert names == _PREFIX_KEY_FIELDS | _NO_LEVEL_FIELDS
        assert {field for field, _, _ in _field_variations()} == _PREFIX_KEY_FIELDS

    @pytest.mark.parametrize("field, base, varied", _field_variations())
    def test_prefix_key_reads_field(self, field, base, varied):
        assert base.prefix_key(3) != varied.prefix_key(3)
        assert base.prefix_key(3) == replace(varied, **{field: getattr(base, field)}).prefix_key(3)

    def test_rows_equal_independent_runs(self, share_corpus):
        pois, embeddings = share_corpus
        variations = _field_variations()
        cfgs = [_SHARE_BASE, *[varied for _, _, varied in variations], _SHARE_BASE]
        runs = {cfg: run(pois, embeddings, cfg).report for cfg in cfgs}
        for field, base, varied in variations:
            # else a level wrongly shared with ``base`` could not show
            assert runs[varied] != runs[base], field
        rows = compare(pois, embeddings, cfgs)
        assert [report for _, report in rows] == [runs[cfg] for cfg in cfgs]
        assert rows[0][1] == rows[-1][1] and rows[0][0] != rows[-1][0]

    def test_variants_fit_nine_levels(self, small_corpus, kmeans_fits):
        pois, embeddings = small_corpus
        cfgs = [TrainConfig(layer_sizes=(2, 2, 2), seed=1, variant=v) for v in VARIANTS]
        compare(pois, embeddings, cfgs)
        # levels 1 and 2: the cosine variants and the Euclidean baseline;
        # level 3: one fit per variant
        assert len(kmeans_fits) == 2 + 2 + len(VARIANTS)

    def test_default_sweep_fits_ten_levels(self, small_corpus, kmeans_fits):
        pois, embeddings = small_corpus
        base = TrainConfig(layer_sizes=(2, 2, 2), seed=2)
        assert sweep_alpha_beta(pois, embeddings, SweepGrid(), base)
        assert len(kmeans_fits) == 1 + 1 + len(DEFAULT_SWEEP_GRID)

    def test_rope_second_shares_only_level_one(self, small_corpus, kmeans_fits):
        pois, embeddings = small_corpus
        third = TrainConfig(layer_sizes=(2, 3, 2), seed=1)
        compare(pois, embeddings, [third, replace(third, rope_layer="second")])
        # level 1 once; level 2 plain (third) and enhanced (second); level 3
        # enhanced (third) and plain on the enhanced level-2 residuals (second)
        assert [(x.shape[1], fit.layer.k) for x, fit in kmeans_fits] == [
            (8, 2), (8, 3), (32, 3), (32, 2), (32, 2)
        ]

    def test_single_config_walk_fits_each_level(self, small_corpus, kmeans_fits):
        pois, embeddings = small_corpus
        sweep_alpha_beta(pois, embeddings, SweepGrid(pairs=((0.5, 0.5),)), TrainConfig(layer_sizes=(2, 2, 2)))
        assert len(kmeans_fits) == 3


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

    @pytest.mark.parametrize(
        "pair, field",
        [((math.nan, 0.5), "alpha"), ((0.5, math.nan), "beta"), ((math.inf, 0.5), "alpha"), ((0.5, math.inf), "beta")],
    )
    def test_grid_rejects_non_finite(self, pair, field):
        with pytest.raises(ValueError, match=f"sweep grid {field} must be finite"):
            SweepGrid(pairs=((0.5, 0.5), pair))


def test_config_label_mentions_variant():
    assert "pro_geo" in config_label(TrainConfig())
    assert "rope=second" in config_label(TrainConfig(rope_layer="second"))


def _third_layer_input(pois, embeddings, cfg, fits):
    """Recompute run()'s third-layer input from its recorded level-1 and
    level-2 fits, and check that run() fed level 3 exactly that."""
    from geosid.pipeline import _cluster_frames
    from geosid.quantizer import build_variant_matrix, next_residuals

    (_, fit1), (x2, fit2), (x3, _) = fits
    r1 = next_residuals(embeddings, fit1.layer.centroids[fit1.labels], cfg.metric)
    assert np.array_equal(x2, r1)
    r2 = next_residuals(r1, fit2.layer.centroids[fit2.labels], cfg.metric)
    lat = np.array([p.location.lat for p in pois])
    lon = np.array([p.location.lon for p in pois])
    codes = np.stack([fit1.labels, fit2.labels], axis=1)
    _, d_km, sigma, scale = _cluster_frames(codes, lat, lon, cfg.d_scale_km)
    enhanced = build_variant_matrix(r2, d_km, sigma, cfg, scale)
    assert np.array_equal(x3, enhanced)
    return enhanced
