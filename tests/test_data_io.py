import hashlib
import json
import struct

import numpy as np
import pytest

from geosid.data_io import (
    ClusterGeo,
    CodebookArtifact,
    CodebookFormatError,
    CorpusFormatError,
    PoiRecord,
    SynthConfig,
    export_geojson,
    generate_synthetic,
    load_codebook,
    load_corpus,
    save_codebook,
    save_corpus,
)
from geosid.geo import GeoPoint, haversine_km
from geosid.quantizer import CodebookLayer, TrainConfig
from geosid.sid import Sid, SidIndex


def _paths(tmp_path):
    return tmp_path / "poi.jsonl", tmp_path / "embeddings.bin"


class TestCorpusRoundTrip:
    def test_golden_fixture(self, tmp_path):
        pois = [
            PoiRecord("alpha", GeoPoint(31.25, 121.5), 0, "food"),
            PoiRecord("beta", GeoPoint(-5.0, 12.0), 1),
        ]
        matrix = np.array([[0.5, -1.25], [3.0, 4.0]])
        poi_path, emb_path = _paths(tmp_path)
        save_corpus(pois, matrix, poi_path, emb_path)

        loaded, m2 = load_corpus(poi_path, emb_path)
        assert loaded == pois
        assert np.array_equal(m2, matrix)  # values chosen to be float32-exact

        # second-generation serialization is byte-identical
        save_corpus(loaded, m2, tmp_path / "poi2.jsonl", tmp_path / "emb2.bin")
        assert (tmp_path / "poi2.jsonl").read_bytes() == poi_path.read_bytes()
        assert (tmp_path / "emb2.bin").read_bytes() == emb_path.read_bytes()

    def test_count_mismatch(self, tmp_path):
        poi_path, emb_path = _paths(tmp_path)
        save_corpus([PoiRecord("a", GeoPoint(0, 0), 0)], np.ones((1, 2)), poi_path, emb_path)
        poi_path.write_text(poi_path.read_text() + '{"id":"b","lat":0,"lon":0}\n')
        with pytest.raises(CorpusFormatError, match="count"):
            load_corpus(poi_path, emb_path)

    def test_invalid_latitude_names_record(self, tmp_path):
        poi_path, emb_path = _paths(tmp_path)
        save_corpus([PoiRecord("a", GeoPoint(0, 0), 0)], np.ones((1, 2)), poi_path, emb_path)
        poi_path.write_text('{"id":"bad-poi","lat":91,"lon":0}\n')
        with pytest.raises(CorpusFormatError, match="bad-poi"):
            load_corpus(poi_path, emb_path)

    def test_duplicate_ids_rejected(self, tmp_path):
        poi_path, emb_path = _paths(tmp_path)
        save_corpus(
            [PoiRecord("a", GeoPoint(0, 0), 0), PoiRecord("b", GeoPoint(0, 0), 1)],
            np.ones((2, 2)),
            poi_path,
            emb_path,
        )
        poi_path.write_text('{"id":"dup","lat":0,"lon":0}\n{"id":"dup","lat":1,"lon":1}\n')
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(poi_path, emb_path)

    def test_nan_embedding_names_record(self, tmp_path):
        poi_path, emb_path = _paths(tmp_path)
        matrix = np.ones((2, 2), dtype=np.float32)
        matrix[1, 0] = np.nan
        save_corpus(
            [PoiRecord("ok", GeoPoint(0, 0), 0), PoiRecord("broken", GeoPoint(0, 0), 1)],
            matrix,
            poi_path,
            emb_path,
        )
        with pytest.raises(CorpusFormatError, match="broken"):
            load_corpus(poi_path, emb_path)

    def test_bad_json_line(self, tmp_path):
        poi_path, emb_path = _paths(tmp_path)
        save_corpus([PoiRecord("a", GeoPoint(0, 0), 0)], np.ones((1, 2)), poi_path, emb_path)
        poi_path.write_text("not json\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(poi_path, emb_path)

    def test_truncated_embeddings(self, tmp_path):
        poi_path, emb_path = _paths(tmp_path)
        save_corpus([PoiRecord("a", GeoPoint(0, 0), 0)], np.ones((1, 2)), poi_path, emb_path)
        raw = emb_path.read_bytes()
        emb_path.write_bytes(raw[:-3])
        with pytest.raises(CorpusFormatError):
            load_corpus(poi_path, emb_path)

    def test_corrupted_payload_checksum(self, tmp_path):
        poi_path, emb_path = _paths(tmp_path)
        save_corpus([PoiRecord("a", GeoPoint(0, 0), 0)], np.ones((1, 2)), poi_path, emb_path)
        raw = bytearray(emb_path.read_bytes())
        raw[18] ^= 0x01
        emb_path.write_bytes(bytes(raw))
        with pytest.raises(CorpusFormatError, match="checksum"):
            load_corpus(poi_path, emb_path)

    def test_odd_dimension_rejected(self, tmp_path):
        poi_path, emb_path = _paths(tmp_path)
        save_corpus([PoiRecord("a", GeoPoint(0, 0), 0)], np.ones((1, 3)), poi_path, emb_path)
        with pytest.raises(CorpusFormatError, match="even"):
            load_corpus(poi_path, emb_path)


def _tiny_artifact():
    cfg = TrainConfig(layer_sizes=(2, 2, 2), seed=1)
    layers = (
        CodebookLayer(centroids=np.array([[1.0, 0.0], [0.0, 1.0]])),
        CodebookLayer(centroids=np.array([[0.5, 0.5], [-0.5, 0.5]])),
        CodebookLayer(centroids=np.random.default_rng(0).normal(size=(2, 8))),
    )
    geo_third = {
        (0, 0): ClusterGeo(GeoPoint(30.0, 110.0), 12.5),
        (1, 0): ClusterGeo(GeoPoint(31.0, 111.0), 3.25),
    }
    index = SidIndex({"a": Sid(0, 0, 1), "b": Sid(1, 0, 0)})
    return CodebookArtifact(cfg, layers, {}, geo_third, index)


class TestCodebookArtifact:
    def test_round_trip_bit_exact(self, tmp_path):
        artifact = _tiny_artifact()
        path = tmp_path / "cb.bin"
        save_codebook(artifact, path)
        loaded = load_codebook(path)
        assert loaded == artifact
        save_codebook(loaded, tmp_path / "cb2.bin")
        assert (tmp_path / "cb2.bin").read_bytes() == path.read_bytes()

    def test_column_index_saves_mapping_bytes(self, tmp_path):
        from_mapping = _tiny_artifact()
        index = SidIndex(["b", "a"], np.array([[1, 0, 0], [0, 0, 1]]))
        from_columns = CodebookArtifact(
            from_mapping.config, from_mapping.layers, {}, from_mapping.geo_third, index
        )
        assert from_columns == from_mapping
        save_codebook(from_mapping, tmp_path / "mapping.bin")
        save_codebook(from_columns, tmp_path / "columns.bin")
        assert (tmp_path / "columns.bin").read_bytes() == (tmp_path / "mapping.bin").read_bytes()

    @pytest.mark.parametrize(
        "rows, match",
        [
            ([], "non-empty"),
            ([["a", 0, 0]], r"\[id, j1, j2, j3\]"),
            ([["a", 0, 0, -1]], "non-negative"),
            ([["a", 0, 0, 1.5]], "integer"),
            ([["a", 0, 0, 1], ["a", 1, 0, 0]], "duplicate"),
        ],
    )
    def test_bad_assignment_rows_rejected(self, tmp_path, rows, match):
        path = tmp_path / "cb.bin"
        save_codebook(_tiny_artifact(), path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + header_len])
        header["assignments"] = rows
        header_bytes = json.dumps(header).encode()
        body = raw[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes
        body += raw[16 + header_len : -8]
        path.write_bytes(body + hashlib.sha256(body).digest()[:8])
        with pytest.raises(CodebookFormatError, match=match):
            load_codebook(path)

    def test_dimension_consistency_enforced(self):
        cfg = TrainConfig(layer_sizes=(2, 2, 2), seed=1)
        layers = (
            CodebookLayer(centroids=np.eye(2)),
            CodebookLayer(centroids=np.eye(2)),
            CodebookLayer(centroids=np.eye(2)),  # should be 8-dim for full pro_geo
        )
        with pytest.raises(ValueError, match="layer-3"):
            CodebookArtifact(cfg, layers, {}, {}, SidIndex({"a": Sid(0, 0, 0)}))

    def test_version_byte_rejected(self, tmp_path):
        path = tmp_path / "cb.bin"
        save_codebook(_tiny_artifact(), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # format version field
        path.write_bytes(bytes(raw))
        with pytest.raises(CodebookFormatError, match="version|checksum"):
            load_codebook(path)

    def test_tampered_centroid_rejected(self, tmp_path):
        path = tmp_path / "cb.bin"
        save_codebook(_tiny_artifact(), path)
        raw = bytearray(path.read_bytes())
        raw[-12] ^= 0xFF  # inside the final centroid block
        path.write_bytes(bytes(raw))
        with pytest.raises(CodebookFormatError, match="checksum"):
            load_codebook(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "cb.bin"
        save_codebook(_tiny_artifact(), path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CodebookFormatError):
            load_codebook(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "cb.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(CodebookFormatError, match="magic"):
            load_codebook(path)


class TestSynthConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_semantic_clusters": 0},
            {"embedding_dim": 7},
            {"embedding_dim": 2},
            {"embedding_dim": 4, "n_semantic_clusters": 4},
            {"noise_std": -1.0},
            {"subcluster_separation_km": -5.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)


class TestGenerateSynthetic:
    def test_shapes_and_ids(self):
        cfg = SynthConfig(n_semantic_clusters=2, pois_per_cluster=10, embedding_dim=8, seed=0)
        pois, matrix = generate_synthetic(cfg)
        assert matrix.shape == (20, 8)
        assert [p.id for p in pois] == [f"p{i:06d}" for i in range(20)]
        assert all(p.embedding_ref == i for i, p in enumerate(pois))

    def test_two_clusters_two_geo_blobs(self):
        cfg = SynthConfig(
            n_semantic_clusters=2, pois_per_cluster=30, geo_subclusters_per_semantic=1,
            embedding_dim=8, seed=1,
        )
        pois, matrix = generate_synthetic(cfg)
        # embedding blobs: within-cluster cosine exceeds cross-cluster cosine
        unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        within = unit[:30] @ unit[:30].T
        cross = unit[:30] @ unit[30:].T
        assert within.min() > cross.max()
        # geo blobs: the two clusters sit in different places
        d = haversine_km(pois[0].location, pois[30].location)
        assert d > 50.0

    def test_cross_blob_separation_floor(self):
        cfg = SynthConfig(
            n_semantic_clusters=1, pois_per_cluster=60, geo_subclusters_per_semantic=2,
            subcluster_separation_km=40.0, embedding_dim=8, seed=2,
        )
        pois, _ = generate_synthetic(cfg)
        centroid_lon = sum(p.location.lon for p in pois) / len(pois)
        west = [p for p in pois if p.location.lon < centroid_lon]
        east = [p for p in pois if p.location.lon >= centroid_lon]
        pairs = [(w, e) for w in west[:15] for e in east[:15]]
        assert all(haversine_km(w.location, e.location) >= 30.0 for w, e in pairs)

    def test_three_subclusters(self):
        cfg = SynthConfig(
            n_semantic_clusters=1, pois_per_cluster=40, geo_subclusters_per_semantic=3,
            subcluster_separation_km=30.0, embedding_dim=8, seed=5,
        )
        pois, _ = generate_synthetic(cfg)
        lons = sorted(round(p.location.lon, 1) for p in pois)
        assert len(set(lons)) >= 3  # three distinct blob bands

    def test_deterministic(self):
        cfg = SynthConfig(seed=7, n_semantic_clusters=2, pois_per_cluster=5, embedding_dim=8)
        pois_a, m_a = generate_synthetic(cfg)
        pois_b, m_b = generate_synthetic(cfg)
        assert pois_a == pois_b
        assert np.array_equal(m_a, m_b)

    def test_unequal_blob_weights(self):
        cfg = SynthConfig(
            n_semantic_clusters=1, pois_per_cluster=90, geo_subclusters_per_semantic=2,
            embedding_dim=8, seed=3,
        )
        pois, _ = generate_synthetic(cfg)
        lons = sorted(p.location.lon for p in pois)
        # first blob carries two thirds of the POIs
        split = sum(1 for p in pois if p.location.lon < (lons[0] + lons[-1]) / 2)
        assert split == pytest.approx(60, abs=2) or (90 - split) == pytest.approx(60, abs=2)


class TestExportGeojson:
    def test_single_poi(self, tmp_path):
        path = tmp_path / "out.geojson"
        export_geojson({"p1": Sid(1, 2, 3)}, {"p1": GeoPoint(10.0, 20.0)}, path)
        doc = json.loads(path.read_text())
        assert doc["type"] == "FeatureCollection"
        (feature,) = doc["features"]
        assert feature["geometry"]["coordinates"] == [20.0, 10.0]  # lon first
        assert feature["properties"]["sid"] == "1-2-3"
        assert (feature["properties"]["j1"], feature["properties"]["j2"], feature["properties"]["j3"]) == (1, 2, 3)

    def test_layer4_included(self, tmp_path):
        path = tmp_path / "out.geojson"
        export_geojson({"p1": Sid(1, 2, 3, 4)}, {"p1": GeoPoint(0, 0)}, path)
        doc = json.loads(path.read_text())
        assert doc["features"][0]["properties"]["j4"] == 4

    def test_empty_collection(self, tmp_path):
        path = tmp_path / "out.geojson"
        export_geojson({}, {}, path)
        doc = json.loads(path.read_text())
        assert doc == {"type": "FeatureCollection", "features": []}
