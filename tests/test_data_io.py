import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geosid.data_io import (
    CodebookArtifact,
    CodebookFormatError,
    Corpus,
    CorpusFormatError,
    FrameTable,
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


def _bits(values) -> list[int]:
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


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
        assert list(loaded) == pois
        assert np.array_equal(m2, matrix)  # values chosen to be float32-exact

        # second-generation serialization is byte-identical
        save_corpus(loaded, m2, tmp_path / "poi2.jsonl", tmp_path / "emb2.bin")
        assert (tmp_path / "poi2.jsonl").read_bytes() == poi_path.read_bytes()
        assert (tmp_path / "emb2.bin").read_bytes() == emb_path.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(
        coords=st.lists(
            st.tuples(
                st.floats(-90.0, 90.0),
                st.one_of(
                    st.sampled_from([180.0, -180.0, 540.0, -540.0, -0.0, 0.0, 359.9, -359.9]),
                    st.floats(-1e6, 1e6),
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_columns_match_geopoint_bits(self, tmp_path_factory, coords):
        tmp_path = tmp_path_factory.mktemp("corpus")
        # raw longitudes in the file: the loader wraps them as GeoPoint does
        lines = "".join(
            json.dumps({"id": f"p{i}", "lat": lat, "lon": lon}) + "\n" for i, (lat, lon) in enumerate(coords)
        )
        poi_path, emb_path = _write_corpus_files(tmp_path, lines, np.ones((len(coords), 2)))
        corpus, _ = load_corpus(poi_path, emb_path)
        points = [GeoPoint(lat, lon) for lat, lon in coords]
        assert _bits(corpus.lat) == _bits([p.lat for p in points])
        assert _bits(corpus.lon) == _bits([p.lon for p in points])
        assert corpus.ids == [f"p{i}" for i in range(len(coords))]
        assert corpus.category == [None] * len(coords)

        records = [PoiRecord(f"r{i}", p, i, "shop" if i % 2 else None) for i, p in enumerate(points)]
        save_corpus(records, np.ones((len(records), 2)), poi_path, emb_path)
        loaded, _ = load_corpus(poi_path, emb_path)
        assert list(loaded) == records
        assert _bits([r.location.lon for r in loaded]) == _bits([p.lon for p in points])

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


def _write_corpus_files(tmp_path, lines: str, matrix):
    """A corpus whose metadata file holds ``lines`` verbatim, beside a
    valid embedding file of ``matrix``."""
    poi_path, emb_path = _paths(tmp_path)
    dummies = [PoiRecord(f"d{i}", GeoPoint(0, 0), i) for i in range(len(matrix))]
    save_corpus(dummies, np.asarray(matrix), poi_path, emb_path)
    poi_path.write_text(lines, encoding="utf-8")
    return poi_path, emb_path


_OK = '{"id":"a","lat":0,"lon":0}\n'


class TestCorpusColumns:
    def test_constructor_wraps_longitude_and_freezes_columns(self):
        corpus = Corpus(["a", "b", "c"], [0.0, 45.0, -90.0], [540.0, -180.0, -190.5], ["x", None, "y"])
        assert corpus.lon.tolist() == [180.0, 180.0, 169.5]
        assert corpus[2] == PoiRecord("c", GeoPoint(-90.0, -190.5), 2, "y")
        with pytest.raises(ValueError):
            corpus.lat[0] = 1.0
        assert Corpus(["a"], [1.0], [2.0]).category == [None]

    @pytest.mark.parametrize(
        "lat, lon, match",
        [
            ([0.0, 91.0], [0.0, 0.0], r"POI 'b': invalid coordinates \(91.0, 0.0\)"),
            ([0.0, np.nan], [0.0, 0.0], r"POI 'b': invalid coordinates \(nan, 0.0\)"),
            ([0.0, 0.0], [np.inf, 0.0], r"POI 'a': invalid coordinates \(0.0, inf\)"),
            ([0.0], [0.0, 0.0], "must all have 2 rows"),
        ],
    )
    def test_constructor_rejects(self, lat, lon, match):
        with pytest.raises(ValueError, match=match):
            Corpus(["a", "b"], lat, lon)


class TestCorpusRejections:
    # (metadata lines, embedding matrix, the exact message: {poi} and {emb}
    # stand for the two paths). The first faulty line in file order is
    # named, with the checks of one line in the order id, lat, lon,
    # coordinate range, duplicate, category.
    @pytest.mark.parametrize(
        "lines, matrix, message",
        [
            pytest.param(
                _OK + "not json\n", np.ones((2, 2)),
                "{poi}, line 2: invalid JSON (Expecting value: line 1 column 1 (char 0))",
                id="invalid-json",
            ),
            pytest.param(
                '{"id":"a","lat":0,"lon":0} 7\n', np.ones((1, 2)),
                "{poi}, line 1: invalid JSON (Extra data: line 1 column 28 (char 27))",
                id="trailing-data",
            ),
            pytest.param(
                '{"id":"a","lat":0\n', np.ones((1, 2)),
                "{poi}, line 1: invalid JSON (Expecting ',' delimiter: line 1 column 18 (char 17))",
                id="truncated-object",
            ),
            pytest.param(
                _OK + "[1, 2]\n", np.ones((2, 2)),
                "{poi}, record 2: list indices must be integers or slices, not str",
                id="list-line",
            ),
            pytest.param(
                "null\n", np.ones((1, 2)),
                "{poi}, record 1: 'NoneType' object is not subscriptable",
                id="null-line",
            ),
            pytest.param(
                _OK + '{"lat":0,"lon":0}\n', np.ones((2, 2)),
                "{poi}, record (line 2): 'id'",
                id="missing-id",
            ),
            pytest.param(
                '{"id":"a","lon":0}\n', np.ones((1, 2)), "{poi}, record a: 'lat'", id="missing-lat"
            ),
            pytest.param(
                '{"id":"a","lat":0}\n', np.ones((1, 2)), "{poi}, record a: 'lon'", id="missing-lon"
            ),
            pytest.param(
                '{"id":5,"lat":0,"lon":0}\n', np.ones((1, 2)),
                "{poi}, record 5: id must be a non-empty string",
                id="int-id",
            ),
            pytest.param(
                '{"id":"","lat":0,"lon":0}\n', np.ones((1, 2)),
                "{poi}, record : id must be a non-empty string",
                id="empty-id",
            ),
            pytest.param(
                '{"id":"a","lat":"north","lon":0}\n', np.ones((1, 2)),
                "{poi}, record a: could not convert string to float: 'north'",
                id="text-lat",
            ),
            pytest.param(
                '{"id":"a","lat":NaN,"lon":0}\n', np.ones((1, 2)),
                "{poi}, record a: non-finite coordinates (nan, 0.0)",
                id="nan-lat",
            ),
            pytest.param(
                '{"id":"a","lat":1,"lon":-Infinity}\n', np.ones((1, 2)),
                "{poi}, record a: non-finite coordinates (1.0, -inf)",
                id="infinite-lon",
            ),
            pytest.param(
                '{"id":"a","lat":"nan","lon":720}\n', np.ones((1, 2)),
                "{poi}, record a: non-finite coordinates (nan, 720.0)",
                id="nan-lat-text",
            ),
            pytest.param(
                '{"id":"a","lat":90.5,"lon":0}\n', np.ones((1, 2)),
                "{poi}, record a: latitude 90.5 outside [-90, +90]",
                id="lat-above-range",
            ),
            pytest.param(
                '{"id":"a","lat":-91,"lon":0}\n', np.ones((1, 2)),
                "{poi}, record a: latitude -91.0 outside [-90, +90]",
                id="lat-below-range",
            ),
            pytest.param(
                _OK + '{"id":"a","lat":1,"lon":1}\n', np.ones((2, 2)),
                "{poi}, record 'a': duplicate id",
                id="duplicate-id",
            ),
            pytest.param(
                '{"id":"a","lat":0,"lon":0,"category":3}\n', np.ones((1, 2)),
                "{poi}, record 'a': category must be a string",
                id="int-category",
            ),
            pytest.param(
                _OK + '{"id":"b","lat":95,"lon":0}\n{"id":"a","lat":0,"lon":0}\n', np.ones((3, 2)),
                "{poi}, record b: latitude 95.0 outside [-90, +90]",
                id="first-of-two-faulty-lines",
            ),
            pytest.param(
                _OK + '{"id":"a","lat":0,"lon":0}\n{"id":"c",\n', np.ones((3, 2)),
                "{poi}, record 'a': duplicate id",
                id="duplicate-before-bad-json",
            ),
            pytest.param(
                _OK + '{"id":"a","lat":95,"lon":0,"category":1}\n', np.ones((2, 2)),
                "{poi}, record a: latitude 95.0 outside [-90, +90]",
                id="range-before-duplicate-in-one-line",
            ),
            pytest.param(
                "\n  \n" + _OK + "\n{oops}\n", np.ones((1, 2)),
                "{poi}, line 5: invalid JSON "
                "(Expecting property name enclosed in double quotes: line 1 column 2 (char 1))",
                id="blank-lines-counted",
            ),
            pytest.param(
                _OK + '{"id":"b","lat":0,"lon":0}\n', np.ones((1, 2)),
                "embedding count 1 does not match 2 records in {poi}",
                id="count-mismatch",
            ),
            pytest.param(
                _OK, np.ones((1, 3)), "{emb}: embedding dimension 3 must be even", id="odd-dimension"
            ),
            pytest.param(
                _OK + '{"id":"broken","lat":0,"lon":0}\n', np.array([[1.0, 2.0], [np.inf, 0.0]]),
                "{emb}: non-finite embedding for record 'broken'",
                id="non-finite-embedding",
            ),
        ],
    )
    def test_rejection_names_line_or_record(self, tmp_path, lines, matrix, message):
        poi_path, emb_path = _write_corpus_files(tmp_path, lines, matrix)
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(poi_path, emb_path)
        assert str(info.value) == message.replace("{poi}", str(poi_path)).replace("{emb}", str(emb_path))

    def test_blank_lines_skipped(self, tmp_path):
        lines = "\n   \n" + _OK + "\t\n" + '{"id":"b","lat":1.5,"lon":-2}\n\n'
        poi_path, emb_path = _write_corpus_files(tmp_path, lines, np.ones((2, 2)))
        pois, matrix = load_corpus(poi_path, emb_path)
        assert [(p.id, p.location, p.embedding_ref) for p in pois] == [
            ("a", GeoPoint(0, 0), 0),
            ("b", GeoPoint(1.5, -2), 1),
        ]
        assert matrix.shape == (2, 2)


def _tiny_artifact():
    cfg = TrainConfig(layer_sizes=(2, 2, 2), seed=1)
    layers = (
        CodebookLayer(centroids=np.array([[1.0, 0.0], [0.0, 1.0]])),
        CodebookLayer(centroids=np.array([[0.5, 0.5], [-0.5, 0.5]])),
        CodebookLayer(centroids=np.random.default_rng(0).normal(size=(2, 8))),
    )
    geo_third = FrameTable(np.array([[0, 0], [1, 0]]), [30.0, 31.0], [110.0, 111.0], [12.5, 3.25])
    index = SidIndex({"a": Sid(0, 0, 1), "b": Sid(1, 0, 0)})
    return CodebookArtifact(cfg, layers, None, geo_third, index)


def _saved_with_header(tmp_path, edit):
    """The tiny artifact saved with ``edit`` applied to its JSON header, and
    the checksum recomputed, so that only the header entry is wrong."""
    path = tmp_path / "cb.bin"
    save_codebook(_tiny_artifact(), path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + header_len])
    edit(header)
    header_bytes = json.dumps(header).encode()
    body = raw[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes
    body += raw[16 + header_len : -8]
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    return path


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
            from_mapping.config, from_mapping.layers, None, from_mapping.geo_third, index
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
        path = _saved_with_header(tmp_path, lambda header: header.update(assignments=rows))
        with pytest.raises(CodebookFormatError, match=match):
            load_codebook(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda h: h.pop("assignments"), r"malformed header \(missing 'assignments'\)"),
            (lambda h: h.update(geo_third={}), "must be lists"),
            (lambda h: h["layers"][0].pop("k"), r"layer 1 spec .*missing 'k'"),
            (lambda h: h["layers"][1].update(k=2.0), "layer 2 spec .*positive integers"),
            (lambda h: h["layers"][2].update(metric="manhattan"), "layer 3: unknown metric"),
            (lambda h: h["assignments"].__setitem__(1, 7), r"\[id, j1, j2, j3\] rows \(row 1: 7\)"),
            (lambda h: h["assignments"].__setitem__(1, [0, 1, 0, 0]), "row 1: POI id must be a non-empty string"),
            (lambda h: h["assignments"].__setitem__(0, ["", 0, 0, 1]), "row 0: POI id must be a non-empty string"),
            (lambda h: h["assignments"].__setitem__(1, ["b", "1", 0, 0]), "bad SID assignments .*integer"),
            (lambda h: h["geo_third"].__setitem__(1, [1, 31.0, 111.0]), r"geo_third row 1 .*5 fields"),
            (lambda h: h["geo_third"][0].__setitem__(4, -2.0), "geo_third row 0 .*positive"),
            (lambda h: h["geo_third"][0].__setitem__(2, "north"), "geo_third row 0 "),
            (lambda h: h.update(geo_second=[[0, 95.0, 10.0, 1.0]]), "geo_second row 0 .*latitude"),
            (lambda h: h.update(geo_third=[[0, 5, 30.0, 110.0, 1.0]]), "inconsistent artifact .*outside"),
            (lambda h: h["geo_third"].append([0, 0, 30.0, 110.0, 999.0]), r"geo_third row 2 cell \(0, 0\): repeats row 0"),
            (lambda h: h["geo_third"][0].__setitem__(0, 0.9), r"geo_third row 0 \[0\.9, .*integer cell codes"),
            (lambda h: h["geo_third"][1].__setitem__(1, "0"), r"geo_third row 1 .*integer cell codes"),
            (lambda h: h["geo_third"][1].__setitem__(4, True), r"geo_third row 1 .*d_scale_km"),
            (lambda h: h["geo_third"][0].__setitem__(3, None), r"geo_third row 0 .*d_scale_km"),
            (lambda h: h["geo_third"][0].__setitem__(3, float("inf")), r"geo_third row 0 cell \(0, 0\): .*longitude"),
            (lambda h: h["geo_third"][1].__setitem__(0, 2**64), r"geo_third row 1 .*integer cell codes"),
            (lambda h: h["geo_third"][1].__setitem__(0, -1), r"geo_third row 1 cell \(-1, 0\): negative"),
            (lambda h: h["config"].update(d_scale_km=True), r"malformed header \(config d_scale_km must be a number"),
        ],
    )
    def test_malformed_header_entry_named(self, tmp_path, edit, match):
        # checksum-valid files whose header is wrong in one entry
        path = _saved_with_header(tmp_path, edit)
        with pytest.raises(CodebookFormatError, match=match) as info:
            load_codebook(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_dimension_consistency_enforced(self):
        cfg = TrainConfig(layer_sizes=(2, 2, 2), seed=1)
        layers = (
            CodebookLayer(centroids=np.eye(2)),
            CodebookLayer(centroids=np.eye(2)),
            CodebookLayer(centroids=np.eye(2)),  # should be 8-dim for full pro_geo
        )
        with pytest.raises(ValueError, match="layer-3"):
            CodebookArtifact(cfg, layers, None, None, SidIndex({"a": Sid(0, 0, 0)}))

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


class TestFrameTable:
    def _table(self):
        # rows out of cell order; the table sorts them
        return FrameTable(np.array([[1, 0], [0, 1]]), [31.0, 30.0], [190.0, 110.0], [3.25, 12.5])

    def test_columns_sorted_wrapped_and_read_only(self):
        table = self._table()
        assert table.codes.tolist() == [[0, 1], [1, 0]]
        assert table.lat.tolist() == [30.0, 31.0]
        assert table.lon.tolist() == [110.0, -170.0]
        assert table.scale.tolist() == [12.5, 3.25]
        assert len(table) == 2
        assert table == FrameTable(np.array([[0, 1], [1, 0]]), [30.0, 31.0], [110.0, -170.0], [12.5, 3.25])
        assert table != FrameTable(np.array([[0, 1]]), [30.0], [110.0], [12.5])
        with pytest.raises(ValueError):
            table.scale[0] = 1.0

    def test_membership_never_aliases(self):
        table = self._table()
        # packed as j1 * 2 + j2, (0, 2) and (1, 0) would share a key
        assert (1, 0) in table and (0, 1) in table
        assert (0, 2) not in table and (0, 0) not in table
        assert 0 not in table and (1, 0, 0) not in table
        assert np.int64(3) in FrameTable(np.array([[3]]), [1.0], [2.0], [1.0])

    def test_polar_gives_unknown_cells_the_neutral_frame(self):
        table = self._table()
        codes = np.array([[1, 0], [0, 2], [0, 1], [5, 0]])
        lat, lon = np.full(4, 30.5), np.full(4, 110.5)
        d_km, sigma, scale = table.polar(codes, lat, lon)
        assert scale.tolist() == [3.25, 1.0, 12.5, 1.0]
        assert d_km[1] == d_km[3] == sigma[1] == sigma[3] == 0.0
        assert d_km[0] > 0.0 and d_km[2] > 0.0

    @pytest.mark.parametrize(
        "codes, lat, lon, scale, match",
        [
            ([[0, 0], [-1, 0]], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], r"row 1 cell \(-1, 0\): negative"),
            ([[0, 0], [0, 1]], [0.0, 91.0], [0.0, 0.0], [1.0, 1.0], r"row 1 cell \(0, 1\): invalid latitude"),
            ([[0, 0], [0, 1]], [0.0, 0.0], [np.nan, 0.0], [1.0, 1.0], r"row 0 cell \(0, 0\): .*longitude"),
            ([[0, 0], [0, 1]], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], r"row 1 cell \(0, 1\): d_scale_km"),
            ([[0, 1], [0, 0], [0, 1]], [0.0] * 3, [0.0] * 3, [1.0] * 3, r"row 2 cell \(0, 1\): repeats row 0"),
            ([[0, 0], [0, 1]], [0.0], [0.0, 0.0], [1.0, 1.0], "C-row columns"),
            ([0, 1], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0], r"\(C, 1\) or \(C, 2\)"),
        ],
    )
    def test_invalid_rows_named(self, codes, lat, lon, scale, match):
        with pytest.raises(ValueError, match=match):
            FrameTable(np.array(codes), lat, lon, scale)


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
