import hashlib
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import generate_synthetic_oracle, save_corpus_metadata_oracle

from geosid.data_io import (
    CodebookArtifact,
    CodebookFormatError,
    Corpus,
    CorpusFormatError,
    FrameTable,
    PoiRecord,
    SynthConfig,
    _codebook_blocks,
    export_geojson,
    generate_synthetic,
    load_codebook,
    load_corpus,
    save_codebook,
    save_corpus,
)
from geosid.geo import GeoPoint, haversine_km
from geosid.quantizer import ROPE_LAYERS, VARIANTS, CodebookLayer, TrainConfig, enhanced_dim
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

    def test_save_rejects_duplicate_ids(self, tmp_path):
        # a file load_corpus would reject is never written
        poi_path, emb_path = _paths(tmp_path)
        records = [PoiRecord(pid, GeoPoint(0, 0), i) for i, pid in enumerate("aab")]
        with pytest.raises(ValueError, match="^duplicate POI id 'a'$"):
            save_corpus(records, np.ones((3, 2)), poi_path, emb_path)
        assert not poi_path.exists() and not emb_path.exists()

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

    def test_equality_compares_columns(self):
        corpus = Corpus(["a", "b"], [1.0, 2.0], [3.0, 540.0], ["x", None])
        assert corpus == Corpus(["a", "b"], [1.0, 2.0], [3.0, 180.0], ["x", None])
        assert corpus != Corpus(["a", "c"], [1.0, 2.0], [3.0, 180.0], ["x", None])
        assert corpus != Corpus(["a", "b"], [1.0, 2.5], [3.0, 180.0], ["x", None])
        assert corpus != Corpus(["a", "b"], [1.0, 2.0], [3.5, 180.0], ["x", None])
        assert corpus != Corpus(["a", "b"], [1.0, 2.0], [3.0, 180.0], ["x", "y"])
        assert corpus != list(corpus)


_awkward_text = st.text(
    st.one_of(st.sampled_from(list('"\\/\x00\x1f\x7f\n\t\u00e9\u4e2d\u2028\U0001f600')), st.characters()),
    min_size=1,
    max_size=6,
)


class TestSaveCorpusFormat:
    """The metadata file is the bytes of one ``json.dumps`` per record."""

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                _awkward_text,
                st.one_of(
                    st.sampled_from([90.0, -90.0, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
                    st.floats(-90.0, 90.0),
                ),
                st.one_of(
                    st.sampled_from([180.0, -180.0, -0.0, 5e-324, -1e-310, 179.99999999999997, 1e16]),
                    st.floats(-1e6, 1e6),
                ),
                st.one_of(st.none(), _awkward_text),
            ),
            max_size=8,
            unique_by=lambda row: row[0],
        )
    )
    def test_bytes_match_per_record_json(self, tmp_path_factory, rows):
        tmp_path = tmp_path_factory.mktemp("corpus")
        records = [PoiRecord(pid, GeoPoint(lat, lon), i, cat) for i, (pid, lat, lon, cat) in enumerate(rows)]
        corpus = Corpus([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows])
        matrix = np.arange(2.0 * len(rows)).reshape(len(rows), 2)
        save_corpus_metadata_oracle(records, tmp_path / "oracle.jsonl")
        expected = (tmp_path / "oracle.jsonl").read_bytes()
        for name, pois in (("list", records), ("corpus", corpus)):
            save_corpus(pois, matrix, tmp_path / f"{name}.jsonl", tmp_path / f"{name}.bin")
            assert (tmp_path / f"{name}.jsonl").read_bytes() == expected
        assert (tmp_path / "corpus.bin").read_bytes() == (tmp_path / "list.bin").read_bytes()

    def test_traced_peak_holds_the_payload_once(self, tmp_path):
        # 10,240 POIs x 64: the float32 payload is 2.5 MiB; a file image
        # built as header + payload, hashed and then written, held it three
        # times (a 7.5 MiB peak)
        n, m = 10_240, 64
        rng = np.random.default_rng(0)
        corpus = Corpus([f"p{i:06d}" for i in range(n)], rng.uniform(-90, 90, n), rng.uniform(-180, 180, n))
        matrix = rng.standard_normal((n, m))
        tracemalloc.start()
        try:
            save_corpus(corpus, matrix, *_paths(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 4 * n * m == 2_621_440
        assert peak <= 4 * 2**20


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


def _saved_with(tmp_path, edit):
    """The tiny artifact saved, then ``edit(header, blocks)`` applied to its
    JSON header and to its binary blocks (block name -> writable array, in
    file order), and the checksum recomputed, so that only the edited
    entry or block is wrong."""
    path = tmp_path / "cb.bin"
    save_codebook(_tiny_artifact(), path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + header_len])
    blocks, offset = {}, 16 + header_len
    for name, dtype, shape in _codebook_blocks(header):
        count = math.prod(shape)
        blocks[name] = np.frombuffer(raw, dtype, count, offset).reshape(shape).copy()
        offset += blocks[name].nbytes
    assert offset == len(raw) - 8
    edit(header, blocks)
    header_bytes = json.dumps(header).encode()
    body = raw[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes
    body += b"".join(block.tobytes() for block in blocks.values())
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    return path


def _set(name, index, value):
    """An edit that sets ``blocks[name][index] = value``."""
    return lambda header, blocks: blocks[name].__setitem__(index, value)


def _drop_from(name):
    """An edit that cuts the file before the block ``name``."""

    def edit(header, blocks):
        for later in list(blocks)[list(blocks).index(name) :]:
            del blocks[later]

    return edit


def _header(edit):
    """An edit of the JSON header alone."""
    return lambda header, blocks: edit(header)


def _geo_second_row(header, blocks):
    # one j1 frame whose centre latitude is 95
    header["geo_second"] = 1
    for column, value in (("codes", [[0]]), ("lat", [95.0]), ("lon", [10.0]), ("scale", [1.0])):
        blocks[f"geo_second {column}"] = np.array(value, dtype=blocks[f"geo_second {column}"].dtype)


def _ids(ids, codes=None):
    """An edit that stores ``ids`` and, if given, ``codes`` as the SID block."""

    def edit(header, blocks):
        header["ids"] = ids
        if codes is not None:
            blocks["SID codes"] = np.array(codes, dtype="<i8").reshape(-1, 3)

    return edit


@st.composite
def _artifacts(draw):
    """Any valid artifact: every rope layer and variant, K from 1, empty
    or filled frame tables, ids with JSON-escaped and non-ASCII text."""
    cfg = TrainConfig(
        layer_sizes=tuple(draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))),
        seed=draw(st.integers(0, 2**40)),
        variant=draw(st.sampled_from(VARIANTS)),
        rope_layer=draw(st.sampled_from(ROPE_LAYERS)),
    )
    values = st.floats(-1e6, 1e6, width=32)
    layers, dim = [], 2 * draw(st.integers(1, 3))
    for level, k in enumerate(cfg.layer_sizes, start=1):
        dim = enhanced_dim(cfg, dim) if level in cfg.geo_levels else dim
        layers.append(CodebookLayer(draw(hnp.arrays(np.float64, (k, dim), elements=values)), cfg.metric))
    tables = []
    for depth in (1, 2):
        cells = st.tuples(*(st.integers(0, k - 1) for k in cfg.layer_sizes[:depth]))
        codes = draw(st.lists(cells, unique=True, max_size=4))
        rows = len(codes)
        lat = draw(st.lists(st.floats(-90.0, 90.0), min_size=rows, max_size=rows))
        lon = draw(st.lists(st.floats(-1e4, 1e4), min_size=rows, max_size=rows))
        scale = draw(st.lists(st.floats(1e-9, 1e9), min_size=rows, max_size=rows))
        tables.append(FrameTable(np.array(codes, dtype=np.int64).reshape(rows, depth), lat, lon, scale))
    ids = draw(st.lists(_awkward_text, min_size=1, max_size=6, unique=True))
    code = st.tuples(*(st.integers(0, k - 1) for k in cfg.layer_sizes))
    codes = draw(st.lists(code, min_size=len(ids), max_size=len(ids)))
    return CodebookArtifact(cfg, tuple(layers), *tables, SidIndex(ids, np.array(codes)))


class TestCodebookArtifact:
    def test_round_trip_bit_exact(self, tmp_path):
        artifact = _tiny_artifact()
        path = tmp_path / "cb.bin"
        save_codebook(artifact, path)
        loaded = load_codebook(path)
        assert loaded == artifact
        save_codebook(loaded, tmp_path / "cb2.bin")
        assert (tmp_path / "cb2.bin").read_bytes() == path.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(artifact=_artifacts())
    def test_any_artifact_round_trips(self, tmp_path_factory, artifact):
        tmp_path = tmp_path_factory.mktemp("codebook")
        save_codebook(artifact, tmp_path / "a.bin")
        loaded = load_codebook(tmp_path / "a.bin")
        assert loaded == artifact
        assert loaded.config == artifact.config
        save_codebook(loaded, tmp_path / "b.bin")
        assert (tmp_path / "b.bin").read_bytes() == (tmp_path / "a.bin").read_bytes()

    def test_file_is_header_then_little_endian_blocks(self, tmp_path):
        # the documented version-2 layout, stated here without the writer's help
        path = tmp_path / "cb.bin"
        artifact = _tiny_artifact()
        save_codebook(artifact, path)
        raw = path.read_bytes()
        assert raw[:4] == b"GSCB"
        version, header_len = struct.unpack("<IQ", raw[4:16])
        header = json.loads(raw[16 : 16 + header_len])
        assert version == header["format_version"] == 2
        assert list(header) == ["format_version", "config", "layers", "geo_second", "geo_third", "ids"]
        assert header["layers"] == [
            {"k": 2, "dim": 2, "metric": "cosine"},
            {"k": 2, "dim": 2, "metric": "cosine"},
            {"k": 2, "dim": 8, "metric": "cosine"},
        ]
        assert (header["geo_second"], header["geo_third"], header["ids"]) == (0, 2, ["a", "b"])
        blocks = [layer.centroids.astype("<f4") for layer in artifact.layers]
        blocks += [np.empty((0, 1), "<i8")] + [np.empty(0, "<f8")] * 3
        blocks += [
            np.array([[0, 0], [1, 0]], "<i8"),
            np.array([30.0, 31.0], "<f8"),
            np.array([110.0, 111.0], "<f8"),
            np.array([12.5, 3.25], "<f8"),
            np.array([[0, 0, 1], [1, 0, 0]], "<i8"),
        ]
        body = b"".join(block.tobytes() for block in blocks)
        assert raw[16 + header_len : -8] == body
        assert raw[-8:] == hashlib.sha256(raw[:-8]).digest()[:8]

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

    def test_out_of_range_sid_codes_rejected(self):
        tiny = _tiny_artifact()
        index = SidIndex(["a", "b"], np.full((2, 3), 7))
        with pytest.raises(ValueError, match=r"^POI 'a' j1=7 out of range for layer capacity 2$"):
            CodebookArtifact(tiny.config, tiny.layers, None, tiny.geo_third, index)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (_set("geo_third codes", (1, 0), -1), r"geo_third row 1 cell \(-1, 0\): negative cell code"),
            (_set("geo_third lat", 0, 95.0), r"geo_third row 0 cell \(0, 0\): invalid latitude"),
            (_set("geo_third lon", 0, np.inf), r"geo_third row 0 cell \(0, 0\): invalid latitude or longitude"),
            (_set("geo_third scale", 0, -2.0), r"geo_third row 0 cell \(0, 0\): d_scale_km must be finite"),
            (_set("geo_third scale", 1, np.nan), r"geo_third row 1 cell \(1, 0\): d_scale_km must be finite"),
            (_set("geo_third codes", 1, [0, 0]), r"geo_third row 1 cell \(0, 0\): repeats row 0"),
            (_set("geo_third codes", 1, [0, 5]), r"inconsistent artifact \(geo frame cell \(0, 5\) outside"),
            (_geo_second_row, r"geo_second row 0 cell \(0,\): invalid latitude"),
            (_set("layer 2 centroids", (0, 1), np.nan), r"layer 2: centroids contain non-finite values"),
            (_set("SID codes", (1, 2), -1), r"bad SID index \(POI 'b' j3=-1 must be non-negative\)"),
            (_set("SID codes", slice(None), 7), r"inconsistent artifact \(POI 'a' j1=7 out of range for layer capacity 2\)"),
            (_set("SID codes", (0, 2), 2), r"inconsistent artifact \(POI 'a' j3=2 out of range for layer capacity 2\)"),
            (_ids([], []), r"bad SID index \(SidIndex needs at least one assignment\)"),
            (_ids(["a", "a"]), r"bad SID index \(duplicate POI id 'a'\)"),
            (_ids(["a", 0]), r"bad SID index \(POI id 1 must be a non-empty string, got 0\)"),
            (_ids(["", "b"]), r"bad SID index \(POI id 0 must be a non-empty string, got ''\)"),
            (_ids(["a", None]), r"bad SID index \(POI id 1 must be a non-empty string, got None\)"),
            (_ids(["a", "b", "c"]), r"truncated SID codes block"),
            (_ids(["a"]), r"24 unexpected trailing bytes"),
            (lambda header, blocks: blocks.pop("SID codes"), r"truncated SID codes block"),
            (_drop_from("geo_third lat"), r"truncated geo_third lat block"),
            (_drop_from("layer 3 centroids"), r"truncated layer 3 centroids block"),
            # a count that claims more rows shifts every later block: the
            # file ends inside the last one
            (lambda header, blocks: header.update(geo_third=3), r"truncated SID codes block"),
            (lambda header, blocks: header["layers"][2].update(dim=9), r"truncated SID codes block"),
        ],
    )
    def test_bad_block_named(self, tmp_path, edit, match):
        # checksum-valid files in which one block, or the header count that
        # sizes it, is wrong
        path = _saved_with(tmp_path, edit)
        with pytest.raises(CodebookFormatError, match=match) as info:
            load_codebook(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda h: h.pop("ids"), r"malformed header \(missing 'ids'\)"),
            (lambda h: h.pop("geo_third"), r"malformed header \(missing 'geo_third'\)"),
            (lambda h: h.update(ids={"a": 0}), r"malformed header \(layers and ids must be lists\)"),
            (lambda h: h.update(layers=3), r"malformed header \(layers and ids must be lists\)"),
            (lambda h: h.update(geo_third=2.0), r"malformed header \(geo_third must be a row count, got 2\.0\)"),
            (lambda h: h.update(geo_second=-1), r"malformed header \(geo_second must be a row count, got -1\)"),
            (lambda h: h.update(geo_second=True), r"malformed header \(geo_second must be a row count, got True\)"),
            (lambda h: h["layers"][0].pop("k"), r"malformed header \(layer 1 spec .*missing 'k'"),
            (lambda h: h["layers"][1].update(k=2.0), r"malformed header \(layer 2 spec .*positive integers"),
            (lambda h: h["layers"][1].update(dim=True), r"malformed header \(layer 2 spec .*positive integers"),
            (lambda h: h["layers"][2].update(metric="manhattan"), "layer 3: unknown metric"),
            (lambda h: h["layers"][2].pop("metric"), "layer 3: missing 'metric'"),
            (lambda h: h["config"].update(d_scale_km=True), r"malformed header \(config d_scale_km must be a number"),
            (lambda h: h["config"].update(max_iters=True), r"malformed header \(config max_iters must be an integer"),
            (lambda h: h["config"].update(seed=1.5), r"malformed header \(config seed must be an integer"),
            (lambda h: h["config"].update(layer_sizes=[2.5, 2, 2]), r"malformed header \(config layer_sizes must be 3 layer sizes"),
            (lambda h: h["config"].update(tol=10**400), r"malformed header \(config tol must be a number within float range"),
            (lambda h: h["layers"][1].update(metric="euclidean"), r"inconsistent artifact \(layer 2 metric euclidean, config says cosine\)"),
            (lambda h: h["config"].update(geo_attributes=5), r"malformed header \(config geo_attributes must be a collection of attribute names"),
            (lambda h: h["config"].update(geo_attributes=[[1]]), r"malformed header \(config geo_attributes must be a collection of attribute names"),
            (lambda h: h["config"].update(geo_attributes=[1, "x"]), r"malformed header \(config geo_attributes must be a collection of attribute names"),
            (lambda h: h["config"].update(geo_attributes="sigma+"), r"malformed header \(config geo_attributes must be a collection of attribute names"),
        ],
    )
    def test_malformed_header_entry_named(self, tmp_path, edit, match):
        # checksum-valid files whose header is wrong in one entry
        path = _saved_with(tmp_path, _header(edit))
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

    def test_version_1_file_rejected(self, tmp_path):
        # a version-1 file (frames and SIDs as JSON rows) with a valid checksum
        header = json.dumps({"format_version": 1, "assignments": [["a", 0, 0, 0]]}).encode()
        body = b"GSCB" + struct.pack("<IQ", 1, len(header)) + header
        path = tmp_path / "v1.bin"
        path.write_bytes(body + hashlib.sha256(body).digest()[:8])
        with pytest.raises(CodebookFormatError, match=r"unsupported format version 1$"):
            load_codebook(path)

    def test_tampered_centroid_rejected(self, tmp_path):
        path = tmp_path / "cb.bin"
        save_codebook(_tiny_artifact(), path)
        raw = bytearray(path.read_bytes())
        (header_len,) = struct.unpack("<Q", raw[8:16])
        raw[16 + header_len] ^= 0xFF  # the first centroid block's first byte
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_semantic_clusters", True),
            ("pois_per_cluster", 2.5),
            ("geo_subclusters_per_semantic", 0),
            ("embedding_dim", 8.0),
            ("seed", -1),
            ("seed", np.bool_(True)),
            ("noise_std", math.nan),
            ("noise_std", math.inf),
            ("noise_std", "0.1"),
            ("subcluster_spread_km", math.nan),
            pytest.param("subcluster_spread_km", 10**400, id="subcluster_spread_km-10**400"),
            ("subcluster_separation_km", -math.inf),
            ("subcluster_separation_km", True),
        ],
    )
    def test_rejection_names_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            SynthConfig(**{field: value})

    def test_spread_at_most_an_arc_of_45_degrees(self):
        # anchors lie below 45N: a wider disc could reach past a pole
        edge = 6371.0 * math.pi / 4.0
        pois, _ = generate_synthetic(SynthConfig(2, 200, 2, 40.0, edge, 8, 0.005, 3))
        assert np.all(np.abs(pois.lat) <= 90.0) and pois.lat.max() > 70.0
        with pytest.raises(ValueError, match=r"^subcluster_spread_km must be <= 5003\.77"):
            SynthConfig(subcluster_spread_km=math.nextafter(edge, math.inf))

    def test_numpy_numbers_taken_as_python_numbers(self):
        cfg = SynthConfig(
            n_semantic_clusters=np.int64(2), pois_per_cluster=np.uint16(5), geo_subclusters_per_semantic=np.int8(3),
            subcluster_separation_km=np.float32(40.0), subcluster_spread_km=np.int32(2), embedding_dim=np.int64(8),
            noise_std=np.float64(0.25), seed=np.uint64(9),
        )
        plain = SynthConfig(2, 5, 3, 40.0, 2, 8, 0.25, 9)
        assert cfg == plain
        assert [type(getattr(cfg, f)) for f in ("n_semantic_clusters", "seed", "noise_std")] == [int, int, float]
        assert generate_synthetic(cfg)[0] == generate_synthetic(plain)[0]


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

    @settings(max_examples=40, deadline=None)
    @given(
        clusters=st.integers(1, 5),
        per_cluster=st.integers(1, 12),
        subclusters=st.integers(1, 4),
        wider=st.integers(0, 2),
        separation=st.sampled_from([0.0, 40.0, 333.3]),
        spread=st.sampled_from([0.0, 1.5, 25.0]),
        noise_std=st.sampled_from([0.0, 0.005, 0.3]),
        seed=st.integers(0, 2**32),
    )
    @example(clusters=3, per_cluster=1, subclusters=4, wider=0, separation=40.0, spread=1.5, noise_std=0.0, seed=0)
    @example(clusters=1, per_cluster=7, subclusters=1, wider=1, separation=0.0, spread=0.0, noise_std=0.005, seed=7)
    def test_matches_per_poi_oracle(self, clusters, per_cluster, subclusters, wider, separation, spread, noise_std, seed):
        cfg = SynthConfig(
            n_semantic_clusters=clusters, pois_per_cluster=per_cluster, geo_subclusters_per_semantic=subclusters,
            subcluster_separation_km=separation, subcluster_spread_km=spread,
            embedding_dim=max(4, clusters + 2 + clusters % 2) + 2 * wider, noise_std=noise_std, seed=seed,
        )
        corpus, matrix = generate_synthetic(cfg)
        records, expected = generate_synthetic_oracle(cfg)
        assert isinstance(corpus, Corpus)
        assert corpus.ids == [r.id for r in records]
        assert corpus.category == [r.category for r in records]
        assert _bits(corpus.lat) == _bits([r.location.lat for r in records])
        assert _bits(corpus.lon) == _bits([r.location.lon for r in records])
        assert matrix.dtype == np.float64
        assert np.array_equal(matrix.view(np.uint64), expected.view(np.uint64))
        assert list(corpus) == records

    def test_traced_peak_is_the_matrix_plus_columns(self):
        # 10,240 POIs x 64: the float64 matrix is 5 MiB; one record object
        # per POI took the traced peak to 8.9 MiB
        cfg = SynthConfig(
            n_semantic_clusters=32, pois_per_cluster=320, geo_subclusters_per_semantic=3, embedding_dim=64, seed=5
        )
        tracemalloc.start()
        try:
            generate_synthetic(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * 2**20

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
