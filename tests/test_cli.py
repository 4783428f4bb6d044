import hashlib
import json
import struct

import numpy as np
import pytest

from geosid.cli import main
from geosid.data_io import load_corpus, save_corpus


@pytest.fixture()
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    code = main(
        [
            "synth", "--seed", "7", "--out", str(out),
            "--clusters", "2", "--per-cluster", "20", "--dim", "8",
        ]
    )
    assert code == 0
    return out


def _train(corpus_dir, artifact_path, seed="7", extra=()):
    return main(
        [
            "train", "--corpus", str(corpus_dir), "--k", "2,2,4",
            "--variant", "pro_geo", "--alpha", "0.5", "--beta", "0.5",
            "--seed", seed, "--out", str(artifact_path), *extra,
        ]
    )


class TestSmokePath:
    def test_synth_then_train(self, corpus_dir, tmp_path, capsys):
        artifact = tmp_path / "cb.bin"
        assert _train(corpus_dir, artifact) == 0
        assert artifact.exists()
        out = capsys.readouterr().out
        assert "CUR" in out and "Avg. Dist." in out

    def test_report_columns(self, corpus_dir, tmp_path, capsys):
        artifact = tmp_path / "cb.bin"
        _train(corpus_dir, artifact)
        capsys.readouterr()
        assert main(["report", "--codebook", str(artifact), "--corpus", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        for column in ("CUR", "ICR", "Avg. Dist.", "p90 Dist.", "p95 Dist."):
            assert column in out

    def test_report_records_format(self, corpus_dir, tmp_path, capsys):
        artifact = tmp_path / "cb.bin"
        _train(corpus_dir, artifact)
        capsys.readouterr()
        main(["report", "--codebook", str(artifact), "--corpus", str(corpus_dir), "--format", "records"])
        record = json.loads(capsys.readouterr().out.strip())
        assert 0.0 <= record["cur"] <= 1.0

    def test_assign_lists_every_poi(self, corpus_dir, tmp_path, capsys):
        artifact = tmp_path / "cb.bin"
        _train(corpus_dir, artifact)
        capsys.readouterr()
        assert main(["assign", "--codebook", str(artifact), "--corpus", str(corpus_dir)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 40
        pid, j1, j2, j3 = lines[0].split()
        assert pid == "p000000" and all(part.isdigit() for part in (j1, j2, j3))

    def test_assign_to_file(self, corpus_dir, tmp_path):
        artifact = tmp_path / "cb.bin"
        _train(corpus_dir, artifact)
        out = tmp_path / "assignments.txt"
        code = main(["assign", "--codebook", str(artifact), "--corpus", str(corpus_dir), "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 40

    def test_synth_rejects_odd_dim(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "c"), "--dim", "7"]) == 1

    @pytest.mark.parametrize(
        "flag, field",
        [("--noise-std", "noise_std"), ("--spread-km", "subcluster_spread_km"), ("--separation-km", "subcluster_separation_km")],
    )
    def test_synth_non_finite_exits_one_writing_nothing(self, tmp_path, capsys, flag, field):
        capsys.readouterr()
        assert main(["synth", "--out", str(tmp_path / "c"), flag, "nan"]) == 1
        assert capsys.readouterr().err == f"error: {field} must be finite and >= 0, got nan\n"
        assert not (tmp_path / "c").exists()

    def test_synth_spread_past_the_poles_exits_one_writing_nothing(self, tmp_path, capsys):
        capsys.readouterr()
        argv = ["synth", "--out", str(tmp_path / "c"), "--spread-km", "100000"]
        assert main([*argv, "--clusters", "2", "--per-cluster", "5", "--dim", "8"]) == 1
        assert capsys.readouterr().err.startswith("error: subcluster_spread_km must be <= 5003.77")
        assert not (tmp_path / "c").exists()

    def test_export_geojson(self, corpus_dir, tmp_path):
        artifact = tmp_path / "cb.bin"
        _train(corpus_dir, artifact)
        out = tmp_path / "pois.geojson"
        code = main(
            ["export-geojson", "--codebook", str(artifact), "--corpus", str(corpus_dir), "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == 40

    def test_compare_table(self, corpus_dir, tmp_path, capsys):
        code = main(
            [
                "compare", "--corpus", str(corpus_dir),
                "--variants", "pro_geo,rq_kmeans_euclidean",
                "--k", "2,2,4", "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pro_geo" in out and "rq_kmeans_euclidean" in out

    def test_sweep_records(self, corpus_dir, capsys):
        code = main(
            [
                "sweep", "--corpus", str(corpus_dir), "--k", "2,2,4", "--seed", "7",
                "--grid", "0,0;0.5,0.5", "--format", "records",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["label"] == "alpha=0 beta=0"


class TestVerifyLemma:
    def test_passes_within_tolerance(self, capsys):
        assert main(["verify-lemma", "--trials", "300", "--dim", "64", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "inner_product_identity_max_rel_error" in out and "distance_shift_max_abs_error" in out

    def test_records_format(self, capsys):
        assert main(["verify-lemma", "--trials", "100", "--dim", "16", "--format", "records"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["inner_product_identity_max_rel_error"] <= 1e-9
        assert record["distance_shift_max_abs_error"] <= 1e-9

    def test_odd_dim_rejected(self, capsys):
        assert main(["verify-lemma", "--dim", "7"]) == 1


class TestDeterminism:
    def test_byte_identical_artifacts_and_reports(self, corpus_dir, tmp_path, capsys):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert _train(corpus_dir, a) == 0
        out_a = capsys.readouterr().out
        assert _train(corpus_dir, b) == 0
        out_b = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()
        assert out_a == out_b

    def test_round_trip_equality(self, corpus_dir, tmp_path):
        from geosid.data_io import load_codebook, save_codebook

        for rope in ("third", "second", "both"):
            artifact_path = tmp_path / f"cb-{rope}.bin"
            assert _train(corpus_dir, artifact_path, extra=("--rope-layer", rope)) == 0
            artifact = load_codebook(artifact_path)
            assert (len(artifact.geo_second) > 0) == (rope != "third")
            assert (len(artifact.geo_third) > 0) == (rope != "second")
            resaved = tmp_path / f"resaved-{rope}.bin"
            save_codebook(artifact, resaved)
            assert resaved.read_bytes() == artifact_path.read_bytes()
            assert load_codebook(resaved) == artifact

    @pytest.mark.parametrize("variant", ["pro_geo", "rq_kmeans_euclidean"])
    def test_report_equals_train_on_shuffled_corpus(self, corpus_dir, tmp_path, capsys, variant):
        # file order is not id order, so report must align the corpus rows
        # to the codebook's id-sorted index
        pois, embeddings = load_corpus(corpus_dir / "poi.jsonl", corpus_dir / "embeddings.bin")
        order = np.random.default_rng(3).permutation(len(pois)).tolist()
        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        save_corpus(
            [pois[i] for i in order], embeddings[order], shuffled / "poi.jsonl", shuffled / "embeddings.bin"
        )
        assert [pois.ids[i] for i in order] != sorted(pois.ids)
        location = {poi.id: [poi.location.lon, poi.location.lat] for poi in pois}
        for rope in ("third", "second", "both"):
            for fmt in ("table", "records"):
                artifact = tmp_path / f"cb-{rope}.bin"
                extra = ("--variant", variant, "--rope-layer", rope, "--format", fmt)
                assert _train(shuffled, artifact, extra=extra) == 0
                trained = capsys.readouterr().out
                report = ["report", "--codebook", str(artifact), "--corpus", str(shuffled), "--format", fmt]
                assert main(report) == 0
                assert capsys.readouterr().out == trained
            geojson = tmp_path / f"{rope}.geojson"
            export = ["export-geojson", "--codebook", str(artifact), "--corpus", str(shuffled), "--out", str(geojson)]
            assert main(export) == 0
            features = json.loads(geojson.read_text())["features"]
            assert [f["properties"]["id"] for f in features] == sorted(pois.ids)
            assert all(f["geometry"]["coordinates"] == location[f["properties"]["id"]] for f in features)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for sub in ("synth", "train", "assign", "report", "compare", "sweep", "verify-lemma", "export-geojson"):
            assert sub in out

    def test_subcommand_help_documents_flags(self, capsys):
        assert main(["train", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--corpus", "--k", "--variant", "--alpha", "--beta", "--seed", "--out",
                     "--attributes", "--rope-layer", "--max-iters", "--tol", "--d-scale-km"):
            assert flag in out

    def test_unknown_flag_prints_usage_and_exits_one(self, capsys):
        assert main(["train", "--bogus"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["report", "--codebook", str(tmp_path / "no.bin"), "--corpus", str(tmp_path)]) == 2

    def test_invalid_value_exits_one(self, corpus_dir, tmp_path):
        assert _train(corpus_dir, tmp_path / "x.bin", extra=("--tol", "-3")) == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--alpha", "nan", "alpha must be finite and >= 0, got nan"),
            ("--tol", "nan", "tol must be >= 0, got nan"),
            ("--d-scale-km", "inf", "d_scale_km must be finite and positive when given, got inf"),
        ],
    )
    def test_non_finite_value_exits_one(self, corpus_dir, tmp_path, capsys, flag, value, message):
        capsys.readouterr()
        assert _train(corpus_dir, tmp_path / "x.bin", extra=(flag, value)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.bin").exists()

    def test_bad_k_exits_one(self, corpus_dir, tmp_path):
        code = main(
            ["train", "--corpus", str(corpus_dir), "--k", "2,nope", "--out", str(tmp_path / "x.bin")]
        )
        assert code == 1

    def test_mismatched_corpus_exits_two(self, corpus_dir, tmp_path):
        other = tmp_path / "other"
        main(["synth", "--seed", "1", "--out", str(other), "--clusters", "2", "--per-cluster", "5", "--dim", "8"])
        artifact = tmp_path / "cb.bin"
        _train(corpus_dir, artifact)
        # corpus with different ids: stored assignments reference missing POIs
        assert main(["report", "--codebook", str(artifact), "--corpus", str(other)]) == 2

    def test_malformed_codebook_header_exits_two(self, corpus_dir, tmp_path, capsys):
        artifact = tmp_path / "cb.bin"
        assert _train(corpus_dir, artifact) == 0
        raw = artifact.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + header_len])
        del header["layers"][1]["k"]
        header_bytes = json.dumps(header).encode()
        body = raw[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + raw[16 + header_len : -8]
        artifact.write_bytes(body + hashlib.sha256(body).digest()[:8])  # checksum still valid
        capsys.readouterr()
        assert main(["report", "--codebook", str(artifact), "--corpus", str(corpus_dir)]) == 2
        err = capsys.readouterr().err
        assert str(artifact) in err and "layer 2 spec" in err and "missing 'k'" in err
