"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 -m pytest -q perfbench/smoke.py

Runs every workload once untraced and once traced and checks that every
named metric is reported with its unit, that BENCHMARK.json matches
spec.py, that corrupted program output counts as a failed operation, and
the tracer's self-time arithmetic.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run._import_geosid()

import geosid.pipeline  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from geosid.sid import Sid  # noqa: E402
from tracer import self_times  # noqa: E402

TINY = {
    "train_dense": workloads.Sizes(
        clusters=4, per_cluster=40, dim=16, layer_sizes=(4, 4, 4), max_iters=5,
        setup_reps=2, batch=32, probe_batches=12,
    ),
    "assign_stream": workloads.Sizes(
        clusters=4, per_cluster=40, dim=16, layer_sizes=(4, 4, 4), max_iters=5,
        setup_reps=2, batch=32,
    ),
    "ablation_compare": workloads.Sizes(
        clusters=4, per_cluster=40, dim=8, layer_sizes=(2, 4, 2), max_iters=3,
        setup_reps=2, batch=32, probe_batches=12,
    ),
}


def _run(name: str, trace: bool) -> dict:
    return run.run_workload(name, seed=3, seconds=0.01, trace=trace, sizes=TINY[name])


def test_benchmark_json_matches_spec():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == spec.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in spec.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_workload_reports_every_metric(name, trace):
    record = _run(name, trace)
    assert record["failures"] == []
    assert "cli" in record["unmeasured"]
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    line = run.result_line(record)
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(line["metrics"]) == set(expected)
    for metric, entry in line["metrics"].items():
        assert entry["unit"] == expected[metric][0]
        assert np.isfinite(entry["value"])
    if not trace:
        assert all(line["metrics"][m]["value"] > 0 for m in expected)


def test_corrupted_replay_counts_as_failure(monkeypatch):
    real = geosid.pipeline.assign_with_codebook

    def corrupt(artifact, pois, embeddings):
        sids = real(artifact, pois, embeddings)
        first = next(iter(sids))
        sids[first] = Sid(0, 0, artifact.config.layer_sizes[2])  # j3 out of range
        return sids

    monkeypatch.setattr(geosid.pipeline, "assign_with_codebook", corrupt)
    record = _run("assign_stream", trace=False)
    assert record["failed"] >= 1 and not record["correct"]
    assert record["failed"] <= record["attempted"]


def test_corrupted_training_counts_as_failure(monkeypatch):
    real = geosid.pipeline.run

    def drop_one(pois, embeddings, cfg):
        result = real(pois, embeddings, cfg)
        assignments = dict(result.assignments)
        assignments.pop(next(iter(assignments)))
        return dataclasses.replace(result, assignments=assignments)

    monkeypatch.setattr(geosid.pipeline, "run", drop_one)
    record = _run("train_dense", trace=False)
    assert record["failed"] >= 1 and not record["correct"]


def test_self_times_merge_overlapping_children_of_other_threads():
    # span 0 on thread 1 spans [0, 10]; spans 1 and 2 run on threads 2 and 3
    # over [1, 6] and [4, 8] (union 7); span 3 is a same-thread child of 1.
    cols = {
        "id": np.arange(4),
        "start": np.array([0.0, 1.0, 4.0, 2.0]),
        "end": np.array([10.0, 6.0, 8.0, 3.0]),
        "parent": np.array([-1, 0, 0, 1]),
        "thread": np.array([1, 2, 3, 2]),
    }
    assert np.allclose(self_times(cols), [3.0, 4.0, 4.0, 1.0])
