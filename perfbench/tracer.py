"""Spans around geosid's public calls, recorded from outside the package.

``Tracer.install`` replaces each name a geosid module calls (for example
``geosid.pipeline.to_local_polar``, the binding pipeline looks up at call
time) with a wrapper that records one span: name, start, end, parent span
and operation id. ``uninstall`` puts the original objects back, so
untraced operations run the unmodified package.

Parents come from a per-thread stack. A thread whose stack is empty (a
``compare`` pool worker) takes the innermost open span of the thread that
installed the tracer as its parent, which links each pooled ``run`` to its
``compare``. Spans stay in per-thread typed arrays and are merged and
written once, at the end.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

import geosid.data_io
import geosid.geo
import geosid.metrics
import geosid.pipeline
import geosid.quantizer
import geosid.sid

_F8 = 8  # bytes per float64

# (module whose binding is replaced, attribute, span name). A function
# imported into several modules is wrapped in each of them under one name.
TARGETS = (
    (geosid.quantizer, "kmeans_plus_plus_init", "quantizer.kmeans_plus_plus_init"),
    (geosid.quantizer, "kmeans_train", "quantizer.kmeans_train"),
    (geosid.pipeline, "assign", "quantizer.assign"),
    (geosid.pipeline, "next_residuals", "quantizer.next_residuals"),
    (geosid.quantizer, "next_residuals", "quantizer.next_residuals"),
    (geosid.quantizer, "normalize_geo_batch", "georope.normalize_geo_batch"),
    (geosid.quantizer, "build_geo_vector", "georope.build_geo_vector"),
    (geosid.pipeline, "to_local_polar", "geo.to_local_polar"),
    (geosid.pipeline, "geo_centroid", "geo.geo_centroid"),
    (geosid.metrics, "geo_centroid", "geo.geo_centroid"),
    (geosid.geo, "haversine_km", "geo.haversine_km"),
    (geosid.metrics, "haversine_km", "geo.haversine_km"),
    (geosid.sid, "haversine_km", "geo.haversine_km"),
    (geosid.pipeline, "assemble", "sid.assemble"),
    (geosid.sid.SidIndex, "__init__", "sid.SidIndex"),
    (geosid.pipeline, "build_quant_report", "metrics.build_quant_report"),
    (geosid.pipeline, "run", "pipeline.run"),
    (geosid.pipeline, "assign_with_codebook", "pipeline.assign_with_codebook"),
    (geosid.pipeline, "compare", "pipeline.compare"),
    (geosid.pipeline, "resolve_worker_count", "pipeline.resolve_worker_count"),
    (geosid.data_io, "generate_synthetic", "data_io.generate_synthetic"),
    (geosid.data_io, "save_corpus", "data_io.save_corpus"),
    (geosid.data_io, "load_corpus", "data_io.load_corpus"),
    (geosid.data_io, "save_codebook", "data_io.save_codebook"),
    (geosid.data_io, "load_codebook", "data_io.load_codebook"),
)


def _layer_of(seed) -> int:
    """Layer index 1..3 from the [cfg.seed, level] seeding convention."""
    try:
        return int(seed[1]) + 1
    except (TypeError, IndexError):
        return 0


class Tracer:
    """Span recorder plus the counters that are derived from call arguments
    and results (iterations, computed bytes, neutral frames)."""

    def __init__(self) -> None:
        self.names: list[str] = sorted({name for _, _, name in TARGETS})
        self._name_idx = {name: i for i, name in enumerate(self.names)}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[dict[str, array]] = []
        self._buffers_lock = threading.Lock()
        self._counts_lock = threading.Lock()
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op = -1
        self._originals: list[tuple[object, str, object]] = []
        self._main_stack: list[int] | None = None
        self._hooks = {
            "quantizer.kmeans_plus_plus_init": self._on_seed,
            "quantizer.kmeans_train": self._on_kmeans,
            "quantizer.assign": self._on_assign,
            "georope.build_geo_vector": self._on_enhanced,
            "pipeline.resolve_worker_count": self._on_workers,
            "pipeline.assign_with_codebook": self._on_assigned,
            "data_io.load_corpus": self._on_corpus,
            "data_io.save_codebook": self._on_codebook,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._stack()
        for owner, attr, name in TARGETS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            buf = {
                "id": array("q"),
                "name": array("i"),
                "start": array("d"),
                "end": array("d"),
                "parent": array("q"),
                "op": array("i"),
                "thread": array("q"),
            }
            with self._buffers_lock:
                self._buffers.append(buf)
            self._local.buf = buf
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, name: str):
        tracer = self
        name_idx = self._name_idx[name]
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            stack = tracer._stack()
            buf = tracer._local.buf
            span = next(tracer._ids)
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else -1
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buf["id"].append(span)
                buf["name"].append(name_idx)
                buf["start"].append(start)
                buf["end"].append(end)
                buf["parent"].append(parent)
                buf["op"].append(tracer.op)
                buf["thread"].append(threading.get_ident())
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- counters derived from arguments and results ------------------------

    def _add(self, key: str, value: float) -> None:
        with self._counts_lock:
            self.counts[(self.op, key)] += value

    def _on_seed(self, args, kwargs, centers) -> None:
        # one (N, 1) distance column per chosen center
        self._add("quantizer.distance_bytes", args[0].shape[0] * centers.shape[0] * _F8)

    def _on_kmeans(self, args, kwargs, result) -> None:
        n, k = args[0].shape[0], result.layer.k
        # converged runs record one objective per iteration after the first;
        # runs that hit max_iters append one final objective
        unconverged = len(result.objective_history) == result.n_iters
        passes = result.n_iters + int(unconverged)
        layer = _layer_of(kwargs.get("seed", args[3] if len(args) > 3 else 0))
        self._add("quantizer.distance_bytes", n * k * _F8 * passes)
        self._add(f"quantizer.lloyd_iters.l{layer}", result.n_iters)
        self._add(f"quantizer.kmeans_calls.l{layer}", 1)
        self._add("quantizer.unconverged_layers", int(unconverged))

    def _on_assign(self, args, kwargs, labels) -> None:
        rows = np.atleast_2d(args[0]).shape[0]
        self._add("quantizer.distance_bytes", rows * args[1].k * _F8)

    def _on_enhanced(self, args, kwargs, out) -> None:
        self._add("georope.enhanced_bytes", out.nbytes)

    def _on_workers(self, args, kwargs, workers) -> None:
        self._add("pipeline.compare.workers", workers)

    def _on_assigned(self, args, kwargs, sids) -> None:
        artifact = args[0]
        cfg = artifact.config
        if not cfg.uses_geo:
            return
        if cfg.rope_layer == "second":
            missing = sum(sid.j1 not in artifact.geo_second for sid in sids.values())
        else:
            missing = sum((sid.j1, sid.j2) not in artifact.geo_third for sid in sids.values())
        self._add("pipeline.neutral_frames", missing)

    def _on_corpus(self, args, kwargs, result) -> None:
        self._add("data_io.corpus_bytes", sum(os.path.getsize(p) for p in args[:2]))

    def _on_codebook(self, args, kwargs, result) -> None:
        self._add("data_io.codebook_bytes", os.path.getsize(args[1]))

    # -- output -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All recorded spans as columns, ordered by span id."""
        with self._buffers_lock:
            bufs = list(self._buffers)
        cols = {
            key: np.concatenate([np.frombuffer(b[key], dtype=b[key].typecode) for b in bufs])
            for key in ("id", "name", "start", "end", "parent", "op", "thread")
        }
        order = np.argsort(cols["id"], kind="stable")
        return {key: col[order] for key, col in cols.items()}

    def write(self, path: str) -> int:
        cols = self.spans()
        np.savez(path, names=np.array(self.names), **cols)
        return int(cols["id"].size)


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Span duration minus the part of it covered by child spans.

    Children on the parent's own thread never overlap, so their durations
    add; children on other threads (pooled runs under ``compare``) may
    overlap and are merged into a union of intervals first.
    """
    dur = cols["end"] - cols["start"]
    out = dur.copy()
    if not np.array_equal(cols["id"], np.arange(dur.size)):
        raise ValueError("span ids must be 0..n-1 in order (every opened span is recorded)")
    child_idx = np.nonzero(cols["parent"] >= 0)[0]
    p_idx = cols["parent"][child_idx]
    same = cols["thread"][child_idx] == cols["thread"][p_idx]
    out -= np.bincount(p_idx[same], weights=dur[child_idx[same]], minlength=dur.size)
    cross: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for c, p in zip(child_idx[~same], p_idx[~same]):
        cross[int(p)].append((cols["start"][c], cols["end"][c]))
    for p, intervals in cross.items():
        covered, cur_start, cur_end = 0.0, None, None
        for s, e in sorted(intervals):
            s, e = max(s, cols["start"][p]), min(e, cols["end"][p])
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[p] -= covered
    return out
