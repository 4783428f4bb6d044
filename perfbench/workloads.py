"""The three workloads: single-process, single-threaded closed loops over
geosid's public API.

Every workload builds its inputs from ``generate_synthetic`` with the run's
seed, sets up ``setup_reps`` times (``setup_s`` is the median), then runs
operations back to back until ``seconds`` have passed, checking each
operation's output. Workloads whose loop trains (``train_dense``,
``ablation_compare``) replay their pro_geo artifact for one pass over the
corpus after each operation (at least ``probe_batches`` batches in all),
so that every workload reports every end-to-end metric, sampled across
the whole run; on ``assign_stream`` the replay is the loop itself and
training is its set-up.

A traced run sets up once with tracing on, then alternates untraced and
traced operations: the per-layer metrics come from the traced ones, the
tracing overhead from comparing the two halves.

Program calls go through module attributes (``gp.run``, not a bound name)
so that the tracer's wrappers are the functions called.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import geosid.data_io as gd
import geosid.pipeline as gp
from geosid.quantizer import VARIANT_PRO_GEO, VARIANTS, TrainConfig

from tracer import Tracer, self_times


@dataclass(frozen=True)
class Sizes:
    """Corpus shape and loop sizes of one workload."""

    clusters: int
    per_cluster: int
    dim: int
    layer_sizes: tuple[int, int, int]
    max_iters: int
    setup_reps: int = 3
    batch: int = 256
    probe_batches: int = 200


GEO_SUBCLUSTERS = 3  # geographic sub-clusters per semantic cluster
TRAIN_FRAC = 0.9  # assign_stream trains on this share of its corpus


FULL = {
    "train_dense": Sizes(
        clusters=32, per_cluster=320, dim=64, layer_sizes=(64, 64, 64), max_iters=20, setup_reps=5
    ),
    "assign_stream": Sizes(clusters=32, per_cluster=320, dim=64, layer_sizes=(64, 64, 64), max_iters=20),
    "ablation_compare": Sizes(
        clusters=10, per_cluster=2000, dim=16, layer_sizes=(8, 16, 8), max_iters=10, setup_reps=5
    ),
}


class CheckFailed(Exception):
    """An operation returned output that is not correct."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_sids(sids: dict, ids: list[str], layer_sizes: tuple[int, int, int]) -> None:
    """One SID per input POI, each index within its layer size."""
    _check(len(sids) == len(ids) and set(sids) == set(ids), f"{len(sids)} SIDs for {len(ids)} POIs")
    k1, k2, k3 = layer_sizes
    for pid, sid in sids.items():
        _check(0 <= sid.j1 < k1 and 0 <= sid.j2 < k2 and 0 <= sid.j3 < k3, f"{pid}: SID {sid} out of range")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _files_digest(*paths: Path) -> str:
    return _sha(b"".join(Path(p).read_bytes() for p in paths))


def _rows_digest(rows) -> str:
    return _sha(json.dumps([[label, rep.as_dict()] for label, rep in rows]).encode())


def _sids_digest(sids: dict) -> str:
    return _sha(json.dumps([[pid, str(sids[pid])] for pid in sorted(sids)]).encode())


class Context:
    """One benchmark run: seed, time budget, files, the ledger of attempted
    and failed operations, and (for traced runs) the tracer."""

    def __init__(self, sizes: Sizes, seed: int, seconds: float, trace: bool, workdir: Path):
        self.sizes = sizes
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.info: dict[str, object] = {}
        self.report = None  # QuantReport of the workload's pro_geo codebook
        self.tracer = Tracer() if trace else None
        self.setup_ops: list[int] = []
        self.op_times = {True: [], False: []}  # traced? -> loop operation seconds
        self.traced_ops: list[int] = []
        self._next_op = 0
        self.poi_path = workdir / "poi.jsonl"
        self.emb_path = workdir / "embeddings.bin"
        self.codebook_path = workdir / "codebook.gscb"

    @property
    def setup_reps(self) -> int:
        return 1 if self.trace else self.sizes.setup_reps

    def synth_config(self) -> gd.SynthConfig:
        s = self.sizes
        return gd.SynthConfig(
            n_semantic_clusters=s.clusters,
            pois_per_cluster=s.per_cluster,
            geo_subclusters_per_semantic=GEO_SUBCLUSTERS,
            embedding_dim=s.dim,
            seed=self.seed,
        )

    def train_config(self, variant: str = VARIANT_PRO_GEO) -> TrainConfig:
        s = self.sizes
        return TrainConfig(layer_sizes=s.layer_sizes, max_iters=s.max_iters, seed=self.seed, variant=variant)

    def attempt(self, label: str, fn) -> None:
        """Run one checked operation; any exception counts as a failure."""
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def same_digest(self, key: str, digest: str) -> None:
        first = self.digests.setdefault(key, digest)
        _check(digest == first, f"{key} digest {digest} != first {first}")

    @contextmanager
    def operation(self, traced: bool):
        """Give the operation an id; trace it when asked."""
        op = self._next_op
        self._next_op += 1
        if traced:
            self.tracer.op = op
            self.tracer.install()
        try:
            yield op
        finally:
            if traced:
                self.tracer.uninstall()

    def setup(self, body) -> list[float]:
        """Run the set-up ``setup_reps`` times (traced once in a traced run);
        returns each repetition's seconds."""
        times = []
        for rep in range(self.setup_reps):
            with self.operation(self.trace) as op:
                self.setup_ops.append(op)
                t0 = perf_counter()
                check = body()
                times.append(perf_counter() - t0)
            self.attempt(f"setup {rep}", check)
        return times

    def loop(self, body, between=None) -> None:
        """Closed loop until the time budget is spent. ``body()`` runs one
        operation, returns its seconds and a check to run untimed;
        ``between()`` runs after each operation of an untraced run. A traced
        run alternates untraced and traced operations."""
        deadline = perf_counter() + self.seconds
        count = 0
        while count < (2 if self.trace else 1) or perf_counter() < deadline:
            traced = self.trace and count % 2 == 1
            with self.operation(traced) as op:
                if traced:
                    self.traced_ops.append(op)
                try:
                    seconds, check = body()
                except Exception as exc:
                    seconds, check = None, _raiser(exc)
            if seconds is not None:
                self.op_times[traced].append(seconds)
            self.attempt(f"op {op}", check)
            count += 1
            if between is not None and not self.trace:
                between()


def _raiser(exc: Exception):
    def check():
        raise exc

    return check


# ---------------------------------------------------------------------------
# replay stream: the assign_stream loop and the probe of the other workloads


class Stream:
    """Seeded shuffled batches over a corpus, replayed through an artifact.

    Each pass over the corpus is a fresh permutation. A POI must get the
    same SID every time it is replayed within the run; the first SID it
    gets is compared with the artifact's stored SID for training rows.

    The reported p50 is the median batch latency of each pass, averaged
    over passes weighted by their batch count. On a shared machine whose
    speed switches between two levels every few seconds, the median of
    the whole run jumps to whichever level held most of the run; a pass
    (about 0.2 s) sits inside one level, so averaging pass medians follows
    the time share of each level as a mean does.
    """

    def __init__(self, ctx: Context, artifact, pois, emb):
        self.ctx = ctx
        self.artifact = artifact
        self.pois = pois
        self.emb = emb
        self.stored = artifact.sid_index.assignments
        self.rng = np.random.default_rng([ctx.seed, 2])
        self.order = np.empty(0, dtype=np.int64)
        self.pos = 0
        self.first: dict = {}
        self.agree = 0
        self.times: list[float] = []
        self.pass_times: list[list[float]] = []
        self.assigned = 0

    def next_batch(self) -> np.ndarray:
        if self.pos >= self.order.size:
            self.order = self.rng.permutation(len(self.pois))
            self.pos = 0
            self.pass_times.append([])
        idx = self.order[self.pos : self.pos + self.ctx.sizes.batch]
        self.pos += idx.size
        return idx

    def batch(self):
        idx = self.next_batch()
        pois = [self.pois[i] for i in idx]
        emb = self.emb[idx]
        t0 = perf_counter()
        sids = gp.assign_with_codebook(self.artifact, pois, emb)
        seconds = perf_counter() - t0
        self.times.append(seconds)
        self.pass_times[-1].append(seconds)
        self.assigned += len(sids)

        def check():
            check_sids(sids, [p.id for p in pois], self.artifact.config.layer_sizes)
            for pid, sid in sids.items():
                seen = self.first.get(pid)
                if seen is not None:
                    _check(seen == sid, f"{pid}: replayed as {sid}, earlier as {seen}")
                    continue
                self.first[pid] = sid
                if pid in self.stored:
                    self.agree += sid == self.stored[pid]

        return seconds, check

    def metrics(self) -> dict[str, float]:
        ms = np.array(self.times) * 1e3
        pass_p50 = sum(len(t) * np.median(t) for t in self.pass_times) * 1e3 / len(self.times)
        seen_training = sum(1 for pid in self.first if pid in self.stored)
        self.ctx.info.update(
            batches=len(self.times),
            passes=len(self.pass_times),
            run_p50_ms=float(np.percentile(ms, 50)),
            batches_beyond_p95=int(np.sum(ms > np.percentile(ms, 95))),
            replay_training_rows=seen_training,
            replay_mismatches=seen_training - self.agree,
        )
        self.ctx.digests["replay_sids"] = _sids_digest(self.first)
        return {
            "assign_pois_per_s": self.assigned / float(np.sum(self.times)),
            "assign_batch_ms.p50": float(pass_p50),
            "assign_batch_ms.p95": float(np.percentile(ms, 95)),
            "replay_agree_frac": self.agree / seen_training if seen_training else 0.0,
        }

    def replay(self, batches: int) -> None:
        """Probe: replay ``batches`` batches as checked operations."""
        for _ in range(batches):
            with self.ctx.operation(False) as op:
                self.ctx.attempt(f"probe {op}", lambda: self.batch()[1]())

    def replay_pass(self) -> None:
        self.replay(-(-len(self.pois) // self.ctx.sizes.batch))

    def probe_metrics(self) -> dict[str, float]:
        """Replay metrics of a training workload, topped up to
        ``probe_batches`` batches when the loop ran few passes."""
        self.replay(max(0, self.ctx.sizes.probe_batches - len(self.times)))
        return self.metrics()


# ---------------------------------------------------------------------------
# workloads; each returns its end-to-end metrics except peak_rss_mb


def _write_corpus(ctx: Context):
    """Set-up shared by all workloads: generate the seeded corpus and save
    it. Returns the check that every repetition wrote the same bytes."""
    pois, emb = gd.generate_synthetic(ctx.synth_config())
    gd.save_corpus(pois, emb, ctx.poi_path, ctx.emb_path)
    return lambda: ctx.same_digest("corpus", _files_digest(ctx.poi_path, ctx.emb_path))


def _rate(done: list[tuple[int, float]]) -> float:
    """POIs per second over (POIs, seconds) pairs."""
    return sum(n for n, _ in done) / sum(s for _, s in done)


def train_dense(ctx: Context) -> dict[str, float]:
    setup_times = ctx.setup(lambda: _write_corpus(ctx))
    cfg = ctx.train_config()
    trained: list[tuple[int, float]] = []
    probe: list[Stream] = []

    def job():
        t0 = perf_counter()
        pois, emb = gd.load_corpus(ctx.poi_path, ctx.emb_path)
        result = gp.run(pois, emb, cfg)
        gd.save_codebook(result.artifact, ctx.codebook_path)
        seconds = perf_counter() - t0
        trained.append((len(pois), seconds))
        ctx.report = result.report

        def check():
            check_sids(result.assignments, [p.id for p in pois], cfg.layer_sizes)
            ctx.same_digest("codebook", _files_digest(ctx.codebook_path))
            ctx.same_digest("report", _rows_digest([("pro_geo", result.report)]))

        return seconds, check

    def replay():
        if not probe:
            pois, emb = gd.load_corpus(ctx.poi_path, ctx.emb_path)
            probe.append(Stream(ctx, gd.load_codebook(ctx.codebook_path), pois, emb))
        probe[0].replay_pass()

    ctx.loop(job, between=replay)
    if ctx.trace:
        return {}
    return {
        "setup_s": statistics.median(setup_times),
        "train_pois_per_s": _rate(trained),
        "avg_dist_km": ctx.report.avg_dist_km,
        **probe[0].probe_metrics(),
    }


def assign_stream(ctx: Context) -> dict[str, float]:
    cfg = ctx.train_config()
    trained: list[tuple[int, float]] = []
    state = {}

    def setup():
        check_corpus = _write_corpus(ctx)
        pois, emb = gd.load_corpus(ctx.poi_path, ctx.emb_path)
        split = np.random.default_rng([ctx.seed, 1]).permutation(len(pois))
        train = np.sort(split[: int(TRAIN_FRAC * len(pois))])
        t0 = perf_counter()
        result = gp.run([pois[i] for i in train], emb[train], cfg)
        trained.append((train.size, perf_counter() - t0))
        gd.save_codebook(result.artifact, ctx.codebook_path)
        artifact = gd.load_codebook(ctx.codebook_path)
        ctx.report = result.report
        state.update(pois=pois, emb=emb, artifact=artifact)

        def check():
            check_corpus()
            check_sids(result.assignments, [pois[i].id for i in train], cfg.layer_sizes)
            _check(artifact == result.artifact, "loaded artifact differs from the trained one")
            ctx.same_digest("codebook", _files_digest(ctx.codebook_path))

        return check

    setup_times = ctx.setup(setup)
    stream = Stream(ctx, state["artifact"], state["pois"], state["emb"])
    ctx.loop(stream.batch)
    if ctx.trace:
        return {}
    ctx.info["held_out_rows"] = len(state["pois"]) - len(stream.stored)
    return {
        "setup_s": statistics.median(setup_times),
        "train_pois_per_s": _rate(trained),
        "avg_dist_km": ctx.report.avg_dist_km,
        **stream.metrics(),
    }


def ablation_compare(ctx: Context) -> dict[str, float]:
    setup_times = ctx.setup(lambda: _write_corpus(ctx))
    cfgs = [ctx.train_config(v) for v in VARIANTS]
    labels = [gp.config_label(cfg) for cfg in cfgs]
    trained: list[tuple[int, float]] = []
    corpus = {}
    probe: list[Stream] = []

    def op():
        t0 = perf_counter()
        pois, emb = gd.load_corpus(ctx.poi_path, ctx.emb_path)
        rows = gp.compare(pois, emb, cfgs)
        seconds = perf_counter() - t0
        trained.append((len(cfgs) * len(pois), seconds))
        ctx.report = rows[0][1]
        corpus.update(pois=pois, emb=emb)

        def check():
            _check([label for label, _ in rows] == labels, f"row labels {[r[0] for r in rows]}")
            for label, rep in rows:
                _check(rep.poi_count == len(pois), f"{label}: {rep.poi_count} POIs reported")
            ctx.same_digest("compare_rows", _rows_digest(rows))

        return seconds, check

    def replay():
        # the probe replays a pro_geo artifact, whose report must equal the
        # pro_geo row of compare
        if not probe:
            result = gp.run(corpus["pois"], corpus["emb"], cfgs[0])
            ctx.attempt("probe run", lambda: _check(result.report == ctx.report, "run report != compare row"))
            probe.append(Stream(ctx, result.artifact, corpus["pois"], corpus["emb"]))
        probe[0].replay_pass()

    ctx.loop(op, between=replay)
    if ctx.trace:
        return {}
    return {
        "setup_s": statistics.median(setup_times),
        "train_pois_per_s": _rate(trained),
        "avg_dist_km": ctx.report.avg_dist_km,
        **probe[0].probe_metrics(),
    }


WORKLOAD_FNS = {
    "train_dense": train_dense,
    "assign_stream": assign_stream,
    "ablation_compare": ablation_compare,
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run


def per_layer(ctx: Context) -> dict[str, float]:
    tracer = ctx.tracer
    cols = tracer.spans()
    selfs = self_times(cols)
    dur = cols["end"] - cols["start"]
    idx = {name: i for i, name in enumerate(tracer.names)}
    loop_ops = np.array(ctx.traced_ops)
    n_ops = loop_ops.size
    in_loop = np.isin(cols["op"], loop_ops)
    in_setup = np.isin(cols["op"], np.array(ctx.setup_ops))

    def mask(name, where):
        return where & (cols["name"] == idx[name])

    def total(name, where=in_loop, values=dur):
        return float(np.sum(values[mask(name, where)]))

    def calls(name):
        return float(np.count_nonzero(mask(name, in_loop)))

    def counted(key, ops):
        return sum(v for (op, k), v in tracer.counts.items() if k == key and op in ops)

    loop_set, setup_set = set(ctx.traced_ops), set(ctx.setup_ops)

    def per_call(key, calls_key):
        n = counted(calls_key, loop_set)
        return counted(key, loop_set) / n if n else 0.0

    compare_spans = np.nonzero(mask("pipeline.compare", in_loop))[0]
    busy = []
    for c in compare_spans:
        runs = (cols["parent"] == cols["id"][c]) & (cols["name"] == idx["pipeline.run"])
        workers = counted("pipeline.compare.workers", {int(cols["op"][c])})
        busy.append(float(np.sum(dur[runs])) / (dur[c] * workers))

    untraced = statistics.median(ctx.op_times[False])
    traced = statistics.median(ctx.op_times[True])
    out = {
        "quantizer.seed_s": total("quantizer.kmeans_plus_plus_init") / n_ops,
        "quantizer.lloyd_s": total("quantizer.kmeans_train", values=selfs) / n_ops,
        "quantizer.lloyd_iters.l1": per_call("quantizer.lloyd_iters.l1", "quantizer.kmeans_calls.l1"),
        "quantizer.lloyd_iters.l2": per_call("quantizer.lloyd_iters.l2", "quantizer.kmeans_calls.l2"),
        "quantizer.lloyd_iters.l3": per_call("quantizer.lloyd_iters.l3", "quantizer.kmeans_calls.l3"),
        "quantizer.unconverged_layers": counted("quantizer.unconverged_layers", loop_set) / n_ops,
        "quantizer.distance_bytes": counted("quantizer.distance_bytes", loop_set) / n_ops,
        "quantizer.assign_s": total("quantizer.assign") / n_ops,
        "quantizer.next_residuals_s": total("quantizer.next_residuals") / n_ops,
        "georope.build_geo_vector_s": total("georope.build_geo_vector") / n_ops,
        "georope.normalize_geo_batch_s": total("georope.normalize_geo_batch") / n_ops,
        "georope.enhanced_bytes": counted("georope.enhanced_bytes", loop_set) / n_ops,
        "geo.to_local_polar.calls": calls("geo.to_local_polar") / n_ops,
        "geo.to_local_polar_s": total("geo.to_local_polar") / n_ops,
        "geo.geo_centroid.calls": calls("geo.geo_centroid") / n_ops,
        "geo.geo_centroid_s": total("geo.geo_centroid") / n_ops,
        "geo.haversine_km.calls": calls("geo.haversine_km") / n_ops,
        "sid.assemble.calls": calls("sid.assemble") / n_ops,
        "sid.assemble_s": total("sid.assemble") / n_ops,
        "sid.SidIndex_s": total("sid.SidIndex") / n_ops,
        "metrics.build_quant_report_s": total("metrics.build_quant_report") / n_ops,
        "pipeline.run.self_s": total("pipeline.run", values=selfs) / n_ops,
        "pipeline.assign_with_codebook.self_s": total("pipeline.assign_with_codebook", values=selfs) / n_ops,
        "pipeline.compare.workers": (
            counted("pipeline.compare.workers", loop_set) / compare_spans.size if compare_spans.size else 0.0
        ),
        "pipeline.compare.busy_frac": statistics.fmean(busy) if busy else 0.0,
        "pipeline.neutral_frames": counted("pipeline.neutral_frames", loop_set) / n_ops,
        "data_io.load_corpus_s": total("data_io.load_corpus") / n_ops,
        "data_io.save_codebook_s": total("data_io.save_codebook") / n_ops,
        "data_io.load_codebook_s": total("data_io.load_codebook") / n_ops,
        "data_io.corpus_bytes": counted("data_io.corpus_bytes", loop_set) / n_ops,
        "data_io.codebook_bytes": counted("data_io.codebook_bytes", loop_set) / n_ops,
        "setup.quantizer.seed_s": total("quantizer.kmeans_plus_plus_init", in_setup),
        "setup.quantizer.lloyd_s": total("quantizer.kmeans_train", in_setup, selfs),
        "setup.quantizer.unconverged_layers": counted("quantizer.unconverged_layers", setup_set),
        "setup.data_io.generate_synthetic_s": total("data_io.generate_synthetic", in_setup),
        "setup.data_io.save_corpus_s": total("data_io.save_corpus", in_setup),
        "setup.data_io.load_corpus_s": total("data_io.load_corpus", in_setup),
        "setup.data_io.save_codebook_s": total("data_io.save_codebook", in_setup),
        "setup.data_io.load_codebook_s": total("data_io.load_codebook", in_setup),
        "metrics.cur": ctx.report.cur,
        "metrics.icr": ctx.report.icr,
        "trace.overhead_frac": traced / untraced - 1.0,
        "trace.overhead_ms": (traced - untraced) * 1e3,
        "trace.spans": float(np.count_nonzero(in_loop)) / n_ops,
    }
    ctx.info.update(traced_ops=int(n_ops), untraced_ops=len(ctx.op_times[False]))
    return out
