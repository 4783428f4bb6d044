"""What the benchmark measures: workloads, metrics, and which layer metric
should move which end-to-end metric.

``BENCHMARK.json`` at the repository root repeats the workloads and the
end-to-end and per-layer metrics in the format benchmark runners read; ``smoke.py``
checks that the two agree. The layer map and the unmeasured modules live
only here because ``BENCHMARK.json`` has a fixed set of keys.
"""

from __future__ import annotations

WORKLOADS = {
    "train_dense": (
        "repeated train jobs (load_corpus, run, save_codebook) on 10k POIs with K=64/64/64; "
        "quantizer k-means is over 90% of the time"
    ),
    "assign_stream": (
        "a saved artifact replayed on seeded shuffled 256-POI batches of its 10k corpus; "
        "per-POI geo/sid code and quantizer.assign dominate, no Lloyd iterations in the loop"
    ),
    "ablation_compare": (
        "repeated compare over all 5 variants on 20k POIs with M=16, K=8/16/8; "
        "the only workload using the compare thread pool and the non-rotary variants"
    ),
}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "train_pois_per_s": ("1/s", "higher", 0.25),
    "assign_pois_per_s": ("1/s", "higher", 0.25),
    "assign_batch_ms.p50": ("ms", "lower", 0.25),
    "assign_batch_ms.p95": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "avg_dist_km": ("km", "lower", 0.25),
    "replay_agree_frac": ("ratio", "higher", 0.06),
}

# name -> (unit, better, end-to-end metrics it should move)
PER_LAYER = {
    "quantizer.seed_s": ("s", "lower", "train_pois_per_s on train_dense, then ablation_compare"),
    "quantizer.lloyd_s": ("s", "lower", "train_pois_per_s on train_dense, then ablation_compare"),
    "quantizer.lloyd_iters.l1": ("count", "lower", "train_pois_per_s on train_dense, then ablation_compare"),
    "quantizer.lloyd_iters.l2": ("count", "lower", "train_pois_per_s on train_dense, then ablation_compare"),
    "quantizer.lloyd_iters.l3": ("count", "lower", "train_pois_per_s on train_dense, then ablation_compare"),
    "quantizer.unconverged_layers": ("count", "lower", "replay_agree_frac"),
    "quantizer.distance_bytes": ("bytes", "lower", "peak_rss_mb"),
    "quantizer.assign_s": ("s", "lower", "assign_pois_per_s and assign_batch_ms.* on assign_stream"),
    "quantizer.next_residuals_s": ("s", "lower", "assign_pois_per_s and assign_batch_ms.* on assign_stream"),
    "georope.build_geo_vector_s": ("s", "lower", "assign_pois_per_s on assign_stream"),
    "georope.normalize_geo_batch_s": ("s", "lower", "assign_pois_per_s on assign_stream"),
    "georope.enhanced_bytes": ("bytes", "lower", "layer-3 k-means input size on train_dense"),
    "geo.to_local_polar.calls": ("count", "lower", "assign_pois_per_s on assign_stream, train_pois_per_s on ablation_compare"),
    "geo.to_local_polar_s": ("s", "lower", "assign_pois_per_s on assign_stream, train_pois_per_s on ablation_compare"),
    "geo.geo_centroid.calls": ("count", "lower", "assign_pois_per_s on assign_stream, train_pois_per_s on ablation_compare"),
    "geo.geo_centroid_s": ("s", "lower", "assign_pois_per_s on assign_stream, train_pois_per_s on ablation_compare"),
    "geo.haversine_km.calls": ("count", "lower", "assign_pois_per_s on assign_stream, train_pois_per_s on ablation_compare"),
    "sid.assemble.calls": ("count", "lower", "assign_stream, then ablation_compare"),
    "sid.assemble_s": ("s", "lower", "assign_stream, then ablation_compare"),
    "sid.SidIndex_s": ("s", "lower", "assign_stream, then ablation_compare"),
    "metrics.build_quant_report_s": ("s", "lower", "train_pois_per_s on ablation_compare"),
    "pipeline.run.self_s": ("s", "lower", "train_pois_per_s"),
    "pipeline.assign_with_codebook.self_s": ("s", "lower", "assign_pois_per_s on assign_stream"),
    "pipeline.compare.workers": ("count", "higher", "train_pois_per_s on ablation_compare"),
    "pipeline.compare.busy_frac": ("ratio", "higher", "train_pois_per_s on ablation_compare only"),
    "pipeline.neutral_frames": ("count", "lower", "replay_agree_frac"),
    "data_io.load_corpus_s": ("s", "lower", "train_pois_per_s"),
    "data_io.save_codebook_s": ("s", "lower", "train_pois_per_s"),
    "data_io.load_codebook_s": ("s", "lower", "setup_s on assign_stream"),
    "data_io.corpus_bytes": ("bytes", "lower", "peak_rss_mb"),
    "data_io.codebook_bytes": ("bytes", "lower", "peak_rss_mb"),
    "setup.quantizer.seed_s": ("s", "lower", "setup_s and train_pois_per_s on assign_stream"),
    "setup.quantizer.lloyd_s": ("s", "lower", "setup_s and train_pois_per_s on assign_stream"),
    "setup.quantizer.unconverged_layers": ("count", "lower", "replay_agree_frac on assign_stream"),
    "setup.data_io.generate_synthetic_s": ("s", "lower", "setup_s"),
    "setup.data_io.save_corpus_s": ("s", "lower", "setup_s"),
    "setup.data_io.load_corpus_s": ("s", "lower", "setup_s on assign_stream"),
    "setup.data_io.save_codebook_s": ("s", "lower", "setup_s on assign_stream"),
    "setup.data_io.load_codebook_s": ("s", "lower", "setup_s on assign_stream"),
    "metrics.cur": ("ratio", "higher", "none: codebook utilization of the pro_geo codebook, a quality guard"),
    "metrics.icr": ("ratio", "higher", "none: collision-free POI share of the pro_geo codebook, a quality guard"),
    "trace.overhead_frac": ("ratio", "lower", "none: traced over untraced operation time, minus 1"),
    "trace.overhead_ms": ("ms", "lower", "none: traced minus untraced time per operation"),
    "trace.spans": ("count", "lower", "none: spans recorded per traced operation"),
}

# Package modules that are not measured, with the reason.
UNMEASURED = {
    "cli": "only parses arguments and formats output around the same public calls",
}
