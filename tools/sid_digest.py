"""Print one SHA-256 over everything a training run and its replay emit.

For every variant, every ``rope_layer`` placement and every seed, the
script trains on a row-permuted ``generate_synthetic`` corpus, saves the
codebook, then replays the saved file on the corpus in 256-POI batches of
``PoiRecord``s, the serving shape. One more case trains pro_geo at
K=64/64/64 on a larger corpus, whose level inputs span several distance
blocks and end in a folded tail. The digest covers, per case, the saved
codebook bytes, the report and the replayed SIDs.

Two builds print the same digest exactly when they produce the same bits
on these cases, so the digest proves a "same bits" refactor, and two runs
under different BLAS thread counts (``OPENBLAS_NUM_THREADS=1``) check that
the thread count changes no bit. A digest is only comparable on one
machine and numpy/BLAS build: BLAS kernels differ by CPU.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from geosid.data_io import SynthConfig, generate_synthetic, load_codebook, save_codebook  # noqa: E402
from geosid.pipeline import assign_with_codebook, run  # noqa: E402
from geosid.quantizer import ROPE_LAYERS, VARIANTS, TrainConfig  # noqa: E402

# 12 x 250 = 3,000 POIs: large enough that OpenBLAS splits the k-means
# products across threads when it may, so the thread-count check means
# something
CLUSTERS = 12
PER_CLUSTER = 250
DIM = 32
LAYER_SIZES = (8, 16, 8)
MAX_ITERS = 20
SEEDS = (1, 11)
CORPUS_SEED = 3
BATCH = 256
# 21 x 500 = 10,500 POIs: at K=64 a distance block holds 2,048 rows, so each
# level walks five blocks and folds a 260-row tail into the last
BLOCKED_CLUSTERS = 21
BLOCKED_PER_CLUSTER = 500
BLOCKED_LAYER_SIZES = (64, 64, 64)


def _corpus(clusters: int, per_cluster: int):
    pois, emb = generate_synthetic(
        SynthConfig(
            n_semantic_clusters=clusters,
            pois_per_cluster=per_cluster,
            geo_subclusters_per_semantic=3,
            embedding_dim=DIM,
            seed=CORPUS_SEED,
        )
    )
    order = np.random.default_rng(CORPUS_SEED).permutation(len(pois))
    return [pois[i] for i in order], emb[order]


def _case_digest(pois, emb, cfg: TrainConfig, path: Path) -> str:
    result = run(pois, emb, cfg)
    save_codebook(result.artifact, path)
    artifact = load_codebook(path)
    h = hashlib.sha256(path.read_bytes())
    h.update(json.dumps(result.report.as_dict(), sort_keys=True).encode())
    for start in range(0, len(pois), BATCH):
        sids = assign_with_codebook(artifact, pois[start : start + BATCH], emb[start : start + BATCH])
        h.update("".join(f"{pid} {sid}\n" for pid, sid in sids.items()).encode())
    return h.hexdigest()


def main() -> int:
    pois, emb = _corpus(CLUSTERS, PER_CLUSTER)
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "codebook.bin"
        for variant in VARIANTS:
            for rope_layer in ROPE_LAYERS:
                for seed in SEEDS:
                    cfg = TrainConfig(
                        layer_sizes=LAYER_SIZES, max_iters=MAX_ITERS, seed=seed,
                        variant=variant, rope_layer=rope_layer,
                    )
                    total.update(_case_digest(pois, emb, cfg, path).encode())
        pois, emb = _corpus(BLOCKED_CLUSTERS, BLOCKED_PER_CLUSTER)
        cfg = TrainConfig(layer_sizes=BLOCKED_LAYER_SIZES, max_iters=MAX_ITERS, seed=SEEDS[0])
        total.update(_case_digest(pois, emb, cfg, path).encode())
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
