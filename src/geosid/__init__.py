"""Proximity-aware residual quantization for POI corpora.

Builds hierarchical semantic-geographic identifiers: two cosine residual
k-means layers over content embeddings, a per-cluster local polar frame
for each POI's coordinates, a rotary geographic encoding of the residuals,
and a third clustering layer over the enhanced vectors. Ships the metric
suite (codebook utilization, collision-free rate, geographic dispersion,
Hit@N / NDCG@N) plus the ablation variants and a CLI.
"""

__version__ = "0.1.0"

from .geo import (
    EARTH_RADIUS_KM,
    AntimeridianWarning,
    EmptyClusterError,
    GeoPoint,
    LocalPolar,
    azimuth_rad,
    geo_centroid,
    haversine_km,
    to_local_polar,
)
from .georope import (
    ALL_ATTRIBUTES,
    NormalizedGeo,
    build_geo_vector,
    mirror_transform,
    rotate_blockwise,
    verify_distance_shift_identity,
    verify_inner_product_identity,
)
from .quantizer import (
    METRIC_COSINE,
    METRIC_EUCLIDEAN,
    VARIANTS,
    CodebookLayer,
    DegenerateCentroidError,
    KMeansResult,
    TrainConfig,
    assign,
    kmeans_train,
    project_residual,
)
from .sid import EmptySidGroupError, Sid, SidIndex, assemble, hard_code_layer4, resolve_closest, resolve_random
from .metrics import QuantReport, RankingCase, cur, geo_dispersion, hit_at_n, icr, ndcg_at_n
from .data_io import (
    CodebookArtifact,
    CodebookFormatError,
    Corpus,
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
from .pipeline import (
    DEFAULT_SWEEP_GRID,
    RunResult,
    SweepGrid,
    assign_with_codebook,
    compare,
    run,
    sweep_alpha_beta,
)
