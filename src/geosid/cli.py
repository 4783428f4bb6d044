"""Command-line front-end.

Subcommands: synth, train, assign, report, compare, sweep, verify-lemma,
export-geojson. Results go to stdout (or ``--out``); diagnostics go to
stderr. Exit codes: 0 success, 1 bad invocation or failed validation,
2 file problems (missing, unreadable, corrupt, inconsistent).

Identical arguments over identical files produce byte-identical primary
output; anything nondeterministic (timings) is diagnostics-only. compare
and sweep run in one thread and fit each level their configurations share
once. The environment variable GEOSID_THREADS is only validated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data_io import (
    CodebookArtifact,
    CodebookFormatError,
    CorpusFormatError,
    SynthConfig,
    export_geojson,
    generate_synthetic,
    load_codebook,
    load_corpus,
    save_codebook,
    save_corpus,
)
from .geo import GeoPoint
from .georope import ALL_ATTRIBUTES, verify_distance_shift_identity, verify_inner_product_identity
from .metrics import quant_report
from .pipeline import (
    PipelineError,
    SweepGrid,
    assign_with_codebook,
    compare,
    config_label,
    format_quant_records,
    format_quant_table,
    run,
    sweep_alpha_beta,
)
from .quantizer import ROPE_LAYERS, VARIANTS, TrainConfig

__all__ = ["main"]

_VERIFY_TOLERANCE = 1e-9


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want usage + exit 1
        raise _UsageError(self, message)


def _corpus_paths(corpus_dir: str) -> tuple[Path, Path]:
    base = Path(corpus_dir)
    return base / "poi.jsonl", base / "embeddings.bin"


def _parse_k(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--k expects a comma list of integers, got {text!r}") from None
    return sizes


def _parse_grid(text: str) -> SweepGrid:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"--grid expects 'alpha,beta;alpha,beta;...', got {text!r}")
        pairs.append((float(parts[0]), float(parts[1])))
    return SweepGrid(pairs=tuple(pairs))


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _config_from_args(args: argparse.Namespace, variant: str | None = None) -> TrainConfig:
    return TrainConfig(
        layer_sizes=_parse_k(args.k),
        max_iters=args.max_iters,
        tol=args.tol,
        seed=args.seed,
        variant=variant if variant is not None else args.variant,
        geo_attributes=frozenset(part.strip() for part in args.attributes.split(",") if part.strip()),
        alpha=args.alpha,
        beta=args.beta,
        rope_layer=args.rope_layer,
        d_scale_km=args.d_scale_km,
    )


def _add_train_flags(p: argparse.ArgumentParser, with_variant: bool = True) -> None:
    p.add_argument("--k", required=True, help="comma list of layer sizes, e.g. 4,4,8")
    p.add_argument("--seed", type=int, default=0, help="training seed (default 0)")
    if with_variant:
        p.add_argument("--variant", choices=VARIANTS, default="pro_geo", help="tokenization variant")
    p.add_argument("--alpha", type=float, default=0.5, help="azimuth rotation scale (default 0.5)")
    p.add_argument("--beta", type=float, default=0.5, help="distance rotation scale (default 0.5)")
    p.add_argument(
        "--attributes",
        default=",".join(ALL_ATTRIBUTES),
        help="comma list of geo attributes from sigma+,sigma-,d+,d- (default: all)",
    )
    p.add_argument("--rope-layer", choices=ROPE_LAYERS, default="third", help="integration layer")
    p.add_argument("--max-iters", type=int, default=100, help="k-means iteration cap (default 100)")
    p.add_argument("--tol", type=float, default=1e-4, help="changed-assignment stop fraction")
    p.add_argument(
        "--d-scale-km",
        type=float,
        default=None,
        help="fixed distance-normalization scale (default: per-cluster max)",
    )


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("table", "records"),
        default="table",
        help="aligned table (default) or line-delimited JSON records",
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = SynthConfig(
        n_semantic_clusters=args.clusters,
        pois_per_cluster=args.per_cluster,
        geo_subclusters_per_semantic=args.subclusters,
        subcluster_separation_km=args.separation_km,
        subcluster_spread_km=args.spread_km,
        embedding_dim=args.dim,
        noise_std=args.noise_std,
        seed=args.seed,
    )
    pois, matrix = generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    poi_path, emb_path = _corpus_paths(args.out)
    save_corpus(pois, matrix, poi_path, emb_path)
    print(f"wrote {len(pois)} POIs ({matrix.shape[1]}-dim) to {out}", file=sys.stderr)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    pois, matrix = load_corpus(*_corpus_paths(args.corpus))
    result = run(pois, matrix, _config_from_args(args))
    save_codebook(result.artifact, args.out)
    rows = [(config_label(result.config), result.report)]
    text = format_quant_table(rows) if args.format == "table" else format_quant_records(rows)
    sys.stdout.write(text)
    print(f"trained in {result.wall_time_s:.2f}s; artifact -> {args.out}", file=sys.stderr)
    return 0


def _cmd_assign(args: argparse.Namespace) -> int:
    artifact = load_codebook(args.codebook)
    pois, matrix = load_corpus(*_corpus_paths(args.corpus))
    assignments = assign_with_codebook(artifact, pois, matrix)
    lines = []
    for pid in sorted(assignments):
        sid = assignments[pid]
        if args.format == "records":
            lines.append(json.dumps({"id": pid, "j1": sid.j1, "j2": sid.j2, "j3": sid.j3}))
        else:
            lines.append(f"{pid} {sid.j1} {sid.j2} {sid.j3}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _indexed_locations(args: argparse.Namespace) -> tuple[CodebookArtifact, np.ndarray, np.ndarray]:
    """The codebook and the corpus lat/lon columns in its SID index (id) order."""
    artifact = load_codebook(args.codebook)
    corpus, _ = load_corpus(*_corpus_paths(args.corpus))
    row_of = dict(zip(corpus.ids, range(len(corpus))))
    rows = [row_of.get(pid, -1) for pid in artifact.sid_index.ids]
    missing = [pid for pid, row in zip(artifact.sid_index.ids, rows) if row < 0]
    if missing:
        raise CorpusFormatError(
            f"corpus lacks locations for {len(missing)} assigned POIs (first: {missing[0]!r})"
        )
    return artifact, corpus.lat[rows], corpus.lon[rows]


def _cmd_report(args: argparse.Namespace) -> int:
    artifact, lat, lon = _indexed_locations(args)
    index = artifact.sid_index
    report = quant_report(index.codes, lat, lon, artifact.config.layer_sizes, groups=index.row_groups)
    rows = [(config_label(artifact.config), report)]
    text = format_quant_table(rows) if args.format == "table" else format_quant_records(rows)
    _write_output(text, args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    variants = [part.strip() for part in args.variants.split(",") if part.strip()]
    cfgs = [_config_from_args(args, variant=v) for v in variants]
    pois, matrix = load_corpus(*_corpus_paths(args.corpus))
    rows = compare(pois, matrix, cfgs)
    text = format_quant_table(rows) if args.format == "table" else format_quant_records(rows)
    _write_output(text, args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid) if args.grid else SweepGrid()
    pois, matrix = load_corpus(*_corpus_paths(args.corpus))
    base = _config_from_args(args)
    results = sweep_alpha_beta(pois, matrix, grid, base)
    rows = [(f"alpha={a:g} beta={b:g}", report) for (a, b), report in results]
    text = format_quant_table(rows) if args.format == "table" else format_quant_records(rows)
    _write_output(text, args.out)
    return 0


def _cmd_verify_lemma(args: argparse.Namespace) -> int:
    if args.dim < 2 or args.dim % 2 != 0:
        raise ValueError(f"--dim must be even and >= 2, got {args.dim}")
    m = args.dim // 2
    identity_err = verify_inner_product_identity(args.trials, m, seed=args.seed)
    dcos_err = verify_distance_shift_identity(args.trials, m, seed=args.seed)
    if args.format == "records":
        sys.stdout.write(
            json.dumps(
                {
                    "inner_product_identity_max_rel_error": identity_err,
                    "distance_shift_max_abs_error": dcos_err,
                    "tolerance": _VERIFY_TOLERANCE,
                }
            )
            + "\n"
        )
    else:
        sys.stdout.write(f"inner_product_identity_max_rel_error {identity_err:.3e}\n")
        sys.stdout.write(f"distance_shift_max_abs_error         {dcos_err:.3e}\n")
    ok = identity_err <= _VERIFY_TOLERANCE and dcos_err <= _VERIFY_TOLERANCE
    if not ok:
        print(f"verification FAILED (tolerance {_VERIFY_TOLERANCE:g})", file=sys.stderr)
    return 0 if ok else 1


def _cmd_export_geojson(args: argparse.Namespace) -> int:
    artifact, lat, lon = _indexed_locations(args)
    assignments = artifact.sid_index.assignments
    locations = dict(zip(assignments, map(GeoPoint, lat.tolist(), lon.tolist())))
    export_geojson(assignments, locations, args.out)
    print(f"wrote {len(assignments)} features to {args.out}", file=sys.stderr)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="geosid", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"geosid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clusters", type=int, default=4, help="semantic clusters (default 4)")
    p.add_argument("--per-cluster", type=int, default=100, help="POIs per cluster (default 100)")
    p.add_argument("--subclusters", type=int, default=2, help="geo blobs per cluster (default 2)")
    p.add_argument("--separation-km", type=float, default=40.0, help="blob separation (default 40)")
    p.add_argument("--spread-km", type=float, default=3.0, help="blob radius (default 3)")
    p.add_argument("--dim", type=int, default=16, help="embedding dimension, even (default 16)")
    p.add_argument("--noise-std", type=float, default=0.02)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a codebook and write the artifact")
    p.add_argument("--corpus", required=True, help="corpus directory (poi.jsonl + embeddings.bin)")
    p.add_argument("--out", required=True, help="artifact output path")
    _add_train_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("assign", help="assign SIDs to a corpus with a trained codebook")
    p.add_argument("--codebook", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None, help="write here instead of stdout")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("report", help="quantization metrics of a trained codebook")
    p.add_argument("--codebook", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("compare", help="train several variants and tabulate their metrics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--variants", required=True, help="comma list, e.g. pro_geo,rq_kmeans_euclidean")
    p.add_argument("--out", default=None)
    _add_train_flags(p, with_variant=False)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="sweep (alpha, beta) rotation scales")
    p.add_argument("--corpus", required=True)
    p.add_argument("--grid", default=None, help="pairs 'a,b;a,b;...' (default: the 8-pair grid)")
    p.add_argument("--out", default=None)
    _add_train_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify-lemma", help="numeric check of the rotary inner-product identities")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--dim", type=int, default=128, help="residual dimension (even)")
    p.add_argument("--seed", type=int, default=0)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("export-geojson", help="dump training assignments as GeoJSON")
    p.add_argument("--codebook", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_geojson)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CorpusFormatError, CodebookFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
