"""Run one geosid benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_dense --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/`` next
to this directory. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Earlier lines give the environment, the output digests and
run details; the same record is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def _import_geosid() -> None:
    """Import geosid from this checkout's src/, never from elsewhere."""
    if not (SRC / "geosid" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no geosid sources at {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import geosid

    if Path(geosid.__file__).resolve().parent != SRC / "geosid":
        raise SystemExit(f"perfbench: geosid imported from {geosid.__file__}, not {SRC}")


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except Exception:  # numpy builds differ in what they report
        return "unknown"


def _openblas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, asked through its
    C API; None when numpy links another BLAS."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    import geosid.pipeline as gp

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "GEOSID_THREADS": os.environ.get("GEOSID_THREADS", "unset"),
        "geosid_compare_workers": gp.resolve_worker_count(5),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "openblas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload in this process; returns the full result record."""
    import spec
    import workloads

    sizes = sizes or workloads.FULL[name]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    ctx = workloads.Context(sizes, seed, seconds, trace, workdir)
    try:
        metrics = workloads.WORKLOAD_FNS[name](ctx)
        if trace:
            metrics = workloads.per_layer(ctx)
            ctx.info["spans_written"] = ctx.tracer.write(str(OUT / f"trace-{name}.npz"))
        ctx.info["peak_rss_mb"] = metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    finally:
        if ctx.tracer is not None:
            ctx.tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "unmeasured": spec.UNMEASURED,
        "digests": ctx.digests,
        "info": ctx.info,
        "failures": ctx.failures,
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }


def result_line(record: dict) -> dict:
    """The result printed as the last line: the metrics named in spec.py, with units."""
    import spec

    names = spec.PER_LAYER if record["trace"] else spec.END_TO_END
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": names[name][0]} for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_geosid()
    import spec

    if args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(spec.WORKLOADS)}")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(record)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({**record, "metrics": line["metrics"]}, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for key in ("env", "digests", "info"):
        print(f"perfbench {key} {json.dumps(record[key], sort_keys=True)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
