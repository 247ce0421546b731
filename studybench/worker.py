"""One ``sasrel run`` call in a fresh interpreter.

Started by ``run.py`` once per study (or once per set-up sample with
``--setup-only``).  It imports ``sasrel`` from the checkout's ``src``, loads
the study config, optionally installs the span hooks, then calls
``sasrel.cli.main(["run", ...])`` in-process and writes one JSON record to
``--result``:

    ready      CLOCK_MONOTONIC time at which the worker could call ``run``
    study_s    wall seconds of the ``main`` call (absent with --setup-only)
    rc         its return code
    peak_rss_mb  ru_maxrss of this process
    layers / unfired  per-layer values and never-fired hooks (with --trace 1)
    trace_overhead_s  time the hooks spent outside their spans (with --trace 1)
    environment  interpreter, numpy, scipy and OpenBLAS versions
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    from sasrel import cli

    import hooks

    study = json.loads(Path(args.config).read_text())
    tracer = hooks.Tracer() if args.trace else None
    if tracer is not None:
        hooks.install(tracer)
    record = {"ready": time.monotonic()}
    if not args.setup_only:
        t0 = time.perf_counter()
        rc = cli.main(["run", "--config", args.config, "--out", args.out,
                       "--seed", str(args.seed)])
        record["study_s"] = time.perf_counter() - t0
        record["rc"] = rc
        if tracer is not None:
            record["layers"], record["unfired"] = hooks.layer_metrics(
                tracer, record["study_s"], study["n_train"])
            record["trace_overhead_s"] = tracer.overhead_s
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["environment"] = _environment()
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
