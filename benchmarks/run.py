"""Run one workload of the noisymax benchmark and print its metrics.

Usage, from the repository root:

    python3 benchmarks/run.py --workload bn2o-findings --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds run details (cell count, passes, tail percentile,
failed fraction, any correctness problems).  A traced run also writes its
spans to ``benchmarks/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "out"
MAX_PROBLEMS_SHOWN = 20


def _bootstrap():
    """Pin the load before numpy or noisymax is imported: one thread per
    numpy pool, and no guard override from the environment."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("NOISYMAX_GUARD_MULTS", None)
    if not (SRC / "noisymax" / "__init__.py").is_file():
        sys.exit(f"benchmark: no noisymax package under {SRC}")
    sys.path.insert(0, str(SRC))
    import noisymax

    if not Path(noisymax.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: imported noisymax from {noisymax.__file__}, not {SRC}")


def main(argv=None) -> int:
    _bootstrap()
    import harness
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    suite = WORKLOADS[args.workload](args.seed)
    report, tracer, cells = harness.run(suite, args.seconds, bool(args.trace))
    if tracer is not None:
        tracer.dump(TRACE_DIR / f"trace-{args.workload}.json", cells)

    details = {"workload": args.workload, "seed": args.seed, **report.details}
    details["problems"] = report.problems[:MAX_PROBLEMS_SHOWN]
    print(json.dumps(details))
    result = {
        "correct": not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name], "unit": unit}
            for name, unit in report.units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
