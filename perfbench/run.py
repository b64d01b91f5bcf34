"""Benchmark of baryflow on the source paper's workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Imports baryflow from the ``src/`` directory next to this one and fails if
it is not there.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` is the traced run that gives the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (not printed
for ``--workload all``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BLAS_THREADS = "1"


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "baryflow" / "__init__.py").is_file():
        print(f"perfbench: no baryflow sources under {SRC}", file=sys.stderr)
        return 2
    # Fix the BLAS thread count before numpy is loaded.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import baryflow
    if Path(baryflow.__file__).resolve().parent != (SRC / "baryflow").resolve():
        print(f"perfbench: imported baryflow from {baryflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import measure
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")

    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    all_ok = True
    for name in names:
        calls, metrics = measure.run_workload(WORKLOADS[name], args.seed, args.seconds,
                                              args.trace, OUT)
        all_ok = all_ok and calls.correct and metrics is not None
    if args.workload == "all":
        return 0 if all_ok else 1
    if metrics is None:
        print("perfbench: no successful call to measure", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": calls.correct,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
