"""The benchmark command.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 20 --trace 0

runs one workload of :mod:`perfbench.workloads` from the root of a
checkout against the program in its ``src`` directory.  It sets the
workload up several times (the median is ``setup_s``), measures for
``--seconds`` seconds, checks every job's output, and prints two JSON
lines: the run's conditions (``{"run": ...}``), then the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics from
a run that is half untraced, half traced.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program source, under pytest)."""


def _load_program() -> None:
    """Put this checkout's ``src`` first on the path and check that
    ``repro`` really comes from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchError(f"repro was imported from {repro.__file__}, not {src}")


def conditions(args: argparse.Namespace, settings: dict) -> dict:
    """What the numbers depend on besides the code."""
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "loadavg": list(os.getloadavg()),
        "settings": settings,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Under pytest the parent process changes what worker processes cost
    # (about 2x for the process executor), so the numbers would not be
    # comparable with any other run.
    if "pytest" in sys.modules:
        print("perfbench: refusing to run under pytest", file=sys.stderr)
        return 2
    try:
        _load_program()
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    # Import the benchmark as the ``perfbench`` package, never its files
    # as top-level modules.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path.insert(0, str(ROOT))
    from perfbench.measure import measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    info = conditions(args, workload.settings())
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, details = measure(workload, args.seed, args.seconds,
                                  bool(args.trace), workdir,
                                  OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(details)
    info["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"run": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
