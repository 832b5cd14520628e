"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The next-to-last stdout line is a JSON detail
record (machine fingerprint, per-phase accounting, stage breakdown); the
last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _timeout(signum, frame):
    raise TimeoutError("benchmark run exceeded its time limit")


def _blas_threads():
    """OpenBLAS thread count from the library numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def fingerprint() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception:  # noqa: BLE001 - older numpy without mode="dicts"
        pass
    commit = None
    try:
        # Only this checkout's own repository counts, not an enclosing one.
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip().partition("\n")
        if top and Path(top).resolve() == ROOT:
            commit = head or None
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program source under {ROOT / 'src' / 'repro'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        _fail(f"imported repro from {repro.__file__}, not this checkout")
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    scratch = workloads.WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    started = time.perf_counter()
    # Stay inside the 180 s a run may take: the alarm unwinds every
    # finally block, which stops the servers this run started.
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(170)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        signal.alarm(0)
        shutil.rmtree(scratch, ignore_errors=True)
    if args.trace:
        from perfbench.analysis import complete

        outcome.metrics = complete(outcome.metrics)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": time.perf_counter() - started,
        "fingerprint": fingerprint(), "problems": outcome.problems, **outcome.detail,
    }
    result = {
        "correct": not outcome.problems,
        "attempted": max(int(outcome.attempted), 1),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in sorted(outcome.metrics.items())},
    }
    print(json.dumps({"detail": detail}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
