"""Benchmark worker: one workload in a fresh interpreter.

    python perfbench/worker.py --workload NAME --seed N --setup-only
    python perfbench/worker.py --workload NAME --seed N --seconds S --trace T

Set-up is the import of ``qetsim`` plus one warm-up op.  With
``--setup-only`` the worker exits after it, which is what run.py times.
Otherwise it runs the workload's ops in a closed loop (one client, the next
op starts when the previous one has been checked) for S seconds, and
prints its raw results for run.py as one JSON line.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext

import numpy as np

import spans
import workloads


def measure(wl, seed, seconds, tracer=None):
    """Closed loop over ops 0, 1, ... until `seconds` have passed and a
    whole round is done.  Outputs are checked and fingerprinted between
    ops, outside the timed interval; an op that raises, fails its check or
    changes a fingerprint value counts as failed.

    In the trace, the ops of one round share one op id, so per-layer
    metrics are per round: for ``cli`` the five commands together, which is
    the same work in every round; for the other workloads, one op."""
    latencies, labels, ok, problems = [], [], [], []
    fingerprint = {}
    start = time.perf_counter()
    op = 0
    while True:
        inp = wl.make_input(seed, op)
        output, error = None, None
        with tracer.op_span(op // wl.round_ops) if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                output = wl.run(inp, tracer)
            except Exception as exc:   # a failed op is counted, not fatal
                error = f"op raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
        found = [error] if error else []
        if not error:
            try:
                found += wl.check(inp, output)
                for key, value in wl.fingerprint(op, inp, output).items():
                    if fingerprint.setdefault(key, value) != value:
                        found.append(f"{key} changed within the run: "
                                     f"{fingerprint[key]} then {value}")
            except Exception as exc:   # malformed output
                found.append(f"check raised {type(exc).__name__}: {exc}")
        ok.append(not found)
        problems += [f"op {op}: {p}" for p in found]
        if wl.label:
            labels.append(wl.label(inp))
        op += 1
        if op % wl.round_ops == 0 and time.perf_counter() - start >= seconds:
            break
    return {
        "latencies": latencies,
        "labels": labels,
        "ok": ok,
        "problems": problems,
        "fingerprint": fingerprint,
        "peak_rss_mb": resource.getrusage(wl.rusage_who).ru_maxrss / 1024.0,
    }


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def _blas_library():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _git_sha():
    if not (workloads.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256():
    """sha256 over the library source, which identifies the code measured
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(workloads.SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed):
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_library(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    wl.warm_up(args.seed)
    if args.setup_only:
        return 0
    if args.trace:
        metric_names = spans.per_layer_names()
        tracer = spans.Tracer()
        with tracer.installed(spans.traced_functions(metric_names)):
            result = measure(wl, args.seed, args.seconds, tracer)
        result["layers"] = tracer.layer_metrics(metric_names)
        workloads.OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(workloads.OUT / f"spans-{wl.name}.npz")
    else:
        result = measure(wl, args.seed, args.seconds)
    result["env"] = environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
