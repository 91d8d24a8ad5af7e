"""qetsim benchmark: one workload, one seed, one timed closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the ``qetsim`` in that
checkout's ``src``.  The workloads, their metrics and the bounds are listed
in BENCHMARK.json; README.md beside this file says why each workload was
chosen and which layer should move which metric.

With ``--trace 0`` it times set-up in fresh interpreters, then runs the
workload in a worker process without tracing and reports the end-to-end
metrics.  With ``--trace 1`` the worker records a span around every traced
library call and it reports the per-layer metrics instead.  Human-readable
lines (the environment record, the output fingerprint, every metric with
its unit) come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The full record of
the run is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
try:
    import workloads   # puts the checkout's src first on sys.path
except ImportError as exc:   # no qetsim source here, or no numpy
    sys.exit(f"error: {exc}")

# fresh interpreters timed per run; setup_s is their median
SETUP_RUNS = 5
# the whole run must end within 180 s
WORKER_TIMEOUT_S = 170.0


def percentile(values, p):
    """p-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def setup_seconds(wl, seed):
    """Wall time of one fresh interpreter that imports qetsim and makes one
    warm-up call of every layer function the workload uses.  For ``cli``,
    where each op is its own process, it is ``qetsim --help``: interpreter
    start, import and argument parsing.

    Standard output is a pipe, so the wait ends at its end-of-file when the
    child exits; without one, a wait with a timeout polls in steps of up to
    50 ms and the time would be rounded up to the next poll."""
    if wl.in_process:
        argv = [sys.executable, str(workloads.WORKER_SCRIPT), "--workload",
                wl.name, "--seed", str(seed), "--setup-only"]
    else:
        argv = [sys.executable, "-m", "qetsim.cli", "--help"]
    start = time.perf_counter()
    subprocess.run(argv, cwd=workloads.ROOT, env=workloads.child_env(),
                   check=True, stdout=subprocess.PIPE,
                   timeout=WORKER_TIMEOUT_S)
    return time.perf_counter() - start


def run_worker(wl, seed, seconds, trace, timeout):
    proc = subprocess.run(
        [sys.executable, str(workloads.WORKER_SCRIPT), "--workload", wl.name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=workloads.ROOT, env=workloads.child_env(),
        stdout=subprocess.PIPE, text=True, check=True, timeout=timeout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(wl, raw, setups):
    latencies = raw["latencies"]
    correct = sum(raw["ok"])
    return {
        "ops_per_s": correct / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": percentile(latencies, wl.tail_percentile),
        "success_rate": correct / len(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, names):
    """Span metrics from the worker, plus the wall time of each cli command
    and the traced run's median op time (its difference from the untraced
    op_p50_s is the tracing overhead)."""
    metrics = dict(raw["layers"])
    latencies = raw["latencies"]
    for name in names:
        parts = name.split(".")
        if parts[0] == "cli" and parts[-1] == "wall_s":
            walls = [t for t, label in zip(latencies, raw["labels"])
                     if label == parts[1]]
            metrics[name] = statistics.median(walls) if walls else 0.0
    metrics["traced.op_p50_s"] = statistics.median(latencies)
    return metrics


def main(argv=None):
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    wl = workloads.WORKLOADS[args.workload]
    started = time.perf_counter()
    setups = [] if args.trace else \
        [setup_seconds(wl, args.seed) for _ in range(SETUP_RUNS)]
    raw = run_worker(wl, args.seed, args.seconds, args.trace,
                     WORKER_TIMEOUT_S - (time.perf_counter() - started))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in declared]
    values = per_layer(raw, names) if args.trace else \
        end_to_end(wl, raw, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = len(raw["ok"])
    failed = attempted - sum(raw["ok"])
    tail = percentile(raw["latencies"], wl.tail_percentile)
    beyond = sum(t > tail for t in raw["latencies"])

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(raw["env"], sort_keys=True))
    print("fingerprint " + json.dumps(raw["fingerprint"], sort_keys=True))
    print(f"ops {attempted} attempted, {failed} failed "
          f"(error_rate {failed / attempted:.4g}); op_tail_s is "
          f"p{wl.tail_percentile} with {beyond} of {attempted} ops beyond it")
    for problem in raw["problems"][:20]:
        print(f"FAILED {problem}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")

    workloads.OUT.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setups,
              "metrics": metrics, **raw}
    path = workloads.OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
