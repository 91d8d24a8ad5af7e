"""The benchmark workloads: seeded inputs, one op, its output check and
its output fingerprint.

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it, is written down in README.md beside this file.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
imports ``qetsim`` from there; any other copy of ``qetsim`` is refused, so
the benchmark always measures the source tree it was checked out with.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER_SCRIPT = HERE / "worker.py"
SPANS_SCRIPT = HERE / "spans.py"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Ops call the library through its modules, so that the traced run's
# rebinding of module attributes (spans.Tracer.installed) sees them.
import qetsim  # noqa: E402
from qetsim import chain, model, optimize, protocol  # noqa: E402
from qetsim.model import ModelParams  # noqa: E402

if Path(qetsim.__file__).resolve().parent != SRC / "qetsim":
    raise ImportError(f"qetsim was imported from {qetsim.__file__}, "
                      f"not from {SRC}")


def child_env():
    """Environment of a child interpreter that imports qetsim from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env

# op number of the warm-up input; the timed loop never reaches it
WARM_UP_OP = 2**31
# ops whose outputs enter the fingerprint of the in-process workloads
FINGERPRINT_OPS = 4

# default field ranges and grid sizes of the three CSV commands
CLI_RANGES = {"spectrum": (0.0, 3.0, 61), "sweep": (0.02, 2.0, 100),
              "thermo": (0.05, 3.0, 60)}
# largest share of a range by which each endpoint moves inward
JITTER = 0.02
L_LIST = (4, 50, 100, 200, 400, 700, 1000)
ORACLE_RESOLUTION = 64
ORACLE_TARGETS = (optimize.TARGET_EXTRACTED, optimize.TARGET_SITE)

# tolerances of qetsim.checks and the acceptance tests
SPECTRUM_TOL = 1e-10      # E_1 against the closed-form ground energy
BUDGET_TOL = 1e-10        # second-law budget residual
ORACLE_TOL = 1e-8         # oracle against the closed-form maximum
CHAIN_TOL = 1e-10         # L = 4 chain magnitudes against the closed form

# CSV headers of SCHEMA.md version 1, and the rows each command writes
SCHEMA_HEADERS = {
    "spectrum": "h," + ",".join(f"E_{i}" for i in range(1, 9)),
    "sweep": "h,xx_corr,yy_corr,h_xx_corr,h_yy_corr,injected_axis_y,"
             "injected_axis_x,extracted_max,site_reduction_max,"
             "net_at_site_optimum",
    "thermo": "h,site_reduction_max,rotation_cost,correlator_gain,"
              "kl_over_beta,info_over_beta,budget_residual",
    "chain": "L,h,xx_corr_abs,yy_corr_abs,slope,r_squared,ed_residual",
}
CLI_ROWS = {"spectrum": 61, "sweep": 100, "thermo": 60, "chain": len(L_LIST)}
CLI_COMMANDS = ("spectrum", "sweep", "thermo", "chain", "verify")
VERIFY_VERDICT = "all checks passed"
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    make_input(seed, op)       input of op number `op`; a (seed, op) pair
                               always gives the same input
    run(input, tracer)         the op; `tracer` is None in untimed or
                               untraced runs
    check(input, output)       list of problems, empty when correct
    fingerprint(op, input, output)
                               {key: value} rounded to the check
                               tolerances; a key that recurs in a run must
                               keep its value
    tail_percentile            percentile reported as op_tail_s
    round_ops                  the loop stops only after a multiple of this
    in_process                 False when each op is its own process
    label(input)               op kind for per-kind latencies, or None
    """

    name: str
    make_input: Callable
    run: Callable
    check: Callable
    fingerprint: Callable
    tail_percentile: int
    round_ops: int = 1
    in_process: bool = True
    label: Callable | None = None

    @property
    def rusage_who(self):
        return resource.RUSAGE_SELF if self.in_process else \
            resource.RUSAGE_CHILDREN

    def warm_up(self, seed):
        """One op on an input the timed loop never sees: starts the BLAS
        thread pool and fills the grid and Hamiltonian caches."""
        if self.in_process:
            self.run(self.make_input(seed, WARM_UP_OP), None)


def _rng(seed, op):
    return np.random.default_rng([seed, op])


def _jittered(rng):
    """CLI field grids with both endpoints moved inward by the seed."""
    grids = {}
    for name, (lo, hi, steps) in CLI_RANGES.items():
        a, b = rng.uniform(0.0, JITTER * (hi - lo), size=2)
        grids[name] = (float(lo + a), float(hi - b), steps)
    return grids


# ---------------------------------------------------------------------------
# oracle: one brute-force search over the five protocol angles


def oracle_input(seed, op):
    return (float(_rng(seed, op).uniform(0.05, 3.0)),
            ORACLE_TARGETS[op % len(ORACLE_TARGETS)])


def oracle_run(inp, tracer=None):
    h, target = inp
    state = model.ground_state(ModelParams(h=h, k=1.0))
    return optimize.brute_force_max(state, target, ORACLE_RESOLUTION)


def _closed_maximum(inp):
    h, target = inp
    closed = optimize.max_extracted_energy \
        if target == optimize.TARGET_EXTRACTED else optimize.max_site_reduction
    return closed(model.ground_state(ModelParams(h=h, k=1.0))).value


def oracle_check(inp, cert):
    problems = []
    if cert.target != inp[1]:
        problems.append(f"certificate target {cert.target!r}, "
                        f"expected {inp[1]!r}")
    gap = abs(cert.value - _closed_maximum(inp))
    if not gap < ORACLE_TOL:
        problems.append(f"oracle h={inp[0]:.6g} {inp[1]}: "
                        f"|oracle - closed form| = {gap:.3e}")
    return problems


def oracle_fingerprint(op, inp, cert):
    if op >= FINGERPRINT_OPS:
        return {}
    return {f"op{op}": f"{cert.value:.8f}"}


# ---------------------------------------------------------------------------
# chain_scan: edge correlators of the free-fermion chain versus length


def chain_input(seed, op):
    return float(_rng(seed, op).uniform(0.05, 1.0)), L_LIST


def chain_run(inp, tracer=None):
    h, lengths = inp
    return chain.correlators_vs_length(h, 1.0, list(lengths))


def chain_check(inp, scan):
    h, lengths = inp
    problems = []
    if tuple(scan.lengths) != tuple(sorted(lengths)):
        return [f"lengths {scan.lengths}, expected {sorted(lengths)}"]
    if scan.lengths[0] == 4:
        c = protocol.correlators_closed(
            model.ground_state(ModelParams(h=h, k=1.0)))
        for label, got, want in (("xx", scan.xx_abs[0], abs(c.xx)),
                                 ("yy", scan.yy_abs[0], abs(c.yy))):
            if not abs(got - want) < CHAIN_TOL:
                problems.append(f"chain h={h:.6g} L=4: |{label}| off the "
                                f"closed form by {abs(got - want):.3e}")
    if not (math.isfinite(scan.slope) and scan.slope < 0.0):
        problems.append(f"chain h={h:.6g}: slope {scan.slope!r} is not "
                        f"finite and negative")
    return problems


def chain_fingerprint(op, inp, scan):
    if op >= FINGERPRINT_OPS:
        return {}
    magnitudes = [f"{v:.10f}" for v in scan.xx_abs + scan.yy_abs]
    return {f"op{op}": ";".join(magnitudes) + f";slope={scan.slope:.6f}"}


# ---------------------------------------------------------------------------
# cli: the five README commands, one fresh process per op


def cli_input(seed, op):
    """(command, arguments without --out); the arguments depend on the seed
    only, so every round of a run repeats the same five commands."""
    rng = _rng(seed, 0)
    grids = _jittered(rng)
    command = CLI_COMMANDS[op % len(CLI_COMMANDS)]
    if command in CLI_RANGES:
        lo, hi, steps = grids[command]
        args = ("--h-min", repr(lo), "--h-max", repr(hi),
                "--h-steps", str(steps))
    elif command == "chain":
        args = ("--h", repr(float(rng.uniform(0.05, 1.0))),
                "--L-list", ",".join(map(str, L_LIST)))
    else:
        args = ("--seed", "0", "--grid", str(ORACLE_RESOLUTION))
    return command, args


def _csv_path(command):
    return OUT / "cli" / f"{command}.csv"


def cli_run(inp, tracer=None):
    command, args = inp
    argv = [command, *args]
    if command != "verify":
        argv += ["--out", str(_csv_path(command))]
    if tracer is None:
        launcher = [sys.executable, "-m", "qetsim.cli"]
    else:
        spans_path = OUT / "cli" / "spans.npz"
        launcher = [sys.executable, str(SPANS_SCRIPT), str(spans_path)]
    _csv_path(command).parent.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(launcher + argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    if tracer is not None and proc.returncode == 0:
        tracer.adopt(spans_path)
    return proc


def _csv_table(command):
    """(column names, rows) of the command's CSV; empty cells read None."""
    lines = _csv_path(command).read_text(encoding="utf-8").splitlines()
    header = lines[0] if lines else ""
    rows = [[float(c) if c else None for c in line.split(",")]
            for line in lines[1:]]
    return header, rows


def _csv_problems(command, columns, rows):
    """Content checks of one CSV, with the tolerances of the library's own
    checks; `columns` are the SCHEMA.md column names."""
    col = {name: i for i, name in enumerate(columns)}
    problems = []
    for r in rows:
        h = r[col["h"]]
        if command == "spectrum":
            gap = abs(r[col["E_1"]]
                      - model.ground_energy(ModelParams(h=h, k=1.0)))
            if not gap < SPECTRUM_TOL:
                problems.append(f"spectrum h={h:.6g}: |E_1 - ground_energy| "
                                f"= {gap:.3e}")
        elif command == "sweep":
            if not r[col["extracted_max"]] >= 0.0:
                problems.append(f"sweep h={h:.6g}: extracted_max < 0")
            if not r[col["net_at_site_optimum"]] < 0.0:   # every h is > 0
                problems.append(f"sweep h={h:.6g}: net_at_site_optimum >= 0")
        elif command == "thermo":
            if not r[col["budget_residual"]] < BUDGET_TOL:
                problems.append(f"thermo h={h:.6g}: budget residual "
                                f"{r[col['budget_residual']]:.3e}")
        elif command == "chain":
            if r[col["L"]] == 4 and not r[col["ed_residual"]] < CHAIN_TOL:
                problems.append(f"chain h={h:.6g} L=4: |xx|, |yy| off the "
                                f"closed form by {r[col['ed_residual']]:.3e}")
            if not (math.isfinite(r[col["slope"]]) and r[col["slope"]] < 0.0):
                problems.append(f"chain h={h:.6g}: slope {r[col['slope']]!r} "
                                f"is not finite and negative")
    return problems


def cli_check(inp, proc):
    command, _ = inp
    if proc.returncode != 0:
        return [f"{command}: exit code {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}"]
    if command == "verify":
        lines = proc.stdout.strip().splitlines()
        last = lines[-1] if lines else ""
        return [] if last == VERIFY_VERDICT else \
            [f"verify: last line {last!r}, expected {VERIFY_VERDICT!r}"]
    header, rows = _csv_table(command)
    if header != SCHEMA_HEADERS[command]:
        return [f"{command}: header {header!r} is not the SCHEMA.md header"]
    problems = []
    if len(rows) != CLI_ROWS[command]:
        problems.append(f"{command}: {len(rows)} rows, "
                        f"expected {CLI_ROWS[command]}")
    return problems + _csv_problems(command, header.split(","), rows)


def cli_fingerprint(op, inp, proc):
    command, _ = inp
    if command == "verify":
        lines = proc.stdout.strip().splitlines()
        return {"verify": lines[-1] if lines else ""}
    data = _csv_path(command).read_bytes()
    return {f"{command}.csv": hashlib.sha256(data).hexdigest()}


WORKLOADS = {
    "oracle": Workload(
        "oracle", oracle_input, oracle_run, oracle_check, oracle_fingerprint,
        tail_percentile=60),
    "chain_scan": Workload(
        "chain_scan", chain_input, chain_run, chain_check, chain_fingerprint,
        tail_percentile=60),
    "cli": Workload(
        "cli", cli_input, cli_run, cli_check, cli_fingerprint,
        tail_percentile=90, round_ops=len(CLI_COMMANDS), in_process=False,
        label=lambda inp: inp[0]),
}
