#!/usr/bin/env python3
"""Write a byte-identity snapshot of the command line and the demos.

    python3 tools/snapshot.py OUTDIR

OUTDIR receives the four CSVs of the README's command lines, `thermo`
over the large-field band 100 k .. 1e4 k, the four CSVs of the
benchmark's `cli` workload at its jittered arguments for seeds 1-3
(`cli_input` in perfbench/workloads.py, read, never written), the stdout
of `qetsim verify` at four seeds, and the stdout of every demo, one file
each.  qetsim is
imported from the `src` of the checkout this script lives in, so running
the script in two checkouts and comparing the two directories with
`diff -r` shows every byte a change moved.  Exits 1 if a CSV command
does not exit 0.
"""

from __future__ import annotations

import contextlib
import io
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

import qetsim  # noqa: E402
import workloads  # noqa: E402
from qetsim import cli  # noqa: E402

if Path(qetsim.__file__).resolve().parent != ROOT / "src" / "qetsim":
    raise ImportError(f"qetsim was imported from {qetsim.__file__}, "
                      f"not from {ROOT / 'src'}")

# file name -> command line; the first four are the README's
CSV_COMMANDS = {
    "spectrum.csv": "spectrum --h-min 0 --h-max 3 --h-steps 61",
    "sweep.csv": "sweep --h-min 0.02 --h-max 2 --h-steps 100",
    "thermo.csv": "thermo --h-min 0.05 --h-max 3 --h-steps 60",
    "chain.csv": "chain --h 0.5 --L-list 4,50,100,200,400,700,1000",
    "thermo_large_field.csv": "thermo --h-min 100 --h-max 1e4 --h-steps 60",
}
# seeds of the benchmark's `cli` workload whose CSV commands are written
BENCH_SEEDS = (1, 2, 3)
VERIFY_SEEDS = (0, 1, 7, 12345)


def _csv_commands():
    """(file name, argv) of every CSV command of the snapshot."""
    commands = [(name, line.split()) for name, line in CSV_COMMANDS.items()]
    for seed in BENCH_SEEDS:
        for op in range(len(workloads.CLI_COMMANDS)):
            command, args = workloads.cli_input(seed, op)
            if command in workloads.SCHEMA_HEADERS:
                commands.append((f"cli_seed{seed}_{command}.csv",
                                 [command, *args]))
    return commands


def _stdout(run):
    """(return value, stdout) of run()."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        value = run()
    return value, out.getvalue()


def snapshot(outdir: Path) -> list[Path]:
    """Write every snapshot file into `outdir` and return their paths."""
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, argv in _csv_commands():
        path = outdir / name
        code = cli.main(argv + ["--out", str(path)])
        if code != 0:
            raise SystemExit(f"qetsim {' '.join(argv)} exited {code}")
        written.append(path)
    for seed in VERIFY_SEEDS:
        _, text = _stdout(lambda: cli.main(["verify", "--seed", str(seed)]))
        written.append(outdir / f"verify_seed{seed}.txt")
        written[-1].write_text(text, encoding="utf-8")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        _, text = _stdout(lambda: runpy.run_path(str(demo),
                                                 run_name="__main__"))
        written.append(outdir / f"demo_{demo.stem}.txt")
        written[-1].write_text(text, encoding="utf-8")
    return written


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    snapshot(Path(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
