"""Smoke test of tools/snapshot.py: it writes every file into a fresh
directory, and the CSVs and the verify output read as expected."""

import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "snapshot.py"


def test_snapshot_writes_every_file(tmp_path):
    tool = runpy.run_path(str(SCRIPT))
    written = tool["snapshot"](tmp_path / "snap")
    names = sorted(path.name for path in written)
    assert names == sorted(path.name for path in (tmp_path / "snap").iterdir())
    demos = list((SCRIPT.parents[1] / "demos").glob("*.py"))
    csvs = [name for name, _ in tool["_csv_commands"]()]
    # the benchmark's four CSV commands at each of its seeds
    assert len(csvs) == len(tool["CSV_COMMANDS"]) + 4 * len(tool["BENCH_SEEDS"])
    assert len(names) == len(csvs) + len(tool["VERIFY_SEEDS"]) + len(demos)
    for name in csvs:
        header, *rows = (tmp_path / "snap" / name).read_text().splitlines()
        assert header.startswith(("h,", "L,")) and rows
    for seed in tool["VERIFY_SEEDS"]:
        text = (tmp_path / "snap" / f"verify_seed{seed}.txt").read_text()
        assert text.endswith("all checks passed\n")
    assert tool["main"]([]) == 2
