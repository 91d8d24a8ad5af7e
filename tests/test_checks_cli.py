import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qetsim
from qetsim import checks, cli
from qetsim import optimize as optimize_mod
from qetsim import thermo as thermo_mod


class TestChecks:
    def test_full_suite_passes(self, verify_results):
        failed = [r.name for r in verify_results.values() if not r.passed]
        assert failed == []

    def test_seed_does_not_change_outcome(self):
        # rerun only the sampled-property checks under a different seed
        sampled = (checks.check_protocol_two_routes, checks.check_no_feedback,
                   checks.check_random_never_beats_maxima,
                   checks.check_thermo_states)
        for fn in sampled:
            assert fn(np.random.default_rng(12345)).passed

    def test_batch_draws_equal_sequential_scalar_draws(self):
        # the sampled checks draw all rounds at once; the samples (and so
        # the residuals) are those of rounds drawn one scalar at a time
        rng = np.random.default_rng(0)
        sequential = [[rng.uniform(0.0, 3.0), rng.uniform(0.0, np.pi),
                       rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, np.pi),
                       rng.uniform(0.0, 2.0 * np.pi),
                       rng.uniform(-np.pi / 2.0, np.pi / 2.0)]
                      for _ in range(1000)]
        batch = checks._random_rounds(np.random.default_rng(0), 1000)
        assert np.array_equal(batch, sequential)

    def test_mutation_is_caught(self, monkeypatch):
        # flip the sign of the correlator gain inside the closed-form route;
        # the grid oracle evaluates the protocol directly and must disagree
        original = optimize_mod.correlators_closed

        def flipped(state):
            c = original(state)
            return dataclasses.replace(c, xx=-c.xx, yy=-c.yy)

        monkeypatch.setattr(optimize_mod, "correlators_closed", flipped)
        result = checks.check_brute_force(fields=(0.5,))
        assert not result.passed

    def test_negative_mutual_information_fails(self, monkeypatch):
        original = thermo_mod.second_law_report

        def negative(state):
            return dataclasses.replace(original(state),
                                       mutual_information=-1e-11)

        monkeypatch.setattr(thermo_mod, "second_law_report", negative)
        assert not checks.check_second_law().passed

    def test_unconverged_oracle_fails(self, monkeypatch):
        original = optimize_mod._zoom

        def stalled(*args, **kwargs):
            return original(*args, **kwargs, max_rounds=3)

        monkeypatch.setattr(optimize_mod, "_zoom", stalled)
        result = checks.check_brute_force(fields=(0.5,))
        assert not result.passed
        assert "not converged" in result.detail


class TestCli:
    def test_spectrum_output(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        code = cli.main(["spectrum", "--h-min", "0", "--h-max", "1",
                         "--h-steps", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "h,E_1,E_2,E_3,E_4,E_5,E_6,E_7,E_8"
        assert len(lines) == 4
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert abs(first[1] - first[2]) < 1e-10  # zero-field doublet
        # reflection symmetry row by row
        levels = np.array(first[1:])
        assert np.allclose(levels, -levels[::-1], atol=1e-10)
        # the lowest column is the closed-form ground energy
        from qetsim.model import ModelParams, ground_energy
        for line in lines[1:]:
            cells = [float(x) for x in line.split(",")]
            assert abs(cells[1] - ground_energy(ModelParams(h=cells[0]))) < 1e-10

    def test_byte_identical_reruns(self, tmp_path):
        args_sets = [
            ["spectrum", "--h-min", "0", "--h-max", "2", "--h-steps", "5"],
            ["sweep", "--h-min", "0.1", "--h-max", "0.5", "--h-steps", "3"],
            ["thermo", "--h-min", "0.2", "--h-max", "1.0", "--h-steps", "3"],
            ["chain", "--h", "0.5", "--L-list", "4,8,16"],
        ]
        for args in args_sets:
            one, two = tmp_path / "one.csv", tmp_path / "two.csv"
            assert cli.main(args + ["--out", str(one)]) == 0
            assert cli.main(args + ["--out", str(two)]) == 0
            assert one.read_bytes() == two.read_bytes()

    def test_float_format(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cli.main(["sweep", "--h-min", "0.1", "--h-max", "0.2", "--h-steps", "2",
                  "--out", str(out)])
        cell = out.read_text().splitlines()[1].split(",")[0]
        assert cell == "1.000000000000e-01"

    def test_chain_ed_residual_column(self, tmp_path):
        out = tmp_path / "chain.csv"
        cli.main(["chain", "--h", "0.5", "--L-list", "4,8", "--out", str(out)])
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[-1] == "ed_residual"
        row4 = lines[1].split(",")
        row8 = lines[2].split(",")
        assert float(row4[-1]) < 1e-10
        assert row8[-1] == ""

    def test_chain_single_length_has_no_fit(self, tmp_path):
        out = tmp_path / "chain.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["chain", "--h", "0.5", "--L", "16",
                             "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[:2] == ["16", "5.000000000000e-01"]
        assert row[4:6] == ["", ""]

    def test_chain_odd_lengths_leave_the_fit_unchanged(self, tmp_path):
        mixed, even = tmp_path / "mixed.csv", tmp_path / "even.csv"
        assert cli.main(["chain", "--h", "0.5", "--L-list", "4,5,50,100",
                         "--out", str(mixed)]) == 0
        assert cli.main(["chain", "--h", "0.5", "--L-list", "4,50,100",
                         "--out", str(even)]) == 0
        rows = [line.split(",") for line in mixed.read_text().splitlines()[1:]]
        fit = even.read_text().splitlines()[1].split(",")[4:6]
        assert float(fit[0]) < 0.0
        assert all(row[4:6] == fit for row in rows)
        assert rows[1][2:4] == ["0.000000000000e+00"] * 2

    @pytest.mark.parametrize("args", [["--h", "nan"], ["--k", "inf"],
                                      ["--h-min", "nan", "--h-max", "1"],
                                      ["--k", "1e308"], ["--h", "1e200"]])
    def test_chain_non_finite_input_exit_code(self, tmp_path, capsys, args):
        out = tmp_path / "chain.csv"
        assert cli.main(["chain", *args, "--L-list", "4,50",
                         "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "sweep", "thermo"])
    @pytest.mark.parametrize("args", [["--h-min", "nan", "--h-max", "1"],
                                      ["--h-min", "0.1", "--h-max", "inf"],
                                      ["--k", "inf"], ["--k", "nan"],
                                      ["--h-min", "1e200", "--h-max", "1e200"]])
    def test_field_grid_non_finite_input_exit_code(self, tmp_path, capsys,
                                                   command, args):
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, *args, "--h-steps", "3",
                         "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_chain_empty_length_list_exit_code(self, capsys):
        assert cli.main(["chain", "--L-list", ""]) == 2
        assert "chain length" in capsys.readouterr().err

    def test_verify_odd_grid_exit_code(self, capsys):
        assert cli.main(["verify", "--grid", "65"]) == 2
        assert "even" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path):
        missing_dir = tmp_path / "nope" / "out.csv"
        assert cli.main(["spectrum", "--out", str(missing_dir)]) == 2

    def test_bad_argument_exit_code(self):
        assert cli.main(["spectrum", "--h-steps", "1"]) == 2
        assert cli.main(["thermo", "--h-min", "0"]) == 2
        with pytest.raises(SystemExit) as info:
            cli.main(["spectrum", "--no-such-flag"])
        assert info.value.code == 2

    def test_verify_exit_codes(self, monkeypatch, capsys):
        passing = checks.CheckResult(name="stub", passed=True, residual=0.0,
                                     tolerance=1.0)
        failing = checks.CheckResult(name="stub", passed=False, residual=2.0,
                                     tolerance=1.0)
        unconverged = checks.CheckResult(
            name="oracle", passed=False, residual=np.inf, tolerance=1e-8,
            detail="not converged: h=0.5 extracted")
        monkeypatch.setattr(checks, "run_all",
                            lambda seed=0, resolution=64: [passing])
        assert cli.main(["verify"]) == 0
        assert "PASS" in capsys.readouterr().out
        monkeypatch.setattr(checks, "run_all",
                            lambda seed=0, resolution=64: [passing, failing])
        assert cli.main(["verify"]) == 1
        assert "FAIL" in capsys.readouterr().out
        monkeypatch.setattr(checks, "run_all",
                            lambda seed=0, resolution=64: [unconverged])
        assert cli.main(["verify"]) == 1
        assert ("(tolerance 1e-08)  not converged: h=0.5 extracted"
                in capsys.readouterr().out)

    def test_verify_forwards_seed_and_grid(self, monkeypatch):
        captured = {}
        stub = checks.CheckResult(name="stub", passed=True, residual=0.0,
                                  tolerance=1.0)

        def fake_run_all(seed=0, resolution=64):
            captured["seed"] = seed
            captured["resolution"] = resolution
            return [stub]

        monkeypatch.setattr(checks, "run_all", fake_run_all)
        assert cli.main(["verify", "--seed", "7", "--grid", "96"]) == 0
        assert captured == {"seed": 7, "resolution": 96}

    def test_non_finite_cell_writes_nothing(self, tmp_path):
        out = tmp_path / "rows.csv"
        with pytest.raises(ValueError, match="x = nan at h = 1.0"):
            cli._write_csv(str(out), ["h", "x"], [[0.5, 1.0],
                                                  [1.0, float("nan")]])
        assert not out.exists()

    def test_field_is_read_in_units_of_k(self, tmp_path):
        # --h-min/--h-max are in units of k; the CSV holds the absolute
        # field and absolute energies, so doubling k doubles both
        def sweep(k):
            out = tmp_path / f"sweep_k{k}.csv"
            assert cli.main(["sweep", "--h-min", "1", "--h-max", "1",
                             "--h-steps", "2", "--k", str(k),
                             "--out", str(out)]) == 0
            header, row = out.read_text(encoding="utf-8").splitlines()[:2]
            return dict(zip(header.split(","), map(float, row.split(","))))

        unit, double = sweep(1.0), sweep(2.0)
        assert (unit["h"], double["h"]) == (1.0, 2.0)
        for energy in ("injected_axis_y", "injected_axis_x", "extracted_max",
                       "site_reduction_max", "net_at_site_optimum"):
            assert double[energy] == pytest.approx(2.0 * unit[energy],
                                                   rel=1e-12)
        for correlator in ("xx_corr", "yy_corr"):
            assert double[correlator] == pytest.approx(unit[correlator],
                                                       rel=1e-12)


@pytest.mark.parametrize("command, field", [("sweep", "1e16"),
                                            ("thermo", "1e16"),
                                            ("thermo", "1e30")])
def test_unresolvable_field_exits_2_without_rows(command, field):
    env = dict(os.environ,
               PYTHONPATH=str(Path(qetsim.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "qetsim.cli", command,
                           "--h-min", field, "--h-max", field,
                           "--h-steps", "2"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr
