import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qetsim
from qetsim import chain as chain_mod
from qetsim import checks, cli
from qetsim import optimize as optimize_mod
from qetsim import protocol as protocol_mod
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
        # the oracle evaluates the matrix elements directly and must disagree
        original = optimize_mod.correlators_closed

        def flipped(state):
            c = original(state)
            return dataclasses.replace(c, xx=-c.xx, yy=-c.yy)

        monkeypatch.setattr(optimize_mod, "correlators_closed", flipped)
        result = checks.check_brute_force(fields=(0.5,))
        assert not result.passed

    def test_bound_below_the_closed_form_fails(self, monkeypatch):
        # the closed-form maximum must lie in [value, upper_bound]
        original = optimize_mod.brute_force_max

        def undercut(state, target):
            cert = original(state, target)
            return dataclasses.replace(cert, upper_bound=0.5 * cert.value)

        monkeypatch.setattr(optimize_mod, "brute_force_max", undercut)
        assert not checks.check_brute_force(fields=(0.5,)).passed

    def test_negated_cost_block_breaks_the_tilt_check(self, monkeypatch):
        # with M0 -> -M0 the envelope m/2 + hypot(m/2, s^T C r) falls as the
        # feedback axis tilts away from z
        original = protocol_mod.rotation_forms

        def negated(state):
            return tuple(form * np.array([-1.0, 1.0])[:, None, None]
                         for form in original(state))

        monkeypatch.setattr(protocol_mod, "rotation_forms", negated)
        result = checks.check_monotone_feedback_tilt(np.random.default_rng(0))
        assert not result.passed
        assert result.residual > 1e3 * result.tolerance

    def test_tilt_check_reports_the_signed_largest_fall(self):
        # the envelope rises strictly, so its largest fall is negative
        result = checks.check_monotone_feedback_tilt(np.random.default_rng(0))
        assert result.passed
        assert result.residual < 0.0

    def test_random_check_reports_the_signed_largest_excess(self):
        # no random protocol reaches a maximum, so the largest excess over
        # one is negative
        result = checks.check_random_never_beats_maxima(
            np.random.default_rng(0))
        assert result.passed
        assert result.residual < 0.0

    def test_nan_in_any_term_fails_its_check(self, monkeypatch):
        # a NaN in a term other than the first fails its check: a check of
        # one tolerance, one of two tolerances and one that loops over fields
        original = protocol_mod.reduction_closed

        def nan_site(state, pp):
            site, bond = original(state, pp)
            return np.full_like(site, np.nan), bond

        for module, name, nan, fn in (
                (protocol_mod, "reduction_closed", nan_site,
                 checks.check_protocol_two_routes),
                (thermo_mod, "purity_from_energy", lambda state: np.nan,
                 checks.check_second_law),
                (chain_mod, "ground_energy_from_filling", lambda spec: np.nan,
                 checks.check_chain_against_exact)):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, nan)
                assert fn(np.random.default_rng(0)).passed is False, name

    def test_negated_gain_blocks_break_the_ledger_checks(self, monkeypatch):
        # with C -> -C in the shared table's forms the ledger's reductions
        # leave the closed forms, and at the closed-form optima the ledger
        # no longer reproduces the maxima
        original = protocol_mod._ledger_forms

        def negated(state, blocks):
            sign = np.array([1.0, -1.0, 1.0])[:blocks, None, None]
            return tuple(form * sign for form in original(state, blocks))

        monkeypatch.setattr(protocol_mod, "_ledger_forms", negated)
        assert not checks.check_protocol_two_routes(
            np.random.default_rng(0)).passed
        assert not checks.check_brute_force().passed

    def test_negated_measurement_rows_break_the_ledger_check(self, monkeypatch):
        # with Q -> -Q in the table, injected = r^T Q r turns negative and
        # after_feedback leaves the pointwise sum over projected states
        table = protocol_mod._row_table() * np.repeat(
            [1.0, 1.0, -1.0, 1.0], [18, 18, 18, 16])[:, None]
        monkeypatch.setattr(protocol_mod, "_row_table", lambda: table)
        assert not checks.check_protocol_two_routes(
            np.random.default_rng(0)).passed

    def test_negated_correlation_blocks_break_the_thermo_check(self,
                                                              monkeypatch):
        # with M_i -> -M_i in the rows of Bob's blocks, each outcome leaves
        # Bob the other outcome's qubit, which the closed form tells apart
        table = protocol_mod._row_table() * np.repeat([1.0, -1.0],
                                                      [58, 12])[:, None]
        monkeypatch.setattr(protocol_mod, "_row_table", lambda: table)
        assert not checks.check_thermo_states(np.random.default_rng(0)).passed

    def test_swapped_correlators_break_the_thermo_check(self, monkeypatch):
        # xx <-> yy in the closed form moves M_x and M_y off the table's
        original = protocol_mod.correlators_closed

        def swapped(state):
            c = original(state)
            return protocol_mod.EdgeCorrelators(xx=c.yy, yy=c.xx, xxz=c.xxz)

        monkeypatch.setattr(protocol_mod, "correlators_closed", swapped)
        assert not checks.check_thermo_states(np.random.default_rng(0)).passed

    def test_thermo_check_contracts_each_state_once(self, monkeypatch):
        # rho_i and both outcomes' qubits come from one bob_blocks call,
        # seen through the protocol module and through thermo's import
        calls = []
        original = protocol_mod.bob_blocks

        def spy(state):
            calls.append(state)
            return original(state)

        monkeypatch.setattr(protocol_mod, "bob_blocks", spy)
        monkeypatch.setattr(thermo_mod, "bob_blocks", spy)
        assert checks.check_thermo_states(np.random.default_rng(0)).passed
        assert len(calls) == 1

    def test_negative_mutual_information_fails(self, monkeypatch):
        original = thermo_mod.second_law_report

        def negative(state):
            return dataclasses.replace(original(state),
                                       mutual_information=-1e-11)

        monkeypatch.setattr(thermo_mod, "second_law_report", negative)
        assert not checks.check_second_law().passed

    def test_unconverged_oracle_fails(self, monkeypatch):
        # at h = 0.3 the extracted target's first axis, the one of largest
        # gain, is not its best, so one round cannot certify a bound
        monkeypatch.setattr(optimize_mod, "_MAX_ROUNDS", 1)
        result = checks.check_brute_force(fields=(0.3,))
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
        # below SMALL_FIELD k the closed form is taken at the chain's field
        cli.main(["chain", "--h", "1e-9", "--L-list", "4", "--out", str(out)])
        assert float(out.read_text().splitlines()[1].split(",")[-1]) < 1e-15

    def test_chain_nan_ed_residual_is_refused(self, tmp_path, capsys,
                                              monkeypatch):
        # a NaN in either magnitude's residual reaches the CSV check, which
        # refuses it; builtin max dropped a NaN in its second argument
        original = cli.correlators_closed

        def nan_yy(state):
            return dataclasses.replace(original(state), yy=float("nan"))

        monkeypatch.setattr(cli, "correlators_closed", nan_yy)
        out = tmp_path / "chain.csv"
        assert cli.main(["chain", "--h", "0.5", "--L-list", "4,50",
                         "--out", str(out)]) == 2
        assert "ed_residual = nan" in capsys.readouterr().err
        assert not out.exists()

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
                                      ["--k", "1e308"], ["--h", "1e200"],
                                      ["--k", "1e100", "--h-min", "1e300",
                                       "--h-max", "1e300"], ["--k", "1e-320"],
                                      # refused without an L = 4 row too
                                      ["--k", "1e-320", "--L-list", "50"],
                                      ["--h", "1e200", "--L-list", "50"]])
    def test_chain_non_finite_input_exit_code(self, tmp_path, capsys, args):
        out = tmp_path / "chain.csv"
        assert cli.main(["chain", "--L-list", "4,50", *args,
                         "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "sweep", "thermo"])
    @pytest.mark.parametrize("args", [["--h-min", "nan", "--h-max", "1"],
                                      ["--h-min", "0.1", "--h-max", "inf"],
                                      ["--k", "inf"], ["--k", "nan"],
                                      ["--h-min", "1e200", "--h-max", "1e200"],
                                      ["--k", "1e100", "--h-min", "1e300",
                                       "--h-max", "1e300"]])
    def test_field_grid_non_finite_input_exit_code(self, tmp_path, capsys,
                                                   command, args):
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, *args, "--h-steps", "3",
                         "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, named", [
        (["--h", "0.5", "--k", "inf"], "k=inf"),
        (["--h", "1e300", "--k", "1e10"], "got 1e+300, 10000000000.0"),
        (["--h", "1e200"], "h=1e+200")])
    def test_chain_refusal_names_the_given_value(self, capsys, args, named):
        # --k is checked before the field h k, and h k is formed on Python
        # floats, so no refusal reports an h = inf that was never given
        assert cli.main(["chain", "--L-list", "4,50", *args]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "h=[inf]" not in err

    @pytest.mark.parametrize("command", ["chain", "sweep", "thermo"])
    @pytest.mark.parametrize("k, shown", [("inf", "inf"), ("nan", "nan"),
                                          ("-1", "-1.0"),
                                          ("1e-200", "1e-200")])
    def test_coupling_refusal_names_k_alone(self, tmp_path, capsys, command,
                                            k, shown):
        # --k is refused on its own, before any field is formed, so the
        # message names --k and its value and no h the user never gave
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, "--k", k, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--k={shown}" in err
        assert "h=" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        [command, "--k", "1e-100", "--h-min", "1e-300", "--h-max", "1e-299",
         "--h-steps", "2"] for command in ("spectrum", "sweep", "thermo")] + [
        ["chain", "--k", "1e-100", "--h", "1e-300", "--L-list", "4"],
        ["chain", "--k", "1e-100", "--h-min", "1e-300", "--h-max", "1e-299",
         "--L-list", "4"],
        ["sweep", "--h-min", "0", "--h-max", "1e-320", "--h-steps", "2"]])
    def test_underflowed_field_exit_code(self, tmp_path, capsys, argv):
        # a nonzero field whose h k flushes to 0 or is subnormal is refused,
        # naming the options; h = 0 itself stays accepted
        out = tmp_path / "out.csv"
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "normal double" in err and "--k" in err
        assert not out.exists()

    @pytest.mark.parametrize("lengths", [["--L", str(10**400)],
                                         ["--L-list", f"4,{2**1000 + 2}"]])
    def test_chain_length_beyond_float_range_exit_code(self, tmp_path,
                                                       capsys, lengths):
        out = tmp_path / "chain.csv"
        assert cli.main(["chain", *lengths, "--out", str(out)]) == 2
        assert "at most 2**1000" in capsys.readouterr().err
        assert not out.exists()
        # the longest chain accepted, where |yy| has underflowed to 0
        assert cli.main(["chain", "--L", str(2**1000), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[3] == \
            "0.000000000000e+00"

    def test_chain_empty_length_list_exit_code(self, capsys):
        assert cli.main(["chain", "--L-list", ""]) == 2
        assert "chain length" in capsys.readouterr().err

    def test_verify_odd_grid_exit_code(self, capsys):
        assert cli.main(["verify", "--grid", "65"]) == 2
        assert "even" in capsys.readouterr().err

    def test_verify_grid_ceiling_exit_code(self, capsys):
        # refused before any check runs, so nothing is allocated
        grid = optimize_mod.MAX_RESOLUTION + 2
        assert cli.main(["verify", "--grid", str(grid)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "at most" in err

    def test_io_error_exit_code(self, tmp_path):
        missing_dir = tmp_path / "nope" / "out.csv"
        assert cli.main(["spectrum", "--out", str(missing_dir)]) == 2

    def test_bad_argument_exit_code(self, capsys):
        assert cli.main(["spectrum", "--h-steps", "1"]) == 2
        assert cli.main(["thermo", "--h-min", "0"]) == 2
        # refused before the grid is allocated: its 8e18 bytes would raise
        # a MemoryError, exit 1
        steps = ["--h-steps", str(10**18)]
        for command in ("spectrum", "sweep", "thermo"):
            assert cli.main([command, *steps]) == 2
        # chain's field range goes through the same checks as the others
        for args in (["--h-steps", "0"], ["--h-steps", "-3"], steps,
                     ["--h-min", "0.3", "--h-max", "0.1"]):
            assert cli.main(["chain", "--h-min", "0.1", "--h-max", "0.2",
                             *args]) == 2
        assert capsys.readouterr().out == ""
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
                            lambda seed=0: [passing])
        assert cli.main(["verify"]) == 0
        assert "PASS" in capsys.readouterr().out
        monkeypatch.setattr(checks, "run_all",
                            lambda seed=0: [passing, failing])
        assert cli.main(["verify"]) == 1
        assert "FAIL" in capsys.readouterr().out
        monkeypatch.setattr(checks, "run_all",
                            lambda seed=0: [unconverged])
        assert cli.main(["verify"]) == 1
        assert ("(tolerance 1e-08)  not converged: h=0.5 extracted"
                in capsys.readouterr().out)

    def test_verify_forwards_seed_and_grid(self, monkeypatch):
        # the seed reaches the checks; a valid --grid is accepted and goes
        # no further, as the oracle reads no grid
        captured = []
        stub = checks.CheckResult(name="stub", passed=True, residual=0.0,
                                  tolerance=1.0)

        def fake_run_all(seed=0):
            captured.append(seed)
            return [stub]

        monkeypatch.setattr(checks, "run_all", fake_run_all)
        assert cli.main(["verify", "--seed", "7", "--grid", "96"]) == 0
        assert captured == [7]

    def test_non_finite_cell_writes_nothing(self, tmp_path):
        out = tmp_path / "rows.csv"
        with pytest.raises(ValueError, match="x = nan at h = 1.0"):
            cli._write_csv(str(out), ["h", "x"], [[0.5, 1.0],
                                                  [1.0, float("nan")]])
        assert not out.exists()

    def test_large_field_maxima_are_not_rounded_to_zero(self, capsys):
        # hypot(e_B, g) - |e_B| cancelled to 0.0 at h = 1000 k; the
        # reference value is 1.2450093687e-16 (60 digits)
        assert cli.main(["sweep", "--h-min", "1000", "--h-max", "1000",
                         "--h-steps", "2"]) == 0
        header, row = capsys.readouterr().out.splitlines()[:2]
        cells = dict(zip(header.split(","), map(float, row.split(","))))
        assert cells["extracted_max"] == pytest.approx(1.2450093687e-16,
                                                       rel=1e-10, abs=0.0)

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


@pytest.mark.parametrize("command, field", [("spectrum", "1e16"),
                                            ("sweep", "1e16"),
                                            ("sweep", "1e50"),
                                            ("thermo", "1e16"),
                                            ("thermo", "1e30"),
                                            ("thermo", "1e-158")])
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
