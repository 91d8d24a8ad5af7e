"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion asserts on the `qetsim.checks` results that `qetsim verify`
prints; criterion 03 reruns the oracle check on a denser field grid.
Only the landmarks of criterion 04 and the power-law scan of criterion 10
have no check counterpart and compute their own residual.  Every line
reports the worst residual over its tolerance; a value below 1 passes.
Run with ``pytest -s`` to see every line, or ``pytest -v`` for the
per-test verdicts.
"""

import time

import numpy as np

from qetsim import checks
from qetsim.chain import correlators_vs_length
from qetsim.optimize import crossover_field, peak_extracted_energy


def report(num, name, *results, own=0.0, extra=""):
    """Print and assert criterion `num` over the check results and the
    criterion's own residual-over-tolerance `own`."""
    # np.max keeps a NaN, which then fails the criterion
    worst = np.max([own] + [r.residual / r.tolerance for r in results])
    failed = [f"{r.name} {r.detail}".strip() for r in results if not r.passed]
    ok = worst < 1.0 and not failed
    line = (f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: "
            f"worst {worst:.3e} of tolerance")
    if extra:
        line += f"  {extra}"
    print(line)
    assert ok, "; ".join([line] + failed)


def test_criterion_01_ground_state_exactness(verify_results):
    report(1, "closed-form ground energy vs diagonalisation",
           verify_results[checks.check_sector_spectra],
           verify_results[checks.check_ground_state_invariants])


def test_criterion_02_algebraic_invariants(verify_results):
    report(2, "amplitude and correlator identities",
           verify_results[checks.check_ground_state_invariants],
           verify_results[checks.check_correlators],
           verify_results[checks.check_energy_decomposition],
           verify_results[checks.check_protocol_two_routes])


def test_criterion_03_optimizer_equivalence(verify_results):
    fields = np.arange(0.05, 2.0001, 0.05)
    oracle = checks.check_brute_force(fields=fields)
    report(3, "oracle brackets the closed-form maxima", oracle,
           verify_results[checks.check_random_never_beats_maxima],
           verify_results[checks.check_monotone_feedback_tilt],
           extra=f"({len(fields)} fields, both targets, {oracle.detail})")


def test_criterion_04_sweep_landmarks():
    peak = peak_extracted_energy()
    cross = crossover_field()
    worst = np.max([abs(peak.h_peak - 0.18) / 0.01,
                    abs(peak.ratio_to_injected - 0.032) / 0.003,
                    abs(cross - 0.24) / 0.01])
    report(4, "peak field, peak ratio, crossover field", own=worst,
           extra=f"(peak {peak.h_peak:.4f}, ratio "
                 f"{peak.ratio_to_injected:.4f}, crossover {cross:.4f})")


def test_criterion_05_heat_at_the_optima(verify_results):
    report(5, "no heat at the extracted optimum, release at the site optimum",
           verify_results[checks.check_certificates])


def test_criterion_06_majorana_identities(verify_results):
    report(6, "majorana correlator and operator identities",
           verify_results[checks.check_majorana_identities])


def test_criterion_07_degenerate_quadruplet(verify_results):
    report(7, "fourfold-degenerate correlator table",
           verify_results[checks.check_degenerate_quadruplet])


def test_criterion_08_second_law_equality(verify_results):
    report(8, "information budget equals the site-reduction maximum",
           verify_results[checks.check_second_law],
           verify_results[checks.check_thermo_states])


def test_criterion_09_entropy_minimization(verify_results):
    report(9, "measured entropy minimised along the x axis",
           verify_results[checks.check_entropy_minimization],
           extra="(angle in units of the polar grid spacing)")


def test_criterion_10_free_fermion_oracle(verify_results):
    start = time.monotonic()
    scan = correlators_vs_length(0.5, 1.0, range(50, 1001, 50))
    elapsed = time.monotonic() - start
    worst = elapsed / 60.0 if elapsed >= 60.0 else 0.0
    if not scan.r_squared > 0.99:
        worst = max(worst, 10.0)
    report(10, "free-fermion chain oracle and power-law decay",
           verify_results[checks.check_chain_against_exact],
           verify_results[checks.check_chain_field_dependence], own=worst,
           extra=f"(20 lengths to 1000 in {elapsed:.1f}s, slope "
                 f"{scan.slope:.3f}, R^2 {scan.r_squared:.5f})")


def test_criterion_11_no_feedback_control(verify_results):
    report(11, "feedback gain isolated against the unconditioned control",
           verify_results[checks.check_no_feedback])


def test_every_check_backs_a_criterion():
    named = set()
    for name, test in globals().items():
        if name.startswith("test_criterion_"):
            named.update(test.__code__.co_names)
    assert [fn.__name__ for fn in checks.CHECKS
            if fn.__name__ not in named] == []
