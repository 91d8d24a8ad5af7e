import dataclasses

import numpy as np
import pytest

from qetsim.model import ModelParams, energy_decomposition, ground_state
from qetsim.optimize import max_extracted_energy, max_site_reduction
from qetsim.protocol import ProtocolParams, run_protocol
from qetsim.thermo import (average_measured_entropy, effective_temperature,
                           entropy_from_eigenvalues,
                           entropy_minimization_scan, kl_divergence,
                           measured_eigenvalues, measured_state_closed,
                           measured_state_purity, purity_from_energy,
                           purity_from_entropy, qc_mutual_information,
                           reduced_state_initial, reduced_state_measured,
                           second_law_report, thermo_sweep,
                           von_neumann_entropy)

# frozen from a high-precision evaluation at h = 0.5, k = 1
BETA_EFF_H05 = 3.17799706780842917
IQC_H05 = 0.235731138825258457

X_AXIS = ProtocolParams.from_vectors((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0)


def gs(h, k=1.0):
    return ground_state(ModelParams(h=h, k=k))


class TestReducedStates:
    def test_initial_closed_form(self):
        for h in (0.0, 0.4, 1.0, 2.5):
            state = gs(h)
            rho = reduced_state_initial(state)
            z2 = state.norm**2
            expected = 2 * z2 * np.diag([1 + state.beta**2, 1 + state.alpha**2])
            assert np.allclose(rho, expected, atol=1e-12)
            assert abs(np.trace(rho).real - 1.0) < 1e-12

    def test_initial_is_maximally_mixed_at_zero_field(self):
        rho = reduced_state_initial(gs(0.0))
        assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-12)

    def test_measured_x_axis_closed_form(self):
        state = gs(0.6)
        z2 = state.norm**2
        coupling = 2 * z2 * (1 + state.alpha * state.beta)
        for n in (1, -1):
            rho, p = reduced_state_measured(state, X_AXIS, n)
            assert abs(p - 0.5) < 1e-12
            expected = 2 * z2 * np.array(
                [[1 + state.beta**2, 0.0], [0.0, 1 + state.alpha**2]])
            expected[0, 1] = expected[1, 0] = n * coupling
            assert np.allclose(rho, expected, atol=1e-12)

    def test_measured_eigenvalues_outcome_independent(self):
        state = gs(0.8)
        lam_p, lam_m = measured_eigenvalues(state)
        for n in (1, -1):
            rho, _ = reduced_state_measured(state, X_AXIS, n)
            vals = np.sort(np.linalg.eigvalsh(rho))
            assert abs(vals[1] - lam_p) < 1e-12
            assert abs(vals[0] - lam_m) < 1e-12

    def test_measured_pure_at_zero_field(self):
        state = gs(0.0)
        assert abs(measured_state_purity(state) - 1.0) < 1e-12
        rho, _ = reduced_state_measured(state, X_AXIS, 1)
        assert abs(von_neumann_entropy(rho)) < 1e-10

    def test_general_axis_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            state = gs(rng.uniform(0.0, 3.0))
            pp = ProtocolParams(mu=rng.uniform(0, np.pi),
                                nu=rng.uniform(0, 2 * np.pi),
                                xi=0.0, eta=0.0, theta=0.0)
            for n in (1, -1):
                rho, p = reduced_state_measured(state, pp, n)
                rho_c, p_c = measured_state_closed(state, pp.measure_axis, n)
                assert abs(p - p_c) < 1e-12
                assert np.allclose(rho, rho_c, atol=1e-12)

    def test_unreachable_outcome_reported(self):
        state = gs(0.5)
        aligned = np.zeros(16, dtype=complex)
        aligned[0b0000] = aligned[0b1000] = 1.0 / np.sqrt(2.0)  # sx_A = +1
        fake = dataclasses.replace(state, vector=aligned)
        rho, p = reduced_state_measured(fake, X_AXIS, -1)
        assert rho is None
        assert p < 1e-14


class TestEntropy:
    def test_zero_eigenvalue_convention(self):
        assert entropy_from_eigenvalues([1.0, 0.0]) == 0.0
        assert entropy_from_eigenvalues([1.0 + 1e-13, -1e-13]) == 0.0

    def test_continuity_towards_pure(self):
        values = [von_neumann_entropy(reduced_state_measured(gs(h), X_AXIS, 1)[0])
                  for h in (1e-2, 1e-4, 1e-6)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-4

    def test_mutual_information_at_zero_field(self):
        assert abs(qc_mutual_information(gs(0.0), X_AXIS) - np.log(2.0)) < 1e-12

    def test_mutual_information_ignores_feedback(self):
        state = gs(0.7)
        other = ProtocolParams.from_vectors((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                            0.9)
        assert (qc_mutual_information(state, X_AXIS)
                == pytest.approx(qc_mutual_information(state, other), abs=1e-14))

    def test_mutual_information_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            state = gs(rng.uniform(0.0, 3.0))
            pp = ProtocolParams(mu=rng.uniform(0, np.pi),
                                nu=rng.uniform(0, 2 * np.pi),
                                xi=0.0, eta=0.0, theta=0.0)
            assert qc_mutual_information(state, pp) >= -1e-12

    def test_pinned_value(self):
        assert abs(qc_mutual_information(gs(0.5), X_AXIS) - IQC_H05) < 1e-12


class TestEffectiveTemperature:
    def test_zero_field_is_singular(self):
        with pytest.raises(ValueError):
            effective_temperature(gs(0.0))

    def test_pure_measured_state_is_singular(self):
        # at h = 1e30 lambda_- rounds to zero, and beta would divide by it
        with pytest.raises(ValueError, match="not positive"):
            effective_temperature(gs(1e30))

    def test_pinned_beta(self):
        thermal = effective_temperature(gs(0.5))
        assert abs(thermal.beta - BETA_EFF_H05) < 1e-12

    def test_positive_beta(self):
        for h in (0.05, 0.5, 2.0):
            assert effective_temperature(gs(h)).beta > 0.0

    def test_thermal_state_entropy_matches_measured(self):
        for h in (0.1, 0.9, 2.2):
            state = gs(h)
            thermal = effective_temperature(state)
            measured = entropy_from_eigenvalues(measured_eigenvalues(state))
            assert abs(von_neumann_entropy(thermal.sigma) - measured) < 1e-12

    def test_partition_function(self):
        state = gs(0.8)
        thermal = effective_temperature(state)
        lam_p, lam_m = measured_eigenvalues(state)
        assert abs(thermal.partition - 1.0 / np.sqrt(lam_p * lam_m)) < 1e-12
        h = state.params.h
        direct = np.exp(thermal.beta * h) + np.exp(-thermal.beta * h)
        assert abs(thermal.partition - direct) < 1e-12


class TestEntropyMinimization:
    def test_minimizer_is_x_axis(self):
        scan = entropy_minimization_scan(gs(0.5))
        cosine = abs(float(scan.best_axis @ np.array([1.0, 0.0, 0.0])))
        assert np.arccos(min(cosine, 1.0)) < np.pi / 63.0

    def test_minimum_value_matches_thermal_entropy(self):
        state = gs(0.5)
        value = average_measured_entropy(state, (1.0, 0.0, 0.0))
        assert abs(value
                   - entropy_from_eigenvalues(measured_eigenvalues(state))) < 1e-12

    def test_polar_axis_strictly_worse(self):
        state = gs(0.5)
        assert (average_measured_entropy(state, (0.0, 0.0, 1.0))
                > average_measured_entropy(state, (1.0, 0.0, 0.0)) + 1e-3)


class TestSecondLaw:
    @pytest.mark.parametrize("h", [0.05, 0.2, 0.5, 1.0, 2.0, 3.0])
    def test_budget_equality(self, h):
        report = second_law_report(gs(h))
        assert abs(report.bound_rhs - report.site_reduction_max) < 1e-10
        assert report.mutual_information >= -1e-12
        assert report.divergence >= -1e-12

    @pytest.mark.parametrize("h", [0.05, 0.5, 1.5, 3.0])
    def test_purity_identities(self, h):
        state = gs(h)
        g = measured_state_purity(state)
        assert abs(purity_from_energy(state) - g) < 1e-10
        assert abs(purity_from_entropy(state) - g) < 1e-10

    def test_kl_identity(self):
        state = gs(0.7)
        report = second_law_report(state)
        thermal = effective_temperature(state)
        direct = kl_divergence(reduced_state_initial(state), thermal.sigma)
        assert abs(report.divergence - direct) < 1e-12
        assert abs(report.free_energy_gap
                   - report.divergence / report.beta_eff) < 1e-12

    def test_first_law(self):
        report = second_law_report(gs(0.4))
        assert abs(report.work + report.heat - report.energy_change) < 1e-12
        assert report.heat < 0.0

    def test_no_heat_at_extracted_optimum(self):
        for h in (0.1, 0.6, 1.4):
            state = gs(h)
            cert = max_extracted_energy(state)
            assert abs(run_protocol(state, cert.params).heat) < 1e-12

    def test_site_budget_dominated_by_correlator_gain(self):
        from qetsim.protocol import correlators_closed

        h = 0.5
        state = gs(h)
        cert = max_site_reduction(state)
        site_b = energy_decomposition(state).site_b
        gain = -h * correlators_closed(state).xx * cert.sin_2theta
        cost = site_b * (1.0 - cert.cos_2theta)
        assert cost <= 0.0
        assert gain >= cert.value
        assert abs(cost + gain - cert.value) < 1e-12

    def test_divergence_decays_faster_than_information(self):
        rows = thermo_sweep([2.0], k=1.0)
        assert rows[0].kl_over_beta < 0.05 * rows[0].info_over_beta


class TestSweep:
    def test_rows(self):
        rows = thermo_sweep([0.5, 1.0], k=1.0)
        for row in rows:
            assert row.rotation_cost < 0.0
            assert row.correlator_gain >= row.site_reduction_max
            assert abs(row.site_reduction_max - row.kl_over_beta
                       - row.info_over_beta) < 1e-10

    def test_rejects_zero_field(self):
        with pytest.raises(ValueError):
            thermo_sweep([0.0], k=1.0)
