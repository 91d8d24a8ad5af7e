import dataclasses

import numpy as np
import pytest

from qetsim.model import ModelParams, energy_decomposition, ground_state
from qetsim.operators import axis_vector
from qetsim.optimize import max_extracted_energy, max_site_reduction
from qetsim.protocol import (ProtocolParams, bob_blocks, bob_blocks_closed,
                             outcome_block, project, run_protocol)
from qetsim.thermo import (average_measured_entropy, binary_entropy,
                           effective_temperature, entropy_minimization_scan,
                           kl_divergence, measured_eigenvalues,
                           measured_state_purity,
                           purity_from_energy, purity_from_entropy,
                           qc_mutual_information,
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
        # outcome n along r of the closed blocks is p_n [[1 - w, kappa],
        # [conj(kappa), w]], the paper's qubit of occupation w and
        # coherence kappa; below, w and kappa are p_n times those
        rng = np.random.default_rng(13)
        for _ in range(30):
            state = gs(rng.uniform(0.0, 3.0))
            pp = ProtocolParams(mu=rng.uniform(0, np.pi),
                                nu=rng.uniform(0, 2 * np.pi),
                                xi=0.0, eta=0.0, theta=0.0)
            rx, ry, rz = pp.measure_axis
            z2, a, b = state.norm**2, state.alpha, state.beta
            for n in (1, -1):
                rho, p = reduced_state_measured(state, pp, n)
                p_c, rho_c = outcome_block(bob_blocks_closed(state),
                                           pp.measure_axis, n)
                assert abs(p - p_c) < 1e-12
                assert np.allclose(rho, rho_c / p_c, atol=1e-12)
                w = z2 * ((1 - n * rz) + a**2 * (1 + n * rz))
                kappa = n * z2 * ((rx + 1j * ry) + a * b * (rx - 1j * ry))
                assert np.allclose(rho_c, [[p_c - w, kappa],
                                           [np.conj(kappa), w]], atol=1e-15)

    @pytest.mark.parametrize("k", [1e-3, 1.0, 1e3])
    def test_table_holds_the_x_pattern(self, k):
        # off the X pattern (M_0, M_z diagonal; M_x, M_y off-diagonal) the
        # table's blocks are exact zeros on ground states, h/k in [1e-6, 1e4]
        off = np.abs(bob_blocks_closed(gs(0.5))) == 0.0
        state = gs(np.logspace(-6.0, 4.0, 41) * k, k)
        assert (bob_blocks(state)[:, off] == 0.0).all()

    def test_table_states_match_partial_traces(self):
        # the reference: Bob's 2 x 2 block of |P psi><P psi| traced over A,
        # C1 and C2, on ground states and on random complex vectors, which
        # fill every entry of Bob's blocks
        rng = np.random.default_rng(28)
        states = [gs(h) for h in (0.01, 0.1, 0.7, 1.5, 10.0)]
        for _ in range(5):
            v = rng.normal(size=16) + 1j * rng.normal(size=16)
            states.append(dataclasses.replace(states[0],
                                              vector=v / np.linalg.norm(v)))
        for state in states:
            m = state.vector.reshape(8, 2)
            assert np.abs(reduced_state_initial(state)
                          - m.T @ m.conj()).max() < 1e-15
            pp = ProtocolParams(mu=rng.uniform(0, np.pi),
                                nu=rng.uniform(0, 2 * np.pi),
                                xi=0.0, eta=0.0, theta=0.0)
            for n in (1, -1):
                pm = project(pp, n, state.vector).reshape(8, 2)
                p = np.vdot(pm, pm).real
                rho, prob = reduced_state_measured(state, pp, n)
                assert abs(prob - p) < 1e-15
                assert np.abs(rho - pm.T @ pm.conj() / p).max() < 1e-14

    def test_unreachable_outcome_reported(self):
        state = gs(0.5)
        aligned = np.zeros(16, dtype=complex)
        aligned[0b0000] = aligned[0b1000] = 1.0 / np.sqrt(2.0)  # sx_A = +1
        fake = dataclasses.replace(state, vector=aligned)
        rho, p = reduced_state_measured(fake, X_AXIS, -1)
        assert p < 1e-14
        assert np.isfinite(rho).all()
        # the unreachable outcome weighs zero in the outcome average
        rho_p, p_p = reduced_state_measured(fake, X_AXIS, 1)
        expected = (von_neumann_entropy(reduced_state_initial(fake))
                    - p_p * von_neumann_entropy(rho_p))
        assert qc_mutual_information(fake, X_AXIS) == expected


class TestBatch:
    """Every element of a batch equals the scalar call at its field."""

    # the 1-D batch includes h = 0; functions that need h > 0 get 0.9 there
    FIELDS = [np.array([0.0, 0.3, 1.7, 2.5]),
              np.array([[0.3, 1.7, 0.05], [2.9, 1.1, 0.6]])]
    GENERAL = ProtocolParams(mu=0.7, nu=1.1, xi=0.4, eta=2.0, theta=0.3)

    @staticmethod
    def assert_elementwise(fn, h):
        """fn on the batch at h against fn on each element's scalar state;
        fn returns a tuple of arrays with the batch shape in front."""
        batch = fn(gs(h))
        for idx in np.ndindex(h.shape):
            scalar = fn(gs(float(h[idx])))
            assert len(batch) == len(scalar)
            for b, s in zip(batch, scalar):
                assert np.array_equal(b[idx], s), (fn, h[idx])

    @pytest.mark.parametrize("h", FIELDS)
    def test_states_and_information(self, h):
        def states(state):
            out = [reduced_state_initial(state), measured_state_purity(state),
                   *measured_eigenvalues(state),
                   binary_entropy(measured_eigenvalues(state)[1]),
                   bob_blocks_closed(state)]
            for pp in (X_AXIS, self.GENERAL):
                for n in (1, -1):
                    out.extend(reduced_state_measured(state, pp, n))
                out += [qc_mutual_information(state, pp),
                        average_measured_entropy(state, pp.measure_axis)]
            return out

        self.assert_elementwise(states, h)

    @pytest.mark.parametrize("h", FIELDS)
    def test_thermal_and_budget(self, h):
        def thermal(state):
            t = effective_temperature(state)
            return (t.beta, t.partition, t.sigma, purity_from_energy(state),
                    purity_from_entropy(state),
                    *vars(second_law_report(state)).values())

        self.assert_elementwise(thermal, np.where(h == 0.0, 0.9, h))

    def test_pure_element_raises(self):
        # h = 0, where the measured state is exactly pure, as a batch element
        with pytest.raises(ValueError, match="not positive"):
            effective_temperature(gs(np.array([0.5, 0.0])))


class TestEntropy:
    def test_zero_eigenvalue_convention(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(-1e-13) == 0.0

    def test_binary_entropy_batch_is_elementwise(self):
        lam_m = np.array([[0.0, -1e-13, 1e-300, 2.5e-61],
                          [1e-17, 0.1, 0.3, 0.5]])
        batch = binary_entropy(lam_m)
        assert batch.shape == lam_m.shape
        for idx in np.ndindex(lam_m.shape):
            assert batch[idx] == binary_entropy(float(lam_m[idx]))
        assert batch[0, 0] == batch[0, 1] == 0.0
        assert batch[1, 3] == pytest.approx(np.log(2.0), abs=1e-15)
        # -lam log lam + lam + O(lam^2): relative accuracy as lam -> 0
        assert batch[0, 3] == pytest.approx(2.5e-61 * (1.0 - np.log(2.5e-61)),
                                            rel=1e-14)

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
        # lambda_- = 0 exactly at h = 0, and beta would divide by it; at
        # h = 1e30 lambda_- = q / (2 (1 + g)) is 2.5e-61, not 0
        with pytest.raises(ValueError, match="not positive"):
            effective_temperature(gs(0.0))
        # beta h = log sqrt(lambda_+ / lambda_-) = log(2e30)
        beta = effective_temperature(gs(1e30)).beta
        assert beta == pytest.approx(np.log(2e30) / 1e30, rel=1e-12)
        # at h = 1e-158 lambda_- is subnormal and lambda_+ / lambda_-
        # overflows: refused, not a zero budget
        with pytest.raises(ValueError, match="subnormal"):
            effective_temperature(gs(np.array([0.5, 1e-158])))

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
            measured = binary_entropy(measured_eigenvalues(state)[1])
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
        # the meridian grid holds x exactly, with no tied mirror point
        for h in (0.1, 0.5, 1.5, 10.0):
            assert np.array_equal(entropy_minimization_scan(gs(h)),
                                  axis_vector(np.pi / 2.0, 0.0)), h

    def test_minimum_value_matches_thermal_entropy(self):
        state = gs(0.5)
        value = average_measured_entropy(state, (1.0, 0.0, 0.0))
        assert abs(value
                   - binary_entropy(measured_eigenvalues(state)[1])) < 1e-12

    def test_polar_axis_strictly_worse(self):
        state = gs(0.5)
        assert (average_measured_entropy(state, (0.0, 0.0, 1.0))
                > average_measured_entropy(state, (1.0, 0.0, 0.0)) + 1e-3)


class TestSecondLaw:
    @pytest.mark.parametrize("h", [0.05, 0.2, 0.5, 1.0, 2.0, 3.0])
    def test_budget_equality(self, h):
        report = second_law_report(gs(h))
        assert report.budget_residual < 1e-10
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
        two_theta = 2.0 * cert.params.theta
        gain = -h * correlators_closed(state).xx * np.sin(two_theta)
        cost = site_b * (1.0 - np.cos(two_theta))
        assert cost <= 0.0
        assert gain >= cert.value
        assert abs(cost + gain - cert.value) < 1e-12

    def test_divergence_decays_faster_than_information(self):
        rows = thermo_sweep([2.0], k=1.0)
        assert rows[0].kl_over_beta < 0.05 * rows[0].info_over_beta


class TestNoLinalg:
    def test_thermo_calls_no_linalg(self, monkeypatch):
        # Bob's states come from the protocol table or the closed forms and
        # every 2 x 2 entropy from its eigenvalues in closed form, so the
        # thermo layer makes no numpy.linalg call
        state, single = gs(np.array([0.05, 0.7, 2.5])), gs(0.7)
        rho = reduced_state_initial(state)
        sigma = effective_temperature(state).sigma
        calls = [
            lambda: list(vars(second_law_report(state)).values()),
            lambda: [value for row in thermo_sweep([0.3, 1.1], k=1.0)
                     for value in vars(row).values()],
            lambda: [qc_mutual_information(state, X_AXIS),
                     qc_mutual_information(single, TestBatch.GENERAL)],
            lambda: [entropy_minimization_scan(single)],
            lambda: [von_neumann_entropy(rho)],
            lambda: [kl_divergence(rho, sigma)],
        ]
        expected = [call() for call in calls]

        def linalg(*args, **kwargs):
            raise AssertionError("the thermo layer called numpy.linalg")

        for name in np.linalg.__all__:
            monkeypatch.setattr(np.linalg, name, linalg)
        with pytest.raises(AssertionError, match="numpy.linalg"):
            np.linalg.eigvalsh(np.eye(2))
        for call, want in zip(calls, expected):
            got = call()
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_von_neumann_entropy_refuses_a_4_x_4_state(self):
        with pytest.raises(ValueError, match="2 x 2"):
            von_neumann_entropy(np.eye(4) / 4.0)

    def test_kl_divergence_refuses_a_non_diagonal_sigma(self):
        rho = reduced_state_initial(gs(0.7))
        sigma = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
        with pytest.raises(ValueError, match="diagonal"):
            kl_divergence(rho, sigma)


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
