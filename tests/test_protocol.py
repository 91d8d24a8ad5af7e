import dataclasses

import numpy as np
import pytest

from qetsim import model
from qetsim import operators as ops
from qetsim import protocol
from qetsim.model import ModelParams, energy_decomposition, ground_state
from qetsim.optimize import (max_extracted_energy, max_site_reduction,
                             protocol_sweep)
from qetsim.protocol import (ProtocolParams, correlators, correlators_closed,
                             measurement_energy_closed, no_feedback_reduction,
                             outcome_probability, project, reduction_closed,
                             rotate, run_protocol)

SQRT5 = np.sqrt(5.0)

# frozen from the closed forms at zero field: yy = 4 Z^2 (1 - alpha beta)
YY_AT_ZERO_FIELD = -0.447213595499957939


def gs(h, k=1.0):
    return ground_state(ModelParams(h=h, k=k))


def projector(pp, n):
    return project(pp, n, np.eye(16)).T


def feedback_unitary(pp, n):
    return rotate(pp, n, np.eye(16)).T


def pp_random(rng):
    return ProtocolParams(mu=rng.uniform(0, np.pi),
                          nu=rng.uniform(0, 2 * np.pi),
                          xi=rng.uniform(0, np.pi),
                          eta=rng.uniform(0, 2 * np.pi),
                          theta=rng.uniform(-np.pi / 2, np.pi / 2))


class TestProjector:
    def test_polar_axis_is_sz_projector(self):
        pp = ProtocolParams(mu=0.0, nu=0.0, xi=0.0, eta=0.0, theta=0.0)
        for n in (1, -1):
            expected = 0.5 * (np.eye(16) + n * ops.pauli(0, "z"))
            assert np.allclose(projector(pp, n), expected, atol=1e-14)

    def test_idempotent_orthogonal_complete(self, rng=np.random.default_rng(3)):
        for _ in range(5):
            pp = pp_random(rng)
            p_plus, p_minus = projector(pp, 1), projector(pp, -1)
            assert ops.operator_norm(p_plus @ p_plus - p_plus) < 1e-12
            assert ops.operator_norm(p_plus @ p_minus) < 1e-12
            assert ops.operator_norm(p_plus + p_minus - np.eye(16)) < 1e-14

    def test_probabilities_sum_to_one(self):
        state = gs(0.9)
        pp = ProtocolParams(mu=1.1, nu=0.3, xi=0.0, eta=0.0, theta=0.0)
        total = sum(outcome_probability(state, pp, n) for n in (1, -1))
        assert abs(total - 1.0) < 1e-12

    def test_probabilities_are_clipped_to_the_unit_interval(self):
        # on A's +1 eigenstate of r.sigma, p_- = (|psi|^2 - <r.sigma_A>)/2
        # rounds to -1.1e-16 at these angles; it is clipped to 0
        pp = ProtocolParams(mu=0.1, nu=0.1, xi=0.0, eta=0.0, theta=0.0)
        local = sum(c * ops.local_pauli(ax)
                    for c, ax in zip(pp.measure_axis, "xyz"))
        vector = np.zeros(16, dtype=complex)
        vector[[0, 8]] = np.linalg.eigh(local)[1][:, 1]
        state = dataclasses.replace(gs(0.5), vector=vector)
        assert outcome_probability(state, pp, -1) == 0.0
        assert 0.0 < outcome_probability(state, pp, 1) <= 1.0

    def test_invalid_outcome(self):
        pp = ProtocolParams(mu=0.0, nu=0.0, xi=0.0, eta=0.0, theta=0.0)
        with pytest.raises(ValueError):
            projector(pp, 0)
        with pytest.raises(ValueError):
            feedback_unitary(pp, 2)

    def test_axis_vectors_unit(self, rng=np.random.default_rng(4)):
        for _ in range(20):
            pp = pp_random(rng)
            assert abs(np.linalg.norm(pp.measure_axis) - 1.0) < 1e-14
            assert abs(np.linalg.norm(pp.feedback_axis) - 1.0) < 1e-14


class TestFeedbackUnitary:
    def test_zero_angle_is_identity(self):
        pp = ProtocolParams(mu=0.2, nu=0.3, xi=0.4, eta=0.5, theta=0.0)
        assert np.allclose(feedback_unitary(pp, 1), np.eye(16))

    def test_opposite_outcomes_invert(self, rng=np.random.default_rng(5)):
        for _ in range(5):
            pp = pp_random(rng)
            u_plus = feedback_unitary(pp, 1)
            u_minus = feedback_unitary(pp, -1)
            assert ops.operator_norm(u_plus @ u_minus - np.eye(16)) < 1e-12
            assert ops.operator_norm(u_plus @ u_plus.conj().T - np.eye(16)) < 1e-12

    def test_quarter_turn_about_y(self):
        # two-level oracle: conjugating sz by exp(i pi/4 sy) turns it into sx
        pp = ProtocolParams.from_vectors((0.0, 0.0, 1.0), (0.0, 1.0, 0.0),
                                         np.pi / 4.0)
        u2 = (np.cos(np.pi / 4) * np.eye(2)
              + 1j * np.sin(np.pi / 4) * ops.local_pauli("y"))
        conj2 = u2.conj().T @ ops.local_pauli("z") @ u2
        assert np.allclose(conj2, ops.local_pauli("x"), atol=1e-14)
        vac = np.zeros(16, dtype=complex)
        vac[0] = 1.0
        u = feedback_unitary(pp, 1)
        before = ops.expectation(ops.pauli(3, "z"), vac)
        after = ops.expectation(u.conj().T @ ops.pauli(3, "z") @ u, vac)
        assert abs(before + 1.0) < 1e-14
        assert abs(after - ops.expectation(ops.pauli(3, "x"), vac)) < 1e-14


class TestMeasurementEnergy:
    def test_polar_axis_breaks_left_bond_only(self):
        state = gs(0.7)
        e = energy_decomposition(state)
        pp = ProtocolParams(mu=0.0, nu=0.0, xi=0.0, eta=0.0, theta=0.0)
        injected = run_protocol(state, pp).injected
        assert abs(injected - (-e.bond_left)) < 1e-12
        assert injected > 0.0

    def test_transverse_axis(self):
        state = gs(0.7)
        e = energy_decomposition(state)
        pp = ProtocolParams.from_vectors((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), 0.0)
        injected = run_protocol(state, pp).injected
        assert abs(injected - (-e.site_a - e.bond_left)) < 1e-12

    def test_two_routes_agree(self, rng=np.random.default_rng(6)):
        for _ in range(50):
            state = gs(rng.uniform(0.0, 3.0))
            pp = pp_random(rng)
            ledger = run_protocol(state, pp)
            after, injected = ledger.after_measurement, ledger.injected
            after_c, injected_c = measurement_energy_closed(state, pp)
            assert abs(after - after_c) < 1e-12
            assert abs(injected - injected_c) < 1e-12
            assert injected >= -1e-12


class TestFeedbackEnergy:
    def test_zero_angle_changes_nothing(self):
        state = gs(0.6)
        pp = ProtocolParams(mu=1.0, nu=2.0, xi=1.2, eta=0.7, theta=0.0)
        ledger = run_protocol(state, pp)
        assert abs(ledger.extracted) < 1e-12
        assert abs(ledger.extracted_site) < 1e-12
        assert abs(ledger.extracted_bond) < 1e-12

    def test_half_turn_kills_correlator_gain(self, rng=np.random.default_rng(7)):
        state = gs(0.6)
        e = energy_decomposition(state)
        for _ in range(10):
            pp = dataclasses.replace(pp_random(rng), theta=np.pi / 2.0)
            ledger = run_protocol(state, pp)
            sz = pp.feedback_axis[2]
            assert abs(ledger.extracted_site
                       - 2.0 * e.site_b * (1.0 - sz**2)) < 1e-12
            assert ledger.extracted_site <= 1e-12

    def test_ledger_bookkeeping(self, rng=np.random.default_rng(8)):
        for _ in range(50):
            state = gs(rng.uniform(0.0, 3.0))
            pp = pp_random(rng)
            ledger = run_protocol(state, pp)
            assert abs(ledger.extracted - ledger.extracted_site
                       - ledger.extracted_bond) < 1e-12
            assert ledger.heat == ledger.extracted_bond
            site_c, bond_c = reduction_closed(state, pp)
            assert abs(ledger.extracted_site - site_c) < 1e-12
            assert abs(ledger.extracted_bond - bond_c) < 1e-12


class TestNoFeedback:
    def test_never_positive(self, rng=np.random.default_rng(9)):
        state = gs(0.4)
        for _ in range(20):
            pp = pp_random(rng)
            site, bond = no_feedback_reduction(state, pp, 1)
            assert site <= 1e-12
            assert bond <= 1e-12

    def test_zero_angle(self):
        state = gs(0.4)
        pp = ProtocolParams(mu=0.3, nu=0.1, xi=0.9, eta=0.2, theta=0.0)
        assert no_feedback_reduction(state, pp, 1) == pytest.approx((0.0, 0.0),
                                                                    abs=1e-13)

    def test_outcome_choice_irrelevant(self, rng=np.random.default_rng(10)):
        state = gs(1.1)
        for _ in range(10):
            pp = pp_random(rng)
            plus = no_feedback_reduction(state, pp, 1)
            minus = no_feedback_reduction(state, pp, -1)
            assert plus == pytest.approx(minus, abs=1e-12)

    def test_closed_form(self, rng=np.random.default_rng(11)):
        state = gs(0.8)
        e = energy_decomposition(state)
        for _ in range(10):
            pp = pp_random(rng)
            sx, _, sz = pp.feedback_axis
            cos2 = np.cos(2 * pp.theta)
            site, bond = no_feedback_reduction(state, pp, 1)
            assert abs(site - e.site_b * (1 - sz**2) * (1 - cos2)) < 1e-12
            assert abs(bond - e.bond_right * (1 - sx**2) * (1 - cos2)) < 1e-12


class TestCorrelators:
    def test_zero_field_values(self):
        c = correlators(gs(0.0))
        assert abs(c.xx - 1.0) < 1e-12
        assert abs(c.yy - YY_AT_ZERO_FIELD) < 1e-12
        assert abs(c.xxz) < 1e-12

    @pytest.mark.parametrize("h", [0.0, 0.2, 0.9, 2.7])
    def test_closed_forms_and_identity(self, h):
        state = gs(h)
        meas = correlators(state)
        closed = correlators_closed(state)
        assert abs(meas.xx - closed.xx) < 1e-12
        assert abs(meas.yy - closed.yy) < 1e-12
        assert abs(meas.xxz - closed.xxz) < 1e-12
        k = state.params.k
        assert abs(k * meas.xxz - h * meas.xx + h * meas.yy) < 1e-12
        assert abs(meas.xx) > abs(meas.yy)


class TestBatch:
    """One code path serves a single round and a batch of rounds."""

    @pytest.fixture
    def batch(self):
        rng = np.random.default_rng(21)
        h = np.concatenate([[0.0], rng.uniform(0.0, 3.0, 39)])
        angles = rng.uniform((0.0, 0.0, 0.0, 0.0, -np.pi / 2),
                             (np.pi, 2 * np.pi, np.pi, 2 * np.pi, np.pi / 2),
                             size=(40, 5))
        return h, angles

    @staticmethod
    def rounds(batch):
        h, angles = batch
        for i in range(len(h)):
            yield i, gs(float(h[i])), ProtocolParams(*angles[i])

    def test_ledger_matches_scalar_rounds(self, batch):
        h, angles = batch
        ledger = run_protocol(gs(h), ProtocolParams(*angles.T))
        for i, state, pp in self.rounds(batch):
            single = run_protocol(state, pp)
            for field in ("after_measurement", "injected", "after_feedback",
                          "extracted", "extracted_site", "extracted_bond"):
                assert abs(getattr(ledger, field)[i]
                           - getattr(single, field)) <= 1e-15, field
            for field in ("total", "site_b", "bond_right"):
                assert abs(getattr(ledger.ground, field)[i]
                           - getattr(single.ground, field)) <= 1e-15, field

    def test_no_feedback_and_probability_match_scalar_rounds(self, batch):
        h, angles = batch
        state, pp = gs(h), ProtocolParams(*angles.T)
        for n in (1, -1):
            site, bond = no_feedback_reduction(state, pp, n)
            prob = outcome_probability(state, pp, n)
            for i, single, pp_i in self.rounds(batch):
                site_i, bond_i = no_feedback_reduction(single, pp_i, n)
                assert abs(site[i] - site_i) <= 1e-15
                assert abs(bond[i] - bond_i) <= 1e-15
                assert abs(prob[i] - outcome_probability(single, pp_i, n)) \
                    <= 1e-15

    def test_maxima_match_scalar_calls(self, batch):
        h, _ = batch
        state = gs(h)
        for closed in (max_extracted_energy, max_site_reduction):
            cert = closed(state)
            for i, single, _ in self.rounds(batch):
                ref = closed(single)
                for field, batched, scalar in (
                        ("value", cert.value, ref.value),
                        ("theta", cert.params.theta, ref.params.theta),
                        ("bond_reduction", cert.bond_reduction,
                         ref.bond_reduction)):
                    batched = np.broadcast_to(batched, h.shape)
                    assert abs(batched[i] - scalar) <= 1e-15, field
            assert cert.value[0] == 0.0 and cert.params.theta[0] == 0.0

    def test_sweep_rows_match_per_field_calls(self, batch):
        h, _ = batch
        rows = protocol_sweep(h)
        assert len(rows) == len(h)
        for row, h_i in zip(rows, h):
            single, = protocol_sweep([h_i])
            assert np.array_equal(dataclasses.astuple(row),
                                  dataclasses.astuple(single))
        assert protocol_sweep([]) == []

    def test_one_state_many_protocols(self, batch):
        _, angles = batch
        state = gs(0.8)
        ledger = run_protocol(state, ProtocolParams(*angles.T))
        assert ledger.extracted.shape == (len(angles),)
        for i, pp in enumerate(ProtocolParams(*a) for a in angles):
            assert abs(ledger.extracted[i]
                       - run_protocol(state, pp).extracted) <= 1e-15

    def test_ledger_reads_no_closed_form(self, monkeypatch):
        def closed_form(*args):
            raise AssertionError("the ledger read a closed form")

        state = gs(0.6)
        pp = ProtocolParams(mu=0.4, nu=1.1, xi=1.3, eta=0.2, theta=0.3)
        site_c, bond_c = reduction_closed(state, pp)
        for module in (model, protocol):
            monkeypatch.setattr(module, "energy_decomposition", closed_form)
        monkeypatch.setattr(protocol, "correlators_closed", closed_form)
        ledger = run_protocol(state, pp)
        site, bond = no_feedback_reduction(state, pp, 1)
        assert abs(ledger.extracted_site - site_c) < 1e-12
        assert abs(ledger.extracted_bond - bond_c) < 1e-12
        assert abs(ledger.injected + ledger.ground.total
                   - ledger.after_measurement) < 1e-15
        assert site <= 1e-12 and bond <= 1e-12
