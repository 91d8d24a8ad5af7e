import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qetsim import model, operators, optimize, protocol
from qetsim.model import ModelParams, energy_decomposition, ground_state
from qetsim.operators import axis_vector, even_parity_indices
from qetsim.optimize import (MIN_RESOLUTION, TARGET_EXTRACTED, TARGET_SITE,
                             brute_force_max, crossover_field,
                             max_extracted_energy, max_site_reduction,
                             peak_extracted_energy, protocol_sweep)
from qetsim.protocol import ProtocolParams, correlators_closed, run_protocol

# landmarks of the closed forms, frozen from a high-precision evaluation
PEAK_FIELD = 0.176023978166
PEAK_RATIO = 0.0321883027502  # ratio at h = 0.18, where the peak is quoted
CROSSOVER_FIELD = 0.241331273717

# (h, k) of the scan tests: h = 0 (every row ties), the README range, the
# large-field end, where most rows come close to the winner, and both ends
# of the accepted couplings
SCAN_FIELDS = [pytest.param(h, 1.0, id=str(h))
               for h in (0.0, 0.05, 0.3, 1.5, 3.0, 10.0)] + [
    pytest.param(0.5 * k, k, id=f"0.5k-{k:g}") for k in (1e-100, 1e100)]


def gs(h, k=1.0):
    return ground_state(ModelParams(h=h, k=k))


def grid_axes(n, polar_points=None):
    """Axes of the n-point angle grid, polar-major, or of its first
    `polar_points` polar angles."""
    polar = np.linspace(0.0, np.pi, n)[:polar_points]
    azimuth = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return axis_vector(*np.meshgrid(polar, azimuth,
                                    indexing="ij")).reshape(3, -1).T


def sphere_sample(n, seed=0):
    """n random unit vectors, (n, 3)."""
    axes = np.random.default_rng(seed).normal(size=(n, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


def axis_maxima(cost, gain, saxes):
    """The objective maximised over r and theta at each of the (n, 3)
    feedback axes, with numpy: m/2 + hypot(A, m/2), A = |C^T s| and m =
    s^T M0 s, as A^2 / (hypot(A, m/2) - m/2) where m < 0."""
    gains = saxes @ gain
    squared = (gains * gains).sum(1)
    half = 0.5 * np.einsum("ni,ij,nj->n", saxes, cost, saxes)
    root = np.hypot(np.sqrt(squared), half)
    top = half + root
    np.divide(squared, root - half, out=top, where=half < 0.0)
    return top


def envelopes(form, raxes, saxes):
    """The objective maximised over theta for each measurement axis of
    `raxes` (m, 3) and feedback axis of `saxes` (n, 3), as (m, n), from a
    pair (M0, C): m/2 + hypot(m/2, s^T C r), with m = s^T M0 s."""
    cost, gain = form
    half = 0.5 * np.einsum("ni,ij,nj->n", saxes, cost, saxes)
    return half + np.hypot(half, raxes @ gain.T @ saxes.T)


def form_at(form, raxes):
    """K(r) = [[0, (C r)^T], [C r, M0]] of the (m, 3) axes `raxes`, from a
    pair (M0, C), as (m, 4, 4)."""
    cost, gain = form
    cr = raxes @ gain.T
    matrices = np.zeros((len(cr), 4, 4))
    matrices[:, 0, 1:] = matrices[:, 1:, 0] = cr
    matrices[:, 1:, 1:] = cost
    return matrices


CLOSED = {TARGET_EXTRACTED: max_extracted_energy,
          TARGET_SITE: max_site_reduction}


class TestClosedFormMaxima:
    def test_zero_field_maxima_vanish(self):
        state = gs(0.0)
        assert max_extracted_energy(state).value == pytest.approx(0.0, abs=1e-14)
        assert max_site_reduction(state).value == pytest.approx(0.0, abs=1e-14)
        assert max_extracted_energy(state).params.theta == 0.0

    def test_formulas(self):
        state = gs(0.5)
        e = energy_decomposition(state)
        c = correlators_closed(state)
        h = 0.5
        ext = max_extracted_energy(state)
        site = max_site_reduction(state)
        assert ext.value == pytest.approx(
            np.hypot(e.site_b, h * c.yy) - abs(e.site_b), abs=1e-14)
        assert site.value == pytest.approx(
            np.hypot(e.site_b, h * c.xx) - abs(e.site_b), abs=1e-14)

    def test_certificate_params_reproduce_value(self):
        for h in (0.1, 0.5, 1.5):
            state = gs(h)
            ext = max_extracted_energy(state)
            ledger = run_protocol(state, ext.params)
            assert abs(ledger.extracted - ext.value) < 1e-12
            assert abs(ledger.extracted_site - ext.value) < 1e-12
            assert abs(ledger.extracted_bond) < 1e-12
            site = max_site_reduction(state)
            ledger = run_protocol(state, site.params)
            assert abs(ledger.extracted_site - site.value) < 1e-12
            assert abs(ledger.extracted_bond - site.bond_reduction) < 1e-12
            assert site.bond_reduction < 0.0

    def test_site_reduction_dominates(self):
        for h in (0.05, 0.3, 1.0, 2.5):
            state = gs(h)
            assert (max_site_reduction(state).value
                    >= max_extracted_energy(state).value)

    def test_bond_release_swamps_site_gain_at_small_field(self):
        state = gs(0.05)
        site = max_site_reduction(state)
        assert abs(site.bond_reduction) > 5.0 * site.value
        assert site.value + site.bond_reduction < 0.0


class TestLandmarks:
    def test_peak_location_and_ratio(self):
        peak = peak_extracted_energy()
        assert abs(peak.h_peak - PEAK_FIELD) < 1e-3
        assert abs(peak.ratio_to_injected - PEAK_RATIO) < 1e-3

    def test_crossover(self):
        assert abs(crossover_field() - CROSSOVER_FIELD) < 1e-3


class TestBruteForce:
    def test_matches_closed_forms(self):
        state = gs(0.5)
        ext = brute_force_max(state, TARGET_EXTRACTED)
        site = brute_force_max(state, TARGET_SITE)
        assert abs(ext.value - max_extracted_energy(state).value) < 1e-8
        assert abs(site.value - max_site_reduction(state).value) < 1e-8

    def test_certificate_value_is_reachable(self):
        state = gs(0.3)
        cert = brute_force_max(state, TARGET_EXTRACTED)
        ledger = run_protocol(state, cert.params)
        assert abs(ledger.extracted - cert.value) < 1e-12

    @pytest.mark.parametrize("target, closed",
                             [(TARGET_EXTRACTED, max_extracted_energy),
                              (TARGET_SITE, max_site_reduction)])
    def test_matches_closed_forms_at_large_field(self, target, closed):
        # the site term is ~1e3 k here and the maxima ~1e-16 and ~5e-10 k
        state = gs(1e3)
        assert abs(brute_force_max(state, target).value
                   - closed(state).value) < 5e-14

    def test_oracle_runs_no_protocol_ledger(self, monkeypatch):
        # the certificate's bond term comes from the engine's bond form
        def ledger(*args):
            raise AssertionError("the oracle ran the protocol ledger")

        state = gs(0.6)
        expected = [brute_force_max(state, target)
                    for target in (TARGET_EXTRACTED, TARGET_SITE)]
        for module in (optimize, protocol):
            if hasattr(module, "run_protocol"):
                monkeypatch.setattr(module, "run_protocol", ledger)
        with pytest.raises(AssertionError, match="protocol ledger"):
            protocol.run_protocol(state, expected[0].params)
        assert [brute_force_max(state, target)
                for target in (TARGET_EXTRACTED, TARGET_SITE)] == expected

    def test_oracle_reads_no_closed_form(self, monkeypatch):
        def closed_form(*args):
            raise AssertionError("the oracle read a closed form")

        state = gs(0.6)
        expected = [brute_force_max(state, target)
                    for target in (TARGET_EXTRACTED, TARGET_SITE)]
        for module in (model, optimize, protocol):
            for name in ("energy_decomposition", "correlators_closed",
                         "measurement_energy_closed", "reduction_closed"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, closed_form)
        with pytest.raises(AssertionError, match="closed form"):
            max_extracted_energy(state)
        assert [brute_force_max(state, target)
                for target in (TARGET_EXTRACTED, TARGET_SITE)] == expected

    def test_zero_field_grid_max_is_zero(self):
        state = gs(0.0)
        cert = brute_force_max(state, TARGET_EXTRACTED)
        assert abs(cert.value) < 1e-10

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            brute_force_max(gs(0.5), "nonsense")

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            brute_force_max(gs(0.5), TARGET_EXTRACTED, resolution=32)

    def test_non_integer_resolution_rejected(self):
        with pytest.raises(TypeError, match="integer"):
            brute_force_max(gs(0.5), TARGET_EXTRACTED, resolution=64.0)

    def test_batch_state_rejected(self):
        state = gs(np.array([0.3, 0.5]))
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            brute_force_max(state, TARGET_EXTRACTED)

    def test_odd_resolution_rejected(self):
        with pytest.raises(ValueError, match="reads no grid"):
            brute_force_max(gs(0.5), TARGET_EXTRACTED, resolution=65)

    @pytest.mark.parametrize("target", [TARGET_EXTRACTED, TARGET_SITE])
    @pytest.mark.parametrize("h, k", SCAN_FIELDS)
    def test_halved_scan_picks_the_full_grid_cell(self, h, k, target):
        # lower bound: every cell of the full 32^4 axis grid through a
        # plain float64 envelope of the rotation form; upper bound: the
        # closed form, which no axis pair can beat and which the oracle's
        # proven bound must not undercut
        state = gs(h, k)
        form = optimize._row_engine(state, target)[0]
        axes = grid_axes(32)
        full = max(envelopes(form, axes[lo:lo + 256], axes).max()
                   for lo in range(0, len(axes), 256))
        closed = CLOSED[target](state).value
        cert = brute_force_max(state, target)
        assert full - 1e-15 * k <= cert.value <= closed + 1e-15 * k
        assert closed <= cert.upper_bound + 1e-15 * k

    @pytest.mark.parametrize("n", [MIN_RESOLUTION, 66])
    @pytest.mark.parametrize("target", [TARGET_EXTRACTED, TARGET_SITE])
    @pytest.mark.parametrize("h, k", SCAN_FIELDS)
    def test_reduced_scan_matches_the_halved_scan(self, h, k, target, n):
        # the resolution is accepted but not read, and no feedback axis of
        # the polar half of its grid has a larger maximum over r and theta;
        # n = 66 has no azimuth index n/4
        state = gs(h, k)
        cert = brute_force_max(state, target, n)
        assert cert == brute_force_max(state, target)
        top = axis_maxima(*optimize._row_engine(state, target)[0],
                          grid_axes(n, n // 2))
        assert top.max() <= cert.value + 1e-15 * (h + k)

    @pytest.mark.parametrize("h, k", SCAN_FIELDS)
    def test_symmetry_preconditions(self, h, k):
        # the reduced scan relies on a real ground state of even parity
        # and on real terms next to Bob's site
        state = gs(h, k)
        odd = np.setdiff1d(np.arange(16), even_parity_indices())
        assert not np.any(state.vector.imag)
        assert not np.any(state.vector[odd])
        terms = model.build_hamiltonian(state.params)
        assert not np.any(terms.site_b.imag)
        assert not np.any(terms.bond_right.imag)

    @pytest.mark.parametrize("target", [TARGET_EXTRACTED, TARGET_SITE])
    @pytest.mark.parametrize("h, k", SCAN_FIELDS)
    def test_row_maximum_is_symmetric(self, h, k, target):
        # over the full feedback grid, r, its half turn about z and r with
        # y negated have the same row maximum, to the rounding of
        # m/2 + hypot(m/2, s^T C r), whose m is of size h + k
        rng = np.random.default_rng(14)
        r = rng.normal(size=(20, 3))
        r /= np.linalg.norm(r, axis=1, keepdims=True)
        raxes = np.concatenate([r, r * [-1.0, -1.0, 1.0],
                                r * [1.0, -1.0, 1.0]])
        top = envelopes(optimize._row_engine(gs(h, k), target)[0], raxes,
                        grid_axes(MIN_RESOLUTION)).max(1).reshape(3, 20)
        assert np.abs(top[1:] - top[0]).max() <= 1e-15 * (h + k)

    @pytest.mark.parametrize("target", [TARGET_EXTRACTED, TARGET_SITE])
    @pytest.mark.parametrize("h, k", SCAN_FIELDS)
    def test_row_maximum_is_the_top_eigenvalue(self, h, k, target):
        # the closed-form maximum at a feedback axis s is the top
        # eigenvalue of the restriction [[0, A], [A, m]] of K(C^T s / A)
        # to span{(1, 0), (0, s)}, bounds the theta envelope of every
        # measurement axis of the grid, is attained at r = C^T s / A and
        # 2 theta = atan2(A, -m/2), and is invariant under s -> -s, the
        # half turn about z and y -> -y, to the rounding of terms of size
        # h + k
        tol = 1e-15 * (h + k)
        rng = np.random.default_rng(15)
        s = rng.normal(size=(20, 3))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        saxes = np.concatenate([s, -s, s * [-1.0, -1.0, 1.0],
                                s * [1.0, -1.0, 1.0]])
        state = gs(h, k)
        engine = optimize._row_engine(state, target)[0]
        costs, columns = engine[0].tolist(), engine[1].T.tolist()
        value, gains, amplitude, m = (np.array(x) for x in zip(*(
            optimize._axis_maximum(costs, columns, axis)
            for axis in s.tolist())))
        top = np.array([optimize._axis_maximum(costs, columns, axis)[0]
                        for axis in saxes.tolist()]).reshape(4, 20)
        assert np.abs(top - value).max() <= tol
        assert np.abs(gains - s @ engine[1]).max() <= tol
        assert np.abs(amplitude - np.linalg.norm(gains, axis=1)).max() <= tol
        assert np.abs(m - np.einsum("ni,ij,nj->n", s, engine[0], s)
                      ).max() <= tol
        restricted = np.stack([np.stack([np.zeros(20), amplitude], -1),
                               np.stack([amplitude, m], -1)], -2)
        assert (np.abs(np.linalg.eigvalsh(restricted)[:, -1] - value).max()
                <= tol)

        assert np.all(envelopes(engine, grid_axes(MIN_RESOLUTION), s)
                      <= value + tol)

        r = np.divide(gains, amplitude[:, None],
                      out=np.tile([0.0, 0.0, 1.0], (20, 1)),
                      where=amplitude[:, None] > 0.0)
        theta = 0.5 * np.arctan2(amplitude, -0.5 * m)
        # the certificate's theta = atan2(value, A), the same angle where
        # it is unique (A > 0)
        unique = amplitude > 0.0
        assert np.abs(np.arctan2(value, amplitude)
                      - theta)[unique].max(initial=0.0) <= 1e-15
        y = np.concatenate([np.cos(theta)[:, None],
                            np.sin(theta)[:, None] * s], axis=1)
        attained = np.einsum("ni,nij,nj->n", y, form_at(engine, r), y)
        assert np.abs(attained - value).max() <= tol

    def test_scan_working_set_stays_small(self):
        # h = 0, where every row ties
        tracemalloc.start()
        try:
            brute_force_max(gs(0.0), TARGET_EXTRACTED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_scan_clamps_rounded_negative_amplitudes(self):
        # a gain matrix C = u v^T of rank 1, whose null plane u^T s = 0 is
        # no coordinate plane: there C^T s vanishes up to rounding, and
        # A^2 = |C^T s|^2, a squared norm, cannot round below 0 into a NaN;
        # the fixed point still finds the best axis of a dense sample
        h, k = 0.7, 1.0
        tol = 1e-15 * (h + k)
        cost = optimize._row_engine(gs(h, k), TARGET_EXTRACTED)[0][0]
        sample = sphere_sample(20000, seed=17)
        rng = np.random.default_rng(17)
        for u in rng.normal(size=(4, 3)):
            gain = np.outer(u / np.linalg.norm(u), [0.3, -0.2, 0.4])
            for other in rng.normal(size=(2, 3)):
                axis = np.cross(u, other)
                axis /= np.linalg.norm(axis)
                value, _, amplitude, _ = optimize._axis_maximum(
                    cost.tolist(), gain.T.tolist(), axis.tolist())
                assert 0.0 <= value <= tol and 0.0 <= amplitude <= tol
            value, upper, *_, converged = optimize._fixed_point(cost, gain)
            assert converged and np.isfinite([value, upper]).all()
            sampled = axis_maxima(cost, gain, sample).max()
            assert sampled <= value + tol and value <= upper

        # C = 0 exactly for the site target at h = 0: every A is 0, the
        # value and its bound are 0, and the measurement axis is z
        for k in (1e-100, 1.0, 1e100):
            cert = brute_force_max(gs(0.0, k), TARGET_SITE)
            assert cert.value == cert.upper_bound == 0.0
            assert cert.params.mu == 0.0

    @pytest.mark.parametrize("target", [TARGET_EXTRACTED, TARGET_SITE])
    @pytest.mark.parametrize("h", [0.05, 0.7, 3.0, 10.0])
    def test_newton_axis_ignores_the_tangent_basis(self, h, target):
        # the fixed point assumes no basis: turning Bob's axes (M0 -> Q M0
        # Q^T, C -> Q C) and Alice's (C -> C P^T) leaves the value
        # unchanged and below the bound, although M0 and C C^T are then
        # no longer diagonal
        cost, gain = optimize._row_engine(gs(h), target)[0]
        value = optimize._fixed_point(cost, gain)[0]
        rng = np.random.default_rng(18)
        for _ in range(4):
            q, p = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in "qp")
            turned, upper, _, _, rounds, converged = optimize._fixed_point(
                q @ cost @ q.T, q @ gain @ p.T)
            assert converged and rounds <= 10
            assert abs(turned - value) <= 1e-14 * value
            assert value <= upper

    def test_oracle_builds_no_hamiltonian(self, monkeypatch):
        # the row stage contracts a cached table, so after one warm call
        # the oracle builds no 16 x 16 operator: no Pauli matrix, no
        # unit-coupling product and no Hamiltonian term
        def terms(*args):
            raise AssertionError("the oracle built the Hamiltonian")

        state = gs(0.6)
        expected = [brute_force_max(state, target)
                    for target in (TARGET_EXTRACTED, TARGET_SITE)]
        monkeypatch.setattr(operators, "pauli", terms)
        for module in (model, optimize):
            for name in ("build_hamiltonian", "unit_products"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, terms)
        with pytest.raises(AssertionError, match="Hamiltonian"):
            model.even_sector_spectrum(state.params)
        with pytest.raises(AssertionError, match="Hamiltonian"):
            model.apply_hamiltonian(state.params, state.vector)
        assert [brute_force_max(state, target)
                for target in (TARGET_EXTRACTED, TARGET_SITE)] == expected

    @pytest.mark.parametrize("target", [TARGET_EXTRACTED, TARGET_SITE])
    @pytest.mark.parametrize("h, k", SCAN_FIELDS)
    def test_rotation_form_matches_run_protocol(self, h, k, target):
        # two routes: y^T K(r) y of the target and of the bond term, and
        # run_protocol's ledger, which reads the same table, against
        # sum_n <P_n psi| U_n^+ T U_n |psi>, taken pointwise from project
        # and rotate, at random (r, s, theta); and the ledger's injected
        # energy against sum_n <P_n psi|H|P_n psi> - <psi|H|psi>
        state = gs(h, k)
        engine, bond = optimize._row_engine(state, target)
        rng = np.random.default_rng(16)
        mu, xi = rng.uniform(0.0, np.pi, (2, 20))
        nu, eta = rng.uniform(0.0, 2.0 * np.pi, (2, 20))
        theta = rng.uniform(-np.pi / 2, np.pi / 2, 20)
        pp = ProtocolParams(mu, nu, xi, eta, theta)
        n = np.array([[1], [-1]])
        v = state.vector
        pv, uv = protocol.project(pp, n, v), protocol.rotate(pp, n, v)
        upv = protocol.rotate(pp, n, pv)
        terms = model.build_hamiltonian(state.params)
        reductions = {}
        for name in ("site_b", "bond_right"):
            term = getattr(terms, name)
            reductions[name] = (np.vdot(v, term @ v).real - np.einsum(
                "nmi,ij,nmj->m", upv.conj(), term, uv).real)
        direct = reductions["site_b"] + (reductions["bond_right"]
                                         if target == TARGET_EXTRACTED
                                         else 0.0)
        y = np.concatenate([np.cos(theta)[:, None],
                            np.sin(theta)[:, None] * axis_vector(xi, eta).T],
                           axis=1)
        r = axis_vector(mu, nu).T
        ledger = run_protocol(state, pp)
        ledger_target = (ledger.extracted if target == TARGET_EXTRACTED
                         else ledger.extracted_site)
        for form, read, expected in (
                (engine, ledger_target, direct),
                (bond, ledger.extracted_bond, reductions["bond_right"])):
            quadratic = np.einsum("ni,nij,nj->n", y, form_at(form, r), y)
            assert np.abs(quadratic - expected).max() < 1e-13 * (h + k)
            assert np.abs(read - expected).max() < 1e-13 * (h + k)
        injected = (np.einsum("nmi,ij,nmj->m", pv.conj(), terms.total, pv).real
                    - np.vdot(v, terms.total @ v).real)
        assert np.abs(ledger.injected - injected).max() < 1e-13 * (h + k)

    @pytest.mark.parametrize("target", [TARGET_EXTRACTED, TARGET_SITE])
    @pytest.mark.parametrize("h, k", SCAN_FIELDS)
    def test_cost_block_is_negative(self, h, k, target):
        # at theta = pi/2 the objective is <T> - <sigma_s T sigma_s>, which
        # a rotation of Bob's spin alone cannot make positive
        cost = optimize._row_engine(gs(h, k), target)[0][0]
        assert np.linalg.eigvalsh(cost).max() <= 1e-15 * (h + k)

    @pytest.mark.parametrize("n", [66, 96])
    @pytest.mark.parametrize("h", [1.5, 10.0])
    @pytest.mark.parametrize("target, closed",
                             [(TARGET_EXTRACTED, max_extracted_energy),
                              (TARGET_SITE, max_site_reduction)])
    def test_ascent_converges_off_the_optimal_axes(self, target, closed, h,
                                                   n):
        # resolutions whose grids would miss the optimal axes' azimuth
        # pi/2 or polar angle pi/2: the fixed point reads no grid, and the
        # extracted target's flat direction at large h costs it no rounds
        state = gs(h)
        cert = brute_force_max(state, target, n)
        assert cert.converged and cert.rounds <= 3
        assert abs(cert.value - closed(state).value) <= 1e-15

    @pytest.mark.parametrize("target, closed",
                             [(TARGET_EXTRACTED, max_extracted_energy),
                              (TARGET_SITE, max_site_reduction)])
    def test_ascent_rises_to_the_maximum(self, target, closed, monkeypatch):
        # from lambda = 0, each round's lambda(s) is no lower than the last
        # but for rounding, the value is the best of them, and it is the
        # closed-form maximum
        axis_maximum = optimize._axis_maximum
        rises = []

        def recorded(*args):
            result = axis_maximum(*args)
            rises.append(result[0])
            return result

        monkeypatch.setattr(optimize, "_axis_maximum", recorded)
        rng = np.random.default_rng(16)
        for h in rng.uniform(0.0, 3.0, 10):
            state = gs(h)
            rises.clear()
            cert = brute_force_max(state, target)
            assert cert.converged and len(rises) == cert.rounds
            assert np.all(np.diff([0.0] + rises) >= -1e-15)
            assert cert.value == max(rises)
            assert abs(cert.value - closed(state).value) <= 1e-15

    @pytest.mark.parametrize("k", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("target", [TARGET_EXTRACTED, TARGET_SITE])
    def test_zero_field_certificate(self, target, k):
        # every row maximum is 0 and the top eigenvector may have no
        # feedback part; the certificate must still be a reachable point
        state = gs(0.0, k)
        cert = brute_force_max(state, target)
        params = cert.params
        assert cert.converged
        assert np.all(np.isfinite([params.mu, params.nu, params.xi,
                                   params.eta, params.theta]))
        ledger = run_protocol(state, params)
        direct = (ledger.extracted if target == TARGET_EXTRACTED
                  else ledger.extracted_site)
        assert abs(direct - cert.value) <= 1e-15 * k

    def test_deterministic(self):
        state = gs(0.3)
        one = brute_force_max(state, TARGET_SITE)
        two = brute_force_max(state, TARGET_SITE)
        assert one.value == two.value
        assert one.params == two.params


class TestRowTable:
    def test_table_is_cached_read_only(self):
        table = protocol._row_table()
        assert table.shape == (70, 256)
        assert protocol._row_table() is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0

    def test_table_is_not_built_at_import(self):
        # every command line process imports protocol; the table is built
        # by the first ledger or oracle call
        code = ("import qetsim.cli, qetsim.protocol as p; "
                "print(p._row_table.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                 sys.path)}).stdout
        assert out.strip() == "0"

    @pytest.mark.parametrize("target", [TARGET_EXTRACTED, TARGET_SITE])
    @pytest.mark.parametrize("h, k", SCAN_FIELDS)
    def test_forms_ignore_a_global_phase(self, h, k, target):
        # the table contracts conj(psi) (x) psi, so nothing assumes a real
        # state vector
        state = gs(h, k)
        expected = optimize._row_engine(state, target)
        for phase in (0.3, 2.0, -2.9):
            turned = dataclasses.replace(
                state, vector=np.exp(1j * phase) * state.vector)
            forms = optimize._row_engine(turned, target)
            for got, want in zip(forms, expected):
                for a, b in zip(got, want):
                    assert np.abs(a - b).max() <= 1e-15 * (h + k)

    def test_batch_is_refused(self):
        with pytest.raises(ValueError, match=r"the oracle takes one state, "
                           r"got a batch of shape \(2,\)"):
            optimize._row_engine(gs(np.array([0.3, 0.5])), TARGET_EXTRACTED)


def _numpy_fixed_point(cost, gain, max_rounds=100):
    """The fixed point written with numpy (:func:`axis_maxima` on the
    iterate's axis), kept as the reference of the Python-float step:
    (value, s, rounds)."""
    value, best = 0.0, None
    for rounds in range(1, max_rounds + 1):
        s = np.linalg.eigh(gain @ gain.T + value * cost)[1][:, -1]
        rise = axis_maxima(cost, gain, s[None])[0]
        if best is None or rise > value:
            best = s
        if rise <= value:
            return value, best, rounds
        value = rise
    raise AssertionError("the numpy fixed point did not converge")


def top_pair(amplitude, m):
    """The oracle's closed-form top eigenpair of [[0, A], [A, m]]: the
    value of :func:`optimize._axis_maximum` at a feedback axis with A =
    |C^T s| and m = s^T M0 s, and the certificate's unit vector (cos theta,
    sin theta) at theta = atan2(value, A)."""
    value = optimize._axis_maximum([[m, 0.0, 0.0], [0.0] * 3, [0.0] * 3],
                                   [[amplitude, 0.0, 0.0], [0.0] * 3,
                                    [0.0] * 3], [1.0, 0.0, 0.0])[0]
    theta = math.atan2(value, amplitude)
    return value, (math.cos(theta), math.sin(theta))


class TestAscentStep:
    """One round of the fixed point: the top eigenvector s of C C^T +
    lambda M0 by Jacobi, then lambda(s) and the angle theta in closed form
    on Python floats, against numpy."""

    @staticmethod
    def matrices():
        # (A, m) of [[0, A], [A, m]]: A >= 0 is a norm, m <= 0 but for
        # rounding
        rng = np.random.default_rng(19)
        for a, m in rng.normal(size=(200, 2)) * rng.choice(
                [1e-8, 1.0, 1e8], (200, 1)):
            yield abs(a), -abs(m)                # as on the oracle
            yield abs(a), abs(m) * 1e-3          # m rounded above 0
            yield 0.0, -abs(m)                   # diagonal
            yield abs(a), 0.0                    # zero cost
        yield 0.0, 0.0

    def test_closed_form_eigenpairs_match_eigh(self):
        for amplitude, m in self.matrices():
            matrix = np.array([[0.0, amplitude], [amplitude, m]])
            scale = np.abs(matrix).max()
            value, vector = top_pair(amplitude, m)
            reference, reference_vectors = np.linalg.eigh(matrix)
            # both are backward stable: errors of a few ulps of the scale
            assert abs(value - reference[-1]) <= 1e-15 * scale
            assert abs(math.hypot(*vector) - 1.0) <= 4e-16
            assert np.abs(matrix @ vector - value * np.array(vector)
                          ).max() <= 1e-15 * scale
            if reference[1] - reference[0] > 1e-6 * scale:  # unique up to sign
                alignment = abs(np.dot(vector, reference_vectors[:, -1]))
                assert abs(alignment - 1.0) <= 1e-9

    def test_degenerate_matrix_gives_the_coordinate_axes(self):
        # without a gain (A = 0) the top eigenvector is (1, 0), no
        # rotation, unless rounding left the cost above 0
        assert top_pair(0.0, -2.5) == (0.0, (1.0, 0.0))
        assert top_pair(0.0, 0.0) == (0.0, (1.0, 0.0))
        value, (cos, sin) = top_pair(0.0, 2.5)
        assert value == 2.5 and abs(cos) <= 1e-16 and sin == 1.0

    def test_jacobi_axis_matches_eigh(self):
        # random symmetric matrices at scales 1e-8..1e8, a third with a
        # repeated top eigenvalue: the axis is a unit top eigenvector to
        # rounding; a diagonal matrix gets its coordinate axis, ties going
        # to the last
        rng = np.random.default_rng(23)
        for i, scale in enumerate(rng.choice([1e-8, 1.0, 1e8], 300)):
            q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            eigenvalues = scale * rng.normal(size=3)
            if i % 3 == 0:
                eigenvalues[:2] = eigenvalues.max()
            matrix = (q * eigenvalues) @ q.T
            matrix = 0.5 * (matrix + matrix.T)
            axis = np.array(optimize._jacobi_axis(
                *matrix[np.triu_indices(3)].tolist()))
            size = np.abs(eigenvalues).max()
            top = np.linalg.eigvalsh(matrix)[-1]
            assert abs(axis @ axis - 1.0) <= 1e-15
            assert abs(axis @ matrix @ axis - top) <= 1e-15 * size
            assert np.abs(matrix @ axis - top * axis).max() <= 1e-14 * size
        assert optimize._jacobi_axis(1.0, 0.0, 0.0, 3.0, -0.0, 2.0) == [
            0.0, 1.0, 0.0]
        assert optimize._jacobi_axis(2.0, 0.0, 0.0, 1.0, 0.0, 2.0) == [
            0.0, 0.0, 1.0]

    def test_trial_axes_match_the_numpy_step(self):
        # random gain matrices C, cost blocks M0 <= 0 and unit axes s
        rng = np.random.default_rng(20)
        for _ in range(300):
            gain = rng.normal(size=(3, 3))
            root = rng.normal(size=(3, 3))
            cost = -root @ root.T
            s = rng.normal(size=3)
            s /= np.linalg.norm(s)
            value, gains, amplitude, m = optimize._axis_maximum(
                cost.tolist(), gain.T.tolist(), s.tolist())
            assert abs(value - axis_maxima(cost, gain, s[None])[0]) <= 1e-14
            assert np.abs(np.subtract(gains, s @ gain)).max() <= 1e-14
            assert abs(amplitude - np.linalg.norm(s @ gain)) <= 1e-14
            assert abs(m - s @ cost @ s) <= 1e-14

    @pytest.mark.parametrize("target", [TARGET_EXTRACTED, TARGET_SITE])
    @pytest.mark.parametrize("h, k", SCAN_FIELDS)
    def test_trial_axes_match_the_numpy_step_on_the_oracle(self, h, k,
                                                           target):
        # the Python-float fixed point on the oracle's forms reaches the
        # axis and value of the numpy one, one eigensolve sooner: the numpy
        # one confirms by a round that does not rise, the certificate by
        # none (both take one round at a value of 0)
        cost, gain = optimize._row_engine(gs(h, k), target)[0]
        value, _, s, _, rounds, converged = optimize._fixed_point(cost, gain)
        reference, reference_s, reference_rounds = _numpy_fixed_point(cost,
                                                                      gain)
        assert converged and rounds == max(1, reference_rounds - 1)
        assert abs(value - reference) <= 1e-15 * (h + k)
        assert np.abs(np.subtract(s, reference_s)).max() <= 1e-15


def random_forms(count, seed):
    """(M0, C) pairs for the fixed point: M0 = -R R^T and a normal C at
    scales from 1e-3 to 1e3, a third of them with a zero column of C, then
    exactly diagonal pairs with ties."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        root = rng.normal(size=(3, 3))
        gain = scale * rng.normal(size=(3, 3))
        if i % 3 == 0:
            gain[:, rng.integers(3)] = 0.0
        yield -scale * root @ root.T, gain
    for cost, gain in (([1.0, 1.0, 2.0], [1.0, 1.0, 0.5]),
                       ([1.0, 2.0, 2.0], [0.0, 1.0, 1.0]),
                       ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
                       ([0.0, 1.0, 1.0], [0.0, 0.0, 0.0]),
                       ([3.0, 1.0, 0.0], [2.0, 2.0, 0.0])):
        for scale in (1e-3, 1.0, 1e3):
            yield -scale * np.diag(cost), scale * np.diag(gain)


class TestFixedPoint:
    def test_random_forms_bracket_every_sampled_axis(self, monkeypatch):
        # the value beats every axis of a dense sphere sample and the
        # bound every sampled maximum; lambda never falls between rounds,
        # at most 10 rounds are taken, and for a diagonal M0 the bound is
        # tight
        axis_maximum = optimize._axis_maximum
        rises = []

        def recorded(*args):
            result = axis_maximum(*args)
            rises.append(result[0])
            return result

        monkeypatch.setattr(optimize, "_axis_maximum", recorded)
        sample = sphere_sample(20000, seed=21)
        for cost, gain in random_forms(300, seed=21):
            rises.clear()
            value, upper, _, _, rounds, converged = optimize._fixed_point(
                cost, gain)
            assert converged and rounds == len(rises) <= 10
            sampled = axis_maxima(cost, gain, sample).max()
            assert sampled <= value * (1.0 + 1e-15)
            assert sampled <= upper
            assert np.all(np.diff([0.0] + rises) >= -4e-15 * value)
            assert value == max(rises)
            if not np.any(cost - np.diag(np.diag(cost))):
                # the certificate's rounding slack is a fixed share of
                # the value's size
                assert upper - value <= 1e-13 * value

    def test_fixed_point_calls_no_linalg(self, monkeypatch):
        # after reading (M0, C) the fixed point runs on Python floats: its
        # Jacobi axis and Cholesky certificate make no numpy.linalg call,
        # on physical states and on random forms alike
        forms = [optimize._row_engine(gs(h, k), target)[0]
                 for h, k in ((0.0, 1.0), (0.3, 1.0), (3.0, 1.0),
                              (0.5e-100, 1e-100), (0.5e100, 1e100))
                 for target in (TARGET_EXTRACTED, TARGET_SITE)]
        forms += random_forms(30, seed=22)
        expected = [optimize._fixed_point(*form) for form in forms]

        def linalg(*args, **kwargs):
            raise AssertionError("the fixed point called numpy.linalg")

        for name in np.linalg.__all__:
            monkeypatch.setattr(np.linalg, name, linalg)
        with pytest.raises(AssertionError, match="numpy.linalg"):
            np.linalg.eigh(np.eye(3))
        assert [optimize._fixed_point(*form) for form in forms] == expected

    def test_certificate_refuses_a_bound_below_the_value(self):
        # the value is attained, so a bound 2^-44 below it must fail the
        # test wherever the bound 2^-44 above it passed; without a gain, a
        # zero bound passes for a diagonal M0 <= 0 only, else the fixed
        # point reports no bound
        forms = [optimize._row_engine(gs(h), target)[0]
                 for h in (0.05, 0.3, 3.0, 100.0)
                 for target in (TARGET_EXTRACTED, TARGET_SITE)]
        forms += random_forms(100, seed=24)
        for cost, gain in forms:
            value, upper, *_, converged = optimize._fixed_point(cost, gain)
            form = [0.5 * (cost[i, j] + cost[j, i])
                    for i, j in optimize._UPPER]
            assert converged
            assert optimize._certifies(form, gain.tolist(), upper)
            if value:
                below = value * (1.0 - 2.0**-44)
                assert not optimize._certifies(form, gain.tolist(), below)
        root = np.random.default_rng(24).normal(size=(3, 3))
        value, upper, *_, converged = optimize._fixed_point(
            -root @ root.T, np.zeros((3, 3)))
        assert (value, upper, converged) == (0.0, np.inf, False)

    @pytest.mark.parametrize("k", [1e-3, 1.0, 1e3])
    def test_upper_bound_over_the_accepted_range(self, k):
        # 41 log-spaced h/k in [1e-6, 1e4], both targets
        for ratio in np.logspace(-6.0, 4.0, 41):
            state = gs(float(ratio * k), k)
            for target in (TARGET_EXTRACTED, TARGET_SITE):
                cert = brute_force_max(state, target)
                assert cert.value <= cert.upper_bound

    def test_upper_bound_is_tight_in_the_readme_range(self):
        # the bound's slack is rounding alone, a fixed share of the value
        for h in np.linspace(0.05, 1.5, 30):
            state = gs(float(h))
            for target in (TARGET_EXTRACTED, TARGET_SITE):
                cert = brute_force_max(state, target)
                assert cert.upper_bound - cert.value <= 1e-11 * cert.value

    def test_closed_forms_are_their_own_bound(self):
        state = gs(np.array([0.0, 0.3, 2.0]))
        for closed in CLOSED.values():
            cert = closed(state)
            assert np.array_equal(cert.upper_bound, cert.value)


class TestSweep:
    def test_columns(self):
        rows = protocol_sweep([0.01, 0.5], k=1.0)
        first, second = rows
        assert first.h_yy == pytest.approx(first.h * first.yy)
        assert abs(first.h_yy) < 0.006
        assert first.net_at_site_optimum < 0.0
        assert second.net_at_site_optimum < 0.0
        assert second.extracted_max > 0.0
        assert second.site_reduction_max >= second.extracted_max
