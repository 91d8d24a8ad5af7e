import time
import warnings

import numpy as np
import pytest

from qetsim.chain import (SMALL_FIELD, build_chain, correlators_vs_length,
                          edge_correlators, ground_covariance,
                          ground_energy_from_filling)
from qetsim.model import ModelParams, ground_state
from qetsim.protocol import correlators_closed


def gs(h, k=1.0):
    return ground_state(ModelParams(h=h, k=k))


class TestBuildChain:
    def test_four_site_couplings(self):
        h, k = 0.7, 1.0
        spec = build_chain(4, h, k)
        a = np.zeros((6, 6))
        pairs = [(4, 0, 2 * h), (0, 1, -2 * k), (1, 2, 2 * k), (2, 3, -2 * k),
                 (3, 5, 2 * h)]
        for i, j, val in pairs:
            a[i, j] += val
            a[j, i] -= val
        assert np.allclose(spec.coupling, a)

    def test_antisymmetric(self):
        for L in (2, 5, 16, 37):
            spec = build_chain(L, 0.4, 1.0)
            assert np.allclose(spec.coupling, -spec.coupling.T)

    def test_zero_field_decouples_edge_modes(self):
        spec = build_chain(10, 0.0, 1.0)
        assert np.abs(spec.coupling[[10, 11], :]).max() == 0.0
        assert np.abs(spec.coupling[:, [10, 11]]).max() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_chain(1, 0.5, 1.0)
        with pytest.raises(ValueError):
            build_chain(4, -0.1, 1.0)
        with pytest.raises(ValueError):
            build_chain(4, 0.5, 0.0)

    @pytest.mark.parametrize("h, k", [(np.nan, 1.0), (np.inf, 1.0),
                                      (0.5, np.nan), (0.5, np.inf)])
    def test_rejects_non_finite_field_and_coupling(self, h, k):
        with pytest.raises(ValueError, match="finite"):
            build_chain(4, h, k)
        with pytest.raises(ValueError, match="finite"):
            correlators_vs_length(h, k, [4, 50])


class TestGroundCovariance:
    def test_requires_positive_field(self):
        for solve in (ground_covariance, edge_correlators,
                      ground_energy_from_filling):
            with pytest.raises(ValueError):
                solve(build_chain(4, 0.0, 1.0))

    @pytest.mark.parametrize("L", [4, 9, 32])
    def test_pure_antisymmetric(self, L):
        gamma = ground_covariance(build_chain(L, 0.5, 1.0))
        assert np.allclose(gamma, -gamma.T, atol=1e-12)
        svals = np.linalg.svd(gamma, compute_uv=False)
        assert svals.max() <= 1.0 + 1e-10
        if L % 2 == 0:
            assert svals.min() >= 1.0 - 1e-10
        else:
            # odd L leaves one Majorana unpaired: a single zero singular
            # value, all others saturated
            assert svals.min() < 1e-10
            assert np.sort(svals)[1] >= 1.0 - 1e-10

    def test_odd_length_edge_correlator_vanishes(self):
        # for odd L each edge pair sits on one sublattice of the path,
        # where the covariance vanishes identically
        for L in (3, 9, 15):
            for h in (SMALL_FIELD, 0.5):
                assert edge_correlators(build_chain(L, h, 1.0)) == (0.0, 0.0)

    @pytest.mark.parametrize("L, h", [(16, 1e-6), (16, 1e-5), (50, 1.0)])
    def test_matches_high_precision_polar_factor(self, L, h):
        # reference: the polar factor P = B (B^T B)^(-1/2) of the coupling
        # block between the path's sublattices, at 50 digits; then
        # <i b_0 b_{L-1}> = -P[0, -1] and <i c_0 c_{L-1}> = P[-1, 0]
        mp = pytest.importorskip("mpmath")
        spec = build_chain(L, h, 1.0)
        path = [L] + list(range(L)) + [L + 1]
        even, odd = path[0::2], path[1::2]
        with mp.workdps(50):
            b = mp.matrix([[mp.mpf(float(spec.coupling[i, j])) for j in odd]
                           for i in even])
            vals, vecs = mp.eigsy(b.T * b)
            p = b * vecs * mp.diag([1 / mp.sqrt(v) for v in vals]) * vecs.T
            want = (float(-p[0, len(odd) - 1]), float(p[len(even) - 1, 0]))
        got = edge_correlators(spec)
        assert abs(got[0] - want[0]) < 1e-14
        assert abs(got[1] - want[1]) < 1e-14

    @pytest.mark.parametrize("h", [0.1, 0.5, 1.0, 2.0])
    def test_four_site_chain_matches_exact_diagonalisation(self, h):
        state = gs(h)
        c = correlators_closed(state)
        spec = build_chain(4, h, 1.0)
        bb, cc = edge_correlators(spec)
        assert abs(bb - (-c.xx)) < 1e-10
        assert abs(cc - c.yy) < 1e-10
        assert abs(ground_energy_from_filling(spec) - state.energy) < 1e-10

    def test_long_chain_runtime(self):
        start = time.monotonic()
        spec = build_chain(1000, 0.5, 1.0)
        bb, cc = edge_correlators(spec)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        assert 0.0 < abs(bb) < 1.0
        assert 0.0 < abs(cc) < 1.0


class TestLengthScan:
    def test_zero_field_limit_is_unit_xx(self):
        scan = correlators_vs_length(0.0, 1.0, [4, 16, 64])
        for val in scan.xx_abs:
            assert abs(val - 1.0) < 1e-6

    def test_zero_field_limit_stable_against_substitute_choice(self):
        scan = correlators_vs_length(0.0, 1.0, [4, 16, 64])
        for L, val in zip(scan.lengths, scan.xx_abs):
            alt, _ = edge_correlators(build_chain(L, 10.0 * SMALL_FIELD, 1.0))
            assert abs(val - abs(alt)) < 1e-6

    def test_xx_decreases_with_field(self):
        previous = 1.0
        for h in (0.1, 0.3, 0.6, 1.0, 2.0):
            bb, _ = edge_correlators(build_chain(16, h, 1.0))
            assert abs(bb) < previous
            previous = abs(bb)

    def test_field_suppression_strengthens_with_length(self):
        values = [abs(edge_correlators(build_chain(L, 0.2, 1.0))[0])
                  for L in (4, 16, 64)]
        assert values[0] > values[1] > values[2]

    def test_yy_decays_as_power_law(self):
        scan = correlators_vs_length(0.5, 1.0, [50, 100, 200, 400])
        assert np.all(np.diff(scan.yy_abs) < 0.0)
        assert scan.r_squared > 0.99
        assert scan.slope < 0.0

    def test_fit_needs_two_distinct_lengths(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lengths in ([16], [16, 16]):
                scan = correlators_vs_length(0.5, 1.0, lengths)
                assert scan.slope is None and scan.r_squared is None
        with pytest.raises(ValueError):
            correlators_vs_length(0.5, 1.0, [])

    def test_fit_skips_odd_lengths(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed = correlators_vs_length(0.5, 1.0, [4, 5, 50, 100])
        even = correlators_vs_length(0.5, 1.0, [4, 50, 100])
        assert mixed.yy_abs[1] == 0.0
        assert np.isfinite(mixed.slope)
        assert mixed.slope == even.slope
        assert mixed.r_squared == even.r_squared
        for lengths in ([5, 9], [4, 5], [4, 4, 7]):
            scan = correlators_vs_length(0.5, 1.0, lengths)
            assert scan.slope is None and scan.r_squared is None

    def test_rejects_negative_field(self):
        with pytest.raises(ValueError):
            correlators_vs_length(-0.5, 1.0, [4, 50])

    def test_rejects_tiny_lengths(self):
        with pytest.raises(ValueError):
            correlators_vs_length(0.5, 1.0, [1, 4])
