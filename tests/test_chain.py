import math
import time
import warnings

import numpy as np
import pytest

from qetsim import chain
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

    @pytest.mark.parametrize("L", [2, 5, 16, 1000])
    def test_matches_per_bond_assembly(self, L):
        h, k = 0.7, 1.3
        a = np.zeros((L + 2, L + 2))

        def add(i, j, t):
            a[i, j] += 2.0 * t
            a[j, i] -= 2.0 * t

        add(L, 0, h)
        for l in range(L - 1):
            add(l, l + 1, -k * (-1.0) ** l)
        add(L - 1, L + 1, h)
        assert np.array_equal(build_chain(L, h, k).coupling, a)

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

    @pytest.mark.parametrize("h, k, name", [(1e308, 1.0, "h"),
                                            (0.5, 1e308, "k")])
    def test_rejects_overflowing_coupling(self, h, k, name):
        with pytest.raises(ValueError, match=rf"{name}=1e\+308"):
            build_chain(4, h, k)
        with pytest.raises(ValueError, match=rf"{name}=1e\+308"):
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

    def test_yy_relative_accuracy_against_high_precision_integral(self):
        # reference: the end-to-end resolvent integral of the module
        # docstring at 30 digits, (2/pi) int_0^inf w^2 prod' |s_p| / D(w) dw
        # with D from p_j = w p_{j-1} + s_{j-2}^2 p_{j-2}; the recurrence
        # is summed by mpmath's own quadrature, not by the solver's grid
        mp = pytest.importorskip("mpmath")
        L = 200
        spec = build_chain(L, 1.0, 1.0)
        path = [L] + list(range(L)) + [L + 1]
        bonds = [abs(float(spec.coupling[i, j]))
                 for i, j in zip(path[:-1], path[1:])]
        with mp.workdps(30):
            bonds = [mp.mpf(b) for b in bonds]
            inner = mp.fprod(bonds[1:-1])

            def integrand(w):
                p_prev, p = mp.mpf(1), w
                for b in bonds:
                    p_prev, p = p, w * p + b * b * p_prev
                return w * w * inner / p

            want = 2 / mp.pi * mp.quad(integrand, [0, 0.01, 1, 10, mp.inf])
            got = abs(edge_correlators(spec)[1])
            assert abs(got - want) / want <= 1e-12

    def test_xx_near_one_against_high_precision_transfer_matrix(self):
        # reference: D(w) = p_N with the L - 1 interior steps of the
        # recurrence taken as the power of the transfer matrix
        # [[w, c^2], [1, 0]] at 30 digits, independent of the solver's
        # sinh/cosh form; |xx| is near 1 here, so the bound is absolute
        mp = pytest.importorskip("mpmath")
        L, h = 1000, 1e-6
        with mp.workdps(30):
            e, c = 2 * mp.mpf(h), mp.mpf(2)

            def integrand(w):
                t = mp.matrix([[w, c * c], [1, 0]]) ** (L - 1)
                p2 = w * w + e * e
                d = (w * (t[0, 0] * p2 + t[0, 1] * w)
                     + e * e * (t[1, 0] * p2 + t[1, 1] * w))
                return e * e * c ** (L - 1) / d

            nodes = [0] + [mp.mpf(10) ** j for j in range(-16, 3)] + [mp.inf]
            want = 2 / mp.pi * mp.quad(integrand, nodes)
            got = abs(edge_correlators(build_chain(L, h, 1.0))[0])
            assert abs(got - want) <= 1e-15

    @pytest.mark.parametrize("L", [2, 4, 6, 16, 50, 200, 1000])
    def test_resolvent_matches_covariance_route(self, L):
        # edge_correlators takes Q from the resolvent, ground_covariance
        # from the SVD; Gamma[b_0, b_{L-1}] and Gamma[c_0, c_{L-1}]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (1e-100, 1.0, 1e100):
                for ratio in (1e-6, 0.05, 0.5, 2.0, 1e5):
                    spec = build_chain(L, ratio * k, k)
                    gamma = ground_covariance(spec)
                    bb, cc = edge_correlators(spec)
                    assert abs(bb - gamma[L, L + 1]) <= 1e-13
                    assert abs(cc - gamma[0, L - 1]) <= 1e-13

    @pytest.mark.parametrize("L", [2, 4, 50])
    @pytest.mark.parametrize("k", [1e-100, 1.0, 1e100])
    def test_sign_and_magnitude_at_tiny_field(self, L, k):
        # the smallest singular value, ~h^2 / k, is far below double
        # resolution at h = 1e-150 k; the signs come from the bond signs
        # alone and must match those at h = 1e-6 k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = edge_correlators(build_chain(L, 1e-150 * k, k))
            small = edge_correlators(build_chain(L, 1e-6 * k, k))
        assert np.array_equal(np.sign(tiny), np.sign(small))
        assert abs(abs(tiny[0]) - 1.0) < 1e-14
        assert abs(tiny[1] - small[1]) < 1e-10

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
        # the geometric tail above the grid overflowed from L ~ 2840 on, and
        # this route never builds the (L + 2)^2 coupling matrix
        start = time.monotonic()
        spec = build_chain(10**6, 0.5, 1.0)
        bb, cc = edge_correlators(spec)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0
        assert "coupling" not in spec.__dict__
        shorter = edge_correlators(build_chain(1000, 0.5, 1.0))
        assert 0.0 < abs(bb) < abs(shorter[0]) < 1.0
        assert 0.0 < abs(cc) < abs(shorter[1]) < 1.0


def fine_reference(L, h, k, step=1.0 / 16.0, margin=40.0):
    """(|<i b_0 b_{L-1}>|, |<i c_0 c_{L-1}>|) for even L: the resolvent
    integrals of the module docstring, summed on a trapezoid grid in t =
    log w with the given step.  The grid reaches `margin` beyond a bound
    on each end of the singular values of B, where the integrands have
    fallen by e^-margin, so no tail is added."""
    top = max(h, k)
    c, e = k / top, h / top
    low = math.log(min(e * e / c, e, c)) - math.log(L) - margin
    high = math.log(2.0) + margin
    t = np.arange(math.floor(low / step), math.ceil(high / step) + 1) * step
    w = np.exp(t)
    phi = np.arcsinh(0.5 * w / c)

    def fib(m):
        # F_m(w / c) e^(-(L-1) phi), without overflow at any w
        tail = (-np.expm1(-2 * m * phi) if m % 2 == 0
                else 1.0 + np.exp(-2 * m * phi))
        return np.exp((m - L + 1) * phi) * tail / (2.0 * np.cosh(phi))

    # D(w) / (c^(L-1) e^((L-1) phi)), the four positive terms
    p2 = w * w + e * e
    scaled = (w * fib(L) * p2 + c * w * w * fib(L - 1)
              + e * e * fib(L - 1) * p2 / c + e * e * w * fib(L - 2))
    g = w * np.exp(-(L - 1) * phi) / scaled   # dw = w dt
    return (2.0 / math.pi * step * (e * e * g).sum(),
            2.0 / math.pi * step * (w * w * g).sum())


class TestQuadrature:
    LENGTHS = (4, 50, 100, 200, 400, 700, 1000)
    RATIOS = np.r_[np.logspace(-6.0, 4.0, 61), 0.05 * np.arange(1, 41)]

    @pytest.mark.parametrize("k", [1e-3, 1.0, 1e3])
    def test_relative_accuracy_against_a_finer_step(self, k):
        # step 0.25 left |yy| off by up to 5.9e-14 (h/k = 0.55, L = 1000);
        # where a magnitude underflows both sides read 0.0
        worst = 0.0
        for ratio in self.RATIOS:
            for L in self.LENGTHS:
                got = edge_correlators(build_chain(L, ratio * k, k))
                for value, want in zip(got, fine_reference(L, ratio * k, k)):
                    assert abs(abs(value) - want) <= 2e-15 * want, (ratio, L)
                    if want > 0.0:
                        worst = max(worst, abs(abs(value) - want) / want)
        assert worst > 0.0

    def test_bitwise_independent_of_cache_and_order(self):
        cases = [(L, h, k) for k in (1e-3, 1.0) for h in (1e-6, 0.55, 7.0)
                 for L in (4, 50, 1000, 2**22)]
        cold = {}
        for case in cases:
            chain._field_nodes.cache_clear()
            cold[case] = edge_correlators(build_chain(*case))
        for order in (cases, cases[::-1],
                      [cases[i] for i in np.random.default_rng(3).permutation(
                          len(cases))]):
            for case in order:
                assert edge_correlators(build_chain(*case)) == cold[case]

    def test_cache_is_bounded_and_read_only(self):
        for h in np.linspace(0.05, 1.0, 40):
            edge_correlators(build_chain(50, h, 1.0))
        info = chain._field_nodes.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 16
        nodes = chain._field_nodes(
            1.0, 0.5, chain._lowest_index(1.0, 0.5, chain._LATTICE_SIZE))
        for array in nodes:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_one_module_level_call_per_length(self, monkeypatch):
        # perfbench traces one chain.edge_correlators span per length
        seen = []
        original = chain.edge_correlators

        def counted(spec):
            seen.append(spec.length)
            return original(spec)

        monkeypatch.setattr(chain, "edge_correlators", counted)
        scan = correlators_vs_length(0.5, 1.0, [100, 4, 5, 50, 100])
        assert seen == [4, 5, 50, 100, 100]
        assert scan.lengths == tuple(seen)


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

    def test_fit_skips_underflowed_lengths(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = correlators_vs_length(1e200, 1.0, [50, 100])
        assert scan.yy_abs == (0.0, 0.0)
        assert scan.slope is None and scan.r_squared is None

    def test_rejects_negative_field(self):
        with pytest.raises(ValueError):
            correlators_vs_length(-0.5, 1.0, [4, 50])

    def test_rejects_tiny_lengths(self):
        with pytest.raises(ValueError):
            correlators_vs_length(0.5, 1.0, [1, 4])

    @pytest.mark.parametrize("h", [0.0, 1e-3, 0.05, 0.5, 2.0, 30.0])
    def test_fit_matches_polyfit(self, h):
        for lengths in ([4, 50, 100, 200, 400, 700, 1000], [4, 6, 8],
                        [50, 100, 400], [4, 5, 50, 100]):
            scan = correlators_vs_length(h, 1.0, lengths)
            fit = [(L, d) for L, d in zip(scan.lengths, scan.yy_abs)
                   if L % 2 == 0]
            log_l, log_d = np.log(np.asarray(fit, dtype=float)).T
            slope, intercept = np.polyfit(log_l, log_d, 1)
            ss_res = ((log_d - slope * log_l - intercept) ** 2).sum()
            ss_tot = ((log_d - log_d.mean()) ** 2).sum()
            assert abs(scan.slope - slope) <= 1e-13 * abs(slope)
            assert (abs(scan.r_squared - (1.0 - ss_res / ss_tot))
                    <= 1e-13 * scan.r_squared)

    def test_degenerate_fits(self, monkeypatch):
        # two lengths: the line passes through both points
        for lengths in ([4, 50], [50, 1000]):
            scan = correlators_vs_length(0.5, 1.0, lengths)
            assert scan.r_squared == 1.0
            slope = (math.log(scan.yy_abs[1] / scan.yy_abs[0])
                     / math.log(lengths[1] / lengths[0]))
            assert abs(scan.slope - slope) <= 1e-13 * abs(slope)
        # ss_tot = 0: every |yy| the same
        monkeypatch.setattr(chain, "edge_correlators",
                            lambda spec: (0.5, -0.25))
        scan = correlators_vs_length(0.5, 1.0, [4, 50, 100, 1000])
        assert scan.slope == 0.0 and scan.r_squared == 1.0
