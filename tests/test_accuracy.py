"""Relative accuracy of the closed forms, the closed-form reductions at
both optima, the closed-form blocks of Bob's qubit, the protocol ledger
at both optima, the ledger's injected energy on four measurement axes,
the thermo layer on the thermo command's grid, at small and at large fields, the x-axis measured
eigenvalues over the whole range and the oracle against a 60-digit
reference, the oracle's upper bound against that reference and against
sampled axes of random forms, and the bond terms of the oracle and of
the ledger against the closed form.

The reference solves the characteristic cubic in mpmath and evaluates the
textbook formulas (alpha = 2k/(E + k - 2h), beta = 2k/(E + k + 2h),
xx = 4 Z^2 (1 + alpha beta), xxz = 4 Z^2 (alpha - beta), ...) whose
cancellation at large h/k costs far fewer than the 60 digits carried.  The
differences that vanish as h -> 0 take cancellation-free forms: alpha -
beta = 2 (h/k) alpha beta, alpha^2 - beta^2 = (alpha - beta)(alpha + beta)
and lambda_- = q / (2 (1 + g)), q = 1 - g^2 = 16 Z^4 (alpha - beta)^2.
"""

import functools
import math

import numpy as np
import pytest

from qetsim import optimize
from qetsim.model import (MAX_FIELD_RATIO, MAX_PARAMETER, ModelParams,
                          energy_decomposition, ground_state)
from qetsim.optimize import (TARGET_EXTRACTED, TARGET_SITE, brute_force_max,
                             max_extracted_energy, max_site_reduction)
from qetsim.protocol import (ProtocolParams, bob_blocks_closed,
                             correlators_closed, reduction_closed,
                             run_protocol)
from qetsim.thermo import (effective_temperature, measured_eigenvalues,
                           reduced_state_initial, thermo_sweep)

mpmath = pytest.importorskip("mpmath")

RATIOS = np.logspace(-6.0, np.log10(MAX_FIELD_RATIO), 41)
SCALES = (1e-100, 1.0, 1e100)
BOUND = 1e-13
# Alice's measurement axes (mu, nu): x, y, z and an oblique one
MEASUREMENTS = {name: ProtocolParams(mu, nu, 0.0, 0.0, 0.0)
                for name, (mu, nu) in (("x", (np.pi / 2.0, 0.0)),
                                       ("y", (np.pi / 2.0, np.pi / 2.0)),
                                       ("z", (0.0, 0.0)),
                                       ("oblique", (1.0, 2.0)))}


@functools.lru_cache(maxsize=None)
def _reference(h, k):
    """E, alpha, beta, xx, yy, xxz, e_B, both maxima and the injected
    energy on each of MEASUREMENTS to 60 digits."""
    with mpmath.workdps(60):
        h, k = mpmath.mpf(h), mpmath.mpf(k)
        t = h / k
        cubic = lambda x: (x + 1) * (x * x - 5) - 4 * t * t * (x - 1)
        x = mpmath.findroot(cubic, (-3 - 2 * t, -mpmath.sqrt(5)),
                            solver="anderson")
        e = k * x
        alpha = 2 * k / (e + k - 2 * h)
        beta = 2 * k / (e + k + 2 * h)
        z2 = 1 / (4 + 2 * alpha**2 + 2 * beta**2)
        xx, yy = 4 * z2 * (1 + alpha * beta), 4 * z2 * (1 - alpha * beta)
        difference = 2 * t * alpha * beta   # alpha - beta
        site = 2 * h * z2 * difference * (alpha + beta)
        bond_left = 4 * k * z2 * (alpha + beta)
        # sqrt(e_B^2 + g^2) - |e_B|, in its cancellation-free form
        maximum = lambda g: g * g / (mpmath.sqrt(site**2 + g * g) + abs(site))
        # -(1 - r_z^2) e_A - (1 - r_x^2) e_L at the library's float axis
        injected = {}
        for name, pp in MEASUREMENTS.items():
            rx2, ry2, rz2 = (mpmath.mpf(float(c))**2 for c in pp.measure_axis)
            injected[f"injected_{name}"] = (-(rx2 + ry2) * site
                                            - (ry2 + rz2) * bond_left)
        # Bob's diagonal state, the x-axis measured eigenvalues and the
        # second-law terms D(rho_i || sigma_B) and I_QC over beta_eff
        r0, r1 = 2 * z2 * (1 + beta**2), 2 * z2 * (1 + alpha**2)
        q = 16 * z2**2 * difference**2
        g = mpmath.sqrt(1 - q)
        lam_p, lam_m = (1 + g) / 2, q / (2 * (1 + g))
        beta_eff = mpmath.log(lam_p / lam_m) / (2 * h)
        entropy = lambda p, q: -p * mpmath.log(p) - q * mpmath.log(q)
        kl = r0 * mpmath.log(r0 / lam_p) + r1 * mpmath.log(r1 / lam_m)
        return {"energy": e, "alpha": alpha, "beta": beta, "xx": xx, "yy": yy,
                "xxz": 4 * z2 * difference, "site": site,
                "extracted_max": maximum(h * yy),
                "site_reduction_max": maximum(h * xx), **injected,
                "r0": r0, "r1": r1, "mz0": 2 * z2 * (1 - beta**2),
                "mz1": 2 * z2 * (alpha**2 - 1), "lambda_plus": lam_p,
                "lambda_minus": lam_m, "beta_eff": beta_eff,
                "kl_over_beta": kl / beta_eff,
                "info_over_beta": (entropy(r0, r1) - entropy(lam_p, lam_m))
                / beta_eff}


def _library(state):
    c = correlators_closed(state)
    return {"energy": state.energy, "alpha": state.alpha, "beta": state.beta,
            "xx": c.xx, "yy": c.yy, "xxz": c.xxz,
            "site": energy_decomposition(state).site_b,
            "extracted_max": max_extracted_energy(state).value,
            "site_reduction_max": max_site_reduction(state).value}


def _fields(k):
    return [float(t) * k for t in RATIOS if float(t) * k <= MAX_PARAMETER]


def _beyond_bound(hs, k, got, bound=lambda name, ratio: BOUND):
    """{name: (worst relative error, h/k)} of every quantity in `got`
    (name -> values at the fields `hs`) that exceeds its bound."""
    worst = {}
    for i, h in enumerate(hs):
        for name in got:
            want = _reference(h, k)[name]
            error = float(abs((got[name][i] - want) / want))
            excess = error / bound(name, h / k)
            if excess > worst.get(name, (0.0,))[0]:
                worst[name] = (excess, error, h / k)
    return {name: v[1:] for name, v in worst.items() if v[0] > 1.0}


@pytest.mark.parametrize("k", SCALES)
def test_closed_forms_relative_accuracy(k):
    hs = _fields(k)
    got = _library(ground_state(ModelParams(h=np.array(hs), k=k)))
    assert _beyond_bound(hs, k, got) == {}


@pytest.mark.parametrize("k", SCALES)
def test_maxima_at_tiny_fields(k):
    # 1e-150 k .. 1e-6 k; at k = 1e-100 the gains fall below 2^-500 from
    # about 1e-50 k, where gain^2 is subnormal (unscaled, both maxima
    # read 0.0 at 1e-70 k)
    hs = list(np.geomspace(1e-150, 1e-6, 12) * k)
    got = _library(ground_state(ModelParams(h=np.array(hs), k=k)))
    got = {name: got[name] for name in ("extracted_max", "site_reduction_max")}
    assert _beyond_bound(hs, k, got) == {}


@pytest.mark.parametrize("k", SCALES)
def test_reduction_closed_at_the_optima(k):
    # site + bond at the extracted optimum and site at the site optimum
    hs = _fields(k)
    state = ground_state(ModelParams(h=np.array(hs), k=k))
    site, bond = reduction_closed(state, max_extracted_energy(state).params)
    at_site, _ = reduction_closed(state, max_site_reduction(state).params)
    got = {"extracted_max": site + bond, "site_reduction_max": at_site}
    assert _beyond_bound(hs, k, got) == {}


@pytest.mark.parametrize("k", SCALES)
def test_bob_blocks_closed(k):
    # M_0's diagonal and the halves of xx and yy that M_x and M_y hold,
    # relative; M_z = 2 Z^2 diag(1 - beta^2, alpha^2 - 1) only absolutely,
    # as alpha^2 - 1 crosses zero
    hs = _fields(k)
    blocks = bob_blocks_closed(ground_state(ModelParams(h=np.array(hs), k=k)))
    got = {"r0": blocks[:, 0, 0, 0].real, "r1": blocks[:, 0, 1, 1].real,
           "xx": 2.0 * blocks[:, 1, 0, 1].real,
           "yy": 2.0 * blocks[:, 2, 0, 1].imag}
    assert _beyond_bound(hs, k, got) == {}
    for i, h in enumerate(hs):
        for name, entry in (("mz0", blocks[i, 3, 0, 0]),
                            ("mz1", blocks[i, 3, 1, 1])):
            assert abs(entry - _reference(h, k)[name]) < 1e-15, (name, h / k)


def _thermo_bound(name, ratio):
    # D is a difference of nearly equal terms whose logarithms of lambda_+
    # lose relative accuracy (ROADMAP item 1 removes the cancellation);
    # 1e-11 is the worst error of D/beta_eff on these fields by eigvalsh
    # entropies (5.4e-12) rounded up to the next half decade
    return 1e-11 if name == "kl_over_beta" else BOUND


@pytest.mark.parametrize("k", (1e-3, 1.0, 1e3))
def test_thermo_relative_accuracy(k):
    # the thermo command's README grid, h = 0.05 k .. 3 k in 60 steps:
    # Bob's state from the table, the measured eigenvalues, beta_eff and
    # the two budget columns of the sweep
    hs = list(np.linspace(0.05, 3.0, 60) * k)
    state = ground_state(ModelParams(h=np.array(hs), k=k))
    rho = reduced_state_initial(state)
    lam_p, lam_m = measured_eigenvalues(state)
    rows = thermo_sweep(hs, k=k)
    got = {"r0": rho[:, 0, 0].real, "r1": rho[:, 1, 1].real,
           "lambda_plus": lam_p, "lambda_minus": lam_m,
           "beta_eff": effective_temperature(state).beta,
           "kl_over_beta": [row.kl_over_beta for row in rows],
           "info_over_beta": [row.info_over_beta for row in rows]}
    assert _beyond_bound(hs, k, got, _thermo_bound) == {}


@pytest.mark.parametrize("k", (1e-3, 1.0, 1e3))
def test_thermo_at_small_fields(k):
    # 1e-6 k .. 0.05 k, where lambda_- = (1 - g)/2 and the raw difference
    # alpha - beta cancelled (2e-6 relative in info_over_beta at 1e-6 k):
    # q = 1 - g^2 from 2 (h/k) alpha beta and lambda_- = q / (2 (1 + g))
    hs = list(np.geomspace(1e-6, 0.05, 8) * k)
    state = ground_state(ModelParams(h=np.array(hs), k=k))
    rows = thermo_sweep(hs, k=k)
    got = {"lambda_minus": measured_eigenvalues(state)[1],
           "beta_eff": effective_temperature(state).beta,
           "kl_over_beta": [row.kl_over_beta for row in rows],
           "info_over_beta": [row.info_over_beta for row in rows]}
    assert _beyond_bound(hs, k, got) == {}


@pytest.mark.parametrize("k", (1e-3, 1.0, 1e3))
def test_thermo_at_tiny_fields(k):
    # 1e-150 k .. 1e-6 k, down to where lambda_- ~ (h/k)^2 nears the
    # smallest normal double and the measured state is all but pure
    hs = list(np.geomspace(1e-150, 1e-6, 12) * k)
    state = ground_state(ModelParams(h=np.array(hs), k=k))
    rows = thermo_sweep(hs, k=k)
    got = {"lambda_minus": measured_eigenvalues(state)[1],
           "beta_eff": effective_temperature(state).beta,
           "kl_over_beta": [row.kl_over_beta for row in rows],
           "info_over_beta": [row.info_over_beta for row in rows]}
    assert _beyond_bound(hs, k, got) == {}


@pytest.mark.parametrize("k", (1e-3, 1.0, 1e3))
def test_thermo_eigenvalues_over_the_range(k):
    # lambda_- = q / (2 (1 + g)) with q = xxz^2 and beta_eff from it keep
    # relative accuracy from 1e-6 k to 1e4 k; (1 - g)/2 was off by 6e-5 at
    # 1e-6 k and 8e-9 at 1e4 k
    hs = list(np.geomspace(1e-6, 1e4, 21) * k)
    state = ground_state(ModelParams(h=np.array(hs), k=k))
    got = {"lambda_minus": measured_eigenvalues(state)[1],
           "beta_eff": effective_temperature(state).beta}
    assert _beyond_bound(hs, k, got) == {}


@pytest.mark.parametrize("k", (1e-3, 1.0, 1e3))
def test_thermo_information_at_large_fields(k):
    # 300 k .. 1e4 k, where D/beta_eff has no correct digit (ROADMAP item
    # 1): Bob's small occupation r1 sums squares and the entropies take
    # lambda_- and log1p(-lambda_-), so I_QC/beta_eff is limited by the
    # cancellation in lambda_- = (1 - g)/2 of beta_eff (1.9e-8 at worst
    # over 40 fields per k); eigvalsh entropies were off by up to 1e-6 at
    # 300 k and 5e-2 at 1e4 k
    hs = list(np.geomspace(300.0, 1e4, 8) * k)
    rho = reduced_state_initial(ground_state(ModelParams(h=np.array(hs), k=k)))
    got = {"r1": rho[:, 1, 1].real,
           "info_over_beta": [row.info_over_beta
                              for row in thermo_sweep(hs, k=k)]}
    assert _beyond_bound(hs, k, got, lambda name, ratio: 1e-7 if name
                         == "info_over_beta" else BOUND) == {}


def _oracle_bound(name, ratio):
    # the extracted target is the top eigenvalue of a rotation form with
    # entries of size h + k: at h << k the value is of size h, so the
    # form's rounding weighs k/h times more relative to it, and at h >> k
    # the value is a small eigenvalue of a nearly decoupled form
    if name == "extracted_max":
        return BOUND * max(1.0, ratio, 1.0 / ratio)
    return BOUND


@pytest.mark.parametrize("k", SCALES)
def test_oracle_relative_accuracy(k):
    hs = _fields(k)
    states = [ground_state(ModelParams(h=h, k=k)) for h in hs]
    got = {name: [brute_force_max(state, target).value for state in states]
           for name, target in (("extracted_max", TARGET_EXTRACTED),
                                ("site_reduction_max", TARGET_SITE))}
    assert _beyond_bound(hs, k, got, _oracle_bound) == {}


@pytest.mark.parametrize("k", SCALES)
def test_oracle_bond_at_the_site_optimum(k):
    # the bond term of the site-reduction certificate, y^T K_bond(r) y at
    # the oracle's optimum, against reduction_closed at the closed-form one
    hs = _fields(k)
    state = ground_state(ModelParams(h=np.array(hs), k=k))
    closed = reduction_closed(state, max_site_reduction(state).params)[1]
    oracle = [brute_force_max(ground_state(ModelParams(h=h, k=k)),
                              TARGET_SITE).bond_reduction for h in hs]
    error = np.abs(np.array(oracle) / closed - 1.0)
    assert error.max() <= BOUND, (error.max(), hs[int(error.argmax())] / k)


@pytest.mark.parametrize("k", SCALES)
def test_ledger_at_the_optima(k):
    # run_protocol's reductions are single-projector forms, not differences
    # of O(h) energies, so they keep their relative accuracy at large h/k
    hs = _fields(k)
    state = ground_state(ModelParams(h=np.array(hs), k=k))
    at_ext = run_protocol(state, max_extracted_energy(state).params)
    at_site = run_protocol(state, max_site_reduction(state).params)
    assert _beyond_bound(hs, k, {"extracted_max": at_ext.extracted},
                         _oracle_bound) == {}
    assert _beyond_bound(hs, k,
                         {"site_reduction_max": at_site.extracted_site}) == {}
    closed = reduction_closed(state, max_site_reduction(state).params)[1]
    error = np.abs(at_site.extracted_bond / closed - 1.0)
    assert error.max() <= BOUND, (error.max(), hs[int(error.argmax())] / k)


def _injected_bound(name, ratio):
    # on x, injected is -e_A alone, and the table's <sigma_z_A> is a sum
    # over the state's amplitudes that cancels like alpha^2 - beta^2 at
    # h << k
    return BOUND * max(1.0, 1.0 / ratio) if name == "injected_x" else BOUND


@pytest.mark.parametrize("k", SCALES)
def test_injected_relative_accuracy(k):
    # run_protocol's injected = r^T Q r is a form of the table, not a
    # difference of O(h + k) totals
    hs = _fields(k)
    state = ground_state(ModelParams(h=np.array(hs), k=k))
    got = {f"injected_{name}": run_protocol(state, pp).injected
           for name, pp in MEASUREMENTS.items()}
    assert _beyond_bound(hs, k, got, _injected_bound) == {}


@pytest.mark.parametrize("k", SCALES)
def test_oracle_upper_bound_is_above_the_reference(k):
    # the proven bound of the oracle's certificate lies above the 60-digit
    # maximum, to the oracle's own relative accuracy
    for h in _fields(k):
        state = ground_state(ModelParams(h=h, k=k))
        for name, target in (("extracted_max", TARGET_EXTRACTED),
                             ("site_reduction_max", TARGET_SITE)):
            bound = brute_force_max(state, target).upper_bound
            assert _reference(h, k)[name] <= bound * (
                1.0 + _oracle_bound(name, h / k)), (name, h / k)


@pytest.mark.parametrize("k", SCALES)
def test_oracle_upper_bound_is_tight(k):
    # the bracket [value, upper_bound] is 2^-44 = 5.7e-14 wide at every
    # h/k, so the bound is as close to the 60-digit maximum as the value
    # is, plus at most 1e-13
    for h in _fields(k):
        state = ground_state(ModelParams(h=h, k=k))
        for name, target in (("extracted_max", TARGET_EXTRACTED),
                             ("site_reduction_max", TARGET_SITE)):
            cert = brute_force_max(state, target)
            assert cert.upper_bound - cert.value <= BOUND * cert.value
            reference = _reference(h, k)[name]
            excess = float((cert.upper_bound - reference) / reference)
            assert excess <= _oracle_bound(name, h / k) + BOUND, (name, h / k)


def test_random_forms_bound_is_never_below_a_sampled_axis():
    # 300 random (M0 <= 0, C) at scales 1e-3..1e3, M0 with eigenvalues
    # spread over six decades in a turned basis, so that rounding in its
    # diagonal widens the bracket for some: the certified bound is at
    # least the best of 20000 sampled feedback axes s, each maximised over
    # r and theta as A^2 / (hypot(A, m/2) - m/2), A^2 = s^T C C^T s and m
    # = s^T M0 s from the axes' pair products s_i s_j; the bracket is 2^-44
    # wide, doubled once per round that did not rise
    rng = np.random.default_rng(27)
    axes = rng.normal(size=(20000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    i, j = np.triu_indices(3)
    pairs = axes[:, i] * axes[:, j] * np.where(i == j, 1.0, 2.0)
    widths = []
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        turn = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        cost = -scale * (turn * 10.0 ** rng.uniform(-4.0, 2.0, 3)) @ turn.T
        gain = scale * rng.normal(size=(3, 3))
        value, upper, *_, converged = optimize._fixed_point(cost, gain)
        squared, half = (pairs @ np.stack([(gain @ gain.T)[i, j],
                                           0.5 * cost[i, j]], axis=1)).T
        squared = np.maximum(squared, 0.0)
        sampled = (squared / (np.hypot(np.sqrt(squared), half) - half)).max()
        assert converged and value <= upper and sampled <= upper
        widths.append(math.log2(upper / value - 1.0))
    assert all(abs(w - round(w)) < 1e-2 for w in widths)
    assert round(min(widths)) == -44 and round(max(widths)) > -44
