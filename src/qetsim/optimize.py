"""Protocol-parameter optimization: closed-form maxima and an oracle.

Two objectives over the five protocol angles (mu, nu, xi, eta, theta):

* ``extracted``        the total energy removed by the feedback step;
* ``site_reduction``   the reduction of Bob's site term alone.

Both have closed-form maxima

    max extracted      = sqrt(e_B^2 + (h yy)^2) - |e_B|,
    max site_reduction = sqrt(e_B^2 + (h xx)^2) - |e_B|,

attained at measurement/feedback axes (y, x) and (x, y) respectively, with
the rotation angle fixed by the ratio of the correlator gain to the site
energy.  :func:`brute_force_max` cross-checks these by a global
maximisation over all five angles that never reads a closed form, so
agreement is a genuine two-route test.

The oracle runs on one matrix-element engine.  Bob's rotation cos(theta)
+ i n sin(theta) s.sigma_B is the unit quaternion y = (cos theta,
sin theta s), and for a measurement axis r the objective is the quadratic
form y^T K(r) y of the 4 x 4 real symmetric arrowhead matrix

    K(r) = [[0, (C r)^T], [C r, M0]],

whose cost block M0 <= 0 depends on Bob's site alone and whose gain
s^T C r is bilinear in the two axes, as in the paper's two formulae.
As y is linear in (cos theta, sin theta), the objective at fixed axes is
(m/2)(1 - cos 2 theta) + s^T C r sin 2 theta with m = s^T M0 s, no higher
harmonic, so theta is maximised exactly instead of on a theta grid: the
positive basin in theta narrows like the maximum itself and falls below
any fixed grid spacing once the edge field is large.

* Row stage.  Both targets are single-projector contractions of the
  terms next to Bob's site, which vanish at theta = 0: the rotation forms
  (M0, C) of site_B and bond_right, from one product of the protocol
  ledger's cached (54, 256) table with conj(psi) (x) psi
  (:func:`qetsim.protocol.rotation_forms`, :func:`_row_engine`).
* Fixed point.  At a feedback axis s the maximum over r and theta is
  lambda(s) = m/2 + hypot(A, m/2), with A = |C^T s| and m = s^T M0 s
  (:func:`_axis_maximum`).  The global maximum is the root of
  lambda_max(C C^T + lambda M0) = lambda^2, reached by Dinkelbach's
  parametric iteration (W. Dinkelbach, Management Science 13, 492
  (1967)), one 3 x 3 eigensolve a round; the confirming round also proves
  an upper bound (:func:`_fixed_point`).  An unconverged certificate
  fails :func:`qetsim.checks.check_brute_force`.
* Structure.  On physical states M0 and C C^T are diagonal, by the
  parity symmetry (sigma_z on every site) and complex conjugation (a real
  psi), so the maximum is the best of three per-axis closed forms: the
  paper's two formulae.  The iteration does not assume this; it takes 2
  or 3 rounds on physical states, at most 10 on random (M0 <= 0, C).
* Tightness.  The bound's slack is rounding of order u |C|_F^2, the size
  of the terms that cancel in C C^T + lambda M0.  (upper - value) / value
  is below 1e-11 for 0.05 k <= h <= 1.5 k and 7.5e-9 at h = 1e-6 k; at
  h = 100 k it is 7e-2 (``extracted``) and 1.3e-6 (``site_reduction``),
  at 1e4 k 4e5 and 15, while the value stays relatively accurate
  (tests/test_accuracy.py).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import (GroundState, ModelParams, energy_decomposition,
                    ground_state)
from .protocol import (ProtocolParams, correlators_closed,
                       measurement_energy_closed, rotation_forms)

TARGET_EXTRACTED = "extracted"
TARGET_SITE = "site_reduction"
_TARGETS = (TARGET_EXTRACTED, TARGET_SITE)

# the accepted range of the oracle's resolution, which it does not read
MIN_RESOLUTION = 64
MAX_RESOLUTION = 1024

# angles of the constant axes of the closed forms, computed once: the
# conversion from vectors costs more than the closed forms themselves.
# The theta of these parameters is a placeholder.
_X, _Y, _Z = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
_AXES_EXTRACTED = ProtocolParams.from_vectors(_Y, _X, 0.0)
_AXES_SITE = ProtocolParams.from_vectors(_X, _Y, 0.0)
_AXIS_MEASUREMENTS = {name: ProtocolParams.from_vectors(vec, _Z, 0.0)
                      for name, vec in (("x", _X), ("y", _Y), ("z", _Z))}


@dataclass(frozen=True)
class Certificate:
    """Location and value of an optimum, with its bond term and bound.

    `bond_reduction` is the bond-term energy change at the reported
    parameters (zero when the extracted energy is maximised, strictly
    negative at the site-reduction optimum for h > 0).

    `upper_bound` is proven: the maximum over all five angles lies in
    [value, upper_bound] (:func:`_fixed_point`); a closed form is exact,
    so there it is the value.  `converged` and `rounds` describe the
    oracle's fixed point: whether it stopped rising within its round
    limit, and its rounds (one 3 x 3 eigensolve each, the confirming one
    included); closed forms: converged, 0 rounds.
    """

    target: str
    params: ProtocolParams
    value: float
    bond_reduction: float
    upper_bound: float
    converged: bool = True
    rounds: int = 0


def _closed_certificate(target, site, gain, axes,
                        bond=lambda sin2, versine: 0.0):
    """Certificate at the maximum over theta of site (1 - cos 2 theta) +
    gain sin 2 theta, the objective at the axes of `axes` (site = e_B <=
    0): (sin 2 theta, cos 2 theta) = (gain, -site) / hypot(site, gain), or
    theta = 0 where site = gain = 0 (h = 0); `bond(sin2, versine)` is the
    bond reduction, with versine = 1 - cos 2 theta.

    Where |gain| << |site| (large h/k) the value hypot(site, gain) - |site|
    and 1 - cos 2 theta cancel, so they are taken as gain^2 /
    (hypot(site, gain) + |site|) and 2 sin^2 theta."""
    root = np.hypot(site, gain)
    zero = root == 0.0   # adding or multiplying by it is exact elsewhere
    sin2, cos2 = gain / (root + zero), -site / (root + zero) + zero
    theta = 0.5 * np.arctan2(sin2, cos2)
    value = gain * gain / (root + abs(site) + zero)
    return Certificate(
        target=target, params=ProtocolParams(axes.mu, axes.nu, axes.xi,
                                             axes.eta, theta),
        value=value, upper_bound=value,
        bond_reduction=bond(sin2, 2.0 * np.sin(theta)**2))


def max_extracted_energy(state: GroundState) -> Certificate:
    """Closed-form maximum of the extracted energy.

    Optimal axes: measurement along y, feedback along x.  At h = 0 the
    maximum is zero and theta is not unique; theta = 0 is reported.
    """
    gain = state.params.h * correlators_closed(state).yy
    return _closed_certificate(TARGET_EXTRACTED,
                               energy_decomposition(state).site_b, gain,
                               _AXES_EXTRACTED)


def max_site_reduction(state: GroundState) -> Certificate:
    """Closed-form maximum of Bob's site-energy reduction.

    Optimal axes: measurement along x, feedback along y.  The accompanying
    bond term e_R (1 - cos 2 theta) + k xxz sin 2 theta is negative for
    every h > 0, so this optimum always releases heat.
    """
    e = energy_decomposition(state)
    c = correlators_closed(state)
    return _closed_certificate(
        TARGET_SITE, e.site_b, -(state.params.h * c.xx), _AXES_SITE,
        lambda sin2, versine: (e.bond_right * versine
                               + state.params.k * c.xxz * sin2))


# ---------------------------------------------------------------------------
# the matrix-element engine and the oracle

def _row_engine(state: GroundState, target: str):
    """The row stage: ``((M0, C), (M0_bond, C_bond))``, the rotation forms
    of :func:`qetsim.protocol.rotation_forms` (objective = y^T K(r) y) for
    the target, T = site_B + bond_right (``extracted``) or T = site_B
    (``site_reduction``), and for bond_right alone.  One state only, as
    :func:`_fixed_point` reads one form."""
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if state.vector.ndim != 1:
        raise ValueError(f"the oracle takes one state, got a batch of shape "
                         f"{state.vector.shape[:-1]}")
    site, bond = rotation_forms(state)
    near_b = site if target == TARGET_SITE else site + bond
    return tuple(near_b), tuple(bond)


def _dot(u, v):
    """u . v of two 3-vectors of Python floats."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _axis_maximum(costs, columns, s):
    """lambda(s): the objective maximised over r and theta at the feedback
    axis s, on Python floats (`costs` the rows of M0, `columns` those of
    C); returns ``(lambda, C^T s, A, m)``.

    The objective at s is A sin 2 theta cos phi + (m/2)(1 - cos 2 theta),
    A = |C^T s|, m = s^T M0 s, phi the angle between r and C^T s.  Its
    maximum, at r = C^T s / A, is m/2 + hypot(A, m/2), the top eigenvalue
    of [[0, A], [A, m]]; for m < 0 (M0 <= 0 but for rounding) it is taken
    as A^2 / (hypot(A, m/2) - m/2), which does not cancel at large h/k."""
    gains = [_dot(column, s) for column in columns]
    squared = _dot(gains, gains)
    amplitude = math.sqrt(squared)
    m = _dot(s, [_dot(row, s) for row in costs])
    half = 0.5 * m
    root = math.hypot(amplitude, half)
    value = squared / (root - half) if half < 0.0 else half + root
    return value, gains, amplitude, m


def _fixed_point(cost, gain, max_rounds=100):
    """Dinkelbach's iteration for the maximum of y^T K(r) y over all five
    angles, with a proven upper bound.

    F(lambda) = max_s (A^2 + lambda m - lambda^2) = lambda_max(C C^T +
    lambda M0) - lambda^2 is >= 0 up to the global maximum lambda* and < 0
    above it, as each s's quadratic is >= 0 exactly on [0, lambda(s)].
    From lambda = 0, each round takes s as the top eigenvector of C C^T +
    lambda M0 and moves lambda to lambda(s), which does not fall (that s's
    quadratic is F(lambda) >= 0 at lambda); it stops at the first round
    that does not rise.

    Bound: with mu the last round's top eigenvalue at lambda and t >= the
    top eigenvalue of M0 (Gershgorin: max_i M0_ii + sum_(j != i) |M0_ij|,
    at least 0; 0 for a diagonal M0 <= 0), F(lambda') <= mu + delta +
    (lambda' - lambda) t - lambda'^2 for lambda' >= lambda, so lambda* <=
    sqrt(mu + delta) + t.  delta bounds the rounding of mu: forming the
    matrix errs by (n + 2) u (|C||C|^T + lambda |M0|) entrywise and a
    backward-stable eigensolver by p(n) u of its norm; taking p(n) = 6n,
    delta = 8 n u (|C|_F^2 + lambda |M0|_F), with n = 3 and u = 2^-53.

    Returns ``(value, upper, s, (C^T s, A, m), rounds, converged)``, s
    (floats) attaining the value; converged: stopped within `max_rounds`.
    """
    gram = gain @ gain.T
    costs, columns = cost.tolist(), gain.T.tolist()
    value, best = 0.0, None
    for rounds in range(1, max_rounds + 1):
        at = value
        w, v = np.linalg.eigh(gram + at * cost)
        s = v[:, -1].tolist()
        rise, *parts = _axis_maximum(costs, columns, s)
        if best is None or rise > at:
            best, value = (s, parts), rise
        if rise <= at:
            break
    (a, b, c), (d, e, f), (g, h, i) = costs
    spread = max(0.0, a + abs(b) + abs(c), e + abs(d) + abs(f),
                 i + abs(g) + abs(h))
    size = math.hypot(*columns[0], *columns[1], *columns[2])**2 + at * \
        math.hypot(*costs[0], *costs[1], *costs[2])
    # delta = 8 n u size, n = 3, u = 2^-53
    upper = math.sqrt(max(0.0, float(w[-1]) + 24 * 2.0**-53 * size)) + spread
    return value, upper, *best, rounds, rise <= at


def validate_resolution(resolution: int) -> None:
    """Reject an oracle grid resolution that is not an integer, is below
    64 or above 1024, or is odd.  The oracle reads no grid; the limits are
    kept so that every value accepted before is accepted, and no other."""
    try:
        operator.index(resolution)
    except TypeError:
        raise TypeError(f"resolution must be an integer, got "
                        f"{resolution!r}") from None
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be at least {MIN_RESOLUTION}")
    if resolution > MAX_RESOLUTION:
        raise ValueError(f"resolution must be at most {MAX_RESOLUTION}, "
                         f"got {resolution}")
    if resolution % 2:
        raise ValueError(f"resolution must be even, got {resolution}; the "
                         f"oracle reads no grid, and the value is only "
                         f"validated for compatibility")


def brute_force_max(state: GroundState, target: str,
                    resolution: int = MIN_RESOLUTION) -> Certificate:
    """Global maximum of the matrix-element objective over all five
    angles, bracketed by a proven upper bound (:func:`_fixed_point`).

    `resolution` is validated but not read: the oracle uses no grid.  At
    the fixed point's feedback axis s, r = C^T s / A (z where A = |C^T s|
    = 0) and theta = atan2(value, A), as (A, value) is the top
    eigenvector of [[0, A], [A, m]].  The bond term y^T K_bond(r) y comes
    from the engine's bond form, never from a closed form or the protocol
    ledger; all on Python floats.
    """
    validate_resolution(resolution)
    (cost, gain), (bond_cost, bond_gain) = _row_engine(state, target)
    value, upper, s, (gains, amplitude, _), rounds, converged = _fixed_point(
        cost, gain)
    r = [x / amplitude for x in gains] if amplitude > 0.0 else list(_Z)
    theta = math.atan2(value, amplitude)
    sin, sin2 = math.sin(theta), math.sin(2.0 * theta)
    bond_value = (sin2 * _dot(s, [_dot(row, r) for row in bond_gain.tolist()])
                  + sin * sin * _dot(s, [_dot(row, s)
                                         for row in bond_cost.tolist()]))
    return Certificate(
        target=target, params=ProtocolParams.from_vectors(r, s, theta),
        value=value, bond_reduction=bond_value, upper_bound=upper,
        converged=converged, rounds=rounds)


# ---------------------------------------------------------------------------
# sweeps and landmark extraction


@dataclass(frozen=True)
class SweepRow:
    """One row of the protocol sweep over the edge field."""

    h: float
    xx: float
    yy: float
    h_xx: float
    h_yy: float
    injected_axis_y: float
    injected_axis_x: float
    extracted_max: float
    site_reduction_max: float
    net_at_site_optimum: float


def injected_energy(state: GroundState, axis: str) -> float:
    """Measurement cost for an axis-aligned measurement ('x', 'y' or 'z')."""
    return measurement_energy_closed(state, _AXIS_MEASUREMENTS[axis])[1]


def protocol_sweep(h_values, k: float = 1.0):
    """Correlators, measurement costs and both maxima per edge field, from
    one batch over the fields."""
    h = np.asarray(h_values, dtype=float)
    if not h.size:
        return []
    state = ground_state(ModelParams(h=h, k=k))
    c = correlators_closed(state)
    site = max_site_reduction(state)
    columns = (h, c.xx, c.yy, h * c.xx, h * c.yy, injected_energy(state, "y"),
               injected_energy(state, "x"), max_extracted_energy(state).value,
               site.value, site.value + site.bond_reduction)
    return [SweepRow(*map(float, row)) for row in zip(*columns)]


@dataclass(frozen=True)
class PeakEstimate:
    h_peak: float
    value: float
    ratio_to_injected: float


def peak_extracted_energy(k: float = 1.0, spacing: float = 0.005) -> PeakEstimate:
    """Peak of the extracted-energy maximum over h, by quadratic
    interpolation around the best point of a uniform grid."""
    hs = np.arange(spacing, 1.0 + spacing / 2.0, spacing) * k
    vals = max_extracted_energy(ground_state(ModelParams(h=hs, k=k))).value
    i = int(vals.argmax())
    i = min(max(i, 1), len(hs) - 2)
    y0, y1, y2 = vals[i - 1:i + 2]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
    h_peak = hs[i] + shift * spacing * k
    state = ground_state(ModelParams(h=float(h_peak), k=k))
    value = max_extracted_energy(state).value
    ratio = value / injected_energy(state, "y")
    return PeakEstimate(h_peak=float(h_peak), value=float(value),
                        ratio_to_injected=float(ratio))


def crossover_field(k: float = 1.0, spacing: float = 0.005) -> float:
    """Field where the x-axis measurement cost overtakes the site-reduction
    maximum, by quadratic interpolation of their difference."""
    hs = np.arange(spacing, 1.0 + spacing / 2.0, spacing) * k
    states = ground_state(ModelParams(h=hs, k=k))
    gaps = injected_energy(states, "x") - max_site_reduction(states).value
    signs = np.sign(gaps)
    flips = np.where(np.diff(signs) != 0)[0]
    if flips.size == 0:
        raise RuntimeError("no crossover in the scanned field range")
    i = int(flips[0])
    i = min(max(i, 1), len(hs) - 2)
    coeffs = np.polyfit(hs[i - 1:i + 2], gaps[i - 1:i + 2], 2)
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-12].real
    inside = real[(real >= hs[i - 1]) & (real <= hs[i + 1])]
    return float(inside[0]) if inside.size else float(hs[i])
