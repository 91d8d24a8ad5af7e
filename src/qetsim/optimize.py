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
  (M0, C) of site_B and bond_right, from one product of the first 36
  rows of the protocol ledger's cached table with conj(psi) (x) psi
  (:func:`qetsim.protocol.rotation_forms`, :func:`_row_engine`).
* Fixed point.  At a feedback axis s the maximum over r and theta is
  lambda(s) = m/2 + hypot(A, m/2), with A = |C^T s| and m = s^T M0 s
  (:func:`_axis_maximum`).  The global maximum is the root of
  lambda_max(C C^T + lambda M0) = lambda^2, reached by Dinkelbach's
  parametric iteration (W. Dinkelbach, Management Science 13, 492
  (1967)).  Each round's feedback axis is the top eigenvector of C C^T +
  lambda M0 by a cyclic 3 x 3 Jacobi (:func:`_jacobi_axis`; J. Demmel and
  K. Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992)), and the
  iteration stops at the first round whose value a Cholesky test proves
  to be the maximum up to a factor 1 + 2^-44 (:func:`_certifies`,
  :func:`_fixed_point`), all on Python floats.  An uncertified
  certificate fails :func:`qetsim.checks.check_brute_force`.
* Structure.  On physical states M0 and C C^T are diagonal, by the
  parity symmetry (sigma_z on every site) and complex conjugation (a real
  psi), so the maximum is the best of three per-axis closed forms, the
  paper's two formulae, and Jacobi makes no rotation.  The iteration does
  not assume this; it takes 1 round (``site_reduction``) or 1 to 2
  (``extracted``) on physical states, at most 11 on the tests' random
  (M0 <= 0, C).
* Tightness.  The bound is value (1 + 2^-44), 5.7e-14 relative, at every
  h/k: the test reads the entries of Lambda^2 I - Lambda M0 and C, which
  do not cancel, so its rounding slack is a fixed share of them.  It is
  proven for the forms as computed, so against the 60-digit maximum it
  shares the value's error: below 1e-13 relative up to h = 100 k, and up
  to 2e-12 for ``extracted`` beyond (tests/test_accuracy.py).
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

# h / k on the landmarks' grid: 0.005, 0.010, ..., 1 (stop half a step on)
_LANDMARK_SPACING = 0.005
_LANDMARK_GRID = np.arange(_LANDMARK_SPACING, 1.0025, _LANDMARK_SPACING)

# angles of the constant axes of the closed forms, computed once: the
# conversion from vectors costs more than the closed forms themselves.
# The theta of these parameters is a placeholder.
_X, _Y, _Z = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
_AXES_EXTRACTED = ProtocolParams.from_vectors(_Y, _X, 0.0)
_AXES_SITE = ProtocolParams.from_vectors(_X, _Y, 0.0)
_AXIS_MEASUREMENTS = {name: ProtocolParams.from_vectors(vec, _Z, 0.0)
                      for name, vec in (("x", _X), ("y", _Y), ("z", _Z))}

# the fixed point's certificate (:func:`_certifies`): its diagonal shift,
# 128 u, and the first relative width it tries, 512 u (u = 2^-53)
_SHIFT = 2.0**-46
_SLACK = 2.0**-44
# the entries (00, 01, 02, 11, 12, 22) of a symmetric 3 x 3 matrix
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


@dataclass(frozen=True)
class Certificate:
    """Location and value of an optimum, with its bond term and bound.

    `bond_reduction` is the bond-term energy change at the reported
    parameters (zero when the extracted energy is maximised, strictly
    negative at the site-reduction optimum for h > 0).

    `upper_bound` is proven: the maximum over all five angles lies in
    [value, upper_bound] (:func:`_certifies`); a closed form is exact, so
    there it is the value.  `converged` and `rounds` describe the oracle's
    fixed point: whether it certified its value within its round limit
    (else `upper_bound` is inf), and its rounds, one 3 x 3 eigensolve
    each; closed forms: converged, 0 rounds.
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


def _jacobi_axis(a00, a01, a02, a11, a12, a22):
    """Top eigenvector of the symmetric [[a00, a01, a02], [a01, a11, a12],
    [a02, a12, a22]] on Python floats, by cyclic Jacobi rotations
    (Rutishauser's update; an off-diagonal entry that, taken 100 times,
    adds nothing to either of its diagonal entries is zeroed unrotated),
    ties going to the last axis.  Where the off-diagonal entries are exact
    zeros, as on physical states, it makes no rotation and returns a
    coordinate axis.  It only proposes an axis to :func:`_fixed_point`,
    whose bound does not rest on it, so its sweep limit needs no margin."""
    a = [[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for _ in range(50):   # sweeps; a 3 x 3 matrix takes a handful
        rotated = False
        for p, q, o in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = a[p][q]
            if apq == 0.0:
                continue
            app, aqq = a[p][p], a[q][q]
            tiny = 100.0 * abs(apq)
            if abs(app) + tiny == abs(app) and abs(aqq) + tiny == abs(aqq):
                a[p][q] = a[q][p] = 0.0
                continue
            rotated = True
            # tan of the angle that zeroes a[p][q], the smaller root
            theta = 0.5 * (aqq - app) / apq
            t = math.copysign(1.0 / (abs(theta) + math.hypot(1.0, theta)),
                              theta)
            c = 1.0 / math.sqrt(t * t + 1.0)
            sin = t * c
            tau = sin / (1.0 + c)
            a[p][p], a[q][q] = app - t * apq, aqq + t * apq
            a[p][q] = a[q][p] = 0.0
            for row in (a[o], *v):
                gp, gq = row[p], row[q]
                row[p] = gp - sin * (gq + gp * tau)
                row[q] = gq + sin * (gp - gq * tau)
            a[p][o], a[q][o] = a[o][p], a[o][q]
        if not rotated:
            break
    top = 2
    if a[1][1] > a[top][top]:
        top = 1
    if a[0][0] > a[top][top]:
        top = 0
    return [v[0][top], v[1][top], v[2][top]]


def _certifies(form, rows, bound):
    """Whether Lambda = `bound` is proven to bound lambda(s) at every
    feedback axis s, for the forms as given: `form` the entries (00, 01,
    02, 11, 12, 22) of M0's symmetric part, `rows` those of C.

    For a unit s, Lambda > 0 bounds lambda(s) iff q = Lambda^2 - m Lambda
    - A^2 >= 0, as lambda(s) is the larger root of q and the smaller is <=
    0.  At x = (s, -C^T s), x^T K x = q for the 6 x 6

        K = [[Lambda^2 I - Lambda M0, C], [C^T, I]],

    so K >= 0 proves the bound: the test ||L^-1 C||_2 <= 1, L the Cholesky
    factor of Lambda^2 I - Lambda M0.  It is decided by one Cholesky
    factorization of K - sigma E^2, E = diag(e), e_i^2 = Lambda^2 +
    Lambda |M0_ii| (i <= 3) and 1 below: the leading block's factor L, X =
    L^-1 C by forward substitution, then the factor of (1 - sigma) I - X^T
    X; it passes if every pivot is positive.  With M0 <= 0 no entry
    cancels, and no eigenvalue is taken.

    Rounding slack, u = 2^-53, barring underflow and overflow (the
    accepted parameters keep clear of both): the matrix formed differs
    from K - sigma E^2 by F, |F_ij| <= 3u e_i e_j (1 + O(u)): three
    roundings on the leading diagonal, whose terms are at most e_i^2; two
    on -Lambda M0_ij, whose size a completed factorization bounds by e_i
    e_j (1 + O(u)); C and the unit block are exact.  If the factorization
    completes, the computed factor satisfies L L^T = K - sigma E^2 + F +
    D, |D| <= gamma_7 |L||L^T| <= 7u e e^T (1 + O(u)) (N. J. Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3;
    the row norms of L are at most e_i (1 + O(u))).  So for any x, x^T K
    x >= sigma sum e_i^2 x_i^2 - 10u (1 + O(u)) (sum e_i |x_i|)^2, and by
    Cauchy-Schwarz over six terms K >= 0 once sigma > 60u (1 + O(u));
    sigma = 2^-46 = 128u.

    At Lambda = lambda* (1 + delta), along the optimal x the margin delta
    (2 lambda* - m) lambda* meets the shift's sigma (2 lambda* - m + g)
    lambda*, g = sum_i |M0_ii| s_i^2, which is -m for a diagonal M0: there
    the test passes for delta a little above 2 sigma, and the first width
    tried, 2^-44 = 4 sigma, leaves a factor 2.

    Without a gain the objective is m sin^2 theta, and a zero `bound` is
    certified where C = 0 and M0 is diagonal with no positive entry.
    """
    m00, m01, m02, m11, m12, m22 = form
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = rows
    if not bound:
        return (not any((*rows[0], *rows[1], *rows[2], m01, m02, m12))
                and max(m00, m11, m22) <= 0.0)
    square = bound * bound
    t0, t1, t2 = bound * m00, bound * m11, bound * m22
    pivot = square - t0 - _SHIFT * (square + abs(t0))
    if not pivot > 0.0:
        return False
    l00 = math.sqrt(pivot)
    l10, l20 = -bound * m01 / l00, -bound * m02 / l00
    pivot = square - t1 - _SHIFT * (square + abs(t1)) - l10 * l10
    if not pivot > 0.0:
        return False
    l11 = math.sqrt(pivot)
    l21 = (-bound * m12 - l20 * l10) / l11
    pivot = square - t2 - _SHIFT * (square + abs(t2)) - l20 * l20 - l21 * l21
    if not pivot > 0.0:
        return False
    l22 = math.sqrt(pivot)
    x00, x01, x02 = c00 / l00, c01 / l00, c02 / l00
    x10, x11, x12 = ((c10 - l10 * x00) / l11, (c11 - l10 * x01) / l11,
                     (c12 - l10 * x02) / l11)
    x20, x21, x22 = ((c20 - l20 * x00 - l21 * x10) / l22,
                     (c21 - l20 * x01 - l21 * x11) / l22,
                     (c22 - l20 * x02 - l21 * x12) / l22)
    pivot = 1.0 - _SHIFT - x00 * x00 - x10 * x10 - x20 * x20
    if not pivot > 0.0:
        return False
    n00 = math.sqrt(pivot)
    n10 = (-x00 * x01 - x10 * x11 - x20 * x21) / n00
    n20 = (-x00 * x02 - x10 * x12 - x20 * x22) / n00
    pivot = 1.0 - _SHIFT - x01 * x01 - x11 * x11 - x21 * x21 - n10 * n10
    if not pivot > 0.0:
        return False
    n21 = (-x01 * x02 - x11 * x12 - x21 * x22 - n20 * n10) / math.sqrt(pivot)
    return (1.0 - _SHIFT - x02 * x02 - x12 * x12 - x22 * x22 - n20 * n20
            - n21 * n21 > 0.0)


def _fixed_point(cost, gain, max_rounds=100):
    """Dinkelbach's iteration for the maximum of y^T K(r) y over all five
    angles, with a proven upper bound, on Python floats: no numpy call
    after reading (M0, C).

    F(lambda) = max_s (A^2 + lambda m - lambda^2) = lambda_max(C C^T +
    lambda M0) - lambda^2 is >= 0 up to the global maximum lambda* and < 0
    above it, as each s's quadratic is >= 0 exactly on [0, lambda(s)].
    From lambda = 0, each round takes s as the top eigenvector of C C^T +
    lambda M0 (:func:`_jacobi_axis`) and moves lambda to lambda(s) where
    that is higher (that s's quadratic is F(lambda) >= 0 at lambda, so
    only rounding lowers it).  It stops at the first round whose value
    passes :func:`_certifies` at Lambda = value (1 + 2^-44): the
    eigensolver only proposes axes, and the bound rests on the certificate
    alone.  A round that does not rise doubles the width tried, for forms
    whose poorly scaled M0 keeps the test from deciding at 2^-44 (no
    physical state), and ends the iteration at a value of 0.

    Returns ``(value, upper, s, (C^T s, A, m), rounds, converged)``, s
    (floats) attaining the value; converged: certified within
    `max_rounds`, else `upper` is inf.
    """
    costs, rows = cost.tolist(), gain.tolist()
    columns = list(zip(*rows))
    form = [0.5 * (costs[i][j] + costs[j][i]) for i, j in _UPPER]
    gram = [_dot(rows[i], rows[j]) for i, j in _UPPER]
    value, best, slack = 0.0, None, _SLACK
    for rounds in range(1, max_rounds + 1):
        at = value
        s = _jacobi_axis(*[g + at * m for g, m in zip(gram, form)])
        rise, *parts = _axis_maximum(costs, columns, s)
        if best is None or rise > at:
            best, value = (s, parts), rise
        elif not value:
            break
        else:
            slack *= 2.0
        upper = value * (1.0 + slack)
        if _certifies(form, rows, upper):
            return value, upper, *best, rounds, True
    return value, math.inf, *best, rounds, False


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


def peak_extracted_energy(k: float = 1.0) -> PeakEstimate:
    """Peak of the extracted-energy maximum over h, by quadratic
    interpolation around the best point of a uniform grid."""
    hs = _LANDMARK_GRID * k
    vals = max_extracted_energy(ground_state(ModelParams(h=hs, k=k))).value
    i = min(max(int(vals.argmax()), 1), len(hs) - 2)
    y0, y1, y2 = vals[i - 1:i + 2]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
    h_peak = hs[i] + shift * _LANDMARK_SPACING * k
    state = ground_state(ModelParams(h=float(h_peak), k=k))
    value = max_extracted_energy(state).value
    ratio = value / injected_energy(state, "y")
    return PeakEstimate(h_peak=float(h_peak), value=float(value),
                        ratio_to_injected=float(ratio))


def crossover_field(k: float = 1.0) -> float:
    """Field where the x-axis measurement cost overtakes the site-reduction
    maximum, by quadratic interpolation of their difference."""
    hs = _LANDMARK_GRID * k
    states = ground_state(ModelParams(h=hs, k=k))
    gaps = injected_energy(states, "x") - max_site_reduction(states).value
    signs = np.sign(gaps)
    flips = np.where(np.diff(signs) != 0)[0]
    if flips.size == 0:
        raise RuntimeError("no crossover in the scanned field range")
    i = min(max(int(flips[0]), 1), len(hs) - 2)
    coeffs = np.polyfit(hs[i - 1:i + 2], gaps[i - 1:i + 2], 2)
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-12].real
    inside = real[(real >= hs[i - 1]) & (real <= hs[i + 1])]
    return float(inside[0]) if inside.size else float(hs[i])
