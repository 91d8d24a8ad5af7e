"""Protocol-parameter optimization: closed-form maxima and a grid oracle.

Two objectives over the five protocol angles (mu, nu, xi, eta, theta):

* ``extracted``        the total energy removed by the feedback step;
* ``site_reduction``   the reduction of Bob's site term alone.

Both have closed-form maxima

    max extracted      = sqrt(e_B^2 + (h yy)^2) - |e_B|,
    max site_reduction = sqrt(e_B^2 + (h xx)^2) - |e_B|,

attained at measurement/feedback axes (y, x) and (x, y) respectively, with
the rotation angle fixed by the ratio of the correlator gain to the site
energy.  :func:`brute_force_max` cross-checks these by a search over all
five angles that never reads a closed form, so agreement is a genuine
two-route test.

The search runs on one matrix-element engine.  For fixed axes the
objective is an exact sinusoid a + b cos 2 theta + c sin 2 theta
(conjugation by cos(theta) + i n sin(theta) s.sigma_B produces no higher
harmonics), and its coefficients are contractions of a few precomputed
matrix elements with the measurement axis r and the feedback axis s, so
theta is maximised exactly in every cell instead of on a theta grid: the
positive basin in theta narrows like the maximum itself and falls below
any fixed grid spacing once the edge field is large.

* Row stage.  Both targets are one single-projector contraction of the
  terms next to Bob's site (see :func:`_row_engine`), which vanishes at
  theta = 0, so a = -b.  One pass over a set of measurement axes gives,
  per r, ten coefficients bq with b = bq . (s (x) s, 1) and three
  coefficients cr with c = cr . s.  For a set of feedback axes, b and c
  are two matrix products with one basis.  :func:`sinusoid_engine`
  returns (a, b, c) as a view over this stage.  Bob's rotation is also
  the unit quaternion y = (cos theta, sin theta s), and the objective
  -2 b sin^2 theta + 2 c sin theta cos theta is the quadratic form
  y^T K(r) y of a 4 x 4 real symmetric matrix built from (bq, cr)
  (:func:`_rotation_form`), so the maximum over s and theta for one
  measurement axis is the top eigenvalue of K(r) = K0 + sum_i r_i K_i
  (:func:`_rotation_forms`).
* Reduced scan.  That row maximum is invariant under a group of 8 maps
  of r (r -> -r, the half turn about z, y -> -y), each mapping an even
  angle grid to itself.  The scan keeps the first axis of each orbit,
  (n/2)(n//4 + 1) measurement axes, 544 at n = 64, and takes their top
  eigenvalues in one stacked eigvalsh (:func:`_scan_grid`).
* Alternating ascent.  From the best scanned axis, each round takes the
  top eigenvector y of K(r) and moves r to the higher of q / |q|
  (q_i = y^T K_i y) and the Newton point of the top eigenvalue
  (:func:`_ascend`).  The value is that eigenvalue, not a difference
  such as sqrt(b^2 + c^2) - b, which cancels at large h/k.
* Convergence.  The ascent stops at the first round that does not rise;
  the certificate records whether it stopped within the round limit,
  and :func:`qetsim.checks.check_brute_force` fails if not.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .model import (GroundState, ModelParams, build_hamiltonian,
                    energy_decomposition, ground_state)
from .protocol import (ProtocolParams, correlators_closed,
                       measurement_energy_closed, run_protocol)

TARGET_EXTRACTED = "extracted"
TARGET_SITE = "site_reduction"
_TARGETS = (TARGET_EXTRACTED, TARGET_SITE)

MIN_RESOLUTION = 64
MAX_RESOLUTION = 1024   # 131 584 scanned measurement axes

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
    """Location and value of an optimum, plus its sinusoid decomposition.

    At the optimal axes the objective as a function of the rotation angle is

        value(theta) = sqrt(W^2 + X^2) cos(2 theta + phase) - |W|

    with W = `amplitude`, X = `cross_amplitude`, and the optimum at
    2 theta = -phase.  `bond_reduction` is the bond-term energy change at
    the reported parameters (zero when the extracted energy is maximised,
    strictly negative at the site-reduction optimum for h > 0).

    `converged`, `rounds` and `evaluations` describe the search that found
    the optimum: whether the ascent stopped rising within its round
    limit, how many ascent rounds it took, and how many measurement axes
    it evaluated, each maximised over the feedback axis and theta at
    once: one per axis of the scan plus two per round.  Closed-form
    certificates involve no search: converged, 0 rounds, 0 evaluations.
    """

    target: str
    params: ProtocolParams
    value: float
    amplitude: float
    cross_amplitude: float
    phase: float
    sin_2theta: float
    cos_2theta: float
    bond_reduction: float
    converged: bool = True
    rounds: int = 0
    evaluations: int = 0


def _closed_certificate(target, amplitude, cross, axes,
                        bond=lambda sin2, versine: 0.0):
    """Certificate at the optimum of the :class:`Certificate` sinusoid with
    amplitude W and cross amplitude X, at the axes of `axes`:
    (sin 2 theta, cos 2 theta) = (X, -W) / hypot(W, X), or theta = phase = 0
    where W = X = 0 (h = 0); `bond(sin2, versine)` is the bond reduction,
    with versine = 1 - cos 2 theta.

    Where |X| << |W| (large h/k) the value hypot(W, X) - |W| and
    1 - cos 2 theta cancel, so they are taken as X^2 / (hypot(W, X) + |W|)
    and 2 sin^2 theta."""
    root = np.hypot(amplitude, cross)
    zero = root == 0.0   # adding or multiplying by it is exact elsewhere
    sin2, cos2 = cross / (root + zero), -amplitude / (root + zero) + zero
    theta = 0.5 * np.arctan2(sin2, cos2)
    return Certificate(
        target=target, params=ProtocolParams(axes.mu, axes.nu, axes.xi,
                                             axes.eta, theta),
        value=cross * cross / (root + abs(amplitude) + zero),
        amplitude=amplitude, cross_amplitude=cross,
        phase=np.arctan2(-cross, -amplitude) * ~zero, sin_2theta=sin2,
        cos_2theta=cos2, bond_reduction=bond(sin2, 2.0 * np.sin(theta)**2))


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
# the matrix-element engine and the grid oracle


def _row_engine(state: GroundState, target: str):
    """The row stage: per-measurement-axis coefficients of the objective.

    Returns ``rows(raxes) -> (bq, cr)`` with shapes (m, 10) and (m, 3) for
    measurement axes `raxes` of shape (m, 3), such that for a feedback
    axis s

        b = bq . (s (x) s, 1),   c = cr . s,

    and objective(r, s, theta) = -b + b cos 2 theta + c sin 2 theta.

    Bob's rotation U_B(n) acts on site B alone, so it changes only the
    terms T next to B: T = site_B for ``site_reduction`` and T = site_B +
    bond_right for ``extracted``.  P_A(n) commutes with U_B(n) and with T,
    and sum_n P_A(n) = 1, so each target is the single-projector form

        objective = <T> - sum_n <P_A(n) psi| U_B(n)^+ T U_B(n) |psi>,

    which vanishes at theta = 0: a = -b, with no row constant.  The states
    P_A(n)|psi> are linear in (1, n r) and the rotation is linear in
    (cos t, i n sin t s), so every matrix element is a contraction of the
    4 x 16 precomputed elements <phi_i| rot_p T rot_q |psi>, done here
    once per measurement axis.
    """
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if state.vector.ndim != 1:
        raise ValueError(f"the oracle takes one state, got a batch of shape "
                         f"{state.vector.shape[:-1]}")
    v = state.vector
    terms = build_hamiltonian(state.params)
    near_b = (terms.site_b if target == TARGET_SITE
              else terms.site_b + terms.bond_right)
    sig_a = [ops.pauli(ops.SITE_A, ax) for ax in "xyz"]
    rot = [ops.IDENTITY] + [ops.pauli(ops.SITE_B, ax) for ax in "xyz"]
    phi = np.stack([v] + [sa @ v for sa in sig_a], axis=1) / 2.0   # (16, 4)
    # <phi_i| rot_p T rot_q |psi>; the rot factors are Hermitian
    g3 = np.einsum("di,pqd->ipq", phi.conj(), np.stack(
        [[rp @ near_b @ rq @ v for rq in rot] for rp in rot])).reshape(4, 16)

    def rows(raxes):
        ones = np.ones((len(raxes), 1))
        wp = np.concatenate([ones, raxes], axis=1)
        wm = np.concatenate([ones, -raxes], axis=1)
        # sum over both outcomes of <P_A(n) psi| rot_p T rot_q |psi>: the
        # n = -1 term has the conjugate pattern of i n sin t, so
        # conjugating it merges the two
        tc = (wp @ g3 + (wm @ g3).conj()).reshape(-1, 4, 4)
        # the energy after the rotation is E(t) = E0 cos^2 t + Q sin^2 t
        # + D sin t cos t, with E0 = <T> = tc_00, Q = s.tc.s and D from the
        # cross terms; the objective E0 - E(t) has b = (Q - E0)/2 and
        # c = -D/2
        t00 = 0.5 * tc[:, 0, 0].real
        bq = np.concatenate([0.5 * tc[:, 1:, 1:].reshape(-1, 9).real,
                             -t00[:, None]], axis=1)
        cr = 0.5 * (tc[:, 0, 1:] - tc[:, 1:, 0]).imag
        return bq, cr

    return rows


def _feedback_basis(saxes):
    """(13, n) basis (s (x) s, 1, s) of the feedback axes s, one column per
    axis, so that b = bq @ basis[:10] and c = cr @ basis[10:] are each one
    matrix product."""
    pairs = (saxes[:, :, None] * saxes[:, None, :]).reshape(-1, 9)
    return np.ascontiguousarray(np.concatenate(
        [pairs, np.ones((len(saxes), 1)), saxes], axis=1).T)


def sinusoid_engine(state: GroundState, target: str):
    """Exact theta dependence of the objective for sets of axes.

    Returns ``coefficients(raxes, saxes) -> (a, b, c)``: for measurement
    axes `raxes` (shape (m, 3)) and feedback axes `saxes` (shape (n, 3)),
    arrays of shape (m, n) with

        objective(r_i, s_j, theta) = a + b cos 2 theta + c sin 2 theta.

    A view over the row stage of the oracle (:func:`_row_engine`).
    """
    rows = _row_engine(state, target)
    return lambda raxes, saxes: _coefficients(rows(raxes), saxes)


def _coefficients(row, saxes):
    """(a, b, c), each of shape (m, n), from the row stage `row` of m
    measurement axes and the feedback axes `saxes`."""
    bq, cr = row
    basis = _feedback_basis(saxes)
    b = bq @ basis[:10]
    return -b, b, cr @ basis[10:]


def _rotation_form(row):
    """The objective's quadratic form in Bob's rotation, per measurement
    axis: for the row stage `row` of m axes, the (m, 4, 4) real symmetric

        K(r) = [[0, cr^T], [cr, -(B + B^T) - 2 beta I]],

    with B = bq[:9] as a 3 x 3 matrix and beta = bq[9].  On a unit axis s,
    b = s^T B s + beta, so for the unit quaternion y = (cos theta,
    sin theta s) the objective -2 b sin^2 theta + 2 c sin theta cos theta
    equals y^T K(r) y.  Every unit y is some (s, theta), so the maximum
    over s and theta is the top eigenvalue of K(r), attained at its
    eigenvector.
    """
    bq, cr = row
    quad = bq[:, :9].reshape(-1, 3, 3)
    form = np.zeros((len(bq), 4, 4))
    form[:, 0, 1:] = form[:, 1:, 0] = cr
    form[:, 1:, 1:] = -(quad + quad.transpose(0, 2, 1))
    form[:, [1, 2, 3], [1, 2, 3]] -= 2.0 * bq[:, 9:]
    return form


def _rotation_forms(rows):
    """K(r) = K0 + sum_i r_i K_i as (K0 = K(0), the stack K_i = K(e_i) - K0):
    the row stage is affine in r, as `tc` is linear in (1, +-r)."""
    form = _rotation_form(rows(np.vstack([np.zeros(3), np.eye(3)])))
    return form[0], form[1:] - form[0]


def _form_at(forms, raxes):
    """K(r) of the (m, 3) axes `raxes` from (K0, K_i), as (m, 4, 4)."""
    k0, kr = forms
    return k0 + (raxes @ kr.reshape(3, 16)).reshape(-1, 4, 4)


def _scan_grid(forms, resolution):
    """Exhaustive scan over the measurement axes of the angle grid, with
    the feedback axis and theta maximised exactly (:func:`_rotation_form`),
    one axis per symmetry orbit; `forms` is (K0, K_i) of
    :func:`_rotation_forms`.

    The row maximum is invariant under a group of order 8 acting on the
    measurement axis r, generated by
      * r -> -r: it swaps Alice's outcomes n = +-1 and maps theta -> -theta;
      * the half turn R_z(pi): the parity operator, sigma_z on every site,
        commutes with H and psi is a parity eigenstate; it flips sigma_x
        and sigma_y on every site, so it maps P_A(r) and U_B(s) to
        P_A(R_z(pi) r) and U_B(R_z(pi) s) and leaves T (sigma_z on B,
        sigma_x sigma_x on C2 B) unchanged;
      * y -> -y: H is real, so psi can be taken real, and complex
        conjugation flips only sigma_y, maps U_B(s, theta) to U_B(s',
        -theta), s' being s with y negated, and fixes T.
    Each map changes the feedback axis and theta along with r, over all
    of which the row maximum is taken.  P_A, U_B and T act on sites A, B
    and the bond C2 B only, so no other term of H enters.  On the grid
    (mu_i, nu_j) with even n the maps send (i, j) to (n-1-i, j+n/2),
    (i, j+n/2) and (i, -j), indices of nu mod n.  So every orbit has a
    member with i < n/2 and j <= n//4 ({j, -j, n/2+j, n/2-j} mod n always
    meets [0, n//4]), and only those (n/2)(n//4 + 1) axes are scanned.

    Ties resolve to the first scanned axis.  Returns (value, winning axis,
    axes scanned).
    """
    n = resolution
    polar = np.linspace(0.0, np.pi, n)[:n // 2]
    azimuth = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)[:n // 4 + 1]
    raxes = ops.axis_vector(*np.meshgrid(polar, azimuth, indexing="ij"))
    raxes = raxes.reshape(3, -1).T   # polar-major
    top = np.linalg.eigvalsh(_form_at(forms, raxes))[:, -1]
    best = int(top.argmax())
    return float(top[best]), raxes[best], len(raxes)


def _trial_axes(kr, r, w, v):
    """The two axes an ascent round tries from `r`, given the eigenpairs
    (w, v) of K(r).  With y the top eigenvector, q_i = y^T K_i y is the
    gradient of the top eigenvalue lambda(r), and C_ij = 2 sum_k (y^T K_i
    v_k)(v_k^T K_j y) / (lambda - w_k) over the other eigenpairs (an exact
    degeneracy drops out) its Hessian.  The axes are q / |q|, the best for
    y, and the Newton point of lambda on the unit sphere, stepping only
    along the tangent modes where lambda curves down.  Along flat
    directions q / |q| alone gains as little as 2 % of the remaining gap
    per round (the extracted target at h = 10 k on a 66-point grid).
    """
    y = v[:, -1]
    ky = kr @ y
    q = ky @ y
    # the tangent plane's orthonormal basis: eigenvectors of eigenvalue 1
    tangent = np.linalg.eigh(np.eye(3) - np.outer(r, r))[1][:, 1:]
    cross = tangent.T @ ky @ v[:, :3]
    gap = w[-1] - w[:3]
    scaled = np.divide(cross, gap, out=np.zeros_like(cross), where=gap > 0.0)
    curvature, modes = np.linalg.eigh((r @ q) * np.eye(2)
                                      - 2.0 * scaled @ cross.T)
    gain = modes.T @ tangent.T @ q
    newton = r + tangent @ modes @ np.divide(
        gain, curvature, out=np.zeros(2), where=curvature > 0.0)
    norm = np.sqrt(q @ q)
    return np.stack([q / norm if norm > 0.0 else r,
                     newton / np.sqrt(newton @ newton)])


def _ascend(forms, r, max_rounds=100):
    """Alternating ascent on y^T K(r) y from the axis `r`: y is the top
    eigenvector of K(r), and r moves to the higher of the two
    :func:`_trial_axes` (one stacked eigh).  The top eigenvalue is convex
    in r, as K(r) is affine, so q / |q| never lowers it.  Stops at the
    first round that does not rise; returns (value, r, y, rounds,
    converged), converged meaning it stopped within `max_rounds`.
    """
    w, v = np.linalg.eigh(_form_at(forms, r)[0])
    for rounds in range(1, max_rounds + 1):
        trial = _trial_axes(forms[1], r, w, v)
        tw, tv = np.linalg.eigh(_form_at(forms, trial))
        best = int(tw[:, -1].argmax())
        if tw[best, -1] <= w[-1]:
            return float(w[-1]), r, v[:, -1], rounds, True
        r, w, v = trial[best], tw[best], tv[best]
    return float(w[-1]), r, v[:, -1], max_rounds, False


def validate_resolution(resolution: int) -> None:
    """Reject an oracle grid resolution that is not an integer, is below
    64 or above 1024, or is odd (the reduced scan needs the antipode and
    the half turn about z of every grid axis on the grid)."""
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
        raise ValueError(f"resolution must be even, got {resolution}: the "
                         f"scan needs the antipode of every grid axis on "
                         f"the grid")


def brute_force_max(state: GroundState, target: str,
                    resolution: int = MIN_RESOLUTION) -> Certificate:
    """Grid scan plus alternating ascent of the matrix-element objective.

    `resolution` is the number of points per angle: even, from 64 to
    1024.  The value is the top eigenvalue of K(r) at the final axis r;
    with its eigenvector y (y_0 >= 0), s is (y_1, y_2, y_3) normalised (z
    if zero) and theta = atan2(|(y_1, y_2, y_3)|, y_0).  The sinusoid
    fields come from the engine at these axes, never from a closed form.
    """
    validate_resolution(resolution)
    rows = _row_engine(state, target)
    forms = _rotation_forms(rows)
    _, r, scanned = _scan_grid(forms, resolution)
    value, r, y, rounds, converged = _ascend(forms, r)
    y = -y if y[0] < 0.0 else y
    norm = np.sqrt(y[1:] @ y[1:])
    theta = np.arctan2(norm, y[0])
    pp = ProtocolParams.from_vectors(r, y[1:] / norm if norm > 0.0 else _Z,
                                     theta)
    a, _, c = (float(x[0, 0]) for x in _coefficients(
        rows(pp.measure_axis[None]), pp.feedback_axis[None]))
    phase = np.arctan2(-c, -a) if np.hypot(a, c) > 0.0 else 0.0
    bond = run_protocol(state, pp).extracted_bond
    return Certificate(target=target, params=pp, value=value, amplitude=a,
                       cross_amplitude=c, phase=phase,
                       sin_2theta=np.sin(2.0 * theta),
                       cos_2theta=np.cos(2.0 * theta), bond_reduction=bond,
                       converged=converged, rounds=rounds,
                       evaluations=scanned + 2 * rounds)


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
