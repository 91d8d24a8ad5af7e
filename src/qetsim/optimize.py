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

* Row stage.  One pass over a set of measurement axes gives, per r, the
  row constant delta, ten coefficients bq with b = bq . (s (x) s, 1) and
  three coefficients cr with c = cr . s; then a = delta - b.  For a set
  of feedback axes, b and c are two matrix products with one basis.
  :func:`sinusoid_engine` returns (a, b, c) as a view over this stage.
* Fused envelope kernel.  The maximum over theta,
  sqrt(b^2 + c^2) - b + delta, is evaluated with in-place ufuncs in
  preallocated buffers of `_CHUNK` measurement axes, followed by the row
  argmax; the scan and the zoom both run on it.
* Halved scan.  r -> -r and s -> -s each map theta -> -theta, so the
  theta envelope is even in r and in s.  On an even angle grid every
  antipode is a grid point, and only the polar half mu, xi < pi/2 of each
  axis grid is scanned: a quarter of the full grid's cells.
* Zoom refinement.  A 5^4 local grid around the best cell is evaluated in
  one kernel call and recentred on its best point; the steps halve when
  no neighbour gains, and the search stops when every step is below 1e-8.
* Convergence.  The certificate records whether the refinement met that
  step tolerance within its round limit, its round count and the number of
  (r, s) cells evaluated; :func:`qetsim.checks.check_brute_force` fails on
  a certificate that did not converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .model import (GroundState, ModelParams, build_hamiltonian,
                    energy_decomposition, ground_state, term_expectations)
from .protocol import (ProtocolParams, correlators_closed,
                       measurement_energy_closed, run_protocol)

TARGET_EXTRACTED = "extracted"
TARGET_SITE = "site_reduction"
_TARGETS = (TARGET_EXTRACTED, TARGET_SITE)

MIN_RESOLUTION = 64


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
    the optimum: whether the refinement met its step tolerance, how many
    refinement rounds it took, and how many (measurement axis, feedback
    axis) cells the scan and the refinement evaluated.  Closed-form
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


def _closed_certificate(target, amplitude, cross, raxis, saxis,
                        bond=lambda sin2, cos2: 0.0):
    """Certificate at the optimum of the :class:`Certificate` sinusoid with
    amplitude W and cross amplitude X, at axes `raxis` and `saxis`:
    (sin 2 theta, cos 2 theta) = (X, -W) / hypot(W, X), or theta = phase = 0
    where W = X = 0 (h = 0); `bond(sin2, cos2)` is the bond reduction."""
    root = np.hypot(amplitude, cross)
    zero = root == 0.0   # adding or multiplying by it is exact elsewhere
    sin2, cos2 = cross / (root + zero), -amplitude / (root + zero) + zero
    theta = 0.5 * np.arctan2(sin2, cos2)
    return Certificate(
        target=target, params=ProtocolParams.from_vectors(raxis, saxis, theta),
        value=root - abs(amplitude), amplitude=amplitude, cross_amplitude=cross,
        phase=np.arctan2(-cross, -amplitude) * ~zero, sin_2theta=sin2,
        cos_2theta=cos2, bond_reduction=bond(sin2, cos2))


def max_extracted_energy(state: GroundState) -> Certificate:
    """Closed-form maximum of the extracted energy.

    Optimal axes: measurement along y, feedback along x.  At h = 0 the
    maximum is zero and theta is not unique; theta = 0 is reported.
    """
    gain = state.params.h * correlators_closed(state).yy
    return _closed_certificate(TARGET_EXTRACTED,
                               energy_decomposition(state).site_b, gain,
                               (0.0, 1.0, 0.0), (1.0, 0.0, 0.0))


def max_site_reduction(state: GroundState) -> Certificate:
    """Closed-form maximum of Bob's site-energy reduction.

    Optimal axes: measurement along x, feedback along y.  The accompanying
    bond term e_R (1 - cos 2 theta) + k xxz sin 2 theta is negative for
    every h > 0, so this optimum always releases heat.
    """
    e = energy_decomposition(state)
    c = correlators_closed(state)
    return _closed_certificate(
        TARGET_SITE, e.site_b, -(state.params.h * c.xx), (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0), lambda sin2, cos2: (e.bond_right * (1.0 - cos2)
                                             + state.params.k * c.xxz * sin2))


# ---------------------------------------------------------------------------
# the matrix-element engine and the grid oracle


def _row_engine(state: GroundState, target: str):
    """The row stage: per-measurement-axis coefficients of the objective.

    Returns ``rows(raxes) -> (delta, bq, cr)`` with shapes (m,), (m, 10)
    and (m, 3) for measurement axes `raxes` of shape (m, 3), such that for
    a feedback axis s

        b = bq . (s (x) s, 1),   c = cr . s,   a = delta - b,

    and objective(r, s, theta) = a + b cos 2 theta + c sin 2 theta.

    The post-measurement states P_A(n)|psi> are linear in (1, n r); the
    rotation is linear in (cos t, i n sin t s).  Sandwiching the relevant
    Hamiltonian term therefore reduces to bilinear contractions of
    precomputed matrix elements of raw Pauli operators, done here once per
    measurement axis.
    """
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}")
    v = state.vector
    terms = build_hamiltonian(state.params)
    sig_a = [ops.pauli(ops.SITE_A, ax) for ax in "xyz"]
    rot = [ops.IDENTITY] + [ops.pauli(ops.SITE_B, ax) for ax in "xyz"]
    phi = np.stack([v] + [sa @ v for sa in sig_a], axis=1) / 2.0   # (16, 4)
    if target == TARGET_EXTRACTED:
        # <rot_p phi_i| H |rot_q phi_j>, rows (i, j), columns (p, q)
        bp = np.stack([B @ phi for B in rot], axis=0)              # (4, 16, 4)
        g4 = np.einsum("pdi,de,qej->ijpq", bp.conj(), terms.total, bp)
        g4 = g4.reshape(16, 16)
        k_meas = (phi.conj().T @ terms.total @ phi).real

        def contract(w):
            return np.einsum("wi,wj->wij", w, w).reshape(-1, 16) @ g4

        def measured(wp, wm):   # energy after the measurement
            return (np.einsum("wi,ij,wj->w", wp, k_meas, wp)
                    + np.einsum("wi,ij,wj->w", wm, k_meas, wm))
    else:
        # <phi_i| rot_p site_B rot_q |psi>; the rot factors are Hermitian
        g3 = np.einsum("di,pqd->ipq", phi.conj(), np.stack(
            [[rp @ terms.site_b @ rq @ v for rq in rot] for rp in rot]))
        g3 = g3.reshape(4, 16)
        site_b = term_expectations(state).site_b

        def contract(w):
            return w @ g3

        def measured(wp, wm):
            return site_b

    def rows(raxes):
        ones = np.ones((len(raxes), 1))
        wp = np.concatenate([ones, raxes], axis=1)
        wm = np.concatenate([ones, -raxes], axis=1)
        # energy after the rotation, both outcomes: the n = -1 term has the
        # conjugate pattern of i n sin t, so conjugating it merges the two
        tc = (contract(wp) + contract(wm).conj()).reshape(-1, 4, 4)
        # the energy after the rotation is E(t) = T cos^2 t + Q sin^2 t
        # + D sin t cos t, with T at t = 0, Q = s.tc.s and D from the cross
        # terms; the objective offset - E(t) in terms of 2 t needs T/2,
        # Q/2 and -D/2
        t00 = 0.5 * tc[:, 0, 0].real
        bq = np.concatenate([0.5 * tc[:, 1:, 1:].reshape(-1, 9).real,
                             -t00[:, None]], axis=1)
        cr = 0.5 * (tc[:, 0, 1:] - tc[:, 1:, 0]).imag
        return measured(wp, wm) - 2.0 * t00, bq, cr

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
    delta, bq, cr = row
    basis = _feedback_basis(saxes)
    b = bq @ basis[:10]
    return delta[:, None] - b, b, cr @ basis[10:]


def _envelope_into(buffers, row, basis):
    """The fused envelope kernel: max over theta of a + b cos 2t + c sin 2t,
    that is delta + sqrt(b^2 + c^2) - b, for every (row, feedback axis)
    pair.

    `row` is the row stage ``(delta, bq, cr)`` of m measurement axes and
    `basis` the :func:`_feedback_basis` of n feedback axes.  Works in place
    in the preallocated `buffers` of shape (3, >= m, n) and returns the
    (m, n) envelope, a view into them.
    """
    delta, bq, cr = row
    out, b, c = buffers[:, :len(delta)]
    np.matmul(bq, basis[:10], out=b)
    np.matmul(cr, basis[10:], out=c)
    np.multiply(c, c, out=c)
    np.multiply(b, b, out=out)
    out += c
    np.sqrt(out, out=out)
    out -= b
    out += delta[:, None]
    return out


def _axes(polar, azimuth):
    """Unit vectors of the product grid polar x azimuth, polar-major."""
    sin_p = np.sin(polar)
    return np.stack([np.outer(sin_p, np.cos(azimuth)).ravel(),
                     np.outer(sin_p, np.sin(azimuth)).ravel(),
                     np.repeat(np.cos(polar), len(azimuth))], axis=1)


# measurement axes per kernel call in the scan.  The 64-point scan on a
# 2-core Xeon with 2 MB of L2 per core took 27 ms at 16 and 32, 4 % more
# at 8, 19 % more at 64 and 35-40 % more at 4 and 128; three (16, 2048)
# float64 buffers take 768 kB
_CHUNK = 16


def _best_cell(rows, raxes, saxes):
    """Largest theta envelope over every (r, s) pair.

    Returns (value, r index, s index); ties resolve to the first r index,
    then the first s index.
    """
    row = rows(raxes)
    basis = _feedback_basis(saxes)
    buffers = np.empty((3, _CHUNK, len(saxes)))
    best_val = np.empty(len(raxes))
    best_s = np.empty(len(raxes), dtype=np.int64)
    for lo in range(0, len(raxes), _CHUNK):
        hi = lo + _CHUNK
        envelope = _envelope_into(buffers, [x[lo:hi] for x in row], basis)
        s_idx = envelope.argmax(axis=1)
        best_s[lo:hi] = s_idx
        best_val[lo:hi] = envelope[np.arange(len(s_idx)), s_idx]
    r_idx = int(best_val.argmax())
    return float(best_val[r_idx]), r_idx, int(best_s[r_idx])


def _scan_grid(rows, resolution):
    """Exhaustive scan over the axis grid with theta maximised exactly.

    r -> -r and s -> -s each map theta -> -theta, so the envelope is even
    in both axes.  For even `resolution` the antipode of grid point
    (mu_i, nu_j) is the grid point (mu_{n-1-i}, nu_{j+n/2}), so only polar
    indices i < n/2 are scanned on either axis.  Ties resolve to the
    lexicographically first cell in (mu, nu, xi, eta) order; the kept cell
    of each antipodal set is its lexicographically first member, so the
    rule is the same as for the full grid.  Returns (value, axis angles).
    """
    n = resolution
    polar = np.linspace(0.0, np.pi, n)[:n // 2]
    azimuth = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    axes = _axes(polar, azimuth)
    value, r_idx, s_idx = _best_cell(rows, axes, axes)
    return value, (polar[r_idx // n], azimuth[r_idx % n],
                   polar[s_idx // n], azimuth[s_idx % n])


_ZOOM = np.arange(-2.0, 3.0)       # local grid offsets, in steps
_CENTRE = (len(_ZOOM) ** 4 - 1) // 2   # flat index of the 5^4 grid's centre


def _zoom(rows, angles, steps, tol=1e-15, min_step=1e-8,
          max_rounds=200):
    """Coarse-to-fine local grid ascent over the four axis angles.

    Each round evaluates the 5^4 grid x + steps * {-2..2}^4 in one kernel
    call and recentres on its best cell; the steps halve when that
    cell is the centre or gains less than `tol`.  Returns (angles, rounds,
    converged), converged meaning every step fell below `min_step`.
    """
    x = np.array(angles, dtype=float)
    steps = np.array(steps, dtype=float)
    width = len(_ZOOM)
    buffers = np.empty((3, width**2, width**2))
    for rounds in range(1, max_rounds + 1):
        grid = x[:, None] + steps[:, None] * _ZOOM
        grid[[0, 2]] = np.clip(grid[[0, 2]], 0.0, np.pi)   # polar angles
        envelope = _envelope_into(buffers, rows(_axes(grid[0], grid[1])),
                                  _feedback_basis(_axes(grid[2], grid[3])))
        envelope = envelope.ravel()
        best = int(envelope.argmax())
        r_idx, s_idx = divmod(best, width**2)
        x = grid[np.arange(4), [*divmod(r_idx, width), *divmod(s_idx, width)]]
        if envelope[best] - envelope[_CENTRE] < tol:
            steps *= 0.5
        if steps.max() < min_step:
            return tuple(x), rounds, True
    return tuple(x), max_rounds, False


def validate_resolution(resolution: int) -> None:
    """Reject an oracle grid resolution below 64 or odd (the halved scan
    needs the antipode of every grid axis on the grid)."""
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be at least {MIN_RESOLUTION}")
    if resolution % 2:
        raise ValueError(f"resolution must be even, got {resolution}: the "
                         f"halved scan needs the antipode of every grid "
                         f"axis on the grid")


def brute_force_max(state: GroundState, target: str,
                    resolution: int = MIN_RESOLUTION) -> Certificate:
    """Grid scan plus local refinement of the matrix-element objective.

    `resolution` is the number of points per angle: even, and at least
    64.  The certificate's sinusoid fields come from the engine at the
    optimal axes, keeping the whole oracle independent of the closed forms.
    """
    validate_resolution(resolution)
    rows = _row_engine(state, target)
    _, angles = _scan_grid(rows, resolution)
    steps = (np.pi / resolution, 2.0 * np.pi / resolution) * 2
    (mu, nu, xi, eta), rounds, converged = _zoom(rows, angles, steps)
    a, b, c = (float(x[0, 0]) for x in _coefficients(
        rows(ops.axis_vector(mu, nu)[None]), ops.axis_vector(xi, eta)[None]))
    theta = 0.5 * np.arctan2(c, b)
    root = np.hypot(a, c)
    phase = np.arctan2(-c, -a) if root > 0.0 else 0.0
    pp = ProtocolParams(mu, nu % (2.0 * np.pi), xi, eta % (2.0 * np.pi), theta)
    bond = run_protocol(state, pp).extracted_bond
    return Certificate(target=target, params=pp,
                       value=a + np.sqrt(b * b + c * c), amplitude=a,
                       cross_amplitude=c, phase=phase,
                       sin_2theta=np.sin(2.0 * theta),
                       cos_2theta=np.cos(2.0 * theta), bond_reduction=bond,
                       converged=converged, rounds=rounds,
                       evaluations=(resolution**2 // 2)**2
                       + rounds * len(_ZOOM)**4)


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
    vec = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}[axis]
    pp = ProtocolParams.from_vectors(vec, (0.0, 0.0, 1.0), 0.0)
    return measurement_energy_closed(state, pp)[1]


def protocol_sweep(h_values, k: float = 1.0):
    """Correlators, measurement costs and both maxima per edge field."""
    rows = []
    for h in h_values:
        state = ground_state(ModelParams(h=float(h), k=k))
        c = correlators_closed(state)
        ext = max_extracted_energy(state)
        site = max_site_reduction(state)
        rows.append(SweepRow(
            h=float(h), xx=c.xx, yy=c.yy, h_xx=float(h) * c.xx,
            h_yy=float(h) * c.yy,
            injected_axis_y=injected_energy(state, "y"),
            injected_axis_x=injected_energy(state, "x"),
            extracted_max=ext.value,
            site_reduction_max=site.value,
            net_at_site_optimum=site.value + site.bond_reduction,
        ))
    return rows


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
