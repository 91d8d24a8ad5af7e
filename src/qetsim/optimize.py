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
  returns (a, b, c) as a view over this stage.
* Fused envelope kernel.  The maximum over theta, sqrt(b^2 + c^2) - b,
  is evaluated with in-place ufuncs in preallocated buffers of `_CHUNK`
  measurement axes, followed by the row argmax; the scan and the zoom
  both run on it.
* Reduced scan.  The objective is invariant under a group of 16 axis
  maps (r -> -r, s -> -s, a half turn of both axes about z, y -> -y on
  both), each mapping an even angle grid to itself.  The scan keeps the
  lexicographically first cell of each orbit: (n/2)(n//4 + 1)
  measurement axes against the n^2/2 feedback axes of the polar half,
  544 x 2048 at n = 64 (:func:`_scan_grid`).
* Screen and recheck.  The scan runs the kernel in float32 first, on
  coefficients scaled by a power of two, and bounds each row maximum's
  error by eps_r = 2^-19 (|bq_r|_1 + |cr_r|_1) plus an underflow term
  (derived at :func:`_screen`).  Only rows whose maximum can come within
  eps of the best are rerun in float64, so the scan returns exactly the
  cell, value and tie-break of a float64 pass over every row.  Where all
  rows tie or nearly tie, every row is rerun and the scan costs 1.3 to
  1.8 times the plain float64 pass: at and near h = 0, for the extracted
  target from h ~ 5 k on and for both targets from h ~ 20 k on.  Over the
  README range h <= 3 k a 64-point scan reruns 1 to ~120 of its 544
  rows.
* Zoom refinement.  A 5^4 local grid around the best cell is evaluated in
  one kernel call and recentred on its best point; the steps halve when
  no neighbour gains, and the search stops when every step is below 1e-8.
* Convergence.  The certificate records whether the refinement met that
  step tolerance within its round limit, its round count and the number of
  (r, s) cells evaluated; :func:`qetsim.checks.check_brute_force` fails on
  a certificate that did not converge.
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
    the optimum: whether the refinement met its step tolerance, how many
    refinement rounds it took, and how many (measurement axis, feedback
    axis) cells the scan and the refinement evaluated.  `rechecked_rows`
    is the number of scan rows (measurement axes) that the float64 pass
    reran after the float32 screen.  Closed-form certificates involve no
    search: converged, 0 rounds, 0 evaluations, 0 rechecked rows.
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
    rechecked_rows: int = 0


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


def _envelope_into(buffers, row, basis):
    """The fused envelope kernel: max over theta of -b + b cos 2t + c sin 2t,
    that is sqrt(b^2 + c^2) - b, for every (row, feedback axis) pair.

    `row` is the row stage ``(bq, cr)`` of m measurement axes and
    `basis` the :func:`_feedback_basis` of n feedback axes.  Works in place
    in the preallocated `buffers` of shape (3, >= m, n) and returns the
    (m, n) envelope, a view into them.
    """
    bq, cr = row
    out, b, c = buffers[:, :len(bq)]
    np.matmul(bq, basis[:10], out=b)
    np.matmul(cr, basis[10:], out=c)
    np.multiply(c, c, out=c)
    np.multiply(b, b, out=out)
    out += c
    np.sqrt(out, out=out)
    out -= b
    return out


# measurement axes per kernel call in the scan, in the float32 screen and
# in the float64 recheck.  On a 2-core Xeon with 2 MB of L2 per core the
# 64-point scan (544 rows) took 2.8-3.6 ms at 16 and 32 with 1 row
# rechecked (h = 0.5), 15-30 % more at 8 and 64 and 55-80 % more at 4
# and 128; with all 544 rows rechecked (h = 0) 6.5-7.6 ms at 16 and 32,
# 15-35 % more at 8 and 64 and 40-60 % more at 4 and 128.  Three
# (16, 2048) float64 buffers take 768 kB, float32 ones half of that
_CHUNK = 16


def _screen(row, basis):
    """Float32 screen of the scan: per measurement axis r, the largest
    envelope over the feedback axes of `basis`, and a bound eps_r on its
    distance from the maximum the float64 kernel finds for that row.

    The float32 kernel runs on bq and cr scaled by one exact power of two,
    so that every k that ModelParams accepts stays in float32 range; the
    row maxima are scaled back in float64.

    The bound.  Let B and C be the 1-norms of a row of bq and of cr,
    scaled so that B + C <= 1; every basis entry is at most 1 in size.
    With u = 2^-24 and gamma_n = n u / (1 - n u), rounding bq, cr and the
    basis to float32 and a K-term dot product in any order, fused or not,
    give |b32 - b| <= gamma_12 B + 2^-144 and |c32 - c| <= gamma_5 C +
    2^-146, the absolute terms covering underflow.  The envelope
    g(b, c) = sqrt(b^2 + c^2) - b moves by at most 2 |db| + |dc|.  Its
    float32 evaluation at (b32, c32) rounds the two squares, the sum, the
    sqrt and the subtraction: the error is at most gamma_5 R + 2^-73.9 with
    R = hypot(b32, c32) <= |b32| + |c32|, where the absolute term is the
    sqrt of the squares' underflow, sqrt(2^-149).  In all, one cell is off
    by at most 30 u (B + C) + 2^-73, and a row maximum by no more than its
    worst cell.  The float64 kernel itself is off the exact envelope by
    less than 2^-48 (B + C) (its underflow term, 2^-536, is far below
    2^-73 / scale, because k >= 1e-100 keeps the largest B + C above
    2^-400), and forming screen +- eps rounds once more; 2^-19 = 32 u
    covers all of it.
    """
    bq, cr = row
    weight = np.abs(bq).sum(axis=1) + np.abs(cr).sum(axis=1)   # B + C
    scale = np.ldexp(1.0, -np.frexp(weight.max())[1])
    row32 = [(scale * x).astype(np.float32) for x in row]
    basis32 = basis.astype(np.float32)
    buffers = np.empty((3, _CHUNK, basis.shape[1]), np.float32)
    top = np.empty(len(bq))
    for lo in range(0, len(bq), _CHUNK):
        top[lo:lo + _CHUNK] = _envelope_into(
            buffers, [x[lo:lo + _CHUNK] for x in row32], basis32).max(axis=1)
    return top / scale, 2.0**-19 * weight + 2.0**-73 / scale


def _best_cell(rows, raxes, saxes):
    """Largest theta envelope over every (r, s) pair.

    A float32 screen (:func:`_screen`) bounds every row's maximum; only
    the rows whose bound reaches the best lower bound can hold the winning
    cell, and only those are rerun through the float64 kernel, so the
    result is the one a float64 pass over every row gives.  Returns
    (value, r index, s index, rows rerun); ties resolve to the first r
    index, then the first s index.
    """
    row = rows(raxes)
    basis = _feedback_basis(saxes)
    screen, eps = _screen(row, basis)
    keep = np.flatnonzero(screen + eps >= (screen - eps).max())
    # the last kept row pads the last chunk: a duplicate ties with its
    # original and loses to it, and every product has _CHUNK rows, as in
    # a pass over all rows (a one-row product takes BLAS's matrix-vector
    # route, whose sums can differ in the last bit)
    padded = np.pad(keep, (0, -len(keep) % _CHUNK), mode="edge")
    buffers = np.empty((3, _CHUNK, len(saxes)))
    value, r_idx, s_idx = -np.inf, 0, 0
    for lo in range(0, len(padded), _CHUNK):
        idx = padded[lo:lo + _CHUNK]
        envelope = _envelope_into(buffers, [x[idx] for x in row], basis)
        i, j = divmod(int(envelope.argmax()), len(saxes))
        if envelope[i, j] > value:
            value, r_idx, s_idx = float(envelope[i, j]), int(idx[i]), j
    return value, r_idx, s_idx, len(keep)


def _scan_grid(rows, resolution):
    """Exhaustive scan over the axis grid with theta maximised exactly,
    one cell per symmetry orbit.

    The objective is invariant under a group of order 16 acting on the
    axis pair (r, s), generated by
      * r -> -r and s -> -s: each swaps Alice's outcomes n = +-1 and maps
        theta -> -theta, and the theta envelope is even under that;
      * the half turn R_z(pi) of both axes: the parity operator, sigma_z
        on every site, commutes with H and psi is a parity eigenstate; it
        flips sigma_x and sigma_y on every site, so it maps P_A(r) and
        U_B(s) to P_A(R_z(pi) r) and U_B(R_z(pi) s) and leaves T (sigma_z
        on B, sigma_x sigma_x on C2 B) unchanged;
      * y -> -y on both axes: H is real, so psi can be taken real, and
        complex conjugation flips only sigma_y, maps U_B(s, theta) to
        U_B(s', -theta) and fixes T.
    P_A, U_B and T act on sites A, B and the bond C2 B only, so no other
    term of H enters.  On the grid (mu_i, nu_j) with even n these maps
    send (i, j) to (n-1-i, j+n/2), (i, j+n/2) and (i, -j), indices of nu
    mod n.  So every orbit has a member with i < n/2 on both axes and
    j <= n//4 on the measurement axis ({j, -j, n/2+j, n/2-j} mod n always
    meets [0, n//4]), and only those cells are scanned:
    (n/2)(n//4 + 1) rows of measurement axes against n^2/2 feedback axes.

    Ties resolve to the lexicographically first cell in (mu, nu, xi, eta)
    index order, the rule of a full-grid scan.  Orbit-mates tie, so the
    first maximal cell of the full grid is the first member of its orbit,
    which the scan keeps, and the scanned rows run in the same order.
    Returns (value, axis angles, rows the float64 pass reran, cells
    scanned).
    """
    n = resolution
    polar = np.linspace(0.0, np.pi, n)[:n // 2]
    azimuth = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    axes = ops.axis_vector(*np.meshgrid(polar, azimuth, indexing="ij"))
    axes = axes.reshape(3, -1).T   # polar-major
    width = n // 4 + 1   # measurement azimuth indices 0..n//4
    raxes = axes.reshape(n // 2, n, 3)[:, :width].reshape(-1, 3)
    value, r_idx, s_idx, rechecked = _best_cell(rows, raxes, axes)
    angles = (polar[r_idx // width], azimuth[r_idx % width],
              polar[s_idx // n], azimuth[s_idx % n])
    return value, angles, rechecked, len(raxes) * len(axes)


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
    axes = np.empty((2, width, width, 3))
    for rounds in range(1, max_rounds + 1):
        grid = x[:, None] + steps[:, None] * _ZOOM
        grid[[0, 2]] = np.clip(grid[[0, 2]], 0.0, np.pi)   # polar angles
        # both axis grids (sin p cos a, sin p sin a, cos p), polar-major,
        # from one sin and one cos of all four angle rows
        sin, cos = np.sin(grid), np.cos(grid)
        polar_sin = sin[[0, 2], :, None]
        axes[..., 0] = polar_sin * cos[[1, 3], None, :]
        axes[..., 1] = polar_sin * sin[[1, 3], None, :]
        axes[..., 2] = cos[[0, 2], :, None]
        raxes, saxes = axes.reshape(2, -1, 3)
        envelope = _envelope_into(buffers, rows(raxes), _feedback_basis(saxes))
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
    """Reject an oracle grid resolution that is not an integer, is below
    64 or is odd (the reduced scan needs the antipode and the half turn
    about z of every grid axis on the grid)."""
    try:
        operator.index(resolution)
    except TypeError:
        raise TypeError(f"resolution must be an integer, got "
                        f"{resolution!r}") from None
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be at least {MIN_RESOLUTION}")
    if resolution % 2:
        raise ValueError(f"resolution must be even, got {resolution}: the "
                         f"scan needs the antipode of every grid axis on "
                         f"the grid")


def brute_force_max(state: GroundState, target: str,
                    resolution: int = MIN_RESOLUTION) -> Certificate:
    """Grid scan plus local refinement of the matrix-element objective.

    `resolution` is the number of points per angle: even, and at least
    64.  The certificate's sinusoid fields come from the engine at the
    optimal axes, keeping the whole oracle independent of the closed forms.
    """
    validate_resolution(resolution)
    rows = _row_engine(state, target)
    _, angles, rechecked, cells = _scan_grid(rows, resolution)
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
                       evaluations=cells + rounds * len(_ZOOM)**4,
                       rechecked_rows=rechecked)


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
