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

The search runs on one matrix-element engine.  Bob's rotation cos(theta)
+ i n sin(theta) s.sigma_B is the unit quaternion y = (cos theta,
sin theta s), and for a measurement axis r the objective is the quadratic
form y^T K(r) y of the 4 x 4 real symmetric arrowhead matrix

    K(r) = [[0, (C r)^T], [C r, M0]],

whose cost block M0 <= 0 depends on Bob's site alone and whose gain
s^T C r is bilinear in the two axes, as in the paper's two formulae.
Equivalently the objective is the exact sinusoid a + b cos 2 theta + c
sin 2 theta with a = -b = s^T M0 s / 2 and c = s^T C r (no higher
harmonics), so theta is maximised exactly instead of on a theta grid: the
positive basin in theta narrows like the maximum itself and falls below
any fixed grid spacing once the edge field is large.

* Row stage.  Both targets are one single-projector contraction of the
  terms next to Bob's site (see :func:`_row_engine`), which vanishes at
  theta = 0.  Every entry of its 3 x 3 matrices (M0, C), for the target
  and for the bond term alone, is a bilinear form Re <psi|O|psi> of a
  fixed 16 x 16 operator O of the unit-coupling site_B or bond_right
  term, so all 36 come from one product of a cached (36, 256) table
  (:func:`_row_table`, built on first use) with conj(psi) (x) psi, scaled
  by h and k; rows where the Pauli algebra cancels give exact zeros.
  :func:`sinusoid_engine` returns (a, b, c) as a view over them.
* Feedback-axis scan.  For a fixed feedback axis s the maximum over r and
  theta is m/2 + hypot(A, m/2), with A = |C^T s| and m = s^T M0 s,
  attained at r = C^T s / A (:func:`_feedback_maxima`).  That maximum is
  invariant under a group of 8 maps of s (s -> -s, the half turn about z,
  y -> -y), each mapping an even angle grid to itself.  The scan keeps
  the first axis of each orbit, (n/2)(n//4 + 1) feedback axes, 544 at
  n = 64 (:func:`_scan_grid`).  These axes and their pair products s_i s_j
  are cached per resolution (:func:`_scan_geometry`), so m and A^2 = s^T
  (C C^T) s of every axis come from one (m, 6) @ (6, 2) product, whose two
  forms are one fixed (6, 9) map of [M0, C C^T], and C^T s is formed for
  the winning axis alone; the scan needs no eigensolver.
* Alternating ascent.  From the best scanned axis's r = C^T s / A, each
  round takes the top eigenvector y of K(r) and moves r to the higher of
  q / |q| (q_i = y^T dK/dr_i y) and the Newton point of the top
  eigenvalue (:func:`_ascend`).  The value is that eigenvalue, not a
  difference such as sqrt(b^2 + c^2) - b, which cancels at large h/k.
  The trial axes (with a closed-form 2 x 2 curvature eigensolve) and the
  certificate are computed on Python floats: they are a few vectors of 2
  to 4 components, where numpy calls cost more than the arithmetic.
* Convergence.  The ascent stops at the first round that does not rise;
  the certificate records whether it stopped within the round limit,
  and :func:`qetsim.checks.check_brute_force` fails if not.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .model import (GroundState, ModelParams, build_hamiltonian,
                    energy_decomposition, ground_state)
from .protocol import (ProtocolParams, correlators_closed,
                       measurement_energy_closed)

TARGET_EXTRACTED = "extracted"
TARGET_SITE = "site_reduction"
_TARGETS = (TARGET_EXTRACTED, TARGET_SITE)

MIN_RESOLUTION = 64
MAX_RESOLUTION = 1024   # 131 584 scanned feedback axes

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
    limit, how many ascent rounds it took, and how many axes it
    evaluated: one per scanned feedback axis, maximised over the
    measurement axis and theta at once, plus two measurement axes per
    round, each maximised over the feedback axis and theta at once.
    Closed-form certificates involve no search: converged, 0 rounds, 0
    evaluations.
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

@functools.cache
def _row_table():
    """The row stage's bilinear table, (36, 256) complex, built on first
    use (not at import) and read-only.  Row 18 t + 9 b + 3 p + j holds the
    16 x 16 operator O, flattened, whose Re <psi|O|psi> is entry (p, j) of
    the cost block M0 (b = 0) or the gain matrix C (b = 1) of the
    unit-coupling term t (0: site_B, 1: bond_right); see
    :func:`_row_engine`."""
    terms = build_hamiltonian(ModelParams(h=1.0, k=1.0))
    sigma_a = [ops.pauli(ops.SITE_A, ax) for ax in "xyz"]
    sigma_b = [ops.pauli(ops.SITE_B, ax) for ax in "xyz"]
    rows = []
    for term in (terms.site_b, terms.bond_right):
        rows += [term * (p == q) - 0.5 * (sigma_b[p] @ term @ sigma_b[q]
                                          + sigma_b[q] @ term @ sigma_b[p])
                 for p in range(3) for q in range(3)]
        rows += [-0.5j * sigma_a[i] @ (term @ sigma_b[p] - sigma_b[p] @ term)
                 for p in range(3) for i in range(3)]
    table = np.reshape(rows, (36, ops.DIM * ops.DIM))
    table.flags.writeable = False
    return table


def _row_engine(state: GroundState, target: str):
    """The row stage: the objective's rotation form in (M0, C).

    Returns ``((M0, C), (M0_bond, C_bond))``, 3 x 3 real matrices for the
    target and for the bond term bond_right alone, such that

        objective(r, s, theta) = y^T K(r) y,
        K(r) = [[0, (C r)^T], [C r, M0]],

    for the unit quaternion y = (cos theta, sin theta s) of Bob's rotation.

    Bob's rotation U_B(n) acts on site B alone, so it changes only the
    terms T next to B: T = site_B for ``site_reduction`` and T = site_B +
    bond_right for ``extracted``.  P_A(n) commutes with U_B(n) and with T,
    and sum_n P_A(n) = 1, so each target is the single-projector form

        objective = <T> - sum_n <P_A(n) psi| U_B(n)^+ T U_B(n) |psi>,

    which vanishes at theta = 0.  The states P_A(n)|psi> are linear in
    (1, n r) and the rotation is linear in (cos t, i n sin t s), so every
    matrix element is a contraction of g_i[p, q] = <phi_i| rot_p T rot_q
    |psi> (phi = (psi, sigma_A psi) / 2, rot = (1, sigma_B)).  Summed over
    both outcomes they leave 2 Re g_0 + 2i sum_i r_i Im g_i.  The real part
    does not depend on r and gives the cost block M0 = -(G + G^T) + 2 G_00
    I, with G = Re g_0 restricted to p, q >= 1.  The imaginary part is
    linear in r and gives the gain column C r, with C[p, i] = Im(g_i[0, p]
    - g_i[p, 0]) = Im <phi_i| [T, sigma_B^p] |psi>.  M0 <= 0, as s^T M0 s
    is the objective at theta = pi/2, <T> - <sigma_s T sigma_s>, which is
    never positive.

    So every entry is a bilinear form Re <psi|O|psi> of a fixed operator:
    O = T delta_pq - (sigma_B^p T sigma_B^q + sigma_B^q T sigma_B^p) / 2 in
    the cost block and O = -(i/2) sigma_A^i [T, sigma_B^p] in the gain
    matrix, for the unit-coupling T = site_B and T = bond_right.  The 36
    operators are the rows of :func:`_row_table`, and one product of the
    table with conj(psi) (x) psi gives every entry for both terms, scaled
    afterwards by h (site_B) and k (bond_right).  The table's entries are
    sums of Pauli products, exact in floating point, and a row is exactly
    zero where the Pauli algebra cancels, which makes its entry an exact
    0: for site_B the (z, z) and (x, y), (y, x) entries of M0 and the z-row
    of C (sigma_B^z commutes with T); for bond_right the (x, x) and (y, z),
    (z, y) entries of M0 and the x-row of C.  Nothing assumes psi real, and
    no 16 x 16 operator is built per call.
    """
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if state.vector.ndim != 1:
        raise ValueError(f"the oracle takes one state, got a batch of shape "
                         f"{state.vector.shape[:-1]}")
    v = state.vector
    entries = (_row_table() @ np.outer(v.conj(), v).ravel()).real.reshape(
        2, 2, 3, 3)
    site, bond = state.params.h * entries[0], state.params.k * entries[1]
    near_b = site if target == TARGET_SITE else site + bond
    return tuple(near_b), tuple(bond)


def sinusoid_engine(state: GroundState, target: str):
    """Exact theta dependence of the objective for sets of axes.

    Returns ``coefficients(raxes, saxes) -> (a, b, c)``: for measurement
    axes `raxes` (shape (m, 3)) and feedback axes `saxes` (shape (n, 3)),
    arrays of shape (m, n) with

        objective(r_i, s_j, theta) = a + b cos 2 theta + c sin 2 theta.

    A view over the rotation form of the oracle (:func:`_row_engine`):
    b = -s^T M0 s / 2, which does not depend on r, a = -b and c = s^T C r.
    """
    cost, gain = _row_engine(state, target)[0]

    def coefficients(raxes, saxes):
        b = np.tile(-0.5 * ((saxes @ cost) * saxes).sum(1), (len(raxes), 1))
        return -b, b, raxes @ gain.T @ saxes.T

    return coefficients


def _form_at(engine, raxes):
    """K(r) of the (m, 3) axes `raxes` (or of one axis) from the engine's
    (M0, C), as (m, 4, 4)."""
    cost, gain = engine
    cr = np.reshape(raxes, (-1, 3)) @ gain.T
    form = np.zeros((len(cr), 4, 4))
    form[:, 0, 1:] = form[:, 1:, 0] = cr
    form[:, 1:, 1:] = cost
    return form


# the pairs (i, j), i <= j, of the pair products s_i s_j of a feedback axis
_PAIR_I, _PAIR_J = np.triu_indices(3)


def _pair_products(saxes):
    """(s_x^2, s_x s_y, s_x s_z, s_y^2, s_y s_z, s_z^2) of the (m, 3) axes
    `saxes`, as (m, 6): every quadratic form s^T S s is linear in them."""
    return saxes[:, _PAIR_I] * saxes[:, _PAIR_J]


# the coefficients of s^T S s over the pair products, as a map of the
# flattened 3 x 3 matrix S: S_ii, and S_ij + S_ji off the diagonal
_PAIR_MAP = np.zeros((6, 9))
_PAIR_MAP[np.arange(6), 3 * _PAIR_I + _PAIR_J] = 1.0
_PAIR_MAP[np.arange(6), 3 * _PAIR_J + _PAIR_I] = 1.0
_PAIR_MAP.flags.writeable = False


def _feedback_maxima(engine, pairs):
    """The objective maximised over the measurement axis r and theta, for
    the feedback axes s whose :func:`_pair_products` are `pairs` (m, 6).

    For a fixed s the objective is A sin 2 theta cos phi + (m/2)(1 - cos 2
    theta), with A = |C^T s|, m = s^T M0 s and phi the angle between r and
    C^T s.  Its maximum, at r = C^T s / A, is m/2 + hypot(A, m/2), the top
    eigenvalue of [[0, A], [A, m]].  Both m and A^2 = s^T (C C^T) s come
    from one (m, 6) @ (6, 2) product, the two forms from one product of
    :data:`_PAIR_MAP` with [M0, C C^T].  A^2 may round below 0 where C^T s
    vanishes, so it is clamped at 0.  For m <= 0 the maximum is taken as
    A^2 / (hypot(A, m/2) - m/2), which does not cancel at large h/k;
    rounding may leave m slightly positive, where the first form is kept.
    """
    cost, gain = engine
    forms = _PAIR_MAP @ np.stack([cost, gain @ gain.T]).reshape(2, 9).T
    quadratic, squared = (pairs @ forms).T
    half = 0.5 * quadratic
    np.maximum(squared, 0.0, out=squared)
    root = np.hypot(np.sqrt(squared), half)
    top = half + root
    np.divide(squared, root - half, out=top, where=half < 0.0)
    return top


# resolutions whose scan geometry is kept: it is 9.5 MB at n = 1024
_GEOMETRY_CACHE_SIZE = 2


@functools.lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _scan_geometry(resolution):
    """The feedback axes :func:`_scan_grid` scans at `resolution`,
    polar-major, (m, 3), and their :func:`_pair_products`, (m, 6); cached,
    so both are read-only."""
    n = resolution
    polar = np.linspace(0.0, np.pi, n)[:n // 2]
    azimuth = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)[:n // 4 + 1]
    saxes = ops.axis_vector(*np.meshgrid(polar, azimuth, indexing="ij"))
    saxes = np.ascontiguousarray(saxes.reshape(3, -1).T)
    pairs = _pair_products(saxes)
    saxes.flags.writeable = pairs.flags.writeable = False
    return saxes, pairs


def _scan_grid(engine, resolution):
    """Exhaustive scan over the feedback axes of the angle grid, with the
    measurement axis and theta maximised in closed form
    (:func:`_feedback_maxima`), one axis per symmetry orbit; `engine` is
    the target's (M0, C) of :func:`_row_engine`.

    The maximum over r and theta at a feedback axis s is invariant under a
    group of order 8 acting on s, generated by
      * s -> -s: U_B(-s, -theta) = U_B(s, theta);
      * the half turn R_z(pi): the parity operator, sigma_z on every site,
        commutes with H and psi is a parity eigenstate; it flips sigma_x
        and sigma_y on every site, so it maps P_A(r) and U_B(s) to
        P_A(R_z(pi) r) and U_B(R_z(pi) s) and leaves T (sigma_z on B,
        sigma_x sigma_x on C2 B) unchanged;
      * y -> -y: H is real, so psi can be taken real, and complex
        conjugation flips only sigma_y, maps U_B(s, theta) to U_B(s',
        -theta) and P_A(r) to P_A(r'), primes negating y, and fixes T.
    Each map changes the measurement axis and theta along with s, over all
    of which the maximum is taken.  P_A, U_B and T act on sites A, B and
    the bond C2 B only, so no other term of H enters.  On the grid
    (xi_i, eta_j) with even n the maps send (i, j) to (n-1-i, j+n/2),
    (i, j+n/2) and (i, -j), indices of eta mod n.  So every orbit has a
    member with i < n/2 and j <= n//4 ({j, -j, n/2+j, n/2-j} mod n always
    meets [0, n//4]), and only those (n/2)(n//4 + 1) axes are scanned.

    Ties resolve to the first scanned axis.  Returns (value, the best
    measurement axis C^T s / |C^T s| for the winning s, or z where C^T s
    = 0, axes scanned).
    """
    saxes, pairs = _scan_geometry(resolution)
    top = _feedback_maxima(engine, pairs)
    best = int(top.argmax())
    gains = saxes[best] @ engine[1]
    norm = np.sqrt(gains @ gains)
    r = gains / norm if norm > 0.0 else np.array(_Z)
    return float(top[best]), r, len(saxes)


def _dot(u, v):
    """u . v of two 3-vectors of Python floats."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _tangent_basis(r):
    """An orthonormal basis (t1, t2) of the plane tangent to the unit
    sphere at the unit vector `r` (3 floats), as two 3-tuples: t1 = e - (r
    . e) r normalised, for the coordinate axis e least aligned with r (the
    first on a tie), and t2 = r x t1."""
    rx, ry, rz = r
    ax, ay, az = abs(rx), abs(ry), abs(rz)
    i = 0 if ax <= ay and ax <= az else 1 if ay <= az else 2
    t = [-r[i] * rx, -r[i] * ry, -r[i] * rz]
    t[i] += 1.0
    norm = math.sqrt(_dot(t, t))
    tx, ty, tz = t[0] / norm, t[1] / norm, t[2] / norm
    return (tx, ty, tz), (ry * tz - rz * ty, rz * tx - rx * tz,
                          rx * ty - ry * tx)


def _eigh2(a, b, d):
    """Eigenpairs of the real symmetric 2 x 2 matrix [[a, b], [b, d]] in
    closed form on Python floats, ascending like ``numpy.linalg.eigh``:
    ((w_0, w_1), (u_0, u_1)), with u_1 = (cos phi, sin phi) at 2 phi =
    atan2(b, (a - d) / 2) and u_0 = (-sin phi, cos phi).  An exactly
    degenerate matrix gives the coordinate axes."""
    half, mean = 0.5 * (a - d), 0.5 * (a + d)
    radius = math.hypot(half, b)
    phi = 0.5 * math.atan2(b, half)
    cos, sin = math.cos(phi), math.sin(phi)
    return (mean - radius, mean + radius), ((-sin, cos), (cos, sin))


def _trial_axes(c, r, w, v):
    """The two axes an ascent round tries from `r`, given the eigenpairs
    (w, v) of K(r) and the gain matrix `c` (C).  With y the top eigenvector,
    q_i = y^T K_i y = 2 y_0 (C^T y_s)_i (K_i = dK/dr_i, y_s = (y_1, y_2,
    y_3)) is the gradient of the top eigenvalue lambda(r), and H_ab = (r .
    q) delta_ab - 2 sum_k (y^T K_a v_k)(v_k^T K_b y) / (lambda - w_k) over
    the other eigenpairs (an exact degeneracy drops out) its Hessian on
    the sphere, in a tangent basis t_a at r (:func:`_tangent_basis`), with
    y^T K_t v_k = (C t) . (y_0 v_k,s + v_k,0 y_s).  The axes are q / |q|,
    the best for y, and the Newton point of lambda on the unit sphere,
    stepping only along the tangent modes (:func:`_eigh2`) where lambda
    curves down.  Along flat directions q / |q| alone gains as little as
    2 % of the remaining gap per round (the extracted target at h = 10 k on
    a 66-point grid).  On Python floats, as every vector here has 2 to 4
    components.
    """
    rows, (*lower, top), r = c.tolist(), w.tolist(), r.tolist()
    *others, (y0, *ys) = v.T.tolist()
    q = [2.0 * y0 * _dot(ys, column) for column in zip(*rows)]
    t1, t2 = _tangent_basis(r)
    ct1, ct2 = [_dot(row, t1) for row in rows], [_dot(row, t2) for row in rows]
    h11 = h22 = _dot(r, q)
    h12 = 0.0
    for wk, (v0, *vs) in zip(lower, others):
        gap = top - wk
        if gap > 0.0:
            mixed = [y0 * x + v0 * y for x, y in zip(vs, ys)]
            x1, x2 = _dot(ct1, mixed), _dot(ct2, mixed)
            scale = 2.0 / gap
            h11 -= scale * x1 * x1
            h22 -= scale * x2 * x2
            h12 -= scale * x1 * x2
    along1, along2 = _dot(t1, q), _dot(t2, q)
    newton = r
    for bend, (m1, m2) in zip(*_eigh2(h11, h12, h22)):
        if bend > 0.0:
            step = (m1 * along1 + m2 * along2) / bend
            d1, d2 = step * m1, step * m2
            newton = [x + d1 * a + d2 * b for x, a, b in zip(newton, t1, t2)]
    norm, newton_norm = math.sqrt(_dot(q, q)), math.sqrt(_dot(newton, newton))
    return np.array([[x / norm for x in q] if norm > 0.0 else r,
                     [x / newton_norm for x in newton]])


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
    """Feedback-axis scan plus alternating ascent of the matrix-element
    objective.

    `resolution` is the number of points per angle: even, from 64 to
    1024.  The value is the top eigenvalue of K(r) at the final axis r;
    with its eigenvector y (y_0 >= 0), s is (y_1, y_2, y_3) normalised (z
    if zero) and theta = atan2(|(y_1, y_2, y_3)|, y_0).  The sinusoid
    fields and the bond term come from the engine's forms at these axes
    (amplitude s^T M0 s / 2, cross amplitude s^T C r, bond y^T K_bond(r)
    y), never from a closed form or the protocol ledger.
    """
    validate_resolution(resolution)
    engine, bond = _row_engine(state, target)
    _, r, scanned = _scan_grid(engine, resolution)
    value, r, y, rounds, converged = _ascend(engine, r)
    # the certificate on Python floats: a few 3-vectors
    y0, *ys = (-y if y[0] < 0.0 else y).tolist()
    r = r.tolist()
    norm = math.sqrt(_dot(ys, ys))
    s = [x / norm for x in ys] if norm > 0.0 else list(_Z)
    theta = math.atan2(norm, y0)
    cost, gain, bond_cost, bond_gain = (m.tolist() for m in (*engine, *bond))
    a = 0.5 * _dot(s, [_dot(row, s) for row in cost])
    c = _dot(s, [_dot(row, r) for row in gain])
    bond_value = (2.0 * y0 * _dot(ys, [_dot(row, r) for row in bond_gain])
                  + _dot(ys, [_dot(row, ys) for row in bond_cost]))
    return Certificate(
        target=target, params=ProtocolParams.from_vectors(r, s, theta),
        value=value, amplitude=a, cross_amplitude=c,
        phase=math.atan2(-c, -a) if math.hypot(a, c) > 0.0 else 0.0,
        sin_2theta=math.sin(2.0 * theta), cos_2theta=math.cos(2.0 * theta),
        bond_reduction=bond_value, converged=converged, rounds=rounds,
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
