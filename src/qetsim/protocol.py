"""Measurement-feedback protocol and its energy bookkeeping.

One round of the protocol on the ground state |psi>:

1. a projective measurement of spin A along a unit vector r, with
   projectors P_A(n) = (1 + n r.sigma_A)/2 and outcomes n = +-1;
2. classical communication of n;
3. a conditioned rotation of spin B, U_B(n) = cos(theta) + i n sin(theta)
   s.sigma_B, about a unit vector s.

The measurement injects energy dE_A >= 0 locally at A.  The feedback can
remove energy near B; the removed amount dE_B splits exactly into a piece
from Bob's site term and a piece from the adjoining bond,

    dE_B = dE_site + dE_bond,

and dE_bond doubles as the heat exchanged by Bob's local system.  Closed
forms for all of these involve only the term energies and the three
ground-state correlators returned by :func:`correlators`.

Batches: every function here takes ground states of an array-valued field
(vectors of shape (..., 16)) and/or array-valued angles and returns
results of their broadcast shape, on one code path.  The measurement and
the rotation act on the vectors (:func:`project`, :func:`rotate`).  The
ledger reads no closed form and projects no state: its injected energy
r^T Q r and its reductions are forms of one cached bilinear table, the
latter those of :func:`rotation_forms`, which the oracle reads too.  The
outcome probabilities and Bob's qubit are read the same way
(:func:`bob_blocks`, whose closed form is :func:`bob_blocks_closed`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .model import (GroundEnergies, GroundState, ModelParams,
                    build_hamiltonian, energy_decomposition,
                    term_expectations)

OUTCOMES = (1, -1)


@dataclass(frozen=True)
class ProtocolParams:
    """Angles of the measurement axis (mu, nu) and feedback axis (xi, eta),
    plus the rotation half-angle theta.

    mu, xi are polar angles in [0, pi]; nu, eta azimuthal in [0, 2 pi);
    theta in (-pi/2, pi/2].  Antipodal axis pairs describe the same
    measurement and are accepted as input.  Array-valued angles describe
    a batch of protocols; the axes then have shape (3, ...).
    """

    mu: float
    nu: float
    xi: float
    eta: float
    theta: float

    @property
    def measure_axis(self):
        return ops.axis_vector(self.mu, self.nu)

    @property
    def feedback_axis(self):
        return ops.axis_vector(self.xi, self.eta)

    @classmethod
    def from_vectors(cls, r, s, theta):
        """The angles of the unit 3-vectors r and s, on Python floats (one
        pair per oracle call, where numpy scalars cost more than the
        arithmetic)."""
        angles = []
        for vec in (r, s):
            x, y, z = map(float, vec)
            if abs(math.sqrt(x * x + y * y + z * z) - 1.0) > 1e-12:
                raise ValueError(f"axis vector must be unit length, got "
                                 f"{np.asarray(vec, dtype=float)}")
            angles += [math.acos(min(max(z, -1.0), 1.0)),
                       math.atan2(y, x) % (2.0 * math.pi)]
        return cls(*angles, theta=theta)


@dataclass(frozen=True)
class EnergyLedger:
    """Complete energy bookkeeping of one protocol round.

    ground            term energies of the initial state
    after_measurement total energy after the measurement (outcome-averaged)
    injected          r^T Q r = after_measurement - ground energy >= 0
    after_feedback    total energy after the conditioned rotation
    extracted         after_measurement - after_feedback
    extracted_site    part of `extracted` from Bob's site term
    extracted_bond    part from the bond next to B; equals the heat
                      absorbed by Bob's local system with a minus sign
    """

    ground: GroundEnergies
    after_measurement: float
    injected: float
    after_feedback: float
    extracted: float
    extracted_site: float
    extracted_bond: float

    @property
    def heat(self):
        """Heat absorbed by Bob's local system (negative = released)."""
        return self.extracted_bond


@dataclass(frozen=True)
class EdgeCorrelators:
    """Ground-state correlators that power the feedback gain.

    xx   <sx_A sx_B>   = 4 Z^2 (1 + alpha beta)
    yy   <sy_A sy_B>   = 4 Z^2 (1 - alpha beta)
    xxz  <sx_A sx_C2 sz_B> = 4 Z^2 (alpha - beta)

    They satisfy k*xxz - h*xx = -h*yy, and |xx| > |yy| everywhere.
    """

    xx: float
    yy: float
    xxz: float


# sigma^x, sigma^y, sigma^z of one site, flattened, one per column
_PAULI_COLUMNS = np.array([ops.local_pauli(ax).ravel() for ax in "xyz"]).T


def _sigma_dot(axis):
    """axis . sigma on one site, as (..., 2, 2) matrices in the (|e>, |f>)
    basis, for axis components of shape (3, ...)."""
    axis = np.asarray(axis)
    return (_PAULI_COLUMNS @ axis.reshape(3, -1)).T.reshape(
        axis.shape[1:] + (2, 2))


def _outcomes(n):
    """Validated outcomes, shaped to scale one-site (..., 2, 2) matrices."""
    n = np.asarray(n)
    if not (abs(n) == 1).all():
        raise ValueError(f"measurement outcome must be +1 or -1, "
                         f"got {n.tolist()}")
    return n[..., None, None]


def project(pp: ProtocolParams, n, v):
    """Alice's rank-8 projector (1 + n r.sigma_A)/2 applied to (..., 16)
    vectors v; n is +1, -1 or an array of them that broadcasts against the
    batch.  Applied to the rows of ``np.eye(16)`` it gives the transposed
    matrix."""
    local = 0.5 * (ops.IDENTITY2 + _outcomes(n) * _sigma_dot(pp.measure_axis))
    out = local @ v.reshape(v.shape[:-1] + (2, 8))
    return out.reshape(out.shape[:-2] + (ops.DIM,))


def rotate(pp: ProtocolParams, n, v):
    """Bob's conditioned rotation cos(theta) + i n sin(theta) s.sigma_B
    applied to (..., 16) vectors v; n as for :func:`project`."""
    theta = np.asarray(pp.theta)[..., None, None]
    local = (np.cos(theta) * ops.IDENTITY2 + 1j * _outcomes(n) * np.sin(theta)
             * _sigma_dot(pp.feedback_axis))
    out = v.reshape(v.shape[:-1] + (8, 2)) @ np.swapaxes(local, -1, -2)
    return out.reshape(out.shape[:-2] + (ops.DIM,))


def outcome_block(blocks, axis, n):
    """``(p, rho)``: the qubit rho = <P_A(n) (x) |k><j|_B> = (M_0 + n r.M)/2
    that Alice's outcome n along r (one axis, or components of shape (3,
    ...)) leaves Bob, unnormalised, and its trace p, the outcome's
    probability clipped to [0, 1]; M from either route to Bob's blocks."""
    r = np.moveaxis(np.asarray(axis), 0, -1)[..., None, None]
    rho = 0.5 * (blocks[..., 0, :, :]
                 + _outcomes(n) * (r * blocks[..., 1:, :, :]).sum(axis=-3))
    return np.clip(np.trace(rho, axis1=-2, axis2=-1).real, 0.0, 1.0), rho


def outcome_probability(state: GroundState, pp: ProtocolParams, n):
    return outcome_block(bob_blocks(state), pp.measure_axis, n)[0]


def measurement_energy_closed(state: GroundState, pp: ProtocolParams):
    """Closed form: only r_z^2 and r_x^2 enter, through the A-site and
    left-bond energies."""
    e = energy_decomposition(state)
    rx, _, rz = pp.measure_axis
    after = (rz**2 * e.site_a + rx**2 * e.bond_left + e.bond_center
             + e.bond_right + e.site_b)
    injected = (rz**2 - 1.0) * e.site_a + (rx**2 - 1.0) * e.bond_left
    return after, injected


@functools.cache
def _row_table():
    """The bilinear table of the ledger, (70, 256) complex, built on first
    use (not at import) and read-only.  Row 18 b + 9 c + 3 p + j holds the
    16 x 16 operator O, flattened, whose Re <psi|O|psi> is entry (p, j) of
    block b for the unit-coupling terms of coupling c (0: h, 1: k): M0 (b =
    0) and C (b = 1) of the term at B (site_B, bond_right), Q (b = 2) of
    the term at A (site_A, bond_left).  Row 54 + 4 mu + 2 j + k holds
    sigma_A^mu (x) |k><j|_B (mu = 0 the identity, then x, y, z), whose
    <psi|O|psi> is entry (j, k) of block mu of :func:`bob_blocks`."""
    terms = build_hamiltonian(ModelParams(h=1.0, k=1.0))
    sigma_a = [ops.pauli(ops.SITE_A, ax) for ax in "xyz"]
    sigma_b = [ops.pauli(ops.SITE_B, ax) for ax in "xyz"]
    at_b = (terms.site_b, terms.bond_right)
    at_a = (terms.site_a, terms.bond_left)
    rows = [t * (p == q) - 0.5 * (sigma_b[p] @ t @ sigma_b[q]
                                  + sigma_b[q] @ t @ sigma_b[p])
            for t in at_b for p in range(3) for q in range(3)]
    rows += [-0.5j * sigma_a[i] @ (t @ sigma_b[p] - sigma_b[p] @ t)
             for t in at_b for p in range(3) for i in range(3)]
    rows += [0.25 * (sigma_a[i] @ t @ sigma_a[j] + sigma_a[j] @ t
                     @ sigma_a[i]) - 0.5 * t * (i == j)
             for t in at_a for i in range(3) for j in range(3)]
    rows += [sa @ ops.site_operator(ops.SITE_B, unit.T)
             for sa in [ops.IDENTITY] + sigma_a
             for unit in np.eye(4).reshape(4, 2, 2)]
    table = np.reshape(rows, (70, ops.DIM * ops.DIM))
    table.flags.writeable = False
    return table


def _contract(state: GroundState, rows):
    """<psi|O|psi> of the table's rows O in the slice `rows`, shape (...,
    rows, 1), from one product with conj(psi) (x) psi."""
    v = state.vector
    pair = (v.conj()[..., :, None] * v[..., None, :]).reshape(
        v.shape[:-1] + (ops.DIM * ops.DIM,))
    return _row_table()[rows] @ pair[..., None]


def bob_blocks(state: GroundState):
    """M_mu = <sigma_A^mu (x) |k><j|_B>, entry (j, k), mu = 0 (the
    identity), x, y, z, shape (..., 4, 2, 2): Bob's qubit M_0 (the partial
    trace over A, C1 and C2) and its correlations with sigma_A.  Each
    diagonal entry of M_0 sums squares, so it keeps relative accuracy."""
    return _contract(state, slice(54, 70)).reshape(
        state.vector.shape[:-1] + (4, 2, 2))


def bob_blocks_closed(state: GroundState):
    """The blocks of :func:`bob_blocks` in closed form, an X pattern: M_0 =
    2 Z^2 diag(1 + beta^2, 1 + alpha^2), M_x = (xx/2) sigma^x, M_y = (yy/2)
    sigma^y and M_z = 2 Z^2 diag(1 - beta^2, alpha^2 - 1), with xx and yy
    from :func:`correlators_closed`; every other entry is an exact 0."""
    d, a2, b2 = 2.0 * state.norm**2, state.alpha**2, state.beta**2
    c = correlators_closed(state)
    blocks = np.zeros(np.shape(d) + (4, 2, 2), dtype=complex)
    re, im = blocks.real, blocks.imag   # views; sigma^y = [[0, i], [-i, 0]]
    re[..., 0, 0, 0], re[..., 0, 1, 1] = d * (1.0 + b2), d * (1.0 + a2)
    re[..., 1, 0, 1] = re[..., 1, 1, 0] = 0.5 * c.xx
    im[..., 2, 0, 1], im[..., 2, 1, 0] = 0.5 * c.yy, -0.5 * c.yy
    re[..., 3, 0, 0], re[..., 3, 1, 1] = d * (1.0 - b2), d * (a2 - 1.0)
    return blocks


def _ledger_forms(state: GroundState, blocks):
    """``(site, bond)``: blocks (M0, C, Q)[:blocks] of :func:`_row_table`,
    each (..., blocks, 3, 3), from one product of their rows with conj(psi)
    (x) psi, scaled by h and k; the rotation forms need only M0 and C."""
    entries = _contract(state, slice(18 * blocks)).real.reshape(
        state.vector.shape[:-1] + (blocks, 2, 3, 3))
    h, k = np.asarray(state.params.h), np.asarray(state.params.k)
    return (h[..., None, None, None] * entries[..., 0, :, :],
            k[..., None, None, None] * entries[..., 1, :, :])


def rotation_forms(state: GroundState):
    """Bob's rotation forms ``(site, bond)``: for T = site_B and T =
    bond_right, the 3 x 3 real matrices (M0, C), shape (..., 2, 3, 3), with

        <T> - sum_n <P_A(n) psi| U_B(n)^+ T U_B(n) |psi> = y^T K(r) y,
        K(r) = [[0, (C r)^T], [C r, M0]],

    y = (cos theta, sin theta s) the unit quaternion of Bob's rotation.  As
    P_A(n) commutes with U_B(n) and T and sum_n P_A(n) = 1, this
    single-projector form is the reduction of T; it vanishes at theta = 0.
    P_A(n)|psi> is linear in (1, n r) and U_B(n) in (cos t, i n sin t s), so
    each element contracts g_i[p, q] = <phi_i| rot_p T rot_q |psi> (phi =
    (psi, sigma_A psi) / 2, rot = (1, sigma_B)), summed over n to 2 Re g_0 +
    2i sum_i r_i Im g_i: M0 = -(G + G^T) + 2 G_00 I with G = Re g_0 at p, q
    >= 1, and C[p, i] = Im <phi_i| [T, sigma_B^p] |psi>.  M0 <= 0: s^T M0 s
    = <T> - <sigma_s T sigma_s> is the reduction at theta = pi/2.

    Each entry is thus Re <psi|O|psi> of a fixed operator (O = T delta_pq -
    (sigma_B^p T sigma_B^q + sigma_B^q T sigma_B^p) / 2 in M0, -(i/2)
    sigma_A^i [T, sigma_B^p] in C), a row of the cached table that
    :func:`_ledger_forms` contracts.  The rows are sums of Pauli products,
    so where the algebra cancels an entry is an exact 0 (site_B: M0's (z,
    z), (x, y), (y, x) and C's z-row; bond_right: M0's (x, x), (y, z), (z,
    y) and C's x-row).  Nothing assumes psi real.
    """
    return _ledger_forms(state, 2)


def run_protocol(state: GroundState, pp: ProtocolParams) -> EnergyLedger:
    """Full ledger of one round (or a batch) from one table product
    (:func:`_ledger_forms`), not from differences of O(h + k) energies.

    As sum_n P_A(n) T P_A(n) - T = ((r.sigma_A) T (r.sigma_A) - T) / 2,
    `injected` = r^T Q r over the terms T at A (site_A, bond_left), Q_ij =
    Re <psi|(sigma_A^i T sigma_A^j + sigma_A^j T sigma_A^i) / 2 - delta_ij
    T|psi> / 2, whose rows are exact zeros where the Pauli algebra cancels
    (site_A's (z, z), bond_left's (x, x)); the reductions are y^T K(r) y =
    sin^2 theta s^T M0 s + sin 2 theta s^T C r (:func:`rotation_forms`).
    """
    forms = _ledger_forms(state, 3)
    r, s = (np.moveaxis(np.asarray(axis), 0, -1)[..., None]
            for axis in (pp.measure_axis, pp.feedback_axis))
    rt, st = np.swapaxes(r, -1, -2), np.swapaxes(s, -1, -2)
    sin_sq, sin2 = np.sin(pp.theta)**2, np.sin(2.0 * pp.theta)
    injected = (rt @ sum(forms)[..., 2, :, :] @ r)[..., 0, 0]
    site, bond = (sin_sq * (st @ form[..., 0, :, :] @ s)[..., 0, 0]
                  + sin2 * (st @ form[..., 1, :, :] @ r)[..., 0, 0]
                  for form in forms)
    ground = term_expectations(state)
    after_measurement = ground.total + injected
    extracted = site + bond
    return EnergyLedger(
        ground=ground, after_measurement=after_measurement, injected=injected,
        after_feedback=after_measurement - extracted, extracted=extracted,
        extracted_site=site, extracted_bond=bond)


def reduction_closed(state: GroundState, pp: ProtocolParams):
    """Closed forms for (extracted_site, extracted_bond).

    extracted_site = e_B (s_x^2 + s_y^2) 2 sin^2 theta
                     - h (r_x s_y xx - r_y s_x yy) sin 2 theta
    extracted_bond = e_R (s_y^2 + s_z^2) 2 sin^2 theta
                     + k r_x s_y xxz sin 2 theta

    (2 sin^2 theta = 1 - cos 2 theta without its cancellation at small
    theta, that is at large h/k.)
    """
    h, k = state.params.h, state.params.k
    e = energy_decomposition(state)
    c = correlators_closed(state)
    rx, ry, _ = pp.measure_axis
    sx, sy, sz = pp.feedback_axis
    versine = 2.0 * np.sin(pp.theta)**2
    sin2 = np.sin(2.0 * pp.theta)
    site = (e.site_b * (sx * sx + sy * sy) * versine
            - h * (rx * sy * c.xx - ry * sx * c.yy) * sin2)
    bond = (e.bond_right * (sy * sy + sz * sz) * versine
            + k * rx * sy * c.xxz * sin2)
    return site, bond


def no_feedback_reduction(state: GroundState, pp: ProtocolParams, fixed_n):
    """Energy reduction when the same rotation is applied for both outcomes.

    Without conditioning on n the measurement averages out (sum_n P_A(n)
    = 1) and the correlator gain disappears, leaving only the non-positive
    rotation cost on the site and bond terms.
    """
    ground = term_expectations(state)
    rotated = term_expectations(state, rotate(pp, fixed_n, state.vector))
    return (ground.site_b - rotated.site_b,
            ground.bond_right - rotated.bond_right)


def correlators(state: GroundState) -> EdgeCorrelators:
    """The three protocol correlators, measured as matrix elements."""
    v = state.vector
    xx = ops.expectation(ops.pauli(0, "x") @ ops.pauli(3, "x"), v)
    yy = ops.expectation(ops.pauli(0, "y") @ ops.pauli(3, "y"), v)
    xxz = ops.expectation(
        ops.pauli(0, "x") @ ops.pauli(2, "x") @ ops.pauli(3, "z"), v)
    return EdgeCorrelators(xx=xx, yy=yy, xxz=xxz)


def correlators_closed(state: GroundState) -> EdgeCorrelators:
    """Same correlators from the amplitude ratios.  With alpha beta =
    (E - k)/(E + k), xx = 8 E Z^2/(E + k) and yy = 8 k Z^2/(E + k), which
    avoid the cancellation in 1 -+ alpha beta at large h/k; with
    alpha - beta = 2 (h/k) alpha beta, xxz = 8 (h/k) Z^2 alpha beta avoids
    the one in alpha - beta at small h/k."""
    z2 = state.norm**2
    e, h, k = state.energy, state.params.h, state.params.k
    return EdgeCorrelators(
        xx=8.0 * z2 * e / (e + k),
        yy=8.0 * z2 * k / (e + k),
        xxz=8.0 * (h / k) * z2 * state.alpha * state.beta,
    )
