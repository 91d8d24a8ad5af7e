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
the rotation act on the vectors (:func:`project`, :func:`rotate`); the
ledger builds no 16 x 16 matrix and reads no closed form, its term
energies being unit-coupling matrix elements scaled by h and k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .model import (GroundEnergies, GroundState, energy_decomposition,
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
        r = np.asarray(r, dtype=float)
        s = np.asarray(s, dtype=float)
        for vec in (r, s):
            if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
                raise ValueError(f"axis vector must be unit length, got {vec}")

        def angles(v):
            polar = np.arccos(np.clip(v[2], -1.0, 1.0))
            azimuth = np.arctan2(v[1], v[0]) % (2.0 * np.pi)
            return polar, azimuth

        mu, nu = angles(r)
        xi, eta = angles(s)
        return cls(mu=mu, nu=nu, xi=xi, eta=eta, theta=theta)


@dataclass(frozen=True)
class EnergyLedger:
    """Complete energy bookkeeping of one protocol round.

    ground            term energies of the initial state
    after_measurement total energy after the measurement (outcome-averaged)
    injected          after_measurement - ground energy, >= 0
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
_OUTCOME_AXIS = np.array(OUTCOMES)


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


def _both_outcomes(pp: ProtocolParams, v):
    """Outcomes +1, -1 on a leading axis, ahead of every batch axis of `pp`
    and of the (..., 16) vectors v."""
    batch = max(v.ndim - 1, np.broadcast(*vars(pp).values()).ndim)
    return _OUTCOME_AXIS.reshape((2,) + (1,) * batch)


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


def outcome_probability(state: GroundState, pp: ProtocolParams, n):
    v = state.vector
    return (v.conj() * project(pp, n, v)).sum(axis=-1).real


def measurement_energy_closed(state: GroundState, pp: ProtocolParams):
    """Closed form: only r_z^2 and r_x^2 enter, through the A-site and
    left-bond energies."""
    e = energy_decomposition(state)
    rx, _, rz = pp.measure_axis
    after = (rz**2 * e.site_a + rx**2 * e.bond_left + e.bond_center
             + e.bond_right + e.site_b)
    injected = (rz**2 - 1.0) * e.site_a + (rx**2 - 1.0) * e.bond_left
    return after, injected


def run_protocol(state: GroundState, pp: ProtocolParams) -> EnergyLedger:
    """Full ledger of one round (or a batch), by direct matrix elements;
    both outcomes are evaluated at once, on a leading axis, and summed."""
    v = state.vector
    n = _both_outcomes(pp, v)
    pv = project(pp, n, v)
    upv, uv = rotate(pp, n, np.array([pv, np.broadcast_to(v, pv.shape)]))
    ground = term_expectations(state)
    # rows: the measured state, the rotated state, and the single-projector
    # elements <P psi| U+ T U |psi>, equal to the sandwiched form because
    # P_A commutes with anything supported away from site A
    pv = np.broadcast_to(pv, upv.shape)
    rows = term_expectations(state, np.array([pv, upv, upv]),
                             np.array([pv, upv, uv]))
    after_measurement, after_feedback = rows.total[:2].sum(axis=1)
    return EnergyLedger(
        ground=ground,
        after_measurement=after_measurement,
        injected=after_measurement - ground.total,
        after_feedback=after_feedback,
        extracted=after_measurement - after_feedback,
        extracted_site=ground.site_b - rows.site_b[2].sum(axis=0),
        extracted_bond=ground.bond_right - rows.bond_right[2].sum(axis=0),
    )


def reduction_closed(state: GroundState, pp: ProtocolParams):
    """Closed forms for (extracted_site, extracted_bond).

    extracted_site = e_B (1 - s_z^2)(1 - cos 2 theta)
                     - h (r_x s_y xx - r_y s_x yy) sin 2 theta
    extracted_bond = e_R (1 - s_x^2)(1 - cos 2 theta)
                     + k r_x s_y xxz sin 2 theta
    """
    h, k = state.params.h, state.params.k
    e = energy_decomposition(state)
    c = correlators_closed(state)
    rx, ry, _ = pp.measure_axis
    sx, sy, sz = pp.feedback_axis
    cos2, sin2 = np.cos(2.0 * pp.theta), np.sin(2.0 * pp.theta)
    site = (e.site_b * (1.0 - sz**2) * (1.0 - cos2)
            - h * (rx * sy * c.xx - ry * sx * c.yy) * sin2)
    bond = (e.bond_right * (1.0 - sx**2) * (1.0 - cos2)
            + k * rx * sy * c.xxz * sin2)
    return site, bond


def no_feedback_reduction(state: GroundState, pp: ProtocolParams, fixed_n):
    """Energy reduction when the same rotation is applied for both outcomes.

    Without conditioning on n the measurement averages out and the
    correlator gain disappears, leaving only the non-positive rotation
    cost on the site and bond terms.
    """
    ground = term_expectations(state)
    uv = rotate(pp, fixed_n, state.vector)
    puv = project(pp, _both_outcomes(pp, uv), uv)
    cross = term_expectations(state, puv, uv)
    return (ground.site_b - cross.site_b.sum(axis=0),
            ground.bond_right - cross.bond_right.sum(axis=0))


def correlators(state: GroundState) -> EdgeCorrelators:
    """The three protocol correlators, measured as matrix elements."""
    v = state.vector
    xx = ops.expectation(ops.pauli(0, "x") @ ops.pauli(3, "x"), v)
    yy = ops.expectation(ops.pauli(0, "y") @ ops.pauli(3, "y"), v)
    xxz = ops.expectation(
        ops.pauli(0, "x") @ ops.pauli(2, "x") @ ops.pauli(3, "z"), v)
    return EdgeCorrelators(xx=xx, yy=yy, xxz=xxz)


def correlators_closed(state: GroundState) -> EdgeCorrelators:
    """Same correlators from the amplitude ratios."""
    z2 = state.norm**2
    ab = state.alpha * state.beta
    return EdgeCorrelators(
        xx=4.0 * z2 * (1.0 + ab),
        yy=4.0 * z2 * (1.0 - ab),
        xxz=4.0 * z2 * (state.alpha - state.beta),
    )
