"""Local states, entropies, and the second-law budget of the protocol.

Bob's qubit and its correlations with spin A are the four blocks
M_mu = <sigma_A^mu (x) |k><j|_B> (mu = 0 the identity, then x, y, z), an
X pattern in closed form (:func:`qetsim.protocol.bob_blocks_closed`):

    M_0 = 2 Z^2 diag(1 + beta^2, 1 + alpha^2),   M_x = (xx/2) sigma^x,
    M_z = 2 Z^2 diag(1 - beta^2, alpha^2 - 1),   M_y = (yy/2) sigma^y,

and the protocol's table is the second route
(:func:`qetsim.protocol.bob_blocks`).  Bob holds rho_i = M_0, and outcome
n of a measurement of A along r leaves him rho_m(n) = (M_0 + n r.M)/(2
p_n), p_n its trace: one outcome map for both routes
(:func:`qetsim.protocol.outcome_block`).

For the x-axis measurement the eigenvalues (1 +- g)/2 of rho_m do not
depend on n, with purity radius g = sqrt(1 - 16 Z^4 (alpha - beta)^2).
The average measured entropy is minimised over all axes by the x axis,
which defines an effective inverse temperature through

    beta_eff h = log sqrt(lambda_+ / lambda_-),

the local thermal state sigma_B = exp(-beta_eff H_B)/Z_eff, and the
budget identity

    max site reduction = (D(rho_i || sigma_B) + I_QC) / beta_eff,

where I_QC is the information gain of the measurement.  All entropies use
the natural logarithm.

Batches: every function here takes ground states of an array-valued field
(vectors of shape (..., 16)) and returns results of its shape, on one
code path; 2 x 2 states have shape (..., 2, 2).  An outcome with
probability below `PROBABILITY_FLOOR` (on unnormalised states) is
unreachable: the outcome map returns a finite placeholder state for it,
and every outcome average weights it by zero.  :func:`thermo_sweep` and
:func:`entropy_minimization_scan`, whose batch is a grid of measurement
axes, take one field at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .model import GroundState, ModelParams, energy_decomposition, ground_state
from .optimize import max_site_reduction
from .protocol import (OUTCOMES, ProtocolParams, bob_blocks,
                       bob_blocks_closed, correlators_closed, outcome_block,
                       run_protocol)

# outcomes with probability below this are unreachable: weighted by zero
# rather than divided by
PROBABILITY_FLOOR = 1e-14

# polar angles of the entropy scan on the x-z meridian; odd, so it holds
# the x axis, the only point that r_z -> -r_z (a symmetry) maps to itself
SCAN_POINTS = 129


def reduced_state_initial(state: GroundState) -> np.ndarray:
    """Bob's qubit state: partial trace of the ground state over A, C1, C2."""
    return bob_blocks(state)[..., 0, :, :]


def _measured(blocks, axis, n):
    p, rho = outcome_block(blocks, axis, n)
    return rho / np.where(p < PROBABILITY_FLOOR, 1.0, p)[..., None, None], p


def reduced_state_measured(state: GroundState, pp: ProtocolParams, n):
    """(Bob's post-measurement state, outcome probability) from
    :func:`qetsim.protocol.bob_blocks`; an unreachable outcome gives an
    unnormalised placeholder state."""
    return _measured(bob_blocks(state), pp.measure_axis, n)


def binary_entropy(lam_m):
    """Entropy -lam_m log lam_m - (1 - lam_m) log1p(-lam_m) of a qubit with
    smaller eigenvalue lam_m, elementwise; relatively accurate as lam_m -> 0,
    0 log 0 = 0, and lam_m is clipped to [0, 1/2] against roundoff."""
    lam_m = np.clip(lam_m, 0.0, 0.5)
    return (-lam_m * np.log(np.where(lam_m > 0.0, lam_m, 1.0))
            - (1.0 - lam_m) * np.log1p(-lam_m))


def von_neumann_entropy(rho):
    """Entropy of 2 x 2 unit-trace states: the binary entropy of lambda_-
    = det rho / lambda_+ (an unreachable outcome's zero placeholder has no
    entropy)."""
    rho = np.asarray(rho)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"von_neumann_entropy takes 2 x 2 states, got "
                         f"shape {rho.shape}")
    d0, d1 = rho[..., 0, 0].real, rho[..., 1, 1].real
    off = np.abs(rho[..., 0, 1])
    lam_p = 0.5 * (d0 + d1 + np.hypot(d0 - d1, 2.0 * off))
    return binary_entropy((d0 * d1 - off * off)
                          / np.where(lam_p > 0.0, lam_p, 1.0))


def kl_divergence(rho, sigma):
    """tr rho (log rho - log sigma) for a full-rank diagonal sigma, such as
    the effective thermal state; log sigma is read from its diagonal."""
    sigma = np.asarray(sigma)
    if np.any(sigma[..., [0, 1], [1, 0]]):
        raise ValueError("kl_divergence needs a diagonal sigma")
    diagonal = np.diagonal(np.asarray(rho), axis1=-2, axis2=-1).real
    log_sigma = np.log(np.diagonal(sigma, axis1=-2, axis2=-1).real)
    return -von_neumann_entropy(rho) - (diagonal * log_sigma).sum(axis=-1)


def _average_entropy(blocks, axis):
    """sum_n p_n S(rho_m(n)) of the blocks, for one measurement axis or
    for axis components of shape (3, ...); unreachable outcomes weigh
    zero."""
    # both outcomes on a leading axis that broadcasts against the batch
    ndim = np.broadcast(blocks[..., 0, 0, 0], *axis).ndim
    rho, p = _measured(blocks, axis, np.reshape(OUTCOMES, (2,) + (1,) * ndim))
    return (np.where(p < PROBABILITY_FLOOR, 0.0, p)
            * von_neumann_entropy(rho)).sum(axis=0)


def _information(blocks, pp: ProtocolParams):
    return (von_neumann_entropy(blocks[..., 0, :, :])
            - _average_entropy(blocks, pp.measure_axis))


def qc_mutual_information(state: GroundState, pp: ProtocolParams):
    """Information gain S(rho_i) - sum_n p_n S(rho_m(n)); non-negative and
    independent of the feedback half of `pp`."""
    return _information(bob_blocks(state), pp)


def measured_state_purity(state: GroundState):
    """Bloch-vector length g of the x-axis measured state: 1 - g^2 = 4 det
    rho_m = 16 Z^4 (alpha - beta)^2 is the square of the closed-form xxz."""
    return np.sqrt(1.0 - correlators_closed(state).xxz**2)


def measured_eigenvalues(state: GroundState):
    """(lambda_+, lambda_-) of the x-axis measured state; n-independent.
    lambda_- = q / (2 (1 + g)), q = xxz^2 = 1 - g^2, does not cancel."""
    g, q = measured_state_purity(state), correlators_closed(state).xxz**2
    return 0.5 * (1.0 + g), q / (2.0 * (1.0 + g))


@dataclass(frozen=True)
class EffectiveThermal:
    """Local thermal state matching the minimised measured entropy."""

    beta: float
    partition: float
    sigma: np.ndarray


def effective_temperature(state: GroundState) -> EffectiveThermal:
    """Effective inverse temperature of Bob's site for h > 0.

    Where lambda_- is 0 or subnormal (h = 0, h/k below ~2e-154) the measured
    state is pure to double precision and beta diverges; that case raises,
    for a batch if any element is singular, instead of returning infinities.
    """
    lam_p, lam_m = measured_eigenvalues(state)
    pure = np.flatnonzero(~(lam_m >= np.finfo(float).tiny))
    if pure.size:
        h, k, lam = (np.broadcast_to(x, np.shape(lam_m)).flat[pure[0]]
                     for x in (state.params.h, state.params.k, lam_m))
        raise ValueError(f"effective temperature is undefined at h = {h:g}, "
                         f"k = {k:g}: lambda_- = {lam:g} is not positive or "
                         f"is subnormal (the measured state is pure to "
                         f"double precision), beta diverges")
    return EffectiveThermal(
        beta=np.log(np.sqrt(lam_p / lam_m)) / state.params.h,
        partition=1.0 / np.sqrt(lam_p * lam_m),
        sigma=(np.stack([lam_p, lam_m], axis=-1)[..., None]
               * np.eye(2, dtype=complex)))


# ---------------------------------------------------------------------------
# entropy minimisation over measurement axes


def average_measured_entropy(state: GroundState, axis):
    """sum_n p_n S(rho_m(n)) from :func:`qetsim.protocol.bob_blocks_closed`,
    for one measurement axis or for axis components of shape (3, ...)."""
    return _average_entropy(bob_blocks_closed(state), axis)


def entropy_minimization_scan(state: GroundState) -> np.ndarray:
    """The unit vector of least average measured entropy among
    `SCAN_POINTS` polar angles of the x-z meridian: the x axis.  The
    meridian suffices: the outcome probabilities depend on r_z alone, and
    the Bloch length of rho_m grows with r_x^2 xx^2 + r_y^2 yy^2, where
    |xx| > |yy|, so at each polar angle azimuth 0 is the minimum."""
    axes = ops.axis_vector(np.linspace(0.0, np.pi, SCAN_POINTS), 0.0)
    return axes[:, int(average_measured_entropy(state, axes).argmin())]


# ---------------------------------------------------------------------------
# the second-law budget


@dataclass(frozen=True)
class ThermoReport:
    """Entropy/information budget at the optimal x-axis measurement.

    The protocol quantities (work, energy_change, heat) are evaluated at
    the site-reduction optimum; with work counted as energy gained by
    Bob's system they satisfy work + heat = energy_change identically.
    site_reduction_max = rotation_cost + correlator_gain = kl_over_beta +
    info_over_beta, the last up to budget_residual.  Every field has the
    shape of the state's field; `qetsim thermo` prints seven of them.
    """

    h: float
    mutual_information: float
    beta_eff: float
    divergence: float
    free_energy_gap: float
    site_reduction_max: float
    rotation_cost: float     # e_B (1 - cos 2 theta) at the optimal angles
    correlator_gain: float   # -h xx sin 2 theta at the optimal angles
    kl_over_beta: float
    info_over_beta: float
    budget_residual: float
    work: float
    energy_change: float
    heat: float


def second_law_report(state: GroundState) -> ThermoReport:
    cert = max_site_reduction(state)   # measures along x
    blocks = bob_blocks(state)
    rho_i, mutual = blocks[..., 0, :, :], _information(blocks, cert.params)
    thermal = effective_temperature(state)
    div = kl_divergence(rho_i, thermal.sigma)
    site_b = energy_decomposition(state).site_b
    gain = -state.params.h * correlators_closed(state).xx
    # nonequilibrium free energy of rho_i minus the equilibrium free energy
    free_energy_gap = ((site_b - von_neumann_entropy(rho_i) / thermal.beta)
                       - (-np.log(thermal.partition) / thermal.beta))
    kl_over_beta, info_over_beta = div / thermal.beta, mutual / thermal.beta
    ledger = run_protocol(state, cert.params)
    return ThermoReport(
        h=state.params.h,
        mutual_information=mutual,
        beta_eff=thermal.beta,
        divergence=div,
        free_energy_gap=free_energy_gap,
        site_reduction_max=cert.value,
        # 1 - cos 2 theta as 2 sin^2 theta, which does not cancel
        rotation_cost=site_b * 2.0 * np.sin(cert.params.theta)**2,
        # sin 2 theta = gain / hypot(e_B, gain), as in the certificate
        correlator_gain=gain * (gain / np.hypot(site_b, gain)),
        kl_over_beta=kl_over_beta,
        info_over_beta=info_over_beta,
        budget_residual=abs(cert.value - kl_over_beta - info_over_beta),
        work=-ledger.extracted,
        energy_change=-ledger.extracted_site,
        heat=ledger.extracted_bond,
    )


def purity_from_energy(state: GroundState):
    """g recovered from the site energy and the xx correlator:
    g = sqrt((e_B / h)^2 + xx^2); equals :func:`measured_state_purity`."""
    h = state.params.h
    if np.any(h <= 0):
        raise ValueError("undefined at h = 0")
    site_b = energy_decomposition(state).site_b
    return np.hypot(site_b / h, correlators_closed(state).xx)


def purity_from_entropy(state: GroundState):
    """g recovered from the thermal bookkeeping:
    g = (log Z_eff - S(rho_m)) / log sqrt(lambda_+ / lambda_-)."""
    lam_p, lam_m = measured_eigenvalues(state)
    thermal = effective_temperature(state)
    return ((np.log(thermal.partition) - binary_entropy(lam_m))
            / np.log(np.sqrt(lam_p / lam_m)))


def thermo_sweep(h_values, k: float = 1.0):
    """One :class:`ThermoReport` per field, each from its own ground state."""
    return [second_law_report(ground_state(ModelParams(h=float(h), k=k)))
            for h in h_values]
