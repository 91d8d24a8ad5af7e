"""Local states, entropies, and the second-law budget of the protocol.

Bob's local state before measurement is the diagonal qubit

    rho_i = 2 Z^2 diag(1 + beta^2, 1 + alpha^2),

and after a measurement along a general axis r with outcome n it becomes
the 2x2 state with occupation weight w and coherence kappa,

    rho_m(n) = [[1 - w, kappa], [conj(kappa), w]],
    w     = 2 Z^2 ((1 - n r_z) + alpha^2 (1 + n r_z)) / (2 p_n),
    kappa = 2 n Z^2 ((r_x + i r_y) + alpha beta (r_x - i r_y)) / (2 p_n),
    p_n   = (1 + 2 n r_z (alpha^2 - beta^2) Z^2) / 2.

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

The second route to Bob's qubit reads it off the protocol's table: the
blocks M_mu = <sigma_A^mu (x) |k><j|_B> of :func:`qetsim.protocol.bob_blocks`
give rho_i = M_0 and rho_m(n) = (M_0 + n r.M)/(2 p_n).

Batches: every function here takes ground states of an array-valued field
(vectors of shape (..., 16)) and returns results of its shape, on one
code path; 2 x 2 states have shape (..., 2, 2).  An outcome with
probability below `PROBABILITY_FLOOR` is unreachable: both reduced-state
routes return a finite placeholder state for it, and every outcome
average weights it by zero.  Two functions take one field at a time:
:func:`thermo_sweep`, and :func:`entropy_minimization_scan`, whose batch
is a grid of measurement axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .model import GroundState, ModelParams, energy_decomposition, ground_state
from .optimize import max_site_reduction
from .protocol import (OUTCOMES, ProtocolParams, bob_blocks,
                       correlators_closed, outcome_block, run_protocol)

# outcomes with probability below this are unreachable: weighted by zero
# rather than divided by
PROBABILITY_FLOOR = 1e-14

# (polar, azimuthal) axes of the entropy-minimisation grid
SCAN_GRID = (64, 128)


def _both_outcomes(*batch):
    """OUTCOMES on a leading axis that broadcasts against `batch`."""
    return np.reshape(OUTCOMES, (2,) + (1,) * np.broadcast(*batch).ndim)


def reduced_state_initial(state: GroundState) -> np.ndarray:
    """Bob's qubit state: partial trace of the ground state over A, C1, C2."""
    return bob_blocks(state)[..., 0, :, :]


def _measured(blocks, pp: ProtocolParams, n):
    p, rho = outcome_block(blocks, pp, n)
    return rho / np.where(p < PROBABILITY_FLOOR, 1.0, p)[..., None, None], p


def reduced_state_measured(state: GroundState, pp: ProtocolParams, n):
    """(Bob's post-measurement state, outcome probability) from
    :func:`qetsim.protocol.bob_blocks`; an unreachable outcome gives an
    unnormalised placeholder state."""
    return _measured(bob_blocks(state), pp, n)


def measured_state_closed(state: GroundState, axis, n):
    """Same state from the (w, kappa) closed form for a general axis, or
    for axis components of shape (3, ...); an unreachable outcome gives a
    placeholder state."""
    rx, ry, rz = axis
    z2 = state.norm**2
    alpha, beta = state.alpha, state.beta
    denom = 1.0 + 2.0 * n * rz * (alpha**2 - beta**2) * z2
    p = 0.5 * denom
    denom = np.where(p < PROBABILITY_FLOOR, 1.0, denom)
    w = 2.0 * z2 * ((1.0 - n * rz) + alpha**2 * (1.0 + n * rz)) / denom
    kappa = 2.0 * n * z2 * ((rx + 1j * ry) + alpha * beta * (rx - 1j * ry)) / denom
    rho = np.array([[1.0 - w, kappa], [np.conj(kappa), w]])
    return np.moveaxis(rho, (0, 1), (-2, -1)), p


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


def _average_entropy(rho, p):
    """sum_n p_n S(rho_m(n)) over outcomes on the leading axis; unreachable
    outcomes weigh zero."""
    return (np.where(p < PROBABILITY_FLOOR, 0.0, p)
            * von_neumann_entropy(rho)).sum(axis=0)


def _information(blocks, pp: ProtocolParams):
    n = _both_outcomes(blocks[..., 0, 0, 0], *pp.measure_axis)
    return (von_neumann_entropy(blocks[..., 0, :, :])
            - _average_entropy(*_measured(blocks, pp, n)))


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
    """sum_n p_n S(rho_m(n)) from the closed forms, for one measurement axis
    or for axis components of shape (3, ...)."""
    n = _both_outcomes(state.alpha, *axis)
    return _average_entropy(*measured_state_closed(state, axis, n))


def entropy_minimization_scan(state: GroundState) -> np.ndarray:
    """Scan the `SCAN_GRID` axes of the sphere for the minimum average
    measured entropy and return the unit vector of the grid minimiser.

    The minimiser is the x axis (or its antipode, which is the same
    measurement) up to grid resolution.
    """
    polar = np.linspace(0.0, np.pi, SCAN_GRID[0])
    azimuth = np.linspace(0.0, 2.0 * np.pi, SCAN_GRID[1], endpoint=False)
    axes = ops.axis_vector(*np.meshgrid(polar, azimuth, indexing="ij"))
    values = average_measured_entropy(state, axes)
    i, j = np.unravel_index(int(values.argmin()), values.shape)
    return axes[:, i, j]


# ---------------------------------------------------------------------------
# the second-law budget


@dataclass(frozen=True)
class ThermoReport:
    """Entropy/information budget at the optimal x-axis measurement.

    The protocol quantities (work, energy_change, heat) are evaluated at
    the site-reduction optimum; with work counted as energy gained by
    Bob's system they satisfy work + heat = energy_change identically.
    Every field has the shape of the state's field.
    """

    mutual_information: float
    beta_eff: float
    divergence: float
    free_energy_gap: float
    bound_rhs: float
    site_reduction_max: float
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
    # nonequilibrium free energy of rho_i minus the equilibrium free energy
    free_energy_gap = ((site_b - von_neumann_entropy(rho_i) / thermal.beta)
                       - (-np.log(thermal.partition) / thermal.beta))
    ledger = run_protocol(state, cert.params)
    return ThermoReport(
        mutual_information=mutual,
        beta_eff=thermal.beta,
        divergence=div,
        free_energy_gap=free_energy_gap,
        bound_rhs=(div + mutual) / thermal.beta,
        site_reduction_max=cert.value,
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


@dataclass(frozen=True)
class ThermoRow:
    """One row of the second-law sweep."""

    h: float
    site_reduction_max: float
    rotation_cost: float     # e_B (1 - cos 2 theta) at the optimal angles
    correlator_gain: float   # -h xx sin 2 theta at the optimal angles
    kl_over_beta: float
    info_over_beta: float


def thermo_sweep(h_values, k: float = 1.0):
    rows = []
    for h in h_values:
        if h <= 0:
            raise ValueError("the sweep needs h > 0 (beta diverges at h = 0)")
        state = ground_state(ModelParams(h=float(h), k=k))
        report = second_law_report(state)
        cert = max_site_reduction(state)
        site_b = energy_decomposition(state).site_b
        gain = -float(h) * correlators_closed(state).xx
        rows.append(ThermoRow(
            h=float(h),
            site_reduction_max=cert.value,
            # 1 - cos 2 theta as 2 sin^2 theta, which does not cancel
            rotation_cost=site_b * 2.0 * np.sin(cert.params.theta)**2,
            # sin 2 theta = gain / hypot(e_B, gain), as in the certificate
            correlator_gain=gain * (gain / np.hypot(site_b, gain)),
            kl_over_beta=report.divergence / report.beta_eff,
            info_over_beta=report.mutual_information / report.beta_eff,
        ))
    return rows
