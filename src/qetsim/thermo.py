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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .model import GroundState, ModelParams, energy_decomposition, ground_state
from .optimize import max_site_reduction
from .protocol import ProtocolParams, correlators_closed, project, run_protocol

# outcomes with probability below this are reported as unreachable rather
# than divided by
PROBABILITY_FLOOR = 1e-14

_OUTCOMES = (1, -1)


def reduced_state_initial(state: GroundState) -> np.ndarray:
    """Bob's qubit state: partial trace of the ground state over A, C1, C2."""
    m = state.vector.reshape(8, 2)
    return np.einsum("xb,xc->bc", m, m.conj())


def reduced_state_measured(state: GroundState, pp: ProtocolParams, n):
    """(Bob's post-measurement state, outcome probability) by partial trace.

    Unreachable outcomes (probability below the floor) return (None, p).
    """
    pv = project(pp, n, state.vector)
    p = float(np.vdot(pv, pv).real)
    if p < PROBABILITY_FLOOR:
        return None, p
    m = (pv / np.sqrt(p)).reshape(8, 2)
    return np.einsum("xb,xc->bc", m, m.conj()), p


def measured_state_closed(state: GroundState, axis, n):
    """Same state from the (w, kappa) closed form for a general axis, or
    (..., 2, 2) states for axis components of shape (3, ...).  Unreachable
    outcomes give (None, p), or in a batch finite placeholder states."""
    rx, ry, rz = axis
    z2 = state.norm**2
    alpha, beta = state.alpha, state.beta
    denom = 1.0 + 2.0 * n * rz * (alpha**2 - beta**2) * z2
    p = 0.5 * denom
    if np.ndim(p) == 0 and p < PROBABILITY_FLOOR:
        return None, p
    denom = np.where(p < PROBABILITY_FLOOR, 1.0, denom)
    w = 2.0 * z2 * ((1.0 - n * rz) + alpha**2 * (1.0 + n * rz)) / denom
    kappa = 2.0 * n * z2 * ((rx + 1j * ry) + alpha * beta * (rx - 1j * ry)) / denom
    rho = np.array([[1.0 - w, kappa], [np.conj(kappa), w]])
    return np.moveaxis(rho, (0, 1), (-2, -1)), p


def entropy_from_eigenvalues(lams) -> float:
    """Shannon entropy over the last axis with the 0 log 0 = 0 convention;
    tiny negative eigenvalues from partial-trace roundoff are clipped to
    zero."""
    lams = np.clip(np.asarray(lams, dtype=float), 0.0, 1.0)
    return -(lams * np.log(np.where(lams > 0.0, lams, 1.0))).sum(axis=-1)


def von_neumann_entropy(rho) -> float:
    return entropy_from_eigenvalues(np.linalg.eigvalsh(rho))


def kl_divergence(rho, sigma) -> float:
    """tr rho (log rho - log sigma) for full-rank sigma."""
    lams, vecs = np.linalg.eigh(rho)
    lams = np.clip(lams, 0.0, 1.0)
    tr_rho_log_rho = float((lams[lams > 0] * np.log(lams[lams > 0])).sum())
    svals, svecs = np.linalg.eigh(sigma)
    log_sigma = svecs @ np.diag(np.log(svals)) @ svecs.conj().T
    return tr_rho_log_rho - float(np.trace(rho @ log_sigma).real)


def qc_mutual_information(state: GroundState, pp: ProtocolParams) -> float:
    """Information gain S(rho_i) - sum_n p_n S(rho_m(n)); non-negative and
    independent of the feedback half of `pp`."""
    total = von_neumann_entropy(reduced_state_initial(state))
    for n in _OUTCOMES:
        rho, p = reduced_state_measured(state, pp, n)
        if rho is None:
            continue
        total -= p * von_neumann_entropy(rho)
    return total


def measured_state_purity(state: GroundState) -> float:
    """Bloch-vector length g of the x-axis measured state."""
    z2 = state.norm**2
    return float(np.sqrt(1.0 - 16.0 * z2**2 * (state.alpha - state.beta) ** 2))


def measured_eigenvalues(state: GroundState):
    """(lambda_+, lambda_-) of the x-axis measured state; n-independent."""
    g = measured_state_purity(state)
    return 0.5 * (1.0 + g), 0.5 * (1.0 - g)


@dataclass(frozen=True)
class EffectiveThermal:
    """Local thermal state matching the minimised measured entropy."""

    beta: float
    partition: float
    sigma: np.ndarray


def effective_temperature(state: GroundState) -> EffectiveThermal:
    """Effective inverse temperature of Bob's site for h > 0.

    Where the measured state is pure, at h = 0 or where lambda_- rounds to
    zero at huge h, the matching temperature is zero (beta diverges) and no
    thermal description exists; that singular case raises instead of
    propagating infinities.
    """
    h, k = state.params.h, state.params.k
    lam_p, lam_m = measured_eigenvalues(state)
    if not lam_m > 0.0:
        raise ValueError(f"effective temperature is undefined at h = {h:g}, "
                         f"k = {k:g}: lambda_- = {lam_m:g} is not positive "
                         f"(the measured state is pure), beta diverges")
    beta = float(np.log(np.sqrt(lam_p / lam_m)) / h)
    partition = float(1.0 / np.sqrt(lam_p * lam_m))
    sigma = np.diag([lam_p, lam_m]).astype(complex)
    return EffectiveThermal(beta=beta, partition=partition, sigma=sigma)


# ---------------------------------------------------------------------------
# entropy minimisation over measurement axes


@dataclass(frozen=True)
class EntropyScan:
    """Average measured entropy over a grid of measurement axes."""

    polar: np.ndarray      # (n_polar,)
    azimuth: np.ndarray    # (n_azimuth,)
    values: np.ndarray     # (n_polar, n_azimuth)
    best_axis: np.ndarray  # unit vector of the grid minimiser


def average_measured_entropy(state: GroundState, axis) -> float:
    """sum_n p_n S(rho_m(n)) from the closed forms, for one measurement axis
    or for axis components of shape (3, ...); unreachable outcomes add
    nothing."""
    total = 0.0
    for n in _OUTCOMES:
        rho, p = measured_state_closed(state, axis, n)
        if rho is not None:
            total += (np.where(p < PROBABILITY_FLOOR, 0.0, p)
                      * von_neumann_entropy(rho))
    return total


def entropy_minimization_scan(state: GroundState, n_polar: int = 64,
                              n_azimuth: int = 128) -> EntropyScan:
    """Scan the axis sphere for the minimum average measured entropy.

    The minimiser is the x axis (or its antipode, which is the same
    measurement) up to grid resolution.
    """
    polar = np.linspace(0.0, np.pi, n_polar)
    azimuth = np.linspace(0.0, 2.0 * np.pi, n_azimuth, endpoint=False)
    axes = ops.axis_vector(*np.meshgrid(polar, azimuth, indexing="ij"))
    values = average_measured_entropy(state, axes)
    i, j = np.unravel_index(int(values.argmin()), values.shape)
    return EntropyScan(polar=polar, azimuth=azimuth, values=values,
                       best_axis=axes[:, i, j])


# ---------------------------------------------------------------------------
# the second-law budget


@dataclass(frozen=True)
class ThermoReport:
    """Entropy/information budget at the optimal x-axis measurement.

    The protocol quantities (work, energy_change, heat) are evaluated at
    the site-reduction optimum; with work counted as energy gained by
    Bob's system they satisfy work + heat = energy_change identically.
    """

    entropy_initial: float
    entropy_measured: tuple
    probabilities: tuple
    mutual_information: float
    beta_eff: float
    partition: float
    divergence: float
    free_energy_gap: float
    bound_rhs: float
    site_reduction_max: float
    work: float
    energy_change: float
    heat: float


def second_law_report(state: GroundState) -> ThermoReport:
    pp_measure = ProtocolParams.from_vectors((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0)
    rho_i = reduced_state_initial(state)
    entropy_initial = von_neumann_entropy(rho_i)
    entropies = []
    probabilities = []
    for n in _OUTCOMES:
        rho, p = reduced_state_measured(state, pp_measure, n)
        probabilities.append(p)
        entropies.append(von_neumann_entropy(rho) if rho is not None else 0.0)
    mutual = entropy_initial - sum(p * s for p, s in zip(probabilities, entropies))
    thermal = effective_temperature(state)
    div = kl_divergence(rho_i, thermal.sigma)
    site_b = energy_decomposition(state).site_b
    # nonequilibrium free energy of rho_i minus the equilibrium free energy
    free_energy_gap = ((site_b - entropy_initial / thermal.beta)
                       - (-np.log(thermal.partition) / thermal.beta))
    bound_rhs = (div + mutual) / thermal.beta
    cert = max_site_reduction(state)
    ledger = run_protocol(state, cert.params)
    return ThermoReport(
        entropy_initial=entropy_initial,
        entropy_measured=tuple(entropies),
        probabilities=tuple(probabilities),
        mutual_information=mutual,
        beta_eff=thermal.beta,
        partition=thermal.partition,
        divergence=div,
        free_energy_gap=free_energy_gap,
        bound_rhs=bound_rhs,
        site_reduction_max=cert.value,
        work=-ledger.extracted,
        energy_change=-ledger.extracted_site,
        heat=ledger.extracted_bond,
    )


def purity_from_energy(state: GroundState) -> float:
    """g recovered from the site energy and the xx correlator:
    g = sqrt((e_B / h)^2 + xx^2); equals :func:`measured_state_purity`."""
    h = state.params.h
    if h <= 0:
        raise ValueError("undefined at h = 0")
    site_b = energy_decomposition(state).site_b
    return float(np.hypot(site_b / h, correlators_closed(state).xx))


def purity_from_entropy(state: GroundState) -> float:
    """g recovered from the thermal bookkeeping:
    g = (log Z_eff - S(rho_m)) / log sqrt(lambda_+ / lambda_-)."""
    lam_p, lam_m = measured_eigenvalues(state)
    s_m = entropy_from_eigenvalues([lam_p, lam_m])
    thermal = effective_temperature(state)
    return float((np.log(thermal.partition) - s_m)
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
        rows.append(ThermoRow(
            h=float(h),
            site_reduction_max=cert.value,
            rotation_cost=site_b * (1.0 - cert.cos_2theta),
            correlator_gain=-float(h) * correlators_closed(state).xx * cert.sin_2theta,
            kl_over_beta=report.divergence / report.beta_eff,
            info_over_beta=report.mutual_information / report.beta_eff,
        ))
    return rows
