"""Self-verification suite: every library invariant as a named check.

Each check returns a :class:`CheckResult` with the worst residual it saw.
The suite is deterministic for a fixed seed; the seed only feeds the
random protocol-parameter samples, and pass/fail must not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chain as chain_mod
from . import majorana as majorana_mod
from . import model as model_mod
from . import operators as ops
from . import optimize as optimize_mod
from . import protocol as protocol_mod
from . import thermo as thermo_mod
from .model import ModelParams, ground_state


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


def _result(name, terms, detail=""):
    """One result from `terms`, {tolerance: [residuals]}: np.max folds each
    list (and keeps a NaN), and the check passes when every tolerance's
    worst entry lies below it.  A condition is one entry, 0.0 where it
    holds and np.inf elsewhere.  Several tolerances report the worst entry
    over its own tolerance, against 1."""
    worst = {tol: np.max([np.max(r) for r in rs]) for tol, rs in terms.items()}
    passed = all(w < tol for tol, w in worst.items())
    if len(worst) == 1:
        [(tolerance, residual)] = worst.items()
    else:
        tolerance = 1.0
        residual = np.max([w / tol for tol, w in worst.items()])
        detail = "worst residual over its own tolerance"
    return CheckResult(name=name, passed=bool(passed),
                       residual=float(residual), tolerance=tolerance,
                       detail=detail)


def _random_rounds(rng, n):
    """(n, 6) draws of (h, mu, nu, xi, eta, theta); row i holds the same
    numbers as the six scalar draws of the i-th of n sequential rounds."""
    return rng.uniform((0.0, 0.0, 0.0, 0.0, 0.0, -np.pi / 2.0),
                       (3.0, np.pi, 2.0 * np.pi, np.pi, 2.0 * np.pi,
                        np.pi / 2.0), size=(n, 6))


def _random_batch(rng, n):
    """n random rounds as one batch: (ground states, protocols) at k = 1."""
    h, *angles = _random_rounds(rng, n).T
    return (ground_state(ModelParams(h=h, k=1.0)),
            protocol_mod.ProtocolParams(*angles))


def check_ground_state_invariants(rng=None):
    """Closed-form ground state: amplitude identities, normalisation,
    eigenstate residual, parity, the h = 0 energy limit E = -sqrt(5) k and
    the bracket bound E <= -sqrt(5) k for h > 0."""
    h = np.arange(0.0, 3.0001, 0.01)
    gs = ground_state(ModelParams(h=h, k=1.0))
    k = gs.params.k
    v = gs.vector
    hv = model_mod.apply_hamiltonian(gs.params, v)
    limit = gs.energy + model_mod.SQRT5 * k
    return _result("ground-state closed-form invariants", {
        1e-12: [
            abs(k * (gs.alpha - gs.beta) - 2.0 * h * gs.alpha * gs.beta),
            abs((4.0 + 2.0 * gs.alpha**2 + 2.0 * gs.beta**2) * gs.norm**2
                - 1.0),
            # beta = 2k/(E + k + 2h), the closed form that _amplitudes no
            # longer evaluates, relative to the size of its terms
            abs(gs.beta * (gs.energy + k + 2.0 * h) - 2.0 * k)
            / (abs(gs.energy) + k + 2.0 * h),
            abs(np.linalg.norm(v, axis=-1) - 1.0),
            np.linalg.norm(v @ ops.parity_operator().T - v, axis=-1),
            np.where(h == 0.0, abs(limit), limit)],
        1e-10: [np.linalg.norm(hv - gs.energy[:, None] * v, axis=-1)]})


def check_sector_spectra(rng=None):
    """Even and odd sector spectra are degenerate and reflection-symmetric,
    and the lowest even level is the closed-form ground energy."""
    p = ModelParams(h=np.arange(0.0, 3.0001, 0.1), k=1.0)
    even = model_mod.even_sector_spectrum(p)
    return _result("sector degeneracy and spectrum reflection", {1e-10: [
        abs(even - model_mod.odd_sector_spectrum(p)),
        abs(even + even[:, ::-1]),
        abs(model_mod.ground_energy(p) - even[:, 0])]})


def check_energy_decomposition(rng=None):
    """Closed-form term energies match direct matrix elements."""
    gs = ground_state(ModelParams(h=np.arange(0.0, 3.0001, 0.05), k=1.0))
    closed = model_mod.energy_decomposition(gs)
    direct = model_mod.term_expectations(gs)
    return _result("energy decomposition two routes", {1e-12: [
        *(abs(getattr(closed, field) - getattr(direct, field))
          for field in ("total", "site_a", "site_b", "bond_left",
                        "bond_center", "bond_right")),
        abs(closed.site_a + closed.interaction + closed.site_b
            - closed.total)]})


def check_protocol_two_routes(rng):
    """Closed forms against the ledger's measurement cost and reductions,
    and its after_feedback (the whole table) against sum_n <U P psi|H|U P
    psi> (no term away from B moves), on random parameters."""
    gs, pp = _random_batch(rng, 1000)
    ledger = protocol_mod.run_protocol(gs, pp)
    after_c, injected_c = protocol_mod.measurement_energy_closed(gs, pp)
    site_c, bond_c = protocol_mod.reduction_closed(gs, pp)
    n = np.array([[1], [-1]])   # both outcomes on a leading axis
    fed = protocol_mod.rotate(pp, n, protocol_mod.project(pp, n, gs.vector))
    return _result("protocol two-route agreement (1000 samples)", {1e-12: [
        abs(ledger.after_measurement - after_c),
        abs(ledger.injected - injected_c),
        abs(ledger.extracted_site - site_c),
        abs(ledger.extracted_bond - bond_c),
        abs(ledger.after_feedback - model_mod.term_expectations(
            gs, fed).total.sum(axis=0)),
        np.maximum(0.0, -1e-16 - ledger.injected)]})


def check_no_feedback(rng):
    """Unconditioned rotations lose the correlator gain entirely, and the
    conditioned rotation adds exactly the correlator gain terms."""
    gs, pp = _random_batch(rng, 200)
    h, k = gs.params.h, gs.params.k
    e = model_mod.energy_decomposition(gs)
    c = protocol_mod.correlators_closed(gs)
    ledger = protocol_mod.run_protocol(gs, pp)
    rx, ry, _ = pp.measure_axis
    sx, sy, sz = pp.feedback_axis
    cos2, sin2 = np.cos(2.0 * pp.theta), np.sin(2.0 * pp.theta)
    site_expect = e.site_b * (1.0 - sz**2) * (1.0 - cos2)
    bond_expect = e.bond_right * (1.0 - sx**2) * (1.0 - cos2)
    gain_site = -h * (rx * sy * c.xx - ry * sx * c.yy) * sin2
    gain_bond = k * rx * sy * c.xxz * sin2
    residuals = []
    for fixed_n in (1, -1):
        site, bond = protocol_mod.no_feedback_reduction(gs, pp, fixed_n)
        residuals += [abs(site - site_expect), abs(bond - bond_expect),
                      np.maximum(0.0, site), np.maximum(0.0, bond),
                      abs(ledger.extracted_site - site - gain_site),
                      abs(ledger.extracted_bond - bond - gain_bond)]
    return _result("no-feedback control has no correlator gain",
                   {1e-12: residuals})


def check_correlators(rng=None):
    """Matrix-element correlators match the amplitude forms and satisfy
    k*xxz - h*xx = -h*yy and |xx| > |yy|."""
    h = np.arange(0.0, 3.0001, 0.05)
    gs = ground_state(ModelParams(h=h, k=1.0))
    meas = protocol_mod.correlators(gs)
    closed = protocol_mod.correlators_closed(gs)
    return _result("correlator identities", {1e-12: [
        abs(meas.xx - closed.xx), abs(meas.yy - closed.yy),
        abs(meas.xxz - closed.xxz),
        abs(gs.params.k * meas.xxz - h * meas.xx + h * meas.yy),
        np.where(abs(meas.xx) > abs(meas.yy), 0.0, np.inf)]})


def check_certificates(rng=None):
    """Closed-form optima: protocol evaluation reproduces the certified
    value and bond term, the heat vanishes at the extracted optimum and is
    negative at the site optimum for h > 0."""
    h = np.arange(0.0, 3.0001, 0.05)
    gs = ground_state(ModelParams(h=h, k=1.0))
    ext = optimize_mod.max_extracted_energy(gs)
    site = optimize_mod.max_site_reduction(gs)
    ledger_ext = protocol_mod.run_protocol(gs, ext.params)
    ledger_site = protocol_mod.run_protocol(gs, site.params)
    return _result("optimization certificates", {
        1e-10: [abs(ledger_ext.extracted - ext.value),
                abs(ledger_ext.extracted_site - ext.value),
                abs(ledger_site.extracted_site - site.value),
                abs(ledger_site.heat - site.bond_reduction),
                np.maximum(0.0, site.bond_reduction)],
        1e-12: [abs(ledger_ext.heat),
                np.where(ledger_site.heat[h > 0.0] < 0.0, 0.0, np.inf)]})


def check_random_never_beats_maxima(rng):
    """1000 random protocols stay below both closed-form maxima.  The
    residual is the signed largest excess over a maximum, so its headroom
    shows how close a random protocol comes to one."""
    gs, pp = _random_batch(rng, 1000)
    ledger = protocol_mod.run_protocol(gs, pp)
    ext = optimize_mod.max_extracted_energy(gs).value
    site = optimize_mod.max_site_reduction(gs).value
    return _result("random protocols never beat the maxima", {1e-12: [
        ledger.extracted - ext, ledger.extracted_site - site]})


def check_monotone_feedback_tilt(rng):
    """The rotation-optimised extracted energy grows with sin^2 xi: at
    feedback axis s its maximum over theta is m/2 + hypot(m/2, s^T C r),
    with m = s^T M0 s, from the rotation form (M0, C) of site_B +
    bond_right, on a batch of 12 random fields and axes.  The residual is
    the signed largest fall between neighbouring tilts, so its headroom
    shows how close the envelope comes to falling."""
    h, mu, nu, eta = rng.uniform((0.05, 0.0, 0.0, 0.0),
                                 (2.0, np.pi, 2.0 * np.pi, 2.0 * np.pi),
                                 size=(12, 4)).T
    forms = sum(protocol_mod.rotation_forms(
        ground_state(ModelParams(h=h, k=1.0))))   # site_B + bond_right
    tilt = np.linspace(0.0, np.pi / 2.0, 13) + 0.0 * eta[:, None]
    saxes = np.moveaxis(ops.axis_vector(tilt, eta[:, None]), 0, -1)
    half = 0.5 * np.einsum("dai,dij,daj->da", saxes, forms[:, 0], saxes)
    cross = np.einsum("dai,dij,jd->da", saxes, forms[:, 1],
                      ops.axis_vector(mu, nu))   # s^T C r
    envelope = half + np.hypot(half, cross)   # max over theta
    return _result("extracted energy monotone in feedback tilt",
                   {1e-10: [envelope[:, :-1] - envelope[:, 1:]]})


def check_brute_force(rng=None, fields=(0.1, 0.5, 1.5)):
    """The oracle agrees with the closed-form maxima, in value and at the
    claimed optimal parameters (so sign errors in the closed-form angles
    cannot hide behind an even power), the closed form lies in its
    bracket [value, upper_bound], and it converged; the detail reports
    the range of fixed-point rounds and the widest relative bracket,
    (upper_bound - value) / value."""
    residuals, unconverged, rounds, widths = [], [], [], []
    for h in fields:
        gs = ground_state(ModelParams(h=float(h), k=1.0))
        for target, closed in (
                (optimize_mod.TARGET_EXTRACTED,
                 optimize_mod.max_extracted_energy),
                (optimize_mod.TARGET_SITE, optimize_mod.max_site_reduction)):
            cert = optimize_mod.brute_force_max(gs, target)
            closed_cert = closed(gs)
            ledger = protocol_mod.run_protocol(gs, closed_cert.params)
            direct = (ledger.extracted if target == optimize_mod.TARGET_EXTRACTED
                      else ledger.extracted_site)
            converged = cert.converged and cert.rounds > 0
            residuals += [abs(cert.value - closed_cert.value),
                          abs(direct - closed_cert.value),
                          closed_cert.value - cert.upper_bound,
                          0.0 if converged else np.inf]
            rounds.append(cert.rounds)
            gap = cert.upper_bound - cert.value
            widths.append(gap / cert.value if cert.value else gap)
            if not converged:
                unconverged.append(f"h={h:g} {target}")
    detail = (f"{np.min(rounds)}-{np.max(rounds)} fixed-point rounds, widest "
              f"bracket {np.max(widths):.1e}")
    if unconverged:
        detail = f"not converged: {', '.join(unconverged)}; {detail}"
    return _result("oracle matches closed forms", {1e-8: residuals},
                   detail=detail)


def check_majorana_identities(rng=None):
    """Majorana algebra, the Hamiltonian mapping, and the operator-level
    correlator identities."""
    m = majorana_mod.build_majorana_ops()
    b, gammas = np.stack(m.b), np.stack(m.b + m.c)
    # {g_i, g_j} - 2 delta_ij for every pair at once
    anti = (gammas[:, None] @ gammas + gammas @ gammas[:, None]
            - 2.0 * np.eye(8)[..., None, None] * ops.IDENTITY)
    parity = ops.parity_operator()
    sx = ops.pauli
    p = ModelParams(h=np.arange(0.0, 3.0001, 0.1), k=1.0)
    gs = ground_state(p)
    mc = majorana_mod.majorana_correlators(gs)
    c = protocol_mod.correlators_closed(gs)
    # internal b modes commute with H at h = 0; the edge b does not for h > 0
    H0, H1 = model_mod.build_hamiltonian(ModelParams(h=np.r_[0.0, 1.0])).total
    return _result("majorana operator identities", {1e-12: [
        ops.operator_norm(anti),
        ops.operator_norm(1j * m.b[0] @ m.b[3]
                          - sx(0, "x") @ sx(3, "x") @ (-parity)),
        ops.operator_norm(1j * m.c[0] @ m.c[3] @ parity
                          - sx(0, "y") @ sx(3, "y")),
        ops.operator_norm(1j * m.b[0] @ m.c[2] @ parity
                          - sx(0, "x") @ sx(2, "x") @ sx(3, "z")),
        majorana_mod.hamiltonian_residual(p),
        abs(mc.bb + c.xx), abs(mc.cc - c.yy), abs(mc.bc - c.xxz),
        ops.operator_norm(H0 @ b - b @ H0),
        np.where(ops.operator_norm(H1 @ m.b[0] - m.b[0] @ H1) >= 1.0,
                 0.0, np.inf)]})


def check_degenerate_quadruplet(rng=None):
    """All four h = 0 ground states: energies, labels, correlator signs."""
    p = ModelParams(h=0.0, k=1.0)
    gs = ground_state(p)
    H = model_mod.build_hamiltonian(p).total
    c = protocol_mod.correlators_closed(gs)
    residuals = []
    states = majorana_mod.degenerate_ground_states(gs)
    parity = ops.parity_operator()
    label = model_mod.build_symmetries().doublet_label
    for (sign_p, sign_r, vec) in states:
        residuals += [np.linalg.norm(H @ vec - gs.energy * vec),
                      np.linalg.norm(parity @ vec - sign_p * vec),
                      np.linalg.norm(label @ vec - sign_r * vec),
                      abs(np.linalg.norm(vec) - 1.0)]
    for (sign_p, sign_r, bb, cc) in majorana_mod.degenerate_sector_table(gs):
        residuals += [abs(bb + sign_p * sign_r * c.xx), abs(cc - c.yy)]
    return _result("h = 0 degenerate quadruplet", {1e-10: residuals})


def check_chain_against_exact(rng=None):
    """Free-fermion edge correlators and ground energy (in units of k) at
    L = 4 match the spin-model exact values; covariance is antisymmetric
    and pure; at L = 16 and 64 the resolvent edge correlators match the
    covariance entries of the SVD route; all at k = 1e-3, 1 and 1e3."""
    residuals = []
    for k in (1e-3, 1.0, 1e3):
        for h in (0.1 * k, 0.5 * k, 1.0 * k, 2.0 * k):
            p = ModelParams(h=h, k=k)
            gs = ground_state(p)
            c = protocol_mod.correlators_closed(gs)
            spec = chain_mod.build_chain(4, h, k)
            bb, cc = chain_mod.edge_correlators(spec)
            gamma = chain_mod.ground_covariance(spec)
            residuals += [
                abs(bb + c.xx), abs(cc - c.yy),
                abs(chain_mod.ground_energy_from_filling(spec) - gs.energy) / k,
                np.linalg.norm(gamma + gamma.T),
                np.maximum(0.0, np.linalg.norm(gamma, 2) - 1.0)]
            for length in (16, 64):
                spec = chain_mod.build_chain(length, h, k)
                bb, cc = chain_mod.edge_correlators(spec)
                gamma = chain_mod.ground_covariance(spec)
                residuals += [abs(bb - gamma[length, length + 1]),
                              abs(cc - gamma[0, length - 1])]
    # at h = 0 the b-mode rows of the coupling vanish (exact zero modes)
    spec0 = chain_mod.build_chain(8, 0.0, 1.0)
    residuals.append(np.abs(spec0.coupling[[8, 9], :]))
    return _result("chain solver vs exact diagonalisation", {1e-10: residuals})


def check_chain_field_dependence(rng=None):
    """xx-correlator magnitude: equals 1 in the small-field limit, decreases
    with h, and the decrease steepens with length."""
    lengths = (4, 16, 64)
    limit = np.array(chain_mod.correlators_vs_length(0.0, 1.0, lengths).xx_abs)
    stable = [abs(chain_mod.edge_correlators(
        chain_mod.build_chain(L, 1e-5, 1.0))[0]) for L in lengths]
    drops = [1.0 - abs(chain_mod.edge_correlators(
        chain_mod.build_chain(L, 0.2, 1.0))[0]) for L in lengths]
    return _result("chain field dependence strengthens with length", {1e-4: [
        abs(limit - 1.0), abs(limit - stable),
        np.where(np.diff(drops) > 0.0, 0.0, np.inf)]})


def check_thermo_states(rng):
    """Reduced states from Bob's blocks of the protocol table match the
    closed forms; states of unreachable outcomes are not compared."""
    gs, pp = _random_batch(rng, 200)
    blocks = protocol_mod.bob_blocks(gs)
    rho_i = blocks[..., 0, :, :]
    diagonal = 2.0 * gs.norm[:, None]**2 * np.stack(
        [1.0 + gs.beta**2, 1.0 + gs.alpha**2], axis=-1)
    # both outcomes on a leading axis
    n = np.array([[1], [-1]])
    prob, rho = protocol_mod.outcome_block(blocks, pp, n)
    rho = rho / np.maximum(prob, thermo_mod.PROBABILITY_FLOOR)[..., None, None]
    rho_c, prob_c = thermo_mod.measured_state_closed(gs, pp.measure_axis, n)
    reachable = np.minimum(prob, prob_c) >= thermo_mod.PROBABILITY_FLOOR
    return _result("reduced states two routes (200 samples)", {1e-12: [
        np.abs(rho_i - diagonal[..., None] * np.eye(2)),
        abs(np.trace(rho_i, axis1=-2, axis2=-1).real - 1.0),
        abs(prob - prob_c),
        np.abs(rho - rho_c) * reachable[..., None, None]]})


def check_second_law(rng=None):
    """Budget identity, purity identities, first law, and non-negative
    mutual information and divergence, at k = 1e-3, 1 and 1e3 with the
    field scaled by k (energy residuals in units of k)."""
    identities, negative = [], []
    for k in (1e-3, 1.0, 1e3):
        gs = ground_state(ModelParams(h=k * np.arange(0.05, 3.0001, 0.05), k=k))
        report = thermo_mod.second_law_report(gs)
        g = thermo_mod.measured_state_purity(gs)
        identities += [
            abs(report.bound_rhs - report.site_reduction_max) / k,
            abs(thermo_mod.purity_from_energy(gs) - g),
            abs(thermo_mod.purity_from_entropy(gs) - g),
            abs(report.work + report.heat - report.energy_change) / k,
            abs(report.free_energy_gap - report.divergence / report.beta_eff)
            / k]
        negative += [-report.mutual_information, -report.divergence]
    return _result("second-law budget and purity identities",
                   {1e-10: identities, 1e-12: negative})


def check_entropy_minimization(rng=None):
    """The average measured entropy is minimised by the x axis, to within
    one spacing of the polar scan grid, and equals the binary entropy of
    the x-axis eigenvalue there."""
    angles, identities = [], []
    for h in (0.1, 0.5, 1.5):
        gs = ground_state(ModelParams(h=h, k=1.0))
        best_axis = thermo_mod.entropy_minimization_scan(gs)
        cosine = abs(float(best_axis @ np.array([1.0, 0.0, 0.0])))
        angles.append(np.arccos(np.clip(cosine, -1.0, 1.0)))
        x_axis = thermo_mod.average_measured_entropy(gs, (1.0, 0.0, 0.0))
        z_axis = thermo_mod.average_measured_entropy(gs, (0.0, 0.0, 1.0))
        identities += [abs(x_axis - thermo_mod.binary_entropy(
            thermo_mod.measured_eigenvalues(gs)[1])),
            np.where(z_axis > x_axis, 0.0, np.inf)]
    return _result("entropy minimised by the x-axis measurement", {
        np.pi / (thermo_mod.SCAN_GRID[0] - 1): angles, 1e-12: identities})


CHECKS = (
    check_ground_state_invariants,
    check_sector_spectra,
    check_energy_decomposition,
    check_protocol_two_routes,
    check_no_feedback,
    check_correlators,
    check_certificates,
    check_random_never_beats_maxima,
    check_monotone_feedback_tilt,
    check_brute_force,
    check_majorana_identities,
    check_degenerate_quadruplet,
    check_chain_against_exact,
    check_chain_field_dependence,
    check_thermo_states,
    check_second_law,
    check_entropy_minimization,
)


def run_all(seed: int = 0):
    """Run every check with a fresh seeded generator; returns the results."""
    return [fn(np.random.default_rng(seed)) for fn in CHECKS]
