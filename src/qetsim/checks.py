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


_RATIO = "worst residual over its own tolerance"


def _result(name, residual, tolerance, detail=""):
    return CheckResult(name=name, passed=bool(residual < tolerance),
                       residual=float(residual), tolerance=tolerance,
                       detail=detail)


def _worst(*residuals):
    """Largest entry over scalar and array residuals."""
    return max(float(np.max(r)) for r in residuals)


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
    the bracket bound E <= -sqrt(5) k for h > 0.

    Residual is reported in units of each quantity's tolerance (1e-12 for
    the algebraic identities, 1e-10 for the eigenstate residual)."""
    worst = 0.0
    for h in np.arange(0.0, 3.0001, 0.01):
        p = ModelParams(h=float(h), k=1.0)
        gs = ground_state(p)
        H = model_mod.build_hamiltonian(p).total
        k = p.k
        limit = gs.energy + model_mod.SQRT5 * k
        worst = max(
            worst,
            abs(k * (gs.alpha - gs.beta) - 2.0 * h * gs.alpha * gs.beta) / 1e-12,
            abs((4.0 + 2.0 * gs.alpha**2 + 2.0 * gs.beta**2) * gs.norm**2
                - 1.0) / 1e-12,
            abs(gs.alpha * gs.beta - (gs.energy - k) / (gs.energy + k)) / 1e-12,
            abs(np.linalg.norm(gs.vector) - 1.0) / 1e-12,
            np.linalg.norm(ops.parity_operator() @ gs.vector - gs.vector) / 1e-12,
            np.linalg.norm(H @ gs.vector - gs.energy * gs.vector) / 1e-10,
            (abs(limit) if h == 0.0 else limit) / 1e-12,
        )
    return _result("ground-state closed-form invariants", worst, 1.0,
                   detail=_RATIO)


def check_sector_spectra(rng=None):
    """Even and odd sector spectra are degenerate and reflection-symmetric,
    and the lowest even level is the closed-form ground energy."""
    worst = 0.0
    for h in np.arange(0.0, 3.0001, 0.1):
        p = ModelParams(h=float(h), k=1.0)
        even = model_mod.even_sector_spectrum(p)
        odd = model_mod.odd_sector_spectrum(p)
        worst = max(worst, np.max(np.abs(even - odd)),
                    np.max(np.abs(even + even[::-1])),
                    abs(model_mod.ground_energy(p) - even[0]))
    return _result("sector degeneracy and spectrum reflection", worst, 1e-10)


def check_energy_decomposition(rng=None):
    """Closed-form term energies match direct matrix elements."""
    gs = ground_state(ModelParams(h=np.arange(0.0, 3.0001, 0.05), k=1.0))
    closed = model_mod.energy_decomposition(gs)
    direct = model_mod.term_expectations(gs)
    worst = _worst(*(abs(getattr(closed, field) - getattr(direct, field))
                     for field in ("total", "site_a", "site_b", "bond_left",
                                   "bond_center", "bond_right")),
                   abs(closed.site_a + closed.interaction + closed.site_b
                       - closed.total))
    return _result("energy decomposition two routes", worst, 1e-12)


def check_protocol_two_routes(rng):
    """Direct matrix elements against the closed forms for the
    measurement cost and both reduction terms, on random parameters."""
    gs, pp = _random_batch(rng, 1000)
    ledger = protocol_mod.run_protocol(gs, pp)
    after_c, injected_c = protocol_mod.measurement_energy_closed(gs, pp)
    site_c, bond_c = protocol_mod.reduction_closed(gs, pp)
    worst = _worst(abs(ledger.after_measurement - after_c),
                   abs(ledger.injected - injected_c),
                   abs(ledger.extracted_site - site_c),
                   abs(ledger.extracted_bond - bond_c),
                   abs(ledger.extracted - ledger.extracted_site
                       - ledger.extracted_bond),
                   np.maximum(0.0, -1e-16 - ledger.injected))
    return _result("protocol two-route agreement (1000 samples)", worst, 1e-12)


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
    worst = 0.0
    for fixed_n in (1, -1):
        site, bond = protocol_mod.no_feedback_reduction(gs, pp, fixed_n)
        worst = _worst(worst, abs(site - site_expect), abs(bond - bond_expect),
                       np.maximum(0.0, site), np.maximum(0.0, bond),
                       abs(ledger.extracted_site - site - gain_site),
                       abs(ledger.extracted_bond - bond - gain_bond))
    return _result("no-feedback control has no correlator gain", worst, 1e-12)


def check_correlators(rng=None):
    """Matrix-element correlators match the amplitude forms and satisfy
    k*xxz - h*xx = -h*yy and |xx| > |yy|."""
    h = np.arange(0.0, 3.0001, 0.05)
    gs = ground_state(ModelParams(h=h, k=1.0))
    meas = protocol_mod.correlators(gs)
    closed = protocol_mod.correlators_closed(gs)
    worst = _worst(abs(meas.xx - closed.xx), abs(meas.yy - closed.yy),
                   abs(meas.xxz - closed.xxz),
                   abs(gs.params.k * meas.xxz - h * meas.xx + h * meas.yy))
    if not np.all(abs(meas.xx) > abs(meas.yy)):
        worst = max(worst, 1.0)
    return _result("correlator identities", worst, 1e-12)


def check_certificates(rng=None):
    """Closed-form optima: protocol evaluation reproduces the certified
    value, the heat vanishes at the extracted optimum and is negative at
    the site optimum for h > 0, and the sinusoid bookkeeping is consistent.

    Residual is reported in units of each quantity's tolerance (1e-12 for
    the heat at the extracted optimum, 1e-10 for the rest)."""
    h = np.arange(0.0, 3.0001, 0.05)
    gs = ground_state(ModelParams(h=h, k=1.0))
    ext = optimize_mod.max_extracted_energy(gs)
    site = optimize_mod.max_site_reduction(gs)
    ledger_ext = protocol_mod.run_protocol(gs, ext.params)
    ledger_site = protocol_mod.run_protocol(gs, site.params)
    c = protocol_mod.correlators_closed(gs)
    # cross-amplitude consistency: (r_y s_x - r_x s_y) h yy
    rx, ry, _ = ext.params.measure_axis
    sx, sy, _ = ext.params.feedback_axis
    residuals = [abs(ledger_ext.extracted - ext.value),
                 abs(ledger_ext.extracted_site - ext.value),
                 abs(ledger_site.extracted_site - site.value),
                 abs(ledger_site.heat - site.bond_reduction),
                 np.maximum(0.0, site.bond_reduction),
                 abs(ext.sin_2theta**2 + ext.cos_2theta**2 - 1.0),
                 abs(ext.cross_amplitude - (ry * sx - rx * sy) * h * c.yy)]
    for cert in (ext, site):
        lhs = cert.amplitude**2 + cert.cross_amplitude**2
        rhs = (cert.value + abs(cert.amplitude)) ** 2
        two_theta = np.arctan2(cert.sin_2theta, cert.cos_2theta)
        residuals += [abs(lhs - rhs) / np.maximum(1.0, abs(rhs)),
                      abs((two_theta + cert.phase + np.pi) % (2.0 * np.pi)
                          - np.pi)]
    heat = _worst(abs(ledger_ext.heat))
    if not np.all(ledger_site.heat[h > 0.0] < 0.0):
        heat = np.inf
    return _result("optimization certificates",
                   max(_worst(*residuals) / 1e-10, heat / 1e-12), 1.0,
                   detail=_RATIO)


def check_random_never_beats_maxima(rng):
    """1000 random protocols stay below both closed-form maxima."""
    gs, pp = _random_batch(rng, 1000)
    ledger = protocol_mod.run_protocol(gs, pp)
    ext = optimize_mod.max_extracted_energy(gs).value
    site = optimize_mod.max_site_reduction(gs).value
    worst = _worst(0.0, ledger.extracted - ext, ledger.extracted_site - site)
    return _result("random protocols never beat the maxima", worst, 1e-12)


def check_monotone_feedback_tilt(rng):
    """The rotation-optimised extracted energy grows with sin^2 xi."""
    worst = 0.0
    for _ in range(12):
        h = rng.uniform(0.05, 2.0)
        gs = ground_state(ModelParams(h=float(h), k=1.0))
        coefficients = optimize_mod.sinusoid_engine(
            gs, optimize_mod.TARGET_EXTRACTED)
        mu = rng.uniform(0.0, np.pi)
        nu = rng.uniform(0.0, 2.0 * np.pi)
        eta = rng.uniform(0.0, 2.0 * np.pi)
        saxes = np.array([ops.axis_vector(xi, eta)
                          for xi in np.linspace(0.0, np.pi / 2.0, 13)])
        a, b, c = coefficients(ops.axis_vector(mu, nu)[None], saxes)
        envelope = a[0] + np.hypot(b[0], c[0])   # max over theta
        worst = max(worst, float(np.max(envelope[:-1] - envelope[1:])))
    return _result("extracted energy monotone in feedback tilt", worst, 1e-10)


def check_brute_force(rng=None, fields=(0.1, 0.5, 1.5),
                      resolution=optimize_mod.MIN_RESOLUTION):
    """Grid oracle agrees with the closed-form maxima, in value and at the
    claimed optimal parameters (so sign errors in the closed-form angles
    cannot hide behind an even power), and its refinement converged.

    The detail reports the range of refinement rounds."""
    worst = 0.0
    unconverged = []
    rounds = []
    for h in fields:
        gs = ground_state(ModelParams(h=float(h), k=1.0))
        for target, closed in (
                (optimize_mod.TARGET_EXTRACTED,
                 optimize_mod.max_extracted_energy),
                (optimize_mod.TARGET_SITE, optimize_mod.max_site_reduction)):
            cert = optimize_mod.brute_force_max(gs, target, resolution)
            closed_cert = closed(gs)
            ledger = protocol_mod.run_protocol(gs, closed_cert.params)
            direct = (ledger.extracted if target == optimize_mod.TARGET_EXTRACTED
                      else ledger.extracted_site)
            worst = max(worst, abs(cert.value - closed_cert.value),
                        abs(direct - closed_cert.value))
            rounds.append(cert.rounds)
            if not (cert.converged and cert.evaluations > cert.rounds > 0):
                unconverged.append(f"h={h:g} {target}")
    detail = f"{min(rounds)}-{max(rounds)} refinement rounds"
    if unconverged:
        return _result("grid oracle matches closed forms", np.inf, 1e-8,
                       detail=f"not converged: {', '.join(unconverged)}; "
                              f"{detail}")
    return _result("grid oracle matches closed forms", worst, 1e-8,
                   detail=detail)


def check_majorana_identities(rng=None):
    """Majorana algebra, the Hamiltonian mapping, and the operator-level
    correlator identities."""
    m = majorana_mod.build_majorana_ops()
    gammas = list(m.b) + list(m.c)
    worst = 0.0
    for i, gi in enumerate(gammas):
        for j, gj in enumerate(gammas):
            target = 2.0 * ops.IDENTITY if i == j else 0.0
            worst = max(worst, ops.operator_norm(gi @ gj + gj @ gi - target))
    parity = ops.parity_operator()
    sx = ops.pauli
    worst = max(
        worst,
        ops.operator_norm(1j * m.b[0] @ m.b[3]
                          - sx(0, "x") @ sx(3, "x") @ (-parity)),
        ops.operator_norm(1j * m.c[0] @ m.c[3] @ parity
                          - sx(0, "y") @ sx(3, "y")),
        ops.operator_norm(1j * m.b[0] @ m.c[2] @ parity
                          - sx(0, "x") @ sx(2, "x") @ sx(3, "z")),
    )
    for h in np.arange(0.0, 3.0001, 0.1):
        p = ModelParams(h=float(h), k=1.0)
        worst = max(worst, majorana_mod.hamiltonian_residual(p))
        gs = ground_state(p)
        mc = majorana_mod.majorana_correlators(gs)
        c = protocol_mod.correlators_closed(gs)
        worst = max(worst, abs(mc.bb + c.xx), abs(mc.cc - c.yy),
                    abs(mc.bc - c.xxz))
    # internal b modes commute with H at h = 0; the edge b does not for h > 0
    H0 = model_mod.build_hamiltonian(ModelParams(h=0.0, k=1.0)).total
    for site in range(4):
        worst = max(worst, ops.operator_norm(H0 @ m.b[site] - m.b[site] @ H0))
    H1 = model_mod.build_hamiltonian(ModelParams(h=1.0, k=1.0)).total
    if ops.operator_norm(H1 @ m.b[0] - m.b[0] @ H1) < 1.0:
        worst = max(worst, 1.0)
    return _result("majorana operator identities", worst, 1e-12)


def check_degenerate_quadruplet(rng=None):
    """All four h = 0 ground states: energies, labels, correlator signs."""
    p = ModelParams(h=0.0, k=1.0)
    gs = ground_state(p)
    H = model_mod.build_hamiltonian(p).total
    c = protocol_mod.correlators_closed(gs)
    worst = 0.0
    states = majorana_mod.degenerate_ground_states(gs)
    parity = ops.parity_operator()
    label = model_mod.build_symmetries().doublet_label
    for (sign_p, sign_r, vec) in states:
        worst = max(
            worst,
            np.linalg.norm(H @ vec - gs.energy * vec),
            np.linalg.norm(parity @ vec - sign_p * vec),
            np.linalg.norm(label @ vec - sign_r * vec),
            abs(np.linalg.norm(vec) - 1.0),
        )
    for (sign_p, sign_r, bb, cc) in majorana_mod.degenerate_sector_table(gs):
        worst = max(worst, abs(bb + sign_p * sign_r * c.xx), abs(cc - c.yy))
    return _result("h = 0 degenerate quadruplet", worst, 1e-10)


def check_chain_against_exact(rng=None):
    """Free-fermion edge correlators and ground energy at L = 4 match the
    spin-model exact values; covariance is antisymmetric and pure."""
    worst = 0.0
    for h in (0.1, 0.5, 1.0, 2.0):
        p = ModelParams(h=float(h), k=1.0)
        gs = ground_state(p)
        c = protocol_mod.correlators_closed(gs)
        spec = chain_mod.build_chain(4, h, 1.0)
        bb, cc = chain_mod.edge_correlators(spec)
        gamma = chain_mod.ground_covariance(spec)
        worst = max(
            worst,
            abs(bb + c.xx), abs(cc - c.yy),
            abs(chain_mod.ground_energy_from_filling(spec) - gs.energy),
            np.linalg.norm(gamma + gamma.T),
            max(0.0, np.linalg.norm(gamma, 2) - 1.0),
        )
    # at h = 0 the b-mode rows of the coupling vanish (exact zero modes)
    spec0 = chain_mod.build_chain(8, 0.0, 1.0)
    worst = max(worst, np.abs(spec0.coupling[[8, 9], :]).max())
    return _result("chain solver vs exact diagonalisation", worst, 1e-10)


def check_chain_field_dependence(rng=None):
    """xx-correlator magnitude: equals 1 in the small-field limit, decreases
    with h, and the decrease steepens with length."""
    worst = 0.0
    lengths = (4, 16, 64)
    limit = chain_mod.correlators_vs_length(0.0, 1.0, lengths)
    worst = max(worst, max(abs(x - 1.0) for x in limit.xx_abs) / 1e-4)
    stable = [abs(chain_mod.edge_correlators(
        chain_mod.build_chain(L, 1e-5, 1.0))[0]) for L in lengths]
    worst = max(worst, max(abs(a - b) for a, b in zip(limit.xx_abs, stable)) / 1e-4)
    h_probe = 0.2
    drops = []
    for L in lengths:
        bb, _ = chain_mod.edge_correlators(chain_mod.build_chain(L, h_probe, 1.0))
        drops.append(1.0 - abs(bb))
    if not (drops[0] < drops[1] < drops[2]):
        worst = max(worst, 1.0)
    return _result("chain field dependence strengthens with length", worst, 1.0)


def check_thermo_states(rng):
    """Reduced states from partial traces match the closed forms."""
    worst = 0.0
    for h, *angles in _random_rounds(rng, 200):
        gs = ground_state(ModelParams(h=float(h), k=1.0))
        z2 = gs.norm**2
        rho_i = thermo_mod.reduced_state_initial(gs)
        expected = 2.0 * z2 * np.diag([1.0 + gs.beta**2, 1.0 + gs.alpha**2])
        worst = max(worst, np.abs(rho_i - expected).max(),
                    abs(np.trace(rho_i).real - 1.0))
        pp = protocol_mod.ProtocolParams(*angles)
        for n in (1, -1):
            rho, prob = thermo_mod.reduced_state_measured(gs, pp, n)
            rho_c, prob_c = thermo_mod.measured_state_closed(
                gs, pp.measure_axis, n)
            worst = max(worst, abs(prob - prob_c))
            if rho is not None and rho_c is not None:
                worst = max(worst, np.abs(rho - rho_c).max())
    return _result("reduced states two routes (200 samples)", worst, 1e-12)


def check_second_law(rng=None):
    """Budget identity, purity identities, first law, and non-negative
    mutual information and divergence.

    Residual is reported in units of each quantity's tolerance (1e-12 for
    the two non-negativity bounds, 1e-10 for the identities)."""
    worst = negative = 0.0
    for h in np.arange(0.05, 3.0001, 0.05):
        gs = ground_state(ModelParams(h=float(h), k=1.0))
        report = thermo_mod.second_law_report(gs)
        g = thermo_mod.measured_state_purity(gs)
        worst = max(
            worst,
            abs(report.bound_rhs - report.site_reduction_max),
            abs(thermo_mod.purity_from_energy(gs) - g),
            abs(thermo_mod.purity_from_entropy(gs) - g),
            abs(report.work + report.heat - report.energy_change),
            abs(report.free_energy_gap - report.divergence / report.beta_eff),
        )
        negative = max(negative, -report.mutual_information,
                       -report.divergence)
    return _result("second-law budget and purity identities",
                   max(worst / 1e-10, negative / 1e-12), 1.0, detail=_RATIO)


def check_entropy_minimization(rng=None):
    """The average measured entropy is minimised by the x axis.

    The angle to the x axis is reported in units of the polar grid
    spacing, the entropy identity in units of 1e-12."""
    worst = 0.0
    for h in (0.1, 0.5, 1.5):
        gs = ground_state(ModelParams(h=h, k=1.0))
        scan = thermo_mod.entropy_minimization_scan(gs, n_polar=64,
                                                    n_azimuth=128)
        cosine = abs(float(scan.best_axis @ np.array([1.0, 0.0, 0.0])))
        angular = np.arccos(np.clip(cosine, -1.0, 1.0))
        worst = max(worst, angular / (np.pi / 63.0))
        x_axis = thermo_mod.average_measured_entropy(gs, (1.0, 0.0, 0.0))
        z_axis = thermo_mod.average_measured_entropy(gs, (0.0, 0.0, 1.0))
        if not z_axis > x_axis:
            worst = max(worst, 10.0)
        lam = thermo_mod.measured_eigenvalues(gs)
        worst = max(worst, abs(x_axis - thermo_mod.entropy_from_eigenvalues(lam))
                    / 1e-12)
    return _result("entropy minimised by the x-axis measurement", worst, 1.0,
                   detail=_RATIO)


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


def run_all(seed: int = 0, resolution: int = optimize_mod.MIN_RESOLUTION):
    """Run every check with a fresh seeded generator; returns the results.

    `resolution` feeds the grid-oracle check only; it is validated before
    any check runs.
    """
    optimize_mod.validate_resolution(resolution)
    results = []
    for fn in CHECKS:
        rng = np.random.default_rng(seed)
        if fn is check_brute_force:
            results.append(fn(rng, resolution=resolution))
        else:
            results.append(fn(rng))
    return results
