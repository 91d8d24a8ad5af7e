"""Four-site model: Hamiltonian, symmetries, and the exact ground state.

The Hamiltonian is

    H = h sz_A + k (sx_A sx_C1 + sy_C1 sy_C2 + sx_C2 sx_B) + h sz_B,

with coupling k > 0 and edge field h >= 0.  The interaction splits into
bond terms V = H_L + H_C + H_R.  The lowest eigenstate in the even
fermion-parity sector is known in closed form: its energy is the most
negative root of the cubic

    (e + k) (e^2 - 5 k^2) - 4 h^2 (e - k) = 0,

and the state is built from two amplitude ratios alpha, beta and a
normalisation Z with (4 + 2 alpha^2 + 2 beta^2) Z^2 = 1.  These satisfy
k (alpha - beta) = 2 h alpha beta and alpha beta = (e - k)/(e + k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import operators as ops

SQRT5 = np.sqrt(5.0)

# Largest accepted h and k: the characteristic cubic cubes 3k + 2h, which
# overflows float64 near 2.8e102.
MAX_PARAMETER = 1e100


@dataclass(frozen=True)
class ModelParams:
    """Edge field h and coupling k, both in the same energy units."""

    h: float
    k: float = 1.0

    def __post_init__(self):
        if not (abs(self.h) <= MAX_PARAMETER and abs(self.k) <= MAX_PARAMETER):
            raise ValueError(f"edge field h and coupling k must be finite and "
                             f"at most {MAX_PARAMETER:g}, "
                             f"got h={self.h}, k={self.k}")
        if not self.k > 0:
            raise ValueError(f"coupling k must be positive, got {self.k}")
        if self.h < 0:
            raise ValueError(f"edge field h must be non-negative, got {self.h}")


@dataclass(frozen=True)
class HamiltonianTerms:
    """The five named terms of H; `total` and `interaction` are sums."""

    site_a: np.ndarray
    bond_left: np.ndarray
    bond_center: np.ndarray
    bond_right: np.ndarray
    site_b: np.ndarray

    @property
    def interaction(self):
        return self.bond_left + self.bond_center + self.bond_right

    @property
    def total(self):
        return self.site_a + self.interaction + self.site_b


@dataclass(frozen=True)
class SymmetrySet:
    """Conserved / spectrum-shaping operators of the model.

    parity        sz_A sz_C1 sz_C2 sz_B; commutes with H, splits the space
                  into even and odd fermion-number sectors.
    sector_swap   sz_A sz_C1 sx_C2; commutes with H but anticommutes with
                  parity, so it maps each sector onto the degenerate other.
    doublet_label sx_C1 sx_C2; commutes with H and parity, labels the
                  twofold degeneracies of the h = 0 spectrum.
    reflection    sx_A sy_C1 sx_C2 sy_B; anticommutes with H, making each
                  sector's spectrum symmetric under E -> -E.
    """

    parity: np.ndarray
    sector_swap: np.ndarray
    doublet_label: np.ndarray
    reflection: np.ndarray


@dataclass(frozen=True)
class GroundState:
    """Closed-form ground-state record for given (h, k).

    energy  lowest even-sector eigenvalue
    alpha   amplitude ratio of the fully/edge occupied component pair
    beta    amplitude ratio of the fully/edge empty component pair
    norm    normalisation Z > 0
    vector  16-component state in the computational basis
    """

    params: ModelParams
    energy: float
    alpha: float
    beta: float
    norm: float
    vector: np.ndarray


@dataclass(frozen=True)
class GroundEnergies:
    """Ground-state expectation values of the Hamiltonian terms."""

    total: float
    site_a: float
    site_b: float
    interaction: float
    bond_left: float
    bond_center: float
    bond_right: float


@lru_cache(maxsize=512)
def build_hamiltonian(params: ModelParams) -> HamiltonianTerms:
    """The five terms of H; cached, so the arrays are returned read-only."""
    h, k = params.h, params.k
    terms = HamiltonianTerms(
        site_a=h * ops.pauli(0, "z"),
        bond_left=k * ops.pauli(0, "x") @ ops.pauli(1, "x"),
        bond_center=k * ops.pauli(1, "y") @ ops.pauli(2, "y"),
        bond_right=k * ops.pauli(2, "x") @ ops.pauli(3, "x"),
        site_b=h * ops.pauli(3, "z"),
    )
    for array in vars(terms).values():
        array.flags.writeable = False
    return terms


def build_symmetries() -> SymmetrySet:
    return SymmetrySet(
        parity=ops.parity_operator(),
        sector_swap=ops.pauli(0, "z") @ ops.pauli(1, "z") @ ops.pauli(2, "x"),
        doublet_label=ops.pauli(1, "x") @ ops.pauli(2, "x"),
        reflection=ops.pauli(0, "x") @ ops.pauli(1, "y") @ ops.pauli(2, "x")
        @ ops.pauli(3, "y"),
    )


def characteristic_cubic(energy, params: ModelParams):
    """Cubic whose most negative root is the even-sector ground energy."""
    e, h, k = energy, params.h, params.k
    return (e + k) * (e * e - 5.0 * k * k) - 4.0 * h * h * (e - k)


def ground_energy(params: ModelParams) -> float:
    """Most negative root of the characteristic cubic.

    The root lies in [-3k - 2h, -sqrt(5) k]: the cubic is negative at the
    left end, positive at the right end for h > 0, and increasing below the
    bracket, so bisection cannot miss it or pick a different branch.
    """
    h, k = params.h, params.k
    if h == 0.0:
        return -SQRT5 * k
    lo, hi = -3.0 * k - 2.0 * h, -SQRT5 * k
    flo = characteristic_cubic(lo, params)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = characteristic_cubic(mid, params)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo <= 1e-15 * abs(mid):
            break
    return 0.5 * (lo + hi)


def _amplitudes(params: ModelParams, energy):
    h, k = params.h, params.k
    alpha = 2.0 * k / (energy + k - 2.0 * h)
    beta = 2.0 * k / (energy + k + 2.0 * h)
    norm = 1.0 / np.sqrt(4.0 + 2.0 * alpha**2 + 2.0 * beta**2)
    return alpha, beta, norm

# Basis indices of the eight components of the ground state, grouped by
# amplitude: Z * (|eeff> + |efef> + |ffee> + |fefe>)
#          + Z*alpha * (|ffff> + |feef>) + Z*beta * (|eeee> + |effe>).
_UNIT_COMPONENTS = (0b0011, 0b0101, 0b1100, 0b1010)
_ALPHA_COMPONENTS = (0b1111, 0b1001)
_BETA_COMPONENTS = (0b0000, 0b0110)


def _assemble_vector(alpha, beta, norm):
    v = np.zeros(ops.DIM, dtype=complex)
    v[list(_UNIT_COMPONENTS)] = norm
    v[list(_ALPHA_COMPONENTS)] = norm * alpha
    v[list(_BETA_COMPONENTS)] = norm * beta
    return v


def ground_state(params: ModelParams, numeric: bool = False) -> GroundState:
    """Even-sector ground state; closed form by default.

    With ``numeric=True`` the state vector is replaced by the lowest
    eigenvector of the even-sector Hamiltonian block (phase-aligned with
    the closed form) for cross-validation; the scalar record is unchanged.
    """
    energy = ground_energy(params)
    alpha, beta, norm = _amplitudes(params, energy)
    vector = _assemble_vector(alpha, beta, norm)
    if numeric:
        energy_num, vector_num = numeric_ground_state(params)
        overlap = np.vdot(vector_num, vector)
        vector = vector_num * (overlap / abs(overlap))
        energy = energy_num
    return GroundState(params=params, energy=energy, alpha=alpha, beta=beta,
                       norm=norm, vector=vector)


def _sector_block(params: ModelParams, indices):
    H = build_hamiltonian(params).total
    return H[np.ix_(indices, indices)]


def even_sector_spectrum(params: ModelParams) -> np.ndarray:
    """The eight even-sector eigenvalues, ascending."""
    return np.linalg.eigvalsh(_sector_block(params, ops.even_parity_indices()))


def odd_sector_spectrum(params: ModelParams) -> np.ndarray:
    return np.linalg.eigvalsh(_sector_block(params, ops.odd_parity_indices()))


def numeric_ground_state(params: ModelParams):
    """Lowest even-sector eigenpair by dense diagonalisation.

    At h = 0 the lowest even level is twofold degenerate; the tie is broken
    by selecting the eigenvector with doublet label (sx_C1 sx_C2) equal to
    +1, which is the state the closed form describes.
    """
    indices = ops.even_parity_indices()
    block = _sector_block(params, indices)
    vals, vecs = np.linalg.eigh(block)
    degenerate = vals - vals[0] < 1e-10 * max(1.0, params.k)
    sub = vecs[:, degenerate]
    if sub.shape[1] > 1:
        label = build_symmetries().doublet_label[np.ix_(indices, indices)]
        lvals, lvecs = np.linalg.eigh(sub.conj().T @ label @ sub)
        pick = sub @ lvecs[:, np.argmax(lvals)]
    else:
        pick = sub[:, 0]
    vector = np.zeros(ops.DIM, dtype=complex)
    vector[indices] = pick
    return float(vals[0]), vector


def energy_decomposition(state: GroundState) -> GroundEnergies:
    """Term-by-term ground-state energies from the closed forms.

    site_a = site_b = 2 h Z^2 (alpha^2 - beta^2) <= 0 and
    bond_left = bond_right = 4 k Z^2 (alpha + beta) < 0; the centre bond
    carries the remainder.
    """
    h, k = state.params.h, state.params.k
    z2 = state.norm**2
    site = 2.0 * h * z2 * (state.alpha**2 - state.beta**2)
    bond_edge = 4.0 * k * z2 * (state.alpha + state.beta)
    interaction = state.energy - 2.0 * site
    return GroundEnergies(
        total=state.energy,
        site_a=site,
        site_b=site,
        interaction=interaction,
        bond_left=bond_edge,
        bond_right=bond_edge,
        bond_center=interaction - 2.0 * bond_edge,
    )


def term_expectations(state: GroundState) -> GroundEnergies:
    """Same decomposition measured directly as matrix elements."""
    terms = build_hamiltonian(state.params)
    v = state.vector
    site_a = ops.expectation(terms.site_a, v)
    site_b = ops.expectation(terms.site_b, v)
    left = ops.expectation(terms.bond_left, v)
    center = ops.expectation(terms.bond_center, v)
    right = ops.expectation(terms.bond_right, v)
    return GroundEnergies(
        total=site_a + site_b + left + center + right,
        site_a=site_a,
        site_b=site_b,
        interaction=left + center + right,
        bond_left=left,
        bond_center=center,
        bond_right=right,
    )
