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

import numpy as np

from . import operators as ops

SQRT5 = np.sqrt(5.0)
_SQRT3 = np.sqrt(3.0)
_EPS = np.finfo(float).eps

# Largest accepted h, k and h/k: the Newton step of the ground-energy root
# cubes x ~ -2 h/k, which overflows float64 near h/k = 2.8e102.  Its inverse
# is the smallest accepted k: below ~1e-309 the closed forms lose accuracy
# (the chain's L = 4 residual against them is 2e-9 at k = 1e-315).
MAX_PARAMETER = 1e100

# Largest h/k of the range in which the closed forms (ground energy,
# amplitudes, correlators and both maxima) keep 1e-13 relative accuracy
# against a 60-digit reference, for k in [1/MAX_PARAMETER, MAX_PARAMETER]
# (tests/test_accuracy.py).  ModelParams accepts the wider range above;
# the `sweep` and `thermo` commands refuse fields outside this one.
MAX_FIELD_RATIO = 1e4


@dataclass(frozen=True)
class ModelParams:
    """Edge field h and coupling k, both in the same energy units; either
    may be an ndarray, for a batch of states (see :class:`GroundState`)."""

    h: float
    k: float = 1.0

    def __post_init__(self):
        (h_lo, h_hi), (k_lo, k_hi) = _extremes(self.h), _extremes(self.k)
        if not (abs(h_lo) <= MAX_PARAMETER and abs(h_hi) <= MAX_PARAMETER
                and abs(k_lo) <= MAX_PARAMETER and abs(k_hi) <= MAX_PARAMETER):
            raise ValueError(f"edge field h and coupling k must be finite and "
                             f"at most {MAX_PARAMETER:g}, "
                             f"got h={self.h}, k={self.k}")
        if not k_lo > 0:
            raise ValueError(f"coupling k must be positive, got {self.k}")
        if h_lo < 0:
            raise ValueError(f"edge field h must be non-negative, got {self.h}")
        # an element over the limit implies h_hi > MAX_PARAMETER k_lo, so
        # the elementwise test is needed only where that scalar one holds
        if (h_hi > MAX_PARAMETER * k_lo
                and np.any(self.h > MAX_PARAMETER * self.k)):
            raise ValueError(f"h/k must be at most {MAX_PARAMETER:g}, "
                             f"got h={self.h}, k={self.k}")
        if k_lo < 1.0 / MAX_PARAMETER:
            raise ValueError(f"coupling k must be finite and in "
                             f"[{1.0 / MAX_PARAMETER:g}, {MAX_PARAMETER:g}], "
                             f"where the closed forms keep their accuracy, "
                             f"got {self.k}")


def _extremes(x):
    """(min, max) of a number or of an array (NaN propagates)."""
    return (x.min(), x.max()) if isinstance(x, np.ndarray) else (x, x)


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
    """Closed-form ground-state record for given (h, k); for array-valued
    parameters each field has their broadcast shape (`vector` plus 16).

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
    """Ground-state expectation values of the Hamiltonian terms (or, from
    :func:`term_expectations`, their matrix elements)."""

    total: float
    site_a: float
    site_b: float
    interaction: float
    bond_left: float
    bond_center: float
    bond_right: float


# the five terms of H at h = k = 1, in field order; build_hamiltonian
# scales them by h (site terms) and k (bonds)
_UNIT_HAMILTONIAN = HamiltonianTerms(
    site_a=ops.pauli(0, "z"),
    bond_left=ops.pauli(0, "x") @ ops.pauli(1, "x"),
    bond_center=ops.pauli(1, "y") @ ops.pauli(2, "y"),
    bond_right=ops.pauli(2, "x") @ ops.pauli(3, "x"),
    site_b=ops.pauli(3, "z"),
)


def build_hamiltonian(params: ModelParams) -> HamiltonianTerms:
    """The five terms of H, read-only; array-valued h or k give stacks of
    shape (..., 16, 16) over their broadcast shape.  Not cached: each call
    scales the unit-coupling terms."""
    h, k = (np.asarray(x)[..., None, None] for x in (params.h, params.k))
    terms = HamiltonianTerms(*(scale * unit for scale, unit in zip(
        (h, k, k, k, h), vars(_UNIT_HAMILTONIAN).values())))
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


def ground_energy(params: ModelParams):
    """Most negative root of the characteristic cubic, e = k x, where x is
    the most negative root of the same cubic in t = h/k,

        x^3 + x^2 - (5 + 4 t^2) x + (4 t^2 - 5) = 0.

    All three roots are real (they are eigenvalues of a real symmetric
    block).  With x = y - 1/3 the cubic becomes y^3 - 3 r^2 y + 4 r^2 -
    280/27, r = hypot(4/3, 2 t / sqrt 3), whose Viete roots are
    y_j = 2 r cos((phi - 2 pi j)/3), j = 0, 1, 2, with cos phi = -2/r +
    140/(27 r^3) in [-0.48, 11/16], well inside the domain of arccos.  The
    j = 2 branch has its cosine in [-1, -1/2] and is the most negative
    root.  Nothing in this form overflows; one Newton step on the cubic
    then brings x to within about an ulp.  At h = 0 the root is -sqrt(5)
    exactly.

    The root lies in [-3k - 2h, -sqrt(5) k]: the cubic is negative at the
    left end, positive at the right end for h > 0, and increasing below
    the bracket.  The bracket is asserted up to 2 ulps of roundoff (above
    h/k ~ 3e16 it is narrower than an ulp of the root), so a wrong branch
    cannot pass silently.  Scalars and arrays take the same numpy path, so
    every element of a batch is the root a scalar call returns.
    """
    h, k = np.asarray(params.h, dtype=float), np.asarray(params.k, dtype=float)
    t = h / k
    r = np.hypot(4.0 / 3.0, t * (2.0 / _SQRT3))
    # np.power, not r**3: a 0-d r would be a numpy scalar, whose ** calls
    # the C library's pow instead of numpy's loop
    phi = np.arccos((140.0 / 27.0) / np.power(r, 3) - 2.0 / r)
    x = 2.0 * r * np.cos((phi + 2.0 * np.pi) / 3.0) - 1.0 / 3.0
    tt = 4.0 * (t * t)
    x = x - ((((x + 1.0) * x - (5.0 + tt)) * x + (tt - 5.0))
             / ((3.0 * x + 2.0) * x - (5.0 + tt)))
    x = np.where(t > 0.0, x, -SQRT5)[()]   # a scalar for a scalar field
    slack = 2.0 * _EPS * abs(x)
    assert ((x >= -3.0 - 2.0 * t - slack) & (x <= slack - SQRT5)).all(), \
        f"root {x} outside the bracket [-3 - 2 h/k, -sqrt(5)]"
    return (k * x)[()]


def _amplitudes(params: ModelParams, energy):
    """alpha, beta and Z of the closed-form state.  beta comes from the
    identity alpha beta = (e - k)/(e + k), not from 2k/(e + k + 2h), whose
    denominator cancels to zero once h/k exceeds ~1e16."""
    h, k = params.h, params.k
    alpha = 2.0 * k / (energy + k - 2.0 * h)
    beta = (energy - k) / ((energy + k) * alpha)
    norm = 1.0 / np.sqrt(4.0 + 2.0 * (alpha * alpha) + 2.0 * (beta * beta))
    return alpha, beta, norm

# Basis indices of the eight components of the ground state, grouped by
# amplitude: Z * (|eeff> + |efef> + |ffee> + |fefe>)
#          + Z*alpha * (|ffff> + |feef>) + Z*beta * (|eeee> + |effe>).
_UNIT_COMPONENTS = np.array([0b0011, 0b0101, 0b1100, 0b1010])
_ALPHA_COMPONENTS = np.array([0b1111, 0b1001])
_BETA_COMPONENTS = np.array([0b0000, 0b0110])


def _assemble_vector(alpha, beta, norm):
    v = np.zeros(np.shape(norm) + (ops.DIM,), dtype=complex)
    # v.T puts the component axis first and reverses the batch axes, as
    # .T does to the amplitudes
    v.T[_UNIT_COMPONENTS] = norm.T
    v.T[_ALPHA_COMPONENTS] = (norm * alpha).T
    v.T[_BETA_COMPONENTS] = (norm * beta).T
    return v


def ground_state(params: ModelParams) -> GroundState:
    """Even-sector ground state in closed form; array-valued h or k give a
    batch of states (see :class:`GroundState`)."""
    energy = ground_energy(params)
    alpha, beta, norm = _amplitudes(params, energy)
    return GroundState(params=params, energy=energy, alpha=alpha, beta=beta,
                       norm=norm, vector=_assemble_vector(alpha, beta, norm))


def _sector_block(params: ModelParams, indices):
    H = build_hamiltonian(params).total
    return H[..., indices[:, None], indices]


def even_sector_spectrum(params: ModelParams) -> np.ndarray:
    """The eight even-sector eigenvalues, ascending, on the last axis."""
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
    carries the remainder.  alpha - beta is taken as 2 (h/k) alpha beta,
    which does not cancel at small h/k.
    """
    h, k = state.params.h, state.params.k
    z2 = state.norm**2
    alpha, beta = state.alpha, state.beta
    site = 2.0 * h * z2 * (2.0 * (h / k) * alpha * beta) * (alpha + beta)
    bond_edge = 4.0 * k * z2 * (alpha + beta)
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


# the unit-coupling terms, each transposed, side by side: for (..., 16) row
# vectors v, v @ _UNIT_TERMS holds the products T v
_UNIT_TERMS = np.concatenate([t.T for t in vars(_UNIT_HAMILTONIAN).values()],
                             axis=1)


def unit_products(v):
    """The products T v of the five unit-coupling terms, in field order
    (site_a, bond_left, bond_center, bond_right, site_b), for (..., 16)
    vectors v; (..., 5, 16).  Scaled by h (site terms) and k (bonds) they
    are the products of the terms of H."""
    return (v @ _UNIT_TERMS).reshape(v.shape[:-1] + (5, ops.DIM))


def apply_hamiltonian(params: ModelParams, v) -> np.ndarray:
    """H v for (..., 16) vectors v, from the products T v scaled by h and k
    (array-valued parameters broadcast); no (..., 16, 16) stack is formed."""
    h, k = (np.asarray(x)[..., None] for x in (params.h, params.k))
    tv = unit_products(v)
    return h * (tv[..., 0, :] + tv[..., 4, :]) + k * tv[..., 1:4, :].sum(-2)


def term_expectations(state: GroundState, vectors=None) -> GroundEnergies:
    """The decomposition measured directly as matrix elements: <v| T |v> for
    every term T of H and (..., 16) vectors v, by default the state's own.

    Unit-coupling matrix elements scaled by the state's h (site terms) and
    k (bonds), so array-valued parameters broadcast against the vectors.
    """
    v = state.vector if vectors is None else vectors
    elements = (unit_products(v) @ v.conj()[..., None])[..., 0].real
    h, k = state.params.h, state.params.k
    site_a, site_b = h * elements[..., 0], h * elements[..., 4]
    left, center, right = (k * elements[..., i] for i in (1, 2, 3))
    return GroundEnergies(total=site_a + site_b + left + center + right,
                          site_a=site_a, site_b=site_b,
                          interaction=left + center + right, bond_left=left,
                          bond_center=center, bond_right=right)
