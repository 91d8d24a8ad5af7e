"""Free-fermion solver for the edge-coupled Majorana chain at any length.

The four-site model generalises to L interior c-Majorana modes with the
same edge construction:

    H = i h b_0 c_0 - i k sum_{l=0}^{L-2} (-1)^l c_l c_{l+1}
        + i h c_{L-1} b_{L-1}.

Interior b modes never couple and are dropped, so the active modes are
gamma = (c_0 .. c_{L-1}, b_0, b_{L-1}) and the Hamiltonian is the
quadratic form H = (i/4) gamma^T A gamma with A real antisymmetric.  A
term i t gamma_a gamma_b contributes A[a, b] = 2 t and A[b, a] = -2 t
under the normalisation gamma^2 = 1.

The couplings form the path b_0 - c_0 - c_1 - ... - c_{L-1} - b_{L-1},
which is bipartite: A vanishes within the modes at even path positions
and within those at odd ones, and the block B = A[odd, even] is upper
bidiagonal, square of size L/2 + 1 for even L.  With the real SVD
B = U diag(s) V^T the ground state fills every negative mode, its energy
is -(1/2) sum(s), and its covariance matrix

    Gamma[j, k] = <i gamma_j gamma_k> - i delta_jk

vanishes within each sublattice, with Gamma[odd, even] = -U V^T and
Gamma[even, odd] = +(U V^T)^T: minus the polar factor of B (the
correlation-matrix method, Peschel, J. Phys. A 36, L205 (2003)).  Edge
correlators of the four-site model are single entries of Gamma:
<i b_0 b_{L-1}> = (U V^T)[-1, 0] and <i c_0 c_{L-1}> = -(U V^T)[0, -1];
at L = 4 they reproduce the even-sector exact-diagonalisation values
including signs.  For odd L, B has one row fewer than columns, one
Majorana mode stays unpaired, and each edge pair sits on one sublattice,
so both edge correlators are exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# effective field used when the edge field is exactly zero: the b modes
# would otherwise be exact zero modes with an ambiguous filling.  The edge
# splitting scales as 2 h^2, so the substitute must keep it well above the
# SVD's absolute resolution (~1e-15 k); 1e-6 leaves three decades of margin
# while biasing the correlators by less than 1e-6
SMALL_FIELD = 1e-6


@dataclass(frozen=True)
class ChainSpec:
    """Length-L chain and its antisymmetric coupling matrix.

    Mode ordering in `coupling`: c_0 .. c_{L-1}, then b_0 (index L) and
    b_{L-1} (index L+1).
    """

    length: int
    h: float
    k: float
    coupling: np.ndarray

    @property
    def index_b_first(self):
        return self.length

    @property
    def index_b_last(self):
        return self.length + 1


def _check_field(h, k):
    if not (math.isfinite(h) and math.isfinite(k)):
        raise ValueError(f"edge field h and coupling k must be finite, "
                         f"got h={h}, k={k}")
    if k <= 0:
        raise ValueError(f"coupling k must be positive, got {k}")
    if h < 0:
        raise ValueError(f"edge field h must be non-negative, got {h}")


def build_chain(length: int, h: float, k: float = 1.0) -> ChainSpec:
    if length < 2:
        raise ValueError(f"chain length must be at least 2, got {length}")
    _check_field(h, k)
    n = length + 2
    a = np.zeros((n, n))

    def add(i, j, t):
        # i t gamma_i gamma_j  ->  A[i, j] += 2 t, antisymmetrised
        a[i, j] += 2.0 * t
        a[j, i] -= 2.0 * t

    add(length, 0, h)                      # i h b_0 c_0
    for l in range(length - 1):
        add(l, l + 1, -k * (-1.0) ** l)    # - i k (-1)^l c_l c_{l+1}
    add(length - 1, length + 1, h)         # i h c_{L-1} b_{L-1}
    return ChainSpec(length=length, h=float(h), k=float(k), coupling=a)


def _sublattice_svd(spec: ChainSpec):
    """(odd, even, U, s, Vt): the chain engine.

    `odd` and `even` index the modes at odd and even positions of the path
    b_0 - c_0 - ... - c_{L-1} - b_{L-1} in the ordering of `coupling`; the
    coupling block between them is B = coupling[odd, even] = U diag(s) Vt.
    B is upper bidiagonal, which LAPACK's reduction to bidiagonal form
    leaves exact; the SVD of the lower-bidiagonal transpose block was off
    by up to 2e-14 in the edge correlators at L >= 400.  Requires h > 0: at
    h = 0 the b modes are exact zero modes with an ambiguous filling.
    """
    if spec.h <= 0:
        raise ValueError("the chain ground state needs h > 0; use a small "
                         "field for the h -> 0 limit")
    path = np.r_[spec.index_b_first, 0:spec.length, spec.index_b_last]
    odd, even = path[1::2], path[0::2]
    u, s, vt = np.linalg.svd(spec.coupling[np.ix_(odd, even)],
                             full_matrices=False)
    return odd, even, u, s, vt


def ground_covariance(spec: ChainSpec) -> np.ndarray:
    """Covariance matrix of the filled-sea ground state; requires h > 0."""
    odd, even, u, _, vt = _sublattice_svd(spec)
    polar = u @ vt
    gamma = np.zeros_like(spec.coupling)
    gamma[np.ix_(odd, even)] = -polar
    gamma[np.ix_(even, odd)] = polar.T
    return gamma


def ground_energy_from_filling(spec: ChainSpec) -> float:
    """Ground energy = minus half the sum of the singular values of B."""
    _, _, _, s, _ = _sublattice_svd(spec)
    return float(-0.5 * s.sum())


def edge_correlators(spec: ChainSpec):
    """(<i b_0 b_{L-1}>, <i c_0 c_{L-1}>) in the filled-sea ground state.

    For odd L both pairs sit on one sublattice, so both are exactly 0.0.
    """
    _, _, u, _, vt = _sublattice_svd(spec)
    if spec.length % 2:
        return 0.0, 0.0
    return float(u[-1] @ vt[:, 0]), float(-u[0] @ vt[:, -1])


@dataclass(frozen=True)
class LengthScan:
    """Edge-correlator magnitudes versus chain length at fixed field.

    `slope` and `r_squared` come from a least-squares line through
    log |<i c_0 c_{L-1}>| versus log L over the even lengths; they are None
    when fewer than two distinct even lengths leave nothing to fit.
    """

    h: float
    k: float
    lengths: tuple
    xx_abs: tuple   # |<i b_0 b_{L-1}>|, the xx-correlator magnitude
    yy_abs: tuple   # |<i c_0 c_{L-1}>|, the yy-correlator magnitude
    slope: float | None
    r_squared: float | None


def correlators_vs_length(h: float, k: float, lengths) -> LengthScan:
    """Edge correlators for each length, plus the power-law fit.

    h = 0 is evaluated at a small substitute field (stable against making
    it smaller; the limit is regular even though exact zero modes are not).
    The fit runs over the even lengths only: odd lengths have structurally
    zero correlators.
    """
    lengths = sorted(int(L) for L in lengths)
    if not lengths:
        raise ValueError("at least one chain length is required")
    if any(L < 2 for L in lengths):
        raise ValueError("chain lengths must be at least 2")
    _check_field(h, k)
    h_eff = h if h > 0 else SMALL_FIELD * k
    xx = []
    yy = []
    for L in lengths:
        bb, cc = edge_correlators(build_chain(L, h_eff, k))
        xx.append(abs(bb))
        yy.append(abs(cc))
    slope = r_squared = None
    fit = [(L, d) for L, d in zip(lengths, yy) if L % 2 == 0]
    if len({L for L, _ in fit}) > 1:
        log_l, log_d = np.log(np.asarray(fit, dtype=float)).T
        slope, intercept = np.polyfit(log_l, log_d, 1)
        fitted = slope * log_l + intercept
        ss_res = float(((log_d - fitted) ** 2).sum())
        ss_tot = float(((log_d - log_d.mean()) ** 2).sum())
        slope = float(slope)
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LengthScan(h=h, k=k, lengths=tuple(lengths), xx_abs=tuple(xx),
                      yy_abs=tuple(yy), slope=slope, r_squared=r_squared)
