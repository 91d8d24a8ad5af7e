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

The ground state fills every negative mode of the Hermitian matrix iA and
is fully described by the covariance matrix

    Gamma[j, k] = <i gamma_j gamma_k> - i delta_jk = Re(i (1 - 2 P_neg)),

with P_neg the projector on the negative eigenspace.  Edge correlators of
the four-site model are single entries of Gamma: <i b_0 b_{L-1}> =
Gamma[L, L+1] and <i c_0 c_{L-1}> = Gamma[0, L-1]; at L = 4 they
reproduce the even-sector exact-diagonalisation values including signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# effective field used when the edge field is exactly zero: the b modes
# would otherwise be exact zero modes with an ambiguous filling.  The edge
# splitting scales as 2 h^2, so the substitute must keep it well above the
# eigensolver's resolution (~1e-15 k); 1e-6 leaves three decades of margin
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


def build_chain(length: int, h: float, k: float = 1.0) -> ChainSpec:
    if length < 2:
        raise ValueError(f"chain length must be at least 2, got {length}")
    if k <= 0:
        raise ValueError(f"coupling k must be positive, got {k}")
    if h < 0:
        raise ValueError(f"edge field h must be non-negative, got {h}")
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


def ground_covariance(spec: ChainSpec) -> np.ndarray:
    """Covariance matrix of the filled-sea ground state; requires h > 0."""
    if spec.h <= 0:
        raise ValueError("ground_covariance needs h > 0; use a small field "
                         "for the h -> 0 limit")
    vals, vecs = np.linalg.eigh(1j * spec.coupling)
    neg = vecs[:, vals < 0]
    gamma = 1j * (np.eye(spec.coupling.shape[0]) - 2.0 * neg @ neg.conj().T)
    return gamma.real


def ground_energy_from_filling(spec: ChainSpec) -> float:
    """Ground energy = half the sum of the negative eigenvalues of iA."""
    vals = np.linalg.eigvalsh(1j * spec.coupling)
    return float(0.5 * vals[vals < 0].sum())


def edge_correlators(spec: ChainSpec):
    """(<i b_0 b_{L-1}>, <i c_0 c_{L-1}>) in the filled-sea ground state."""
    gamma = ground_covariance(spec)
    bb = float(gamma[spec.index_b_first, spec.index_b_last])
    cc = float(gamma[0, spec.length - 1])
    return bb, cc


@dataclass(frozen=True)
class LengthScan:
    """Edge-correlator magnitudes versus chain length at fixed field.

    `slope` and `r_squared` come from a least-squares line through
    log |<i c_0 c_{L-1}>| versus log L; they are None when fewer than two
    distinct lengths leave nothing to fit.
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
    """
    lengths = sorted(int(L) for L in lengths)
    if not lengths:
        raise ValueError("at least one chain length is required")
    if any(L < 2 for L in lengths):
        raise ValueError("chain lengths must be at least 2")
    h_eff = h if h > 0 else SMALL_FIELD * k
    xx = []
    yy = []
    for L in lengths:
        bb, cc = edge_correlators(build_chain(L, h_eff, k))
        xx.append(abs(bb))
        yy.append(abs(cc))
    slope = r_squared = None
    if len(set(lengths)) > 1:
        log_l = np.log(np.asarray(lengths, dtype=float))
        log_d = np.log(np.asarray(yy))
        slope, intercept = np.polyfit(log_l, log_d, 1)
        fitted = slope * log_l + intercept
        ss_res = float(((log_d - fitted) ** 2).sum())
        ss_tot = float(((log_d - log_d.mean()) ** 2).sum())
        slope = float(slope)
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LengthScan(h=h, k=k, lengths=tuple(lengths), xx_abs=tuple(xx),
                      yy_abs=tuple(yy), slope=slope, r_squared=r_squared)
