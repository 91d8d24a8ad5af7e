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

The couplings form the path b_0 - c_0 - c_1 - ... - c_{L-1} - b_{L-1} of
N = L + 2 modes, which is bipartite: A vanishes within the modes at even
path positions and within those at odd ones, and the block
B = A[odd, even] is upper bidiagonal, square of size N/2 for even L.  The
ground state fills every negative mode, and its covariance matrix

    Gamma[j, k] = <i gamma_j gamma_k> - i delta_jk

vanishes within each sublattice, with Gamma[odd, even] = -Q and
Gamma[even, odd] = +Q^T for the polar factor Q = B (B^T B)^(-1/2) of B
(the correlation-matrix method, Peschel, J. Phys. A 36, L205 (2003)).
Edge correlators of the four-site model are single entries of Gamma:
<i b_0 b_{L-1}> = Q[-1, 0] and <i c_0 c_{L-1}> = -Q[0, -1]; at L = 4 they
reproduce the even-sector exact-diagonalisation values including signs.
For odd L, B has one row fewer than columns, one Majorana mode stays
unpaired, and each edge pair sits on one sublattice, so both edge
correlators are exactly zero.

Two routes compute Q.  `edge_correlators` needs only the two entries and
takes them from the resolvent, Q = (2/pi) int_0^inf B (B^T B + w^2)^(-1) dw.
With the path bonds sigma_p = (-1)^(p+1) A[path_p, path_{p+1}], both
entries are end-to-end entries of the resolvent of a tridiagonal matrix,
in closed form:

    <i b_0 b_{L-1}> = s (2/pi) int_0^inf prod_p |sigma_p| / D(w) dw,
    <i c_0 c_{L-1}> = s (2/pi) int_0^inf w^2 prod_{0<p<N-2} |sigma_p| / D(w) dw,

with D(w) = prod_k (s_k^2 + w^2) over the singular values s_k of B, equal
to p_N of the all-positive recurrence p_j = w p_{j-1} + sigma_{j-2}^2 p_{j-2}
(p_0 = 1, p_1 = w).  All L + 1 bonds sigma_p are negative, which makes the
sign s = (-1)^(L/2+1) for both.  The L - 1 interior bonds share one
magnitude, so the recurrence between the two edge bonds is the power
T^(L-1) of the transfer matrix T = [[w, c^2], [1, 0]].  In units of the
larger of 2h and 2k, with interior bond c and edge bond e,

    D(w) = c^(L-1) [w F_L p_2 + c w^2 F_{L-1} + e^2 F_{L-1} p_2 / c
                    + e^2 w F_{L-2}],   p_2 = w^2 + e^2,

with the Fibonacci polynomials F_m(w/c) = (e^(m phi) - (-1)^m e^(-m phi))
/ (2 cosh phi), sinh phi = w / (2c).  For even L the four terms are
positive, and c^(L-1) cancels against the bond products.  The integrals run
on the trapezoid lattice t_i = i _STEP in t = log w, whose nodes do not
depend on L: the node arrays that depend only on the field (w, phi, (w/e)^2
and the coefficients of the bracket of D(w)) are cached per field and
shared by every length, so a further length costs 18 array operations at
O(1) per node.  Both integrands are positive, which makes the
correlators accurate relative to their own size: over h/k from 1e-6 to 1e4,
k from 1e-3 to 1e3 and even L from 4 to 1000, |xx| and |yy| are within
9e-16 relative of the same integrals at step 1/16 (comment on `_STEP`).
`ground_covariance` and `ground_energy_from_filling` keep the dense SVD
B = U diag(s) V^T, Q = U V^T, as the independent second route that the
checks compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# effective field used when the edge field is exactly zero: the b modes
# would otherwise be exact zero modes with an ambiguous filling.  The edge
# splitting scales as 2 h^2 / k; the SVD route resolves singular values
# only to ~1e-15 k absolute, so 1e-6 keeps the splitting three decades
# above that.  The correlators depend on h through h^2: at 1e-6 they sit
# within ~L h^2 (9e-10 at L = 1000) of the h -> 0 limit
SMALL_FIELD = 1e-6


def effective_field(h, k):
    """The field the chain is solved at: h, or SMALL_FIELD k at h = 0."""
    return h if h > 0 else SMALL_FIELD * k


@dataclass(frozen=True)
class ChainSpec:
    """Length-L chain; its antisymmetric coupling matrix is built on first use.

    Mode ordering in `coupling`: c_0 .. c_{L-1}, then b_0 (index L) and
    b_{L-1} (index L+1).
    """

    length: int
    h: float
    k: float

    @property
    def index_b_first(self):
        return self.length

    @property
    def index_b_last(self):
        return self.length + 1

    @cached_property
    def coupling(self) -> np.ndarray:
        length, h, k = self.length, self.h, self.k
        a = np.zeros((length + 2, length + 2))
        # i t gamma_i gamma_j -> A[i, j] = 2 t, A[j, i] = -2 t for the bonds
        # i h b_0 c_0, -i k (-1)^l c_l c_{l+1} and i h c_{L-1} b_{L-1}
        bulk = np.arange(length - 1)
        i = np.r_[length, bulk, length - 1]
        j = np.r_[0, bulk + 1, length + 1]
        t = np.r_[h, np.where(bulk % 2, k, -k), h]
        a[i, j] += 2.0 * t
        a[j, i] -= 2.0 * t
        return a


def _check_field(h, k):
    # the coupling matrix holds 2h and 2k
    for name, value in (("edge field h", h), ("coupling k", k)):
        if not math.isfinite(2.0 * value):
            raise ValueError(f"{name} must be finite, also when doubled; "
                             f"got {name[-1]}={value}")
    if k <= 0:
        raise ValueError(f"coupling k must be positive, got {k}")
    if h < 0:
        raise ValueError(f"edge field h must be non-negative, got {h}")


def build_chain(length: int, h: float, k: float = 1.0) -> ChainSpec:
    if length < 2:
        raise ValueError(f"chain length must be at least 2, got {length}")
    _check_field(h, k)
    return ChainSpec(length=length, h=float(h), k=float(k))


def _path(spec: ChainSpec):
    """Mode indices along the path b_0 - c_0 - ... - c_{L-1} - b_{L-1}."""
    return np.r_[spec.index_b_first, 0:spec.length, spec.index_b_last]


def _require_field(spec: ChainSpec):
    if spec.h <= 0:
        raise ValueError("the chain ground state needs h > 0; use a small "
                         "field for the h -> 0 limit")


def _sublattice_svd(spec: ChainSpec):
    """(odd, even, U, s, Vt): the SVD route.

    `odd` and `even` index the modes at odd and even positions of the path
    in the ordering of `coupling`; the coupling block between them is
    B = coupling[odd, even] = U diag(s) Vt.  B is upper bidiagonal, which
    LAPACK's reduction to bidiagonal form leaves exact; the SVD of the
    lower-bidiagonal transpose block was off by up to 2e-14 in the edge
    correlators at L >= 400.  Requires h > 0: at h = 0 the b modes are
    exact zero modes with an ambiguous filling.
    """
    _require_field(spec)
    path = _path(spec)
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


# trapezoid step in t = log w, on the lattice t_i = i _STEP: each node is
# one rounding of i times the step, for every L and every field.  Against
# step 1/16 (h/k 0.05 to 2 in steps of 0.05 and 1e-6 to 1e4 log-spaced,
# even L 4 to 1000, k 1e-3 to 1e3) |xx| is within 6.6e-16 relative and
# |yy| within 8.7e-16.  Step 0.25 left |yy| off by up to 5.9e-14 (h/k =
# 0.55, L = 1000): the pole terms alias by ~exp(-pi^2 / step) of their own
# size, and they cancel to a much smaller |yy| in long chains.  A grid from
# np.arange(t0, .., step) is spaced by (t0 + step) - t0, not by the step
# that multiplies the sum, which put a step of 0.1 off by ~1e-14 relative.
_STEP = 0.2
# the grid runs from _MARGIN times a lower bound on the smallest singular
# value to 1/_MARGIN times an upper bound on the largest; beyond both ends
# the integrands are geometric in t, up to relative corrections _MARGIN^2,
# and their tails are summed in closed form
_MARGIN = 1e-6
# end bonds below this fraction of the largest bond are raised to it.  The
# correlators depend on the edge field through h^2 (comment on
# SMALL_FIELD), so they move by ~L 1e-200 relative, which doubles cannot
# show, while the smallest singular value, ~h^2 / k, stays a normal float
_EDGE_FLOOR = 1e-100
# interior bonds below this fraction of the largest (h/k above 1e250) are
# raised to it, so that no bond and no grid node underflows; the edge
# correlators are then below ~1e-250 and are resolved only absolutely
_BOND_FLOOR = 1e-250
# one set of cached node arrays per field serves every chain of up to this
# many rows of B (L below 2^21): it starts at the lowest node any of them
# needs.  A longer chain starts lower and gets its own set
_LATTICE_SIZE = 2 ** 20
# index of the highest lattice node, at or above 2 / _MARGIN (s_max <= 2)
_TOP_INDEX = math.ceil(math.log(2.0 / _MARGIN) / _STEP)


def _log_smallest_singular_bound(c, e, size):
    """Log of a lower bound on the smallest singular value of the upper
    bidiagonal B of `size` rows with diagonal (e, c, .., c, e) and
    superdiagonal c.

    |B^-1[i, j]| = prod_{m=i+1..j} sup[m-1] / prod_{m=i..j} diag[m] is 1/c,
    1/e or c/e^2, and s_min = 1/||B^-1||_2 >= 1/(size max |B^-1[i, j]|);
    all in logarithms.
    """
    log_c, log_e = math.log(c), math.log(e)
    return -max(-log_c, -log_e, log_c - 2.0 * log_e) - math.log(size)


def _lowest_index(c, e, size):
    """Index of the lattice node at or below _MARGIN times the lower bound
    on the smallest singular value of B with `size` rows."""
    return math.floor((_log_smallest_singular_bound(c, e, size)
                       + math.log(_MARGIN)) / _STEP)


@lru_cache(maxsize=8)
def _field_nodes(c, e, lowest):
    """Read-only arrays over the lattice nodes `lowest` .. _TOP_INDEX that
    depend on the bonds c and e but not on L: w, phi, u2 = (w / e)^2 and
    the coefficients of expm1(-2 L phi), 1 + e^(-2 (L-1) phi) and
    expm1(-2 (L-2) phi) in the bracket of `edge_correlators`."""
    w = np.exp(np.arange(lowest, _TOP_INDEX + 1) * _STEP)
    x = w / c
    cosh2 = np.hypot(x, 2.0)   # 2 cosh phi
    exp_phi = 0.5 * (x + cosh2)   # sinh phi + cosh phi
    u2 = (w / e) ** 2
    p2 = 1.0 + u2   # p_2 / e^2
    w_cosh2 = w / cosh2
    nodes = (w, np.arcsinh(0.5 * x), u2, -p2 * w_cosh2 * exp_phi,
             (p2 * (e * e / c) + c * u2) / cosh2, -w_cosh2 / exp_phi)
    for array in nodes:
        array.flags.writeable = False
    return nodes


def edge_correlators(spec: ChainSpec):
    """(<i b_0 b_{L-1}>, <i c_0 c_{L-1}>) in the filled-sea ground state.

    Evaluates the two resolvent integrals of the module docstring with the
    transfer-matrix form of D(w), at a cost per grid node independent of
    L; the node arrays that depend only on the field are cached and shared
    by every length.  For odd L both pairs sit on one sublattice, so both
    are exactly 0.0.
    """
    _require_field(spec)
    length = spec.length
    if length % 2:
        return 0.0, 0.0
    # interior bond c and edge bond e in units of the larger; the grid w
    # runs in the same unit
    top = max(spec.h, spec.k)
    c = max(spec.k / top, _BOND_FLOOR)
    e = max(spec.h / top, _EDGE_FLOOR)
    size = length // 2 + 1
    lowest = _lowest_index(c, e, max(size, _LATTICE_SIZE))
    start = _lowest_index(c, e, size) - lowest
    w, phi, u2, a_top, a_mid, a_low = (
        array[start:] for array in _field_nodes(c, e, lowest))
    # the bracket of D(w) over e^2 e^((L-1) phi), so that no term underflows
    # at the smallest edge bond either: F_m(x) e^(-(L-1) phi) for m = L,
    # L - 1 and L - 2 times their coefficients; no term overflows, and
    # expm1 keeps 1 - e^(-2 m phi) accurate at small phi
    decay = np.exp(-(length - 1) * phi)
    bracket = (a_top * np.expm1(-2 * length * phi)
               + a_mid * (1.0 + decay * decay)
               + a_low * np.expm1(-2 * (length - 2) * phi))
    # integrands in t, w f(w): w e^2 / [..] for xx, w^3 / [..] for yy
    g_xx = w * decay / bracket
    g_yy = g_xx * u2

    def integral(g, rise, fall):
        # trapezoid sum plus the geometric tails g ~ e^(rise t) below the
        # grid and g ~ e^(-fall t) above it, the latter in a form that
        # cannot overflow at any length
        return (2.0 / math.pi) * _STEP * (
            g.sum() + g[0] / math.expm1(rise * _STEP)
            + g[-1] * math.exp(-fall * _STEP) / -math.expm1(-fall * _STEP))

    sign = (-1.0) ** (length // 2 + 1)
    return (float(sign * integral(g_xx, 1, length + 1)),
            float(sign * integral(g_yy, 3, length - 1)))


@dataclass(frozen=True)
class LengthScan:
    """Edge-correlator magnitudes versus chain length at fixed field.

    `slope` and `r_squared` come from a least-squares line through
    log |<i c_0 c_{L-1}>| versus log L over the even lengths with a non-zero
    correlator; they are None when fewer than two distinct such lengths
    leave nothing to fit.
    """

    h: float
    k: float
    lengths: tuple
    xx_abs: tuple   # |<i b_0 b_{L-1}>|, the xx-correlator magnitude
    yy_abs: tuple   # |<i c_0 c_{L-1}>|, the yy-correlator magnitude
    slope: float | None
    r_squared: float | None


def _power_law_fit(points):
    """(slope, r_squared) of the least-squares line through (log L, log d)
    of the (L, d) points, in the centered closed form; r_squared is 1.0
    when every log d is the same."""
    log_l = [math.log(L) for L, _ in points]
    log_d = [math.log(d) for _, d in points]
    mean_l = sum(log_l) / len(log_l)
    mean_d = sum(log_d) / len(log_d)
    dl = [x - mean_l for x in log_l]
    dd = [y - mean_d for y in log_d]
    slope = sum(x * y for x, y in zip(dl, dd)) / sum(x * x for x in dl)
    ss_res = sum((y - slope * x) ** 2 for x, y in zip(dl, dd))
    ss_tot = sum(y * y for y in dd)
    return slope, 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def correlators_vs_length(h: float, k: float, lengths) -> LengthScan:
    """Edge correlators for each length, plus the power-law fit.

    h = 0 is evaluated at a small substitute field (stable against making
    it smaller; the limit is regular even though exact zero modes are not).
    The fit runs over the even lengths only: odd lengths have structurally
    zero correlators.  Even lengths whose |yy| underflowed to 0.0 (huge
    fields) are left out of the fit too.
    """
    lengths = sorted(int(L) for L in lengths)
    if not lengths:
        raise ValueError("at least one chain length is required")
    if any(L < 2 for L in lengths):
        raise ValueError("chain lengths must be at least 2")
    _check_field(h, k)
    h_eff = effective_field(h, k)
    xx = []
    yy = []
    for L in lengths:
        bb, cc = edge_correlators(build_chain(L, h_eff, k))
        xx.append(abs(bb))
        yy.append(abs(cc))
    slope = r_squared = None
    # odd lengths are structural zeros; an even-length |yy| that underflowed
    # to 0.0 has no logarithm
    fit = [(L, d) for L, d in zip(lengths, yy) if L % 2 == 0 and d > 0.0]
    if len({L for L, _ in fit}) > 1:
        slope, r_squared = _power_law_fit(fit)
    return LengthScan(h=h, k=k, lengths=tuple(lengths), xx_abs=tuple(xx),
                      yy_abs=tuple(yy), slope=slope, r_squared=r_squared)
