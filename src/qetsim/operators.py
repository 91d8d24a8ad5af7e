"""Operators on the four-site spin-1/2 chain A - C1 - C2 - B.

Conventions (fixed once, everything else depends on them):

* Sites are indexed 0..3 in the order A, C1, C2, B.
* The computational basis is labelled by bitstrings b_A b_C1 b_C2 b_B with
  site A as the most significant bit, so basis index = 8 b_A + 4 b_C1 +
  2 b_C2 + b_B.
* The local states are |e> (bit 0) and |f> (bit 1) with sz|e> = -|e> and
  sz|f> = +|f>.  |e> is the vacuum of the lattice fermions introduced in
  :mod:`qetsim.majorana`; |f> is the occupied state.  In this ordering the
  single-site matrices are

      sx = [[0, 1], [1, 0]],  sy = [[0, i], [-i, 0]],  sz = [[-1, 0], [0, 1]],

  which obey the usual algebra sx sy = i sz.  (sy and sz differ by a sign
  from the spin-up-first textbook layout; the fermionic mapping fixes this
  choice.)
"""

from __future__ import annotations

import numpy as np

N_SITES = 4
DIM = 2**N_SITES

SITE_A, SITE_C1, SITE_C2, SITE_B = range(N_SITES)

_LOCAL = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    "z": np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),
}

IDENTITY2 = np.eye(2, dtype=complex)
IDENTITY = np.eye(DIM, dtype=complex)


def kron_all(factors):
    """Kronecker product of 2x2 factors, leftmost factor = site 0 (A)."""
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def local_pauli(axis):
    """Single-site Pauli matrix in the (|e>, |f>) basis."""
    try:
        return _LOCAL[axis].copy()
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None


def site_operator(site, local):
    """Embed a 2x2 operator at `site`, identity elsewhere."""
    if not 0 <= site < N_SITES:
        raise ValueError(f"site must be in 0..{N_SITES - 1}, got {site}")
    factors = [IDENTITY2] * N_SITES
    factors[site] = np.asarray(local, dtype=complex)
    return kron_all(factors)


_PAULI_CACHE = {}


def pauli(site, axis):
    """Pauli operator sigma_site^axis on the full 16-dimensional space.

    Cached and returned read-only; these are hot operators.
    """
    key = (site, axis)
    if key not in _PAULI_CACHE:
        matrix = site_operator(site, local_pauli(axis))
        matrix.flags.writeable = False
        _PAULI_CACHE[key] = matrix
    return _PAULI_CACHE[key]


def string_operator(site):
    """Fermionic string: product of (-sz) over all sites left of `site`."""
    if not 0 <= site < N_SITES:
        raise ValueError(f"site must be in 0..{N_SITES - 1}, got {site}")
    out = IDENTITY.copy()
    for left in range(site):
        out = out @ (-pauli(left, "z"))
    return out


def fermion_annihilation(site):
    """Lattice-fermion annihilation operator with the string attached."""
    lowering = 0.5 * (local_pauli("x") - 1.0j * local_pauli("y"))
    return string_operator(site) @ site_operator(site, lowering)


def parity_operator():
    """Fermion-number parity, the product of sz over all four sites."""
    out = pauli(0, "z")
    for site in range(1, N_SITES):
        out = out @ pauli(site, "z")
    return out


def basis_weight(index):
    """Number of occupied sites (f's) in a basis index."""
    return bin(index).count("1")


def even_parity_indices():
    """Basis indices with an even number of occupied sites."""
    return np.array([i for i in range(DIM) if basis_weight(i) % 2 == 0])


def odd_parity_indices():
    return np.array([i for i in range(DIM) if basis_weight(i) % 2 == 1])


def axis_vector(polar, azimuth):
    """Unit vector (sin p cos a, sin p sin a, cos p)."""
    sp = np.sin(polar)
    return np.array([sp * np.cos(azimuth), sp * np.sin(azimuth), np.cos(polar)])


def expectation(operator, state):
    """Real part of <state|operator|state> for (..., 16) states (states need
    not be normalised)."""
    return (state.conj() * (state @ operator.T)).sum(axis=-1).real


def operator_norm(matrix):
    """Spectral norm over the last two axes, used for operator-identity
    residuals; a stack of matrices gives the array of their norms."""
    return np.linalg.norm(matrix, 2, axis=(-2, -1))
