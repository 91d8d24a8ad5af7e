"""Majorana-fermion picture of the four-site model.

Each lattice fermion f_i (built from the spins by the string construction
in :mod:`qetsim.operators`) splits into two Majorana modes.  The
quadratures alternate along the chain: at sites A and C2

    b = f^dag + f,   c = i (f^dag - f),

while at sites C1 and B the roles are swapped (c is the symmetric
quadrature).  With this assignment the Hamiltonian becomes a pure
c-Majorana hopping chain with b modes attached at the two edges:

    H = i h b_A c_A - i k (c_A c_C1 - c_C1 c_C2 + c_C2 c_B) + i h c_B b_B.

At h = 0 every b mode commutes with H (four zero modes); a finite field
couples only the edge b's.  The protocol correlators are two-point
functions of these modes:

    <i b_A b_B> = -xx,   <i c_A c_B> = yy,   <i b_A c_C2> = xxz,

where the right-hand sides are the spin correlators of
:func:`qetsim.protocol.correlators` and the first identity holds on the
even-parity sector because i b_A b_B = sx_A sx_B (-P) as operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import operators as ops
from .model import GroundState, ModelParams, build_hamiltonian, build_symmetries

# sites whose symmetric quadrature f^dag + f is the b mode
_B_SYMMETRIC_SITES = (ops.SITE_A, ops.SITE_C2)


@dataclass(frozen=True)
class MajoranaOps:
    """The eight Majorana operators on the 16-dimensional space."""

    b: tuple
    c: tuple


@lru_cache(maxsize=None)
def build_majorana_ops() -> MajoranaOps:
    """The eight operators, built once; the arrays are returned read-only."""
    b = [None] * ops.N_SITES
    c = [None] * ops.N_SITES
    for site in range(ops.N_SITES):
        f = ops.fermion_annihilation(site)
        symmetric = f.conj().T + f
        antisymmetric = 1j * (f.conj().T - f)
        if site in _B_SYMMETRIC_SITES:
            b[site], c[site] = symmetric, antisymmetric
        else:
            c[site], b[site] = symmetric, antisymmetric
    for array in b + c:
        array.flags.writeable = False
    return MajoranaOps(b=tuple(b), c=tuple(c))


def majorana_hamiltonian(params: ModelParams) -> np.ndarray:
    """H assembled from the edge-coupled Majorana hopping form; array-valued
    h or k give a stack, as in :func:`qetsim.model.build_hamiltonian`."""
    h, k = (np.asarray(x)[..., None, None] for x in (params.h, params.k))
    m = build_majorana_ops()
    b, c = m.b, m.c
    return (1j * h * b[0] @ c[0]
            - 1j * k * (c[0] @ c[1] - c[1] @ c[2] + c[2] @ c[3])
            + 1j * h * c[3] @ b[3])


def hamiltonian_residual(params: ModelParams):
    """Operator-norm distance between the spin and Majorana constructions,
    per field for array-valued parameters."""
    spin = build_hamiltonian(params).total
    return ops.operator_norm(spin - majorana_hamiltonian(params))


@dataclass(frozen=True)
class MajoranaCorrelators:
    """Edge-mode two-point functions in a parity eigenstate."""

    bb: float   # <i b_A b_B>
    cc: float   # <i c_A c_B>
    bc: float   # <i b_A c_C2>


def majorana_correlators(state: GroundState) -> MajoranaCorrelators:
    """The edge-mode two-point functions; a batch of states gives arrays.
    Every state must be a parity eigenstate."""
    m = build_majorana_ops()
    v = state.vector
    if np.any(abs(abs(ops.expectation(ops.parity_operator(), v)) - 1.0)
              > 1e-10):
        raise ValueError("state is not parity-definite; Majorana edge "
                         "correlators are only meaningful per sector")
    return MajoranaCorrelators(
        bb=ops.expectation(1j * m.b[0] @ m.b[3], v),
        cc=ops.expectation(1j * m.c[0] @ m.c[3], v),
        bc=ops.expectation(1j * m.b[0] @ m.c[2], v),
    )


def degenerate_ground_states(state: GroundState):
    """The four degenerate h = 0 ground states, labelled by the parity
    eigenvalue p and the doublet label r.

    Starting from the closed-form state (p, r) = (+, +), the partners are
    generated by the sector-swap operator Q, by sx_A (= b_A), and by their
    product:

        (+, +) -> |psi>, (+, -) -> Q sx_A |psi>,
        (-, +) -> b_A |psi>, (-, -) -> Q |psi>.
    """
    if state.params.h != 0.0:
        raise ValueError("the fourfold-degenerate quadruplet exists at h = 0 only")
    sym = build_symmetries()
    sx_a = ops.pauli(ops.SITE_A, "x")
    v = state.vector
    return [
        (+1, +1, v),
        (+1, -1, sym.sector_swap @ sx_a @ v),
        (-1, +1, sx_a @ v),
        (-1, -1, sym.sector_swap @ v),
    ]


def degenerate_sector_table(state: GroundState):
    """Rows (p, r, <i b_A b_B>, <i c_A c_B>) over the h = 0 quadruplet.

    The b correlator flips sign with the product p*r while the c correlator
    is the same in all four states.
    """
    m = build_majorana_ops()
    op_bb = 1j * m.b[0] @ m.b[3]
    op_cc = 1j * m.c[0] @ m.c[3]
    rows = []
    for p, r, vec in degenerate_ground_states(state):
        rows.append((p, r, ops.expectation(op_bb, vec),
                     ops.expectation(op_cc, vec)))
    return rows
