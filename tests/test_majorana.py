import dataclasses

import numpy as np
import pytest

from qetsim import operators as ops
from qetsim.majorana import (build_majorana_ops, degenerate_ground_states,
                             degenerate_sector_table, hamiltonian_residual,
                             majorana_correlators, majorana_hamiltonian)
from qetsim.model import ModelParams, build_hamiltonian, build_symmetries, \
    ground_state
from qetsim.protocol import correlators_closed

SQRT5 = np.sqrt(5.0)
YY_AT_ZERO_FIELD = -0.447213595499957939


def gs(h, k=1.0):
    return ground_state(ModelParams(h=h, k=k))


class TestOperators:
    def test_cached_operators_are_read_only(self):
        m = build_majorana_ops()
        assert build_majorana_ops() is m
        with pytest.raises(ValueError, match="read-only"):
            m.b[0][0, 0] = 1.0

    def test_string_at_first_site_is_identity(self):
        assert np.allclose(ops.string_operator(0), np.eye(16))

    def test_anticommutation(self):
        m = build_majorana_ops()
        gammas = list(m.b) + list(m.c)
        for i, gi in enumerate(gammas):
            for j, gj in enumerate(gammas):
                anti = gi @ gj + gj @ gi
                target = 2.0 * np.eye(16) if i == j else np.zeros((16, 16))
                assert ops.operator_norm(anti - target) < 1e-12

    def test_edge_bb_product_is_xx_times_parity(self):
        m = build_majorana_ops()
        lhs = 1j * m.b[0] @ m.b[3]
        rhs = ops.pauli(0, "x") @ ops.pauli(3, "x") @ (-ops.parity_operator())
        assert ops.operator_norm(lhs - rhs) < 1e-12

    def test_edge_cc_and_bc_products(self):
        m = build_majorana_ops()
        parity = ops.parity_operator()
        assert ops.operator_norm(
            1j * m.c[0] @ m.c[3] @ parity
            - ops.pauli(0, "y") @ ops.pauli(3, "y")) < 1e-12
        assert ops.operator_norm(
            1j * m.b[0] @ m.c[2] @ parity
            - ops.pauli(0, "x") @ ops.pauli(2, "x") @ ops.pauli(3, "z")) < 1e-12

    def test_distinct_modes_anticommute(self):
        m = build_majorana_ops()
        assert ops.operator_norm(m.b[0] @ m.c[3] + m.c[3] @ m.b[0]) < 1e-12


class TestHamiltonianMapping:
    @pytest.mark.parametrize("h", [0.0, 0.5, 1.0, 2.5])
    def test_residual(self, h):
        assert hamiltonian_residual(ModelParams(h=h)) < 1e-12

    def test_b_modes_are_zero_modes_without_field(self):
        H = build_hamiltonian(ModelParams(h=0.0)).total
        m = build_majorana_ops()
        for site in range(4):
            assert ops.operator_norm(H @ m.b[site] - m.b[site] @ H) < 1e-12

    def test_field_couples_edge_b_mode(self):
        H = build_hamiltonian(ModelParams(h=1.0)).total
        m = build_majorana_ops()
        assert ops.operator_norm(H @ m.b[0] - m.b[0] @ H) > 0.1
        # interior b modes stay decoupled at any field
        for site in (1, 2):
            assert ops.operator_norm(H @ m.b[site] - m.b[site] @ H) < 1e-12

    def test_majorana_form_is_hermitian(self):
        Hm = majorana_hamiltonian(ModelParams(h=0.7))
        assert ops.operator_norm(Hm - Hm.conj().T) < 1e-12


class TestCorrelators:
    def test_zero_field_values(self):
        c = majorana_correlators(gs(0.0))
        assert abs(c.bb + 1.0) < 1e-12
        assert abs(c.cc - YY_AT_ZERO_FIELD) < 1e-12
        assert abs(c.bc) < 1e-12

    @pytest.mark.parametrize("h", [0.0, 0.3, 1.0, 2.8])
    def test_identities_with_spin_correlators(self, h):
        state = gs(h)
        mc = majorana_correlators(state)
        c = correlators_closed(state)
        assert abs(mc.bb + c.xx) < 1e-12
        assert abs(mc.cc - c.yy) < 1e-12
        assert abs(mc.bc - c.xxz) < 1e-12

    def test_parity_indefinite_state_rejected(self):
        state = gs(0.5)
        mixed = state.vector.copy()
        mixed[1] = 0.5  # odd-weight component
        mixed /= np.linalg.norm(mixed)
        with pytest.raises(ValueError):
            majorana_correlators(dataclasses.replace(state, vector=mixed))


class TestDegenerateQuadruplet:
    def test_requires_zero_field(self):
        with pytest.raises(ValueError):
            degenerate_ground_states(gs(0.1))

    def test_states_are_labelled_eigenstates(self):
        state = gs(0.0)
        H = build_hamiltonian(state.params).total
        sym = build_symmetries()
        quad = degenerate_ground_states(state)
        assert len(quad) == 4
        for sign_p, sign_r, vec in quad:
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
            assert np.linalg.norm(H @ vec - (-SQRT5) * vec) < 1e-10
            assert np.linalg.norm(sym.parity @ vec - sign_p * vec) < 1e-10
            assert np.linalg.norm(sym.doublet_label @ vec - sign_r * vec) < 1e-10

    def test_swap_partner_has_odd_parity(self):
        state = gs(0.0)
        quad = {(p, r): vec for p, r, vec in degenerate_ground_states(state)}
        parity = build_symmetries().parity
        assert np.linalg.norm(parity @ quad[(-1, -1)] + quad[(-1, -1)]) < 1e-12

    def test_correlator_signs(self):
        state = gs(0.0)
        c = correlators_closed(state)
        for sign_p, sign_r, bb, cc in degenerate_sector_table(state):
            assert abs(bb + sign_p * sign_r * c.xx) < 1e-10
            assert abs(cc - c.yy) < 1e-10
