import numpy as np
import pytest

from qetsim import operators as ops
from qetsim.majorana import hamiltonian_residual, majorana_correlators
from qetsim.model import (MAX_PARAMETER, ModelParams, apply_hamiltonian,
                          build_hamiltonian, build_symmetries,
                          energy_decomposition, even_sector_spectrum,
                          ground_energy, ground_state,
                          numeric_ground_state, odd_sector_spectrum,
                          term_expectations)

SQRT5 = np.sqrt(5.0)

# most negative root of the characteristic cubic, frozen from a
# high-precision bisection
ENERGY_H1 = -3.49395920743493412
ENERGY_H05 = -2.68133064360497738

H_GRID = np.arange(0.0, 3.0001, 0.1)


def gs(h, k=1.0):
    return ground_state(ModelParams(h=h, k=k))


class TestPauli:
    def test_sz_on_vacuum(self):
        vac = np.zeros(16, dtype=complex)
        vac[0] = 1.0
        assert np.allclose(ops.pauli(0, "z") @ vac, -vac)

    def test_involution(self):
        sx = ops.pauli(1, "x")
        assert np.allclose(sx @ sx, np.eye(16))

    def test_traceless(self):
        assert abs(np.trace(ops.pauli(1, "y"))) == 0.0

    def test_hermitian_unitary(self):
        for site in range(4):
            for axis in "xyz":
                p = ops.pauli(site, axis)
                assert np.allclose(p, p.conj().T)
                assert np.allclose(p @ p.conj().T, np.eye(16))

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            ops.pauli(4, "x")
        with pytest.raises(ValueError):
            ops.pauli(-1, "z")
        with pytest.raises(ValueError):
            ops.pauli(0, "w")


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(h=0.1, k=0.0)
        with pytest.raises(ValueError):
            ModelParams(h=-0.1, k=1.0)

    @pytest.mark.parametrize("h, k", [(1e-50, 1e-151),
                                      (np.array([0.5, 1e-50]), 1e-151)])
    def test_rejects_field_ratio_above_bound(self, h, k):
        with pytest.raises(ValueError, match="h/k"):
            ModelParams(h=h, k=k)

    def test_ratio_bound_is_elementwise(self):
        # the scalar pre-test h_max > 1e100 k_min passes in both cases; only
        # the elementwise ratio decides
        with pytest.raises(ValueError, match="h/k"):
            ModelParams(h=np.array([1.0, 1e50, 2.0]),
                        k=np.array([1.0, 1e-51, 1.0]))
        params = ModelParams(h=np.array([1e-60, 1e50]),
                             k=np.array([1e-100, 1.0]))
        assert params.h[1] == 1e50

    @pytest.mark.parametrize("h, k", [(np.nan, 1.0), (np.inf, 1.0),
                                      (0.5, np.nan), (0.5, np.inf),
                                      (1e101, 1.0), (0.5, 1e101),
                                      (0.0, 1e-320),
                                      (0.0, np.array([1.0, 1e-101]))])
    def test_rejects_non_finite_field_and_coupling(self, h, k):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(h=h, k=k)


class TestHamiltonian:
    def test_cached_terms_are_read_only(self):
        terms = build_hamiltonian(ModelParams(h=0.4))
        with pytest.raises(ValueError, match="read-only"):
            terms.site_b *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            terms.bond_center[0, 0] = 1.0
        assert build_hamiltonian(ModelParams(h=0.4)).site_b[0, 0] == -0.4

    def test_traceless(self):
        for h in (0.0, 0.3, 2.0):
            H = build_hamiltonian(ModelParams(h=h)).total
            assert abs(np.trace(H)) < 1e-12

    def test_term_sum(self):
        terms = build_hamiltonian(ModelParams(h=0.7))
        rebuilt = (terms.site_a + terms.bond_left + terms.bond_center
                   + terms.bond_right + terms.site_b)
        assert np.allclose(terms.total, rebuilt)

    def test_even_sector_doublets_at_zero_field(self):
        levels = even_sector_spectrum(ModelParams(h=0.0))
        expected = np.array([-SQRT5, -SQRT5, -1.0, -1.0, 1.0, 1.0, SQRT5, SQRT5])
        assert np.allclose(levels, expected, atol=1e-12)

    def test_lowest_even_level_matches_cubic_root(self):
        levels = even_sector_spectrum(ModelParams(h=1.0))
        assert abs(levels[0] - ENERGY_H1) < 1e-12

    def test_doublets_split_monotonically_near_zero_field(self):
        gaps = []
        for h in np.linspace(0.0, 0.3, 7):
            levels = even_sector_spectrum(ModelParams(h=float(h)))
            gaps.append([levels[1] - levels[0], levels[3] - levels[2],
                         levels[5] - levels[4], levels[7] - levels[6]])
        gaps = np.array(gaps)
        assert np.all(np.diff(gaps, axis=0) > -1e-12)
        assert np.allclose(gaps[0], 0.0, atol=1e-12)

    def test_spectrum_fans_out_over_full_sweep(self):
        sweep = np.array([even_sector_spectrum(ModelParams(h=float(h)))
                          for h in np.linspace(0.0, 3.0, 31)])
        assert np.all(np.diff(sweep[:, 0]) < 0.0)   # lowest level descends
        assert np.all(np.diff(sweep[:, -1]) > 0.0)  # highest level climbs


class TestSymmetries:
    def test_algebra(self):
        sym = build_symmetries()
        H = build_hamiltonian(ModelParams(h=0.8)).total
        P, Q, R, S = sym.parity, sym.sector_swap, sym.doublet_label, sym.reflection

        def comm(a, b):
            return ops.operator_norm(a @ b - b @ a)

        def anti(a, b):
            return ops.operator_norm(a @ b + b @ a)

        assert comm(P, H) < 1e-12
        assert comm(Q, H) < 1e-12
        assert anti(P, Q) < 1e-12
        assert comm(R, H) < 1e-12
        assert comm(R, P) < 1e-12
        assert anti(R, Q) < 1e-12
        assert anti(S, H) < 1e-12
        assert comm(P, S) < 1e-12
        for op in (P, Q, R, S):
            assert ops.operator_norm(op @ op - np.eye(16)) < 1e-12

    def test_parity_of_vacuum(self):
        vac = np.zeros(16, dtype=complex)
        vac[0] = 1.0
        assert np.allclose(build_symmetries().parity @ vac, vac)

    def test_spectrum_reflection(self):
        for h in (0.0, 0.5, 2.0):
            levels = even_sector_spectrum(ModelParams(h=h))
            assert np.allclose(levels, -levels[::-1], atol=1e-10)

    def test_sector_swap_matrix_element_vanishes_at_zero_field(self):
        # the sector-swap times sx_A flips the doublet label, so its
        # expectation vanishes in every label-definite even eigenstate
        p = ModelParams(h=0.0)
        indices = ops.even_parity_indices()
        H = build_hamiltonian(p).total[np.ix_(indices, indices)]
        sym = build_symmetries()
        label = sym.doublet_label[np.ix_(indices, indices)]
        swap_x = (sym.sector_swap @ ops.pauli(0, "x"))[np.ix_(indices, indices)]
        vals, vecs = np.linalg.eigh(H)
        start = 0
        while start < 8:
            stop = start + 1
            while stop < 8 and vals[stop] - vals[start] < 1e-10:
                stop += 1
            block = vecs[:, start:stop]
            _, rot = np.linalg.eigh(block.conj().T @ label @ block)
            adapted = block @ rot
            for col in adapted.T:
                assert abs(np.vdot(col, swap_x @ col)) < 1e-12
            start = stop


class TestGroundState:
    def test_zero_field_energy_exact(self):
        assert abs(ground_energy(ModelParams(h=0.0)) + SQRT5) < 1e-12

    def test_zero_field_amplitude_product(self):
        state = gs(0.0)
        assert abs(state.alpha * state.beta - (3.0 + SQRT5) / 2.0) < 1e-12

    def test_pinned_energies(self):
        assert abs(ground_energy(ModelParams(h=1.0)) - ENERGY_H1) < 1e-12
        assert abs(ground_energy(ModelParams(h=0.5)) - ENERGY_H05) < 1e-12

    def test_energy_below_zero_field_limit(self):
        for h in H_GRID[1:]:
            assert ground_energy(ModelParams(h=float(h))) < -SQRT5

    def test_root_finder_wide_range(self):
        for h in (10.0, 50.0, 100.0):
            p = ModelParams(h=h)
            e = ground_energy(p)
            # the root must actually solve the cubic, scaled by its slope
            from qetsim.model import characteristic_cubic
            assert abs(characteristic_cubic(e, p)) < 1e-8 * max(1.0, h**3)

    @pytest.mark.parametrize("k", [1e-100, 1e-50, 1.0, 1e50, 1e100])
    def test_energy_matches_spectrum_at_every_scale(self, k):
        # the root is found in h/k and scaled by k, so tiny and huge scales
        # neither underflow nor overflow
        for ratio in (1e-6, 0.3, 1.0, 40.0):
            if ratio * k > MAX_PARAMETER:
                continue
            p = ModelParams(h=ratio * k, k=k)
            e = ground_energy(p)
            assert abs(e - even_sector_spectrum(p)[0]) <= 1e-14 * abs(e)

    def test_root_at_huge_ratio_stays_in_bracket(self):
        # above h/k ~ 3e16 the bracket [-3k - 2h, -sqrt(5) k] is narrower
        # than an ulp of the root: the root may round just past its left
        # end, and the bracket assertion must still accept it
        for ratio in (1e15, 3.2e16, 1e30, 1e100):
            e = ground_energy(ModelParams(h=ratio, k=1.0))
            assert -3.0 - 2.0 * ratio <= e * (1.0 - 4e-16) and e < -SQRT5
            assert abs(e + 2.0 * ratio) <= 1e-15 * 2.0 * ratio

    @pytest.mark.parametrize("h", [0.0, 0.01, 0.18, 0.5, 1.0, 3.0])
    def test_invariants(self, h):
        state = gs(h)
        k = state.params.k
        assert abs(k * (state.alpha - state.beta)
                   - 2.0 * h * state.alpha * state.beta) < 1e-12
        assert abs((4.0 + 2.0 * state.alpha**2 + 2.0 * state.beta**2)
                   * state.norm**2 - 1.0) < 1e-12
        assert abs(state.alpha * state.beta
                   - (state.energy - k) / (state.energy + k)) < 1e-12
        assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12
        assert np.allclose(ops.parity_operator() @ state.vector, state.vector,
                           atol=1e-12)
        H = build_hamiltonian(state.params).total
        assert np.linalg.norm(H @ state.vector
                              - state.energy * state.vector) < 1e-10


class TestBatch:
    HS = np.array([0.0, 0.02, 0.37, 1.0, 2.9, 40.0])

    def test_batch_equals_scalar_calls(self):
        for k in (1.5, 1e-100, 1e100):
            hs = self.HS[self.HS * k <= MAX_PARAMETER] * k
            batch = ground_state(ModelParams(h=hs, k=k))
            assert batch.vector.shape == (len(hs), 16)
            for i, h in enumerate(hs):
                single = ground_state(ModelParams(h=float(h), k=k))
                for field in ("energy", "alpha", "beta", "norm", "vector"):
                    assert np.array_equal(getattr(batch, field)[i],
                                          getattr(single, field)), (field, h)

    def test_ground_energy_scalar_is_the_batch_element(self):
        # a scalar field makes the cubic's radius a numpy scalar, whose **
        # would call the C library's pow rather than numpy's loop; the root
        # must still be the batch element bit for bit (with r**3 it was an
        # ulp off at h = 0.04045969397320562 k, among others)
        rng = np.random.default_rng(68)
        for k in (1e-3, 1.0, 1e3):
            hs = k * np.append(10.0 ** rng.uniform(-6.0, 4.0, 2000),
                               0.04045969397320562)
            batch = ground_energy(ModelParams(h=hs, k=k))
            scalar = [ground_energy(ModelParams(h=float(h), k=k)) for h in hs]
            assert np.array_equal(batch, scalar), k

    def test_batch_shape_broadcasts(self):
        batch = ground_state(ModelParams(h=self.HS.reshape(2, 3)))
        assert batch.energy.shape == (2, 3)
        assert batch.vector.shape == (2, 3, 16)

    def test_batch_matrix_elements(self):
        batch = ground_state(ModelParams(h=self.HS))
        direct = term_expectations(batch)
        closed = energy_decomposition(batch)
        for field in ("total", "site_a", "site_b", "bond_left", "bond_center",
                      "bond_right"):
            assert np.max(abs(getattr(direct, field)
                              - getattr(closed, field))) < 1e-12

    def test_hamiltonian_and_spectra_match_per_field_calls(self):
        params = ModelParams(h=self.HS)
        terms = build_hamiltonian(params)
        even, odd = even_sector_spectrum(params), odd_sector_spectrum(params)
        assert terms.total.shape == (len(self.HS), 16, 16)
        for i, h in enumerate(self.HS):
            single = ModelParams(h=float(h))
            for field, array in vars(build_hamiltonian(single)).items():
                # the bonds scale with the scalar k: no batch axis
                stack = np.broadcast_to(getattr(terms, field),
                                        terms.total.shape)
                assert np.array_equal(stack[i], array), field
            assert np.array_equal(even[i], even_sector_spectrum(single))
            assert np.array_equal(odd[i], odd_sector_spectrum(single))

    def test_apply_hamiltonian_matches_the_matrix(self):
        for k in (1.5, np.array([0.5, 2.0, 3.0, 1.0, 7.0, 1e3])):
            params = ModelParams(h=self.HS, k=k)
            v = ground_state(params).vector
            matrix = build_hamiltonian(params).total
            hv = apply_hamiltonian(params, v)
            assert hv.shape == v.shape
            assert np.max(abs(hv - (matrix @ v[..., None])[..., 0])) < 1e-12

    def test_majorana_mapping_matches_per_field_calls(self):
        params = ModelParams(h=self.HS)
        residual = hamiltonian_residual(params)
        mc = majorana_correlators(ground_state(params))
        for i, h in enumerate(self.HS):
            single = ModelParams(h=float(h))
            assert np.array_equal(residual[i], hamiltonian_residual(single))
            ref = majorana_correlators(ground_state(single))
            for field in ("bb", "cc", "bc"):
                assert np.array_equal(getattr(mc, field)[i],
                                      getattr(ref, field)), field

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            ModelParams(h=np.array([0.5, -0.1]))
        with pytest.raises(ValueError, match="finite"):
            ModelParams(h=np.array([0.5, np.nan]))
        with pytest.raises(ValueError, match="positive"):
            ModelParams(h=0.5, k=np.array([1.0, 0.0]))


class TestNumericGroundState:
    @pytest.mark.parametrize("h", [0.0, 0.1, 0.73, 2.0])
    def test_overlap_with_closed_form(self, h):
        state = gs(h)
        _, vec = numeric_ground_state(state.params)
        assert 1.0 - abs(np.vdot(vec, state.vector)) < 1e-10

    def test_degenerate_tie_break_label(self):
        _, vec = numeric_ground_state(ModelParams(h=0.0))
        label = build_symmetries().doublet_label
        assert abs(np.vdot(vec, label @ vec) - 1.0) < 1e-10

    def test_numeric_flag(self):
        # the dense route is its own function; ground_state has no flag
        energy, vector = numeric_ground_state(ModelParams(h=0.4))
        reference = gs(0.4)
        assert abs(energy - reference.energy) < 1e-10
        assert abs(np.vdot(vector, reference.vector)) > 0.99

    def test_sector_degeneracy(self):
        for h in H_GRID:
            p = ModelParams(h=float(h))
            assert np.allclose(even_sector_spectrum(p), odd_sector_spectrum(p),
                               atol=1e-10)


class TestEnergyDecomposition:
    def test_zero_field_site_energies_vanish(self):
        e = energy_decomposition(gs(0.0))
        assert e.site_a == 0.0
        assert e.site_b == 0.0

    @pytest.mark.parametrize("h", [0.0, 0.5, 1.3, 3.0])
    def test_against_matrix_elements(self, h):
        state = gs(h)
        closed = energy_decomposition(state)
        direct = term_expectations(state)
        for field in ("total", "site_a", "site_b", "bond_left", "bond_center",
                      "bond_right", "interaction"):
            assert abs(getattr(closed, field) - getattr(direct, field)) < 1e-12

    def test_terms_sum_to_total(self):
        e = energy_decomposition(gs(0.8))
        assert abs(e.site_a + e.interaction + e.site_b - e.total) < 1e-12
        assert e.site_a <= 0.0
        assert e.bond_left < 0.0

    def test_left_bond_matrix_element(self):
        state = gs(0.5)
        terms = build_hamiltonian(state.params)
        direct = ops.expectation(terms.bond_left, state.vector)
        assert abs(energy_decomposition(state).bond_left - direct) < 1e-12
