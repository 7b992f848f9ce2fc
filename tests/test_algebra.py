import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_teleport import algebra, optics
from qutrit_teleport.errors import DimensionError

from helpers import random_density_matrix

OMEGA = algebra.OMEGA


class TestGellMannBasis:
    def test_index_zero_is_identity(self):
        basis = algebra.GELL_MANN
        assert np.array_equal(basis[0], np.eye(3))

    def test_traceless_hermitian(self):
        for lam in algebra.GELL_MANN[1:]:
            assert abs(np.trace(lam)) < 1e-14
            assert np.abs(lam - lam.conj().T).max() < 1e-14

    def test_orthogonality(self):
        basis = algebra.GELL_MANN
        for i in range(1, 9):
            for j in range(1, 9):
                expected = 2.0 if i == j else 0.0
                assert abs(np.trace(basis[i] @ basis[j]).real - expected) < 1e-12

    def test_lambda5_is_standard(self):
        lam5 = algebra.GELL_MANN[5]
        expected = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]])
        assert np.abs(lam5 - expected).max() == 0.0

    def test_shape(self):
        assert algebra.GELL_MANN.shape == (9, 3, 3)


class TestReadOnlyConstants:
    @pytest.mark.parametrize("name", ["GELL_MANN", "MUB_KETS"])
    def test_array_rejects_writes(self, name):
        constant = getattr(algebra, name)
        before = constant.copy()
        with pytest.raises(ValueError, match="read-only"):
            constant[1] = 0.0
        assert np.array_equal(constant, before)

    def test_bell_labels_reject_writes(self):
        with pytest.raises(TypeError):
            algebra.BELL_LABELS[0] = (1, 1)
        assert algebra.BELL_LABELS == tuple((n, m) for m in range(3) for n in range(3))


class TestWeylOperators:
    @pytest.mark.parametrize("n", range(3))
    @pytest.mark.parametrize("m", range(3))
    def test_unitary(self, n, m):
        u = algebra.weyl_operator(n, m)
        assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-12

    def test_identity_label(self):
        assert np.abs(algebra.weyl_operator(0, 0) - np.eye(3)).max() == 0.0

    def test_clock_operator(self):
        u = algebra.weyl_operator(1, 0)
        assert np.abs(u - np.diag([1, OMEGA, OMEGA**2])).max() < 1e-12

    def test_shift_operator(self):
        u = algebra.weyl_operator(0, 1)
        v = np.zeros(3, dtype=complex)
        v[1] = 1.0
        assert np.abs(u @ v - algebra.ket(0)).max() < 1e-12

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            algebra.weyl_operator(3, 0)


class TestBellStates:
    def test_orthonormal(self):
        states = [algebra.bell_state(n, m) for n, m in algebra.BELL_LABELS]
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.abs(gram - np.eye(9)).max() < 1e-12

    @pytest.mark.parametrize("n", range(3))
    @pytest.mark.parametrize("m", range(3))
    def test_weyl_generates_from_psi00(self, n, m):
        # (U_nm x I) |psi_00> = |psi_nm> up to a global phase
        psi00 = algebra.bell_state(0, 0)
        u = np.kron(algebra.weyl_operator(n, m), np.eye(3))
        overlap = np.vdot(algebra.bell_state(n, m), u @ psi00)
        assert abs(abs(overlap) - 1.0) < 1e-12


class TestMubFamily:
    def test_twelve_states_normalized(self):
        kets = algebra.MUB_KETS
        assert len(kets) == 12
        for k in kets:
            assert abs(np.linalg.norm(k) - 1.0) < 1e-12

    def test_four_orthonormal_bases(self):
        kets = algebra.MUB_KETS
        for b in range(4):
            basis = kets[3 * b : 3 * b + 3]
            gram = np.array([[np.vdot(x, y) for y in basis] for x in basis])
            assert np.abs(gram - np.eye(3)).max() < 1e-12

    def test_cross_overlaps_one_third(self):
        kets = algebra.MUB_KETS
        for b1 in range(4):
            for b2 in range(b1 + 1, 4):
                for x in kets[3 * b1 : 3 * b1 + 3]:
                    for y in kets[3 * b2 : 3 * b2 + 3]:
                        assert abs(abs(np.vdot(x, y)) ** 2 - 1 / 3) < 1e-12


def density_from_bloch(vec):
    """Inverse of ``algebra.bloch_vector``: rho = I/3 + (1/2) sum_a v_a lambda_a."""
    basis = algebra.GELL_MANN
    return np.eye(3) / 3.0 + 0.5 * sum(v * lam for v, lam in zip(vec, basis[1:]))


class TestBlochVector:
    @given(st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_from_components(self, comps):
        rho = density_from_bloch(comps)
        back = algebra.bloch_vector(rho)
        assert np.abs(back - np.array(comps)).max() < 1e-12

    def test_round_trip_random_density(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = random_density_matrix(rng)
            again = density_from_bloch(algebra.bloch_vector(rho))
            assert np.abs(again - rho).max() < 1e-12

    def test_maximally_mixed_is_zero(self):
        assert np.abs(algebra.bloch_vector(np.eye(3) / 3)).max() < 1e-12


class TestFidelity:
    def test_pure_state_self_fidelity(self):
        rng = np.random.default_rng(3)
        psi = algebra.random_pure_state(rng)
        assert abs(algebra.fidelity(algebra.projector(psi), psi) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        assert algebra.fidelity(algebra.projector(algebra.ket(0)), algebra.ket(1)) == 0.0

    def test_projector_stack_equals_outer_products(self):
        kets = algebra.MUB_KETS
        stack = algebra.projector(kets)
        assert stack.shape == (12, 3, 3)
        for psi, proj in zip(kets, stack):
            assert np.array_equal(proj, np.outer(psi, psi.conj()))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            algebra.fidelity(np.eye(3) / 3, np.array([1.0, 0.0]))


class TestValidation:
    def test_check_pure_state_norm(self):
        with pytest.raises(ValueError):
            algebra.check_pure_state(np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_check_pure_state_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            algebra.check_pure_state(np.array([bad, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_check_density_matrix_rejects_non_finite(self, bad):
        rho = np.eye(3, dtype=complex) / 3
        rho[2, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            algebra.check_density_matrix(rho)

    def test_check_density_matrix_rejects_negative(self):
        bad = np.diag([1.5, -0.5, 0.0])
        with pytest.raises(ValueError):
            algebra.check_density_matrix(bad)

    def test_check_density_matrix_rejects_nonhermitian(self):
        bad = np.eye(3, dtype=complex) / 3
        bad[0, 1] = 0.2
        with pytest.raises(ValueError):
            algebra.check_density_matrix(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.diag([1.5, -0.5, 0.0]), "negative eigenvalue"),
            (np.eye(3) / 3 + np.diag([0.0, 0.0, 0.2j]), "not Hermitian"),
            (np.eye(3) / 2, "unit trace"),
        ],
    )
    def test_check_density_matrix_checks_every_state_of_a_stack(self, bad, message):
        good = algebra.projector(algebra.MUB_KETS)
        assert algebra.check_density_matrix(good, dim=3) is not None
        stack = good.copy().astype(complex)
        stack[7] = bad
        with pytest.raises(ValueError, match=message):
            algebra.check_density_matrix(stack.reshape(3, 4, 3, 3), dim=3)

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_check_density_matrix_rejects_non_square(self, shape):
        with pytest.raises(DimensionError, match="must be square"):
            algebra.check_density_matrix(np.ones(shape))


def aux_pairs_needed(dim):
    """Auxiliary entangled pairs for a d-dimensional Bell measurement: ceil(log2 d) - 1."""
    if dim < 2:
        raise DimensionError("dimension must be at least 2")
    return math.ceil(math.log2(dim)) - 1


class TestAuxPairs:
    @pytest.mark.parametrize("dim,expected", [(2, 0), (3, 1), (4, 1), (5, 2), (8, 2), (9, 3)])
    def test_pair_count(self, dim, expected):
        assert aux_pairs_needed(dim) == expected

    def test_invalid_dim(self):
        with pytest.raises(DimensionError):
            aux_pairs_needed(1)

    def test_qutrit_circuit_has_one_aux_pair(self):
        sources = optics.VisibilityModel().tag_vectors()
        assert sum(s.startswith("aux_") for s in sources) == 2 * aux_pairs_needed(3)


class TestRandomStates:
    def test_pure_state_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            psi = algebra.random_pure_state(rng)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_density_matrix_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rho = random_density_matrix(rng)
            algebra.check_density_matrix(rho)
