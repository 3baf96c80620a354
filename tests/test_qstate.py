import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relqinfo import qstate
from relqinfo.qstate import (DensityMatrix, DimensionError, PureState,
                             SubsystemSplit, ValidationError, concurrence,
                             error_probability, partial_trace, spin_flip,
                             von_neumann_entropy)


def bell_phi_plus():
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


class TestDensityMatrix:
    def test_validation_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_validation_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2))

    def test_validation_rejects_negative_eigenvalues(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_from_pure_and_eigenvalues(self):
        rho = DensityMatrix.from_pure(bell_phi_plus())
        ev = rho.eigenvalues()
        assert ev.min() >= 0
        assert abs(ev.max() - 1.0) < 1e-12


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        rho = DensityMatrix.from_pure(bell_phi_plus())
        out = partial_trace(rho, SubsystemSplit(dims=(2, 2), keep=(0,)))
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12

    def test_product_state_marginal(self):
        v = np.kron([1, 0], [0, 1]).astype(complex)
        out = partial_trace(DensityMatrix.from_pure(v),
                            SubsystemSplit(dims=(2, 2), keep=(0,)))
        assert np.abs(out.matrix - np.diag([1.0, 0.0])).max() < 1e-12

    def test_schmidt_marginal_matches_svd_oracle(self):
        # oracle: marginal eigenvalues are the squared Schmidt coefficients,
        # read off an explicit singular-value decomposition
        rng = np.random.default_rng(42)
        v = qstate.haar_state(6, rng)
        out = partial_trace(DensityMatrix.from_pure(v),
                            SubsystemSplit(dims=(3, 2), keep=(0,)))
        svals = np.linalg.svd(v.reshape(3, 2), compute_uv=False)
        expected = np.sort(svals**2)[::-1]
        got = np.sort(np.linalg.eigvalsh(out.matrix))[::-1]
        assert np.abs(got[:expected.size] - expected).max() < 1e-12
        assert np.abs(got[expected.size:]).max() < 1e-12

    def test_trace_and_positivity_preserved_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            rho = qstate.random_density_matrix(6, rng)
            out = partial_trace(rho, SubsystemSplit(dims=(2, 3), keep=(1,)))
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out.matrix).min() > -1e-12

    def test_dimension_mismatch_is_structural(self):
        rho = DensityMatrix.maximally_mixed(4)
        with pytest.raises(DimensionError):
            partial_trace(rho, SubsystemSplit(dims=(3, 2), keep=(0,)))


class TestEntropy:
    def test_pure_state_has_zero_entropy(self):
        rho = DensityMatrix.from_pure(bell_phi_plus())
        assert von_neumann_entropy(rho) < 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(DensityMatrix.maximally_mixed(2))
                   - np.log(2)) < 1e-12

    def test_diagonal_value_base2(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert abs(von_neumann_entropy(rho, base=2) - 0.8112781244591328) < 1e-12

    def test_additivity_on_products(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = qstate.random_density_matrix(2, rng)
            b = qstate.random_density_matrix(3, rng)
            prod = DensityMatrix(np.kron(a.matrix, b.matrix))
            assert abs(von_neumann_entropy(prod) - von_neumann_entropy(a)
                       - von_neumann_entropy(b)) < 1e-10

    def test_bounded_by_log_dim(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rho = qstate.random_density_matrix(4, rng)
            assert von_neumann_entropy(rho) <= np.log(4) + 1e-12


class TestErrorProbability:
    def test_identical_states(self):
        rho = DensityMatrix.maximally_mixed(2)
        assert abs(error_probability(rho, rho) - 0.5) < 1e-12

    def test_orthogonal_pure_states(self):
        r1 = DensityMatrix(np.diag([1.0, 0.0]))
        r2 = DensityMatrix(np.diag([0.0, 1.0]))
        assert error_probability(r1, r2) < 1e-12

    def test_pure_vs_maximally_mixed(self):
        r1 = DensityMatrix(np.diag([1.0, 0.0]))
        assert abs(error_probability(r1, DensityMatrix.maximally_mixed(2))
                   - 0.25) < 1e-12

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            r1 = qstate.random_density_matrix(3, rng)
            r2 = qstate.random_density_matrix(3, rng)
            p12 = error_probability(r1, r2)
            p21 = error_probability(r2, r1)
            assert abs(p12 - p21) < 1e-12
            assert 0.0 <= p12 <= 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            error_probability(DensityMatrix.maximally_mixed(2),
                              DensityMatrix.maximally_mixed(3))


class TestSpinFlip:
    def test_maximally_mixed_fixed(self):
        rho = DensityMatrix.maximally_mixed(4)
        assert np.abs(spin_flip(rho).matrix - rho.matrix).max() < 1e-14

    def test_phi_plus_fixed(self):
        rho = DensityMatrix.from_pure(bell_phi_plus())
        assert np.abs(spin_flip(rho).matrix - rho.matrix).max() < 1e-14

    def test_01_goes_to_10(self):
        v01 = np.kron([1, 0], [0, 1]).astype(complex)
        v10 = np.kron([0, 1], [1, 0]).astype(complex)
        got = spin_flip(DensityMatrix.from_pure(v01))
        assert np.abs(got.matrix - np.outer(v10, v10.conj())).max() < 1e-14

    def test_involution(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rho = qstate.random_density_matrix(4, rng)
            twice = spin_flip(spin_flip(rho))
            assert np.abs(twice.matrix - rho.matrix).max() < 1e-14

    def test_wrong_dimension(self):
        with pytest.raises(DimensionError):
            spin_flip(DensityMatrix.maximally_mixed(2))


class TestConcurrence:
    def test_maximally_entangled(self):
        assert abs(concurrence(DensityMatrix.from_pure(bell_phi_plus())) - 1.0) < 1e-10

    def test_product_states_vanish(self):
        # sqrt in the spectrum amplifies round-off to ~sqrt(eps)
        rng = np.random.default_rng(15)
        for _ in range(20):
            v = np.kron(qstate.haar_state(2, rng), qstate.haar_state(2, rng))
            assert concurrence(DensityMatrix.from_pure(v)) < 1e-6

    def test_werner_state_against_closed_form(self):
        # oracle: eigenvalue route on the explicit 4x4 matrix; the closed
        # form max(0, (3p-1)/2) cross-checks it
        p = 0.8
        phip = bell_phi_plus()
        rho = DensityMatrix(p * np.outer(phip, phip.conj()) + (1 - p) * np.eye(4) / 4)
        assert abs(concurrence(rho) - 0.7) < 1e-10
        assert abs(concurrence(rho) - max(0.0, (3 * p - 1) / 2)) < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            rho = qstate.random_density_matrix(4, rng)
            u = np.kron(qstate.haar_unitary(2, rng), qstate.haar_unitary(2, rng))
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert abs(concurrence(rotated) - concurrence(rho)) < 1e-10

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), noise=st.floats(0.0, 1.0))
    @example(seed=0, noise=0.0)
    def test_local_unitary_invariance_up_to_purity_one(self, seed, noise):
        """A pure state (noise 0) has three zero l_i; none of them may turn
        round-off into a sqrt(eps)-sized error."""
        rng = np.random.default_rng(seed)
        v = qstate.haar_state(4, rng)
        rho = (1 - noise) * np.outer(v, v.conj()) + noise * np.eye(4) / 4
        u = np.kron(qstate.haar_unitary(2, rng), qstate.haar_unitary(2, rng))
        rotated = DensityMatrix(u @ rho @ u.conj().T)
        assert abs(concurrence(rotated) - concurrence(DensityMatrix(rho))) < 1e-13

    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.2, 0.5, 2 / 3, 0.9, 1.0])
    def test_noisy_singlet_against_closed_form(self, p):
        psim = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        rho = DensityMatrix((1 - p) * np.outer(psim, psim.conj()) + p * np.eye(4) / 4)
        assert abs(concurrence(rho) - max(0.0, 1 - 1.5 * p)) < 1e-13

    def test_non_psd_raw_input_rejected(self):
        with pytest.raises(ValidationError):
            concurrence(np.diag([0.8, 0.5, -0.2, -0.1]))


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 1.0]))
