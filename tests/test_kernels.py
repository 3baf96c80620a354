import numpy as np
import pytest

from relqinfo import kernels, lorentz
from relqinfo._wigner_np import wigner_su2_batch as numpy_kernel


def random_grid(rng, n, m):
    pvec = rng.normal(scale=0.5, size=(n, 3))
    e = np.sqrt(m * m + np.sum(pvec**2, axis=1))
    return np.column_stack([e, pvec])


def random_lambda(rng):
    lam = lorentz.compose(
        lorentz.boost(0.9 * rng.uniform(-1, 1, 3) / np.sqrt(3)),
        lorentz.rotation(rng.normal(size=3), rng.uniform(0, np.pi)))
    return lam


class TestKernelContract:
    def test_matches_single_point_reference(self):
        rng = np.random.default_rng(61)
        m = 1.0
        P = random_grid(rng, 50, m)
        lam = random_lambda(rng)
        Q, D = kernels.wigner_su2_batch(lam.matrix, P, m)
        for i in range(P.shape[0]):
            w = lorentz.wigner_rotation(lam, P[i], m)
            assert np.abs(D[i] - w.su2).max() < 1e-12
            assert np.abs(Q[i] - lam.apply(P[i])).max() < 1e-12

    def test_numpy_kernel_matches_single_point_reference(self):
        rng = np.random.default_rng(65)
        for m in (1.0, 0.3):
            P = random_grid(rng, 80, m)
            lam = random_lambda(rng)
            _, D = numpy_kernel(lam.matrix, P, m)
            ref = np.array([lorentz.wigner_rotation(lam, p, m).su2 for p in P])
            assert np.abs(D - ref).max() < 1e-12

    def test_su2_unitary_unit_determinant(self):
        rng = np.random.default_rng(62)
        m = 0.7
        P = random_grid(rng, 200, m)
        _, D = kernels.wigner_su2_batch(random_lambda(rng).matrix, P, m)
        eye = np.eye(2)
        for d in D:
            assert np.abs(d @ d.conj().T - eye).max() < 1e-12
            assert abs(np.linalg.det(d) - 1.0) < 1e-12

    def test_outputs_stay_on_shell(self):
        rng = np.random.default_rng(63)
        m = 2.0
        P = random_grid(rng, 100, m)
        Q, _ = kernels.wigner_su2_batch(random_lambda(rng).matrix, P, m)
        shell = Q[:, 0] ** 2 - np.sum(Q[:, 1:] ** 2, axis=1)
        assert np.abs(shell - m * m).max() < 1e-9


@pytest.mark.skipif(kernels.backend_name() != "compiled",
                    reason="compiled kernel not built")
class TestCompiledAgainstNumpy:
    def test_backends_agree(self):
        rng = np.random.default_rng(64)
        m = 1.0
        for _ in range(5):
            P = random_grid(rng, 400, m)
            lam = random_lambda(rng).matrix
            q1, d1 = kernels.wigner_su2_batch(lam, P, m)
            q2, d2 = numpy_kernel(lam, P, m)
            assert np.abs(q1 - q2).max() < 1e-12
            assert np.abs(d1 - d2).max() < 1e-12

    def test_near_pi_rotation_branch(self):
        # exercise the non-trace quaternion branches
        m = 1.0
        p = np.array([[np.cosh(3.0) * m, 0.0, 0.0, np.sinh(3.0) * m]])
        lam = lorentz.compose(lorentz.rotation([1, 0, 0], np.pi - 1e-4),
                              lorentz.boost([0.99, 0, 0])).matrix
        q1, d1 = kernels.wigner_su2_batch(lam, p, m)
        q2, d2 = numpy_kernel(lam, p, m)
        assert np.abs(d1 - d2).max() < 1e-10
