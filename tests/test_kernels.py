import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqinfo import kernels, lorentz
from relqinfo.wavepacket import PacketSpec, gaussian_packet


def random_grid(rng, n, m):
    pvec = rng.normal(scale=0.5, size=(n, 3))
    e = np.sqrt(m * m + np.sum(pvec**2, axis=1))
    return np.column_stack([e, pvec])


def random_lambda(rng):
    lam = lorentz.compose(
        lorentz.boost(0.9 * rng.uniform(-1, 1, 3) / np.sqrt(3)),
        lorentz.rotation(rng.normal(size=3), rng.uniform(0, np.pi)))
    return lam


def velocity_form_little_group(lam, p):
    """Oracle for W = L^{-1}(lam p) lam L(p): the canonical boost L(p) is
    the pure boost with velocity p/p0, built here from lorentz.boost's
    velocity form and inverted as a general matrix."""
    q = lam @ p
    Lp = lorentz.boost(p[1:] / p[0]).matrix
    Lq = lorentz.boost(q[1:] / q[0]).matrix
    return np.linalg.inv(Lq) @ lam.matrix @ Lp


def assert_little_group_images(D, lam, P, tol):
    """Each D covers the rotation block of the oracle W (through the
    adjoint map) on the canonical branch Re tr D >= 0."""
    for d, p in zip(D, P):
        W = velocity_form_little_group(lam, p)
        assert np.abs(lorentz.rotation_from_su2(d) - W[1:, 1:]).max() < tol
        assert np.trace(d).real >= 0.0


class TestKernelContract:
    @pytest.mark.parametrize("seed, points, masses", [(61, 50, (1.0,)),
                                                      (65, 80, (1.0, 0.3))])
    def test_matches_single_point_reference(self, seed, points, masses):
        rng = np.random.default_rng(seed)
        for m in masses:
            P = random_grid(rng, points, m)
            lam = random_lambda(rng)
            Q, D = kernels.wigner_su2_batch(lam.matrix, P, m)
            assert_little_group_images(D, lam, P, 1e-12)
            for i in range(P.shape[0]):
                assert np.abs(Q[i] - lam @ P[i]).max() < 1e-12

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


unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 0.1)
rapidities = st.floats(0.0, 5.0)
masses = st.floats(0.1, 10.0)


def hypothesis_lambda(rapidity, boost_axis, rot_axis, angle):
    return lorentz.compose(lorentz.boost(rapidity=rapidity, axis=boost_axis),
                           lorentz.rotation(rot_axis, angle))


def single_point_grid(m, rapidity, direction):
    """The one momentum of a PacketSpec(points=1) packet at rapidity
    `rapidity` along `direction`, shape (1,4)."""
    n = np.asarray(direction) / np.linalg.norm(direction)
    spec = PacketSpec(mass=m, mean_momentum=tuple(m * np.sinh(rapidity) * n),
                      points=1)
    return gaussian_packet(spec).momenta


def round_off_scale(P, Q, m):
    """Round-off in W grows like p0 q0 / m**2."""
    return float((P[:, 0] * Q[:, 0]).max()) / m ** 2


class TestKernelProperties:
    """The spinor kernel against the velocity-form oracle and the
    group law, over rapidities up to 5 (bounds scaled by p0 q0 / m**2)."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=masses, chi_p=rapidities, p_dir=unit_vectors, chi=rapidities,
           boost_axis=unit_vectors, rot_axis=unit_vectors,
           angle=st.floats(0.0, np.pi))
    def test_single_point_grid_matches_oracle(self, m, chi_p, p_dir, chi,
                                              boost_axis, rot_axis, angle):
        lam = hypothesis_lambda(chi, boost_axis, rot_axis, angle)
        P = single_point_grid(m, chi_p, p_dir)
        Q, D = kernels.wigner_su2_batch(lam.matrix, P, m)
        assert np.abs(Q[0] - lam @ P[0]).max() < 1e-14 * Q[0, 0]
        assert_little_group_images(D, lam, P, 2e-13 * round_off_scale(P, Q, m))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(m=masses, chi_p=st.floats(0.0, 2.0), p_dir=unit_vectors,
           chi1=rapidities, axis1=unit_vectors, rot1=unit_vectors,
           chi2=rapidities, axis2=unit_vectors, rot2=unit_vectors,
           angles=st.tuples(st.floats(0.0, np.pi), st.floats(0.0, np.pi)))
    def test_representation_law(self, m, chi_p, p_dir, chi1, axis1, rot1,
                                chi2, axis2, rot2, angles):
        """D(lam2 lam1, p) = +-D(lam2, lam1 p) D(lam1, p): the canonical
        branch of the product may sit on the other sheet."""
        lam1 = hypothesis_lambda(chi1, axis1, rot1, angles[0])
        lam2 = hypothesis_lambda(chi2, axis2, rot2, angles[1])
        P = single_point_grid(m, chi_p, p_dir)
        Q1, D1 = kernels.wigner_su2_batch(lam1.matrix, P, m)
        Q2, D2 = kernels.wigner_su2_batch(lam2.matrix, Q1, m)
        _, D21 = kernels.wigner_su2_batch((lam2 @ lam1).matrix, P, m)
        prod = D2[0] @ D1[0]
        gap = min(np.abs(D21[0] - prod).max(), np.abs(D21[0] + prod).max())
        scale = (round_off_scale(P, Q1, m) + round_off_scale(Q1, Q2, m)
                 + round_off_scale(P, Q2, m))
        assert gap < 2e-13 * scale


def spinor_product_little_group(lam, P, m):
    """Oracle: the images as the spinor product A(q)^{-1} M A(p), with
    A(p) = m + p0 + p.sigma the unnormalized canonical boost image, divided
    by sqrt(det) and put on the Re tr >= 0 branch. Exact algebra, but its
    factors cancel, so round-off grows like p0 q0 / m**2."""
    M = lorentz._sl2c(lam[None])[0]

    def image(k, sign):
        return (m + k[0]) * np.eye(2) + sign * sum(c * s for c, s in zip(k[1:], lorentz._PAULIS))

    D = np.array([image(q, -1.0) @ M @ image(p, 1.0) for p, q in zip(P, P @ lam.T)])
    D /= np.sqrt(np.linalg.det(D))[:, None, None]
    D[np.trace(D, axis1=1, axis2=2).real < 0] *= -1.0
    return D


class TestHalfRapidityForm:
    """The kernel at rapidities up to 30, where a product of spinor factors
    of size e^chi would lose ~eps e^chi: unitarity to round-off, the spinor
    product where that is exact to round-off, and an extended-precision
    closed form."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=masses, chi_p=st.floats(0.0, 1.0), p_dir=unit_vectors,
           chi=st.floats(0.0, 30.0), boost_axis=unit_vectors, rot_axis=unit_vectors,
           angle=st.floats(0.0, np.pi), rotation_first=st.booleans())
    def test_unitary_at_any_rapidity(self, m, chi_p, p_dir, chi, boost_axis,
                                     rot_axis, angle, rotation_first):
        B = lorentz.boost(rapidity=chi, axis=boost_axis)
        R = lorentz.rotation(rot_axis, angle)
        lam = lorentz.compose(B, R) if rotation_first else lorentz.compose(R, B)
        P = single_point_grid(m, chi_p, p_dir)
        _, D = kernels.wigner_su2_batch(lam.matrix, P, m)
        assert np.abs(D[0] @ D[0].conj().T - np.eye(2)).max() <= 1e-14
        assert np.trace(D[0]).real >= 0.0
        if chi <= 2.0:
            ref = spinor_product_little_group(lam.matrix, P, m)[0]
            # either sheet where Re tr D is round-off
            assert min(np.abs(D[0] - ref).max(), np.abs(D[0] + ref).max()) <= 1e-14

    @staticmethod
    def wigner_angle_oracle(chi, axis, P, m):
        """Images of a pure boost in np.longdouble from the textbook angle
        of two composed boosts with Lorentz factors g, g_p and product g_q:
        cos^2(w/2) = (1 + g + g_p + g_q)^2 / [2 (1 + g)(1 + g_p)(1 + g_q)],
        about n x p, so D = cos(w/2) + i sin(w/2) (n x p).sigma / |n x p|.
        All terms are positive: nothing cancels at large chi."""
        ld = np.longdouble
        n, P, m, chi = np.asarray(axis, dtype=ld), np.asarray(P, dtype=ld), ld(m), ld(chi)
        n /= np.sqrt(n @ n)
        g, gp = np.cosh(chi), P[:, 0] / m
        gq = g * gp + np.sinh(chi) * (P[:, 1:] @ n) / m
        c2 = (1 + g + gp + gq) ** 2 / (2 * (1 + g) * (1 + gp) * (1 + gq))
        e = np.cross(n, P[:, 1:])
        e /= np.sqrt(np.sum(e * e, axis=1))[:, None]
        x = np.column_stack([np.sqrt(c2), np.sqrt(1 - c2)[:, None] * e]).astype(float)
        return np.einsum("nk,kij->nij", x, lorentz._QUATERNION)

    @pytest.mark.parametrize("chi, m", [(2.0, 1.0), (20.0, 1.0), (20.0, 0.3), (30.0, 1.0)])
    def test_pure_boost_matches_extended_precision_closed_form(self, chi, m):
        axis = (0.3, -0.2, 0.9)
        P = random_grid(np.random.default_rng(67), 200, m)
        _, D = kernels.wigner_su2_batch(lorentz.boost(rapidity=chi, axis=axis).matrix, P, m)
        assert np.abs(D - self.wigner_angle_oracle(chi, axis, P, m)).max() <= 2e-15

    def test_rotation_part_within_what_the_matrix_carries(self):
        """lam = R B rounded to floats fixes R only to ~eps cosh chi (a
        rotation about R n that small leaves the rounded entries as they
        are); D is U(R) times the closed form within that."""
        chi, axis = 20.0, (0.3, -0.2, 0.9)
        n = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        lam = lorentz.compose(lorentz.rotation(n, 2.0), lorentz.boost(rapidity=chi, axis=axis))
        P = random_grid(np.random.default_rng(68), 200, 1.0)
        _, D = kernels.wigner_su2_batch(lam.matrix, P, 1.0)
        ref = expected_su2(n, 2.0) @ self.wigner_angle_oracle(chi, axis, P, 1.0)
        gap = np.minimum(np.abs(D - ref).max(axis=(1, 2)), np.abs(D + ref).max(axis=(1, 2)))
        assert gap.max() <= 4 * np.finfo(float).eps * np.cosh(chi)


def expected_su2(axis, angle):
    """cos(angle/2) - i sin(angle/2) n.sigma, from the axis-angle form."""
    n = np.asarray(axis, dtype=float)
    n_sigma = sum(c * s for c, s in zip(n, lorentz._PAULIS))
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * n_sigma


# a pure rotation is its own little-group element at every momentum; the
# rest momentum and a boosted one of mass 1
NEAR_PI_GRID = np.array([[1.0, 0.0, 0.0, 0.0],
                         [np.cosh(1.0), *(np.sinh(1.0) * np.array([0.6, 0.0, 0.8]))]])

NEAR_PI = [(axis, angle) for axis in ([1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0])
           for angle in (np.pi, np.pi - 1e-4)]


@pytest.mark.parametrize("axis,angle", NEAR_PI)
class TestShepperdNearPi:
    """Rotations about x, y and z at and just below pi, where the trace
    candidate sigma_a sigma_0 sigma_b of the SL(2,C) image vanishes and one
    of the three others must be taken; about -x, -y and -z the image comes
    out with Re tr D < 0 and must be flipped to the canonical branch."""

    def check(self, d, axis, angle, tol):
        R = lorentz.rotation(axis, angle).matrix[1:, 1:]
        assert np.abs(lorentz.rotation_from_su2(d) - R).max() < tol
        assert np.trace(d).real >= 0.0
        ref = expected_su2(axis, angle)
        if angle < np.pi:
            assert np.abs(d - ref).max() < tol
        else:  # w ~ 0: either sheet of the double cover is canonical
            assert min(np.abs(d - ref).max(), np.abs(d + ref).max()) < tol

    def test_su2_from_rotation(self, axis, angle):
        # U(R), the SU(2) image of lam's rotation part before the kernel
        # picks the canonical branch, so either sheet is accepted
        for n in (np.array(axis), -np.array(axis)):
            d = lorentz._rotation_su2(lorentz.rotation(n, angle).matrix[None])[0]
            ref = expected_su2(n, angle)
            assert min(np.abs(d - ref).max(), np.abs(d + ref).max()) < 1e-12
            assert np.abs(lorentz.rotation_from_su2(d) - lorentz.rotation(n, angle).matrix[1:, 1:]).max() < 1e-12
            # the same rotation written about the opposite axis
            flipped = lorentz._rotation_su2(lorentz.rotation(-n, -angle).matrix[None])[0]
            assert np.abs(flipped - d).max() < 1e-12

    def test_numpy_kernel(self, axis, angle):
        for n in (np.array(axis), -np.array(axis)):
            _, D = kernels.wigner_su2_batch(lorentz.rotation(n, angle).matrix, NEAR_PI_GRID, 1.0)
            for d in D:
                self.check(d, n, angle, 1e-10)

    def test_off_axis_boost_after_rotation(self, axis, angle):
        # the boost moves the grid off the rotation's fixed points, so D is
        # no longer the rotation's own image
        m = 1.0
        P = random_grid(np.random.default_rng(66), 20, m)
        for n in (np.array(axis), -np.array(axis)):
            lam = lorentz.compose(lorentz.boost(rapidity=1.0, axis=(1.0, -2.0, 0.5)),
                                  lorentz.rotation(n, angle))
            _, D = kernels.wigner_su2_batch(lam.matrix, P, m)
            assert_little_group_images(D, lam, P, 1e-12)


@pytest.mark.parametrize("axis", [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
def test_rotation_just_below_pi_keeps_full_precision(axis):
    """At pi - 1e-8 the trace candidate of the SL(2,C) image is ~1e-8 and
    would cost 8 digits; the largest-determinant candidate keeps them."""
    angle = np.pi - 1e-8
    for n in (np.array(axis), -np.array(axis)):
        ref = expected_su2(n, angle)
        _, D = kernels.wigner_su2_batch(lorentz.rotation(n, angle).matrix, NEAR_PI_GRID, 1.0)
        assert np.abs(D - ref).max() < 1e-14


@settings(max_examples=300, deadline=None, derandomize=True)
@given(axis=unit_vectors, gap=st.floats(0.0, 1e-3))
def test_double_cover_near_pi(axis, gap):
    """At angles in [pi - 1e-3, pi] about any axis, the kernel's image of
    the pure rotation is cos(a/2) - i sin(a/2) n.sigma to round-off, and
    the adjoint map returns the rotation. Where cos(a/2) is below
    round-off, Re tr D >= 0 cannot pick a sheet, so either sheet is
    accepted there."""
    n = np.asarray(axis) / np.linalg.norm(axis)
    angle = np.pi - gap
    R = lorentz.rotation(n, angle).matrix[1:, 1:]
    ref = expected_su2(n, angle)
    sheets = (ref, -ref) if np.cos(angle / 2) < 1e-14 else (ref,)
    _, D = kernels.wigner_su2_batch(lorentz.rotation(n, angle).matrix, NEAR_PI_GRID, 1.0)
    for d in D:
        assert min(np.abs(d - s).max() for s in sheets) < 1e-14
        assert np.abs(lorentz.rotation_from_su2(d) - R).max() < 1e-14
        assert abs(np.linalg.det(d) - 1.0) < 1e-14
