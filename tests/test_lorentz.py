import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relqinfo import lorentz, photon, selfcheck
from relqinfo._errors import DimensionError, ValidationError
from relqinfo.lorentz import (ETA, aberrate, boost, compose, rotation,
                              rotation_from_su2, standard_boost_massive,
                              standard_boost_massless, wigner_rotation)
from test_kernels import unit_vectors


def random_onshell(rng, m, scale=1.0):
    pvec = rng.normal(scale=scale, size=3)
    return np.array([np.sqrt(m * m + pvec @ pvec), *pvec])


def expm_boost(rapidity, axis):
    """Independent boost construction through the matrix exponential of the
    plain generator, used as an oracle against the closed form."""
    from scipy.linalg import expm
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    K = np.zeros((4, 4))
    K[0, 1:] = n
    K[1:, 0] = n
    return expm(rapidity * K)


class TestConstructors:
    def test_zero_boost_is_identity(self):
        assert np.abs(boost([0, 0, 0]).matrix - np.eye(4)).max() < 1e-15

    def test_full_turn_rotation_is_identity(self):
        assert np.abs(rotation([0, 0, 1], 2 * np.pi).matrix - np.eye(4)).max() < 1e-12

    def test_boost_of_rest_momentum(self):
        lam = boost([0, 0, 0.6])
        out = lam @ [1.0, 0, 0, 0]
        assert np.abs(out - np.array([1.25, 0, 0, 0.75])).max() < 1e-12

    def test_rapidity_velocity_agreement(self):
        lam1 = boost([0.6, 0, 0])
        lam2 = boost(rapidity=np.arctanh(0.6), axis=[1, 0, 0])
        assert np.abs(lam1.matrix - lam2.matrix).max() < 1e-12

    @pytest.mark.parametrize("v", [[1.0, 0, 0], [0.0, 0.9, 0.5], [np.nan, 0, 0]])
    def test_superluminal_rejected(self, v):
        # the scalar boost and any row of a stack, with one message
        speed = r"speed \|v\| = .* must be < 1"
        with pytest.raises(ValidationError, match=speed):
            boost(v)
        with pytest.raises(ValidationError, match=speed):
            lorentz._velocity_boosts(np.array([[0.1, 0, 0], v, [0, 0, 0.2]]))

    def test_velocity_stack_keeps_the_one_velocity_bits(self):
        # every row is the canonical boost of gamma (1, v), with |v|^2 taken
        # as v @ v takes it
        V = np.random.default_rng(5).uniform(-0.57, 0.57, size=(500, 3))
        for v, row in zip(V, lorentz._velocity_boosts(V)):
            p = np.array([1.0, *v]) * (1.0 / np.sqrt(1.0 - float(v @ v)))
            assert np.array_equal(row, lorentz._canonical_boosts(p[None], 1.0)[0])

    @pytest.mark.parametrize("chi", [5.0, 8.0, 10.0, 20.0, 50.0])
    def test_large_rapidity_is_exact(self, chi):
        # built from (cosh chi, sinh chi), not from v = tanh chi
        m = boost(rapidity=chi, axis=[0, 0, 1]).matrix
        assert abs(m[0, 0] / np.cosh(chi) - 1.0) <= 1e-15
        assert abs(m[0, 3] / np.sinh(chi) - 1.0) <= 1e-15

    @pytest.mark.parametrize("chi", [20.0, 25.0, 30.0])
    def test_large_rapidity_boosts_accepted_along_any_axis(self, chi):
        # det L sums products of four entries of size e^chi; the orientation
        # test reads the sign off the O(1) rotation part instead
        for n in np.random.default_rng(8).normal(size=(200, 3)):
            boost(rapidity=chi, axis=n)

    @pytest.mark.parametrize("chi", [0.0, 1.0, 20.0, 30.0])
    @pytest.mark.parametrize("flip", [[1.0, -1.0, -1.0, -1.0], [-1.0, 1.0, 1.0, 1.0],
                                      [-1.0, -1.0, -1.0, -1.0]])
    def test_parity_and_time_reversal_rejected(self, chi, flip):
        B = boost(rapidity=chi, axis=(0.3, -0.2, 0.9)).matrix
        for L in (np.diag(flip) @ B, B @ np.diag(flip)):
            with pytest.raises(ValidationError, match="orthochronous"):
                lorentz.LorentzTransform(L)

    def test_non_finite_matrices_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            lorentz.LorentzTransform(np.full((4, 4), np.nan))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make, match", [
        (lambda: rotation([np.nan, 0.0, 1.0], 0.3), "rotation axis must be finite"),
        (lambda: rotation([np.inf, 0.0, 0.0], 0.3), "rotation axis must be finite"),
        (lambda: rotation([0.0, 0.0, 1.0], np.nan), "rotation angle must be finite"),
        (lambda: rotation([0.0, 0.0, 1.0], -np.inf), "rotation angle must be finite"),
        (lambda: boost(rapidity=np.nan, axis=[0, 0, 1]), "rapidity must be finite"),
        (lambda: boost(rapidity=np.inf, axis=[0, 0, 1]), "rapidity must be finite"),
        (lambda: boost(rapidity=-800.0, axis=[0, 0, 1]), "rapidity must be finite"),
        (lambda: boost(rapidity=1.0, axis=[0.0, np.nan, 1.0]), "boost axis must be finite"),
        (lambda: boost(rapidity=1.0, axis=[0.0, 0.0, np.inf]), "boost axis must be finite"),
        (lambda: boost([np.nan, 0.0, 0.0]), "speed"),
    ])
    def test_non_finite_inputs_rejected_where_they_enter(self, make, match):
        # named before any cos or cosh runs, so numpy warns of nothing
        with pytest.raises(ValidationError, match=match):
            make()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make", [lambda n: rotation(n, np.pi), lambda n: rotation(n, 0.5),
                                      lambda n: boost(rapidity=1.0, axis=n)])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_axes_whose_squared_norm_over_or_underflows(self, make, scale):
        for n in np.eye(3)[0], np.array([0.3, -0.2, 0.9]):
            assert np.abs(make(scale * n).matrix - make(n).matrix).max() <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_largest_rapidity_is_checked_without_overflow(self):
        assert boost(rapidity=lorentz._MAX_RAPIDITY, axis=[0.3, -0.2, 0.9]).matrix[0, 0] > 1e150
        with pytest.raises(ValidationError, match="rapidity"):
            boost(rapidity=np.nextafter(lorentz._MAX_RAPIDITY, np.inf), axis=[0, 0, 1])

    def test_small_metric_defect_rejected(self):
        L = boost([0.1, 0, 0]).matrix.copy()
        L[1, 1] += 1e-6
        with pytest.raises(ValidationError, match="metric"):
            lorentz.LorentzTransform(L)

    def test_metric_preserved_and_inverse(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            lam = compose(boost(0.9 * rng.uniform(-1, 1, 3) / np.sqrt(3)),
                          rotation(rng.normal(size=3), rng.uniform(0, np.pi)))
            m = lam.matrix
            assert np.abs(m.T @ ETA @ m - ETA).max() < 1e-12
            assert np.abs((lam.inverse() @ lam).matrix - np.eye(4)).max() < 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3), chi=st.floats(0.0, 5.0))
    def test_against_exponential_oracle(self, axis, chi):
        """boost() is the canonical boost of gamma (1, v); its entries, and
        their round-off, grow like cosh(chi)**2."""
        assume(np.linalg.norm(axis) > 0.1)
        lam = boost(rapidity=chi, axis=axis)
        assert np.abs(lam.matrix - expm_boost(chi, axis)).max() < 1e-13 * np.cosh(chi) ** 2


class TestStandardBoosts:
    def test_rest_momentum_gives_identity(self):
        lam = standard_boost_massive(np.array([2.0, 0, 0, 0]), 2.0)
        assert np.abs(lam.matrix - np.eye(4)).max() < 1e-14

    def test_z_momentum_is_pure_z_boost(self):
        m, q = 1.0, 0.7
        p = np.array([np.sqrt(m * m + q * q), 0, 0, q])
        lam = standard_boost_massive(p, m)
        oracle = expm_boost(np.arcsinh(q / m), [0, 0, 1])
        assert np.abs(lam.matrix - oracle).max() < 1e-12

    def test_carries_standard_momentum_everywhere(self):
        rng = np.random.default_rng(2)
        m = 0.5
        for _ in range(200):
            p = random_onshell(rng, m)
            got = standard_boost_massive(p, m) @ [m, 0, 0, 0]
            assert np.abs(got - p).max() < 1e-10

    def test_off_shell_rejected(self):
        with pytest.raises(ValidationError):
            standard_boost_massive(np.array([1.0, 0, 0, 0.5]), 1.0)

    @staticmethod
    def criterion_07_momenta(n=1000, m=1.0):
        """The massive draws of selfcheck criterion 07."""
        rng = np.random.default_rng(selfcheck.SEED)
        pvec = rng.normal(scale=0.8, size=(n, 3))
        return np.column_stack([np.sqrt(m * m + np.einsum("ni,ni->n", pvec, pvec)), pvec])

    def test_batched_massive_core_matches_scalar_loop(self):
        P = self.criterion_07_momenta()
        scalar = np.array([standard_boost_massive(p, 1.0).matrix for p in P])
        assert np.array_equal(lorentz._standard_boosts_massive(P, 1.0), scalar)

    def test_scalar_boosts_check_their_matrix_once(self, monkeypatch):
        # the batched core checks the boost; the returned LorentzTransform
        # wraps it without a second check
        calls = []
        check = lorentz._check_transforms

        def counted(L):
            calls.append(len(L))
            return check(L)

        monkeypatch.setattr(lorentz, "_check_transforms", counted)
        lam = standard_boost_massive(np.array([np.sqrt(1.25), 0.0, 0.0, 0.5]), 1.0)
        assert calls == [1]
        standard_boost_massless(np.array([2.0, 0.0, 2.0, 0.0]))
        assert calls == [1, 1]
        assert not lam.matrix.flags.writeable
        with pytest.raises(ValidationError):  # the public constructor still checks
            lorentz.LorentzTransform(np.diag([1.0, 1.0, 1.0, -1.0]))
        assert len(calls) == 3

    @pytest.mark.parametrize("row, m, exc", [
        ([1.0, 0.0, 0.0, 0.5], 1.0, ValidationError),            # off shell
        ([-np.sqrt(1.25), 0.0, 0.0, 0.5], 1.0, ValidationError),  # p0 <= 0
        ([np.sqrt(1.25), 0.0, 0.0, 0.5], 0.0, ValidationError),   # m = 0
        ([np.sqrt(1.25), 0.0, 0.0, 0.5], -1.0, ValidationError),  # m < 0
        ([np.sqrt(1.25), 0.0, 0.5], 1.0, DimensionError),         # not (N, 4)
    ])
    def test_batched_massive_core_raises_scalar_error(self, row, m, exc):
        P = self.criterion_07_momenta(n=6)
        if len(row) == 4:
            P[3] = row
        else:
            P = P[:, 1:]
        with pytest.raises(exc) as scalar:
            standard_boost_massive(np.array(row), m)
        with pytest.raises(exc) as batched:
            lorentz._standard_boosts_massive(P, m)
        if exc is DimensionError:  # each names the shape it expects
            assert "got (3,)" in str(scalar.value)
            assert "got (6, 3)" in str(batched.value)
        else:
            assert str(batched.value) == str(scalar.value)

    def test_massless_standard_momentum_fixed(self):
        lam = standard_boost_massless(np.array([1.0, 0, 0, 1.0]))
        assert np.abs(lam.matrix - np.eye(4)).max() < 1e-12

    def test_massless_energy_rescale(self):
        lam = standard_boost_massless(np.array([2.0, 0, 0, 2.0]))
        out = lam @ [1.0, 0, 0, 1.0]
        assert np.abs(out - np.array([2.0, 0, 0, 2.0])).max() < 1e-12
        # light-cone arithmetic: rapidity log 2 along z
        oracle = expm_boost(np.log(2.0), [0, 0, 1])
        assert np.abs(lam.matrix - oracle).max() < 1e-12

    def test_massless_tilted_is_rotation_times_unit_boost(self):
        th = 0.85
        k = np.array([1.0, np.sin(th), 0.0, np.cos(th)])
        lam = standard_boost_massless(k)
        R = np.eye(4)
        R[1:, 1:] = lorentz._rotation_to_khat_batch(th, 0.0)
        assert np.abs(lam.matrix - R).max() < 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(log_k0=st.floats(-2.0, 4.0), tilt=st.floats(0.0, 1e-6),
           phi=st.floats(0.0, 2 * np.pi))
    def test_massless_near_minus_z(self, log_k0, tilt, phi):
        """Within 1e-6 rad of -z the null standard boost still carries
        (1,0,0,1) onto k, to the round-off of its z boost (~cosh ln k0), and
        its transverse columns stay orthonormal and transversal to k."""
        k0, theta = 10.0 ** log_k0, np.pi - tilt
        khat = np.array([np.sin(theta) * np.cos(phi),
                         np.sin(theta) * np.sin(phi), np.cos(theta)])
        k = k0 * np.array([1.0, *khat])
        L = standard_boost_massless(k).matrix
        assert np.abs(L @ [1.0, 0.0, 0.0, 1.0] - k).max() <= 1e-15 * (k0 + 1 / k0)
        T = L[1:, 1:3]
        assert np.abs(T.T @ T - np.eye(2)).max() < 1e-15
        assert np.abs(khat @ T).max() < 1e-15

    def test_massless_carries_standard_momentum(self):
        rng = np.random.default_rng(3)
        ks = np.array([1.0, 0, 0, 1.0])
        for _ in range(200):
            nvec = rng.normal(size=3)
            nvec /= np.linalg.norm(nvec)
            e = rng.uniform(0.1, 5.0)
            k = np.array([e, *(e * nvec)])
            got = standard_boost_massless(k) @ ks
            assert np.abs(got - k).max() < 1e-10


def extended_little_group(lam, p, m):
    """Oracle for the rotation block of W = L^{-1}(lam p) lam L(p) in
    extended precision (np.longdouble): full 4x4 canonical boosts, p0 and
    q0 recomputed on shell, exact inverse eta L^T eta."""
    ld = np.longdouble
    lam, m = np.asarray(lam, dtype=ld), ld(m)
    pvec = np.asarray(p[1:], dtype=ld)

    def canonical(v):
        e = np.sqrt(m * m + v @ v)
        L = np.empty((4, 4), dtype=ld)
        L[0, 0], L[0, 1:], L[1:, 0] = e / m, v / m, v / m
        L[1:, 1:] = np.eye(3, dtype=ld) + np.outer(v, v) / (m * (m + e))
        return L

    Lp = canonical(pvec)
    Lq = canonical((lam @ Lp[:, 0] * m)[1:])
    eta = np.diag(np.array([1, -1, -1, -1], dtype=ld))
    return (eta @ Lq.T @ eta @ lam @ Lp)[1:, 1:].astype(float)


class TestWignerRotation:
    def test_pure_rotation_passes_through(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ang = rng.uniform(0, np.pi)
            axis = rng.normal(size=3)
            lam = rotation(axis, ang)
            p = random_onshell(rng, 1.0)
            w = wigner_rotation(lam, p, 1.0)
            assert np.abs(w.rotation - lam.matrix[1:, 1:]).max() < 1e-10

    def test_collinear_boost_is_trivial(self):
        p = np.array([np.sqrt(1 + 0.25), 0, 0, 0.5])
        w = wigner_rotation(boost([0, 0, 0.6]), p, 1.0)
        assert abs(w.angle) < 1e-12
        assert np.abs(w.su2 - np.eye(2)).max() < 1e-12

    def test_perpendicular_boosts_against_product_oracle(self):
        # oracle: the same little-group element assembled from expm-built
        # boost matrices, bypassing the closed-form constructors
        m = 1.0
        p = expm_boost(1.0, [0, 0, 1]) @ np.array([m, 0, 0, 0])
        lam = boost(rapidity=1.0, axis=[1, 0, 0])
        w = wigner_rotation(lam, p, m)

        Lp = expm_boost(1.0, [0, 0, 1])
        q = lam.matrix @ p
        rap_q = np.arccosh(q[0] / m)
        nq = q[1:] / np.linalg.norm(q[1:])
        Lq = expm_boost(rap_q, nq)
        Woracle = np.linalg.inv(Lq) @ lam.matrix @ Lp
        assert np.abs(w.rotation - Woracle[1:, 1:]).max() < 1e-10
        # rotation is about the y axis
        assert abs(abs(w.axis[1]) - 1.0) < 1e-10

    def test_orthogonality_of_spatial_block(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            lam = compose(boost(0.9 * rng.uniform(-1, 1, 3) / np.sqrt(3)),
                          rotation(rng.normal(size=3), rng.uniform(0, np.pi)))
            w = wigner_rotation(lam, random_onshell(rng, 1.0), 1.0)
            assert np.abs(w.rotation @ w.rotation.T - np.eye(3)).max() < 1e-10

    def test_large_momentum_and_rapidity_accepted(self):
        # D is unitary to round-off at any rapidity, so the unscaled
        # TOL_UNITARY check holds at |p| = 1e4 under a chi = 25 boost
        p = np.array([np.sqrt(1.0 + 1e8), 6e3, 0.0, 8e3])
        B = boost(rapidity=25.0, axis=(0.3, -0.2, 0.9))
        R = rotation([1.0, 2.0, 3.0], 2.0)
        for lam in (B, compose(B, R), compose(R, B)):
            w = wigner_rotation(lam, p, 1.0)
            assert np.abs(w.su2 @ w.su2.conj().T - np.eye(2)).max() < 1e-14
            assert np.abs(w.rotation @ w.rotation.T - np.eye(3)).max() < 1e-14

    @pytest.mark.parametrize("pmag", [1e2, 1e3, 3e3, 1e4])
    def test_large_momenta_accepted_and_match_extended_oracle(self, pmag):
        """Valid on-shell momenta up to |p| = 1e4 at m = 1 are accepted; the
        oracle's round-off grows like p0 q0 / m**2, so the comparison scales
        with it."""
        rng = np.random.default_rng(7)
        m = 1.0
        for lam in (boost([0.5, 0, 0]),
                    compose(boost([0.3, -0.4, 0.2]), rotation([1, 2, 3], 2.0))):
            for _ in range(5):
                n = rng.normal(size=3)
                p = np.array([np.sqrt(m * m + pmag ** 2), *(pmag * n / np.linalg.norm(n))])
                w = wigner_rotation(lam, p, m)
                scale = p[0] * (lam @ p)[0] / m ** 2
                W = extended_little_group(lam.matrix, p, m)
                assert np.abs(w.rotation - W).max() < 1e-13 * scale
                assert np.abs(rotation_from_su2(w.su2) - W).max() < 1e-13 * scale
                L = standard_boost_massive(p, m).matrix
                assert np.abs(L @ [m, 0, 0, 0] - p).max() < 1e-15 * p[0]

    def test_su2_double_cover_properties(self):
        # U(R), the SU(2) image of a pure rotation, and the adjoint map back
        rng = np.random.default_rng(6)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            ang = rng.uniform(0, np.pi)
            u1, u2 = lorentz._rotation_su2(np.array([rotation(axis, ang).matrix,
                                                     rotation(-axis, -ang).matrix]))
            assert np.abs(u1 - u2).max() < 1e-10
            assert abs(np.linalg.det(u1) - 1.0) < 1e-10
            back = rotation_from_su2(u1)
            assert np.abs(back - rotation(axis, ang).matrix[1:, 1:]).max() < 1e-10


# rotations, near-pi rotations, boosts up to chi = 30 and both compositions
transforms = st.one_of(
    st.builds(rotation, unit_vectors, st.floats(0.0, np.pi)),
    st.builds(lambda n, gap: rotation(n, np.pi - gap), unit_vectors, st.floats(0.0, 1e-6)),
    st.builds(lambda n, chi: boost(rapidity=chi, axis=n), unit_vectors, st.floats(0.0, 30.0)),
    st.builds(lambda n, chi, r, a, first: compose(*[boost(rapidity=chi, axis=n),
                                                    rotation(r, a)][::1 if first else -1]),
              unit_vectors, st.floats(0.0, 30.0), unit_vectors, st.floats(0.0, np.pi),
              st.booleans()))


def pair_stacks(pairs, m):
    """(L, P) stacks of (transform, (direction, rapidity)) pairs, each p on
    the mass-m shell at the given rapidity along the direction."""
    L = np.array([lam.matrix for lam, _ in pairs])
    P = np.array([m * np.array([np.cosh(chi), *(np.sinh(chi) * np.asarray(n) / np.linalg.norm(n))])
                  for _, (n, chi) in pairs])
    return L, P


def canonical_little_group(L, P, m):
    """Oracle: the rotation blocks of L^{-1}(L p) L L(p) per pair, from the
    _canonical_boosts matrices and the exact inverse eta L^T eta. Its
    round-off grows like p0 q0 L00 / m**2."""
    Lq = lorentz._canonical_boosts(np.einsum("nij,nj->ni", L, P), m)
    W = ETA @ np.swapaxes(Lq, 1, 2) @ ETA @ L @ lorentz._canonical_boosts(P, m)
    return W[:, 1:, 1:]


class TestPairwiseCore:
    """_wigner_rotations, the little group of N (transform, momentum) pairs."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(transforms, st.tuples(unit_vectors, st.floats(0.0, 3.0))),
                          min_size=1, max_size=6),
           m=st.floats(0.1, 10.0))
    def test_against_canonical_boost_oracle(self, pairs, m):
        L, P = pair_stacks(pairs, m)
        R, axis, angle, D = lorentz._wigner_rotations(L, P, m)
        scale = P[:, 0] * np.einsum("ni,ni->n", L[:, 0], P) * L[:, 0, 0] / m ** 2
        gap = np.abs(R - canonical_little_group(L, P, m)).max(axis=(1, 2))
        assert (gap <= 1e-13 * scale).all()
        assert np.abs(R @ np.swapaxes(R, 1, 2) - np.eye(3)).max() < 1e-14
        assert ((0.0 <= angle) & (angle <= np.pi)).all()
        # row i is the scalar function on pair i
        for i, (lam, _) in enumerate(pairs):
            w = wigner_rotation(lam, P[i], m)
            assert np.array_equal(w.rotation, R[i]) and np.array_equal(w.su2, D[i])
            assert np.array_equal(w.axis, axis[i]) and w.angle == angle[i]

    @pytest.mark.parametrize("fault", ["metric", "orthochronous", "off shell",
                                       "energy", "mass"])
    def test_one_bad_pair_raises_the_scalar_error(self, fault):
        rng = np.random.default_rng(12)
        lams = [compose(boost(rapidity=1.5, axis=rng.normal(size=3)),
                        rotation(rng.normal(size=3), 2.0)) for _ in range(5)]
        P = np.array([random_onshell(rng, 1.0) for _ in range(5)])
        L, m = np.array([lam.matrix for lam in lams]), 1.0
        if fault in ("metric", "orthochronous"):
            L[2] = (L[2] + 1e-6 * np.eye(4) if fault == "metric"
                    else np.diag([1.0, 1.0, 1.0, -1.0]) @ L[2])
            with pytest.raises(ValidationError, match=fault) as scalar:
                lorentz.LorentzTransform(L[2])
        else:
            if fault == "mass":
                m = np.nan
            else:
                P[2, 0] = 1.01 * P[2, 0] if fault == "off shell" else -P[2, 0]
            with pytest.raises(ValidationError) as scalar:
                wigner_rotation(lams[2], P[2], m)
        with pytest.raises(ValidationError) as batched:
            lorentz._wigner_rotations(L, P, m)
        assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("call", [
        lambda P: lorentz._standard_boosts_massive(P, np.nan),
        lambda P: standard_boost_massive(P[0], np.nan),
        lambda P: wigner_rotation(boost([0.0, 0.0, 0.6]), P[0], np.nan),
        lambda P: lorentz._wigner_rotations(np.eye(4)[None], P, np.nan),
    ])
    def test_nan_mass_is_not_positive(self, call):
        # the checks read "not m > 0": m <= 0 is false for NaN, which then
        # failed later as "momentum off shell for mass nan"
        with pytest.raises(ValidationError, match="mass must be positive"):
            call(np.array([[np.sqrt(1.25), 0.0, 0.0, 0.5]]))


class TestHelicityPhase:
    @pytest.mark.parametrize("chi", [np.arctanh(0.7), 20.0, -20.0, 30.0, -30.0])
    def test_z_boosts_are_phase_free(self, chi):
        """xi = 0 exactly: A is real and diagonal and phi is unchanged. Rays
        the boost redshifts by ~e^-chi are left out; their lam k cancels
        to below the round-off of lam's entries."""
        rng = np.random.default_rng(int(chi) + 40)
        n = rng.normal(size=(200, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        n = np.vstack([n[np.sign(chi) * n[:, 2] > -0.9], [0.0, 0.0, np.sign(chi)]])
        ks = rng.uniform(0.1, 5.0, size=len(n))[:, None] * np.column_stack(
            [np.ones(len(n)), n])
        xi = lorentz.helicity_phase_batch(boost(rapidity=chi, axis=[0, 0, 1]), ks)
        assert (xi == 0).all()

    @pytest.mark.parametrize("chi", [0.0, np.arctanh(0.5), 20.0, 30.0])
    def test_rotation_about_the_boost_axis(self, chi):
        """lam = R_n(alpha) B_n(+-chi) gives xi = +-alpha on the ray along
        +-n that it blueshifts (alpha = 0: a boost along the ray). Along the
        coordinate axes lam's float entries are exact, and xi is to 1e-12;
        along other axes a float lam carries its rotation part only to eps
        lam00, and that bounds xi."""
        rng = np.random.default_rng(int(chi))
        axes = [*np.eye(3), *-np.eye(3), *rng.normal(size=(6, 3))]
        for n in axes:
            n = n / np.linalg.norm(n)
            inexact = np.count_nonzero(n) > 1
            for alpha in (0.0, *rng.uniform(-np.pi, np.pi, size=3)):
                for sign in (1.0, -1.0):
                    lam = compose(rotation(n, alpha), boost(rapidity=sign * chi, axis=n))
                    k = rng.uniform(0.1, 5.0) * np.array([1.0, *(sign * n)])
                    xi = lorentz.helicity_phase_batch(lam, k[None])[0]
                    tol = 1e-12 + inexact * 4 * np.finfo(float).eps * lam.matrix[0, 0]
                    assert abs(np.angle(np.exp(1j * (xi - sign * alpha)))) <= tol

    def test_geometric_transport_consistency(self):
        # oracle: rotate the helicity vectors as plain 3-vectors and match
        # e^(-+ i xi) eps_pm at the rotated direction, built from R(khat')
        rng = np.random.default_rng(8)
        for _ in range(40):
            th, ph = rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi)
            khat = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                             np.cos(th)])
            lam = rotation(rng.normal(size=3), rng.uniform(0, np.pi))
            xi = lorentz.helicity_phase_batch(lam, [[1.0, *khat]])[0]
            R = lam.matrix[1:, 1:]
            k2 = R @ khat
            th2 = np.arccos(np.clip(k2[2], -1, 1))
            ph2 = np.arctan2(k2[1], k2[0])
            ep, em = photon._helicity_vectors_batch(th, ph)
            ep2, em2 = photon._helicity_vectors_batch(th2, ph2)
            assert np.abs(R @ ep - np.exp(-1j * xi) * ep2).max() < 1e-10
            assert np.abs(R @ em - np.exp(+1j * xi) * em2).max() < 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(log_k0=st.floats(-0.7, 0.7),
           k_dir=st.one_of(st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]),
                           st.tuples(*[st.floats(-1.0, 1.0)] * 3)),
           chi=st.floats(0.0, 3.0), boost_axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
           rot_axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3), angle=st.floats(0.0, np.pi))
    def test_spinor_xi_matches_the_4x4_oracle(
            self, log_k0, k_dir, chi, boost_axis, rot_axis, angle):
        """Up to rapidity 3, with rays along +-z, xi is the rotation angle of
        the 4x4 E = L^{-1}(lam k) lam L(k) to 1e-12."""
        assume(min(np.linalg.norm(v) for v in (k_dir, boost_axis, rot_axis)) > 0.1)
        lam = compose(boost(rapidity=chi, axis=boost_axis), rotation(rot_axis, angle))
        k0 = 10.0 ** log_k0
        k = np.array([k0, *(k0 * np.asarray(k_dir) / np.linalg.norm(k_dir))])
        assert_xi_is_oracle_angle(lam, k[None], lorentz.helicity_phase_batch(lam, k[None]), 1e-12)

    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_axis_rays_ignore_the_signs_of_zeros(self, z):
        """phi = 0 wherever k_x = k_y = 0, whatever the signs of the zeros,
        in xi and in L(k) alike."""
        lam = compose(boost([0.3, 0.2, 0.1]), rotation([1, 2, 3], 0.7))
        ks = np.array([[1.0, x, y, z] for x in (0.0, -0.0) for y in (0.0, -0.0)])
        xi = lorentz.helicity_phase_batch(lam, ks)
        assert (xi == xi[0]).all()
        assert_xi_is_oracle_angle(lam, ks, xi, 1e-12)
        L = lorentz._standard_boosts_massless(ks)
        assert (L == L[0]).all()

    def test_non_null_momentum_rejected(self):
        with pytest.raises(ValidationError):
            lorentz.helicity_phase_batch(boost([0, 0, 0.5]), [[1.0, 0, 0, 0.5]])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(alpha=st.floats(-100.0, 100.0), beta=st.floats(-100.0, 100.0))
    def test_null_translation_is_pure_gauge_move(self, alpha, beta):
        """The translation part of E moves the standard transversal
        polarization only along k_S = (1,0,0,1), by (alpha + i beta)/sqrt 2,
        for every (alpha, beta); so xi alone carries E's action on
        polarization."""
        eps = np.array([0.0, 1.0, 1.0j, 0.0]) / np.sqrt(2.0)
        moved = null_translation(alpha, beta) @ eps - eps
        assert moved[1] == 0 and moved[2] == 0 and moved[0] == moved[3]
        assert abs(moved[0] - (alpha + 1j * beta) / np.sqrt(2.0)) <= 1e-15 * (
            abs(alpha) + abs(beta))


def general_lambda(rng):
    """A boost off the z axis after a rotation: a z boost alone gives
    xi = 0 on every ray and would hide a wrong phase formula."""
    return compose(boost(0.8 * rng.uniform(-1, 1, 3) / np.sqrt(3)),
                   rotation(rng.normal(size=3), rng.uniform(0, np.pi)))


def null_standard_boost(k):
    """Oracle for L(k): the z-boost to energy k0 by matrix exponential, then
    Rz(phi) Ry(theta) from lorentz.rotation, carrying z onto k/k0; phi = 0
    on the z axis. theta from arctan2: arccos loses ~1e-8 of it near z."""
    khat = k[1:] / k[0]
    rho = np.hypot(khat[0], khat[1])
    theta = np.arctan2(rho, khat[2])
    phi = np.arctan2(khat[1], khat[0]) if rho > 0 else 0.0
    R = rotation([0, 0, 1], phi).matrix @ rotation([0, 1, 0], theta).matrix
    return R @ expm_boost(np.log(k[0]), [0, 0, 1])


def null_little_group(lam, k):
    """Oracle for E = L^{-1}(lam k) lam L(k), inverted as a general matrix."""
    return (np.linalg.inv(null_standard_boost(lam @ k)) @ lam.matrix
            @ null_standard_boost(k))


def null_translation(alpha, beta):
    """Little-group element of (1,0,0,1) carrying no rotation part."""
    zeta = 0.5 * (alpha * alpha + beta * beta)
    return np.array([
        [1.0 + zeta, alpha, beta, -zeta],
        [alpha, 1.0, 0.0, -alpha],
        [beta, 0.0, 1.0, -beta],
        [zeta, alpha, beta, 1.0 - zeta],
    ])


def assert_xi_is_oracle_angle(lam, ks, xi, tol):
    """E's transverse block is the rotation by xi, and E is a null
    translation times that z rotation, to the round-off of E's entries."""
    for k, x in zip(ks, xi):
        E = null_little_group(lam, k)
        rz = rotation([0, 0, 1], x).matrix
        assert np.abs(E[1:3, 1:3] - rz[1:3, 1:3]).max() < tol
        assert np.abs(null_translation(E[1, 0], E[2, 0]) @ rz - E).max() < tol * np.abs(E).max()


class TestHelicityPhaseBatch:
    def rays(self, rng, n):
        nvec = rng.normal(size=(n, 3))
        nvec /= np.linalg.norm(nvec, axis=1, keepdims=True)
        nvec = np.vstack([nvec, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        e = rng.uniform(0.1, 5.0, size=nvec.shape[0])
        return np.column_stack([e, e[:, None] * nvec])

    def test_matches_inverse_matrix_oracle(self):
        rng = np.random.default_rng(81)
        for _ in range(5):
            lam = general_lambda(rng)
            ks = self.rays(rng, 60)
            xi = lorentz.helicity_phase_batch(lam, ks)
            assert_xi_is_oracle_angle(lam, ks, xi, 1e-12)

    def test_bad_rows_rejected(self):
        lam = general_lambda(np.random.default_rng(83))
        good = np.array([[1.0, 0.0, 0.0, 1.0], [2.0, 0.0, 2.0, 0.0]])
        off_shell = np.vstack([good, [1.0, 0.0, 0.0, 0.5]])
        with pytest.raises(ValidationError):
            lorentz.helicity_phase_batch(lam, off_shell)
        past = np.vstack([good, [-1.0, 0.0, 0.0, -1.0]])
        with pytest.raises(ValidationError):
            lorentz.helicity_phase_batch(lam, past)
        with pytest.raises(DimensionError):
            lorentz.helicity_phase_batch(lam, good[0])
        # a float lam carries lam k only to ~eps lam_00 k0, and this -z ray's
        # exact lam k is e^-20 (1, 0, 0, -1): rejected, not given a wrong xi
        with pytest.raises(ValidationError):
            lorentz.helicity_phase_batch(boost(rapidity=20.0, axis=[0, 0, 1]),
                                         [[1.0, 0.0, 0.0, -1.0]])

    def test_null_standard_boost_along_minus_z(self):
        k = np.array([2.0, 0.0, 0.0, -2.0])
        lam = standard_boost_massless(k)
        assert np.abs(lam @ [1.0, 0, 0, 1.0] - k).max() < 1e-12


class TestAberration:
    def test_zero_velocity_identity(self):
        tp, k0 = aberrate(0.7, 0.2, 0.0)
        assert abs(tp - 0.7) < 1e-15 and abs(k0 - 1.0) < 1e-15

    def test_small_angle_doppler_factor(self):
        tp, _ = aberrate(0.01, 0.0, 0.6)
        assert abs(tp / 0.01 - 2.0) < 2.0 * 1e-3  # within 0.1%

    def test_right_angle_value(self):
        tp, k0 = aberrate(np.pi / 2, 0.0, 0.6)
        assert abs(np.cos(tp) + 0.6) < 1e-12
        assert abs(tp - 2.214297435588181) < 1e-12
        assert abs(k0 - 1.25) < 1e-12

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            th = rng.uniform(0, np.pi)
            v = rng.uniform(-0.95, 0.95)
            tp, _ = aberrate(th, 0.0, v)
            back, _ = aberrate(tp, 0.0, -v)
            assert abs(back - th) < 1e-10
        thetas = rng.uniform(0, np.pi, size=64)
        tp, ratio = aberrate(thetas, np.zeros(64), 0.6)
        scalar = np.array([aberrate(th, 0.0, 0.6) for th in thetas])
        assert np.array_equal(tp, scalar[:, 0]) and np.array_equal(ratio, scalar[:, 1])

    @pytest.mark.parametrize("v, speed", [(1.0, "1.0"), (-1.0, "1.0"), (-1.5, "1.5")])
    def test_superluminal_rejected(self, v, speed):
        with pytest.raises(ValidationError, match=rf"^speed \|v\| = {speed} must be < 1$"):
            aberrate(0.1, 0.0, v)

    @pytest.mark.parametrize("args", [(0.1, 0.0, np.nan), (np.nan, 0.0, 0.5),
                                      (np.array([0.1, np.inf]), 0.0, 0.5), (0.1, np.nan, 0.5)])
    def test_non_finite_input_rejected(self, args):
        with pytest.raises(ValidationError):
            aberrate(*args)


class TestRotationToKhat:
    def test_identity_at_pole(self):
        assert np.abs(lorentz._rotation_to_khat_batch(0.0, 0.0) - np.eye(3)).max() < 1e-15

    def test_defining_property(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            R = lorentz._rotation_to_khat_batch(th, ph)
            khat = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                             np.cos(th)])
            assert np.abs(R @ np.array([0, 0, 1.0]) - khat).max() < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12

    def test_equator_columns(self):
        R = lorentz._rotation_to_khat_batch(np.pi / 2, 0.0)
        cols = [R[:, j] for j in range(3)]
        assert np.abs(cols[0] - np.array([0, 0, -1.0])).max() < 1e-12
        assert np.abs(cols[1] - np.array([0, 1.0, 0])).max() < 1e-12
        assert np.abs(cols[2] - np.array([1.0, 0, 0])).max() < 1e-12

