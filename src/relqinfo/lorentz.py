"""Classical relativistic kinematics in natural units (c = 1).

Four-vectors are plain length-4 ndarrays ordered (t, x, y, z) with metric
signature (+,-,-,-); apply a transform as lam @ p. The module builds
boosts and rotations, the canonical (rotation-free) standard boost for
massive momenta and the z-boost-then-rotate standard boost for null
momenta, little-group elements for both cases (spatial rotation with its
SU(2) image, or the rotation angle of a null-momentum stabilizer), and the
aberration/Doppler map. A pure boost by velocity v is the canonical boost
of p = gamma (1, v) at m = 1, so one formula builds both.

The little-group math is batched over (N,4) momentum arrays and the scalar
functions call it with a batch of one; wigner_su2_batch is the NumPy kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import DimensionError, ValidationError
from .qstate import SIGMA_X, SIGMA_Y, SIGMA_Z, TOL_SHELL, _check_identity

__all__ = [
    "ETA",
    "FourVector",
    "LorentzTransform",
    "WignerRotation",
    "check_mass_shell",
    "boost",
    "rotation",
    "compose",
    "standard_boost_massive",
    "standard_boost_massless",
    "wigner_rotation",
    "helicity_phase_batch",
    "wigner_su2_batch",
    "aberrate",
    "rotation_from_su2",
]

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

#: Four-vectors are ndarrays of shape (4,), components (t, x, y, z).
FourVector = np.ndarray


def _check_mass_shells(P: np.ndarray, m: float) -> None:
    """check_mass_shell for every row of an (N,4) array."""
    if P.ndim != 2 or P.shape[1] != 4:
        raise DimensionError(f"four-vectors must have shape (N, 4), got {P.shape}")
    p0 = P[:, 0]
    if not (p0 > 0).all():
        raise ValidationError("energy component must be positive")
    shell = p0 * p0 - np.einsum("ni,ni->n", P[:, 1:], P[:, 1:])
    if not (np.abs(shell - m * m) <= TOL_SHELL * np.maximum(1.0, p0 ** 2)).all():
        raise ValidationError(f"momentum off shell for mass {m}")


def check_mass_shell(p: FourVector, m: float) -> None:
    """Raise unless p*p = m**2 within TOL_SHELL (relative to p0**2) and p0 > 0."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise DimensionError(f"four-vector must have shape (4,), got {p.shape}")
    _check_mass_shells(p[None], m)


_ETA_SIGNS = np.outer(np.diag(ETA), np.diag(ETA))


def _rotation_parts(L: np.ndarray) -> np.ndarray:
    """The rotations R of L = R B, B the pure boost on L's first row, for an
    (N,4,4) stack: R_ij = L_ij - L_i0 L_0j / (1 + L00). Its round-off is eps
    L00, what a float L carries of R; L B^{-1} as a product costs eps L00^2."""
    return L[:, 1:, 1:] - L[:, 1:, :1] * L[:, :1, 1:] / (1.0 + L[:, :1, :1])


def _check_transforms(L: np.ndarray) -> None:
    """Raise unless every matrix of an (N,4,4) stack is finite, preserves the
    metric (eta L^T eta L = 1 relative to L00**2) and is proper orthochronous."""
    if not np.isfinite(L).all():
        raise ValidationError("matrix has non-finite entries")
    _check_identity((np.swapaxes(L, 1, 2) * _ETA_SIGNS) @ L,
                    "matrix does not preserve the metric", np.maximum(1.0, L[:, 0, 0] ** 2))
    # the sign of det L from det R: R's entries are O(1), where det L sums
    # products of four entries of size L00
    if not (L[:, 0, 0] >= 1.0 - 1e-12).all() or (np.linalg.det(_rotation_parts(L)) < 0).any():
        raise ValidationError("matrix is not proper orthochronous")


@dataclass(frozen=True)
class LorentzTransform:
    """Proper orthochronous Lorentz matrix, validated on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise DimensionError(f"Lorentz matrix must be 4x4, got {m.shape}")
        _check_transforms(m[None])
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _checked(cls, m: np.ndarray) -> "LorentzTransform":
        """Wrap a float (4,4) matrix that _check_transforms has already
        passed, without checking it again; for the batched boost cores."""
        lam = object.__new__(cls)
        m.setflags(write=False)
        object.__setattr__(lam, "matrix", m)
        return lam

    def inverse(self) -> "LorentzTransform":
        # exact group inverse: eta Lambda^T eta
        return LorentzTransform(ETA @ self.matrix.T @ ETA)

    def __matmul__(self, other):
        if isinstance(other, LorentzTransform):
            return LorentzTransform(self.matrix @ other.matrix)
        return self.matrix @ np.asarray(other, dtype=float)


def boost(velocity=None, *, rapidity: float | None = None,
          axis=None) -> LorentzTransform:
    """Pure boost, from a 3-velocity or from (rapidity, axis): the
    canonical boost at m = 1 of p = gamma (1, v) or (cosh chi, sinh chi n).

    boost((0, 0, 0.6)) and boost(rapidity=atanh(0.6), axis=(0, 0, 1)) agree.
    """
    if rapidity is not None:
        if velocity is not None:
            raise ValueError("give either a velocity or a rapidity, not both")
        n = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(n)
        if norm == 0:
            raise ValidationError("boost axis must be nonzero")
        p = np.array([np.cosh(rapidity), *(np.sinh(rapidity) * n / norm)])
    else:
        v = np.asarray(velocity, dtype=float).reshape(3)
        b2 = float(v @ v)
        if b2 >= 1.0:
            raise ValidationError(f"speed |v| = {np.sqrt(b2)} must be < 1")
        p = np.array([1.0, *v]) * (1.0 / np.sqrt(1.0 - b2))
    return LorentzTransform(_canonical_boosts(p[None], 1.0)[0])


def _rotation3(axis: np.ndarray, angle: float) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0:
        raise ValidationError("rotation axis must be nonzero")
    n = n / norm
    c, s = np.cos(angle), np.sin(angle)
    K = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return np.eye(3) * c + (1 - c) * np.outer(n, n) + s * K


def rotation(axis, angle: float) -> LorentzTransform:
    """Spatial rotation about the given axis, embedded as a 4x4 transform."""
    L = np.eye(4)
    L[1:, 1:] = _rotation3(axis, angle)
    return LorentzTransform(L)


def compose(lam2: LorentzTransform, lam1: LorentzTransform) -> LorentzTransform:
    """lam2 after lam1."""
    return lam2 @ lam1


def _canonical_boosts(P: np.ndarray, m: float) -> np.ndarray:
    """Canonical rotation-free boosts of an (N,4) array of momenta of mass
    m, shape (N,4,4): L(p) (m,0,0,0) = p. No checks."""
    n = P.shape[0]
    L = np.zeros((n, 4, 4))
    L[:, 0, 0] = P[:, 0] / m
    L[:, 0, 1:] = P[:, 1:] / m
    L[:, 1:, 0] = P[:, 1:] / m
    L[:, 1:, 1:] = np.eye(3) + P[:, 1:, None] * P[:, None, 1:] / (
        m * (m + P[:, 0])
    )[:, None, None]
    return L


def _standard_boosts_massive(P: np.ndarray, m: float) -> np.ndarray:
    """Canonical rotation-free boosts of an (N,4) array of momenta of mass
    m, shape (N,4,4), L(p) (m,0,0,0) = p. Checks m > 0, every row as
    check_mass_shell and every boost as LorentzTransform does."""
    if m <= 0:
        raise ValidationError("mass must be positive")
    P = np.asarray(P, dtype=float)
    _check_mass_shells(P, m)
    L = _canonical_boosts(P, m)
    _check_transforms(L)
    return L


def standard_boost_massive(p: FourVector, m: float) -> LorentzTransform:
    """Canonical rotation-free boost L(p) with L(p) (m,0,0,0) = p."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise DimensionError(f"four-vector must have shape (4,), got {p.shape}")
    return LorentzTransform._checked(_standard_boosts_massive(p[None], m)[0])


def _ray_angles(K: np.ndarray) -> tuple:
    """(theta, phi) of an (N,4) array of momenta, from the unscaled
    components, so equal k_x, k_y give equal phi. phi = 0 wherever k_x =
    k_y = 0; arctan2 would read the signs of the zeros (0 or pi at -z)."""
    rho = np.hypot(K[:, 1], K[:, 2])
    # arctan2, not arccos(khat_z): arccos loses ~1e-8 of theta near the z axis
    theta = np.arctan2(rho, K[:, 3])
    return theta, np.where(rho > 0, np.arctan2(K[:, 2], K[:, 1]), 0.0)


def _standard_boosts_massless(K: np.ndarray) -> np.ndarray:
    """Null standard boosts of an (N,4) array of momenta, shape (N,4,4):
    z-boost to energy k0, then rotate the z axis onto the propagation
    direction, so L(k) (1,0,0,1) = k. Checks every row as check_mass_shell
    and every boost as LorentzTransform does."""
    K = np.asarray(K, dtype=float)
    _check_mass_shells(K, 0.0)
    chi = np.log(K[:, 0])
    ch, sh = np.cosh(chi), np.sinh(chi)
    R = _rotation_to_khat_batch(*_ray_angles(K))
    # R @ Bz written out (R acting on x, y, z): Bz mixes only t and z
    L = np.zeros((K.shape[0], 4, 4))
    L[:, 0, 0] = ch
    L[:, 0, 3] = sh
    L[:, 1:, 0] = R[:, :, 2] * sh[:, None]
    L[:, 1:, 1:3] = R[:, :, :2]
    L[:, 1:, 3] = R[:, :, 2] * ch[:, None]
    _check_transforms(L)
    return L


def standard_boost_massless(k: FourVector) -> LorentzTransform:
    """Standard boost for null momenta: z-boost to energy k0, then rotate
    the z axis onto the propagation direction, so L(k) (1,0,0,1) = k."""
    k = np.asarray(k, dtype=float)
    if k.shape != (4,):
        raise DimensionError(f"four-vector must have shape (4,), got {k.shape}")
    return LorentzTransform._checked(_standard_boosts_massless(k[None])[0])


_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# _SANDWICH[c, a, b] = sigma_a sigma_c sigma_b, with sigma_0 = 1
_SIGMAS4 = np.array([np.eye(2), *_PAULIS])
_SANDWICH = np.einsum("aij,cjk,bkl->cabil", _SIGMAS4, _SIGMAS4, _SIGMAS4)


def _det2(X: np.ndarray) -> np.ndarray:
    """Determinants of a (..., 2, 2) stack."""
    return X[..., 0, 0] * X[..., 1, 1] - X[..., 0, 1] * X[..., 1, 0]


def _sl2c(lam: np.ndarray) -> np.ndarray:
    """SL(2,C) image M of a 4x4 Lorentz matrix, up to sign: M X(x) M† =
    X(lam x) with X(x) = x0 + x.sigma.

    Each candidate M_c = sum_ab lam_ab sigma_a sigma_c sigma_b equals
    2 tr(M† sigma_c) M. The c = 0 one vanishes at rotations by pi, so the
    candidate with the largest |det| is kept and divided by sqrt(det)."""
    cand = np.einsum("ab,cabij->cij", lam, _SANDWICH)
    det = _det2(cand)
    c = np.argmax(np.abs(det))
    return cand[c] / np.sqrt(det[c])


def rotation_from_su2(u: np.ndarray) -> np.ndarray:
    """Adjoint (double-cover) map R_ij = tr(sigma_i U sigma_j U†)/2."""
    u = np.asarray(u, dtype=complex)
    return np.einsum("iab,bc,jcd,da->ij", _PAULIS, u, _PAULIS, u.conj().T).real / 2.0


@dataclass(frozen=True)
class WignerRotation:
    """Little-group element of a massive momentum: spatial rotation with
    its axis-angle form and SU(2) image."""

    rotation: np.ndarray
    axis: np.ndarray
    angle: float
    su2: np.ndarray


# (1, i sigma_x, i sigma_y, i sigma_z): D = x0 + i (x1, x2, x3).sigma is x @ _QUATERNION
_QUATERNION = np.array([np.eye(2), *(1j * s for s in _PAULIS)])


def _rotation_su2(lam: np.ndarray) -> np.ndarray:
    """U(R), the SU(2) image of R in lam = R B, B the pure boost on lam's
    first row: the unitary polar factor of M = _sl2c(R), R =
    _rotation_parts(lam). Every term is O(1), so U is unitary to round-off
    at any rapidity (the polar factor of _sl2c(lam) loses accuracy like
    e^chi), and exactly 1 for a pure boost. No checks."""
    R = np.eye(4)
    R[1:, 1:] = _rotation_parts(lam[None])[0]
    M = _sl2c(R)
    # M^{-dagger} of an SL(2,C) matrix is its conjugated adjugate; the sum is
    # U tr H, so the round-off-sized H - 1 of M = U H drops out
    S = M + np.array([[M[1, 1], -M[1, 0]], [-M[0, 1], M[0, 0]]]).conj()
    return S / np.sqrt(_det2(S))


def _half_rapidity(lam: np.ndarray, P: np.ndarray, m: float) -> tuple:
    """(x, U) with D = +-U (x0 + i x.sigma)/|x| the SU(2) image of the
    little-group element W(lam, p), for an (N,4) grid P of mass m: x the
    (4,N) unnormalized quaternion rows and U = _rotation_su2(lam). No checks.

    Half-rapidity (gyrovector) form. lam = R B with B the pure boost on
    lam's first row, and W(R B, p) = R W(B, p) for canonical boosts. With
    a = tanh(chi/2) n = lam_0i/(1 + lam_00) for B and b = p/(m + p0) for
    L(p), W(B, p) is the unit quaternion x = (1 + a.b, a x b)/|.|. Every
    term is O(1), so the result is unitary to round-off at any rapidity.
    """
    # b on contiguous component rows: strided rows of P.T are 2x slower
    b = P[:, 1:].T.copy()
    b /= m + P[:, 0]
    a = lam[0, 1:] / (1.0 + lam[0, 0])
    # x = (a.b, a x b) + (1, 0, 0, 0), one (4,3) @ (3,N) product
    x = np.array([a, [0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]) @ b
    x[0] += 1.0
    return x, _rotation_su2(lam)


def wigner_su2_batch(lam: np.ndarray, P: np.ndarray, m: float) -> tuple:
    """The little-group kernel: (Q, D) for an (N,4) on-shell grid P of mass
    m, with Q = lam P and D the complex (N,2,2) SU(2) images of the
    little-group elements W = L^{-1}(lam p) lam L(p), canonical branch
    (Re tr D >= 0, rotation angle in [0, pi]). No checks.

    D = U(R) (x0 + i x.sigma)/|x| from _half_rapidity, so D is unitary to
    round-off at any rapidity.
    """
    lam = np.asarray(lam, dtype=float)
    P = np.asarray(P, dtype=float)
    Q = P @ lam.T
    x, U = _half_rapidity(lam, P, m)
    # T[k] = U (1, i sigma)_k as 8 floats, so D is the real product x^T T
    T = (U @ _QUATERNION).view(float).reshape(4, 8)
    r = np.sqrt(np.einsum("jn,jn->n", x, x))
    # Re tr D, up to the positive r: x against the real traces of the T[k]
    r[(T[:, 0] + T[:, 6]) @ x < 0] *= -1.0
    x /= r
    D = np.empty((P.shape[0], 2, 2), dtype=complex)
    np.matmul(x.T, T, out=D.view(float).reshape(-1, 8))
    return Q, D


def wigner_rotation(lam: LorentzTransform, p: FourVector, m: float) -> WignerRotation:
    """W = L^{-1}(lam p) lam L(p); fixes (m,0,0,0), so it is a rotation.

    The kernel with a batch of one: D = w - i (x, y, z).sigma gives the
    axis and angle, the adjoint map the rotation."""
    if m <= 0:
        raise ValidationError("mass must be positive")
    check_mass_shell(p, m)
    p = np.asarray(p, dtype=float)
    Q, D = wigner_su2_batch(lam.matrix, p[None], m)
    _check_mass_shells(Q, m)
    d = D[0]
    _check_identity(d @ d.conj().T, "little-group element is not a rotation")
    v = -np.array([d[0, 1].imag, d[0, 1].real, d[0, 0].imag])
    angle = 2.0 * np.arctan2(np.linalg.norm(v), d[0, 0].real)
    axis = v / np.linalg.norm(v) if angle > 1e-15 else np.array([0.0, 0.0, 1.0])
    return WignerRotation(rotation=rotation_from_su2(d), axis=axis,
                          angle=float(angle), su2=d)


def helicity_phase_batch(lam: LorentzTransform, ks: np.ndarray) -> np.ndarray:
    """Rotation angles xi in [-pi, pi] of E = L^{-1}(lam k) lam L(k) for an
    (N,4) array of null momenta; k and lam k are checked as check_mass_shell
    does.

    From spinors, without E. E fixes (1,0,0,1), so its SL(2,C) image is
    upper triangular with diagonal e^(-+ i xi/2), and its upper-left entry
    is a positive multiple of w(lam k)^dagger U(R) H w(k): lam = R B has
    the image U(R) H, H the positive Hermitian image of B, and w(k) =
    (e^(-i phi/2) cos(theta/2), e^(i phi/2) sin(theta/2)) = U(R_k) (1, 0),
    R_k the rotation of L(k). H w(k) = c w(B k) and w(B k)^dagger w(k) = c
    w(B k)^dagger H^-1 w(B k), so H moves no phase, and xi = -2 arg(w(lam
    k)^dagger U(R) w(k)). Every term is O(1); for a z boost U = 1 and phi
    is kept, so xi = 0 exactly. A float lam carries lam k only to about
    eps lam_00 k0, so a ray that lam redshifts below that is rejected.
    """
    K = np.asarray(ks, dtype=float)
    _check_mass_shells(K, 0.0)
    Q = K @ lam.matrix.T
    _check_mass_shells(Q, 0.0)
    U = _rotation_su2(lam.matrix)
    theta, phi = _ray_angles(K)
    theta_q, phi_q = _ray_angles(Q)
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    c_q, s_q = np.cos(0.5 * theta_q), np.sin(0.5 * theta_q)
    # by entries of U, each pair of half-azimuth phases one exponential, so
    # equal phi and phi_q give a phase of exactly 1
    diff, total = np.exp(0.5j * (phi_q - phi)), np.exp(0.5j * (phi_q + phi))
    z = (U[0, 0] * (c_q * c) * diff + U[1, 1] * (s_q * s) * diff.conj()
         + U[0, 1] * (c_q * s) * total + U[1, 0] * (s_q * c) * total.conj())
    return np.angle(z.conj() ** 2)


def aberrate(theta, phi, v: float) -> tuple:
    """Direction and frequency change of light rays under a z-boost; theta
    and phi are angles or arrays of them.

    Returns (theta', k0'/k0) with sin(theta') = sin(theta)/[gamma(1 - v cos
    theta)], the branch fixed by the sign of cos(theta') = (cos theta - v)
    / (1 - v cos theta), and k0'/k0 = gamma (1 - v cos theta). The phi
    angle is unchanged.
    """
    if not abs(v) < 1.0:
        raise ValidationError("speed must satisfy |v| < 1")
    if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
        raise ValidationError("angles must be finite")
    g = 1.0 / np.sqrt(1.0 - v * v)
    denom = 1.0 - v * np.cos(theta)
    sin_tp = np.sin(theta) / (g * denom)
    cos_tp = (np.cos(theta) - v) / denom
    theta_p = np.arctan2(sin_tp, cos_tp)
    return theta_p, g * denom


def _rotation_to_khat_batch(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Standard rotations carrying (0,0,1) onto the (theta, phi) directions,
    shape (N,3,3)."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    R = np.empty((np.size(theta), 3, 3))
    R[:, 0, 0] = ct * cp
    R[:, 0, 1] = -sp
    R[:, 0, 2] = cp * st
    R[:, 1, 0] = ct * sp
    R[:, 1, 1] = cp
    R[:, 1, 2] = sp * st
    R[:, 2, 0] = -st
    R[:, 2, 1] = 0.0
    R[:, 2, 2] = ct
    return R
