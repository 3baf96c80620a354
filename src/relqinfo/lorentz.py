"""Classical relativistic kinematics in natural units (c = 1).

Four-vectors are plain length-4 ndarrays ordered (t, x, y, z) with metric
signature (+,-,-,-). The module builds boosts and rotations, the canonical
(rotation-free) standard boost for massive momenta and the z-boost-then-
rotate standard boost for null momenta, little-group elements for both
cases (spatial rotation with its SU(2) image, or the rotation angle of a
null-momentum stabilizer), and the aberration/Doppler map.

The little-group math is batched over (N,4) momentum arrays and the scalar
functions call it with a batch of one; wigner_su2_batch is the NumPy kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import DimensionError, ValidationError
from .qstate import SIGMA_X, SIGMA_Y, SIGMA_Z

__all__ = [
    "ETA",
    "FourVector",
    "LorentzTransform",
    "WignerRotation",
    "HelicityPhase",
    "minkowski_dot",
    "check_mass_shell",
    "boost",
    "rotation",
    "compose",
    "standard_boost_massive",
    "standard_boost_massless",
    "wigner_rotation",
    "helicity_phase",
    "helicity_phase_batch",
    "wigner_su2_batch",
    "aberrate",
    "rotation_to_khat",
    "su2_from_rotation",
    "rotation_from_su2",
]

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

#: Four-vectors are ndarrays of shape (4,), components (t, x, y, z).
FourVector = np.ndarray

_TOL_GROUP = 1e-12


def minkowski_dot(p: FourVector, q: FourVector) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(p[0] * q[0] - p[1:] @ q[1:])


def _check_mass_shells(P: np.ndarray, m: float, tol: float = 1e-10) -> None:
    """check_mass_shell for every row of an (N,4) array."""
    if P.ndim != 2 or P.shape[1] != 4:
        raise DimensionError(f"four-vectors must have shape (N, 4), got {P.shape}")
    p0 = P[:, 0]
    if (p0 <= 0).any():
        raise ValidationError("energy component must be positive")
    shell = p0 * p0 - np.einsum("ni,ni->n", P[:, 1:], P[:, 1:])
    if (np.abs(shell - m * m) > tol * np.maximum(1.0, p0 ** 2)).any():
        raise ValidationError(f"momentum off shell for mass {m}")


def check_mass_shell(p: FourVector, m: float, tol: float = 1e-10) -> None:
    """Raise unless p*p = m**2 (relative to p0**2) and p0 > 0."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise DimensionError(f"four-vector must have shape (4,), got {p.shape}")
    _check_mass_shells(p[None], m, tol)


_ETA_SIGNS = np.outer(np.diag(ETA), np.diag(ETA))


def _check_transforms(L: np.ndarray) -> None:
    """Raise unless every (4,4) matrix of an (N,4,4) stack preserves the
    metric (relative to L00**2, the scale of its round-off) and is proper
    orthochronous."""
    gap = np.abs(np.swapaxes(L, 1, 2) @ ETA @ L - ETA).max(axis=(1, 2))
    if (gap > _TOL_GROUP * 1e2 * np.maximum(1.0, L[:, 0, 0] ** 2)).any():
        raise ValidationError("matrix does not preserve the metric")
    if (np.linalg.det(L) < 0).any() or (L[:, 0, 0] < 1.0 - 1e-12).any():
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
    def identity(cls) -> "LorentzTransform":
        return cls(np.eye(4))

    def inverse(self) -> "LorentzTransform":
        # exact group inverse: eta Lambda^T eta
        return LorentzTransform(ETA @ self.matrix.T @ ETA)

    def __matmul__(self, other):
        if isinstance(other, LorentzTransform):
            return LorentzTransform(self.matrix @ other.matrix)
        return self.matrix @ np.asarray(other, dtype=float)

    def apply(self, p: FourVector) -> FourVector:
        return self.matrix @ np.asarray(p, dtype=float)


def _boost_matrix_velocity(v: np.ndarray) -> np.ndarray:
    b2 = float(v @ v)
    if b2 >= 1.0:
        raise ValidationError(f"speed |v| = {np.sqrt(b2)} must be < 1")
    if b2 == 0.0:
        return np.eye(4)
    g = 1.0 / np.sqrt(1.0 - b2)
    L = np.empty((4, 4))
    L[0, 0] = g
    L[0, 1:] = g * v
    L[1:, 0] = g * v
    L[1:, 1:] = np.eye(3) + (g - 1.0) * np.outer(v, v) / b2
    return L


def boost(velocity=None, *, rapidity: float | None = None,
          axis=None) -> LorentzTransform:
    """Pure boost, from a 3-velocity or from (rapidity, axis).

    boost((0, 0, 0.6)) and boost(rapidity=atanh(0.6), axis=(0, 0, 1)) agree.
    """
    if rapidity is not None:
        if velocity is not None:
            raise ValueError("give either a velocity or a rapidity, not both")
        n = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(n)
        if norm == 0:
            raise ValidationError("boost axis must be nonzero")
        velocity = np.tanh(rapidity) * n / norm
    v = np.asarray(velocity, dtype=float).reshape(3)
    return LorentzTransform(_boost_matrix_velocity(v))


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


def standard_boost_massive(p: FourVector, m: float) -> LorentzTransform:
    """Canonical rotation-free boost L(p) with L(p) (m,0,0,0) = p."""
    if m <= 0:
        raise ValidationError("mass must be positive")
    check_mass_shell(p, m)
    return LorentzTransform(_canonical_boosts(np.asarray(p, dtype=float)[None], m)[0])


def _standard_boosts_massless(K: np.ndarray) -> np.ndarray:
    """Null standard boosts of an (N,4) array of momenta, shape (N,4,4):
    z-boost to energy k0, then rotate the z axis onto the propagation
    direction, so L(k) (1,0,0,1) = k. Checks every row as check_mass_shell
    and every boost as LorentzTransform does."""
    K = np.asarray(K, dtype=float)
    _check_mass_shells(K, 0.0)
    k0 = K[:, 0]
    chi = np.log(k0)
    ch, sh = np.cosh(chi), np.sinh(chi)
    khat = K[:, 1:] / k0[:, None]
    theta = np.arccos(np.clip(khat[:, 2], -1.0, 1.0))
    phi = np.where(theta > 0, np.arctan2(khat[:, 1], khat[:, 0]), 0.0)
    R = _rotation_to_khat_batch(theta, phi)
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
    return LorentzTransform(_standard_boosts_massless(k[None])[0])


def _quaternions(R: np.ndarray) -> np.ndarray:
    """Unit quaternions (w, x, y, z), w >= 0, of an (N,3,3) stack of
    rotations (Shepperd 1978: divide by the largest of the four diagonal
    combinations, so angles near 0 and pi stay stable)."""
    n = R.shape[0]
    cand = np.empty((n, 4))
    t = np.einsum("nii->n", R)
    cand[:, 0] = 1.0 + t
    cand[:, 1] = 1.0 + R[:, 0, 0] - R[:, 1, 1] - R[:, 2, 2]
    cand[:, 2] = 1.0 - R[:, 0, 0] + R[:, 1, 1] - R[:, 2, 2]
    cand[:, 3] = 1.0 - R[:, 0, 0] - R[:, 1, 1] + R[:, 2, 2]
    best = np.argmax(cand, axis=1)
    r = np.sqrt(np.maximum(cand[np.arange(n), best], 0.0)) / 2.0
    q = np.empty((n, 4))
    f = 1.0 / (4.0 * r)

    m0 = best == 0
    q[m0, 0] = r[m0]
    q[m0, 1] = (R[m0, 2, 1] - R[m0, 1, 2]) * f[m0]
    q[m0, 2] = (R[m0, 0, 2] - R[m0, 2, 0]) * f[m0]
    q[m0, 3] = (R[m0, 1, 0] - R[m0, 0, 1]) * f[m0]

    m1 = best == 1
    q[m1, 0] = (R[m1, 2, 1] - R[m1, 1, 2]) * f[m1]
    q[m1, 1] = r[m1]
    q[m1, 2] = (R[m1, 0, 1] + R[m1, 1, 0]) * f[m1]
    q[m1, 3] = (R[m1, 0, 2] + R[m1, 2, 0]) * f[m1]

    m2 = best == 2
    q[m2, 0] = (R[m2, 0, 2] - R[m2, 2, 0]) * f[m2]
    q[m2, 1] = (R[m2, 0, 1] + R[m2, 1, 0]) * f[m2]
    q[m2, 2] = r[m2]
    q[m2, 3] = (R[m2, 1, 2] + R[m2, 2, 1]) * f[m2]

    m3 = best == 3
    q[m3, 0] = (R[m3, 1, 0] - R[m3, 0, 1]) * f[m3]
    q[m3, 1] = (R[m3, 0, 2] + R[m3, 2, 0]) * f[m3]
    q[m3, 2] = (R[m3, 1, 2] + R[m3, 2, 1]) * f[m3]
    q[m3, 3] = r[m3]

    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[q[:, 0] < 0] *= -1.0
    return q


def _su2_from_quaternions(q: np.ndarray) -> np.ndarray:
    """SU(2) images, shape (N,2,2), of an (N,4) array of unit quaternions."""
    D = np.empty((q.shape[0], 2, 2), dtype=complex)
    D[:, 0, 0] = q[:, 0] - 1j * q[:, 3]
    D[:, 0, 1] = -1j * q[:, 1] - q[:, 2]
    D[:, 1, 0] = -1j * q[:, 1] + q[:, 2]
    D[:, 1, 1] = q[:, 0] + 1j * q[:, 3]
    return D


def su2_from_rotation(R: np.ndarray) -> np.ndarray:
    """SU(2) element covering a 3x3 rotation; branch with angle in [0, pi]."""
    R = np.asarray(R, dtype=float)
    return _su2_from_quaternions(_quaternions(R[None]))[0]


_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def rotation_from_su2(u: np.ndarray) -> np.ndarray:
    """Adjoint (double-cover) map R_ij = tr(sigma_i U sigma_j U†)/2."""
    u = np.asarray(u, dtype=complex)
    R = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            R[i, j] = np.trace(_PAULIS[i] @ u @ _PAULIS[j] @ u.conj().T).real / 2.0
    return R


@dataclass(frozen=True)
class WignerRotation:
    """Little-group element of a massive momentum: spatial rotation with
    its axis-angle form and SU(2) image."""

    rotation: np.ndarray
    axis: np.ndarray
    angle: float
    su2: np.ndarray


def _massive_little_group(lam: np.ndarray, P: np.ndarray, m: float) -> tuple:
    """(Q, R) for an (N,4) momentum grid P of mass m: Q = lam P and R, (N,3,3),
    the rotation blocks of the little-group elements W = L^{-1}(lam p) lam L(p).
    No checks.

    Closed form, no (N,4,4) boost built: the spatial columns of lam L(p) are
    M_j = lam_j + p_j u with u = (lam_0 + q/m) / (m + p0), and L^{-1}(q) takes
    q_i s_j / (m (m + q0)) off M_ij, with s_j = (m + q0) M_0j - q.M_j. Works on
    component rows (P and Q transposed), so every operation runs over N.
    """
    lam = np.asarray(lam, dtype=float)
    P = np.asarray(P, dtype=float)
    Q = P @ lam.T
    p, q = np.ascontiguousarray(P.T), np.ascontiguousarray(Q.T)
    u = (lam[:, :1] + q / m) / (m + p[0])
    mq = m + q[0]
    R = np.empty((3, 3, P.shape[0]))
    for j in (1, 2, 3):
        Mj = lam[:, j, None] + u * p[j]
        s = mq * Mj[0] - (q[1] * Mj[1] + q[2] * Mj[2] + q[3] * Mj[3])
        R[:, j - 1] = Mj[1:] - q[1:] * (s / (m * mq))
    return Q, R.transpose(2, 0, 1)


def wigner_su2_batch(lam: np.ndarray, P: np.ndarray, m: float) -> tuple:
    """The NumPy little-group kernel: (Q, D) for an (N,4) on-shell grid P,
    with Q = lam P and D the complex (N,2,2) SU(2) images of the little-group
    elements W = L^{-1}(lam p) lam L(p), canonical branch (rotation angle in
    [0, pi]). No checks."""
    Q, R = _massive_little_group(lam, P, m)
    return Q, _su2_from_quaternions(_quaternions(R))


def wigner_rotation(lam: LorentzTransform, p: FourVector, m: float) -> WignerRotation:
    """W = L^{-1}(lam p) lam L(p); fixes (m,0,0,0), so it is a rotation.

    Round-off in W grows like p0 q0 / m**2, so the rotation check is relative
    to that scale."""
    if m <= 0:
        raise ValidationError("mass must be positive")
    check_mass_shell(p, m)
    p = np.asarray(p, dtype=float)
    Q, R = _massive_little_group(lam.matrix, p[None], m)
    _check_mass_shells(Q, m)
    R = R[0]
    if np.abs(R @ R.T - np.eye(3)).max() > 1e-10 * max(1.0, p[0] * Q[0, 0] / m ** 2):
        raise ValidationError("little-group element is not a rotation")
    quat = _quaternions(R[None])[0]
    angle = 2.0 * np.arctan2(np.linalg.norm(quat[1:]), quat[0])
    axis = quat[1:] / np.linalg.norm(quat[1:]) if angle > 1e-15 else np.array([0.0, 0.0, 1.0])
    return WignerRotation(rotation=R, axis=axis, angle=float(angle),
                          su2=_su2_from_quaternions(quat[None])[0])


@dataclass(frozen=True)
class HelicityPhase:
    """Rotation angle of a null-momentum little-group element (mod 2pi)."""

    xi: float


def _null_translation(alpha: float, beta: float) -> np.ndarray:
    """Little-group element of (1,0,0,1) carrying no rotation part."""
    zeta = 0.5 * (alpha * alpha + beta * beta)
    return np.array([
        [1.0 + zeta, alpha, beta, -zeta],
        [alpha, 1.0, 0.0, -alpha],
        [beta, 0.0, 1.0, -beta],
        [zeta, alpha, beta, 1.0 - zeta],
    ])


def _null_little_group(lam: np.ndarray, K: np.ndarray) -> np.ndarray:
    """E = L^{-1}(lam k) lam L(k), (N,4,4), for an (N,4) array of null
    momenta; _standard_boosts_massless checks k and lam k."""
    K = np.asarray(K, dtype=float)
    Lk = _standard_boosts_massless(K)
    Lq = _standard_boosts_massless(K @ lam.T)
    # exact group inverse: eta L^T eta
    return (np.swapaxes(Lq, 1, 2) * _ETA_SIGNS) @ lam @ Lk


def helicity_phase(lam: LorentzTransform, k: FourVector) -> HelicityPhase:
    """Rotation angle xi of E = L^{-1}(lam k) lam L(k), which stabilizes
    (1,0,0,1) and factors as null-translation times z-rotation.

    The translation part moves transversal polarization vectors only along
    the null momentum itself (a gauge direction) for every (alpha, beta), so
    only the factorization is checked before xi is returned.
    """
    E = _null_little_group(lam.matrix, np.asarray(k, dtype=float)[None])[0]
    xi = float(np.arctan2(E[2, 1], E[1, 1]))
    alpha, beta = float(E[1, 0]), float(E[2, 0])
    rz = rotation([0.0, 0.0, 1.0], xi).matrix
    if np.abs(_null_translation(alpha, beta) @ rz - E).max() > 1e-10:
        raise ValidationError("element does not factor as translation * rotation")
    return HelicityPhase(xi=xi)


def helicity_phase_batch(lam: LorentzTransform, ks: np.ndarray) -> np.ndarray:
    """helicity_phase's xi for an (N,4) array of null momenta, in one pass
    over E = L^{-1}(lam k) lam L(k)."""
    E = _null_little_group(lam.matrix, ks)
    return np.arctan2(E[:, 2, 1], E[:, 1, 1])


def aberrate(theta: float, phi: float, v: float) -> tuple:
    """Direction and frequency change of a light ray under a z-boost.

    Returns (theta', k0'/k0) with sin(theta') = sin(theta)/[gamma(1 - v cos
    theta)], the branch fixed by the sign of cos(theta') = (cos theta - v)
    / (1 - v cos theta), and k0'/k0 = gamma (1 - v cos theta). The phi
    angle is unchanged.
    """
    if abs(v) >= 1.0:
        raise ValidationError("speed must satisfy |v| < 1")
    g = 1.0 / np.sqrt(1.0 - v * v)
    denom = 1.0 - v * np.cos(theta)
    sin_tp = np.sin(theta) / (g * denom)
    cos_tp = (np.cos(theta) - v) / denom
    theta_p = np.arctan2(sin_tp, cos_tp)
    return float(theta_p), float(g * denom)


def _rotation_to_khat_batch(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """rotation_to_khat for arrays of directions, shape (N,3,3)."""
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


def rotation_to_khat(theta: float, phi: float) -> np.ndarray:
    """Standard rotation carrying (0,0,1) onto the (theta, phi) direction."""
    return _rotation_to_khat_batch(np.array([theta], dtype=float),
                                   np.array([phi], dtype=float))[0]
