"""Classical relativistic kinematics in natural units (c = 1).

Four-vectors are plain length-4 ndarrays ordered (t, x, y, z) with metric
signature (+,-,-,-). The module builds boosts and rotations, the canonical
(rotation-free) standard boost for massive momenta and the z-boost-then-
rotate standard boost for null momenta, little-group elements for both
cases (spatial rotation with its SU(2) image, or the rotation angle of a
null-momentum stabilizer), and the aberration/Doppler map.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import DimensionError, ValidationError

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
    metric and is proper orthochronous."""
    gap = np.abs(np.swapaxes(L, 1, 2) @ ETA @ L - ETA)
    if (gap > _TOL_GROUP * 1e2).any():
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


def standard_boost_massive(p: FourVector, m: float) -> LorentzTransform:
    """Canonical rotation-free boost L(p) with L(p) (m,0,0,0) = p."""
    if m <= 0:
        raise ValidationError("mass must be positive")
    check_mass_shell(p, m)
    p = np.asarray(p, dtype=float)
    L = np.empty((4, 4))
    L[0, 0] = p[0] / m
    L[0, 1:] = p[1:] / m
    L[1:, 0] = p[1:] / m
    L[1:, 1:] = np.eye(3) + np.outer(p[1:], p[1:]) / (m * (m + p[0]))
    return LorentzTransform(L)


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


def _quaternion_from_rotation(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0; stable near angle 0 and pi."""
    t = np.trace(R)
    cand = np.array([1.0 + t,
                     1.0 + R[0, 0] - R[1, 1] - R[2, 2],
                     1.0 - R[0, 0] + R[1, 1] - R[2, 2],
                     1.0 - R[0, 0] - R[1, 1] + R[2, 2]])
    b = int(np.argmax(cand))
    r = np.sqrt(max(cand[b], 0.0)) / 2.0
    if b == 0:
        q = np.array([r, (R[2, 1] - R[1, 2]) / (4 * r),
                      (R[0, 2] - R[2, 0]) / (4 * r),
                      (R[1, 0] - R[0, 1]) / (4 * r)])
    elif b == 1:
        q = np.array([(R[2, 1] - R[1, 2]) / (4 * r), r,
                      (R[0, 1] + R[1, 0]) / (4 * r),
                      (R[0, 2] + R[2, 0]) / (4 * r)])
    elif b == 2:
        q = np.array([(R[0, 2] - R[2, 0]) / (4 * r),
                      (R[0, 1] + R[1, 0]) / (4 * r), r,
                      (R[1, 2] + R[2, 1]) / (4 * r)])
    else:
        q = np.array([(R[1, 0] - R[0, 1]) / (4 * r),
                      (R[0, 2] + R[2, 0]) / (4 * r),
                      (R[1, 2] + R[2, 1]) / (4 * r), r])
    q /= np.linalg.norm(q)
    return q if q[0] >= 0 else -q


def _su2_from_quaternion(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([[w - 1j * z, -1j * x - y],
                     [-1j * x + y, w + 1j * z]], dtype=complex)


def su2_from_rotation(R: np.ndarray) -> np.ndarray:
    """SU(2) element covering a 3x3 rotation; branch with angle in [0, pi]."""
    return _su2_from_quaternion(_quaternion_from_rotation(np.asarray(R, dtype=float)))


_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


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


def wigner_rotation(lam: LorentzTransform, p: FourVector, m: float) -> WignerRotation:
    """W = L^{-1}(lam p) lam L(p); fixes (m,0,0,0), so it is a rotation."""
    check_mass_shell(p, m)
    q = lam.apply(p)
    W = (standard_boost_massive(q, m).inverse() @ lam
         @ standard_boost_massive(p, m)).matrix
    R = W[1:, 1:]
    if np.abs(R @ R.T - np.eye(3)).max() > 1e-10:
        raise ValidationError("little-group element is not a rotation")
    quat = _quaternion_from_rotation(R)
    angle = 2.0 * np.arctan2(np.linalg.norm(quat[1:]), quat[0])
    axis = quat[1:] / np.linalg.norm(quat[1:]) if angle > 1e-15 else np.array([0.0, 0.0, 1.0])
    return WignerRotation(rotation=R, axis=axis, angle=float(angle),
                          su2=_su2_from_quaternion(quat))


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


def _rz4(xi: float) -> np.ndarray:
    c, s = np.cos(xi), np.sin(xi)
    R = np.eye(4)
    R[1, 1] = R[2, 2] = c
    R[1, 2] = -s
    R[2, 1] = s
    return R


_EPS_STD = np.array([0.0, 1.0, 1.0j, 0.0]) / np.sqrt(2.0)


def helicity_phase(lam: LorentzTransform, k: FourVector) -> HelicityPhase:
    """Rotation angle xi of E = L^{-1}(lam k) lam L(k), which stabilizes
    (1,0,0,1) and factors as null-translation times z-rotation.

    The translation part moves transversal polarization vectors only along
    the null momentum itself (a gauge direction); this is asserted before
    xi is returned.
    """
    check_mass_shell(k, 0.0)
    q = lam.apply(k)
    E = (standard_boost_massless(q).inverse() @ lam
         @ standard_boost_massless(k)).matrix
    xi = float(np.arctan2(E[2, 1], E[1, 1]))
    alpha, beta = float(E[1, 0]), float(E[2, 0])
    if np.abs(_null_translation(alpha, beta) @ _rz4(xi) - E).max() > 1e-10:
        raise ValidationError("element does not factor as translation * rotation")
    # residual translation acts on the standard transversal polarization
    # only along k_S = (1,0,0,1)
    moved = _null_translation(alpha, beta) @ _EPS_STD - _EPS_STD
    ks = np.array([1.0, 0.0, 0.0, 1.0])
    coeff = moved[0]
    if np.abs(moved - coeff * ks).max() > 1e-10:
        raise ValidationError("translation part is not a pure gauge move")
    return HelicityPhase(xi=xi)


def helicity_phase_batch(lam: LorentzTransform, ks: np.ndarray) -> np.ndarray:
    """helicity_phase's xi for an (N,4) array of null momenta, in one pass
    over E = L^{-1}(lam k) lam L(k)."""
    ks = np.asarray(ks, dtype=float)
    Lk = _standard_boosts_massless(ks)
    Lq = _standard_boosts_massless(ks @ lam.matrix.T)
    # exact group inverse: eta L^T eta
    E = (np.swapaxes(Lq, 1, 2) * _ETA_SIGNS) @ lam.matrix @ Lk
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
