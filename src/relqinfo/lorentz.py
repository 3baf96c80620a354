"""Classical relativistic kinematics in natural units (c = 1).

Four-vectors are plain length-4 ndarrays ordered (t, x, y, z) with metric
signature (+,-,-,-); apply a transform as lam @ p. The module builds
boosts and rotations, the canonical (rotation-free) standard boost for
massive momenta and the z-boost-then-rotate standard boost for null
momenta, little-group elements for both cases (spatial rotation with its
SU(2) image, or the rotation angle of a null-momentum stabilizer), and the
aberration/Doppler map. A pure boost by velocity v is the canonical boost
of p = gamma (1, v) at m = 1, so one formula builds both.

The little-group math is batched, over (N,4) momentum arrays for one
transform (wigner_su2_batch, the NumPy kernel) or over N (transform,
momentum) pairs (_wigner_rotations), and the scalar functions call it with
a batch of one. Its half-rapidity form comes in a per-transform piece for
a stack of transforms (_boost_halves) and a per-point piece for a block of
momenta (_half_rapidity), which is how the packet marginals take it.
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


def _batch_of_one(p: FourVector) -> np.ndarray:
    """A four-vector as the float (1,4) batch of one that the batched cores
    take; raises unless it has shape (4,)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise DimensionError(f"four-vector must have shape (4,), got {p.shape}")
    return p[None]


def check_mass_shell(p: FourVector, m: float) -> None:
    """Raise unless p*p = m**2 within TOL_SHELL (relative to p0**2) and p0 > 0."""
    _check_mass_shells(_batch_of_one(p), m)


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


# The metric check squares L00 ~ e^chi / 2, which overflows a float beyond
# chi ~ 355, so no larger boost can be validated.
_MAX_RAPIDITY = 350.0


def _check_axes(axes: np.ndarray, what: str) -> np.ndarray:
    """The norms of an (N,3) array of axes; raises unless every axis is
    finite and nonzero. hypot neither overflows nor underflows, so any
    finite nonzero axis passes."""
    if not np.isfinite(axes).all():
        raise ValidationError(f"{what} axis must be finite")
    norms = np.hypot(np.hypot(axes[:, 0], axes[:, 1]), axes[:, 2])
    if not (norms > 0).all():
        raise ValidationError(f"{what} axis must be nonzero")
    return norms


def boost(velocity=None, *, rapidity: float | None = None,
          axis=None) -> LorentzTransform:
    """Pure boost, from a 3-velocity or from (rapidity, axis): the
    canonical boost at m = 1 of p = gamma (1, v) or (cosh chi, sinh chi n).
    A rapidity must be finite with |chi| <= 350; a NaN or inf is rejected
    before any cosh runs.

    boost((0, 0, 0.6)) and boost(rapidity=atanh(0.6), axis=(0, 0, 1)) agree.
    """
    if rapidity is None:
        v = np.asarray(velocity, dtype=float).reshape(1, 3)
        return LorentzTransform._checked(_velocity_boosts(v)[0])
    if velocity is not None:
        raise ValueError("give either a velocity or a rapidity, not both")
    if not abs(float(rapidity)) <= _MAX_RAPIDITY:
        raise ValidationError(f"rapidity must be finite with |rapidity| <= "
                              f"{_MAX_RAPIDITY:g}, got {rapidity}")
    n = np.asarray(axis, dtype=float).reshape(3)
    norm = _check_axes(n[None], "boost")[0]
    p = np.array([np.cosh(rapidity), *(np.sinh(rapidity) * n / norm)])
    return LorentzTransform(_canonical_boosts(p[None], 1.0)[0])


def _check_speeds(b2: np.ndarray) -> None:
    """Raise unless every squared speed of a (B,) array is below 1
    (NaN-safe), naming the first speed that is not."""
    fast = ~(b2 < 1.0)
    if fast.any():
        raise ValidationError(f"speed |v| = {np.sqrt(b2[fast][0])} must be < 1")


def _velocity_boosts(V: np.ndarray) -> np.ndarray:
    """Pure boosts by a (B,3) array of 3-velocities, shape (B,4,4): the
    canonical boosts at m = 1 of gamma (1, v). Raises unless every speed is
    below 1 (NaN-safe), and checks every boost as LorentzTransform does."""
    # one (1,3) @ (3,1) product per row takes |v|^2 as v @ v does, bit for bit
    b2 = (V[:, None, :] @ V[:, :, None])[:, 0, 0]
    _check_speeds(b2)
    P = np.column_stack([np.ones(len(V)), V]) * (1.0 / np.sqrt(1.0 - b2))[:, None]
    L = _canonical_boosts(P, 1.0)
    _check_transforms(L)
    return L


# _DOT_CROSS[j] = A(e_j), with A(a) b = (a.b, a x b): row 0 of A(a) is a, and
# rows 1-3 the cross-product matrix of a, A(e_j)[1 + i, k] = eps_ijk
_DOT_CROSS = np.zeros((3, 4, 3))
_DOT_CROSS[[0, 1, 2], 0, [0, 1, 2]] = 1.0
_DOT_CROSS[[1, 2, 0], [1, 2, 3], [2, 0, 1]] = 1.0
_DOT_CROSS[[2, 0, 1], [1, 2, 3], [1, 2, 0]] = -1.0


def _dot_cross(a: np.ndarray) -> np.ndarray:
    """The (..., 4, 3) matrices A(a) of a (..., 3) stack, A(a) b = (a.b, a x b),
    as the one product sum_j a_j A(e_j)."""
    return (a @ _DOT_CROSS.reshape(3, 12)).reshape(a.shape[:-1] + (4, 3))


def _rotation3(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotations about an (N,3) array of axes by (N,) angles, shape (N,3,3)
    (Rodrigues). Raises unless every axis is finite and nonzero and every
    angle finite, before any cosine runs."""
    axes = np.asarray(axes, dtype=float)
    angles = np.asarray(angles, dtype=float)
    norms = _check_axes(axes, "rotation")
    if not np.isfinite(angles).all():
        raise ValidationError("rotation angle must be finite")
    n = axes / norms[:, None]
    c, s = np.cos(angles)[:, None, None], np.sin(angles)[:, None, None]
    return (np.eye(3) * c + (1 - c) * (n[:, :, None] * n[:, None, :])
            + s * _dot_cross(n)[:, 1:])


def rotation(axis, angle: float) -> LorentzTransform:
    """Spatial rotation about the given axis, embedded as a 4x4 transform."""
    L = np.eye(4)
    L[1:, 1:] = _rotation3(np.reshape(axis, (1, 3)), [angle])[0]
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
    if not m > 0:  # NaN-safe
        raise ValidationError("mass must be positive")
    P = np.asarray(P, dtype=float)
    _check_mass_shells(P, m)
    L = _canonical_boosts(P, m)
    _check_transforms(L)
    return L


def standard_boost_massive(p: FourVector, m: float) -> LorentzTransform:
    """Canonical rotation-free boost L(p) with L(p) (m,0,0,0) = p."""
    return LorentzTransform._checked(_standard_boosts_massive(_batch_of_one(p), m)[0])


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
    return LorentzTransform._checked(_standard_boosts_massless(_batch_of_one(k))[0])


_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# _SANDWICH[c, a, b] = sigma_a sigma_c sigma_b, with sigma_0 = 1
_SIGMAS4 = np.array([np.eye(2), *_PAULIS])
_SANDWICH = np.einsum("aij,cjk,bkl->cabil", _SIGMAS4, _SIGMAS4, _SIGMAS4)


def _det2(X: np.ndarray) -> np.ndarray:
    """Determinants of a (..., 2, 2) stack."""
    x = X.reshape(X.shape[:-2] + (4,))
    return x[..., 0] * x[..., 3] - x[..., 1] * x[..., 2]


def _sl2c(lam: np.ndarray) -> np.ndarray:
    """SL(2,C) images M of an (N,4,4) stack of Lorentz matrices, up to
    sign: M X(x) M† = X(lam x) with X(x) = x0 + x.sigma.

    Each candidate M_c = sum_ab lam_ab sigma_a sigma_c sigma_b equals
    2 tr(M† sigma_c) M. The c = 0 one vanishes at rotations by pi, so the
    candidate with the largest |det| is kept and divided by sqrt(det)."""
    cand = np.einsum("nab,cabij->ncij", lam, _SANDWICH)
    det = _det2(cand)
    # row n's best candidate, as an index into the flattened (4N) candidates
    k = np.argmax(np.abs(det), axis=1) + np.arange(0, 4 * len(lam), 4)
    return cand.reshape(-1, 2, 2)[k] / np.sqrt(det.reshape(-1, 1, 1)[k])


def rotation_from_su2(u: np.ndarray) -> np.ndarray:
    """Adjoint (double-cover) map R_ij = tr(sigma_i U sigma_j U†)/2, of one
    U (2,2) or of each of a (..., 2, 2) stack."""
    u = np.asarray(u, dtype=complex)
    u_dagger = np.swapaxes(u, -1, -2).conj()
    return np.einsum("iab,...bc,jcd,...da->...ij", _PAULIS, u, _PAULIS, u_dagger).real / 2.0


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
    """U(R) for an (N,4,4) stack, shape (N,2,2): the SU(2) image of R in
    lam = R B, B the pure boost on lam's first row, as the unitary polar
    factor of M = _sl2c(R), R = _rotation_parts(lam). Every term is O(1), so
    U is unitary to round-off at any rapidity (the polar factor of
    _sl2c(lam) loses accuracy like e^chi), and exactly 1 for a pure boost.
    No checks."""
    R = np.zeros((len(lam), 4, 4))
    R[:, 0, 0] = 1.0
    R[:, 1:, 1:] = _rotation_parts(lam)
    M = _sl2c(R)
    # M^{-dagger} of an SL(2,C) matrix is its conjugated cofactor matrix; the
    # sum is U tr H, so the round-off-sized H - 1 of M = U H drops out
    S = M[:, ::-1, ::-1] * _COFACTOR_SIGNS
    np.conjugate(S, out=S)
    S += M
    S /= np.sqrt(_det2(S))[:, None, None]
    return S


# the cofactor matrix [[d, -c], [-b, a]] of [[a, b], [c, d]] is its entries
# reversed, times these signs
_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _su2_images(x: np.ndarray, U: np.ndarray) -> np.ndarray:
    """D = U (x0 + i x.sigma)/|x| on the canonical branch (Re tr D >= 0),
    shape (N,2,2), from (4,N) quaternion rows x, normalized in place, and
    one U (2,2) for all N or one per row (N,2,2). No checks."""
    # T[k] = U (1, i sigma)_k as 8 floats, so D is the real product x^T T
    T = (U[..., None, :, :] @ _QUATERNION).view(float).reshape(U.shape[:-2] + (4, 8))
    r = np.sqrt(np.einsum("jn,jn->n", x, x))
    # Re tr D, up to the positive r: x against the real traces of the T[k]
    r[np.einsum("...j,j...->...", T[..., 0] + T[..., 6], x) < 0] *= -1.0
    x /= r
    # one (N,4) @ (4,8) product for a shared U, N (1,4) @ (4,8) products otherwise
    rows = x.T if U.ndim == 2 else x.T[:, None, :]
    D = np.empty((x.shape[1], 2, 2), dtype=complex)
    np.matmul(rows, T, out=D.view(float).reshape(rows.shape[:-1] + (8,)))
    return D


def _boost_halves(lam: np.ndarray) -> tuple:
    """The per-transform half of the half-rapidity form, for an (B,4,4)
    stack: (A, U) with A = A(a) the (B,4,3) dot-cross matrices of a =
    tanh(chi/2) n = lam_0i/(1 + lam_00) and U = _rotation_su2(lam). No checks.

    Half-rapidity (gyrovector) form. lam = R B with B the pure boost on
    lam's first row, and W(R B, p) = R W(B, p) for canonical boosts. With
    b = p/(m + p0) for L(p) (_grid_rows), W(B, p) is the unit quaternion
    x = (1 + a.b, a x b)/|.| (_half_rapidity), and D = +-U (x0 + i
    x.sigma)/|x| is the SU(2) image of W(lam, p). Every term is O(1), so D
    is unitary to round-off at any rapidity.
    """
    return _dot_cross(lam[:, 0, 1:] / (1.0 + lam[:, :1, 0])), _rotation_su2(lam)


def _grid_rows(P: np.ndarray, m: float) -> np.ndarray:
    """b = p/(m + p0) of an (N,4) grid of mass m, as (3,N) component rows.
    No checks."""
    # contiguous component rows: strided rows of P.T are 2x slower
    b = P[:, 1:].T.copy()
    b /= m + P[:, 0]
    return b


def _half_rapidity(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The per-point half: the unnormalized quaternion rows x = A b + (1, 0,
    0, 0), shape (..., 4, N), of A from _boost_halves (one (4,3) matrix or a
    stack) and (3,N) rows b from _grid_rows (or a stack of them). No checks."""
    x = A @ b
    x[..., 0, :] += 1.0
    return x


def wigner_su2_batch(lam: np.ndarray, P: np.ndarray, m: float) -> tuple:
    """The little-group kernel: (Q, D) for an (N,4) on-shell grid P of mass
    m, with Q = lam P and D the complex (N,2,2) SU(2) images of the
    little-group elements W = L^{-1}(lam p) lam L(p), canonical branch
    (Re tr D >= 0, rotation angle in [0, pi]). No checks.

    D = U(R) (x0 + i x.sigma)/|x| from _boost_halves and _half_rapidity, so
    D is unitary to round-off at any rapidity.
    """
    lam = np.asarray(lam, dtype=float)
    P = np.asarray(P, dtype=float)
    Q = P @ lam.T
    [A], [U] = _boost_halves(lam[None])
    return Q, _su2_images(_half_rapidity(A, _grid_rows(P, m)), U)


def _wigner_rotations(L: np.ndarray, P: np.ndarray, m: float) -> tuple:
    """The little-group elements W_n = L^{-1}(L_n p_n) L_n L(p_n) of N
    (transform, momentum) pairs, L (N,4,4) and P (N,4) of mass m: their
    rotations (N,3,3), axes (N,3), angles (N,) in [0, pi] and SU(2) images
    (N,2,2) on the canonical branch, as in wigner_su2_batch. A zero angle
    gets the z axis.

    Checks m > 0, every L_n as LorentzTransform does, p_n and L_n p_n as
    check_mass_shell does, and every D unitary; one bad pair raises.
    """
    if not m > 0:  # NaN-safe
        raise ValidationError("mass must be positive")
    L = np.asarray(L, dtype=float)
    P = np.asarray(P, dtype=float)
    _check_transforms(L)
    _check_mass_shells(P, m)
    _check_mass_shells((L @ P[:, :, None])[:, :, 0], m)
    # the half-rapidity form with one A and one b column per pair
    A, U = _boost_halves(L)
    D = _su2_images(_half_rapidity(A, _grid_rows(P, m).T[:, :, None])[:, :, 0].T, U)
    _check_identity(D @ np.swapaxes(D, 1, 2).conj(), "little-group element is not a rotation")
    # D = w - i (x, y, z).sigma
    v = -np.stack([D[:, 0, 1].imag, D[:, 0, 1].real, D[:, 0, 0].imag], axis=1)
    norms = np.sqrt(np.einsum("ni,ni->n", v, v))
    angles = 2.0 * np.arctan2(norms, D[:, 0, 0].real)
    axes = np.zeros_like(v)
    axes[:, 2] = 1.0
    turned = angles > 1e-15
    axes[turned] = v[turned] / norms[turned, None]
    return rotation_from_su2(D), axes, angles, D


def wigner_rotation(lam: LorentzTransform, p: FourVector, m: float) -> WignerRotation:
    """W = L^{-1}(lam p) lam L(p); fixes (m,0,0,0), so it is a rotation.

    _wigner_rotations with a batch of one: D = w - i (x, y, z).sigma gives
    the axis and angle, the adjoint map the rotation."""
    R, axes, angles, D = _wigner_rotations(lam.matrix[None], _batch_of_one(p), m)
    return WignerRotation(rotation=R[0], axis=axes[0], angle=float(angles[0]), su2=D[0])


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
    U = _rotation_su2(lam.matrix[None])[0]
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
    angle is unchanged. The speed check is boost()'s.
    """
    _check_speeds(np.array([v * v]))
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
    shape S + (3,3), S the broadcast shape of theta and phi. The cosines and
    sines run before the angles broadcast, so rings of rays, theta
    (..., n_theta, 1) against phi (n_phi,), take n_theta + n_phi of each."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    R = np.empty(np.broadcast_shapes(np.shape(theta), np.shape(phi)) + (3, 3))
    R[..., 0, 0] = ct * cp
    R[..., 0, 1] = -sp
    R[..., 0, 2] = cp * st
    R[..., 1, 0] = ct * sp
    R[..., 1, 1] = cp
    R[..., 1, 2] = sp * st
    R[..., 2, 0] = -st
    R[..., 2, 1] = 0.0
    R[..., 2, 2] = ct
    return R
