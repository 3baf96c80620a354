"""Vectorized NumPy implementation of the batched little-group kernel.

Fallback for the compiled extension: maps a momentum grid through a
Lorentz transform and returns the per-point SU(2) little-group images
applied to spin-1/2 amplitudes. Same conventions as relqinfo.lorentz
(canonical rotation-free standard boost).
"""
from __future__ import annotations

import numpy as np

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
_ETA_SIGNS = np.outer(np.diag(ETA), np.diag(ETA))


def _canonical_boost_batch(P: np.ndarray, m: float) -> np.ndarray:
    n = P.shape[0]
    L = np.zeros((n, 4, 4))
    L[:, 0, 0] = P[:, 0] / m
    L[:, 0, 1:] = P[:, 1:] / m
    L[:, 1:, 0] = P[:, 1:] / m
    L[:, 1:, 1:] = np.eye(3) + P[:, 1:, None] * P[:, None, 1:] / (
        m * (m + P[:, 0])
    )[:, None, None]
    return L


def _quaternion_batch(R: np.ndarray) -> np.ndarray:
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


def wigner_su2_batch(lam: np.ndarray, P: np.ndarray, m: float):
    """Boost an (N,4) on-shell momentum grid.

    Returns (Q, D): Q = mapped momenta (N,4); D = complex (N,2,2) SU(2)
    little-group elements W = L^{-1}(lam p) lam L(p), canonical branch
    (rotation angle in [0, pi]).
    """
    lam = np.asarray(lam, dtype=float)
    P = np.asarray(P, dtype=float)
    Q = P @ lam.T
    LP = _canonical_boost_batch(P, m)
    LQ = _canonical_boost_batch(Q, m)
    # inverse of a boost: eta L^T eta, a sign flip of the transpose (in
    # place on the view: one (N,4,4) temporary fewer)
    LQinv = np.swapaxes(LQ, 1, 2)
    LQinv *= _ETA_SIGNS
    W = LQinv @ (lam @ LP)
    q = _quaternion_batch(W[:, 1:, 1:])
    D = np.empty((P.shape[0], 2, 2), dtype=complex)
    D[:, 0, 0] = q[:, 0] - 1j * q[:, 3]
    D[:, 0, 1] = -1j * q[:, 1] - q[:, 2]
    D[:, 1, 0] = -1j * q[:, 1] + q[:, 2]
    D[:, 1, 1] = q[:, 0] + 1j * q[:, 3]
    return Q, D
