"""Photon polarization on direction grids.

Helicity bases per propagation direction, the transversal decomposition
of momentum-independent polarization labels (whose longitudinal part is
unphysical), the {E_x, E_y, E_z} polarization POVM, effective 3x3
polarization density matrices, boosts along z with aberration and
helicity phases, and the Doppler behavior of distinguishability.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._errors import DimensionError, ValidationError
from .lorentz import (LorentzTransform, _rotation_to_khat_batch, boost,
                      helicity_phase_batch)
from .qstate import hermitize

__all__ = [
    "PhotonPacket",
    "PolarizationMatrix",
    "TransversalFrame",
    "helicity_vectors",
    "transversal_decomposition",
    "collimated_packet",
    "povm_expectation",
    "effective_density_matrix",
    "naive_density_matrix",
    "boost_packet",
    "rotate_packet",
    "doppler_error_ratio",
    "no_orthogonality_witness",
]

_EPS_P_STD = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)
_EPS_M_STD = np.array([1.0, -1.0j, 0.0]) / np.sqrt(2.0)


def _helicity_vectors_batch(theta: np.ndarray, phi: np.ndarray) -> tuple:
    R = _rotation_to_khat_batch(theta, phi)
    return R @ _EPS_P_STD, R @ _EPS_M_STD


def helicity_vectors(theta: float, phi: float) -> tuple:
    """Right/left circular polarization 3-vectors at direction (theta, phi):
    the standard rotation applied to (1, +-i, 0)/sqrt(2)."""
    ep, em = _helicity_vectors_batch(np.array([theta], dtype=float),
                                     np.array([phi], dtype=float))
    return ep[0], em[0]


def transversal_decomposition(direction, theta: float, phi: float) -> tuple:
    """Split a unit polarization label into helicity and longitudinal parts.

    Returns (n_plus, n_minus, n_ell, c): conjugate-paired helicity
    components eps+-bar . n, the longitudinal overlap n . khat, and the
    transversal weight c = sqrt(|n+|^2 + |n-|^2). Components satisfy
    |n+|^2 + |n-|^2 + |n_ell|^2 = 1.
    """
    n = np.asarray(direction, dtype=complex)
    if abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise ValidationError("polarization label must be a unit vector")
    ep, em = helicity_vectors(theta, phi)
    khat = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta)])
    n_plus = complex(ep.conj() @ n)
    n_minus = complex(em.conj() @ n)
    n_ell = complex(khat @ n)
    c = float(np.sqrt(abs(n_plus) ** 2 + abs(n_minus) ** 2))
    return n_plus, n_minus, n_ell, c


@dataclass(frozen=True)
class TransversalFrame:
    """Helicity vectors per grid direction, validated transversal and
    orthonormal against the directions that built them."""

    khat: np.ndarray
    eps_plus: np.ndarray
    eps_minus: np.ndarray

    def __post_init__(self):
        if self.eps_plus.shape != self.eps_minus.shape \
                or self.khat.shape != self.eps_plus.shape:
            raise DimensionError("frame arrays disagree")
        for eps in (self.eps_plus, self.eps_minus):
            if np.abs(np.einsum("ni,ni->n", eps, self.khat)).max() > 1e-12:
                raise ValidationError("helicity vectors are not transversal")
            norms = np.linalg.norm(eps, axis=1)
            if np.abs(norms - 1.0).max() > 1e-12:
                raise ValidationError("helicity vectors are not unit")
        cross = np.einsum("ni,ni->n", self.eps_plus.conj(), self.eps_minus)
        if np.abs(cross).max() > 1e-12:
            raise ValidationError("helicity vectors are not orthogonal")

    @classmethod
    def for_directions(cls, theta: np.ndarray, phi: np.ndarray) -> "TransversalFrame":
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        ep, em = _helicity_vectors_batch(theta, phi)
        st, ct = np.sin(theta), np.cos(theta)
        khat = np.column_stack([st * np.cos(phi), st * np.sin(phi), ct])
        return cls(khat=khat, eps_plus=ep, eps_minus=em)


@dataclass(frozen=True)
class PolarizationMatrix:
    """Hermitian PSD 3x3 polarization matrix, trace at most 1 (a deficit
    records longitudinal leakage when a POVM-route construction has any)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = hermitize(self.matrix)
        if m.shape != (3, 3):
            raise DimensionError("polarization matrix must be 3x3")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValidationError("polarization matrix is not PSD")
        tr = np.trace(m).real
        if tr > 1.0 + 1e-10:
            raise ValidationError(f"trace {tr} exceeds 1")
        object.__setattr__(self, "matrix", m)

    @property
    def trace_deficit(self) -> float:
        return float(1.0 - np.trace(self.matrix).real)


@dataclass(frozen=True)
class PhotonPacket:
    """Direction-grid one-photon packet.

    theta, phi: (N,) grid directions; weights: (N,) quadrature weights;
    profile: (N,) complex amplitude with sum w |f|^2 = 1; alpha: (N,2)
    helicity amplitudes, unit per point; k0: (N,) frequency scale.
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    profile: np.ndarray
    alpha: np.ndarray
    k0: np.ndarray

    def __post_init__(self):
        n = self.theta.size
        shapes = (self.phi.shape, self.weights.shape, self.profile.shape,
                  self.k0.shape)
        if any(s != (n,) for s in shapes) or self.alpha.shape != (n, 2):
            raise DimensionError("inconsistent packet arrays")
        norm = float(np.sum(self.weights * np.abs(self.profile) ** 2))
        if abs(norm - 1.0) > 1e-8:
            raise ValidationError(f"profile norm^2 {norm} differs from 1")
        helnorm = np.abs(np.sum(np.abs(self.alpha) ** 2, axis=1) - 1.0).max()
        if helnorm > 1e-12:
            raise ValidationError("helicity amplitudes are not unit per point")

    @property
    def masses(self) -> np.ndarray:  # per-ray probability masses w |f|^2
        return self.weights * np.abs(self.profile) ** 2

    def four_momenta(self) -> np.ndarray:
        st, ct = np.sin(self.theta), np.cos(self.theta)
        cp, sp = np.cos(self.phi), np.sin(self.phi)
        return np.column_stack([self.k0, self.k0 * st * cp, self.k0 * st * sp,
                                self.k0 * ct])


def _polarization_alphas(theta: np.ndarray, phi: np.ndarray, polarization):
    """Per-point helicity amplitudes for a named or explicit polarization."""
    n = theta.size
    if isinstance(polarization, str):
        if polarization == "plus":
            a = np.zeros((n, 2), dtype=complex)
            a[:, 0] = 1.0
            return a
        if polarization == "minus":
            a = np.zeros((n, 2), dtype=complex)
            a[:, 1] = 1.0
            return a
        axis = {"linear-x": np.array([1.0, 0.0, 0.0]),
                "linear-y": np.array([0.0, 1.0, 0.0])}.get(polarization)
        if axis is None:
            raise ValueError(f"unknown polarization {polarization!r}")
        ep, em = _helicity_vectors_batch(theta, phi)
        ap = ep.conj() @ axis
        am = em.conj() @ axis
        c = np.sqrt(np.abs(ap) ** 2 + np.abs(am) ** 2)
        return np.column_stack([ap / c, am / c])
    a = np.asarray(polarization, dtype=complex)
    if a.shape == (2,):
        a = np.tile(a / np.linalg.norm(a), (n, 1))
    return a


def collimated_packet(aperture: float, polarization="linear-x",
                      n_theta: int = 32, n_phi: int = 64) -> PhotonPacket:
    """Monochromatic beam around +z: top-hat opening-angle profile with a
    smooth C1 edge taper over the outer 10% of the aperture.

    Quadrature is Gauss-Legendre in cos(theta) times uniform phi, accurate
    well below the packet tolerances for apertures down to ~0.01 rad.
    """
    if aperture <= 0 or aperture >= np.pi / 2:
        raise ValidationError("aperture must lie in (0, pi/2)")
    x, wx = leggauss(n_theta)
    c0 = np.cos(aperture)
    cost = 0.5 * (x + 1.0) * (1.0 - c0) + c0
    w_theta = wx * 0.5 * (1.0 - c0)
    theta1 = np.arccos(cost)
    phi1 = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    th, ph = np.meshgrid(theta1, phi1, indexing="ij")
    weights = np.outer(w_theta, np.full(n_phi, 2.0 * np.pi / n_phi)).ravel()
    th, ph = th.ravel(), ph.ravel()

    edge = 0.9 * aperture
    t = np.clip((th - edge) / (0.1 * aperture), 0.0, 1.0)
    profile = (1.0 - (3.0 * t ** 2 - 2.0 * t ** 3)).astype(complex)
    norm = np.sum(weights * np.abs(profile) ** 2)
    profile /= np.sqrt(norm)

    alpha = _polarization_alphas(th, ph, polarization)
    return PhotonPacket(theta=th, phi=ph, weights=weights, profile=profile,
                        alpha=alpha, k0=np.ones_like(th))


def _b_components(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Helicity components b[axis, point, +-] of the transversal parts of
    the Cartesian polarization labels x, y, z."""
    ep, em = _helicity_vectors_batch(theta, phi)
    b = np.empty((3, theta.size, 2), dtype=complex)
    for m in range(3):
        axis = np.zeros(3)
        axis[m] = 1.0
        b[m, :, 0] = ep.conj() @ axis
        b[m, :, 1] = em.conj() @ axis
    return b


def povm_expectation(packet: PhotonPacket, axis: str) -> float:
    """Expectation of the polarization POVM element along 'x', 'y' or 'z':
    sum_i w_i |f_i|^2 |<b_axis(k_i), alpha_i>|^2."""
    idx = {"x": 0, "y": 1, "z": 2}.get(axis)
    if idx is None:
        raise ValueError("axis must be 'x', 'y' or 'z'")
    b = _b_components(packet.theta, packet.phi)[idx]
    overlap = np.sum(b.conj() * packet.alpha, axis=1)
    return float(np.sum(packet.masses * np.abs(overlap) ** 2))


def effective_density_matrix(packet: PhotonPacket) -> PolarizationMatrix:
    """3x3 polarization matrix from the POVM route:
    rho_mn = sum_i w|f|^2 <b_m, alpha><alpha, b_n>. Its diagonal entries
    are the povm_expectation values, and it coincides with the naive
    Cartesian construction."""
    b = _b_components(packet.theta, packet.phi)
    ov = np.einsum("mnh,nh->mn", b.conj(), packet.alpha)  # <b_m | alpha> per point
    rho = np.einsum("n,mn,kn->mk", packet.masses, ov, ov.conj())
    return PolarizationMatrix(matrix=rho)


def naive_density_matrix(packet: PhotonPacket) -> PolarizationMatrix:
    """Cartesian outer-product construction sum w|f|^2 alpha_m alpha_n*."""
    ep, em = _helicity_vectors_batch(packet.theta, packet.phi)
    avec = packet.alpha[:, :1] * ep + packet.alpha[:, 1:] * em
    rho = np.einsum("n,nm,nk->mk", packet.masses, avec, avec.conj())
    return PolarizationMatrix(matrix=rho)


def boost_packet(packet: PhotonPacket, v: float) -> PhotonPacket:
    """Boost along +z: directions aberrate, frequencies rescale, helicity
    amplitudes pick up the little-group phases e^(-+ i xi) (identically
    zero for z boosts), and the solid-angle Jacobian is absorbed so each
    ray keeps its probability mass.

    Positive v is the receding-detector convention: a beam around +z
    widens, small tilt angles scale by sqrt((1+v)/(1-v)).
    """
    if abs(v) >= 1.0:
        raise ValidationError("speed must satisfy |v| < 1")
    g = 1.0 / np.sqrt(1.0 - v * v)
    ct = np.cos(packet.theta)
    denom = 1.0 - v * ct
    sin_tp = np.sin(packet.theta) / (g * denom)
    cos_tp = (ct - v) / denom
    theta_p = np.arctan2(sin_tp, cos_tp)
    k0_p = packet.k0 * g * denom
    # d(cos theta')/d(cos theta): keep w|f|^2 per ray invariant
    jac = (1.0 - v * v) / denom ** 2
    weights_p = packet.weights * jac
    profile_p = packet.profile / np.sqrt(jac)

    lam = boost(np.array([0.0, 0.0, v]))
    xi = helicity_phase_batch(lam, packet.four_momenta())
    phases = np.column_stack([np.exp(-1j * xi), np.exp(1j * xi)])
    return PhotonPacket(theta=theta_p, phi=packet.phi.copy(), weights=weights_p,
                        profile=profile_p, alpha=packet.alpha * phases, k0=k0_p)


def rotate_packet(packet: PhotonPacket, lam: LorentzTransform) -> PhotonPacket:
    """Rigid rotation of the packet: directions move geometrically and
    helicity amplitudes acquire the little-group phases."""
    R = lam.matrix[1:, 1:]
    if np.abs(lam.matrix[0] - np.array([1.0, 0, 0, 0])).max() > 1e-12:
        raise ValidationError("rotate_packet expects a pure rotation")
    k = packet.four_momenta()
    kr = k @ lam.matrix.T
    khat = kr[:, 1:] / kr[:, :1]
    theta_p = np.arccos(np.clip(khat[:, 2], -1.0, 1.0))
    phi_p = np.arctan2(khat[:, 1], khat[:, 0])
    xi = helicity_phase_batch(lam, k)
    phases = np.column_stack([np.exp(-1j * xi), np.exp(1j * xi)])
    return PhotonPacket(theta=theta_p, phi=phi_p, weights=packet.weights.copy(),
                        profile=packet.profile.copy(),
                        alpha=packet.alpha * phases, k0=packet.k0.copy())


def _renormalized_error(rho1: PolarizationMatrix, rho2: PolarizationMatrix) -> float:
    m1 = rho1.matrix / np.trace(rho1.matrix).real
    m2 = rho2.matrix / np.trace(rho2.matrix).real
    ev = np.linalg.eigvalsh(hermitize(m1 - m2))
    return float(min(max(0.5 - 0.25 * np.abs(ev).sum(), 0.0), 0.5))


def doppler_error_ratio(aperture: float, v: float, n_theta: int = 32,
                        n_phi: int = 64, polarizations=("linear-x", "linear-y")) -> dict:
    """Distinguishability change of two same-profile packets under a z boost.

    P_E compares the (trace-renormalized) effective 3x3 matrices in the
    source frame, P_E' after boosting both packets by v. In the small-
    aperture limit the ratio approaches (1+v)/(1-v). A source-frame error
    below 1e-14 cannot support a ratio and is reported as degenerate.
    """
    p1 = collimated_packet(aperture, polarizations[0], n_theta, n_phi)
    p2 = collimated_packet(aperture, polarizations[1], n_theta, n_phi)
    pe = _renormalized_error(effective_density_matrix(p1),
                             effective_density_matrix(p2))
    b1, b2 = boost_packet(p1, v), boost_packet(p2, v)
    pe_prime = _renormalized_error(effective_density_matrix(b1),
                                   effective_density_matrix(b2))
    if pe < 1e-14:
        return {"P_E": pe, "P_E_prime": pe_prime, "ratio": None,
                "degenerate": True}
    return {"P_E": pe, "P_E_prime": pe_prime, "ratio": pe_prime / pe,
            "degenerate": False}


def no_orthogonality_witness(aperture: float, n_theta: int = 32,
                             n_phi: int = 64) -> dict:
    """Residual indistinguishability of would-be orthogonal polarizations.

    For candidate pairs (x vs y linear, plus vs minus helicity) the
    optimal discrimination probability 1 - P_E over the polarization POVM
    statistics stays below 1 by a margin that grows with the aperture and
    vanishes as the beam sharpens. Returns per-pair error probabilities
    and the guaranteed margin (their minimum).
    """
    if aperture <= 0:
        raise ValidationError("aperture must be positive")
    pairs = {
        "linear_x_vs_y": ("linear-x", "linear-y"),
        "helicity_plus_vs_minus": ("plus", "minus"),
    }
    deficits = {}
    for label, (pol1, pol2) in pairs.items():
        p1 = collimated_packet(aperture, pol1, n_theta, n_phi)
        p2 = collimated_packet(aperture, pol2, n_theta, n_phi)
        deficits[label] = _renormalized_error(effective_density_matrix(p1),
                                              effective_density_matrix(p2))
    return {"deficits": deficits, "margin": min(deficits.values())}
