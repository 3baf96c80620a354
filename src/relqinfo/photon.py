"""Photon polarization on direction grids.

Helicity bases per propagation direction, the helicity components of
momentum-independent polarization labels (whose longitudinal part is
unphysical), the {E_x, E_y, E_z} polarization POVM, effective 3x3
polarization density matrices, boosts along z (aberrated angles and
frequencies from lorentz.aberrate; helicity phases from
lorentz.helicity_phase_batch, one call per boost in boost_packet and per
velocity in the Doppler core), and the Doppler behavior of
distinguishability.

The packet math is batched over a leading packet axis: P packets of N
rays are arrays of shape (P, N) (helicity amplitudes (P, N, 2)), and the
single-packet functions call it with a batch of one.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._errors import DimensionError, ValidationError
from .lorentz import (_rotation_to_khat_batch, aberrate, boost,
                      helicity_phase_batch)
from .qstate import (_check_near_one, _check_psd, _error_probabilities, _is_count,
                     hermitize)

__all__ = [
    "PhotonPacket",
    "PolarizationMatrix",
    "collimated_packet",
    "povm_expectation",
    "effective_density_matrix",
    "naive_density_matrix",
    "boost_packet",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _helicity_vectors_batch(theta: np.ndarray, phi: np.ndarray) -> tuple:
    """Right/left circular polarization 3-vectors at the directions of theta
    and phi broadcast together, shape S, each S + (3,): the standard rotation
    R carrying (0,0,1) onto the direction, applied to (1, +-i, 0)/sqrt(2),
    that is (R e_x +- i R e_y)/sqrt(2), so eps- = conj(eps+)."""
    R = _rotation_to_khat_batch(theta, phi)
    ep = np.empty(R.shape[:-1], dtype=complex)
    np.multiply(R[..., 0], _INV_SQRT2, out=ep.real)
    np.multiply(R[..., 1], _INV_SQRT2, out=ep.imag)
    return ep, ep.conj()


def _checked_polarization(matrices: np.ndarray) -> np.ndarray:
    """PolarizationMatrix's checks on a (P, 3, 3) stack: returns the
    hermitized stack, each matrix PSD with trace at most 1, or raises for
    the first matrix that fails."""
    m = hermitize(matrices)
    _check_psd(m, "polarization matrix")
    # a trace below 1 is the transversal weight of a partly longitudinal label
    _check_near_one(np.maximum(np.trace(m, axis1=-2, axis2=-1).real, 1.0),
                    "polarization matrix trace")
    return m


@dataclass(frozen=True)
class PolarizationMatrix:
    """Hermitian PSD 3x3 polarization matrix, trace at most 1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise DimensionError("polarization matrix must be 3x3")
        object.__setattr__(self, "matrix", _checked_polarization(m[None])[0])


def _check_packets(masses: np.ndarray, alpha: np.ndarray) -> None:
    """PhotonPacket's value checks on P packets at once, ray masses w |f|^2
    (P, N) and alpha (P, N, 2): the helicity amplitudes are unit per ray and
    each packet's norm^2, the sum of w |f|^2 |alpha|^2 and so the trace of its
    polarization matrices, is 1. Raises for the first packet that fails."""
    pairs = np.sum(np.abs(alpha) ** 2, axis=-1)
    _check_near_one(pairs, "helicity amplitude norm^2")
    _check_near_one(np.sum(masses * pairs, axis=-1), "packet norm^2")


@dataclass(frozen=True)
class PhotonPacket:
    """Direction-grid one-photon packet.

    theta, phi: (N,) grid directions; weights: (N,) quadrature weights;
    profile: (N,) complex amplitude; alpha: (N,2) helicity amplitudes, unit
    per point, with sum w |f|^2 |alpha|^2 = 1; k0: (N,) frequency scale.
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
        if not (np.isfinite(self.theta).all() and np.isfinite(self.phi).all()
                and (self.weights > 0).all() and (self.k0 > 0).all()):
            raise ValidationError("rays need finite directions, positive weights and k0")
        _check_packets(self.masses[None], self.alpha[None])

    @property
    def masses(self) -> np.ndarray:  # per-ray probability masses w |f|^2
        return self.weights * np.abs(self.profile) ** 2

    def four_momenta(self) -> np.ndarray:
        st, ct = np.sin(self.theta), np.cos(self.theta)
        cp, sp = np.cos(self.phi), np.sin(self.phi)
        return np.column_stack([self.k0, self.k0 * st * cp, self.k0 * st * sp,
                                self.k0 * ct])


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and shared read-only by every packet built on it."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _b_components(ep: np.ndarray, em: np.ndarray) -> np.ndarray:
    """Helicity components b[..., m, +-] = <eps+-|e_m> = conj(eps+-[..., m])
    of the transversal parts of the Cartesian polarization labels
    m = x, y, z, from helicity vectors of shape S + (3,)."""
    b = np.stack([ep, em], axis=-1)
    return np.conjugate(b, out=b)


def _polarization_alphas(ep: np.ndarray, em: np.ndarray, polarization):
    """Per-ray helicity amplitudes (P, N, 2) on rays with helicity vectors
    (P, N, 3): a named polarization shared by every packet, one helicity
    pair per packet (P, 2), normalized, or explicit amplitudes (P, N, 2),
    passed through."""
    rays = ep.shape[:-1]
    if isinstance(polarization, str):
        if polarization in ("plus", "minus"):
            a = np.zeros(rays + (2,), dtype=complex)
            a[..., 0 if polarization == "plus" else 1] = 1.0
            return a
        m = {"linear-x": 0, "linear-y": 1}.get(polarization)
        if m is None:
            raise ValueError(f"unknown polarization {polarization!r}")
        # the transversal part of the label, renormalized per ray
        b = _b_components(ep, em)[..., m, :]
        return b / np.sqrt(np.sum(np.abs(b) ** 2, axis=-1, keepdims=True))
    a = np.asarray(polarization, dtype=complex)
    if a.shape == rays[:-1] + (2,):
        norms = np.linalg.norm(a, axis=-1, keepdims=True)
        if not (np.isfinite(norms) & (norms > 0)).all():
            raise ValidationError("a helicity pair needs a finite, nonzero norm")
        a = a / norms
        return np.repeat(a[..., None, :], rays[-1], axis=-2)
    return a


def _collimated_rays(apertures, polarization, n_theta: int, n_phi: int) -> tuple:
    """Rays of P collimated packets (see collimated_packet), unchecked: the
    polar angle of each ring (P, n_theta) and the azimuths (n_phi,), with
    ray index theta_index * n_phi + phi_index; per ray, N = n_theta * n_phi
    of them, the weights and profile (P, N), the helicity vectors eps+,
    eps- (P, N, 3) from the ring angles, and alpha (P, N, 2).
    `polarization` is read by _polarization_alphas."""
    for name, count in (("n_theta", n_theta), ("n_phi", n_phi)):
        if not _is_count(count):
            raise ValidationError(f"{name} must be a whole number >= 1, got {count!r}")
    n_theta, n_phi = int(float(n_theta)), int(float(n_phi))
    apertures = np.asarray(apertures, dtype=float)
    if not np.all((apertures > 0) & (apertures < np.pi / 2)):
        raise ValidationError("aperture must lie in (0, pi/2)")
    x, wx = _gauss_legendre(n_theta)
    c0 = np.cos(apertures)[:, None]
    cost = 0.5 * (x + 1.0) * (1.0 - c0) + c0
    w_theta = wx * 0.5 * (1.0 - c0)
    th = np.arccos(cost)
    phi = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    weights = np.repeat(w_theta, n_phi, axis=1) * (2.0 * np.pi / n_phi)

    a = apertures[:, None]
    t = np.clip((th - 0.9 * a) / (0.1 * a), 0.0, 1.0)
    profile = np.repeat(1.0 - (3.0 * t ** 2 - 2.0 * t ** 3), n_phi, axis=1).astype(complex)
    profile /= np.sqrt(np.sum(weights * np.abs(profile) ** 2, axis=1,
                              keepdims=True))
    ep, em = (e.reshape(weights.shape + (3,))
              for e in _helicity_vectors_batch(th[..., None], phi))
    return th, phi, weights, profile, ep, em, _polarization_alphas(ep, em, polarization)


def collimated_packet(aperture: float, polarization="linear-x",
                      n_theta: int = 32, n_phi: int = 64) -> PhotonPacket:
    """Monochromatic beam around +z: top-hat opening-angle profile with a
    smooth C1 edge taper over the outer 10% of the aperture.

    Quadrature is Gauss-Legendre in cos(theta) times uniform phi, accurate
    well below the packet tolerances for apertures down to ~0.01 rad.
    `polarization` is 'plus', 'minus', 'linear-x', 'linear-y', one
    helicity pair (2,) or per-ray helicity amplitudes (N, 2).
    """
    if not isinstance(polarization, str):
        polarization = np.asarray(polarization, dtype=complex)[None]
    th, phi, weights, profile, _, _, alpha = _collimated_rays(
        [aperture], polarization, n_theta, n_phi)
    theta = np.repeat(th[0], phi.size)
    return PhotonPacket(theta=theta, phi=np.tile(phi, th.shape[1]), weights=weights[0],
                        profile=profile[0], alpha=alpha[0], k0=np.ones_like(theta))


def _overlaps(alpha: np.ndarray, ep: np.ndarray, em: np.ndarray) -> np.ndarray:
    """<b_m(k) | alpha> per ray and Cartesian axis m, shape (P, N, 3):
    _b_components, conjugated in place, contracted with alpha.
    The naive route's _cartesian_vectors is the same sum written out; the
    two stay separate computations, so their gap can show a fault in
    either. (A batched (3, 2) @ (2, 1) matmul is slower than this einsum.)"""
    b = _b_components(ep, em)
    return np.einsum("pnmh,pnh->pnm", np.conjugate(b, out=b), alpha)


def _povm_expectations(masses: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """sum_i w_i |f_i|^2 |<b_m(k_i), alpha_i>|^2 per packet, shape (P, 3),
    as one (P, 1, N) @ (P, N, 3) product."""
    squared = overlaps.real ** 2 + overlaps.imag ** 2
    return (masses[:, None] @ squared)[:, 0]


def _cartesian_vectors(alpha: np.ndarray, ep: np.ndarray, em: np.ndarray) -> np.ndarray:
    """Naive polarization 3-vectors alpha_+ eps_+ + alpha_- eps_-, (P, N, 3)."""
    return alpha[..., :1] * ep + alpha[..., 1:] * em


def _density_matrices(masses: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """sum_i w_i |f_i|^2 v_i v_i^dagger per packet, shape (P, 3, 3), as one
    (P, 3, N) @ (P, N, 3) product."""
    weighted = vectors.conj()
    weighted *= masses[..., None]
    return vectors.swapaxes(-1, -2) @ weighted


def _povm_batch(apertures, polarizations, n_theta: int, n_phi: int) -> tuple:
    """POVM statistics of P collimated packets at once, one helicity basis
    for the whole batch: the expectations of E_x, E_y, E_z (P, 3), and the
    effective and naive matrices (P, 3, 3), hermitized and checked as
    PolarizationMatrix checks them. The packets are checked as PhotonPacket
    checks them; `polarizations` is one helicity pair per packet (P, 2)."""
    _, _, weights, profile, ep, em, alpha = _collimated_rays(
        apertures, polarizations, n_theta, n_phi)
    masses = weights * np.abs(profile) ** 2
    _check_packets(masses, alpha)
    ov = _overlaps(alpha, ep, em)
    return (_povm_expectations(masses, ov),
            _checked_polarization(_density_matrices(masses, ov)),
            _checked_polarization(_density_matrices(
                masses, _cartesian_vectors(alpha, ep, em))))


def _batch_of_one(packet: PhotonPacket) -> tuple:
    """A packet as a batch of one: masses (1, N), alpha (1, N, 2) and its
    helicity vectors eps+, eps- (1, N, 3)."""
    ep, em = _helicity_vectors_batch(packet.theta[None], packet.phi[None])
    return packet.masses[None], packet.alpha[None], ep, em


def povm_expectation(packet: PhotonPacket, axis: str) -> float:
    """Expectation of the polarization POVM element along 'x', 'y' or 'z':
    sum_i w_i |f_i|^2 |<b_axis(k_i), alpha_i>|^2."""
    idx = {"x": 0, "y": 1, "z": 2}.get(axis)
    if idx is None:
        raise ValueError("axis must be 'x', 'y' or 'z'")
    masses, alpha, ep, em = _batch_of_one(packet)
    return float(_povm_expectations(masses, _overlaps(alpha, ep, em))[0, idx])


def effective_density_matrix(packet: PhotonPacket) -> PolarizationMatrix:
    """3x3 polarization matrix from the POVM route:
    rho_mn = sum_i w|f|^2 <b_m, alpha><alpha, b_n>. Its diagonal entries
    are the povm_expectation values, and it coincides with the naive
    Cartesian construction."""
    masses, alpha, ep, em = _batch_of_one(packet)
    ov = _overlaps(alpha, ep, em)
    return PolarizationMatrix(matrix=_density_matrices(masses, ov)[0])


def naive_density_matrix(packet: PhotonPacket) -> PolarizationMatrix:
    """Cartesian outer-product construction sum w|f|^2 alpha_m alpha_n*."""
    masses, alpha, ep, em = _batch_of_one(packet)
    vectors = _cartesian_vectors(alpha, ep, em)
    return PolarizationMatrix(matrix=_density_matrices(masses, vectors)[0])


def _boosted_rays(packet: PhotonPacket, v: float, xi: np.ndarray) -> tuple:
    """The boost along +z of a packet's rays, shared by every packet on the
    same rays: the aberrated polar angles and frequencies, the solid-angle
    Jacobian d(cos theta')/d(cos theta) and, from the rays' helicity angles
    xi under the boost, the phases e^(-+ i xi), (N, 2)."""
    theta_p, ratio = aberrate(packet.theta, packet.phi, v)
    # equal to ratio**-2, but this rounding is the one criterion 12 pins
    jac = (1.0 - v * v) / (1.0 - v * np.cos(packet.theta)) ** 2
    phases = np.column_stack([np.exp(-1j * xi), np.exp(1j * xi)])
    return theta_p, packet.k0 * ratio, jac, phases


def _boosted(packet: PhotonPacket, rays: tuple) -> PhotonPacket:
    """The packet moved onto boosted rays from _boosted_rays; w |f|^2 per ray
    is kept by absorbing the Jacobian."""
    theta_p, k0_p, jac, phases = rays
    return PhotonPacket(theta=theta_p, phi=packet.phi.copy(), weights=packet.weights * jac,
                        profile=packet.profile / np.sqrt(jac),
                        alpha=packet.alpha * phases, k0=k0_p)


def boost_packet(packet: PhotonPacket, v: float) -> PhotonPacket:
    """Boost along +z: directions aberrate, frequencies rescale, helicity
    amplitudes pick up the little-group phases e^(-+ i xi) (identically
    zero for z boosts), and the solid-angle Jacobian is absorbed so each
    ray keeps its probability mass.

    Positive v is the receding-detector convention: a beam around +z
    widens, small tilt angles scale by sqrt((1+v)/(1-v)).
    """
    xi = helicity_phase_batch(boost(np.array([0.0, 0.0, v])), packet.four_momenta())
    return _boosted(packet, _boosted_rays(packet, v, xi))


def _renormalized_error(rho1: PolarizationMatrix, rho2: PolarizationMatrix) -> float:
    """Error probability of the two trace-renormalized matrices."""
    return float(_error_probabilities(*(rho.matrix / np.trace(rho.matrix).real
                                        for rho in (rho1, rho2))))


def _doppler_ratios(aperture: float, velocities, n_theta: int = 32,
                    n_phi: int = 64) -> list:
    """Distinguishability change of two same-profile packets, polarized
    along x and along y, under a z boost, one dict per velocity, in order.

    P_E compares the (trace-renormalized) effective 3x3 matrices in the
    source frame, P_E' after boosting both packets by v. In the small-
    aperture limit the ratio approaches (1+v)/(1-v). A source-frame error
    below 1e-14 cannot support a ratio and is reported as degenerate.

    The two packets and the source-frame P_E are built once. Both packets
    lie on the same rays, so each velocity boosts the rays once, with one
    helicity-phase call, and each packet takes the shared phases onto its
    own alpha.
    """
    p1 = collimated_packet(aperture, "linear-x", n_theta, n_phi)
    p2 = collimated_packet(aperture, "linear-y", n_theta, n_phi)
    pe = _renormalized_error(effective_density_matrix(p1),
                             effective_density_matrix(p2))
    degenerate = pe < 1e-14
    k = p1.four_momenta()
    out = []
    for v in velocities:
        xi = helicity_phase_batch(boost(np.array([0.0, 0.0, v])), k)
        rays = _boosted_rays(p1, v, xi)
        pe_prime = _renormalized_error(effective_density_matrix(_boosted(p1, rays)),
                                       effective_density_matrix(_boosted(p2, rays)))
        out.append({"P_E": pe, "P_E_prime": pe_prime,
                    "ratio": None if degenerate else pe_prime / pe,
                    "degenerate": degenerate})
    return out
