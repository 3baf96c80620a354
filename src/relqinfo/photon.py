"""Photon polarization on direction grids.

Helicity bases per propagation direction, the helicity components of
momentum-independent polarization labels (whose longitudinal part is
unphysical), the {E_x, E_y, E_z} polarization POVM, effective 3x3
polarization density matrices, boosts along z (aberrated angles and
frequencies from lorentz.aberrate; the helicity amplitudes carry over,
since a z boost's little-group phase is 0), and the Doppler behavior of
distinguishability.

The packet math is batched over a leading packet axis. The single-packet
functions run per ray, as a batch of one: the linear labels renormalize
per ray. Packets of one helicity pair each go through the ring-moment core
_povm_rings, which reduces every polar ring to six mass moments and
builds no per-ray array.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._errors import DimensionError, ValidationError
from .lorentz import _rotation_to_khat_batch, aberrate
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


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and shared read-only by every packet built on it."""
    from numpy.polynomial.legendre import leggauss

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


def _unit_pairs(pairs) -> np.ndarray:
    """Helicity pairs (..., 2), each divided by its norm."""
    a = np.asarray(pairs, dtype=complex)
    norms = np.linalg.norm(a, axis=-1, keepdims=True)
    if not (np.isfinite(norms) & (norms > 0)).all():
        raise ValidationError("a helicity pair needs a finite, nonzero norm")
    return a / norms


def _polarization_alphas(ep: np.ndarray, em: np.ndarray, polarization):
    """Per-ray helicity amplitudes (N, 2) on rays with helicity vectors
    (N, 3): a named polarization, one helicity pair (2,), normalized, or
    explicit amplitudes (N, 2), passed through."""
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
    if a.shape == (2,):
        return np.repeat(_unit_pairs(a)[None], rays[0], axis=0)
    return a


def _collimated_rings(apertures, n_theta: int, n_phi: int) -> tuple:
    """The rings of P collimated packets (see collimated_packet): the polar
    angles (P, n_theta), the azimuths (n_phi,) and, per ring, the weight
    and the unnormalized profile of each of its rays (P, n_theta)."""
    for name, count in (("n_theta", n_theta), ("n_phi", n_phi)):
        if not _is_count(count):
            raise ValidationError(f"{name} must be a whole number >= 1, got {count!r}")
    n_theta, n_phi = int(float(n_theta)), int(float(n_phi))
    apertures = np.asarray(apertures, dtype=float)
    if not np.all((apertures > 0) & (apertures < np.pi / 2)):
        raise ValidationError("aperture must lie in (0, pi/2)")
    x, wx = _gauss_legendre(n_theta)
    c0 = np.cos(apertures)[:, None]
    th = np.arccos(0.5 * (x + 1.0) * (1.0 - c0) + c0)
    phi = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    a = apertures[:, None]
    t = np.clip((th - 0.9 * a) / (0.1 * a), 0.0, 1.0)
    return (th, phi, wx * 0.5 * (1.0 - c0) * (2.0 * np.pi / n_phi),
            1.0 - (3.0 * t ** 2 - 2.0 * t ** 3))


def collimated_packet(aperture: float, polarization="linear-x",
                      n_theta: int = 32, n_phi: int = 64) -> PhotonPacket:
    """Monochromatic beam around +z: top-hat opening-angle profile with a
    smooth C1 edge taper over the outer 10% of the aperture.

    Quadrature is Gauss-Legendre in cos(theta) times uniform phi, accurate
    well below the packet tolerances for apertures down to ~0.01 rad.
    `polarization` is 'plus', 'minus', 'linear-x', 'linear-y', one
    helicity pair (2,) or per-ray helicity amplitudes (N, 2), with ray
    index theta_index * n_phi + phi_index.
    """
    th, phi, w, taper = _collimated_rings([aperture], n_theta, n_phi)
    th, weights = th[0], np.repeat(w[0], phi.size)
    profile = np.repeat(taper[0], phi.size).astype(complex)
    profile /= np.sqrt(np.sum(weights * np.abs(profile) ** 2))
    ep, em = (e.reshape(-1, 3) for e in _helicity_vectors_batch(th[:, None], phi))
    theta = np.repeat(th, phi.size)
    return PhotonPacket(theta=theta, phi=np.tile(phi, th.size), weights=weights,
                        profile=profile, alpha=_polarization_alphas(ep, em, polarization),
                        k0=np.ones_like(theta))


def _overlaps(alpha: np.ndarray, ep: np.ndarray, em: np.ndarray) -> np.ndarray:
    """<b_m(k) | alpha> per ray (or ring term) and Cartesian axis m, shape
    (P, N, 3), the operands broadcast over P and N: _b_components,
    conjugated in place, contracted with alpha. The naive route's
    _cartesian_vectors (_ring_vectors on rings) is the same sum written out;
    the two stay separate computations, so their gap can show a fault in
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


# eps+ of _helicity_vectors_batch as a sum of five terms (1, 5, 3), eps- its
# conjugate: term j's factor is entry _THETA_TERM[j] of (1, cos, sin)(theta)
# times entry _PHI_TERM[j] of (cos, sin, 1)(phi)
_RING_EP = np.array([[[1, 0, 0], [0, 1, 0], [0, 1j, 0], [-1j, 0, 0], [0, 0, -1]]]) * _INV_SQRT2
_THETA_TERM, _PHI_TERM = np.array([1, 1, 0, 0, 2]), np.array([0, 1, 0, 1, 2])


def _ring_vectors(pairs: np.ndarray) -> np.ndarray:
    """The naive route's term vectors (P, 5, 3) on the _RING_EP terms, from
    v = alpha+ eps+ + alpha- eps- = A cos(phi) + B sin(phi) + C with
    A = (cos(theta) s, i d, 0)/sqrt(2), B = (-i d, cos(theta) s, 0)/sqrt(2) and
    C = (0, 0, -sin(theta) s)/sqrt(2), where s = alpha+ + alpha- and
    d = alpha+ - alpha-."""
    s = (pairs[:, 0] + pairs[:, 1]) * _INV_SQRT2
    d = (pairs[:, 0] - pairs[:, 1]) * (1j * _INV_SQRT2)
    u = np.zeros((len(pairs), 5, 3), dtype=complex)
    u[:, 0, 0] = u[:, 1, 1] = s
    u[:, 2, 1], u[:, 3, 0], u[:, 4, 2] = d, -d, -s
    return u


def _povm_rings(apertures, pairs, n_theta: int, n_phi: int) -> tuple:
    """POVM statistics of P collimated packets of one helicity pair each
    (P, 2): the expectations of E_x, E_y, E_z (P, 3) and the effective and
    naive matrices (P, 3, 3), hermitized and checked as PolarizationMatrix
    checks them, with the packets checked as PhotonPacket checks them.

    A ring's rays share one mass, and each ray's vector is a sum over the
    _RING_EP terms, v = sum_j f_j(theta) g_j(phi) u_j, so a packet's
    sum_i m_i v_i v_i^dagger is U^T W conj(U): W_jk is the ring masses'
    moment of f_j f_k (six distinct per packet) times the phi grid's mean of
    g_j g_k, exact for every n_phi. The POVM route takes U from the terms'
    b components (_overlaps), the naive route from A, B and C
    (_ring_vectors), so their gap can show a fault in either."""
    th, phi, w, taper = _collimated_rings(apertures, n_theta, n_phi)
    pairs = _unit_pairs(pairs)
    profile = taper / np.sqrt(np.sum(phi.size * w * taper ** 2, axis=1, keepdims=True))
    masses = phi.size * w * profile ** 2  # per ring
    _check_packets(masses, pairs[:, None])
    ring = np.stack([np.ones_like(th), np.cos(th), np.sin(th)], axis=-1)
    moments = (ring * masses[..., None]).swapaxes(1, 2) @ ring
    azimuth = np.stack([np.cos(phi), np.sin(phi), np.ones_like(phi)])
    means = azimuth @ azimuth.T / phi.size
    weights = (moments[:, _THETA_TERM[:, None], _THETA_TERM]
               * means[_PHI_TERM[:, None], _PHI_TERM])
    effective, naive = (u.swapaxes(1, 2) @ (weights @ u.conj()) for u in (
        _overlaps(pairs[:, None], _RING_EP, _RING_EP.conj()), _ring_vectors(pairs)))
    return (np.diagonal(effective, axis1=1, axis2=2).real,
            _checked_polarization(effective), _checked_polarization(naive))


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


def boost_packet(packet: PhotonPacket, v: float) -> PhotonPacket:
    """Boost along +z: directions aberrate, frequencies rescale, and the
    solid-angle Jacobian d(cos theta')/d(cos theta) is absorbed so each ray
    keeps its probability mass w |f|^2.

    The helicity amplitudes carry over unchanged. A z boost has U(R) = 1
    and keeps every azimuth, so its little-group phase xi = -2 arg(c'c +
    s's) (lorentz.helicity_phase_batch) is exactly 0 on every ray.

    Positive v is the receding-detector convention: a beam around +z
    widens, small tilt angles scale by sqrt((1+v)/(1-v)).
    """
    theta_p, ratio = aberrate(packet.theta, packet.phi, v)
    # equal to ratio**-2, but this rounding is the one criterion 12 pins
    jac = (1.0 - v * v) / (1.0 - v * np.cos(packet.theta)) ** 2
    return PhotonPacket(theta=theta_p, phi=packet.phi.copy(), weights=packet.weights * jac,
                        profile=packet.profile / np.sqrt(jac), alpha=packet.alpha.copy(),
                        k0=packet.k0 * ratio)


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

    The two packets and the source-frame P_E are built once; each velocity
    boosts both through boost_packet.
    """
    p1 = collimated_packet(aperture, "linear-x", n_theta, n_phi)
    p2 = collimated_packet(aperture, "linear-y", n_theta, n_phi)
    pe = _renormalized_error(effective_density_matrix(p1),
                             effective_density_matrix(p2))
    degenerate = pe < 1e-14
    out = []
    for v in velocities:
        pe_prime = _renormalized_error(effective_density_matrix(boost_packet(p1, v)),
                                       effective_density_matrix(boost_packet(p2, v)))
        out.append({"P_E": pe, "P_E_prime": pe_prime,
                    "ratio": None if degenerate else pe_prime / pe,
                    "degenerate": degenerate})
    return out
