"""Photon polarization on direction grids.

Helicity bases per propagation direction, the helicity components of
momentum-independent polarization labels (whose longitudinal part is
unphysical), the {E_x, E_y, E_z} polarization POVM, effective 3x3
polarization density matrices, boosts along z (aberrated angles and
frequencies from lorentz.aberrate; the helicity amplitudes carry over,
since a z boost's little-group phase is 0), and the Doppler behavior of
distinguishability.

A packet is a grid of rings: polar angles, the azimuths every ring shares,
one ray mass per ring and helicity amplitudes per ray. Every matrix comes
from one ring core, _ring_matrices, batched over packets and over the angle
sets (z boosts) of each: the azimuth sums run once per packet, and each
angle set costs one product over the rings. No per-ray vector is built.
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


def _check_packets(masses: np.ndarray, alpha: np.ndarray, n_phi: int) -> None:
    """PhotonPacket's value checks on P packets at once, ring masses w |f|^2
    (P, n_theta), one per ray, and alpha (P, n_theta, n_phi, 2) or one pair
    per packet (P, 1, 1, 2): the helicity amplitudes are unit per ray and
    each packet's norm^2, the sum of w |f|^2 |alpha|^2 over its rays and so
    the trace of its polarization matrices, is 1. Raises for the first
    packet that fails."""
    pairs = np.sum(np.abs(alpha) ** 2, axis=-1)
    _check_near_one(pairs, "helicity amplitude norm^2")
    _check_near_one(n_phi * np.sum(masses * pairs.mean(axis=-1), axis=-1), "packet norm^2")


@dataclass(frozen=True)
class PhotonPacket:
    """Direction-grid one-photon packet on rings.

    theta: (n_theta,) polar angles of the rings; phi: (n_phi,) azimuths of
    every ring's rays; masses: (n_theta,) probability mass w |f|^2 of each
    ray of a ring; alpha: (n_theta, n_phi, 2) helicity amplitudes, unit per
    ray, with sum w |f|^2 |alpha|^2 = 1 over the rays; k0: (n_theta,)
    frequency scale.
    """

    theta: np.ndarray
    phi: np.ndarray
    masses: np.ndarray
    alpha: np.ndarray
    k0: np.ndarray

    def __post_init__(self):
        rings = self.theta.shape
        if (len(rings) != 1 or self.phi.ndim != 1 or self.masses.shape != rings
                or self.k0.shape != rings or self.alpha.shape != rings + self.phi.shape + (2,)):
            raise DimensionError("inconsistent packet arrays")
        if not (np.isfinite(self.theta).all() and np.isfinite(self.phi).all()
                and (self.masses >= 0).all() and (self.k0 > 0).all()):
            raise ValidationError("rays need finite directions, masses >= 0 and k0 > 0")
        _check_packets(self.masses[None], self.alpha[None], self.phi.size)


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


def _polarization_alphas(theta: np.ndarray, phi: np.ndarray, polarization):
    """Helicity amplitudes (n_theta, n_phi, 2) on the rays of rings theta
    (n_theta,) and azimuths phi (n_phi,): a named polarization, one helicity
    pair (2,), normalized, or explicit amplitudes, passed through."""
    rays = theta.shape + phi.shape
    if isinstance(polarization, str):
        if polarization in ("plus", "minus"):
            a = np.zeros(rays + (2,), dtype=complex)
            a[..., 0 if polarization == "plus" else 1] = 1.0
            return a
        m = {"linear-x": 0, "linear-y": 1}.get(polarization)
        if m is None:
            raise ValueError(f"unknown polarization {polarization!r}")
        # the transversal part of the label, renormalized per ray
        b = _b_components(*_helicity_vectors_batch(theta[:, None], phi))[..., m, :]
        return b / np.sqrt(np.sum(np.abs(b) ** 2, axis=-1, keepdims=True))
    a = np.asarray(polarization, dtype=complex)
    if a.shape == (2,):
        return np.broadcast_to(_unit_pairs(a), rays + (2,)).copy()
    return a


def _collimated_rings(apertures, n_theta: int, n_phi: int) -> tuple:
    """The rings of P collimated packets (see collimated_packet): the polar
    angles (P, n_theta), the azimuths (n_phi,) and the mass of each ray of
    a ring (P, n_theta), normalized over the packet's rays."""
    for name, count in (("n_theta", n_theta), ("n_phi", n_phi)):
        if not _is_count(count):
            raise ValidationError(f"{name} must be a whole number >= 1, got {count!r}")
    n_theta, n_phi = int(float(n_theta)), int(float(n_phi))
    apertures = np.asarray(apertures, dtype=float)
    if not np.all((apertures > 0) & (apertures < np.pi / 2)):
        raise ValidationError("aperture must lie in (0, pi/2)")
    c0 = np.cos(apertures)[:, None]
    if (c0 == 1.0).any():  # below ~1.5e-8 the rings would have no width
        raise ValidationError(f"aperture {apertures[c0[:, 0] == 1.0][0]} is too small: "
                              "1 - cos(aperture) rounds to 0")
    x, wx = _gauss_legendre(n_theta)
    th = np.arccos(0.5 * (x + 1.0) * (1.0 - c0) + c0)
    phi = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    a = apertures[:, None]
    t = np.clip((th - 0.9 * a) / (0.1 * a), 0.0, 1.0)
    # the quadrature weight times the taper^2; the solid-angle factor of the
    # weights, one per packet, cancels in the normalization
    masses = wx * (1.0 - (3.0 * t ** 2 - 2.0 * t ** 3)) ** 2
    return th, phi, masses / (n_phi * np.sum(masses, axis=1, keepdims=True))


def collimated_packet(aperture: float, polarization="linear-x",
                      n_theta: int = 32, n_phi: int = 64) -> PhotonPacket:
    """Monochromatic beam around +z: top-hat opening-angle profile with a
    smooth C1 edge taper over the outer 10% of the aperture.

    Quadrature is Gauss-Legendre in cos(theta) times uniform phi, accurate
    well below the packet tolerances for apertures down to ~0.01 rad; an
    aperture whose 1 - cos rounds to 0 is rejected. `polarization` is
    'plus', 'minus', 'linear-x', 'linear-y', one helicity pair (2,) or
    helicity amplitudes per ray (n_theta, n_phi, 2).
    """
    th, phi, masses = _collimated_rings([aperture], n_theta, n_phi)
    return PhotonPacket(theta=th[0], phi=phi, masses=masses[0],
                        alpha=_polarization_alphas(th[0], phi, polarization),
                        k0=np.ones_like(th[0]))


# eps+ of _helicity_vectors_batch as a sum of five terms (5, 3), eps- its
# conjugate: term j's factor is entry _THETA_TERM[j] of (1, cos, sin)(theta)
# times entry _PHI_TERM[j] of (cos, sin, 1)(phi). Each term lies along one
# Cartesian axis, row j of _TERM_AXES.
_RING_EP = np.array([[1, 0, 0], [0, 1, 0], [0, 1j, 0], [-1j, 0, 0], [0, 0, -1]]) * _INV_SQRT2
_THETA_TERM, _PHI_TERM = np.array([1, 1, 0, 0, 2]), np.array([0, 1, 0, 1, 2])
_TERM_AXES = (_RING_EP != 0).astype(float)
_AXIS_PAIRS = _TERM_AXES[:, None, :, None] * _TERM_AXES[None, :, None, :]


def _overlaps(alpha: np.ndarray) -> np.ndarray:
    """The POVM route's term coefficients (..., 5) from alpha (..., 2): the
    overlap <b_m|alpha> of each _RING_EP term along its axis m, its
    _b_components conjugated and contracted with alpha. The naive route's
    _ring_vectors is the same sum written out; the two stay separate
    computations, so their gap can show a fault in either."""
    b = _b_components(_RING_EP, _RING_EP.conj())
    return alpha @ np.conjugate(b, out=b)[_TERM_AXES == 1].T


def _ring_vectors(pairs: np.ndarray) -> np.ndarray:
    """The naive route's term coefficients (..., 5) on the _RING_EP terms,
    from v = alpha+ eps+ + alpha- eps- = A cos(phi) + B sin(phi) + C with
    A = (cos(theta) s, i d, 0)/sqrt(2), B = (-i d, cos(theta) s, 0)/sqrt(2) and
    C = (0, 0, -sin(theta) s)/sqrt(2), where s = alpha+ + alpha- and
    d = alpha+ - alpha-."""
    s = (pairs[..., 0] + pairs[..., 1]) * _INV_SQRT2
    d = (pairs[..., 0] - pairs[..., 1]) * (1j * _INV_SQRT2)
    return np.stack([s, s, d, -d, -s], axis=-1)


def _ring_matrices(theta: np.ndarray, phi: np.ndarray, masses: np.ndarray,
                   coefficients: np.ndarray) -> np.ndarray:
    """sum_i m_i v_i v_i^dagger over the rays of P packets, each at V sets of
    polar angles, (..., P, V, 3, 3) unchecked: theta (P, V, n_theta), phi
    (n_phi,), ring masses (P, n_theta) and term coefficients c per ray
    (..., P, n_theta, n_phi, 5) or per packet (..., P, 1, 1, 5), from
    _overlaps or _ring_vectors (a leading axis may stack both routes).

    Each ray's vector is v = sum_j f_j(theta) g_j(phi) c_j a_j, a_j the axis
    of _RING_EP term j, so rho = sum_r m_r sum_jk f_j f_k(theta_r) Q_r[jk]
    a_j a_k^T with the ring tensor Q_r = sum_phi (g c)(g c)^dagger, built
    once for all V and spread over the axis pairs as a (25, 9) block. Each
    angle set is then one (1, 25 n_theta) @ (25 n_theta, 9) product in a
    stack, which gives each row the bits of a call with that set alone.
    With one coefficient set per packet, Q = G c c^dagger (G the grid's
    sums of g_j g_k, exact for every n_phi) has no ring axis: the ring-mass
    moments are summed first, and rho = t^T (moments G) conj(t) with the
    term vectors t_j = c_j a_j builds no (P, 25, 9) block."""
    g = np.stack([np.cos(phi), np.sin(phi), np.ones_like(phi)], axis=-1)[:, _PHI_TERM]
    ring = np.stack([np.ones_like(theta), np.cos(theta), np.sin(theta)], axis=-1)
    weighted = ring * masses[:, None, :, None]
    rings, n_phi = coefficients.shape[-3:-1]
    if rings == n_phi == 1:
        t = coefficients[..., 0, :, None] * _TERM_AXES
        moments = (weighted.swapaxes(-1, -2) @ ring)[..., _THETA_TERM[:, None], _THETA_TERM]
        return t.swapaxes(-1, -2) @ ((moments * (g.T @ g)) @ t.conj())
    gc = g * coefficients
    q = (gc.swapaxes(-1, -2) @ gc.conj())[..., None, None] * _AXIS_PAIRS
    moments = (weighted[..., :, None] * ring[..., None, :])[..., _THETA_TERM[:, None], _THETA_TERM]
    rho = moments.reshape(*theta.shape[:2], 1, -1) @ q.reshape(*q.shape[:-5], 1, -1, 9)
    return rho.reshape(*q.shape[:-5], -1, 3, 3)


def _povm_rings(apertures, pairs, n_theta: int, n_phi: int) -> tuple:
    """POVM statistics of P collimated packets of one helicity pair each
    (P, 2): the expectations of E_x, E_y, E_z (P, 3) and the effective and
    naive matrices (P, 3, 3), hermitized and checked as PolarizationMatrix
    checks them, with the packets checked as PhotonPacket checks them. The
    ring core's one-coefficient-set case: no per-ray array is built."""
    th, phi, masses = _collimated_rings(apertures, n_theta, n_phi)
    pairs = _unit_pairs(pairs)[:, None, None]
    _check_packets(masses, pairs, phi.size)
    routes = np.stack([_overlaps(pairs), _ring_vectors(pairs)])
    effective, naive = (_checked_polarization(m) for m in
                        _ring_matrices(th[:, None], phi, masses, routes)[:, :, 0])
    return np.diagonal(effective, axis1=1, axis2=2).real, effective, naive


def _packet_matrix(packet: PhotonPacket, coefficients: np.ndarray) -> PolarizationMatrix:
    """One packet's matrix from the ring core on its term coefficients."""
    return PolarizationMatrix(matrix=_ring_matrices(
        packet.theta[None, None], packet.phi, packet.masses[None], coefficients[None])[0, 0])


def povm_expectation(packet: PhotonPacket, axis: str) -> float:
    """Expectation of the polarization POVM element along 'x', 'y' or 'z':
    sum_i w_i |f_i|^2 |<b_axis(k_i), alpha_i>|^2, the diagonal entry of
    effective_density_matrix."""
    idx = {"x": 0, "y": 1, "z": 2}.get(axis)
    if idx is None:
        raise ValueError("axis must be 'x', 'y' or 'z'")
    return float(effective_density_matrix(packet).matrix[idx, idx].real)


def effective_density_matrix(packet: PhotonPacket) -> PolarizationMatrix:
    """3x3 polarization matrix from the POVM route:
    rho_mn = sum_i w|f|^2 <b_m, alpha><alpha, b_n>. Its diagonal entries
    are the povm_expectation values, and it coincides with the naive
    Cartesian construction."""
    return _packet_matrix(packet, _overlaps(packet.alpha))


def naive_density_matrix(packet: PhotonPacket) -> PolarizationMatrix:
    """Cartesian outer-product construction sum w|f|^2 alpha_m alpha_n*."""
    return _packet_matrix(packet, _ring_vectors(packet.alpha))


def boost_packet(packet: PhotonPacket, v: float) -> PhotonPacket:
    """Boost along +z: each ring's polar angle aberrates and its frequency
    rescales, and every ray keeps its probability mass w |f|^2 (the
    solid-angle Jacobian is absorbed) and its helicity amplitudes.

    A z boost has U(R) = 1 and keeps every azimuth, so its little-group
    phase xi = -2 arg(c'c + s's) (lorentz.helicity_phase_batch) is exactly
    0 on every ray.

    Positive v is the receding-detector convention: a beam around +z
    widens, small tilt angles scale by sqrt((1+v)/(1-v)).
    """
    theta_p, ratio = aberrate(packet.theta, packet.phi, v)
    return PhotonPacket(theta=theta_p, phi=packet.phi, masses=packet.masses,
                        alpha=packet.alpha, k0=packet.k0 * ratio)


def _doppler_ratios(aperture: float, velocities, n_theta: int = 32,
                    n_phi: int = 64) -> list:
    """Distinguishability change of two same-profile packets, polarized
    along x and along y, under a z boost, one dict per velocity, in order.

    P_E compares the (trace-renormalized) effective 3x3 matrices in the
    source frame, P_E' after boosting both packets by v. In the small-
    aperture limit the ratio approaches (1+v)/(1-v). A source-frame error
    below 1e-14 cannot support a ratio and is reported as degenerate.

    Each velocity boosts both packets through boost_packet, and one ring
    core call gives the source-frame and every boosted matrix.
    """
    packets = [collimated_packet(aperture, pol, n_theta, n_phi)
               for pol in ("linear-x", "linear-y")]
    theta = np.array([[pk.theta] + [boost_packet(pk, v).theta for v in velocities]
                      for pk in packets])
    rho = _ring_matrices(theta, packets[0].phi, np.stack([pk.masses for pk in packets]),
                         _overlaps(np.stack([pk.alpha for pk in packets])))
    rho = _checked_polarization(rho.reshape(-1, 3, 3)).reshape(rho.shape)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    pe, *pe_prime = (float(x) for x in _error_probabilities(rho[0], rho[1]))
    degenerate = pe < 1e-14
    return [{"P_E": pe, "P_E_prime": pp, "ratio": None if degenerate else pp / pe,
             "degenerate": degenerate} for pp in pe_prime]
