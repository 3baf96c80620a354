"""Massive spin-1/2 momentum-grid wave packets.

Packets are stored against the Lorentz-invariant measure: grid momenta
carry invariant cell weights, so a boost is an exact grid relabeling plus
a per-point SU(2) spin rotation (no interpolation, no energy-ratio
factors). Built on the batched little-group kernel, with reduced spin
matrices, entropy sweeps, the boost-induced distinguishability scaling,
and bipartite packets for the boost behavior of concurrence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import DimensionError, ValidationError
from . import kernels, qstate
from .lorentz import LorentzTransform, boost
from .qstate import DensityMatrix, hermitize

__all__ = [
    "PacketSpec",
    "SpinorPacket",
    "BipartitePacket",
    "gaussian_packet",
    "gamma_parameter",
    "beta_for_gamma",
    "boost_packet",
    "reduced_spin",
    "entropy_surface",
    "packet_error_scaling",
    "singlet_packet",
    "boost_bipartite",
    "reduced_spin_pair",
    "bipartite_boost_concurrence",
    "noncovariance_witness",
    "cp_failure_witness",
]


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian packet recipe: center momentum, per-axis spread, spin
    direction, and the cubic grid (extent in units of the spread, odd
    point count so the center is sampled)."""

    mass: float
    mean_momentum: tuple = (0.0, 0.0, 0.0)
    spread: float = 0.1
    spin_axis: tuple = (0.0, 0.0, 1.0)
    extent: float = 4.0
    points: int = 15

    def __post_init__(self):
        if self.mass <= 0 or self.spread <= 0:
            raise ValidationError("mass and spread must be positive")
        if self.extent < 3:
            raise ValidationError("grid extent must be at least 3 spreads")
        # points = 1 is the sharp-momentum limit (a single center sample)
        if self.points < 1 or self.points % 2 == 0:
            raise ValidationError("points per axis must be odd")


@dataclass(frozen=True)
class SpinorPacket:
    """Momentum-grid two-spinor packet.

    momenta: (N,4) on-shell four-momenta; weights: (N,) positive invariant-
    measure cell weights; amplitudes: (N,2) spinor amplitudes against that
    measure, normalized so sum_i w_i |a_i|^2 = 1.
    """

    mass: float
    momenta: np.ndarray
    weights: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.momenta, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        a = np.asarray(self.amplitudes, dtype=complex)
        if p.ndim != 2 or p.shape[1] != 4 or w.shape != (p.shape[0],) \
                or a.shape != (p.shape[0], 2):
            raise DimensionError("inconsistent grid arrays")
        shell = p[:, 0] ** 2 - np.sum(p[:, 1:] ** 2, axis=1) - self.mass ** 2
        if np.abs(shell).max() > 1e-10 * max(1.0, (p[:, 0] ** 2).max()):
            raise ValidationError("grid momenta are off the mass shell")
        if (w <= 0).any():
            raise ValidationError("weights must be positive")
        n = self.norm_squared(w, a)
        if abs(n - 1.0) > 1e-8:
            raise ValidationError(f"packet norm^2 {n} differs from 1")
        for arr in (p, w, a):
            arr.setflags(write=False)
        object.__setattr__(self, "momenta", p)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "amplitudes", a)

    @staticmethod
    def norm_squared(w: np.ndarray, a: np.ndarray) -> float:
        return float(np.sum(w * np.sum(np.abs(a) ** 2, axis=1)))


def _cubic_grid(spec: PacketSpec):
    if spec.points == 1:
        axis = np.array([0.0])
        w1 = np.array([1.0])
    else:
        axis = np.linspace(-spec.extent * spec.spread,
                           spec.extent * spec.spread, spec.points)
        # trapezoidal cell volume, uniform except the half-weight boundary
        step = axis[1] - axis[0]
        w1 = np.full(spec.points, step)
        w1[0] = w1[-1] = step / 2
    p0 = np.asarray(spec.mean_momentum, dtype=float)
    px, py, pz = np.meshgrid(axis + p0[0], axis + p0[1], axis + p0[2],
                             indexing="ij")
    pvec = np.stack([px.ravel(), py.ravel(), pz.ravel()], axis=1)
    e = np.sqrt(spec.mass ** 2 + np.sum(pvec ** 2, axis=1))
    momenta = np.column_stack([e, pvec])
    cell = (w1[:, None, None] * w1[None, :, None] * w1[None, None, :]).ravel()
    return momenta, pvec, e, cell


def _spin_up_along(axis) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    # +1 eigenvector of n.sigma, stable for n near -z
    if n[2] > -1.0 + 1e-12:
        v = np.array([1.0 + n[2], n[0] + 1j * n[1]], dtype=complex)
    else:
        v = np.array([0.0, 1.0], dtype=complex)
    return v / np.linalg.norm(v)


def gaussian_packet(spec: PacketSpec) -> SpinorPacket:
    """Spin-factorized Gaussian packet.

    The momentum-space probability mass at each grid point follows
    exp(-|p - p0|^2 / 2 spread^2) (spread = per-axis standard deviation of
    the momentum probability); the spinor is the +1 eigenstate of
    spin_axis . sigma at every point.
    """
    momenta, pvec, e, cell = _cubic_grid(spec)
    p0 = np.asarray(spec.mean_momentum, dtype=float)
    prob = np.exp(-np.sum((pvec - p0) ** 2, axis=1) / (2 * spec.spread ** 2)) * cell
    prob /= prob.sum()
    # invariant measure weights and amplitudes against them
    weights = cell / (2 * e * (2 * np.pi) ** 3)
    spin = _spin_up_along(spec.spin_axis)
    amps = np.sqrt(prob / weights)[:, None] * spin[None, :]
    return SpinorPacket(mass=spec.mass, momenta=momenta, weights=weights,
                        amplitudes=amps)


def _spin_z_pair(spread: float, points: int, extent: float) -> tuple:
    """Unit-mass Gaussian packets at rest with spin along +z and -z."""
    return tuple(gaussian_packet(PacketSpec(mass=1.0, spread=spread,
                                            spin_axis=(0.0, 0.0, s),
                                            points=points, extent=extent))
                 for s in (1.0, -1.0))


def gamma_parameter(delta: float, m: float, beta: float) -> float:
    """Boost-distortion scale (spread/m) (1 - sqrt(1 - beta^2)) / beta,
    with the analytic limit 0 at beta = 0."""
    if m <= 0:
        raise ValidationError("mass must be positive")
    if not 0 <= beta < 1:
        raise ValidationError("beta must lie in [0, 1)")
    if beta == 0.0:
        return 0.0
    return float(delta / m * (1.0 - np.sqrt(1.0 - beta ** 2)) / beta)


def beta_for_gamma(gamma: float, delta: float, m: float) -> float:
    """Inverse of gamma_parameter at fixed spread and mass."""
    if gamma == 0:
        return 0.0
    u = gamma * m / delta
    if not 0 < u <= 1:
        raise ValidationError("gamma must lie in (0, spread/m]")
    return float(2 * u / (1 + u * u))


def _check_shared_grid(packets) -> SpinorPacket:
    first = packets[0]
    if any(pk.mass != first.mass or not np.array_equal(pk.momenta, first.momenta)
           for pk in packets[1:]):
        raise ValidationError("packets do not share one momentum grid")
    return first


def _boost_shared(packets, lam: LorentzTransform) -> tuple:
    """boost_packet for packets on one momentum grid (same mass and
    momenta), with one kernel call whose D rotates every packet's spinors."""
    first = _check_shared_grid(packets)
    q, d = kernels.wigner_su2_batch(lam.matrix, first.momenta, first.mass)
    return tuple(SpinorPacket(mass=pk.mass, momenta=q, weights=pk.weights,
                              amplitudes=np.einsum("nab,nb->na", d, pk.amplitudes))
                 for pk in packets)


def boost_packet(packet: SpinorPacket, lam: LorentzTransform) -> SpinorPacket:
    """Exact boost: relabel grid momenta and rotate each spinor by the
    little-group SU(2) element; invariant weights carry over unchanged."""
    return _boost_shared([packet], lam)[0]


def _spin_gram(packets) -> np.ndarray:
    """G[b, c, s, t] = sum_i w_i a^b_i[s] conj(a^c_i[t]) over packets on one
    grid."""
    a = np.stack([pk.amplitudes for pk in packets])
    return np.einsum("n,bns,cnt->bcst", _check_shared_grid(packets).weights,
                     a, a.conj())


def reduced_spin(packet: SpinorPacket) -> DensityMatrix:
    """2x2 spin marginal sum_i w_i a_i a_i†."""
    return DensityMatrix(hermitize(_spin_gram([packet])[0, 0]))


def _boost_at_angle(beta: float, theta: float) -> LorentzTransform:
    # boost direction at angle theta from the spin axis (z), in the x-z plane
    return boost(beta * np.array([np.sin(theta), 0.0, np.cos(theta)]))


def entropy_surface(delta_over_m: float, beta_list, theta_list,
                    points: int = 15, extent: float = 4.0,
                    base: str | int = "e") -> list:
    """Spin entropy of a boosted z-spin Gaussian packet.

    Returns rows (theta, gamma, entropy) for every (beta, theta) pair; the
    packet rests at the origin with the given relative spread.
    """
    if len(beta_list) == 0 or len(theta_list) == 0:
        raise ValidationError("parameter lists must be nonempty")
    packet = gaussian_packet(PacketSpec(mass=1.0, spread=delta_over_m,
                                        points=points, extent=extent))
    rows = []
    for theta in theta_list:
        for beta in beta_list:
            gamma = gamma_parameter(delta_over_m, 1.0, beta)
            if beta == 0.0:
                s = qstate.von_neumann_entropy(reduced_spin(packet), base=base)
            else:
                moved = boost_packet(packet, _boost_at_angle(beta, theta))
                s = qstate.von_neumann_entropy(reduced_spin(moved), base=base)
            rows.append((float(theta), gamma, s))
    return rows


def packet_error_scaling(delta_over_m: float, gamma_list, theta: float = np.pi / 2,
                         points: int = 15, extent: float = 4.0) -> dict:
    """Distinguishability loss of two orthogonal-spin packets under a boost.

    Both packets share the Gaussian profile; spins are prepared along +z
    and -z, so the rest-frame error probability vanishes. Each gamma value
    fixes a boost speed; the report carries the boosted error
    probabilities and the least-squares slope of log P_E' against log
    gamma, together with the error after undoing the boost.
    """
    gammas = np.asarray(sorted(gamma_list), dtype=float)
    if (gammas <= 0).any():
        raise ValidationError("gamma values must be positive")
    up, down = _spin_z_pair(delta_over_m, points, extent)
    pe_rest = qstate.error_probability(reduced_spin(up), reduced_spin(down))
    pes, pe_restored = [], []
    for g in gammas:
        beta = beta_for_gamma(g, delta_over_m, 1.0)
        lam = _boost_at_angle(beta, theta)
        bu, bd = _boost_shared([up, down], lam)
        pes.append(qstate.error_probability(reduced_spin(bu), reduced_spin(bd)))
        ru, rd = _boost_shared([bu, bd], lam.inverse())
        pe_restored.append(qstate.error_probability(reduced_spin(ru),
                                                    reduced_spin(rd)))
    slope = (float(np.polyfit(np.log(gammas), np.log(pes), 1)[0])
             if len(gammas) > 1 else None)
    return {
        "gamma": gammas.tolist(),
        "pe_rest": pe_rest,
        "pe_boosted": [float(p) for p in pes],
        "pe_restored": [float(p) for p in pe_restored],
        "fitted_exponent": slope,
    }


# ---------------------------------------------------------------------------
# bipartite packets

@dataclass(frozen=True)
class BipartitePacket:
    """Two-particle packet sum_bc amplitudes[b, c] first[b] (x) second[c]:
    two SpinorPackets on one grid per particle, coupled by a complex 2x2
    spin block."""

    first: tuple
    second: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.shape != (2, 2) or len(self.first) != 2 or len(self.second) != 2:
            raise DimensionError("a bipartite packet is a 2x2 block over two "
                                 "packets per particle")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        norm = self.norm_squared()
        if abs(norm - 1.0) > 1e-6:
            raise ValidationError(f"bipartite norm^2 {norm} differs from 1")

    def _spin_matrix(self) -> np.ndarray:
        """4x4 spin-spin marginal, the amplitude block contracted with each
        particle's spin Gram tensor."""
        a = self.amplitudes
        rho = np.einsum("bc,de,bdsu,cetv->stuv", a, a.conj(),
                        _spin_gram(self.first), _spin_gram(self.second))
        return rho.reshape(4, 4)

    def norm_squared(self) -> float:
        return float(np.trace(self._spin_matrix()).real)


def singlet_packet(delta_over_m: float, points: int = 9,
                   extent: float = 4.0) -> BipartitePacket:
    """Spin-singlet pair of identical Gaussian packets at rest."""
    pair = _spin_z_pair(delta_over_m, points, extent)
    chi = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex) / np.sqrt(2.0)
    return BipartitePacket(first=pair, second=pair, amplitudes=chi)


def boost_bipartite(packet: BipartitePacket, lam: LorentzTransform) -> BipartitePacket:
    """Boost both particles: each one's basis packets share a kernel call;
    the spin block carries over unchanged."""
    return BipartitePacket(_boost_shared(packet.first, lam),
                           _boost_shared(packet.second, lam), packet.amplitudes)


def reduced_spin_pair(packet: BipartitePacket) -> DensityMatrix:
    """4x4 spin-spin marginal over the product grid."""
    return DensityMatrix(hermitize(packet._spin_matrix()))


def bipartite_boost_concurrence(delta_over_m: float, rapidity_list,
                                points: int = 9, extent: float = 4.0) -> list:
    """Concurrence of the boosted singlet packet per rapidity (z boosts)."""
    packet = singlet_packet(delta_over_m, points=points, extent=extent)
    rows = []
    for chi in rapidity_list:
        lam = boost(rapidity=float(chi), axis=(0.0, 0.0, 1.0))
        rho = reduced_spin_pair(boost_bipartite(packet, lam))
        rows.append((float(chi), qstate.concurrence(rho)))
    return rows


# ---------------------------------------------------------------------------
# witnesses that the traced spin map is not a fixed unitary / not CP

def noncovariance_witness(beta: float = 0.8, theta: float = np.pi / 2,
                          spreads: tuple = (0.1, 0.3), points: int = 15) -> dict:
    """Two packets with identical rest-frame spin marginals whose boosted
    marginals have different spectra.

    Any transformation law depending on the Lorentz matrix alone would map
    equal marginals to equal spectra, so a spectral gap witnesses that the
    reduced spin matrix has no such law. Returns the two boosted spectra
    and their maximal absolute difference.
    """
    lam = _boost_at_angle(beta, theta)
    taus, spectra = [], []
    for spread in spreads:
        packet = gaussian_packet(PacketSpec(mass=1.0, spread=spread, points=points))
        taus.append(reduced_spin(packet))
        spectra.append(reduced_spin(boost_packet(packet, lam)).eigenvalues())
    tau_gap = float(np.abs(taus[0].matrix - taus[1].matrix).max())
    spectral_gap = float(np.abs(spectra[0] - spectra[1]).max())
    return {
        "rest_marginal_gap": tau_gap,
        "boosted_spectra": [s.tolist() for s in spectra],
        "spectral_gap": spectral_gap,
    }


def cp_failure_witness(gamma: float = 0.04, delta_over_m: float = 0.1,
                       theta: float = np.pi / 2, points: int = 15) -> dict:
    """Distinguishability improvement under the traced inverse boost.

    The forward boost maps the orthogonal-spin pair (error 0) to a pair
    with positive error; the inverse traced map sends that pair back to
    error 0, improving distinguishability, which no completely positive
    map can do. Reports both error probabilities and the improvement.
    """
    report = packet_error_scaling(delta_over_m, [gamma], theta=theta, points=points)
    pe_boosted = report["pe_boosted"][0]
    pe_back = report["pe_restored"][0]
    return {
        "pe_before_map": pe_boosted,
        "pe_after_map": pe_back,
        "improvement": pe_boosted - pe_back,
        "violates_data_processing": pe_back < pe_boosted - 1e-6,
    }
