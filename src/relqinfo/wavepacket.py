"""Massive spin-1/2 momentum-grid wave packets.

Packets are stored against the Lorentz-invariant measure: grid momenta
carry invariant cell weights, so a boost is an exact grid relabeling plus
a per-point SU(2) spin rotation (no interpolation, no energy-ratio
factors). Built on the batched little-group kernel, with reduced spin
matrices, entropy sweeps, the boost-induced distinguishability scaling,
and bipartite packets for the boost behavior of concurrence.
"""
from __future__ import annotations

import math

import numpy as np

from ._errors import DimensionError, ValidationError, _Record
from . import _tables, kernels, lorentz, qstate
from .lorentz import LorentzTransform, _SIGMAS4, _check_mass_shells, boost
from .qstate import DensityMatrix, _check_near_one, hermitize

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


def _check_mass_and_spread(mass: float, spread: float) -> None:
    if not (0 < mass < math.inf and 0 < spread < math.inf):  # NaN-safe
        raise ValidationError("mass and spread must be " + (
            "positive" if mass <= 0 or spread <= 0 else "finite"))


class PacketSpec(_Record):
    """Gaussian packet recipe: center momentum, per-axis spread, spin
    direction, and the cubic grid (extent in units of the spread, odd
    point count so the center is sampled)."""

    __slots__ = ("mass", "mean_momentum", "spread", "spin_axis", "extent", "points")

    def __init__(self, mass: float, mean_momentum: tuple = (0.0, 0.0, 0.0),
                 spread: float = 0.1, spin_axis: tuple = (0.0, 0.0, 1.0),
                 extent: float = 4.0, points: int = 15):
        _check_mass_and_spread(mass, spread)
        if not 3 <= extent < math.inf:
            raise ValidationError("grid extent must be at least 3 spreads"
                                  if extent < 3 else "grid extent must be finite")
        # points = 1 is the sharp-momentum limit (a single center sample)
        if not _tables._is_count(points) or float(points) % 2 == 0:
            raise ValidationError(f"points per axis must be an odd count, got {points!r}")
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "mean_momentum", mean_momentum)
        object.__setattr__(self, "spread", spread)
        object.__setattr__(self, "spin_axis", spin_axis)
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "points", int(float(points)))


class SpinorPacket(_Record):
    """Momentum-grid two-spinor packet.

    momenta: (N,4) on-shell four-momenta; weights: (N,) positive invariant-
    measure cell weights; amplitudes: (N,2) spinor amplitudes against that
    measure, normalized so sum_i w_i |a_i|^2 = 1.
    """

    __slots__ = ("mass", "momenta", "weights", "amplitudes")

    def __init__(self, mass: float, momenta: np.ndarray, weights: np.ndarray,
                 amplitudes: np.ndarray):
        p = np.asarray(momenta, dtype=float)
        w = np.asarray(weights, dtype=float)
        a = np.asarray(amplitudes, dtype=complex)
        if p.ndim != 2 or p.shape[1] != 4 or w.shape != (p.shape[0],) \
                or a.shape != (p.shape[0], 2):
            raise DimensionError("inconsistent grid arrays")
        _check_mass_shells(p, mass)
        if not (w > 0).all():
            raise ValidationError("weights must be positive")
        _check_near_one(self.norm_squared(w, a), "packet norm^2")
        for arr in (p, w, a):
            arr.setflags(write=False)
        self._store(mass, p, w, a)

    @classmethod
    def _checked(cls, mass, momenta, weights, amplitudes) -> "SpinorPacket":
        """Wrap read-only arrays that passed the checks already, _boost_shared
        output or _spin_z_pair's -z twin, without checking them again."""
        packet = object.__new__(cls)
        packet._store(mass, momenta, weights, amplitudes)
        return packet

    def _store(self, mass, momenta, weights, amplitudes) -> None:
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "momenta", momenta)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "amplitudes", amplitudes)

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
    x, y, z = (axis + c for c in np.asarray(spec.mean_momentum, dtype=float))
    # the grid in "ij" order, written straight into the columns of momenta;
    # |p|^2 adds the axes' squares in the order np.sum takes a row of p
    p2 = (x ** 2)[:, None, None] + (y ** 2)[:, None] + z ** 2
    momenta = np.empty(p2.shape + (4,))
    try:
        momenta[..., 0] = np.sqrt(spec.mass ** 2 + p2)
    except OverflowError:
        raise ValidationError(f"mass^2 overflows at mass = {spec.mass!r}") from None
    momenta[..., 1] = x[:, None, None]
    momenta[..., 2] = y[:, None]
    momenta[..., 3] = z
    momenta = momenta.reshape(-1, 4)
    cell = (w1[:, None, None] * w1[None, :, None] * w1[None, None, :]).ravel()
    return momenta, momenta[:, 1:], momenta[:, 0], cell


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


def _spin_z_pair(spread: float, points: int) -> tuple:
    """Unit-mass Gaussian packets at rest with spin along +z and -z, on one
    grid built and checked once. The -z spinor (0, 1) is the +z spinor
    (1, 0) with its components swapped, so the -z packet's amplitudes are
    the +z packet's swapped, with the same norm bit for bit."""
    up = gaussian_packet(PacketSpec(mass=1.0, spread=spread, points=points))
    return up, SpinorPacket._checked(1.0, up.momenta, up.weights, up.amplitudes[:, ::-1])


def gamma_parameter(delta: float, m: float, beta: float) -> float:
    """Boost-distortion scale (spread/m) (1 - sqrt(1 - beta^2)) / beta,
    with the analytic limit 0 at beta = 0."""
    _check_mass_and_spread(m, delta)
    if not 0 <= beta < 1:
        raise ValidationError("beta must lie in [0, 1)")
    if beta == 0.0:
        return 0.0
    return float(delta / m * (1.0 - np.sqrt(1.0 - beta ** 2)) / beta)


def beta_for_gamma(gamma: float, delta: float, m: float) -> float:
    """Inverse of gamma_parameter at fixed spread and mass."""
    _check_mass_and_spread(m, delta)
    if gamma == 0:
        return 0.0
    u = gamma * m / delta
    if not 0 < u <= 1:
        raise ValidationError("gamma must lie in (0, spread/m]")
    return float(2 * u / (1 + u * u))


def _check_shared_grid(packets) -> SpinorPacket:
    first = packets[0]
    if any(pk.mass != first.mass or not np.array_equal(pk.momenta, first.momenta)
           or not np.array_equal(pk.weights, first.weights) for pk in packets[1:]):
        raise ValidationError("packets do not share one momentum grid")
    return first


def _gram(weights: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_i w_i a_i[s] conj(a_i[t]) per (N, d) slice, one matmul each."""
    return np.swapaxes(a * weights[:, None], -1, -2) @ a.conj()


def _boost_shared(packets, lam: LorentzTransform) -> tuple:
    """Boost the (K, N, 2) amplitude stack of packets on one grid with one
    kernel call, for callers that keep the boosted packets. Of the packet
    checks, only those kernel output can fail are made again: the boosted
    grid's mass shells and the packet norms."""
    first = _check_shared_grid(packets)
    q, d = kernels.wigner_su2_batch(lam.matrix, first.momenta, first.mass)
    _check_mass_shells(q, first.mass)
    a = np.stack([np.einsum("nab,nb->na", d, pk.amplitudes) for pk in packets])
    _check_near_one([SpinorPacket.norm_squared(first.weights, ak) for ak in a],
                    "packet norm^2")
    q.setflags(write=False)
    a.setflags(write=False)
    return tuple(SpinorPacket._checked(first.mass, q, first.weights, ak) for ak in a)


def boost_packet(packet: SpinorPacket, lam: LorentzTransform) -> SpinorPacket:
    """Exact boost: relabel grid momenta and rotate each spinor by the
    little-group SU(2) element; invariant weights carry over unchanged."""
    return _boost_shared([packet], lam)[0]


def reduced_spin(packet: SpinorPacket) -> DensityMatrix:
    """2x2 spin marginal sum_i w_i a_i a_i†."""
    return DensityMatrix(hermitize(_gram(packet.weights, packet.amplitudes)))


def _bloch_weights(packets) -> tuple:
    """(grid, c) for packets on one grid: c the real (K, 4, N) Bloch weights
    of A_n = w_n a_n a_n†, A_n = sum_mu c_mun sigma_mu with sigma_0 = 1."""
    grid = _check_shared_grid(packets)
    c = np.empty((len(packets), 4, len(grid.weights)))
    # one packet's (N,) temporaries at a time, each row written in place
    for ck, pk in zip(c, packets):
        a0, a1 = pk.amplitudes.T
        p0, p1 = a0.real ** 2 + a0.imag ** 2, a1.real ** 2 + a1.imag ** 2
        cross = a0 * a1.conj()
        np.add(p0, p1, out=ck[0])
        ck[1] = cross.real
        np.negative(cross.imag, out=ck[2])
        np.subtract(p0, p1, out=ck[3])
    c[:, ::3] /= 2
    c *= grid.weights
    return grid, c


# _MOMENT_SANDWICH[(mu, jk), (s, t)] = (E_j sigma_mu E_k† + E_k sigma_mu E_j†)[s, t]
# for each of the 10 index pairs j <= k (only once for j = k), E = (1, i sigma):
# the products x_j x_k are symmetric, so 10 of the 16 carry all of M
_J, _K = np.triu_indices(4)
_SANDWICH = np.einsum("jab,mbc,kdc->mjkad", lorentz._QUATERNION, lorentz._SIGMAS4,
                      lorentz._QUATERNION.conj())
_MOMENT_SANDWICH = (_SANDWICH + np.swapaxes(_SANDWICH, 1, 2)
                    * (1.0 - np.eye(4))[:, :, None, None])[:, _J, _K].reshape(40, 4)
# grid points per block times boosts per call: a block's (B, 10, n) products
# take 160 kB
_BLOCK = 2048


def _boosted_marginals(grid: SpinorPacket, c: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """The (B, K, 2, 2) spin marginals after each of a checked (B, 4, 4)
    stack of Lorentz matrices of the K packets with Bloch weights c on grid
    (from _bloch_weights), without D, the boosted amplitudes or lam p.

    With D_n = U (x_n . E)/|x_n| from lorentz._boost_halves and
    _half_rapidity, tau = sum_n D_n A_n D_n† = U [sum_mujk M_mujk E_j
    sigma_mu E_k†] U† with M_mujk = sum_n c_mun x_jn x_kn / |x_n|^2; D's
    branch sign cancels. A and U are taken once per stack and b = p/(m +
    p0) once per grid. M is summed over blocks of ceil(2048/B) grid points:
    per block, x for every boost and the 10 symmetric products y_j x_k (y
    = x/|x|^2), then one product of c with all of them. Every term is O(1)
    at any rapidity. Checks every trace against 1 (NaN-safe)."""
    A, u = lorentz._boost_halves(lams)
    b = lorentz._grid_rows(grid.momenta, grid.mass)
    n_boosts, n_packets = len(lams), c.shape[0]
    c = c.reshape(4 * n_packets, -1)
    step = -(-_BLOCK // max(n_boosts, 1))
    m = np.zeros((4 * n_packets, n_boosts * 10))
    for start in range(0, b.shape[1], step):
        x = lorentz._half_rapidity(A, b[:, start:start + step])
        y = x / np.einsum("bjn,bjn->bn", x, x)[:, None]
        products = np.empty((n_boosts, 10, x.shape[2]))
        for j, row in enumerate((0, 4, 7, 9)):
            np.multiply(y[:, j:j + 1], x[:, j:], out=products[:, row:row + 4 - j])
        m += c[:, start:start + step] @ products.reshape(n_boosts * 10, x.shape[2]).T
    moments = m.reshape(n_packets, 4, n_boosts, 10).transpose(2, 0, 1, 3)
    inner = (moments.reshape(n_boosts, n_packets, 40) @ _MOMENT_SANDWICH).reshape(
        n_boosts, n_packets, 2, 2)
    u = u[:, None]
    tau = hermitize(u @ inner @ np.swapaxes(u, -1, -2).conj())
    _check_near_one(np.trace(tau, axis1=-2, axis2=-1).real, "packet norm^2")
    return tau


def _angle_boosts(betas, thetas) -> np.ndarray:
    """The checked (B, 4, 4) stack of boosts by speeds betas at angles thetas
    from the spin axis (z), in the x-z plane."""
    betas, thetas = np.asarray(betas, dtype=float), np.asarray(thetas, dtype=float)
    return lorentz._velocity_boosts(betas[:, None] * np.stack(
        [np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=1))


def entropy_surface(delta_over_m: float, beta_list, theta_list,
                    points: int = 15) -> list:
    """Spin entropy (nats) of a boosted z-spin Gaussian packet.

    Returns rows (theta, gamma, entropy) for every (beta, theta) pair; the
    packet rests at the origin with the given relative spread. Every
    nonzero speed is one boost of a single stack, checked before the grid
    is built.
    """
    if len(beta_list) == 0 or len(theta_list) == 0:
        raise ValidationError("parameter lists must be nonempty")
    thetas, betas = np.array([(theta, beta) for theta in theta_list for beta in beta_list],
                             dtype=float).T
    moving = betas != 0.0
    lams = _angle_boosts(betas[moving], thetas[moving])
    gammas = [gamma_parameter(delta_over_m, 1.0, beta) for beta in betas.tolist()]
    packet = gaussian_packet(PacketSpec(mass=1.0, spread=delta_over_m, points=points))
    taus = np.tile(reduced_spin(packet).matrix, (len(betas), 1, 1))
    taus[moving] = _boosted_marginals(*_bloch_weights([packet]), lams)[:, 0]
    return list(zip(thetas.tolist(), gammas, qstate._entropies(taus).tolist()))


def _spin_z_boosts(delta_over_m, gamma_list, theta, points) -> tuple:
    """The sorted gammas, the +z/-z spin pair at rest and the checked stack
    of boosts, one per gamma."""
    gammas = np.asarray(sorted(gamma_list), dtype=float)
    if (gammas <= 0).any():
        raise ValidationError("gamma values must be positive")
    lams = _angle_boosts([beta_for_gamma(g, delta_over_m, 1.0) for g in gammas],
                         np.full(len(gammas), theta))
    return gammas, _spin_z_pair(delta_over_m, points), lams


def _pair_errors(grid, c, lams) -> list:
    """The error probability of the two packets' spin marginals after each
    boost of the stack lams, from one _boosted_marginals call."""
    tau = qstate._as_matrix(_boosted_marginals(grid, c, lams))
    return qstate._error_probabilities(tau[:, 0], tau[:, 1]).tolist()


def _round_trip_errors(delta_over_m, gamma_list, theta, points) -> tuple:
    """The sorted gammas and, per gamma, the error probability of the +z/-z
    pair's spin marginals after the boost and after the boost and its
    inverse; the inverse acts on the kept boosted pair."""
    gammas, pair, lams = _spin_z_boosts(delta_over_m, gamma_list, theta, points)
    pes, back = _pair_errors(*_bloch_weights(pair), lams), []
    for lam in map(LorentzTransform._checked, lams):
        # the boosted pair lives only until its inverse marginals are taken
        back += _pair_errors(*_bloch_weights(_boost_shared(pair, lam)),
                             lam.inverse().matrix[None])
    return gammas, pes, back


def _fitted_exponent(gammas, pes):
    """Least-squares slope of log P_E' against log gamma; None for one gamma."""
    return (float(np.polyfit(np.log(gammas), np.log(pes), 1)[0])
            if len(gammas) > 1 else None)


def packet_error_scaling(delta_over_m: float, gamma_list, theta: float = np.pi / 2,
                         points: int = 15) -> dict:
    """Distinguishability loss of two orthogonal-spin packets under a boost.

    Both packets share the Gaussian profile; spins are prepared along +z
    and -z, so the rest-frame error probability vanishes. Each gamma value
    fixes a boost speed; the report carries the boosted error
    probabilities and the least-squares slope of log P_E' against log
    gamma.
    """
    gammas, pair, lams = _spin_z_boosts(delta_over_m, gamma_list, theta, points)
    pes = _pair_errors(*_bloch_weights(pair), lams)
    return {"gamma": gammas.tolist(),
            "pe_rest": qstate.error_probability(*map(reduced_spin, pair)),
            "pe_boosted": pes, "fitted_exponent": _fitted_exponent(gammas, pes)}


# ---------------------------------------------------------------------------
# bipartite packets

class BipartitePacket(_Record):
    """Two-particle packet sum_bc amplitudes[b, c] first[b] (x) second[c]:
    two SpinorPackets on one grid per particle, coupled by a complex 2x2
    spin block. spin_matrix, the 4x4 spin-spin marginal, is computed once
    at construction."""

    __slots__ = ("first", "second", "amplitudes", "spin_matrix")

    def __init__(self, first: tuple, second: tuple, amplitudes: np.ndarray):
        a = np.asarray(amplitudes, dtype=complex)
        if a.shape != (2, 2) or len(first) != 2 or len(second) != 2:
            raise DimensionError("a bipartite packet is a 2x2 block over two "
                                 "packets per particle")
        a.setflags(write=False)
        # the amplitude block contracted with each particle's spin Gram tensor
        # G[b, s, c, t] = sum_i w_i a^b_i[s] conj(a^c_i[t])
        g1, g2 = (_gram(_check_shared_grid(basis).weights, np.concatenate(
            [pk.amplitudes for pk in basis], axis=1)).reshape(2, 2, 2, 2)
            for basis in (first, second))
        spin = np.einsum("bc,de,bsdu,ctev->stuv", a, a.conj(), g1, g2).reshape(4, 4)
        spin.setflags(write=False)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "spin_matrix", spin)
        _check_near_one(self.norm_squared(), "bipartite norm^2")

    def norm_squared(self) -> float:
        return float(np.trace(self.spin_matrix).real)


def singlet_packet(delta_over_m: float, points: int = 9) -> BipartitePacket:
    """Spin-singlet pair of identical Gaussian packets at rest."""
    pair = _spin_z_pair(delta_over_m, points)
    chi = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex) / np.sqrt(2.0)
    return BipartitePacket(first=pair, second=pair, amplitudes=chi)


def boost_bipartite(packet: BipartitePacket, lam: LorentzTransform) -> BipartitePacket:
    """Boost both particles: each one's basis packets share a kernel call;
    the spin block carries over unchanged."""
    return BipartitePacket(_boost_shared(packet.first, lam),
                           _boost_shared(packet.second, lam), packet.amplitudes)


def reduced_spin_pair(packet: BipartitePacket) -> DensityMatrix:
    """4x4 spin-spin marginal over the product grid."""
    return DensityMatrix(hermitize(packet.spin_matrix))


def _transfer_matrices(profile: SpinorPacket, lams: np.ndarray) -> np.ndarray:
    """The (B, 4, 4) Pauli transfer matrices R_ab = tr(sigma_a E(sigma_b))/2 of
    the channels E(tau) = sum_n mu_n D_n tau D_n† that a checked (B, 4, 4) stack
    of boosts applies to a spin factorized from profile's mass mu_n = w_n |f_n|^2:
    one _boosted_marginals call on the unit-trace probes 1/2 and (1 + sigma_k)/2."""
    grid, c = _bloch_weights([profile])
    probes = np.zeros((4, 4, c.shape[2]))
    probes[:, 0] = probes[[1, 2, 3], [1, 2, 3]] = c[0, 0]  # mu_n / 2
    R = np.einsum("atx,bkxt->bak", _SIGMAS4, _boosted_marginals(grid, probes, lams))
    R[:, :, 1:] -= R[:, :, :1]  # E(sigma_k) / 2 = E((1 + sigma_k) / 2) - E(1 / 2)
    return R.real


def bipartite_boost_concurrence(delta_over_m: float, rapidity_list,
                                points: int = 9) -> list:
    """Concurrence of the boosted singlet packet per rapidity (z boosts). A boost
    acts on a spin factorized from singlet_packet's profile as one channel, so
    the singlet's correlations T = diag(1, -1, -1, -1) become R T R^T (R from
    _transfer_matrices) in the state 1/4 sum_ab T_ab sigma_a (x) sigma_b."""
    lams = np.array([boost(rapidity=float(chi), axis=(0.0, 0.0, 1.0)).matrix
                     for chi in rapidity_list]).reshape(-1, 4, 4)
    R = _transfer_matrices(
        gaussian_packet(PacketSpec(mass=1.0, spread=delta_over_m, points=points)), lams)
    T = R @ np.diag([1.0, -1.0, -1.0, -1.0]) @ np.swapaxes(R, 1, 2)
    rhos = np.einsum("nab,aij,bkl->nikjl", T, _SIGMAS4, _SIGMAS4).reshape(-1, 4, 4) / 4
    return [(float(chi), qstate.concurrence(rho)) for chi, rho in zip(rapidity_list, rhos)]


# ---------------------------------------------------------------------------
# witnesses that the traced spin map is not a fixed unitary / not CP

def noncovariance_witness(beta: float = 0.8, spreads: tuple = (0.1, 0.3),
                          points: int = 15) -> dict:
    """Two packets with identical rest-frame spin marginals whose marginals
    after a boost perpendicular to the spin have different spectra.

    Any transformation law depending on the Lorentz matrix alone would map
    equal marginals to equal spectra, so a spectral gap witnesses that the
    reduced spin matrix has no such law. Returns the two boosted spectra
    and their maximal absolute difference.
    """
    lams = _angle_boosts([beta], [np.pi / 2])
    taus, spectra = [], []
    for spread in spreads:
        packet = gaussian_packet(PacketSpec(mass=1.0, spread=spread, points=points))
        taus.append(reduced_spin(packet))
        spectra.append(np.linalg.eigvalsh(_boosted_marginals(*_bloch_weights([packet]),
                                                             lams)[0, 0]))
    return {"rest_marginal_gap": float(np.abs(taus[0].matrix - taus[1].matrix).max()),
            "boosted_spectra": [s.tolist() for s in spectra],
            "spectral_gap": float(np.abs(spectra[0] - spectra[1]).max())}


def cp_failure_witness(gamma: float = 0.04, delta_over_m: float = 0.1,
                       theta: float = np.pi / 2, points: int = 15) -> dict:
    """Distinguishability improvement under the traced inverse boost.

    The forward boost maps the orthogonal-spin pair (error 0) to a pair
    with positive error; the inverse traced map sends that pair back to
    error 0, improving distinguishability, which no completely positive
    map can do. Reports both error probabilities and the improvement.
    """
    _, [pe_boosted], [pe_back] = _round_trip_errors(delta_over_m, [gamma], theta, points)
    return {"pe_before_map": pe_boosted, "pe_after_map": pe_back,
            "improvement": pe_boosted - pe_back,
            "violates_data_processing": pe_back < pe_boosted - 1e-6}
