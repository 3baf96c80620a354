"""Acceleration and horizon thermodynamics calculators.

Unruh temperature and the accelerated-detector response factor, thermal
occupation of a single accelerated-frame mode, Schwarzschild surface
gravity, Hawking temperature, horizon entropy, the first law, evaporation
dynamics, and the trace-out-the-hole superscattering map. A constants
object threads geometric (all ones) or SI units through every formula.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import DimensionError, ValidationError
from . import qstate
from .qstate import DensityMatrix, SubsystemSplit

__all__ = [
    "PhysicalConstants",
    "GEOMETRIC",
    "SI",
    "RindlerModeState",
    "BlackHole",
    "EvaporationResult",
    "K_EVAP_DEFAULT",
    "unruh_temperature",
    "detector_response",
    "rindler_mode_state",
    "surface_gravity",
    "hawking_temperature",
    "bekenstein_entropy",
    "horizon_area",
    "first_law_residual",
    "evaporation_lifetime",
    "evaporate",
    "superscattering",
    "superscattering_kraus",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, c, G, k_B; SI (CODATA) or geometric (all ones)."""

    hbar: float = 1.0545718176461565e-34  # J s
    c: float = 299792458.0  # m / s
    G: float = 6.6743e-11  # m^3 / (kg s^2)
    k_B: float = 1.380649e-23  # J / K

    def __post_init__(self):
        if min(self.hbar, self.c, self.G, self.k_B) <= 0:
            raise ValidationError("all physical constants must be positive")

    @property
    def planck_length_sq(self) -> float:
        return self.hbar * self.G / self.c ** 3


SI = PhysicalConstants()
GEOMETRIC = PhysicalConstants(hbar=1.0, c=1.0, G=1.0, k_B=1.0)

#: evaporation-time constant t_E = k_evap M0^3 (seconds per kg^3)
K_EVAP_DEFAULT = 4.9e-9


def unruh_temperature(a: float, constants: PhysicalConstants = GEOMETRIC) -> float:
    """Thermal response temperature hbar a / (2 pi c k_B) of a uniformly
    accelerated detector."""
    if a <= 0:
        raise ValidationError("proper acceleration must be positive")
    return constants.hbar * a / (2.0 * np.pi * constants.c * constants.k_B)


def detector_response(omega_gap: float, a: float) -> float:
    """Planckian response factor of a uniformly accelerated detector,
    omega / (2 pi (e^(2 pi omega / a) - 1)), geometric units.

    omega_gap = 0 returns the analytic limit a / (4 pi^2); the inertial
    limit a -> 0+ at positive gap vanishes. Multiply by the squared
    coupling matrix element to get a rate.
    """
    if a <= 0:
        raise ValidationError("acceleration must be positive")
    if omega_gap == 0.0:
        return a / (4.0 * np.pi ** 2)
    x = 2.0 * np.pi * omega_gap / a
    if x > 700.0:
        return 0.0
    return omega_gap / (2.0 * np.pi * np.expm1(x))


@dataclass(frozen=True)
class RindlerModeState:
    """Thermal single-mode state seen by an accelerated observer.

    Occupation probabilities follow the geometric law
    p_n = e^(-2 pi n omega / a) (1 - e^(-2 pi omega / a)); the truncation
    n_max leaves a tail below 1e-12.
    """

    omega: float
    a: float
    n_max: int
    probabilities: np.ndarray

    def mean_occupation(self) -> float:
        return 1.0 / np.expm1(2.0 * np.pi * self.omega / self.a)

    def entropy(self) -> float:
        p = self.probabilities[self.probabilities > 0]
        return float(-(p * np.log(p)).sum())

    def thermal_entropy_oracle(self) -> float:
        """Closed-form oscillator entropy (n+1) ln(n+1) - n ln(n)."""
        n = self.mean_occupation()
        return float((n + 1.0) * np.log(n + 1.0) - (n * np.log(n) if n > 0 else 0.0))


# a thermal mode keeps at most ~_MAX_LEVELS levels: _MAX_Q is the largest
# Boltzmann factor q whose geometric tail drops below 1e-12 within them
_MAX_LEVELS = 10 ** 6
_MAX_Q = 1e-12 ** (1.0 / _MAX_LEVELS)


def rindler_mode_state(omega: float, a: float) -> RindlerModeState:
    """Build the thermal mode state, truncated where the geometric tail
    drops below 1e-12. Raises before any allocation when that takes more
    than about _MAX_LEVELS levels (omega/a below ~4.4e-6), and where q =
    e^(-2 pi omega/a) rounds to 1 and no truncation exists."""
    if omega <= 0 or a <= 0:
        raise ValidationError("mode frequency and acceleration must be positive")
    q = np.exp(-2.0 * np.pi * omega / a)
    if not q <= _MAX_Q:  # NaN-safe
        raise ValidationError(f"omega/a = {omega / a} needs more than {_MAX_LEVELS} "
                              "levels to cut its thermal tail at 1e-12")
    # geometric tail beyond n_max is q^(n_max + 1)
    n_max = 0 if q == 0.0 else int(np.ceil(np.log(1e-12) / np.log(q))) + 1
    n = np.arange(n_max + 1)
    p = (1.0 - q) * q ** n
    return RindlerModeState(omega=omega, a=a, n_max=n_max, probabilities=p)


@dataclass(frozen=True)
class BlackHole:
    """Schwarzschild hole of mass M (kg in SI mode, geometric otherwise)."""

    M: float

    def __post_init__(self):
        if self.M <= 0:
            raise ValidationError("mass must be positive")


def surface_gravity(bh: BlackHole, constants: PhysicalConstants = GEOMETRIC) -> float:
    """kappa = 1/(4M) geometric; c^4/(4GM) in SI."""
    return constants.c ** 4 / (4.0 * constants.G * bh.M)


def hawking_temperature(bh: BlackHole,
                        constants: PhysicalConstants = GEOMETRIC) -> float:
    """T = hbar kappa / (2 pi c k_B) = hbar c^3 / (8 pi G M k_B)."""
    kappa = surface_gravity(bh, constants)
    return constants.hbar * kappa / (2.0 * np.pi * constants.c * constants.k_B)


def horizon_area(bh: BlackHole, constants: PhysicalConstants = GEOMETRIC) -> float:
    """A = 16 pi (G M / c^2)^2."""
    r_s = 2.0 * constants.G * bh.M / constants.c ** 2
    return 4.0 * np.pi * r_s ** 2


def bekenstein_entropy(bh: BlackHole,
                       constants: PhysicalConstants = GEOMETRIC) -> float:
    """Horizon entropy A / (4 l_P^2), dimensionless (units of k_B)."""
    return horizon_area(bh, constants) / (4.0 * constants.planck_length_sq)


def first_law_residual(M: float, dM: float) -> float:
    """|dM - (kappa/8pi) dA| for the Schwarzschild case (Omega = Phi = 0),
    geometric units; exact at first order, so the residual is quadratic."""
    if M <= 0:
        raise ValidationError("mass must be positive")
    kappa = 1.0 / (4.0 * M)
    dA = 16.0 * np.pi * ((M + dM) ** 2 - M ** 2)
    return float(abs(dM - kappa / (8.0 * np.pi) * dA))


def evaporation_lifetime(M0: float, k_evap: float = K_EVAP_DEFAULT) -> float:
    """t_E = k_evap M0^3 (k_evap in s/kg^3)."""
    if M0 <= 0 or k_evap <= 0:
        raise ValidationError("mass and rate constant must be positive")
    return k_evap * M0 ** 3


@dataclass(frozen=True)
class EvaporationResult:
    mass: float
    exhausted: bool


def evaporate(M0: float, t: float, k_evap: float = K_EVAP_DEFAULT) -> EvaporationResult:
    """Mass after radiating for a time t: M0 (1 - t/t_E)^(1/3), the closed
    form of mass loss at rate proportional to -M^-2. Times past the
    lifetime return zero mass with the exhausted flag set."""
    if t < 0:
        raise ValidationError("time must be non-negative")
    t_e = evaporation_lifetime(M0, k_evap)
    if t >= t_e:
        return EvaporationResult(mass=0.0, exhausted=t > t_e)
    return EvaporationResult(mass=M0 * (1.0 - t / t_e) ** (1.0 / 3.0),
                             exhausted=False)


def superscattering(S: np.ndarray, rho_in) -> DensityMatrix:
    """Trace-out-the-hole evolution tr_hole(S (rho x |0><0|) S†).

    S is unitary on (incoming system) x (hole modes); the hole factor
    starts in its ground state. Completely positive by construction and
    trace preserving, it carries pure states to mixed ones.
    """
    S = np.asarray(S, dtype=complex)
    rho = qstate._as_matrix(rho_in)
    d_total = S.shape[0]
    if S.shape != (d_total, d_total):
        raise DimensionError("scattering matrix must be square")
    qstate._check_identity(S @ S.conj().T, "scattering matrix is not unitary")
    d_in = rho.shape[0]
    if d_total % d_in:
        raise DimensionError("dimensions do not factorize")
    d_hole = d_total // d_in
    hole0 = np.zeros((d_hole, d_hole), dtype=complex)
    hole0[0, 0] = 1.0
    full = S @ np.kron(rho, hole0) @ S.conj().T
    return qstate.partial_trace(full, SubsystemSplit(dims=(d_in, d_hole), keep=(0,)))


def superscattering_kraus(S: np.ndarray, d_in: int):
    """Kraus form of the superscattering map, A_m = <m_hole| S |0_hole>,
    suitable for channel-level complete-positivity certification."""
    from .channel import KrausSet

    S = np.asarray(S, dtype=complex)
    d_total = S.shape[0]
    if d_total % d_in:
        raise DimensionError("dimensions do not factorize")
    d_hole = d_total // d_in
    Sr = S.reshape(d_in, d_hole, d_in, d_hole)
    return KrausSet.single([Sr[:, m, :, 0] for m in range(d_hole)])
