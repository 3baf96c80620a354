"""Acceptance criteria as executable checks.

Each criterion's body measures a dict of values from the grids alone; its
sub-checks, declared next to it in CRITERIA, compare those values with a
named tolerance or a fixed bound. The CLI --selfcheck flag and the
acceptance test module both drive this table. One run of a body decides
whether it passes at the given tolerances and, if not, whether the failure
is tolerance-class (every sub-check holds at the shipped tolerances) or
logic-class (some sub-check fails at them too).
"""
from __future__ import annotations

import operator
from typing import Callable

import numpy as np

from . import channel, horizon, lorentz, photon, qstate, wavepacket
from ._errors import _Record
from ._tables import DEFAULT_GRIDS, DEFAULT_TOLS, _grids, _tols
from .qstate import DensityMatrix, hermitize

SEED = 20240901

# constants-derived pins, recomputed from the CODATA values of horizon.SI
HAWKING_T_SOLAR_KG = 1.989e30
HAWKING_T_SOLAR_K = 6.168429716410344e-08


class CheckResult:
    """checks holds one report dict per sub-check (see _evaluate);
    failure_class is 'tolerance' or 'logic' when the criterion failed."""

    __slots__ = ("name", "passed", "measured", "checks", "failure_class")

    def __init__(self, name: str, passed: bool, measured: dict, checks: list,
                 failure_class: str | None = None):
        self.name = name
        self.passed = passed
        self.measured = measured
        self.checks = checks
        self.failure_class = failure_class


class Criterion(_Record):
    """run maps the grids to a measured dict; each of checks is a (measured
    key, relation, DEFAULT_TOLS name or fixed bound), or a bare measured
    key that must be true."""

    __slots__ = ("name", "run", "checks")

    def __init__(self, name: str, run: Callable, checks: tuple):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "run", run)
        object.__setattr__(self, "checks", checks)


# ---------------------------------------------------------------------------
# criterion bodies

def _check_incomplete_bell(grids):
    verdict = channel.is_semicausal(channel.incomplete_bell_pvm(), "B->A",
                                    haar_probes=50, seed=SEED)
    return {"advantage": verdict.advantage, "gap_from_0.75": abs(verdict.advantage - 0.75),
            "signalling": not verdict.semicausal}


def _marginal_shift(T, direction, rng):
    """Largest trace distance between the receiver's marginal with and
    without a sender pre-operation, over the semicausality probes and 25
    Haar pre-operations."""
    _, marginals = channel._receiver_marginals(T, direction, rng, 25)
    ev = np.linalg.eigvalsh(hermitize(marginals[:, 1:] - marginals[:, :1]))
    return float(0.5 * np.abs(ev).sum(axis=-1).max())


def _check_complete_bell(grids):
    rng = np.random.default_rng(SEED)
    T = channel.complete_bell_pvm()
    return {"max_marginal_shift": max(_marginal_shift(T, "B->A", rng),
                                      _marginal_shift(T, "A->B", rng))}


def _check_locc(grids):
    rng = np.random.default_rng(SEED)
    psi = qstate._haar_states(grids["locc_draws"], 4, rng)
    rhos = psi[:, :, None] * psi[:, None, :].conj()
    povm = channel.povm_of(channel.conditioned_basis_pvm().kraus)
    global_probs = povm.probabilities(rhos)
    dist = channel.simulate_locc_protocol(channel.conditioned_basis_protocol(), rhos)
    locc = np.zeros_like(global_probs)
    for k, p in dist.items():
        locc[:, channel.locc_outcome_to_global(k)] += p
    return {"max_total_variation": float(0.5 * np.abs(global_probs - locc).sum(axis=1).max())}


def _check_teleport(grids):
    rng = np.random.default_rng(SEED)
    residuals, _, fidelities = channel._teleport_batch(
        qstate._haar_states(grids["teleport_draws"], 2, rng))
    worst_fid = float(fidelities.min())
    return {"max_residual": float(residuals.max()), "min_fidelity": worst_fid,
            "fidelity_loss": 1.0 - worst_fid}


def _check_chsh(grids):
    singlet = DensityMatrix.from_pure(channel.bell_state("psi-"))
    z_singlet, settings = channel.chsh_optimize(singlet)
    z_via_value = channel.chsh_value(
        singlet, *channel.settings_to_observables(settings))
    product = DensityMatrix.from_pure(np.kron([1, 0], [1, 0]).astype(complex))
    z_product, _ = channel.chsh_optimize(product)

    rng = np.random.default_rng(SEED)
    pairs = qstate._haar_states(100, 2, rng).reshape(50, 2, 2)
    kron = (pairs[:, 0, :, None] * pairs[:, 1, None, :]).reshape(50, 4)
    products = qstate._checked_densities(qstate._pure_densities(kron))
    z_products, _ = channel._chsh_optimize_batch(products)
    worst_product = max(z_product, float(z_products.max()))

    # random (state, Bloch settings) draws against the quantum bound: the
    # states reduced to correlation matrices block by block, then the four
    # setting batches a1, a2, b1, b2 in one draw
    n = grids["chsh_draws"]
    T = qstate._random_density_batch(n, 4, rng, channel._correlation_matrix)
    v = rng.normal(size=(4, n, 3))
    zetas = channel._chsh_bloch(T, *(v / np.linalg.norm(v, axis=-1, keepdims=True)))
    worst_draw = float(np.abs(zetas).max())

    bound = np.sqrt(2.0)
    return {"singlet": z_singlet, "max_product": worst_product,
            "max_random_draw": worst_draw, "singlet_gap": abs(z_singlet - bound),
            "singlet_via_value_gap": abs(z_via_value - bound),
            "product_excess": worst_product - 1.0, "draw_excess": worst_draw - bound}


def _check_choi(grids):
    _, cp_t, min_eig = channel.choi_and_cp_check(lambda r: r.T, dim_in=2)
    kraus = channel._kraus_from_unitaries(
        qstate._haar_unitaries(25, 4, np.random.default_rng(SEED)),
        qstate.PureState(np.array([1.0, 0])), [[np.array([1.0, 0])], [np.array([0, 1.0])]])
    _, min_eigs = channel._choi_min_eigs(channel._kraus_choi(kraus))
    all_cp = bool((min_eigs >= -qstate.TOL_PSD).all())
    return {"transpose_min_eig": min_eig, "kraus_channels_cp": all_cp,
            "transpose_gap": abs(min_eig + 0.5), "transpose_not_cp": not cp_t}


def _check_wigner(grids):
    rng = np.random.default_rng(SEED)
    n = grids["momentum_draws"]
    m = 1.0
    P = np.empty((n, 4))
    P[:, 1:] = rng.normal(scale=0.8, size=(n, 3))
    P[:, 0] = np.sqrt(m * m + np.einsum("ni,ni->n", P[:, 1:], P[:, 1:]))
    got = lorentz._standard_boosts_massive(P, m) @ [m, 0.0, 0.0, 0.0]
    worst_massive = float(np.abs(got - P).max())

    nvecs, u = np.empty((n, 3)), np.empty(n)
    for i in range(n):  # alternating draws: this order fixes the momenta
        rng.standard_normal(out=nvecs[i])
        u[i] = rng.random()  # rng.uniform(low, high) is numpy's low + (high - low) u
    energies = 0.1 + (5.0 - 0.1) * u
    nvecs /= np.sqrt(np.einsum("ni,ni->n", nvecs, nvecs))[:, None]
    K = np.column_stack([energies, energies[:, None] * nvecs])
    got = lorentz._standard_boosts_massless(K) @ [1.0, 0.0, 0.0, 1.0]
    worst_massless = float(np.abs(got - K).max())

    axes, u, P = np.empty((50, 3)), np.empty(50), np.empty((50, 4))
    for i in range(50):  # this order fixes the rotations and momenta
        rng.standard_normal(out=axes[i])
        u[i] = rng.random()
        rng.standard_normal(out=P[i, 1:])
    angles = np.pi * u  # low = 0
    P[:, 0] = np.sqrt(1.0 + np.einsum("ni,ni->n", P[:, 1:], P[:, 1:]))
    L = np.zeros((50, 4, 4))
    L[:, 0, 0] = 1.0
    L[:, 1:, 1:] = lorentz._rotation3(axes, angles)
    W = lorentz._wigner_rotations(L, P, 1.0)[0]
    worst_rot = float(np.abs(W - L[:, 1:, 1:]).max())

    p = np.array([np.sqrt(1.25), 0, 0, 0.5])
    w_col = lorentz.wigner_rotation(lorentz.boost([0, 0, 0.6]), p, 1.0)

    pk = wavepacket.gaussian_packet(wavepacket.PacketSpec(mass=1.0, spread=0.2,
                                                          points=9))
    l1 = lorentz.boost(rapidity=0.8, axis=(0, 0, 1.0))
    l2 = lorentz.boost(rapidity=0.6, axis=(1.0, 0, 0))
    two = wavepacket.boost_packet(wavepacket.boost_packet(pk, l1), l2)
    one = wavepacket.boost_packet(pk, lorentz.compose(l2, l1))
    return {"standard_boost_massive": worst_massive,
            "standard_boost_massless": worst_massless,
            "rotation_passthrough": worst_rot,
            "collinear_angle": abs(w_col.angle),
            "composition_gap": float(np.abs(two.amplitudes - one.amplitudes).max())}


def _check_entropy_surface(grids):
    dm = 0.35
    thetas = [0.0, np.pi / 4, np.pi / 2]
    zero_rows = wavepacket.entropy_surface(dm, [0.0], thetas,
                                           points=grids["entropy_points"])
    max_zero = max(s for _, _, s in zero_rows)

    gammas = [0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    betas = [wavepacket.beta_for_gamma(g, dm, 1.0) for g in gammas]
    rows = wavepacket.entropy_surface(dm, betas, [np.pi / 2],
                                      points=grids["entropy_points"])
    entropies = [s for _, _, s in rows]

    beta = wavepacket.beta_for_gamma(0.2, dm, 1.0)
    s_co = wavepacket.entropy_surface(dm, [beta], [np.pi / 2],
                                      points=grids["entropy_points_coarse"])[0][2]
    s_fi = wavepacket.entropy_surface(dm, [beta], [np.pi / 2],
                                      points=grids["entropy_points_fine"])[0][2]
    return {"max_entropy_at_zero": max_zero,
            "strictly_increasing": all(b > a for a, b in zip(entropies, entropies[1:])),
            "self_convergence": abs(s_fi - s_co) / s_fi}


def _check_error_scaling(grids):
    gammas, pes, back = wavepacket._round_trip_errors(
        0.1, [0.0125, 0.025, 0.05], np.pi / 2, grids["scaling_points"])
    return {"fitted_exponent": wavepacket._fitted_exponent(gammas, pes),
            "max_pe_restored": max(back)}


def _check_bipartite(grids):
    rows = wavepacket.bipartite_boost_concurrence(
        0.3, [0.0, 0.5, 1.0, 2.0], points=grids["bipartite_points"])
    cs = [c for _, c in rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(cs, cs[1:]))

    pk = wavepacket.singlet_packet(0.3, points=grids["bipartite_points"])
    lam = lorentz.boost(rapidity=1.0, axis=(0, 0, 1.0))
    back = wavepacket.boost_bipartite(wavepacket.boost_bipartite(pk, lam),
                                      lam.inverse())
    c0 = qstate.concurrence(wavepacket.reduced_spin_pair(pk))
    c_back = qstate.concurrence(wavepacket.reduced_spin_pair(back))
    return {"concurrence_by_rapidity": cs, "monotone": monotone,
            "restoration_gap": abs(c_back - c0), "rest_concurrence_loss": 1.0 - cs[0]}


def _check_photon_povm(grids):
    rng = np.random.default_rng(SEED)
    n = grids["povm_packets"]
    u, z = np.empty(n), np.empty((n, 2, 2))
    for i in range(n):  # one packet at a time: this draw order fixes the packets
        u[i] = rng.random()  # rng.uniform(0.02, 0.6) as in criterion 07
        rng.standard_normal(out=z[i])  # haar_state(2)'s draw
    expectations, effective, naive = photon._povm_rings(
        0.02 + (0.6 - 0.02) * u, qstate._unit_states(z), grids["povm_theta"], grids["povm_phi"])
    return {"max_completeness_gap": float(np.abs(expectations.sum(axis=1) - 1.0).max()),
            "max_effective_vs_naive": float(np.abs(effective - naive).max())}


def _check_doppler(grids):
    velocities = (-0.5, -0.25, 0.25, 0.5)
    rows = photon._doppler_ratios(0.05, velocities, n_theta=grids["photon_theta"],
                                  n_phi=grids["photon_phi"])
    worst_rel = 0.0
    for v, out in zip(velocities, rows):
        target = (1 + v) / (1 - v)
        worst_rel = max(worst_rel, abs(out["ratio"] - target) / target)
    return {"max_relative_error": worst_rel, "ratio_at_v_half": rows[-1]["ratio"]}


def _check_aberration(grids):
    tp, _ = lorentz.aberrate(0.01, 0.0, 0.6)
    return {"theta_ratio": tp / 0.01, "relative_error": abs(tp / 0.01 - 2.0) / 2.0}


def _check_unruh_rindler(grids):
    worst_balance = 0.0
    for omega, a in ((0.5, 1.0), (2.0, 3.0), (1.0, 0.7)):
        lhs = horizon.detector_response(-omega, a) / horizon.detector_response(omega, a)
        target = np.exp(2 * np.pi * omega / a)
        worst_balance = max(worst_balance, abs(lhs - target) / target)

    worst_entropy = 0.0
    for ratio in (0.3, 1.0, 3.0):
        st = horizon.rindler_mode_state(ratio, 2 * np.pi)
        worst_entropy = max(worst_entropy,
                            abs(st.entropy() - st.thermal_entropy_oracle()))

    st = horizon.rindler_mode_state(1.0, 2 * np.pi / np.log(2.0))
    return {"detailed_balance_gap": worst_balance,
            "entropy_oracle_gap": worst_entropy,
            "mean_occupation_gap": abs(st.mean_occupation() - 1.0)}


# Dormand-Prince 5(4): nodes C, stage weights A, fifth-order weights B, error
# weights E and the coefficients P of Shampine's (1986) free interpolant.
_RK45_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK45_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_RK45_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK45_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                    1/40])
_RK45_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rk45(fun, y0, ts, rtol, atol):
    """Integrate the scalar y' = fun(t, y) from ts[0] and return y at the
    increasing times ts.

    Adaptive RK45 with the initial step of Hairer, Norsett & Wanner II.4
    (error order 4), step factors 0.9 err^(-1/5) within [0.2, 10], no growth
    right after a rejected step, and the interpolant at the points of ts
    inside each step. Every weighted sum of stages is an np.dot over a
    (7, 1) stage array; the tests hold it bit for bit to a reference
    RK45 that computes its sums the same way."""
    K = np.empty((7, 1))
    rows = [K[:s].T for s in range(8)]  # the first s stages as a (1, s) row

    def wsum(w):
        return rows[len(w)].dot(w)[0]

    t, y, t_end = float(ts[0]), np.float64(y0), float(ts[-1])
    f = fun(t, y)
    scale = atol + abs(y) * rtol
    d0, d1 = abs(y / scale), abs(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d2 = abs((fun(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.2)
    h_abs = min(100 * h0, h1, t_end - t)
    out, i = np.empty(len(ts)), 0
    while t < t_end:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise ArithmeticError(f"RK45 step underflow at t = {t}")
            t_new = min(t + h_abs, t_end)
            h_abs = h = t_new - t
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(t + _RK45_C[s] * h, y + wsum(_RK45_A[s, :s]) * h)
            y_new = y + h * wsum(_RK45_B)
            K[6] = f_new = fun(t + h, y_new)
            err = abs(wsum(_RK45_E) * h / (atol + max(abs(y), abs(y_new)) * rtol))
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        j = np.searchsorted(ts, t_new, side="right")
        if j > i:
            x = np.tile((ts[i:j] - t) / h, (4, 1))
            out[i:j] = (h * np.dot(K.T.dot(_RK45_P), np.cumprod(x, axis=0)))[0] + y
            i = j
        t, y, f = t_new, y_new, f_new
    return out


def _check_black_hole(grids):
    masses = (0.5, 1.0, 3.0, 100.0)
    kappa_m = [horizon.surface_gravity(horizon.BlackHole(M)) * M for M in masses]
    t_m = [horizon.hawking_temperature(horizon.BlackHole(M)) * M for M in masses]
    s_m2 = [horizon.bekenstein_entropy(horizon.BlackHole(M)) / M**2 for M in masses]
    scaling_gap = max(
        max(abs(k - 0.25) for k in kappa_m),
        max(abs(t - t_m[0]) for t in t_m),
        max(abs(s - s_m2[0]) for s in s_m2),
    )

    r1 = horizon.first_law_residual(1.0, 1e-3)
    r2 = horizon.first_law_residual(1.0, 5e-4)
    quad_gap = abs(r1 / r2 - 4.0)

    M0 = 3.7e8
    t_e = horizon.evaporation_lifetime(M0)
    half_gap = abs(horizon.evaporate(M0, 7 * t_e / 8).mass - M0 / 2) / M0

    def rhs(t, y):
        return -(M0**3) / (3 * t_e * y**2)

    ts = np.linspace(0.0, 0.99 * t_e, 25)
    masses_ode = _rk45(rhs, M0, ts, rtol=1e-10, atol=1e-6)
    closed = np.array([horizon.evaporate(M0, t).mass for t in ts])
    ode_gap = float((np.abs(masses_ode - closed) / closed).max())

    t_sun = horizon.hawking_temperature(horizon.BlackHole(HAWKING_T_SOLAR_KG),
                                        horizon.SI)
    return {"scaling_gap": scaling_gap, "first_law_quadratic_ratio_gap": quad_gap,
            "half_mass_gap": half_gap, "ode_gap": ode_gap,
            "solar_pin_gap": abs(t_sun - HAWKING_T_SOLAR_K) / HAWKING_T_SOLAR_K,
            "first_law_residual": horizon.first_law_residual(1.0, 1e-4)}


def _check_witnesses(grids):
    nc = wavepacket.noncovariance_witness(beta=0.8, spreads=(0.1, 0.3),
                                          points=grids["scaling_points"])
    cp = wavepacket.cp_failure_witness(gamma=0.04,
                                       points=grids["scaling_points"])
    return {"spectral_gap": nc["spectral_gap"],
            "pe_boosted": cp["pe_before_map"],
            "pe_after_inverse": cp["pe_after_map"],
            "rest_marginal_gap": nc["rest_marginal_gap"],
            "pe_improvement": cp["pe_before_map"] - cp["pe_after_map"]}


CRITERIA = [
    Criterion("01-incomplete-bell-advantage", _check_incomplete_bell, (
        "signalling", ("gap_from_0.75", "<", "bell_advantage"))),
    Criterion("02-complete-bell-semicausal", _check_complete_bell, (
        ("max_marginal_shift", "<", "semicausal_shift"),)),
    Criterion("03-locc-matches-global-pvm", _check_locc, (
        ("max_total_variation", "<", "locc_tv"),)),
    Criterion("04-teleportation-identity", _check_teleport, (
        ("max_residual", "<", "teleport"), ("fidelity_loss", "<", "teleport"))),
    Criterion("05-chsh-tsirelson", _check_chsh, (
        ("singlet_gap", "<", "chsh_singlet"), ("singlet_via_value_gap", "<", "chsh_singlet"),
        ("product_excess", "<=", "chsh_product"), ("draw_excess", "<=", "tsirelson"))),
    Criterion("06-choi-cp-certification", _check_choi, (
        "transpose_not_cp", ("transpose_gap", "<", "choi_transpose"),
        "kraus_channels_cp")),
    Criterion("07-wigner-machinery", _check_wigner, (
        ("standard_boost_massive", "<", "standard_boost"),
        ("standard_boost_massless", "<", "standard_boost"),
        ("rotation_passthrough", "<", "wigner_rotation"),
        ("collinear_angle", "<", "wigner_rotation"),
        ("composition_gap", "<", "representation"))),
    Criterion("08-spin-entropy-surface", _check_entropy_surface, (
        ("max_entropy_at_zero", "<", "entropy_zero"), "strictly_increasing",
        ("self_convergence", "<", "entropy_convergence"))),
    Criterion("09-distinguishability-scaling", _check_error_scaling, (
        ("fitted_exponent", ">=", "exponent_low"), ("fitted_exponent", "<=", "exponent_high"),
        ("max_pe_restored", "<", "inverse_restore"))),
    Criterion("10-bipartite-concurrence", _check_bipartite, (
        ("rest_concurrence_loss", "<", "concurrence_rest"), "monotone",
        ("restoration_gap", "<", "concurrence_restore"))),
    Criterion("11-photon-povm", _check_photon_povm, (
        ("max_completeness_gap", "<", "povm_completeness"),
        ("max_effective_vs_naive", "<", "effective_naive"))),
    Criterion("12-photon-doppler-law", _check_doppler, (
        ("max_relative_error", "<", "doppler_ratio"),)),
    Criterion("13-aberration-small-angle", _check_aberration, (
        ("relative_error", "<", "aberration"),)),
    Criterion("14-unruh-rindler", _check_unruh_rindler, (
        ("detailed_balance_gap", "<", "detailed_balance"),
        ("entropy_oracle_gap", "<", "rindler_entropy"),
        ("mean_occupation_gap", "<", "mean_occupation"))),
    Criterion("15-black-hole-thermodynamics", _check_black_hole, (
        ("scaling_gap", "<", "bh_scaling"), ("first_law_residual", "<", "first_law"),
        ("first_law_quadratic_ratio_gap", "<", 1e-3), ("half_mass_gap", "<", "evaporate_half"),
        ("ode_gap", "<", "evaporate_ode"), ("solar_pin_gap", "<", "hawking_pin"))),
    Criterion("16-noncovariance-cp-failure", _check_witnesses, (
        ("spectral_gap", ">", "noncovariance_gap"), ("rest_marginal_gap", "<", 1e-12),
        ("pe_improvement", ">", "cp_margin"))),
]

_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
              "==": operator.eq}


def _evaluate(check, measured: dict, tols: dict) -> dict:
    """A sub-check's key, relation, bound name (None if fixed), bound value,
    margin (> 0 when it holds with room; numeric checks only) and verdict."""
    key, relation, bound = (check, "==", True) if isinstance(check, str) else check
    name = bound if isinstance(bound, str) else None
    value, bound = measured[key], tols[name] if name else bound
    report = {"key": key, "relation": relation, "bound_name": name, "bound": bound,
              "holds": bool(_RELATIONS[relation](value, bound))}
    if relation != "==":
        report["margin"] = float(bound - value if relation[0] == "<" else value - bound)
    return report


def run_criterion(crit: Criterion, tols: dict, grids: dict) -> CheckResult:
    """Run crit's body once and evaluate its sub-checks at tols; a failure is
    tolerance-class when every sub-check holds at DEFAULT_TOLS."""
    measured = crit.run(grids)
    checks = [_evaluate(check, measured, tols) for check in crit.checks]
    result = CheckResult(crit.name, all(c["holds"] for c in checks), measured, checks)
    if not result.passed:
        at_defaults = all(_evaluate(check, measured, DEFAULT_TOLS)["holds"]
                          for check in crit.checks)
        result.failure_class = "tolerance" if at_defaults else "logic"
    return result


def run_all(tol_overrides: dict | None = None, grid_overrides: dict | None = None,
            names: list | None = None) -> list:
    """Run the acceptance criteria (those in names, if given) once each."""
    tols, grids = _tols(tol_overrides), _grids(grid_overrides)
    return [run_criterion(crit, tols, grids) for crit in CRITERIA
            if not names or crit.name in names]


def report_dict(results: list) -> dict:
    return {
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {
                "name": r.name,
                "passed": r.passed,
                "checks": r.checks,
                "measured": {k: (v if not isinstance(v, (list, np.ndarray))
                                 else [float(x) for x in v])
                             for k, v in r.measured.items()},
                **({"failure_class": r.failure_class} if r.failure_class else {}),
            }
            for r in results
        ],
    }
