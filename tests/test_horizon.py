import numpy as np
import pytest
from scipy.integrate import solve_ivp

from relqinfo import channel, horizon, qstate, selfcheck
from relqinfo._errors import ValidationError
from relqinfo.horizon import (GEOMETRIC, SI, BlackHole, PhysicalConstants,
                              bekenstein_entropy, detector_response, evaporate,
                              evaporation_lifetime, first_law_residual,
                              hawking_temperature, horizon_area,
                              rindler_mode_state, superscattering,
                              surface_gravity, unruh_temperature)

# pins recomputed from the CODATA values of horizon.SI
UNRUH_T_AT_G = 3.973913254725219e-20      # a = 9.8 m/s^2
HAWKING_T_SOLAR = 6.168429716410344e-08   # M = 1.989e30 kg


class TestUnruh:
    def test_geometric_inversion(self):
        assert abs(unruh_temperature(2 * np.pi, GEOMETRIC) - 1.0) < 1e-15

    def test_si_pin_at_earth_gravity(self):
        t = unruh_temperature(9.8, SI)
        assert abs(t - UNRUH_T_AT_G) < 1e-3 * UNRUH_T_AT_G

    def test_linearity(self):
        assert abs(unruh_temperature(2.0) - 2 * unruh_temperature(1.0)) < 1e-15

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            unruh_temperature(0.0)


class TestDetectorResponse:
    def test_inertial_limit_vanishes(self):
        assert detector_response(1.0, 1e-6) == 0.0

    def test_zero_gap_analytic_limit(self):
        a = 2.3
        assert abs(detector_response(0.0, a) - a / (4 * np.pi**2)) < 1e-15

    def test_detailed_balance(self):
        for omega, a in ((0.5, 1.0), (2.0, 3.0), (1.0, 0.7)):
            lhs = detector_response(-omega, a) / detector_response(omega, a)
            assert abs(lhs - np.exp(2 * np.pi * omega / a)) < 1e-12 * lhs

    def test_matches_thermal_bath_at_unruh_temperature(self):
        # Planck factor at T = a/2pi in geometric units
        omega, a = 1.3, 2.0
        T = a / (2 * np.pi)
        planck = omega / (2 * np.pi * np.expm1(omega / T))
        assert abs(detector_response(omega, a) - planck) < 1e-15


class TestRindlerMode:
    def test_large_gap_is_pure(self):
        st = rindler_mode_state(50.0, 1.0)
        assert abs(st.probabilities[0] - 1.0) < 1e-12
        assert st.entropy() < 1e-10

    def test_mean_occupation_at_log2(self):
        a = 2 * np.pi / np.log(2.0)
        st = rindler_mode_state(1.0, a)
        assert abs(st.mean_occupation() - 1.0) < 1e-12
        direct = np.sum(np.arange(st.n_max + 1) * st.probabilities)
        assert abs(direct - 1.0) < 1e-10

    def test_entropy_matches_thermal_oscillator_oracle(self):
        for ratio in (0.3, 1.0, 3.0):
            st = rindler_mode_state(ratio, 2 * np.pi)
            assert abs(st.entropy() - st.thermal_entropy_oracle()) < 1e-10

    def test_tail_below_threshold_and_normalized(self):
        st = rindler_mode_state(0.05, 1.0)
        q = np.exp(-2 * np.pi * 0.05)
        assert q ** (st.n_max + 1) < 1e-12
        assert abs(st.probabilities.sum() - 1.0) < 1e-11

    @pytest.mark.parametrize("ratio", [1e-300, 1e-17, 1e-9])
    def test_ratio_past_the_level_bound_rejected(self, ratio):
        # q rounds to 1 at 1e-300; 1e-17 and 1e-9 need ~2.5e17 and ~4.4e9 levels
        with pytest.raises(ValidationError, match=f"omega/a = {ratio}"):
            rindler_mode_state(ratio, 1.0)

    def test_geometric_ratio(self):
        st = rindler_mode_state(1.0, 3.0)
        ratios = st.probabilities[1:6] / st.probabilities[:5]
        assert np.abs(ratios - np.exp(-2 * np.pi / 3.0)).max() < 1e-12


class TestBlackHoleStatics:
    def test_surface_gravity_geometric(self):
        assert abs(surface_gravity(BlackHole(1.0)) - 0.25) < 1e-15

    def test_surface_gravity_scaling(self):
        assert abs(surface_gravity(BlackHole(2.0)) -
                   surface_gravity(BlackHole(1.0)) / 2) < 1e-15

    def test_redshifted_acceleration_limit(self):
        # a(r) alpha(r) = M/r^2 exactly; approaches kappa at the horizon
        M = 1.0
        kappa = surface_gravity(BlackHole(M))
        gaps = []
        for eps in (1e-3, 1e-5, 1e-7):
            r = 2 * M * (1 + eps)
            alpha = np.sqrt(1 - 2 * M / r)
            a = M / (r**2 * np.sqrt(1 - 2 * M / r))
            gaps.append(abs(a * alpha - kappa))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-6

    def test_hawking_temperature_geometric(self):
        assert abs(hawking_temperature(BlackHole(1.0)) - 1 / (8 * np.pi)) < 1e-15

    def test_hawking_temperature_solar_pin(self):
        t = hawking_temperature(BlackHole(1.989e30), SI)
        assert abs(t - HAWKING_T_SOLAR) < 1e-3 * HAWKING_T_SOLAR

    def test_tm_constant_across_masses(self):
        ref = hawking_temperature(BlackHole(1.0)) * 1.0
        for M in (0.5, 3.0, 100.0):
            assert abs(hawking_temperature(BlackHole(M)) * M - ref) < 1e-12

    def test_entropy_geometric_value_and_scaling(self):
        assert abs(bekenstein_entropy(BlackHole(1.0)) - 4 * np.pi) < 1e-12
        assert abs(bekenstein_entropy(BlackHole(2.0)) /
                   bekenstein_entropy(BlackHole(1.0)) - 4.0) < 1e-12

    def test_unit_entropy_at_four_planck_areas(self):
        A_target = 4 * SI.planck_length_sq
        M = SI.c**2 * np.sqrt(A_target / (16 * np.pi)) / SI.G
        assert abs(bekenstein_entropy(BlackHole(M), SI) - 1.0) < 1e-10

    def test_geometric_vs_si_consistency(self):
        # geometric result times the restored-unit factor equals SI
        M_kg = 5e12
        t_geo = hawking_temperature(BlackHole(1.0))  # at unit geometric mass
        factor = SI.hbar * SI.c**3 / (SI.G * SI.k_B * M_kg)
        assert abs(t_geo * factor - hawking_temperature(BlackHole(M_kg), SI)) \
            < 1e-10 * hawking_temperature(BlackHole(M_kg), SI)

    def test_area(self):
        assert abs(horizon_area(BlackHole(1.0)) - 16 * np.pi) < 1e-12


class TestFirstLaw:
    def test_quadratic_residual_value(self):
        assert first_law_residual(1.0, 1e-4) < 1e-7

    def test_residual_scales_quadratically(self):
        r1 = first_law_residual(1.0, 1e-3)
        r2 = first_law_residual(1.0, 5e-4)
        assert abs(r1 / r2 - 4.0) < 1e-3

    def test_vanishes_linearly(self):
        assert first_law_residual(1.0, 1e-8) / 1e-8 < 1e-7


class TestEvaporation:
    def test_endpoints(self):
        M0 = 1e9
        assert evaporate(M0, 0.0).mass == M0
        t_e = evaporation_lifetime(M0)
        assert evaporate(M0, t_e).mass == 0.0
        assert evaporate(M0, 2 * t_e).exhausted

    def test_half_mass_at_seven_eighths(self):
        M0 = 3.7e8
        t_e = evaporation_lifetime(M0)
        out = evaporate(M0, 7 * t_e / 8)
        assert abs(out.mass - M0 / 2) < 1e-9 * M0

    def test_against_ode_integration(self):
        # oracle: integrate dM/dt = -M0^3 / (3 t_E M^2), calibrated to the
        # same lifetime, with a tight adaptive integrator
        M0 = 1.0e6
        t_e = evaporation_lifetime(M0)

        def rhs(t, y):
            return -(M0**3) / (3 * t_e * y[0] ** 2)

        ts = np.linspace(0.0, 0.99 * t_e, 25)
        sol = solve_ivp(rhs, (0.0, ts[-1]), [M0], t_eval=ts, rtol=1e-10,
                        atol=1e-6)
        closed = np.array([evaporate(M0, t).mass for t in ts])
        rel = np.abs(sol.y[0] - closed) / closed
        assert rel.max() < 1e-3

    def test_custom_rate_constant(self):
        assert abs(evaporation_lifetime(2.0, k_evap=1.0) - 8.0) < 1e-12


_M0 = 3.7e8
_T_E = evaporation_lifetime(_M0)


@pytest.mark.parametrize("rhs, y0, ts, rtol, atol, rejected, most_points_per_step", [
    pytest.param(lambda t, y: -(_M0**3) / (3 * _T_E * y**2), _M0,
                 np.linspace(0.0, 0.99 * _T_E, 25), 1e-10, 1e-6, 1, 2,
                 id="criterion-15"),
    # long steps: up to ten output points fall inside one step
    pytest.param(lambda t, y: -y, 1.0, np.linspace(0.0, 10.0, 101), 1e-3, 1e-6,
                 0, 10, id="decay"),
    # stiff: the step keeps hitting the stability limit and is rejected
    pytest.param(lambda t, y: -50 * (y - np.cos(t)), 0.0,
                 np.linspace(0.0, 10.0, 401), 1e-3, 1e-6, 4, 3, id="stiff"),
])
def test_rk45_replays_scipy_step_for_step(rhs, y0, ts, rtol, atol, rejected,
                                          most_points_per_step):
    # selfcheck._rk45 integrates criterion 15's evaporation ODE
    calls = []

    def counted(t, y):
        calls.append(t)
        return rhs(t, y)

    got = selfcheck._rk45(counted, y0, ts, rtol, atol)
    kw = dict(fun=lambda t, y: rhs(t, y[0]), t_span=(ts[0], ts[-1]), y0=[y0],
              method="RK45", rtol=rtol, atol=atol)
    ref = solve_ivp(t_eval=ts, **kw)
    assert np.array_equal(got, ref.y[0])
    assert len(calls) == ref.nfev
    # two calls choose the first step; each tried step, kept or not, makes six
    steps = solve_ivp(**kw).t
    assert (ref.nfev - 2) // 6 - (len(steps) - 1) == rejected
    per_step = np.diff(np.searchsorted(ts, steps, side="right"))
    assert per_step.max() == most_points_per_step


class TestSuperscattering:
    def test_identity_scattering(self):
        rng = np.random.default_rng(51)
        rho = qstate.random_density_matrix(2, rng)
        out = superscattering(np.eye(4, dtype=complex), rho)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-12

    def test_cnot_mixes_plus_state(self):
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
                         [0, 0, 1, 0]], dtype=complex)
        plus = qstate.DensityMatrix.from_pure(np.array([1, 1]) / np.sqrt(2))
        out = superscattering(cnot, plus)
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12
        assert qstate.von_neumann_entropy(out) > np.log(2) - 1e-10

    def test_trace_preserved_and_cp_certified(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            S = qstate.haar_unitary(4, rng)
            rho = qstate.random_density_matrix(2, rng)
            out = superscattering(S, rho)
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
            # Kraus form reproduces the traced evolution and certifies CP
            ks = horizon.superscattering_kraus(S, 2)
            via_kraus = channel.apply(ks, rho)[0][1]
            assert np.abs(via_kraus.matrix - out.matrix).max() < 1e-12
            _, cp, _ = channel.choi_and_cp_check(ks)
            assert cp

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            superscattering(np.eye(4) * 1.1,
                            qstate.DensityMatrix.maximally_mixed(2))


class TestConstants:
    def test_positive_required(self):
        with pytest.raises(ValidationError):
            PhysicalConstants(c=0.0)
