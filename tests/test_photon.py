import numpy as np
import pytest

from relqinfo import lorentz, photon, qstate
from relqinfo._errors import ValidationError
from relqinfo.photon import (PolarizationMatrix, boost_packet,
                             collimated_packet, doppler_error_ratio,
                             effective_density_matrix, helicity_vectors,
                             naive_density_matrix, no_orthogonality_witness,
                             povm_expectation, rotate_packet,
                             transversal_decomposition)


class TestHelicityVectors:
    def test_standard_direction(self):
        ep, em = helicity_vectors(0.0, 0.0)
        assert np.abs(ep - np.array([1, 1j, 0]) / np.sqrt(2)).max() < 1e-14
        assert np.abs(em - np.array([1, -1j, 0]) / np.sqrt(2)).max() < 1e-14

    def test_transversality_and_orthonormality(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            khat = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                             np.cos(th)])
            ep, em = helicity_vectors(th, ph)
            assert abs(ep @ khat) < 1e-12 and abs(em @ khat) < 1e-12
            assert abs(np.linalg.norm(ep) - 1.0) < 1e-12
            assert abs(ep.conj() @ em) < 1e-12

    def test_x_direction_matches_rotation_oracle(self):
        ep, _ = helicity_vectors(np.pi / 2, 0.0)
        R = lorentz.rotation_to_khat(np.pi / 2, 0.0)
        assert np.abs(ep - R @ (np.array([1, 1j, 0]) / np.sqrt(2))).max() < 1e-14


class TestTransversalDecomposition:
    def test_x_label_on_axis_beam(self):
        n_plus, n_minus, n_ell, c = transversal_decomposition([1.0, 0, 0], 0.0, 0.0)
        assert abs(abs(n_plus) ** 2 + abs(n_minus) ** 2 - 1.0) < 1e-12
        assert abs(n_ell) < 1e-14
        assert abs(c - 1.0) < 1e-12

    def test_longitudinal_label(self):
        n_plus, n_minus, n_ell, c = transversal_decomposition(
            [1.0, 0, 0], np.pi / 2, 0.0)
        assert abs(c) < 1e-12
        assert abs(abs(n_ell) - 1.0) < 1e-12

    def test_component_pattern_and_completeness(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            n_plus, n_minus, n_ell, c = transversal_decomposition(
                [1.0, 0, 0], th, ph)
            # displayed coefficient pattern (cos th cos ph +- i sin ph)/sqrt2
            want_p = (np.cos(th) * np.cos(ph) + 1j * np.sin(ph)) / np.sqrt(2)
            want_m = (np.cos(th) * np.cos(ph) - 1j * np.sin(ph)) / np.sqrt(2)
            assert abs(n_plus - want_p) < 1e-12
            assert abs(n_minus - want_m) < 1e-12
            assert abs(abs(n_plus) ** 2 + abs(n_minus) ** 2 + abs(n_ell) ** 2
                       - 1.0) < 1e-12


class TestPovmExpectation:
    def test_circular_polarization_on_axis(self):
        pk = collimated_packet(1e-4, polarization="plus", n_theta=8, n_phi=8)
        assert abs(povm_expectation(pk, "x") - 0.5) < 1e-6
        assert abs(povm_expectation(pk, "y") - 0.5) < 1e-6
        assert povm_expectation(pk, "z") < 1e-6

    def test_linear_x_on_axis(self):
        pk = collimated_packet(1e-4, polarization="linear-x", n_theta=8, n_phi=8)
        assert abs(povm_expectation(pk, "x") - 1.0) < 1e-6

    def test_completeness_over_random_packets(self):
        rng = np.random.default_rng(43)
        worst = 0.0
        for _ in range(500):
            aperture = rng.uniform(0.02, 0.6)
            a = qstate.haar_state(2, rng)
            pk = collimated_packet(aperture, polarization=a, n_theta=12,
                                   n_phi=16)
            total = sum(povm_expectation(pk, ax) for ax in "xyz")
            worst = max(worst, abs(total - 1.0))
        assert worst < 1e-10


class TestEffectiveDensityMatrix:
    def test_sharp_linear_x(self):
        pk = collimated_packet(1e-5, polarization="linear-x", n_theta=8, n_phi=8)
        rho = effective_density_matrix(pk)
        assert np.abs(rho.matrix - np.diag([1.0, 0, 0])).max() < 1e-8

    def test_sharp_circular(self):
        pk = collimated_packet(1e-5, polarization="plus", n_theta=8, n_phi=8)
        rho = effective_density_matrix(pk).matrix
        assert abs(rho[0, 0] - 0.5) < 1e-8
        assert abs(rho[1, 1] - 0.5) < 1e-8
        assert abs(rho[0, 1] - (-0.5j)) < 1e-8

    def test_matches_naive_route_on_random_packets(self):
        rng = np.random.default_rng(44)
        worst = 0.0
        for _ in range(500):
            aperture = rng.uniform(0.02, 0.8)
            a = qstate.haar_state(2, rng)
            pk = collimated_packet(aperture, polarization=a, n_theta=10,
                                   n_phi=12)
            r1 = effective_density_matrix(pk).matrix
            r2 = naive_density_matrix(pk).matrix
            worst = max(worst, np.abs(r1 - r2).max())
        assert worst < 1e-10

    def test_diagonal_equals_povm_expectations(self):
        pk = collimated_packet(0.3, polarization="linear-y")
        rho = effective_density_matrix(pk).matrix
        for i, ax in enumerate("xyz"):
            assert abs(rho[i, i].real - povm_expectation(pk, ax)) < 1e-12

    def test_hermitian_psd_everywhere(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            pk = collimated_packet(rng.uniform(0.05, 1.0),
                                   polarization=qstate.haar_state(2, rng),
                                   n_theta=10, n_phi=12)
            rho = effective_density_matrix(pk)
            assert np.linalg.eigvalsh(rho.matrix).min() > -1e-12

    def test_rotation_covariance(self):
        pk = collimated_packet(0.25, polarization="linear-x")
        lam = lorentz.rotation([0.3, -0.5, 1.0], 0.8)
        R = lam.matrix[1:, 1:]
        rot = rotate_packet(pk, lam)
        rho_rot = effective_density_matrix(rot).matrix
        rho = effective_density_matrix(pk).matrix
        assert np.abs(rho_rot - R @ rho @ R.T).max() < 1e-10

    def test_rotation_onto_near_axis_keeps_polar_angle(self):
        # tilt ray 0 back about the axis z x khat until it sits 3e-9 rad from
        # +z; arccos(khat_z) would round that angle to 0
        pk = collimated_packet(0.4, n_theta=4, n_phi=4)
        theta0, phi0, target = pk.theta[0], pk.phi[0], 3e-9
        lam = lorentz.rotation([-np.sin(phi0), np.cos(phi0), 0.0], target - theta0)
        rot = rotate_packet(pk, lam)
        assert abs(rot.theta[0] - target) < 1e-15


class TestBoost:
    def test_zero_velocity_identity(self):
        pk = collimated_packet(0.1)
        b = boost_packet(pk, 0.0)
        assert np.abs(b.theta - pk.theta).max() < 1e-14
        assert np.abs(b.alpha - pk.alpha).max() < 1e-14

    def test_norm_and_helicity_populations_invariant(self):
        rng = np.random.default_rng(46)
        pk = collimated_packet(0.3, polarization=qstate.haar_state(2, rng))
        pop0 = np.sum(pk.masses * np.abs(pk.alpha[:, 0]) ** 2)
        for v in (0.5, -0.7, 0.9):
            b = boost_packet(pk, v)
            assert abs(np.sum(b.weights * np.abs(b.profile) ** 2) - 1.0) < 1e-8
            pop = np.sum(b.masses * np.abs(b.alpha[:, 0]) ** 2)
            assert abs(pop - pop0) < 1e-8
            assert np.abs(np.abs(b.alpha) - np.abs(pk.alpha)).max() < 1e-12

    def test_small_angle_cone_scaling(self):
        pk = collimated_packet(0.01, n_theta=16, n_phi=8)
        v = 0.6
        b = boost_packet(pk, v)
        ratio = b.theta / pk.theta
        target = np.sqrt((1 + v) / (1 - v))
        assert np.abs(ratio - target).max() < target * 1e-3

    def test_frequency_rescaling(self):
        pk = collimated_packet(0.05)
        v = 0.5
        b = boost_packet(pk, v)
        g = 1 / np.sqrt(1 - v * v)
        assert np.abs(b.k0 - g * (1 - v * np.cos(pk.theta))).max() < 1e-12

    def test_round_trip(self):
        pk = collimated_packet(0.2)
        back = boost_packet(boost_packet(pk, 0.6), -0.6)
        assert np.abs(back.theta - pk.theta).max() < 1e-10
        assert np.abs(back.k0 - pk.k0).max() < 1e-10
        assert abs(np.sum(back.weights * np.abs(back.profile) ** 2) - 1.0) < 1e-10

    def test_superluminal_rejected(self):
        with pytest.raises(ValidationError):
            boost_packet(collimated_packet(0.1), 1.0)


class TestDopplerErrorRatio:
    def test_zero_velocity(self):
        out = doppler_error_ratio(0.05, 0.0)
        assert abs(out["ratio"] - 1.0) < 1e-10

    def test_doppler_law_at_half(self):
        out = doppler_error_ratio(0.05, 0.5)
        assert abs(out["ratio"] - 3.0) < 0.02 * 3.0

    def test_inverse_velocity(self):
        out = doppler_error_ratio(0.05, -0.5)
        assert abs(out["ratio"] - 1.0 / 3.0) < 0.02 / 3.0

    def test_reported_errors_positive(self):
        out = doppler_error_ratio(0.05, 0.25)
        assert out["P_E"] > 1e-14 and not out["degenerate"]


class TestNoOrthogonality:
    def test_margin_positive_and_growing(self):
        m1 = no_orthogonality_witness(0.1)["margin"]
        m2 = no_orthogonality_witness(0.2)["margin"]
        assert 0.0 < m1 < m2

    def test_linear_pair_loses_distinguishability(self):
        out = no_orthogonality_witness(0.2)
        assert out["deficits"]["linear_x_vs_y"] > 1e-5

    def test_sharp_beam_limit(self):
        out = no_orthogonality_witness(0.01)
        assert out["margin"] < 1e-4


class TestPolarizationMatrix:
    def test_trace_above_one_rejected(self):
        with pytest.raises(ValidationError):
            PolarizationMatrix(np.eye(3))

    def test_non_psd_rejected(self):
        with pytest.raises(ValidationError):
            PolarizationMatrix(np.diag([0.8, 0.4, -0.2]))


class TestTransversalFrame:
    def test_frame_invariants_hold_on_grids(self):
        rng = np.random.default_rng(47)
        theta = rng.uniform(0, np.pi, size=64)
        phi = rng.uniform(0, 2 * np.pi, size=64)
        frame = photon.TransversalFrame.for_directions(theta, phi)
        assert np.abs(np.einsum("ni,ni->n", frame.eps_plus,
                                frame.khat)).max() < 1e-12

    def test_tampered_frame_rejected(self):
        frame = photon.TransversalFrame.for_directions(
            np.array([0.3]), np.array([0.1]))
        with pytest.raises(ValidationError):
            photon.TransversalFrame(khat=frame.khat,
                                    eps_plus=frame.eps_plus * 1.5,
                                    eps_minus=frame.eps_minus)
