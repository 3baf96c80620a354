import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqinfo import lorentz, photon, qstate, selfcheck
from relqinfo._errors import ValidationError
from relqinfo.photon import (PolarizationMatrix, boost_packet,
                             collimated_packet, effective_density_matrix,
                             naive_density_matrix, povm_expectation)


class TestHelicityVectors:
    def test_standard_direction(self):
        ep, em = photon._helicity_vectors_batch(0.0, 0.0)
        assert np.abs(ep - np.array([1, 1j, 0]) / np.sqrt(2)).max() < 1e-14
        assert np.abs(em - np.array([1, -1j, 0]) / np.sqrt(2)).max() < 1e-14

    def test_transversality_and_orthonormality(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            khat = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                             np.cos(th)])
            ep, em = photon._helicity_vectors_batch(th, ph)
            assert abs(ep @ khat) < 1e-12 and abs(em @ khat) < 1e-12
            assert abs(np.linalg.norm(ep) - 1.0) < 1e-12
            assert abs(ep.conj() @ em) < 1e-12

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 4),
           n_theta=st.integers(1, 6), n_phi=st.integers(1, 7))
    def test_ring_broadcast_matches_per_ray_call(self, seed, p, n_theta, n_phi):
        # rings of rays, theta (p, n_theta, 1) against phi (n_phi,), take the
        # trig once per ring and give the per-ray call's bits
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0, np.pi, (p, n_theta, 1))
        phi = rng.uniform(0, 2 * np.pi, n_phi)
        rays = np.broadcast_arrays(theta, phi)
        for rings, per_ray in zip(photon._helicity_vectors_batch(theta, phi),
                                  photon._helicity_vectors_batch(*(a.ravel() for a in rays))):
            assert rings.shape == (p, n_theta, n_phi, 3)
            assert np.array_equal(rings.reshape(-1, 3), per_ray)

    def test_x_direction_matches_rotation_oracle(self):
        ep, _ = photon._helicity_vectors_batch(np.pi / 2, 0.0)
        R = lorentz._rotation_to_khat_batch(np.pi / 2, 0.0)
        assert np.abs(ep - R @ (np.array([1, 1j, 0]) / np.sqrt(2))).max() < 1e-14


class TestTransversalDecomposition:
    """The helicity components <eps+-|e_m> of the Cartesian labels, as the
    POVM route reads them (_b_components); the longitudinal overlap khat_m
    is the rest of each unit label."""

    @staticmethod
    def components(th, ph):
        ep, em = photon._helicity_vectors_batch(th, ph)
        khat = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        return photon._b_components(ep, em), khat

    def test_x_label_on_axis_beam(self):
        b, khat = self.components(0.0, 0.0)
        assert abs(np.sum(np.abs(b[0]) ** 2) - 1.0) < 1e-12
        assert abs(khat[0]) < 1e-14

    def test_longitudinal_label(self):
        b, khat = self.components(np.pi / 2, 0.0)
        assert np.abs(b[0]).max() < 1e-12
        assert abs(abs(khat[0]) - 1.0) < 1e-12

    def test_component_pattern_and_completeness(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            b, khat = self.components(th, ph)
            # displayed coefficient pattern (cos th cos ph +- i sin ph)/sqrt2
            want_p = (np.cos(th) * np.cos(ph) + 1j * np.sin(ph)) / np.sqrt(2)
            want_m = (np.cos(th) * np.cos(ph) - 1j * np.sin(ph)) / np.sqrt(2)
            assert abs(b[0, 0] - want_p) < 1e-12
            assert abs(b[0, 1] - want_m) < 1e-12
            # each of the x, y, z labels: transversal weight plus longitudinal
            assert np.abs(np.sum(np.abs(b) ** 2, axis=1) + khat ** 2 - 1.0).max() < 1e-12


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
        out = photon._doppler_ratios(0.05, [0.0])[0]
        assert abs(out["ratio"] - 1.0) < 1e-10

    def test_doppler_law_at_half(self):
        out = photon._doppler_ratios(0.05, [0.5])[0]
        assert abs(out["ratio"] - 3.0) < 0.02 * 3.0

    def test_inverse_velocity(self):
        out = photon._doppler_ratios(0.05, [-0.5])[0]
        assert abs(out["ratio"] - 1.0 / 3.0) < 0.02 / 3.0

    def test_reported_errors_positive(self):
        out = photon._doppler_ratios(0.05, [0.25])[0]
        assert out["P_E"] > 1e-14 and not out["degenerate"]

    def test_scalar_is_the_core_entry_bit_for_bit(self):
        # one velocity at a time gives each row of the batched call exactly
        velocities = (-0.5, -0.25, 0.0, 0.25, 0.5)
        rows = photon._doppler_ratios(0.05, velocities, n_theta=16, n_phi=24)
        for v, row in zip(velocities, rows):
            assert photon._doppler_ratios(0.05, [v], n_theta=16, n_phi=24) == [row]

    def test_shared_rays_match_separate_boosts(self):
        # the rays as _doppler_ratios boosts them, with one phase call for both
        p1 = collimated_packet(0.1, "linear-x", 12, 16)
        p2 = collimated_packet(0.1, "plus", 12, 16)
        xi = lorentz.helicity_phase_batch(lorentz.boost([0.0, 0.0, 0.4]), p1.four_momenta())
        rays = photon._boosted_rays(p1, 0.4, xi)
        for pk in (p1, p2):
            shared, alone = photon._boosted(pk, rays), boost_packet(pk, 0.4)
            for field in ("theta", "phi", "weights", "profile", "alpha", "k0"):
                assert np.array_equal(getattr(shared, field), getattr(alone, field))


class TestPolarizationMatrix:
    def test_trace_above_one_rejected(self):
        with pytest.raises(ValidationError):
            PolarizationMatrix(np.eye(3))

    def test_non_psd_rejected(self):
        with pytest.raises(ValidationError):
            PolarizationMatrix(np.diag([0.8, 0.4, -0.2]))


@pytest.mark.parametrize("field", ["weights", "k0"])
def test_packet_rejects_a_negative_ray_weight_or_frequency(field):
    pk = collimated_packet(0.2, n_theta=4, n_phi=8)
    bad = getattr(pk, field).copy()
    bad[0] *= -1.0
    changes = {field: bad}
    if field == "weights":  # renormalized, so that only the sign can fail
        changes["profile"] = pk.profile / np.sqrt(np.sum(bad * np.abs(pk.profile) ** 2))
    with pytest.raises(ValidationError, match="positive"):
        photon.PhotonPacket(**{**vars(pk), **changes})


def random_packet_draws(n, seed):
    rng = np.random.default_rng(seed)
    apertures = rng.uniform(0.02, 0.6, size=n)
    pairs = np.array([qstate.haar_state(2, rng) for _ in range(n)])
    return apertures, pairs


class TestPacketBatch:
    """The packet-batched core against a loop over the single-packet API."""

    N_THETA, N_PHI = 6, 8

    @pytest.mark.parametrize("n", [1, 7, 50, 51, 500])
    def test_batches_and_blocks_match_scalar_loop(self, n):
        apertures, pairs = random_packet_draws(n, 48 + n)
        whole = photon._povm_batch(apertures, pairs, self.N_THETA, self.N_PHI)
        blocks = [np.concatenate(parts) for parts in zip(*selfcheck._photon_povm_blocks(
            apertures, pairs, self.N_THETA, self.N_PHI))]
        for i, (aperture, pair) in enumerate(zip(apertures, pairs)):
            pk = collimated_packet(aperture, polarization=pair,
                                   n_theta=self.N_THETA, n_phi=self.N_PHI)
            scalar = (np.array([povm_expectation(pk, ax) for ax in "xyz"]),
                      effective_density_matrix(pk).matrix,
                      naive_density_matrix(pk).matrix)
            for batched in (whole, blocks):
                for got, want in zip(batched, scalar):
                    assert np.abs(got[i] - want).max() < 1e-14

    @pytest.mark.parametrize("fault", ["alpha", "profile"])
    def test_bad_packet_in_block_raises_scalar_error(self, fault):
        apertures, pairs = random_packet_draws(7, 49)
        th, phi, weights, profile, _, _, alpha = photon._collimated_rays(
            apertures, pairs, self.N_THETA, self.N_PHI)
        if fault == "alpha":
            alpha[3, 5] *= 1.01
        else:
            profile[3] *= 1.01
        with pytest.raises(ValidationError) as scalar:
            photon.PhotonPacket(theta=np.repeat(th[3], self.N_PHI),
                                phi=np.tile(phi, self.N_THETA), weights=weights[3],
                                profile=profile[3], alpha=alpha[3],
                                k0=np.ones_like(weights[3]))
        with pytest.raises(ValidationError) as batched:
            photon._check_packets(weights * np.abs(profile) ** 2, alpha)
        assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("bad", [np.eye(3), np.diag([0.8, 0.4, -0.2])])
    def test_bad_matrix_in_block_raises_scalar_error(self, bad):
        apertures, pairs = random_packet_draws(7, 50)
        _, effective, _ = photon._povm_batch(apertures, pairs, self.N_THETA,
                                             self.N_PHI)
        effective[4] = bad
        with pytest.raises(ValidationError) as scalar:
            PolarizationMatrix(bad)
        with pytest.raises(ValidationError) as batched:
            photon._checked_polarization(effective)
        assert str(batched.value) == str(scalar.value)

    def test_criterion_builds_one_helicity_basis_per_block(self, monkeypatch):
        calls = []
        basis = photon._helicity_vectors_batch

        def counted(theta, phi):
            calls.append(np.shape(theta))
            return basis(theta, phi)

        monkeypatch.setattr(photon, "_helicity_vectors_batch", counted)
        grids = selfcheck._grids(None)
        crit = next(c for c in selfcheck.CRITERIA if c.name == "11-photon-povm")
        result = selfcheck.run_criterion(crit, selfcheck._tols(None), grids)
        assert result.passed
        assert grids["povm_packets"] == 500
        assert 0 < len(calls) <= math.ceil(500 / selfcheck._POVM_BLOCK)


# |new - einsum| of a POVM expectation or a density-matrix entry, relative to
# the packet's mass sum: the products sum N terms of unit-scale overlaps in a
# different order (~7e-16 measured over P in {1, 2, 7}, N in {1, 2, 192})
CONTRACTION_GAP = 1e-15


class TestContractions:
    """The BLAS-shaped contractions against the einsum forms they replace,
    kept here as the oracle."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([1, 2, 7]),
           n=st.sampled_from([1, 2, 192]), conjugate_pair=st.booleans())
    def test_match_einsum_oracle(self, seed, p, n, conjugate_pair):
        rng = np.random.default_rng(seed)
        ep, em = photon._helicity_vectors_batch(rng.uniform(0, np.pi, (p, n)),
                                                rng.uniform(0, 2 * np.pi, (p, n)))
        if not conjugate_pair:  # any unit second vector, not only conj(eps+)
            em = np.roll(ep, 1, axis=-1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        alpha = rng.normal(size=(p, n, 2)) + 1j * rng.normal(size=(p, n, 2))
        alpha /= np.linalg.norm(alpha, axis=-1, keepdims=True)
        masses = rng.uniform(0.01, 1.0, size=(p, n))
        scale = masses.sum(axis=1)

        b = np.stack([ep.conj(), em.conj()], axis=-1)
        oracle = np.einsum("pnmh,pnh->pnm", b.conj(), alpha)
        overlaps = photon._overlaps(alpha, ep, em)
        assert np.abs(overlaps - oracle).max() <= CONTRACTION_GAP
        expectations = np.einsum("pn,pnm->pm", masses, np.abs(oracle) ** 2)
        gap = np.abs(photon._povm_expectations(masses, overlaps) - expectations)
        assert (gap.max(axis=1) <= CONTRACTION_GAP * scale).all()
        matrices = np.einsum("pn,pnm,pnk->pmk", masses, oracle, oracle.conj())
        gap = np.abs(photon._density_matrices(masses, overlaps) - matrices)
        assert (gap.max(axis=(1, 2)) <= CONTRACTION_GAP * scale).all()


@pytest.mark.parametrize("route", ["_b_components", "_cartesian_vectors"])
def test_criterion_11_gap_sees_a_perturbed_route(monkeypatch, route):
    # eps+ scaled by 1 + 1e-9 on one route only (the POVM route reads it
    # through _b_components, the naive one through _cartesian_vectors): the
    # effective-vs-naive gap rises to that scale and criterion 11 fails on it
    delta = 1e-9
    unperturbed = getattr(photon, route)

    def perturbed(*args):
        *head, ep, em = args
        return unperturbed(*head, ep * (1.0 + delta), em)

    monkeypatch.setattr(photon, route, perturbed)
    crit = next(c for c in selfcheck.CRITERIA if c.name == "11-photon-povm")
    result = selfcheck.run_criterion(crit, selfcheck._tols(None), selfcheck._grids(None))
    assert delta / 10 < result.measured["max_effective_vs_naive"] < 10 * delta
    assert not result.passed
    assert "max_effective_vs_naive" in [c["key"] for c in result.checks if not c["holds"]]


@pytest.mark.parametrize("counts", [{"n_phi": 0}, {"n_theta": 0}, {"n_phi": 2.5},
                                    {"n_phi": -3}])
def test_direction_grid_count_must_be_whole_and_positive(counts):
    [(name, value)] = counts.items()
    with pytest.raises(ValidationError, match=f"{name} must be a whole number >= 1, "
                                              f"got {value}"):
        collimated_packet(0.1, **counts)


def test_zero_helicity_pair_is_rejected_before_dividing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="helicity pair"):
            collimated_packet(0.1, polarization=[0, 0])
