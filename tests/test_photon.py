import tracemalloc
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
        assert back.masses.tobytes() == pk.masses.tobytes()

    def test_superluminal_rejected(self):
        with pytest.raises(ValidationError):
            boost_packet(collimated_packet(0.1), 1.0)

    @pytest.mark.parametrize("aperture, polarization", [
        (0.05, "linear-x"), (0.8, qstate.haar_state(2, np.random.default_rng(47)))])
    def test_alpha_is_kept_as_the_zero_helicity_phase(self, aperture, polarization):
        # the ray masses and alpha carry over bit for bit, and alpha is
        # alpha e^(-+ i xi) with xi from the general phase core on the rays
        pk = collimated_packet(aperture, polarization, n_theta=8, n_phi=12)
        theta, phi = (a.ravel() for a in np.broadcast_arrays(pk.theta[:, None], pk.phi))
        k = np.column_stack([np.ones_like(theta), np.sin(theta) * np.cos(phi),
                             np.sin(theta) * np.sin(phi), np.cos(theta)])
        for v in (-0.9, -0.25, 0.4, 0.999):
            b = boost_packet(pk, v)
            assert (b.masses.tobytes(), b.alpha.tobytes()) == (pk.masses.tobytes(),
                                                               pk.alpha.tobytes())
            xi = lorentz.helicity_phase_batch(lorentz.boost((0.0, 0.0, v)), k)
            assert np.array_equal(b.alpha.reshape(-1, 2),
                                  pk.alpha.reshape(-1, 2) * np.exp(np.outer(xi, [-1j, 1j])))


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


class TestPolarizationMatrix:
    def test_trace_above_one_rejected(self):
        with pytest.raises(ValidationError):
            PolarizationMatrix(np.eye(3))

    def test_non_psd_rejected(self):
        with pytest.raises(ValidationError):
            PolarizationMatrix(np.diag([0.8, 0.4, -0.2]))


@pytest.mark.parametrize("field", ["masses", "k0"])
def test_packet_rejects_a_negative_ray_mass_or_frequency(field):
    pk = collimated_packet(0.2, n_theta=4, n_phi=8)
    bad = getattr(pk, field).copy()
    bad[0] *= -1.0
    with pytest.raises(ValidationError, match="masses >= 0 and k0 > 0"):
        photon.PhotonPacket(**{**vars(pk), field: bad})


def random_packet_draws(n, seed):
    rng = np.random.default_rng(seed)
    apertures = rng.uniform(0.02, 0.6, size=n)
    pairs = np.array([qstate.haar_state(2, rng) for _ in range(n)])
    return apertures, pairs


def same_check_message(batched, scalar):
    """Two check messages 'WHAT VALUE differs from 1' naming the same check,
    with values equal up to round-off (a ring sum against a ray sum)."""
    (what_b, value_b), (what_s, value_s) = (
        str(e.value).removesuffix(" differs from 1").rsplit(" ", 1) for e in (batched, scalar))
    return what_b == what_s and abs(float(value_b) - float(value_s)) < 1e-12


def per_ray_matrix(packet, v):
    """sum_i m_i v_i v_i^dagger over the rays of packet boosted by v along z,
    ray by ray: v_i = alpha+ eps+ + alpha- eps- with eps+ = (R e_x + i R e_y)
    / sqrt(2) written out at the aberrated direction."""
    ct, st = np.cos(packet.theta)[:, None], np.sin(packet.theta)[:, None]
    cp, sp = np.cos(packet.phi), np.sin(packet.phi)
    ctp, stp = (ct - v) / (1.0 - v * ct), st * np.sqrt(1.0 - v * v) / (1.0 - v * ct)
    ep = np.stack(np.broadcast_arrays(ctp * cp - 1j * sp, ctp * sp + 1j * cp, -stp + 0j),
                  axis=-1) / np.sqrt(2.0)
    vectors = packet.alpha[..., :1] * ep + packet.alpha[..., 1:] * ep.conj()
    return np.einsum("r,rkm,rkn->mn", packet.masses, vectors, vectors.conj())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_theta=st.integers(1, 12),
       n_phi=st.integers(1, 16), v=st.floats(-0.999, 0.999))
def test_ring_core_matches_a_per_ray_oracle(seed, n_theta, n_phi, v):
    # random alpha per ray: both routes and the expectations of the boosted
    # packet against the oracle
    rng = np.random.default_rng(seed)
    alpha = rng.normal(size=(n_theta, n_phi, 2)) + 1j * rng.normal(size=(n_theta, n_phi, 2))
    alpha /= np.linalg.norm(alpha, axis=-1, keepdims=True)
    source = collimated_packet(rng.uniform(0.02, 0.8), alpha, n_theta, n_phi)
    want = per_ray_matrix(source, v)
    boosted = boost_packet(source, v)
    for route in (effective_density_matrix, naive_density_matrix):
        assert np.abs(route(boosted).matrix - want).max() < 1e-14
    expectations = [povm_expectation(boosted, ax) for ax in "xyz"]
    assert np.abs(expectations - np.diagonal(want).real).max() < 1e-14


class TestPacketBatch:
    """Criterion 11's ring function, one helicity pair per packet, against a
    loop over the single-packet API."""

    N_THETA, N_PHI = 6, 8

    @pytest.mark.parametrize("n_theta, n_phi, n", [
        *((nt, nph, n) for nt, nph in [(6, 8), (12, 1), (12, 2), (12, 3), (32, 64)]
          for n in (1, 7, 51)), (6, 8, 500)])
    def test_ring_core_matches_scalar_loop(self, n_theta, n_phi, n):
        apertures, pairs = random_packet_draws(n, 48 + n)
        rings = photon._povm_rings(apertures, pairs, n_theta, n_phi)
        for i, (aperture, pair) in enumerate(zip(apertures, pairs)):
            pk = collimated_packet(aperture, polarization=pair, n_theta=n_theta, n_phi=n_phi)
            scalar = (np.array([povm_expectation(pk, ax) for ax in "xyz"]),
                      effective_density_matrix(pk).matrix,
                      naive_density_matrix(pk).matrix)
            for got, want in zip(rings, scalar):
                assert np.abs(got[i] - want).max() < 1e-14

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(theta=st.floats(0, np.pi), phi=st.floats(0, 2 * np.pi))
    def test_ring_terms_are_the_helicity_frame(self, theta, phi):
        # eps+ = sum_j f_j(theta) g_j(phi) _RING_EP[j], as the core expands it
        f = np.array([1.0, np.cos(theta), np.sin(theta)])[photon._THETA_TERM]
        g = np.array([np.cos(phi), np.sin(phi), 1.0])[photon._PHI_TERM]
        ep, _ = photon._helicity_vectors_batch(theta, phi)
        assert np.abs((f * g) @ photon._RING_EP - ep).max() < 1e-15

    @pytest.mark.parametrize("fault", ["alpha", "masses"])
    def test_bad_packet_in_batch_raises_scalar_error(self, fault):
        # the core checks ring masses (P, n_theta) and one pair per packet
        apertures, pairs = random_packet_draws(7, 49)
        packets = [collimated_packet(a, pair, self.N_THETA, self.N_PHI)
                   for a, pair in zip(apertures, pairs)]
        masses = np.array([pk.masses for pk in packets])
        bad = vars(packets[3]).copy()
        if fault == "alpha":
            pairs[3] *= 1.01
            bad["alpha"] = bad["alpha"] * 1.01
        else:
            masses[3] *= 1.01 ** 2
            bad["masses"] = bad["masses"] * 1.01 ** 2
        with pytest.raises(ValidationError) as scalar:
            photon.PhotonPacket(**bad)
        with pytest.raises(ValidationError) as batched:
            photon._check_packets(masses, pairs[:, None, None], self.N_PHI)
        assert same_check_message(batched, scalar)

    @pytest.mark.parametrize("bad", [np.eye(3), np.diag([0.8, 0.4, -0.2])])
    def test_bad_matrix_in_batch_raises_scalar_error(self, bad):
        apertures, pairs = random_packet_draws(7, 50)
        _, effective, _ = photon._povm_rings(apertures, pairs, self.N_THETA, self.N_PHI)
        effective[4] = bad
        with pytest.raises(ValidationError) as scalar:
            PolarizationMatrix(bad)
        with pytest.raises(ValidationError) as batched:
            photon._checked_polarization(effective)
        assert str(batched.value) == str(scalar.value)

    def test_criterion_makes_one_ring_core_call(self, monkeypatch):
        calls = []

        def counted(name, f):
            def wrapper(*args):
                calls.append((name, np.shape(args[0])))
                return f(*args)
            return wrapper

        for name in ("_povm_rings", "_collimated_rings", "_helicity_vectors_batch",
                     "_check_packets", "_ring_matrices", "_checked_polarization"):
            monkeypatch.setattr(photon, name, counted(name, getattr(photon, name)))
        grids = selfcheck._grids(None)
        crit = next(c for c in selfcheck.CRITERIA if c.name == "11-photon-povm")
        assert selfcheck.run_criterion(crit, selfcheck._tols(None), grids).passed
        # one call of the criterion's ring function, its packet checks on
        # (500, n_theta) ring masses, one ring core call for both routes, both
        # matrix stacks checked, and no helicity frame per ray
        assert grids["povm_packets"] == 500
        assert calls == [("_povm_rings", (500,)), ("_collimated_rings", (500,)),
                         ("_check_packets", (500, grids["povm_theta"])),
                         ("_ring_matrices", (500, 1, grids["povm_theta"])),
                         ("_checked_polarization", (500, 3, 3)),
                         ("_checked_polarization", (500, 3, 3))]

    def test_criterion_allocates_under_2_mb(self):
        # tracemalloc peak of one warm run: 1.6 MB measured on the rings;
        # per-ray arrays for 50 of the 500 packets alone would exceed 2 MB
        crit = next(c for c in selfcheck.CRITERIA if c.name == "11-photon-povm")
        tols, grids = selfcheck._tols(None), selfcheck._grids(None)
        selfcheck.run_criterion(crit, tols, grids)
        tracemalloc.start()
        try:
            assert selfcheck.run_criterion(crit, tols, grids).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


@pytest.mark.parametrize("route", ["_b_components", "_ring_vectors"])
def test_criterion_11_gap_sees_a_perturbed_route(monkeypatch, route):
    # the alpha+ part scaled by 1 + 1e-9 on one route only: the POVM route
    # reads eps+ through _b_components, the naive one reads the pairs in
    # _ring_vectors; the effective-vs-naive gap rises to that scale and
    # criterion 11 fails on it
    delta = 1e-9
    unperturbed = getattr(photon, route)
    if route == "_b_components":
        def perturbed(ep, em):
            return unperturbed(ep * (1.0 + delta), em)
    else:
        def perturbed(pairs):
            return unperturbed(pairs * [1.0 + delta, 1.0])

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
