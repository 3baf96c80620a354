import numpy as np
import pytest

from relqinfo import lorentz, qstate, wavepacket
from relqinfo._errors import DimensionError, ValidationError
from relqinfo.lorentz import boost, compose, rotation
from relqinfo.wavepacket import (BipartitePacket, PacketSpec, beta_for_gamma,
                                 bipartite_boost_concurrence, boost_bipartite,
                                 boost_packet, cp_failure_witness,
                                 entropy_surface, gamma_parameter,
                                 gaussian_packet, noncovariance_witness,
                                 packet_error_scaling, reduced_spin,
                                 reduced_spin_pair, singlet_packet)


def small_packet(**kw):
    defaults = dict(mass=1.0, spread=0.2, points=9)
    defaults.update(kw)
    return gaussian_packet(PacketSpec(**defaults))


class TestConstruction:
    def test_normalized(self):
        p = small_packet()
        assert abs(p.norm_squared(p.weights, p.amplitudes) - 1.0) < 1e-8

    def test_spin_factorized_marginal(self):
        tau = reduced_spin(small_packet())
        assert np.abs(tau.matrix - np.diag([1.0, 0.0])).max() < 1e-12
        assert qstate.von_neumann_entropy(tau) < 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            PacketSpec(mass=1.0, spread=0.1, points=10)
        with pytest.raises(ValidationError):
            PacketSpec(mass=1.0, spread=0.1, extent=2.0)
        with pytest.raises(ValidationError):
            PacketSpec(mass=-1.0)

    def test_grid_on_shell(self):
        p = small_packet(mean_momentum=(0.3, -0.1, 0.5))
        shell = p.momenta[:, 0] ** 2 - np.sum(p.momenta[:, 1:] ** 2, axis=1)
        assert np.abs(shell - 1.0).max() < 1e-10

    def test_sharp_momentum_limit_keeps_entropy_zero(self):
        # single-point grid behaves as a momentum eigenstate: the boost is
        # one rigid spin rotation, so the packet stays pure
        p = gaussian_packet(PacketSpec(mass=1.0, spread=0.2, points=1,
                                       mean_momentum=(0.0, 0.0, 0.4)))
        assert p.momenta.shape[0] == 1
        b = boost_packet(p, boost([0.7, 0.0, 0.3]))
        assert qstate.von_neumann_entropy(reduced_spin(b)) < 1e-12


class TestGammaParameter:
    def test_zero_velocity_limit(self):
        assert gamma_parameter(0.1, 1.0, 0.0) == 0.0

    def test_printed_value(self):
        assert abs(gamma_parameter(0.1, 1.0, 0.8) - 0.05) < 1e-15

    def test_ultrarelativistic_limit(self):
        assert abs(gamma_parameter(0.1, 1.0, 1 - 1e-12) - 0.1) < 1e-5

    def test_inverse(self):
        for g in (0.01, 0.05, 0.2):
            beta = beta_for_gamma(g, 0.3, 1.0)
            assert abs(gamma_parameter(0.3, 1.0, beta) - g) < 1e-12


class TestBoost:
    def test_identity_boost(self):
        p = small_packet()
        p2 = boost_packet(p, lorentz.LorentzTransform.identity())
        assert np.abs(p2.amplitudes - p.amplitudes).max() < 1e-14
        assert np.abs(p2.momenta - p.momenta).max() < 1e-14

    def test_norm_preserved_up_to_rapidity_two(self):
        p = small_packet(points=11)
        for chi in (0.5, 1.0, 2.0):
            b = boost_packet(p, boost(rapidity=chi, axis=(0.3, -0.2, 0.9)))
            assert abs(b.norm_squared(b.weights, b.amplitudes) - 1.0) < 1e-8

    def test_rotation_conjugates_marginal(self):
        p = small_packet(spin_axis=(1.0, 0, 0))
        lam = rotation([0, 0, 1.0], 0.9)
        tau_rot = reduced_spin(boost_packet(p, lam))
        u = lorentz.su2_from_rotation(lam.matrix[1:, 1:])
        expected = u @ reduced_spin(p).matrix @ u.conj().T
        assert np.abs(tau_rot.matrix - expected).max() < 1e-10

    def test_narrow_packet_collinear_boost_keeps_marginal(self):
        p = small_packet(spread=1e-3, points=9)
        b = boost_packet(p, boost([0.0, 0.0, 0.9]))
        assert np.abs(reduced_spin(b).matrix - reduced_spin(p).matrix).max() < 1e-6

    def test_boost_then_inverse_restores_marginal(self):
        p = small_packet(spread=0.3)
        lam = boost(rapidity=1.2, axis=(1.0, 0, 1.0))
        back = boost_packet(boost_packet(p, lam), lam.inverse())
        assert np.abs(reduced_spin(back).matrix - reduced_spin(p).matrix).max() < 1e-8

    def test_composition_matches_single_boost(self):
        # collinear boosts, so the mapped grids coincide point by point
        p = small_packet(spread=0.25)
        l1 = boost(rapidity=0.4, axis=(0, 0, 1.0))
        l2 = boost(rapidity=0.7, axis=(0, 0, 1.0))
        two = boost_packet(boost_packet(p, l1), l2)
        one = boost_packet(p, compose(l2, l1))
        assert np.abs(two.momenta - one.momenta).max() < 1e-10
        assert np.abs(two.amplitudes - one.amplitudes).max() < 1e-8

    def test_representation_property_generic_pair(self):
        # U(L2 L1) = U(L2) U(L1) on amplitudes, non-collinear moderate boosts
        p = small_packet(spread=0.2)
        l1 = boost(rapidity=0.8, axis=(0, 0, 1.0))
        l2 = boost(rapidity=0.6, axis=(1.0, 0, 0))
        two = boost_packet(boost_packet(p, l1), l2)
        one = boost_packet(p, compose(l2, l1))
        assert np.abs(two.amplitudes - one.amplitudes).max() < 1e-8


class TestEntropySurface:
    def test_zero_gamma_row_is_zero(self):
        rows = entropy_surface(0.35, [0.0], [0.0, np.pi / 4, np.pi / 2], points=9)
        for _, gamma, s in rows:
            assert gamma == 0.0
            assert s < 1e-12

    def test_strictly_increasing_in_gamma_at_right_angle(self):
        gammas = [0.01, 0.05, 0.1, 0.2, 0.3]
        betas = [beta_for_gamma(g, 0.35, 1.0) for g in gammas]
        rows = entropy_surface(0.35, betas, [np.pi / 2], points=11)
        entropies = [s for _, _, s in rows]
        assert all(b > a for a, b in zip(entropies, entropies[1:]))

    def test_positive_at_right_angle(self):
        beta = beta_for_gamma(0.1, 0.2, 1.0)
        rows = entropy_surface(0.2, [beta], [np.pi / 2], points=11)
        assert rows[0][2] > 0.0

    def test_theta_ordering_for_rest_centered_packet(self):
        # boosting along the prepared spin axis tilts the spin through every
        # transverse momentum component, so the rest-centered packet comes
        # out most mixed at theta = 0 and least at theta = pi/2 (converged
        # across grids; rotations about the spin axis are inert)
        beta = beta_for_gamma(0.15, 0.3, 1.0)
        rows = entropy_surface(0.3, [beta], [0.0, np.pi / 3, np.pi / 2], points=9)
        entropies = [s for _, _, s in rows]
        assert entropies[0] > entropies[1] > entropies[2] > 0.0

    def test_grid_self_convergence(self):
        beta = beta_for_gamma(0.2, 0.35, 1.0)
        s11 = entropy_surface(0.35, [beta], [np.pi / 2], points=11)[0][2]
        s21 = entropy_surface(0.35, [beta], [np.pi / 2], points=21)[0][2]
        assert abs(s21 - s11) / s21 < 0.05

    def test_empty_lists_rejected(self):
        with pytest.raises(ValidationError):
            entropy_surface(0.2, [], [0.0])


class TestErrorScaling:
    def test_quadratic_exponent_and_inverse_restoration(self):
        report = packet_error_scaling(0.1, [0.0125, 0.025, 0.05], points=11)
        assert report["pe_rest"] < 1e-12
        assert 1.8 <= report["fitted_exponent"] <= 2.2
        assert max(report["pe_restored"]) < 1e-8

    def test_one_kernel_call_per_boost_matches_separate_boosts(self, monkeypatch):
        """The up and down packets share a grid, so each boost (forward and
        back) is one kernel call whose D rotates both; the report is bit for
        bit the one from boosting each packet on its own."""
        gammas, delta, theta = [0.0125, 0.025, 0.05], 0.1, 1.1
        ref_pes, ref_restored = [], []
        up, down = (small_packet(spread=delta, spin_axis=axis, points=5)
                    for axis in ((0, 0, 1), (0, 0, -1)))
        for g in gammas:
            lam = wavepacket._boost_at_angle(beta_for_gamma(g, delta, 1.0), theta)
            bu, bd = boost_packet(up, lam), boost_packet(down, lam)
            ref_pes.append(qstate.error_probability(reduced_spin(bu), reduced_spin(bd)))
            inv = lam.inverse()
            ref_restored.append(qstate.error_probability(
                reduced_spin(boost_packet(bu, inv)), reduced_spin(boost_packet(bd, inv))))

        calls = []
        kernel = wavepacket.kernels.wigner_su2_batch

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(wavepacket.kernels, "wigner_su2_batch", counting)
        report = packet_error_scaling(delta, gammas, theta=theta, points=5)
        assert len(calls) == 2 * len(gammas)
        assert report["pe_rest"] == qstate.error_probability(reduced_spin(up),
                                                             reduced_spin(down))
        assert report["pe_boosted"] == ref_pes
        assert report["pe_restored"] == ref_restored
        assert report["fitted_exponent"] == float(
            np.polyfit(np.log(gammas), np.log(ref_pes), 1)[0])

    def test_shared_boost_rejects_different_grids(self):
        with pytest.raises(ValidationError, match="grid"):
            wavepacket._boost_shared([small_packet(), small_packet(spread=0.3)],
                                     boost([0.3, 0, 0]))

    def test_halving_gamma_quarters_error(self):
        report = packet_error_scaling(0.1, [0.02, 0.04], points=11)
        ratio = report["pe_boosted"][1] / report["pe_boosted"][0]
        assert abs(ratio - 4.0) < 0.4  # within 10%


class TestBipartite:
    def test_singlet_norm_and_rest_concurrence(self):
        pk = singlet_packet(0.3, points=7)
        assert abs(pk.norm_squared() - 1.0) < 1e-6
        c0 = qstate.concurrence(reduced_spin_pair(pk))
        assert c0 > 1.0 - 1e-3

    def test_concurrence_decreases_with_rapidity(self):
        rows = bipartite_boost_concurrence(0.3, [0.0, 0.5, 1.0, 2.0], points=7)
        cs = [c for _, c in rows]
        assert cs[0] > 0.999
        assert all(b <= a + 1e-12 for a, b in zip(cs, cs[1:]))

    def test_inverse_boost_restores_concurrence(self):
        pk = singlet_packet(0.3, points=7)
        lam = boost(rapidity=1.0, axis=(0, 0, 1.0))
        fwd = boost_bipartite(pk, lam)
        back = boost_bipartite(fwd, lam.inverse())
        c0 = qstate.concurrence(reduced_spin_pair(pk))
        c2 = qstate.concurrence(reduced_spin_pair(back))
        assert abs(c2 - c0) < 1e-6

    def test_boosted_marginal_matches_independent_assembly(self):
        # oracle: rebuild the boosted spin-spin marginal from scratch using
        # the single-particle little-group table and the factorized profile,
        # bypassing boost_bipartite and reduced_spin_pair
        from relqinfo import kernels
        pk = singlet_packet(0.25, points=7)
        lam = boost(rapidity=0.8, axis=(0, 0, 1.0))
        rho = reduced_spin_pair(boost_bipartite(pk, lam)).matrix

        grid = pk.first[0]
        _, d1 = kernels.wigner_su2_batch(lam.matrix, grid.momenta, 1.0)
        chi = np.array([[0, 1], [-1, 0]], dtype=complex) / np.sqrt(2)
        # per-point profile mass of the spin-factorized Gaussian
        profile = gaussian_packet(PacketSpec(mass=1.0, spread=0.25, points=7))
        w = grid.weights * np.sum(np.abs(profile.amplitudes) ** 2, axis=1)
        g = np.einsum("iac,jbd,cd->ijab", d1, d1, chi)
        oracle = np.einsum("i,j,ijab,ijcd->abcd", w, w, g, g.conj()).reshape(4, 4)
        oracle /= np.trace(oracle).real
        assert np.abs(rho - oracle).max() < 1e-10

    def test_constructor_rejects_bad_blocks_and_grids(self):
        pk = singlet_packet(0.3, points=3)
        with pytest.raises(DimensionError):
            BipartitePacket(pk.first, pk.second, np.eye(3) / np.sqrt(3))
        with pytest.raises(ValidationError, match="norm"):
            BipartitePacket(pk.first, pk.second, 2 * pk.amplitudes)
        with pytest.raises(ValidationError, match="grid"):
            BipartitePacket((pk.first[0], small_packet(points=3)), pk.second,
                            pk.amplitudes)


def random_basis(rng, grid):
    """Two packets with random normalized spinor fields on grid's momenta."""
    fields = rng.normal(size=(2,) + grid.amplitudes.shape + (2,)) @ [1, 1j]
    return [wavepacket.SpinorPacket(grid.mass, grid.momenta, grid.weights,
                                    a / np.sqrt(grid.norm_squared(grid.weights, a)))
            for a in fields]


def dense_amplitudes(block, first, second):
    """The (N1, N2, 2, 2) array sum_bc block[b, c] first[b] (x) second[c]."""
    f, g = (np.stack([p.amplitudes for p in basis]) for basis in (first, second))
    return np.einsum("bc,bia,cjd->ijad", block, f, g)


class TestBipartiteProductForm:
    """Boost, reduce and norm of the 2x2 block over basis packets against the
    plain einsum formulas on the dense amplitude array."""

    @pytest.mark.parametrize("points", [3, 5])
    def test_matches_einsum_formulas(self, points):
        from relqinfo import kernels
        rng = np.random.default_rng(90 + points)
        first = random_basis(rng, small_packet(spread=0.3, points=points))
        second = random_basis(rng, small_packet(mass=1.5, points=points,
                                                mean_momentum=(0.1, 0.0, -0.2)))
        w1, w2 = first[0].weights, second[0].weights
        block = rng.normal(size=(2, 2, 2)) @ [1, 1j]
        a = dense_amplitudes(block, first, second)
        block /= np.sqrt(np.einsum("i,j,ijab,ijab->", w1, w2, a, a.conj()).real)
        pk = BipartitePacket(first, second, block)
        lam = compose(boost([0.3, -0.4, 0.5]), rotation(rng.normal(size=3), 1.3))
        out = boost_bipartite(pk, lam)

        _, d1 = kernels.wigner_su2_batch(lam.matrix, first[0].momenta, 1.0)
        _, d2 = kernels.wigner_su2_batch(lam.matrix, second[0].momenta, 1.5)
        a_in, a_out = (dense_amplitudes(p.amplitudes, p.first, p.second)
                       for p in (pk, out))
        amps = np.einsum("iac,jbd,ijcd->ijab", d1, d2, a_in)
        assert np.abs(a_out - amps).max() < 1e-12 * np.abs(amps).max()

        for p, a in ((pk, a_in), (out, a_out)):
            norm = np.einsum("i,j,ijab,ijab->", w1, w2, a, a.conj()).real
            assert abs(p.norm_squared() - norm) < 1e-12
            rho = np.einsum("i,j,ijab,ijcd->abcd", w1, w2, a, a.conj()).reshape(4, 4)
            assert np.abs(reduced_spin_pair(p).matrix - rho).max() < 1e-12


class TestWitnesses:
    def test_noncovariance_spectral_gap(self):
        report = noncovariance_witness(beta=0.8, spreads=(0.1, 0.3), points=11)
        assert report["rest_marginal_gap"] < 1e-12
        assert report["spectral_gap"] > 1e-4

    def test_cp_failure_via_inverse_map(self):
        report = cp_failure_witness(gamma=0.04, points=11)
        assert report["pe_before_map"] > report["pe_after_map"] + 1e-6
        assert report["violates_data_processing"]
