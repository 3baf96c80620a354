import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relqinfo import cli, kernels, lorentz, qstate, selfcheck, wavepacket
from relqinfo._errors import DimensionError, ValidationError
from relqinfo.lorentz import boost, compose, rotation
from relqinfo.wavepacket import (BipartitePacket, PacketSpec, SpinorPacket,
                                 beta_for_gamma, bipartite_boost_concurrence,
                                 boost_bipartite, boost_packet, cp_failure_witness,
                                 entropy_surface, gamma_parameter,
                                 gaussian_packet, noncovariance_witness,
                                 packet_error_scaling, reduced_spin,
                                 reduced_spin_pair, singlet_packet)
from test_kernels import expected_su2, unit_vectors


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
        for points in (10, 2.5, np.nan, np.inf, 0, -1, None, "x"):
            with pytest.raises(ValidationError, match="points"):
                PacketSpec(mass=1.0, spread=0.1, points=points)
        with pytest.raises(ValidationError):
            PacketSpec(mass=1.0, spread=0.1, extent=2.0)
        with pytest.raises(ValidationError):
            PacketSpec(mass=-1.0)

    def test_spec_stores_whole_float_points_as_int(self):
        spec = PacketSpec(mass=1.0, points=3.0)
        assert type(spec.points) is int and spec.points == 3
        assert len(gaussian_packet(spec).weights) == 27

    def test_constructor_rejects_each_bad_input(self):
        p = small_packet(points=3)
        m, w, a = p.momenta, p.weights, p.amplitudes
        off_shell = m.copy()
        off_shell[4, 0] += 1e-3
        bad_weights = w.copy()
        bad_weights[0] = 0.0
        negative_energy = np.array([[-np.sqrt(1.25), 0.5, 0.0, 0.0]])
        for args, error in [((m[:-1], w, a), DimensionError),
                            ((m, w, a[:, :1]), DimensionError),
                            ((off_shell, w, a), ValidationError),
                            ((negative_energy, [1.0], [[1.0, 0.0]]), ValidationError),
                            ((m, bad_weights, a), ValidationError),
                            ((m, w, 1.001 * a), ValidationError)]:
            with pytest.raises(error):
                SpinorPacket(1.0, *args)

    @pytest.mark.parametrize("points", [1, 3, 21])
    def test_cubic_grid_matches_meshgrid_oracle(self, points):
        spec = PacketSpec(mass=1.3, spread=0.2, points=points, mean_momentum=(0.3, -0.7, 1.1))
        # the default extent of 4 spreads: each axis spans +-0.8 about the mean
        axis = (np.linspace(-0.8, 0.8, points) if points > 1 else np.zeros(1)) + [[0.3], [-0.7], [1.1]]
        pvec = np.stack([g.ravel() for g in np.meshgrid(*axis, indexing="ij")], axis=1)
        e = np.sqrt(1.3 ** 2 + np.sum(pvec ** 2, axis=1))
        got = wavepacket._cubic_grid(spec)
        for a, b in zip(got, (np.column_stack([e, pvec]), pvec, e)):
            assert a.tobytes() == np.ascontiguousarray(b).tobytes()

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
        p2 = boost_packet(p, lorentz.LorentzTransform(np.eye(4)))
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
        u = expected_su2([0, 0, 1.0], 0.9)
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


class TestBoostCore:
    """_boost_shared: one kernel call for a stack of packets on one grid,
    the boosted packets built without the constructor's checks, and the
    two checks that kernel output can fail kept."""

    def test_off_shell_grid_is_rejected(self):
        p = small_packet(points=3)
        momenta = p.momenta.copy()
        momenta[4, 0] += 1e-3
        grid = SpinorPacket._checked(1.0, momenta, p.weights, p.amplitudes)
        with pytest.raises(ValidationError, match="off shell"):
            wavepacket._boost_shared([grid], boost([0.3, 0, 0]))

    def test_norm_breaking_stack_is_rejected(self):
        p = small_packet(points=3)
        loose = SpinorPacket._checked(1.0, p.momenta, p.weights, 1.001 * p.amplitudes)
        with pytest.raises(ValidationError, match="norm"):
            wavepacket._boost_shared([p, loose], boost([0.3, 0, 0]))

    @pytest.mark.parametrize("rapidity", [4.0, 8.0, 12.0])
    def test_marginals_match_separate_path_at_large_rapidity(self, rapidity):
        up, down = (small_packet(spread=0.3, spin_axis=axis,
                                 mean_momentum=(0.2, -0.1, 0.4))
                    for axis in ((1, 0, 0), (0, 0, -1)))
        lam = boost(rapidity=rapidity, axis=(0.3, -0.2, 0.9))
        packets = wavepacket._boost_shared([up, down], lam)
        [tau] = wavepacket._boosted_marginals(*wavepacket._bloch_weights([up, down]),
                                              lam.matrix[None])
        for pk, moments, boosted in zip((up, down), tau, packets):
            separate = boost_packet(pk, lam)
            assert np.abs(reduced_spin(separate).matrix - moments).max() <= MARGINAL_GAP
            assert np.array_equal(separate.amplitudes, boosted.amplitudes)
            assert not boosted.amplitudes.flags.writeable
            assert not boosted.momenta.flags.writeable


# |tau - oracle| per entry of a boosted spin marginal from _boosted_marginals,
# against the gram of _boost_shared's boosted amplitudes: both sum O(1) terms
# over the grid from the same half-rapidity rows (~1e-15 measured)
MARGINAL_GAP = 1e-14
# |tau - tau'| per entry for one boost in a stack and alone: the same terms,
# summed over blocks of another size
STACK_GAP = 1e-15
# the same for an error probability, half a trace norm of a marginal difference
PE_GAP = 2 * MARGINAL_GAP


class TestBoostedMarginals:
    """_boosted_marginals: the marginals from the Bloch weights and the
    quaternion moments, against the gram of the boosted amplitudes."""

    # 13**3 points exceed a block for every stack of 1-4 boosts (2048 points
    # for one) and leave a ragged last block
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3),
           points=st.sampled_from([1, 3, 13]),
           transforms=st.lists(st.tuples(
               st.floats(0.0, 30.0), unit_vectors, unit_vectors, unit_vectors,
               st.floats(0.0, np.pi), st.floats(0.0, np.pi)), min_size=1, max_size=4))
    def test_matches_gram_of_boosted_amplitudes(self, seed, k, points, transforms):
        rng = np.random.default_rng(seed)
        packets = random_basis(rng, small_packet(
            mass=rng.uniform(0.3, 3.0), spread=0.3, points=points,
            mean_momentum=tuple(rng.normal(scale=0.5, size=3))), k)
        grid, c = wavepacket._bloch_weights(packets)
        lams = [compose(rotation(axis1, angle1),
                        compose(boost(rapidity=chi, axis=boost_axis), rotation(axis2, angle2)))
                for chi, boost_axis, axis1, axis2, angle1, angle2 in transforms]
        taus = wavepacket._boosted_marginals(grid, c, np.stack([lam.matrix for lam in lams]))
        assert taus.shape == (len(lams), k, 2, 2)
        for lam, tau in zip(lams, taus):
            oracle = [wavepacket._gram(pk.weights, pk.amplitudes)
                      for pk in wavepacket._boost_shared(packets, lam)]
            assert np.abs(tau - oracle).max() <= MARGINAL_GAP
            alone = wavepacket._boosted_marginals(grid, c, lam.matrix[None])[0]
            assert np.abs(tau - alone).max() <= STACK_GAP

    def test_nan_amplitudes_are_rejected(self):
        p = small_packet(points=3)
        a = p.amplitudes.copy()
        a[4, 1] = np.nan
        bad = SpinorPacket._checked(1.0, p.momenta, p.weights, a)
        with pytest.raises(ValidationError, match="norm"):
            wavepacket._boosted_marginals(*wavepacket._bloch_weights([p, bad]),
                                          boost([0.3, 0, 0]).matrix[None])

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (2, 3)])
    def test_nan_lorentz_matrix_is_rejected(self, entry):
        # a boost entry, and one that only the rotation part reads, in the
        # middle of a stack of good boosts
        lams = np.stack([compose(rotation([0, 1.0, 0], 0.4), boost([v, 0, 0])).matrix
                         for v in (0.1, 0.3, 0.5)])
        lams[(1, *entry)] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="norm"):
            wavepacket._boosted_marginals(*wavepacket._bloch_weights([small_packet(points=3)]),
                                          lams)


class TestEntropySurface:
    def test_marginals_without_kernel_or_boosted_packets(self, monkeypatch):
        betas = [0.0, beta_for_gamma(0.1, 0.3, 1.0), beta_for_gamma(0.2, 0.3, 1.0)]
        calls = count_calls(monkeypatch)
        rows = entropy_surface(0.3, betas, [0.0, 1.0], points=5)
        # the rest packet is the only one built, through the constructor
        assert calls == {"kernel": 0, "boosted": 0, "post_init": 1}
        moved = [boost_packet(small_packet(spread=0.3, points=5), boost_at_angle(b, th))
                 for th in (0.0, 1.0) for b in betas[1:]]
        assert [s for _, g, s in rows if g > 0] == pytest.approx(
            [qstate.von_neumann_entropy(reduced_spin(pk)) for pk in moved], rel=0, abs=1e-12)

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


def boost_at_angle(beta, theta):
    """The boost by speed beta at angle theta from z, in the x-z plane."""
    return boost(beta * np.array([np.sin(theta), 0.0, np.cos(theta)]))


def separate_boosts(gammas, delta, theta, points):
    """Boosted and restored error probabilities of the +z/-z pair, each
    packet boosted on its own through boost_packet and reduced_spin."""
    up, down = (small_packet(spread=delta, spin_axis=axis, points=points)
                for axis in ((0, 0, 1), (0, 0, -1)))
    pes, restored = [], []
    for g in gammas:
        lam = boost_at_angle(beta_for_gamma(g, delta, 1.0), theta)
        bu, bd = boost_packet(up, lam), boost_packet(down, lam)
        pes.append(qstate.error_probability(reduced_spin(bu), reduced_spin(bd)))
        inv = lam.inverse()
        restored.append(qstate.error_probability(
            reduced_spin(boost_packet(bu, inv)), reduced_spin(boost_packet(bd, inv))))
    return up, down, pes, restored


def count_calls(monkeypatch) -> dict:
    """Counts kernel calls, _boost_shared calls (boosted packet stacks) and
    SpinorPacket.__post_init__ runs from now on."""
    calls = {"kernel": 0, "boosted": 0, "post_init": 0}
    kernel, shared = wavepacket.kernels.wigner_su2_batch, wavepacket._boost_shared
    post_init = SpinorPacket.__post_init__

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(wavepacket.kernels, "wigner_su2_batch", counting("kernel", kernel))
    monkeypatch.setattr(wavepacket, "_boost_shared", counting("boosted", shared))
    monkeypatch.setattr(SpinorPacket, "__post_init__", counting("post_init", post_init))
    return calls


SPEED = r"speed \|v\| = .* must be < 1"


class TestSweepStacks:
    """Each sweep checks its boosts as one stack before any grid work and
    sends them through one _boosted_marginals call."""

    @pytest.mark.parametrize("sweep, boosts", [
        (lambda: entropy_surface(0.3, [0.0, 0.2, 0.4, 0.6], [0.0, 0.7, 1.4], points=5), 9),
        (lambda: packet_error_scaling(0.1, [0.01, 0.02, 0.03, 0.04, 0.05], points=5), 5)])
    def test_one_rotation_and_one_transform_check_per_sweep(self, monkeypatch, sweep, boosts):
        calls = {"_rotation_su2": [], "_check_transforms": []}
        for name, sizes in calls.items():
            monkeypatch.setattr(lorentz, name, lambda L, core=getattr(lorentz, name),
                                sizes=sizes: sizes.append(len(L)) or core(L))
        sweep()
        assert calls == {"_rotation_su2": [boosts], "_check_transforms": [boosts]}

    def test_empty_stacks(self):
        # no gamma, or only the rest frame: the core runs on zero boosts
        assert packet_error_scaling(0.1, [], points=3) == {
            "gamma": [], "pe_rest": 0.0, "pe_boosted": [], "fitted_exponent": None}
        assert wavepacket._round_trip_errors(0.1, [], 1.0, 3)[1:] == ([], [])
        rest = qstate.von_neumann_entropy(reduced_spin(small_packet(spread=0.3, points=3)))
        rows = entropy_surface(0.3, [0.0], [0.0, 1.0], points=3)
        assert rows == [(0.0, 0.0, rest), (1.0, 0.0, rest)]

    @pytest.mark.parametrize("sweep", [
        lambda: entropy_surface(0.3, [0.2, 1.0], [0.5], points=5),
        # gamma = delta/m is the speed of light
        lambda: packet_error_scaling(0.1, [0.05, 0.1], points=5)])
    def test_luminal_speed_raises_before_grid_work(self, monkeypatch, sweep):
        grids = []
        monkeypatch.setattr(wavepacket, "_cubic_grid", grids.append)
        with pytest.raises(ValidationError, match=SPEED):
            sweep()
        assert grids == []


class TestErrorScaling:
    def test_quadratic_exponent_and_forward_report(self):
        report = packet_error_scaling(0.1, [0.0125, 0.025, 0.05], points=11)
        assert sorted(report) == ["fitted_exponent", "gamma", "pe_boosted", "pe_rest"]
        assert report["pe_rest"] < 1e-12
        assert 1.8 <= report["fitted_exponent"] <= 2.2

    def test_marginal_path_matches_separate_boosts(self, monkeypatch):
        """Forward marginals come from the moments, with no kernel call and
        no boosted packet: in packet_error_scaling, and in the round trips of
        cp_failure_witness and criterion 09, whose inverse marginals are
        taken on the one boosted pair each gamma keeps. Every value is
        within PE_GAP of boosting each packet on its own; the rest-frame
        error is exact."""
        gammas, delta, theta = [0.0125, 0.025, 0.05], 0.1, 1.1
        up, down, ref_pes, ref_restored = separate_boosts(gammas, delta, theta, 5)
        calls = count_calls(monkeypatch)
        report = packet_error_scaling(delta, gammas, theta=theta, points=5)
        assert calls == {"kernel": 0, "boosted": 0, "post_init": 1}
        assert report["pe_rest"] == qstate.error_probability(reduced_spin(up),
                                                             reduced_spin(down))
        assert report["pe_boosted"] == pytest.approx(ref_pes, rel=0, abs=PE_GAP)
        # the slope moves by the P_E gaps over P_E ~ 1e-5, times O(1)
        assert report["fitted_exponent"] == pytest.approx(float(
            np.polyfit(np.log(gammas), np.log(ref_pes), 1)[0]), rel=0, abs=1e-8)

        calls.update(kernel=0, boosted=0)
        for g, pe, back in zip(gammas, ref_pes, ref_restored):
            witness = cp_failure_witness(g, delta, theta=theta, points=5)
            assert (witness["pe_before_map"], witness["pe_after_map"]) == pytest.approx(
                (pe, back), rel=0, abs=PE_GAP)
        assert calls["kernel"] == calls["boosted"] == len(gammas)

        # criterion 09 boosts at right angles on its own gamma list
        _, _, pes, restored = separate_boosts(gammas, delta, np.pi / 2, 5)
        calls.update(kernel=0, boosted=0)
        measured = selfcheck._check_error_scaling({"scaling_points": 5})
        assert calls["kernel"] == calls["boosted"] == len(gammas)
        assert measured["fitted_exponent"] == pytest.approx(float(np.polyfit(
            np.log(gammas), np.log(pes), 1)[0]), rel=0, abs=1e-8)
        assert measured["max_pe_restored"] == pytest.approx(max(restored), rel=0, abs=PE_GAP)

    def test_cli_path_builds_no_boosted_packet_and_one_grid(self, monkeypatch, tmp_path):
        cfg = tmp_path / "pe.cfg"
        cfg.write_text("delta_over_m = 0.1\ngammas = 0.01, 0.02, 0.03, 0.04\n")
        calls = count_calls(monkeypatch)
        grids = []
        cubic_grid = wavepacket._cubic_grid
        monkeypatch.setattr(wavepacket, "_cubic_grid",
                            lambda spec: grids.append(spec) or cubic_grid(spec))
        assert cli.main(["--scenario", "pe-gamma-scaling", "--config", str(cfg),
                         "--grid.scaling_points", "5",
                         "--out", str(tmp_path / "pe.csv")]) == 0
        # the +z packet is the only one built through the constructor; the -z
        # packet shares its grid, built and checked once
        assert calls == {"kernel": 0, "boosted": 0, "post_init": 1}
        assert len(grids) == 1

    def test_spin_z_pair_matches_two_gaussian_packets(self):
        pair = wavepacket._spin_z_pair(0.15, 7)
        for s, pk in zip((1.0, -1.0), pair):
            ref = gaussian_packet(PacketSpec(mass=1.0, spread=0.15, points=7,
                                             spin_axis=(0.0, 0.0, s)))
            assert pk.mass == ref.mass
            for name in ("momenta", "weights", "amplitudes"):
                assert np.array_equal(getattr(pk, name), getattr(ref, name))
                assert not getattr(pk, name).flags.writeable

    def test_shared_boost_rejects_different_grids(self):
        p = small_packet()
        heavier = SpinorPacket(p.mass, p.momenta, 2 * p.weights,
                               p.amplitudes / np.sqrt(2))
        for other in (small_packet(spread=0.3), heavier):
            with pytest.raises(ValidationError, match="grid"):
                wavepacket._boost_shared([p, other], boost([0.3, 0, 0]))

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

    def test_concurrence_decreases_with_rapidity(self, monkeypatch):
        # the rows come from one marginal-core call over all rapidities: no
        # kernel call, no boosted packet and no bipartite packet
        calls = {}
        for owner, name in ((wavepacket, "_boosted_marginals"), (wavepacket, "_boost_shared"),
                            (kernels, "wigner_su2_batch"), (BipartitePacket, "__post_init__")):
            fn, calls[name] = getattr(owner, name), []
            monkeypatch.setattr(owner, name, lambda *a, fn=fn, log=calls[name]:
                                log.append(a) or fn(*a))
        chis = [0.0, 0.5, 1.0, 2.0]
        rows = bipartite_boost_concurrence(0.3, chis, points=7)
        assert [len(lams) for _, _, lams in calls.pop("_boosted_marginals")] == [4]
        assert calls == {"_boost_shared": [], "wigner_su2_batch": [], "__post_init__": []}
        monkeypatch.undo()
        cs = [c for _, c in rows]
        assert cs[0] > 0.999
        assert all(b <= a + 1e-12 for a, b in zip(cs, cs[1:]))
        # the same values as the boosted singlet packet's
        pk = singlet_packet(0.3, points=7)
        assert [chi for chi, _ in rows] == chis
        for chi, c in rows:
            rho = reduced_spin_pair(boost_bipartite(pk, boost(rapidity=chi, axis=(0, 0, 1.0))))
            assert abs(c - qstate.concurrence(rho)) < 1e-14

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(block=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
           spreads=st.tuples(st.floats(0.05, 0.5), st.floats(0.05, 0.5)),
           axis=unit_vectors, chi=st.floats(-30.0, 30.0))
    def test_transfer_matrices_match_the_boosted_packet(self, block, spreads, axis, chi):
        # (E_f (x) E_g) of any spin block's state, from the two profiles'
        # transfer matrices, against boosting the bipartite packet itself
        chi_block = np.array(block[:4]).reshape(2, 2) + 1j * np.array(block[4:]).reshape(2, 2)
        norm = np.sqrt(np.sum(np.abs(chi_block) ** 2))
        assume(norm > 1e-3)
        chi_block /= norm
        pairs = [wavepacket._spin_z_pair(spread, 5) for spread in spreads]
        lam = boost(rapidity=chi, axis=axis)
        want = reduced_spin_pair(boost_bipartite(BipartitePacket(*pairs, chi_block), lam))

        # a two-qubit state is 1/4 sum_ab T_ab sigma_a (x) sigma_b, and the
        # channels map its correlations T to R1 T R2^T
        v = chi_block.ravel()
        pauli_pairs = [np.kron(a, b) for a in lorentz._SIGMAS4 for b in lorentz._SIGMAS4]
        T = np.array([(v.conj() @ p @ v).real for p in pauli_pairs]).reshape(4, 4)
        [R1], [R2] = (wavepacket._transfer_matrices(pair[0], lam.matrix[None]) for pair in pairs)
        got = np.tensordot(R1 @ T @ R2.T, np.reshape(pauli_pairs, (4, 4, 4, 4)), 2) / 4
        assert np.abs(got - want.matrix).max() < 1e-14

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


def random_basis(rng, grid, k=2):
    """k packets with random normalized spinor fields on grid's momenta."""
    fields = rng.normal(size=(k,) + grid.amplitudes.shape + (2,)) @ [1, 1j]
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
