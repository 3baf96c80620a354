import numpy as np
import pytest

from relqinfo import channel, qstate
from relqinfo._errors import DimensionError, ValidationError
from relqinfo.channel import (BipartiteOperation, KrausSet, apply, bell_state,
                              chsh_optimize, chsh_value, choi_and_cp_check,
                              cluster_chsh_bound, complete_bell_pvm,
                              conditioned_basis_protocol, conditioned_basis_pvm,
                              incomplete_bell_pvm, is_semicausal,
                              kraus_from_unitary, locc_outcome_to_global,
                              povm_of, settings_to_observables,
                              simulate_locc_protocol, simulate_teleportation,
                              teleport_identity_residual)
from relqinfo.qstate import DensityMatrix, PureState

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestKrausFromUnitary:
    def test_identity_with_trivial_apparatus(self):
        ks = kraus_from_unitary(np.eye(2, dtype=complex),
                                PureState(np.array([1.0])),
                                [[np.array([1.0])]])
        assert len(ks.ops) == 1
        assert np.abs(ks.ops[0][0] - np.eye(2)).max() < 1e-14

    def test_cnot_premeasurement(self):
        ks = kraus_from_unitary(CNOT, PureState(np.array([1.0, 0])),
                                [[np.array([1.0, 0])], [np.array([0, 1.0])]])
        assert np.abs(ks.ops[0][0] - np.diag([1.0, 0])).max() < 1e-14
        assert np.abs(ks.ops[1][0] - np.diag([0, 1.0])).max() < 1e-14

    def test_apparatus_hadamard_is_identity_channel(self):
        u = np.kron(np.eye(2, dtype=complex), HAD)
        ks = kraus_from_unitary(u, PureState(np.array([1.0, 0])),
                                [[np.array([1.0, 0]), np.array([0, 1.0])]])
        assert len(ks.ops) == 1
        c1, cp, _ = choi_and_cp_check(ks)
        c2, _, _ = choi_and_cp_check(lambda r: r, dim_in=2)
        assert cp
        assert np.abs(c1.matrix - c2.matrix).max() < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            kraus_from_unitary(np.eye(2) * 2.0, PureState(np.array([1.0])),
                               [[np.array([1.0])]])

    def test_non_orthogonal_partition_rejected(self):
        with pytest.raises(ValidationError):
            kraus_from_unitary(CNOT, PureState(np.array([1.0, 0])),
                               [[np.array([1.0, 0])],
                                [np.array([1.0, 1.0]) / np.sqrt(2)]])


class TestApplyAndPovm:
    def test_z_measurement_on_plus(self):
        pvm = KrausSet.from_projectors([np.diag([1.0, 0]), np.diag([0, 1.0])])
        plus = DensityMatrix.from_pure(np.array([1, 1]) / np.sqrt(2))
        out = apply(pvm, plus)
        assert abs(out[0][0] - 0.5) < 1e-12 and abs(out[1][0] - 0.5) < 1e-12
        assert np.abs(out[0][1].matrix - np.diag([1.0, 0])).max() < 1e-12
        assert np.abs(out[1][1].matrix - np.diag([0, 1.0])).max() < 1e-12

    def test_incomplete_bell_on_01(self):
        T = incomplete_bell_pvm()
        rho = DensityMatrix.from_pure(np.kron([1, 0], [0, 1]).astype(complex))
        out = apply(T.kraus, rho)
        assert out[0][0] < 1e-12 and out[0][1] is None
        assert abs(out[1][0] - 1.0) < 1e-12

    def test_incomplete_bell_on_00(self):
        T = incomplete_bell_pvm()
        rho = DensityMatrix.from_pure(np.kron([1, 0], [1, 0]).astype(complex))
        out = apply(T.kraus, rho)
        assert abs(out[0][0] - 0.5) < 1e-12 and abs(out[1][0] - 0.5) < 1e-12
        for _, post in out:
            assert qstate.concurrence(post) > 1.0 - 1e-10

    def test_probability_conservation(self):
        rng = np.random.default_rng(21)
        T = conditioned_basis_pvm()
        for _ in range(50):
            rho = qstate.random_density_matrix(4, rng)
            probs = [p for p, _ in apply(T.kraus, rho)]
            assert abs(sum(probs) - 1.0) < 1e-12

    def test_povm_of_projective_set(self):
        pvm = KrausSet.from_projectors([np.diag([1.0, 0]), np.diag([0, 1.0])])
        povm = povm_of(pvm)
        assert np.abs(povm.elements[0] - np.diag([1.0, 0])).max() < 1e-14

    def test_povm_of_unitary_mixture(self):
        sx = qstate.SIGMA_X
        ks = KrausSet.single([np.eye(2) / np.sqrt(2), sx / np.sqrt(2)])
        povm = povm_of(ks)
        assert np.abs(povm.elements[0] - np.eye(2)).max() < 1e-12

    def test_povm_of_conditioned_basis_projectors(self):
        ks = conditioned_basis_pvm().kraus
        povm = povm_of(ks)
        for e in povm.elements:
            ev = np.linalg.eigvalsh(e)
            assert abs(ev.max() - 1.0) < 1e-12 and ev[:-1].max() < 1e-12

    def test_povm_completeness_over_random_kraus_sets(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            u = qstate.haar_unitary(8, rng)
            ks = kraus_from_unitary(
                u.reshape(8, 8), PureState(np.eye(4)[0].astype(complex)),
                [[np.eye(4)[j].astype(complex)] for j in range(4)])
            total = sum(e for e in povm_of(ks).elements)
            assert np.abs(total - np.eye(2)).max() < 1e-12


class TestChoi:
    def test_identity_channel_choi(self):
        choi, cp, _ = choi_and_cp_check(lambda r: r, dim_in=2)
        phip = bell_state("phi+")
        assert cp
        assert np.abs(choi.matrix - 2.0 * np.outer(phip, phip.conj())).max() < 1e-12
        assert abs(np.trace(choi.matrix).real - 2.0) < 1e-12

    def test_transpose_map_not_cp(self):
        _, cp, min_eig = choi_and_cp_check(lambda r: r.T, dim_in=2)
        assert not cp
        assert abs(min_eig + 0.5) < 1e-10

    def test_depolarizing_channel_cp(self):
        p = 0.3
        ops = [np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
               np.sqrt(p / 4) * qstate.SIGMA_X,
               np.sqrt(p / 4) * qstate.SIGMA_Y,
               np.sqrt(p / 4) * qstate.SIGMA_Z]
        _, cp, min_eig = choi_and_cp_check(KrausSet.single(ops))
        assert cp and min_eig > -1e-12

    def test_non_finite_map_output_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            choi_and_cp_check(lambda r: r * np.nan, dim_in=2)

    @pytest.mark.parametrize("fn", [lambda r: np.ones((3, 2)), lambda r: np.ones(3),
                                    lambda r: np.eye(2) if r[0, 0] else np.eye(3)])
    def test_map_output_not_square_of_one_size_rejected(self, fn):
        with pytest.raises(DimensionError, match="square matrices"):
            choi_and_cp_check(fn, dim_in=2)

    def test_choi_matrix_of_the_wrong_shape_rejected(self):
        with pytest.raises(DimensionError, match="shape"):
            channel.ChoiMatrix(np.ones((6, 4)), dim_in=2, dim_out=3)

    def test_all_premeasurement_channels_certify_cp(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            u = qstate.haar_unitary(4, rng)
            ks = kraus_from_unitary(u, PureState(np.array([1.0, 0])),
                                    [[np.array([1.0, 0])], [np.array([0, 1.0])]])
            _, cp, _ = choi_and_cp_check(ks)
            assert cp


    def test_stacked_core_matches_per_draw_certificates(self):
        # criterion 06's route: one stack of Kraus sets and Choi matrices
        # gives each draw's least eigenvalue from the scalar route, and one
        # non-unitary matrix in the stack is still rejected
        init, part = PureState(np.array([1.0, 0])), [[np.array([1.0, 0])], [np.array([0, 1.0])]]
        us = qstate._haar_unitaries(25, 4, np.random.default_rng(24))
        kraus = channel._kraus_from_unitaries(us, init, part)
        _, min_eigs = channel._choi_min_eigs(channel._kraus_choi(kraus))
        per_draw = [choi_and_cp_check(kraus_from_unitary(u, init, part)) for u in us]
        assert np.array_equal(min_eigs, [eig for _, _, eig in per_draw])
        assert all(cp for _, cp, _ in per_draw) and min_eigs.min() > -1e-14
        # a Kraus set's Choi matrix is the image of each |i><j|, as for a map
        ks = kraus_from_unitary(us[0], init, part)
        by_map, _, _ = choi_and_cp_check(lambda r: sum(channel._outcome_states(ks.ops, r)),
                                         dim_in=2)
        assert np.abs(choi_and_cp_check(ks)[0].matrix - by_map.matrix).max() < 1e-15
        us[11] *= 1.01
        with pytest.raises(ValidationError, match="not unitary"):
            channel._kraus_from_unitaries(us, init, part)


class TestNoSignalling:
    def test_frame_order_independence(self):
        # commuting embedded sets applied in either order agree outcome by
        # outcome on the unnormalized branch states
        rng = np.random.default_rng(26)
        a = KrausSet.from_projectors([np.diag([1.0, 0]), np.diag([0, 1.0])])
        ub = qstate.haar_unitary(2, rng)
        b = KrausSet.from_projectors([ub @ np.diag([1.0, 0]) @ ub.conj().T,
                                      ub @ np.diag([0, 1.0]) @ ub.conj().T])
        eye = np.eye(2, dtype=complex)
        for _ in range(20):
            rho = qstate.random_density_matrix(4, rng).matrix
            for am in a.ops:
                for bm in b.ops:
                    ae = np.kron(am[0], eye)
                    be = np.kron(eye, bm[0])
                    ab = ae @ be @ rho @ be.conj().T @ ae.conj().T
                    ba = be @ ae @ rho @ ae.conj().T @ be.conj().T
                    assert np.abs(ab - ba).max() < 1e-12


class TestSemicausality:
    def test_complete_bell_is_causal(self):
        T = complete_bell_pvm()
        for direction in ("B->A", "A->B"):
            v = is_semicausal(T, direction, haar_probes=50, seed=31)
            assert v.semicausal

    def test_incomplete_bell_witness(self):
        v = is_semicausal(incomplete_bell_pvm(), "B->A", haar_probes=50, seed=31)
        assert not v.semicausal
        assert abs(v.advantage - 0.75) < 1e-9
        assert v.witness is not None

    def test_conditioned_basis_pvm_is_semicausal_b_to_a(self):
        v = is_semicausal(conditioned_basis_pvm(), "B->A", haar_probes=100, seed=31)
        assert v.semicausal

    def test_conditioned_basis_pvm_signals_a_to_b(self):
        v = is_semicausal(conditioned_basis_pvm(), "A->B", haar_probes=50, seed=31)
        assert not v.semicausal

    @pytest.mark.parametrize("probe", [np.full(4, np.nan), 2.0 * np.eye(4)[0]])
    def test_non_finite_or_unnormalized_probe_rejected(self, probe):
        with pytest.raises(ValidationError, match="probe state"):
            is_semicausal(complete_bell_pvm(), probe_states=[probe], haar_probes=2)

    def test_probe_of_the_wrong_length_rejected(self):
        with pytest.raises(DimensionError, match="4 amplitudes"):
            is_semicausal(complete_bell_pvm(), probe_states=[np.ones(2) / np.sqrt(2)],
                          haar_probes=2)

    def test_report_shape(self):
        v = is_semicausal(incomplete_bell_pvm(), "B->A", haar_probes=10, seed=31)
        report = v.to_report("incomplete-bell", 1e-9)
        assert report["advantage"] == v.advantage
        assert report["direction"] == "B->A"
        assert report["witness_pre_op"] is not None


def receiver_marginals_loop(T, direction, rng, haar_probes):
    """Independent oracle for channel._receiver_marginals with the default
    probe states, drawn from rng in the same order: for each (state,
    pre-op) pair, embed the pre-op by kron, run the Kraus sum on the
    density matrix and trace out the sender. Returns (names, (S, P, d_r,
    d_r) marginals)."""
    da, db = T.dims
    d = da * db
    sender_dim = db if direction == "B->A" else da
    states = [np.eye(d, dtype=complex)[i] for i in range(min(d, 4))]
    if (da, db) == (2, 2):
        states += [bell_state(n) for n in ("phi+", "phi-", "psi+", "psi-")]
    states += [qstate.haar_state(d, rng) for _ in range(8)]
    pre_ops = [(n, u) for n, u in channel._PAULI_FAMILY if u.shape[0] == sender_dim]
    if not pre_ops:
        pre_ops = [("identity", np.eye(sender_dim, dtype=complex))]
    pre_ops += [(f"haar_{i}", qstate.haar_unitary(sender_dim, rng))
                for i in range(haar_probes)]
    out = []
    for v in states:
        row = []
        for _, u in pre_ops:
            ue = (np.kron(np.eye(da), u) if direction == "B->A"
                  else np.kron(u, np.eye(db)))
            rho = ue @ np.outer(v, v.conj()) @ ue.conj().T
            rho = sum(a @ rho @ a.conj().T for branch in T.kraus.ops for a in branch)
            t = rho.reshape(da, db, da, db)
            row.append(np.einsum("abcb->ac", t) if direction == "B->A"
                       else np.einsum("abad->bd", t))
        out.append(row)
    return [n for n, _ in pre_ops], np.array(out)


def qubit_qutrit_operation():
    """A two-outcome instrument on C^2 (x) C^3 with two Kraus matrices in
    its first outcome: blocks of a Haar isometry C^6 -> C^18."""
    iso = qstate.haar_unitary(18, np.random.default_rng(5))[:, :6]
    a0, a1, a2 = iso[:6], iso[6:12], iso[12:]
    return BipartiteOperation(dims=(2, 3),
                              kraus=KrausSet(dim_in=6, dim_out=6, ops=((a0, a1), (a2,))))


class TestStackedProbes:
    @pytest.mark.parametrize("make", [complete_bell_pvm, incomplete_bell_pvm,
                                      qubit_qutrit_operation])
    @pytest.mark.parametrize("direction", ["B->A", "A->B"])
    def test_marginals_match_per_pair_loop(self, make, direction):
        # the (2, 3) operation's B->A sender is a qutrit: identity-only pre-ops
        T = make()
        names, stacked = channel._receiver_marginals(
            T, direction, np.random.default_rng(11), 7)
        ref_names, ref = receiver_marginals_loop(
            T, direction, np.random.default_rng(11), 7)
        assert names == ref_names
        assert stacked.shape == ref.shape
        assert np.abs(stacked - ref).max() < 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 31, 77, 20240901])
    @pytest.mark.parametrize("probes", [10, 50, 200])
    @pytest.mark.parametrize("make, direction", [(incomplete_bell_pvm, "B->A"),
                                                 (incomplete_bell_pvm, "A->B"),
                                                 (conditioned_basis_pvm, "A->B")])
    def test_witness_is_first_pair_beating_the_best(self, seed, probes, make,
                                                    direction):
        # the values a state-major, pre-op-minor per-pair scan gives: pauli_x
        # on probe 0 reaches 0.75 first, and later ties do not replace it
        v = is_semicausal(make(), direction, haar_probes=probes, seed=seed)
        assert v.advantage == 0.75
        assert v.witness == {"pre_op": "pauli_x", "state": "probe_0",
                             "versus": "identity"}


class TestLocc:
    def test_zero_plus_input(self):
        rho = DensityMatrix.from_pure(
            np.kron([1, 0], [1, 1] / np.sqrt(2)).astype(complex))
        dist = simulate_locc_protocol(conditioned_basis_protocol(), rho)
        probs = {locc_outcome_to_global(k): v for k, v in dist.items()
                 if len(k) == 2}
        assert abs(probs.get(0, 0.0) - 0.5) < 1e-12
        assert abs(probs.get(1, 0.0) - 0.5) < 1e-12

    def test_one_plus_input(self):
        rho = DensityMatrix.from_pure(
            np.kron([0, 1], [1, 1] / np.sqrt(2)).astype(complex))
        dist = simulate_locc_protocol(conditioned_basis_protocol(), rho)
        probs = {locc_outcome_to_global(k): v for k, v in dist.items()
                 if len(k) == 2}
        assert abs(probs.get(2, 0.0) - 1.0) < 1e-12

    def test_matches_global_pvm_on_random_inputs(self):
        rng = np.random.default_rng(27)
        T = conditioned_basis_pvm()
        for _ in range(50):
            v = qstate.haar_state(4, rng)
            rho = DensityMatrix.from_pure(v)
            global_probs = povm_of(T.kraus).probabilities(rho)
            dist = simulate_locc_protocol(conditioned_basis_protocol(), rho)
            locc_probs = np.zeros(4)
            for k, p in dist.items():
                if len(k) == 2:
                    locc_probs[locc_outcome_to_global(k)] += p
            assert 0.5 * np.abs(global_probs - locc_probs).sum() < 1e-12

    @pytest.mark.parametrize("n", [1, 7])
    def test_stack_matches_single_states(self, n):
        rng = np.random.default_rng(28)
        rhos = np.array([qstate.random_density_matrix(4, rng).matrix for _ in range(n)])
        povm = povm_of(conditioned_basis_pvm().kraus)
        stacked = simulate_locc_protocol(conditioned_basis_protocol(), rhos)
        probs = povm.probabilities(rhos)
        assert probs.shape == (n, 4)
        for s, rho in enumerate(rhos):
            single = simulate_locc_protocol(conditioned_basis_protocol(), rho)
            assert set(single) == set(stacked) == {(0, 0), (0, 1), (1, 0), (1, 1)}
            assert all(abs(stacked[k][s] - p) <= 1e-15 for k, p in single.items())
            assert np.abs(probs[s] - povm.probabilities(rho)).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 50])
    def test_chooser_runs_once_per_history(self, n):
        calls = {"A": [], "B": []}
        steps = []
        for step in conditioned_basis_protocol():
            def chooser(history, step=step):
                calls[step.party].append(history)
                return step.instrument(history)
            steps.append(channel.LoccStep(step.party, chooser))
        simulate_locc_protocol(steps, np.tile(np.eye(4) / 4, (n, 1, 1)))
        assert calls == {"A": [()], "B": [(0,), (1,)]}

    def test_unknown_party_rejected(self):
        step = conditioned_basis_protocol()[0]
        with pytest.raises(ValidationError, match="unknown party"):
            simulate_locc_protocol([channel.LoccStep("C", step.instrument)],
                                   np.eye(4) / 4)

    def test_wrong_local_dimension_rejected(self):
        qutrit = KrausSet.from_projectors([np.diag(e) for e in np.eye(3)])
        steps = [channel.LoccStep("A", lambda _history: qutrit)]
        with pytest.raises(ValidationError, match="local dimension"):
            simulate_locc_protocol(steps, np.eye(4) / 4)

    @pytest.mark.parametrize("rho", [np.eye(2) / 2, np.eye(8) / 8,
                                     np.ones((2, 3, 4, 4)) / 4])
    def test_state_off_the_bipartite_space_rejected(self, rho):
        with pytest.raises(DimensionError):
            simulate_locc_protocol(conditioned_basis_protocol(), rho)


class TestTeleportation:
    def test_basis_input(self):
        assert teleport_identity_residual(1.0, 0.0) < 1e-12

    def test_complex_input(self):
        assert teleport_identity_residual(1 / np.sqrt(2), 1j / np.sqrt(2)) < 1e-12

    def test_haar_sweep(self):
        # each draw through the scalar functions and all at once through the
        # core: every row is the scalar value, every branch fires with
        # probability 1/4 and its corrected state is the input
        rng = np.random.default_rng(28)
        V = np.array([qstate.haar_state(2, rng) for _ in range(100)])
        residuals, probabilities, fidelities = channel._teleport_batch(V)
        for v, res, probs, fids in zip(V, residuals, probabilities, fidelities):
            sim = simulate_teleportation(v[0], v[1])
            assert abs(teleport_identity_residual(v[0], v[1]) - res) <= 1e-15
            assert abs(sim["min_fidelity"] - fids.min()) <= 1e-15
            assert np.abs(np.array(sim["probabilities"]) - probs).max() <= 1e-15
        assert residuals.max() < 1e-12
        assert np.abs(probabilities - 0.25).max() < 1e-15
        assert np.abs(fidelities - 1.0).max() < 1e-14

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            teleport_identity_residual(1.0, 1.0)

    @pytest.mark.parametrize("row", [[1.0, 1.0], [0.0, 0.0], [np.nan, 0.0]])
    def test_unnormalized_row_in_stack_rejected(self, row):
        rng = np.random.default_rng(3)
        V = np.array([qstate.haar_state(2, rng) for _ in range(5)])
        V[2] = row
        with pytest.raises(ValidationError, match="normalized"):
            channel._teleport_batch(V)


def polar_grid(n_theta: int, n_phi: int, center=None, spread=None) -> tuple:
    """Unit vectors (n,3) and their (theta, phi) pairs (n,2), theta-major."""
    if center is None:
        thetas = np.linspace(0.0, np.pi, n_theta)
        phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    else:
        t0, p0 = center
        thetas = np.linspace(max(0.0, t0 - spread), min(np.pi, t0 + spread), n_theta)
        phis = np.linspace(p0 - spread, p0 + spread, n_phi)
    t, p = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    vecs = np.column_stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
    return vecs, np.column_stack([t, p])


def chsh_grid(T: np.ndarray) -> tuple:
    """Independent oracle for chsh_optimize on the correlation matrix T:
    deterministic polar grid over the second party's settings (17 x 33, two
    refinement levels), the first party's response computed analytically.
    Returns (zeta_max, settings dict)."""
    def norm_T(b):
        # |T b| per pair as a stack of matrix-vector and dot products, the
        # same BLAS calls (and bits) as T @ b and np.linalg.norm on one pair
        x = T @ b[..., None]
        return np.sqrt((np.swapaxes(x, -1, -2) @ x)[..., 0, 0])

    def best_pair(g1, g2):
        # optimal first-party response: a_i along T(b1 +- b2); the first
        # maximum in row-major order, as a scan over (b1, b2) would keep
        b1, b2 = g1[0][:, None, :], g2[0][None, :, :]
        z = 0.5 * (norm_T(b1 + b2) + norm_T(b1 - b2))
        i, j = np.unravel_index(np.argmax(z), z.shape)
        return z[i, j], tuple(g1[1][i]), tuple(g2[1][j])

    grid = polar_grid(17, 33)
    best = best_pair(grid, grid)
    spread = np.pi / 16
    for _ in range(2):
        cand = best_pair(polar_grid(9, 9, center=best[1], spread=spread),
                         polar_grid(9, 9, center=best[2], spread=spread))
        if cand[0] > best[0]:
            best = cand
        spread /= 8
    z, ang1, ang2 = best
    b1 = np.array([np.sin(ang1[0]) * np.cos(ang1[1]),
                   np.sin(ang1[0]) * np.sin(ang1[1]), np.cos(ang1[0])])
    b2 = np.array([np.sin(ang2[0]) * np.cos(ang2[1]),
                   np.sin(ang2[0]) * np.sin(ang2[1]), np.cos(ang2[0])])
    tb1, tb2 = T @ (b1 + b2), T @ (b1 - b2)
    a1 = tb1 / np.linalg.norm(tb1) if np.linalg.norm(tb1) > 1e-14 else np.array([0, 0, 1.0])
    a2 = tb2 / np.linalg.norm(tb2) if np.linalg.norm(tb2) > 1e-14 else np.array([1.0, 0, 0])
    return float(z), {"a1": a1, "a2": a2, "b1": b1, "b2": b2}


def correlation_by_kron(m: np.ndarray) -> np.ndarray:
    """Per-pair oracle for channel._correlation_matrix on one state:
    T_ij = tr(m sigma_i (x) sigma_j) from nine kron products."""
    sigmas = (qstate.SIGMA_X, qstate.SIGMA_Y, qstate.SIGMA_Z)
    return np.array([[np.trace(m @ np.kron(si, sj)).real for sj in sigmas]
                     for si in sigmas])


def chsh_states(rng) -> np.ndarray:
    """A stack of two-qubit states holding the singlet, the maximally mixed
    state (T = 0: both fallback settings), a product state (rank-1 T) and
    random mixed and pure states."""
    singlet = bell_state("psi-")
    product = np.kron(qstate.haar_state(2, rng), qstate.haar_state(2, rng))
    states = [np.outer(singlet, singlet.conj()), np.eye(4, dtype=complex) / 4,
              np.outer(product, product.conj())]
    states += [qstate.random_density_matrix(4, rng).matrix for _ in range(20)]
    states += [DensityMatrix.from_pure(qstate.haar_state(4, rng)).matrix
               for _ in range(20)]
    return np.array(states)


class TestChsh:
    def test_correlation_matrix_against_kron_loop(self):
        R = chsh_states(np.random.default_rng(41))
        T = channel._correlation_matrix(R)
        oracle = np.array([correlation_by_kron(m) for m in R])
        assert np.abs(T - oracle).max() <= 1e-15
        # any leading shape: a (14, 3) grid of states gives the same matrices
        grid = channel._correlation_matrix(R[:42].reshape(14, 3, 4, 4))
        assert np.array_equal(grid.reshape(42, 3, 3), T[:42])

    def test_stacked_optimizer_matches_scalar_rows(self):
        R = chsh_states(np.random.default_rng(43))
        zeta, settings = channel._chsh_optimize_batch(R)
        for i, m in enumerate(R):
            z, st = chsh_optimize(m)
            assert z == zeta[i]
            for key in ("a1", "a2", "b1", "b2"):
                assert np.abs(st[key] - settings[key][i]).max() <= 1e-15
        # the maximally mixed state takes both fallbacks; the product's T has
        # rank 1, so only a2 falls back
        assert np.array_equal(settings["a1"][1], [0.0, 0.0, 1.0])
        assert np.array_equal(settings["a2"][1], [1.0, 0.0, 0.0])
        assert zeta[1] == 0.0
        assert np.array_equal(settings["a2"][2], [1.0, 0.0, 0.0])
        assert abs(zeta[2] - 1.0) < 1e-12

    def test_bloch_values_match_chsh_value(self):
        rng = np.random.default_rng(47)
        R = chsh_states(rng)
        units = []
        for _ in range(4):
            v = rng.normal(size=(len(R), 3))
            units.append(v / np.linalg.norm(v, axis=1, keepdims=True))
        zetas = channel._chsh_bloch(channel._correlation_matrix(R), *units)
        for i, m in enumerate(R):
            obs = settings_to_observables(dict(zip(("a1", "a2", "b1", "b2"),
                                                   (u[i] for u in units))))
            assert abs(chsh_value(m, *obs) - zetas[i]) < 1e-14

    def test_singlet_optimal_settings(self):
        singlet = DensityMatrix.from_pure(bell_state("psi-"))
        zeta, settings = chsh_optimize(singlet)
        assert abs(zeta - np.sqrt(2)) < 1e-9
        obs = settings_to_observables(settings)
        assert abs(chsh_value(singlet, *obs) - np.sqrt(2)) < 1e-9

    def test_product_state_classical_bound(self):
        rho = DensityMatrix.from_pure(np.kron([1, 0], [1, 0]).astype(complex))
        zeta, settings = chsh_optimize(rho)
        assert zeta <= 1.0 + 1e-9
        zg, _ = chsh_grid(channel._correlation_matrix(rho.matrix))
        assert abs(zeta - zg) < 1e-3

    def test_maximally_mixed_is_uncorrelated(self):
        rho = DensityMatrix.maximally_mixed(4)
        a = qstate.SIGMA_Z
        b = qstate.SIGMA_X
        assert abs(chsh_value(rho, a, a, b, b)) < 1e-12

    def test_werner_against_grid_oracle(self):
        p = 0.5
        psim = bell_state("psi-")
        rho = DensityMatrix(p * np.outer(psim, psim.conj()) + (1 - p) * np.eye(4) / 4)
        zeta, _ = chsh_optimize(rho)
        z_grid, _ = chsh_grid(channel._correlation_matrix(rho.matrix))
        assert abs(zeta - z_grid) < 1e-3
        assert abs(zeta - 0.7071067811865476) < 1e-9

    def test_grid_maximum_against_per_pair_formula(self):
        # the per-pair loop the grid search replaces, on a sample of pairs:
        # the returned value is that formula's, bit for bit, at the returned
        # settings, and no coarse-grid pair beats it
        rng = np.random.default_rng(31)
        rho = DensityMatrix.from_pure(qstate.haar_state(4, rng))
        T = channel._correlation_matrix(rho.matrix)
        z, st = chsh_grid(T)

        def zeta_of(b1, b2):
            return 0.5 * (np.linalg.norm(T @ (b1 + b2)) + np.linalg.norm(T @ (b1 - b2)))

        assert z == zeta_of(st["b1"], st["b2"])
        assert abs(chsh_value(rho, *settings_to_observables(st)) - z) < 1e-12
        vecs, _ = polar_grid(17, 33)
        for i, j in rng.integers(0, len(vecs), size=(300, 2)):
            assert zeta_of(vecs[i], vecs[j]) <= z

    def test_observable_spectrum_enforced(self):
        rho = DensityMatrix.maximally_mixed(4)
        with pytest.raises(ValidationError):
            chsh_value(rho, 2 * qstate.SIGMA_Z, qstate.SIGMA_Z, qstate.SIGMA_X,
                       qstate.SIGMA_X)

    def test_tsirelson_bound_over_random_draws(self):
        rng = np.random.default_rng(29)
        bound = np.sqrt(2) + 1e-9
        for _ in range(2000):
            rho = qstate.random_density_matrix(4, rng)
            zeta, _ = chsh_optimize(rho)
            assert zeta <= bound


class TestClusterBound:
    def test_zero_separation(self):
        assert abs(cluster_chsh_bound(0.0, 0.0) - 5.0) < 1e-15

    def test_large_separation_limit(self):
        assert abs(cluster_chsh_bound(1.0, 100.0) - 1.0) < 1e-12

    def test_log4_crossing(self):
        assert abs(cluster_chsh_bound(1.0, np.log(4.0)) - 2.0) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            cluster_chsh_bound(-1.0, 1.0)


class TestBipartiteOperation:
    def test_dimension_validation(self):
        with pytest.raises(Exception):
            BipartiteOperation(dims=(2, 3), kraus=complete_bell_pvm().kraus)


class TestSubnormalizedInstruments:
    def test_incomplete_set_needs_the_flag(self):
        half = [np.diag([1.0, 0.0]).astype(complex)]
        with pytest.raises(ValidationError):
            KrausSet(dim_in=2, dim_out=2, ops=(tuple(half),))
        ks = KrausSet(dim_in=2, dim_out=2, ops=(tuple(half),),
                      subnormalized=True)
        assert ks.subnormalized

    def test_overcomplete_rejected_even_with_flag(self):
        with pytest.raises(ValidationError):
            KrausSet(dim_in=2, dim_out=2,
                     ops=((np.eye(2, dtype=complex) * 1.2,),),
                     subnormalized=True)
