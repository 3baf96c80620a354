from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relqinfo import channel, horizon, lorentz, photon, qstate, wavepacket
from relqinfo.qstate import (SIGMA_X, SIGMA_Z, DensityMatrix, DimensionError,
                             PureState, SubsystemSplit, ValidationError,
                             concurrence, error_probability, partial_trace,
                             von_neumann_entropy)


def bell_phi_plus():
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


class TestDensityMatrix:
    def test_validation_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_validation_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2))

    def test_validation_rejects_negative_eigenvalues(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_from_pure_and_eigenvalues(self):
        rho = DensityMatrix.from_pure(bell_phi_plus())
        assert np.abs(np.linalg.eigvalsh(rho.matrix) - [0, 0, 0, 1]).max() < 1e-12

    def test_random_states_are_one_ginibre_sampler(self):
        """n normalized G G†, every real part of G drawn before the imaginary
        ones; random_density_matrix is the batch of one."""
        rhos = qstate._random_density_batch(5, 3, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        g = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        for rho, gi in zip(rhos, g):
            m = gi @ gi.conj().T
            assert np.abs(rho - m / np.trace(m).real).max() < 1e-14
            DensityMatrix(rho)
        one = qstate.random_density_matrix(3, np.random.default_rng(3)).matrix
        first = qstate._random_density_batch(1, 3, np.random.default_rng(3))[0]
        assert np.array_equal(one, DensityMatrix(first).matrix)

    def test_ginibre_blocks_keep_every_bit(self):
        # three blocks of states against the whole stack built at once, and
        # the reduced form against the reduction of those states
        n = 2 * qstate._DENSITY_BLOCK + 76
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        rhos = qstate._random_density_batch(n, 4, rng)
        g = ref.normal(size=(n, 4, 4)) + 1j * ref.normal(size=(n, 4, 4))
        m = g @ np.conj(np.swapaxes(g, 1, 2))
        assert np.array_equal(rhos, m / np.einsum("nii->n", m).real[:, None, None])
        assert rng.bit_generator.state == ref.bit_generator.state
        T = qstate._random_density_batch(n, 4, np.random.default_rng(8),
                                         channel._correlation_matrix)
        assert np.array_equal(T, channel._correlation_matrix(rhos))


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("n", [1, 7, 50])
class TestHaarSamplers:
    """The stacked samplers against n one-at-a-time draws from the same seed."""

    def test_unitaries_are_per_draw_qr_bit_for_bit(self, n, dim):
        rng, ref = np.random.default_rng(n + dim), np.random.default_rng(n + dim)
        got = qstate._haar_unitaries(n, dim, rng)
        for u in got:
            z = ref.normal(size=(dim, dim)) + 1j * ref.normal(size=(dim, dim))
            q, r = np.linalg.qr(z)
            assert np.array_equal(u, q * (np.diag(r) / np.abs(np.diag(r))))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.abs(got @ np.conj(np.swapaxes(got, 1, 2)) - np.eye(dim)).max() < 1e-14

    def test_states_are_per_draw_normalized(self, n, dim):
        # a 1-D norm takes BLAS dot products; the row norms may round the
        # last bit the other way
        rng, ref = np.random.default_rng(n + dim), np.random.default_rng(n + dim)
        got = qstate._haar_states(n, dim, rng)
        for v in got:
            w = ref.normal(size=dim) + 1j * ref.normal(size=dim)
            assert np.abs(v - w / np.linalg.norm(w)).max() <= 4.5e-16
        assert rng.bit_generator.state == ref.bit_generator.state


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        rho = DensityMatrix.from_pure(bell_phi_plus())
        out = partial_trace(rho, SubsystemSplit(dims=(2, 2), keep=(0,)))
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12

    def test_product_state_marginal(self):
        v = np.kron([1, 0], [0, 1]).astype(complex)
        out = partial_trace(DensityMatrix.from_pure(v),
                            SubsystemSplit(dims=(2, 2), keep=(0,)))
        assert np.abs(out.matrix - np.diag([1.0, 0.0])).max() < 1e-12

    def test_schmidt_marginal_matches_svd_oracle(self):
        # oracle: marginal eigenvalues are the squared Schmidt coefficients,
        # read off an explicit singular-value decomposition
        rng = np.random.default_rng(42)
        v = qstate.haar_state(6, rng)
        out = partial_trace(DensityMatrix.from_pure(v),
                            SubsystemSplit(dims=(3, 2), keep=(0,)))
        svals = np.linalg.svd(v.reshape(3, 2), compute_uv=False)
        expected = np.sort(svals**2)[::-1]
        got = np.sort(np.linalg.eigvalsh(out.matrix))[::-1]
        assert np.abs(got[:expected.size] - expected).max() < 1e-12
        assert np.abs(got[expected.size:]).max() < 1e-12

    def test_trace_and_positivity_preserved_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            rho = qstate.random_density_matrix(6, rng)
            out = partial_trace(rho, SubsystemSplit(dims=(2, 3), keep=(1,)))
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out.matrix).min() > -1e-12

    def test_dimension_mismatch_is_structural(self):
        rho = DensityMatrix.maximally_mixed(4)
        with pytest.raises(DimensionError):
            partial_trace(rho, SubsystemSplit(dims=(3, 2), keep=(0,)))


class TestEntropy:
    def test_pure_state_has_zero_entropy(self):
        rho = DensityMatrix.from_pure(bell_phi_plus())
        assert von_neumann_entropy(rho) < 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(DensityMatrix.maximally_mixed(2))
                   - np.log(2)) < 1e-12

    def test_diagonal_value_base2(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert abs(von_neumann_entropy(rho, base=2) - 0.8112781244591328) < 1e-12

    def test_additivity_on_products(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = qstate.random_density_matrix(2, rng)
            b = qstate.random_density_matrix(3, rng)
            prod = DensityMatrix(np.kron(a.matrix, b.matrix))
            assert abs(von_neumann_entropy(prod) - von_neumann_entropy(a)
                       - von_neumann_entropy(b)) < 1e-10

    def test_bounded_by_log_dim(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rho = qstate.random_density_matrix(4, rng)
            assert von_neumann_entropy(rho) <= np.log(4) + 1e-12


    def test_stacked_entropies_keep_the_per_state_bits(self):
        # the per-state formula sums the terms of the positive eigenvalues
        # only; the stack adds an exact 0 for each of the others
        def per_state(m):
            ev = np.clip(np.linalg.eigvalsh(qstate.hermitize(m)), 0.0, None)
            ev = ev[ev > 0.0]
            return float(-(ev * np.log(ev)).sum())

        rng = np.random.default_rng(14)
        for dim in (2, 4):
            stack = np.array([qstate.random_density_matrix(dim, rng).matrix for _ in range(20)]
                             + [DensityMatrix.from_pure(qstate.haar_state(dim, rng)).matrix
                                for _ in range(20)]
                             + [np.diag(np.eye(dim)[0]), np.eye(dim) / dim])
            entropies = qstate._entropies(stack).tolist()
            assert entropies == [per_state(m) for m in stack]
            assert entropies == [von_neumann_entropy(m) for m in stack]

    def test_stacked_entropies_check_every_state(self):
        stack = np.array([np.eye(2) / 2, np.diag([1.0 + 1e-6, -1e-6]), np.eye(2) / 2])
        with pytest.raises(ValidationError, match="negative eigenvalues"):
            qstate._entropies(stack)
        stack[1, 0, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            qstate._entropies(stack)


class TestErrorProbability:
    def test_identical_states(self):
        rho = DensityMatrix.maximally_mixed(2)
        assert abs(error_probability(rho, rho) - 0.5) < 1e-12

    def test_orthogonal_pure_states(self):
        r1 = DensityMatrix(np.diag([1.0, 0.0]))
        r2 = DensityMatrix(np.diag([0.0, 1.0]))
        assert error_probability(r1, r2) < 1e-12

    def test_pure_vs_maximally_mixed(self):
        r1 = DensityMatrix(np.diag([1.0, 0.0]))
        assert abs(error_probability(r1, DensityMatrix.maximally_mixed(2))
                   - 0.25) < 1e-12

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            r1 = qstate.random_density_matrix(3, rng)
            r2 = qstate.random_density_matrix(3, rng)
            p12 = error_probability(r1, r2)
            p21 = error_probability(r2, r1)
            assert abs(p12 - p21) < 1e-12
            assert 0.0 <= p12 <= 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            error_probability(DensityMatrix.maximally_mixed(2),
                              DensityMatrix.maximally_mixed(3))


class TestSpinFlip:
    """The spin flip rho~ = Y rho* Y, Y = sigma_y x sigma_y, as concurrence
    applies it (qstate._SYY)."""

    @staticmethod
    def flip(m):
        return qstate._SYY @ np.conj(m) @ qstate._SYY

    def test_maximally_mixed_fixed(self):
        rho = DensityMatrix.maximally_mixed(4)
        assert np.abs(self.flip(rho.matrix) - rho.matrix).max() < 1e-14

    def test_phi_plus_fixed(self):
        rho = DensityMatrix.from_pure(bell_phi_plus())
        assert np.abs(self.flip(rho.matrix) - rho.matrix).max() < 1e-14

    def test_01_goes_to_10(self):
        v01 = np.kron([1, 0], [0, 1]).astype(complex)
        v10 = np.kron([0, 1], [1, 0]).astype(complex)
        got = self.flip(DensityMatrix.from_pure(v01).matrix)
        assert np.abs(got - np.outer(v10, v10.conj())).max() < 1e-14

    def test_involution(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rho = qstate.random_density_matrix(4, rng).matrix
            assert np.abs(self.flip(self.flip(rho)) - rho).max() < 1e-14

    def test_wrong_dimension(self):
        with pytest.raises(DimensionError):
            concurrence(DensityMatrix.maximally_mixed(2))


class TestConcurrence:
    def test_maximally_entangled(self):
        assert abs(concurrence(DensityMatrix.from_pure(bell_phi_plus())) - 1.0) < 1e-10

    def test_product_states_vanish(self):
        # sqrt in the spectrum amplifies round-off to ~sqrt(eps)
        rng = np.random.default_rng(15)
        for _ in range(20):
            v = np.kron(qstate.haar_state(2, rng), qstate.haar_state(2, rng))
            assert concurrence(DensityMatrix.from_pure(v)) < 1e-6

    def test_werner_state_against_closed_form(self):
        # oracle: eigenvalue route on the explicit 4x4 matrix; the closed
        # form max(0, (3p-1)/2) cross-checks it
        p = 0.8
        phip = bell_phi_plus()
        rho = DensityMatrix(p * np.outer(phip, phip.conj()) + (1 - p) * np.eye(4) / 4)
        assert abs(concurrence(rho) - 0.7) < 1e-10
        assert abs(concurrence(rho) - max(0.0, (3 * p - 1) / 2)) < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            rho = qstate.random_density_matrix(4, rng)
            u = np.kron(qstate.haar_unitary(2, rng), qstate.haar_unitary(2, rng))
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert abs(concurrence(rotated) - concurrence(rho)) < 1e-10

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), noise=st.floats(0.0, 1.0))
    @example(seed=0, noise=0.0)
    def test_local_unitary_invariance_up_to_purity_one(self, seed, noise):
        """A pure state (noise 0) has three zero l_i; none of them may turn
        round-off into a sqrt(eps)-sized error."""
        rng = np.random.default_rng(seed)
        v = qstate.haar_state(4, rng)
        rho = (1 - noise) * np.outer(v, v.conj()) + noise * np.eye(4) / 4
        u = np.kron(qstate.haar_unitary(2, rng), qstate.haar_unitary(2, rng))
        rotated = DensityMatrix(u @ rho @ u.conj().T)
        assert abs(concurrence(rotated) - concurrence(DensityMatrix(rho))) < 1e-13

    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.2, 0.5, 2 / 3, 0.9, 1.0])
    def test_noisy_singlet_against_closed_form(self, p):
        psim = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        rho = DensityMatrix((1 - p) * np.outer(psim, psim.conj()) + p * np.eye(4) / 4)
        assert abs(concurrence(rho) - max(0.0, 1 - 1.5 * p)) < 1e-13

    def test_checked_and_raw_inputs_agree_bit_for_bit(self, monkeypatch):
        """A DensityMatrix is not checked again; a raw array is checked and
        hermitized once, so both give the same bits."""
        rng = np.random.default_rng(17)
        states = [qstate.random_density_matrix(4, rng) for _ in range(20)]
        states.append(DensityMatrix.from_pure(bell_phi_plus()))
        raw = [concurrence(rho.matrix) for rho in states]
        built, post_init = [], DensityMatrix.__post_init__
        monkeypatch.setattr(DensityMatrix, "__post_init__",
                            lambda self: built.append(1) or post_init(self))
        assert [concurrence(rho) for rho in states] == raw
        assert built == []
        drift = 1e-15j * rng.standard_normal((4, 4))  # not Hermitian
        noisy = states[0].matrix + drift
        assert concurrence(noisy) == concurrence(DensityMatrix(noisy))

    def test_non_psd_raw_input_rejected(self):
        with pytest.raises(ValidationError):
            concurrence(np.diag([0.8, 0.5, -0.2, -0.1]))


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# the validation table: every entry fires on a bad input, NaN never passes,
# and what one check accepts at its edge passes the checks downstream of it

_BEAM = photon.collimated_packet(0.2, n_theta=4, n_phi=8)
_Z = np.array([1.0, 0.0])


def _photon_packet(**changes):
    return photon.PhotonPacket(**{**vars(_BEAM), **changes})


def _nan_at(array, index=0):
    out = np.array(array, dtype=np.result_type(np.asarray(array), float))
    out.flat[index] = np.nan
    return out


def _kraus_from(u):
    return channel.kraus_from_unitary(u, PureState(_Z), [[_Z], [[0.0, 1.0]]])


def _nan_probes():
    packet = wavepacket.gaussian_packet(wavepacket.PacketSpec(mass=1.0, points=3))
    pair = wavepacket.singlet_packet(0.3, points=3)
    return {
        "SpinorPacket": lambda: wavepacket.SpinorPacket(
            1.0, packet.momenta, packet.weights, _nan_at(packet.amplitudes)),
        "PureState": lambda: PureState(_nan_at([1.0, 0.0], 1)),
        "DensityMatrix": lambda: DensityMatrix(_nan_at(np.diag([1.0, 0.0]), 3)),
        "from_pure": lambda: DensityMatrix.from_pure(_nan_at([1.0, 0.0], 1)),
        "KrausSet": lambda: channel.KrausSet.single([_nan_at(np.eye(2), 3)]),
        "Povm": lambda: channel.Povm(2, (_nan_at(np.diag([1.0, 0.0]), 3),
                                         np.diag([0.0, 1.0]))),
        "PhotonPacket": lambda: _photon_packet(masses=_nan_at(_BEAM.masses)),
        "PhotonPacket-direction": lambda: _photon_packet(theta=_nan_at(_BEAM.theta)),
        "PhotonPacket-frequency": lambda: _photon_packet(k0=_nan_at(_BEAM.k0)),
        "BipartitePacket": lambda: wavepacket.BipartitePacket(
            pair.first, pair.second, _nan_at(pair.amplitudes, 3)),
        "kraus_from_unitary": lambda: _kraus_from(_nan_at(np.eye(4), 5)),
        "_check_mass_shells": lambda: lorentz._check_mass_shells(
            np.array([[1.0, np.nan, 0.0, 0.0]]), 1.0),
        "chsh_value": lambda: channel.chsh_value(
            DensityMatrix.maximally_mixed(4), _nan_at(SIGMA_Z, 3), SIGMA_X, SIGMA_Z, SIGMA_X),
        "PolarizationMatrix": lambda: photon.PolarizationMatrix(
            _nan_at(np.eye(3) / 3, 4)),
        "superscattering": lambda: horizon.superscattering(
            _nan_at(np.eye(4), 0), DensityMatrix.maximally_mixed(2)),
        # a state given as a raw array
        "chsh_value-state": lambda: channel.chsh_value(
            np.full((4, 4), np.nan), SIGMA_Z, SIGMA_X, SIGMA_Z, SIGMA_X),
        "error_probability": lambda: qstate.error_probability(
            _nan_at(np.eye(2) / 2, 0), np.eye(2) / 2),
        "Povm.probabilities": lambda: channel.Povm(
            2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))).probabilities(
                _nan_at(np.eye(2) / 2, 0)),
    }


@pytest.mark.parametrize("name", list(_nan_probes()))
def test_nan_entry_is_rejected(name):
    with pytest.raises(ValidationError):
        _nan_probes()[name]()


# each entry and an input whose checked error is d
_ENTRY_PROBES = {
    "TOL_TRACE": lambda d: DensityMatrix(np.diag([0.5, 0.5 + d])),
    "TOL_HERM": lambda d: DensityMatrix(np.array([[0.5, d], [0.0, 0.5]])),
    "TOL_PSD": lambda d: DensityMatrix(np.diag([1.0 + d, -d])),
    "TOL_SHELL": lambda d: lorentz._check_mass_shells(
        np.array([[np.sqrt(1.0 + d), 0.0, 0.0, 0.0]]), 1.0),
    "TOL_UNITARY": lambda d: horizon.superscattering(
        np.sqrt(1.0 + d) * np.eye(4), DensityMatrix.maximally_mixed(2)),
}


@pytest.mark.parametrize("entry", list(_ENTRY_PROBES))
def test_table_entry_fires_beyond_its_bound_only(entry):
    bound = getattr(qstate, entry)
    _ENTRY_PROBES[entry](0.5 * bound)
    with pytest.raises(ValidationError):
        _ENTRY_PROBES[entry](2.0 * bound)


@pytest.mark.parametrize("excess, accepted", [(0.9e-8, True), (1.1e-8, False)])
def test_pure_state_norm_edge_agrees_downstream(excess, accepted):
    v = np.array([np.sqrt(1.0 + excess), 0.0], dtype=complex)
    # the second check is the matrix PureState.density() builds
    for check in (lambda: PureState(v).density(), lambda: DensityMatrix(np.outer(v, v.conj())),
                  lambda: DensityMatrix.from_pure(v), lambda: channel._teleport_batch(v[None])):
        with nullcontext() if accepted else pytest.raises(ValidationError):
            check()


@pytest.mark.parametrize("rapidity", [14.0, 16.0, 17.0, 18.0, 20.0, 25.0, 30.0])
def test_boosted_packet_reduces_at_large_rapidity(rapidity):
    packet = wavepacket.gaussian_packet(wavepacket.PacketSpec(mass=1.0, points=11))
    lam = lorentz.boost(rapidity=rapidity, axis=(0.3, -0.2, 0.9))
    boosted = wavepacket.boost_packet(packet, lam)
    rho = wavepacket.reduced_spin(boosted)
    assert abs(boosted.norm_squared(boosted.weights, boosted.amplitudes) - 1.0) <= 1e-12
    assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12


@pytest.mark.parametrize("field, power", [("masses", 1.0), ("alpha", 0.5)])
def test_edge_photon_packet_has_a_valid_effective_matrix(field, power):
    # the norm^2 is linear in the masses and quadratic in alpha
    edge = _photon_packet(**{field: getattr(_BEAM, field) * (1.0 + 0.99e-8) ** power})
    rho = photon.effective_density_matrix(edge)
    assert np.trace(rho.matrix).real > 1.0 + 0.9e-8
    with pytest.raises(ValidationError):
        _photon_packet(**{field: getattr(_BEAM, field) * (1.0 + 1.01e-8) ** power})


@pytest.mark.parametrize("gap, accepted", [(0.9e-10, True), (1.1e-10, False)])
def test_premeasurement_edge_agrees_downstream(gap, accepted):
    u = np.sqrt(1.0 + gap) * qstate.haar_unitary(4, np.random.default_rng(5))
    with nullcontext() if accepted else pytest.raises(ValidationError):
        channel.povm_of(_kraus_from(u))
