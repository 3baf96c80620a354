"""Quantum operations and their causal structure.

Kraus sets and the POVMs they induce, Choi-matrix complete-positivity
certification, semicausality probing of bipartite measurements with
concrete witnesses, a LOCC protocol simulator, the teleportation
identity, and CHSH correlation values with their quantum bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._errors import DimensionError, ValidationError
from . import qstate
from .qstate import DensityMatrix, PureState, hermitize

__all__ = [
    "KrausSet",
    "Povm",
    "BipartiteOperation",
    "ChoiMatrix",
    "SemicausalVerdict",
    "LoccStep",
    "kraus_from_unitary",
    "apply",
    "povm_of",
    "choi_and_cp_check",
    "is_semicausal",
    "simulate_locc_protocol",
    "teleport_identity_residual",
    "simulate_teleportation",
    "chsh_value",
    "chsh_optimize",
    "cluster_chsh_bound",
    "bell_state",
    "complete_bell_pvm",
    "incomplete_bell_pvm",
    "conditioned_basis_pvm",
    "conditioned_basis_protocol",
]

_TOL = 1e-12


# ---------------------------------------------------------------------------
# core containers

@dataclass(frozen=True)
class KrausSet:
    """Indexed family of Kraus matrices A[outcome][internal index].

    ops[mu][m] is a dim_out x dim_in complex matrix. The set must resolve
    the identity, sum A†A = 1 (or be sub-normalized when the instrument is
    explicitly flagged as such).
    """

    dim_in: int
    dim_out: int
    ops: tuple
    subnormalized: bool = False

    def __post_init__(self):
        ops = tuple(
            tuple(np.asarray(a, dtype=complex) for a in branch) for branch in self.ops
        )
        if not ops or any(not branch for branch in ops):
            raise ValidationError("Kraus set needs at least one matrix per outcome")
        for branch in ops:
            for a in branch:
                if a.shape != (self.dim_out, self.dim_in):
                    raise DimensionError(
                        f"Kraus matrix shape {a.shape} != ({self.dim_out}, {self.dim_in})")
        _check_completeness(np.array([a for branch in ops for a in branch]),
                            self.subnormalized)
        object.__setattr__(self, "ops", ops)

    @classmethod
    def from_projectors(cls, projectors: Sequence[np.ndarray]) -> "KrausSet":
        """PVM as an instrument: one Kraus matrix per projector."""
        projectors = [np.asarray(p, dtype=complex) for p in projectors]
        d = projectors[0].shape[0]
        return cls(dim_in=d, dim_out=d, ops=tuple((p,) for p in projectors))

    @classmethod
    def single(cls, matrices: Sequence[np.ndarray]) -> "KrausSet":
        """All matrices under one outcome (a plain channel)."""
        matrices = [np.asarray(a, dtype=complex) for a in matrices]
        return cls(dim_in=matrices[0].shape[1], dim_out=matrices[0].shape[0],
                   ops=(tuple(matrices),))


def _check_completeness(A: np.ndarray, subnormalized: bool = False) -> None:
    """KrausSet's check on each (K, d_out, d_in) set of a (..., K, d_out, d_in)
    stack: sum A†A = 1, or 1 - sum A†A PSD for a sub-normalized instrument."""
    total = (np.conj(np.swapaxes(A, -1, -2)) @ A).sum(axis=-3)
    if subnormalized:
        qstate._check_psd(np.eye(A.shape[-1]) - hermitize(total),
                          "sub-normalized instrument: 1 - sum A^dagger A")
    else:
        qstate._check_identity(total, "Kraus set is not trace-preserving")


@dataclass(frozen=True)
class Povm:
    """PSD elements resolving the identity; outcome mu fires with tr(rho E_mu)."""

    dim: int
    elements: tuple

    def __post_init__(self):
        elements = tuple(hermitize(e) for e in self.elements)
        if not elements or any(e.shape != (self.dim, self.dim) for e in elements):
            raise DimensionError("POVM needs elements of shape (dim, dim)")
        qstate._check_psd(np.array(elements), "POVM element")
        qstate._check_identity(sum(elements), "POVM does not resolve the identity")
        object.__setattr__(self, "elements", elements)

    def probabilities(self, rho) -> np.ndarray:
        """tr(rho E_mu) per outcome, shape (..., n) for a (..., d, d) stack."""
        return np.einsum("kij,...ji->...k", np.array(self.elements),
                         qstate._as_matrix(rho)).real


@dataclass(frozen=True)
class BipartiteOperation:
    """Outcome-indexed operation on a two-factor space."""

    dims: tuple
    kraus: KrausSet

    def __post_init__(self):
        da, db = self.dims
        if self.kraus.dim_in != da * db or self.kraus.dim_out != da * db:
            raise DimensionError("Kraus set does not act on the product space")


@dataclass(frozen=True)
class ChoiMatrix:
    """(d_in*d_out)^2 Hermitian certificate of a linear map."""

    matrix: np.ndarray
    dim_in: int
    dim_out: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim_in * self.dim_out,) * 2:
            raise DimensionError("Choi matrix has inconsistent shape")
        object.__setattr__(self, "matrix", _checked_choi(m))


def _checked_choi(m: np.ndarray) -> np.ndarray:
    """ChoiMatrix's checks on a (..., D, D) stack: the hermitized stack, or
    a raise for a non-finite entry."""
    m = hermitize(m)
    if not np.isfinite(m).all():
        raise ValidationError("Choi matrix has non-finite entries")
    return m


# ---------------------------------------------------------------------------
# construction and application

def kraus_from_unitary(U: np.ndarray, apparatus_init: PureState,
                       outcome_partition: Sequence[Sequence[np.ndarray]]) -> KrausSet:
    """Kraus matrices of a premeasurement unitary.

    U acts on system (x) apparatus (system index slow). The apparatus starts
    in apparatus_init; outcome_partition lists, per macroscopic outcome, an
    orthonormal basis of the apparatus subspace it occupies. Entry (sigma, s)
    of A[mu][m] is <sigma, b_mu_m| U |s, init>. _kraus_from_unitaries with a
    batch of one.
    """
    A = _kraus_from_unitaries(np.asarray(U, dtype=complex)[None], apparatus_init,
                              outcome_partition)[0]
    flat = iter(A)
    ops = tuple(tuple(next(flat) for _ in branch) for branch in outcome_partition)
    return KrausSet(dim_in=A.shape[-1], dim_out=A.shape[-2], ops=ops)


def _kraus_from_unitaries(U: np.ndarray, apparatus_init: PureState,
                          outcome_partition: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """kraus_from_unitary on an (n, D, D) stack of premeasurement matrices:
    the (n, K, d_sys, d_sys) Kraus matrices, outcome by outcome, after its
    checks and KrausSet's completeness check on every matrix of the stack."""
    U = np.asarray(U, dtype=complex)
    if U.ndim != 3 or U.shape[1] != U.shape[2]:
        raise DimensionError("premeasurement matrix must be square")
    qstate._check_identity(U @ np.conj(np.swapaxes(U, 1, 2)),
                           "premeasurement matrix is not unitary")
    init = apparatus_init.amplitudes
    d_total, d_app = U.shape[1], init.size
    if d_total % d_app:
        raise DimensionError("apparatus dimension does not divide the total")
    d_sys = d_total // d_app

    if any(len(branch) == 0 for branch in outcome_partition):
        raise ValidationError("Kraus set needs at least one matrix per outcome")
    vectors = [np.asarray(v, dtype=complex).ravel() for branch in outcome_partition
               for v in branch]
    if len(vectors) != d_app:
        raise ValidationError("partition does not span the apparatus space")
    V = np.array(vectors)
    qstate._check_identity(V @ V.conj().T, "partition subspaces are not orthonormal")

    # |s, init> columns, U applied, then projected on <sigma, b_k|:
    # A[n, k, sigma, s] = sum_{a, a'} conj(b_ka) U[n, (sigma a), (s a')] init_a'
    A = np.einsum("ka,nzast,t->nkzs", V.conj(),
                  U.reshape(-1, d_sys, d_app, d_sys, d_app), init)
    _check_completeness(A)
    return A


def apply(k: KrausSet, rho) -> list:
    """Outcome probabilities and renormalized post-states.

    Returns [(p_mu, DensityMatrix or None)]; outcomes with p below 1e-12
    are numerically empty and carry None.
    """
    m = qstate._as_matrix(rho)
    if m.shape != (k.dim_in, k.dim_in):
        raise DimensionError(f"state dim {m.shape[0]} != channel input {k.dim_in}")
    out = []
    for unnorm in _outcome_states(k.ops, m):
        p = float(np.trace(unnorm).real)
        if p < _TOL:
            out.append((max(p, 0.0), None))
        else:
            out.append((p, DensityMatrix(hermitize(unnorm) / p)))
    return out


def povm_of(k: KrausSet) -> Povm:
    """E_mu = sum_m A†A for each outcome."""
    elements = tuple(
        sum(a.conj().T @ a for a in branch) for branch in k.ops
    )
    return Povm(dim=k.dim_in, elements=elements)


def _outcome_states(ops, m: np.ndarray) -> list:
    """Unnormalized post-state, the sum of A m A† over the Kraus matrices
    A of each outcome in ops, for one matrix or a (..., d, d) stack m."""
    return [sum(a @ m @ a.conj().T for a in branch) for branch in ops]


def choi_and_cp_check(map_or_kraus, dim_in: int | None = None) -> tuple:
    """Choi matrix of a linear map plus its complete-positivity verdict.

    Accepts a KrausSet or a callable rho -> rho' (dim_in then required).
    Returns (ChoiMatrix, is_cp, min_eig) where min_eig is the smallest
    eigenvalue of the trace-normalized Choi matrix; the map is CP iff
    min_eig >= -TOL_PSD. A KrausSet's Choi matrix is _kraus_choi's, and
    both kinds go through _choi_min_eigs with a batch of one.
    """
    if isinstance(map_or_kraus, KrausSet):
        dim_in, dim_out = map_or_kraus.dim_in, map_or_kraus.dim_out
        C = _kraus_choi(np.array([a for branch in map_or_kraus.ops for a in branch]))
    elif dim_in is None:
        raise ValueError("dim_in is required for a callable map")
    else:
        blocks = []
        for i in range(dim_in):
            row = []
            for j in range(dim_in):
                probe = np.zeros((dim_in, dim_in), dtype=complex)
                probe[i, j] = 1.0
                # copy: the callable may hand back a view of the probe
                row.append(np.array(map_or_kraus(probe), dtype=complex, copy=True))
            blocks.append(row)
        shapes = {b.shape for row in blocks for b in row}
        if len(shapes) != 1 or len(shape := shapes.pop()) != 2 or shape[0] != shape[1]:
            raise DimensionError("the map must return square matrices of one size")
        dim_out = shape[0]
        C = np.block(blocks)
    C, min_eig = _choi_min_eigs(C[None])
    return (ChoiMatrix(matrix=C[0], dim_in=dim_in, dim_out=dim_out),
            bool(min_eig[0] >= -qstate.TOL_PSD), float(min_eig[0]))


def _kraus_choi(A: np.ndarray) -> np.ndarray:
    """Choi matrices sum_k vec(A_k) vec(A_k)† of a (..., K, d_out, d_in)
    stack of Kraus sets, shape (..., d_in d_out, d_in d_out), input index
    slow: block (i, j) is the image of |i><j|."""
    W = np.swapaxes(A, -1, -2).reshape(*A.shape[:-2], -1)
    return np.swapaxes(W, -1, -2) @ W.conj()


def _choi_min_eigs(C: np.ndarray) -> tuple:
    """The (n, D, D) Choi stack C after ChoiMatrix's checks, and the least
    eigenvalue of each matrix over its trace, shape (n,); the map is CP iff
    it is >= -TOL_PSD."""
    C = _checked_choi(C)
    tr = np.trace(C, axis1=1, axis2=2).real
    if not (np.abs(tr) >= _TOL).all():
        raise ValidationError("map has vanishing trace; cannot normalize Choi")
    return C, np.linalg.eigvalsh(C / tr[:, None, None])[:, 0]


# ---------------------------------------------------------------------------
# causality checks

@dataclass(frozen=True)
class SemicausalVerdict:
    semicausal: bool
    direction: str
    advantage: float
    witness: dict | None

    def to_report(self, operation_id: str, tolerance: float) -> dict:
        """JSON-ready witness report for the CLI causality subcommand."""
        return {
            "operation_id": operation_id,
            "direction": self.direction,
            "semicausal": self.semicausal,
            "witness_pre_op": None if self.witness is None else self.witness["pre_op"],
            "witness_state": None if self.witness is None else self.witness["state"],
            "advantage": self.advantage,
            "tolerance": tolerance,
        }


_PAULI_FAMILY = (
    ("identity", np.eye(2, dtype=complex)),
    ("pauli_x", qstate.SIGMA_X),
    ("pauli_y", qstate.SIGMA_Y),
    ("pauli_z", qstate.SIGMA_Z),
)


def _receiver_marginals(T: BipartiteOperation, direction: str, rng,
                        haar_probes: int, probe_states: Sequence | None = None):
    """(pre-op names, marginals): marginals[s, p], shape (S, P, d_r, d_r),
    is the receiver's marginal after sender pre-op p (identity first) and T
    on probe state s. Default probe states draw from rng before the Haar
    pre-ops do."""
    da, db = T.dims
    d = da * db
    sender_dim = db if direction == "B->A" else da
    if probe_states is None:
        probe_states = list(np.eye(d, dtype=complex)[:min(d, 4)])
        if (da, db) == (2, 2):
            probe_states += [bell_state(name) for name in ("phi+", "phi-", "psi+", "psi-")]
        probe_states += list(qstate._haar_states(8, d, rng))

    pre_ops = [(name, u) for name, u in _PAULI_FAMILY if u.shape[0] == sender_dim]
    if not pre_ops:
        pre_ops = [("identity", np.eye(sender_dim, dtype=complex))]
    names = [name for name, _ in pre_ops] + [f"haar_{i}" for i in range(haar_probes)]
    U = np.concatenate([[u for _, u in pre_ops],
                        qstate._haar_unitaries(haar_probes, sender_dim, rng)])

    # every pre-op embedded at once: 1 (x) u for B->A, u (x) 1 for A->B
    if direction == "B->A":
        ue = np.einsum("ac,pbd->pabcd", np.eye(da, dtype=complex), U)
    else:
        ue = np.einsum("pac,bd->pabcd", U, np.eye(db, dtype=complex))
    V = [np.asarray(v, dtype=complex).ravel() for v in probe_states]
    if any(v.shape != (d,) for v in V):
        raise DimensionError(f"probe states must have {d} amplitudes")
    V = np.array(V)
    qstate._check_near_one(np.sum(np.abs(V) ** 2, axis=1), "probe state norm^2")
    kraus = np.array([a for branch in T.kraus.ops for a in branch])
    # pure inputs: psi[k, s, p] = K_k U_p v_s, then trace out the sender
    psi = (kraus[:, None] @ (ue.reshape(-1, d, d) @ V.T)).transpose(0, 3, 1, 2)
    psi = psi.reshape(*psi.shape[:3], da, db)
    trace = "kspab,kspcb->spac" if direction == "B->A" else "kspab,kspad->spbd"
    return names, np.einsum(trace, psi, psi.conj())


def is_semicausal(T: BipartiteOperation, direction: str = "B->A",
                  probe_states: Sequence | None = None, tol: float = 1e-9,
                  haar_probes: int = 200, seed: int = 77) -> SemicausalVerdict:
    """Probe whether the sending side can signal through the summed operation.

    direction 'B->A' asks whether Bob, acting just before the global
    operation, can change Alice's marginal (and vice versa for 'A->B').
    The sender's pre-operations run over the Pauli family plus seeded Haar
    unitaries; probe states default to computational products, Bell states
    and seeded Haar states. A verdict of semicausal means no witness was
    found over the probe family, not a proof. When a witness exists it
    reports the optimal discrimination probability 1 - P_E of the two
    receiver marginals.
    """
    if direction not in ("B->A", "A->B"):
        raise ValueError("direction must be 'B->A' or 'A->B'")
    names, marginals = _receiver_marginals(T, direction, np.random.default_rng(seed),
                                           haar_probes, probe_states)
    h = hermitize(marginals)
    adv = 1.0 - qstate._error_probabilities(h[:, :1], h[:, 1:])
    # state-major scan: a pair is the witness only if it beats the best so far
    best, witness = 0.5, None
    for i, a in enumerate(adv.ravel().tolist()):
        if a > best + 1e-15:
            best, witness = a, divmod(i, adv.shape[1])
    found = witness is not None and best > 0.5 + tol
    return SemicausalVerdict(
        semicausal=not found,
        direction=direction,
        advantage=best if found else 0.5,
        witness={"pre_op": names[witness[1] + 1], "state": f"probe_{witness[0]}",
                 "versus": names[0]} if found else None,
    )


# ---------------------------------------------------------------------------
# LOCC simulation

@dataclass(frozen=True)
class LoccStep:
    """One local round: the acting party and an instrument chooser that maps
    the message history (tuple of earlier outcomes) to a local KrausSet."""

    party: str
    instrument: Callable[[tuple], KrausSet]


def simulate_locc_protocol(protocol: Sequence[LoccStep], rho) -> dict:
    """Outcome distribution of an ordered local protocol with classical
    messages between two qubits.

    rho is one state or an (S, 4, 4) stack; returns {message tuple:
    probability}, a float or an (S,) array. No branch is pruned: every key
    is a full-length message, and one that cannot occur reads ~0. Each
    history's instrument is chosen and embedded once for the whole stack; a
    chooser returning an instrument of the wrong dimension is a malformed
    conditioning graph.
    """
    m = qstate._as_matrix(rho)
    if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
        raise DimensionError("input does not live on the bipartite space")

    branches, eye = {(): m}, np.eye(2, dtype=complex)
    for step in protocol:
        if step.party not in ("A", "B"):
            raise ValidationError(f"unknown party {step.party!r}")
        grown = {}
        for history, state in branches.items():
            local = step.instrument(history)
            if local.dim_in != 2 or local.dim_out != 2:
                raise ValidationError("conditioned instrument has wrong local dimension")
            ops = [[np.kron(a, eye) if step.party == "A" else np.kron(eye, a)
                    for a in branch] for branch in local.ops]
            for mu, post in enumerate(_outcome_states(ops, state)):
                grown[history + (mu,)] = post
        branches = grown
    probs = {h: np.trace(s, axis1=-2, axis2=-1).real for h, s in branches.items()}
    return probs if m.ndim == 3 else {h: float(p) for h, p in probs.items()}


# ---------------------------------------------------------------------------
# standard two-qubit objects

def bell_state(name: str) -> np.ndarray:
    s = 1.0 / np.sqrt(2.0)
    table = {
        "phi+": np.array([s, 0, 0, s]),
        "phi-": np.array([s, 0, 0, -s]),
        "psi+": np.array([0, s, s, 0]),
        "psi-": np.array([0, s, -s, 0]),
    }
    return table[name].astype(complex)


def complete_bell_pvm() -> BipartiteOperation:
    projs = [np.outer(bell_state(n), bell_state(n).conj())
             for n in ("phi+", "phi-", "psi+", "psi-")]
    return BipartiteOperation(dims=(2, 2), kraus=KrausSet.from_projectors(projs))


def incomplete_bell_pvm() -> BipartiteOperation:
    """Two-outcome measurement {P, 1-P} onto the phi+ Bell state."""
    p1 = np.outer(bell_state("phi+"), bell_state("phi+").conj())
    return BipartiteOperation(dims=(2, 2),
                              kraus=KrausSet.from_projectors([p1, np.eye(4) - p1]))


def conditioned_basis_pvm() -> BipartiteOperation:
    """Product PVM whose second-qubit basis depends on the first qubit:
    projectors |0,0>, |0,1>, |1,+>, |1,->."""
    zero, one = np.array([1.0, 0]), np.array([0, 1.0])
    plus, minus = np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)
    vecs = [np.kron(zero, zero), np.kron(zero, one),
            np.kron(one, plus), np.kron(one, minus)]
    projs = [np.outer(v, v.conj()) for v in vecs]
    return BipartiteOperation(dims=(2, 2), kraus=KrausSet.from_projectors(projs))


def conditioned_basis_protocol() -> list:
    """One-way LOCC realization of conditioned_basis_pvm: the first party
    measures {|0>,|1>} and the second picks its basis from the message."""
    zero, one = np.array([1.0, 0]), np.array([0, 1.0])
    plus, minus = np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)
    z_pvm = KrausSet.from_projectors([np.outer(zero, zero), np.outer(one, one)])
    x_pvm = KrausSet.from_projectors([np.outer(plus, plus.conj()),
                                      np.outer(minus, minus.conj())])

    def alice(_history):
        return z_pvm

    def bob(history):
        return z_pvm if history[0] == 0 else x_pvm

    return [LoccStep("A", alice), LoccStep("B", bob)]


def locc_outcome_to_global(message: tuple) -> int:
    """Map (alice bit, bob bit) messages to conditioned_basis_pvm outcomes."""
    a, b = message
    return b if a == 0 else 2 + b


# ---------------------------------------------------------------------------
# teleportation identity

def _pi_rotation(axis: str) -> np.ndarray:
    # exp(-i pi sigma_k / 2) = -i sigma_k
    table = {"x": qstate.SIGMA_X, "y": qstate.SIGMA_Y, "z": qstate.SIGMA_Z}
    return -1j * table[axis]


# Bell outcomes of registers 0, 1 in the order of the expansion, the pi
# rotation exp(-i pi sigma_k/2) that corrects each, and the unit phases making
# the Bell-basis expansion of |psi>|singlet> exact; fixed constants,
# independent of psi.
_TELEPORT_BELL = np.array([bell_state(n) for n in ("psi-", "psi+", "phi-", "phi+")])
_TELEPORT_CORRECTIONS = np.array([np.eye(2, dtype=complex), _pi_rotation("z"),
                                  _pi_rotation("x"), _pi_rotation("y")])
_TELEPORT_PHASES = np.array([-1.0, -1.0j, 1.0j, 1.0])


def _teleport_batch(psi: np.ndarray) -> tuple:
    """Teleportation of an (S, 2) stack of input amplitudes, one row each:
    (residuals (S,), probabilities (S, 4), fidelities (S, 4)), branches in
    _TELEPORT_BELL order.

    The residual is the Frobenius distance of the rank-1 projectors of
    |psi>|singlet> and of its four-term Bell expansion, whose third-register
    states are the phased pi rotations of |psi> (so a global phase cannot
    contribute). The protocol measures registers 0, 1 in the Bell basis and
    corrects register 2 by the outcome's pi rotation; the fidelities compare
    the corrected states with psi / |psi|. Raises ValidationError unless
    every row has norm^2 1 within TOL_TRACE."""
    psi = np.asarray(psi, dtype=complex)
    nrm = np.linalg.norm(psi, axis=1)
    qstate._check_near_one(nrm ** 2, "normalized input amplitudes: norm^2")
    singlet = _TELEPORT_BELL[0]
    lhs = (psi[:, :, None] * singlet).reshape(-1, 8)
    moved = np.einsum("kcd,sd->skc", _TELEPORT_CORRECTIONS, psi) * _TELEPORT_PHASES[:, None]
    rhs = 0.5 * np.einsum("ka,skc->sac", _TELEPORT_BELL, moved).reshape(-1, 8)
    gap = (lhs[:, :, None] * lhs[:, None, :].conj()
           - rhs[:, :, None] * rhs[:, None, :].conj())
    residuals = np.linalg.norm(gap, axis=(1, 2))

    # Bob's conditional state per outcome: the Bell bra contracted off
    # registers 0, 1, then the outcome's correction
    unit = psi / nrm[:, None]
    state = (unit[:, :, None] * singlet).reshape(-1, 4, 2)
    bob = np.einsum("ka,sab->skb", _TELEPORT_BELL.conj(), state)
    probabilities = np.sum(np.abs(bob) ** 2, axis=-1)
    bob = np.einsum("kbc,skc->skb", _TELEPORT_CORRECTIONS, bob)
    norms = np.sum(np.abs(bob) ** 2, axis=-1)
    overlaps = np.abs(np.einsum("sb,skb->sk", unit.conj(), bob)) ** 2
    fidelities = np.divide(overlaps, norms, out=np.zeros_like(norms), where=norms > 0)
    return residuals, probabilities, fidelities


def teleport_identity_residual(alpha: complex, beta: complex) -> float:
    """Residual of the Bell-basis teleportation identity for (alpha, beta):
    _teleport_batch's residual on a batch of one (raises ValidationError
    unless the amplitudes are normalized)."""
    return float(_teleport_batch([[alpha, beta]])[0][0])


def simulate_teleportation(alpha: complex, beta: complex) -> dict:
    """Full teleportation: Bell measurement on registers 0,1 plus the
    outcome-conditioned pi rotation on register 2, on (alpha, beta) scaled
    to unit norm. Returns the worst-case fidelity of the corrected state
    with the input over the four outcomes, and the outcome probabilities."""
    psi = np.array([alpha, beta], dtype=complex)
    _, probabilities, fidelities = _teleport_batch([psi / np.linalg.norm(psi)])
    return {"min_fidelity": float(fidelities[0].min()),
            "probabilities": probabilities[0].tolist()}


# ---------------------------------------------------------------------------
# CHSH

def chsh_value(rho, A1, A2, B1, B2) -> float:
    """zeta = tr{rho [A1(B1+B2) + A2(B1-B2)]} / 2 for +-1-spectrum observables."""
    m = qstate._as_matrix(rho)
    for X in map(np.asarray, (A1, A2, B1, B2)):  # X X = X X^dagger = 1: Hermitian unitary
        qstate._check_identity(np.array([X @ X, X @ X.conj().T]),
                               "observable must be Hermitian with X^2 = 1")
    op = np.kron(A1, B1 + B2) + np.kron(A2, B1 - B2)
    return float(0.5 * np.trace(m @ op).real)


_SIGMAS = (qstate.SIGMA_X, qstate.SIGMA_Y, qstate.SIGMA_Z)

# _PAULI_TRACES[(a, b), (i, j)] = (sigma_i (x) sigma_j)[b, a], so that
# tr(m sigma_i (x) sigma_j) is m's 16 entries against column (i, j)
_PAULI_TRACES = np.array([[np.kron(si, sj).T for sj in _SIGMAS]
                          for si in _SIGMAS]).reshape(9, 16).T


def _correlation_matrix(m: np.ndarray) -> np.ndarray:
    """Correlation matrices T_ij = tr(m sigma_i (x) sigma_j) of a (..., 4, 4)
    stack, shape (..., 3, 3), from products against the Pauli pairs.

    Each row of m meets each column of _PAULI_TRACES in one entry, times a
    unit (+-1 or +-i), so each product over two rows of m sums two exact
    terms and is one rounding in any BLAS order: T is the same for a batch
    of one and for a stack, and equals np.trace's (d0 + d1) + (d2 + d3)."""
    lead = m.shape[:-2]
    x = m.reshape(*lead, 16)
    T = (x[..., :8] @ _PAULI_TRACES[:8]).real + (x[..., 8:] @ _PAULI_TRACES[8:]).real
    return T.reshape(*lead, 3, 3)


def _bloch_obs(n: np.ndarray) -> np.ndarray:
    return n[0] * qstate.SIGMA_X + n[1] * qstate.SIGMA_Y + n[2] * qstate.SIGMA_Z


def _unit_rows(x: np.ndarray, fallback) -> np.ndarray:
    """Rows of an (S, 3) array scaled to unit length; a row of length at
    most 1e-14 is replaced by the fallback unit vector."""
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    keep = n > 1e-14
    return np.where(keep, x / np.where(keep, n, 1.0), fallback)


def _chsh_optimize_batch(rhos: np.ndarray) -> tuple:
    """chsh_optimize on an (S, 4, 4) stack of two-qubit states: zeta_max (S,)
    and the settings dict, each entry (S, 3). One stacked SVD of the
    correlation matrices."""
    T = _correlation_matrix(rhos)
    _, s, Vt = np.linalg.svd(T)
    c1, c2 = Vt[:, 0], Vt[:, 1]
    a1 = _unit_rows((T @ c1[..., None])[..., 0], [0.0, 0.0, 1.0])
    a2 = _unit_rows((T @ c2[..., None])[..., 0], [1.0, 0.0, 0.0])
    phi = np.arctan2(s[:, 1], s[:, 0])[:, None]
    b1 = np.cos(phi) * c1 + np.sin(phi) * c2
    b2 = np.cos(phi) * c1 - np.sin(phi) * c2
    zeta = np.sqrt(s[:, 0] ** 2 + s[:, 1] ** 2)
    return zeta, {"a1": a1, "a2": a2, "b1": b1, "b2": b2}


def _chsh_bloch(T: np.ndarray, a1, a2, b1, b2) -> np.ndarray:
    """CHSH values of Bloch settings, (S,) from (S, 3, 3) correlation
    matrices and (S, 3) unit vectors: zeta = [a1.T(b1+b2) + a2.T(b1-b2)]/2,
    chsh_value for the observables n.sigma."""
    return 0.5 * (np.einsum("ni,nij,nj->n", a1, T, b1 + b2)
                  + np.einsum("ni,nij,nj->n", a2, T, b1 - b2))


def chsh_optimize(rho) -> tuple:
    """Maximum of chsh_value over two-qubit measurement settings.

    The two largest singular values s1, s2 of the correlation matrix give
    sqrt(s1^2 + s2^2) together with explicit optimal Bloch settings.
    Returns (zeta_max, settings dict); _chsh_optimize_batch on a batch of
    one.
    """
    m = qstate._as_matrix(rho)
    if m.shape != (4, 4):
        raise DimensionError("CHSH optimization is defined for two qubits")
    zeta, settings = _chsh_optimize_batch(m[None])
    return float(zeta[0]), {k: v[0] for k, v in settings.items()}


def settings_to_observables(settings: dict) -> tuple:
    """Bloch settings -> Hermitian +-1 observables (A1, A2, B1, B2)."""
    return tuple(_bloch_obs(settings[k]) for k in ("a1", "a2", "b1", "b2"))


def cluster_chsh_bound(m: float, r: float) -> float:
    """Vacuum correlation bound 1 + 4 exp(-m r) for lowest mass m and
    separation r (inverse units of each other)."""
    if m < 0 or r < 0:
        raise ValidationError("mass and separation must be non-negative")
    return float(1.0 + 4.0 * np.exp(-m * r))
