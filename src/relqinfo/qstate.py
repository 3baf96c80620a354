"""Density matrices and state-level measures.

Complex linear-algebra substrate used by every other module: validated
density matrices, partial trace, von Neumann entropy, the Helstrom error
probability for discriminating two equiprobable states and the
two-qubit concurrence entanglement monotone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import DimensionError, ValidationError

__all__ = [
    "TOL_HERM",
    "TOL_PSD",
    "TOL_TRACE",
    "TOL_SHELL",
    "TOL_UNITARY",
    "DensityMatrix",
    "PureState",
    "SubsystemSplit",
    "ValidationError",
    "DimensionError",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "partial_trace",
    "von_neumann_entropy",
    "error_probability",
    "concurrence",
    "hermitize",
    "haar_state",
    "haar_unitary",
    "random_density_matrix",
]

# The validation bounds, one per checked quantity; the checkers below fail NaN.
# |tr - 1| of a state, |norm^2 - 1| of a vector, packet or helicity pair, and a
# polarization trace's excess over 1: inputs carry ~8 digits. A boosted packet's
# norm keeps ~1e-16 at any rapidity (the kernel's D is unitary to round-off).
TOL_TRACE = 1e-8
TOL_HERM = 1e-10  # |M - M^dagger| of a state: O(1) entries, n eps ~ 1e-15
# -(least eigenvalue) of a state, POVM element, polarization or Choi matrix, or
# of 1 - sum A^dagger A for a sub-normalized instrument: n eps ~ 1e-15.
TOL_PSD = 1e-10
TOL_SHELL = 1e-10  # |p.p - m^2| / max(1, p0^2): cancels to m^2, round-off eps p0^2
# |P - 1| for a product that must be 1: U U^dagger, a basis's Gram matrix, Kraus or
# POVM completeness, X^2, eta L^T eta L, a little-group D D^dagger; times the
# round-off scale of Lorentz matrices (L00^2).
TOL_UNITARY = 1e-10


def _is_count(value) -> bool:
    """True for a finite whole number >= 1 (inf and nan are not whole)."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        return False
    return value.is_integer() and value >= 1


def _check_near_one(values, what: str) -> None:
    """Raise, naming the first failing value, unless every trace or squared
    norm in values is within TOL_TRACE of 1."""
    near = np.abs(np.subtract(values, 1.0)) <= TOL_TRACE
    if not near.all():
        raise ValidationError(f"{what} {np.ravel(values)[~np.ravel(near)][0]} differs from 1")


def _check_psd(m: np.ndarray, what: str) -> np.ndarray:
    """The ascending eigenvalues of a Hermitian matrix or (..., d, d) stack;
    raises unless every entry is finite and no eigenvalue is below -TOL_PSD."""
    if not np.isfinite(m).all():
        raise ValidationError(f"{what} has non-finite entries")
    ev = np.linalg.eigvalsh(m)
    if not (ev[..., 0] >= -TOL_PSD).all():
        raise ValidationError(f"{what} has negative eigenvalues beyond tolerance")
    return ev


def _check_identity(product: np.ndarray, what: str, scale=1.0) -> None:
    """Raise unless a product that must be 1, or each of a (..., d, d) stack,
    is within TOL_UNITARY * scale of it; scale broadcasts over the stack."""
    gap = np.abs(product - np.eye(product.shape[-1])).max(axis=(-2, -1))
    if not (gap <= TOL_UNITARY * np.asarray(scale)).all():
        raise ValidationError(f"{what} (gap {np.max(gap):.2e})")


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """(M + M†)/2 of a matrix or of each matrix in a (..., d, d) stack,
    suppressing round-off drift before spectral calls."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim < 2:
        raise DimensionError(f"cannot hermitize an array of shape {matrix.shape}")
    return (matrix + np.swapaxes(matrix, -1, -2).conj()) / 2.0


def _checked_densities(m: np.ndarray) -> np.ndarray:
    """DensityMatrix's checks on an (N, d, d) stack: returns the hermitized
    stack, each matrix Hermitian within TOL_HERM, of unit trace and PSD, or
    raises for the first matrix that fails."""
    if not np.abs(m - np.swapaxes(m, -1, -2).conj()).max() <= TOL_HERM:
        raise ValidationError("matrix is not Hermitian within tolerance")
    m = hermitize(m)
    _check_near_one(np.trace(m, axis1=-2, axis2=-1).real, "trace")
    _check_psd(m, "matrix")
    return m


def _pure_densities(V: np.ndarray) -> np.ndarray:
    """v v† / |v|^2 for each row of an (N, d) complex array, shape (N, d, d);
    raises unless every |v|^2 is within TOL_TRACE of 1 (from_pure's check)."""
    # |v| as np.linalg.norm takes it: one real dot per part
    n = np.sqrt(np.einsum("ni,ni->n", V.real, V.real) + np.einsum("ni,ni->n", V.imag, V.imag))
    _check_near_one(n ** 2, "pure state norm^2")
    return V[:, :, None] * V[:, None, :].conj() / (n ** 2)[:, None, None]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace complex matrix.

    The stored matrix is symmetrized on construction; Hermiticity, trace
    and positivity are enforced within TOL_HERM, TOL_TRACE and TOL_PSD.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"density matrix must be square, got {m.shape}")
        m = _checked_densities(m[None])[0]
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_pure(cls, amplitudes: np.ndarray) -> "DensityMatrix":
        v = np.asarray(amplitudes, dtype=complex).ravel()
        return cls(_pure_densities(v[None])[0])

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class PureState:
    """Normalized complex state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).ravel()
        _check_near_one(np.linalg.norm(v) ** 2, "state norm^2")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class SubsystemSplit:
    """Tensor factorization of a Hilbert space plus the factors to keep."""

    dims: tuple
    keep: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        keep = tuple(sorted(int(k) for k in self.keep))
        if any(d < 1 for d in dims):
            raise DimensionError("factor dimensions must be positive")
        if any(k < 0 or k >= len(dims) for k in keep) or len(set(keep)) != len(keep):
            raise DimensionError(f"keep indices {keep} invalid for {len(dims)} factors")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "keep", keep)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def kept_dim(self) -> int:
        return int(np.prod([self.dims[k] for k in self.keep]))


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    if isinstance(rho, PureState):
        return rho.density().matrix
    m = np.asarray(rho, dtype=complex)
    if not np.isfinite(m).all():  # a raw array is otherwise unchecked
        raise ValidationError("state has a non-finite entry")
    return m


def partial_trace(rho, split: SubsystemSplit) -> DensityMatrix:
    """Trace out the factors not listed in split.keep.

    Parameters
    ----------
    rho : DensityMatrix or ndarray
        State on the full tensor-product space.
    split : SubsystemSplit
        Factor dimensions and which factors survive.
    """
    m = _as_matrix(rho)
    dims = split.dims
    if m.shape[0] != split.total_dim:
        raise DimensionError(
            f"state dim {m.shape[0]} != product of factors {split.total_dim}")
    n = len(dims)
    t = m.reshape(dims + dims)
    # einsum with integer subscripts: traced factors share row/col labels
    row_sub = list(range(n))
    col_sub = [i if i not in split.keep else n + i for i in range(n)]
    out_sub = [i for i in split.keep] + [n + i for i in split.keep]
    out = np.einsum(t, row_sub + col_sub, out_sub)
    d = split.kept_dim
    return DensityMatrix(hermitize(out.reshape(d, d)))


def von_neumann_entropy(rho, base: str | int = "e") -> float:
    """-tr(rho log rho); eigenvalues within TOL_PSD of 0 contribute nothing.

    base 'e' (natural log, nats) or 2 (bits).
    """
    s = float(_entropies(_as_matrix(rho)[None])[0])
    if base == 2 or base == "2":
        return s / np.log(2.0)
    if base == "e":
        return s
    raise ValueError(f"unsupported log base {base!r}")


def _entropies(m: np.ndarray) -> np.ndarray:
    """von_neumann_entropy in nats of each matrix of an (N, d, d) stack, with
    _check_psd on the whole stack."""
    ev = np.clip(_check_psd(hermitize(m), "state"), 0.0, None)
    # a zero eigenvalue adds an exact 0 to its row's sum
    log_ev = np.log(ev, out=np.zeros_like(ev), where=ev > 0.0)
    return -(ev * log_ev).sum(axis=-1)


def error_probability(rho1, rho2) -> float:
    """Minimum error probability for discriminating two equiprobable states.

    Returns 1/2 - tr|rho1 - rho2|/4: zero for orthogonal pure states, 1/2
    for identical states.
    """
    m1, m2 = _as_matrix(rho1), _as_matrix(rho2)
    if m1.shape != m2.shape:
        raise DimensionError(f"shape mismatch {m1.shape} vs {m2.shape}")
    return float(_error_probabilities(m1, m2))


def _error_probabilities(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """error_probability of each pair of (..., d, d) stacks that broadcast
    together. No checks."""
    ev = np.linalg.eigvalsh(hermitize(m1 - m2))
    return np.clip(0.5 - 0.25 * np.abs(ev).sum(axis=-1), 0.0, 0.5)


_SYY = np.kron(SIGMA_Y, SIGMA_Y)


def concurrence(rho) -> float:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4).

    The l_i are the descending eigenvalues of [sqrt(rho) rho~ sqrt(rho)]^(1/2)
    with rho~ the spin-flipped state. With S = sqrt(rho) and Y = sigma_y x
    sigma_y, rho~ = (Y S* Y)^2, so the l_i are the singular values of
    (Y S* Y) S (Wootters 1998), found without the square root of a
    round-off-sized eigenvalue.
    """
    m = _as_matrix(rho)
    if m.shape != (4, 4):
        raise DimensionError("concurrence is defined for 4x4 two-qubit states")
    if not isinstance(rho, (DensityMatrix, PureState)):  # checked already if so
        m = DensityMatrix(m).matrix
    ev, vec = np.linalg.eigh(m)
    root = (vec * np.sqrt(np.clip(ev, 0.0, None))) @ vec.conj().T
    lam = np.linalg.svd(_SYY @ root.conj() @ _SYY @ root, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


# ---------------------------------------------------------------------------
# seeded sampling helpers used by property tests and Monte-Carlo checks

def _unit_states(z: np.ndarray) -> np.ndarray:
    """Unit vectors (n, dim) of an (n, 2, dim) buffer of real, imaginary parts."""
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(np.einsum("nki,nki->n", z, z))[:, None]


def _haar_states(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random unit vectors, shape (n, dim), from one draw in the
    order of n haar_state calls."""
    return _unit_states(rng.normal(size=(n, 2, dim)))


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector: _haar_states with a batch of one."""
    return _haar_states(1, dim, rng)[0]


def _haar_unitaries(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random unitaries, shape (n, dim, dim), from one draw in the
    order of n haar_unitary calls: QR of Ginibre matrices, with the phases
    of R's diagonal moved into Q. The stacked QR factors each matrix alone,
    so every unitary has the bits of its own QR."""
    z = rng.normal(size=(n, 2, dim, dim))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: _haar_unitaries with a batch of one."""
    return _haar_unitaries(1, dim, rng)[0]


_DENSITY_BLOCK = 512  # states per stack: 4x4 temporaries of 131 kB each


def _random_density_batch(n: int, dim: int, rng: np.random.Generator,
                          reduce=None) -> np.ndarray:
    """reduce applied to n random mixed states, normalized G G† with G a
    square Ginibre matrix, concatenated along the first axis; without
    reduce, the (n, dim, dim) states. All real parts are drawn before the
    imaginary ones, into one (2, n, dim, dim) float buffer; the states are
    built and reduced _DENSITY_BLOCK at a time, so no (n, dim, dim) complex
    temporary is held, and each state has the same bits in any block."""
    x = rng.normal(size=(2, n, dim, dim))
    out = []
    for s in range(0, n, _DENSITY_BLOCK):
        g = x[0, s:s + _DENSITY_BLOCK] + 1j * x[1, s:s + _DENSITY_BLOCK]
        rhos = g @ np.conj(np.swapaxes(g, 1, 2))
        tr = np.einsum("nii->n", rhos).real
        rhos /= tr[:, None, None]
        out.append(rhos if reduce is None else reduce(rhos))
    return np.concatenate(out)


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random mixed state: _random_density_batch with a batch of one."""
    return DensityMatrix(_random_density_batch(1, dim, rng)[0])
