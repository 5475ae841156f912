"""Core one-qubit channel representations and conversions.

A channel is held either as a set of 2x2 Kraus operators (probability
weights folded into the operators) or as a 4x4 process matrix expressed in
the normalized Pauli basis {I, X, Y, Z}/sqrt(2), always in that index
order.  The basis is orthonormal under the Hilbert-Schmidt inner product
Tr(A^dag B), so a trace-preserving map has process-matrix trace 2 and the
trace-preservation conditions read

    Re(chi_01) = -Im(chi_23)
    Re(chi_02) = +Im(chi_13)
    Re(chi_03) = -Im(chi_12)

Density matrices are parametrized by Bloch vectors, rho = (I + r.sigma)/2.

All operations are pure functions; values are immutable after construction
and safe to share between concurrent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute tolerance for invariant checks and matrix comparisons.
ATOL = 1e-10

_KRAUS_CUTOFF = 1e-12  # chi eigenvalues chi_to_kraus drops

# The trace-preservation conditions of the module docstring, one per pair of
# off-diagonal entries: (j, k, l, s) for Re(chi_0j) + s Im(chi_kl) = 0.
_TP_PAIRS = ((1, 2, 3, 1), (2, 1, 3, -1), (3, 1, 2, 1))


def _read_only(a: np.ndarray) -> np.ndarray:  # a, made read-only so that it can be shared
    a.setflags(write=False)
    return a


I2 = np.array([[1, 0], [0, 1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, X, Y, Z)

#: Orthonormal operator basis (I, X, Y, Z)/sqrt(2).
PAULI_BASIS = tuple(s / np.sqrt(2.0) for s in PAULIS)

#: Bloch vectors of the probe states |0>, |1>, |+>, |+i>.  Minimal
#: informationally complete set: operational equality of two channels on
#: these four states implies equality everywhere.
PROBE_BLOCH = (
    np.array([0.0, 0.0, 1.0]),
    np.array([0.0, 0.0, -1.0]),
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
)

for _arr in PAULIS + PAULI_BASIS + PROBE_BLOCH:
    _read_only(_arr)


def _readonly_complex(a, shape: tuple[int, int], what: str) -> np.ndarray:
    out = np.array(a, dtype=complex)
    if out.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {out.shape}")
    return _read_only(out)


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map rho -> sum_i K_i rho K_i^dag given by 2x2 Kraus operators.

    The operators must be finite and satisfy the completeness relation
    sum_i K_i^dag K_i = I within ATOL; construction fails otherwise.
    """

    ops: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.ops) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        ops = tuple(_readonly_complex(k, (2, 2), "Kraus operator") for k in self.ops)
        bad = [i for i, k in enumerate(ops) if not np.isfinite(k).all()]
        if bad:
            raise ValueError(f"Kraus operators {bad} have non-finite entries")
        total = sum(k.conj().T @ k for k in ops)
        err = float(np.max(np.abs(total - I2)))
        if err > ATOL:
            raise ValueError(
                f"Kraus operators are not trace preserving: max|sum K^dag K - I| = {err:.3e}"
            )
        object.__setattr__(self, "ops", ops)


@dataclass(frozen=True)
class ChiMatrix:
    """4x4 process matrix in the normalized Pauli basis (I, X, Y, Z)/sqrt(2).

    Construction only checks the shape; use validate_cptp to test whether
    the matrix describes a completely positive trace-preserving map.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "matrix", _readonly_complex(self.matrix, (4, 4), "process matrix")
        )


@dataclass(frozen=True)
class CptpViolation:
    """One violated CPTP constraint and how badly it is violated."""

    constraint: str
    magnitude: float


def identity_channel() -> KrausChannel:
    return KrausChannel((I2,))


def identity_chi() -> ChiMatrix:
    return ChiMatrix(np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex))


def density_from_bloch(r) -> np.ndarray:
    """Density matrix (I + r.sigma)/2 for a Bloch vector with |r| <= 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError(f"Bloch vector must be finite, got {r}")
    if float(np.linalg.norm(r)) > 1.0 + ATOL:
        raise ValueError(f"Bloch vector lies outside the unit ball: |r| = {np.linalg.norm(r)}")
    return (I2 + r[0] * X + r[1] * Y + r[2] * Z) / 2.0


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector r_j = Re Tr(rho sigma_j) of a 2x2 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(rho @ s).real for s in (X, Y, Z)])


def kraus_to_chi(ch: KrausChannel) -> ChiMatrix:
    """Process matrix chi_mn = sum_i a_im a*_in with a_im = Tr(B_m^dag K_i).

    The returned matrix is Hermitian positive semidefinite with trace 2 and
    reproduces the channel action through
    rho -> sum_mn chi_mn B_m rho B_n^dag.
    """
    return ChiMatrix(operators_chi(ch.ops))


def operators_chi(ops) -> np.ndarray:
    """The chi array of kraus_to_chi for any 2x2 operators, channel or not."""
    a = np.array([[np.trace(b @ k) for b in PAULI_BASIS] for k in ops])
    return a.T @ a.conj()


def _check_density(rho) -> np.ndarray:
    """rho as a complex array; ValueError unless it is a density matrix within ATOL."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if np.max(np.abs(rho - rho.conj().T)) > ATOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > ATOL:
        raise ValueError("density matrix must have trace 1")
    if float(np.linalg.eigvalsh(rho).min()) < -ATOL:
        raise ValueError("density matrix is not positive semidefinite")
    return rho


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a physical density matrix."""
    rho = _check_density(rho)
    return sum(k @ rho @ k.conj().T for k in ch.ops)


def apply_chi(chi: ChiMatrix, rho: np.ndarray) -> np.ndarray:
    """Apply a channel in process-matrix form (sum_mn chi_mn B_m rho B_n^dag)
    to a physical density matrix."""
    rho = _check_density(rho)
    m = chi.matrix
    out = np.zeros((2, 2), dtype=complex)
    for i in range(4):
        left = PAULI_BASIS[i] @ rho
        for j in range(4):
            out += m[i, j] * (left @ PAULI_BASIS[j].conj().T)
    return out


def bloch_image(ch: KrausChannel, r_in) -> np.ndarray:
    """Bloch vector of the channel output for the input Bloch vector r_in."""
    return bloch_from_density(apply_channel(ch, density_from_bloch(r_in)))


def validate_cptp(chi: ChiMatrix) -> list[CptpViolation]:
    """Check a process matrix against all CPTP constraints.

    Returns the list of violated constraints with magnitudes; an empty list
    means the matrix is Hermitian, positive semidefinite (>= -ATOL on the
    smallest eigenvalue), has trace 2, and satisfies the three
    trace-preservation conditions, each within ATOL.  Violations are data,
    not errors.  A matrix with non-finite entries reports only the violation
    "finite", whose magnitude is the number of such entries.
    """
    m = chi.matrix
    nonfinite = int(np.count_nonzero(~np.isfinite(m)))
    if nonfinite:
        return [CptpViolation("finite", float(nonfinite))]
    report: list[CptpViolation] = []

    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > ATOL:
        report.append(CptpViolation("hermiticity", herm))

    # Eigenvalues of the Hermitian part; deterministic for identical input.
    lam_min = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
    if lam_min < -ATOL:
        report.append(CptpViolation("positivity", -lam_min))

    tr = abs(complex(np.trace(m)) - 2.0)
    if tr > ATOL:
        report.append(CptpViolation("trace", float(tr)))

    for j, k, l, s in _TP_PAIRS:
        value = abs(float(m[0, j].real + s * m[k, l].imag))
        if value > ATOL:
            report.append(CptpViolation(f"tp(0{j},{k}{l})", value))
    return report


def chi_to_kraus(chi: ChiMatrix) -> KrausChannel:
    """Canonical Kraus decomposition of a valid CPTP process matrix.

    Eigendecomposes chi = sum_k lam_k v_k v_k^dag and returns the operators
    K_k = sqrt(lam_k) sum_m v_km B_m, dropping eigenvalues up to 1e-12.
    Fails (through KrausChannel validation) if chi is not trace preserving.
    Nothing in the package needs it: the solver reads every fidelity off
    the process matrix, and the CLI maps states with apply_chi.  It serves
    library users who want an operator form of a process matrix.
    """
    vals, vecs = np.linalg.eigh(chi.matrix)
    ops = []
    for val, vec in zip(vals, vecs.T):
        if val > _KRAUS_CUTOFF:
            k = np.sqrt(val) * sum(c * b for c, b in zip(vec, PAULI_BASIS))
            ops.append(k)
    return KrausChannel(tuple(ops))
