"""Target error channels: amplitude damping, X-Y plane polarization, and
random CPTP process matrices."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .channels import _TP_PAIRS, ATOL, I2, X, Y, ChiMatrix, KrausChannel


class GenerationError(RuntimeError):
    """Random channel generation exhausted its retry budget."""


@dataclass(frozen=True)
class AdcSpec:
    """Amplitude damping with dimensionless strength gamma in [0, 1]."""

    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")


@dataclass(frozen=True)
class PolSpec:
    """Polarization along the X-Y plane axis at the finite angle phi (radians,
    reduced mod 2 pi) with error probability p in [0, 1]."""

    phi: float
    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if not np.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * np.pi))


@dataclass(frozen=True)
class RandomChannelSpec:
    """A reproducible batch of random channels: stream i uses seed + i."""

    seed: int
    count: int

    def __post_init__(self) -> None:
        for name, value in (("seed", self.seed), ("count", self.count)):
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def adc(spec: AdcSpec) -> KrausChannel:
    """Amplitude damping channel.

    K0 = |0><0| + sqrt(1-gamma) |1><1|,  K1 = sqrt(gamma) |0><1|.
    Non-unital for gamma > 0; at gamma = 1 every state maps to |0><0|.
    """
    g = spec.gamma
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1))


def pol_xy(spec: PolSpec) -> KrausChannel:
    """Unital polarization along the axis at angle phi in the X-Y plane.

    K0 = sqrt(1-p) I,  K1 = sqrt(p) (cos(phi) X + sin(phi) Y).
    """
    k0 = np.sqrt(1.0 - spec.p) * I2
    k1 = np.sqrt(spec.p) * (np.cos(spec.phi) * X + np.sin(spec.phi) * Y)
    return KrausChannel((k0, k1))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Gaussian matrix,
    with the phases of the triangular factor's diagonal folded back in."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _enforce_tp_constraints(m: np.ndarray) -> np.ndarray:
    """Project the three trace-preservation conditions onto a Hermitian
    matrix by symmetric averaging of each conjugate pair.

    For the condition Re(m_0j) + s Im(m_kl) = 0, Re(m_0j) -> (Re m_0j -
    s Im m_kl)/2 with Im(m_kl) set to -s times it.  The diagonal (and hence
    the trace) is untouched and Hermiticity is re-imposed on both entries.
    """
    out = np.array(m, dtype=complex)
    for j, k, l, s in _TP_PAIRS:
        r = (out[0, j].real - s * out[k, l].imag) / 2.0
        out[0, j] = r + 1j * out[0, j].imag
        out[k, l] = out[k, l].real - 1j * (s * r)
        out[j, 0], out[l, k] = out[0, j].conjugate(), out[k, l].conjugate()
    return out


def random_chi(rng: np.random.Generator, max_attempts: int = 100_000) -> ChiMatrix:
    """Draw one random CPTP process matrix.

    A diagonal is sampled uniformly on the simplex {d >= 0, sum d = 2},
    conjugated by a Haar-random unitary (giving a positive trace-2 matrix),
    and the trace-preservation conditions are enforced by symmetric
    projection.  The sample is kept only if it stays positive semidefinite;
    otherwise a fresh draw is attempted, up to max_attempts times.
    """
    for _ in range(max_attempts):
        d = rng.dirichlet(np.ones(4)) * 2.0
        u = haar_unitary(4, rng)
        m = (u * d) @ u.conj().T
        m = _enforce_tp_constraints(m)
        if float(np.linalg.eigvalsh(m).min()) >= -ATOL:
            return ChiMatrix(m)
    raise GenerationError(f"no positive sample after {max_attempts} attempts")


def random_chi_batch(spec: RandomChannelSpec) -> list[ChiMatrix]:
    """Generate spec.count random process matrices, channel i from its own
    stream seeded with spec.seed + i (stable under parallel evaluation)."""
    return [
        random_chi(np.random.default_rng(spec.seed + i)) for i in range(spec.count)
    ]
