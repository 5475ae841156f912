"""Catalog of efficiently simulable one-qubit error operators and mixtures.

The catalog covers every one-qubit operation a stabilizer simulator can
inject as a random error: the 24 single-qubit Clifford unitaries and the
six measurement-induced translations (measure a Pauli axis, keep the
outcome pointing at a chosen eigenstate).  Four mixture models select
subsets of it:

    pc   Paulis only                                   (3 parameters)
    pmc  Paulis + translations                         (9 parameters)
    cc   all 23 non-identity Cliffords                 (23 parameters)
    cmc  Cliffords + translations                      (29 parameters)

The identity is never an explicit generator; it carries the leftover
probability p0 = 1 - sum(p) so every mixture is trace preserving.

Canonical generator order (parameter vectors, labels and file formats all
follow it):

    1. Paulis: X, Y, Z
    2. quarter turns about the Pauli axes, exp(-i pi/4 (+/- sigma_j)):
       S+x, S-x, S+y, S-y, S+z, S-z
    3. half turns about the octahedron edge axes,
       exp(-i pi/2 (sigma_j +/- sigma_k)/sqrt(2)) for pairs (x,y), (x,z),
       (y,z): H(x,y)+, H(x,y)-, H(x,z)+, H(x,z)-, H(y,z)+, H(y,z)-
    4. third turns about the octahedron face axes, exp(-i pi/3 sigma_F)
       with F = (s1,s2,s3)/sqrt(3): F(s1,s2,s3), sign triples ordered
       lexicographically with + before -, leftmost slot most significant
    5. translations: T|0>, T|1>, T|+>, T|->, T|+i>, T|-i>

A translation towards |f> expands to the Kraus pair
{|f><f|, |f><f_perp|} sharing a single probability; its effect is to
discard the state with that probability and replace it by |f>.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .channels import I2, X, Y, Z, ChiMatrix, KrausChannel, identity_chi, kraus_to_chi
from .channels import _read_only
from .metrics import chi_fidelity_quadratic

MODELS = ("pc", "pmc", "cc", "cmc")

_AXES = "xyz"

# Each entry: (eigenstate name, |f>), in the canonical order.  The entries
# come in orthogonal pairs, so |f_perp> of entry i is the ket of entry i ^ 1.
_EIGENSTATES = (
    ("|0>", np.array([1.0, 0.0], dtype=complex)),
    ("|1>", np.array([0.0, 1.0], dtype=complex)),
    ("|+>", np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)),
    ("|->", np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)),
    ("|+i>", np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)),
    ("|-i>", np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)),
)


@dataclass(frozen=True)
class Generator:
    """One catalog entry: label, operator family and Kraus expansion at unit
    probability.  Its fidelity coefficients are read off its process matrix
    (generator_quadratics)."""

    label: str
    family: str  # "pauli" | "s" | "hadamard" | "face" | "translation"
    ops: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ErrorSample:
    """Outcome of drawing one error event from a mixture.

    For a translation the sampled Kraus pair acts as "replace the state by
    |f>", so the replacement eigenstate is reported alongside the label.
    """

    label: str
    replacement: str | None = None


def _rotation(label: str, family: str, axis: np.ndarray, angle: float) -> Generator:
    """The generator exp(-i angle n.sigma) about the unit axis n = axis / |axis|."""
    n_sigma = np.tensordot(axis, (X, Y, Z), 1) / np.linalg.norm(axis)
    u = np.cos(angle) * I2 - 1j * np.sin(angle) * n_sigma
    return Generator(label, family, (_read_only(u),))


def _clifford_generators() -> list[Generator]:
    """X, Y, Z, then the quarter, half and third turns in canonical order."""
    e, signs = np.eye(3), (("+", 1.0), ("-", -1.0))
    paulis = [Generator(label, "pauli", (mat,)) for label, mat in (("X", X), ("Y", Y), ("Z", Z))]
    quarter = [
        _rotation(f"S{s}{a}", "s", sign * e[j], np.pi / 4.0)
        for j, a in enumerate(_AXES) for s, sign in signs
    ]
    half = [
        _rotation(f"H({a},{b}){s}", "hadamard", e[j] + sign * e[k], np.pi / 2.0)
        for (j, a), (k, b) in combinations(enumerate(_AXES), 2) for s, sign in signs
    ]
    third = [
        _rotation("F({},{},{})".format(*("+" if c > 0 else "-" for c in v)), "face",
                  np.array(v), np.pi / 3.0)
        for v in product((1.0, -1.0), repeat=3)
    ]
    return paulis + quarter + half + third


def _translation_generators() -> list[Generator]:
    out = []
    for i, (name, ket) in enumerate(_EIGENSTATES):
        keep = _read_only(np.outer(ket, ket.conj()))
        swap = _read_only(np.outer(ket, _EIGENSTATES[i ^ 1][1].conj()))
        out.append(Generator(f"T{name}", "translation", (keep, swap)))
    return out


@lru_cache(maxsize=None)
def enumerate_generators(model: str) -> tuple[Generator, ...]:
    """Ordered non-identity generators of a mixture model.

    pc -> 3 Paulis; pmc -> 3 + 6 translations; cc -> 23 Clifford rotations;
    cmc -> 29 generators.  The order is the canonical one documented in the
    module docstring.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    cliffords = _clifford_generators()
    paulis, translations = cliffords[:3], _translation_generators()
    gens = {
        "pc": paulis,
        "pmc": paulis + translations,
        "cc": cliffords,
        "cmc": cliffords + translations,
    }[model]
    return tuple(gens)


@lru_cache(maxsize=None)
def clifford_unitaries() -> tuple[tuple[str, np.ndarray], ...]:
    """All 24 single-qubit Clifford unitaries (identity included), labeled."""
    out = [("I", I2)]
    for gen in enumerate_generators("cc"):
        out.append((gen.label, gen.ops[0]))
    return tuple(out)


@dataclass(frozen=True)
class MixtureParams:
    """Probabilities for the non-identity generators of one model, in
    canonical order.  All entries must be finite, >= 0 and sum to at most 1."""

    model: str
    probs: np.ndarray

    def __post_init__(self) -> None:
        n = len(enumerate_generators(self.model))
        probs = np.array(self.probs, dtype=float)
        if probs.shape != (n,):
            raise ValueError(
                f"model {self.model!r} takes {n} probabilities, got shape {probs.shape}"
            )
        if not np.all(np.isfinite(probs)):
            raise ValueError(f"non-finite probability: {probs}")
        if float(probs.min(initial=0.0)) < 0.0:
            raise ValueError(f"negative probability: {probs.min()}")
        if float(probs.sum()) > 1.0 + 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()} > 1")
        object.__setattr__(self, "probs", _read_only(probs))

    @property
    def identity_prob(self) -> float:
        return max(0.0, 1.0 - float(self.probs.sum()))


def build_mixture(params: MixtureParams) -> KrausChannel:
    """Kraus channel of a generator mixture.

    The channel applies generator a with probability p_a and the identity
    with the leftover probability; operators with zero probability are
    omitted.
    """
    ops: list[np.ndarray] = []
    p0 = params.identity_prob
    if p0 > 0.0:
        ops.append(np.sqrt(p0) * I2)
    for gen, p in zip(enumerate_generators(params.model), params.probs):
        if p > 0.0:
            ops.extend(np.sqrt(p) * k for k in gen.ops)
    return KrausChannel(tuple(ops))


@lru_cache(maxsize=None)
def generator_chis(model: str) -> np.ndarray:
    """Process matrices of the unit-probability generator channels,
    stacked in canonical order (shape (n, 4, 4))."""
    mats = [
        kraus_to_chi(KrausChannel(gen.ops)).matrix
        for gen in enumerate_generators(model)
    ]
    return _read_only(np.stack(mats))


@lru_cache(maxsize=None)
def generator_quadratics(model: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-generator (H, g, c) of the identity-fidelity integrand
    q_a(r) = r.H_a.r + 2 g_a.r + c_a (chi_fidelity_quadratic), read-only.

    Every generator's process-matrix entry lies on Z[i]/2, so the matrices
    are rounded onto it first: without the ulps of their Kraus route each
    integrand vanishes exactly where honesty at F_target = 0 needs it to.
    """
    exact = np.round(2.0 * generator_chis(model)) / 2.0
    return tuple(map(_read_only, chi_fidelity_quadratic(exact)))


def identity_fidelity_coefficients(model: str) -> np.ndarray:
    """Per-generator coefficients c_a of the identity average fidelity, the
    c of generator_quadratics: for a mixture with generator probabilities p
    it is F = p0 + sum_a c_a p_a with p0 = 1 - sum(p)."""
    return generator_quadratics(model)[2]


def mixture_chi(params: MixtureParams) -> ChiMatrix:
    """Process matrix of a mixture, computed through its linearity in the
    probabilities: chi(p) = (1 - sum p) chi_I + sum_a p_a chi_a."""
    chis = generator_chis(params.model)
    m = params.identity_prob * identity_chi().matrix
    m = m + np.tensordot(params.probs, chis, axes=1)
    return ChiMatrix(m)


def _sampling_table(params: MixtureParams) -> tuple[np.ndarray, np.ndarray]:
    gens = enumerate_generators(params.model)
    labels = np.array(["I"] + [g.label for g in gens])
    weights = np.concatenate(([params.identity_prob], params.probs))
    return labels, weights / weights.sum()


def sample_errors(params: MixtureParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw many error labels at once; "I" marks the no-error event."""
    labels, weights = _sampling_table(params)
    idx = rng.choice(len(labels), size=size, p=weights)
    return labels[idx]


def sample_error(params: MixtureParams, rng: np.random.Generator) -> ErrorSample:
    """Draw one error event from the mixture.

    Translations report the eigenstate that replaces the state; unitary
    errors and the identity report only their label.
    """
    label = str(sample_errors(params, rng, 1)[0])
    replacement = label[1:] if label.startswith("T|") else None
    return ErrorSample(label, replacement)
