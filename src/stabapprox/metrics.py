"""Distance and fidelity functionals on one-qubit channels.

Distances and fidelities are read off process matrices.  For an input
state with Bloch vector r the fidelity integrand sum_i |Tr(V^dag K_i rho)|^2
is a convex quadratic form in r, so the inner minimization behind the
worst-case fidelity is solved exactly (eigendecomposition plus a
one-dimensional secular equation, solved by Newton's method) rather than
by sampling.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import ATOL, ChiMatrix, KrausChannel, operators_chi

CONSTRAINT_KINDS = ("avg", "worst")

#: Domains for the worst-case input minimization: pure states (the Bloch
#: sphere) or all density matrices (the closed Bloch ball).
WORST_DOMAINS = ("pure", "mixed")

_NEWTON_MAX_STEPS = 60  # secular-equation steps; 3000 random forms took at most 10


def hs_distance(a: ChiMatrix, b: ChiMatrix) -> float:
    """Normalized Hilbert-Schmidt distance ||a - b||_F^2 / 8.

    Ranges from 0 for identical channels to 1 for orthogonal ones (the
    normalization 1/(2 N^2) with N = 2 for a single qubit).
    """
    d = a.matrix - b.matrix
    return float(np.sum(np.abs(d) ** 2)) / 8.0


def _check_unitary(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (2, 2):
        raise ValueError(f"reference operator must be 2x2, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("reference operator has non-finite entries")
    if np.max(np.abs(v.conj().T @ v - np.eye(2))) > ATOL:
        raise ValueError("reference operator is not unitary")
    return v


def chi_fidelity_quadratic(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, g, c) of the identity-fidelity integrand sum_i |Tr(K_i rho(r))|^2
    = r.H.r + 2 g.r + c, for Hermitian process matrices chi (..., 4, 4).

    In the basis B = (I, X, Y, Z)/sqrt(2), Tr(B_m rho(r)) = (1, r)_m/sqrt(2),
    so the integrand is (1, r).Re(chi).(1, r)/2: H = Re chi[1:, 1:]/2,
    g = Re chi[0, 1:]/2 and c = Re chi[0, 0]/2.
    """
    half = np.asarray(chi).real / 2.0
    return half[..., 1:, 1:], half[..., 0, 1:], half[..., 0, 0]


def fidelity_quadratic(
    v: np.ndarray, ch: KrausChannel
) -> tuple[np.ndarray, np.ndarray, float]:
    """Coefficients (H, g, c) of sum_i |Tr(V^dag K_i rho(r))|^2 as the
    quadratic form r.H.r + 2 g.r + c in the Bloch vector r, read off the
    process matrix of the operators V^dag K_i.

    H is real symmetric positive semidefinite and g lies in its range, so
    the form is bounded below and its constrained minima are well posed.
    """
    vd = _check_unitary(v).conj().T  # V^dag K_i need not be a channel within ATOL
    h, g, c = chi_fidelity_quadratic(operators_chi(vd @ k for k in ch.ops))
    return h, g, float(c)


def avg_fidelity(v: np.ndarray, ch: KrausChannel) -> float:
    """Average fidelity (1/4) sum_i |Tr(V^dag K_i)|^2 of a channel against
    a unitary V: the constant c of fidelity_quadratic, the integrand at the
    maximally mixed input.  Equals 1 exactly when the channel applies V."""
    return min(max(fidelity_quadratic(v, ch)[2], 0.0), 1.0)


def _sphere_argmin(lam: np.ndarray, b: np.ndarray, ball: bool = False) -> np.ndarray:
    """Global minimizer of sum lam_j u_j^2 + 2 b.u on the unit sphere, or
    on the closed unit ball when ball is true.

    lam must be ascending (eigh output).  The minimizer solves
    u = -(lam + mu)^{-1} b with lam + mu >= 0 and ||u|| = 1; on the ball
    also mu >= 0, and ||u|| <= 1 where mu = 0 (More & Sorensen, "Computing
    a trust region step", 1983).  The least multiplier is mu = -lam[0], or
    on the ball 0 unless lam[0] < 0.  When b has no component where
    lam + mu vanishes there and the rest of u fits, u is padded inside
    that eigenspace onto the sphere, except on the ball at mu = 0.

    Otherwise mu is found by Newton's method on 1/||u(mu)|| - 1, which is
    concave and increasing, in the shift s = mu + lam[0] >= 0.
    ||u|| >= ||b_{0..k}||/(lam_k + mu) for every k, so the start
    s = max_k ||b_{0..k}|| - (lam_k - lam[0]) lies left of the root and the
    iterates rise to it.  Components with b_j = 0 drop out of ||u||; the
    start keeps every other term finite.
    """
    lam0 = lam[0]
    scale = max(1.0, float(np.max(np.abs(lam))), float(np.linalg.norm(b)))
    tol = 1e-13 * scale
    onto_sphere = not ball or lam0 < -tol
    shifted = lam + (-lam0 if onto_sphere else 0.0)
    bottom = shifted <= tol

    if float(np.max(np.abs(b[bottom]), initial=0.0)) <= tol:
        u = np.zeros(3)
        rest = ~bottom
        u[rest] = -b[rest] / shifted[rest]
        n2 = float(u @ u)
        if n2 <= 1.0:
            if onto_sphere:
                u[int(np.argmax(bottom))] = np.sqrt(1.0 - n2)
            return u

    gap = lam - lam0
    s = max(float(np.max(np.sqrt(np.cumsum(b * b)) - gap)), 0.0)
    live = b != 0.0
    bl, gl = b[live], gap[live]
    for _ in range(_NEWTON_MAX_STEPS):
        v = bl / (gl + s)
        n2 = float(v @ v)
        step = (np.sqrt(n2) - 1.0) * n2 / float(v @ (v / (gl + s)))
        if not s + step > s:  # at the root to roundoff
            break
        s += step
    u = np.zeros(3)
    u[live] = -bl / (gl + s)
    return u / float(np.linalg.norm(u))


def min_quadratic_form(
    h: np.ndarray, g: np.ndarray, c: float, *, domain: str = "pure"
) -> tuple[float, np.ndarray]:
    """Minimize r.H.r + 2 g.r + c over Bloch vectors.

    domain="pure" restricts to the unit sphere, domain="mixed" searches the
    closed unit ball.  Returns (minimum value, minimizing Bloch vector); on
    the sphere with g = 0 the minimizer is eigh's first eigenvector of H.
    Both domains take the trust-region step of one rule, for any symmetric
    H, so the mixed minimum is never above the pure one.
    Raises ValueError unless H is 3x3, g a 3-vector and every entry finite.
    """
    if domain not in WORST_DOMAINS:
        raise ValueError(f"domain must be one of {WORST_DOMAINS}, got {domain!r}")
    h, g = np.asarray(h, dtype=float), np.asarray(g, dtype=float)
    if h.shape != (3, 3) or g.shape != (3,):
        raise ValueError(f"H must be 3x3 and g a 3-vector, got shapes {h.shape} and {g.shape}")
    # One test for every entry: this is the worst case's hot path.
    if not (np.isfinite(np.concatenate((h.ravel(), g))).all() and math.isfinite(c)):
        raise ValueError("quadratic form has non-finite entries")
    h = (h + h.T) / 2.0
    lam, q = np.linalg.eigh(h)
    if domain == "pure" and not np.count_nonzero(g):
        r = q[:, 0]
        return float(c + r @ h @ r), r
    r = q @ _sphere_argmin(lam, q.T @ g, ball=domain == "mixed")
    value = float(r @ h @ r + 2.0 * (g @ r) + c)
    return value, r


def worst_of_quadratic(h, g, c, *, domain: str = "pure") -> tuple[float, np.ndarray]:
    """Worst-case fidelity of the integrand r.H.r + 2 g.r + c, clipped to
    [0, 1], together with the minimizing input Bloch vector."""
    value, r = min_quadratic_form(h, g, c, domain=domain)
    return min(max(value, 0.0), 1.0), r


def worst_fidelity_point(
    v: np.ndarray, ch: KrausChannel, *, domain: str = "pure"
) -> tuple[float, np.ndarray]:
    """Worst-case fidelity together with the minimizing input Bloch vector."""
    return worst_of_quadratic(*fidelity_quadratic(v, ch), domain=domain)


def worst_fidelity(v: np.ndarray, ch: KrausChannel, *, domain: str = "pure") -> float:
    """Worst-case fidelity: min over inputs of sum_i |Tr(V^dag K_i rho)|^2.

    By default the minimum runs over pure inputs (the Bloch sphere).  The
    integrand is convex in rho and equals avg_fidelity at the maximally
    mixed state, so extending the domain to all density matrices
    (domain="mixed") can only lower the value; both variants are exposed.
    Note that this functional is the state-wise version of the average
    fidelity sum, not the Uhlmann worst-case state fidelity.
    """
    return worst_fidelity_point(v, ch, domain=domain)[0]
