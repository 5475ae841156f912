"""Constrained best approximation of a target channel by a catalog mixture.

Minimizes the normalized Hilbert-Schmidt distance between the target
process matrix and the mixture process matrix, subject to the honesty
constraint that the mixture's identity fidelity does not exceed the
target's (the approximation never underestimates the error), plus the
simplex bounds on the probabilities.

Two constraint kinds are supported:

* "avg": the average fidelity is linear in the probabilities and the
  process matrix is affine in them, so the problem is a convex QP solved
  to global optimality with a dense active-set method.
* "worst": the worst-case fidelity is a minimum of quadratics, hence
  concave in the probabilities, and the feasible set is not convex.  A
  sequential quadratic solver is run from the average-constraint solution
  plus randomized feasible restarts, and the best feasible iterate wins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .catalog import (
    MixtureParams,
    enumerate_generators,
    generator_chis,
    identity_fidelity_coefficients,
    mixture_chi,
)
from .channels import I2, ChiMatrix, KrausChannel, identity_chi, validate_cptp
from .metrics import (
    CONSTRAINT_KINDS,
    fidelity_quadratic,
    hs_distance,
    min_quadratic_form,
    worst_fidelity,
)

#: Probabilities below this threshold are treated as numerically zero when
#: reporting the support of a solution.
SUPPORT_THRESHOLD = 1e-6

_FD_STEP = 1e-7  # central finite-difference step for worst-path gradients
_HONESTY_MARGIN_MAX = 1e-12  # largest roundoff margin _honest_probs tries


class SolverError(RuntimeError):
    """Raised when no feasible solution could be located."""


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call.  Only the
    worst-case path needs it, so the average path runs on numpy alone."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class ApproximationProblem:
    """Target channel, mixture model and constraint kind.

    The worst-case constraint needs the target in Kraus form; the average
    constraint works from the process matrix alone.
    """

    target: ChiMatrix
    model: str
    constraint: str = "avg"
    target_kraus: KrausChannel | None = None


@dataclass(frozen=True)
class ApproximationResult:
    model: str
    constraint: str
    params: MixtureParams
    distance: float
    f_target: float
    f_model: float
    support: tuple[tuple[str, float], ...]
    converged: bool
    iterations: int
    restarts_used: int
    error: str | None = None


def extract_support(
    result: ApproximationResult, threshold: float = SUPPORT_THRESHOLD
) -> list[tuple[str, float]]:
    """Generators carrying probability above threshold, largest first."""
    if threshold < 0.0:
        raise ValueError("threshold must be >= 0")
    gens = enumerate_generators(result.params.model)
    pairs = [
        (i, gen.label, float(p))
        for i, (gen, p) in enumerate(zip(gens, result.params.probs))
        if p > threshold
    ]
    pairs.sort(key=lambda t: (-t[2], t[0]))
    return [(label, p) for _, label, p in pairs]


def _vec_real(a: np.ndarray) -> np.ndarray:
    return np.concatenate([a.real.ravel(), a.imag.ravel()])


@lru_cache(maxsize=None)
def _model_matrix(model: str) -> np.ndarray:
    """Columns vec(chi_a - chi_I) of the affine map p -> chi(p) - chi_I."""
    deltas = generator_chis(model) - identity_chi().matrix
    return np.stack([_vec_real(d) for d in deltas], axis=1)


def average_qp_data(target: ChiMatrix, model: str):
    """QP data (m, w, gmat, h, x0) of the average-constraint problem.

    Objective ||m p - w||^2 equals 8 x the squared distance; the rows of
    gmat encode p >= 0, sum(p) <= 1 and the honesty constraint
    sum_a (1 - c_a) p_a >= 1 - F_target.
    """
    n = len(enumerate_generators(model))
    m = _model_matrix(model)
    w = _vec_real(target.matrix - identity_chi().matrix)
    f_target = float(target.matrix[0, 0].real) / 2.0
    dvec = 1.0 - identity_fidelity_coefficients(model)
    gmat = np.vstack([np.eye(n), -np.ones((1, n)), dvec])
    h = np.concatenate([np.zeros(n), [-1.0], [1.0 - f_target]])
    x0 = np.zeros(n)
    if f_target < 1.0:
        x0[0] = 1.0 - f_target  # generator 0 is Pauli X with coefficient 0
    return m, w, gmat, h, x0


def _finish(
    problem: ApproximationProblem,
    probs: np.ndarray,
    f_target: float,
    f_model: float,
    converged: bool,
    iterations: int,
    restarts_used: int,
) -> ApproximationResult:
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    total = float(probs.sum())
    if total > 1.0:
        probs = probs / total  # shave roundoff overshoot of the simplex
    params = MixtureParams(problem.model, probs)
    distance = hs_distance(problem.target, mixture_chi(params))
    result = ApproximationResult(
        model=problem.model,
        constraint=problem.constraint,
        params=params,
        distance=distance,
        f_target=f_target,
        f_model=f_model,
        support=(),
        converged=converged,
        iterations=iterations,
        restarts_used=restarts_used,
    )
    return replace(result, support=tuple(extract_support(result)))


def _honest_probs(x: np.ndarray, dvec: np.ndarray, f_target: float):
    """(probs, f_model) from a QP solution, with probs >= 0, sum(probs) <= 1
    and f_model = 1 - dvec @ probs <= f_target exactly in floating point.

    The QP meets the simplex and honesty rows only to within roundoff.  For
    a margin delta (0 first, then doubling from machine epsilon) the
    solution is shrunk by 1 - delta toward the identity and then blended
    toward the all-X vertex until f_model is f_target - delta.  Generator 0
    is Pauli X, whose fidelity coefficient is 0 in every model, so the
    blend (1 - t) p + t e_0 lowers f_model to (1 - t) f_model and keeps
    sum(p) <= 1.  A one-for-one shift onto X alone would break sum(p) <= 1
    where the simplex row is tight too.
    """
    base = np.clip(x, 0.0, None)
    delta = 0.0
    while delta <= _HONESTY_MARGIN_MAX:
        probs = (1.0 - delta) * base
        f_model = 1.0 - float(dvec @ probs)
        excess = f_model - f_target + delta
        if excess > 0.0:
            t = excess / f_model if f_model > excess else 1.0
            probs *= 1.0 - t
            probs[0] += t
            f_model = 1.0 - float(dvec @ probs)
        if f_model <= f_target and float(probs.sum()) <= 1.0:
            return probs, f_model
        delta = max(2.0 * delta, np.finfo(float).eps)
    raise SolverError(
        f"no honest mixture within roundoff of the QP solution (f_target {f_target!r})"
    )


def _solve_average(problem: ApproximationProblem, x0=None) -> ApproximationResult:
    from .qp import solve_lsq_qp

    m, w, gmat, h, default_x0 = average_qp_data(problem.target, problem.model)
    res = solve_lsq_qp(m, w, gmat, h, default_x0 if x0 is None else x0)
    if not res.converged:
        raise SolverError(
            f"active-set QP did not converge (kkt residual {res.kkt_residual:.3e})"
        )
    f_target = float(problem.target.matrix[0, 0].real) / 2.0
    dvec = 1.0 - identity_fidelity_coefficients(problem.model)
    probs, f_model = _honest_probs(res.x, dvec, f_target)
    return _finish(problem, probs, f_target, f_model, True, res.iterations, 0)


@lru_cache(maxsize=None)
def _generator_quadratics(model: str):
    """Per-generator (H, g, c) pieces of the identity-fidelity integrand."""
    hs, gs, cs = [], [], []
    for gen in enumerate_generators(model):
        h, g, c = fidelity_quadratic(I2, KrausChannel(gen.ops))
        hs.append(h)
        gs.append(g)
        cs.append(c)
    return np.stack(hs), np.stack(gs), np.array(cs)


def _worst_fidelity_of_probs(model: str, p: np.ndarray) -> float:
    """Worst-case identity fidelity of a mixture, as a function of the raw
    probability vector (no validation: the finite-difference gradient
    probes slightly outside the simplex)."""
    hs, gs, cs = _generator_quadratics(model)
    h = np.tensordot(p, hs, axes=1)
    g = p @ gs
    c = 1.0 - float(p.sum()) + float(p @ cs)
    return min_quadratic_form(h, g, c, domain="pure")[0]


def _feasible_blend(model: str, p: np.ndarray, f_cap: float) -> np.ndarray:
    """Blend p toward the all-X point until the worst fidelity drops to
    f_cap; the all-X channel has worst fidelity 0, so a blend always
    exists."""
    deep = np.zeros_like(p)
    deep[0] = 1.0
    if _worst_fidelity_of_probs(model, p) <= f_cap:
        return p
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        q = (1.0 - mid) * p + mid * deep
        if _worst_fidelity_of_probs(model, q) <= f_cap:
            hi = mid
        else:
            lo = mid
    return (1.0 - hi) * p + hi * deep


def _solve_worst(
    problem: ApproximationProblem, restarts: int, seed: int
) -> ApproximationResult:
    if problem.target_kraus is None:
        raise ValueError("the worst-case constraint needs the target in Kraus form")
    model = problem.model
    n = len(enumerate_generators(model))
    m, w, *_ = average_qp_data(problem.target, model)
    f_target = worst_fidelity(I2, problem.target_kraus)

    def objective(p):
        r = m @ p - w
        return float(r @ r) / 8.0

    def objective_grad(p):
        return 2.0 * (m.T @ (m @ p - w)) / 8.0

    def constraint_fun(p):
        return f_target - _worst_fidelity_of_probs(model, p)

    def constraint_grad(p):
        out = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = _FD_STEP
            out[i] = (
                _worst_fidelity_of_probs(model, p + e)
                - _worst_fidelity_of_probs(model, p - e)
            ) / (2.0 * _FD_STEP)
        return -out

    seeds: list[np.ndarray] = []
    avg = _solve_average(replace(problem, constraint="avg"))
    seeds.append(_feasible_blend(model, np.array(avg.params.probs), f_target))
    if model in ("cc", "cmc"):
        # the small-model optimum embedded in the larger catalog: the first
        # generators of cc/cmc are the pc ones, translations come last
        sub = "pc" if model == "cc" else "pmc"
        sub_res = solve(replace(problem, model=sub), restarts=max(4, restarts // 2), seed=seed)
        embedded = np.zeros(n)
        sub_probs = np.array(sub_res.params.probs)
        embedded[:3] = sub_probs[:3]
        if sub == "pmc":
            embedded[-6:] = sub_probs[3:]
        seeds.append(_feasible_blend(model, embedded, f_target))
    deep = np.zeros(n)
    deep[0] = min(1.0, max(1.0 - f_target, 0.25))
    seeds.append(_feasible_blend(model, deep, f_target))
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        p = rng.dirichlet(np.ones(n + 1))[:n]
        seeds.append(_feasible_blend(model, p, f_target))

    constraints = [
        {"type": "ineq", "fun": lambda p: 1.0 - float(p.sum()), "jac": lambda p: -np.ones(n)},
        {"type": "ineq", "fun": constraint_fun, "jac": constraint_grad},
    ]
    best = None
    best_nit = 0
    nearest_violation = np.inf
    for p0 in seeds:
        res = minimize(
            objective,
            p0,
            jac=objective_grad,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * n,
            constraints=constraints,
            options={"maxiter": 400, "ftol": 1e-12},
        )
        p = np.clip(res.x, 0.0, 1.0)
        if float(p.sum()) > 1.0:
            p = p / float(p.sum())
        violation = -constraint_fun(p)
        if violation > 1e-9:
            nearest_violation = min(nearest_violation, violation)
            continue
        val = objective(p)
        if best is None or val < best[0]:
            best = (val, p)
            best_nit = int(res.nit)
    if best is None:
        raise SolverError(
            "no feasible iterate found under the worst-case constraint "
            f"(best iterate violates it by {nearest_violation:.3e})"
        )

    p = best[1]
    f_model = _worst_fidelity_of_probs(model, p)
    if f_model > f_target + 1e-10:
        p = _feasible_blend(model, p, f_target + 1e-12)
        f_model = _worst_fidelity_of_probs(model, p)
    return _finish(problem, p, f_target, f_model, True, best_nit, len(seeds))


def solve(
    problem: ApproximationProblem, *, restarts: int = 20, seed: int = 0
) -> ApproximationResult:
    """Best honest approximation of the target by the requested mixture.

    The average path returns the global optimum of the underlying convex
    QP.  The worst-case path reports the best feasible local solution over
    the warm start plus `restarts` randomized feasible starting points;
    identical inputs always produce identical output.
    """
    if problem.constraint not in CONSTRAINT_KINDS:
        raise ValueError(
            f"constraint must be one of {CONSTRAINT_KINDS}, got {problem.constraint!r}"
        )
    violations = validate_cptp(problem.target)
    if violations:
        worst = max(violations, key=lambda v: v.magnitude)
        raise ValueError(
            f"target is not a valid CPTP process matrix: {worst.constraint} "
            f"violated by {worst.magnitude:.3e}"
        )
    if problem.constraint == "avg":
        return _solve_average(problem)
    return _solve_worst(problem, restarts, seed)


def solve_batch(
    targets: list[ChiMatrix],
    models: list[str],
    constraint: str = "avg",
    *,
    restarts: int = 20,
    seed: int = 0,
) -> list[ApproximationResult]:
    """Solve every (target, model) pair, target-major, collecting per-item
    failures as results with error set instead of aborting the batch.

    For the worst-case constraint each target is given the canonical Kraus
    decomposition of its process matrix (the fidelities do not depend on
    the choice of decomposition).
    """
    from .channels import chi_to_kraus

    results: list[ApproximationResult] = []
    for target in targets:
        kraus = None
        if constraint == "worst":
            try:
                kraus = chi_to_kraus(target)
            except ValueError:
                kraus = None
        for model in models:
            problem = ApproximationProblem(target, model, constraint, kraus)
            try:
                results.append(solve(problem, restarts=restarts, seed=seed))
            except (ValueError, SolverError) as exc:  # collected, batch continues
                n = len(enumerate_generators(model))
                results.append(
                    ApproximationResult(
                        model=model,
                        constraint=constraint,
                        params=MixtureParams(model, np.zeros(n)),
                        distance=float("nan"),
                        f_target=float("nan"),
                        f_model=float("nan"),
                        support=(),
                        converged=False,
                        iterations=0,
                        restarts_used=0,
                        error=str(exc),
                    )
                )
    return results
