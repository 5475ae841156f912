"""Constrained best approximation of a target channel by a catalog mixture.

Minimizes the normalized Hilbert-Schmidt distance between the target
process matrix and the mixture process matrix, subject to the honesty
constraint that the mixture's identity fidelity does not exceed the
target's (the approximation never underestimates the error), plus the
simplex bounds on the probabilities.

Both constraint kinds reduce to the same convex QP, ||m p - w||^2 over the
simplex with one linear honesty row, set up once per solve.

* "avg": the average fidelity is linear in the probabilities, so the
  honesty row is sum_a (1 - c_a) p_a >= 1 - F_target and one QP gives the
  global optimum.
* "worst": for a fixed input Bloch vector r (the witness) the fidelity
  integrand is linear in the probabilities, so honesty on r is the row
  sum_a (1 - q_a(r)) p_a >= 1 - F_target, with q_a(r) the integrand of
  generator a; the average row is the case r = 0.  The worst-case problem
  is the minimum over unit r of that QP.  It is solved by alternating
  descent from fixed start witnesses: p <- QP(r), then r <- the worst input
  of p.  The previous p stays feasible for the new row, so the distance
  never increases along a descent; the best descent wins.  A descent is
  fixed by its first row, so a start whose row repeats an earlier start's
  row is not descended again (without a measurement generator q_a(r) =
  q_a(-r), so r and -r share a row); restarts_used still counts all 15
  start witnesses.  A descent stops, counted as converged, when it stalls,
  when its next row is bitwise the row its last QP solved (a QP started at
  its own optimum returns it), or once its mixture's process matrix comes
  within 1e-4 (largest entry) of an earlier end's: the QP's process matrix
  is unique and fixes the next witness, so the descent could only find that
  end again.  iterations counts the QPs a descent solved.

Each answer is made honest on the row of its witness input (r = 0 under
"avg"): a fidelity on one input bounds the worst-case fidelity from above,
so the repair is linear and minimises no fidelity.

The target enters only through its process matrix (chi_fidelity_quadratic).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product

import numpy as np

from .catalog import (
    MixtureParams,
    enumerate_generators,
    generator_chis,
    generator_quadratics,
    identity_fidelity_coefficients,
    mixture_chi,
)
from .channels import ChiMatrix, KrausChannel, identity_chi, kraus_to_chi, validate_cptp
from .metrics import (
    CONSTRAINT_KINDS,
    chi_fidelity_quadratic,
    hs_distance,
    min_quadratic_form,
    worst_of_quadratic,
)

#: Probabilities below this threshold are treated as numerically zero when
#: reporting the support of a solution.
SUPPORT_THRESHOLD = 1e-6

_HONESTY_MARGIN_MAX = 1e-12  # largest roundoff margin _honest_probs tries

#: Fixed start witnesses of the worst-case descent: the 6 axis states and
#: the 8 cube diagonals.  Clifford conjugation permutes this set (and moves
#: the simplex-only start witness along with the target), so the answer is
#: Clifford covariant.
_START_WITNESSES = np.vstack(
    [np.eye(3), -np.eye(3), np.array(list(product((1.0, -1.0), repeat=3))) / np.sqrt(3.0)]
)
_DESCENT_MAX_QPS = 200  # QPs per start before a descent is cut off
_DESCENT_DISTANCE_STALL = 1e-15  # distance decrease of a stalled step
_DESCENT_WITNESS_STALL = 1e-9  # witness move of a stalled step
_DESCENT_END_MATCH = 1e-4  # chi gap (largest entry) at which a descent rejoins an end


class SolverError(RuntimeError):
    """Raised when no feasible solution could be located."""


@dataclass(frozen=True)
class ApproximationProblem:
    """Target process matrix, mixture model and constraint kind.

    Both constraints work from the process matrix alone.  target_kraus is
    accepted for callers that still pass a Kraus form, and ignored.
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _model_matrix(model: str) -> np.ndarray:
    """Columns vec(chi_a - chi_I) of the affine map p -> chi(p) - chi_I."""
    deltas = generator_chis(model) - identity_chi().matrix
    return _read_only(np.stack([_vec_real(d) for d in deltas], axis=1))


@lru_cache(maxsize=None)
def _gram(model: str) -> np.ndarray:
    """m^T m, the quadratic term of every QP on the model."""
    return _read_only(_model_matrix(model).T @ _model_matrix(model))


@lru_cache(maxsize=None)
def _constraint_rows(model: str) -> np.ndarray:
    """Rows -sum(p) >= -1 and the average honesty row 1 - c_a."""
    n = len(enumerate_generators(model))
    dvec = 1.0 - identity_fidelity_coefficients(model)
    return _read_only(np.vstack([-np.ones((1, n)), dvec]))


def _target_vector(target: ChiMatrix) -> np.ndarray:  # w of ||m p - w||^2
    return _vec_real(target.matrix - identity_chi().matrix)


def average_qp_data(target: ChiMatrix, model: str):
    """solve_lsq_qp's data (gram, mtw, rows, h, x0) of the average problem.

    x^T gram x - 2 mtw^T x is ||m x - w||^2 - ||w||^2, with ||m x - w||^2
    8 x the squared distance; rows encode sum(p) <= 1 and the honesty row
    sum_a (1 - c_a) p_a >= 1 - F_target.  gram and rows are shared per
    model and read-only.
    """
    m = _model_matrix(model)
    rows = _constraint_rows(model)
    n = m.shape[1]
    f_target = float(target.matrix[0, 0].real) / 2.0
    h = np.array([-1.0, 1.0 - f_target])
    x0 = np.zeros(n)
    if f_target < 1.0:
        x0[0] = 1.0 - f_target  # generator 0 is Pauli X with coefficient 0
    return _gram(model), m.T @ _target_vector(target), rows, h, x0


def _finish(
    problem: ApproximationProblem,
    probs: np.ndarray,
    f_target: float,
    f_model: float,
    converged: bool,
    iterations: int,
    restarts_used: int,
) -> ApproximationResult:
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


def _honest_probs(x: np.ndarray, row: np.ndarray, f_target: float):
    """(probs, f_model) from a QP solution, with probs >= 0, sum(probs) <= 1
    and f_model = 1 - row @ probs <= f_target exactly in floating point.

    row is the honesty row of a witness input (the average row is r = 0), so
    F = 1 - row @ p is the mixture's fidelity there, an upper bound on its
    worst-case fidelity.  The blend (1 - t) p + t e_a toward a = argmax(row),
    of fidelity F_a = 1 - row[a], lowers F to (1 - t) F + t F_a and keeps
    sum(p) <= 1.

    The QP meets the simplex and honesty rows only to within roundoff.  For
    a margin delta (0 first, then doubling from machine epsilon) the
    solution is shrunk by 1 - delta toward the identity and then blended
    toward e_a until F is f_target - delta.  A one-for-one shift onto a
    alone would break sum(p) <= 1 where the simplex row is tight too.  Where
    F - F_a is within the excess or the largest margin (a Pauli on a target
    of fidelity near 0) the blend weight t = excess / (F - F_a) would be of
    order 1; there the identity's weight moves onto a instead, which can
    lower F to F_a exactly.  Where roundoff in F or sum(p) defeats that, the
    next margin is tried, and only if every margin fails is p replaced by
    e_a.
    """
    a = int(np.argmax(row))
    f_a = 1.0 - float(row[a])
    base = np.clip(x, 0.0, None)
    delta = 0.0
    while delta <= _HONESTY_MARGIN_MAX:
        probs = (1.0 - delta) * base
        f_model = 1.0 - float(row @ probs)
        excess = f_model - f_target + delta
        if excess > 0.0:
            gap = f_model - f_a
            if gap > max(excess, _HONESTY_MARGIN_MAX):
                t = excess / gap
                probs *= 1.0 - t
                probs[a] += t
            elif f_model > f_target:
                probs[a] += max(1.0 - float(probs.sum()), 0.0)
            f_model = 1.0 - float(row @ probs)
        if f_model <= f_target and float(probs.sum()) <= 1.0:
            return probs, f_model
        delta = max(2.0 * delta, np.finfo(float).eps)
    if f_a > f_target:
        raise SolverError(
            f"no honest mixture within roundoff of the QP solution (f_target {f_target!r})"
        )
    return np.eye(base.size)[a], f_a  # e_a


def _solve_qp(gram, mtw, rows, h, x0):
    # Resolved at call time, so that a wrapper installed on
    # stabapprox.qp.solve_lsq_qp (the benchmark's tracer) sees every QP.
    from .qp import solve_lsq_qp

    res = solve_lsq_qp(gram, mtw, rows, h, x0)
    if not res.converged:
        raise SolverError(
            f"active-set QP did not converge (kkt residual {res.kkt_residual:.3e})"
        )
    return res


def _solve_average(problem: ApproximationProblem) -> ApproximationResult:
    gram, mtw, rows, h, x0 = average_qp_data(problem.target, problem.model)
    res = _solve_qp(gram, mtw, rows, h, x0)
    f_target = float(problem.target.matrix[0, 0].real) / 2.0
    probs, f_model = _honest_probs(res.x, rows[-1], f_target)
    return _finish(problem, probs, f_target, f_model, True, res.iterations, 0)


def _honesty_row(model: str, r: np.ndarray) -> np.ndarray:
    """1 - q_a(r), with q_a(r) each generator's fidelity integrand on the input r."""
    hs, gs, cs = generator_quadratics(model)
    return 1.0 - (hs @ r @ r + 2.0 * (gs @ r) + cs)


def _worst_input(model: str, p: np.ndarray) -> tuple[float, np.ndarray]:
    """(worst fidelity, witness Bloch vector) of the mixture with raw
    probabilities p."""
    hs, gs, cs = generator_quadratics(model)
    h = (p @ hs.reshape(p.size, 9)).reshape(3, 3)
    c = 1.0 - float(p.sum()) + float(p @ cs)
    return min_quadratic_form(h, p @ gs, c, domain="pure")


def _solve_worst(problem: ApproximationProblem) -> ApproximationResult:
    model = problem.model
    m, w = _model_matrix(model), _target_vector(problem.target)
    gram, mtw, avg_rows, h, _ = average_qp_data(problem.target, model)
    f_target = worst_of_quadratic(*chi_fidelity_quadratic(problem.target.matrix))[0]
    n = m.shape[1]
    h[-1] = 1.0 - f_target

    def objective(chi):  # distance squared of the mixture with process matrix chi
        return float(np.sum((chi - w) ** 2)) / 8.0

    def honest(p, row, *info):  # (distance, probs, f_row, *info) of p made honest on row
        probs, f_row = _honest_probs(p, row, f_target)
        return (objective(m @ probs), probs, f_row, *info)

    def finish(probs, f_row, *info):
        # Both values are the integrand at a unit input: the lower is the better minimum.
        f_model = max(min(_worst_input(model, probs)[0], f_row), 0.0)
        return _finish(problem, probs, f_target, f_model, *info)

    # The simplex-only optimum bounds every honest distance from below: if making it
    # honest on its worst input costs at most a stalled step, no descent can do better.
    p = _solve_qp(gram, mtw, avg_rows[:-1], h[:-1], np.zeros(n)).x
    _, r_free = _worst_input(model, p)
    row = _honesty_row(model, r_free)
    if row.max() >= h[-1]:  # else no mixture is honest on r_free
        distance, probs, f_row = honest(p, row)
        if distance - objective(m @ p) <= _DESCENT_DISTANCE_STALL:
            return finish(probs, f_row, True, 1, 0)

    rows = np.array(avg_rows)
    starts = np.vstack([r_free, _START_WITNESSES])
    ends, end_chis, first_rows = [], np.empty((0, m.shape[0])), []
    for r in starts:
        row = _honesty_row(model, r)
        # A descent is fixed by its first row (the stall test cannot pass at its
        # first QP), so a repeated row would repeat an end already in ends.
        if any(np.array_equal(row, seen) for seen in first_rows):
            continue
        first_rows.append(row)
        a = int(np.argmax(row))
        if row[a] < h[-1]:
            continue  # no mixture is honest on this input
        p = np.zeros(n)
        p[a] = h[-1] / row[a]
        prev = np.inf
        for qps in range(1, _DESCENT_MAX_QPS + 1):
            rows[-1] = row
            p = _solve_qp(gram, mtw, rows, h, p).x
            # The QP's chi is unique and fixes the next witness, so a descent
            # whose chi has come back to an earlier end's can only find that end.
            chi = m @ p
            converged = bool((np.abs(end_chis - chi).max(axis=1) <= _DESCENT_END_MATCH).any())
            if converged:
                break
            value = objective(chi)
            _, r_next = _worst_input(model, p)
            row = _honesty_row(model, r_next)
            # A stalled step ends the descent, and so does a repeated row: a QP
            # started from its own optimum returns that optimum.
            converged = np.array_equal(row, rows[-1]) or (
                prev - value <= _DESCENT_DISTANCE_STALL
                and float(np.abs(r_next - r).max()) <= _DESCENT_WITNESS_STALL
            )
            if converged:
                break
            r, prev = r_next, value
        end_chis = np.vstack([end_chis, chi])
        # Ends are compared once honest on their last QP's row, rows[-1]: an end
        # that meets it only to within roundoff can cost far more (ADC gamma = 1,
        # cc: 0.5 vs 0.25).
        ends.append(honest(p, rows[-1], qps, converged))
    if not ends:
        raise SolverError("no start witness admits an honest mixture")
    _, probs, f_row, qps, converged = min(ends, key=lambda end: end[0])
    return finish(probs, f_row, converged, qps, len(starts))


def solve(problem: ApproximationProblem) -> ApproximationResult:
    """Best honest approximation of the target by the requested mixture.

    The average path returns the global optimum of the underlying convex
    QP.  The worst-case path returns the best of the alternating descents
    over the witness input from a fixed set of start witnesses, where a
    start whose first honesty row repeats an earlier start's row is not
    descended again: its `iterations` are the QPs the winning descent
    solved, `restarts_used` the number of start witnesses, repeated rows
    included (0 when the simplex-only optimum is honest within a stalled
    step), and `converged` says whether the winning descent met its stopping
    rule before its QP budget ran out: it stalled, its next honesty row was
    the row its last QP solved, or its mixture's process matrix came within
    1e-4 of an earlier descent's end.  Both paths are
    deterministic and make each answer honest exactly on its witness row;
    under "worst", f_model is the lower of the fidelity on that row and the
    minimum over pure inputs.
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
    return _solve_worst(problem)


def _failure(model: str, constraint: str, exc: Exception) -> ApproximationResult:
    n = len(enumerate_generators(model))
    return ApproximationResult(
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


def solve_batch(
    targets: list[ChiMatrix | KrausChannel], models: list[str], constraint: str = "avg"
) -> list[ApproximationResult]:
    """Solve every (target, model) pair, target-major, collecting per-item
    failures as results with error set instead of aborting the batch.

    Targets are process matrices or Kraus channels; a Kraus channel is
    solved on its process matrix.
    """
    results: list[ApproximationResult] = []
    for target in targets:
        chi = kraus_to_chi(target) if isinstance(target, KrausChannel) else target
        for model in models:
            try:
                results.append(solve(ApproximationProblem(chi, model, constraint)))
            except (ValueError, SolverError) as exc:  # collected, batch continues
                results.append(_failure(model, constraint, exc))
    return results
