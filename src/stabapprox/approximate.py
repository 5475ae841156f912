"""Constrained best approximation of a target channel by a catalog mixture.

Minimizes the normalized Hilbert-Schmidt distance between the target
process matrix and the mixture process matrix, subject to the honesty
constraint that the mixture's identity fidelity does not exceed the
target's (the approximation never underestimates the error), plus the
simplex bounds on the probabilities.

Both constraint kinds reduce to the same convex QP, ||m p - w||^2 over the
simplex with one linear honesty row, set up once per solve by _qp_data (the
Gram matrix once per model) and solved by stabapprox.qp from the vertex
_vertex_start picks.

* "avg": the average fidelity is linear in the probabilities, so the
  honesty row is sum_a (1 - c_a) p_a >= 1 - F_target and one QP gives the
  global optimum.
* "worst": for a fixed input Bloch vector r (the witness) the fidelity
  integrand is linear in the probabilities, so honesty on r is the row
  sum_a (1 - q_a(r)) p_a >= 1 - F_target, with q_a(r) the integrand of
  generator a; the average row is the case r = 0.  The worst-case problem
  is the minimum over unit r of that QP.

Two facts about the fidelity forms q(r) = r.H.r + 2 g.r + c shorten the
worst case:

* Mixtures with g = 0 (every mixture on pc and cc, and those on pmc and
  cmc that give no translation weight).  On the unit sphere the form is
  c + r.H.r, least at the first eigenvector of H, which
  min_quadratic_form returns off its eigh with no secular equation.
* Axis-witnessed models (every g_a = 0 and every H_a diagonal, as on pc),
  decided once per model from generator_quadratics.  A mixture's fidelity
  on a unit r is c + sum_k H_kk r_k^2, a mean of the c + H_kk weighted by
  r_k^2, so it is least on an axis state.  The honest mixtures are then
  those honest on one of the three axis rows (+-e_k share a row), and the
  worst-case optimum is the best of those three convex QPs, a global
  optimum found without descent.

Every other model is solved by alternating descent from start witnesses:
p <- QP(r), then r <- the worst input of p.  The previous p stays feasible
for the new row, so the distance never increases along a descent; the best
descent wins.

* Starts.  If making the simplex-only optimum honest on its worst input
  costs at most 1e-15 in distance, no descent (and no axis QP) can do
  better and it is the one end.  Otherwise an axis-witnessed model's ends
  are its three axis QPs, each from its vertex start; the other models' are
  their descents, the first from that worst input, or 12 points of its
  worst inputs where those form a circle, the other 14 from the axis states
  and the cube diagonals.  Each end is made honest on its last QP's row and
  the least distance wins (the first on a tie).  A descent is fixed by its
  first row, so a start whose row repeats an earlier start's row, within
  the 1e-9 a descent's stop rule allows, is not descended again (without a
  measurement generator q_a(r) = q_a(-r), so r and -r share a row, which
  leaves at most 8 descents on cc).
* Faces.  Consecutive descent QPs differ only in their honesty row, so
  each starts on a face (stabapprox.qp): the simplex-only QP on the empty
  one, its unconstrained minimiser; a descent's first QP, and each axis
  QP, on the simplex-only optimum's working set plus the honesty row;
  every later QP on the working set of the QP before it.  Where a face's
  minimiser is infeasible, the QP grows the face by the bounds and rows
  that minimiser breaks until it is feasible.  Where that fails (a failed
  LU solve or dependent rows), the QP starts as before: from 0, the vertex
  start or the previous p.  The average QP takes no face.
* Stops.  A descent stops, counted as converged, once its next row is
  within 1e-9 (largest entry) of the row its last QP solved: a QP started
  at its own optimum returns it, so a descent never solves the same row
  twice in a row.  It also stops once its mixture's process matrix comes
  within 1e-4 (largest entry) of an earlier end's: the QP's process matrix
  is unique and fixes the next witness, so the descent could only find that
  end again.  From its third QP on, so does the limit Aitken's
  delta-squared process predicts from its last two steps, where the second
  is at most 0.9 times the first.  A descent that rejoins an end stops as
  that end did: converged is the end's.  A descent that meets no stop rule
  within 200 QPs is cut there, not converged.

Each answer is made honest on the row of its witness input (r = 0 under
"avg"): a fidelity on one input bounds the worst-case fidelity from above,
so the repair is linear and minimises no fidelity.

The target enters only through its process matrix (chi_fidelity_quadratic).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .catalog import (
    MixtureParams,
    enumerate_generators,
    generator_chis,
    generator_quadratics,
    mixture_chi,
)
from .channels import ChiMatrix, KrausChannel, identity_chi, kraus_to_chi, validate_cptp
from .channels import _read_only
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
_HONESTY_COST_MAX = 1e-15  # cost of honesty at which the simplex-only optimum is kept

#: Fixed start witnesses of the worst-case descent: the 6 axis states and
#: the 8 cube diagonals.  Clifford conjugation permutes this set (and moves
#: the simplex-only start witness along with the target), so the answer is
#: Clifford covariant.
_START_WITNESSES = np.vstack(
    [np.eye(3), -np.eye(3), np.array(list(product((1.0, -1.0), repeat=3))) / np.sqrt(3.0)]
)
_DESCENT_MAX_QPS = 200  # QPs per start before a descent is cut off
_DESCENT_ROW_STALL = 1e-9  # row change (largest entry) at which a descent stops
_DESCENT_END_MATCH = 1e-4  # chi gap (largest entry) at which a descent rejoins an end
_DESCENT_RATIO_MAX = 0.9  # largest step ratio from which a descent's limit is predicted


class SolverError(RuntimeError):
    """Raised when no feasible solution could be located."""


@dataclass(frozen=True)
class ApproximationProblem:
    """Target channel, mixture model and constraint kind.

    Both constraints work from the process matrix alone: a Kraus target is
    converted to it here, and any other target raises ValueError.
    target_kraus is accepted for callers that still pass a Kraus form, and
    ignored.
    """

    target: ChiMatrix | KrausChannel
    model: str
    constraint: str = "avg"
    target_kraus: KrausChannel | None = None

    def __post_init__(self) -> None:
        if isinstance(self.target, KrausChannel):
            object.__setattr__(self, "target", kraus_to_chi(self.target))
        elif not isinstance(self.target, ChiMatrix):
            raise ValueError(
                f"target must be a ChiMatrix or a KrausChannel, got {type(self.target).__name__}"
            )


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
    if not threshold >= 0.0:  # also rejects NaN
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    return _support(result.params, threshold)


def _support(params: MixtureParams, threshold: float) -> list[tuple[str, float]]:
    gens = enumerate_generators(params.model)
    pairs = [
        (i, gen.label, float(p))
        for i, (gen, p) in enumerate(zip(gens, params.probs))
        if p > threshold
    ]
    pairs.sort(key=lambda t: (-t[2], t[0]))
    return [(label, p) for _, label, p in pairs]


def _vec_real(a: np.ndarray) -> np.ndarray:
    return np.concatenate([a.real.ravel(), a.imag.ravel()])


def _target_vector(target: ChiMatrix) -> np.ndarray:  # w of ||m p - w||^2
    return _vec_real(target.matrix - identity_chi().matrix)


def _honesty_row(model: str, r: np.ndarray) -> np.ndarray:
    """1 - q_a(r), with q_a(r) each generator's fidelity integrand on the input r."""
    hs, gs, cs = generator_quadratics(model)
    return 1.0 - (hs @ r @ r + 2.0 * (gs @ r) + cs)


class _ModelData(NamedTuple):
    """What every solve on a model reads, read-only."""

    m: np.ndarray  # columns vec(chi_a - chi_I) of the affine map p -> chi(p) - chi_I
    gram: np.ndarray  # m^T m, the quadratic term of every QP on the model
    rows: np.ndarray  # honesty rows of r = 0 (row 0) and of the _START_WITNESSES (rows 1 on)
    # Whether every g_a is 0 and every H_a diagonal: then a mixture's
    # fidelity on a unit r is c + sum_k H_kk r_k^2, least on an axis state.
    axis_witnessed: bool


@lru_cache(maxsize=None)
def _model_data(model: str) -> _ModelData:
    deltas = generator_chis(model) - identity_chi().matrix
    m = _read_only(np.stack([_vec_real(d) for d in deltas], axis=1))
    inputs = np.vstack([np.zeros(3), _START_WITNESSES])
    rows = _read_only(np.stack([_honesty_row(model, r) for r in inputs]))
    hs, gs, _ = generator_quadratics(model)
    axis = not (gs.any() or (hs * (1.0 - np.eye(3))).any())
    return _ModelData(m, _read_only(m.T @ m), rows, axis)


def _qp_data(target: ChiMatrix, model: str, f_target: float):
    """solve_lsq_qp's data (gram, mtw, rows, h) for a target of fidelity f_target.

    x^T gram x - 2 mtw^T x is ||m x - w||^2 - ||w||^2, with ||m x - w||^2
    8 x the squared distance; rows encode sum(p) <= 1 and the honesty row of
    the input r = 0, sum_a (1 - c_a) p_a >= 1 - f_target, which the
    worst-case descent overwrites with each witness's row.  gram is shared
    per model and read-only; rows and h are fresh.
    """
    data = _model_data(model)
    rows = np.vstack([-np.ones(data.m.shape[1]), data.rows[0]])
    h = np.array([-1.0, 1.0 - f_target])
    return data.gram, data.m.T @ _target_vector(target), rows, h


def _vertex_start(row: np.ndarray, need: float) -> np.ndarray:
    """The feasible QP start row @ p >= need on the generator a = argmax(row)
    alone: p_a = need / row[a], and p = 0 where need <= 0."""
    a = int(np.argmax(row))
    p = np.zeros(row.size)
    p[a] = max(need, 0.0) / row[a]
    return p


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
    return ApproximationResult(
        model=problem.model,
        constraint=problem.constraint,
        params=params,
        distance=hs_distance(problem.target, mixture_chi(params)),
        f_target=f_target,
        f_model=f_model,
        support=tuple(_support(params, SUPPORT_THRESHOLD)),
        converged=converged,
        iterations=iterations,
        restarts_used=restarts_used,
    )


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
    F - F_a is within the excess or the largest margin the blend weight
    t = excess / (F - F_a) would be of order 1, and roundoff in F or sum(p)
    can defeat every margin.  Then p is completed on the least faithful
    generators (row = row[a]): its shares on them are scaled to sum at most
    1 and floored to multiples of 2^-52, so that every sum is exact, and the
    remainder goes to the largest.  Where row[a] is 1 (a target of fidelity
    near 0) row @ p is then 1 exactly.  Only if that fails too is p
    replaced by e_a.
    """
    a = int(np.argmax(row))
    f_a = 1.0 - float(row[a])
    base = np.clip(x, 0.0, None)
    delta = 0.0
    while delta <= _HONESTY_MARGIN_MAX:
        probs = (1.0 - delta) * base
        f_model = 1.0 - float(row @ probs)
        excess = f_model - f_target + delta
        gap = f_model - f_a
        if excess > 0.0 and gap > max(excess, _HONESTY_MARGIN_MAX):
            t = excess / gap
            probs *= 1.0 - t
            probs[a] += t
            f_model = 1.0 - float(row @ probs)
        if f_model <= f_target and float(probs.sum()) <= 1.0:
            return probs, f_model
        delta = max(2.0 * delta, np.finfo(float).eps)
    if f_a > f_target:
        raise SolverError(
            f"no honest mixture within roundoff of the QP solution (f_target {f_target!r})"
        )
    least = row == row[a]
    probs = np.where(least, base, 0.0)
    probs = np.floor(probs / max(float(probs.sum()), 1.0) * 2.0**52) / 2.0**52
    probs[np.argmax(np.where(least, probs, -1.0))] += 1.0 - float(probs.sum())
    f_model = 1.0 - float(row @ probs)
    if f_model <= f_target and float(probs.sum()) <= 1.0:
        return probs, f_model
    return np.eye(base.size)[a], f_a  # e_a


def _solve_qp(gram, mtw, rows, h, x0, face=None):
    # Resolved at call time, so that a wrapper installed on
    # stabapprox.qp.solve_lsq_qp (the benchmark's tracer) sees every QP.
    from .qp import solve_lsq_qp

    res = solve_lsq_qp(gram, mtw, rows, h, x0, face=face)
    if not res.converged:
        raise SolverError(
            f"active-set QP did not converge (kkt residual {res.kkt_residual:.3e})"
        )
    return res


def _solve_average(problem: ApproximationProblem) -> ApproximationResult:
    # Clipped to [0, 1] as the worst case's is: a valid target's chi_00 can be
    # a roundoff negative, and no mixture is honest below a fidelity of 0.
    f_target = min(max(float(chi_fidelity_quadratic(problem.target.matrix)[2]), 0.0), 1.0)
    gram, mtw, rows, h = _qp_data(problem.target, problem.model, f_target)
    res = _solve_qp(gram, mtw, rows, h, _vertex_start(rows[-1], h[-1]))
    probs, f_model = _honest_probs(res.x, rows[-1], f_target)
    return _finish(problem, probs, f_target, f_model, True, res.iterations, 0)


def _mixture_form(model: str, p: np.ndarray):
    """(H, g, c) of the fidelity integrand of the mixture with raw
    probabilities p.  Every H_a is symmetric, and so is H."""
    hs, gs, cs = generator_quadratics(model)
    h = (p @ hs.reshape(p.size, 9)).reshape(3, 3)
    return h, p @ gs, 1.0 - float(p.sum()) + float(p @ cs)


def _free_witnesses(model: str, p: np.ndarray) -> np.ndarray:
    """Worst inputs of the mixture with raw probabilities p to descend from:
    its witness or, where its worst inputs form a circle (its form is
    degenerate on a plane, as on symmetric targets), 12 points of it 30
    degrees apart, from the one nearest the first start witness off the
    plane's normal.  eigh's basis of the plane is roundoff, and descents from
    different points of the circle can end far apart."""
    h, g, c = _mixture_form(model, p)
    lam, q = np.linalg.eigh(h)
    b, r, plane = q.T @ g, min_quadratic_form(h, g, c)[1], q[:, :2]
    tol, rho = 1e-13 * max(1.0, np.abs(lam).max(), np.linalg.norm(b)), np.linalg.norm(r @ plane)
    if lam[1] - lam[0] > tol or np.abs(b[:2]).max() > tol or rho <= 1e-6:
        return r[None]
    x, y = next(s for s in _START_WITNESSES @ plane if np.hypot(*s) > 1e-6)
    phi = np.arctan2(y, x) + np.pi / 6 * np.arange(12)
    return r - plane @ (r @ plane) + rho * np.stack([np.cos(phi), np.sin(phi)], 1) @ plane.T


def _descent_limits(trail: list[np.ndarray]) -> list[np.ndarray]:
    """A descent's last chi and, where its last two steps shrink by a ratio
    of at most _DESCENT_RATIO_MAX (linear convergence), the limit Aitken's
    delta-squared process predicts, at most 9 last steps further on."""
    if len(trail) == 3:
        step = trail[-1] - trail[-2]
        s1, s0 = np.linalg.norm(step), np.linalg.norm(trail[-2] - trail[-3])
        if 0.0 < s1 <= _DESCENT_RATIO_MAX * s0:
            return [trail[-1], trail[-1] + step * (s1 / (s0 - s1))]
    return trail[-1:]


def _solve_worst(problem: ApproximationProblem) -> ApproximationResult:
    model, data = problem.model, _model_data(problem.model)
    m, w = data.m, _target_vector(problem.target)
    f_target = worst_of_quadratic(*chi_fidelity_quadratic(problem.target.matrix))[0]
    gram, mtw, rows, h = _qp_data(problem.target, model, f_target)

    def objective(chi):  # distance squared of the mixture with process matrix chi
        return float(np.sum((chi - w) ** 2)) / 8.0

    def solve_on(row, x0, face):  # the QP with honesty row row, which it leaves in rows
        rows[-1] = row
        return _solve_qp(gram, mtw, rows, h, x0, face)

    def end(p, row, qps, converged):  # (distance, probs, f_row, qps, converged), honest on row
        probs, f_row = _honest_probs(p, row, f_target)
        return (objective(m @ probs), probs, f_row, qps, converged)

    # The simplex-only optimum bounds every honest distance from below: if making it
    # honest on its worst input costs at most _HONESTY_COST_MAX, it is the one end.
    simplex = _solve_qp(gram, mtw, rows[:-1], h[:-1], np.zeros(m.shape[1]), ())
    p, ends, restarts = simplex.x, [], 1 + len(_START_WITNESSES)
    frees = _free_witnesses(model, p)
    row = _honesty_row(model, frees[0])
    if row.max() >= h[-1]:  # else no mixture is honest on that input
        kept = end(p, row, 1, True)
        if kept[0] - objective(m @ p) <= _HONESTY_COST_MAX:
            ends, restarts = [kept], 0
    # A descent's first QP, and each axis QP, starts on the simplex-only optimum's
    # face with the honesty row added.
    first_face, starts = simplex.active + (m.shape[1] + 1,), []
    if not ends and data.axis_witnessed:
        # Every mixture's worst input is an axis state (+-e_k share a row), so the
        # optimum is the best of the three axis rows' convex QPs.  Each admits an
        # honest mixture: its largest entry is 1, a Pauli's off its axis.
        for row in data.rows[1:4]:
            res = solve_on(row, _vertex_start(row, h[-1]), first_face)
            ends.append(end(res.x, row, 1, True))
    elif not ends:
        starts = [row] + [_honesty_row(model, r) for r in frees[1:]] + list(data.rows[1:])
    end_chis, first_rows = np.empty((0, m.shape[0])), np.empty((0, m.shape[1]))
    for row in starts:
        # A descent is fixed by its first row, so a repeated row would repeat
        # an end already in ends; rows within _DESCENT_ROW_STALL are the same
        # row to a descent.
        if (np.abs(first_rows - row).max(axis=1) <= _DESCENT_ROW_STALL).any():
            continue
        first_rows = np.vstack([first_rows, row])
        if row.max() < h[-1]:
            continue  # no mixture is honest on this input
        # Each QP after the first starts on the face its predecessor ended on.
        p, face, trail = _vertex_start(row, h[-1]), first_face, []
        for qps in range(1, _DESCENT_MAX_QPS + 1):
            res = solve_on(row, p, face)
            p, face = res.x, res.active
            # The QP's chi is unique and fixes the next witness, so a descent
            # whose chi has come back to an earlier end's can only find that
            # end; so, once it converges linearly, can one whose limit has.
            # A descent that rejoins an end stops as that end did.
            chi = m @ p
            trail = trail[-2:] + [chi]
            gaps = np.abs(end_chis[:, None] - _descent_limits(trail)).max(axis=-1)
            hit = (gaps <= _DESCENT_END_MATCH).any(axis=1)
            if hit.any():
                converged = ends[int(np.argmax(hit))][-1]
                break
            row = _honesty_row(model, min_quadratic_form(*_mixture_form(model, p))[1])
            # A QP started at its own optimum returns it, so the descent ends
            # once its row stops moving (a bitwise repeat has a gap of 0).
            converged = float(np.abs(row - rows[-1]).max()) <= _DESCENT_ROW_STALL
            if converged:
                break
        end_chis = np.vstack([end_chis, chi])
        # Ends are compared once honest on their last QP's row, rows[-1]: an end
        # that meets it only to within roundoff can cost far more (ADC gamma = 1,
        # cc: 0.5 vs 0.25).
        ends.append(end(p, rows[-1], qps, converged))
    # Not empty: the axis rows are among the starts, and each is descended.
    _, probs, f_row, qps, converged = min(ends, key=lambda e: e[0])  # the first on a tie
    # Both values are the integrand at a unit input: the lower is the better minimum.
    f_model = max(min(min_quadratic_form(*_mixture_form(model, probs))[0], f_row), 0.0)
    return _finish(problem, probs, f_target, f_model, converged, qps, restarts)


def _check_constraint(constraint: str) -> None:
    if constraint not in CONSTRAINT_KINDS:
        raise ValueError(f"constraint must be one of {CONSTRAINT_KINDS}, got {constraint!r}")


def solve(problem: ApproximationProblem) -> ApproximationResult:
    """Best honest approximation of the target by the requested mixture:
    under "avg" the global optimum of the convex QP, under "worst" the best
    of the three axis QPs on an axis-witnessed model (pc), again a global
    optimum, and else the best end of the descents the module docstring
    describes.  Deterministic, and f_model <= f_target holds exactly.

    distance is the normalized Hilbert-Schmidt distance to the target;
    f_target and f_model are the fidelities the constraint names, except
    that under "worst" f_model is the lower of the mixture's fidelity on its
    witness row and its minimum over pure inputs.  support lists the
    generators above SUPPORT_THRESHOLD, largest first.  iterations counts
    the QP's iterations under "avg" and the winning end's QPs under
    "worst": 1 for the kept simplex-only optimum and for an axis QP, else
    the winning descent's.  restarts_used is 0 under "avg" and where the
    simplex-only optimum is kept, else 15 (the start witnesses, a circle
    counted once and repeated rows included), also on an axis-witnessed
    model, whose three axis rows stand for them.  converged says whether
    the winning descent met a stop rule before its QP budget ran out; it is
    true under "avg" and for the two ends that run no descent.
    """
    _check_constraint(problem.constraint)
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
    solved on its process matrix.  An unknown model or constraint, or a
    single model name passed as models, is no per-item failure: it raises
    ValueError before the first solve.
    """
    if isinstance(models, str):
        raise ValueError(
            f"models must be a list of model names, got the string {models!r},"
            f" which reads as {list(models)}"
        )
    models = list(models)  # read once: an iterator would be used up by the check
    for model in models:  # raises ValueError on the first unknown model
        enumerate_generators(model)
    _check_constraint(constraint)
    results: list[ApproximationResult] = []
    for target in targets:
        for model in models:
            try:
                problem = ApproximationProblem(target, model, constraint)
                target = problem.target  # a Kraus target is converted once, not per model
                results.append(solve(problem))
            except (ValueError, SolverError) as exc:  # collected, batch continues
                results.append(_failure(model, constraint, exc))
    return results
