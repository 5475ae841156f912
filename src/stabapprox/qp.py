"""Primal active-set solver for small dense convex QPs over x >= 0.

Minimizes x^T G x - 2 b^T x subject to x >= 0 and R x >= h (Nocedal &
Wright, *Numerical Optimization*, 2nd ed., ch. 16), with G positive
semidefinite: for G = M^T M and b = M^T w it is ||M x - w||^2 - ||w||^2.

The bounds are implicit: a working bound fixes its variable at 0, and only
the rows of R (general rows) are held with equality.  Each iteration solves
one linear system, the KKT system of the step over the free variables F,

    [ G_FF   A^T ] [ d_F ]   [ (b - G x)_F ]
    [  A      0  ] [ nu  ] = [      0      ],

with A the working rows restricted to F, by LU (np.linalg.solve): lstsq
truncates small singular values, and its steps just above the zero-step
test stalled the method.  lstsq solves it where LU fails or is unsound: a
singular system (as at an interior start with G_FF singular), a residual
above 1e-10 relative to the right-hand side, or a nonzero step that raises
the objective.  A step is zero where its largest entry is at most
1e-13 max(1, |x|) or 1e-13 max|nu|: the KKT solve's roundoff grows with
its solution, and steps at that floor stalled the method on rows nearly
parallel to the simplex row.  A nonzero step is cut at the first blocking
bound or row, which joins the working set.  At a zero step the rows'
multipliers are -2 nu and a fixed variable's is its gradient entry less
the rows' part; the most negative leaves the working set.  When none is
negative (or there are none), x is a KKT point and hence a global minimum
(the problem is convex): the solve's one converged exit, which the KKT
residual certifies.

The rows of A stay linearly independent: a tight start row enters only if
it raises their rank; a blocking row only where the step d, in the null
space of A, falls along it (R_i d < -1e-14); and a bound only where
d_j < 0, so no combination of the rows of A vanishes off column j (it
would vanish on d).  So A has at most |F| rows, and at |F| it is square and
nonsingular: the step is 0, and LU solves A^T nu = (b - G x)_F in place of
the KKT system.  That holds in exact arithmetic only: rows dependent to
roundoff, as equality rows given as row pairs R and -R are, can make A^T
singular, and lstsq solves it then.

A solve may instead start on a face, a guessed working set (the worst-case
descent passes the one its last QP ended on).  One LU solve of the face's
KKT system,

    [ G_FF   A^T ] [ x_F ]   [ b_F ]
    [  A      0  ] [ nu  ] = [ h_W ],

held to the same 1e-10 residual test, gives the minimiser of the objective
on the face and its multipliers.  Where that minimiser is infeasible, the
face is repaired as in the inner loop of NNLS (Lawson & Hanson, *Solving
Least Squares Problems*, 1974): every free variable it drives negative is
fixed at 0, every idle row it breaks is held, and the grown face is solved
again, until its minimiser is feasible.  Each round holds at least one more
constraint, so the repair ends.  The solve then starts there, with the face
as its working set.  x minimises the face, so its step is 0 by construction:
the first iteration is the multiplier test on nu, with no KKT solve, and a
face that is still optimal returns after that one LU solve.  Where a round's
LU solve fails, the solve starts from x0 as above, and so it does where the
feasible minimiser breaks a held row i by more than roundoff,
1e-14 max(1, |h_i|): on a Gram matrix of condition number 1e18 LU can pass
its residual test with a minimiser that breaks its held row by 8e-14 and
lies below the optimum, and the loop, which never tests held rows, would
certify it.  The loop needs the face's rows independent, so a face whose
rows are dependent over its free variables (more rows than free
variables, or, on two or more rows, a least singular value at most 1e-12,
the start's rank test), as given or as grown, also starts
from x0, before its LU solve: their KKT matrix is singular, yet LU passes
the residual test where h_W satisfies the same dependency.  A lone row
that vanishes on the free variables makes the KKT matrix exactly
singular, which LU rejects.  A singular G_FF alone does no harm: the empty
face of cc's and cmc's rank-deficient Gram matrices can pass the test, and
a minimiser on a face is optimal there whatever G_FF's rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_MAX_ITER = 400  # active-set iterations before a solve counts as not converged


@dataclass(frozen=True)
class QPResult:
    x: np.ndarray
    iterations: int
    converged: bool
    active: tuple[int, ...]  # fixed variables j, then working rows i as n + i
    problem: tuple = field(repr=False, compare=False)  # (gram, mtw, rows, h) as solved

    @cached_property
    def kkt_residual(self) -> float:
        """KKT residual of x on the rows it was solved under, computed on first
        read: most callers never read it, and it costs one more lstsq."""
        return kkt_residual(*self.problem, self.x, self.active)


def kkt_residual(gram, mtw, rows, h, x, active) -> float:
    """Largest KKT violation at x (stationarity, complementarity, multiplier
    sign, feasibility); active lists j for x_j >= 0, n + i for row i."""
    active = list(active)  # as an index, a tuple would name one entry and () all
    cons = np.vstack([np.eye(x.size), rows])
    bound = np.concatenate([np.zeros(x.size), h])
    grad = 2.0 * (gram @ x - mtw)
    lam, *_ = np.linalg.lstsq(cons[active].T, grad, rcond=None)  # empty where active is
    stat = float(np.max(np.abs(grad - cons[active].T @ lam)))
    comp = float(np.max(np.abs(lam * (cons[active] @ x - bound[active])), initial=0.0))
    sign = float(np.max(-lam, initial=0.0))
    feas = float(np.max(bound - cons @ x, initial=0.0))
    return max(stat, comp, sign, feas)


def _kkt(gram, a, free):
    """The KKT matrix [[G_FF, A^T], [A, 0]] of working rows A over free variables F."""
    nf, ne = free.size, a.shape[0]
    kkt = np.zeros((nf + ne, nf + ne))
    kkt[:nf, :nf] = gram[free[:, None], free]
    kkt[:nf, nf:] = a.T
    kkt[nf:, :nf] = a
    return kkt


def _lu_solve(kkt, rhs):
    """kkt^-1 rhs by LU, or None where LU fails (a singular system, as at an
    interior start) or leaves a residual above 1e-10 relative to rhs."""
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    r = kkt @ sol - rhs  # norms as np.linalg.norm takes them, with less overhead
    return sol if np.sqrt(r.dot(r)) <= 1e-10 * np.sqrt(rhs.dot(rhs)) else None


def _face_start(gram, mtw, rows, h, face):
    """(x, work, general, nu) at the feasible minimiser x of x^T G x - 2 b^T x
    on the face (fixed variables j and rows n + i held with equality), or on
    the face it grows into, with nu its rows' multipliers in the loop's
    convention.  Where the minimiser is infeasible, every free variable it
    drives negative is fixed and every idle row it breaks is held, and the
    grown face is solved again.  None where the face's rows are dependent
    over its free variables, where _lu_solve fails on its KKT system, or
    where the feasible minimiser breaks a held row i by more than roundoff,
    1e-14 max(1, |h_i|): an ill-conditioned face's LU solve can pass its
    residual test with such a minimiser."""
    n = mtw.size
    work = np.zeros(n + len(h), dtype=bool)
    work[list(face)] = True
    general = [c - n for c in face if c >= n]
    while True:  # each round holds at least one more constraint
        free = (~work[:n]).nonzero()[0]
        a, ne = rows[general][:, free], len(general)
        # With ne <= |F|, rank(a) < ne exactly where its least singular value is at most
        # matrix_rank's tol.
        if ne > free.size or (ne > 1 and np.linalg.svd(a, compute_uv=False)[-1] <= 1e-12):
            return None
        sol = _lu_solve(_kkt(gram, a, free), np.concatenate([mtw[free], h[general]]))
        if sol is None:
            return None
        x = np.zeros(n)
        x[free] = sol[:free.size]
        slack = rows @ x - h
        negative = free[x[free] < 0.0]
        broken = ((slack < 0.0) & ~work[n:]).nonzero()[0]
        if not (negative.size or broken.size):
            if any(slack[i] < -1e-14 * max(1.0, abs(h[i])) for i in general):
                return None  # a held row broken beyond roundoff
            return x, work, general, sol[free.size:]
        work[negative] = True
        work[n + broken] = True
        general += broken.tolist()


def solve_lsq_qp(gram, mtw, rows, h, x0, face=None) -> QPResult:
    """Active-set minimization of x^T G x - 2 b^T x over {x >= 0, R x >= h},
    with G = gram and b = mtw.

    x0 must be feasible.  The start's working set holds every variable
    within 1e-12 of 0 and each tight row that raises the rank of the working
    rows restricted to the free variables; the module docstring says why the
    working rows stay independent from there on.

    face, a working set in QPResult.active's format, is a guess of the
    optimal one: the solve starts instead at the feasible minimiser of that
    face, grown by the bounds and rows its minimiser breaks until it has
    one, and from x0 where that repair fails (the module docstring has the
    rules).
    """
    gram, mtw = np.asarray(gram, dtype=float), np.asarray(mtw, dtype=float)
    rows = np.array(rows, dtype=float, ndmin=2)  # copies: the result keeps these rows
    h = np.array(h, dtype=float, ndmin=1)
    x = np.array(x0, dtype=float)
    n = x.size
    problem = (gram, mtw, rows, h)

    slack = rows @ x - h
    worst = min(float(x.min(initial=0.0)), float(slack.min(initial=0.0)))
    if worst < -1e-9:
        raise ValueError(f"infeasible starting point, worst slack {worst:.3e}")
    # work[j] fixes variable j at 0; work[n + i] holds row i, and general
    # lists the working rows in the order they entered.  face_nu holds the
    # face start's multipliers for its first iteration.
    start = None if face is None else _face_start(gram, mtw, rows, h, face)
    if start is None:
        work = np.concatenate([x <= 1e-12, np.zeros(len(h), dtype=bool)])
        x[work[:n]] = 0.0
        general: list[int] = []
        for i in (slack <= 1e-12).nonzero()[0]:
            trial = rows[general + [i]][:, ~work[:n]]
            if np.linalg.matrix_rank(trial, tol=1e-12) == len(general) + 1:
                general.append(int(i))
                work[n + i] = True
        face_nu = None
    else:
        x, work, general, face_nu = start
    fixed = work[:n]

    for it in range(1, _MAX_ITER + 1):
        descent = mtw - gram @ x  # minus half the gradient
        # d is None where the step is 0: x minimises the face start's working set,
        # or the step fails the zero-step test.
        if face_nu is not None:
            d, nu, face_nu = None, face_nu, None
        else:
            free = (~fixed).nonzero()[0]
            nf, ne = free.size, len(general)
            a = rows[general][:, free]
            d, zero = np.zeros(n), 1e-13 * max(1.0, np.abs(x).max())  # zero-step test
            if ne >= nf:
                # ne == nf: the working rows fix every free variable and the step
                # is 0, which an ill-conditioned KKT system can miss by roundoff.
                try:
                    nu = np.linalg.solve(a.T, descent[free])
                except np.linalg.LinAlgError:  # rows dependent by roundoff
                    nu, *_ = np.linalg.lstsq(a.T, descent[free], rcond=None)
            else:
                kkt = _kkt(gram, a, free)
                rhs = np.concatenate([descent[free], np.zeros(ne)])
                sol = _lu_solve(kkt, rhs)
                sound = sol is not None and (
                    descent[free] @ sol[:nf] > 0.0 or np.abs(sol[:nf]).max() <= zero)
                if not sound:
                    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
                d[free], nu = sol[:nf], sol[nf:]
            step = np.abs(d).max()  # nu's scale is read only where the step would be taken
            if step <= zero or step <= 1e-13 * np.abs(nu).max(initial=0.0):
                d = None

        if d is None:
            bounds = fixed.nonzero()[0]
            grad = -2.0 * descent
            lam_rows = -2.0 * nu
            lam = np.concatenate([grad[bounds] - lam_rows @ rows[general][:, bounds], lam_rows])
            tol = 1e-11 * max(1.0, np.abs(grad).max())
            if float(lam.min(initial=0.0)) >= -tol:  # also an empty working set
                return QPResult(x, it, True, tuple(work.nonzero()[0].tolist()), problem)
            k = int(np.argmin(lam))
            work[bounds[k] if k < bounds.size else n + general.pop(k - bounds.size)] = False
            continue

        # Ratio test over the falling free variables, then the inactive rows
        # (on a tie the first wins, so bounds win over rows), then a full step.
        falling = (d < -1e-14).nonzero()[0]  # d is 0 on fixed variables
        rd = rows @ d
        blocking = (~work[n:] & (rd < -1e-14)).nonzero()[0]
        steps = np.concatenate([
            np.maximum(x[falling], 0.0) / -d[falling],
            np.maximum(rows[blocking] @ x - h[blocking], 0.0) / -rd[blocking],
            [1.0],
        ])
        k = int(np.argmin(steps))
        if steps[k] >= 1.0:
            x += d
            continue
        x += float(steps[k]) * d
        c = int(np.concatenate([falling, n + blocking])[k])
        work[c] = True
        if c < n:
            x[c] = 0.0
        else:
            general.append(c - n)

    return QPResult(x, _MAX_ITER, False, tuple(work.nonzero()[0].tolist()), problem)
