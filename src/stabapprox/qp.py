"""Primal active-set solver for small dense convex QPs over x >= 0.

Minimizes x^T G x - 2 b^T x subject to x >= 0 and R x >= h (Nocedal &
Wright, *Numerical Optimization*, 2nd ed., ch. 16), with G positive
semidefinite: for G = M^T M and b = M^T w it is ||M x - w||^2 - ||w||^2.

The bounds are implicit: a working bound fixes its variable at 0, and only
the rows of R (general rows) are held with equality.  Each iteration solves
one least-squares system, the KKT system of the step over the free
variables F,

    [ G_FF   A^T ] [ d_F ]   [ (b - G x)_F ]
    [  A      0  ] [ nu  ] = [      0      ],

with A the working rows restricted to F.  G may be singular, so lstsq
solves it; any solution is a minimizing step along the working set.  Where
A is square and nonsingular the step is 0 and only A^T nu = (b - G x)_F is
solved.  A nonzero step is cut at the first blocking bound or row, which
joins the working set.  At a zero step the rows' multipliers are -2 nu and
a fixed variable's is its gradient entry less the rows' part; the most
negative leaves the working set.  When none is negative, x is a KKT point
and hence a global minimum (the problem is convex), which the KKT residual
certifies.
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
        return kkt_residual(*self.problem, self.x, list(self.active))


def kkt_residual(gram, mtw, rows, h, x, active: list[int]) -> float:
    """Largest KKT violation at x; active lists j for x_j >= 0, n + i for row i."""
    cons = np.vstack([np.eye(x.size), rows])
    bound = np.concatenate([np.zeros(x.size), h])
    grad = 2.0 * (gram @ x - mtw)
    if active:
        lam, *_ = np.linalg.lstsq(cons[active].T, grad, rcond=None)
        stat = float(np.max(np.abs(grad - cons[active].T @ lam)))
        comp = float(np.max(np.abs(lam * (cons[active] @ x - bound[active])), initial=0.0))
    else:
        stat = float(np.max(np.abs(grad), initial=0.0))
        comp = 0.0
    feas = float(np.max(bound - cons @ x, initial=0.0))
    return max(stat, comp, max(feas, 0.0))


def solve_lsq_qp(gram, mtw, rows, h, x0) -> QPResult:
    """Active-set minimization of x^T G x - 2 b^T x over {x >= 0, R x >= h},
    with G = gram and b = mtw.

    x0 must be feasible.  A blocking bound or row always enters the working
    set linearly independent of it (it falls along d while the working set
    holds), so only the initial working set is filtered: every variable
    within 1e-12 of 0 is fixed, and a tight row is kept only if it raises
    the rank of the working rows restricted to the free variables.
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
    # lists the working rows in the order they entered.
    work = np.concatenate([x <= 1e-12, np.zeros(len(h), dtype=bool)])
    fixed = work[:n]
    x[fixed] = 0.0
    general: list[int] = []
    for i in (slack <= 1e-12).nonzero()[0]:
        trial = rows[general + [i]][:, ~fixed]
        if np.linalg.matrix_rank(trial, tol=1e-12) == len(general) + 1:
            general.append(int(i))
            work[n + i] = True

    for it in range(1, _MAX_ITER + 1):
        free = (~fixed).nonzero()[0]
        nf, ne = free.size, len(general)
        a = rows[general][:, free]
        descent = mtw - gram @ x  # minus half the gradient
        d = np.zeros(n)
        if ne >= nf:
            # Working rows of rank nf fix every free variable, so the step is 0.
            # The KKT system can be too ill conditioned to return that: lstsq
            # then gives roundoff steps the zero-step test never accepts.
            nu, _, rank, _ = np.linalg.lstsq(a.T, descent[free], rcond=None)
        if ne < nf or rank < nf:
            kkt = np.zeros((nf + ne, nf + ne))
            kkt[:nf, :nf] = gram[free[:, None], free]
            kkt[:nf, nf:] = a.T
            kkt[nf:, :nf] = a
            rhs = np.concatenate([descent[free], np.zeros(ne)])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            d[free], nu = sol[:nf], sol[nf:]

        if np.abs(d).max() <= 1e-13 * max(1.0, np.abs(x).max()):
            bounds = fixed.nonzero()[0]
            if not (bounds.size or ne):
                return QPResult(x, it, True, (), problem)
            grad = -2.0 * descent
            lam_rows = -2.0 * nu
            lam = np.concatenate([grad[bounds] - lam_rows @ rows[general][:, bounds], lam_rows])
            tol = 1e-11 * max(1.0, np.abs(grad).max())
            k = int(np.argmin(lam))
            if float(lam[k]) >= -tol:
                return QPResult(x, it, True, tuple(work.nonzero()[0].tolist()), problem)
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
