"""Primal active-set solver for small dense least-squares QPs.

Minimizes ||M x - w||^2 subject to G x >= h, following the primal
active-set method of Nocedal & Wright, *Numerical Optimization*, 2nd ed.,
ch. 16.

A row of G with a single nonzero entry is a variable bound; every other
row is a general row.  The working set holds bound rows, each of which
fixes its variable at the bound, and general rows, which are held with
equality.  Each iteration solves one least-squares system, the KKT system
of the equality-constrained step over the free variables F,

    [ M_F^T M_F   A^T ] [ d_F ]   [ M_F^T (w - M x) ]
    [     A        0  ] [ nu  ] = [        0        ],

where A holds the working general rows restricted to F.  The Gram matrix
M^T M may be singular, so the system is solved with np.linalg.lstsq; any
solution gives a minimizing step along the working set.  Where A is square
and nonsingular the step is 0, and only A^T nu = M_F^T (w - M x) is
solved.  A nonzero step is cut at the first blocking row, which joins the
working set.  At a zero step the multipliers decide: the general rows' are
-2 nu, the bound rows' follow from the gradient.  The row with the most
negative multiplier leaves the working set; when none is negative, x is a
KKT point and hence a global minimum (the problem is convex), which the
KKT residual certifies.
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
    active: tuple[int, ...]
    problem: tuple = field(repr=False, compare=False)  # (m, w, gmat, h) as solved

    @cached_property
    def kkt_residual(self) -> float:
        """KKT residual of x on the rows it was solved under, computed on first
        read: most callers never read it, and it costs one more lstsq."""
        return kkt_residual(*self.problem, self.x, list(self.active))


def kkt_residual(m, w, gmat, h, x, active: list[int]) -> float:
    grad = 2.0 * m.T @ (m @ x - w)
    if active:
        lam, *_ = np.linalg.lstsq(gmat[active].T, grad, rcond=None)
        stat = float(np.max(np.abs(grad - gmat[active].T @ lam)))
        comp = float(np.max(np.abs(lam * (gmat[active] @ x - h[active])), initial=0.0))
    else:
        stat = float(np.max(np.abs(grad), initial=0.0))
        comp = 0.0
    feas = float(np.max(h - gmat @ x, initial=0.0))
    return max(stat, comp, max(feas, 0.0))


def solve_lsq_qp(m, w, gmat, h, x0) -> QPResult:
    """Active-set minimization of ||M x - w||^2 over {x : G x >= h}.

    x0 must be feasible.  A blocking row always enters the working set
    linearly independent of it (g_i d < 0 while G_W d = 0), so only the
    initial working set is filtered.  Tight bound rows of distinct
    variables are independent; a tight general row is kept only if it
    raises the rank of the working general rows restricted to the free
    variables.
    """
    m = np.asarray(m, dtype=float)
    w = np.asarray(w, dtype=float)
    gmat = np.array(gmat, dtype=float)  # copies: the result keeps these rows
    h = np.array(h, dtype=float)
    x = np.array(x0, dtype=float)
    n = x.size

    slack = gmat @ x - h
    if float(slack.min(initial=0.0)) < -1e-9:
        raise ValueError(f"infeasible starting point, worst slack {slack.min():.3e}")
    nonzero = gmat != 0.0
    bound_var = np.where(nonzero.sum(axis=1) == 1, np.argmax(nonzero, axis=1), -1)
    gram = m.T @ m
    mtw = m.T @ w

    # fixed_by[j]: the working bound row that fixes variable j, or -1
    fixed_by = np.full(n, -1)
    work = np.zeros(len(h), dtype=bool)
    general: list[int] = []

    def enter(i: int) -> None:
        j = bound_var[i]
        if j >= 0:
            fixed_by[j] = i
            x[j] = h[i] / gmat[i, j]
        else:
            general.append(i)
        work[i] = True

    tight = np.flatnonzero(slack <= 1e-12)
    for i in tight:
        if bound_var[i] >= 0 and fixed_by[bound_var[i]] < 0:
            enter(i)
    free = fixed_by < 0
    for i in tight:
        if bound_var[i] < 0:
            trial = gmat[general + [i]][:, free]
            if np.linalg.matrix_rank(trial, tol=1e-12) == len(general) + 1:
                enter(i)

    for it in range(1, _MAX_ITER + 1):
        free = np.flatnonzero(fixed_by < 0)
        nf, ne = free.size, len(general)
        a = gmat[general][:, free]
        rhs = (mtw - gram @ x)[free]
        d = np.zeros(n)
        if ne >= nf:
            # Working rows of rank nf fix every free variable, so the step is 0.
            # The KKT system can be too ill conditioned to return that: lstsq
            # then gives roundoff steps the zero-step test never accepts.
            nu, _, rank, _ = np.linalg.lstsq(a.T, rhs, rcond=None)
        if ne < nf or rank < nf:
            kkt = np.zeros((nf + ne, nf + ne))
            kkt[:nf, :nf] = gram[free[:, None], free]
            kkt[:nf, nf:] = a.T
            kkt[nf:, :nf] = a
            sol, *_ = np.linalg.lstsq(kkt, np.concatenate([rhs, np.zeros(ne)]), rcond=None)
            d[free], nu = sol[:nf], sol[nf:]

        if np.abs(d).max() <= 1e-13 * max(1.0, np.abs(x).max()):
            if not work.any():
                return QPResult(x, it, True, (), (m, w, gmat, h))
            grad = 2.0 * (gram @ x - mtw)
            lam_general = -2.0 * nu
            fixed = np.flatnonzero(fixed_by >= 0)
            rows = fixed_by[fixed]
            lam_bound = (grad[fixed] - lam_general @ gmat[general][:, fixed]) / gmat[rows, fixed]
            lam = np.concatenate([lam_bound, lam_general])
            tol = 1e-11 * max(1.0, np.abs(grad).max())
            k = int(np.argmin(lam))
            if float(lam[k]) >= -tol:
                active = tuple(int(i) for i in np.flatnonzero(work))
                return QPResult(x, it, True, active, (m, w, gmat, h))
            if k < len(rows):
                fixed_by[fixed[k]] = -1
                work[rows[k]] = False
            else:
                work[general.pop(k - len(rows))] = False
            continue

        gd = gmat @ d
        candidates = np.flatnonzero(~work & (gd < -1e-14))
        alpha = 1.0
        blocker = None
        if candidates.size:
            steps = np.maximum(gmat[candidates] @ x - h[candidates], 0.0) / -gd[candidates]
            k = int(np.argmin(steps))
            if steps[k] < 1.0:
                alpha = float(steps[k])
                blocker = int(candidates[k])
        x += alpha * d
        if blocker is not None:
            enter(blocker)

    active = tuple(int(i) for i in np.flatnonzero(work))
    return QPResult(x, _MAX_ITER, False, active, (m, w, gmat, h))
