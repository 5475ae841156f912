"""Independent oracles shared by the test suite.

These deliberately avoid the code paths they are used to check: channel
action is evaluated by direct Kraus algebra, and the worst-case fidelity
is located by dense sampling of input states plus a local polish.
average_qp states the average problem's QP as the solver does, for tests
of the QP itself.
"""

import numpy as np
from scipy.optimize import minimize

from stabapprox import PAULIS, ApproximationProblem, solve
from stabapprox.approximate import _qp_data, _vertex_start


def average_qp(target, model: str):
    """(gram, mtw, rows, h, x0): the average problem's QP and its vertex start.
    f_target is the solver's own, so that its clipping is not restated."""
    f_target = solve(ApproximationProblem(target, model, "avg")).f_target
    gram, mtw, rows, h = _qp_data(target, model, f_target)
    return gram, mtw, rows, h, _vertex_start(rows[-1], h[-1])


def fibonacci_sphere(n: int) -> np.ndarray:
    """n roughly uniform points on the unit sphere, deterministic."""
    k = np.arange(n) + 0.5
    polar = np.arccos(1.0 - 2.0 * k / n)
    azimuth = np.pi * (1.0 + np.sqrt(5.0)) * k
    return np.stack(
        [
            np.sin(polar) * np.cos(azimuth),
            np.sin(polar) * np.sin(azimuth),
            np.cos(polar),
        ],
        axis=1,
    )


def overlap_sum(v: np.ndarray, ops, rs: np.ndarray) -> np.ndarray:
    """sum_i |Tr(V^dag K_i rho(r))|^2 for each Bloch vector row of rs."""
    vd = v.conj().T
    vals = np.zeros(len(rs))
    for k in ops:
        vk = vd @ k
        alpha = np.trace(vk) / 2.0
        beta = np.array([np.trace(vk @ s) for s in PAULIS[1:]]) / 2.0
        vals += np.abs(alpha + rs @ beta) ** 2
    return vals


def worst_fidelity_grid(v, ch, pure=True, n_dirs=4000, n_radii=5) -> float:
    """Grid + polish oracle for the worst-case fidelity.

    pure=True samples the sphere only; pure=False covers the closed ball
    with n_dirs * n_radii + 1 >= 10^4 points including the center.
    """
    dirs = fibonacci_sphere(n_dirs)
    if pure:
        rs = dirs
    else:
        radii = np.linspace(0.0, 1.0, n_radii + 1)[1:]
        rs = np.concatenate([np.zeros((1, 3))] + [dirs * rad for rad in radii])
    vals = overlap_sum(v, ch.ops, rs)
    i = int(np.argmin(vals))
    best_r, best = rs[i], float(vals[i])
    if pure:
        cons = [{"type": "eq", "fun": lambda r: float(r @ r) - 1.0}]
    else:
        cons = [{"type": "ineq", "fun": lambda r: 1.0 - float(r @ r)}]
    res = minimize(
        lambda r: float(overlap_sum(v, ch.ops, r[None, :])[0]),
        best_r,
        method="SLSQP",
        constraints=cons,
        options={"ftol": 1e-14, "maxiter": 300},
    )
    norm2 = float(res.x @ res.x)
    feasible = abs(norm2 - 1.0) < 1e-8 if pure else norm2 <= 1.0 + 1e-8
    if res.fun < best and feasible:
        best = float(res.fun)
    return best


def matrices_close(a: np.ndarray, b: np.ndarray, atol: float = 1e-10) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= atol)


def matches_mod_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> bool:
    """Whether two 2x2 unitaries agree up to a global phase."""
    return abs(abs(np.trace(a.conj().T @ b)) - 2.0) <= atol
