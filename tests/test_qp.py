import numpy as np
import pytest
from scipy.optimize import minimize

import stabapprox as sa
from stabapprox import qp
from stabapprox.approximate import (
    SolverError, _honesty_row, _model_data, _qp_data, _solve_qp, _vertex_start)
from stabapprox.qp import kkt_residual, solve_lsq_qp
from helpers import average_qp, fibonacci_sphere


def unit_target(model: str, label: str) -> sa.ChiMatrix:
    """Process matrix of one generator applied with probability 1."""
    labels = [g.label for g in sa.enumerate_generators(model)]
    probs = np.zeros(len(labels))
    probs[labels.index(label)] = 1.0
    return sa.mixture_chi(sa.MixtureParams(model, probs))


@pytest.mark.parametrize("model", sa.MODELS)
def test_identity_target_with_dependent_honesty_row(model):
    # x0 = 0: every bound is tight, and so is the honesty row, which then
    # depends on them; the start is already optimal.
    gram, mtw, rows, h, x0 = average_qp(sa.identity_chi(), model)
    assert not x0.any()
    res = solve_lsq_qp(gram, mtw, rows, h, x0)
    assert res.converged and res.iterations == 1
    assert res.kkt_residual <= 1e-12
    assert not res.x.any()
    assert res.active == tuple(range(len(x0)))


def test_working_rows_that_fix_every_free_variable_give_a_zero_step():
    # At the first descent QP of this cc target two nearly parallel working
    # rows (KKT condition number about 1e7) hold both free variables; lstsq
    # on the KKT system returned roundoff steps above the zero-step test
    # until the iteration budget ran out.
    chi = sa.random_chi_batch(sa.RandomChannelSpec(seed=4101071, count=1))[0]
    r = sa.solve(sa.ApproximationProblem(chi, "cc", "worst"))
    assert r.converged
    assert r.f_model <= r.f_target
    assert r.distance == pytest.approx(0.0574688, abs=1e-7)


@pytest.mark.parametrize(
    "model, label",
    [(model, "X") for model in sa.MODELS] + [("pmc", "T|0>"), ("cmc", "T|0>")],
)
def test_single_generator_target_is_reproduced(model, label):
    # The target lies in the model (distance 0); for X both general rows
    # are tight at the start and dependent on the free variable, and for
    # T|0> the optimum has the simplex and honesty rows both tight.
    result = sa.solve(sa.ApproximationProblem(unit_target(model, label), model, "avg"))
    assert result.distance == pytest.approx(0.0, abs=1e-12)
    assert [lab for lab, _ in result.support] == [label]
    assert result.f_model <= result.f_target
    assert float(result.params.probs.sum()) <= 1.0


def test_infeasible_start_is_rejected():
    target = sa.kraus_to_chi(sa.adc(sa.AdcSpec(0.25)))
    gram, mtw, rows, h, x0 = average_qp(target, "cmc")
    with pytest.raises(ValueError, match="infeasible"):
        solve_lsq_qp(gram, mtw, rows, h, np.zeros_like(x0))  # honesty row violated
    with pytest.raises(ValueError, match="infeasible"):
        solve_lsq_qp(gram, mtw, rows, h, np.full_like(x0, 0.5))  # sum(p) > 1
    negative = x0.copy()
    negative[0] += 0.1
    negative[1] = -0.05
    assert np.all(rows @ negative >= h)  # only the bound p_1 >= 0 is violated
    with pytest.raises(ValueError, match="infeasible"):
        solve_lsq_qp(gram, mtw, rows, h, negative)


@pytest.mark.parametrize("model", sa.MODELS)
def test_average_qp_of_a_roundoff_negative_chi00_starts_on_the_simplex(model):
    # A valid X flip whose chi_00 is a roundoff negative: the solver clips
    # its average f_target to 0, so the honesty bound is 1 and the vertex
    # start X is on the simplex and optimal.  From the unclipped chi_00 / 2
    # the bound was 1 + 2.5e-11, and the QP from a start 2.5e-11 outside the
    # simplex "converged" at KKT residual 2.5e-11.
    chi = sa.ChiMatrix(np.diag([-5e-11, 2.0 + 5e-11, 0.0, 0.0]))
    gram, mtw, rows, h, x0 = average_qp(chi, model)
    assert h.tolist() == [-1.0, 1.0]
    assert x0.tolist() == np.eye(x0.size)[0].tolist()
    res = solve_lsq_qp(gram, mtw, rows, h, x0)
    assert res.converged and res.kkt_residual <= 1e-15
    assert res.x.tolist() == x0.tolist()


def test_kkt_residual_is_computed_on_first_read_from_the_rows_solved():
    # The worst-case descent rewrites its honesty row in place after each
    # QP; a residual read afterwards must still be that of the rows solved.
    target = sa.kraus_to_chi(sa.adc(sa.AdcSpec(0.25)))
    gram, mtw, avg_rows, h, x0 = average_qp(target, "cmc")
    rows = np.array(avg_rows)
    res = solve_lsq_qp(gram, mtw, rows, h, x0)
    assert "kkt_residual" not in vars(res)
    rows[-1] = -rows[-1]
    assert res.kkt_residual <= 1e-12
    assert res.kkt_residual == kkt_residual(gram, mtw, avg_rows, h, res.x, list(res.active))


def test_kkt_residual_counts_negative_multipliers():
    # At the vertex start of the ADC gamma = 0.25 pc average QP, with the
    # honesty row and the bounds of x_1 and x_2 held, stationarity,
    # complementarity and feasibility hold to roundoff, but two bounds'
    # multipliers are negative: the vertex is no optimum.
    target = sa.kraus_to_chi(sa.adc(sa.AdcSpec(0.25)))
    gram, mtw, rows, h, x0 = average_qp(target, "pc")
    assert x0[0] > 0.0 and not x0[1:].any()
    res = solve_lsq_qp(gram, mtw, rows, h, x0)

    def objective(x):
        return float(x @ gram @ x - 2.0 * mtw @ x)

    assert objective(x0) > objective(res.x) + 0.03
    assert kkt_residual(gram, mtw, rows, h, x0, [1, 2, 4]) > 1.0
    assert res.kkt_residual <= 1e-12
    # A tuple, as QPResult.active is, names the same constraints as a list.
    for active in [(1, 2, 4), ()]:
        residual = kkt_residual(gram, mtw, rows, h, x0, active)
        assert residual == kkt_residual(gram, mtw, rows, h, x0, list(active))


def random_problem(rng):
    """(gram, mtw, rows, h, x0): a Gram matrix of rank 3-12 over 3-29
    variables, as the models' are (rank 3/6/9/12 over 3/9/23/29), the
    simplex row, a random honesty row and a feasible vertex start.  The
    target lies near the image of the model matrix, as a channel's does."""
    n = int(rng.integers(3, 30))
    m = rng.normal(size=(int(rng.integers(3, min(n, 12) + 1)), n))
    w = m @ rng.dirichlet(np.ones(n)) + 0.3 * rng.normal(size=m.shape[0])
    honesty = rng.random(n)
    a = int(np.argmax(honesty))
    rows = np.vstack([-np.ones(n), honesty])
    h = np.array([-1.0, rng.uniform(0.0, honesty[a])])
    x0 = np.zeros(n)
    x0[a] = h[1] / honesty[a]
    return m.T @ m, m.T @ w, rows, h, x0


def test_rank_deficient_problems_converge_to_the_reference_optimum():
    # Every solve must converge, certify its KKT point and do no worse than
    # SLSQP on the same problem.
    rng = np.random.default_rng(1107)
    for _ in range(60):
        gram, mtw, rows, h, x0 = random_problem(rng)
        res = solve_lsq_qp(gram, mtw, rows, h, x0)
        assert res.converged
        assert res.kkt_residual <= 1e-9
        ref = minimize(
            lambda x: float(x @ gram @ x - 2.0 * mtw @ x),
            x0,
            jac=lambda x: 2.0 * (gram @ x - mtw),
            method="SLSQP",
            bounds=[(0.0, None)] * x0.size,
            constraints=[{"type": "ineq", "fun": lambda x: rows @ x - h}],
            options={"maxiter": 500, "ftol": 1e-14},
        )
        x = res.x
        assert float(x @ gram @ x - 2.0 * mtw @ x) <= ref.fun + 1e-9


def objective(gram, mtw, x) -> float:
    return float(x @ gram @ x - 2.0 * mtw @ x)


def iterates_never_rise(monkeypatch, from_face: bool) -> None:
    """Cut the solves of 50 seeded draws after each iteration: the objective
    never rises beyond roundoff, and the working rows never outnumber the
    free variables (the invariant that lets a zero step solve for the
    multipliers by LU).  With from_face each solve starts on the optimal
    face of its problem with the honesty bound halved; a face start begins
    at its face's minimiser, which may lie above x0, so there the objective
    is followed from the first iterate on."""
    rng, budget = np.random.default_rng(3), qp._MAX_ITER
    for _ in range(50):
        gram, mtw, rows, h, x0 = random_problem(rng)
        n = x0.size
        face, before = None, objective(gram, mtw, x0)
        if from_face:
            face = solve_lsq_qp(gram, mtw, rows, h * [1.0, 0.5], 0.5 * x0).active
            before = np.inf
        for k in range(1, budget + 1):
            monkeypatch.setattr(qp, "_MAX_ITER", k)
            res = solve_lsq_qp(gram, mtw, rows, h, x0, face=face)
            after = objective(gram, mtw, res.x)
            assert after <= before + 1e-12 * max(1.0, abs(before)), k
            fixed = sum(c < n for c in res.active)
            assert sum(c >= n for c in res.active) <= n - fixed, k
            if res.converged:
                break
            before = after
        assert res.converged


def test_objective_never_rises_between_iterations(monkeypatch):
    iterates_never_rise(monkeypatch, from_face=False)


def test_objective_never_rises_between_iterations_from_a_face(monkeypatch):
    iterates_never_rise(monkeypatch, from_face=True)


def nth_random_problem(seed: int, draw: int):
    """The draw-th (from 1) problem random_problem draws from seed."""
    rng = np.random.default_rng(seed)
    for _ in range(draw - 1):
        random_problem(rng)
    return random_problem(rng)


def test_random_rank_deficient_problem_that_stalls_converges():
    # The second draw of seed 1 (29 variables, rank 12) ran out of
    # iterations with kkt residual 3.9e-10 while lstsq solved the KKT
    # system; with its LU solve it converges.
    res = solve_lsq_qp(*nth_random_problem(1, 2))
    assert res.converged
    assert res.kkt_residual <= 1e-9


def test_random_problem_whose_lu_step_raises_the_objective_converges():
    # Draw 141 of seed 2 (25 variables, rank 7, KKT condition number 6e4):
    # one LU step of its KKT system, singular to roundoff, raises the
    # objective.  Taken, such steps ran the iterations out; lstsq's step
    # replaces it.
    res = solve_lsq_qp(*nth_random_problem(2, 141))
    assert res.converged
    assert res.kkt_residual <= 1e-9


def test_witness_rows_near_a_cube_diagonal_converge():
    # pmc on this target with the honesty row of a witness near the cube
    # diagonal (1, -1, -1)/sqrt(3): the rows of T|0>, T|-> and T|+i> nearly
    # agree there, so the honesty row is nearly parallel to the simplex row.
    # The multipliers are about 65, and the KKT solve's roundoff steps of
    # 2.9e-13, above the absolute zero-step test, ran the iterations out.
    chi = sa.random_chi_batch(sa.RandomChannelSpec(2026, 20))[1]
    f_target = sa.metrics.worst_of_quadratic(*sa.metrics.chi_fidelity_quadratic(chi.matrix))[0]
    gram, mtw, rows, h = _qp_data(chi, "pmc", f_target)
    witness = fibonacci_sphere(400)[314]
    rng = np.random.default_rng(0)
    nearby = witness + 1e-3 * rng.standard_normal((200, 3))
    for k, r in enumerate([witness, *(nearby / np.linalg.norm(nearby, axis=1)[:, None])]):
        rows[-1] = _honesty_row("pmc", r)
        res = solve_lsq_qp(gram, mtw, rows, h, _vertex_start(rows[-1], h[-1]))
        assert res.converged, k
        assert res.kkt_residual <= 1e-11, k
        if k == 0:
            assert res.iterations <= 10


@pytest.mark.xfail(
    strict=True,
    reason="the squeezed honesty row 1 - 1e-6 row differs from minus the simplex row "
    "by 1e-6, so once both hold 4 free variables the KKT matrix is singular to "
    "roundoff (condition number 6e14): LU fails its residual check at every "
    "iteration, and lstsq's steps, as inaccurate, are full steps of about 1.6e-4 "
    "that lower the objective by about 1e-3 each, so the 400 iterations run out "
    "(ROADMAP item 1)",
)
def test_random_problem_with_a_squeezed_honesty_row_converges():
    # Draw 1 of seed 1 (15 variables, rank 8) with the honesty row replaced
    # by 1 - 1e-6 row, started at the vertex e_a where it and the simplex
    # row are both tight.  It ends at KKT residual 1.5 with its objective
    # still falling (0.84 at iteration 10, 0.52 at 400).
    gram, mtw, rows, h, _ = nth_random_problem(1, 1)
    rows[1] = 1.0 - 1e-6 * rows[1]
    a = int(np.argmax(rows[1]))
    h[1] = rows[1, a]
    x0 = np.eye(rows.shape[1])[a]
    res = solve_lsq_qp(gram, mtw, rows, h, x0)
    assert res.converged
    assert res.kkt_residual <= 1e-9


def test_equality_rows_as_pairs_never_raise_linalg_error():
    # A mixture's face M p = M p* given as the row pairs M and -M, as a
    # second stage on the optimal face would give it: the working rows that
    # fix every free variable are dependent by roundoff, and LU on them
    # raised LinAlgError, which solve_batch would file as an input failure.
    # lstsq takes over, and the solve ends feasible, though not converged.
    chi = sa.random_chi_batch(sa.RandomChannelSpec(31, 1))[0]
    p = sa.solve(sa.ApproximationProblem(chi, "pmc")).params.probs
    m = _model_data("pmc").m
    m = m[np.abs(m).any(axis=1)]
    assert m.shape[0] == 16
    rows = np.vstack([-np.ones(p.size), m, -m])
    h = np.concatenate([[-1.0], m @ p, -(m @ p)])
    problem = (np.eye(p.size), np.full(p.size, -500.0), rows, h, p)
    res = solve_lsq_qp(*problem)
    assert not res.converged
    assert res.x.min() >= 0.0 and (rows @ res.x - h).min() >= -1e-12
    with pytest.raises(SolverError, match="did not converge"):
        _solve_qp(*problem)


def same_solve(a, b) -> bool:
    """Bitwise the same result: x, iterations, converged and working set."""
    return (a.x.tobytes(), a.iterations, a.converged, a.active) == (
        b.x.tobytes(), b.iterations, b.converged, b.active)


def test_face_start_on_the_optimal_face_returns_after_one_iteration():
    # Re-solved from its own working set, a problem's face start is its
    # optimum: one LU solve, and the multiplier test passes at once.
    rng = np.random.default_rng(1107)
    for _ in range(60):
        problem = random_problem(rng)
        cold = solve_lsq_qp(*problem)
        warm = solve_lsq_qp(*problem, face=cold.active)
        assert warm.converged and warm.iterations == 1
        assert warm.active == cold.active
        assert np.abs(warm.x - cold.x).max() <= 1e-12


def test_face_start_on_an_ill_conditioned_optimal_face_keeps_its_rows():
    # Draw 14 of seed 46 (20 variables, rank 5): the cold solve ends with row
    # slacks (0, -4.4e-16) at KKT residual 6.3e-13.  Its own working set's
    # minimiser, from an LU solve that passes the residual test on a Gram
    # matrix of condition number 1e18, breaks the held honesty row by
    # 8.0e-14 and lies below the cold objective; that face is refused, and
    # the solve starts from x0.
    problem = nth_random_problem(46, 14)
    gram, mtw, rows, h, _ = problem
    cold = solve_lsq_qp(*problem)
    warm = solve_lsq_qp(*problem, face=cold.active)
    best = objective(gram, mtw, cold.x)
    assert abs(objective(gram, mtw, warm.x) - best) <= 1e-12 * abs(best)
    assert (rows @ warm.x - h).min() >= -1e-15


def test_face_start_after_a_honesty_row_change_reaches_the_cold_optimum():
    # The descent's case: the face of the last QP, with only the honesty
    # row changed.  The face start must certify the same optimum.
    rng = np.random.default_rng(5)
    solved = cold_its = warm_its = 0
    for _ in range(60):
        gram, mtw, rows, h, x0 = random_problem(rng)
        face = solve_lsq_qp(gram, mtw, rows, h, x0).active
        rows[1] *= rng.uniform(0.8, 1.2, size=x0.size)
        a = int(np.argmax(rows[1]))
        if h[1] > rows[1, a]:
            continue  # no vertex start for the new row
        x0 = np.eye(x0.size)[a] * (h[1] / rows[1, a])
        cold = solve_lsq_qp(gram, mtw, rows, h, x0)
        warm = solve_lsq_qp(gram, mtw, rows, h, x0, face=face)
        assert warm.converged
        assert warm.kkt_residual <= 1e-9
        best = objective(gram, mtw, cold.x)
        assert abs(objective(gram, mtw, warm.x) - best) <= 1e-12 * max(1.0, abs(best))
        cold_its, warm_its = cold_its + cold.iterations, warm_its + warm.iterations
        solved += 1
    assert solved >= 50
    assert warm_its < cold_its


def reaches_the_cold_optimum(problem, face, cold) -> None:
    """The solve from face converges to a feasible point whose objective is
    within 1e-12 (relative) of the cold solve's."""
    gram, mtw, rows, h, _ = problem
    warm = solve_lsq_qp(*problem, face=face)
    assert warm.converged
    assert min(warm.x.min(), (rows @ warm.x - h).min()) >= -1e-12
    best = objective(gram, mtw, cold.x)
    assert abs(objective(gram, mtw, warm.x) - best) <= 1e-12 * max(1.0, abs(best))


def test_unusable_face_starts_from_x0_as_without_a_face():
    # A face whose minimiser is infeasible (one free variable j with
    # b_j < 0, so x_j = b_j / G_jj < 0), or whose KKT system is singular
    # but solvable (no working set on a rank-deficient Gram matrix), is
    # repaired: its negative variables are fixed and its broken rows held
    # until the minimiser is feasible, or the solve starts from x0.  Either
    # way it reaches the cold optimum.
    rng = np.random.default_rng(1107)
    infeasible = singular = 0
    for _ in range(60):
        problem = random_problem(rng)
        gram, mtw, _, _, x0 = problem
        n = x0.size
        cold = solve_lsq_qp(*problem)
        negative = (mtw < 0.0).nonzero()[0]
        if negative.size:
            reaches_the_cold_optimum(problem, tuple(k for k in range(n) if k != negative[0]), cold)
            infeasible += 1
        if np.linalg.matrix_rank(gram) < n:
            reaches_the_cold_optimum(problem, (), cold)
            singular += 1
    assert infeasible >= 50 and singular >= 50
    # A face whose rows are dependent over its free variables, here both
    # saying sum(x) = 1 (more rows than free variables, or rank 1 of 2), is
    # not used either.  With h consistent with that dependency its singular
    # KKT system can pass the LU residual test, and entered with dependent
    # rows the loop raised LinAlgError (mtw = M^T 1, the first face).
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 3))
    rows, h = np.array([[-1.0, -1.0, -1.0], [0.3, 0.3, 0.3]]), np.array([-1.0, 0.3])
    for mtw in (m.T @ np.ones(5), m.T @ rng.standard_normal(5)):
        for x0 in np.eye(3):
            cold = solve_lsq_qp(m.T @ m, mtw, rows, h, x0)
            assert cold.converged
            for face in ((0, 1, 3, 4), (0, 3, 4)):
                assert same_solve(solve_lsq_qp(m.T @ m, mtw, rows, h, x0, face=face), cold)


def test_any_face_guess_reaches_the_cold_optimum():
    # Random subsets of the bounds and rows as the face: each start is
    # repaired to a feasible face or falls back to x0, and either way the
    # solve reaches the cold optimum.
    rng = np.random.default_rng(24)
    repaired = 0
    for _ in range(60):
        problem = random_problem(rng)
        gram, mtw, rows, h, x0 = problem
        n = x0.size
        cold = solve_lsq_qp(*problem)
        for _ in range(5):
            bounds = (rng.random(n) < rng.random()).nonzero()[0]
            face = tuple(bounds.tolist()) + tuple(n + i for i in range(2) if rng.random() < 0.5)
            start = qp._face_start(gram, mtw, rows, h, face)
            repaired += start is not None and int(start[1].sum()) > len(face)
            reaches_the_cold_optimum(problem, face, cold)
    assert repaired >= 100


def test_face_whose_minimiser_is_all_negative_ends():
    # Every entry of the empty face's minimiser G^-1 b = b is negative, so
    # the repair fixes every variable.  Where that minimiser also breaks the
    # honesty row, the grown face holds a row over no free variable and the
    # solve falls back to x0; where the row holds, the start is x = 0 with
    # every bound fixed, optimal since the gradient -2 b is positive.
    gram, mtw, rows = np.eye(3), np.array([-1.0, -2.0, -3.0]), np.array([[-1.0] * 3, [0.5, 1, 0.2]])
    h = np.array([-1.0, 0.4])
    x0 = np.array([0.0, 0.4, 0.0])
    assert qp._face_start(gram, mtw, rows, h, ()) is None
    assert same_solve(solve_lsq_qp(gram, mtw, rows, h, x0, face=()),
                      solve_lsq_qp(gram, mtw, rows, h, x0))
    h[1] = -4.0
    x, work, general, _ = qp._face_start(gram, mtw, rows, h, ())
    assert not x.any() and work.tolist() == [True] * 3 + [False] * 2 and general == []
    res = solve_lsq_qp(gram, mtw, rows, h, x0, face=())
    assert res.converged and res.iterations == 1 and not res.x.any()
