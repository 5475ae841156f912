import numpy as np
import pytest
from scipy.optimize import minimize

import stabapprox as sa
from stabapprox.qp import kkt_residual, solve_lsq_qp


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
    gram, mtw, rows, h, x0 = sa.average_qp_data(sa.identity_chi(), model)
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
    gram, mtw, rows, h, x0 = sa.average_qp_data(target, "cmc")
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


def test_kkt_residual_is_computed_on_first_read_from_the_rows_solved():
    # The worst-case descent rewrites its honesty row in place after each
    # QP; a residual read afterwards must still be that of the rows solved.
    target = sa.kraus_to_chi(sa.adc(sa.AdcSpec(0.25)))
    gram, mtw, avg_rows, h, x0 = sa.average_qp_data(target, "cmc")
    rows = np.array(avg_rows)
    res = solve_lsq_qp(gram, mtw, rows, h, x0)
    assert "kkt_residual" not in vars(res)
    rows[-1] = -rows[-1]
    assert res.kkt_residual <= 1e-12
    assert res.kkt_residual == kkt_residual(gram, mtw, avg_rows, h, res.x, list(res.active))


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


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="open QP defect: steps where the reduced Gram matrix is singular",
)
def test_random_rank_deficient_problem_that_stalls_converges():
    # The second draw of seed 1 (29 variables, rank 12) runs out of
    # iterations with kkt residual 3.9e-10, as do 2 more of 1500 such draws.
    rng = np.random.default_rng(1)
    random_problem(rng)
    assert solve_lsq_qp(*random_problem(rng)).converged
