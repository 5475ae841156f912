import numpy as np
import pytest

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
    # x0 = 0: every bound row is tight, and so is the honesty row, which
    # then depends on them; the start is already optimal.
    m, w, gmat, h, x0 = sa.average_qp_data(sa.identity_chi(), model)
    assert not x0.any()
    res = solve_lsq_qp(m, w, gmat, h, x0)
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
    m, w, gmat, h, x0 = sa.average_qp_data(target, "cmc")
    with pytest.raises(ValueError, match="infeasible"):
        solve_lsq_qp(m, w, gmat, h, np.zeros_like(x0))  # honesty row violated
    with pytest.raises(ValueError, match="infeasible"):
        solve_lsq_qp(m, w, gmat, h, np.full_like(x0, 0.5))  # sum(p) > 1


def test_kkt_residual_is_computed_on_first_read_from_the_rows_solved():
    # The worst-case descent rewrites its honesty row in place after each
    # QP; a residual read afterwards must still be that of the rows solved.
    target = sa.kraus_to_chi(sa.adc(sa.AdcSpec(0.25)))
    m, w, rows, h, x0 = sa.average_qp_data(target, "cmc")
    gmat = np.array(rows)
    res = solve_lsq_qp(m, w, gmat, h, x0)
    assert "kkt_residual" not in vars(res)
    gmat[-1] = -gmat[-1]
    assert res.kkt_residual <= 1e-12
    assert res.kkt_residual == kkt_residual(m, w, rows, h, res.x, list(res.active))
