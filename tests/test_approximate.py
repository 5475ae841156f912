import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import stabapprox as sa
from stabapprox.approximate import _honest_probs, _honesty_row, _qp_data, _vertex_start
from stabapprox.qp import solve_lsq_qp
from helpers import average_qp, fibonacci_sphere


def adc_problem(gamma, model, constraint="avg"):
    chi = sa.kraus_to_chi(sa.adc(sa.AdcSpec(gamma)))
    return sa.ApproximationProblem(chi, model, constraint)


def pol_problem(phi, p, model, constraint="avg"):
    chi = sa.kraus_to_chi(sa.pol_xy(sa.PolSpec(phi, p)))
    return sa.ApproximationProblem(chi, model, constraint)


@pytest.mark.parametrize("gamma", [0.05, 0.25, 0.6, 0.95])
def test_adc_pauli_average_distance(gamma):
    result = sa.solve(adc_problem(gamma, "pc"))
    assert result.converged
    assert result.distance == pytest.approx(gamma**2 / 8, abs=1e-8)


@pytest.mark.parametrize("model", ["pmc", "cmc"])
def test_adc_measurement_average_distance_and_support(model):
    gamma = 0.25
    s = np.sqrt(1 - gamma)
    result = sa.solve(adc_problem(gamma, model))
    expected = (gamma - 1) * (gamma + 2 * s - 2) / 8
    assert result.distance == pytest.approx(expected, abs=1e-8)
    assert result.distance == pytest.approx(0.0016828, abs=1e-7)
    support = sa.extract_support(result)
    assert [label for label, _ in support] == ["T|0>"]
    assert support[0][1] == pytest.approx((1 + gamma - s) / 2, abs=1e-6)
    assert support[0][1] == pytest.approx(0.191988, abs=1e-4)


def test_adc_full_damping_cmc_is_exact():
    result = sa.solve(adc_problem(1.0, "cmc"))
    assert result.distance == pytest.approx(0.0, abs=1e-12)


def test_pol_average_distances_and_support():
    phi, p = np.pi / 8, 0.1
    r_pc = sa.solve(pol_problem(phi, p, "pc"))
    assert r_pc.distance == pytest.approx(0.25 * p**2 * np.sin(2 * phi) ** 2, abs=1e-9)
    assert r_pc.distance == pytest.approx(1.25e-3, abs=1e-8)
    r_cc = sa.solve(pol_problem(phi, p, "cc"))
    expected_cc = 3 / 28 * p**2 * (np.sin(2 * phi) + np.cos(2 * phi) - 1) ** 2
    assert r_cc.distance == pytest.approx(expected_cc, abs=1e-9)
    assert r_cc.distance == pytest.approx(1.8383e-4, abs=1e-8)
    support = dict(sa.extract_support(r_cc))
    p1 = p / 7 * (3 + 4 * np.cos(2 * phi) - 3 * np.sin(2 * phi))
    p2 = p / 7 * (3 - 3 * np.cos(2 * phi) + 4 * np.sin(2 * phi))
    assert set(support) == {"X", "H(x,y)+"}
    assert support["X"] == pytest.approx(p1, abs=1e-6)
    assert support["H(x,y)+"] == pytest.approx(p2, abs=1e-6)


def test_identity_target_gives_zero_distance_for_all_models():
    for model in sa.MODELS:
        result = sa.solve(sa.ApproximationProblem(sa.identity_chi(), model, "avg"))
        assert result.distance == pytest.approx(0.0, abs=1e-12)
        assert np.all(result.params.probs <= 1e-12)
        assert result.support == ()


def test_adc_worst_case_distances():
    gamma = 0.25
    s = np.sqrt(1 - gamma)
    expected_pauli = (2 * gamma**2 - 3 * gamma + 2 + 2 * gamma * s - 2 * s) / 4
    r = sa.solve(adc_problem(gamma, "pc", "worst"))
    assert r.distance == pytest.approx(expected_pauli, abs=1e-6)
    assert r.distance == pytest.approx(0.0189905, abs=1e-6)
    r = sa.solve(adc_problem(gamma, "pmc", "worst"))
    d_m = (gamma - 1) * (gamma + 2 * s - 2) / 8
    assert r.distance == pytest.approx(2 * d_m, abs=1e-6)


def test_adc_full_damping_worst_case():
    # gamma = 1: the target's worst fidelity is exactly 0, so an honest
    # mixture must be exactly unfaithful on the excited state.
    for model, expected in (("pc", 0.25), ("cc", 0.25), ("pmc", 0.0), ("cmc", 0.0)):
        r = sa.solve(adc_problem(1.0, model, "worst"))
        assert r.distance == pytest.approx(expected, abs=1e-12), model
        assert r.f_model <= r.f_target == 0.0


@pytest.mark.parametrize("constraint", sa.CONSTRAINT_KINDS)
def test_pauli_mixture_without_identity_is_reproduced(constraint):
    # Fidelity 0 (or one ulp above it) under both constraints.  Roundoff in
    # F and sum(p) must not push the honest mixture onto a single Pauli, and
    # a blend toward X must not stand in for a roundoff repair where F is
    # itself of the order of roundoff.
    probs = np.array([0.2, 0.5, 0.3])
    chi = sa.mixture_chi(sa.MixtureParams("pc", probs))
    r = sa.solve(sa.ApproximationProblem(chi, "pc", constraint))
    assert np.allclose(r.params.probs, probs, atol=1e-12)
    for w in [probs, *np.random.default_rng(0).dirichlet(np.ones(3), size=200)]:
        chi = sa.mixture_chi(sa.MixtureParams("pc", w / w.sum()))
        for model in sa.MODELS:
            r = sa.solve(sa.ApproximationProblem(chi, model, constraint))
            assert r.distance <= 1e-12, (w, model)
            assert r.f_model <= r.f_target, (w, model)


@pytest.mark.parametrize(
    "weights",
    [{"H(x,y)-": 0.2, "H(x,z)+": 0.3, "H(y,z)+": 0.5}, {"T|0>": 1.0}, {"X": 0.4, "T|0>": 0.6}],
    ids=["hadamards", "translation", "pauli-translation"],
)
def test_worst_case_of_zero_fidelity_targets(weights):
    # Each target has worst fidelity 0 (its generators share an input they
    # all fail on), so exact honesty needs integrands that vanish exactly.
    labels = [gen.label for gen in sa.enumerate_generators("cmc")]
    probs = np.array([weights.get(label, 0.0) for label in labels])
    chi = sa.mixture_chi(sa.MixtureParams("cmc", probs))
    for model in sa.MODELS:
        r = sa.solve(sa.ApproximationProblem(chi, model, "worst"))
        assert 0.0 <= r.f_model <= r.f_target == 0.0, model
    assert r.distance == pytest.approx(0.0, abs=1e-12)  # cmc reproduces it


def test_worst_results_are_honest_exactly():
    targets = sa.random_chi_batch(sa.RandomChannelSpec(seed=606, count=30))
    results = sa.solve_batch(targets, ["pc", "cc"], "worst")
    results += [
        sa.solve(adc_problem(gamma, model, "worst"))
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9)
        for model in sa.MODELS
    ]
    for result in results:
        assert result.error is None
        assert result.f_model <= result.f_target
        assert float(result.params.probs.sum()) <= 1.0
        assert result.converged
        assert result.restarts_used in (0, 15)


#: Worst-case distances of random_chi_batch(seed=2026)[:10] from the
#: previous solver, SLSQP with 20 randomized feasible restarts.
SLSQP_WORST_DISTANCES = {
    (0, "pc"): 0.037349847013773974,
    (0, "cc"): 0.014234056892804776,
    (1, "pc"): 0.06275035502720276,
    (1, "cc"): 0.009258928456414461,
    (2, "pc"): 0.015498981092462921,
    (2, "cc"): 0.0035139188933463426,
    (3, "pc"): 0.05763680665526395,
    (3, "cc"): 0.01306389834777883,
    (4, "pc"): 0.023426613235093194,
    (4, "cc"): 0.01008880617132469,
    (5, "pc"): 0.026295064403457243,
    (5, "cc"): 0.004634065593174697,
    (6, "pc"): 0.0365811341300928,
    (6, "cc"): 0.020796436366114848,
    (7, "pc"): 0.04236723226914278,
    (7, "cc"): 0.014577372175098685,
    (8, "pc"): 0.06883452021881759,
    (8, "cc"): 0.011001246278364516,
    (9, "pc"): 0.02864883533036759,
    (9, "cc"): 0.0009051111930959468,
}


def test_worst_case_no_worse_than_slsqp_solver():
    targets = sa.random_chi_batch(sa.RandomChannelSpec(seed=2026, count=10))
    for (index, model), pinned in SLSQP_WORST_DISTANCES.items():
        problem = sa.ApproximationProblem(targets[index], model, "worst")
        assert sa.solve(problem).distance <= pinned + 1e-9, (index, model)


def test_worst_case_beats_restart_dependent_optimum():
    # The SLSQP multistart reported 0.053358 here and reached 0.04911 only
    # with 200 restarts.
    chi = sa.random_chi_batch(sa.RandomChannelSpec(seed=5, count=4))[3]
    problem = sa.ApproximationProblem(chi, "pc", "worst")
    assert sa.solve(problem).distance <= 0.04912


def test_clifford_covariance():
    # The catalog is closed under Clifford conjugation, so conjugating the
    # target leaves every model's distance unchanged, under both
    # constraints.
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    s = np.diag([1.0, 1.0j])
    targets = sa.random_chi_batch(sa.RandomChannelSpec(seed=11, count=2))
    for chi in targets:
        kraus = sa.chi_to_kraus(chi)
        for model, constraint in itertools.product(sa.MODELS, sa.CONSTRAINT_KINDS):
            base = sa.solve(sa.ApproximationProblem(chi, model, constraint))
            for u in (h, s, h @ s):
                conj = sa.KrausChannel(tuple(u @ k @ u.conj().T for k in kraus.ops))
                problem = sa.ApproximationProblem(sa.kraus_to_chi(conj), model, constraint)
                assert sa.solve(problem).distance == pytest.approx(
                    base.distance, abs=1e-9
                ), (model, constraint)


def test_worst_case_solves_from_process_matrix_alone():
    # A bare process matrix is enough; a Kraus form given alongside is
    # ignored, even one of another channel, and the answer matches the one
    # reached through chi_to_kraus.
    other = sa.adc(sa.AdcSpec(0.7))
    for chi in sa.random_chi_batch(sa.RandomChannelSpec(seed=19, count=3)):
        kraus = sa.chi_to_kraus(chi)
        for model in ("pc", "cc"):
            bare = sa.solve(sa.ApproximationProblem(chi, model, "worst"))
            wrong = sa.solve(sa.ApproximationProblem(chi, model, "worst", other))
            assert (bare.distance, bare.f_target, bare.f_model) == (
                wrong.distance, wrong.f_target, wrong.f_model
            )
            via = sa.solve(sa.ApproximationProblem(sa.kraus_to_chi(kraus), model, "worst"))
            f_kraus = sa.worst_fidelity(np.eye(2), kraus)
            assert bare.f_target == pytest.approx(f_kraus, abs=1e-12)
            assert bare.distance == pytest.approx(via.distance, abs=1e-12)
            assert bare.f_model <= bare.f_target


def test_worst_case_is_invariant_under_kraus_unitary_freedom():
    # K'_j = sum_i U_ji K_i describes the same channel for any unitary U;
    # the worst-case answer must not depend on the decomposition.
    rng = np.random.default_rng(29)
    for chi in sa.random_chi_batch(sa.RandomChannelSpec(seed=23, count=2)):
        ops = np.array(sa.chi_to_kraus(chi).ops + (np.zeros((2, 2)),))  # one spare
        u = sa.haar_unitary(len(ops), rng)
        chi_a = sa.kraus_to_chi(sa.KrausChannel(tuple(ops)))
        chi_b = sa.kraus_to_chi(sa.KrausChannel(tuple(np.tensordot(u, ops, axes=1))))
        for model in ("pc", "cc"):
            a = sa.solve(sa.ApproximationProblem(chi_a, model, "worst"))
            b = sa.solve(sa.ApproximationProblem(chi_b, model, "worst"))
            for field in ("distance", "f_target", "f_model"):
                assert getattr(b, field) == pytest.approx(getattr(a, field), abs=1e-12), field


def test_worst_case_keeps_an_honest_simplex_only_optimum():
    # Polarization targets and the identity meet the honesty bound with the
    # simplex-only optimum itself, to within roundoff either way: that tie
    # must not send them through the 15 descents.
    pol = [sa.kraus_to_chi(sa.pol_xy(sa.PolSpec(phi, 0.1))) for phi in (0.1, 0.7, 1.3)]
    for chis, models in ((pol, ("pc", "cc")), ([sa.identity_chi()], sa.MODELS)):
        for chi, model in itertools.product(chis, models):
            result = sa.solve(sa.ApproximationProblem(chi, model, "worst"))
            assert (result.restarts_used, result.iterations) == (0, 1), model


def test_worst_case_descends_once_per_distinct_start_row(monkeypatch):
    # pc and cc hold no measurement generator, so each q_a(r) = q_a(-r) and
    # the start witnesses +-e_i, and +-d for each cube diagonal d, give one
    # honesty row: their descents would repeat one another.  pc runs no
    # descent, only one QP per axis row.  pmc and cmc break that symmetry.
    # Each end is made honest once, on its last QP's row, after the one
    # call for the simplex-only optimum.
    approximate = sa.approximate
    calls = []
    honest_probs = approximate._honest_probs

    def counted(*args):
        calls.append(args)
        return honest_probs(*args)

    monkeypatch.setattr(approximate, "_honest_probs", counted)

    def descents(chi, model):
        calls.clear()
        result = sa.solve(sa.ApproximationProblem(chi, model, "worst"))
        assert result.restarts_used == 15
        return result, len(calls) - 1

    def answer(result):
        return (
            result.distance, result.f_model, result.f_target,
            result.params.probs.tobytes(), result.iterations, result.converged,
        )

    adc = adc_problem(0.25, "pc").target
    other = sa.random_chi_batch(sa.RandomChannelSpec(seed=2026, count=1))[0]
    for model, most in (("pc", 3), ("cc", 8)):
        for chi in (adc, other):
            result, count = descents(chi, model)
            assert 1 <= count <= most, model
            with monkeypatch.context() as patch:
                patch.setattr(approximate, "_START_WITNESSES", -approximate._START_WITNESSES)
                assert answer(descents(chi, model)[0]) == answer(result), model
    for model in ("pmc", "cmc"):  # every start is feasible here, and no two share a row
        assert descents(other, model)[1] == len(approximate._START_WITNESSES) + 1, model


def test_worst_case_descent_stops_where_it_rejoins_an_earlier_end(monkeypatch):
    # A descent stops once its witness comes within _DESCENT_JOIN of one an
    # earlier descent met.  A negative distance stops none early: the answers
    # must agree to within the stall tolerance's spread of ends in one basin,
    # while the cut runs fewer QPs.
    approximate = sa.approximate
    qps = []
    solve_qp = approximate._solve_qp

    def counted(*args):
        qps.append(args)
        return solve_qp(*args)

    monkeypatch.setattr(approximate, "_solve_qp", counted)
    adc = adc_problem(0.25, "pc").target
    randoms = sa.random_chi_batch(sa.RandomChannelSpec(seed=2026, count=3))
    problems = [(adc, "pc"), (adc, "cc")]
    problems += [(chi, model) for chi in randoms for model in sa.MODELS]

    def run():
        qps.clear()
        results = [sa.solve(sa.ApproximationProblem(chi, m, "worst")) for chi, m in problems]
        for result in results:
            assert result.converged and result.f_model <= result.f_target, result.model
        return results, len(qps)

    cut, cut_qps = run()
    monkeypatch.setattr(approximate, "_DESCENT_JOIN", -1.0)
    full, full_qps = run()
    assert cut_qps < full_qps
    for a, b in zip(cut, full):
        assert a.distance == pytest.approx(b.distance, abs=1e-12), a.model


def test_worst_case_descent_stops_where_its_witness_joins_a_linear_descent(monkeypatch):
    # On cc for this target the losing descents converge linearly to ends
    # found before, so their chi comes close to an end only late.  Their
    # witnesses join an earlier descent's trail well before that: the solve
    # takes 103 QPs against 1002 with no joins, at the same answer.
    approximate = sa.approximate
    qps = [0]
    solve_qp = approximate._solve_qp

    def counted(*args):
        qps[0] += 1
        return solve_qp(*args)

    monkeypatch.setattr(approximate, "_solve_qp", counted)
    chi = sa.random_chi_batch(sa.RandomChannelSpec(seed=7010, count=1))[0]

    def run():
        qps[0] = 0
        result = sa.solve(sa.ApproximationProblem(chi, "cc", "worst"))
        assert result.converged and result.f_model <= result.f_target
        return result, qps[0]

    joined, joined_qps = run()
    monkeypatch.setattr(approximate, "_DESCENT_JOIN", -1.0)
    full, full_qps = run()
    assert joined_qps < full_qps
    assert joined.distance == pytest.approx(full.distance, abs=1e-12)


def test_worst_case_descent_never_solves_the_row_it_just_solved(monkeypatch):
    # A QP started from its own optimum returns that optimum, so a descent
    # whose next honesty row equals the row its last QP solved stops there.
    # Descents are delimited by the _honest_probs call that ends each.  On
    # ADC gamma = 0.25, pc runs no descent: its simplex-only QP and three
    # axis QPs are 4 QPs in all, against 6 when its descents stopped at
    # their second QP and 9 without the stop.
    approximate = sa.approximate
    events, qps = [], [0]
    solve_qp, honest_probs = approximate._solve_qp, approximate._honest_probs

    def qp(gram, mtw, rows, *rest):
        qps[0] += 1
        if len(rows) == 2:  # a descent QP; the simplex-only QP has one row
            events.append(np.array(rows[-1]))
        return solve_qp(gram, mtw, rows, *rest)

    def honest(*args):
        events.append(None)
        return honest_probs(*args)

    monkeypatch.setattr(approximate, "_solve_qp", qp)
    monkeypatch.setattr(approximate, "_honest_probs", honest)
    adc = adc_problem(0.25, "pc").target
    randoms = sa.random_chi_batch(sa.RandomChannelSpec(seed=2026, count=2))
    for chi, model in itertools.product([adc, *randoms], ("pc", "cc")):
        events.clear()
        qps[0] = 0
        result = sa.solve(sa.ApproximationProblem(chi, model, "worst"))
        assert result.converged and result.f_model <= result.f_target, model
        assert sum(event is None for event in events) > 1, model  # an end was made honest
        for last, row in zip(events, events[1:]):
            assert last is None or row is None or not np.array_equal(last, row), model
        if chi is adc and model == "pc":
            assert qps[0] <= 4


def test_worst_case_descent_qps_start_on_the_face_before_them(monkeypatch):
    # Each descent QP starts on the face its predecessor ended on, the first
    # on the simplex-only optimum's face plus the honesty row.  With every
    # face dropped the same QPs reach the same ends, in more iterations.
    from stabapprox import qp

    solve_lsq_qp, iterations = qp.solve_lsq_qp, []

    def counted(*args, face=None):
        res = solve_lsq_qp(*args, face=face)
        iterations.append(res.iterations)
        return res

    adc = adc_problem(0.25, "pc").target
    randoms = sa.random_chi_batch(sa.RandomChannelSpec(seed=2026, count=3))
    problems = [(adc, "pc"), (adc, "cc")]
    problems += [(chi, model) for chi in randoms for model in sa.MODELS]

    def run(qp_solve):
        monkeypatch.setattr(qp, "solve_lsq_qp", qp_solve)
        runs = []
        for chi, model in problems:
            iterations.clear()
            result = sa.solve(sa.ApproximationProblem(chi, model, "worst"))
            assert result.f_model <= result.f_target, model
            runs.append((result, len(iterations), sum(iterations)))
        return runs

    warm = run(counted)
    cold = run(lambda *args, face=None: counted(*args))
    for (a, qps_a, _), (b, qps_b, _) in zip(warm, cold):
        assert qps_a == qps_b, a.model
        assert (a.converged, a.restarts_used) == (b.converged, b.restarts_used), a.model
        assert a.distance == pytest.approx(b.distance, abs=1e-12), a.model
    assert sum(its for *_, its in warm) < sum(its for *_, its in cold)


def test_worst_case_pc_axis_faces_are_repaired_on_the_adc_grid(monkeypatch):
    # The simplex-only optimum's face plus an axis row has a minimiser off
    # the simplex on every ADC gamma of the grid: all 27 axis QP face starts
    # failed after one LU solve and started cold.  Repaired, none fails.
    from stabapprox import qp

    face_start, starts = qp._face_start, []

    def recorded(*args):
        starts.append(face_start(*args))
        return starts[-1]

    monkeypatch.setattr(qp, "_face_start", recorded)
    for gamma in np.arange(1, 10) / 10:
        result = sa.solve(adc_problem(gamma, "pc", "worst"))
        assert result.converged and result.f_model <= result.f_target, gamma
    assert len(starts) == 36  # per gamma, the simplex-only QP and three axis QPs
    assert all(start is not None for start in starts)


def test_worst_case_solve_carries_no_state_across_solves():
    # The fixed honesty rows are cached per model, read-only, and each
    # descent's faces live only inside its solve: a target's answer is
    # bitwise the same alone (on empty caches), after and between other
    # targets' solves.
    approximate = sa.approximate
    chi, *others = sa.random_chi_batch(sa.RandomChannelSpec(seed=2026, count=3))
    others.append(adc_problem(0.25, "pc").target)

    def answer(target, model):
        r = sa.solve(sa.ApproximationProblem(target, model, "worst"))
        return (r.distance, r.f_model, r.f_target, r.params.probs.tobytes(),
                r.iterations, r.converged, r.restarts_used, r.support)

    for model in sa.MODELS:
        approximate._model_data.cache_clear()
        alone = answer(chi, model)
        answer(others[0], model)
        assert answer(chi, model) == alone, model
        answer(others[1], model)
        assert answer(chi, model) == alone, model
        answer(others[2], model)
        assert answer(chi, model) == alone, model


def worst_repair_targets():
    adc = adc_problem(0.25, "pc").target
    return [adc, *sa.random_chi_batch(sa.RandomChannelSpec(seed=2026, count=2))]


def test_honesty_repair_makes_no_worst_fidelity_call(monkeypatch):
    # Every answer is made honest on the honesty row of its witness input,
    # a linear certificate, so the repair never minimises a fidelity again.
    approximate = sa.approximate
    inside, counts = [False], {"repairs": 0, "minimisations": 0}
    honest_probs = approximate._honest_probs
    min_quadratic_form = approximate.min_quadratic_form

    def repair(*args):
        counts["repairs"] += 1
        inside[0] = True
        try:
            return honest_probs(*args)
        finally:
            inside[0] = False

    def minimise(*args, **kwargs):
        counts["minimisations"] += inside[0]
        return min_quadratic_form(*args, **kwargs)

    monkeypatch.setattr(approximate, "_honest_probs", repair)
    monkeypatch.setattr(approximate, "min_quadratic_form", minimise)
    for chi, model in itertools.product(worst_repair_targets(), sa.MODELS):
        result = sa.solve(sa.ApproximationProblem(chi, model, "worst"))
        assert result.f_model <= result.f_target, model
    assert counts["repairs"] > 0
    assert counts["minimisations"] == 0


def test_worst_f_model_is_the_mixture_worst_fidelity():
    # f_model is the lower of the fidelity on the witness row and the
    # minimum over pure inputs, so it matches the mixture's worst fidelity.
    targets = [*worst_repair_targets(), adc_problem(1.0, "pc").target]
    for chi, model in itertools.product(targets, sa.MODELS):
        result = sa.solve(sa.ApproximationProblem(chi, model, "worst"))
        quadratic = sa.chi_fidelity_quadratic(sa.mixture_chi(result.params).matrix)
        exact = sa.metrics.worst_of_quadratic(*quadratic)[0]
        assert result.f_model == pytest.approx(exact, abs=1e-12), model


def test_pc_worst_case_is_the_global_optimum():
    # Oracle built from the QP data alone: the optimum of the witness-r QP is
    # honest on r, so it bounds the worst-case optimum from above for every
    # unit r; the pc answer must lie below each such bound over a sphere of
    # witness rows, and reach the best of them, which the axis states hold.
    # A Pauli mixture's worst input is an axis state.
    targets = sa.random_chi_batch(sa.RandomChannelSpec(seed=2026, count=20))
    targets += [adc_problem(gamma, "pc").target for gamma in (0.1, 0.3, 0.5, 0.7, 0.9)]
    witnesses = np.vstack([np.eye(3), fibonacci_sphere(200)])
    hs, gs, cs = sa.catalog.generator_quadratics("pc")
    for index, chi in enumerate(targets):
        result = sa.solve(sa.ApproximationProblem(chi, "pc", "worst"))
        gram, mtw, rows, h = _qp_data(chi, "pc", result.f_target)
        floor = sa.hs_distance(chi, sa.identity_chi())  # ||w||^2 / 8
        bounds = []
        for r in witnesses:
            rows[-1] = _honesty_row("pc", r)
            if rows[-1].max() >= h[-1]:  # else no mixture is honest on r
                x = solve_lsq_qp(gram, mtw, rows, h, _vertex_start(rows[-1], h[-1])).x
                bounds.append(floor + float(x @ gram @ x - 2.0 * mtw @ x) / 8.0)
        assert result.distance <= min(bounds) + 1e-12, index
        assert result.distance >= min(bounds) - 1e-12, index
        p = result.params.probs
        form = (np.tensordot(p, hs, 1), p @ gs, 1.0 - p.sum() + p @ cs)
        witness = sa.metrics.min_quadratic_form(*form)[1]
        assert np.sort(np.abs(witness)) == pytest.approx([0.0, 0.0, 1.0], abs=1e-12), index


@pytest.mark.parametrize("model", ["pmc", "cc", "cmc"])
def test_descent_worst_case_is_below_a_sampled_witness_oracle(model):
    # Each witness row's QP optimum, made honest on its row, is an honest
    # mixture, so its distance bounds the worst-case optimum from above: the
    # best descent end may not lie above the best of them.
    witnesses = fibonacci_sphere(100)
    for index, chi in enumerate(sa.random_chi_batch(sa.RandomChannelSpec(seed=2026, count=6))):
        result = sa.solve(sa.ApproximationProblem(chi, model, "worst"))
        gram, mtw, rows, h = _qp_data(chi, model, result.f_target)
        bounds = []
        for r in witnesses:
            rows[-1] = _honesty_row(model, r)
            if rows[-1].max() >= h[-1]:  # else no mixture is honest on r
                res = solve_lsq_qp(gram, mtw, rows, h, _vertex_start(rows[-1], h[-1]))
                assert res.converged, (index, r)
                probs, _ = _honest_probs(res.x, rows[-1], result.f_target)
                mixture = sa.mixture_chi(sa.MixtureParams(model, probs))
                bounds.append(sa.hs_distance(chi, mixture))
        assert result.distance <= min(bounds) + 1e-12, index


def test_honest_probs_raises_where_no_generator_is_honest():
    # Every generator's fidelity on the row, 1 - 0.5, is above f_target.
    with pytest.raises(sa.SolverError, match=r"f_target 0\.2"):
        _honest_probs(np.array([0.3, 0.3]), np.array([0.5, 0.5]), 0.2)


def test_honest_probs_keeps_an_evenly_faithful_mixture():
    # An evenly faithful mixture on a row entry that is no power of two: its
    # fidelity 1 - row @ x rounds to 0.7000000000000002, the blend toward e_0
    # has no room (every generator is as faithful) and no margin's shrink is
    # honest.  The completion on the least faithful generators, here all of
    # them, sums to 1 exactly, so its fidelity is 1 - 0.3 although the float
    # 1 - row @ probs rounds above it; it once collapsed onto e_0 instead.
    x = np.array([0.6046738821707679, 0.14615933526661473, 0.07946611616293589,
                  0.05187550361460063, 0.1178251627850806])
    f_target = 1.0 - 0.3
    probs, f_model = _honest_probs(x, np.array([0.3] * 5), f_target)
    assert np.abs(probs - x).max() <= 1e-15
    assert probs.sum() == 1.0
    assert f_model == 0.7 <= f_target


def test_honest_probs_never_collapses_an_evenly_faithful_mixture():
    # Random mixtures on the same row and f_target: whether a margin or the
    # completion makes each honest, it stays where it was.
    row, f_target = np.array([0.3] * 5), 1.0 - 0.3
    rng = np.random.default_rng(0)
    for k in range(2000):
        x = rng.dirichlet(np.ones(5))
        probs, f_model = _honest_probs(x, row, f_target)
        assert np.count_nonzero(probs) > 1, k
        assert np.abs(probs - x).max() <= 1e-12, k
        assert f_model <= f_target and probs.sum() <= 1.0, k


@pytest.mark.parametrize("model", sa.MODELS)
def test_axis_rows_reach_one(model):
    # Every model starts with X, Y and Z, whose rounded integrands vanish
    # exactly off their own axis, so each axis row's largest entry is 1 and,
    # f_target being clipped to [0, 1], admits an honest mixture: the worst
    # case's axis QPs and descents need no feasibility test.
    assert (sa.approximate._model_data(model).rows[1:4].max(axis=1) == 1.0).all()


def rotation_chi(axis, turns):
    """Process matrix of the rotation by turns * pi about the axis."""
    axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    theta = turns * np.pi
    u = np.cos(theta / 2.0) * np.eye(2) - 1j * np.sin(theta / 2.0) * sum(
        c * pauli for c, pauli in zip(axis, sa.PAULIS[1:])
    )
    return sa.kraus_to_chi(sa.KrausChannel((u,)))


@pytest.mark.parametrize("turns", [0.9, 0.99, 1.0])
def test_worst_case_of_rotations_near_a_half_turn(turns):
    # About (1,1,1)/sqrt(3) near a half turn, no cc or cmc mixture is honest
    # on the simplex-only optimum's worst input, so that optimum cannot be
    # repaired on its row; the solver must descend instead.
    chi = rotation_chi((1, 1, 1), turns)
    for model in sa.MODELS:
        result = sa.solve(sa.ApproximationProblem(chi, model, "worst"))
        assert result.converged, model
        assert result.f_model <= result.f_target, model


#: Distances of the rotations below.  The cc one reads 4.35e-9 higher if a
#: descent that joins an earlier one adds no end (the honesty repair's
#: roundoff ranks the ends), and 1.7e-9 higher if no descent joins.
STALLING_ROTATION_DISTANCE = {"cc": 0.14583333435134904, "cmc": 0.14583366000911757}


@pytest.mark.parametrize(
    "axis, turns, model", [((1, 1, 1), 0.9999, "cc"), ((1, 1, -1), 0.99, "cmc")]
)
def test_worst_case_of_rotations_where_the_qp_stalls(axis, turns, model):
    # The first descent QP holds 3 free variables with the simplex and
    # honesty rows, where the reduced Gram matrix is singular.  lstsq steps
    # of about 3e-13 raised the objective until the iterations ran out; the
    # LU step of the square KKT system does not take them.
    chi = rotation_chi(axis, turns)
    result = sa.solve(sa.ApproximationProblem(chi, model, "worst"))
    assert result.converged
    assert result.f_model <= result.f_target
    assert result.distance == pytest.approx(STALLING_ROTATION_DISTANCE[model], abs=1e-12)


#: The 13 symmetric axes: the 3 coordinate axes, 6 face and 4 body diagonals.
SYMMETRIC_AXES = [
    axis for axis in itertools.product((1, 0, -1), repeat=3)
    if any(axis) and axis[next(i for i, c in enumerate(axis) if c)] > 0
]


def test_worst_case_of_rotations_near_a_half_turn_converge():
    # A sampled stress set near a half turn, where the QP used to stall: every
    # solve converges and is exactly honest.
    assert len(SYMMETRIC_AXES) == 13
    for axis, turns in itertools.product(SYMMETRIC_AXES, (0.95, 0.99, 0.999, 0.9999, 1.0)):
        chi = rotation_chi(axis, turns)
        for model in ("cc", "cmc"):
            result = sa.solve(sa.ApproximationProblem(chi, model, "worst"))
            assert result.converged, (axis, turns, model)
            assert result.f_model <= result.f_target, (axis, turns, model)


def test_average_case_of_half_turns_is_covariant_and_ordered():
    # A half turn has fidelity near 0, so its QP optimum is honest only to
    # within roundoff and must be completed on the least faithful
    # generators.  Clifford conjugation maps axes of one class (coordinate
    # axes, face and body diagonals) onto each other, so they share each
    # model's distance, and each model's catalog contains the next one's.
    classes = {}
    for axis in SYMMETRIC_AXES:
        results = sa.solve_batch([rotation_chi(axis, 1.0)], sa.MODELS, "avg")
        d = {r.model: r.distance for r in results}
        assert all(r.f_model <= r.f_target for r in results), axis
        assert d["cmc"] <= d["cc"] + 1e-12, axis
        assert d["cmc"] <= d["pmc"] + 1e-12, axis
        assert d["cc"] <= d["pc"] + 1e-12, axis
        assert d["pmc"] <= d["pc"] + 1e-12, axis
        classes.setdefault(np.count_nonzero(axis), []).append(d)
    for members in classes.values():
        for model in sa.MODELS:
            distances = [d[model] for d in members]
            assert max(distances) - min(distances) <= 1e-12, model


#: The best distance descents from single points of the circle of worst
#: inputs reach on the body-diagonal rotations below, cc and cmc; from
#: other points they end at 0.0127 (0.7 turns) and 0.0521 (0.75 turns).
BODY_DIAGONAL_BEST = {0.7: 0.0091081559809524839, 0.75: 0.048107400028562827}


@pytest.mark.parametrize("turns", sorted(BODY_DIAGONAL_BEST))
def test_worst_case_of_body_diagonal_rotations_agree(turns):
    # Clifford conjugation maps the four body diagonals onto each other, so
    # their rotations have one answer.  The simplex-only optimum's worst
    # inputs form a circle about the axis, and where on it the descent
    # starts decides the end: the solver descends from 12 points of it.
    distances = []
    for axis in [a for a in SYMMETRIC_AXES if 0 not in a]:
        chi = rotation_chi(axis, turns)
        for model in ("cc", "cmc"):
            result = sa.solve(sa.ApproximationProblem(chi, model, "worst"))
            assert result.converged and result.f_model <= result.f_target, (axis, model)
            assert result.restarts_used == len(sa.approximate._START_WITNESSES) + 1
            distances.append(result.distance)
    assert max(distances) - min(distances) <= 1e-12
    assert max(distances) <= BODY_DIAGONAL_BEST[turns] + 1e-12


def test_worst_case_join_radius_keeps_the_answers_of_a_smaller_one(monkeypatch):
    # Two neighbouring circle starts lie 2 sin(pi/12) = 0.518 apart, so under
    # half of that no witness is within the radius of both.  Within it, the
    # join radius only cuts QPs: the answers are those of the earlier 5e-2.
    approximate = sa.approximate
    assert approximate._DESCENT_JOIN < np.sin(np.pi / 12)
    qps = [0]
    solve_lsq_qp = sa.qp.solve_lsq_qp

    def counted(*args, **kwargs):
        qps[0] += 1
        return solve_lsq_qp(*args, **kwargs)

    monkeypatch.setattr(sa.qp, "solve_lsq_qp", counted)
    problems = [
        (rotation_chi(axis, 0.75), model)
        for axis in SYMMETRIC_AXES if 0 not in axis for model in ("cc", "cmc")
    ]
    problems += [(chi, "cc") for chi in sa.random_chi_batch(sa.RandomChannelSpec(2026, 5))]

    def run():
        qps[0] = 0
        return [sa.solve(sa.ApproximationProblem(chi, m, "worst")).distance
                for chi, m in problems], qps[0]

    wide, wide_qps = run()
    monkeypatch.setattr(approximate, "_DESCENT_JOIN", 5e-2)
    narrow, narrow_qps = run()
    assert wide == pytest.approx(narrow, rel=0.0, abs=1e-12)
    assert narrow_qps > wide_qps


def test_worst_case_descent_that_rejoins_an_end_stops_as_that_end_did(monkeypatch):
    # With two QPs per descent, the winner here rejoins after one QP an end
    # whose descent ran out of QPs: it did not stop by its rule either.
    monkeypatch.setattr(sa.approximate, "_DESCENT_MAX_QPS", 2)
    chi = rotation_chi((1, 1, 1), 0.99)
    result = sa.solve(sa.ApproximationProblem(chi, "cc", "worst"))
    assert result.iterations == 1
    assert not result.converged


@pytest.mark.xfail(
    strict=True,
    reason="the winning descent needs 224 QPs and is cut at _DESCENT_MAX_QPS = 200; "
    "with the cap at 400 it converges 8.7e-17 lower (ROADMAP item 6)",
)
def test_worst_case_descent_that_needs_more_than_200_qps_converges():
    chi = sa.random_chi_batch(sa.RandomChannelSpec(seed=90125, count=1))[0]
    assert sa.solve(sa.ApproximationProblem(chi, "cc", "worst")).converged


def test_pol_average_and_worst_agree():
    phi, p = np.pi / 5, 0.1
    for model in ("pc", "cc"):
        d_avg = sa.solve(pol_problem(phi, p, model)).distance
        d_worst = sa.solve(pol_problem(phi, p, model, "worst")).distance
        assert d_worst == pytest.approx(d_avg, abs=1e-7)


def test_result_invariants_hold():
    for problem in (adc_problem(0.3, "cmc"), adc_problem(0.3, "pc", "worst")):
        result = sa.solve(problem)
        assert result.f_model <= result.f_target + 1e-8
        probs = result.params.probs
        assert np.all(probs >= 0.0) and probs.sum() <= 1.0 + 1e-12
        recomputed = sa.hs_distance(
            problem.target, sa.mixture_chi(result.params)
        )
        assert result.distance == pytest.approx(recomputed, abs=1e-10)


def test_model_hierarchy_monotonicity_on_random_targets():
    targets = sa.random_chi_batch(sa.RandomChannelSpec(seed=31, count=20))
    for target in targets:
        d = {
            m: sa.solve(sa.ApproximationProblem(target, m, "avg")).distance
            for m in sa.MODELS
        }
        assert d["cmc"] <= d["cc"] + 1e-7
        assert d["cmc"] <= d["pmc"] + 1e-7
        assert d["cc"] <= d["pc"] + 1e-7
        assert d["pmc"] <= d["pc"] + 1e-7


def test_model_hierarchy_under_the_worst_case_constraint():
    # Each model's catalog contains the next one's, so its optimum can be
    # no farther.  The descent does not guarantee this, but on these targets
    # every gap is <= 0; a break is a finding about the solver.
    targets = sa.random_chi_batch(sa.RandomChannelSpec(seed=2026, count=20))
    targets += [adc_problem(g, "pc").target for g in (0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9)]
    targets += [pol_problem(phi, 0.1, "pc").target for phi in (np.pi / 8, np.pi / 5)]
    results = sa.solve_batch(targets, sa.MODELS, "worst")
    for k in range(len(targets)):
        d = {r.model: r.distance for r in results[4 * k : 4 * k + 4]}
        assert d["cmc"] <= d["cc"] + 1e-12, k
        assert d["cmc"] <= d["pmc"] + 1e-12, k
        assert d["cc"] <= d["pc"] + 1e-12, k
        assert d["pmc"] <= d["pc"] + 1e-12, k


def test_average_path_multistart_agreement():
    # Convexity check: the active-set QP lands on the same distance from
    # ten random feasible interior starting points (cmc: a rank-12 Gram
    # matrix over 29 variables).
    target = sa.kraus_to_chi(sa.adc(sa.AdcSpec(0.37)))
    rng = np.random.default_rng(13)
    for model in ("pmc", "cmc"):
        gram, mtw, rows, h, x0 = average_qp(target, model)
        baseline = None
        n = len(x0)
        for _ in range(10):
            raw = rng.dirichlet(np.ones(n + 1))[:n]
            # blend toward the all-X vertex until the fidelity row is satisfied
            vertex = np.zeros(n)
            vertex[0] = 1.0
            for t in np.linspace(0.0, 1.0, 201):
                start = (1 - t) * raw + t * vertex
                if np.all(rows @ start >= h - 1e-12):
                    break
            res = solve_lsq_qp(gram, mtw, rows, h, start)
            assert res.converged
            # the distance less its constant part ||w||^2 / 8
            distance = float(res.x @ gram @ res.x - 2.0 * mtw @ res.x) / 8.0
            if baseline is None:
                baseline = distance
            assert distance == pytest.approx(baseline, abs=1e-8)


def test_qp_against_reference_solver():
    # Dual route for the average path: an off-the-shelf SLSQP run on the
    # same data must not find anything better.
    rng = np.random.default_rng(23)
    targets = sa.random_chi_batch(sa.RandomChannelSpec(seed=41, count=20))
    for target, model in itertools.product(targets, sa.MODELS):
        gram, mtw, rows, h, x0 = average_qp(target, model)
        mine = solve_lsq_qp(gram, mtw, rows, h, x0)
        assert mine.converged
        assert mine.kkt_residual <= 1e-9
        ref = minimize(
            lambda p: float(p @ gram @ p - 2.0 * mtw @ p),
            x0 + 0.01 * rng.random(len(x0)),
            jac=lambda p: 2.0 * (gram @ p - mtw),
            method="SLSQP",
            bounds=[(0, 1)] * len(x0),
            constraints=[
                {"type": "ineq", "fun": lambda p, i=i: float(rows[i] @ p - h[i])}
                for i in range(len(h))
            ],
            options={"maxiter": 500, "ftol": 1e-14},
        )
        mine_val = float(mine.x @ gram @ mine.x - 2.0 * mtw @ mine.x)
        assert mine_val <= ref.fun + 1e-9


def test_average_results_are_honest_exactly():
    # Honesty by construction: no roundoff slack on f_model <= f_target,
    # and the probabilities stay on the simplex.
    targets = sa.random_chi_batch(sa.RandomChannelSpec(seed=424242, count=50))
    for result in sa.solve_batch(targets, list(sa.MODELS), "avg"):
        assert result.error is None
        assert result.f_model <= result.f_target
        assert float(result.params.probs.sum()) <= 1.0


def test_average_path_imports_no_scipy():
    # Both constraint kinds run on numpy alone.
    script = """
import sys
import stabapprox as sa

ch = sa.adc(sa.AdcSpec(0.25))
chi = sa.kraus_to_chi(ch)
for model in sa.MODELS:
    sa.solve(sa.ApproximationProblem(chi, model, "avg"))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
result = sa.solve(sa.ApproximationProblem(chi, "pc", "worst"))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
print(repr(result.distance))
"""
    env_path = str(Path(sa.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": env_path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) == pytest.approx(0.0189905, abs=1e-6)


def test_target_that_is_not_a_channel_raises_value_error():
    # A raw array is neither a process matrix nor a Kraus channel: solve
    # raises a typed error, and a batch collects it and solves on.
    raw = np.diag([2.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="ndarray"):
        sa.solve(sa.ApproximationProblem(raw, "pc"))
    bad, good = sa.solve_batch([raw, sa.identity_chi()], ["pc"])
    assert "ChiMatrix or a KrausChannel" in bad.error
    assert good.error is None and good.distance == 0.0


def test_import_builds_no_table():
    # The per-model tables are built on first use: importing the package
    # leaves every one of their caches empty.
    script = """
import stabapprox
from stabapprox import approximate, catalog

caches = (catalog.enumerate_generators, catalog.generator_chis,
          catalog.generator_quadratics, catalog.clifford_unitaries,
          approximate._model_data)
print([cache.cache_info().currsize for cache in caches])
"""
    env_path = str(Path(sa.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": env_path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0, 0, 0, 0]"


def test_solve_rejects_invalid_target():
    bad = sa.ChiMatrix(np.diag([3.0, -1.0, 0, 0]))
    with pytest.raises(ValueError, match="CPTP"):
        sa.solve(sa.ApproximationProblem(bad, "pc", "avg"))
    with pytest.raises(ValueError, match="constraint"):
        sa.solve(sa.ApproximationProblem(sa.identity_chi(), "pc", "median"))


def test_solve_batch_empty_and_ordering():
    assert sa.solve_batch([], ["pc"]) == []
    targets = sa.random_chi_batch(sa.RandomChannelSpec(seed=3, count=2))
    results = sa.solve_batch(targets, ["pc", "cmc"])
    assert [r.model for r in results] == ["pc", "cmc", "pc", "cmc"]
    assert all(r.error is None for r in results)


def test_solve_batch_collects_errors_and_continues():
    bad = sa.ChiMatrix(np.diag([3.0, -1.0, 0, 0]))
    good = sa.identity_chi()
    results = sa.solve_batch([bad, good], ["pc"])
    assert results[0].error is not None and not results[0].converged
    assert np.isnan(results[0].distance)
    assert results[1].error is None
    assert results[1].distance == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "exc, collected",
    [(TypeError("bug"), False), (np.linalg.LinAlgError("singular"), True)],
    ids=["TypeError", "LinAlgError"],
)
def test_solve_batch_collects_only_typed_failures(monkeypatch, exc, collected):
    # Input and solver failures are collected; anything else is a bug and
    # surfaces.  numpy's LinAlgError is a ValueError.
    def broken(problem, x0=None):
        raise exc

    monkeypatch.setattr(sa.approximate, "_solve_average", broken)
    if collected:
        [result] = sa.solve_batch([sa.identity_chi()], ["pc"])
        assert result.error == str(exc) and not result.converged
    else:
        with pytest.raises(type(exc)):
            sa.solve_batch([sa.identity_chi()], ["pc"])


@pytest.mark.parametrize(
    "models, constraint, unknown",
    [
        (["pc", "xyz"], "avg", "'xyz'"),
        ("pc", "avg", "'p'"),
        (["pc", "cc"], "median", r"constraint must be one of .*, got 'median'"),
        (["pc", "xyz"], "median", "'xyz'"),
    ],
    ids=["list", "string", "constraint", "model-first"],
)
def test_solve_batch_rejects_an_unknown_model_before_any_solve(
    monkeypatch, models, constraint, unknown
):
    # A model name is no per-item failure: the whole batch is refused up
    # front, naming the first unknown model.  A bare string iterates into
    # one-letter models.  So is a constraint, checked after the models.
    solves = []
    monkeypatch.setattr(sa.approximate, "solve", lambda problem: solves.append(problem))
    with pytest.raises(ValueError, match=unknown):
        sa.solve_batch([sa.identity_chi()], models, constraint)
    assert solves == []


def test_solve_batch_rejects_a_model_name_passed_as_models(monkeypatch):
    # One model name in place of a list is refused by name, not read as the
    # one-letter models 'c', 'm', 'c'.
    solves = []
    monkeypatch.setattr(sa.approximate, "solve", lambda problem: solves.append(problem))
    with pytest.raises(ValueError, match="got the string 'cmc'"):
        sa.solve_batch([sa.identity_chi()], "cmc")
    assert solves == []


def test_solve_batch_reads_an_iterator_of_models_once():
    # The up-front model check must not use up an iterator before the solves.
    targets = sa.random_chi_batch(sa.RandomChannelSpec(seed=3, count=2))
    from_iter = sa.solve_batch(targets, iter(["pc", "cc"]), "worst")
    from_list = sa.solve_batch(targets, ["pc", "cc"], "worst")
    assert [r.model for r in from_iter] == ["pc", "cc", "pc", "cc"]
    for a, b in zip(from_iter, from_list):
        assert (a.distance, a.f_model, a.support) == (b.distance, b.f_model, b.support)
        assert np.array_equal(a.params.probs, b.params.probs)


def test_solve_batch_kraus_target_matches_process_matrix(monkeypatch):
    channels = [sa.adc(sa.AdcSpec(0.3)), sa.pol_xy(sa.PolSpec(np.pi / 7, 0.1))]
    converted, kraus_to_chi = [], sa.approximate.kraus_to_chi

    def counted(ch):
        converted.append(ch)
        return kraus_to_chi(ch)

    monkeypatch.setattr(sa.approximate, "kraus_to_chi", counted)
    from_kraus = sa.solve_batch(channels, list(sa.MODELS), "avg")
    assert converted == channels  # once per target, not per model
    from_chi = sa.solve_batch([sa.kraus_to_chi(ch) for ch in channels], list(sa.MODELS), "avg")
    for a, b in zip(from_kraus, from_chi):
        assert a.error is None and b.error is None
        assert (a.model, a.distance, a.f_target, a.f_model) == (
            b.model, b.distance, b.f_target, b.f_model
        )
        assert np.array_equal(a.params.probs, b.params.probs)


def test_solve_batch_worst_uses_native_kraus_form():
    channels = [sa.adc(sa.AdcSpec(0.3)), sa.pol_xy(sa.PolSpec(np.pi / 7, 0.1))]
    results = sa.solve_batch(channels, ["pc"], "worst")
    for ch, result in zip(channels, results):
        assert result.error is None
        assert result.f_target == sa.worst_fidelity(np.eye(2), ch)


@pytest.mark.parametrize("constraint", sa.CONSTRAINT_KINDS)
def test_solve_kraus_target_matches_process_matrix(constraint):
    # solve takes a Kraus target as solve_batch does: on its process matrix.
    ch = sa.adc(sa.AdcSpec(0.25))
    for model in sa.MODELS:
        a = sa.solve(sa.ApproximationProblem(ch, model, constraint))
        b = sa.solve(sa.ApproximationProblem(sa.kraus_to_chi(ch), model, constraint))
        for field in dataclasses.fields(sa.ApproximationResult):
            if field.name != "params":
                assert getattr(a, field.name) == getattr(b, field.name), (model, field.name)
        assert a.params.probs.tobytes() == b.params.probs.tobytes(), model


def test_average_case_of_a_roundoff_negative_chi00():
    # A valid X flip whose chi_00 is a roundoff negative: its average
    # fidelity is clipped to 0, as the worst case's is, so X is honest.
    chi = sa.ChiMatrix(np.diag([-5e-11, 2.0 + 5e-11, 0.0, 0.0]))
    assert not sa.validate_cptp(chi)
    for model in sa.MODELS:
        r = sa.solve(sa.ApproximationProblem(chi, model, "avg"))
        assert r.support == (("X", 1.0),), model
        assert r.f_target == r.f_model == 0.0, model


def test_qp_that_does_not_converge_raises_solver_error(monkeypatch):
    monkeypatch.setattr(sa.qp, "_MAX_ITER", 1)
    with pytest.raises(sa.SolverError, match=r"active-set QP did not converge \(kkt residual"):
        sa.solve(adc_problem(0.25, "cmc", "avg"))


@pytest.mark.parametrize("model", sa.MODELS)
def test_worst_fidelity_of_full_damping_is_not_negative(model):
    # At gamma = 1 the target's worst fidelity is 0; the model's is clipped
    # to [0, 1] like the target's, so roundoff cannot report it below 0.
    result = sa.solve(adc_problem(1.0, model, "worst"))
    assert 0.0 <= result.f_model <= result.f_target


def test_extract_support_threshold_and_order():
    result = sa.solve(adc_problem(0.25, "pc"))
    support = sa.extract_support(result, threshold=0.0)
    assert support == sorted(support, key=lambda t: -t[1])
    assert sa.extract_support(result, threshold=1.0) == []
    with pytest.raises(ValueError):
        sa.extract_support(result, threshold=-1.0)
    with pytest.raises(ValueError, match="threshold must be >= 0, got nan"):
        sa.extract_support(result, threshold=float("nan"))
