"""Tests of the benchmark's own code: the correctness checks, the tail
percentile rule, span self times, the timing calibration and the compare
verdicts.

    python -m pytest bench -q
"""

import dataclasses

import pytest

import stabapprox as sa
from stabapprox import approximate

import checks
import reference
from compare import verdict
from run import tail_metrics
from tracing import SOLVE, Spans, Tracer


def adc_outcome(gamma, model, constraint="avg"):
    ch = sa.adc(sa.AdcSpec(gamma))
    result = sa.solve(sa.ApproximationProblem(sa.kraus_to_chi(ch), model, constraint, ch))
    return checks.from_result(result, "adc", gamma, ("adc", gamma))


@pytest.mark.parametrize("model", ["pc", "pmc"])
def test_checks_pass_exact_answers_and_flag_perturbed_distance(model):
    good = adc_outcome(0.25, model)
    assert checks.check_all([good]) == {}
    bad = dataclasses.replace(good, distance=good.distance + 1e-3)
    assert list(checks.check_all([bad])) == [0]


def test_checks_flag_perturbed_worst_case_distance():
    good = adc_outcome(0.3, "pc", "worst")
    assert checks.check_all([good]) == {}
    bad = dataclasses.replace(good, distance=good.distance + 1e-3)
    assert list(checks.check_all([bad])) == [0]


def test_checks_flag_dishonest_fidelity():
    good = adc_outcome(0.25, "pc")
    bad = dataclasses.replace(good, f_model=good.f_target + 1e-9)
    (reasons,) = checks.check_all([bad]).values()
    assert any("dishonest" in r for r in reasons)


def test_checks_flag_model_equality_and_hierarchy():
    pc, cc = adc_outcome(0.25, "pc"), adc_outcome(0.25, "cc")
    assert checks.check_all([pc, cc]) == {}
    off = dataclasses.replace(cc, distance=cc.distance + 1e-6)
    assert 1 in checks.check_all([pc, off])

    target = sa.random_chi_batch(sa.RandomChannelSpec(seed=5, count=1))[0]
    results = sa.solve_batch([target], list(sa.MODELS), "avg")
    outcomes = [checks.from_result(r, "random", None, ("random", 5)) for r in results]
    assert checks.check_all(outcomes) == {}
    outcomes[3] = dataclasses.replace(outcomes[3], distance=outcomes[2].distance + 1e-6)
    assert 3 in checks.check_all(outcomes)


def test_checks_count_solver_errors():
    o = checks.Outcome("random", None, ("random", 0), "pc", "avg", error="boom")
    assert checks.check_all([o]) == {0: ["solver error: boom"]}


def test_support_round_trip_rebuilds_parameters():
    o = adc_outcome(0.25, "pmc")
    probs = checks.probs_from_support("pmc", o.support)
    assert probs == pytest.approx(o.probs, abs=1e-6)


def test_tail_percentile_needs_1000_samples():
    assert tail_metrics([1.0] * 999) == {}
    tail = tail_metrics([float(i) for i in range(1000)])
    assert tail["solve_ms_p99_samples"] == 1000
    assert 985.0 < tail["solve_ms_p99"] < 995.0


def nested_spans():
    """cli.main [0, 10] holds solve A [1, 4] and solve B [5, 9].  A runs a
    nested sub-solve [2, 3] and a QP [1.5, 1.8]; B runs a QP [6, 8]."""
    sp = Spans()
    main = sp.add("cli.main", 0.0, 10.0)
    a = sp.add(SOLVE, 1.0, 4.0, main, 0)
    sp.add(SOLVE, 2.0, 3.0, a, 0)
    sp.add("qp.solve_lsq_qp", 1.5, 1.8, a, 0)
    b = sp.add(SOLVE, 5.0, 9.0, main, 1)
    sp.add("qp.solve_lsq_qp", 6.0, 8.0, b, 1)
    return sp


def test_self_time_of_nested_spans():
    sp = nested_spans()
    # A: 3 - 1 - 0.3, nested: 1, B: 4 - 2
    assert sp.self_time(SOLVE) == pytest.approx(1.7 + 1.0 + 2.0)
    assert sp.self_time("qp.solve_lsq_qp") == pytest.approx(2.3)
    assert sp.self_time("cli.main") == pytest.approx(10.0 - 3.0 - 4.0)
    assert sp.self_time("cli.main", children=(SOLVE,)) == pytest.approx(3.0)
    assert sp.outermost(SOLVE) == [1, 4]
    assert sp.self_time("absent") == 0.0


def test_self_time_counts_overlapping_children_once():
    sp = Spans()
    top = sp.add("outer", 0.0, 4.0)
    sp.add("inner", 0.0, 2.0, top)
    sp.add("inner", 1.0, 3.0, top)
    sp.add("inner", 3.5, 5.0, top)  # clipped to the parent's end
    assert sp.self_time("outer") == pytest.approx(4.0 - 3.0 - 0.5)


def test_tracer_records_one_solve_and_restores_the_package():
    original = approximate.solve
    ch = sa.pol_xy(sa.PolSpec(0.3, 0.1))
    problem = sa.ApproximationProblem(sa.kraus_to_chi(ch), "cc", "avg")
    with Tracer() as tracer:
        approximate.solve(problem)
    assert approximate.solve is original
    m = tracer.layer_metrics()
    assert m["qp.solve_lsq_qp.calls"][0] == 1
    assert m["approximate.solve.nested_calls"][0] == 0
    assert m["qp.iterations_mean"][0] >= 1
    sp = tracer.spans
    assert set(sp.request) == {0}
    assert sp.parent[sp.indices("qp.solve_lsq_qp")[0]] == sp.indices(SOLVE)[0]


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    assert verdict(parent, faster, 0.1, "lower") == "better"
    assert verdict(parent, [v * 1.2 for v in parent], 0.1, "lower") == "worse"
    assert verdict(parent, [v * 1.02 for v in parent], 0.1, "lower") == "within bound"
    assert verdict(parent, faster, 0.1, "higher") == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(parent, noisy, 0.1, "lower") == "unresolved"
    assert verdict(parent[:3], faster[:3], 0.1, "lower") == "within bound"


def test_calibration_factor_is_the_smoothed_kernel_time():
    ms = 1e-3 * reference.REFERENCE_MS
    segs = [reference.Segment(1.0, 1.0, [], r * ms) for r in (2, 2, 2, 2, 4, 4, 4, 4, 4)]
    fs = reference.factors(2 * ms, segs, smooth=4)
    assert fs[:4] == pytest.approx([0.5] * 4)  # a quiet stretch at half speed
    assert fs[4] == pytest.approx(1 / 3)  # median of 2, 2, 4, 4
    assert fs[-3:] == pytest.approx([0.25] * 3)
    # fewer timings than `smooth`: the median of all of them
    assert reference.factors(2 * ms, segs[:1], smooth=4) == pytest.approx([0.5])


def test_calibration_scales_wall_cpu_and_latencies():
    kernel_s = 4e-3 * reference.REFERENCE_MS  # a host at a quarter of the speed
    cal = reference.Calibration(reference=lambda: kernel_s, segment_s=0.0)
    cal.start()
    cal.add_latency(0.2)
    cal.add_latency(0.4)
    cal.maybe_cut()
    cal.add_latency(0.8)
    cal.cut()
    t = cal.totals()
    assert len(cal.segments) == 2
    assert t["latencies_s"] == [0.2, 0.4, 0.8]
    assert t["latencies_cal_s"] == pytest.approx([0.05, 0.1, 0.2])
    assert t["wall_cal_s"] == pytest.approx(t["wall_s"] / 4)
    assert t["cpu_cal_s"] == pytest.approx(t["cpu_s"] / 4)
    assert t["factor_median"] == pytest.approx(0.25)
