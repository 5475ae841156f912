"""The benchmark's workloads.

Each workload is a sequence of passes.  Pass k's inputs are a pure
function of (seed, k), and every pass uses inputs no earlier pass used, so
a cache keyed on inputs gains nothing across passes; neighbouring inputs
inside a pass are what a warm start could use.  Solver options stay at the
package defaults, as the command line uses them.

avg-random
    `random_chi_batch` then `solve_batch(targets, MODELS, "avg")`: the
    library path of the 2000-channel study (acceptance criterion 7), in
    batches of CHUNK targets.  Bound by the active-set QP; unrelated
    neighbouring targets give a warm start nothing to reuse.
sweep-cli
    `cli.main(["sweep", ...])` in-process over an ADC gamma grid and a
    polarization phi grid at p = 0.1, all four models, average
    constraint, stdout captured and parsed back.  Structured targets with
    sparse supports and few QP iterations, so per-call overhead (channel
    and catalog helpers, CLI parsing and CSV output) is a large share.
    Each pass shifts both grids by a seeded offset below 0.002.
worst-grid
    `solve(..., "worst")` with pc on an ADC gamma grid, cc on one ADC and
    one polarization point, pc on two polarization points, and pc and cc
    on one seeded random target in `chi_to_kraus` form, each pass shifted
    like sweep-cli.  The listed workload through SLSQP, the
    finite-difference gradient, `min_quadratic_form` and cc's nested pc
    sub-solve.  Every solve takes under 3 s, so a run averages several
    passes.  A pass has an odd number of solves (15), so the median
    latency is one solve's latency (pc at a polarization point or at ADC
    gamma = 0.7, all close), not the midpoint of a gap between two.
worst-mixed (not in BENCHMARK.json; run it by hand)
    `solve(..., "worst")` on ADC and polarization targets (criteria 4 and
    6) plus RANDOM_COUNT seeded random targets in `chi_to_kraus` form,
    all four models; cmc runs on ADC gamma = 0.1 only, its cheapest
    criterion-4 point.  That one cmc solve takes 16-22 s, so a run is a
    single pass of 33-46 s whose time swings with the host.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import stabapprox
from stabapprox import approximate, channels, cli, targets
from stabapprox.catalog import MODELS

from checks import POL_AVG_WORST_TOL, POL_P, Outcome, check_all, from_result

CHUNK = 25
SWEEP_STEPS = 25
ADC_RANGE = (0.05, 0.95)  # the gamma grid of criteria 1-3
POL_RANGE = (math.pi / 40, 9 * math.pi / 40)  # the phi grid of criterion 5
SHIFT_MAX = 0.002

#: ADC gammas of the worst-mixed pc grid (the criterion-1 grid).  Many cheap
#: solves, run between the expensive ones, keep the median latency and the
#: mean distance steady.
WORST_PC_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
#: (kind, gamma or phi, models) of the other worst-mixed structured targets.
WORST_PLAN = (
    ("adc", 0.1, ("pmc", "cc", "cmc")),
    ("pol", math.pi / 8, ("pc", "cc")),
    ("pol", math.pi / 5, ("pc", "cc")),
)
RANDOM_COUNT = 2
RANDOM_MODELS = ("pc", "cc")

#: worst-grid: pc on a gamma grid through the pc points of criterion 4, cc at
#: its gamma = 0.25.
WORST_GRID_PC = tuple(round(0.1 * i, 1) for i in range(1, 10))
WORST_GRID_CC = 0.25


def avg_random_pass(seed: int, k: int) -> list[Outcome]:
    base = seed * 1_000_000 + k * CHUNK
    chis = targets.random_chi_batch(stabapprox.RandomChannelSpec(seed=base, count=CHUNK))
    results = approximate.solve_batch(chis, list(MODELS), "avg")
    return [
        from_result(r, "random", None, ("random", base + i // len(MODELS)))
        for i, r in enumerate(results)
    ]


def _support(text: str) -> tuple[tuple[str, float], ...]:
    pairs = (item.rsplit("=", 1) for item in text.split(";") if item)
    return tuple((label, float(p)) for label, p in pairs)


def _sweep(kind: str, lo: float, hi: float, k: int) -> list[Outcome]:
    argv = ["sweep", "--target", kind, "--min", repr(float(lo)), "--max", repr(float(hi)),
            "--steps", str(SWEEP_STEPS)]
    if kind == "pol":
        argv += ["--p", repr(POL_P)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    outcomes = []
    for row in rows:
        param = float(row["param_gamma"] if kind == "adc" else row["param_phi"])
        outcomes.append(Outcome(
            kind=kind,
            param=param,
            group=(kind, k, param),
            model=row["model"],
            constraint=row["constraint"],
            distance=float(row["distance"]),
            f_target=float(row["f_target"]),
            f_model=float(row["f_model"]),
            support=_support(row["support"]),
        ))
    missing = SWEEP_STEPS * len(MODELS) - len(rows)
    for _ in range(max(missing, 0)):
        outcomes.append(Outcome(kind, None, (kind, k), "?", "avg",
                                error=f"sweep exited {code} with {len(rows)} rows"))
    return outcomes


def sweep_cli_pass(seed: int, k: int) -> list[Outcome]:
    shift = np.random.default_rng([seed, k]).uniform(0.0, SHIFT_MAX, size=2)
    return (_sweep("adc", ADC_RANGE[0] + shift[0], ADC_RANGE[1] + shift[0], k)
            + _sweep("pol", POL_RANGE[0] + shift[1], POL_RANGE[1] + shift[1], k))


def _structured(kind: str, param: float):
    if kind == "adc":
        ch = stabapprox.adc(stabapprox.AdcSpec(param))
    else:
        ch = stabapprox.pol_xy(stabapprox.PolSpec(param, POL_P))
    return channels.kraus_to_chi(ch), ch


def _random_jobs(base: int, count: int, models) -> list[tuple]:
    """Worst-case jobs on `count` random targets given their Kraus form."""
    spec = stabapprox.RandomChannelSpec(seed=base, count=count)
    jobs = []
    for i, chi in enumerate(targets.random_chi_batch(spec)):
        try:
            kraus = channels.chi_to_kraus(chi)
        except ValueError:
            kraus = None  # as solve_batch does: the solve then fails and is counted
        jobs += [("random", None, ("random", base + i), m, chi, kraus) for m in models]
    return jobs


def _solve_worst(jobs) -> list[Outcome]:
    """Run (kind, param, group, model, chi, kraus) jobs in order."""
    outcomes = []
    for kind, param, group, model, chi, kraus in jobs:
        problem = stabapprox.ApproximationProblem(chi, model, "worst", kraus)
        try:
            outcomes.append(from_result(approximate.solve(problem), kind, param, group))
        except Exception as exc:  # a failed solve is counted, not fatal
            outcomes.append(Outcome(kind, param, group, model, "worst",
                                    error=f"{type(exc).__name__}: {exc}"))
    return outcomes


def worst_grid_pass(seed: int, k: int) -> list[Outcome]:
    shift = np.random.default_rng([seed, k]).uniform(0.0, SHIFT_MAX, size=2)
    points = [("adc", g + shift[0], "pc") for g in WORST_GRID_PC]
    points += [("adc", WORST_GRID_CC + shift[0], "cc")]
    points += [("pol", math.pi / 8 + shift[1], m) for m in ("pc", "cc")]
    points += [("pol", math.pi / 5 + shift[1], "pc")]
    jobs = [(kind, param, (kind, param), model, *_structured(kind, param))
            for kind, param, model in points]
    jobs += _random_jobs(seed * 1000 + k, 1, ("pc", "cc"))
    return _solve_worst(jobs)


def worst_mixed_pass(seed: int, k: int) -> list[Outcome]:
    jobs = []
    for kind, param, models in WORST_PLAN:
        chi, ch = _structured(kind, param)
        jobs += [(kind, param, (kind, param), m, chi, ch) for m in models]
    jobs += _random_jobs(seed * 1000 + k * RANDOM_COUNT, RANDOM_COUNT, RANDOM_MODELS)
    grid = [("adc", g, ("adc", g), "pc", *_structured("adc", g)) for g in WORST_PC_GRID]
    per = math.ceil(len(grid) / len(jobs))
    order = []
    for i, job in enumerate(jobs):
        order += grid[i * per:(i + 1) * per] + [job]
    return _solve_worst(order)


def pol_worst_equals_avg(outcomes: list[Outcome]) -> dict[int, list[str]]:
    """Criterion 6: on polarization targets the worst-case distance equals
    the average-constraint one within 1e-6."""
    problems = {}
    for i, o in enumerate(outcomes):
        if o.kind != "pol" or o.constraint != "worst" or o.error is not None:
            continue
        ch = stabapprox.pol_xy(stabapprox.PolSpec(o.param, POL_P))
        avg = stabapprox.solve(stabapprox.ApproximationProblem(
            stabapprox.kraus_to_chi(ch), o.model, "avg"))
        if not abs(o.distance - avg.distance) <= POL_AVG_WORST_TOL:
            problems[i] = [f"pol worst {o.distance!r} != avg {avg.distance!r}"]
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: Callable[[int, int], list[Outcome]]
    constraint: str
    trace_passes: int  # fixed work of a traced run, so its counts repeat
    extra_checks: Callable[[list[Outcome]], dict[int, list[str]]] | None = None
    models: tuple[str, ...] = MODELS

    def warm_up(self) -> None:
        """One solve per model under the workload's constraint, on the
        identity channel, so that the package's per-model tables are built
        before timing starts."""
        ch = channels.identity_channel()
        for model in self.models:
            stabapprox.solve(stabapprox.ApproximationProblem(
                channels.kraus_to_chi(ch), model, self.constraint, ch))

    def check(self, outcomes: list[Outcome]) -> dict[int, list[str]]:
        extra = self.extra_checks(outcomes) if self.extra_checks else None
        return check_all(outcomes, extra)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("avg-random", avg_random_pass, "avg", trace_passes=20),
        Workload("sweep-cli", sweep_cli_pass, "avg", trace_passes=3),
        Workload("worst-grid", worst_grid_pass, "worst", trace_passes=3,
                 extra_checks=pol_worst_equals_avg, models=("pc", "cc")),
        Workload("worst-mixed", worst_mixed_pass, "worst", trace_passes=1,
                 extra_checks=pol_worst_equals_avg),
    )
}
