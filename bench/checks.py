"""Correctness checks on the benchmark's own outputs.

Every solve a run makes is checked; a solve that raises, comes back with
`error` set or fails any check counts as failed.  The tolerances are the
ones the acceptance tests use (tests/test_acceptance.py, criteria 1-8):

* closed forms: 1e-6 under the average constraint, 1e-4 under the worst
  case, 1e-4 on support probabilities;
* model equalities (pc = cc, pmc = cmc, pol pmc = pc and cmc = cc): 1e-7;
* polarization, average equals worst case: 1e-6;
* average-constraint model hierarchy: 1e-7;
* honesty: f_model <= f_target + 1e-10 on every solve;
* the mixture is CPTP: validate_cptp(mixture_chi(params)) == [].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stabapprox import MixtureParams, enumerate_generators, mixture_chi, validate_cptp

AVG_TOL = 1e-6
WORST_TOL = 1e-4
SUPPORT_TOL = 1e-4
EQUAL_TOL = 1e-7
POL_AVG_WORST_TOL = 1e-6
HIERARCHY_TOL = 1e-7
HONESTY_SLACK = 1e-10

#: p of the polarization targets, as in criteria 5 and 6.
POL_P = 0.1


@dataclass
class Outcome:
    """One top-level solve as the benchmark saw it.

    `kind` is "adc", "pol" or "random"; `param` is gamma or phi (None for
    random targets); `group` identifies the target, so that solves of one
    target under different models can be compared.
    """

    kind: str
    param: float | None
    group: tuple
    model: str
    constraint: str
    distance: float = math.nan
    f_target: float = math.nan
    f_model: float = math.nan
    probs: np.ndarray | None = None
    support: tuple[tuple[str, float], ...] = ()
    error: str | None = None


def from_result(result, kind: str, param: float | None, group: tuple) -> Outcome:
    """Outcome of a library `ApproximationResult`."""
    return Outcome(
        kind=kind,
        param=param,
        group=group,
        model=result.model,
        constraint=result.constraint,
        distance=result.distance,
        f_target=result.f_target,
        f_model=result.f_model,
        probs=np.array(result.params.probs),
        support=tuple(result.support),
        error=result.error,
    )


def probs_from_support(model: str, support: tuple[tuple[str, float], ...]) -> np.ndarray:
    """Parameter vector rebuilt from `label=prob` support pairs."""
    index = {gen.label: i for i, gen in enumerate(enumerate_generators(model))}
    probs = np.zeros(len(index))
    for label, p in support:
        probs[index[label]] = p
    return probs


def adc_avg_distance(gamma: float, model: str) -> float:
    """Criteria 1-3: gamma^2/8 for pc and cc, the translation closed form
    for pmc and cmc."""
    if model in ("pc", "cc"):
        return gamma**2 / 8
    s = math.sqrt(1 - gamma)
    return (gamma - 1) * (gamma + 2 * s - 2) / 8


def adc_worst_distance(gamma: float, model: str) -> float:
    """Criterion 4."""
    s = math.sqrt(1 - gamma)
    if model in ("pc", "cc"):
        return (2 * gamma**2 - 3 * gamma + 2 + 2 * gamma * s - 2 * s) / 4
    return 2 * (gamma - 1) * (gamma + 2 * s - 2) / 8


def pol_avg_distance(phi: float, model: str, p: float = POL_P) -> float:
    """Criteria 5 and 6 (valid for phi in [0, pi/4])."""
    if model in ("pc", "pmc"):
        return 0.25 * p**2 * math.sin(2 * phi) ** 2
    return 3 / 28 * p**2 * (math.sin(2 * phi) + math.cos(2 * phi) - 1) ** 2


def _close(got: float, want: float, tol: float, what: str) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{what}: got {got!r}, want {want!r} (tol {tol:g})"]


def check_solve(o: Outcome) -> list[str]:
    """Checks every solve must pass, whatever its target."""
    if o.error is not None:
        return [f"solver error: {o.error}"]
    if not math.isfinite(o.distance):
        return [f"distance is {o.distance!r}"]
    problems = []
    if not o.f_model <= o.f_target + HONESTY_SLACK:
        problems.append(f"dishonest: f_model {o.f_model!r} > f_target {o.f_target!r}")
    probs = o.probs if o.probs is not None else probs_from_support(o.model, o.support)
    try:
        violations = validate_cptp(mixture_chi(MixtureParams(o.model, probs)))
    except ValueError as exc:
        violations = [str(exc)]
    if violations:
        problems.append(f"mixture is not CPTP: {violations}")
    return problems


def check_closed_form(o: Outcome) -> list[str]:
    """The paper's closed forms on ADC and polarization targets."""
    if o.kind == "adc" and o.constraint == "avg":
        out = _close(o.distance, adc_avg_distance(o.param, o.model), AVG_TOL, "ADC avg distance")
        if o.model in ("pmc", "cmc"):
            s = math.sqrt(1 - o.param)
            out += _check_support(o, {"T|0>": (1 + o.param - s) / 2})
        return out
    if o.kind == "adc" and o.constraint == "worst":
        return _close(o.distance, adc_worst_distance(o.param, o.model), WORST_TOL, "ADC worst distance")
    if o.kind == "pol" and o.constraint == "avg":
        out = _close(o.distance, pol_avg_distance(o.param, o.model), AVG_TOL, "pol avg distance")
        if o.model == "cc":
            c, s, p = math.cos(2 * o.param), math.sin(2 * o.param), POL_P
            out += _check_support(o, {
                "X": p / 7 * (3 + 4 * c - 3 * s),
                "H(x,y)+": p / 7 * (3 - 3 * c + 4 * s),
            })
        return out
    return []


def _check_support(o: Outcome, want: dict[str, float]) -> list[str]:
    got = dict(o.support)
    if set(got) != set(want):
        return [f"support {sorted(got)}, want {sorted(want)}"]
    out = []
    for label, p in want.items():
        out += _close(got[label], p, SUPPORT_TOL, f"support {label}")
    return out


#: (larger model, smaller model) pairs whose average-constraint distances
#: must not increase with the larger catalog (criterion 8).
HIERARCHY = (("cmc", "cc"), ("cmc", "pmc"), ("cc", "pc"), ("pmc", "pc"))

#: (model, model) pairs with equal distances on ADC targets (criteria 2, 3)
#: and polarization targets (criterion 6), average constraint.
EQUAL_PAIRS = {"adc": (("cc", "pc"), ("cmc", "pmc")), "pol": (("pmc", "pc"), ("cmc", "cc"))}


def check_groups(outcomes: list[Outcome]) -> dict[int, list[str]]:
    """Cross-model checks among the solves of one target: the equalities of
    criteria 2, 3 and 6 and the hierarchy of criterion 8 (random targets).
    A failure is charged to the first model of the pair."""
    groups: dict[tuple, dict[str, int]] = {}
    for i, o in enumerate(outcomes):
        if o.constraint == "avg" and o.error is None:
            groups.setdefault(o.group, {})[o.model] = i
    problems: dict[int, list[str]] = {}
    for members in groups.values():
        kind = outcomes[next(iter(members.values()))].kind
        for a, b in EQUAL_PAIRS.get(kind, ()):
            if a in members and b in members:
                da, db = outcomes[members[a]].distance, outcomes[members[b]].distance
                if abs(da - db) > EQUAL_TOL:
                    problems.setdefault(members[a], []).append(
                        f"{a} distance {da!r} differs from {b} {db!r}")
        if kind == "random":
            for a, b in HIERARCHY:
                if a in members and b in members:
                    da, db = outcomes[members[a]].distance, outcomes[members[b]].distance
                    if da > db + HIERARCHY_TOL:
                        problems.setdefault(members[a], []).append(
                            f"hierarchy: {a} {da!r} > {b} {db!r}")
    return problems


def check_all(outcomes: list[Outcome], extra: dict[int, list[str]] | None = None) -> dict[int, list[str]]:
    """Every check on every outcome: index -> reasons, failing ones only.
    `extra` adds failures found by workload-specific checks."""
    problems = check_groups(outcomes)
    for i, msgs in (extra or {}).items():
        problems.setdefault(i, []).extend(msgs)
    for i, o in enumerate(outcomes):
        found = check_solve(o)
        if o.error is None and math.isfinite(o.distance):
            found += check_closed_form(o)
        if found:
            problems.setdefault(i, []).extend(found)
    return problems
