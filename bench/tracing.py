"""Spans and counters recorded around the package's layer entry points.

The benchmark never edits the package: it replaces module attributes with
wrappers for the length of a run and puts the originals back afterwards.
A function is wrapped at the attribute its caller resolves.  For example
`approximate` binds `min_quadratic_form` by name at import, so the wrapper
goes on `stabapprox.approximate`, while `_solve_average` imports
`solve_lsq_qp` at call time, so that wrapper goes on `stabapprox.qp`.

Two recorders share the patching code:

* `LatencyRecorder` (end-to-end runs) times each outermost `solve` call
  and records nothing else.
* `Tracer` (traced runs) records one span per wrapped call: name, start,
  end, parent span and the id of the top-level solve it belongs to.
  Spans are kept in flat arrays and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

SOLVE = "approximate.solve"

#: (module, attribute, span name).  A missing attribute is skipped, so the
#: benchmark still runs against a package version that dropped an entry
#: point; the layer's counts then read 0.
TRACE_POINTS = (
    ("approximate", "solve", SOLVE),
    ("cli", "main", "cli.main"),
    ("cli", "solve", SOLVE),
    ("approximate", "validate_cptp", "channels.validate_cptp"),
    ("approximate", "mixture_chi", "catalog.mixture_chi"),
    ("approximate", "average_qp_data", "approximate.average_qp_data"),
    ("approximate", "min_quadratic_form", "metrics.min_quadratic_form"),
    ("metrics", "min_quadratic_form", "metrics.min_quadratic_form"),
    ("approximate", "worst_fidelity", "metrics.worst_fidelity"),
    ("approximate", "minimize", "approximate.minimize"),
    ("qp", "solve_lsq_qp", "qp.solve_lsq_qp"),
    ("channels", "kraus_to_chi", "channels.kraus_to_chi"),
    ("channels", "chi_to_kraus", "channels.chi_to_kraus"),
    ("cli", "chi_to_kraus", "channels.chi_to_kraus"),
    ("targets", "random_chi", "targets.random_chi"),
    ("targets", "haar_unitary", "targets.haar_unitary"),
)


class Patches:
    """Module attributes replaced for the length of a `with` block."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _module(short: str):
    try:
        return importlib.import_module(f"stabapprox.{short}")
    except ModuleNotFoundError:
        return None


class LatencyRecorder(Patches):
    """Times every outermost `solve` call (nested sub-solves of the
    worst-case path are part of their caller's latency) and hands the
    latency to `calibration` (see reference.py), which may time its
    reference kernel after the solve returns.  Without a calibration it
    only adds the wrapper, so an untraced run pays the same overhead."""

    def __init__(self, calibration=None):
        super().__init__()
        self._calibration = calibration
        self._depth = 0
        for short in ("approximate", "cli"):
            self.wrap(_module(short), "solve", self._timed)

    def _timed(self, original):
        def timed(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0 and self._calibration is not None:
                    self._calibration.add_latency(time.perf_counter() - start)
                    self._calibration.maybe_cut()

        return timed


class Spans:
    """Flat span storage: one entry per recorded call."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")

    def __len__(self) -> int:
        return len(self.name)

    def add(self, name: str, start: float, end: float, parent: int = -1, request: int = -1) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.request.append(request)
        return len(self.name) - 1

    def indices(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [i for i, n in enumerate(self.name) if n == nid]

    def count(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.name.count(nid)

    def total(self, name: str) -> float:
        return sum(self.end[i] - self.start[i] for i in self.indices(name))

    def self_time(self, name: str, children: tuple[str, ...] | None = None) -> float:
        """Summed self time of the spans called `name`: each span's duration
        minus the part of it that its child spans cover (only children
        named in `children`, when given)."""
        targets = set(self.indices(name))
        if not targets:
            return 0.0
        child_ids = None if children is None else {self._name_ids.get(c) for c in children}
        kids: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p in targets and (child_ids is None or self.name[i] in child_ids):
                kids[p].append(i)
        total = 0.0
        for t in targets:
            lo, hi = self.start[t], self.end[t]
            covered = 0.0
            reach = lo
            for k in sorted(kids.get(t, ()), key=lambda k: self.start[k]):
                s, e = max(self.start[k], reach), min(self.end[k], hi)
                if e > s:
                    covered += e - s
                    reach = e
            total += (hi - lo) - covered
        return total

    def outermost(self, name: str) -> list[int]:
        """Spans called `name` with no ancestor of the same name."""
        nid = self._name_ids.get(name)
        found = []
        for i in self.indices(name):
            p = self.parent[i]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:
                found.append(i)
        return found

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
        )


class Tracer(Patches):
    """Records a span around every call through the wrapped attributes.

    Spans inside one outermost `solve` share its request id; spans outside
    any solve get -1.  Counters observed from return values (QP iterations,
    SLSQP iterations and feasibility) go to `counts`, maxima to `maxima`.
    """

    def __init__(self):
        super().__init__()
        self.spans = Spans()
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._solve_depth = 0
        self._request = -1
        self._next_request = 0
        self._paused = False
        observers = {
            "qp.solve_lsq_qp": self._observe_qp,
            "approximate.minimize": self._observe_minimize,
        }
        for short, attr, name in TRACE_POINTS:
            self.wrap(
                _module(short),
                attr,
                functools.partial(self._traced, name=name, observe=observers.get(name)),
            )

    def _open(self, name: str) -> int:
        if name == SOLVE:
            if self._solve_depth == 0:
                self._request = self._next_request
                self._next_request += 1
            self._solve_depth += 1
        parent = self._stack[-1] if self._stack else -1
        idx = self.spans.add(name, time.perf_counter(), 0.0, parent, self._request)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans.end[idx] = time.perf_counter()
        self._stack.pop()
        if self.spans.names[self.spans.name[idx]] == SOLVE:
            self._solve_depth -= 1
            if self._solve_depth == 0:
                self._request = -1

    def _traced(self, original, *, name, observe):
        def traced(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_qp(self, args, kwargs, res) -> None:
        its = float(getattr(res, "iterations", 0))
        self.counts["qp.iterations"] += its
        self.maxima["qp.iterations"] = max(self.maxima["qp.iterations"], its)
        kkt = float(getattr(res, "kkt_residual", 0.0))
        self.maxima["qp.kkt_residual"] = max(self.maxima["qp.kkt_residual"], kkt)
        self.counts["qp.not_converged"] += not getattr(res, "converged", True)

    def _observe_minimize(self, args, kwargs, res) -> None:
        """SLSQP iterations, and whether the end point passes the solver's
        own acceptance test (clip to the box, renormalize, every inequality
        >= -1e-9).  The test re-evaluates the constraints untraced."""
        self.counts["slsqp.nit"] += float(getattr(res, "nit", 0))
        p = np.clip(res.x, 0.0, 1.0)
        if float(p.sum()) > 1.0:
            p = p / float(p.sum())
        self._paused = True
        try:
            feasible = all(
                c["fun"](p) >= -1e-9
                for c in kwargs.get("constraints", ())
                if c.get("type") == "ineq"
            )
        finally:
            self._paused = False
        self.counts["slsqp.feasible"] += feasible

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything recorded so far, as name ->
        (value, unit)."""
        sp = self.spans
        cli_main = set(sp.indices("cli.main"))
        ms = 1e3
        solves = sp.count(SOLVE)
        outer = sp.outermost(SOLVE)
        top = len(outer)
        solve_wall = sum(sp.end[i] - sp.start[i] for i in outer)
        mqf_calls = sp.count("metrics.min_quadratic_form")
        mqf_s = sp.total("metrics.min_quadratic_form")
        starts = sp.count("approximate.minimize")
        qp_calls = sp.count("qp.solve_lsq_qp")
        haar = sp.count("targets.haar_unitary")
        out = {
            "metrics.min_quadratic_form.calls": (mqf_calls, "count"),
            "metrics.min_quadratic_form.ms": (mqf_s * ms, "ms"),
            "metrics.min_quadratic_form.us_per_call": (
                mqf_s * 1e6 / mqf_calls if mqf_calls else 0.0, "us"),
            "metrics.min_quadratic_form.share_of_solve": (
                mqf_s / solve_wall if solve_wall else 0.0, "fraction"),
            "approximate.slsqp.calls": (starts, "count"),
            "approximate.slsqp.self_ms": (sp.self_time("approximate.minimize") * ms, "ms"),
            "approximate.slsqp.nit_total": (self.counts["slsqp.nit"], "count"),
            "approximate.slsqp.feasible_ratio": (
                self.counts["slsqp.feasible"] / starts if starts else 0.0, "ratio"),
            "approximate.worst.starts_per_solve": (starts / top if top else 0.0, "count"),
            "approximate.solve.nested_calls": (solves - top, "count"),
            "approximate.solve.self_ms": (sp.self_time(SOLVE) * ms, "ms"),
            "approximate.average_qp_data.ms": (sp.total("approximate.average_qp_data") * ms, "ms"),
            "qp.solve_lsq_qp.calls": (qp_calls, "count"),
            "qp.solve_lsq_qp.ms": (sp.total("qp.solve_lsq_qp") * ms, "ms"),
            "qp.iterations_mean": (
                self.counts["qp.iterations"] / qp_calls if qp_calls else 0.0, "count"),
            "qp.iterations_max": (self.maxima["qp.iterations"], "count"),
            "qp.kkt_residual_max": (self.maxima["qp.kkt_residual"], "1"),
            "qp.not_converged": (self.counts["qp.not_converged"], "count"),
            "channels.validate_cptp.calls": (sp.count("channels.validate_cptp"), "count"),
            "channels.validate_cptp.ms": (sp.total("channels.validate_cptp") * ms, "ms"),
            "channels.kraus_to_chi.ms": (sp.total("channels.kraus_to_chi") * ms, "ms"),
            "channels.chi_to_kraus.ms": (sp.total("channels.chi_to_kraus") * ms, "ms"),
            "catalog.mixture_chi.calls": (sp.count("catalog.mixture_chi"), "count"),
            "catalog.mixture_chi.ms": (sp.total("catalog.mixture_chi") * ms, "ms"),
            "targets.random_chi.ms": (sp.total("targets.random_chi") * ms, "ms"),
            "targets.random_chi.accept_ratio": (
                sp.count("targets.random_chi") / haar if haar else 0.0, "ratio"),
            "cli.self_ms": (sp.self_time("cli.main", children=(SOLVE,)) * ms, "ms"),
            "cli.rows": (sum(sp.parent[i] in cli_main for i in outer), "count"),
        }
        return {k: (float(v), unit) for k, (v, unit) in out.items()}

