"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload avg-random --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from src/.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it is the full record: environment,
every metric (also those not listed in BENCHMARK.json) and a sample of
failed checks.  `--out FILE` appends the full record to a JSON-lines file
that bench/compare.py reads.

--trace 0 measures the end-to-end metrics for --seconds seconds (whole
passes; at least one), with the timings calibrated against the reference
kernel of reference.py; the raw timings are in the record as raw_*.  --trace 1 runs the workload's fixed traced work
(Workload.trace_passes) twice, untraced and then traced, reports the
per-layer metrics and the tracing overhead, and writes the spans to
bench/out/spans-<workload>.npz.  Thread settings are left as found.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here: import plus warm-up

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from reference import REFERENCE_MS, Calibration, reference_s
from tracing import LatencyRecorder, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("avg-random", "sweep-cli", "worst-grid", "worst-mixed")
SETUP_PROBES = 5  # fresh processes timed; set-up is their median
SETUP_REFERENCE_REPEAT = 5  # kernel timings before and after each probe
PROBE_TIMEOUT_S = 60
TAIL_MIN_SAMPLES = 1000  # p99 has at least 10 samples beyond it
FAILURE_SAMPLE = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="append the full record to this JSON-lines file")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def tail_metrics(latencies_ms: list[float]) -> dict[str, float]:
    """solve_ms_p99 and its sample count, only where at least 10 samples
    lie beyond the 99th percentile."""
    if len(latencies_ms) < TAIL_MIN_SAMPLES:
        return {}
    return {
        "solve_ms_p99": statistics.quantiles(latencies_ms, n=100)[98],
        "solve_ms_p99_samples": len(latencies_ms),
    }


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def probe_setup(workload: str) -> tuple[float, float]:
    """Set-up time of a fresh process, as bench/setup_probe.py measures it:
    (raw seconds, seconds calibrated by the reference kernel timed just
    before and just after the probe)."""
    before = reference_s(SETUP_REFERENCE_REPEAT)
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    after = reference_s(SETUP_REFERENCE_REPEAT)
    raw = float(done.stdout.strip().splitlines()[-1])
    return raw, raw * REFERENCE_MS * 1e-3 / (0.5 * (before + after))


def run_passes(workload, seed: int, *, seconds: float | None = None, passes: int | None = None,
               after_pass=None):
    """Whole passes until `seconds` have elapsed or `passes` are done,
    calling `after_pass` after each.  Returns (outcomes, wall seconds,
    process CPU seconds, passes run)."""
    outcomes = []
    k = 0
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    while True:
        outcomes += workload.run_pass(seed, k)
        k += 1
        if after_pass is not None:
            after_pass()
        wall = time.perf_counter() - t0
        if (k >= passes) if passes is not None else (wall >= seconds):
            return outcomes, wall, time.process_time() - cpu0, k


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, args, setup_main: float):
    """The end-to-end metrics.  Timings are calibrated to the reference
    speed (reference.py); the raw ones go to the record as `raw_*`."""
    setup_raw, setup = zip(*(probe_setup(workload.name) for _ in range(SETUP_PROBES)))
    calibration = Calibration()
    with LatencyRecorder(calibration):
        calibration.start()
        outcomes, wall, _, passes = run_passes(
            workload, args.seed, seconds=args.seconds, after_pass=calibration.maybe_cut)
        calibration.cut()
    t = calibration.totals()
    latencies_ms = [s * 1e3 for s in t["latencies_cal_s"]]
    raw_latencies_ms = [s * 1e3 for s in t["latencies_s"]]
    distances = [o.distance for o in outcomes if math.isfinite(o.distance)]
    n = len(outcomes)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "solves_per_s": metric(n / t["wall_cal_s"], "1/s"),
        "solve_ms_p50": metric(statistics.median(latencies_ms), "ms"),
        "cpu_ms_per_solve": metric(t["cpu_cal_s"] * 1e3 / n, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "distance_mean": metric(statistics.fmean(distances) if distances else math.nan, "1"),
    }
    extra = {
        **{k: metric(v, "ms" if k == "solve_ms_p99" else "count")
           for k, v in tail_metrics(latencies_ms).items()},
        "raw_setup_s": metric(statistics.median(setup_raw), "s"),
        "raw_solves_per_s": metric(n / t["wall_s"], "1/s"),
        "raw_solve_ms_p50": metric(statistics.median(raw_latencies_ms), "ms"),
        "raw_cpu_ms_per_solve": metric(t["cpu_s"] * 1e3 / n, "ms"),
        "raw_setup_s_samples": metric(list(setup_raw), "s"),
        "setup_s_in_process": metric(setup_main, "s"),
        "speed_factor_median": metric(t["factor_median"], "1"),
        "segments": metric(len(calibration.segments), "count"),
        "passes": metric(passes, "count"),
        "wall_s": metric(wall, "s"),
        "latency_samples": metric(len(latencies_ms), "count"),
    }
    return outcomes, metrics, extra


def calibrated_passes(workload, seed: int, recorder):
    """The workload's fixed traced work under `recorder`, with the reference
    kernel timed between passes.  Returns (outcomes, calibrated wall s)."""
    calibration = Calibration()
    with recorder:
        calibration.start()
        outcomes, _, _, _ = run_passes(workload, seed, passes=workload.trace_passes,
                                       after_pass=calibration.cut)
    return outcomes, calibration.totals()["wall_cal_s"]


def traced(workload, args):
    plain, plain_wall = calibrated_passes(workload, args.seed, LatencyRecorder())
    tracer = Tracer()
    outcomes, wall = calibrated_passes(workload, args.seed, tracer)
    metrics = {k: metric(v, unit) for k, (v, unit) in tracer.layer_metrics().items()}
    metrics["trace_overhead_frac"] = metric(wall / plain_wall - 1.0, "fraction")
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.spans.save(out_dir / f"spans-{workload.name}.npz")
    extra = {"spans": metric(len(tracer.spans), "count"), "wall_cal_s": metric(wall, "s")}
    return plain + outcomes, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stabapprox" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'stabapprox'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if Path(workloads.stabapprox.__file__).resolve().parent != SRC / "stabapprox":
        print(f"error: imported stabapprox from {workloads.stabapprox.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workload.warm_up()
    setup_main = time.perf_counter() - _T0

    if args.trace:
        outcomes, metrics, extra = traced(workload, args)
    else:
        outcomes, metrics, extra = end_to_end(workload, args, setup_main)
    problems = workload.check(outcomes)
    failed = len(problems)
    attempted = len(outcomes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    extra["failed_frac"] = metric(failed / attempted, "fraction")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **result,
        "metrics": {**metrics, **extra},
        "failures": [
            {"solve": i, "kind": outcomes[i].kind, "param": outcomes[i].param,
             "model": outcomes[i].model, "reasons": reasons}
            for i, reasons in sorted(problems.items())[:FAILURE_SAMPLE]
        ],
    }
    print(json.dumps({"record": record}))
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
