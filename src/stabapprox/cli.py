"""Command-line front end.

Subcommands
    approx         one approximation query, record on stdout
    sweep          distance curves over a parameter grid, CSV on stdout
    random         random-channel batch study, CSV on stdout + JSON summary
    bloch-section  y=0 cross-section of the Bloch ball through target/model
    validate       CPTP constraint report for a process-matrix JSON file

`sweep` and `random` build all their targets first and solve them in one
solve_batch call.  If any item failed they raise a SolverError with the
first failure's message (exit 3) before writing anything.

All run records share one CSV schema: the fields of RunRecord, in order.
Fields that do not apply are left empty.  Floats are serialized with
repr so that parsing and re-serializing a stream is byte identical.

`bloch-section` maps input states through the process matrices of the
target and of the solved mixture (apply_chi); no subcommand needs a Kraus
form of a process matrix.

A process-matrix JSON file holds 16 entries in row-major (I, X, Y, Z)
order; each entry is a finite number or a two-element [re, im] array.
Generator labels in `support` strings follow the canonical order
documented in stabapprox.catalog ("X", "S+z", "H(x,y)+", "F(+,-,+)",
"T|0>", ...).

Exit codes: 0 success, 2 flag/input error, 3 solver failure, 4 random
generation failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .approximate import (
    ApproximationProblem,
    ApproximationResult,
    SolverError,
    solve,
    solve_batch,
)
from .catalog import MODELS, mixture_chi
from .channels import ChiMatrix, apply_chi, bloch_from_density, density_from_bloch
from .channels import identity_chi, kraus_to_chi, validate_cptp
from .metrics import CONSTRAINT_KINDS, hs_distance
from .targets import AdcSpec, GenerationError, PolSpec, RandomChannelSpec, adc, pol_xy
from .targets import random_chi_batch

BLOCH_COLUMNS = ("theta", "x_in", "z_in", "x_target", "z_target", "x_model", "z_model")


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt12(x: float) -> float:
    """Round to 12 significant digits for JSON summaries; nan and inf pass as they are."""
    return float(f"{x:.12g}")


@dataclass(frozen=True, kw_only=True)
class RunRecord:
    target_kind: str
    param_gamma: float | None = None
    param_phi: float | None = None
    param_p: float | None = None
    model: str
    constraint: str
    distance: float
    f_target: float
    f_model: float
    support: str
    converged: bool
    restarts_used: int
    seed: int | None = None
    channel_index: int | None = None

    def to_csv_row(self) -> list[str]:
        return [_format_cell(getattr(self, name)) for name in CSV_COLUMNS]


CSV_COLUMNS = tuple(f.name for f in fields(RunRecord))

_CELL_TYPES = typing.get_type_hints(RunRecord)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):  # before int: bool is a subclass of int
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _parse_cell(text: str, kind):
    """Inverse of _format_cell for a field declared as T or T | None."""
    kind, *optional = typing.get_args(kind) or (kind,)
    if optional and text == "":
        return None
    return text == "true" if kind is bool else kind(text)


def parse_csv_row(row: list[str]) -> RunRecord:
    return RunRecord(
        **{name: _parse_cell(text, _CELL_TYPES[name]) for name, text in zip(CSV_COLUMNS, row)}
    )


def _support_string(result: ApproximationResult) -> str:
    return ";".join(f"{label}={p:.12g}" for label, p in result.support)


def _record_from_result(result: ApproximationResult, target_kind: str, **optional) -> RunRecord:
    """Run record of one solve; optional sets the optional fields (param_gamma, seed, ...)."""
    return RunRecord(
        target_kind=target_kind,
        model=result.model,
        constraint=result.constraint,
        distance=result.distance,
        f_target=result.f_target,
        f_model=result.f_model,
        support=_support_string(result),
        converged=result.converged,
        restarts_used=result.restarts_used,
        **optional,
    )


def _write_csv(header, rows) -> None:
    """Write a header and rows of cells to stdout as CSV."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_json(data, stream=None) -> None:
    """Write data to stream (stdout by default) as JSON indented by 2, then a newline."""
    stream = sys.stdout if stream is None else stream
    json.dump(data, stream, indent=2)
    stream.write("\n")


def load_chi_file(path: str) -> ChiMatrix:
    """Read a 4x4 process matrix from a JSON file of 16 row-major entries."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or len(data) != 16:
        raise ValueError("process-matrix file must hold 16 row-major entries")
    entries = []
    for k, item in enumerate(data):
        parts = item if isinstance(item, list) and len(item) == 2 else [item]
        # type() rather than isinstance: JSON true is a bool, not a number
        if not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in parts):
            at = f"({k // 4}, {k % 4})"
            raise ValueError(f"bad matrix entry {at}: {item!r}; use a finite number or [re, im]")
        entries.append(complex(*parts))
    return ChiMatrix(np.array(entries, dtype=complex).reshape(4, 4))


def save_chi_file(chi: ChiMatrix, path: str) -> None:
    entries = [[z.real, z.imag] for z in chi.matrix.ravel()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh)
        fh.write("\n")


def _param_target(kind: str, value: float, p: float | None) -> tuple[ChiMatrix, dict]:
    """(process matrix, RunRecord parameter fields) of the adc target of
    gamma = value or the pol target of phi = value (radians) and p."""
    if kind == "adc":
        return kraus_to_chi(adc(AdcSpec(value))), {"param_gamma": value}
    return kraus_to_chi(pol_xy(PolSpec(value, p))), {"param_phi": value, "param_p": p}


def _build_target(args) -> tuple[str, ChiMatrix, dict]:
    """Returns (kind, process matrix, RunRecord parameter fields) for --target."""
    if args.target == "adc":
        if args.gamma is None:
            raise ValueError("--target adc needs --gamma")
        return "adc", *_param_target("adc", args.gamma, args.p)
    if args.target == "pol":
        if args.phi is None or args.p is None:
            raise ValueError("--target pol needs --phi and --p")
        if not math.isfinite(args.phi):
            raise ValueError(f"--phi must be finite, got {args.phi}")
        phi = math.radians(args.phi) if args.degrees else args.phi
        return "pol", *_param_target("pol", phi, args.p)
    if args.file is None:  # argparse admits only adc, pol and file
        raise ValueError("--target file needs --file")
    return "file", load_chi_file(args.file), {}


def _models_arg(value: str) -> list[str]:
    models = [m.strip() for m in value.split(",") if m.strip()]
    for m in models:
        if m not in MODELS:
            raise argparse.ArgumentTypeError(f"unknown model {m!r}")
    if not models:
        raise argparse.ArgumentTypeError("empty model list")
    return models


def cmd_approx(args) -> int:
    kind, chi, params = _build_target(args)
    result = solve(ApproximationProblem(chi, args.model, args.constraint))
    record = _record_from_result(result, kind, **params)
    if args.out == "json":
        _write_json(asdict(record))
    else:
        _write_csv(CSV_COLUMNS, [record.to_csv_row()])
    return 0


def _raise_first_error(results: list[ApproximationResult]) -> None:
    for result in results:
        if result.error is not None:
            raise SolverError(result.error)


def cmd_sweep(args) -> int:
    lo, hi = args.min, args.max
    if args.target == "pol" and args.degrees:
        lo, hi = math.radians(lo), math.radians(hi)
    grid = np.linspace(lo, hi, args.steps)
    built = [_param_target(args.target, float(value), args.p) for value in grid]
    results = solve_batch([chi for chi, _ in built], args.model, args.constraint)
    _raise_first_error(results)
    records = (
        _record_from_result(result, args.target, **built[k // len(args.model)][1])
        for k, result in enumerate(results)
    )
    _write_csv(CSV_COLUMNS, (record.to_csv_row() for record in records))
    return 0


def _summary(rows: list[RunRecord]) -> dict:
    distances: dict[str, list[float]] = {}
    for record in rows:
        distances.setdefault(record.model, []).append(record.distance)
    out = {}
    for model, values in distances.items():
        arr = np.array(values)
        out[model] = {
            "mean": _fmt12(float(arr.mean())),
            "median": _fmt12(float(np.median(arr))),
            "variance": _fmt12(float(arr.var())),
            "frac_below_1e-3": _fmt12(float((arr < 1e-3).mean())),
            "count": int(arr.size),
        }
    return out


def cmd_random(args) -> int:
    chis = random_chi_batch(RandomChannelSpec(args.seed, args.count))
    results = solve_batch(chis, MODELS, args.constraint)
    _raise_first_error(results)
    identity = identity_chi()
    rows: list[RunRecord] = []
    for index, chi in enumerate(chis):
        solved = [
            _record_from_result(r, "random", seed=args.seed, channel_index=index)
            for r in results[index * len(MODELS) : (index + 1) * len(MODELS)]
        ]
        # The identity baseline shares its target fields with the model rows.
        baseline = replace(
            solved[0], model="identity", distance=hs_distance(chi, identity),
            f_model=1.0, support="", converged=True, restarts_used=0,
        )
        rows += [baseline, *solved]
    summary = _summary(rows)
    if args.out == "json":
        _write_json({"records": [asdict(r) for r in rows], "summary": summary})
    else:
        _write_csv(CSV_COLUMNS, (record.to_csv_row() for record in rows))
        _write_json(summary, sys.stderr)
    return 0


def cmd_bloch_section(args) -> int:
    _kind, chi, _params = _build_target(args)
    result = solve(ApproximationProblem(chi, args.model, args.constraint))
    model_chi = mixture_chi(result.params)
    rows = []
    for k in range(args.points):
        theta = 2.0 * np.pi * k / args.points
        r_in = np.array([np.sin(theta), 0.0, np.cos(theta)])
        rho = density_from_bloch(r_in)
        r_target = bloch_from_density(apply_chi(chi, rho))
        r_model = bloch_from_density(apply_chi(model_chi, rho))
        cells = (theta, r_in[0], r_in[2], r_target[0], r_target[2], r_model[0], r_model[2])
        rows.append([_fmt(x) for x in cells])
    _write_csv(BLOCH_COLUMNS, rows)
    return 0


def cmd_validate(args) -> int:
    chi = load_chi_file(args.file)
    report = [
        {"constraint": v.constraint, "magnitude": _fmt12(v.magnitude)}
        for v in validate_cptp(chi)
    ]
    _write_json({"valid": not report, "violations": report})
    return 0


def _add_target_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", choices=("adc", "pol", "file"), required=True)
    p.add_argument("--gamma", type=float, help="damping strength for adc")
    p.add_argument("--phi", type=float, help="polarization angle for pol")
    p.add_argument("--p", type=float, help="error probability for pol")
    p.add_argument("--file", help="process-matrix JSON file for --target file")
    p.add_argument("--degrees", action="store_true", help="interpret angles in degrees")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabapprox",
        description="Honest stabilizer-channel approximations of one-qubit errors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="approximate one target channel")
    _add_target_flags(p)
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--constraint", choices=CONSTRAINT_KINDS, default="avg")
    p.add_argument("--out", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("sweep", help="distance curves over a parameter grid")
    p.add_argument("--target", choices=("adc", "pol"), required=True)
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--p", type=float, default=0.1, help="error probability for pol")
    p.add_argument("--model", type=_models_arg, default=list(MODELS))
    p.add_argument("--constraint", choices=CONSTRAINT_KINDS, default="avg")
    p.add_argument("--degrees", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("random", help="random-channel batch study")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--constraint", choices=CONSTRAINT_KINDS, default="avg")
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("bloch-section", help="y=0 Bloch cross-section data")
    _add_target_flags(p)
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--constraint", choices=CONSTRAINT_KINDS, default="avg")
    p.add_argument("--points", type=int, default=72)
    p.set_defaults(func=cmd_bloch_section)

    p = sub.add_parser("validate", help="CPTP report for a process-matrix file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        if args.steps < 2:
            parser.error("--steps must be >= 2")
        if not (math.isfinite(args.min) and math.isfinite(args.max)):
            parser.error("--min and --max must be finite")
        if not args.min < args.max:
            parser.error("--min must be < --max")
    if args.command == "random" and args.count < 1:
        parser.error("--count must be >= 1")
    if args.command == "bloch-section" and args.points < 8:
        parser.error("--points must be >= 8")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except GenerationError as exc:
        print(f"generation failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
