#!/usr/bin/env python3
"""Data behind the studies, one subcommand per study:

  adc        amplitude damping: distance curves for all four models plus
             Bloch-ball cross-sections at gamma = 0.25 under both constraints
  pol        polarization: distance versus the polarization axis angle for all
             four models at fixed error probability
  random     random channels: best approximation of many random CPTP process
             matrices by each model, with summary statistics
  reference  the ten CLI commands whose output a change that claims to keep
             it must leave byte-identical: run it on two trees and compare
             the two --out-dir directories with compare
  compare    BASE_DIR HEAD_DIR: "identical" where no file differs, else one
             line per differing file.  A CSV file on both sides gives its
             changed rows (aligned as diff aligns lines, so an inserted or
             deleted row counts once), its largest distance rise and fall,
             and its rows whose support labels or converged flag changed;
             any other file (a JSON summary, a file on one side only, a CSV
             file whose rows all match) gives its removed and added lines,
             "-R +A lines".
             CI posts this report, between the src line counts and the
             start of diff -r, for each pull request

Each study runs the stabapprox CLI in-process, once per data file under
--out-dir.  A run's stdout goes to its file; the random study's stderr, the
JSON summary, goes to random_summary.json, and each reference command's
stdout and stderr go to <name>.out and <name>.err.  A run that fails writes
no file: its stderr is printed and the script exits with its code.
"""

import argparse
import contextlib
import csv
import difflib
import io
import itertools
import math
import pathlib
import sys

import stabapprox as sa
from stabapprox import cli


def adc_runs(args):
    """(data file, summary file or None, CLI arguments) of each run."""
    yield "adc_sweep_avg.csv", None, [
        "sweep", "--target", "adc", "--min", "0", "--max", "1",
        "--steps", str(args.steps), "--model", "pc,pmc,cc,cmc",
    ]
    yield "adc_sweep_worst.csv", None, [
        "sweep", "--target", "adc", "--min", "0", "--max", "0.96",
        "--steps", str(args.worst_steps), "--model", "pc,pmc", "--constraint", "worst",
    ]
    for model in ("pc", "pmc"):
        for constraint in ("avg", "worst"):
            yield f"adc_bloch_{model}_{constraint}.csv", None, [
                "bloch-section", "--target", "adc", "--gamma", "0.25",
                "--model", model, "--constraint", constraint, "--points", "72",
            ]


def pol_runs(args):
    yield "pol_sweep_avg.csv", None, [
        "sweep", "--target", "pol", "--min", "0", "--max", str(math.pi / 2),
        "--steps", str(args.steps), "--p", str(args.p), "--model", "pc,pmc,cc,cmc",
    ]


def random_runs(args):
    yield "random_channels.csv", "random_summary.json", [
        "random", "--count", str(args.count), "--seed", str(args.seed),
    ]


def reference_runs(args):
    # validate reads the ADC gamma = 0.3 process matrix saved here first.
    chi_file = args.out_dir / "adc_gamma_0.3.json"
    cli.save_chi_file(sa.kraus_to_chi(sa.adc(sa.AdcSpec(0.3))), str(chi_file))
    runs = {
        "random_200_seed424242": ["random", "--count", "200", "--seed", "424242"],
        "random_30_seed5_worst": [
            "random", "--count", "30", "--seed", "5", "--constraint", "worst",
        ],
        "random_12_seed3_json": ["random", "--count", "12", "--seed", "3", "--out", "json"],
        "sweep_adc_201": ["sweep", "--target", "adc", "--min", "0", "--max", "1", "--steps", "201"],
        "sweep_pol_201": [
            "sweep", "--target", "pol", "--min", "0", "--max", "1.5707963",
            "--steps", "201", "--p", "0.1",
        ],
        "sweep_adc_19_worst": [
            "sweep", "--target", "adc", "--min", "0.05", "--max", "0.95",
            "--steps", "19", "--constraint", "worst",
        ],
        "sweep_pol_21_worst": [
            "sweep", "--target", "pol", "--min", "0", "--max", "1.5707963",
            "--steps", "21", "--constraint", "worst",
        ],
        "bloch_adc_pmc_worst": [
            "bloch-section", "--target", "adc", "--gamma", "0.25",
            "--model", "pmc", "--constraint", "worst",
        ],
        "approx_adc_cmc_worst": [
            "approx", "--target", "adc", "--gamma", "0.25",
            "--model", "cmc", "--constraint", "worst",
        ],
        "validate_adc_gamma_0.3": ["validate", "--file", str(chi_file)],
    }
    for name, argv in runs.items():
        yield f"{name}.out", f"{name}.err", argv


def read_text(path):
    """A file's text, or None where it is missing."""
    return path.read_text(encoding="utf-8") if path.exists() else None


def read_csv(text):
    """The rows of a CSV text as dicts, or None where the text is None or its
    first line is not a comma-separated list of column names."""
    if text is None or not all(n.isidentifier() for n in text.partition("\n")[0].split(",")):
        return None
    return list(csv.DictReader(io.StringIO(text)))


def support_labels(row):
    return {item.rpartition("=")[0] for item in row["support"].split(";") if item}


def changed_rows(name, base, head):
    """The changed rows of a CSV file, or None where none changed.  Rows are
    aligned as diff aligns lines, so an inserted or deleted row moves no
    other row: rows of a replaced block pair up in order, and a row that only
    one side has counts once, as changed."""
    pairs = []
    matcher = difflib.SequenceMatcher(
        None, [tuple(r.items()) for r in base], [tuple(r.items()) for r in head], autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            pairs += itertools.zip_longest(base[i1:i2], head[j1:j2], fillvalue={})
    if not pairs:
        return None
    line = f"{name}: {len(pairs)} of {max(len(base), len(head))} rows changed"
    both = [(a, b) for a, b in pairs if a and b]
    if both and "distance" in both[0][0]:  # a result CSV (cli.CSV_COLUMNS)
        rises = [float(b["distance"]) - float(a["distance"]) for a, b in both]
        supports = sum(support_labels(a) != support_labels(b) for a, b in both)
        flips = sum(a["converged"] != b["converged"] for a, b in both)
        line += (
            f"; distance rise {max(0.0, *rises):.2g}, fall {max(0.0, *(-d for d in rises)):.2g};"
            f" support changed in {supports}, converged in {flips}"
        )
    return line


def changed_lines(name, base, head):
    """The counts of removed and added lines between two texts; a line's end
    counts, so a missing final newline changes the last line, as in diff."""
    a, b = base.splitlines(keepends=True), head.splitlines(keepends=True)
    ops = difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes()
    removed = sum(i2 - i1 for tag, i1, i2, _, _ in ops if tag != "equal")
    added = sum(j2 - j1 for tag, _, _, j1, j2 in ops if tag != "equal")
    return f"{name}: -{removed} +{added} lines"


def compare(base_dir, head_dir):
    names = sorted({path.name for d in (base_dir, head_dir) for path in d.iterdir()})
    report = []
    for name in names:
        base, head = read_text(base_dir / name), read_text(head_dir / name)
        if base == head:
            continue
        rows = read_csv(base), read_csv(head)
        line = None if None in rows else changed_rows(name, *rows)
        report.append(line or changed_lines(name, base or "", head or ""))
    print("\n".join(report) or "identical")


def main() -> None:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default="results", type=pathlib.Path)
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = ap.add_subparsers(dest="study", required=True)
    p = sub.add_parser("adc", parents=[common])
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--worst-steps", type=int, default=25)
    p.set_defaults(runs=adc_runs)
    p = sub.add_parser("pol", parents=[common])
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--p", type=float, default=0.1)
    p.set_defaults(runs=pol_runs)
    p = sub.add_parser("random", parents=[common])
    p.add_argument("--count", type=int, default=2000)
    p.add_argument("--seed", type=int, default=20260810)
    p.set_defaults(runs=random_runs)
    p = sub.add_parser("reference", parents=[common])
    p.set_defaults(runs=reference_runs)
    p = sub.add_parser("compare")
    p.add_argument("base_dir", type=pathlib.Path)
    p.add_argument("head_dir", type=pathlib.Path)
    args = ap.parse_args()
    if args.study == "compare":
        return compare(args.base_dir, args.head_dir)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for data, summary, argv in args.runs(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # a usage error, which argparse reports by exiting
                code = exc.code
        if code != 0:
            sys.stderr.write(err.getvalue())
            raise SystemExit(code)
        # A data file is written only once its run has succeeded.
        for name, text in ((data, out), (summary, err)):
            if name:
                (args.out_dir / name).write_text(text.getvalue(), encoding="utf-8")
                print(f"-> {args.out_dir / name}")


if __name__ == "__main__":
    main()
