import os
import subprocess
import sys
from pathlib import Path

import stabapprox as sa

STUDY = Path(__file__).resolve().parent.parent / "scripts" / "study.py"


def run_study(*args):
    return subprocess.run(
        [sys.executable, str(STUDY), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(sa.__file__).resolve().parent.parent)},
        timeout=120,
    )


def test_study_usage_error_is_printed_and_writes_no_data_file(tmp_path):
    # The CLI reports a usage error by exiting; the study passes on its code
    # and message and leaves no empty data file behind.
    done = run_study("adc", "--steps", "1", "--out-dir", str(tmp_path))
    assert done.returncode == 2
    assert "--steps must be >= 2" in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_study_compare_prints_one_line_per_changed_csv_file(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    files = {
        "random.out": (
            "model,distance,support,converged\n"
            "pc,0.5,X=0.5;Y=0.25,true\n"
            "cc,0.25,X=0.5,true\n"
            "cmc,0.125,T|0>=1,false\n",
            "model,distance,support,converged\n"
            "pc,0.5,X=0.5;Y=0.25,true\n"
            "cc,0.28125,Y=0.5,true\n"
            "cmc,0.0625,T|0>=0.5,true\n",
        ),
        "bloch.out": ("theta,x\n0.0,1.0\n0.5,0.75\n", "theta,x\n0.0,1.0\n0.5,0.875\n0.75,0.5\n"),
        "same.out": ("model,distance\npc,0.5\n", "model,distance\npc,0.5\n"),
        "random.err": ('{"mean": 0.5}\n', '{"mean": 0.25}\n'),
        "empty.err": ("", ""),
    }
    for d, side in ((base, 0), (head, 1)):
        d.mkdir()
        for name, texts in files.items():
            (d / name).write_text(texts[side], encoding="utf-8")
    (head / "new.out").write_text("model,distance\npc,0.5\n", encoding="utf-8")
    done = run_study("compare", str(base), str(head))
    assert done.returncode == 0, done.stderr
    # Only the labels of a support count, and the extra row of bloch.out is
    # a changed row; the JSON and empty files are skipped.
    assert done.stdout.splitlines() == [
        "bloch.out: 2 of 3 rows changed",
        "new.out: only in head as a CSV file",
        "random.out: 2 of 3 rows changed; distance rise 0.031, fall 0.062;"
        " support changed in 1, converged in 1",
    ]
