import os
import subprocess
import sys
from pathlib import Path

import stabapprox as sa

STUDY = Path(__file__).resolve().parent.parent / "scripts" / "study.py"


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(sa.__file__).resolve().parent.parent)},
        timeout=120,
    )


def run_study(*args):
    return run_python(str(STUDY), *args)


def test_reference_commands_run_on_numpy_alone(tmp_path):
    # The ten reference commands cover all four models under both
    # constraints, every subcommand and both output formats.  scipy is
    # installed for the tests, yet none of them imports it.
    script = """
import runpy, sys
sys.argv = [sys.argv[1], "reference", "--out-dir", sys.argv[2]]
runpy.run_path(sys.argv[0], run_name="__main__")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    done = run_python("-c", script, str(STUDY), str(tmp_path))
    assert done.returncode == 0, done.stderr
    files = {path.name for path in tmp_path.iterdir()}
    names = {name.rpartition(".")[0] for name in files} - {"adc_gamma_0.3"}
    assert len(names) == 10
    assert files == {f"{n}{ext}" for n in names for ext in (".out", ".err")} | {"adc_gamma_0.3.json"}


def test_study_usage_error_is_printed_and_writes_no_data_file(tmp_path):
    # The CLI reports a usage error by exiting; the study passes on its code
    # and message and leaves no empty data file behind.
    done = run_study("adc", "--steps", "1", "--out-dir", str(tmp_path))
    assert done.returncode == 2
    assert "--steps must be >= 2" in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_study_compare_prints_one_line_per_changed_file(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    # A long CSV file with one row deleted, one duplicated and two edited:
    # aligned as diff aligns lines, 4 rows changed.
    rows = [f"pc,{k / 64},X={k / 128},true\n" for k in range(60)]
    edited = [*rows[:20], *rows[21:42], *rows[41:]]
    edited[5] = f"pc,{5 / 64 + 0.5},X={5 / 128},true\n"
    edited[49] = f"pc,{50 / 64},Y={50 / 128},true\n"
    header = "model,distance,support,converged\n"
    files = {
        "long.out": (header + "".join(rows), header + "".join(edited)),
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
        "random.err": ('{\n "mean": 0.5,\n "count": 3\n}\n', '{\n "mean": 0.25,\n "count": 3\n}\n'),
        "empty.err": ("", ""),
        "unterminated.out": ("model,distance\npc,0.5\n", "model,distance\npc,0.5"),
    }
    for d, side in ((base, 0), (head, 1)):
        d.mkdir()
        for name, texts in files.items():
            (d / name).write_text(texts[side], encoding="utf-8")
    (base / "gone.err").write_text("error: one\nerror: two\n", encoding="utf-8")
    (head / "new.out").write_text("model,distance\npc,0.5\n", encoding="utf-8")
    done = run_study("compare", str(base), str(head))
    assert done.returncode == 0, done.stderr
    # A CSV file on both sides reports its rows: only the labels of a
    # support count, and the extra row of bloch.out is a changed row.  Every
    # other differing file reports its lines: a JSON summary, a file on one
    # side only, and a CSV file whose rows all match.
    assert done.stdout.splitlines() == [
        "bloch.out: 2 of 3 rows changed",
        "gone.err: -2 +0 lines",
        "long.out: 4 of 60 rows changed; distance rise 0.5, fall 0;"
        " support changed in 1, converged in 0",
        "new.out: -0 +2 lines",
        "random.err: -1 +1 lines",
        "random.out: 2 of 3 rows changed; distance rise 0.031, fall 0.062;"
        " support changed in 1, converged in 1",
        "unterminated.out: -1 +1 lines",
    ]
    done = run_study("compare", str(base), str(base))
    assert (done.returncode, done.stdout) == (0, "identical\n")
