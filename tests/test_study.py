import os
import subprocess
import sys
from pathlib import Path

import stabapprox as sa

STUDY = Path(__file__).resolve().parent.parent / "scripts" / "study.py"


def test_study_usage_error_is_printed_and_writes_no_data_file(tmp_path):
    # The CLI reports a usage error by exiting; the study passes on its code
    # and message and leaves no empty data file behind.
    done = subprocess.run(
        [sys.executable, str(STUDY), "adc", "--steps", "1", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(sa.__file__).resolve().parent.parent)},
        timeout=120,
    )
    assert done.returncode == 2
    assert "--steps must be >= 2" in done.stderr
    assert list(tmp_path.iterdir()) == []
