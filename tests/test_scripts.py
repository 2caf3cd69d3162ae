"""The bipartite survey's output matches the stored one byte for byte.

The stored output is regenerated, from the repository root, with
`PYTHONPATH=src python3 scripts/bipartite_survey.py --max-side 5 --witnesses > tests/golden/bipartite_survey_5.txt`,
only when a verdict, a witness or the survey's format is meant to change.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bipartite_survey_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "scripts/bipartite_survey.py", "--max-side", "5", "--witnesses"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (ROOT / "tests/golden/bipartite_survey_5.txt").read_bytes()
