"""The demos run end to end and print what they promise."""

import re
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_build_and_score_matches_oracle(capsys):
    runpy.run_path(str(DEMOS / "build_and_score.py"), run_name="__main__")
    deltas = re.findall(r"delta (\S+)", capsys.readouterr().out)
    assert len(deltas) == 4
    assert all(float(delta) == 0.0 for delta in deltas)
