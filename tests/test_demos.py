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


def test_boost_new_word_scores_a_new_word_and_rises_with_theta(capsys):
    runpy.run_path(str(DEMOS / "boost_new_word.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert re.search(r"^before enhancement: .* has no path", out, re.M)
    runs = re.findall(r"^theta (\S+): (\d+) arcs added, .* scores (\S+)$", out, re.M)
    assert len(runs) == 3
    thetas, added, scores = ([float(value) for value in column] for column in zip(*runs))
    assert thetas == sorted(thetas) and all(added)
    assert scores == sorted(scores) and len(set(scores)) == 3
    assert re.search(r"^second run at theta \S+: 0 arcs added, 0 raised$", out, re.M)
