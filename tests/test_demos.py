"""The demos run end to end and print what they promise."""

import re
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_build_and_score_matches_oracle(capsys):
    runpy.run_path(str(DEMOS / "build_and_score.py"), run_name="__main__")
    out = capsys.readouterr().out
    deltas = re.findall(r"delta (\S+)", out)
    assert len(deltas) == 4
    assert all(float(delta) == 0.0 for delta in deltas)
    # The text dump: every arc line prints its word twice, as an acceptor's.
    dump = out.split("first lines of the serialized graph")[1].splitlines()[1:]
    arcs = [line.split() for line in dump if len(line.split()) != 2]
    assert arcs
    assert all(len(fields) == 5 and fields[2] == fields[3] for fields in arcs)


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
