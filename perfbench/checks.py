"""Output checks for each workload, run after timing has ended.

Each check counts every comparison it makes, and each one that fails, so
the run can report failed checks against checks attempted.
"""

from __future__ import annotations

import math
from pathlib import Path

# Both the graph file and the score output print weights with 9 significant
# digits, so each printed value may be off by half a unit in its 9th digit:
# at most 5e-9 of its magnitude. The generated model's weights are all <= 0,
# so the magnitudes of the weights summed along a path add up to the
# magnitude of the score; the rounded arcs plus the rounded total stay within
# 1e-8 of it. The constant covers float addition on scores near zero.
SCORE_REL_TOL = 1e-8
SCORE_ABS_TOL = 1e-12


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message)
        return ok


def check_same_outputs(tally: Tally, digests: list[str]) -> None:
    """Every repetition of the chain wrote byte-identical outputs."""
    for i, value in enumerate(digests[1:], start=1):
        tally.expect(value == digests[0], f"repetition {i} wrote different outputs")


def check_scores(tally: Tally, model_path: str, sentences_path: str,
                 scores_path: str) -> None:
    """Every score equals the ARPA oracle's, to the text format's precision."""
    from gboost.arpa import oracle_score, parse_arpa
    with open(model_path) as handle:
        model = parse_arpa(handle)
    sentences = Path(sentences_path).read_text().splitlines()
    lines = Path(scores_path).read_text().splitlines()
    tally.expect(len(lines) == len(sentences),
                 f"{len(lines)} scores for {len(sentences)} sentences")
    for number, (sentence, line) in enumerate(zip(sentences, lines), start=1):
        score_text, _, echoed = line.partition("\t")
        if not tally.expect(echoed == sentence, f"line {number} echoes {echoed!r}"):
            continue
        expected = oracle_score(model, sentence.split())
        got = float(score_text)
        tolerance = SCORE_REL_TOL * abs(expected) + SCORE_ABS_TOL
        tally.expect(math.isclose(got, expected, rel_tol=0, abs_tol=tolerance),
                     f"line {number}: graph {got!r}, oracle {expected!r}")


def check_diffs(tally: Tally, enhance_diff: str, fst_diff: str,
                targets: list[str]) -> None:
    """``enhance --diff`` and ``diff-fst`` agree, and only add or raise targets."""
    reported = Path(enhance_diff).read_text().splitlines()
    recomputed = Path(fst_diff).read_text().splitlines()
    reported_set = set(reported)
    tally.expect(bool(reported), "enhancement changed nothing")
    tally.expect(len(reported_set) == len(reported), "enhance --diff repeats a line")
    for line in sorted(reported_set ^ set(recomputed)):
        side = "enhance --diff" if line in reported_set else "diff-fst"
        tally.expect(False, f"only in {side}: {line!r}")
    target_set = set(targets)
    for line in reported:
        fields = line.split()
        tally.expect(len(fields) == 6 and fields[0] in ("+", "~") and fields[3] in target_set,
                     f"not an added or raised target arc: {line!r}")


def read_grid(grid_path: str) -> dict[tuple[float, int], float | None]:
    rows = [line.split("\t") for line in Path(grid_path).read_text().splitlines()
            if not line.startswith("#")]
    chnums = [int(x) for x in rows[0][1:]]
    grid = {}
    for row in rows[1:]:
        for chnum, cell in zip(chnums, row[1:]):
            grid[(float(row[0]), chnum)] = None if cell == "failed" else float(cell)
    return grid


def check_grid(tally: Tally, grid_path: str, thetas: list[float],
               chnums: list[int]) -> float | None:
    """No cell failed, and the error rate never rises with theta.

    Competitor sentences never contain a target word, so raising theta can
    only raise the reference's score. Returns the lowest error rate.
    """
    grid = read_grid(grid_path)
    tally.expect(sorted(grid) == sorted((t, c) for t in thetas for c in chnums),
                 f"grid cells {sorted(grid)}")
    for key, rate in sorted(grid.items()):
        tally.expect(rate is not None, f"cell theta={key[0]:g} chnum={key[1]} failed")
    for chnum in chnums:
        for low, high in zip(thetas, thetas[1:]):
            a, b = grid.get((low, chnum)), grid.get((high, chnum))
            tally.expect(a is not None and b is not None and b <= a,
                         f"chnum={chnum}: error rate {a} at theta={low:g} "
                         f"but {b} at theta={high:g}")
    rates = [rate for rate in grid.values() if rate is not None]
    return min(rates) if rates else None
