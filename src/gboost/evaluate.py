"""Ranking-based evaluation of enhancement effects.

Full decoding is out of reach here, so accuracy on the words being boosted
is approximated by an LM-only ranking proxy: each case pits a reference
sentence against competitor sentences that differ only at designated focus
positions. A case counts as an error when any competitor scores at least
as high as the reference (ties lose, pessimistically). The resulting
focus-token error rate is a proxy measure and is labeled as such in every
report. Sentences are scored with :func:`gboost.graph.graph_score`, that is
with failure back-off semantics: a word arc is always taken when one
exists, as in the ARPA back-off recursion. On a graph with ``<unk>``, a
word missing from the graph scores as ``<unk>`` instead of losing its
case automatically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import islice
from typing import Sequence

from gboost.enhance import EnhanceConfig, _load_json, _record, _word_list, enhance
from gboost.errors import FormatError, GboostError, InvariantError, NoPathError
from gboost.fst import Wfst
from gboost.graph import graph_score

PROXY_NOTE = "focus-token error rate (LM-only ranking proxy)"


@dataclass
class RankingCase:
    """A reference and competitors differing only at ``focus``; checked on construction."""

    reference: list[str]
    focus: list[int]
    competitors: list[list[str]]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.focus:
            raise InvariantError("ranking case has no focus positions")
        n = len(self.reference)
        for idx in self.focus:
            if not 0 <= idx < n:
                raise InvariantError(f"focus index {idx} out of range for "
                                     f"a {n}-word reference")
        focus = set(self.focus)
        for c, competitor in enumerate(self.competitors):
            if len(competitor) != n:
                raise InvariantError(f"competitor {c} has {len(competitor)} words, "
                                     f"reference has {n}")
            for i, (ref_word, alt_word) in enumerate(zip(self.reference, competitor)):
                if i not in focus and ref_word != alt_word:
                    raise InvariantError(
                        f"competitor {c} differs at non-focus position {i}")


@dataclass
class CaseResult:
    reference_score: float | None
    competitor_scores: list[float | None]
    best_competitor: int | None
    error: bool

    @property
    def winner(self) -> str:
        return "reference" if not self.error else f"competitor:{self.best_competitor}"


@dataclass
class EvalReport:
    results: list[CaseResult]

    @property
    def num_errors(self) -> int:
        return sum(1 for r in self.results if r.error)

    @property
    def error_rate(self) -> float:
        """Percentage of cases where some competitor ties or beats the reference."""
        if not self.results:
            return 0.0
        return 100.0 * self.num_errors / len(self.results)

    def to_json(self) -> str:
        """The report as ``json.dumps(payload, indent=2, sort_keys=True)`` renders it.

        That call runs CPython's pure-Python encoder, the only one that
        indents. Here one call to the C encoder renders every value, one per
        line, and the fixed layout is filled in around them.
        """
        results = self.results
        values: list = []
        for r in results:
            values.append(r.best_competitor)
            values += r.competitor_scores
            values += (r.error, r.reference_score, r.winner)
        values += (self.error_rate, PROXY_NOTE, len(results), self.num_errors)
        # Encoded JSON holds no raw newline, so the values split apart again.
        tokens = iter(json.dumps(values, separators=("\n", ":"))[1:-1].split("\n"))
        cases = []
        for r in results:
            best = next(tokens)
            scores = list(islice(tokens, len(r.competitor_scores)))
            error, reference, winner = islice(tokens, 3)
            cases.append(f"""    {{
      "best_competitor": {best},
      "competitor_scores": {_json_list(["        " + score for score in scores], 6)},
      "error": {error},
      "reference_score": {reference},
      "winner": {winner}
    }}""")
        error_rate, metric, num_cases, num_errors = tokens
        return f"""{{
  "cases": {_json_list(cases, 2)},
  "error_rate": {error_rate},
  "metric": {metric},
  "num_cases": {num_cases},
  "num_errors": {num_errors}
}}
"""


def _json_list(lines: list[str], indent: int) -> str:
    # A list of indented item lines as indent=2 closes it at `indent` spaces.
    if not lines:
        return "[]"
    return "[\n" + ",\n".join(lines) + "\n" + " " * indent + "]"


def load_cases(text: str) -> list[RankingCase]:
    """Parse the cases JSON file (a list of reference/focus/competitors objects)."""
    data = _load_json(text, "cases file")
    if not isinstance(data, list):
        raise FormatError("cases file must be a JSON list")
    cases = []
    for i, raw in enumerate(data):
        reference, focus, competitors = _record(raw, f"case {i}", "reference", "focus",
                                                "competitors")
        if not isinstance(focus, list) or not all(type(x) is int for x in focus):
            raise FormatError(f"case {i} 'focus' must be a list of integers, got {focus!r}")
        if not isinstance(competitors, list):
            raise FormatError(f"case {i} 'competitors' must be a list")
        reference = _word_list(reference, f"case {i} 'reference'")
        competitors = [_word_list(comp, f"case {i} competitor {c}")
                       for c, comp in enumerate(competitors)]
        try:
            cases.append(RankingCase(reference=reference, focus=focus,
                                     competitors=competitors))
        except InvariantError as exc:
            raise FormatError(f"case {i}: {exc}") from None
    return cases


def _try_score(fst: Wfst, sentence: Sequence[str]) -> float | None:
    try:
        return graph_score(fst, sentence)
    except NoPathError:
        return None


def run_ranking(fst: Wfst, cases: Sequence[RankingCase]) -> EvalReport:
    """Score every case; sentences with no path lose automatically."""
    results = []
    for case in cases:
        ref = _try_score(fst, case.reference)
        comp_scores = [_try_score(fst, c) for c in case.competitors]
        best = None
        for i, score in enumerate(comp_scores):
            if score is None:
                continue
            if best is None or score > comp_scores[best]:
                best = i
        if ref is None:
            error = True
        else:
            error = best is not None and comp_scores[best] >= ref
        results.append(CaseResult(reference_score=ref, competitor_scores=comp_scores,
                                  best_competitor=best, error=error))
    return EvalReport(results=results)


def sweep(fst: Wfst, config: EnhanceConfig, theta_list: Sequence[float],
          chnum_list: Sequence[int],
          cases: Sequence[RankingCase]) -> dict[tuple[float, int], EvalReport | None]:
    """Grid of ranking reports over enhancement scale and predictor count.

    Every cell ranks the graph that :func:`~gboost.enhance.enhance` derives
    from ``fst``, which never changes, so cells are independent of each
    other and of evaluation order. A derived graph shares ``fst``'s arc
    columns and all kept beside them (see :class:`~gboost.fst.Wfst`): the
    best-arc tables, and a memo of the label scan and the enhancement
    plans, neither of which depends on theta. The first cell scans the
    graph once for every predictor count, cells with the same predictor
    count share one plan, and the others only add theta (see
    :mod:`gboost.enhance`). Ranking builds the tables of only the states it
    visits, each edited one from the shared table plus the cell's arcs
    there. A value repeated in either list is swept once. A cell whose
    enhancement fails is recorded as None.
    """
    if not theta_list or not chnum_list:
        raise InvariantError("theta and predictor-count lists must be non-empty")
    grid: dict[tuple[float, int], EvalReport | None] = {}
    for theta in dict.fromkeys(theta_list):
        for chnum in dict.fromkeys(chnum_list):
            cell_config = replace(config, theta=theta, max_predictors=chnum)
            try:
                grid[(theta, chnum)] = run_ranking(enhance(fst, cell_config)[0], cases)
            except GboostError:
                grid[(theta, chnum)] = None
    return grid


def grid_tsv(grid: dict[tuple[float, int], EvalReport | None],
             theta_list: Sequence[float], chnum_list: Sequence[int]) -> str:
    """Render the sweep as a TSV table, rows theta, columns predictor count.

    Each distinct value gets one row or column, in first-seen order.
    """
    chnum_list = list(dict.fromkeys(chnum_list))
    lines = ["# " + PROXY_NOTE]
    lines.append("theta\\chnum\t" + "\t".join(str(k) for k in chnum_list))
    for theta in dict.fromkeys(theta_list):
        row = [f"{theta:g}"]
        for chnum in chnum_list:
            report = grid.get((theta, chnum))
            row.append("failed" if report is None else f"{report.error_rate:.2f}")
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
