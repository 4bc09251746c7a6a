import dataclasses
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

import toylm
from gboost.arpa import parse_arpa
from gboost.enhance import EnhanceConfig, SimilarPairGroup, enhance
from gboost.errors import FormatError, GboostError, InvariantError
from gboost.evaluate import (PROXY_NOTE, CaseResult, EvalReport, RankingCase, grid_tsv,
                             load_cases, run_ranking, sweep)
from gboost.fst import Wfst
from gboost.graph import build_g, graph_score
from test_enhance import JSON_VALUES

# Unigram-only model with transparent word probabilities: common beats
# middling beats rare, and "tied" shares its probability with "middling".
RANKING_ARPA = """\
\\data\\
ngram 1=6

\\1-grams:
-99\t<s>
-0.3\tcommon
-0.8\tmiddling
-0.8\ttied
-1.6\trare
-0.5\t</s>

\\end\\
"""


@pytest.fixture
def ranking_graph():
    return build_g(parse_arpa(io.StringIO(RANKING_ARPA)))


def case(reference, focus, *alternatives):
    competitors = []
    for alt in alternatives:
        competitor = list(reference)
        competitor[focus] = alt
        competitors.append(competitor)
    return RankingCase(reference=list(reference), focus=[focus],
                       competitors=competitors)


class TestRankingCase:
    def test_non_focus_mismatch_rejected(self):
        with pytest.raises(InvariantError, match="non-focus"):
            bad = RankingCase(reference=["a", "b"], focus=[1],
                              competitors=[["x", "c"]])
            bad.validate()

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvariantError, match="words"):
            bad = RankingCase(reference=["a", "b"], focus=[1], competitors=[["a"]])
            bad.validate()

    def test_focus_required_and_in_range(self):
        with pytest.raises(InvariantError, match="focus"):
            RankingCase(reference=["a"], focus=[], competitors=[]).validate()
        with pytest.raises(InvariantError, match="out of range"):
            RankingCase(reference=["a"], focus=[3], competitors=[]).validate()


class TestRunRanking:
    def test_error_rate_counts_losses(self, ranking_graph):
        fst = ranking_graph
        cases = [
            case(["common"], 0, "rare"),       # reference wins
            case(["middling"], 0, "rare"),     # reference wins
            case(["rare"], 0, "common"),       # reference loses
        ]
        report = run_ranking(fst, cases)
        assert report.num_errors == 1
        assert report.error_rate == pytest.approx(100.0 / 3.0, abs=1e-9)
        assert [r.error for r in report.results] == [False, False, True]

    def test_ties_count_as_errors(self, ranking_graph):
        fst = ranking_graph
        report = run_ranking(fst, [case(["middling"], 0, "tied")])
        assert report.results[0].error
        assert report.results[0].winner == "competitor:0"

    def test_unscoreable_reference_is_an_automatic_error(self, ranking_graph):
        fst = ranking_graph
        report = run_ranking(fst, [case(["ghostword"], 0, "common")])
        assert report.results[0].reference_score is None
        assert report.results[0].error

    def test_unscoreable_competitor_loses(self, ranking_graph):
        fst = ranking_graph
        report = run_ranking(fst, [case(["common"], 0, "ghostword")])
        assert report.results[0].competitor_scores == [None]
        assert not report.results[0].error
        assert report.results[0].winner == "reference"

    def test_baseline_graph_fails_all_new_word_cases(self, telecom_graph, ool_cases):
        fst = telecom_graph
        report = run_ranking(fst, ool_cases)
        assert report.error_rate == 100.0
        assert all(r.reference_score is None for r in report.results)

    def test_reference_scores_rise_with_theta(self, telecom_graph, ool_config,
                                              ool_cases):
        base_fst = telecom_graph
        previous = None
        for theta in (-4.0, -2.0, 0.0, 2.0, 4.0):
            fst, _ = enhance(base_fst, dataclasses.replace(ool_config, theta=theta))
            report = run_ranking(fst, ool_cases)
            scores = [r.reference_score for r in report.results]
            assert all(s is not None for s in scores)
            if previous is not None:
                assert all(now > before for now, before in zip(scores, previous))
            previous = scores

    def test_results_pair_reference_with_best_competitor(self, ranking_graph):
        fst = ranking_graph
        report = run_ranking(fst, [case(["middling"], 0, "rare", "common")])
        (result,) = report.results
        assert result.reference_score == graph_score(fst, ["middling"])
        assert result.best_competitor == 1
        assert result.competitor_scores[1] == graph_score(fst, ["common"])


class TestControlSetStability:
    def test_untouched_sentences_score_bit_identically(self, telecom_graph,
                                                       telecom_frequencies, ool_config):
        """A sentence naming no target word scores the same in every cell of a sweep.

        It reads no arc that enhancement adds or raises, so a sweep could
        score such sentences once for all its cells. One config adds new
        words. The other raises existing arcs: it runs on a graph it has
        already boosted at a lower theta, so each of its cells raises the
        arcs that run added.
        """
        existing = EnhanceConfig(theta=-8.0, max_predictors=3, groups=[SimilarPairGroup(
            predictors=["wo", "de", "shouji"], targets=["quxiao", "kaitong"],
            frequencies=telecom_frequencies)])
        boosted, _ = enhance(telecom_graph, existing)
        for base, config in ((telecom_graph, ool_config), (boosted, existing)):
            targets = {target for group in config.groups for target in group.targets}
            words = [word for word in toylm.TELECOM_WORDS if word not in targets]
            controls = toylm.toy_corpus(words, 500, seed=23, max_len=6)
            before = [graph_score(base, sentence).hex() for sentence in controls]
            for theta in (-4.0, -2.0, 0.0, 2.0):
                for chnum in (1, 2, 3):
                    enhanced, delta = enhance(base, dataclasses.replace(
                        config, theta=theta, max_predictors=chnum))
                    if config is existing:
                        assert delta.reweighted_arcs and not delta.added_arcs
                    else:
                        assert delta.added_arcs
                    after = [graph_score(enhanced, sentence).hex() for sentence in controls]
                    assert after == before, (theta, chnum)  # bit for bit, not approx


class TestSweep:
    thetas = [-4.0, -2.0, 0.0, 2.0, 4.0]
    chnums = [1, 2, 3, 4, 5]

    def test_grid_has_all_cells(self, telecom_graph, ool_config, ool_cases):
        fst = telecom_graph
        grid = sweep(fst, ool_config, self.thetas, self.chnums, ool_cases)
        assert len(grid) == 25
        assert all(report is not None for report in grid.values())

    def test_single_cell_equals_direct_run(self, telecom_graph, ool_config,
                                           ool_cases):
        fst = telecom_graph
        grid = sweep(fst, ool_config, [1.0], [2], ool_cases)
        direct_fst, _ = enhance(fst, dataclasses.replace(ool_config, theta=1.0,
                                                         max_predictors=2))
        direct = run_ranking(direct_fst, ool_cases)
        assert grid[(1.0, 2)].to_json() == direct.to_json()

    def test_cells_share_one_scan_per_predictor_count(self, telecom_model, ool_config,
                                                      ool_cases, scans, monkeypatch):
        thetas, chnums = [-4.0, -2.0, 0.0, 2.0], [1, 2, 3]
        fst = build_g(telecom_model)
        materialized = []
        materialize = Wfst._materialize

        def counting_materialize(graph):
            if graph._added or graph._rewritten:
                materialized.append(graph)
            materialize(graph)

        monkeypatch.setattr(Wfst, "_materialize", counting_materialize)
        grid = sweep(fst, ool_config, thetas, chnums, ool_cases)
        # Predictor prefixes nest: one scan, for every predictor, serves all counts.
        [labels] = scans
        assert labels >= {fst.symbols.label(word) for group in ool_config.groups
                          for word in group.predictors}
        assert materialized == []  # cells read their added arcs through the tables alone
        for (theta, chnum), report in grid.items():
            fresh, _ = enhance(build_g(telecom_model), dataclasses.replace(
                ool_config, theta=theta, max_predictors=chnum))
            assert report.to_json() == run_ranking(fresh, ool_cases).to_json()
        assert len(grid) == 12

    def test_cells_share_one_plan_per_predictor_count(self, telecom_model, ool_config,
                                                      ool_cases, plans, scans):
        fst = build_g(telecom_model)
        grid = sweep(fst, ool_config, [-4.0, -2.0, 0.0, 2.0], [1, 2, 3, 2], ool_cases)
        assert plans == [1, 2, 3]
        assert len(scans) == 1
        again = sweep(fst, ool_config, [1.0], [3, 2], ool_cases)
        assert plans == [1, 2, 3]
        assert len(grid) == 12 and len(again) == 2

    def test_sweep_leaves_baseline_untouched(self, telecom_graph, ool_config,
                                             ool_cases):
        fst = telecom_graph
        arcs_before = fst.num_arcs()
        sweep(fst, ool_config, [2.0], [1], ool_cases)
        assert fst.num_arcs() == arcs_before
        assert "wifi" not in fst.symbols

    def test_repeat_runs_are_byte_identical(self, telecom_graph, ool_config,
                                            ool_cases):
        fst = telecom_graph
        first = sweep(fst, ool_config, self.thetas[:3], [1, 3], ool_cases)
        second = sweep(fst, ool_config, self.thetas[:3], [1, 3], ool_cases)
        assert grid_tsv(first, self.thetas[:3], [1, 3]) == \
            grid_tsv(second, self.thetas[:3], [1, 3])
        for key, report in first.items():
            assert report.to_json() == second[key].to_json()

    def test_error_rate_non_increasing_in_theta(self, telecom_graph, ool_config,
                                                ool_cases):
        fst = telecom_graph
        grid = sweep(fst, ool_config, self.thetas, [3], ool_cases)
        rates = [grid[(theta, 3)].error_rate for theta in self.thetas]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_failed_cell_is_marked(self, telecom_graph, ool_config, ool_cases):
        fst = telecom_graph
        bad = dataclasses.replace(
            ool_config,
            groups=ool_config.groups + [dataclasses.replace(
                ool_config.groups[0], predictors=["missingword"])])
        grid = sweep(fst, bad, [0.0], [1], ool_cases)
        assert grid[(0.0, 1)] is None
        assert "failed" in grid_tsv(grid, [0.0], [1])

    def test_empty_axes_rejected(self, telecom_graph, ool_config, ool_cases):
        fst = telecom_graph
        with pytest.raises(InvariantError):
            sweep(fst, ool_config, [], [1], ool_cases)


class TestGridTsv:
    def test_layout(self):
        report = EvalReport(results=[])
        grid = {(0.0, 1): report, (0.0, 2): report}
        text = grid_tsv(grid, [0.0], [1, 2])
        lines = text.splitlines()
        assert lines[0].startswith("#")  # proxy-metric disclaimer
        assert lines[1] == "theta\\chnum\t1\t2"
        assert lines[2] == "0\t0.00\t0.00"


class TestCasesFile:
    GOOD = """
    [
      {"reference": ["wo", "wifi"], "focus": [1],
       "competitors": [["wo", "huafei"], ["wo", "de"]]}
    ]
    """

    def test_parses_cases(self):
        cases = load_cases(self.GOOD)
        assert len(cases) == 1
        assert cases[0].reference == ["wo", "wifi"]
        assert cases[0].focus == [1]
        assert len(cases[0].competitors) == 2

    def test_rejects_bad_json(self):
        for text in ["[", "[" + "1" * 5000 + "]"]:
            with pytest.raises(FormatError, match="JSON"):
                load_cases(text)

    def test_rejects_missing_keys(self):
        with pytest.raises(FormatError, match="focus"):
            load_cases('[{"reference": ["a"], "competitors": []}]')

    def test_validation_failures_surface_as_format_errors(self):
        bad = [
            {"reference": ["a", "b"], "focus": [0], "competitors": [["a"]]},
            {"reference": "ab", "focus": [1], "competitors": [["a", "X"]]},
            {"reference": ["a", "b"], "focus": [1], "competitors": ["aX"]},
            {"reference": ["a"], "focus": [0], "competitors": "X"},
            {"reference": ["a", 5], "focus": [1], "competitors": [["a", "X"]]},
            {"reference": ["a", "b"], "focus": [1], "competitors": [["a", None]]},
            {"reference": ["a", "b"], "focus": [1.9], "competitors": [["a", "X"]]},
            {"reference": ["a", "b"], "focus": [True], "competitors": [["a", "X"]]},
            {"reference": ["a", "b"], "focus": "1", "competitors": [["a", "X"]]},
        ]
        for case in bad:
            with pytest.raises(FormatError, match="case 0"):
                load_cases(json.dumps([case]))


# -- cases parser under fuzzing -----------------------------------------------
#
# Arbitrary text and JSON, and valid case lists with fields dropped or
# replaced. Loading may raise only FormatError, and ranking loaded cases
# only GboostError.

VALID_CASE = {"reference": ["common", "rare"], "focus": [1],
              "competitors": [["common", "tied"], ["common", "zzz"]]}


@st.composite
def near_valid_cases(draw):
    cases = [json.loads(json.dumps(VALID_CASE)) for _ in range(draw(st.integers(1, 2)))]
    for _ in range(draw(st.integers(1, 2))):
        case = draw(st.sampled_from(cases))
        key = draw(st.sampled_from(sorted(case)))
        if draw(st.booleans()):
            case.pop(key, None)
        else:
            case[key] = draw(JSON_VALUES | st.lists(st.sampled_from(["common", 0, 1, -1]),
                                                    max_size=3))
    return json.dumps(cases)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.text(max_size=60), JSON_VALUES.map(json.dumps), near_valid_cases()))
@example(json.dumps([VALID_CASE]))
def test_cases_file_raises_only_gboost_errors(text):
    try:
        cases = load_cases(text)
    except FormatError:
        return
    fst = build_g(parse_arpa(io.StringIO(RANKING_ARPA)))
    try:
        run_ranking(fst, cases)
    except GboostError:
        pass


def indent_rendered(report):
    """The report as the pure-Python encoder lays it out: the reference for to_json."""
    payload = {
        "metric": PROXY_NOTE,
        "error_rate": report.error_rate,
        "num_cases": len(report.results),
        "num_errors": report.num_errors,
        "cases": [{"reference_score": r.reference_score,
                   "competitor_scores": r.competitor_scores,
                   "best_competitor": r.best_competitor, "error": r.error,
                   "winner": r.winner} for r in report.results],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_SCORE = st.one_of(st.none(), st.sampled_from([-0.0, 0.0, -1e-300, -12.5]),
                   st.floats(allow_nan=False, allow_infinity=True))


@st.composite
def _case_results(draw):
    scores = draw(st.lists(_SCORE, max_size=4))
    best = draw(st.one_of(st.none(), st.integers(0, 10)))
    return CaseResult(reference_score=draw(_SCORE), competitor_scores=scores,
                      best_competitor=best, error=draw(st.booleans()))


@settings(max_examples=200)
@given(st.lists(_case_results(), max_size=5))
@example([])
@example([CaseResult(None, [], None, True), CaseResult(-0.0, [None, -0.0], 1, True)])
def test_report_json_matches_the_indented_encoder(results):
    report = EvalReport(results=results)
    assert report.to_json() == indent_rendered(report)
