import dataclasses
import io
import json

import pytest

import toylm
from gboost.arpa import parse_arpa
from gboost.enhance import enhance
from gboost.errors import FormatError, InvariantError
from gboost.evaluate import (EvalReport, RankingCase, grid_tsv, load_cases,
                             run_ranking, sweep)
from gboost.graph import build_g, graph_score

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
    fst, _ = build_g(parse_arpa(io.StringIO(RANKING_ARPA)))
    return fst


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
        bad = RankingCase(reference=["a", "b"], focus=[1],
                          competitors=[["x", "c"]])
        with pytest.raises(InvariantError, match="non-focus"):
            bad.validate()

    def test_length_mismatch_rejected(self):
        bad = RankingCase(reference=["a", "b"], focus=[1], competitors=[["a"]])
        with pytest.raises(InvariantError, match="words"):
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
            fst = base_fst.copy()
            enhance(fst, dataclasses.replace(ool_config, theta=theta))
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
                                                       ool_config):
        fst = telecom_graph
        controls = toylm.toy_corpus(toylm.TELECOM_WORDS, 50, seed=23, max_len=6)
        before = [graph_score(fst, s) for s in controls]
        enhance(fst, ool_config)
        after = [graph_score(fst, s) for s in controls]
        assert before == after  # exact float equality, not approx


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
        direct_fst = fst.copy()
        enhance(direct_fst, dataclasses.replace(ool_config, theta=1.0,
                                                max_predictors=2))
        direct = run_ranking(direct_fst, ool_cases)
        assert grid[(1.0, 2)].to_json() == direct.to_json()

    def test_cells_share_one_scan_per_predictor_count(self, telecom_model, ool_config,
                                                      ool_cases, scans):
        thetas, chnums = [-4.0, -2.0, 0.0, 2.0], [1, 2, 3]
        fst, _ = build_g(telecom_model)
        grid = sweep(fst, ool_config, thetas, chnums, ool_cases)
        assert len(scans) == 3 and len(set(scans)) == 3
        for (theta, chnum), report in grid.items():
            fresh, _ = build_g(telecom_model)
            enhance(fresh, dataclasses.replace(ool_config, theta=theta,
                                               max_predictors=chnum))
            assert report.to_json() == run_ranking(fresh, ool_cases).to_json()
        assert len(grid) == 12

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
