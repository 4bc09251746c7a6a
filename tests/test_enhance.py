import logging
import math

import pytest
from hypothesis import given, strategies as st

import oracles
import toylm
from gboost.enhance import (EnhanceConfig, SimilarPairGroup,
                            compute_enhanced_weight, enhance, load_pairs_config)
from gboost.errors import FormatError, InvariantError
from gboost.fst import diff as structural_diff
from gboost.graph import graph_score


def one_pair_config(predictor, target, frequencies=None, new=False, theta=0.0,
                    max_predictors=1):
    group = SimilarPairGroup(
        predictors=[predictor] if isinstance(predictor, str) else list(predictor),
        targets=[target] if isinstance(target, str) else list(target),
        frequencies=frequencies or {},
        new_words=frozenset([target] if new and isinstance(target, str) else
                            (target if new else [])),
    )
    return EnhanceConfig(theta=theta, max_predictors=max_predictors, groups=[group])


@pytest.fixture
def donor_graph(fst_factory):
    # One arc for the frequent word "a"; "c" is in the vocabulary but has
    # no arcs yet.
    return fst_factory(
        "a b c",
        [(0, 1, "a", "a", 0.5), (1, 2, "b", "b", -0.7)],
        {2: 0.0},
    )


class TestComputeEnhancedWeight:
    def test_low_frequency_hand_value(self):
        got = compute_enhanced_weight(-1.0, 5, 95, 0.0)
        assert got == pytest.approx(-3.9957323, abs=1e-7)
        assert got == pytest.approx(-1.0 + math.log(5 / 100), abs=1e-12)

    def test_new_word_drops_log_term(self):
        assert compute_enhanced_weight(-2.0, None, 40, -4.0) == -6.0

    def test_equal_counts_give_log_half(self):
        got = compute_enhanced_weight(-1.5, 7, 7, 0.0)
        assert got == pytest.approx(-2.1931472, abs=1e-7)
        assert got == pytest.approx(-1.5 + math.log(0.5), abs=1e-12)

    def test_zero_count_target_rejected(self):
        with pytest.raises(InvariantError, match="declared new"):
            compute_enhanced_weight(-1.0, 0, 10, 0.0)

    def test_non_positive_predictor_count_rejected(self):
        with pytest.raises(InvariantError, match="predictor frequency"):
            compute_enhanced_weight(-1.0, 5, 0, 0.0)

    @given(w_y=st.floats(-20, 0), f_y=st.integers(1, 10**6), theta=st.floats(-4, 4),
           f_hi=st.integers(2, 10**6), gap=st.integers(1, 10**5))
    def test_rank_preserved_across_target_frequencies(self, w_y, f_y, theta, f_hi, gap):
        f_lo = max(1, f_hi - gap)
        if f_lo == f_hi:
            f_hi += 1
        high = compute_enhanced_weight(w_y, f_hi, f_y, theta)
        low = compute_enhanced_weight(w_y, f_lo, f_y, theta)
        assert high > low

    @given(w_y=st.floats(-20, 0), f_x=st.integers(1, 10**6),
           f_y=st.integers(1, 10**6), theta=st.floats(-8, 8))
    def test_theta_shift_is_exact(self, w_y, f_x, f_y, theta):
        base = compute_enhanced_weight(w_y, f_x, f_y, 0.0)
        assert compute_enhanced_weight(w_y, f_x, f_y, theta) == base + theta

    def test_theta_shift_exact_for_new_words(self):
        for theta in (-4.0, -2.0, 0.0, 2.0, 4.0):
            base = compute_enhanced_weight(-2.25, None, 10, 0.0)
            assert compute_enhanced_weight(-2.25, None, 10, theta) == base + theta


class TestCollectArcs:
    """Which predictor arcs donate candidates, and in what order."""

    def test_single_donor_arc(self, donor_graph):
        config = one_pair_config("a", "nova", {"a": 95}, new=True)
        _, delta = enhance(donor_graph, config)
        assert [(a.source, a.target, a.weight) for a in delta.added_arcs] == [(0, 1, 0.5)]

    def test_word_without_arcs_yields_empty_list(self, donor_graph):
        config = one_pair_config("c", "nova", {"c": 5}, new=True)
        _, delta = enhance(donor_graph, config)
        assert delta.is_empty()

    def test_order_is_state_then_arc_index(self, fst_factory):
        fst = fst_factory(
            "a b",
            [(1, 0, "a", "a", -1.0), (0, 1, "b", "b", -2.0), (0, 0, "a", "a", -3.0)],
            {1: 0.0},
        )
        _, delta = enhance(fst, one_pair_config("a", "nova", {"a": 9}, new=True))
        assert [(a.source, a.weight) for a in delta.added_arcs] == [(0, -3.0), (1, -1.0)]

    def test_fixture_counts_match_arpa_entries(self, telecom_arpa, telecom_graph):
        fst = telecom_graph
        for word in ("liuliang", "wo", "huafei"):
            label = fst.symbols.label(word)
            found = sum(1 for state in fst.states()
                        for (_, ilabel, _, _) in fst.arcs(state) if ilabel == label)
            assert found == oracles.count_ngrams_ending_in(telecom_arpa, word)


class TestEnhance:
    def test_adds_parallel_arc_for_existing_low_frequency_word(self, donor_graph):
        config = one_pair_config("a", "c", {"a": 95, "c": 5})
        before = donor_graph.copy()
        _, delta = enhance(donor_graph, config)
        assert len(delta.added_arcs) == 1
        assert delta.removed_arcs == [] and delta.reweighted_arcs == []
        assert delta.final_changes == []
        arc = delta.added_arcs[0]
        assert (arc.source, arc.target) == (0, 1)
        assert donor_graph.symbols.symbol(arc.ilabel) == "c"
        assert arc.weight == pytest.approx(0.5 + math.log(5 / 100), abs=1e-12)
        # everything else bit-identical
        assert structural_diff(before, donor_graph).added_arcs == [arc]

    def test_new_word_gets_symbol_and_arc(self, donor_graph):
        config = one_pair_config("a", "nova", {"a": 95}, new=True, theta=-1.0)
        _, delta = enhance(donor_graph, config)
        assert "nova" in donor_graph.symbols
        assert len(delta.added_arcs) == 1
        assert delta.added_arcs[0].weight == pytest.approx(0.5 - 1.0, abs=1e-12)

    def test_zero_groups_is_identity(self, donor_graph):
        before = donor_graph.copy()
        _, delta = enhance(donor_graph, EnhanceConfig(theta=0.0, max_predictors=1,
                                                      groups=[]))
        assert delta.is_empty()
        assert oracles.graphs_equal(before, donor_graph)

    def test_shared_slot_takes_max_of_candidates(self, fst_factory):
        fst = fst_factory(
            "y1 y2 x",
            [(0, 1, "y1", "y1", -0.2), (0, 1, "y2", "y2", -0.9)],
            {1: 0.0},
        )
        freq = {"y1": 50, "y2": 200, "x": 10}
        config = one_pair_config(["y1", "y2"], "x", freq, max_predictors=2)
        _, delta = enhance(fst, config)
        first = compute_enhanced_weight(-0.2, 10, 50, 0.0)
        second = compute_enhanced_weight(-0.9, 10, 200, 0.0)
        assert len(delta.added_arcs) == 1
        assert delta.added_arcs[0].weight == max(first, second)

    def test_existing_arc_raised_to_candidate(self, fst_factory):
        fst = fst_factory(
            "a c",
            [(0, 1, "a", "a", -0.5), (0, 1, "c", "c", -6.0)],
            {1: 0.0},
        )
        config = one_pair_config("a", "c", {"a": 90, "c": 10})
        _, delta = enhance(fst, config)
        candidate = compute_enhanced_weight(-0.5, 10, 90, 0.0)
        assert delta.added_arcs == []
        assert len(delta.reweighted_arcs) == 1
        before, after = delta.reweighted_arcs[0]
        assert before.weight == -6.0
        assert after.weight == candidate

    def test_existing_arc_never_lowered(self, fst_factory):
        fst = fst_factory(
            "a c",
            [(0, 1, "a", "a", -0.5), (0, 1, "c", "c", -0.1)],
            {1: 0.0},
        )
        before = fst.copy()
        config = one_pair_config("a", "c", {"a": 90, "c": 10}, theta=-3.0)
        _, delta = enhance(fst, config)
        assert delta.is_empty()
        assert oracles.graphs_equal(before, fst)

    def test_unknown_predictor_named_in_error(self, donor_graph):
        config = one_pair_config("ghost", "c", {"ghost": 5, "c": 5})
        with pytest.raises(InvariantError, match="ghost"):
            enhance(donor_graph, config)

    def test_new_marked_word_already_in_table_is_reused(self, donor_graph):
        # A rerun finds its own insertions; they are reused, not duplicated.
        config = one_pair_config("a", "nova", {"a": 95}, new=True)
        enhance(donor_graph, config)
        snapshot = donor_graph.copy()
        _, second = enhance(donor_graph, config)
        assert second.is_empty()
        assert oracles.graphs_equal(snapshot, donor_graph)

    def test_existing_target_missing_from_vocabulary_rejected(self, donor_graph):
        config = one_pair_config("a", "nova", {"a": 95, "nova": 3})
        with pytest.raises(InvariantError, match="new_words"):
            enhance(donor_graph, config)

    def test_existing_target_without_count_rejected(self, donor_graph):
        config = one_pair_config("a", "c", {"a": 95})
        with pytest.raises(InvariantError, match="pseudo-count"):
            enhance(donor_graph, config)

    def test_word_cannot_be_predictor_and_target(self, donor_graph):
        # Even across groups: an enhanced predictor would donate its new
        # arcs on a rerun, so the two roles must stay disjoint.
        config = EnhanceConfig(theta=0.0, max_predictors=1, groups=[
            SimilarPairGroup(predictors=["a"], targets=["c"],
                             frequencies={"a": 95, "c": 5}),
            SimilarPairGroup(predictors=["c"], targets=["nova"],
                             frequencies={"c": 5},
                             new_words=frozenset(["nova"])),
        ])
        with pytest.raises(InvariantError, match="both predictor and target"):
            enhance(donor_graph, config)

    def test_overshoot_logs_warning(self, donor_graph, caplog):
        config = one_pair_config("a", "nova", {"a": 95}, new=True, theta=4.0)
        with caplog.at_level(logging.WARNING, logger="gboost.enhance"):
            enhance(donor_graph, config)
        assert any("exceed" in rec.message for rec in caplog.records)

    def test_non_target_arcs_untouched(self, telecom_graph, ool_config):
        fst = telecom_graph
        before = fst.copy()
        _, delta = enhance(fst, ool_config)
        target_labels = {fst.symbols.label(t)
                         for g in ool_config.groups for t in g.targets}
        for arc in delta.added_arcs:
            assert arc.ilabel in target_labels
        for old, new in delta.reweighted_arcs:
            assert old.ilabel in target_labels
        for state in before.states():
            before_rest = [a for a in before.arcs(state) if a[1] not in target_labels]
            after_rest = [a for a in fst.arcs(state) if a[1] not in target_labels]
            assert before_rest == after_rest

    def test_monotone_scores_on_fixture(self, telecom_graph, ool_config):
        fst = telecom_graph
        sentences = toylm.toy_corpus(toylm.TELECOM_WORDS, 80, seed=17, max_len=5)
        before_scores = [graph_score(fst, s) for s in sentences]
        enhance(fst, ool_config)
        for sentence, before in zip(sentences, before_scores):
            assert graph_score(fst, sentence) >= before - 1e-12

    def test_idempotent(self, telecom_graph, ool_config):
        fst = telecom_graph
        enhance(fst, ool_config)
        snapshot = fst.copy()
        _, second = enhance(fst, ool_config)
        assert second.is_empty()
        assert oracles.graphs_equal(snapshot, fst)

    def test_returned_diff_matches_structural_diff(self, telecom_graph, ool_config):
        fst = telecom_graph
        before = fst.copy()
        _, delta = enhance(fst, ool_config)
        before.symbols = fst.symbols.copy()  # new words extend the table
        structural = structural_diff(before, fst)
        assert sorted(structural.added_arcs) == sorted(delta.added_arcs)
        assert sorted(structural.reweighted_arcs) == sorted(delta.reweighted_arcs)
        assert structural.removed_arcs == [] and structural.final_changes == []

    def test_theta_offset_appears_verbatim_in_new_arcs(self, telecom_graph, ool_config):
        import dataclasses

        base_fst = telecom_graph
        runs = {}
        for theta in (0.0, 2.0):
            fst = base_fst.copy()
            _, delta = enhance(fst, dataclasses.replace(ool_config, theta=theta))
            runs[theta] = {(a.source, a.target, a.ilabel): a.weight
                           for a in delta.added_arcs}
        assert runs[0.0].keys() == runs[2.0].keys()
        for key, weight in runs[0.0].items():
            assert runs[2.0][key] == weight + 2.0

    def test_predictor_prefix_grows_coverage(self, telecom_graph, ool_config):
        import dataclasses

        base_fst = telecom_graph
        slots = {}
        for chnum in (1, 2, 3):
            fst = base_fst.copy()
            _, delta = enhance(fst, dataclasses.replace(ool_config,
                                                        max_predictors=chnum))
            slots[chnum] = {(a.source, a.target, a.ilabel) for a in delta.added_arcs}
        assert slots[1] <= slots[2] <= slots[3]

    def test_final_weights_never_modified(self, telecom_graph, ool_config):
        fst = telecom_graph
        finals_before = dict(fst.finals)
        enhance(fst, ool_config)
        assert fst.finals == finals_before


class TestPairsConfigFile:
    GOOD = """
    {
      "theta": -2.0,
      "max_predictors": 3,
      "groups": [
        {"predictors": ["a"], "targets": ["c"],
         "frequencies": {"a": 95, "c": 5}, "new_words": []},
        {"predictors": ["a", "b"], "targets": ["nova"],
         "frequencies": {"a": 95, "b": 40}, "new_words": ["nova"]}
      ]
    }
    """

    def test_parses_groups(self):
        config = load_pairs_config(self.GOOD)
        assert config.theta == -2.0
        assert config.max_predictors == 3
        assert len(config.groups) == 2
        assert config.groups[1].is_new("nova")
        assert config.groups[0].frequencies["c"] == 5

    def test_rejects_bad_json(self):
        with pytest.raises(FormatError, match="JSON"):
            load_pairs_config("{nope")

    def test_rejects_missing_keys(self):
        with pytest.raises(FormatError, match="theta"):
            load_pairs_config('{"max_predictors": 1, "groups": []}')

    def test_rejects_non_object(self):
        with pytest.raises(FormatError, match="object"):
            load_pairs_config('[1, 2]')
