import dataclasses
import io
import json
import logging
import math

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import toylm
from gboost.arpa import parse_arpa
from gboost.enhance import (EnhanceConfig, SimilarPairGroup, _log_ratio, enhance,
                            load_pairs_config)
from gboost.errors import FormatError, GboostError, InvariantError
from conftest import make_fst
from gboost.fst import FstDiff, _derived, diff as structural_diff, read_text, write_text
from gboost.graph import build_g, graph_score
from oracles import add_arcs, compute_enhanced_weight


def candidate(w_y, log_ratio, theta):
    """A candidate's weight as enhance computes it: the plan's base, then theta."""
    base = w_y + log_ratio
    return base + theta


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


# One arc for the frequent word "a"; "c" is in the vocabulary but has no
# arcs yet.
DONOR = ("a b c", [(0, 1, "a", 0.5), (1, 2, "b", -0.7)], {2: 0.0})


@pytest.fixture
def donor_graph(fst_factory):
    return fst_factory(*DONOR)


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

    # enhance validates every count before the plan takes a log ratio of it.
    def test_zero_count_target_rejected(self, donor_graph):
        with pytest.raises(InvariantError, match="pseudo-count"):
            enhance(donor_graph, one_pair_config("a", "c", {"a": 10, "c": 0}))

    def test_non_positive_predictor_count_rejected(self, donor_graph):
        with pytest.raises(InvariantError, match="needs a positive frequency"):
            enhance(donor_graph, one_pair_config("a", "c", {"a": 0, "c": 5}))

    @given(w_y=st.floats(-20, 0), f_y=st.integers(1, 10**6), theta=st.floats(-4, 4),
           f_hi=st.integers(2, 10**6), gap=st.integers(1, 10**5))
    def test_rank_preserved_across_target_frequencies(self, w_y, f_y, theta, f_hi, gap):
        f_lo = max(1, f_hi - gap)
        if f_lo == f_hi:
            f_hi += 1
        high = candidate(w_y, _log_ratio(f_hi, f_y), theta)
        low = candidate(w_y, _log_ratio(f_lo, f_y), theta)
        assert high > low

    @given(w_y=st.floats(-20, 0), f_x=st.integers(1, 10**6),
           f_y=st.integers(1, 10**6), theta=st.floats(-8, 8))
    def test_theta_shift_is_exact(self, w_y, f_x, f_y, theta):
        """A weight as enhance applies it is the reference formula, bit for bit."""
        base = candidate(w_y, _log_ratio(f_x, f_y), 0.0)
        got = candidate(w_y, _log_ratio(f_x, f_y), theta)
        assert got == compute_enhanced_weight(w_y, f_x, f_y, theta) == base + theta

    def test_theta_shift_exact_for_new_words(self):
        for theta in (-4.0, -2.0, 0.0, 2.0, 4.0):
            base = candidate(-2.25, _log_ratio(None, 10), 0.0)
            got = candidate(-2.25, _log_ratio(None, 10), theta)
            assert got == compute_enhanced_weight(-2.25, None, 10, theta) == base + theta


class TestCollectArcs:
    """Which predictor arcs donate candidates, and in what order."""

    def test_single_donor_arc(self, donor_graph):
        config = one_pair_config("a", "nova", {"a": 95}, new=True)
        _, delta = enhance(donor_graph, config)
        assert [(a.source, a.target, a.weight) for a in delta.added_arcs] == [(0, 1, 0.5)]

    def test_word_without_arcs_yields_empty_list(self, donor_graph):
        config = one_pair_config("c", "nova", {"c": 5}, new=True)
        _, delta = enhance(donor_graph, config)
        assert delta == FstDiff()

    def test_order_is_state_then_arc_index(self, fst_factory):
        fst = fst_factory(
            "a b",
            [(1, 0, "a", -1.0), (0, 1, "b", -2.0), (0, 0, "a", -3.0)],
            {1: 0.0},
        )
        _, delta = enhance(fst, one_pair_config("a", "nova", {"a": 9}, new=True))
        assert [(a.source, a.weight) for a in delta.added_arcs] == [(0, -3.0), (1, -1.0)]

    def test_fixture_counts_match_arpa_entries(self, telecom_arpa, telecom_graph):
        fst = telecom_graph
        for word in ("liuliang", "wo", "huafei"):
            label = fst.symbols.label(word)
            found = sum(1 for state in fst.states()
                        for (_, arc_label, _) in fst.arcs(state) if arc_label == label)
            assert found == oracles.count_ngrams_ending_in(telecom_arpa, word)


class TestEnhance:
    def test_adds_parallel_arc_for_existing_low_frequency_word(self, donor_graph):
        config = one_pair_config("a", "c", {"a": 95, "c": 5})
        enhanced, delta = enhance(donor_graph, config)
        assert len(delta.added_arcs) == 1
        assert delta.removed_arcs == [] and delta.reweighted_arcs == []
        assert delta.final_changes == []
        arc = delta.added_arcs[0]
        assert (arc.source, arc.target) == (0, 1)
        assert enhanced.symbols.symbol(arc.label) == "c"
        assert arc.weight == pytest.approx(0.5 + math.log(5 / 100), abs=1e-12)
        # everything else bit-identical
        assert structural_diff(donor_graph, enhanced).added_arcs == [arc]

    def test_new_word_gets_symbol_and_arc(self, donor_graph):
        config = one_pair_config("a", "nova", {"a": 95}, new=True, theta=-1.0)
        enhanced, delta = enhance(donor_graph, config)
        assert "nova" in enhanced.symbols and "nova" not in donor_graph.symbols
        assert len(delta.added_arcs) == 1
        assert delta.added_arcs[0].weight == pytest.approx(0.5 - 1.0, abs=1e-12)

    def test_failed_enhance_leaves_graph_untouched(self, fst_factory):
        """Every weight is checked before the raise on c and the new word are written."""
        arcs = [(0, 1, "a", -1.0), (0, 1, "c", -50.0), (1, 2, "a", 1e308)]
        fst, before = fst_factory("a c", arcs, {2: 0.0}), fst_factory("a c", arcs, {2: 0.0})
        group = SimilarPairGroup(predictors=["a"], targets=["c", "nova"],
                                 frequencies={"a": 5, "c": 5}, new_words=frozenset(["nova"]))
        config = EnhanceConfig(theta=1e308, max_predictors=1, groups=[group])
        with pytest.raises(InvariantError, match="^arc weight must be finite, got inf$"):
            enhance(fst, config)
        assert "nova" not in fst.symbols and fst.symbols == before.symbols
        assert structural_diff(before, fst) == FstDiff()
        config.theta = 0.0  # the graph is as it was, so the run still works
        assert len(enhance(fst, config)[1].reweighted_arcs) == 1

    def test_infinite_theta_built_in_code_is_refused(self, donor_graph, fst_factory):
        """load_pairs_config refuses theta inf in a file; enhance refuses it in code too."""
        config = one_pair_config("a", "nova", {"a": 95}, new=True, theta=math.inf)
        with pytest.raises(InvariantError, match="^theta must be finite, got inf$"):
            enhance(donor_graph, config)
        assert "nova" not in donor_graph.symbols
        assert structural_diff(fst_factory(*DONOR), donor_graph) == FstDiff()

    def test_new_word_no_file_can_hold_rejected_before_any_is_added(self, donor_graph):
        config = one_pair_config("a", ["nova", "new word"], {"a": 95}, new=True)
        with pytest.raises(InvariantError, match="'new word'"):
            enhance(donor_graph, config)
        assert "nova" not in donor_graph.symbols

    def test_zero_groups_is_identity(self, donor_graph):
        enhanced, delta = enhance(donor_graph, EnhanceConfig(theta=0.0, max_predictors=1,
                                                             groups=[]))
        assert delta == FstDiff()
        assert oracles.graphs_equal(donor_graph, enhanced)

    def test_shared_slot_takes_max_of_candidates(self, fst_factory):
        fst = fst_factory(
            "y1 y2 x",
            [(0, 1, "y1", -0.2), (0, 1, "y2", -0.9)],
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
            [(0, 1, "a", -0.5), (0, 1, "c", -6.0)],
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
            [(0, 1, "a", -0.5), (0, 1, "c", -0.1)],
            {1: 0.0},
        )
        config = one_pair_config("a", "c", {"a": 90, "c": 10}, theta=-3.0)
        enhanced, delta = enhance(fst, config)
        assert delta == FstDiff()
        assert oracles.graphs_equal(fst, enhanced)

    def test_unknown_predictor_named_in_error(self, donor_graph):
        config = one_pair_config("ghost", "c", {"ghost": 5, "c": 5})
        with pytest.raises(InvariantError, match="ghost"):
            enhance(donor_graph, config)

    @pytest.mark.parametrize("predictor, target, new, role", [
        ("<eps>", "c", False, "predictor"),
        ("a", "<eps>", False, "target"),
        ("a", "<eps>", True, "target"),
        ("<s>", "c", False, "predictor"),
        ("a", "<s>", False, "target"),
        ("a", "<s>", True, "target"),
        ("</s>", "c", False, "predictor"),
        ("a", "</s>", False, "target"),
        ("a", "</s>", True, "target"),
    ])
    def test_epsilon_is_neither_predictor_nor_target(self, fst_factory, donor_graph,
                                                     predictor, target, new, role):
        # <eps> labels back-off arcs: as a predictor it would copy them as
        # target-word arcs, as a target it would add label-0 arcs. A </s>
        # arc must end in a final state, and no sentence reads <s>.
        word = predictor if role == "predictor" else target
        config = one_pair_config(predictor, target, {"a": 95, "c": 5, word: 50}, new=new)
        before = fst_factory(*DONOR)  # the same graph, built apart
        with pytest.raises(InvariantError, match=f"'{word}'.* {role}"):
            enhance(donor_graph, config)
        assert oracles.graphs_equal(before, donor_graph) and before.symbols == donor_graph.symbols

    def test_new_marked_word_already_in_table_is_reused(self, donor_graph):
        # A rerun finds its own insertions; they are reused, not duplicated.
        config = one_pair_config("a", "nova", {"a": 95}, new=True)
        first, _ = enhance(donor_graph, config)
        second, delta = enhance(first, config)
        assert delta == FstDiff()
        assert second.symbols is first.symbols  # nothing new to add
        assert oracles.graphs_equal(first, second)

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
        enhanced, delta = enhance(fst, ool_config)
        target_labels = {enhanced.symbols.label(t)
                         for g in ool_config.groups for t in g.targets}
        for arc in delta.added_arcs:
            assert arc.label in target_labels
        for old, new in delta.reweighted_arcs:
            assert old.label in target_labels
        for state in fst.states():
            before_rest = [a for a in fst.arcs(state) if a[1] not in target_labels]
            after_rest = [a for a in enhanced.arcs(state) if a[1] not in target_labels]
            assert before_rest == after_rest

    def test_monotone_scores_on_fixture(self, telecom_graph, ool_config):
        fst = telecom_graph
        sentences = toylm.toy_corpus(toylm.TELECOM_WORDS, 80, seed=17, max_len=5)
        before_scores = [graph_score(fst, s) for s in sentences]
        enhanced, _ = enhance(fst, ool_config)
        for sentence, before in zip(sentences, before_scores):
            assert graph_score(enhanced, sentence) >= before - 1e-12

    def test_idempotent(self, telecom_graph, ool_config):
        first, _ = enhance(telecom_graph, ool_config)
        second, delta = enhance(first, ool_config)
        assert delta == FstDiff()
        assert oracles.graphs_equal(first, second)

    def test_returned_diff_matches_structural_diff(self, telecom_graph, ool_config):
        fst = telecom_graph
        enhanced, delta = enhance(fst, ool_config)
        before = oracles.apply_diff_by_arc(fst, FstDiff(), enhanced.symbols)  # with the new words
        structural = structural_diff(before, enhanced)
        assert sorted(structural.added_arcs) == sorted(delta.added_arcs)
        assert sorted(structural.reweighted_arcs) == sorted(delta.reweighted_arcs)
        assert structural.removed_arcs == [] and structural.final_changes == []

    def test_theta_offset_appears_verbatim_in_new_arcs(self, telecom_graph, ool_config):
        import dataclasses

        base_fst = telecom_graph
        runs = {}
        for theta in (0.0, 2.0):
            _, delta = enhance(base_fst, dataclasses.replace(ool_config, theta=theta))
            runs[theta] = {(a.source, a.target, a.label): a.weight
                           for a in delta.added_arcs}
        assert runs[0.0].keys() == runs[2.0].keys()
        for key, weight in runs[0.0].items():
            assert runs[2.0][key] == weight + 2.0

    def test_predictor_prefix_grows_coverage(self, telecom_graph, ool_config):
        import dataclasses

        base_fst = telecom_graph
        slots = {}
        for chnum in (1, 2, 3):
            _, delta = enhance(base_fst, dataclasses.replace(ool_config,
                                                             max_predictors=chnum))
            slots[chnum] = {(a.source, a.target, a.label) for a in delta.added_arcs}
        assert slots[1] <= slots[2] <= slots[3]

    def test_final_weights_never_modified(self, telecom_graph, ool_config):
        fst = telecom_graph
        enhanced, _ = enhance(fst, ool_config)
        assert enhanced.finals == fst.finals


# -- what an added arc does under failure semantics -------------------------------
#
# An added arc for word w at state s is always taken there unless another arc
# for w at s wins, and then it replaces w's back-off path from s: the boost
# lowers w after s where that path weighed more. oracles.added_arc_classes
# sorts each added arc by what it does.

# State 0 is the unigram state and 2 the final one; state 1, the history
# "a", has an arc for the predictor p and backs off to 0 for w.
LOWERING = ("a p w </s>", [(0, 1, "a", -1.0), (0, 0, "p", -2.0), (0, 0, "w", -3.0),
                           (0, 2, "</s>", -1.5), (1, 0, "p", -4.0), (1, 0, "<eps>", -0.5)],
            {2: 0.0})


@st.composite
def backoff_graphs_and_configs(draw):
    """A graph compiled from a random toy model, and a one-group config over its words."""
    words = toylm.TELECOM_WORDS
    # The last word stays out of the corpus, so that no history exhausts
    # the lower-order mass the estimator backs off to.
    corpus = toylm.toy_corpus(words[:-1], draw(st.integers(5, 40)),
                              seed=draw(st.integers(0, 9999)), max_len=6)
    arpa = toylm.train_arpa(corpus, vocab=words, order=draw(st.integers(2, 3)))
    fst = build_g(parse_arpa(io.StringIO(arpa)))
    shuffled = draw(st.permutations(words))
    predictors = shuffled[:draw(st.integers(1, 3))]
    targets = shuffled[len(predictors):len(predictors) + draw(st.integers(1, 2))]
    new_words = ["nova"] if draw(st.booleans()) else []
    counts = st.integers(1, 1000)
    group = SimilarPairGroup(predictors=predictors, targets=targets + new_words,
                             frequencies={w: draw(counts) for w in predictors + targets},
                             new_words=frozenset(new_words))
    theta = draw(st.sampled_from([-4.0, -2.0, 0.0, 2.0]) | st.floats(-6, 6))
    return fst, EnhanceConfig(theta=theta, max_predictors=draw(st.integers(1, 3)),
                              groups=[group])


class TestAddedArcClasses:
    def test_a_boost_can_lower_a_word(self, fst_factory):
        base = fst_factory(*LOWERING)
        config = one_pair_config("p", "w", {"p": 99, "w": 1})
        enhanced, delta = enhance(base, config)
        # p's arc at state 0 lends w less than w's own arc there: no raise.
        assert delta.reweighted_arcs == []
        [lent] = delta.added_arcs
        assert (lent.source, lent.target) == (1, 0)
        old_path = -0.5 + -3.0  # state 1's back-off, then w's arc at state 0
        assert lent.weight == -4.0 + math.log(1 / 100) < old_path
        assert oracles.added_arc_classes(base, enhanced, [lent]) == ["below"]
        before = graph_score(base, ["a", "w"])
        after = graph_score(enhanced, ["a", "w"])
        assert after - before == lent.weight - old_path < 0

    @settings(max_examples=60, deadline=None)
    @given(backoff_graphs_and_configs())
    def test_classes_partition_the_added_arcs(self, drawn):
        base, config = drawn
        enhanced, delta = enhance(base, config)
        classes = oracles.added_arc_classes(base, enhanced, delta.added_arcs)
        assert len(classes) == len(delta.added_arcs)
        assert set(classes) <= set(oracles.ADDED_ARC_CLASSES)
        for arc, kind in zip(delta.added_arcs, classes):
            taken = enhanced.best_arcs(arc.source)[arc.label]
            assert (kind == "shadowed") == (taken != tuple(arc[1:]))
            if kind != "shadowed":  # then the arc is its word's one-step weight there
                assert oracles.failure_weight(enhanced, arc.source, arc.label) == arc.weight


# -- plan and apply ------------------------------------------------------------
#
# enhance plans once per config without theta, in the graph's memo, and
# applies theta per call. Every result must equal the per-candidate
# reference in tests/oracles.py bit for bit, whether the plan was built or
# reused.

PLAN_SYMBOLS = ["y0", "y1", "y2", "y3", "x0", "x1"]


def logged_enhance(fst, config):
    """``enhance(fst, config)``'s graph and diff, and the arguments of the INFO line it logs.

    They are theta, the predictor count, arcs added, arcs raised, the
    overshoot count and whether the plan was "built" or "reused".
    """
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("gboost.enhance")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        enhanced, delta = enhance(fst, config)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    [info] = [r for r in records if r.levelno == logging.INFO]
    return enhanced, delta, info.args


def bits(delta):
    """A diff's arcs with each weight as its exact hex string: -0.0 differs from 0.0."""
    def arc(a):
        return (*a[:3], a.weight.hex())
    return ([arc(a) for a in delta.added_arcs],
            [(arc(old), arc(new)) for old, new in delta.reweighted_arcs],
            delta.removed_arcs, delta.final_changes)


def plan_graph(arcs, columns=True):
    """A 5-state graph over PLAN_SYMBOLS; with ``columns``, as read from text."""
    fst = make_fst(PLAN_SYMBOLS, arcs, {0: 0.0, 4: -1.0})
    if not columns:
        return fst
    text = io.StringIO()
    write_text(fst, text)
    text.seek(0)
    return read_text(text, fst.symbols)


def plan_config(counts_a, counts_b, theta=0.0, max_predictors=3):
    """Two groups; x0 and the new word nova are targets of both."""
    return EnhanceConfig(theta=theta, max_predictors=max_predictors, groups=[
        SimilarPairGroup(predictors=["y0", "y1", "y2"], targets=["x0", "nova"],
                         frequencies=dict(zip(["y0", "y1", "y2", "x0"], counts_a)),
                         new_words=frozenset(["nova"])),
        SimilarPairGroup(predictors=["y3", "y1"], targets=["x1", "x0", "nova"],
                         frequencies=dict(zip(["y3", "y1", "x1", "x0"], counts_b)),
                         new_words=frozenset(["nova"])),
    ])


# Parallel predictor and target arcs in several slots, a tie between two
# predictors in one slot, a target's arc in a slot where only another
# target's candidates land, and weights at which theta near zero decides
# raises.
RAISE_ARCS = [
    (0, 1, "y0", -1.0), (0, 1, "x0", -3.0), (0, 1, "y1", -1.0),
    (0, 2, "y3", -0.5), (0, 2, "x1", -1.2), (0, 2, "x1", -4.0),
    (1, 2, "y2", 0.0), (1, 2, "x1", -0.1), (1, 3, "y1", -2.0),
    (2, 3, "x0", 0.25), (2, 3, "y0", 0.25), (3, 4, "y3", -0.75),
    (3, 4, "y1", -0.75), (3, 0, "<eps>", -0.3),
]

ARCS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.sampled_from(PLAN_SYMBOLS + ["<eps>"]),
                          st.sampled_from([-2.0, -1.0, -0.5, 0.0, -0.0, 0.75])
                          | st.floats(-6, 6)),
                max_size=25)
COUNTS = st.lists(st.integers(1, 2000), min_size=4, max_size=4)
THETA = st.sampled_from([0.0, -0.0, 2.0, -4.0]) | st.floats(-8, 8)


def check_cells(base, counts_a, counts_b, cells):
    """Enhance ``base`` once per (theta, chnum) cell, against the reference.

    Each enhanced graph's arcs, in order, are the reference diff replayed
    one edit at a time.
    """
    planned = set()
    for theta, chnum in cells:
        config = plan_config(counts_a, counts_b, theta, chnum)
        expected, overshoot = oracles.enhance_by_candidate(base, config)
        enhanced, delta, info = logged_enhance(base, config)
        assert bits(delta) == bits(expected), (theta, chnum)
        replayed = oracles.apply_diff_by_arc(base, expected)
        assert [enhanced.arcs(s) for s in base.states()] == [
            replayed.arcs(s) for s in base.states()], (theta, chnum)
        assert info[1:5] == (chnum, len(expected.added_arcs),
                             len(expected.reweighted_arcs), overshoot)
        assert info[5] == ("reused" if chnum in planned else "built")
        planned.add(chnum)


def grown_before(base, word):
    """``base``'s arcs, and so its memo, under a symbol table that gained ``word``."""
    return _derived(base, base.symbols.extended([word]), FstDiff())


class TestPlanAndApply:
    @settings(max_examples=60, deadline=None)
    @given(arcs=ARCS, columns=st.booleans(), counts_a=COUNTS, counts_b=COUNTS,
           cells=st.lists(st.tuples(THETA, st.integers(1, 3)), min_size=1, max_size=6))
    def test_sibling_copies_match_the_per_candidate_reference(self, arcs, columns,
                                                              counts_a, counts_b, cells):
        check_cells(plan_graph(RAISE_ARCS + arcs, columns), counts_a, counts_b, cells)

    def test_raises_and_repeated_targets_match_the_reference(self):
        """RAISE_ARCS raise x0 and x1 slots from some theta on; the benchmark raises none."""
        base = plan_graph(RAISE_ARCS)
        counts_a, counts_b = [90, 80, 70, 60], [50, 40, 30, 20]
        cells = [(theta, chnum) for theta in (-4.0, -0.0, 0.0, 0.5, 2.0, 6.0)
                 for chnum in (1, 2, 3)]
        check_cells(base, counts_a, counts_b, cells)
        raised = enhance(base, plan_config(counts_a, counts_b, 2.0))[1]
        assert {base.symbols.symbol(old.label) for old, _ in raised.reweighted_arcs} \
            == {"x0", "x1"}

    def test_the_graph_holds_the_diffs_added_arcs(self):
        """The enhanced graph's added arcs are its diff's Arc objects, by source."""
        base = plan_graph(RAISE_ARCS)
        enhanced, delta = enhance(base, plan_config([9, 8, 7, 6], [5, 4, 3, 2]))
        assert len({arc.source for arc in delta.added_arcs}) > 1
        by_source = sorted(delta.added_arcs, key=lambda arc: arc.source)
        assert list(map(id, enhanced._added)) == list(map(id, by_source))

    def test_write_drops_the_plan(self):
        """An edited graph is a new graph, with a memo of its own: it plans anew."""
        base = plan_graph(RAISE_ARCS)
        config = plan_config([9, 8, 7, 6], [5, 4, 3, 2])
        assert logged_enhance(base, config)[2][5] == "built"
        twin = _derived(base, base.symbols, FstDiff())  # over the same columns
        assert twin is not base and logged_enhance(twin, config)[2][5] == "reused"
        y2, y3 = base.symbols.label("y2"), base.symbols.label("y3")
        edited = add_arcs(base, (4, 3, y2, -0.25))
        _, delta, info = logged_enhance(edited, config)
        assert info[5] == "built"
        assert bits(delta) == bits(oracles.enhance_by_candidate(edited, config)[0])
        assert any(arc.source == 4 for arc in delta.added_arcs)
        assert logged_enhance(add_arcs(edited, (4, 2, y3, -0.5)), config)[2][5] == "built"
        assert logged_enhance(edited, config)[2][5] == "reused"
        assert logged_enhance(base, config)[2][5] == "reused"

    @pytest.mark.parametrize("change", ["count", "new word", "prefix", "order"])
    def test_config_change_builds_a_new_plan(self, change):
        base = plan_graph(RAISE_ARCS)
        config = plan_config([9, 8, 7, 6], [5, 4, 3, 2], max_predictors=2)
        logged_enhance(base, config)
        group = config.groups[0]
        if change == "count":
            group.frequencies["y1"] += 1
        elif change == "new word":
            group.new_words = group.new_words | {"x0"}
        elif change == "prefix":
            config.max_predictors = 3
        else:
            group.predictors[:2] = group.predictors[1::-1]
        _, delta, info = logged_enhance(base, config)
        assert info[5] == "built"
        assert bits(delta) == bits(oracles.enhance_by_candidate(base, config)[0])

    def test_new_word_labels_come_from_each_copys_table(self):
        base = plan_graph(RAISE_ARCS)
        config = plan_config([9, 8, 7, 6], [5, 4, 3, 2])
        first = logged_enhance(base, config)[0]
        grown = grown_before(base, "zzz")
        expected = oracles.enhance_by_candidate(grown, config)[0]
        enhanced, delta, info = logged_enhance(grown, config)
        assert info[5] == "reused"
        nova = enhanced.symbols.label("nova")
        assert nova == first.symbols.label("nova") + 1
        assert nova in {arc.label for arc in delta.added_arcs}
        assert bits(delta) == bits(expected)
        # A table that holds the new word already is planned anew.
        known = grown_before(base, "nova")
        expected = oracles.enhance_by_candidate(known, config)[0]
        _, delta, info = logged_enhance(known, config)
        assert info[5] == "built"
        assert bits(delta) == bits(expected)

    def test_info_line_reports_each_call(self, caplog):
        base = plan_graph(RAISE_ARCS)
        config = plan_config([9, 8, 7, 6], [5, 4, 3, 2], theta=2.0, max_predictors=3)
        with caplog.at_level(logging.INFO, logger="gboost.enhance"):
            _, delta = enhance(base, config)
            enhance(base, dataclasses.replace(config, theta=-4.0))
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert lines[0] == (f"enhance: theta 2, 3 predictors: {len(delta.added_arcs)} "
                            f"arcs added, {len(delta.reweighted_arcs)} raised, "
                            f"{oracles.enhance_by_candidate(base, config)[1]} candidates "
                            "overshoot; plan built")
        assert lines[1].startswith("enhance: theta -4, 3 predictors: ")
        assert lines[1].endswith("; plan reused")


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


# -- config parser under fuzzing ----------------------------------------------
#
# Arbitrary text and JSON, and valid configs with fields dropped or replaced.
# Loading may raise only FormatError, and enhancing a small graph with a
# loaded config only GboostError.

FUZZ_ARPA = ("\\data\\\nngram 1=5\n\n\\1-grams:\n-99\t<s>\n-0.5\ta\n-0.6\tb\n"
             "-1.3\tc\n-0.9\t</s>\n\n\\end\\\n")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**400)
    | st.floats() | st.sampled_from(["a", "b", "c", "new", "<eps>", ""]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["a", "b", "c", "new"]), inner,
                                     max_size=3)),
    max_leaves=6)
VALID_PAIRS = {"theta": 0.5, "max_predictors": 2,
               "groups": [{"predictors": ["a", "b"], "targets": ["c", "new"],
                           "frequencies": {"a": 95, "b": 40, "c": 5},
                           "new_words": ["new"]}]}


@st.composite
def near_valid_pairs(draw):
    config = json.loads(json.dumps(VALID_PAIRS))
    group = config["groups"][0]
    for _ in range(draw(st.integers(1, 2))):
        frequencies = group.get("frequencies")
        places = [config, group] + ([frequencies] if isinstance(frequencies, dict) else [])
        where = draw(st.sampled_from(places))
        key = draw(st.sampled_from(sorted(where) + ["new"]))
        if draw(st.booleans()):
            where.pop(key, None)
        else:
            where[key] = draw(JSON_VALUES)
    return json.dumps(config)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.text(max_size=60), JSON_VALUES.map(json.dumps), near_valid_pairs()))
@example(json.dumps(VALID_PAIRS))
@example(json.dumps(dict(VALID_PAIRS, groups=[dict(
    VALID_PAIRS["groups"][0], frequencies={"a": 95, "b": 10**330, "c": 5})])))
@example("[" * 200000)  # nested too deep for the parser
def test_pairs_config_raises_only_gboost_errors(text):
    try:
        config = load_pairs_config(text)
    except FormatError:
        return
    fst = build_g(parse_arpa(io.StringIO(FUZZ_ARPA)))
    try:
        enhanced, _ = enhance(fst, config)
    except GboostError:
        return
    assert enhanced.num_states() == fst.num_states()
