import io
import math
import random

import pytest

import toylm
from gboost.arpa import BOS, EOS, oracle_score, parse_arpa
from gboost.errors import InvariantError, NoPathError
from gboost.fst import EPSILON, EPSILON_LABEL, Wfst, path_weight
from gboost.graph import build_g, graph_score

LN10 = math.log(10.0)


def parse(text):
    return parse_arpa(io.StringIO(text))


UNIGRAM_ONLY = """\
\\data\\
ngram 1=5

\\1-grams:
-99\t<s>
-0.7\ta
-0.9\tb
-1.1\tc
-0.8\t</s>

\\end\\
"""

SMALL_BIGRAM = """\
\\data\\
ngram 1=4
ngram 2=5

\\1-grams:
-99\t<s>\t-0.15
-0.5\ta\t-0.2
-0.6\tb\t-0.3
-0.9\t</s>

\\2-grams:
-0.3\t<s> a
-0.4\ta b
-0.7\ta </s>
-0.45\tb a
-0.5\tb </s>

\\end\\
"""

# Trigram file where the bigram "b c" carries a back-off weight but is the
# context of no trigram: it gets no state, and the weight must be folded
# into the arcs that jump past it.
SUFFIX_GAP = """\
\\data\\
ngram 1=5
ngram 2=4
ngram 3=2

\\1-grams:
-99\t<s>\t-0.1
-0.5\ta\t-0.2
-0.6\tb\t-0.3
-0.7\tc\t-0.25
-0.9\t</s>

\\2-grams:
-0.3\t<s> a\t-0.15
-0.4\ta b\t-0.12
-0.45\tb c\t-0.22
-0.5\tc </s>

\\3-grams:
-0.35\t<s> a b
-0.42\ta b c

\\end\\
"""


class TestBuildG:
    def test_unigram_only_shape(self):
        fst, states = build_g(parse(UNIGRAM_ONLY))
        assert fst.num_states() == 2  # root plus final
        assert fst.initial == states[()]
        assert fst.num_arcs() == 4  # a, b, c, plus </s>; nothing for <s>
        assert all(ilabel != EPSILON_LABEL
                   for state in fst.states() for (_, ilabel, _, _) in fst.arcs(state))
        assert list(fst.finals.values()) == [0.0]

    def test_bigram_state_count(self):
        model = parse(SMALL_BIGRAM)
        fst, states = build_g(model)
        histories = {gram[:-1] for gram in model.tables[1]}
        assert fst.num_states() == 1 + len(histories) + 1
        assert fst.initial == states[(BOS,)]

    def test_fixture_bigram_states_match_distinct_contexts(self):
        corpus = toylm.toy_corpus(toylm.TELECOM_WORDS[:-1], 120, seed=11)
        model = parse(toylm.train_arpa(corpus, vocab=toylm.TELECOM_WORDS, order=2))
        distinct = {gram[0] for gram in model.tables[1]}
        fst, _ = build_g(model)
        assert fst.num_states() == 1 + len(distinct) + 1

    def test_word_arcs_carry_entry_logprobs(self):
        model = parse(SMALL_BIGRAM)
        fst, states = build_g(model)
        a = fst.symbols.label("a")
        ((target, _, _, weight),) = fst.arcs_matching(states[(BOS,)], a)
        assert weight == model.logprob((BOS, "a"))
        assert target == states[("a",)]

    def test_eos_arcs_terminate_in_final(self):
        model = parse(SMALL_BIGRAM)
        fst, _ = build_g(model)
        eos = fst.symbols.label(EOS)
        (final,) = fst.finals
        for state in fst.states():
            for target, ilabel, _, _ in fst.arcs(state):
                if ilabel == eos:
                    assert target == final
        assert not fst.arcs(final)

    def test_backoff_arc_uniqueness(self, telecom_model):
        fst, states = build_g(telecom_model)
        (final,) = fst.finals
        for state in fst.states():
            epsilon_arcs = fst.arcs_matching(state, EPSILON_LABEL)
            if state in (states[()], final):
                assert epsilon_arcs == []
            else:
                assert len(epsilon_arcs) == 1

    def test_deterministic_per_label_before_enhancement(self, telecom_graph):
        fst = telecom_graph
        for state in fst.states():
            seen = set()
            for (_, ilabel, _, _) in fst.arcs(state):
                if ilabel == EPSILON_LABEL:
                    continue
                assert ilabel not in seen
                seen.add(ilabel)

    def test_graph_symbols_are_a_private_copy(self, telecom_model):
        fst, _ = build_g(telecom_model)
        fst.symbols.add("fresh-word")
        assert "fresh-word" not in telecom_model.vocab


class TestGraphScore:
    def test_matches_oracle_on_random_sentences(self, telecom_model, telecom_graph):
        fst = telecom_graph
        rng = random.Random(31)
        for _ in range(200):
            sentence = rng.choices(toylm.TELECOM_WORDS, k=rng.randint(0, 9))
            expected = oracle_score(telecom_model, sentence)
            assert graph_score(fst, sentence) == pytest.approx(
                expected, abs=1e-9)

    def test_matches_oracle_on_bigram_model(self):
        model = parse(SMALL_BIGRAM)
        fst, _ = build_g(model)
        rng = random.Random(5)
        for _ in range(60):
            sentence = rng.choices(["a", "b"], k=rng.randint(0, 5))
            assert graph_score(fst, sentence) == pytest.approx(
                oracle_score(model, sentence), abs=1e-9)

    def test_empty_sentence_takes_bos_eos_entry(self):
        unigrams = "-99\t<s>\t-0.15\n-0.5\ta\t-0.2\n-0.9\t</s>"
        text = ("\\data\\\nngram 1=3\nngram 2=2\n\n\\1-grams:\n" + unigrams
                + "\n\n\\2-grams:\n-0.25\t<s> </s>\n-0.6\ta </s>\n\n\\end\\\n")
        model = parse(text)
        fst, _ = build_g(model)
        assert graph_score(fst, []) == model.logprob((BOS, EOS))

    def test_duplicate_label_arcs_resolve_to_max(self):
        model = parse(SMALL_BIGRAM)
        fst, states = build_g(model)
        baseline = graph_score(fst, ["a"])
        a = fst.symbols.label("a")
        start = fst.initial
        better = fst.arcs_matching(start, a)[0][3] + 1.0
        fst.add_arc(start, states[("a",)], a, a, better)
        assert graph_score(fst, ["a"]) == pytest.approx(
            baseline + 1.0, abs=1e-12)

    def test_failure_semantics_differs_from_best_path(self, fst_factory):
        # Context state 0 has its own arc for "a", lower than backing off
        # to the root (state 1) and taking the root's arc.
        fst = fst_factory(
            ["a", EOS],
            [(0, 1, "a", "a", -5.0), (0, 1, EPSILON, EPSILON, -0.5),
             (1, 1, "a", "a", -1.0), (1, 2, EOS, EOS, -2.0)],
            {2: 0.0},
        )
        assert graph_score(fst, ["a"]) == -5.0 + -2.0  # failure: the word arc
        assert path_weight(fst, ["a", EOS]) == -0.5 + -1.0 + -2.0  # best path

    def test_broken_graphs_raise_invariant_errors(self, fst_factory):
        with pytest.raises(InvariantError, match="no initial state"):
            graph_score(Wfst(), [])
        cycle = fst_factory(["a", EOS], [(0, 1, EPSILON, EPSILON, -0.5),
                                         (1, 0, EPSILON, EPSILON, -0.5)], {})
        with pytest.raises(InvariantError, match="epsilon cycle"):
            graph_score(cycle, ["a"])
        dead_end = fst_factory([EOS], [(0, 1, EOS, EOS, -1.0)], {2: 0.0})
        with pytest.raises(InvariantError, match="non-final"):
            graph_score(dead_end, [])

    def test_unknown_word_raises_no_path_with_position(self, telecom_graph):
        fst = telecom_graph
        with pytest.raises(NoPathError, match="position 1") as info:
            graph_score(fst, ["wo", "zzz"])
        assert info.value.word == "zzz"
        assert info.value.position == 1

    def test_suffix_gap_backoff_is_folded(self):
        model = parse(SUFFIX_GAP)
        fst, states = build_g(model)
        assert ("b", "c") not in states
        for sentence in (["a", "b", "c"], ["a", "b", "c", "a"], ["b", "c"],
                         ["a", "b"], ["c"]):
            assert graph_score(fst, sentence) == pytest.approx(
                oracle_score(model, sentence), abs=1e-9)

    def test_trigram_arc_weight_includes_folded_backoff(self):
        model = parse(SUFFIX_GAP)
        fst, states = build_g(model)
        c = fst.symbols.label("c")
        ((target, _, _, weight),) = fst.arcs_matching(states[("a", "b")], c)
        folded = model.logprob(("a", "b", "c")) + (-0.22 * LN10)
        assert weight == pytest.approx(folded, abs=1e-12)
        assert target == states[("c",)]
