import io
import math
import random

import pytest

import oracles
import toylm
from gboost.arpa import BOS, EOS, UNK, oracle_score, parse_arpa
from gboost.enhance import enhance
from gboost.errors import InvariantError, NoPathError
from gboost.fst import EPSILON, EPSILON_LABEL, Arc, FstDiff, read_text, write_text
from gboost.graph import build_g, graph_score
from oracles import add_arcs, apply_diff_by_arc, arcs_matching, history_states, path_weight
from test_acceptance import VOCAB, fresh_token_stream, random_backoff_graph, random_config

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
        model = parse(UNIGRAM_ONLY)
        fst, states = build_g(model), history_states(model)
        assert fst.num_states() == 2  # root plus final
        assert fst.initial == states[()]
        assert fst.num_arcs() == 4  # a, b, c, plus </s>; nothing for <s>
        assert all(label != EPSILON_LABEL
                   for state in fst.states() for (_, label, _) in fst.arcs(state))
        assert list(fst.finals.values()) == [0.0]

    def test_bigram_state_count(self):
        model = parse(SMALL_BIGRAM)
        fst, states = build_g(model), history_states(model)
        histories = {gram[:-1] for gram in model.tables[1]}
        assert fst.num_states() == 1 + len(histories) + 1
        assert fst.initial == states[(BOS,)]

    def test_fixture_bigram_states_match_distinct_contexts(self):
        corpus = toylm.toy_corpus(toylm.TELECOM_WORDS[:-1], 120, seed=11)
        model = parse(toylm.train_arpa(corpus, vocab=toylm.TELECOM_WORDS, order=2))
        distinct = {gram[0] for gram in model.tables[1]}
        fst = build_g(model)
        assert fst.num_states() == 1 + len(distinct) + 1

    def test_word_arcs_carry_entry_logprobs(self):
        model = parse(SMALL_BIGRAM)
        fst, states = build_g(model), history_states(model)
        a = fst.symbols.label("a")
        ((target, _, weight),) = arcs_matching(fst, states[(BOS,)], a)
        assert weight == model.logprob((BOS, "a"))
        assert target == states[("a",)]

    def test_eos_arcs_terminate_in_final(self):
        model = parse(SMALL_BIGRAM)
        fst = build_g(model)
        eos = fst.symbols.label(EOS)
        (final,) = fst.finals
        for state in fst.states():
            for target, label, _ in fst.arcs(state):
                if label == eos:
                    assert target == final
        assert not fst.arcs(final)

    def test_backoff_arc_uniqueness(self, telecom_model):
        fst, states = build_g(telecom_model), history_states(telecom_model)
        (final,) = fst.finals
        for state in fst.states():
            epsilon_arcs = arcs_matching(fst, state, EPSILON_LABEL)
            if state in (states[()], final):
                assert epsilon_arcs == []
            else:
                assert len(epsilon_arcs) == 1

    def test_deterministic_per_label_before_enhancement(self, telecom_graph):
        fst = telecom_graph
        for state in fst.states():
            seen = set()
            for (_, label, _) in fst.arcs(state):
                if label == EPSILON_LABEL:
                    continue
                assert label not in seen
                seen.add(label)

    def test_graph_shares_the_model_vocabulary(self, telecom_model, ool_config):
        fst = build_g(telecom_model)
        assert fst.symbols is telecom_model.vocab
        enhanced, _ = enhance(fst, ool_config)  # new words: an extended table
        assert "wifi" in enhanced.symbols and "wifi" not in telecom_model.vocab


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
        fst = build_g(model)
        rng = random.Random(5)
        for _ in range(60):
            sentence = rng.choices(["a", "b"], k=rng.randint(0, 5))
            assert graph_score(fst, sentence) == pytest.approx(
                oracle_score(model, sentence), abs=1e-9)

    @pytest.mark.parametrize("negate", [False, True], ids=["logprob", "cost"])
    def test_graph_read_from_its_text_scores_as_built(self, negate):
        """Bit for bit as the graph build_g made, and within 1e-9 of the oracle.

        Not equal to the oracle: the graph adds back-off weights folded into
        its arcs, the oracle adds them per n-gram, and a different order of
        additions can change the last bits of a sum, in memory as well.
        """
        words = [f"w{i}" for i in range(200)]
        corpus = toylm.toy_corpus(words, 3000, seed=5)
        model = parse(toylm.train_arpa(corpus, vocab=words, order=3))
        built = build_g(model)
        text = io.StringIO()
        write_text(built, text, negate=negate)
        read = read_text(io.StringIO(text.getvalue()), built.symbols, negate=negate)
        rng = random.Random(9)
        for sentence in corpus[:300] + [rng.choices(words, k=rng.randint(0, 9))
                                        for _ in range(300)]:
            got = graph_score(read, sentence)
            assert got == graph_score(built, sentence), sentence
            assert got == pytest.approx(oracle_score(model, sentence), abs=1e-9)

    def test_empty_sentence_takes_bos_eos_entry(self):
        unigrams = "-99\t<s>\t-0.15\n-0.5\ta\t-0.2\n-0.9\t</s>"
        text = ("\\data\\\nngram 1=3\nngram 2=2\n\n\\1-grams:\n" + unigrams
                + "\n\n\\2-grams:\n-0.25\t<s> </s>\n-0.6\ta </s>\n\n\\end\\\n")
        model = parse(text)
        fst = build_g(model)
        assert graph_score(fst, []) == model.logprob((BOS, EOS))

    def test_duplicate_label_arcs_resolve_to_max(self):
        model = parse(SMALL_BIGRAM)
        fst, states = build_g(model), history_states(model)
        baseline = graph_score(fst, ["a"])
        a = fst.symbols.label("a")
        start = fst.initial
        better = arcs_matching(fst, start, a)[0][2] + 1.0
        fst = add_arcs(fst, (start, states[("a",)], a, better))
        assert graph_score(fst, ["a"]) == pytest.approx(
            baseline + 1.0, abs=1e-12)

    def test_best_arc_table_follows_mutation(self, fst_factory):
        # State 0 reads "a" to state 1 or backs off to state 2; both end
        # with </s>, at -1.0 from state 1 and -3.0 from state 2.
        fst = fst_factory(
            ["a", EOS],
            [(0, 1, "a", -2.0), (0, 2, EPSILON, -0.5),
             (1, 3, EOS, -1.0), (2, 3, EOS, -3.0)],
            {3: 0.0},
        )
        a = fst.symbols.label("a")
        assert graph_score(fst, ["a"]) == -2.0 + -1.0
        assert graph_score(fst, []) == -0.5 + -3.0
        added = add_arcs(fst, (0, 2, a, -1.0))  # a higher parallel arc
        assert graph_score(added, ["a"]) == -1.0 + -3.0
        raised = apply_diff_by_arc(added, FstDiff(reweighted_arcs=[
            (Arc(0, 1, a, -2.0), Arc(0, 1, a, -0.5))]))
        assert graph_score(raised, ["a"]) == -0.5 + -1.0
        removed = apply_diff_by_arc(raised, FstDiff(removed_arcs=[Arc(0, 1, a, -0.5)]))
        assert graph_score(removed, ["a"]) == -1.0 + -3.0
        assert graph_score(add_arcs(removed, (0, 1, a, 0.0)), ["a"]) == 0.0 + -1.0
        # Each graph it came from still scores its own arcs.
        for graph, score in ((fst, -2.0 + -1.0), (added, -1.0 + -3.0), (raised, -0.5 + -1.0),
                             (removed, -1.0 + -3.0)):
            assert graph_score(graph, ["a"]) == score

    def test_equal_weight_arcs_resolve_to_first_inserted(self, fst_factory):
        ends = [(1, 3, EOS, -1.0), (2, 3, EOS, -2.0)]
        to_1, to_2 = (0, 1, "a", -1.0), (0, 2, "a", -1.0)
        first_1 = fst_factory(["a", EOS], [to_1, to_2, *ends], {3: 0.0})
        first_2 = fst_factory(["a", EOS], [to_2, to_1, *ends], {3: 0.0})
        assert graph_score(first_1, ["a"]) == -1.0 + -1.0
        assert graph_score(first_2, ["a"]) == -1.0 + -2.0

    def test_matches_greedy_reference_on_random_graphs(self):
        rng = random.Random(150604940)
        parallel = 0
        for _ in range(300):
            fst = random_backoff_graph(rng, VOCAB)
            final = fst.num_states() - 1  # random_backoff_graph adds it last
            for _ in range(3):  # plant equal-weight word arcs to other states
                state = rng.randrange(final)
                word_arcs = [arc for arc in fst.arcs(state)
                             if arc[1] not in (EPSILON_LABEL, fst.symbols.label(EOS))]
                if word_arcs:
                    _, label, weight = rng.choice(word_arcs)
                    fst = add_arcs(fst, (state, rng.randrange(final), label, weight))
            config = random_config(rng, VOCAB, fresh_token_stream())
            self._assert_greedy_scores(fst, rng, VOCAB)
            fst, _ = enhance(fst, config)  # adds parallel target arcs
            words = VOCAB + [t for g in config.groups for t in g.targets]
            self._assert_greedy_scores(fst, rng, words)
            parallel += sum(len(arcs_matching(fst, state, fst.symbols.label(word))) > 1
                            for state in fst.states() for word in words)
        assert parallel > 300

    @staticmethod
    def _assert_greedy_scores(fst, rng, words):
        for _ in range(8):
            sentence = rng.choices(words, k=rng.randint(0, 5))
            try:
                score = graph_score(fst, sentence)
            except NoPathError:
                score = None
            assert score == oracles.greedy_score(fst, sentence), sentence

    def test_failure_semantics_differs_from_best_path(self, fst_factory):
        # Context state 0 has its own arc for "a", lower than backing off
        # to the root (state 1) and taking the root's arc.
        fst = fst_factory(
            ["a", EOS],
            [(0, 1, "a", -5.0), (0, 1, EPSILON, -0.5),
             (1, 1, "a", -1.0), (1, 2, EOS, -2.0)],
            {2: 0.0},
        )
        assert graph_score(fst, ["a"]) == -5.0 + -2.0  # failure: the word arc
        assert path_weight(fst, ["a", EOS]) == -0.5 + -1.0 + -2.0  # best path

    def test_broken_graphs_raise_invariant_errors(self, fst_factory):
        cycle = fst_factory(["a", EOS], [(0, 1, EPSILON, -0.5),
                                         (1, 0, EPSILON, -0.5)], {})
        with pytest.raises(InvariantError, match="epsilon cycle"):
            graph_score(cycle, ["a"])
        dead_end = fst_factory([EOS], [(0, 1, EOS, -1.0)], {2: 0.0})
        with pytest.raises(InvariantError, match="non-final"):
            graph_score(dead_end, [])

    def test_back_off_chain_through_every_state_scores(self, fst_factory):
        # The word is only at the last state: each word backs off through
        # every other state, the longest chain without a cycle.
        n = 30
        chain = [(s, s + 1, EPSILON, -0.125 * (s + 1)) for s in range(n - 1)]
        fst = fst_factory(["a", EOS], chain + [(n - 1, 0, "a", -1.5),
                                               (n - 1, n - 1, EOS, -0.5)],
                          {n - 1: -0.25})
        backoffs = sum(arc[3] for arc in chain)  # eighths: every sum here is exact
        expected = backoffs + -1.5 + backoffs + -0.5 + -0.25
        assert graph_score(fst, ["a"]) == expected
        assert oracles.greedy_score(fst, ["a"], max_backoffs=n) == expected

    def test_epsilon_cycle_raises_after_every_state_is_tried(self, fst_factory):
        """The word is looked up in one state more than the graph has, then the cycle raises."""
        fst = fst_factory(["a", "b", EOS], [(0, 1, "b", -1.0),
                                            (0, 2, EPSILON, -0.5),
                                            (2, 3, EPSILON, -0.5),
                                            (3, 2, EPSILON, -0.5)], {1: 0.0})
        visits = []
        best_arcs = fst.best_arcs

        def uncached(state):  # every lookup of a state's table goes through here
            visits.append(state)
            table = best_arcs(state)
            fst._tables[state] = None
            return table

        fst.best_arcs = uncached
        with pytest.raises(InvariantError, match="^epsilon cycle encountered while "
                                                 "backing off$"):
            graph_score(fst, ["a"])
        assert visits == [0, 2, 3, 2, 3]  # num_states + 1 lookups

    def test_unknown_word_raises_no_path_with_position(self, telecom_graph):
        fst = telecom_graph
        with pytest.raises(NoPathError, match="position 1") as info:
            graph_score(fst, ["wo", "zzz"])
        assert info.value.word == "zzz"
        assert info.value.position == 1

    def test_unknown_words_score_as_unk_like_the_oracle(self):
        """c2-style parity on random toy models that have <unk>.

        Each model leaves one vocabulary word out of its corpus, so no
        history exhausts its lower-order mass, and trains <unk> as a word.
        <s> is never predicted and </s> only ends a sentence: both scorers
        reject the first of them at the same position.
        """

        def outcome(scorer, model, sentence):
            try:
                return pytest.approx(scorer(model, sentence), abs=1e-9)
            except NoPathError as exc:
                return (exc.word, exc.position)

        rng = random.Random(303)
        oov = ["zzz", "wifi", "UNK", EPSILON, BOS, EOS]
        rejected = set()
        for seed in range(8):
            words = rng.sample(toylm.TELECOM_WORDS, 6)
            corpus = toylm.toy_corpus(words[:-1] + [UNK], 60, seed=seed)
            model = parse(toylm.train_arpa(corpus, vocab=words + [UNK],
                                           order=rng.choice([2, 3])))
            fst = build_g(model)
            for _ in range(40):
                sentence = rng.choices(words + [UNK] + oov, k=rng.randint(0, 6))
                want = outcome(oracle_score, model, sentence)
                assert outcome(graph_score, fst, sentence) == want, (seed, sentence)
                if isinstance(want, tuple):
                    rejected.add(want[0])
        assert rejected == {BOS, EOS}

    def test_sentence_start_is_never_predicted(self, telecom_graph, telecom_model):
        sentence = ["wo", BOS, "de"]
        for scorer, model in ((graph_score, telecom_graph), (oracle_score, telecom_model)):
            with pytest.raises(NoPathError) as info:
                scorer(model, sentence)
            assert (info.value.word, info.value.position) == (BOS, 1)

    @pytest.mark.parametrize("sentence, want", [
        (["wo", EOS, "de"], (EOS, 1)),
        ([EOS], (EOS, 0)),
        (["wo", EOS], (EOS, 1)),
        (["wo", EOS, BOS], (EOS, 1)),
        (["wo", BOS, EOS], (BOS, 1)),
    ])
    def test_sentence_end_only_closes_a_sentence(self, telecom_graph, telecom_model,
                                                 sentence, want):
        for scorer, model in ((graph_score, telecom_graph), (oracle_score, telecom_model)):
            with pytest.raises(NoPathError) as info:
                scorer(model, sentence)
            assert (info.value.word, info.value.position) == want

    def test_epsilon_is_not_a_word(self, telecom_graph):
        with pytest.raises(NoPathError, match="position 1"):
            graph_score(telecom_graph, ["wo", EPSILON, "de"])

    def test_first_of_several_unknown_words_is_reported(self, telecom_graph):
        with pytest.raises(NoPathError) as info:
            graph_score(telecom_graph, ["wo", "yyy", "de", "zzz"])
        assert (info.value.word, info.value.position) == ("yyy", 1)

    def test_suffix_gap_backoff_is_folded(self):
        model = parse(SUFFIX_GAP)
        fst, states = build_g(model), history_states(model)
        assert ("b", "c") not in states
        for sentence in (["a", "b", "c"], ["a", "b", "c", "a"], ["b", "c"],
                         ["a", "b"], ["c"]):
            assert graph_score(fst, sentence) == pytest.approx(
                oracle_score(model, sentence), abs=1e-9)

    def test_trigram_arc_weight_includes_folded_backoff(self):
        model = parse(SUFFIX_GAP)
        fst, states = build_g(model), history_states(model)
        c = fst.symbols.label("c")
        ((target, _, weight),) = arcs_matching(fst, states[("a", "b")], c)
        folded = model.logprob(("a", "b", "c")) + (-0.22 * LN10)
        assert weight == pytest.approx(folded, abs=1e-12)
        assert target == states[("c",)]


class TestBackoffMass:
    """Before boosting, each state's words sum to one under failure semantics.

    The estimator in ``toylm`` normalizes every history, and its ARPA text
    keeps 7 significant digits, so the mass is 1 within 1e-6.
    """

    @staticmethod
    def worst(fst):
        return max(abs(oracles.failure_mass(fst, state) - 1.0)
                   for state in fst.states() if state not in fst.finals)

    def test_telecom_fixture(self, telecom_graph):
        assert telecom_graph.num_states() == 90
        assert self.worst(telecom_graph) < 1e-6

    def test_order_four_model(self):
        corpus = toylm.toy_corpus(toylm.TELECOM_WORDS[:-1], 2000, seed=11)
        fst = build_g(parse(toylm.train_arpa(corpus, vocab=toylm.TELECOM_WORDS, order=4)))
        assert fst.num_states() > 600
        assert self.worst(fst) < 1e-6

    def test_boosting_adds_mass(self, telecom_graph, ool_config):
        """The oracle sees what the boost adds: it does not read 1 whatever the graph."""
        enhanced, _ = enhance(telecom_graph, ool_config)
        rises = [oracles.failure_mass(enhanced, state) - oracles.failure_mass(telecom_graph, state)
                 for state in telecom_graph.states() if state not in telecom_graph.finals]
        assert min(rises) > -1e-12 and max(rises) > 1e-3
