import io
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import toylm
from gboost.arpa import BOS, EOS, conditional_logprob, oracle_score, parse_arpa
from gboost.errors import FormatError, GboostError, InvariantError, NoPathError
from gboost.fst import EPSILON
from gboost.graph import build_g, graph_score
from toylm import write_arpa

LOG10_E_INV = "-0.43429448190325176"  # log10 of 1/e


def parse(text):
    return parse_arpa(io.StringIO(text))


def mini_arpa(unigrams, bigrams=None):
    """Assemble ARPA text from {word: (log10 p, log10 bow|None)} dicts."""
    lines = ["\\data\\", f"ngram 1={len(unigrams)}"]
    if bigrams:
        lines.append(f"ngram 2={len(bigrams)}")
    lines += ["", "\\1-grams:"]
    for word, (lp, bow) in unigrams.items():
        lines.append(f"{lp}\t{word}" + (f"\t{bow}" if bow is not None else ""))
    if bigrams:
        lines += ["", "\\2-grams:"]
        for gram, lp in bigrams.items():
            lines.append(f"{lp}\t{gram[0]} {gram[1]}")
    lines += ["", "\\end\\", ""]
    return "\n".join(lines)


UNIGRAM_ONLY = mini_arpa({
    BOS: ("-99", None),
    "a": (LOG10_E_INV, None),
    "b": (LOG10_E_INV, None),
    EOS: (LOG10_E_INV, None),
})


class TestParse:
    def test_log10_to_natural_log(self):
        model = parse(mini_arpa({BOS: ("-99", None), "a": ("-0.30103", None),
                                 EOS: ("-1", None)}))
        assert model.logprob(("a",)) == pytest.approx(-0.6931472, abs=1e-7)
        assert model.logprob((EOS,)) == pytest.approx(-math.log(10), abs=1e-12)

    def test_header_counts_echoed(self):
        unigrams = {BOS: ("-99", "-0.5"), EOS: ("-0.9", None)}
        for w in "abc":
            unigrams[w] = ("-0.8", "-0.2")
        bigrams = {(BOS, "a"): "-0.4", ("a", "b"): "-0.5", ("b", "c"): "-0.6",
                   ("c", EOS): "-0.3", ("a", "c"): "-0.9", ("b", "a"): "-0.7",
                   ("c", "a"): "-0.8", ("a", EOS): "-0.6"}
        model = parse(mini_arpa(unigrams, bigrams))
        assert model.order == 2
        assert len(model.tables[0]) == 5
        assert len(model.tables[1]) == 8

    def test_count_mismatch_rejected(self):
        text = mini_arpa({BOS: ("-99", None), EOS: ("-1", None)})
        text = text.replace("ngram 1=2", "ngram 1=3")
        with pytest.raises(FormatError, match="declares 3"):
            parse(text)

    @pytest.mark.parametrize("header", [
        "ngram 0=0", "ngram 3000000=0", "ngram 99999999999999999999=0",
        "ngram 1=0\nngram 3=0", "ngram 1=0\nngram 1=0"],
        ids=["zero", "huge", "20-digit", "gap", "twice"])
    def test_declared_orders_must_be_one_to_n(self, header):
        # Rejected from the header alone: a huge order allocates nothing.
        with pytest.raises(FormatError, match="order"):
            parse(f"\\data\\\n{header}\n\\end\\\n")

    def test_missing_history_rejected(self):
        unigrams = {BOS: ("-99", "-0.5"), "a": ("-0.5", None), EOS: ("-0.9", None)}
        bigrams = {("a", EOS): "-0.2"}  # history "a" exists, fine
        parse(mini_arpa(unigrams, bigrams))
        bad = mini_arpa(unigrams, {("b", EOS): "-0.2"})
        bad = bad.replace("ngram 1=3", "ngram 1=3")
        with pytest.raises(FormatError, match="history"):
            parse(bad.replace("\t b ", "\tb "))

    def test_predicted_word_without_unigram_rejected(self):
        unigrams = {BOS: ("-99", "-0.5"), "a": ("-0.5", None), EOS: ("-0.9", None)}
        with pytest.raises(FormatError, match=r"2-gram 'a b' predicts 'b', which has no "
                                              "unigram entry"):
            parse(mini_arpa(unigrams, {("a", "b"): "-0.3"}))

    def test_malformed_line_reports_position(self):
        text = UNIGRAM_ONLY.replace(f"{LOG10_E_INV}\tb", "not-a-number\tb")
        with pytest.raises(FormatError, match="line 7"):
            parse(text)

    def test_positive_logprob_rejected(self):
        text = UNIGRAM_ONLY.replace(f"{LOG10_E_INV}\tb", "0.1\tb")
        with pytest.raises(FormatError, match="above zero"):
            parse(text)
        for bad in ("nan", "-inf", "inf"):
            with pytest.raises(FormatError, match="line 7"):
                parse(UNIGRAM_ONLY.replace(f"{LOG10_E_INV}\tb", f"{bad}\tb"))
        # The <s> unigram's probability is never used, so -inf is fine there.
        model = parse(UNIGRAM_ONLY.replace("-99\t<s>", "-inf\t<s>"))
        assert model.logprob((BOS,)) == -math.inf

    def test_bos_never_predicted(self):
        unigrams = {BOS: ("-99", "-0.5"), "a": ("-0.5", "-0.1"), EOS: ("-0.9", None)}
        with pytest.raises(FormatError, match="<s>"):
            parse(mini_arpa(unigrams, {("a", BOS): "-0.2"}))

    def test_eos_never_a_context(self):
        unigrams = {BOS: ("-99", "-0.5"), "a": ("-0.5", None), EOS: ("-0.9", "-0.1")}
        with pytest.raises(FormatError, match="</s>"):
            parse(mini_arpa(unigrams, {(EOS, "a"): "-0.2"}))

    def test_eos_unigram_required(self):
        with pytest.raises(FormatError, match="no </s> unigram"):
            parse(mini_arpa({BOS: ("-99", None), "a": ("-0.5", None)}))

    def test_backoff_on_highest_order_rejected(self):
        text = UNIGRAM_ONLY.replace(f"{LOG10_E_INV}\tb", f"{LOG10_E_INV}\tb\t-0.3")
        with pytest.raises(FormatError):
            parse(text)

    def test_missing_end_marker_rejected(self):
        with pytest.raises(FormatError, match="end"):
            parse(UNIGRAM_ONLY.replace("\\end\\", ""))

    def test_duplicate_ngram_rejected(self):
        text = UNIGRAM_ONLY.replace(f"{LOG10_E_INV}\tb",
                                    f"{LOG10_E_INV}\ta").replace("ngram 1=4", "ngram 1=4")
        with pytest.raises(FormatError, match="duplicate"):
            parse(text)

    def test_fixture_model_covers_corpus_ngrams(self, telecom_model):
        corpus = toylm.toy_corpus(toylm.TELECOM_WORDS[:-1], 200, seed=7)
        for sentence in corpus:
            padded = [BOS] + sentence + [EOS]
            for k in range(1, 4):
                for i in range(len(padded) - k + 1):
                    gram = tuple(padded[i:i + k])
                    assert gram in model_table(telecom_model, k), gram

    def test_fixture_model_invariants(self, telecom_model):
        for k, table in enumerate(telecom_model.tables, start=1):
            for gram, entry in table.items():
                assert entry.logprob <= 0.0
                if entry.backoff is not None:
                    assert math.isfinite(entry.backoff)
                if k > 1:
                    assert gram[:-1] in telecom_model.tables[k - 2]

    def test_each_word_is_one_shared_string(self, telecom_model):
        """Every n-gram key and the vocabulary hold a word's unigram string."""
        unigram = {word: word for (word,) in telecom_model.tables[0]}
        for table in telecom_model.tables[1:]:
            for gram in table:
                assert all(word is unigram[word] for word in gram), gram
        assert all(word is unigram[word] for word in telecom_model.vocab._sym2lab
                   if word != EPSILON)


def model_table(model, k):
    return model.tables[k - 1]


class TestOracleScore:
    def test_unigram_only_sum(self):
        model = parse(UNIGRAM_ONLY)
        assert oracle_score(model, ["a", "b"]) == pytest.approx(-3.0, abs=1e-9)

    def test_bigram_direct_hit_uses_stored_value(self):
        unigrams = {BOS: ("-99", "-0.4"), "a": ("-0.5", "-0.2"), "b": ("-0.6", None),
                    EOS: ("-0.9", None)}
        bigrams = {(BOS, "a"): "-0.3", ("a", "b"): "-0.25", ("b", EOS): "-0.35"}
        model = parse(mini_arpa(unigrams, bigrams))
        stored = model.logprob(("a", "b"))
        assert conditional_logprob(model, ("a",), "b") == stored

    def test_backoff_penalty_applied(self):
        unigrams = {BOS: ("-99", "-0.4"), "a": ("-0.5", "-0.2"), "b": ("-0.6", None),
                    EOS: ("-0.9", None)}
        bigrams = {(BOS, "a"): "-0.3", ("b", EOS): "-0.35"}
        model = parse(mini_arpa(unigrams, bigrams))
        got = conditional_logprob(model, ("a",), "b")
        assert got == pytest.approx((-0.2 + -0.6) * math.log(10), abs=1e-12)

    def test_matches_independent_recursion(self, telecom_arpa, telecom_model):
        rng = random.Random(21)
        for _ in range(50):
            sentence = rng.choices(toylm.TELECOM_WORDS, k=rng.randint(0, 7))
            mine = oracle_score(telecom_model, sentence)
            ref = oracles.arpa_reference_score(telecom_arpa, sentence)
            assert mine == pytest.approx(ref, abs=1e-9)

    def test_oov_without_unk_is_an_error(self, telecom_model):
        with pytest.raises(InvariantError, match="zzz"):
            oracle_score(telecom_model, ["zzz"])

    def test_oov_maps_to_unk_when_present(self):
        unigrams = {BOS: ("-99", None), "a": ("-0.5", None), "<unk>": ("-1.5", None),
                    EOS: ("-0.9", None)}
        model = parse(mini_arpa(unigrams))
        assert oracle_score(model, ["zzz"]) == oracle_score(model, ["<unk>"])

    def test_scoring_is_stateless(self, telecom_model):
        first = oracle_score(telecom_model, ["wo", "de"])
        second = oracle_score(telecom_model, ["huafei"])
        assert oracle_score(telecom_model, ["wo", "de"]) == first
        assert oracle_score(telecom_model, ["huafei"]) == second


class TestWriteArpa:
    def test_roundtrip_values_close(self, telecom_model):
        buf = io.StringIO()
        write_arpa(telecom_model, buf)
        again = parse(buf.getvalue())
        assert again.order == telecom_model.order
        for k in range(1, telecom_model.order + 1):
            table, table2 = telecom_model.tables[k - 1], again.tables[k - 1]
            assert set(table) == set(table2)
            for gram, entry in table.items():
                other = table2[gram]
                assert other.logprob == pytest.approx(entry.logprob, abs=1e-6)
                if entry.backoff is None:
                    assert other.backoff is None
                else:
                    assert other.backoff == pytest.approx(entry.backoff, abs=1e-6)

    def test_reparse_scores_match(self, telecom_model):
        buf = io.StringIO()
        write_arpa(telecom_model, buf)
        again = parse(buf.getvalue())
        for sentence in (["wo"], ["chaxun", "liuliang"], []):
            assert oracle_score(again, sentence) == pytest.approx(
                oracle_score(telecom_model, sentence), abs=1e-6)


# -- parser under fuzzing -----------------------------------------------------
#
# Arbitrary text, lines built from ARPA pieces (zero and huge orders among
# them) and small edits of a valid bigram model with <unk>. The parser may
# raise only FormatError; a model it accepts must compile, or fail with a
# GboostError, and the graph must then score like the oracle.

NEAR_VALID_LINES = mini_arpa(
    {BOS: ("-99", "-0.3"), "a": ("-0.5", "-0.2"), "b": ("-0.6", "-0.1"),
     "<unk>": ("-1", None), EOS: ("-0.9", None)},
    {(BOS, "a"): "-0.3", ("a", "b"): "-0.4", ("b", EOS): "-0.5", ("a", "<unk>"): "-0.45"},
).splitlines()
_ORDER = st.sampled_from(["0", "1", "2", "3", "3000000", "99999999999999999999", "x"])
_FIELD = st.sampled_from(["-99", "-0.5", "0", "0.5", "-inf", "nan", "1e999", "x",
                          BOS, EOS, "<unk>", "a", "b", "a b"])
_ARPA_LINE = st.one_of(
    st.sampled_from(["\\data\\", "\\end\\", ""]),
    st.builds("ngram {}={}".format, _ORDER, _ORDER),
    st.builds("\\{}-grams:".format, _ORDER),
    st.lists(_FIELD, min_size=1, max_size=4).map("\t".join),
)


@st.composite
def near_valid_arpa(draw):
    lines = list(NEAR_VALID_LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "copy", "swap", "replace"]))
        if edit == "drop":
            del lines[i]
        elif edit == "copy":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = draw(_ARPA_LINE)
    return "\n".join(lines)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.text(max_size=100), st.lists(_ARPA_LINE, max_size=12).map("\n".join),
                 near_valid_arpa()))
@example("\\data\\\nngram 0=0\n\\end\\\n")
@example("\\data\\\nngram 99999999999999999999=0\n\\end\\\n")
@example("\n".join(NEAR_VALID_LINES))
def test_parser_raises_only_format_errors(text):
    try:
        model = parse(text)
    except FormatError:
        return
    try:
        fst = build_g(model)
    except GboostError:
        return
    for sentence in ([], ["a"], ["b", "a", "zzz"], ["<unk>", "b"]):
        try:
            want = oracle_score(model, sentence)
        except InvariantError:
            want = None
        try:
            got = graph_score(fst, sentence)
        except NoPathError:
            got = None
        assert got == (want if want is None else pytest.approx(want, abs=1e-9)), sentence
