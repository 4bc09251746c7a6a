"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (visible with ``pytest -rA`` or
``-s``) so the whole gate can be read at a glance.
"""

import contextlib
import dataclasses
import itertools
import math
import random
import time

import toylm
from gboost.arpa import oracle_score
from gboost.enhance import EnhanceConfig, SimilarPairGroup, enhance
from gboost.errors import NoPathError
from gboost.evaluate import run_ranking
from gboost.fst import FstDiff, SymbolTable
from gboost.graph import graph_score
from oracles import add_arcs, compute_enhanced_weight, empty_graph, graph_from_lists, path_weight


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_c1_path_weight_conformance(two_path_acceptor):
    with criterion(1, "path-weight conformance"):
        assert path_weight(two_path_acceptor, ["a", "c"]) == 6.5
        elapsed = min(timed(lambda: path_weight(two_path_acceptor, ["a", "c"]))
                      for _ in range(5))
        assert elapsed < 1e-3


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_c2_oracle_equivalence(telecom_model, telecom_graph):
    with criterion(2, "graph/oracle score equivalence"):
        fst = telecom_graph
        start = time.perf_counter()
        for length in range(4):  # exhaustive over all sentences up to length 3
            for sentence in itertools.product(toylm.TELECOM_WORDS, repeat=length):
                expected = oracle_score(telecom_model, sentence)
                got = graph_score(fst, sentence)
                assert abs(got - expected) <= 1e-9, sentence
        rng = random.Random(1001)
        for _ in range(200):
            sentence = rng.choices(toylm.TELECOM_WORDS, k=rng.randint(4, 9))
            expected = oracle_score(telecom_model, sentence)
            got = graph_score(fst, sentence)
            assert abs(got - expected) <= 1e-9, sentence
        assert time.perf_counter() - start < 5.0


def test_c3_enhanced_weight_unit_conformance():
    with criterion(3, "enhancement formula conformance"):
        hand_low = -1.0 + math.log(5 / (5 + 95))
        assert abs(compute_enhanced_weight(-1.0, 5, 95, 0.0) - hand_low) <= 1e-9
        assert round(hand_low, 7) == -3.9957323

        assert compute_enhanced_weight(-2.0, None, 40, -4.0) == -6.0

        hand_equal = -1.5 + math.log(0.5)
        assert abs(compute_enhanced_weight(-1.5, 7, 7, 0.0) - hand_equal) <= 1e-9
        assert round(hand_equal, 7) == -2.1931472

        for w_y, f_x, f_y in ((-1.0, 5, 95), (-2.5, None, 40), (-0.25, 7, 7)):
            at_zero = compute_enhanced_weight(w_y, f_x, f_y, 0.0)
            for theta in (-4.0, -2.0, 0.0, 2.0, 4.0):
                got = compute_enhanced_weight(w_y, f_x, f_y, theta)
                assert got == at_zero + theta  # slope exactly one


def test_c4_parallel_arc_replay(fst_factory):
    with criterion(4, "single donor arc replay"):
        fst = fst_factory(
            "a b c",
            [(0, 1, "a", 0.5), (1, 2, "b", -0.7)],
            {2: 0.0},
        )
        group = SimilarPairGroup(predictors=["a"], targets=["c"],
                                 frequencies={"a": 95, "c": 5})
        _, delta = enhance(fst, EnhanceConfig(theta=0.0, max_predictors=1,
                                              groups=[group]))
        assert len(delta.added_arcs) == 1
        assert delta.removed_arcs == []
        assert delta.reweighted_arcs == []
        assert delta.final_changes == []
        arc = delta.added_arcs[0]
        assert (arc.source, arc.target) == (0, 1)
        assert fst.symbols.symbol(arc.label) == "c"
        assert abs(arc.weight - (0.5 + math.log(5 / 100))) <= 1e-9


def test_c5_isolation_and_safety(telecom_graph, ool_config):
    with criterion(5, "untouched-path score invariance"):
        fst = telecom_graph
        controls = toylm.toy_corpus(toylm.TELECOM_WORDS, 500, seed=41, max_len=7)
        before = [graph_score(fst, s) for s in controls]
        enhanced, delta = enhance(fst, ool_config)
        target_labels = {enhanced.symbols.label(t)
                         for g in ool_config.groups for t in g.targets}
        touched = {a.label for a in delta.added_arcs}
        touched |= {a.label for a, _ in delta.reweighted_arcs}
        assert touched <= target_labels  # control paths cannot cross the diff
        after = [graph_score(enhanced, s) for s in controls]
        assert before == after  # bit-identical, not approximate


# -- criterion 6: randomized enhancer properties -----------------------------


def random_backoff_graph(rng, vocab):
    """Small G-shaped graph: word arcs everywhere, epsilon chains to a root."""
    table = SymbolTable(vocab + ["</s>"])
    eos = table.label("</s>")
    root, contexts = 0, list(range(1, rng.randint(2, 6) + 1))
    final = len(contexts) + 1
    states = [root] + contexts

    arcs = []
    for word in vocab:
        arcs.append((root, rng.choice(states), table.label(word), rng.uniform(-6.0, -0.5)))
    for state in contexts:
        for word in rng.sample(vocab, rng.randint(1, len(vocab) - 1)):
            arcs.append((state, rng.choice(states), table.label(word),
                         rng.uniform(-6.0, -0.5)))
        arcs.append((state, root, 0, rng.uniform(-3.0, -0.1)))
        if rng.random() < 0.5:
            arcs.append((state, final, eos, rng.uniform(-6.0, -0.5)))
    arcs.append((root, final, eos, rng.uniform(-6.0, -0.5)))
    initial = rng.choice(states)
    return add_arcs(empty_graph(table, final + 1, initial, {final: 0.0}), *arcs)


def random_config(rng, vocab, fresh_tokens):
    # Predictor and target roles stay disjoint across the whole config.
    shuffled = rng.sample(vocab, len(vocab))
    predictor_pool, target_pool = shuffled[:5], shuffled[5:]
    groups = []
    for g in range(rng.randint(1, 3)):
        predictors = rng.sample(predictor_pool, rng.randint(1, 4))
        frequencies = {w: rng.randint(1, 500) for w in predictors}
        targets = []
        new_words = set()
        for t in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                word = next(fresh_tokens)
                new_words.add(word)
            else:
                word = rng.choice(target_pool)
                frequencies[word] = rng.randint(1, 500)
            if word not in targets:
                targets.append(word)
        groups.append(SimilarPairGroup(predictors=predictors, targets=targets,
                                       frequencies=frequencies,
                                       new_words=frozenset(new_words)))
    return EnhanceConfig(theta=rng.uniform(-4.0, 4.0),
                         max_predictors=rng.randint(1, 4), groups=groups)


def fresh_token_stream():
    return (f"new{i:05d}" for i in itertools.count())


VOCAB = [f"word{i}" for i in range(8)]


def test_c6_randomized_enhancer_properties():
    with criterion(6, "monotonicity/idempotence/rank/coverage x1000"):
        start = time.perf_counter()
        cases = 1000

        rng = random.Random(60601)
        for _ in range(cases):  # monotonicity
            # Raising or adding arcs can only raise the best accepting path;
            # sentences that avoid the target words must not move at all.
            fst = random_backoff_graph(rng, VOCAB)
            config = random_config(rng, VOCAB, fresh_token_stream())
            target_words = {t for g in config.groups for t in g.targets}
            safe_vocab = [w for w in VOCAB if w not in target_words]
            sentences = [rng.choices(VOCAB, k=rng.randint(1, 4)) for _ in range(3)]
            controls = [rng.choices(safe_vocab, k=rng.randint(1, 4)) for _ in range(2)]
            best_before = [path_weight(fst, [*s, "</s>"]) for s in sentences]
            greedy_before = [try_score(fst, s) for s in controls]
            enhanced, _ = enhance(fst, config)
            for sentence, old in zip(sentences, best_before):
                new = path_weight(enhanced, [*sentence, "</s>"])
                if old is not None:
                    assert new is not None and new >= old - 1e-12
            for sentence, old in zip(controls, greedy_before):
                assert try_score(enhanced, sentence) == old

        rng = random.Random(60602)
        for _ in range(cases):  # idempotence
            fst = random_backoff_graph(rng, VOCAB)
            config = random_config(rng, VOCAB, fresh_token_stream())
            fst, _ = enhance(fst, config)
            _, second = enhance(fst, config)
            assert second == FstDiff()

        rng = random.Random(60603)
        for _ in range(cases):  # rank preservation across target frequencies
            w_y = rng.uniform(-15.0, 0.0)
            f_y = rng.randint(1, 10**6)
            theta = rng.uniform(-4.0, 4.0)
            f_hi = rng.randint(2, 10**6)
            f_lo = rng.randint(1, f_hi - 1)
            assert compute_enhanced_weight(w_y, f_hi, f_y, theta) > \
                compute_enhanced_weight(w_y, f_lo, f_y, theta)

        rng = random.Random(60604)
        for _ in range(cases):  # predictor-prefix coverage
            base = random_backoff_graph(rng, VOCAB)
            config = random_config(rng, VOCAB, fresh_token_stream())
            k = rng.randint(1, 3)
            slots = {}
            for chnum in (k, k + 1):
                fst, delta = enhance(base, dataclasses.replace(config, max_predictors=chnum))
                slots[chnum] = {(a.source, a.target, fst.symbols.symbol(a.label))
                                for a in delta.added_arcs}
            assert slots[k] <= slots[k + 1]

        assert time.perf_counter() - start < 30.0


def try_score(fst, sentence):
    try:
        return graph_score(fst, sentence)
    except NoPathError:
        return None


def test_c7_directional_error_rate_trend(telecom_graph, ool_config, ool_cases):
    with criterion(7, "baseline 100% and non-increasing trend in theta"):
        base_fst = telecom_graph
        baseline = run_ranking(base_fst, ool_cases)
        assert baseline.error_rate == 100.0

        rates = []
        for theta in (-4.0, -2.0, 0.0, 2.0, 4.0):
            fst, _ = enhance(base_fst, dataclasses.replace(ool_config, theta=theta,
                                                           max_predictors=3))
            rates.append(run_ranking(fst, ool_cases).error_rate)
        assert all(a >= b for a, b in zip(rates, rates[1:])), rates


# -- criterion 8: enhancement speed at production scale ----------------------


def synth_trigram_graph(num_words=10_000, seed=88):
    """Back-off-shaped graph of roughly a million arcs over 10k words."""
    rng = random.Random(seed)
    vocab = [f"w{i:05d}" for i in range(num_words)]
    root, ctx1, ctx2, final = 0, list(range(1, 4_001)), list(range(4_001, 32_001)), 32_001
    labels = list(range(1, num_words + 1))

    def arc_lists():
        # One state's arcs at a time, so no more than a state's arcs are
        # ever held as tuples.
        yield [(rng.choice(ctx1), label, label, rng.uniform(-9, -1)) for label in labels]
        for _ in ctx1:
            yield [(rng.choice(ctx2), label, label, rng.uniform(-9, -1))
                   for label in rng.sample(labels, 120)] + [(root, 0, 0, rng.uniform(-2, -0.1))]
        for _ in ctx2:
            yield [(rng.choice(ctx1), label, label, rng.uniform(-9, -1))
                   for label in rng.sample(labels, 17)] + [
                (rng.choice(ctx1), 0, 0, rng.uniform(-2, -0.1)),
                (final, rng.choice(labels), rng.choice(labels), rng.uniform(-9, -1))]
        yield []  # the final state

    return graph_from_lists(SymbolTable(vocab), arc_lists(), root, {final: 0.0}), vocab


def test_c8_enhancement_speed_at_scale():
    fst, vocab = synth_trigram_graph()
    with criterion(8, "22-group enhancement of a ~1M-arc graph in <5s"):
        assert fst.num_arcs() > 950_000
        rng = random.Random(880)
        predictor_pool = vocab[0::2]  # roles kept disjoint
        target_pool = vocab[1::2]
        groups = []
        for g in range(22):
            predictors = rng.sample(predictor_pool, rng.randint(1, 5))
            frequencies = {w: rng.randint(50, 5000) for w in predictors}
            targets = []
            new_words = set()
            for t in range(rng.randint(1, 4)):
                if rng.random() < 0.7:
                    word = f"new{g:02d}_{t}"
                    new_words.add(word)
                else:
                    word = rng.choice(target_pool)
                    frequencies[word] = rng.randint(1, 40)
                if word not in targets:
                    targets.append(word)
            groups.append(SimilarPairGroup(predictors=predictors, targets=targets,
                                           frequencies=frequencies,
                                           new_words=frozenset(new_words)))
        config = EnhanceConfig(theta=1.0, max_predictors=5, groups=groups)

        start = time.perf_counter()
        _, delta = enhance(fst, config)
        elapsed = time.perf_counter() - start
        assert delta != FstDiff()
        assert elapsed < 5.0, f"enhancement took {elapsed:.2f}s"
