import importlib
import io
import random
import threading

import pytest

import toylm
from gboost.arpa import parse_arpa
from gboost.enhance import EnhanceConfig, SimilarPairGroup
from gboost.evaluate import RankingCase
from gboost.fst import SymbolTable, Wfst
from gboost.graph import build_g
from oracles import add_arcs, empty_graph


def make_fst(symbols, arcs, finals, initial=0, num_states=None):
    """Build a graph from (src, dst, isym, osym, weight) tuples, in one apply_diff call.

    ``num_states`` defaults to one more than the largest state named.
    """
    table = SymbolTable(symbols.split() if isinstance(symbols, str) else symbols)
    if num_states is None:
        num_states = 1 + max([initial] + [max(a[0], a[1]) for a in arcs] + list(finals))
    return add_arcs(empty_graph(table, num_states, initial, finals),
                    *[(src, dst, table.label(isym), table.label(osym), weight)
                      for src, dst, isym, osym, weight in arcs])


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fails a test that leaves more threads alive than it started with."""
    threads = threading.active_count()
    yield
    if threading.active_count() > threads:
        pytest.fail(f"{threading.active_count() - threads} more thread(s) alive after "
                    f"the test than before: {threading.enumerate()}")


@pytest.fixture
def fst_factory():
    return make_fst


@pytest.fixture
def two_path_acceptor(fst_factory):
    # Three states, two transitions out of the start, one weighted final.
    # Accepting "ac" totals 0.5 + 2.5 + 3.5 = 6.5.
    return fst_factory(
        "a b c x y z",
        [(0, 1, "a", "x", 0.5), (0, 1, "b", "y", 1.5), (1, 2, "c", "z", 2.5)],
        {2: 3.5},
    )


def random_graph(seed, n_states=50, n_arcs=200, n_symbols=8, epsilon_arcs=0, initial=0):
    """Seeded random graph with a chain backbone (no isolated states)."""
    rng = random.Random(seed)
    arcs = [(s, s + 1, rng.randint(1, n_symbols), rng.randint(1, n_symbols),
             round(rng.uniform(-5, 5), 6)) for s in range(n_states - 1)]
    arcs += [(rng.randrange(n_states), rng.randrange(n_states), rng.randint(1, n_symbols),
              rng.randint(1, n_symbols), round(rng.uniform(-5, 5), 6))
             for _ in range(max(0, n_arcs - (n_states - 1)))]
    arcs += [(rng.randrange(n_states), rng.randrange(n_states), 0, 0,
              round(rng.uniform(-3, -0.1), 6)) for _ in range(epsilon_arcs)]
    finals = {state: round(rng.uniform(-2, 2), 6)
              for state in rng.sample(range(n_states), max(1, n_states // 10))}
    table = SymbolTable(f"sym{i}" for i in range(n_symbols))
    return add_arcs(empty_graph(table, n_states, initial, finals), *arcs)


@pytest.fixture
def random_graph_factory():
    return random_graph


@pytest.fixture
def scans(monkeypatch):
    """Label sets of the whole-graph scans that Wfst runs during the test."""
    log = []
    real_scan = Wfst.scan

    def counting_scan(fst, labels):
        labels = frozenset(labels)
        log.append(labels)
        return real_scan(fst, labels)

    monkeypatch.setattr(Wfst, "scan", counting_scan)
    return log


@pytest.fixture
def plans(monkeypatch):
    """Predictor counts of the enhancement plans built during the test."""
    log = []
    module = importlib.import_module("gboost.enhance")  # the package exports a function by that name
    real_plan = module._plan

    def counting_plan(fst, config):
        log.append(config.max_predictors)
        return real_plan(fst, config)

    monkeypatch.setattr(module, "_plan", counting_plan)
    return log


# -- shared toy language model over a 10-word vocabulary --------------------
#
# The corpus draws from the first nine words only, leaving one word with
# pure add-one unigram mass, so no history exhausts its lower-order
# distribution and the estimator's back-off weights stay well defined.


@pytest.fixture(scope="session")
def telecom_arpa():
    corpus = toylm.toy_corpus(toylm.TELECOM_WORDS[:-1], 200, seed=7)
    return toylm.train_arpa(corpus, vocab=toylm.TELECOM_WORDS, order=3)


@pytest.fixture(scope="session")
def telecom_model(telecom_arpa):
    return parse_arpa(io.StringIO(telecom_arpa))


@pytest.fixture(scope="session")
def telecom_graph(telecom_model):
    return build_g(telecom_model)  # one graph for the session: a graph never changes


# -- out-of-language fixture: English-like tokens in the host-word graph ----

NEW_TOKENS = ["roaming", "wifi", "volte", "sim"]


@pytest.fixture(scope="session")
def telecom_frequencies():
    corpus = toylm.toy_corpus(toylm.TELECOM_WORDS[:-1], 200, seed=7)
    counts = toylm.ngram_counts(corpus, 1)[0]
    return {w: counts[(w,)] for w in toylm.TELECOM_WORDS if counts[(w,)] > 0}


@pytest.fixture(scope="session")
def ool_groups(telecom_frequencies):
    return [
        SimilarPairGroup(predictors=["liuliang", "taocan", "shouji"],
                         targets=["wifi", "roaming"],
                         frequencies=telecom_frequencies,
                         new_words=frozenset(["wifi", "roaming"])),
        SimilarPairGroup(predictors=["kaitong", "quxiao"],
                         targets=["volte"],
                         frequencies=telecom_frequencies,
                         new_words=frozenset(["volte"])),
        SimilarPairGroup(predictors=["chaxun", "feiyong"],
                         targets=["sim"],
                         frequencies=telecom_frequencies,
                         new_words=frozenset(["sim"])),
    ]


@pytest.fixture
def ool_config(ool_groups):
    return EnhanceConfig(theta=0.0, max_predictors=3, groups=ool_groups)


@pytest.fixture(scope="session")
def ool_cases():
    def case(reference, focus, alternatives):
        competitors = []
        for alt in alternatives:
            competitor = list(reference)
            competitor[focus] = alt
            competitors.append(competitor)
        return RankingCase(reference=list(reference), focus=[focus],
                           competitors=competitors)

    return [
        case(["wo", "chaxun", "wifi"], 2, ["huafei", "feiyong"]),
        case(["kaitong", "wifi", "taocan"], 1, ["liuliang", "quxiao"]),
        case(["wifi", "feiyong"], 0, ["shouji", "de"]),
        case(["wo", "de", "roaming", "taocan"], 2, ["liuliang", "huafei"]),
        case(["quxiao", "roaming"], 1, ["taocan", "feiyong"]),
        case(["roaming", "feiyong", "chaxun"], 0, ["shouji", "wo"]),
        case(["wo", "kaitong", "volte"], 2, ["taocan", "huafei"]),
        case(["volte", "taocan", "feiyong"], 0, ["kaitong", "de"]),
        case(["chaxun", "volte", "feiyong"], 1, ["liuliang", "huafei"]),
        case(["wo", "de", "sim", "huafei"], 2, ["shouji", "taocan"]),
        case(["sim", "chaxun"], 0, ["shouji", "feiyong"]),
        case(["kaitong", "sim", "taocan"], 1, ["liuliang", "de"]),
    ]
