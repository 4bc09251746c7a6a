import gc
import io
import logging
import math
import os
import random
import re
import struct
import tempfile
import threading
import time
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gboost.fst
import oracles
import toylm
from gboost.arpa import parse_arpa
from gboost.errors import FormatError, InvariantError
from gboost.enhance import EnhanceConfig, SimilarPairGroup, enhance
from gboost.fst import (COMPANION_SUFFIX, EPSILON, ID_MAX, WEIGHT_FMT, Arc, FstDiff,
                        SymbolTable, Wfst, _Columns, _HEADER, _best_table, _derived, _hash,
                        append_text, diff, format_arc, load_graph, read_text, write_companion,
                        write_text)
from gboost.graph import build_g
from conftest import random_graph
from oracles import add_arcs, arcs_matching, empty_graph, path_weight
from test_acceptance import VOCAB, fresh_token_stream, random_backoff_graph, random_config


class TestSymbolTable:
    def test_epsilon_is_reserved(self):
        table = SymbolTable()
        assert table.label(EPSILON) == 0
        assert table.symbol(0) == EPSILON

    def test_add_and_lookup_roundtrip(self):
        table = SymbolTable(["a", "b"])
        assert table.label("a") == 1
        assert table.symbol(2) == "b"
        assert "a" in table and "zzz" not in table

    def test_duplicate_symbol_rejected(self):
        with pytest.raises(InvariantError, match="symbol already in table: 'a'"):
            SymbolTable(["a", "b", "a"])

    def test_duplicate_label_rejected(self):
        with pytest.raises(FormatError, match="line 3: label already in table: 7"):
            SymbolTable.read(io.StringIO("<eps>\t0\na\t7\nb\t7\n"))

    def test_unknown_symbol_named_in_error(self):
        table = SymbolTable(["a"])
        with pytest.raises(InvariantError, match="bogus"):
            table.label("bogus")

    def test_file_roundtrip(self):
        table = SymbolTable(["a", "b", "c"])
        buf = io.StringIO()
        table.write(buf)
        assert buf.getvalue().splitlines()[0] == "<eps>\t0"
        again = SymbolTable.read(io.StringIO(buf.getvalue()))
        assert again == table

    def test_new_words_take_the_lowest_free_labels(self):
        """Holes first, then past the top; words the table holds keep their labels."""
        table = SymbolTable.read(io.StringIO("<eps>\t0\na\t1\nb\t2\nc\t5\n"))
        wider = table.extended(["w", "a", "x", "y", "w", "z"])
        assert [wider.label(w) for w in "abcwxyz"] == [1, 2, 5, 3, 4, 6, 7]
        assert [table.extended("wx").label(w) for w in "wx"] == [3, 4]
        assert "w" not in table and len(table) == 4
        dense = SymbolTable.read(io.StringIO("<eps>\t0\na\t1\nb\t2\n"))
        assert dense._next == 3  # an extension's first new word searches no taken label
        assert dense.extended(["w"]).label("w") == 3

    def test_read_requires_epsilon_first(self):
        with pytest.raises(FormatError, match="line 1"):
            SymbolTable.read(io.StringIO("a\t1\n<eps>\t0\n"))
        with pytest.raises(FormatError, match="line 2: '<eps>'/0"):
            SymbolTable.read(io.StringIO("<eps>\t0\n<eps>\t0\n"))
        # The first record, not physical line 1, must be <eps> 0.
        with pytest.raises(FormatError, match="line 2: first entry"):
            SymbolTable.read(io.StringIO("\nfoo\t1\n"))
        with pytest.raises(FormatError, match="line 4: '<eps>'/0"):
            SymbolTable.read(io.StringIO("\n<eps>\t0\n\n<eps>\t0\n"))

    def test_label_beyond_the_columns_rejected_at_its_line(self):
        with pytest.raises(FormatError, match=f"line 3: labels must be in 0..{ID_MAX}"):
            SymbolTable.read(io.StringIO(f"<eps>\t0\na\t{ID_MAX}\nb\t{ID_MAX + 1}\n"))

    def test_symbol_a_file_cannot_hold_rejected(self):
        table = SymbolTable(["a"])
        for bad in ("", "new word", " a", "a\t", "a\nb", "a\u00a0b"):
            for make in (lambda: SymbolTable(["b", bad]), lambda: table.extended(["b", bad])):
                with pytest.raises(InvariantError, match="non-empty and hold no whitespace"):
                    make()
        assert table == SymbolTable(["a"]) and "b" not in table

    def test_equal_tables(self):
        table = SymbolTable(["a", "b"])
        assert table == table and table == SymbolTable(["a", "b"])
        assert table != SymbolTable(["b", "a"]) and table != table.extended(["c"])
        assert table.extended([]) == table and table.extended([]) is not table

    def test_read_skips_leading_blank_lines(self):
        table = SymbolTable.read(io.StringIO("\n<eps>\t0\na\t1\n"))
        assert table == SymbolTable(["a"])


_WORDS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])


@settings(max_examples=150, deadline=None)
@given(st.lists(_WORDS, unique=True), st.lists(st.integers(1, 12), unique=True),
       st.booleans(), st.lists(_WORDS, max_size=8))
def test_extended_labels_each_missing_word_with_the_lowest_free_label(words, labels, read,
                                                                      more):
    """Dense tables, and gapped ones read from text: the source stays as it was."""
    if read:  # each word with a drawn label: gaps below, between and above
        words = words[:len(labels)]
        text = "".join(f"{word}\t{label}\n" for word, label in zip(words, labels))
        table = SymbolTable.read(io.StringIO(f"<eps>\t0\n{text}"))
    else:
        table = SymbolTable(words)
    before = (dict(table._sym2lab), dict(table._lab2sym), table._next)
    wider = table.extended(more)
    assert wider._sym2lab == oracles.extended_labels(table, more)
    assert wider._lab2sym == {label: word for word, label in wider._sym2lab.items()}
    assert (dict(table._sym2lab), dict(table._lab2sym), table._next) == before
    assert wider.extended([]) == wider
    assert (wider == table) == (set(more) <= set(words))


class TestWfstBasics:
    def test_arcs_preserve_insertion_order(self):
        fst = add_arcs(empty_graph(SymbolTable(["a", "b"]), 1),
                       (0, 0, 2, -1.0), (0, 0, 1, -2.0))
        assert [label for (_, label, _) in fst.arcs(0)] == [2, 1]

    def test_arcs_matching_tracks_mutation(self):
        fst = empty_graph(SymbolTable(["a"]), 1)
        added = add_arcs(fst, (0, 0, 1, -1.0))
        assert arcs_matching(added, 0, 1) == [(0, 1, -1.0)]
        assert arcs_matching(fst, 0, 1) == []

    def test_copy_is_the_same_graph(self):
        fst = add_arcs(empty_graph(SymbolTable(["a"]), 2, 1, {0: 0.5}), (0, 0, 1, -1.0))
        assert fst.copy() is fst

    @pytest.mark.parametrize("name, value", [("symbols", SymbolTable()), ("initial", 99),
                                             ("finals", {1: math.inf})])
    def test_symbols_initial_and_finals_are_read_only(self, name, value):
        fst = add_arcs(empty_graph(SymbolTable(["a"]), 2, 0, {1: 0.5}), (0, 1, 1, -1.0))
        symbols = fst.symbols
        with pytest.raises(AttributeError):
            setattr(fst, name, value)
        assert fst.symbols is symbols and fst.initial == 0 and fst.finals == {1: 0.5}
        assert text_of(fst) == "0 1 a a -1\n1 0.5\n"

    @pytest.mark.parametrize("initial, finals, message", [
        (-1, {}, "unknown state id: -1"),
        (3, {}, "unknown state id: 3"),
        (0, {1: 0.0, 3: 0.0}, "unknown state id: 3"),
        (0, {-1: 0.0}, "unknown state id: -1"),
        (0, {1: 0.0, 2: math.inf}, "final weight must be finite, got inf"),
        (0, {2: math.nan}, "final weight must be finite, got nan"),
    ])
    def test_constructor_checks_initial_and_finals(self, initial, finals, message):
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            empty_graph(SymbolTable(["a"]), 3, initial, finals)

    def test_a_graph_cannot_be_changed(self):
        """Finals are a read-only view of the constructor's own dict."""
        finals = {1: 0.0}
        fst = empty_graph(SymbolTable(["a"]), 2, 0, finals)
        finals[0] = 1.0
        with pytest.raises(TypeError):
            fst.finals[0] = 1.0
        assert fst.finals == {1: 0.0}
        derived = derive(fst, FstDiff())
        assert derived.symbols is fst.symbols and not hasattr(derived.symbols, "add")

    def test_scan_groups_matching_arcs_in_order(self, two_path_acceptor):
        fst = two_path_acceptor
        a, b, c = (fst.symbols.label(s) for s in "abc")
        found = fst.scan([c, a])
        assert found == {a: [(0, (1, a, 0.5))], c: [(1, (2, c, 2.5))]}
        fst = add_arcs(fst, (0, 2, b, -1.0))
        assert fst.scan({b}) == {b: [(0, (1, b, 1.5)), (0, (2, b, -1.0))]}


def text_of(fst):
    buf = io.StringIO()
    write_text(fst, buf)
    return buf.getvalue()


def derive(fst, delta):
    """``fst`` with ``delta``'s edits held as edits, as enhancement's graph holds them.

    The graph :func:`oracles.apply_diff_by_arc` builds, made by ``_derived``
    over ``fst``'s columns: each state a removal or reweight touches
    rewritten, and the added ``Arc`` objects themselves. With an empty
    diff, a twin: another graph over ``fst``'s columns, tables and memo.
    Materializes ``fst`` first, which a derived graph's base must be.
    """
    fst._materialize()
    replayed = oracles.apply_diff_by_arc(fst, FstDiff(
        removed_arcs=delta.removed_arcs, reweighted_arcs=delta.reweighted_arcs,
        final_changes=delta.final_changes))
    touched = ({arc.source for arc in delta.removed_arcs}
               | {old.source for old, _ in delta.reweighted_arcs})
    return _derived(fst, fst.symbols, {state: replayed.arcs(state) for state in touched},
                    delta.added_arcs, replayed.finals)


def random_edit(fst, rng):
    """One random arc edit of ``fst``, as a one-entry diff."""
    n = fst.num_states()
    new_arc = Arc(rng.randrange(n), rng.randrange(n), rng.randint(1, 3),
                  round(rng.uniform(-4, 4), 6))
    state = rng.randrange(n)
    choice = rng.random()
    if choice < 0.5 or not fst.arcs(state):
        return FstDiff(added_arcs=[new_arc])
    old = Arc(state, *rng.choice(fst.arcs(state)))
    if choice < 0.75:
        return FstDiff(removed_arcs=[old])
    new = old._replace(weight=round(rng.uniform(-4, 4), 6))
    return FstDiff(reweighted_arcs=[(old, new)])


class TestBestArcTables:
    """A state's table: the shared column table plus its added arcs, or a rebuild.

    Only a state with added arcs alone derives its table; a rewritten
    state (a removal or reweight) has its table rebuilt from its arcs.
    """

    # Labels a=1, b=2, c=3. State 0 holds ties on a (two arcs at 1.0) and
    # a label on two arcs with different weights (b).
    ARCS = [(0, 1, "a", 1.0), (0, 2, "a", 1.0), (0, 1, "b", 0.5),
            (0, 2, "b", 2.0), (0, 3, "c", -1.0), (1, 3, "a", 0.0),
            (2, 3, "b", 0.0)]
    APPEND = [Arc(0, 3, 1, 1.0), Arc(0, 3, 2, 2.5), Arc(0, 1, 3, -1.0),
              Arc(0, 2, 0, -0.5), Arc(0, 1, 0, -0.5)]
    EDITS = {
        # edit name: (diffs applied in turn, whether each table is derived)
        "append": ([FstDiff(added_arcs=APPEND)], [True]),
        "append twice": ([FstDiff(added_arcs=APPEND[:2]), FstDiff(added_arcs=APPEND[2:])],
                         [True, True]),
        "remove": ([FstDiff(removed_arcs=[Arc(0, 1, 1, 1.0)])], [False]),
        "reweight": ([FstDiff(reweighted_arcs=[(Arc(0, 2, 2, 2.0),
                                                Arc(0, 2, 2, 0.25))])], [False]),
        "reweight to the same weight": ([FstDiff(reweighted_arcs=[
            (Arc(0, 1, 1, 1.0), Arc(0, 1, 1, 1.0))])], [False]),
        "remove, then append the same arc": (
            [FstDiff(removed_arcs=[Arc(0, 1, 1, 1.0)]),
             FstDiff(added_arcs=[Arc(0, 1, 1, 1.0)])], [False, True]),
        "append, then remove": ([FstDiff(added_arcs=APPEND),
                                 FstDiff(removed_arcs=[Arc(0, 2, 1, 1.0)])],
                                [True, False]),
    }

    @pytest.fixture
    def derived(self, monkeypatch):
        """Per table built with _best_table: True if it was folded into a copied table."""
        log = []

        def recording(arcs, table=None):
            log.append(table is not None)
            return _best_table(arcs, table)

        monkeypatch.setattr(gboost.fst, "_best_table", recording)
        return log

    @pytest.mark.parametrize("edit", list(EDITS))
    def test_table_equals_a_full_rebuild(self, fst_factory, derived, edit):
        source = fst_factory("a b c", self.ARCS, {3: 0.0})
        base = read_text(io.StringIO(text_of(source)), source.symbols)
        shared = base.best_arcs(0)
        assert shared == {1: (1, 1, 1.0), 2: (2, 2, 2.0), 3: (3, 3, -1.0)}
        fst = base
        diffs, expected = self.EDITS[edit]
        derived.clear()
        for delta in diffs:
            fst = derive(fst, delta)  # materializes the graph before it
            table = fst.best_arcs(0)
            assert table == _best_table(fst.arcs(0))
            assert table is not shared
        assert derived == expected
        assert shared == {1: (1, 1, 1.0), 2: (2, 2, 2.0), 3: (3, 3, -1.0)}
        assert base.best_arcs(0) is shared
        assert derive(base, FstDiff()).best_arcs(0) is shared  # no edit: the same table

    def test_tables_follow_random_edits(self, random_graph_factory):
        """Each graph derived along two lines of edits, and each one it came from."""
        for seed in range(20):
            rng = random.Random(seed)
            source = random_graph_factory(seed, n_states=6, n_arcs=24, n_symbols=3)
            base = read_text(io.StringIO(text_of(source)), source.symbols)
            lines, graphs = [base, base], [base]
            for step in range(25):
                which = rng.randrange(2)
                lines[which] = derive(lines[which], random_edit(lines[which], rng))
                graphs.append(lines[which])
                for fst in graphs:
                    for state in fst.states():
                        assert (fst.best_arcs(state) == _best_table(fst.arcs(state))
                                ), (seed, step, state)

class TestPendingAdditions:
    """Added arcs stay pending, read through the tables, until another reader materializes them."""

    # Labels a=1, b=2, c=3. State 0's column arcs: a at 1.0, then b at 0.5.
    ARCS = [(0, 1, "a", 1.0), (0, 2, "b", 0.5), (1, 2, "a", 0.0)]

    def base(self, fst_factory):
        source = fst_factory("a b c", self.ARCS, {2: 0.0})
        return read_text(io.StringIO(text_of(source)), source.symbols)

    def test_pending_tables_keep_the_tie_rule(self, fst_factory):
        base = self.base(fst_factory)
        shared = base.best_arcs(0)
        added = [
            Arc(0, 2, 1, 1.0),   # ties the column arc on a: the column arc wins
            Arc(0, 1, 3, 2.0),   # a label the state lacks
            Arc(0, 2, 3, 2.0),   # ties the added arc before it: the first wins
            Arc(0, 2, 2, 0.75),  # beats the column arc on b
        ]
        fst = _derived(base, base.symbols, {}, added, base.finals)
        table = fst.best_arcs(0)
        assert list(map(id, fst._added)) == list(map(id, added)) and not fst._rewritten
        assert table == {1: (1, 1, 1.0), 2: (2, 2, 0.75), 3: (1, 3, 2.0)}
        assert table[1] is shared[1]  # the column arc itself
        assert fst.best_arcs(1) is base.best_arcs(1)  # an unedited state shares
        # The graph it came from never sees the edit, and the shared table is unchanged.
        assert base.best_arcs(0) is shared
        assert shared == {1: (1, 1, 1.0), 2: (2, 2, 0.5)}
        assert table == oracles.best_arcs_by_arc(fst, 0)  # materializes
        assert not fst._added
        assert fst.best_arcs(0) is table  # still valid once materialized

    def test_copies_start_with_the_shared_tables(self, fst_factory):
        """Derived graphs, with edits or none, start with every table built beside the columns."""
        base = self.base(fst_factory)
        table = derive(base, FstDiff()).best_arcs(1)  # built through a twin, beside the columns
        assert derive(base, FstDiff())._tables[1] is table and base.best_arcs(1) is table
        written = derive(base, FstDiff(removed_arcs=[Arc(0, 2, 2, 0.5)]))
        assert written._tables[1] is table and written._tables[0] is None
        own = written.best_arcs(0)
        grand = derive(written, FstDiff(added_arcs=[Arc(1, 0, 2, 3.0)]))
        assert grand._tables[0] is own and grand._tables[1] is None
        assert grand.best_arcs(1)[2] == (0, 2, 3.0)
        assert written.best_arcs(1) is table and base.best_arcs(0) is not own


# Reads compared between a graph derived through _derived or enhance
# (edits not yet materialized) and the same graph built from plain arc
# lists edited one arc at a time.
_READS = ("best_arcs", "arcs", "num_arcs", "scan", "diff", "write_text")
_WEIGHTS = (-1.0, -0.5, 0.0, 0.5)


def _text_or_error(fst):
    try:
        return text_of(fst)
    except InvariantError as exc:
        return str(exc)


def _check_read(read, lazy, eager, base, data):
    states = lazy.states()
    if read == "best_arcs":
        for state in states:
            assert lazy.best_arcs(state) == oracles.best_arcs_by_arc(eager, state), state
    elif read == "arcs":
        state = data.draw(st.sampled_from(states))
        assert lazy.arcs(state) == eager.arcs(state)
    elif read == "num_arcs":
        state = data.draw(st.sampled_from([None, *states]))
        assert lazy.num_arcs(state) == eager.num_arcs(state)
    elif read == "scan":
        labels = data.draw(st.sets(st.sampled_from(sorted(lazy.symbols._lab2sym))))
        assert lazy.scan(labels) == oracles.scan_by_arc(eager, labels)
    elif read == "diff":
        if lazy.symbols == base.symbols:  # else enhancement added words
            assert diff(base, lazy) == diff(base, eager)
        assert diff(lazy, eager) == FstDiff()
    else:
        assert _text_or_error(lazy) == _text_or_error(eager)


def _draw_delta(data, eager):
    """A valid delta for ``eager``: additions, a removal, a reweight, a final change."""
    n = eager.num_states()
    labels = sorted(eager.symbols._lab2sym)
    added = []
    for _ in range(data.draw(st.integers(0, 4), label="additions")):
        source, target = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        own = eager.arcs(source)
        if own and data.draw(st.booleans(), label="tie an arc the state has"):
            _, label, weight = data.draw(st.sampled_from(own))
        else:
            label = data.draw(st.sampled_from(labels))
            weight = data.draw(st.sampled_from(_WEIGHTS))
        added.append(Arc(source, target, label, weight))
    delta = FstDiff(added_arcs=added)
    written = data.draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    for state, kind in zip(written, ("remove", "reweight")):
        arcs = eager.arcs(state)
        if not arcs:
            continue
        repeated = [arc for arc in arcs if arcs.count(arc) > 1]
        old = Arc(state, *data.draw(st.sampled_from(repeated or arcs)))
        if kind == "remove":
            delta.removed_arcs.append(old)
        else:
            new = old._replace(weight=data.draw(st.sampled_from(_WEIGHTS)))
            delta.reweighted_arcs.append((old, new))
    if data.draw(st.booleans(), label="final change"):
        state = data.draw(st.integers(0, n - 1))
        after = data.draw(st.sampled_from((None, *_WEIGHTS)))
        delta.final_changes.append((state, eager.finals.get(state), after))
    return delta


def _draw_config(data, symbols):
    """A valid one-group enhancement config over the words of ``symbols``."""
    new_words = ["nova", "nova2"]  # new at first, then in the tables of the graphs enhanced
    words = [word for word in symbols._sym2lab if word not in (EPSILON, *new_words)]
    predictors = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=2,
                                    unique=True), label="predictors")
    others = [word for word in words if word not in predictors]
    targets = data.draw(st.lists(st.sampled_from(others + new_words), min_size=1,
                                 max_size=2, unique=True), label="targets")
    counts = st.integers(1, 500)
    return EnhanceConfig(
        theta=data.draw(st.sampled_from((-2.0, 0.0, 1.5)), label="theta"),
        max_predictors=data.draw(st.integers(1, 2), label="max_predictors"),
        groups=[SimilarPairGroup(predictors=predictors, targets=targets,
                                 frequencies={word: data.draw(counts)
                                              for word in predictors + targets},
                                 new_words=frozenset(new_words) & set(targets))])


def _snapshot(fst):
    """What a call must leave of its input: symbols, initial, finals, arcs and tables.

    Taken without materializing the graph.
    """
    states = fst.states()
    return (fst.symbols, dict(fst.symbols._sym2lab), fst.initial, dict(fst.finals),
            [fst._state_arcs(state) for state in states],
            [dict(fst.best_arcs(state)) for state in states])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("random", "backoff")), st.integers(0, 2 ** 32), st.data())
def test_lazy_edits_read_as_eager_ones(kind, seed, data):
    """Edits, enhancements and reads in any order: no call changes its input.

    Pairs of graphs start as fresh reads of one text. Each edit or
    enhancement derives a new pair from a drawn one: one graph through
    _derived (see derive) or enhance, the other through
    oracles.apply_diff_by_arc from the same diff; an unedited pair derives
    through a twin, over the same columns, tables and memo. The old pair
    stays, and later steps read and edit it too, so edits stack on edited
    graphs. After every edit or enhance call, its input equals a snapshot
    taken before the call. All reads of all pairs end the run, best_arcs
    first, so edited states are read before anything materializes them.
    """
    if kind == "random":
        source = random_graph(seed, n_states=6, n_arcs=14, n_symbols=3, epsilon_arcs=2)
    else:
        source = random_backoff_graph(random.Random(seed), VOCAB[:6])
    if data.draw(st.booleans(), label="repeat an arc"):  # two equal arcs for a reweight
        state = data.draw(st.sampled_from([s for s in source.states() if source.arcs(s)]))
        source = add_arcs(source, (state, *data.draw(st.sampled_from(source.arcs(state)))))
    text, symbols = text_of(source), source.symbols
    base = read_text(io.StringIO(text), symbols)
    pairs = [(read_text(io.StringIO(text), symbols), read_text(io.StringIO(text), symbols))]
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        step = data.draw(st.sampled_from(("edit", "edit", "enhance", "unedited", "read")))
        lazy, eager = data.draw(st.sampled_from(pairs))
        before = _snapshot(lazy)
        if step == "edit":
            delta = _draw_delta(data, eager)
            pairs.append((derive(lazy, delta), oracles.apply_diff_by_arc(eager, delta)))
        elif step == "enhance":
            enhanced, delta = enhance(lazy, _draw_config(data, lazy.symbols))
            pairs.append((enhanced, oracles.apply_diff_by_arc(eager, delta, enhanced.symbols)))
        elif step == "unedited":  # a new graph over the same columns, tables and memo
            pairs.append((derive(lazy, FstDiff()), oracles.apply_diff_by_arc(eager, FstDiff())))
        else:
            read = data.draw(st.sampled_from(_READS))
            for lazy, eager in pairs:
                _check_read(read, lazy, eager, base, data)
            continue
        assert _snapshot(lazy) == before, step
    for read in _READS:
        for lazy, eager in pairs:
            _check_read(read, lazy, eager, base, data)


class TestPathWeight:
    def test_two_path_acceptor_scores_ac(self, two_path_acceptor):
        assert path_weight(two_path_acceptor, ["a", "c"]) == 6.5

    def test_empty_input_on_final_initial_state(self, fst_factory):
        fst = fst_factory("a", [], {0: 0.0})
        assert path_weight(fst, []) == 0.0

    def test_empty_input_rejected_when_initial_not_final(self, two_path_acceptor):
        assert path_weight(two_path_acceptor, []) is None

    def test_parallel_arcs_resolve_to_max(self, fst_factory):
        fst = fst_factory(
            "a b",
            [(0, 1, "a", -1.0), (0, 1, "a", -2.0), (1, 2, "b", 0.0)],
            {2: 0.0},
        )
        assert path_weight(fst, ["a", "b"]) == -1.0

    def test_unknown_symbol_is_named(self, two_path_acceptor):
        with pytest.raises(InvariantError, match="mystery"):
            path_weight(two_path_acceptor, ["mystery"])

    def test_epsilon_not_permitted_in_input(self, two_path_acceptor):
        with pytest.raises(InvariantError, match="epsilon"):
            path_weight(two_path_acceptor, [EPSILON])

    def test_no_accepting_path_returns_none(self, two_path_acceptor):
        assert path_weight(two_path_acceptor, ["c"]) is None

    def test_epsilon_arcs_bridge_input(self, fst_factory):
        fst = fst_factory(
            "a",
            [(0, 1, "<eps>", -0.5), (1, 2, "a", -1.0)],
            {2: 0.0},
        )
        assert path_weight(fst, ["a"]) == pytest.approx(-1.5, abs=1e-12)

    def test_positive_epsilon_cycle_detected(self, fst_factory):
        fst = fst_factory(
            "a",
            [(0, 1, "<eps>", 1.0), (1, 0, "<eps>", 1.0),
             (0, 2, "a", 0.0)],
            {2: 0.0},
        )
        with pytest.raises(InvariantError, match="cycle"):
            path_weight(fst, ["a"])

    def test_matches_brute_force_enumeration(self, random_graph_factory):
        rng = random.Random(99)
        for seed in range(30):
            fst = random_graph_factory(seed, n_states=7, n_arcs=18, n_symbols=3,
                                       epsilon_arcs=3)
            for _ in range(10):
                labels = [rng.randint(1, 3) for _ in range(rng.randint(0, 5))]
                # random_graph's epsilon weights are negative, so no best path
                # repeats a state within a run of epsilon arcs: six, one fewer
                # than the states, reach every best path. The default cut of 20
                # takes seconds on seeds 21 and 28, whose epsilon self-loops
                # the enumeration would walk 20 times at each visit.
                expected = oracles.best_path_weight(fst, labels, max_epsilon_run=6)
                got = path_weight(fst, labels)
                if expected is None:
                    assert got is None
                else:
                    assert got == pytest.approx(expected, abs=1e-9)

    def test_unique_path_weight_is_plain_sum(self, fst_factory):
        weights = [-0.125, -3.25, 0.75]
        arcs = [(i, i + 1, "a", w) for i, w in enumerate(weights)]
        fst = fst_factory("a", arcs, {3: -1.5})
        expected = sum(weights) + -1.5
        assert abs(path_weight(fst, ["a", "a", "a"]) - expected) < 1e-12


def accepted_input(fst, rng, max_steps=40):
    """Random-walk the graph until a final state, returning the label string."""
    while True:
        state, labels = fst.initial, []
        for _ in range(max_steps):
            if fst.final_weight(state) is not None and rng.random() < 0.4:
                return labels
            arcs = fst.arcs(state)
            if not arcs:
                break
            target, label, _ = rng.choice(arcs)
            if label != 0:
                labels.append(label)
            state = target


def perturb(fst, rng):
    """A graph derived from ``fst`` by a few random structural edits."""
    out = fst
    for _ in range(rng.randint(1, 6)):
        choice = rng.random()
        if choice < 0.35:
            out = add_arcs(out, (rng.randrange(out.num_states()), rng.randrange(out.num_states()),
                                 rng.randint(1, 3), round(rng.uniform(-4, 4), 6)))
        elif choice < 0.85:
            state = rng.randrange(out.num_states())
            arcs = out.arcs(state)
            if arcs:
                old = Arc(state, *arcs[rng.randrange(len(arcs))])
                if choice < 0.6:
                    delta = FstDiff(removed_arcs=[old])
                else:
                    new = old._replace(weight=round(rng.uniform(-4, 4), 6))
                    delta = FstDiff(reweighted_arcs=[(old, new)])
                out = derive(out, delta)
        else:
            state = rng.randrange(out.num_states())
            out = derive(out, FstDiff(final_changes=[
                (state, out.final_weight(state), round(rng.uniform(-1, 1), 6))]))
    return out


class TestDiff:
    def test_identical_graphs_yield_empty_diff(self, two_path_acceptor):
        fresh = read_text(io.StringIO(text_of(two_path_acceptor)), two_path_acceptor.symbols)
        for other in (two_path_acceptor, derive(two_path_acceptor, FstDiff()), fresh):
            assert diff(two_path_acceptor, other) == FstDiff()

    def test_single_weight_perturbation(self, two_path_acceptor):
        old = Arc(0, *two_path_acceptor.arcs(0)[0])
        other = oracles.apply_diff_by_arc(two_path_acceptor, FstDiff(reweighted_arcs=[
            (old, old._replace(weight=0.5 + 1e-6))]))
        delta = diff(two_path_acceptor, other)
        assert delta.added_arcs == [] and delta.removed_arcs == []
        assert len(delta.reweighted_arcs) == 1
        before, after = delta.reweighted_arcs[0]
        assert before.weight == 0.5 and after.weight == 0.5 + 1e-6

    def test_added_arc_reported(self, two_path_acceptor):
        table = two_path_acceptor.symbols
        other = add_arcs(two_path_acceptor, (0, 1, table.label("c"), -2.0))
        delta = diff(two_path_acceptor, other)
        assert len(delta.added_arcs) == 1 and delta.added_arcs[0].weight == -2.0
        assert delta.removed_arcs == [] and delta.reweighted_arcs == []

    def test_final_change_reported(self, two_path_acceptor):
        other = oracles.apply_diff_by_arc(two_path_acceptor,
                                          FstDiff(final_changes=[(1, None, 0.0)]))
        delta = diff(two_path_acceptor, other)
        assert delta.final_changes == [(1, None, 0.0)]

    def test_mismatched_symbol_tables_rejected(self, two_path_acceptor, fst_factory):
        other = fst_factory("a", [(0, 1, "a", 0.5)], {1: 0.0})
        with pytest.raises(InvariantError, match="symbol table"):
            diff(two_path_acceptor, other)

    def test_state_count_mismatch_rejected(self, two_path_acceptor, fst_factory):
        other = fst_factory("a b c", [(0, 1, "a", 0.5), (0, 1, "b", 1.5), (1, 2, "c", 2.5)],
                            {2: 3.5}, num_states=4)
        with pytest.raises(InvariantError, match="state count"):
            diff(two_path_acceptor, other)

    def test_initial_state_mismatch_rejected(self, fst_factory):
        fst = fst_factory("a", [(0, 1, "a", 0.5), (1, 0, "a", 0.5)], {1: 0.0})
        other = read_text(io.StringIO("1 0 a a 0.5\n0 1 a a 0.5\n1 0\n"), fst.symbols)
        assert other.initial == 1
        with pytest.raises(InvariantError, match="^initial states do not correspond$"):
            diff(fst, other)

    def test_replay_reproduces_target(self, random_graph_factory):
        rng = random.Random(4242)
        for seed in range(40):
            a = random_graph_factory(seed, n_states=12, n_arcs=60, n_symbols=3)
            b = perturb(a, rng)
            delta = diff(a, b)
            replayed = oracles.apply_diff_by_arc(a, delta)
            assert oracles.graphs_equal(replayed, b)
            assert diff(replayed, b) == FstDiff()

    def test_replay_on_thousand_arc_graph(self, random_graph_factory):
        rng = random.Random(31337)
        a = random_graph_factory(8, n_states=80, n_arcs=1000, n_symbols=5)
        b = perturb(a, rng)
        for _ in range(5):
            b = perturb(b, rng)
        replayed = oracles.apply_diff_by_arc(a, diff(a, b))
        assert oracles.graphs_equal(replayed, b)

    def test_diff_matches_grouping_reference(self, random_graph_factory):
        """The equal-list fast path changes no entry of the grouping diff.

        Pairs: a graph and one derived from it (shared columns), both ways;
        a fresh read of the derived one (equal lists, no shared columns); one
        derived with no edit; a graph with one state's arcs reversed (unequal lists,
        equal groups); fresh reads of both (columns compared run by run),
        both ways; a fresh read and one derived from it.
        """
        rng = random.Random(6174)
        for seed in range(40):
            a = random_graph_factory(seed, n_states=12, n_arcs=60, n_symbols=3,
                                     epsilon_arcs=3)
            b = perturb(a, rng)
            fresh_a = read_text(io.StringIO(text_of(a)), a.symbols)
            fresh_b = read_text(io.StringIO(text_of(b)), b.symbols)
            state = seed % 12
            arcs = [Arc(state, *arc) for arc in a.arcs(state)]
            reversed_a = oracles.apply_diff_by_arc(a, FstDiff(removed_arcs=arcs,
                                                              added_arcs=arcs[::-1]))
            for before, after in ((a, b), (b, a), (a, fresh_b), (fresh_b, b),
                                  (a, derive(a, FstDiff())), (a, reversed_a),
                                  (fresh_a, fresh_b),
                                  (fresh_b, fresh_a), (fresh_a, perturb(fresh_a, rng))):
                assert diff(before, after) == oracles.diff_by_groups(before, after), seed

    @pytest.mark.parametrize("state, appended, fast", [
        (0, [(2, "c", -1.0), (1, "c", -2.0)], True),  # new, distinct keys
        (2, [(0, "a", 1.0)], True),  # appended to an empty list
        (0, [(2, "c", -1.0), (2, "c", -3.0)], False),  # repeated key
        (0, [(1, "a", -2.0)], False),  # key already in before
    ])
    def test_appended_arcs_match_grouping_reference(self, two_path_acceptor, state,
                                                    appended, fast):
        """An append-only state takes the fast path only under new, distinct keys.

        A repeated or reused key must group: its weights match in sorted
        order, so the additions (and a reweight) differ from the suffix.
        """
        before = two_path_acceptor
        label = before.symbols.label
        suffix = [Arc(state, t, label(sym), w) for t, sym, w in appended]
        after = add_arcs(before, *suffix)
        delta = diff(before, after)
        assert delta == oracles.diff_by_groups(before, after)
        assert (delta == FstDiff(added_arcs=suffix)) == fast

    def test_reweight_edits_the_last_equal_arc(self, fst_factory):
        """Enhancement raises a slot's last parallel arc, the one whose weight it reads."""
        twice = fst_factory("a p z", [(0, 1, "a", 0.5), (0, 1, "p", 1.0),
                                      (0, 1, "a", 0.5), (1, 2, "z", 0.0)], {2: 0.0})
        a = twice.symbols.label("a")
        config = EnhanceConfig(theta=1.0, max_predictors=1, groups=[SimilarPairGroup(
            predictors=["p"], targets=["a"], frequencies={"p": 1, "a": 1})])
        raised, delta = enhance(twice, config)
        weight = 1.0 + math.log(0.5) + 1.0
        assert delta == FstDiff(reweighted_arcs=[(Arc(0, 1, a, 0.5), Arc(0, 1, a, weight))])
        assert raised.arcs(0) == twice.arcs(0)[:-1] + [(1, a, weight)]
        assert raised.arcs(0) == oracles.apply_diff_by_arc(twice, delta).arcs(0)

    def test_derived_graph_appends_additions_in_delta_order(self, two_path_acceptor):
        a, b, c = (two_path_acceptor.symbols.label(s) for s in "abc")
        added = [Arc(0, 2, a, -1.0), Arc(1, 0, b, -2.0), Arc(0, 1, c, -3.0),
                 Arc(1, 1, a, -4.0), Arc(0, 2, a, -1.0)]
        by_arc = two_path_acceptor
        for arc in added:
            by_arc = add_arcs(by_arc, arc)
        applied = derive(two_path_acceptor, FstDiff(added_arcs=added))
        assert text_of(applied) == text_of(by_arc)

    def test_empty_diff_iff_equal(self, random_graph_factory):
        a = random_graph_factory(5, n_states=10, n_arcs=40, n_symbols=3)
        assert diff(a, read_text(io.StringIO(text_of(a)), a.symbols)) == FstDiff()
        b = perturb(a, random.Random(1))
        assert (diff(a, b) == FstDiff()) == oracles.graphs_equal(a, b)


class TestTextFormat:
    def roundtrip(self, fst, negate=False):
        buf = io.StringIO()
        write_text(fst, buf, negate=negate)
        return read_text(io.StringIO(buf.getvalue()), fst.symbols, negate=negate)

    def test_two_path_acceptor_line_count(self, two_path_acceptor):
        buf = io.StringIO()
        write_text(two_path_acceptor, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 4  # three arcs, one final
        assert lines[0].split()[0] == "0"  # initial state leads

    def test_single_state_graph_is_one_line(self, fst_factory):
        fst = fst_factory("a", [], {0: 0.0})
        buf = io.StringIO()
        write_text(fst, buf)
        assert buf.getvalue() == "0 0\n"

    def test_initial_state_recovered_from_first_line(self, fst_factory):
        fst = fst_factory("a", [(1, 0, "a", -1.0)], {0: 0.0}, initial=1)
        again = self.roundtrip(fst)
        assert again.initial == 1

    def test_write_then_read_is_byte_stable(self, random_graph_factory):
        fst = random_graph_factory(11, n_states=30, n_arcs=120)
        first = io.StringIO()
        write_text(fst, first)
        again = read_text(io.StringIO(first.getvalue()), fst.symbols)
        second = io.StringIO()
        write_text(again, second)
        assert first.getvalue() == second.getvalue()

    def test_large_roundtrip_has_empty_diff(self, random_graph_factory):
        fst = random_graph_factory(12, n_states=500, n_arcs=10_000)
        for negate in (False, True):
            assert diff(fst, self.roundtrip(fst, negate)) == FstDiff()

    def test_roundtrip_preserves_path_weights(self, random_graph_factory):
        fst = random_graph_factory(13, n_states=40, n_arcs=160, n_symbols=4)
        again = self.roundtrip(fst)
        rng = random.Random(77)
        for _ in range(100):
            labels = accepted_input(fst, rng)
            before = path_weight(fst, labels)
            after = path_weight(again, labels)
            assert before is not None
            assert after == before

    def test_negate_flag_flips_weights_both_ways(self, two_path_acceptor):
        buf = io.StringIO()
        write_text(two_path_acceptor, buf, negate=True)
        assert "-0.5" in buf.getvalue().split("\n")[0]
        again = read_text(io.StringIO(buf.getvalue()), two_path_acceptor.symbols,
                          negate=True)
        assert diff(two_path_acceptor, again) == FstDiff()

    def test_malformed_line_reports_line_number(self, two_path_acceptor):
        text = "0 1 a a 0.5\n0 1 b\n"
        with pytest.raises(FormatError, match="line 2"):
            read_text(io.StringIO(text), two_path_acceptor.symbols)

    def test_unknown_symbol_reports_line_number(self, two_path_acceptor):
        text = "0 1 nope nope 0.5\n"
        with pytest.raises(FormatError, match="line 1.*nope"):
            read_text(io.StringIO(text), two_path_acceptor.symbols)

    def test_an_arc_with_two_symbols_is_refused_at_its_line(self, two_path_acceptor):
        """A graph is an acceptor: both symbols of an arc line are its one label."""
        text = "0 1 a a 0.5\n0 1 a b -1\n1 0\n"
        message = "line 2: not an acceptor arc: output symbol 'b' differs from input symbol 'a'"
        for read in (read_text, oracles.read_text_by_line):
            with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
                read(io.StringIO(text), two_path_acceptor.symbols)

    def test_negative_state_id_rejected(self, two_path_acceptor):
        with pytest.raises(FormatError, match="state id"):
            read_text(io.StringIO("-1 1 a a 0.5\n"), two_path_acceptor.symbols)

    def test_empty_file_rejected(self, two_path_acceptor):
        with pytest.raises(FormatError, match="empty"):
            read_text(io.StringIO(""), two_path_acceptor.symbols)

    def test_state_ids_are_bounded_by_the_record_count(self, monkeypatch):
        symbols = SymbolTable(["a"])
        allocated = []
        real = gboost.fst._Columns
        monkeypatch.setattr(gboost.fst, "_Columns", lambda offsets, *columns: real(
            allocated.append(len(offsets) - 1) or offsets, *columns))
        with pytest.raises(FormatError, match="line 1: state id 1000000000"):
            read_text(io.StringIO("0 1000000000 a a -1\n"), symbols)
        # Above what a column holds: rejected at its line, not at the end.
        with pytest.raises(FormatError, match=f"line 2: state id {ID_MAX + 1} is above"):
            read_text(io.StringIO(f"0 1 a a -1\n1 {ID_MAX + 1} a a -1\n0 0\n"), symbols)
        with pytest.raises(FormatError, match="line 3: state id 6"):
            read_text(io.StringIO("0 1 a a -1\n1 0\n1 6 a a -1\n"), symbols)
        assert allocated == []
        gappy = read_text(io.StringIO("0 3 a a -1\n3 0\n"), symbols)
        assert allocated == [4] and gappy.num_states() == 4
        assert gappy.arcs(0) == [(3, 1, -1.0)] and gappy.finals == {3: 0.0}

    def test_one_state_id_in_two_spellings(self):
        symbols = SymbolTable(["a"])
        chain = [f"{state} {state + 1} a a -1" for state in range(299)]
        text = "\n".join(chain + ["0299 300 a a -2", "0300 0 a a -3", "300 0.5"]) + "\n"
        fst = read_text(io.StringIO(text), symbols)
        assert fst.num_states() == 301
        assert fst.arcs(299) == [(300, 1, -2.0)] and fst.arcs(300) == [(0, 1, -3.0)]
        assert fst.finals == {300: 0.5}
        written = text_of(fst)
        assert "299 300 a a -2\n300 0 a a -3\n300 0.5\n" in written
        assert text_of(read_text(io.StringIO(written), symbols)) == written

    def test_last_state_without_a_record_rejected(self, fst_factory):
        # State 2: no arcs, not final, no arc into it.
        fst = fst_factory("a", [(0, 1, "a", -1.0)], {1: 0.0}, num_states=3)
        with pytest.raises(InvariantError, match="last state, 2"):
            write_text(fst, io.StringIO())
        fst = add_arcs(fst, (1, 2, 1, 0.5))  # an arc into it names it in the file
        assert self.roundtrip(fst).num_states() == 3

    def test_last_state_named_only_by_a_live_arc(self):
        symbols = SymbolTable(["a"])
        fst = read_text(io.StringIO("0 1 a a -1\n1 2 a a -1\n1 0\n"), symbols)
        fst = derive(fst, FstDiff(removed_arcs=[Arc(1, 2, 1, -1.0)]))
        with pytest.raises(InvariantError, match="last state, 2"):
            write_text(fst, io.StringIO())  # its column arc into 2 is gone
        fst = add_arcs(fst, (0, 2, 1, -2.0))
        assert self.roundtrip(fst).arcs(0) == [(1, 1, -1.0), (2, 1, -2.0)]

    def test_reader_matches_line_by_line_reference(self, random_graph_factory):
        rng = random.Random(5150)
        for seed in range(30):
            fst = random_graph_factory(seed, n_states=15, n_arcs=60, n_symbols=4,
                                       epsilon_arcs=5)
            for _ in range(6):  # parallel arcs, some exact duplicates
                state = rng.randrange(14)  # each has its chain arc; state 14 may have none
                target, label, weight = rng.choice(fst.arcs(state))
                if rng.random() < 0.5:
                    weight = round(rng.uniform(-5, 5), 6)
                fst = add_arcs(fst, (state, target, label, weight))
            for negate in (False, True):
                text = scrambled_text(fst, negate, rng)
                got = read_text(io.StringIO(text), fst.symbols, negate=negate)
                want = oracles.read_text_by_line(io.StringIO(text), fst.symbols,
                                                 negate=negate)
                assert contents(got) == contents(want), (seed, negate)
                assert contents(got) == contents(fst), (seed, negate)

    def test_writer_matches_per_arc_reference(self, random_graph_factory):
        rng = random.Random(8128)
        for seed in range(20):
            fst = random_graph_factory(seed, n_states=20, n_arcs=80, epsilon_arcs=4,
                                       initial=seed % 19)  # a state with arcs, not always 0
            fst = derive(fst, FstDiff(added_arcs=[Arc(3, 4, 1, 0.0), Arc(3, 4, 1, -0.0)],
                                      final_changes=[(5, fst.final_weight(5), -0.0)]))
            read = read_text(io.StringIO(text_of(fst)), fst.symbols)
            for graph in (fst, perturb(fst, rng), read, perturb(read, rng)):
                for negate in (False, True):
                    want = io.StringIO()
                    oracles.write_text_by_arc(graph, want, negate=negate)
                    got = io.StringIO()
                    write_text(graph, got, negate=negate)
                    assert got.getvalue() == want.getvalue(), (seed, negate)


def test_read_graph_holds_no_object_per_arc():
    """A read allocates O(states) objects the collector tracks, none per arc.

    With the collector paused, as every CLI command runs, a tuple per arc
    would stay tracked until the next collection.
    """
    words = [f"w{i}" for i in range(200)]
    corpus = toylm.toy_corpus(words, 3000, seed=5)
    fst = build_g(parse_arpa(io.StringIO(toylm.train_arpa(corpus, vocab=words, order=3))))
    text, symbols = text_of(fst), fst.symbols
    assert fst.num_arcs() > 4 * fst.num_states() > 10_000
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        again = read_text(io.StringIO(text), symbols)
        created = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert text_of(again) == text
    assert created < fst.num_states() // 10


def contents(fst):
    """Everything a graph file records: state count, initial, finals, arcs."""
    return (fst.num_states(), fst.initial, fst.finals,
            [list(fst.arcs(state)) for state in fst.states()])


def scrambled_text(fst, negate, rng):
    """Text of ``fst`` that read_text must take, laid out unlike write_text.

    The initial state's records come first and the other states follow in
    random order. Each final record sits at a random place among its
    state's arcs, some states' arcs are split into two blocks (the second
    at the end), and lines get blank neighbours, tab or multi-space
    separators and surrounding whitespace.
    """
    sign = -1.0 if negate else 1.0
    sym = fst.symbols.symbol

    def weight(w):
        return WEIGHT_FMT % (sign * w)

    others = [s for s in fst.states() if s != fst.initial]
    rng.shuffle(others)
    blocks, tails = [], []
    for state in [fst.initial] + others:
        records = [[state, t, sym(label), sym(label), weight(w)]
                   for t, label, w in fst.arcs(state)]
        if state in fst.finals:
            records.insert(rng.randint(0, len(records)), [state, weight(fst.finals[state])])
        if len(records) > 2 and state != fst.initial and rng.random() < 0.3:
            cut = rng.randint(1, len(records) - 1)
            records, tail = records[:cut], records[cut:]
            tails.append(tail)
        blocks.append(records)
    lines = []
    for records in blocks + tails:
        for record in records:
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "  ", "\t"]))
            separator = rng.choice([" ", "\t", "  ", " \t "])
            lines.append(rng.choice(["", " ", "\t"]) + separator.join(map(str, record))
                         + rng.choice(["", " ", "\t"]))
    return "\n".join(lines) + rng.choice(["", "\n", "\n\n"])


@given(st.lists(st.floats(min_value=-20, max_value=5), min_size=1, max_size=6),
       st.floats(min_value=-5, max_value=5))
def test_chain_path_weight_matches_sum(weights, final_weight):
    fst = add_arcs(empty_graph(SymbolTable(["a"]), len(weights) + 1, 0,
                               {len(weights): final_weight}),
                   *[(i, i + 1, 1, w) for i, w in enumerate(weights)])
    total = path_weight(fst, ["a"] * len(weights))
    assert total == pytest.approx(sum(weights) + final_weight, abs=1e-12)


# -- text parsers under fuzzing ----------------------------------------------

_ID = st.sampled_from(["0", "1", "2", "3", "01", "-1", "x", ""])
_SYMBOL = st.sampled_from(["a", "b", "<eps>", "zz"])
_WEIGHT = st.sampled_from(["-0.5", "-0", "2.5e-3", "1_0", "1e999", "nan", "-inf", "w"])
# Arc records print their symbol twice, as an acceptor's, or two symbols
# that may differ, which both readers refuse.
_RECORD = st.one_of(st.builds(lambda src, dst, sym, w: (src, dst, sym, sym, w),
                              _ID, _ID, _SYMBOL, _WEIGHT),
                    st.tuples(_ID, _ID, _SYMBOL, _SYMBOL, _WEIGHT), st.tuples(_ID, _WEIGHT),
                    st.lists(st.one_of(_ID, _SYMBOL, _WEIGHT), max_size=6))
_LINE = st.builds(lambda fields, sep: sep.join(fields),
                  _RECORD, st.sampled_from([" ", "\t", "  "]))


@settings(max_examples=150, deadline=None)
@given(st.lists(_LINE, max_size=10).map("\n".join))
@example("0 1 a b nan")
@example("0\t1  a a 1e999\n1 0")
@example("0 1 a a -0.5\n1 -inf")
@example("0 1 zz zz -1")
@example("0 1 a zz -1")
@example("2 0 b b -1\n0 1 a a 1_0\n0 3")
@example("2 -0.5\n2 -0.5")  # one final state: its file names no other state
def test_reader_agrees_with_reference_or_rejects(text):
    """Same graph, or the same FormatError, as the line-by-line reader.

    Except for the state bound, which only the bulk reader has: there the
    reference must have read a graph with that many states for its arcs
    and final states. A graph read
    writes a text that reads back to the same text.
    """
    symbols = SymbolTable(["a", "b"])
    results = []
    for read in (read_text, oracles.read_text_by_line):
        try:
            results.append(contents(read(io.StringIO(text), symbols)))
        except FormatError as exc:
            results.append(str(exc))
    got, want = results
    if not isinstance(got, str):  # read => write => read is byte-stable
        written = text_of(read_text(io.StringIO(text), symbols))
        assert text_of(read_text(io.StringIO(written), symbols)) == written
    if isinstance(got, str) and "twice the number of arcs" in got:
        num_states, _, finals, arcs = want
        assert num_states > 2 * (sum(map(len, arcs)) + len(finals))
    else:
        assert got == want


_GRAPHISH = st.text(alphabet="0123456789 \t\n-.eabinf<>ps_", max_size=300)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(max_size=200), _GRAPHISH))
def test_text_parsers_raise_only_format_errors(text):
    for parse in (lambda stream: read_text(stream, SymbolTable(["a", "b"])),
                  SymbolTable.read):
        try:
            parse(io.StringIO(text))
        except FormatError:
            pass


# -- companion file ------------------------------------------------------------


def graph_state(fst):
    """Everything a loaded graph holds, weights compared bit for bit."""
    columns = fst._columns
    return (fst.num_states(), fst.initial, fst.symbols,
            [(state, weight.hex()) for state, weight in fst.finals.items()],
            columns.offsets.tolist(), columns.targets.tolist(), columns.labels.tolist(),
            columns.weights.tobytes(), fst._rewritten, fst._added)


def save(fst, path, negate=False):
    """Write ``fst`` to text file ``path`` and its companion beside it, as the CLI does."""
    with open(path, "w") as handle:
        write_text(fst, handle, negate=negate)
    with open(path + COMPANION_SUFFIX, "wb") as handle:
        write_companion(fst, gboost.fst._file_digest(path), handle, negate=negate)


def load(path, symbols, negate=False):
    """load_graph's graph and the source its log line names.

    The digest it returns must be the BLAKE2b-256 of the text's bytes, from
    either source.
    """
    logger = logging.getLogger("gboost.fst")
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger.addHandler(handler)
    level = logger.level
    logger.setLevel(logging.INFO)
    try:
        fst, digest = load_graph(path, symbols, negate=negate)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    [record] = records
    assert digest == _hash(Path(path).read_bytes()).digest()
    return fst, record.getMessage().split(" from ", 1)[1].rsplit(": ", 1)[0]


def parsed(path, symbols, negate=False):
    with open(path) as handle:
        return read_text(handle, symbols, negate=negate)


def odd_graph():
    """-0.0 weights, three final states, initial state 2, one label on several
    arcs, and an epsilon arc."""
    table = SymbolTable(["a", "b", "c"])
    return add_arcs(empty_graph(table, 4, 2, {3: -0.0, 0: 0.7, 2: 1 / 7}),
                    (2, 0, 1, -0.0), (2, 1, 1, 0.1), (2, 3, 1, -1 / 3),
                    (0, 3, 2, 1e-300), (1, 1, 0, -0.0), (3, 0, 3, 2.0000000001))


def enhanced_graph(seed):
    """A random back-off graph after enhancement, its edits not yet materialized."""
    rng = random.Random(seed)
    fst = random_backoff_graph(rng, VOCAB)
    return enhance(fst, random_config(rng, VOCAB, fresh_token_stream()))[0]


_GRAPHS = {
    "random": lambda seed: random_graph(seed, n_states=30, n_arcs=120, epsilon_arcs=5),
    "backoff": lambda seed: random_backoff_graph(random.Random(seed), VOCAB),
    "enhanced": enhanced_graph,
    "odd": lambda seed: odd_graph(),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_GRAPHS)), st.integers(0, 2 ** 32), st.booleans())
@example("odd", 0, False)
@example("odd", 0, True)
def test_companion_loads_what_read_text_reads(kind, seed, negate):
    fst = _GRAPHS[kind](seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.fst")
        save(fst, path, negate)
        got, source = load(path, fst.symbols, negate)
        assert source == "companion"
        assert graph_state(got) == graph_state(parsed(path, fst.symbols, negate))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_GRAPHS)), st.integers(0, 2 ** 32), st.booleans(), st.booleans())
@example("odd", 0, False, False)
@example("odd", 1, True, True)
def test_appended_text_is_the_copy_plus_the_arcs_and_its_companion_loads_it(kind, seed,
                                                                            negate, crlf):
    """append_text: the input's bytes, a newline if they lack one, then a line per arc.

    The input is laid out unlike write_text (blank lines, tabs, split
    blocks, finals in any order, maybe no final newline), with LF or CRLF
    endings. The result reads back as the loaded graph with the arcs
    added, and the companion of the grown graph loads what read_text reads.
    """
    fst = _GRAPHS[kind](seed)
    rng = random.Random(seed)
    text = scrambled_text(fst, negate, rng).encode()
    if crlf:
        text = text.replace(b"\n", b"\r\n")
    labels = sorted(fst.symbols._lab2sym)
    n = fst.num_states()
    added = [Arc(rng.randrange(n), rng.randrange(n), rng.choice(labels),
                 rng.choice([-0.0, rng.uniform(-9, 9)])) for _ in range(rng.randint(0, 12))]
    sign = -1.0 if negate else 1.0
    symbol = fst.symbols.symbol
    lines = "".join(f"{a.source} {a.target} {symbol(a.label)} {symbol(a.label)} "
                    f"{WEIGHT_FMT % (sign * a.weight)}\n" for a in added).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "g.fst"), os.path.join(tmp, "grown.fst")
        Path(path).write_bytes(text)
        base, source = load(path, fst.symbols, negate)
        assert source == "text (companion missing)"
        grown = derive(base, FstDiff(added_arcs=added))
        with open(out, "wb") as handle:
            written = append_text(path, _hash(text).digest(),
                                  [format_arc(arc, fst.symbols, negate) + "\n" for arc in added],
                                  handle)
        assert Path(out).read_bytes() == text + b"\n" * (not text.endswith(b"\n")) + lines
        assert written == _hash(Path(out).read_bytes()).digest()
        with open(out + COMPANION_SUFFIX, "wb") as handle:
            write_companion(grown, written, handle, negate)
        got, source = load(out, fst.symbols, negate)
        assert source == "companion"
        assert graph_state(got) == graph_state(parsed(out, fst.symbols, negate))
        assert exact_contents(got) == exact_contents(grown)


def exact_contents(fst):
    """States, initial, symbols, arcs in order and finals, each weight as ``float.hex``."""
    return (fst.num_states(), fst.initial, fst.symbols,
            [[(*arc[:2], arc[2].hex()) for arc in fst.arcs(state)] for state in fst.states()],
            sorted((state, weight.hex()) for state, weight in fst.finals.items()))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_GRAPHS)), st.integers(0, 2 ** 32), st.booleans())
@example("odd", 0, False)
@example("odd", 0, True)
@example("enhanced", 7, False)
@example("enhanced", 7, True)
def test_read_text_of_write_text_is_the_graph(kind, seed, negate):
    """Bit for bit, an enhanced graph's edits included."""
    want = exact_contents(_GRAPHS[kind](seed))  # reading arcs materializes: build another
    fst = _GRAPHS[kind](seed)
    buf = io.StringIO()
    assert write_text(fst, buf, negate=negate) is None
    again = read_text(io.StringIO(buf.getvalue()), fst.symbols, negate=negate)
    assert exact_contents(again) == exact_contents(fst) == want
    rewritten = io.StringIO()
    write_text(again, rewritten, negate=negate)
    assert rewritten.getvalue() == buf.getvalue()


def test_companion_of_an_enhanced_graph_is_that_of_its_text(tmp_path):
    """Materialized by write_text, or by write_companion alone: the re-read graph's bytes."""
    fst = enhanced_graph(7)
    assert fst._added
    for negate in (False, True):
        first, second = str(tmp_path / "first.fst"), str(tmp_path / "second.fst")
        save(fst, first, negate)
        save(parsed(first, fst.symbols, negate), second, negate)
        assert Path(first).read_bytes() == Path(second).read_bytes()
        companion = Path(first + COMPANION_SUFFIX).read_bytes()
        assert companion == Path(second + COMPANION_SUFFIX).read_bytes()
        alone = io.BytesIO()
        write_companion(enhanced_graph(7), gboost.fst._file_digest(first), alone,
                        negate=negate)  # not materialized
        assert alone.getvalue() == companion


def test_write_text_refuses_an_initial_state_without_arcs_or_final_weight():
    fst = add_arcs(empty_graph(SymbolTable(["a"]), 2, 1, {1: 0.5}), (0, 1, 1, -1.0))
    fst = oracles.apply_diff_by_arc(fst, FstDiff(final_changes=[(1, 0.5, None)]))
    buf = io.StringIO()
    with pytest.raises(InvariantError, match="^initial state has no arcs and is not final; "
                                             "nothing to write$"):
        write_text(fst, buf)
    assert buf.getvalue() == ""


def test_write_text_refuses_what_read_text_refuses():
    # Nine states and one arc 0 -> 8: the file would name state 8, but
    # read_text bounds state ids by twice the number of arcs and final
    # states.
    sparse = add_arcs(empty_graph(SymbolTable(["a"]), 9), (0, 8, 1, -1.0))
    buf = io.StringIO()
    with pytest.raises(InvariantError, match="last state, 8, is at or above twice the "
                                             r"number of arcs and final states \(1\)"):
        write_text(sparse, buf)
    assert buf.getvalue() == ""  # refused before a byte is written
    sparse = oracles.apply_diff_by_arc(sparse, FstDiff(final_changes=[(1, None, 0.0)]))
    with pytest.raises(InvariantError, match=r"final states \(2\)"):
        write_text(sparse, buf)
    sparse = add_arcs(sparse, (0, 1, 1, -1.0), (1, 0, 1, -2.0))  # at the bound: 8 = 2 * 4
    with pytest.raises(InvariantError, match=r"final states \(4\)"):
        write_text(sparse, buf)
    assert buf.getvalue() == ""
    sparse = add_arcs(sparse, (1, 1, 1, -3.0))  # five records: ids up to 9 read back
    write_text(sparse, buf)
    assert graph_state(sparse) == graph_state(read_text(io.StringIO(buf.getvalue()),
                                                        sparse.symbols))


def test_companion_serves_a_larger_symbol_table(tmp_path):
    fst = odd_graph()
    path = str(tmp_path / "g.fst")
    save(fst, path)
    larger = fst.symbols.extended(["d"])
    got, source = load(path, larger)
    assert source == "companion"
    assert graph_state(got) == graph_state(parsed(path, larger))


@pytest.mark.parametrize("reason", ["missing", "stale", "convention", "symbols"])
def test_companion_not_used_falls_back_to_the_text(tmp_path, reason):
    fst = odd_graph()
    path = str(tmp_path / "g.fst")
    save(fst, path)
    symbols, negate = fst.symbols, False
    if reason == "missing":
        os.remove(path + COMPANION_SUFFIX)
    elif reason == "stale":  # the same graph, one weight printed another way
        stale(path)
    elif reason == "convention":
        negate = True
    else:
        symbols = SymbolTable(["b", "a", "c"])
    got, source = load(path, symbols, negate)
    assert source == f"text (companion {reason})"
    assert graph_state(got) == graph_state(parsed(path, symbols, negate))


def test_companion_of_a_text_read_text_rejects_is_not_used(tmp_path):
    """An unknown symbol, or a bad text: load_graph raises what read_text raises."""
    path = str(tmp_path / "g.fst")
    # Ten states and one arc 0 -> 9: write_text refuses this graph, as
    # read_text bounds state ids by the record count, so its text is written
    # by the reference writer and its companion, with correct digests, from
    # the columns themselves. Only the loader's state bound turns it away.
    sparse = Wfst(SymbolTable(["a"]), _Columns(array("q", [0] + [1] * 10), array("i", [9]),
                                               array("i", [1]), array("d", [-1.0])), 0, {})
    with open(path, "w") as handle:
        oracles.write_text_by_arc(sparse, handle)
    with open(path + COMPANION_SUFFIX, "wb") as handle:
        write_companion(sparse, gboost.fst._file_digest(path), handle)
    with pytest.raises(FormatError, match="state id 9 is at or above twice"):
        load_graph(path, SymbolTable(["a"]))
    fst = odd_graph()
    save(fst, path)
    with pytest.raises(FormatError, match="unknown symbol: 'b'"):
        load_graph(path, SymbolTable(["a"]))
    with open(path, "a") as handle:
        handle.write("0 1 a a nan\n")
    with pytest.raises(FormatError, match="line 10: arc weight must be finite"):
        load_graph(path, fst.symbols)


def sections(data):
    """Byte ranges of the companion's parts, by name, from its header."""
    fields = _HEADER.unpack_from(data)
    states, arcs, finals, pairs, names = fields[6:11]
    sizes = [("header", _HEADER.size), ("offsets", 8 * (states + 1)), ("targets", 4 * arcs),
             ("arc_labels", 4 * arcs), ("weights", 8 * arcs),
             ("final_states", 4 * finals), ("final_weights", 8 * finals),
             ("labels", 4 * pairs), ("names", names)]
    out, at = {}, 0
    for name, size in sizes:
        out[name] = (at, at + size)
        at += size
    return out


def sealed(data):
    """``data`` with its trailing payload digest made right again."""
    body = bytes(data[:-32])
    return body + _hash(body).digest()


def put(data, name, index, code, value):
    """Write item ``index`` of section ``name`` as struct ``code``."""
    start = sections(data)[name][0]
    struct.pack_into(code, data, start + index * struct.calcsize(code), value)


def set_header(data, **fields):
    names = ("magic", "little", "q_size", "i_size", "d_size", "negate", "states", "arcs",
             "finals", "pairs", "names", "initial", "text_digest")
    values = dict(zip(names, _HEADER.unpack_from(data)))
    values.update(fields)
    _HEADER.pack_into(data, 0, *values.values())


_RANGE, _LABELS = "a count, state id or weight is out of range", "an arc label is not in its label list"
_BROKEN = {
    "offsets-start-above-zero": (lambda d: put(d, "offsets", 0, "q", 1), _RANGE),
    "offsets-decrease": (lambda d: put(d, "offsets", 1, "q", 5), _RANGE),
    "offsets-end-short": (lambda d: put(d, "offsets", 4, "q", 5), _RANGE),
    "target-out-of-range": (lambda d: put(d, "targets", 0, "i", 4), _RANGE),  # the state count
    "target-negative": (lambda d: put(d, "targets", 2, "i", -1), _RANGE),
    "nan-weight": (lambda d: put(d, "weights", 3, "d", math.nan), _RANGE),
    "infinite-weight": (lambda d: put(d, "weights", 0, "d", math.inf), _RANGE),
    "final-state-negative": (lambda d: put(d, "final_states", 1, "i", -1), _RANGE),
    "infinite-final-weight": (lambda d: put(d, "final_weights", 1, "d", -math.inf), _RANGE),
    "final-state-out-of-range": (lambda d: put(d, "final_states", 0, "i", 4), _RANGE),
    "final-state-twice": (lambda d: put(d, "final_states", 0, "i", 0), _RANGE),
    "initial-out-of-range": (lambda d: set_header(d, initial=4), _RANGE),
    "label-not-listed": (lambda d: put(d, "arc_labels", 0, "i", 7), _LABELS),
    "label-list-short": (lambda d: put(d, "names", 0, "B", ord("\n")), _LABELS),
    "symbols-not-utf8": (lambda d: put(d, "names", 0, "B", 0xff), "symbols are not UTF-8"),
    "wrong-item-size": (lambda d: set_header(d, i_size=8), "item sizes differ"),
    "wrong-byte-order": (lambda d: set_header(d, little=1 - d[8]), "byte order"),
    # The retired versions 1 and 2 (version 2 had an output-label column):
    # their companions are not used either.
    "magic": (lambda d: set_header(d, magic=b"gboostG\x01"), "not a graph companion"),
    "magic-version-2": (lambda d: set_header(d, magic=b"gboostG\x02"), "not a graph companion"),
}


@pytest.mark.parametrize("name", sorted(_BROKEN))
def test_resealed_broken_companion_falls_back(tmp_path, name):
    """A companion with a correct digest still passes every check or is not used."""
    fst = odd_graph()
    path = str(tmp_path / "g.fst")
    save(fst, path)
    data = bytearray(Path(path + COMPANION_SUFFIX).read_bytes())
    damage, reason = _BROKEN[name]
    damage(data)
    Path(path + COMPANION_SUFFIX).write_bytes(sealed(data))
    got, source = load(path, fst.symbols)
    assert source.startswith("text (companion corrupt: ") and reason in source
    assert graph_state(got) == graph_state(parsed(path, fst.symbols))


def test_a_sum_of_weights_that_overflows_still_loads(tmp_path):
    """Every weight finite but their sum not: the companion is used."""
    fst = add_arcs(empty_graph(SymbolTable(["a"]), 2, 0, {1: 0.0}),
                   (0, 1, 1, 1e308), (0, 1, 1, 1e308), (1, 0, 1, -1e308))
    path = str(tmp_path / "g.fst")
    for negate in (False, True):
        save(fst, path, negate)
        got, source = load(path, fst.symbols, negate)
        assert source == "companion"
        assert graph_state(got) == graph_state(parsed(path, fst.symbols, negate))


_C_INTS = st.integers(-ID_MAX - 1, ID_MAX)
_C_DOUBLES = st.one_of(st.floats(), st.sampled_from([1e308, -1e308, math.inf, -math.inf]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_C_INTS, max_size=6), st.integers(1, ID_MAX + 1),
       st.lists(_C_DOUBLES, max_size=6))
@example([-1], 4, [math.nan])
@example([4], 4, [1e308, 1e308])
@example([ID_MAX], ID_MAX + 1, [math.inf, -math.inf])
def test_the_companion_range_checks_are_the_per_item_ones(ids, bound, weights):
    """One max over the ids read unsigned, one sum over the weights: the same verdicts."""
    assert gboost.fst._below(array("i", ids), bound) == all(0 <= i < bound for i in ids)
    assert gboost.fst._finite(array("d", weights)) == all(map(math.isfinite, weights))


def stale(path):
    """Edit the text at ``path``, an odd_graph's, so it prints the same graph another way."""
    text = Path(path).read_text()
    assert "2 0 a a -0\n" in text
    Path(path).write_text(text.replace("2 0 a a -0\n", "2 0 a a -0.0\n"))


def unsealed(data):
    """A payload byte flipped, its digest left as it was."""
    data[sections(data)["weights"][0]] ^= 1
    return data


def unknown_symbol(path):
    """Append an arc line with a symbol the table lacks to the text at ``path``."""
    with open(path, "a") as handle:
        handle.write("0 1 zz zz 1\n")


# How each case damages a saved odd_graph and its companion, and the source
# load_graph then names, None where load_graph raises. A damage returns the
# companion's new bytes, or None to delete it; the helpers it calls change
# their argument in place and return None.
_LOADS = {
    "companion": (lambda path, data: data, "companion"),
    "missing": (lambda path, data: None, "text (companion missing)"),
    "short": (lambda path, data: data[:10],
              "text (companion corrupt: shorter than its header)"),
    "magic": (lambda path, data: _BROKEN["magic"][0](data) or data,
              "text (companion corrupt: not a graph companion)"),
    "size": (lambda path, data: data + b"\0",
             "text (companion corrupt: its size does not match its header)"),
    "stale": (lambda path, data: stale(path) or data, "text (companion stale)"),
    "payload": (lambda path, data: unsealed(data),
                "text (companion corrupt: payload digest mismatch)"),
    "range": (lambda path, data: sealed(_BROKEN["nan-weight"][0](data) or data),
              f"text (companion corrupt: {_RANGE})"),
    "utf8": (lambda path, data: sealed(_BROKEN["symbols-not-utf8"][0](data) or data),
             "text (companion corrupt: its symbols are not UTF-8)"),
    "labels": (lambda path, data: sealed(_BROKEN["label-not-listed"][0](data) or data),
               f"text (companion corrupt: {_LABELS})"),
    "bad-text": (lambda path, data: unknown_symbol(path) or data, None),
}


@pytest.mark.parametrize("case", [*_LOADS, "convention", "symbols", "helper-raises"])
def test_load_graph_joins_its_helper_thread(tmp_path, monkeypatch, case):
    """Whether the companion is used, turned away for any reason, or the load raises,
    no thread the load started is left alive, and the source is the one named."""
    fst = odd_graph()
    path = str(tmp_path / "g.fst")
    save(fst, path)
    symbols, negate = fst.symbols, False
    companion = Path(path + COMPANION_SUFFIX)
    if case in _LOADS:
        damage, want = _LOADS[case]
        data = damage(path, bytearray(companion.read_bytes()))
        if data is None:
            companion.unlink()
        else:
            companion.write_bytes(data)
    elif case == "convention":
        negate, want = True, "text (companion convention)"
    elif case == "symbols":
        symbols, want = SymbolTable(["b", "a", "c"]), "text (companion symbols)"
    else:
        want = "text (companion corrupt: the text cannot be read)"

    def digest(path, real=gboost.fst._file_digest):
        if case == "helper-raises":
            raise OSError("the text cannot be read")
        time.sleep(0.02)  # outlasts the payload checks: a load that does not join shows
        return real(path)

    monkeypatch.setattr(gboost.fst, "_file_digest", digest)
    threads = threading.active_count()
    if want is None:
        with pytest.raises(FormatError, match="unknown symbol: 'zz'"):
            load_graph(path, symbols, negate=negate)
    else:
        got, source = load(path, symbols, negate)
        assert source == want
        assert graph_state(got) == graph_state(parsed(path, symbols, negate))
    assert threading.active_count() == threads


@pytest.mark.parametrize("damage", ["payload", "range"])
def test_a_stale_companion_with_a_corrupt_payload_is_stale(tmp_path, damage):
    """The text is hashed beside the payload checks, and still decides first."""
    fst = odd_graph()
    path = str(tmp_path / "g.fst")
    save(fst, path)
    companion = Path(path + COMPANION_SUFFIX)
    companion.write_bytes(_LOADS[damage][0](path, bytearray(companion.read_bytes())))
    assert load(path, fst.symbols)[1] == _LOADS[damage][1]
    stale(path)
    got, source = load(path, fst.symbols)
    assert source == "text (companion stale)"
    assert graph_state(got) == graph_state(parsed(path, fst.symbols))


def test_inflated_header_allocates_nothing(tmp_path):
    fst = odd_graph()
    path = str(tmp_path / "g.fst")
    save(fst, path)
    data = bytearray(Path(path + COMPANION_SUFFIX).read_bytes())
    set_header(data, arcs=2 ** 40)
    Path(path + COMPANION_SUFFIX).write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(gboost.fst._Fallback, match="size does not match"):
            gboost.fst._read_companion(path, fst.symbols, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


_FUZZ_GRAPH = random_graph(11, n_states=12, n_arcs=40, epsilon_arcs=2)
_FUZZ_COUNTS = ("states", "arcs", "finals", "pairs", "names")


@settings(max_examples=200, deadline=2000)
@given(st.data())
def test_damaged_companion_loads_as_the_text_reads(data):
    """Truncated, flipped or inflated: the loader returns read_text's graph, or its error."""
    fst = _FUZZ_GRAPH
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.fst")
        save(fst, path)
        companion = bytearray(Path(path + COMPANION_SUFFIX).read_bytes())
        damage = data.draw(st.sampled_from(["truncate", "flip", "inflate"]))
        if damage == "truncate":
            del companion[data.draw(st.integers(0, len(companion) - 1)):]
        elif damage == "flip":
            for at in data.draw(st.sets(st.integers(0, len(companion) - 1), min_size=1,
                                        max_size=4)):
                companion[at] ^= data.draw(st.integers(1, 255))
        else:
            count = data.draw(st.sampled_from(_FUZZ_COUNTS))
            set_header(companion, **{count: data.draw(st.sampled_from(
                [2 ** 40, 2 ** 62, -1, ID_MAX + 1]))})
        Path(path + COMPANION_SUFFIX).write_bytes(companion)
        if data.draw(st.booleans()):  # and a bad text
            with open(path, "a") as handle:
                handle.write(data.draw(st.sampled_from(["0 1 zz zz 1\n", "3 x\n", "0 1\n"])))
        try:
            want = graph_state(parsed(path, fst.symbols))
        except FormatError as exc:
            with pytest.raises(FormatError) as info:
                load_graph(path, fst.symbols)
            assert str(info.value) == str(exc)
        else:
            got, source = load(path, fst.symbols)
            assert source.startswith("text (companion ")
            assert graph_state(got) == want
