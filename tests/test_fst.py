import gc
import io
import logging
import math
import os
import random
import struct
import tempfile
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
from gboost.enhance import enhance
from gboost.fst import (COMPANION_SUFFIX, EPSILON, ID_MAX, WEIGHT_FMT, Arc, FstDiff,
                        SymbolTable, _HEADER, _best_table, _hash, apply_diff, diff,
                        load_graph, read_text, write_companion, write_text)
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
        table = SymbolTable(["a"])
        with pytest.raises(InvariantError):
            table.add("a")

    def test_duplicate_label_rejected(self):
        table = SymbolTable()
        table.add("a", label=7)
        with pytest.raises(InvariantError):
            table.add("b", label=7)

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
        """Holes first, then past the top: the same in a read table and its copies."""
        table = SymbolTable.read(io.StringIO("<eps>\t0\na\t1\nb\t2\nc\t5\n"))
        copy = table.copy()
        assert [copy.add(w) for w in "wxyz"] == [3, 4, 6, 7]
        assert [table.add(w) for w in "wx"] == [3, 4]
        dense = SymbolTable.read(io.StringIO("<eps>\t0\na\t1\nb\t2\n"))
        assert dense._next == 3  # a copy's first new word searches no taken label
        assert dense.copy().add("w") == 3

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
        with pytest.raises(InvariantError):
            SymbolTable().add("a", ID_MAX + 1)

    def test_symbol_a_file_cannot_hold_rejected(self):
        table = SymbolTable(["a"])
        for bad in ("", "new word", " a", "a\t", "a\nb", "a\u00a0b"):
            with pytest.raises(InvariantError, match="non-empty and hold no whitespace"):
                table.add(bad)
        assert table == SymbolTable(["a"])

    def test_read_skips_leading_blank_lines(self):
        table = SymbolTable.read(io.StringIO("\n<eps>\t0\na\t1\n"))
        assert table == SymbolTable(["a"])


class TestWfstBasics:
    def test_arcs_preserve_insertion_order(self):
        fst = empty_graph(SymbolTable(["a", "b"]), 1)
        add_arcs(fst, (0, 0, 2, 2, -1.0), (0, 0, 1, 1, -2.0))
        assert [ilabel for (_, ilabel, _, _) in fst.arcs(0)] == [2, 1]

    def test_arcs_matching_tracks_mutation(self):
        fst = empty_graph(SymbolTable(["a"]), 1)
        assert arcs_matching(fst, 0, 1) == []
        add_arcs(fst, (0, 0, 1, 1, -1.0))
        assert arcs_matching(fst, 0, 1) == [(0, 1, 1, -1.0)]

    def test_copy_is_independent(self):
        fst = empty_graph(SymbolTable(["a"]), 1)
        add_arcs(fst, (0, 0, 1, 1, -1.0))
        fst.set_initial(0)
        dup = fst.copy()
        add_arcs(dup, (0, 0, 1, 1, -2.0))
        dup.symbols.add("b")
        assert fst.num_arcs() == 1
        assert "b" not in fst.symbols


def text_of(fst):
    buf = io.StringIO()
    write_text(fst, buf)
    return buf.getvalue()


def random_edit(fst, rng):
    """One random arc edit of ``fst``, as a one-entry diff."""
    n = fst.num_states()
    new_arc = Arc(rng.randrange(n), rng.randrange(n), rng.randint(1, 3), rng.randint(1, 3),
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


class TestCopyOnWrite:
    def test_copies_stay_independent(self, random_graph_factory):
        """Each graph sees its own edits only, through text, tables and scans.

        A copy is taken after four edits and a copy of that copy after
        eight; then all three graphs are edited in turn. After every edit
        each graph must equal a fresh read of the base text with that
        graph's own edits replayed. Every graph's tables and scan are read
        after every edit, so a later write that skips the clone, the table
        reset or the memo drop shows.
        """
        labels = {1, 2}
        for seed in range(40):
            rng = random.Random(seed)
            base = random_graph_factory(seed, n_states=6, n_arcs=20, n_symbols=3)
            base.set_final(base.initial, 0.0)  # stays writable when its arcs go
            base_text, symbols = text_of(base), base.symbols
            graphs = [read_text(io.StringIO(base_text), symbols)]
            edits = [[]]
            for step in range(30):
                if step in (4, 8):
                    graphs.append(graphs[-1].copy())
                    edits.append(list(edits[-1]))
                which = rng.randrange(len(graphs))
                edit = random_edit(graphs[which], rng)
                apply_diff(graphs[which], edit)
                edits[which].append(edit)
                for fst, log in zip(graphs, edits):
                    reference = read_text(io.StringIO(base_text), symbols)
                    for done in log:
                        apply_diff(reference, done)
                    assert text_of(fst) == text_of(reference), (seed, step)
                    assert ([fst.best_arcs(s) for s in fst.states()]
                            == [reference.best_arcs(s) for s in reference.states()])
                    assert fst.scan(labels) == reference.scan(labels), (seed, step)
                    assert fst.scan(labels) == oracles.scan_by_arc(fst, labels)

    def test_writes_reach_no_sibling_and_tables_stay_shared(self, random_graph_factory):
        """A copy's write stays in its own overlay; unwritten states share one table."""
        source = random_graph_factory(3, n_states=8, n_arcs=30, n_symbols=3)
        base = read_text(io.StringIO(text_of(source)), source.symbols)
        written, untouched = [s for s in base.states() if base.num_arcs(s)][:2]
        base_arcs = base.arcs(written)
        left, right = base.copy(), base.copy()
        # A table built through one copy serves the original and the sibling.
        table, written_table = left.best_arcs(untouched), right.best_arcs(written)
        assert right.best_arcs(untouched) is table and base.best_arcs(untouched) is table
        assert base.best_arcs(written) is written_table
        add_arcs(left, (written, 0, 1, 1, 9.0))
        add_arcs(right, (written, 1, 2, 2, 8.0))
        assert base.arcs(written) == base_arcs
        assert left.arcs(written) == base_arcs + [(0, 1, 1, 9.0)]
        assert right.arcs(written) == base_arcs + [(1, 2, 2, 8.0)]
        assert base.best_arcs(written) is written_table
        assert left.best_arcs(written)[1] == (0, 1, 1, 9.0)
        # A copy of a written copy gets an equal overlay list of its own.
        grand = left.copy()
        assert grand.arcs(written) == left.arcs(written)
        assert grand.arcs(written) is not left.arcs(written)
        apply_diff(grand, FstDiff(removed_arcs=[Arc(written, 0, 1, 1, 9.0)]))
        assert grand.arcs(written) == base_arcs
        assert left.arcs(written)[-1] == (0, 1, 1, 9.0)
        # The original's own writes reach no copy either.
        add_arcs(base, (untouched, 2, 3, 3, 7.0))
        assert all(g.arcs(untouched) == base.arcs(untouched)[:-1]
                   for g in (left, right, grand))
        assert base.best_arcs(untouched) is not table
        for g in (left, right, grand):
            assert g.best_arcs(untouched) is table

    def test_scan_groups_matching_arcs_in_order(self, two_path_acceptor):
        fst = two_path_acceptor
        a, b, c = (fst.symbols.label(s) for s in "abc")
        found = fst.scan([c, a])
        assert found == {a: [(0, (1, a, fst.symbols.label("x"), 0.5))],
                         c: [(1, (2, c, fst.symbols.label("z"), 2.5))]}
        add_arcs(fst, (0, 2, b, b, -1.0))
        assert fst.scan({b}) == {b: [(0, (1, b, fst.symbols.label("y"), 1.5)),
                                     (0, (2, b, b, -1.0))]}


class TestBestArcTables:
    """A written state's table: the shared column table plus appended arcs, or a rebuild."""

    # Labels a=1, b=2, c=3. State 0 holds ties on a (two arcs at 1.0) and
    # a label on two arcs with different weights (b).
    ARCS = [(0, 1, "a", "a", 1.0), (0, 2, "a", "a", 1.0), (0, 1, "b", "b", 0.5),
            (0, 2, "b", "b", 2.0), (0, 3, "c", "c", -1.0), (1, 3, "a", "a", 0.0),
            (2, 3, "b", "b", 0.0)]
    APPEND = [Arc(0, 3, 1, 1, 1.0), Arc(0, 3, 2, 2, 2.5), Arc(0, 1, 3, 3, -1.0),
              Arc(0, 2, 0, 0, -0.5), Arc(0, 1, 0, 0, -0.5)]
    EDITS = {
        # edit name: (diffs applied in turn, whether each table is derived)
        "append": ([FstDiff(added_arcs=APPEND)], [True]),
        "append twice": ([FstDiff(added_arcs=APPEND[:2]), FstDiff(added_arcs=APPEND[2:])],
                         [True, True]),
        "remove": ([FstDiff(removed_arcs=[Arc(0, 1, 1, 1, 1.0)])], [False]),
        "reweight": ([FstDiff(reweighted_arcs=[(Arc(0, 2, 2, 2, 2.0),
                                                Arc(0, 2, 2, 2, 0.25))])], [False]),
        "reweight to the same weight": ([FstDiff(reweighted_arcs=[
            (Arc(0, 1, 1, 1, 1.0), Arc(0, 1, 1, 1, 1.0))])], [False]),
        "remove, then append the same arc": (
            [FstDiff(removed_arcs=[Arc(0, 1, 1, 1, 1.0)]),
             FstDiff(added_arcs=[Arc(0, 1, 1, 1, 1.0)])], [False, False]),
        "append, then remove": ([FstDiff(added_arcs=APPEND),
                                 FstDiff(removed_arcs=[Arc(0, 2, 1, 1, 1.0)])],
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
        assert shared == {1: (1, 1, 1, 1.0), 2: (2, 2, 2, 2.0), 3: (3, 3, 3, -1.0)}
        fst, sibling = base.copy(), base.copy()
        diffs, expected = self.EDITS[edit]
        derived.clear()
        for delta in diffs:
            apply_diff(fst, delta)
            table = fst.best_arcs(0)
            assert table == _best_table(fst.arcs(0))
            assert table is not shared
        assert derived == expected
        assert shared == {1: (1, 1, 1, 1.0), 2: (2, 2, 2, 2.0), 3: (3, 3, 3, -1.0)}
        assert sibling.best_arcs(0) is shared and base.best_arcs(0) is shared

    def test_tables_follow_random_edits(self, random_graph_factory):
        for seed in range(20):
            rng = random.Random(seed)
            source = random_graph_factory(seed, n_states=6, n_arcs=24, n_symbols=3)
            base = read_text(io.StringIO(text_of(source)), source.symbols)
            graphs = [base.copy(), base.copy()]
            for step in range(25):
                fst = rng.choice(graphs)
                apply_diff(fst, random_edit(fst, rng))
                for fst in graphs + [base]:
                    for state in fst.states():
                        assert (fst.best_arcs(state) == _best_table(fst.arcs(state))
                                ), (seed, step, state)


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
            [(0, 1, "a", "a", -1.0), (0, 1, "a", "a", -2.0), (1, 2, "b", "b", 0.0)],
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
            [(0, 1, "<eps>", "<eps>", -0.5), (1, 2, "a", "a", -1.0)],
            {2: 0.0},
        )
        assert path_weight(fst, ["a"]) == pytest.approx(-1.5, abs=1e-12)

    def test_positive_epsilon_cycle_detected(self, fst_factory):
        fst = fst_factory(
            "a",
            [(0, 1, "<eps>", "<eps>", 1.0), (1, 0, "<eps>", "<eps>", 1.0),
             (0, 2, "a", "a", 0.0)],
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
                expected = oracles.best_path_weight(fst, labels)
                got = path_weight(fst, labels)
                if expected is None:
                    assert got is None
                else:
                    assert got == pytest.approx(expected, abs=1e-9)

    def test_unique_path_weight_is_plain_sum(self, fst_factory):
        weights = [-0.125, -3.25, 0.75]
        arcs = [(i, i + 1, "a", "a", w) for i, w in enumerate(weights)]
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
            target, ilabel, _, _ = rng.choice(arcs)
            if ilabel != 0:
                labels.append(ilabel)
            state = target


def perturb(fst, rng):
    """Copy a graph and apply a few random structural edits."""
    out = fst.copy()
    for _ in range(rng.randint(1, 6)):
        choice = rng.random()
        if choice < 0.35:
            add_arcs(out, (rng.randrange(out.num_states()), rng.randrange(out.num_states()),
                           rng.randint(1, 3), rng.randint(1, 3), round(rng.uniform(-4, 4), 6)))
        elif choice < 0.6:
            state = rng.randrange(out.num_states())
            arcs = out._writable(state)
            if arcs:
                arcs.pop(rng.randrange(len(arcs)))
        elif choice < 0.85:
            state = rng.randrange(out.num_states())
            arcs = out._writable(state)
            if arcs:
                pos = rng.randrange(len(arcs))
                arcs[pos] = arcs[pos][:3] + (round(rng.uniform(-4, 4), 6),)
        else:
            out.set_final(rng.randrange(out.num_states()), round(rng.uniform(-1, 1), 6))
    return out


class TestDiff:
    def test_identical_graphs_yield_empty_diff(self, two_path_acceptor):
        delta = diff(two_path_acceptor, two_path_acceptor.copy())
        assert delta == FstDiff()

    def test_single_weight_perturbation(self, two_path_acceptor):
        other = two_path_acceptor.copy()
        arcs = other._writable(0)
        arcs[0] = arcs[0][:3] + (0.5 + 1e-6,)
        delta = diff(two_path_acceptor, other)
        assert delta.added_arcs == [] and delta.removed_arcs == []
        assert len(delta.reweighted_arcs) == 1
        before, after = delta.reweighted_arcs[0]
        assert before.weight == 0.5 and after.weight == 0.5 + 1e-6

    def test_added_arc_reported(self, two_path_acceptor):
        other = two_path_acceptor.copy()
        table = other.symbols
        add_arcs(other, (0, 1, table.label("c"), table.label("c"), -2.0))
        delta = diff(two_path_acceptor, other)
        assert len(delta.added_arcs) == 1 and delta.added_arcs[0].weight == -2.0
        assert delta.removed_arcs == [] and delta.reweighted_arcs == []

    def test_final_change_reported(self, two_path_acceptor):
        other = two_path_acceptor.copy()
        other.set_final(1, 0.0)
        delta = diff(two_path_acceptor, other)
        assert delta.final_changes == [(1, None, 0.0)]

    def test_mismatched_symbol_tables_rejected(self, two_path_acceptor, fst_factory):
        other = fst_factory("a", [(0, 1, "a", "a", 0.5)], {1: 0.0})
        with pytest.raises(InvariantError, match="symbol table"):
            diff(two_path_acceptor, other)

    def test_state_count_mismatch_rejected(self, two_path_acceptor, fst_factory):
        other = fst_factory("a b c x y z", [(0, 1, "a", "x", 0.5), (0, 1, "b", "y", 1.5),
                                            (1, 2, "c", "z", 2.5)], {2: 3.5}, num_states=4)
        with pytest.raises(InvariantError, match="state count"):
            diff(two_path_acceptor, other)

    def test_apply_diff_rejects_malformed_entries(self, two_path_acceptor):
        fst = two_path_acceptor
        a, x, c = (fst.symbols.label(s) for s in "axc")
        add_arcs(fst, (2, 0, c, c, 1.0))  # source -1 would name the last state
        deltas = [
            FstDiff(removed_arcs=[Arc(7, 1, a, x, 0.5)]),
            FstDiff(removed_arcs=[Arc(-1, 0, c, c, 1.0)]),
            FstDiff(reweighted_arcs=[(Arc(0, 1, a, x, 0.5), Arc(0, 1, a, x, math.nan))]),
            FstDiff(reweighted_arcs=[(Arc(0, 1, a, x, 0.5), Arc(0, 2, a, x, 0.5))]),
            FstDiff(added_arcs=[Arc(7, 1, a, x, 0.5)]),
            FstDiff(added_arcs=[Arc(0, 7, a, x, 0.5)]),
            FstDiff(added_arcs=[Arc(0, 1, -1, x, 0.5)]),
            FstDiff(added_arcs=[Arc(0, 1, a, -1, 0.5)]),
            *(FstDiff(added_arcs=[Arc(0, 1, a, x, bad)])
              for bad in (math.inf, -math.inf, math.nan)),
        ]
        for delta in deltas:
            with pytest.raises(InvariantError):
                apply_diff(fst.copy(), delta)

    def test_replay_reproduces_target(self, random_graph_factory):
        rng = random.Random(4242)
        for seed in range(40):
            a = random_graph_factory(seed, n_states=12, n_arcs=60, n_symbols=3)
            b = perturb(a, rng)
            delta = diff(a, b)
            replayed = apply_diff(a.copy(), delta)
            assert oracles.graphs_equal(replayed, b)
            assert diff(replayed, b) == FstDiff()

    def test_replay_on_thousand_arc_graph(self, random_graph_factory):
        rng = random.Random(31337)
        a = random_graph_factory(8, n_states=80, n_arcs=1000, n_symbols=5)
        b = perturb(a, rng)
        for _ in range(5):
            b = perturb(b, rng)
        replayed = apply_diff(a.copy(), diff(a, b))
        assert oracles.graphs_equal(replayed, b)

    def test_diff_matches_grouping_reference(self, random_graph_factory):
        """The equal-list fast path changes no entry of the grouping diff.

        Pairs: a graph and its edited copy (untouched lists shared), both
        ways; a fresh read of the copy (equal lists, none shared); a plain
        copy; a copy with one state's arcs reversed (unequal lists, equal
        groups); fresh reads of both (columns compared run by run), both
        ways; a fresh read and its edited copy (shared columns).
        """
        rng = random.Random(6174)
        for seed in range(40):
            a = random_graph_factory(seed, n_states=12, n_arcs=60, n_symbols=3,
                                     epsilon_arcs=3)
            b = perturb(a, rng)
            fresh_a = read_text(io.StringIO(text_of(a)), a.symbols)
            fresh_b = read_text(io.StringIO(text_of(b)), b.symbols)
            reversed_a = a.copy()
            reversed_a._writable(seed % 12).reverse()
            for before, after in ((a, b), (b, a), (a, fresh_b), (fresh_b, b),
                                  (a, a.copy()), (a, reversed_a), (fresh_a, fresh_b),
                                  (fresh_b, fresh_a), (fresh_a, perturb(fresh_a, rng))):
                assert diff(before, after) == oracles.diff_by_groups(before, after), seed

    @pytest.mark.parametrize("state, appended, fast", [
        (0, [(2, "c", "c", -1.0), (1, "c", "c", -2.0)], True),  # new, distinct keys
        (2, [(0, "a", "a", 1.0)], True),  # appended to an empty list
        (0, [(2, "c", "c", -1.0), (2, "c", "c", -3.0)], False),  # repeated key
        (0, [(1, "a", "x", -2.0)], False),  # key already in before
    ])
    def test_appended_arcs_match_grouping_reference(self, two_path_acceptor, state,
                                                    appended, fast):
        """An append-only state takes the fast path only under new, distinct keys.

        A repeated or reused key must group: its weights match in sorted
        order, so the additions (and a reweight) differ from the suffix.
        """
        before = two_path_acceptor
        label = before.symbols.label
        suffix = [Arc(state, t, label(i), label(o), w) for t, i, o, w in appended]
        after = add_arcs(before.copy(), *suffix)
        delta = diff(before, after)
        assert delta == oracles.diff_by_groups(before, after)
        assert (delta == FstDiff(added_arcs=suffix)) == fast

    def test_apply_diff_appends_additions_in_delta_order(self, two_path_acceptor):
        a, b, c = (two_path_acceptor.symbols.label(s) for s in "abc")
        added = [Arc(0, 2, a, a, -1.0), Arc(1, 0, b, b, -2.0), Arc(0, 1, c, c, -3.0),
                 Arc(1, 1, a, a, -4.0), Arc(0, 2, a, a, -1.0)]
        by_arc = two_path_acceptor.copy()
        for arc in added:
            apply_diff(by_arc, FstDiff(added_arcs=[arc]))
        applied = apply_diff(two_path_acceptor.copy(), FstDiff(added_arcs=added))
        assert text_of(applied) == text_of(by_arc)

    def test_empty_diff_iff_equal(self, random_graph_factory):
        a = random_graph_factory(5, n_states=10, n_arcs=40, n_symbols=3)
        assert diff(a, a.copy()) == FstDiff()
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
        fst = fst_factory("a", [(1, 0, "a", "a", -1.0)], {0: 0.0}, initial=1)
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
        canonical = self.roundtrip(fst)  # weights now carry 9 significant digits
        again = self.roundtrip(canonical)
        assert diff(canonical, again) == FstDiff()

    def test_roundtrip_preserves_path_weights(self, random_graph_factory):
        fst = random_graph_factory(13, n_states=40, n_arcs=160, n_symbols=4)
        again = self.roundtrip(fst)
        rng = random.Random(77)
        for _ in range(100):
            labels = accepted_input(fst, rng)
            before = path_weight(fst, labels)
            after = path_weight(again, labels)
            assert before is not None
            assert after == pytest.approx(before, abs=1e-9)

    def test_negate_flag_flips_weights_both_ways(self, two_path_acceptor):
        buf = io.StringIO()
        write_text(two_path_acceptor, buf, negate=True)
        assert "-0.5" in buf.getvalue().split("\n")[0]
        again = read_text(io.StringIO(buf.getvalue()), two_path_acceptor.symbols,
                          negate=True)
        assert diff(two_path_acceptor, again) == FstDiff()

    def test_malformed_line_reports_line_number(self, two_path_acceptor):
        text = "0 1 a x 0.5\n0 1 b\n"
        with pytest.raises(FormatError, match="line 2"):
            read_text(io.StringIO(text), two_path_acceptor.symbols)

    def test_unknown_symbol_reports_line_number(self, two_path_acceptor):
        text = "0 1 nope nope 0.5\n"
        with pytest.raises(FormatError, match="line 1.*nope"):
            read_text(io.StringIO(text), two_path_acceptor.symbols)

    def test_negative_state_id_rejected(self, two_path_acceptor):
        with pytest.raises(FormatError, match="state id"):
            read_text(io.StringIO("-1 1 a a 0.5\n"), two_path_acceptor.symbols)

    def test_empty_file_rejected(self, two_path_acceptor):
        with pytest.raises(FormatError, match="empty"):
            read_text(io.StringIO(""), two_path_acceptor.symbols)

    def test_state_ids_are_bounded_by_the_record_count(self, monkeypatch):
        symbols = SymbolTable(["a"])
        allocated = []
        real = gboost.fst._from_columns
        monkeypatch.setattr(gboost.fst, "_from_columns", lambda table, offsets, *columns: real(
            table, allocated.append(len(offsets) - 1) or offsets, *columns))
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
        assert gappy.arcs(0) == [(3, 1, 1, -1.0)] and gappy.finals == {3: 0.0}

    def test_one_state_id_in_two_spellings(self):
        symbols = SymbolTable(["a"])
        chain = [f"{state} {state + 1} a a -1" for state in range(299)]
        text = "\n".join(chain + ["0299 300 a a -2", "0300 0 a a -3", "300 0.5"]) + "\n"
        fst = read_text(io.StringIO(text), symbols)
        assert fst.num_states() == 301
        assert fst.arcs(299) == [(300, 1, 1, -2.0)] and fst.arcs(300) == [(0, 1, 1, -3.0)]
        assert fst.finals == {300: 0.5}
        written = text_of(fst)
        assert "299 300 a a -2\n300 0 a a -3\n300 0.5\n" in written
        assert text_of(read_text(io.StringIO(written), symbols)) == written

    def test_last_state_without_a_record_rejected(self, fst_factory):
        # State 2: no arcs, not final, no arc into it.
        fst = fst_factory("a", [(0, 1, "a", "a", -1.0)], {1: 0.0}, num_states=3)
        with pytest.raises(InvariantError, match="last state, 2"):
            write_text(fst, io.StringIO())
        add_arcs(fst, (1, 2, 1, 1, 0.5))  # an arc into it names it in the file
        assert self.roundtrip(fst).num_states() == 3

    def test_last_state_named_only_by_a_live_arc(self):
        symbols = SymbolTable(["a"])
        fst = read_text(io.StringIO("0 1 a a -1\n1 2 a a -1\n1 0\n"), symbols)
        apply_diff(fst, FstDiff(removed_arcs=[Arc(1, 2, 1, 1, -1.0)]))
        with pytest.raises(InvariantError, match="last state, 2"):
            write_text(fst, io.StringIO())  # its column arc into 2 is gone
        add_arcs(fst, (0, 2, 1, 1, -2.0))
        assert self.roundtrip(fst).arcs(0) == [(1, 1, 1, -1.0), (2, 1, 1, -2.0)]

    def test_reader_matches_line_by_line_reference(self, random_graph_factory):
        rng = random.Random(5150)
        for seed in range(30):
            fst = random_graph_factory(seed, n_states=15, n_arcs=60, n_symbols=4,
                                       epsilon_arcs=5)
            for _ in range(6):  # parallel arcs, some exact duplicates
                state = rng.randrange(15)
                target, ilabel, olabel, weight = rng.choice(fst.arcs(state))
                if rng.random() < 0.5:
                    weight = round(rng.uniform(-5, 5), 6)
                add_arcs(fst, (state, target, ilabel, olabel, weight))
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
            fst = random_graph_factory(seed, n_states=20, n_arcs=80, epsilon_arcs=4)
            add_arcs(fst, (3, 4, 1, 2, 0.0), (3, 4, 1, 2, -0.0))
            fst.set_final(5, -0.0)
            fst.set_initial(seed % 19)  # a state with arcs, not always 0
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
        records = [[state, t, sym(i), sym(o), weight(w)] for t, i, o, w in fst.arcs(state)]
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
    fst = empty_graph(SymbolTable(["a"]), len(weights) + 1)
    add_arcs(fst, *[(i, i + 1, 1, 1, w) for i, w in enumerate(weights)])
    fst.set_final(len(weights), final_weight)
    fst.set_initial(0)
    total = path_weight(fst, ["a"] * len(weights))
    assert total == pytest.approx(sum(weights) + final_weight, abs=1e-12)


# -- text parsers under fuzzing ----------------------------------------------

_ID = st.sampled_from(["0", "1", "2", "3", "01", "-1", "x", ""])
_SYMBOL = st.sampled_from(["a", "b", "<eps>", "zz"])
_WEIGHT = st.sampled_from(["-0.5", "-0", "2.5e-3", "1_0", "1e999", "nan", "-inf", "w"])
_RECORD = st.one_of(st.tuples(_ID, _ID, _SYMBOL, _SYMBOL, _WEIGHT), st.tuples(_ID, _WEIGHT),
                    st.lists(st.one_of(_ID, _SYMBOL, _WEIGHT), max_size=6))
_LINE = st.builds(lambda fields, sep: sep.join(fields),
                  _RECORD, st.sampled_from([" ", "\t", "  "]))


@settings(max_examples=150, deadline=None)
@given(st.lists(_LINE, max_size=10).map("\n".join))
@example("0 1 a b nan")
@example("0\t1  a b 1e999\n1 0")
@example("0 1 a a -0.5\n1 -inf")
@example("0 1 a zz -1")
@example("2 0 b a -1\n0 1 a a 1_0\n0 3")
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
            columns.offsets.tolist(), columns.targets.tolist(), columns.ilabels.tolist(),
            columns.olabels.tolist(), columns.weights.tobytes(), fst._overlay)


def save(fst, path, negate=False):
    """Write ``fst`` to text file ``path`` and its companion beside it, as the CLI does."""
    with open(path, "w") as handle:
        written = write_text(fst, handle, negate=negate)
    with open(path + COMPANION_SUFFIX, "wb") as handle:
        write_companion(written, path, handle, negate=negate)


def load(path, symbols, negate=False):
    """load_graph's graph and the source its log line names."""
    logger = logging.getLogger("gboost.fst")
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger.addHandler(handler)
    level = logger.level
    logger.setLevel(logging.INFO)
    try:
        fst = load_graph(path, symbols, negate=negate)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    [record] = records
    return fst, record.getMessage().split(" from ", 1)[1].rsplit(": ", 1)[0]


def parsed(path, symbols, negate=False):
    with open(path) as handle:
        return read_text(handle, symbols, negate=negate)


def odd_graph():
    """-0.0 weights, three final states, initial state 2, one label on several
    arcs, and an output label that is no arc's input label."""
    table = SymbolTable(["a", "b", "c"])
    fst = add_arcs(empty_graph(table, 4), (2, 0, 1, 1, -0.0), (2, 1, 1, 2, 0.1),
                   (2, 3, 1, 1, -1 / 3), (0, 3, 2, 3, 1e-300), (1, 1, 0, 0, -0.0),
                   (3, 0, 2, 1, 2.0000000001))
    for state, weight in ((3, -0.0), (0, 0.7), (2, 1 / 7)):
        fst.set_final(state, weight)
    fst.set_initial(2)
    return fst


def enhanced_graph(seed):
    """A random back-off graph after enhancement: written states in the overlay."""
    rng = random.Random(seed)
    fst = random_backoff_graph(rng, VOCAB)
    enhance(fst, random_config(rng, VOCAB, fresh_token_stream()))
    return fst


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
@given(st.sampled_from(sorted(_GRAPHS)), st.integers(0, 2 ** 32), st.booleans())
@example("odd", 0, False)
@example("odd", 0, True)
def test_write_text_returns_what_read_text_reads(kind, seed, negate):
    fst = _GRAPHS[kind](seed)
    buf = io.StringIO()
    written = write_text(fst, buf, negate=negate)
    again = read_text(io.StringIO(buf.getvalue()), fst.symbols, negate=negate)
    assert graph_state(written) == graph_state(again)
    rewritten = io.StringIO()
    write_text(written, rewritten, negate=negate)
    assert rewritten.getvalue() == buf.getvalue()


def test_companion_of_an_enhanced_graph_is_that_of_its_text(tmp_path):
    """Folding the overlay and parsing the printed weights give the re-read graph's bytes."""
    fst = enhanced_graph(7)
    assert fst._overlay
    for negate in (False, True):
        first, second = str(tmp_path / "first.fst"), str(tmp_path / "second.fst")
        save(fst, first, negate)
        save(parsed(first, fst.symbols, negate), second, negate)
        assert Path(first).read_bytes() == Path(second).read_bytes()
        assert (Path(first + COMPANION_SUFFIX).read_bytes()
                == Path(second + COMPANION_SUFFIX).read_bytes())


def test_write_text_blocks_keep_column_order(monkeypatch):
    """Blocks cut anywhere: in a state's arcs, right after the initial state, per arc."""
    table = SymbolTable(["a", "b", "c"])
    # Initial state 2 has 3 arcs; state 0 has 7, more than a block of 3.
    arcs = [(2, 0, 1, 1, -1 / 3), (2, 1, 2, 2, -2 / 3), (2, 3, 3, 3, -1 / 7)]
    arcs += [(0, k % 4, k % 3 + 1, k % 3 + 1, -k / 9) for k in range(7)]
    arcs += [(3, 0, 2, 1, 1 / 11)]
    fst = add_arcs(empty_graph(table, 5), *arcs)
    fst.set_final(4, -0.25)
    fst.set_final(2, 1 / 13)
    fst.set_initial(2)
    enhanced = fst.copy()
    add_arcs(enhanced, (1, 4, 3, 3, -5 / 17), (0, 2, 2, 2, -6 / 19))
    for graph in (fst, enhanced):
        for negate in (False, True):
            want = io.StringIO()
            oracles.write_text_by_arc(graph, want, negate=negate)
            state = graph_state(read_text(io.StringIO(want.getvalue()), table, negate=negate))
            for block in (1, 2, 3, 4, 7, 1 << 14):
                monkeypatch.setattr(gboost.fst, "_BLOCK", block)
                got = io.StringIO()
                written = write_text(graph, got, negate=negate)
                assert got.getvalue() == want.getvalue(), (block, negate)
                assert graph_state(written) == state, (block, negate)


def test_write_text_refuses_what_read_text_refuses():
    # Nine states and one arc 0 -> 8: the file would name state 8, but
    # read_text bounds state ids by twice the number of arcs and final
    # states.
    sparse = add_arcs(empty_graph(SymbolTable(["a"]), 9), (0, 8, 1, 1, -1.0))
    sparse.set_initial(0)
    buf = io.StringIO()
    with pytest.raises(InvariantError, match="last state, 8, is at or above twice the "
                                             r"number of arcs and final states \(1\)"):
        write_text(sparse, buf)
    assert buf.getvalue() == ""  # refused before a byte is written
    sparse.set_final(1, 0.0)
    with pytest.raises(InvariantError, match=r"final states \(2\)"):
        write_text(sparse, buf)
    add_arcs(sparse, (0, 1, 1, 1, -1.0), (1, 0, 1, 1, -2.0))  # at the bound: 8 = 2 * 4
    with pytest.raises(InvariantError, match=r"final states \(4\)"):
        write_text(sparse, buf)
    assert buf.getvalue() == ""
    add_arcs(sparse, (1, 1, 1, 1, -3.0))  # five records: ids up to 9 read back
    written = write_text(sparse, buf)
    assert graph_state(written) == graph_state(read_text(io.StringIO(buf.getvalue()),
                                                         sparse.symbols))


def test_write_companion_refuses_a_graph_with_an_overlay(tmp_path):
    fst = enhanced_graph(3)
    path = str(tmp_path / "g.fst")
    with open(path, "w") as handle:
        write_text(fst, handle)
    with pytest.raises(InvariantError, match="overlay"):
        write_companion(fst, path, io.BytesIO())


def test_companion_serves_a_larger_symbol_table(tmp_path):
    fst = odd_graph()
    path = str(tmp_path / "g.fst")
    save(fst, path)
    larger = fst.symbols.copy()
    larger.add("d")
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
        text = Path(path).read_text()
        assert " 0.1\n" in text
        with open(path, "w") as handle:
            handle.write(text.replace(" 0.1\n", " 0.10\n"))
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
    sparse = gboost.fst._from_columns(SymbolTable(["a"]), array("q", [0] + [1] * 10),
                                      array("i", [9]), array("i", [1]), array("i", [1]),
                                      array("d", [-1.0]))
    sparse.initial = 0
    with open(path, "w") as handle:
        oracles.write_text_by_arc(sparse, handle)
    with open(path + COMPANION_SUFFIX, "wb") as handle:
        write_companion(sparse, path, handle)
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
             ("ilabels", 4 * arcs), ("olabels", 4 * arcs), ("weights", 8 * arcs),
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
    "target-out-of-range": (lambda d: put(d, "targets", 0, "i", 4), _RANGE),
    "target-negative": (lambda d: put(d, "targets", 2, "i", -1), _RANGE),
    "nan-weight": (lambda d: put(d, "weights", 3, "d", math.nan), _RANGE),
    "infinite-final-weight": (lambda d: put(d, "final_weights", 1, "d", -math.inf), _RANGE),
    "final-state-out-of-range": (lambda d: put(d, "final_states", 0, "i", 4), _RANGE),
    "final-state-twice": (lambda d: put(d, "final_states", 0, "i", 0), _RANGE),
    "initial-out-of-range": (lambda d: set_header(d, initial=4), _RANGE),
    "label-not-listed": (lambda d: put(d, "ilabels", 0, "i", 7), _LABELS),
    "label-list-short": (lambda d: put(d, "names", 0, "B", ord("\n")), _LABELS),
    "symbols-not-utf8": (lambda d: put(d, "names", 0, "B", 0xff), "symbols are not UTF-8"),
    "wrong-item-size": (lambda d: set_header(d, i_size=8), "item sizes differ"),
    "wrong-byte-order": (lambda d: set_header(d, little=1 - d[8]), "byte order"),
    # The retired version 1: its companions are not used either.
    "magic": (lambda d: set_header(d, magic=b"gboostG\x01"), "not a graph companion"),
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
