import io
import math
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from gboost.errors import FormatError, InvariantError
from gboost.fst import (EPSILON, Arc, FstDiff, SymbolTable, Wfst, apply_diff,
                        diff, path_weight, read_text, write_text)


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

    def test_read_requires_epsilon_first(self):
        with pytest.raises(FormatError, match="line 1"):
            SymbolTable.read(io.StringIO("a\t1\n<eps>\t0\n"))


class TestWfstBasics:
    def test_arc_weight_must_be_finite(self):
        fst = Wfst(SymbolTable(["a"]))
        fst.add_state()
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvariantError):
                fst.add_arc(0, 0, 1, 1, bad)

    def test_arc_states_must_exist(self):
        fst = Wfst(SymbolTable(["a"]))
        fst.add_state()
        with pytest.raises(InvariantError, match="unknown state"):
            fst.add_arc(0, 5, 1, 1, 0.0)

    def test_arcs_preserve_insertion_order(self):
        fst = Wfst(SymbolTable(["a", "b"]))
        fst.add_state()
        fst.add_arc(0, 0, 2, 2, -1.0)
        fst.add_arc(0, 0, 1, 1, -2.0)
        assert [ilabel for (_, ilabel, _, _) in fst.arcs(0)] == [2, 1]

    def test_arcs_matching_tracks_mutation(self):
        fst = Wfst(SymbolTable(["a"]))
        fst.add_state()
        assert fst.arcs_matching(0, 1) == []
        fst.add_arc(0, 0, 1, 1, -1.0)
        assert fst.arcs_matching(0, 1) == [(0, 1, 1, -1.0)]

    def test_copy_is_independent(self):
        fst = Wfst(SymbolTable(["a"]))
        fst.add_state()
        fst.add_arc(0, 0, 1, 1, -1.0)
        fst.set_initial(0)
        dup = fst.copy()
        dup.add_arc(0, 0, 1, 1, -2.0)
        dup.symbols.add("b")
        assert fst.num_arcs() == 1
        assert "b" not in fst.symbols


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
            out.add_arc(rng.randrange(out.num_states()), rng.randrange(out.num_states()),
                        rng.randint(1, 3), rng.randint(1, 3), round(rng.uniform(-4, 4), 6))
        elif choice < 0.6:
            state = rng.randrange(out.num_states())
            arcs = out.arcs(state)
            if arcs:
                arcs.pop(rng.randrange(len(arcs)))
                out._reset_best(state)
        elif choice < 0.85:
            state = rng.randrange(out.num_states())
            arcs = out.arcs(state)
            if arcs:
                pos = rng.randrange(len(arcs))
                arcs[pos] = arcs[pos][:3] + (round(rng.uniform(-4, 4), 6),)
                out._reset_best(state)
        else:
            out.set_final(rng.randrange(out.num_states()), round(rng.uniform(-1, 1), 6))
    return out


class TestDiff:
    def test_identical_graphs_yield_empty_diff(self, two_path_acceptor):
        delta = diff(two_path_acceptor, two_path_acceptor.copy())
        assert delta.is_empty()

    def test_single_weight_perturbation(self, two_path_acceptor):
        other = two_path_acceptor.copy()
        arcs = other.arcs(0)
        arcs[0] = arcs[0][:3] + (0.5 + 1e-6,)
        delta = diff(two_path_acceptor, other)
        assert delta.added_arcs == [] and delta.removed_arcs == []
        assert len(delta.reweighted_arcs) == 1
        before, after = delta.reweighted_arcs[0]
        assert before.weight == 0.5 and after.weight == 0.5 + 1e-6

    def test_added_arc_reported(self, two_path_acceptor):
        other = two_path_acceptor.copy()
        table = other.symbols
        other.add_arc(0, 1, table.label("c"), table.label("c"), -2.0)
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

    def test_state_count_mismatch_rejected(self, two_path_acceptor):
        other = two_path_acceptor.copy()
        other.add_state()
        with pytest.raises(InvariantError, match="state count"):
            diff(two_path_acceptor, other)

    def test_apply_diff_rejects_malformed_entries(self, two_path_acceptor):
        fst = two_path_acceptor
        a, x, c = (fst.symbols.label(s) for s in "axc")
        fst.add_arc(2, 0, c, c, 1.0)  # source -1 would name the last state
        deltas = [
            FstDiff(removed_arcs=[Arc(7, 1, a, x, 0.5)]),
            FstDiff(removed_arcs=[Arc(-1, 0, c, c, 1.0)]),
            FstDiff(reweighted_arcs=[(Arc(0, 1, a, x, 0.5), Arc(0, 1, a, x, math.nan))]),
            FstDiff(reweighted_arcs=[(Arc(0, 1, a, x, 0.5), Arc(0, 2, a, x, 0.5))]),
            FstDiff(added_arcs=[Arc(7, 1, a, x, 0.5)]),
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
            assert diff(replayed, b).is_empty()

    def test_replay_on_thousand_arc_graph(self, random_graph_factory):
        rng = random.Random(31337)
        a = random_graph_factory(8, n_states=80, n_arcs=1000, n_symbols=5)
        b = perturb(a, rng)
        for _ in range(5):
            b = perturb(b, rng)
        replayed = apply_diff(a.copy(), diff(a, b))
        assert oracles.graphs_equal(replayed, b)

    def test_empty_diff_iff_equal(self, random_graph_factory):
        a = random_graph_factory(5, n_states=10, n_arcs=40, n_symbols=3)
        assert diff(a, a.copy()).is_empty()
        b = perturb(a, random.Random(1))
        assert diff(a, b).is_empty() == oracles.graphs_equal(a, b)


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
        assert diff(canonical, again).is_empty()

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
        assert diff(two_path_acceptor, again).is_empty()

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


@given(st.lists(st.floats(min_value=-20, max_value=5), min_size=1, max_size=6),
       st.floats(min_value=-5, max_value=5))
def test_chain_path_weight_matches_sum(weights, final_weight):
    table = SymbolTable(["a"])
    fst = Wfst(table)
    for _ in range(len(weights) + 1):
        fst.add_state()
    for i, w in enumerate(weights):
        fst.add_arc(i, i + 1, 1, 1, w)
    fst.set_final(len(weights), final_weight)
    fst.set_initial(0)
    total = path_weight(fst, ["a"] * len(weights))
    assert total == pytest.approx(sum(weights) + final_weight, abs=1e-12)
