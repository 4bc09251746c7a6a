"""Weighted acceptors stored as shared arc columns, with text I/O and structural diffing.

Weights are natural-log probabilities throughout: larger means more likely,
and the weight of a path is the sum of its arc weights plus the final weight
of the state where it ends.  Cost-style (negated) files are handled at I/O
time only, via the ``negate`` flag of :func:`read_text`, :func:`write_text`
and :func:`append_text`.

Storage. Every graph is an acceptor: an arc carries one label, which it
reads and writes alike (Mohri, Pereira and Riley 2002, "Weighted
finite-state transducers in speech recognition"). A graph holds its arcs
in columns, grouped by source state (compressed sparse rows): per-state
offsets into one stdlib ``array`` each of targets and labels (C ``int``)
and of weights (C ``double``). That is about 16 bytes per arc and no
Python object per arc. A graph is complete when it is made:
:class:`Wfst`'s one constructor takes its symbol table, columns, initial
state and finals, and nothing changes any of them afterwards. Symbol
tables never change either, so graphs share them. What is computed from
arcs (best-arc tables, the enhancement memo) lives beside their columns.
:func:`gboost.enhance.enhance`, the one way to derive a graph from
another, returns a new graph over the old one's columns, or, when it
raises arcs, over a copy of their weight column with the raises written
in, and holds only the very ``Arc`` objects its diff adds, pending.
Scoring reads a state's added arcs from there; every other reader first
materializes the graph once, merging them into columns of its own. So a
graph that gains arcs and is then scored pays only for the states it
scores. State ids and labels must fit the C ``int`` columns.

Companion file. Text is the interchange format, and exact (see
``WEIGHT_FMT``); parsing it is the largest cost of reading a graph.
:func:`write_companion` writes, beside a graph's text file ``PATH``, a
binary copy ``PATH.bin`` of the graph written there, which
:func:`load_graph` loads in a few array reads. It is derived data, safe to
delete. Layout (version 3), in this machine's byte order and item sizes:

- header (``_HEADER``, little-endian): magic ``gboostG\\x03``; byte order
  (1 little-endian) and the item sizes of ``q``, ``i`` and ``d`` arrays;
  the negate flag; the counts of states, arcs, final states, labels
  and symbol-text bytes; the initial state; the BLAKE2b-256 of the text
  file;
- the offsets (``q``, states + 1), then the targets and labels (``i``,
  one per arc) and the weights (``d``);
- the final states (``i``) and their weights (``d``), the initial state
  first, then by id;
- the labels the arcs use (``i``, ascending), then their symbols, UTF-8,
  each ended by a newline;
- the BLAKE2b-256 of everything before it.

The companion dumps the columns of the materialized graph, with the
finals in :func:`read_text`'s order: what :func:`read_text` builds from
the text beside it. That text is either printed by :func:`write_text`, or
made by :func:`append_text` when a graph only gains arcs: a copy of the
text the graph was derived from, plus one line per added arc, which
:func:`read_text` appends to its state's arcs as the graph holds them.
The companion is used only when its size matches its header, its negate
flag the reader's, the text still hashes to its stored digest, the payload
to its own, every count, id and weight passes the checks :func:`read_text`
makes, its symbols are UTF-8, every label the arcs use is in its label
list, and each of those names the same symbol in the reader's table (a
larger table qualifies). The key is the content, not the path or a
timestamp: a text edited in place never reads back as the old graph. Any
other companion, versions 1 and 2 included, or none, means the text is
parsed. Once the size and negate flag pass, :func:`load_graph` hashes the
text on a helper thread, in blocks of at most 1 MiB, while it reads and
checks the payload; it joins that thread before it returns or raises, so
no thread of its own outlives a load. The reason a companion is not used
is the first failing check in this order, whichever of the two threads
finds its failure first: size, negate flag, text digest (``stale``),
payload digest, ranges, UTF-8, labels, symbols.
"""

from __future__ import annotations

import io
import logging
import math
import os
import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, islice
from operator import attrgetter, itemgetter, le, sub
from struct import Struct
from time import perf_counter
from types import MappingProxyType
from typing import BinaryIO, Iterable, Mapping, NamedTuple, TextIO

from gboost.errors import FormatError, InvariantError

# The interpreter's own BLAKE2b, which hashes about three times as fast as
# its SHA-256. hashlib.blake2b is this very function, but importing hashlib
# loads OpenSSL, which adds 3.5 MB to a command's resident memory.
from _blake2 import blake2b

log = logging.getLogger(__name__)

EPSILON = "<eps>"
EPSILON_LABEL = 0

# Print format for weights in graph text and diffs. 17 significant digits
# read back to the very double printed, for every finite weight, -0.0 too
# (Gay 1990, "Correctly rounded binary-decimal and decimal-binary
# conversions"): a graph read from its text is the graph written, bit for bit.
WEIGHT_FMT = "%.17g"

# The largest state id or label a column holds.
ID_MAX = 2 ** (8 * array("i").itemsize - 1) - 1


def _check_symbol(symbol: str) -> None:
    # Symbol and graph files split their lines on whitespace.
    if symbol.split() != [symbol]:
        raise InvariantError(f"a symbol must be non-empty and hold no whitespace, "
                             f"got {symbol!r}")


class SymbolTable:
    """Bijective symbol <-> label map. Label 0 is reserved for ``<eps>``.

    A table never changes once built, so graphs share it: a graph built
    from a model holds the model's vocabulary, and a derived graph holds its
    source's table. ``SymbolTable(symbols)`` labels the symbols 1, 2, ...
    in order, and :meth:`read` takes the labels a file gives;
    :meth:`extended` makes a larger table from this one.
    Duplicate symbols or labels raise InvariantError, keeping the table
    bijective, and so do a label outside ``0..ID_MAX`` and a symbol that is
    empty or holds whitespace, which no symbol or graph file could hold.
    """

    def __init__(self, symbols: Iterable[str] = ()):
        self._sym2lab: dict[str, int] = {EPSILON: EPSILON_LABEL}
        self._lab2sym: dict[int, str] = {EPSILON_LABEL: EPSILON}
        self._next = 1
        for sym in symbols:
            self._add(sym)

    def __len__(self) -> int:
        return len(self._sym2lab)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._sym2lab

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, SymbolTable):
            return NotImplemented
        return self._sym2lab == other._sym2lab

    def _add(self, symbol: str, label: int | None = None) -> int:
        # Adds a new symbol while the table is built, returning its label:
        # the given one, else the lowest free label.
        _check_symbol(symbol)
        if symbol in self._sym2lab:
            raise InvariantError(f"symbol already in table: {symbol!r}")
        if label is None:
            while self._next in self._lab2sym:
                self._next += 1
            label = self._next
        if label in self._lab2sym:
            raise InvariantError(f"label already in table: {label}")
        if not 0 <= label <= ID_MAX:
            raise InvariantError(f"labels must be in 0..{ID_MAX}, got {label}")
        self._sym2lab[symbol] = label
        self._lab2sym[label] = symbol
        if label == self._next:
            # Every label below _next is taken. Keeping that true here lets a
            # table read from a file with dense labels, and each table
            # extended from it, add a word without first walking past every
            # label it holds.
            self._next = label + 1
        return label

    def label(self, symbol: str) -> int:
        try:
            return self._sym2lab[symbol]
        except KeyError:
            raise InvariantError(f"unknown symbol: {symbol!r}") from None

    def symbol(self, label: int) -> str:
        try:
            return self._lab2sym[label]
        except KeyError:
            raise InvariantError(f"unknown label: {label}") from None

    def extended(self, words: Iterable[str]) -> "SymbolTable":
        """A new table: this one plus each of ``words`` it lacks, in order.

        Each new word takes the lowest free label. This table is unchanged,
        also when a word raises.
        """
        new = SymbolTable.__new__(SymbolTable)
        new._sym2lab = dict(self._sym2lab)
        new._lab2sym = dict(self._lab2sym)
        new._next = self._next
        for word in words:
            if word not in new._sym2lab:
                new._add(word)
        return new

    def write(self, stream: TextIO) -> None:
        for sym, lab in self._sym2lab.items():
            stream.write(f"{sym}\t{lab}\n")

    @classmethod
    def read(cls, stream: TextIO) -> "SymbolTable":
        """Parse a ``symbol<TAB>label`` file. ``<eps> 0`` must come first."""
        table = cls()
        first = True
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 2:
                raise FormatError(f"expected 'symbol label', got {line.strip()!r}", line=lineno)
            sym, lab_text = fields
            try:
                lab = int(lab_text)
            except ValueError:
                raise FormatError(f"bad label {lab_text!r}", line=lineno) from None
            if first:
                if sym != EPSILON or lab != EPSILON_LABEL:
                    raise FormatError(f"first entry must be '{EPSILON} 0'", line=lineno)
                first = False
                continue
            if sym == EPSILON or lab == EPSILON_LABEL:
                raise FormatError(f"'{EPSILON}'/0 may appear only as the first entry",
                                  line=lineno)
            try:
                table._add(sym, lab)
            except InvariantError as exc:
                raise FormatError(str(exc), line=lineno) from None
        return table


class Arc(NamedTuple):
    """One arc of an acceptor: its label is read and written alike."""

    source: int
    target: int
    label: int
    weight: float


@dataclass
class FstDiff:
    """Exact structural delta between two graphs sharing a symbol table.

    An empty delta equals ``FstDiff()``.
    """

    added_arcs: list[Arc] = field(default_factory=list)
    removed_arcs: list[Arc] = field(default_factory=list)
    reweighted_arcs: list[tuple[Arc, Arc]] = field(default_factory=list)
    final_changes: list[tuple[int, float | None, float | None]] = field(default_factory=list)


# An arc as a state's arc list holds it: (target, label, weight).
_ArcTuple = tuple[int, int, float]
# scan() results: label -> (source state, arc tuple) pairs.
_Found = dict[int, list[tuple[int, _ArcTuple]]]
_source = itemgetter(0)  # the source state of an Arc


class _Columns:
    """A built graph's arcs, grouped by source state: CSR over stdlib arrays.

    State ``s`` owns entries ``offsets[s]`` up to ``offsets[s + 1]`` of
    the three arc columns, targets, labels and weights, in arc order.
    Beside them is what is computed from these arcs alone: ``best[s]``, the
    best-arc table of ``s``'s arcs, None until first asked for, and
    ``memo`` (see :meth:`Wfst.memo`).
    Neither the columns nor these values ever change once set, so every
    graph over the columns shares them: a sweep's cells, say, which derive
    graphs from one graph over and over.
    """

    __slots__ = ("offsets", "targets", "labels", "weights", "best", "memo")

    def __init__(self, offsets: array, targets: array, labels: array, weights: array):
        self.offsets = offsets
        self.targets = targets
        self.labels = labels
        self.weights = weights
        self.best: list[dict | None] = [None] * (len(offsets) - 1)
        self.memo: dict = {}

    def slices(self, state: int) -> tuple[array, array, array]:
        """Targets, labels and weights of ``state``'s arcs."""
        start, end = self.offsets[state], self.offsets[state + 1]
        return self.targets[start:end], self.labels[start:end], self.weights[start:end]

    def arcs(self, state: int) -> list[_ArcTuple]:
        """A new list of ``state``'s arc tuples."""
        return list(zip(*self.slices(state)))

    def views(self) -> tuple[array, memoryview, memoryview, memoryview]:
        """The offsets, then a view of each arc column, which slices without copying."""
        return (self.offsets, memoryview(self.targets), memoryview(self.labels),
                memoryview(self.weights))


def _best_table(arcs: Iterable[_ArcTuple], table: dict[int, _ArcTuple] | None = None
                ) -> dict[int, _ArcTuple]:
    # Folds `arcs`, in order, into `table` (a new one if None): an arc
    # replaces the held arc of its label only if it weighs strictly more.
    if table is None:
        table = {}
    for arc in arcs:
        held = table.get(arc[1])
        if held is None or arc[2] > held[2]:
            table[arc[1]] = arc
    return table


class Wfst:
    """A weighted acceptor: dense integer states, each with an ordered arc sequence.

    A graph is complete when it is made. The constructor takes its symbol
    table, its arc columns (see the module docstring), its initial state
    and its finals ``{state: weight}``; the state count is the columns'.
    :func:`read_text`, :func:`load_graph` and :func:`gboost.graph.build_g`
    build graphs with it, and nothing changes one afterwards: ``symbols``,
    ``initial`` and ``finals`` (a read-only view) cannot be set, the symbol
    table never changes, and :func:`gboost.enhance.enhance` returns a new
    graph (``_derived``) whose ``_columns`` hold its arcs as the diff left
    them, raises included, and whose ``_added`` holds the diff's added
    ``Arc`` objects themselves, sorted by source, in delta order within a
    state: its only pending edits. A state's arcs are its column arcs
    followed by its added arcs without their source. Every reader of arcs
    but :meth:`best_arcs` first calls ``_materialize``, which merges the
    added arcs into columns of this graph's own, once, and changes no arc.

    Each state has a best-arc table, ``{label: arc}``, built on first use
    by :meth:`best_arcs`: for each label it holds the highest-weight
    arc tuple, the first in arc order among equal weights. The table of a
    state without added arcs is built once beside the columns and shared by
    every graph over them. ``_tables[s]`` is the table this graph last used
    for state ``s``, or None, so that scoring finds a state's table with one
    list lookup. Its length is the state count. The arcs never change, so
    no table, and no value in the :meth:`memo`, is ever reset.

    A graph is read-only once materialized: it can then be read from many
    threads through any reader. Before that, only through :meth:`best_arcs`.
    """

    def __init__(self, symbols: SymbolTable, columns: _Columns, initial: int,
                 finals: Mapping[int, float]):
        """A graph over ``columns``, as :class:`_Columns` holds them.

        InvariantError unless ``initial`` and every final state are states
        of the columns and every final weight is finite. The columns are
        the caller's to check: targets below the state count, labels
        non-negative, weights finite.
        """
        # Per state: the best-arc table this graph last used, or None.
        self._tables: list[dict | None] = columns.best.copy()
        self._check_state(initial)
        for state, weight in finals.items():
            self._check_state(state)
            if not math.isfinite(weight):
                raise InvariantError(f"final weight must be finite, got {weight}")
        self._symbols = symbols
        self._columns = columns
        self._initial = initial
        self._finals: Mapping[int, float] = MappingProxyType(dict(finals))
        self._added: list[Arc] = []  # the pending added arcs, by source

    symbols = property(attrgetter("_symbols"))
    initial = property(attrgetter("_initial"))
    finals = property(attrgetter("_finals"))

    # -- states ---------------------------------------------------------

    def num_states(self) -> int:
        return len(self._tables)

    def states(self) -> range:
        return range(len(self._tables))

    def _check_state(self, state: int) -> None:
        if not (isinstance(state, int) and 0 <= state < len(self._tables)):
            raise InvariantError(f"unknown state id: {state!r}")

    def final_weight(self, state: int) -> float | None:
        return self._finals.get(state)

    # -- arcs -----------------------------------------------------------

    def _added_arcs(self, state: int) -> list[_ArcTuple]:
        # The arcs added to `state`, in delta order, found by bisect.
        added = self._added
        start = bisect_left(added, state, key=_source)
        return [arc[1:] for arc in added[start:bisect_right(added, state, start, key=_source)]]

    def _materialize(self) -> None:
        # Merges the added arcs into new columns, in one pass over their
        # states, and drops them. The added arcs' columns are built once;
        # a state with added arcs takes two slices per column, its column
        # arcs and its added arcs. No arc changes, so the new columns take
        # this graph's tables. Their memo starts empty: the old columns'
        # values were computed from other arcs. Other graphs keep the old
        # columns.
        added = self._added
        if not added:
            return
        columns = self._columns
        offsets = columns.offsets
        old = (columns.targets, columns.labels, columns.weights)
        sources = list(map(_source, added))
        extra = [array(column.typecode, map(itemgetter(field), added))
                 for field, column in enumerate(old, start=1)]
        counts = list(map(sub, islice(offsets, 1, None), offsets))
        merged = [array(column.typecode) for column in old]
        at = last = 0
        for state in dict.fromkeys(sources):  # each source once, ascending
            first, last = last, bisect_right(sources, state, last)
            counts[state] += last - first
            end = offsets[state + 1]
            for column, source, new in zip(merged, old, extra):
                column += source[at:end]
                column += new[first:last]
            at = end
        for column, source in zip(merged, old):
            column += source[at:]
        self._columns = _Columns(array("q", accumulate(counts, initial=0)), *merged)
        self._columns.best = self._tables.copy()
        self._added = []

    def num_arcs(self, state: int | None = None) -> int:
        self._materialize()
        offsets = self._columns.offsets
        if state is None:
            return offsets[-1]
        return offsets[state + 1] - offsets[state]

    def arcs(self, state: int) -> list[_ArcTuple]:
        """A new list of the (target, label, weight) tuples of ``state``, in order.

        Materializes the graph first. ``state`` is not range-checked: take
        it from :meth:`states` or from an arc target.
        """
        self._materialize()
        return self._columns.arcs(state)

    def best_arcs(self, state: int) -> dict[int, _ArcTuple]:
        """The best-arc table of ``state``: label -> (target, label, weight) arc tuple.

        Each label maps to its highest-weight arc, the first in arc order
        among equal weights. Built on first use and then kept. The table of
        a state's column arcs is built once and shared by every graph over
        the same columns. A state with added arcs gets a copy of that
        shared table with its added arcs, found by bisect, folded in: an
        added arc wins only if it weighs strictly more. Materializes
        nothing. Read-only, and unchecked like :meth:`arcs`.
        """
        table = self._tables[state]
        if table is None:
            added = self._added_arcs(state)
            table = self._column_table(state)
            if added:
                table = _best_table(added, table.copy())
            self._tables[state] = table
        return table

    def _column_table(self, state: int) -> dict[int, _ArcTuple]:
        # The shared best-arc table of a state's column arcs, built on first use.
        columns = self._columns
        table = columns.best[state]
        if table is None:
            slices = columns.slices(state)
            labels = slices[1]
            table = dict(zip(labels, zip(*slices)))
            if len(table) < len(labels):  # a label on several arcs: pick per label
                table = _best_table(zip(*slices))
            columns.best[state] = table
        return table

    def memo(self) -> dict:
        """Values computed from this graph's arcs, kept beside its columns.

        Each key names what its value was computed from besides the arcs.
        :func:`gboost.enhance.enhance` keeps its plans and label scans here.
        Materializes the graph first, and a graph with raised arcs has
        columns of its own, so a graph with edits never sees the values of
        the graph it came from; every graph over the same columns shares
        the memo, such as one derived by a diff that changes no arc.
        Treat the values as read-only.
        """
        self._materialize()
        return self._columns.memo

    def scan(self, labels: Iterable[int]) -> _Found:
        """Arcs whose label is in ``labels``, grouped by that label.

        Each label maps to its ``(source, (target, label, weight))`` pairs
        in state and arc order, an empty list if it has none. One pass over
        the columns, once the graph is materialized.
        """
        self._materialize()
        labels = frozenset(labels)
        found: _Found = {label: [] for label in labels}
        columns = self._columns
        offsets, targets, weights = columns.offsets, columns.targets, columns.weights
        column = columns.labels
        for pos in compress(count(), map(labels.__contains__, column)):
            label = column[pos]
            found[label].append((bisect_right(offsets, pos) - 1,
                                 (targets[pos], label, weights[pos])))
        return found

    def copy(self) -> "Wfst":
        """This graph itself: a graph never changes, so it is its own copy."""
        return self


def _derived(base: Wfst, symbols: SymbolTable, delta: FstDiff) -> Wfst:
    """A new graph, labelled by ``symbols``: ``base`` with an enhancement diff's edits.

    Materializes ``base`` (a no-op without added arcs). Without reweights,
    the new graph shares ``base``'s columns, and with them every table and
    memo value computed from them. Otherwise ``delta``'s reweights are
    played, in order, into a copy of the weight column: each sets the
    weight of the last arc of its state equal to its old arc, the one whose
    weight enhancement reads for a slot. The new columns share the other
    three arrays, and a copy of ``base``'s tables, the reweighted states'
    reset; their memo starts empty. The new graph holds ``delta``'s added
    ``Arc`` objects themselves, pending, in a stable sort by source, so
    delta order holds within a state, and ``base``'s finals. Nothing else
    of the diff is read, and only the reweights' old arcs are checked
    (InvariantError, ``base`` unchanged, for a missing one): the caller
    checks the rest, as :func:`gboost.enhance.enhance` does.
    """
    base._materialize()
    columns = base._columns
    if delta.reweighted_arcs:
        weights = array("d", columns.weights)
        best = columns.best.copy()
        arcs: dict[int, list[_ArcTuple]] = {}  # each reweighted state's arcs, as edited
        # An Arc without its source is the tuple a state's arc list holds.
        for old, new in delta.reweighted_arcs:
            state = old.source
            state_arcs = arcs.get(state)
            if state_arcs is None:
                state_arcs = arcs[state] = columns.arcs(state)
            try:
                pos = len(state_arcs) - 1 - state_arcs[::-1].index(old[1:])
            except ValueError:
                raise InvariantError(f"cannot reweight missing arc {old}") from None
            state_arcs[pos] = (old.target, old.label, new.weight)
            weights[columns.offsets[state] + pos] = new.weight
            best[state] = None
        columns = _Columns(columns.offsets, columns.targets, columns.labels, weights)
        columns.best = best
    fst = Wfst(symbols, columns, base.initial, base.finals)
    fst._added = sorted(delta.added_arcs, key=_source)
    tables = fst._tables
    for state in map(_source, fst._added):
        tables[state] = None
    return fst


# One arc as read_text packs it, 16 bytes: target, label (C int) and
# weight (C double).
_ARC = Struct("iid")


def _unpack(records: bytearray) -> tuple[array, array, array]:
    # The target, label and weight columns of packed _ARC records: strided
    # views, each copied out in one pass. A record's double is its last,
    # aligned, field.
    ints, doubles = (memoryview(records).cast(code) for code in "id")
    int_stride, double_stride = _ARC.size // ints.itemsize, _ARC.size // doubles.itemsize
    targets, labels = (array("i", ints[field::int_stride].tobytes()) for field in range(2))
    weights = array("d", doubles[double_stride - 1::double_stride].tobytes())
    return targets, labels, weights


def _gather(column: array, pieces: list[list[int]]) -> array:
    # The column's [start, end) pieces, concatenated in order.
    out = array(column.typecode)
    for start, end in pieces:
        out += column[start:end]
    return out


# ---------------------------------------------------------------------------
# Structural diff


_arc_key = itemgetter(0, 1)  # (target, label) of an arc tuple


def _arc_groups(arcs: list[_ArcTuple]) -> dict[tuple[int, int], list[float]]:
    groups: dict[tuple[int, int], list[float]] = {}
    for (t, label, w) in arcs:
        groups.setdefault((t, label), []).append(w)
    return groups


def _appended(before: list, after: list) -> list | None:
    # The arcs `after` appends to `before`, if it is `before` plus a suffix
    # whose (target, label) keys are pairwise distinct and absent
    # from `before`: then grouping would report exactly the suffix, in
    # order, as additions. None for any other change.
    size = len(before)
    if len(after) <= size or after[:size] != before:
        return None
    suffix = after[size:]
    keys = set(map(_arc_key, suffix))
    if len(keys) != len(suffix) or not keys.isdisjoint(map(_arc_key, before)):
        return None
    return suffix


def _maybe_changed(before: Wfst, after: Wfst) -> list[int]:
    # The states whose arcs may differ, in order, of two materialized
    # graphs: every state but those in runs with equal arc counts whose
    # arcs compare equal, one slice per column for the run.
    b_offsets, *b_views = before._columns.views()
    a_offsets, *a_views = after._columns.views()
    changed: list[int] = []
    first = None  # the first state of the current run

    def end_run(stop: int) -> None:
        b_start, b_end, a_start = b_offsets[first], b_offsets[stop], a_offsets[first]
        a_end = a_start + b_end - b_start
        if any(b[b_start:b_end] != a[a_start:a_end] for b, a in zip(b_views, a_views)):
            changed.extend(range(first, stop))

    for state in before.states():
        if b_offsets[state + 1] - b_offsets[state] == a_offsets[state + 1] - a_offsets[state]:
            if first is None:
                first = state
            continue
        if first is not None:
            end_run(state)
            first = None
        changed.append(state)
    if first is not None:
        end_run(before.num_states())
    return changed


def diff(before: Wfst, after: Wfst) -> FstDiff:
    """Exact arc-for-arc delta turning ``before`` into ``after``.

    Both graphs must share a symbol table and have the same state count.
    Arcs agreeing on (target, label) are matched by sorted weight;
    surplus arcs become additions or removals. A state whose arcs are only
    appended to, each under a new key, as :func:`gboost.enhance.enhance`
    appends them, skips the grouping: its new arcs are its additions.
    Materializes both graphs first.
    """
    if before.symbols != after.symbols:
        raise InvariantError("graphs do not share a symbol table")
    if before.num_states() != after.num_states():
        raise InvariantError(
            f"state counts differ ({before.num_states()} vs {after.num_states()})")
    if before.initial != after.initial:
        raise InvariantError("initial states do not correspond")

    before._materialize()
    after._materialize()
    out = FstDiff()
    for state in _maybe_changed(before, after):
        b_arcs, a_arcs = before.arcs(state), after.arcs(state)
        if b_arcs == a_arcs:  # equal lists match arc for arc: nothing to report
            continue
        suffix = _appended(b_arcs, a_arcs)
        if suffix is not None:
            out.added_arcs += [Arc(state, *arc) for arc in suffix]
            continue
        b_groups = _arc_groups(b_arcs)
        a_groups = _arc_groups(a_arcs)
        keys = list(b_groups)
        keys += [k for k in a_groups if k not in b_groups]
        for key in keys:
            t, label = key
            b_weights = sorted(b_groups.get(key, ()))
            a_weights = sorted(a_groups.get(key, ()))
            shared = min(len(b_weights), len(a_weights))
            for bw, aw in zip(b_weights, a_weights):
                if bw != aw:
                    out.reweighted_arcs.append(
                        (Arc(state, t, label, bw), Arc(state, t, label, aw)))
            for w in b_weights[shared:]:
                out.removed_arcs.append(Arc(state, t, label, w))
            for w in a_weights[shared:]:
                out.added_arcs.append(Arc(state, t, label, w))

    if before.finals != after.finals:
        for state in before.states():
            bw = before.final_weight(state)
            aw = after.final_weight(state)
            if bw != aw:
                out.final_changes.append((state, bw, aw))
    return out


# ---------------------------------------------------------------------------
# Text format


def write_text(fst: Wfst, stream: TextIO, negate: bool = False) -> None:
    """Write ``fst`` as text.

    One record per line, fields separated by spaces: an arc is ``src dst
    sym sym weight``, its label's symbol printed twice, as input and output
    symbol of an acceptor arc, and a final state ``state weight``, with
    symbols from ``fst.symbols``. The initial state's records come first, so
    :func:`read_text` finds it on line 1; then every other state in id
    order, each with its arcs in list order and then its final weight, if it
    has one. Weights print as ``WEIGHT_FMT % w``, 17 significant digits,
    which :func:`read_text` reads back to ``w`` bit for bit. With ``negate``
    the file holds costs: each weight is printed as ``WEIGHT_FMT % (-1.0 * w)``.

    The graph is first materialized (see :class:`Wfst`). Each weight is
    then printed once, as its line is written.

    InvariantError, before anything is written, if the initial state or
    the last state has neither arcs nor a final weight and, for the last,
    no arc into it either (the file would not name it), or if the last
    state's id is at or above twice the number of arcs and final states,
    which :func:`read_text` refuses; and, while writing, if an arc carries
    a label the symbol table lacks.
    """
    initial = fst.initial
    finals = fst.finals
    if not fst.num_arcs(initial) and initial not in finals:
        raise InvariantError("initial state has no arcs and is not final; nothing to write")
    fst._materialize()
    columns = fst._columns
    offsets = columns.offsets
    top = len(offsets) - 2
    if offsets[top] == offsets[top + 1] and top not in finals and top not in columns.targets:
        raise InvariantError(f"the last state, {top}, has no arcs, is not final and has "
                             "no arc into it; the file would not name it")
    named = offsets[-1] + len(finals)
    if top >= 2 * named:
        raise InvariantError(f"the last state, {top}, is at or above twice the number of "
                             f"arcs and final states ({named}); the file would not read back")
    sign = -1.0 if negate else 1.0
    doubled = {label: f"{sym} {sym}" for label, sym in fst.symbols._lab2sym.items()}
    # File order is three runs of each column: the initial state's entries,
    # the states below it, the states above it. Rows are printed as taken.
    first, after = offsets[initial], offsets[initial + 1]
    targets, labels, weights = (
        chain(view[first:after], view[:first], view[after:])
        for view in map(memoryview, (columns.targets, columns.labels, columns.weights)))
    if negate:  # 1.0 * w is w, bit for bit: only costs multiply
        weights = map(sign.__mul__, weights)
    rows = zip(targets, map(doubled.__getitem__, labels), weights)
    write = stream.write
    for state in chain((initial,), range(initial), range(initial + 1, top + 1)):
        try:
            text = "".join(map(f"{state} %s %s {WEIGHT_FMT}\n".__mod__,
                               islice(rows, offsets[state + 1] - offsets[state])))
        except KeyError as exc:
            raise InvariantError(f"unknown label: {exc.args[0]}") from None
        final = finals.get(state)
        if final is not None:
            text += f"{state} {WEIGHT_FMT}\n" % (sign * final)
        write(text)


def format_arc(arc: Arc, symbols: SymbolTable, negate: bool = False) -> str:
    """``arc``'s line in graph text, as :func:`write_text` prints it, without its newline.

    ``src dst sym sym weight``, the label's symbol from ``symbols`` printed
    twice; InvariantError for a label it lacks.
    """
    weight = -1.0 * arc.weight if negate else arc.weight
    sym = symbols.symbol(arc.label)
    return f"{arc.source} {arc.target} {sym} {sym} {WEIGHT_FMT % weight}"


def append_text(path: str, digest: bytes, lines: Iterable[str], stream: BinaryIO) -> bytes:
    """Write the bytes of graph text file ``path``, then ``lines``, to ``stream``.

    ``digest`` is what :func:`load_graph` returned for ``path``. The bytes
    are copied in blocks, never held whole, and hashed on the way:
    InvariantError if they do not hash to ``digest``, so the copy is the
    text the graph was read from. Then a newline if the copy does not end
    with one, and the lines, each ended by a newline: the :func:`format_arc`
    line of each arc added to that graph, in order. Since :func:`read_text`
    keeps a state's arcs in file order across blocks, the result reads back
    as that graph with the arcs added after its states' arcs, in order, as
    the graph :func:`gboost.enhance.enhance` returns holds them. Returns
    the BLAKE2b-256 of all it wrote, the copy's hash carried on over the
    rest: the digest :func:`write_companion` stores.
    """
    written = _hash()
    last = b"\n"
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            written.update(block)
            stream.write(block)
            last = block[-1:]
    if written.digest() != digest:
        raise InvariantError(f"{path} changed after the graph was read from it")
    tail = "".join(lines).encode()
    if last != b"\n":
        tail = b"\n" + tail
    written.update(tail)
    stream.write(tail)
    return written.digest()


def read_text(stream: TextIO, symbols: SymbolTable, negate: bool = False) -> Wfst:
    """Read a graph written by :func:`write_text`, labelled by ``symbols``.

    One record per non-blank line, fields separated by any whitespace: an
    arc is ``src dst sym sym weight``, as :func:`write_text` prints it,
    and a final state ``state weight``. The graph is an acceptor, so an
    arc's two symbols must be the same. The first record's first field
    names the initial state. Each state's arcs keep their order in the
    file, even when split over several blocks; a state's last final record
    wins. The finals come in the order :func:`write_text` writes them,
    whatever the file's: the initial state first, then by id. With
    ``negate`` the file holds costs and every weight is negated on the way
    in.

    State ids are dense: the graph gets every state from 0 up to the
    largest id named. An arc names two states and a final state one, so an
    id at or above twice the number of arcs and final states is rejected
    before any state is allocated. Final states, not final records, count:
    a state's repeated final records are one record in the file
    :func:`write_text` makes of the graph, which must read back too.

    Every malformed record is a FormatError at its line: a wrong field
    count, a bad number, a negative state id or one above ``ID_MAX``, an
    arc whose output symbol differs from its input symbol (both named in
    the message), an unknown symbol (named) or a non-finite weight.

    Each arc is packed into a byte record as it is read. At the end the
    records are split into the columns, and each run of arc lines from one
    source is gathered to its state: neither the read nor the graph holds a
    Python object per arc.
    """
    sign = -1.0 if negate else 1.0
    label_of = symbols._sym2lab.get
    isfinite = math.isfinite
    records = bytearray()  # the arcs, packed one _ARC record each
    pack = _ARC.pack
    arcs = 0
    runs: list[tuple[int, int]] = []  # (source, first arc) per run of arc lines
    finals: dict[int, float] = {}
    initial = None
    top = top_line = 0  # the largest state id, and the first line naming it
    source_text = None  # the last arc line's source

    def new_top(state: int, lineno: int) -> None:
        # A state id outside 0..top: reject it, or make it the new top.
        nonlocal top, top_line
        if state < 0:
            raise FormatError(f"unknown state id: {state}", line=lineno)
        if state > ID_MAX:
            raise FormatError(f"state id {state} is above the largest a graph "
                              f"holds ({ID_MAX})", line=lineno)
        top, top_line = state, lineno

    for lineno, line in enumerate(stream, start=1):
        fields = line.split()
        count = len(fields)
        try:
            if count == 5:
                if fields[0] != source_text:
                    source_text = fields[0]
                    source = int(source_text)
                    if not 0 <= source <= top:
                        new_top(source, lineno)
                    runs.append((source, arcs))
                    if initial is None:
                        initial = source
                _, target_text, sym, osym, weight_text = fields
                target = int(target_text)
                if not 0 <= target <= top:
                    new_top(target, lineno)
                weight = sign * float(weight_text)
                if osym != sym:
                    raise FormatError(f"not an acceptor arc: output symbol {osym!r} differs "
                                      f"from input symbol {sym!r}", line=lineno)
                label = label_of(sym)
                if label is None:
                    raise FormatError(f"unknown symbol: {sym!r}", line=lineno)
                if not isfinite(weight):
                    raise FormatError(f"arc weight must be finite, got {weight}", line=lineno)
                records += pack(target, label, weight)
                arcs += 1
            elif count == 2:
                state = int(fields[0])
                if not 0 <= state <= top:
                    new_top(state, lineno)
                weight = sign * float(fields[1])
                if not isfinite(weight):
                    raise FormatError(f"final weight must be finite, got {weight}",
                                      line=lineno)
                finals[state] = weight
                if initial is None:
                    initial = state
            elif count:
                raise FormatError(
                    f"expected 2 or 5 fields, got {count}: {line.strip()!r}", line=lineno)
        except ValueError:
            kind = "arc" if count == 5 else "final"
            raise FormatError(f"bad {kind} line: {line.strip()!r}", line=lineno) from None
    if initial is None:
        raise FormatError("empty FST file")
    named = arcs + len(finals)
    if top >= 2 * named:
        raise FormatError(f"state id {top} is at or above twice the number of arcs and "
                          f"final states ({named})", line=top_line)
    targets, labels, weights = _unpack(records)
    del records
    # Gather each source's runs, in file order, as its state's arcs.
    ends = [start for _, start in runs[1:]]
    ends.append(arcs)
    spans = sorted(((source, start, end) for (source, start), end in zip(runs, ends)),
                   key=itemgetter(0))
    counts = [0] * (top + 1)
    pieces: list[list[int]] = []  # column ranges in gathered order, adjacent ones merged
    for source, start, end in spans:
        counts[source] += end - start
        if pieces and pieces[-1][1] == start:
            pieces[-1][1] = end
        else:
            pieces.append([start, end])
    if len(pieces) > 1:
        targets, labels, weights = (
            _gather(column, pieces) for column in (targets, labels, weights))
    return Wfst(symbols, _Columns(array("q", accumulate(counts, initial=0)), targets, labels,
                                  weights),
                initial, {state: finals[state] for state in _final_order(finals, initial)})


def _final_order(finals: Iterable[int], initial: int) -> list[int]:
    # The final states in the order write_text writes them: the initial one first.
    return sorted(finals, key=lambda state: (state != initial, state))


# ---------------------------------------------------------------------------
# Companion file

COMPANION_SUFFIX = ".bin"

# magic; byte order (1 little-endian, 0 big-endian), item sizes of the "q",
# "i" and "d" arrays, negate flag; counts of states, arcs, finals, listed
# labels and symbol-text bytes; initial state; BLAKE2b-256 of the text file.
_HEADER = Struct("<8s5B3x6q32s")
_MAGIC = b"gboostG\x03"
_NATIVE = (sys.byteorder == "little", array("q").itemsize, array("i").itemsize,
           array("d").itemsize)
_DIGEST_SIZE = 32


def _hash(data: bytes = b""):
    # A BLAKE2b-256 hash object over `data`: both of the companion's digests.
    return blake2b(data, digest_size=_DIGEST_SIZE)


class _Fallback(Exception):
    # Why a companion was not used; its message is the reason.
    pass


# The most bytes a text digest reads at once. The interpreter's BLAKE2b
# hashes without holding the GIL, so a thread hashing 1 MiB blocks takes
# the GIL back a few times per text, not once per 64 KiB.
_BLOCK = 1 << 20


def _file_digest(file: str | int) -> bytes:
    # The digest of a file named by its path, or of the whole file behind
    # an open descriptor, read from offset 0 and left open. Hashed by
    # blocks into one reused buffer: the text is never held whole.
    digest = _hash()
    block = bytearray(_BLOCK)
    view = memoryview(block)
    with open(file, "rb", buffering=0, closefd=not isinstance(file, int)) as handle:
        handle.seek(0)
        while size := handle.readinto(block):
            digest.update(view[:size])
    return digest.digest()


class _TextDigest(threading.Thread):
    # _file_digest(path), taken on a thread of its own that starts at once.
    # result() joins the thread, then returns the digest or raises what
    # _file_digest raised.

    def __init__(self, path: str):
        super().__init__(name="gboost text digest")
        self._path = path
        self._digest: bytes | None = None
        self._error: Exception | None = None
        self.start()

    def run(self) -> None:
        try:
            self._digest = _file_digest(self._path)
        except Exception as exc:  # raised again by result(), on the joining thread
            self._error = exc

    def result(self) -> bytes:
        self.join()
        if self._error is not None:
            raise self._error
        return self._digest


def write_companion(fst: Wfst, text_digest: bytes, stream: BinaryIO,
                    negate: bool = False) -> None:
    """Write the companion of a graph text file to ``stream``.

    ``text_digest`` is the BLAKE2b-256 of the text file, which holds
    ``fst`` with ``negate``: as :func:`write_text` wrote it, or as
    :func:`append_text` made it from the text of the graph ``fst`` was
    derived from (it returns this digest). This materializes the graph (a
    no-op once it has) and dumps its columns with the finals in
    :func:`read_text`'s order (see the module docstring for the layout):
    the graph :func:`read_text` builds from that text, which
    :func:`load_graph` reads back from the text's path plus
    ``COMPANION_SUFFIX``.
    """
    fst._materialize()
    columns, finals, initial = fst._columns, fst.finals, fst.initial
    final_states = _final_order(finals, initial)
    labels = sorted(set(columns.labels))
    names = "".join(fst.symbols.symbol(label) + "\n" for label in labels).encode()
    header = _HEADER.pack(_MAGIC, *_NATIVE, negate, len(columns.offsets) - 1,
                          len(columns.weights), len(finals), len(labels), len(names),
                          initial, text_digest)
    digest = _hash()
    for part in (header, columns.offsets, columns.targets, columns.labels, columns.weights,
                 array("i", final_states),
                 array("d", map(finals.__getitem__, final_states)),
                 array("i", labels), names):
        digest.update(part)
        stream.write(part)
    stream.write(digest.digest())


def _parts(states: int, arcs: int, finals: int, pairs: int) -> tuple[tuple[str, int], ...]:
    # The arrays after a companion's header: (typecode, item count) each.
    return (("q", states + 1), ("i", arcs), ("i", arcs), ("d", arcs),
            ("i", finals), ("d", finals), ("i", pairs))


def _read_companion(path: str, symbols: SymbolTable, negate: bool) -> tuple[Wfst, bytes]:
    # The graph in the companion of `path` and the digest of the text it
    # was checked against, or _Fallback with the reason. Once the size and
    # convention checks pass, the text hashes on a helper thread while this
    # one reads and checks the payload (_read_payload); the helper is joined
    # before this returns or raises, and what it raised ends as a corrupt
    # companion. The reason is the first failing check in this order: size,
    # convention, stale, then the payload's own.
    try:
        handle = open(path + COMPANION_SUFFIX, "rb")
    except FileNotFoundError:
        raise _Fallback("missing") from None
    try:
        with handle:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise _Fallback("corrupt: shorter than its header")
            (magic, *native, negated, states, arcs, finals, pairs, names_size, _,
             text_digest) = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise _Fallback("corrupt: not a graph companion")
            if tuple(native) != _NATIVE:
                raise _Fallback("corrupt: byte order or item sizes differ from this machine's")
            # Sized against the file before anything is allocated.
            size = (_HEADER.size + names_size + _DIGEST_SIZE
                    + sum(array(code).itemsize * n
                          for code, n in _parts(states, arcs, finals, pairs)))
            if (min(states, arcs, finals, pairs, names_size) < 0
                    or os.fstat(handle.fileno()).st_size != size):
                raise _Fallback("corrupt: its size does not match its header")
            if negated != negate:
                raise _Fallback("convention")
            text = _TextDigest(path)
            failure = None
            try:
                fst = _read_payload(handle, header, symbols)
            except _Fallback as exc:
                failure = exc
            finally:
                text.join()
            digest = text.result()
    except (OSError, EOFError) as exc:
        raise _Fallback(f"corrupt: {exc}") from None
    if digest != text_digest:
        raise _Fallback("stale")
    if failure is not None:
        raise failure
    return fst, text_digest


def _below(column: array, bound: int) -> bool:
    # Whether every item of an "i" column is in 0..bound-1, for a bound of
    # at most ID_MAX + 1: read unsigned, a negative item is at least that.
    return not column or max(memoryview(column).cast("B").cast("I")) < bound


def _finite(column: array) -> bool:
    # Whether every item of a "d" column is finite. A sum of finite items
    # is finite unless it overflows, and a non-finite item makes the sum
    # non-finite too; only a sum that is not finite needs each item checked.
    return math.isfinite(sum(column)) or all(map(math.isfinite, column))


def _read_payload(handle: BinaryIO, header: bytes, symbols: SymbolTable) -> Wfst:
    # The graph in the payload that follows a companion's `header`, read
    # from `handle` and checked like outside input, or _Fallback with the
    # first reason in this order: payload digest, ranges, UTF-8, labels,
    # symbols.
    *_, states, arcs, finals, pairs, names_size, initial, _ = _HEADER.unpack(header)
    digest = _hash(header)
    columns = []
    try:
        for code, n in _parts(states, arcs, finals, pairs):
            column = array(code)
            column.fromfile(handle, n)
            digest.update(column)
            columns.append(column)
        names = handle.read(names_size)
        digest.update(names)
        sealed = handle.read() == digest.digest()
    except (OSError, EOFError) as exc:
        raise _Fallback(f"corrupt: {exc}") from None
    if not sealed:
        raise _Fallback("corrupt: payload digest mismatch")
    offsets, targets, arc_labels, weights, final_states, final_weights, labels = columns
    # Checked like outside input: read_text's own bounds, every id in
    # range, every weight finite and every label listed.
    if not (0 < states <= min(ID_MAX + 1, 2 * (arcs + finals)) and 0 <= initial < states
            and offsets[0] == 0 and offsets[-1] == arcs
            and all(map(le, offsets, islice(offsets, 1, None)))
            and _below(targets, states) and _below(final_states, states)
            and len(set(final_states)) == finals
            and _finite(weights) and _finite(final_weights)):
        raise _Fallback("corrupt: a count, state id or weight is out of range")
    try:
        names = names.decode().split("\n")
    except UnicodeDecodeError:
        raise _Fallback("corrupt: its symbols are not UTF-8") from None
    if names.pop() or len(names) != pairs or not set(arc_labels) <= set(labels):
        raise _Fallback("corrupt: an arc label is not in its label list")
    if list(map(symbols._lab2sym.get, labels)) != names:
        raise _Fallback("symbols")
    return Wfst(symbols, _Columns(offsets, targets, arc_labels, weights), initial,
                dict(zip(final_states, final_weights)))


class _HashingReader(io.RawIOBase):
    # A binary file's bytes, hashed as they are read through this reader.

    def __init__(self, raw: BinaryIO):
        self._raw = raw
        self.hash = _hash()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = self._raw.readinto(buffer)
        self.hash.update(memoryview(buffer)[:size])
        return size


def load_graph(path: str, symbols: SymbolTable, negate: bool = False) -> tuple[Wfst, bytes]:
    """Read the graph in text file ``path``, labelled by ``symbols``.

    From its companion, ``path + COMPANION_SUFFIX``, when that is valid for
    this text, convention and symbol table (see the module docstring);
    otherwise with :func:`read_text`, which raises as it does for any bad
    text. Returns the graph and the BLAKE2b-256 of the text it came from:
    the digest the companion was checked against, or one taken as the text
    was parsed, with no second read. :func:`append_text` checks a copy of
    the text against it. Logs one INFO line: where the graph came from, and
    why not from the companion: the first failing check, in the module
    docstring's order. The text's digest for the companion check is taken
    on a helper thread while the payload is checked; the thread is joined
    before this returns or raises, so a caller that forks next, as
    ``score`` does, runs no other thread. An error on that thread, reading
    the text say, turns the companion away as corrupt.
    """
    start = perf_counter()
    try:
        fst, digest = _read_companion(path, symbols, negate)
        source = "companion"
    except _Fallback as reason:
        with open(path, "rb", buffering=0) as raw:
            hashed = _HashingReader(raw)
            with io.TextIOWrapper(io.BufferedReader(hashed), encoding="utf-8") as handle:
                fst = read_text(handle, symbols, negate=negate)
        digest = hashed.hash.digest()
        source = f"text (companion {reason})"
    log.info("read %s from %s: %d states, %d arcs in %.3f s", path, source,
             fst.num_states(), fst.num_arcs(), perf_counter() - start)
    return fst, digest
