"""Weighted FSTs stored as shared arc columns, with text I/O and structural diffing.

Weights are natural-log probabilities throughout: larger means more likely,
and the weight of a path is the sum of its arc weights plus the final weight
of the state where it ends.  Cost-style (negated) files are handled at I/O
time only, via the ``negate`` flag of :func:`read_text` / :func:`write_text`.

Storage. A graph that :func:`read_text` or :func:`gboost.graph.build_g`
builds holds its arcs in columns, grouped by source state (compressed
sparse rows): per-state offsets into one stdlib ``array`` each of targets,
input labels and output labels (C ``int``) and of weights (C ``double``).
That is about 20 bytes per arc and no Python object per arc. Columns are
never written once built, so every copy of a graph shares them, along with
the best-arc tables built over them. A removal or reweight moves its state
into the graph's overlay: a list of ``(target, ilabel, olabel, weight)``
tuples that belongs to that graph alone and replaces the state's column
arcs there. Added arcs first stay pending, sorted by source: a state's
best-arc table takes them in when it is built, and every other reader of
arcs first moves them all into the overlay. So a graph that is edited and
then scored pays only for the states it scores. State ids and labels must
fit the C ``int`` columns.

Companion file. Text is the interchange format, and parsing it is the
largest cost of reading a graph. :func:`write_companion` writes, beside
a graph's text file ``PATH``, a binary copy ``PATH.bin`` of the graph
that :func:`read_text` builds from that text, which :func:`load_graph`
loads in a few array reads. It is derived data, safe to delete. Layout
(version 2), in this machine's byte order and item sizes:

- header (``_HEADER``, little-endian): magic ``gboostG\\x02``; byte order
  (1 little-endian) and the item sizes of ``q``, ``i`` and ``d`` arrays;
  the negate flag; the counts of states, arcs, final states, label pairs
  and symbol-text bytes; the initial state; the BLAKE2b-256 of the text
  file;
- the offsets (``q``, states + 1), then the targets, input labels and
  output labels (``i``, one per arc) and the weights (``d``);
- the final states (``i``) and their weights (``d``), in file order;
- the labels the arcs use (``i``, ascending), then their symbols, UTF-8,
  each ended by a newline;
- the BLAKE2b-256 of everything before it.

The weights are those the text reads back to, not the graph's own: the
text format rounds. :func:`write_text` parses each weight from the very
string it printed, ``sign * float(text)``, and returns the graph so read,
whose columns the companion holds. The companion is used only when its
size matches its header, its negate flag the reader's, the text still
hashes to its stored digest, the payload to its own, every count, id and
weight passes the checks :func:`read_text` makes, and every label the arcs
use names the same symbol in the reader's table (a larger table
qualifies). The key is the content, not the path or a timestamp: a text
edited in place never reads back as the old graph. Any other companion,
version 1 included, or none, means the text is parsed.
"""

from __future__ import annotations

import logging
import math
import os
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, islice
from operator import itemgetter, le, sub
from struct import Struct
from time import perf_counter
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence, TextIO

from gboost.errors import FormatError, InvariantError

try:
    # The interpreter's own BLAKE2b, which hashes about three times as fast
    # as its SHA-256; hashlib loads OpenSSL, which adds 3.5 MB to a
    # command's resident memory.
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

log = logging.getLogger(__name__)

EPSILON = "<eps>"
EPSILON_LABEL = 0

# Fixed print format for weights, 9 significant digits.
WEIGHT_FMT = "%.9g"

# The largest state id or label a column holds.
ID_MAX = 2 ** (8 * array("i").itemsize - 1) - 1


def _check_symbol(symbol: str) -> None:
    # Symbol and graph files split their lines on whitespace.
    if symbol.split() != [symbol]:
        raise InvariantError(f"a symbol must be non-empty and hold no whitespace, "
                             f"got {symbol!r}")


class SymbolTable:
    """Bijective symbol <-> label map. Label 0 is reserved for ``<eps>``."""

    def __init__(self, symbols: Iterable[str] = ()):
        self._sym2lab: dict[str, int] = {EPSILON: EPSILON_LABEL}
        self._lab2sym: dict[int, str] = {EPSILON_LABEL: EPSILON}
        self._next = 1
        for sym in symbols:
            self.add(sym)

    def __len__(self) -> int:
        return len(self._sym2lab)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._sym2lab

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolTable):
            return NotImplemented
        return self._sym2lab == other._sym2lab

    def add(self, symbol: str, label: int | None = None) -> int:
        """Add a new symbol, returning its label.

        Labels are assigned sequentially unless given explicitly. Duplicate
        symbols or labels raise, keeping the table bijective, and so do a
        label outside ``0..ID_MAX`` and a symbol that is empty or holds
        whitespace, which no symbol or graph file could hold.
        """
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
            # table read from a file with dense labels, and each copy of it,
            # add a word without first walking past every label it holds.
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

    def copy(self) -> "SymbolTable":
        new = SymbolTable.__new__(SymbolTable)
        new._sym2lab = dict(self._sym2lab)
        new._lab2sym = dict(self._lab2sym)
        new._next = self._next
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
                table.add(sym, lab)
            except InvariantError as exc:
                raise FormatError(str(exc), line=lineno) from None
        return table


class Arc(NamedTuple):
    source: int
    target: int
    ilabel: int
    olabel: int
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


# scan() results: input label -> (source state, arc tuple) pairs.
_Found = dict[int, list[tuple[int, tuple[int, int, int, float]]]]


class _Columns:
    """A built graph's arcs, grouped by source state: CSR over stdlib arrays.

    State ``s`` owns entries ``offsets[s]`` up to ``offsets[s + 1]`` of
    the four arc columns, in arc order. ``best[s]`` is the best-arc table
    of those arcs and ``tuples[s]`` their list of arc tuples, each None
    until first asked for. Neither the columns nor what is built from them
    ever change, so all copies of a graph share them: a sweep's cells, say,
    which write the same states over and over.
    """

    __slots__ = ("offsets", "targets", "ilabels", "olabels", "weights", "best", "tuples")

    def __init__(self, offsets: array, targets: array, ilabels: array, olabels: array,
                 weights: array):
        self.offsets = offsets
        self.targets = targets
        self.ilabels = ilabels
        self.olabels = olabels
        self.weights = weights
        self.best: list[dict | None] = [None] * (len(offsets) - 1)
        self.tuples: list[list | None] = [None] * (len(offsets) - 1)

    def slices(self, state: int) -> tuple[array, array, array, array]:
        """Targets, input labels, output labels and weights of ``state``'s arcs."""
        start, end = self.offsets[state], self.offsets[state + 1]
        return (self.targets[start:end], self.ilabels[start:end],
                self.olabels[start:end], self.weights[start:end])

    def arcs(self, state: int) -> list[tuple[int, int, int, float]]:
        arcs = self.tuples[state]
        if arcs is None:
            arcs = self.tuples[state] = list(zip(*self.slices(state)))
        return arcs

    def views(self) -> tuple[array, memoryview, memoryview, memoryview, memoryview]:
        """The offsets, then a view of each arc column, which slices without copying."""
        return (self.offsets, memoryview(self.targets), memoryview(self.ilabels),
                memoryview(self.olabels), memoryview(self.weights))


def _best_table(arcs: Iterable[tuple[int, int, int, float]],
                table: dict[int, tuple[int, int, int, float]] | None = None
                ) -> dict[int, tuple[int, int, int, float]]:
    # Folds `arcs`, in order, into `table` (a new one if None): an arc
    # replaces the held arc of its label only if it weighs strictly more.
    if table is None:
        table = {}
    for arc in arcs:
        held = table.get(arc[1])
        if held is None or arc[3] > held[3]:
            table[arc[1]] = arc
    return table


class Wfst:
    """A weighted FST: dense integer states, each with an ordered arc sequence.

    A graph is built once, over arc columns (see the module docstring), by
    :func:`read_text` or :func:`gboost.graph.build_g`, and keeps the state
    count it was built with. After that its arcs change only through
    :func:`apply_diff`. ``_overlay`` maps every state that was written to
    its overlay list of arc tuples; the other states read their arcs from
    the columns. ``_pending_sources`` and ``_pending_arcs`` hold the arcs
    :func:`apply_diff` added and no reader has yet moved into the overlay:
    their sources in ascending order and, beside them, their arc tuples,
    in delta order within a state. A state's arcs are its overlay list, or
    else its column arcs, followed by its pending arcs. The one rule:
    columns are shared and never written, and every overlay list and
    pending list belongs to exactly one graph.

    Each state has a best-arc table, ``{ilabel: arc}``, built on first use
    by :meth:`best_arcs`: for each input label it holds the highest-weight
    arc tuple, the first in arc order among equal weights. A column state's
    table is built once beside the columns and shared by every copy.
    ``_tables[s]`` is the table this graph last used for state ``s``, or
    None, so that scoring finds a state's table with one list lookup. Its
    length is the state count.

    ``_memo`` holds the enhancement plans of :func:`gboost.enhance.enhance`
    and the label scans behind them, which are computed from the arcs alone
    and costly to recompute. :meth:`copy` shares it, along with the columns
    and their tables, and clones the overlay lists, so edits never reach
    another graph. A freshly read graph has an empty overlay, and copying
    it costs one list copy of its state count.

    Every removal and reweight goes through ``_writable(state)``: it moves
    the state into the overlay, resets the graph's table for the state and
    drops the memo, for this graph only. Additions do the same through
    ``_add_pending``, the tail of :func:`apply_diff` that
    :func:`gboost.enhance.enhance` also calls, except that their arcs stay
    pending. Every reader of arcs but :meth:`best_arcs` first calls
    ``_settle``, which appends the pending arcs to their states' overlay
    lists; so does ``_writable``. Code that edits arc lists must go through
    ``_writable``.

    The graph is single-writer, and taking a copy or settling counts as a
    write of the original. Once enhancement is done it can be read from
    many threads through :meth:`best_arcs` alone, or through any reader
    once one call has settled its additions.
    """

    def __init__(self, symbols: SymbolTable | None = None):
        self.symbols = symbols if symbols is not None else SymbolTable()
        self._columns = _Columns(array("q", [0]), array("i"), array("i"), array("i"),
                                 array("d"))
        # The overlay list of each written state.
        self._overlay: dict[int, list[tuple[int, int, int, float]]] = {}
        # Added arcs not yet in the overlay: ascending sources, arcs beside them.
        self._pending_sources: list[int] = []
        self._pending_arcs: list[tuple[int, int, int, float]] = []
        # Per state: the best-arc table this graph last used, or None.
        self._tables: list[dict | None] = []
        # Values computed from the arcs, shared with copies; None after a write.
        self._memo: dict | None = None
        self.initial: int | None = None
        self.finals: dict[int, float] = {}

    # -- states ---------------------------------------------------------

    def num_states(self) -> int:
        return len(self._tables)

    def states(self) -> range:
        return range(len(self._tables))

    def _check_state(self, state: int) -> None:
        if not 0 <= state < len(self._tables):
            raise InvariantError(f"unknown state id: {state}")

    def set_initial(self, state: int) -> None:
        self._check_state(state)
        self.initial = state

    def set_final(self, state: int, weight: float) -> None:
        self._check_state(state)
        if not math.isfinite(weight):
            raise InvariantError(f"final weight must be finite, got {weight}")
        self.finals[state] = weight

    def final_weight(self, state: int) -> float | None:
        return self.finals.get(state)

    # -- arcs -----------------------------------------------------------

    def _writable(self, state: int) -> list:
        # The only way to an arc list that may be edited. Settles the pending
        # additions, checks the state, moves it into the overlay on its first
        # write, resets its table and drops the memo.
        self._settle()
        arcs = self._overlay.get(state)
        if arcs is None:
            if not 0 <= state < len(self._tables):  # _check_state, inline
                raise InvariantError(f"unknown state id: {state}")
            arcs = self._overlay[state] = self._columns.arcs(state).copy()
        self._tables[state] = None
        self._memo = None
        return arcs

    def _settle(self) -> None:
        # Appends each pending arc to its state's overlay list, one slice of
        # the pending arcs per state, and leaves nothing pending. The tables
        # stay: each is None or was built over these very arcs.
        sources = self._pending_sources
        if not sources:
            return
        arcs, overlay, columns = self._pending_arcs, self._overlay, self._columns
        end, size = 0, len(sources)
        while end < size:
            state = sources[end]
            start, end = end, bisect_right(sources, state, end)
            listed = overlay.get(state)
            if listed is None:
                listed = overlay[state] = columns.arcs(state).copy()
            listed += arcs[start:end]
        self._pending_sources, self._pending_arcs = [], []

    def _add_pending(self, sources: Sequence[int], arcs: list[tuple[int, int, int, float]]
                     ) -> None:
        # Adds arc i, already checked, to state sources[i], pending. Resets
        # the sources' tables and drops the memo. One call's additions at
        # most are pending: merging a second into the first would cost the
        # first's size per call, so earlier ones are settled first. Sorted
        # by source with a stable sort, so call order holds within a state.
        self._settle()
        tables = self._tables
        for source in sources:
            tables[source] = None
        self._memo = None
        order = sorted(range(len(sources)), key=sources.__getitem__)
        self._pending_sources = list(map(sources.__getitem__, order))
        self._pending_arcs = list(map(arcs.__getitem__, order))

    def num_arcs(self, state: int | None = None) -> int:
        self._settle()
        offsets = self._columns.offsets
        if state is None:
            return offsets[-1] + sum(len(arcs) - offsets[s + 1] + offsets[s]
                                     for s, arcs in self._overlay.items())
        arcs = self._overlay.get(state)
        if arcs is None:
            return offsets[state + 1] - offsets[state]
        return len(arcs)

    def arcs(self, state: int) -> list[tuple[int, int, int, float]]:
        """The (target, ilabel, olabel, weight) tuples of ``state``, in order.

        Moves any pending additions into the overlay first. For a state
        whose arcs are in the columns, a list built on first use and kept
        beside them, which every copy of the graph shares; for a written
        state, this graph's live overlay list. Editing either bypasses the
        best-arc table and the memo, and editing the first corrupts every
        copy, so treat the result as read-only. ``state`` is not
        range-checked: take it from :meth:`states` or from an arc target.
        """
        self._settle()
        arcs = self._overlay.get(state)
        return self._columns.arcs(state) if arcs is None else arcs

    def best_arcs(self, state: int) -> dict[int, tuple[int, int, int, float]]:
        """The best-arc table of ``state``: input label -> arc tuple.

        Each label maps to its highest-weight arc, the first in arc order
        among equal weights. Built on first use and kept until the state's
        arcs change. A column state's table is built once and shared with
        every copy. A state with pending additions and no overlay list gets
        a copy of that shared table with its pending arcs, found by bisect,
        folded in: a pending arc wins only if it weighs strictly more. Any
        other written state's table is built from all its arcs. Moves no
        pending arc into the overlay. Read-only, and unchecked like
        :meth:`arcs`.
        """
        table = self._tables[state]
        if table is None:
            sources = self._pending_sources
            start = bisect_left(sources, state)
            end = bisect_right(sources, state, start)
            pending = self._pending_arcs[start:end]
            arcs = self._overlay.get(state)
            if arcs is not None:
                table = _best_table(chain(arcs, pending))
            elif pending:
                table = _best_table(pending, self._column_table(state).copy())
            else:
                table = self._column_table(state)
            self._tables[state] = table
        return table

    def _column_table(self, state: int) -> dict[int, tuple[int, int, int, float]]:
        # The shared best-arc table of a column state's arcs, built on first use.
        columns = self._columns
        table = columns.best[state]
        if table is None:
            slices = columns.slices(state)
            ilabels = slices[1]
            table = dict(zip(ilabels, zip(*slices)))
            if len(table) < len(ilabels):  # a label on several arcs: pick per label
                table = _best_table(zip(*slices))
            columns.best[state] = table
        return table

    def memo(self) -> dict:
        """Values computed from this graph's arcs, shared with its copies.

        Each key names what its value was computed from besides the arcs.
        A write empties this graph's memo and leaves its copies' alone.
        :func:`gboost.enhance.enhance` keeps its plans and label scans here. Treat the
        values as read-only.
        """
        if self._memo is None:
            self._memo = {}
        return self._memo

    def scan(self, labels: Iterable[int]) -> _Found:
        """Arcs whose input label is in ``labels``, grouped by that label.

        Each label maps to its ``(source, arc)`` pairs in state and arc
        order, an empty list if it has none. One pass over the whole graph:
        the column arcs of unwritten states, then the overlay lists, then
        each label's pairs put in state order (a stable sort, so arc order
        holds within a state). Moves any pending additions into the overlay
        first.
        """
        self._settle()
        labels = frozenset(labels)
        found: _Found = {label: [] for label in labels}
        overlay = self._overlay
        columns = self._columns
        offsets, targets, olabels, weights = (columns.offsets, columns.targets,
                                              columns.olabels, columns.weights)
        ilabels = columns.ilabels
        for pos in compress(count(), map(labels.__contains__, ilabels)):
            state = bisect_right(offsets, pos) - 1
            if state not in overlay:
                ilabel = ilabels[pos]
                found[ilabel].append(
                    (state, (targets[pos], ilabel, olabels[pos], weights[pos])))
        overlaid = False
        for state, arcs in overlay.items():
            for arc in arcs:
                if arc[1] in labels:
                    found[arc[1]].append((state, arc))
                    overlaid = True
        if overlaid:
            for pairs in found.values():
                pairs.sort(key=itemgetter(0))
        return found

    def copy(self) -> "Wfst":
        """A copy with its own overlay lists, sharing the columns, tables and memo.

        Moves this graph's pending additions into its overlay first, and
        leaves the copy none. The copy starts with every table built so far
        beside the columns, by this graph or any other copy, and with this
        graph's tables of its overlay states; so a copy finds the tables of
        the states it never writes with one list lookup each.
        """
        self._settle()
        new = Wfst.__new__(Wfst)
        new.symbols = self.symbols.copy()
        new._columns = self._columns
        new._overlay = {state: arcs.copy() for state, arcs in self._overlay.items()}
        new._pending_sources, new._pending_arcs = [], []
        tables = new._tables = self._columns.best.copy()
        for state in self._overlay:
            tables[state] = self._tables[state]
        new._memo = self.memo()
        new.initial = self.initial
        new.finals = dict(self.finals)
        return new


def _from_columns(symbols: SymbolTable, offsets: array, targets: array, ilabels: array,
                  olabels: array, weights: array) -> Wfst:
    """A fresh graph over arc columns grouped by source, as :class:`_Columns` holds them.

    The caller has checked every value: targets below the state count,
    labels non-negative, weights finite.
    """
    fst = Wfst(symbols)
    fst._columns = _Columns(offsets, targets, ilabels, olabels, weights)
    fst._tables = [None] * (len(offsets) - 1)
    return fst


# One arc as read_text packs it: target, ilabel, olabel (C int) and weight
# (C double). Packing a record costs a third of four array appends.
_ARC = Struct("iiid")


def _unpack(records: bytearray) -> tuple[array, array, array, array]:
    # The target, ilabel, olabel and weight columns of packed _ARC records:
    # strided views, each copied out in one pass. A record's double is its
    # last, aligned, field.
    ints, doubles = (memoryview(records).cast(code) for code in "id")
    int_stride, double_stride = _ARC.size // ints.itemsize, _ARC.size // doubles.itemsize
    targets, ilabels, olabels = (array("i", ints[field::int_stride].tobytes())
                                 for field in range(3))
    weights = array("d", doubles[double_stride - 1::double_stride].tobytes())
    return targets, ilabels, olabels, weights


def _gather(column: array, pieces: list[list[int]]) -> array:
    # The column's [start, end) pieces, concatenated in order.
    out = array(column.typecode)
    for start, end in pieces:
        out += column[start:end]
    return out


# ---------------------------------------------------------------------------
# Structural diff


_arc_key = itemgetter(0, 1, 2)  # (target, ilabel, olabel) of an arc tuple


def _arc_groups(arcs: list[tuple[int, int, int, float]]
                ) -> dict[tuple[int, int, int], list[float]]:
    groups: dict[tuple[int, int, int], list[float]] = {}
    for (t, i, o, w) in arcs:
        groups.setdefault((t, i, o), []).append(w)
    return groups


def _appended(before: list, after: list) -> list | None:
    # The arcs `after` appends to `before`, if it is `before` plus a suffix
    # whose (target, ilabel, olabel) keys are pairwise distinct and absent
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
    # The states whose arcs may differ, in order: every state in either
    # overlay, and every column state but those in runs with equal arc
    # counts whose arcs compare equal, one slice per column for the run.
    b_overlay, a_overlay = before._overlay, after._overlay
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
        if (state not in b_overlay and state not in a_overlay and b_offsets[state + 1]
                - b_offsets[state] == a_offsets[state + 1] - a_offsets[state]):
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
    Arcs agreeing on (target, ilabel, olabel) are matched by sorted weight;
    surplus arcs become additions or removals. A state whose arcs are only
    appended to, each under a new key, as :func:`gboost.enhance.enhance`
    appends them, skips the grouping: its new arcs are its additions.
    Moves both graphs' pending additions into their overlays first.
    """
    if before.symbols != after.symbols:
        raise InvariantError("graphs do not share a symbol table")
    if before.num_states() != after.num_states():
        raise InvariantError(
            f"state counts differ ({before.num_states()} vs {after.num_states()})")
    if before.initial != after.initial:
        raise InvariantError("initial states do not correspond")

    before._settle()
    after._settle()
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
            t, i, o = key
            b_weights = sorted(b_groups.get(key, ()))
            a_weights = sorted(a_groups.get(key, ()))
            shared = min(len(b_weights), len(a_weights))
            for bw, aw in zip(b_weights, a_weights):
                if bw != aw:
                    out.reweighted_arcs.append(
                        (Arc(state, t, i, o, bw), Arc(state, t, i, o, aw)))
            for w in b_weights[shared:]:
                out.removed_arcs.append(Arc(state, t, i, o, w))
            for w in a_weights[shared:]:
                out.added_arcs.append(Arc(state, t, i, o, w))

    if before.finals != after.finals:
        for state in before.states():
            bw = before.final_weight(state)
            aw = after.final_weight(state)
            if bw != aw:
                out.final_changes.append((state, bw, aw))
    return out


def apply_diff(fst: Wfst, delta: FstDiff) -> Wfst:
    """Replay a diff onto ``fst`` in place (removals, reweights, additions).

    The one way to change a built graph's arcs; :func:`gboost.enhance.enhance`
    writes through here too. Source and target states must exist, labels
    must be non-negative, a reweight may change only the weight, and new
    weights must be finite, else InvariantError. A reweight edits the last
    arc equal to its old arc: the one whose weight enhancement reads for a
    slot.

    Additions are checked in bulk, column by column. Only when a check
    fails are they walked one by one, which raises the first error in
    delta order. Accepted additions stay pending (see :class:`Wfst`): their
    states' tables are reset and the memo is dropped, but no overlay list
    is made until a reader other than :meth:`Wfst.best_arcs` asks for arcs,
    or the next write comes. Additions still pending from an earlier call
    move into the overlay first.
    """
    # An Arc without its source is the tuple a state's arc list stores.
    for arc in delta.removed_arcs:
        try:
            fst._writable(arc.source).remove(arc[1:])
        except ValueError:
            raise InvariantError(f"cannot remove missing arc {arc}") from None
    for old, new in delta.reweighted_arcs:
        arcs = fst._writable(old.source)
        if old[:4] != new[:4]:
            raise InvariantError(f"a reweight may change only the weight: {old} -> {new}")
        if not math.isfinite(new.weight):
            raise InvariantError(f"arc weight must be finite, got {new.weight}")
        try:
            pos = len(arcs) - 1 - arcs[::-1].index(old[1:])
        except ValueError:
            raise InvariantError(f"cannot reweight missing arc {old}") from None
        arcs[pos] = new[1:]
    if delta.added_arcs:
        sources, targets, ilabels, olabels, weights = zip(*delta.added_arcs)
        num_states = fst.num_states()
        if (min(sources) < 0 or max(sources) >= num_states or min(targets) < 0
                or max(targets) >= num_states or min(ilabels) < 0 or min(olabels) < 0
                or not all(map(math.isfinite, weights))):
            _add_by_arc(fst, delta.added_arcs)  # raises the first error
        else:
            fst._add_pending(sources, list(zip(targets, ilabels, olabels, weights)))
    for state, _, after_weight in delta.final_changes:
        if after_weight is None:
            fst.finals.pop(state, None)
        else:
            fst.set_final(state, after_weight)
    return fst


def _add_by_arc(fst: Wfst, added: list[Arc]) -> None:
    # The additions checked one by one in delta order, then appended per
    # source state, in order of first appearance, through one _writable
    # call each. The first bad target, label or weight raises before any
    # arc lands; a bad source raises once the sources before it have theirs.
    num_states = fst.num_states()
    isfinite = math.isfinite
    by_source: dict[int, list[tuple[int, int, int, float]]] = {}
    for source, target, ilabel, olabel, weight in added:
        if not 0 <= target < num_states:
            raise InvariantError(f"unknown state id: {target}")
        if ilabel < 0 or olabel < 0:
            raise InvariantError(f"labels must be non-negative: {ilabel}:{olabel}")
        if not isfinite(weight):
            raise InvariantError(f"arc weight must be finite, got {weight}")
        by_source.setdefault(source, []).append((target, ilabel, olabel, weight))
    for source, arcs in by_source.items():
        fst._writable(source).extend(arcs)


# ---------------------------------------------------------------------------
# Text format


# Arcs per block of write_text: the weight strings of one block at a time
# are all it holds.
_BLOCK = 1 << 14


def _folded(fst: Wfst) -> tuple[array, array, array, array, array]:
    # The graph's offsets and arc columns with each overlay list in place of
    # its state's column arcs, the inverse of _writable: its own columns if
    # it has no overlay, else fresh ones. Pending additions are settled first.
    fst._settle()
    columns, overlay = fst._columns, fst._overlay
    if not overlay:
        return (columns.offsets, columns.targets, columns.ilabels, columns.olabels,
                columns.weights)
    offsets = columns.offsets
    sources = (columns.targets, columns.ilabels, columns.olabels, columns.weights)
    counts = list(map(sub, islice(offsets, 1, None), offsets))
    folded = [array(source.typecode) for source in sources]
    at = 0
    for state in sorted(overlay):
        arcs = overlay[state]
        counts[state] = len(arcs)
        for column, source in zip(folded, sources):
            column += source[at:offsets[state]]
        for column, values in zip(folded, zip(*arcs)):
            column.extend(values)
        at = offsets[state + 1]
    for column, source in zip(folded, sources):
        column += source[at:]
    return (array("q", accumulate(counts, initial=0)), *folded)


def write_text(fst: Wfst, stream: TextIO, negate: bool = False) -> Wfst:
    """Write ``fst`` as text; return the graph :func:`read_text` reads back.

    One record per line, fields separated by spaces: an arc is ``src dst
    isym osym weight`` and a final state ``state weight``, with symbols from
    ``fst.symbols``. The initial state's records come first, so
    :func:`read_text` finds it on line 1; then every other state in id
    order, each with its arcs in list order and then its final weight, if it
    has one. Weights print as ``"%.9g" % w``. With ``negate`` the file holds
    costs: each weight is printed as ``"%.9g" % (-1.0 * w)``.

    An overlay is first folded into fresh columns. Weights are then printed
    one block of ``_BLOCK`` arcs at a time, never all at once, and each
    string is parsed back, ``sign * float(text)``. The graph returned is the
    one :func:`read_text` builds from the text, and what
    :func:`write_companion` dumps: columns only, labelled by ``fst.symbols``
    itself, with its finals in file order. A caller that wants only the
    text pays for it too: the parse-back (about 0.03 s per 180k arcs), a
    weights array of the graph's size and, when the graph has an overlay,
    folded copies of its other columns.

    InvariantError, before anything is written, if the graph has no initial
    state, if that state or the last state has neither arcs nor a final
    weight and, for the last, no arc into it either (the file would not
    name it), or if the last state's id is at or above twice the number of
    arcs and final states, which :func:`read_text` refuses; and, while
    writing, if an arc carries a label the symbol table lacks.
    """
    initial = fst.initial
    if initial is None:
        raise InvariantError("graph has no initial state")
    finals = fst.finals
    if not fst.num_arcs(initial) and initial not in finals:
        raise InvariantError("initial state has no arcs and is not final; nothing to write")
    offsets, targets, ilabels, olabels, weights = _folded(fst)
    top = len(offsets) - 2
    if offsets[top] == offsets[top + 1] and top not in finals and top not in targets:
        raise InvariantError(f"the last state, {top}, has no arcs, is not final and has "
                             "no arc into it; the file would not name it")
    named = offsets[-1] + len(finals)
    if top >= 2 * named:
        raise InvariantError(f"the last state, {top}, is at or above twice the number of "
                             f"arcs and final states ({named}); the file would not read back")
    sign = -1.0 if negate else 1.0
    mod, mul = WEIGHT_FMT.__mod__, sign.__mul__
    symbol = fst.symbols._lab2sym.__getitem__
    views = [memoryview(column) for column in (targets, ilabels, olabels, weights)]
    parsed = array("d", [0.0]) * len(weights)  # the read-back weights, in column order

    def block(start: int, end: int) -> Iterator[tuple[int, str, str, str]]:
        # The rows of column entries start..end. Each weight is printed once
        # and its string parsed back into place.
        target_view, ilabel_view, olabel_view, weight_view = (
            view[start:end] for view in views)
        if negate:  # 1.0 * w is w, bit for bit: only costs multiply
            texts = list(map(mod, map(mul, weight_view)))
            parsed[start:end] = array("d", map(mul, map(float, texts)))
        else:
            texts = list(map(mod, weight_view))
            parsed[start:end] = array("d", map(float, texts))
        return zip(target_view, map(symbol, ilabel_view), map(symbol, olabel_view), texts)

    # File order is three runs of the columns: the initial state's entries,
    # the states below it, the states above it. Each run is cut into blocks,
    # and one row iterator runs through them all.
    first, after = offsets[initial], offsets[initial + 1]
    runs = ((first, after), (0, first), (after, offsets[-1]))
    rows = chain.from_iterable(block(at, min(at + _BLOCK, end)) for start, end in runs
                               for at in range(start, end, _BLOCK))
    read_finals: dict[int, float] = {}
    write = stream.write
    for state in chain((initial,), range(initial), range(initial + 1, top + 1)):
        try:
            text = "".join(map(f"{state} %s %s %s %s\n".__mod__,
                               islice(rows, offsets[state + 1] - offsets[state])))
        except KeyError as exc:
            raise InvariantError(f"unknown label: {exc.args[0]}") from None
        final = finals.get(state)
        if final is not None:
            final_text = mod(sign * final)
            read_finals[state] = sign * float(final_text)
            text += f"{state} {final_text}\n"
        write(text)
    written = _from_columns(fst.symbols, offsets, targets, ilabels, olabels, parsed)
    written.finals = read_finals
    written.initial = initial
    return written


def read_text(stream: TextIO, symbols: SymbolTable, negate: bool = False) -> Wfst:
    """Read a graph written by :func:`write_text`, labelled by ``symbols``.

    One record per non-blank line, fields separated by any whitespace: an
    arc is ``src dst isym osym weight`` and a final state ``state weight``.
    The first record's first field names the initial state. Each state's
    arcs keep their order in the file, even when split over several blocks;
    a state's last final record wins. With ``negate`` the file holds costs
    and every weight is negated on the way in.

    State ids are dense: the graph gets every state from 0 up to the
    largest id named. An arc names two states and a final state one, so an
    id at or above twice the number of arcs and final states is rejected
    before any state is allocated. Final states, not final records, count:
    a state's repeated final records are one record in the file
    :func:`write_text` makes of the graph, which must read back too.

    Every malformed record is a FormatError at its line: a wrong field
    count, a bad number, a negative state id or one above ``ID_MAX``, an
    unknown symbol (named in the message) or a non-finite weight.

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
                _, target_text, isym, osym, weight_text = fields
                target = int(target_text)
                if not 0 <= target <= top:
                    new_top(target, lineno)
                weight = sign * float(weight_text)
                ilabel = label_of(isym)
                if ilabel is None:
                    raise FormatError(f"unknown symbol: {isym!r}", line=lineno)
                olabel = ilabel if osym == isym else label_of(osym)
                if olabel is None:
                    raise FormatError(f"unknown symbol: {osym!r}", line=lineno)
                if not isfinite(weight):
                    raise FormatError(f"arc weight must be finite, got {weight}", line=lineno)
                records += pack(target, ilabel, olabel, weight)
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
    targets, ilabels, olabels, weights = _unpack(records)
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
        targets, ilabels, olabels, weights = (
            _gather(column, pieces) for column in (targets, ilabels, olabels, weights))
    fst = _from_columns(symbols, array("q", accumulate(counts, initial=0)),
                        targets, ilabels, olabels, weights)
    fst.finals = finals
    fst.initial = initial
    return fst


# ---------------------------------------------------------------------------
# Companion file

COMPANION_SUFFIX = ".bin"

# magic; byte order (1 little-endian, 0 big-endian), item sizes of the "q",
# "i" and "d" arrays, negate flag; counts of states, arcs, finals, label
# pairs and symbol-text bytes; initial state; BLAKE2b-256 of the text file.
_HEADER = Struct("<8s5B3x6q32s")
_MAGIC = b"gboostG\x02"
_NATIVE = (sys.byteorder == "little", array("q").itemsize, array("i").itemsize,
           array("d").itemsize)
_DIGEST_SIZE = 32


def _hash(data: bytes = b""):
    # A BLAKE2b-256 hash object over `data`: both of the companion's digests.
    return blake2b(data, digest_size=_DIGEST_SIZE)


class _Fallback(Exception):
    # Why a companion was not used; its message is the reason.
    pass


def _file_digest(path: str) -> bytes:
    # Hashed by blocks, so the text is never held whole in memory.
    digest = _hash()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.digest()


def write_companion(fst: Wfst, path: str, stream: BinaryIO, negate: bool = False) -> None:
    """Write the companion of graph text file ``path`` to ``stream``.

    ``fst`` is the graph :func:`write_text` returned when it wrote ``path``
    with ``negate``: the graph :func:`read_text` builds from that text. This
    dumps its columns (see the module docstring for the layout), and
    :func:`load_graph` reads them back from ``path + COMPANION_SUFFIX``.
    InvariantError if ``fst`` has an overlay or pending additions, which
    no such graph has.
    """
    fst._settle()
    if fst._overlay:
        raise InvariantError("a companion is written from the graph write_text returns, "
                             "which has no overlay")
    text_digest = _file_digest(path)
    columns, finals = fst._columns, fst.finals
    used = set(columns.ilabels)
    if columns.olabels != columns.ilabels:
        used.update(columns.olabels)
    labels = sorted(used)
    names = "".join(fst.symbols.symbol(label) + "\n" for label in labels).encode()
    header = _HEADER.pack(_MAGIC, *_NATIVE, negate, len(columns.offsets) - 1,
                          len(columns.weights), len(finals), len(labels), len(names),
                          fst.initial, text_digest)
    digest = _hash()
    for part in (header, columns.offsets, columns.targets, columns.ilabels, columns.olabels,
                 columns.weights, array("i", finals), array("d", finals.values()),
                 array("i", labels), names):
        digest.update(part)
        stream.write(part)
    stream.write(digest.digest())


def _read_companion(path: str, symbols: SymbolTable, negate: bool) -> Wfst:
    # The graph in the companion of `path`, or _Fallback with the reason.
    try:
        handle = open(path + COMPANION_SUFFIX, "rb")
    except FileNotFoundError:
        raise _Fallback("missing") from None
    try:
        with handle:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise _Fallback("corrupt: shorter than its header")
            (magic, *native, negated, states, arcs, finals, pairs, names_size, initial,
             text_digest) = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise _Fallback("corrupt: not a graph companion")
            if tuple(native) != _NATIVE:
                raise _Fallback("corrupt: byte order or item sizes differ from this machine's")
            # Sized against the file before anything is allocated.
            parts = (("q", states + 1), ("i", arcs), ("i", arcs), ("i", arcs), ("d", arcs),
                     ("i", finals), ("d", finals), ("i", pairs))
            size = (_HEADER.size + names_size + _DIGEST_SIZE
                    + sum(array(code).itemsize * n for code, n in parts))
            if (min(states, arcs, finals, pairs, names_size) < 0
                    or os.fstat(handle.fileno()).st_size != size):
                raise _Fallback("corrupt: its size does not match its header")
            if negated != negate:
                raise _Fallback("convention")
            if _file_digest(path) != text_digest:
                raise _Fallback("stale")
            digest = _hash(header)
            columns = []
            for code, n in parts:
                column = array(code)
                column.fromfile(handle, n)
                digest.update(column)
                columns.append(column)
            names = handle.read(names_size)
            digest.update(names)
            if handle.read() != digest.digest():
                raise _Fallback("corrupt: payload digest mismatch")
    except (OSError, EOFError) as exc:
        raise _Fallback(f"corrupt: {exc}") from None
    offsets, targets, ilabels, olabels, weights, final_states, final_weights, labels = columns
    # Checked like outside input: read_text's own bounds, every id in
    # range, every weight finite and every label listed.
    isfinite = math.isfinite
    if not (0 < states <= min(ID_MAX + 1, 2 * (arcs + finals)) and 0 <= initial < states
            and offsets[0] == 0 and offsets[-1] == arcs
            and all(map(le, offsets, islice(offsets, 1, None)))
            and (not arcs or 0 <= min(targets) and max(targets) < states)
            and (not finals or 0 <= min(final_states) and max(final_states) < states)
            and len(set(final_states)) == finals
            and all(map(isfinite, weights)) and all(map(isfinite, final_weights))):
        raise _Fallback("corrupt: a count, state id or weight is out of range")
    try:
        names = names.decode().split("\n")
    except UnicodeDecodeError:
        raise _Fallback("corrupt: its symbols are not UTF-8") from None
    used = set(ilabels)
    if olabels == ilabels:  # an acceptor's, as build_g makes it: one column serves both
        olabels = ilabels
    else:
        used.update(olabels)
    if names.pop() or len(names) != pairs or not used <= set(labels):
        raise _Fallback("corrupt: an arc label is not in its label list")
    symbol = symbols._lab2sym.get
    if any(symbol(label) != name for label, name in zip(labels, names)):
        raise _Fallback("symbols")
    fst = _from_columns(symbols, offsets, targets, ilabels, olabels, weights)
    fst.finals = dict(zip(final_states, final_weights))
    fst.initial = initial
    return fst


def load_graph(path: str, symbols: SymbolTable, negate: bool = False) -> Wfst:
    """Read the graph in text file ``path``, labelled by ``symbols``.

    From its companion, ``path + COMPANION_SUFFIX``, when that is valid for
    this text, convention and symbol table (see the module docstring);
    otherwise with :func:`read_text`, which raises as it does for any bad
    text. Logs one INFO line: where the graph came from, and why not from
    the companion.
    """
    start = perf_counter()
    try:
        fst = _read_companion(path, symbols, negate)
        source = "companion"
    except _Fallback as reason:
        with open(path, encoding="utf-8") as handle:
            fst = read_text(handle, symbols, negate=negate)
        source = f"text (companion {reason})"
    log.info("read %s from %s: %d states, %d arcs in %.3f s", path, source,
             fst.num_states(), fst.num_arcs(), perf_counter() - start)
    return fst
