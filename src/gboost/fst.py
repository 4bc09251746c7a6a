"""Mutable weighted FSTs with text serialization and structural diffing.

Weights are natural-log probabilities throughout: larger means more likely,
and the weight of a path is the sum of its arc weights plus the final weight
of the state where it ends.  Cost-style (negated) files are handled at I/O
time only, via the ``negate`` flag of :func:`read_text` / :func:`write_text`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, TextIO

from gboost.errors import FormatError, InvariantError

EPSILON = "<eps>"
EPSILON_LABEL = 0

# Fixed print format for weights, 9 significant digits.
WEIGHT_FMT = "%.9g"


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
        symbols or labels raise, keeping the table bijective.
        """
        if symbol in self._sym2lab:
            raise InvariantError(f"symbol already in table: {symbol!r}")
        if label is None:
            while self._next in self._lab2sym:
                self._next += 1
            label = self._next
        if label in self._lab2sym:
            raise InvariantError(f"label already in table: {label}")
        if label < 0:
            raise InvariantError(f"labels must be non-negative, got {label}")
        self._sym2lab[symbol] = label
        self._lab2sym[label] = symbol
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

    def items(self) -> Iterator[tuple[str, int]]:
        """(symbol, label) pairs in insertion order."""
        return iter(self._sym2lab.items())

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
    """Exact structural delta between two graphs sharing a symbol table."""

    added_arcs: list[Arc] = field(default_factory=list)
    removed_arcs: list[Arc] = field(default_factory=list)
    reweighted_arcs: list[tuple[Arc, Arc]] = field(default_factory=list)
    final_changes: list[tuple[int, float | None, float | None]] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.added_arcs or self.removed_arcs
                    or self.reweighted_arcs or self.final_changes)

    def num_changes(self) -> int:
        return (len(self.added_arcs) + len(self.removed_arcs)
                + len(self.reweighted_arcs) + len(self.final_changes))


# scan() results: input label -> (source state, arc tuple) pairs.
_Found = dict[int, list[tuple[int, tuple[int, int, int, float]]]]


class _ArcList(list):
    """One state's arcs, with its best-arc table in ``best`` (None until built)."""

    __slots__ = ("best",)


class Wfst:
    """A weighted FST: dense integer states, per-state outgoing arc lists.

    Arc lists preserve insertion order. Each list also carries the state's
    best-arc table, ``{ilabel: arc}``, built on first use by
    :meth:`best_arcs`: for each input label it holds the highest-weight arc
    tuple, the first in arc order among equal weights.

    :meth:`copy` is copy-on-write. The copy shares every arc list with the
    original, and after a copy neither graph owns the shared lists. The
    first write to a state clones that state's list, so edits never reach
    another graph. A table lives on its list, so a table built through one
    graph serves every graph sharing the list. :meth:`scan` results are
    memoized per label set; copies share the memo until they write.

    Every arc edit goes through ``_writable(state)``: it clones a shared
    list, resets the state's table and drops the scan memo. ``add_arc`` and
    :func:`apply_diff` use it; code that edits arc lists must too. The one
    exception is a builder filling a fresh graph's new lists, as
    :func:`read_text` and :func:`gboost.graph.build_g` do, through
    ``_add_states``.

    The graph is single-writer, and taking a copy counts as a write of the
    original; once construction or enhancement is done it can be read from
    many threads.
    """

    def __init__(self, symbols: SymbolTable | None = None):
        self.symbols = symbols if symbols is not None else SymbolTable()
        # Per-state arcs as (target, ilabel, olabel, weight) tuples. Kept
        # compact on purpose: graphs run to millions of arcs.
        self._arcs: list[_ArcList] = []
        # States whose lists this graph owns; None while it owns them all,
        # which is true until its first copy.
        self._owned: set[int] | None = None
        # scan() results by label set, shared with copies; None after a write.
        self._scans: dict[frozenset[int], _Found] | None = None
        self.initial: int | None = None
        self.finals: dict[int, float] = {}

    # -- states ---------------------------------------------------------

    def add_state(self) -> int:
        self._add_states(1)
        return len(self._arcs) - 1

    def _add_states(self, count: int,
                    filled: dict[int, _ArcList] | None = None) -> list[_ArcList]:
        # Bulk fill: appends `count` states and returns their arc lists,
        # taking filled[i] as the list of the i-th new state where given.
        # Builders of a fresh graph append arc tuples to the lists directly
        # and check each arc themselves.
        fresh = []
        for i in range(count):
            arcs = filled.get(i) if filled else None
            if arcs is None:
                arcs = _ArcList()
                arcs.best = None
            fresh.append(arcs)
        start = len(self._arcs)
        self._arcs += fresh
        if self._owned is not None:
            self._owned.update(range(start, start + count))
        return fresh

    def num_states(self) -> int:
        return len(self._arcs)

    def states(self) -> range:
        return range(len(self._arcs))

    def _check_state(self, state: int) -> None:
        if not 0 <= state < len(self._arcs):
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

    def _writable(self, state: int) -> _ArcList:
        # The only way to an arc list that may be edited. Checks the state,
        # clones a list this graph does not own, resets the state's table
        # and drops the scan memo.
        lists = self._arcs
        if not 0 <= state < len(lists):
            raise InvariantError(f"unknown state id: {state}")
        arcs = lists[state]
        owned = self._owned
        if owned is not None and state not in owned:
            arcs = lists[state] = _ArcList(arcs)
            owned.add(state)
        arcs.best = None
        self._scans = None
        return arcs

    def add_arc(self, source: int, target: int, ilabel: int, olabel: int,
                weight: float) -> None:
        """Append an arc to the source state's list."""
        arcs = self._writable(source)
        if not 0 <= target < len(self._arcs):  # _check_state, without a call per arc
            raise InvariantError(f"unknown state id: {target}")
        if ilabel < 0 or olabel < 0:
            raise InvariantError(f"labels must be non-negative: {ilabel}:{olabel}")
        if not math.isfinite(weight):
            raise InvariantError(f"arc weight must be finite, got {weight}")
        arcs.append((target, ilabel, olabel, weight))

    def num_arcs(self, state: int | None = None) -> int:
        if state is not None:
            return len(self._arcs[state])
        return sum(len(a) for a in self._arcs)

    def arcs(self, state: int) -> list[tuple[int, int, int, float]]:
        """Live (target, ilabel, olabel, weight) tuples of ``state``.

        Insertion order. The list may be shared with copies of the graph:
        editing it corrupts every graph that shares it, along with its
        best-arc table and the scan memo, so treat it as read-only. This is
        the fast path for whole-graph scans, so ``state`` is not
        range-checked: take it from :meth:`states` or from an arc target.
        """
        return self._arcs[state]

    def best_arcs(self, state: int) -> dict[int, tuple[int, int, int, float]]:
        """The best-arc table of ``state``: input label -> arc tuple.

        Each label maps to its highest-weight arc, the first in arc order
        among equal weights. Built on first use and kept on the arc list
        until the state's arcs change. Read-only, and unchecked like
        :meth:`arcs`.
        """
        arcs = self._arcs[state]
        table = arcs.best
        if table is None:
            table = {}
            for arc in arcs:
                held = table.get(arc[1])
                if held is None or arc[3] > held[3]:
                    table[arc[1]] = arc
            arcs.best = table
        return table

    def scan(self, labels: Iterable[int]) -> _Found:
        """Arcs whose input label is in ``labels``, grouped by that label.

        Each label maps to its ``(source, arc)`` pairs in state and arc
        order, an empty list if it has none. The result is memoized per
        label set and shared with copies until the graph's arcs change:
        treat it as read-only.
        """
        key = frozenset(labels)
        if self._scans is None:
            self._scans = {}
        found = self._scans.get(key)
        if found is None:
            found = self._scans[key] = self._scan(key)
        return found

    def _scan(self, labels: frozenset[int]) -> _Found:
        # The whole-graph pass behind scan().
        found: _Found = {label: [] for label in labels}
        for state, arcs in enumerate(self._arcs):
            for arc in arcs:
                if arc[1] in labels:
                    found[arc[1]].append((state, arc))
        return found

    def copy(self) -> "Wfst":
        """A copy that shares this graph's arc lists until either writes one."""
        new = Wfst.__new__(Wfst)
        new.symbols = self.symbols.copy()
        new._arcs = self._arcs.copy()
        self._owned = set()
        new._owned = set()
        if self._scans is None:
            self._scans = {}
        new._scans = self._scans
        new.initial = self.initial
        new.finals = dict(self.finals)
        return new


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


def diff(before: Wfst, after: Wfst) -> FstDiff:
    """Exact arc-for-arc delta turning ``before`` into ``after``.

    Both graphs must share a symbol table and have the same state count.
    Arcs agreeing on (target, ilabel, olabel) are matched by sorted weight;
    surplus arcs become additions or removals. A state whose arcs are only
    appended to, each under a new key, as :func:`gboost.enhance.enhance`
    appends them, skips the grouping: its new arcs are its additions.
    """
    if before.symbols != after.symbols:
        raise InvariantError("graphs do not share a symbol table")
    if before.num_states() != after.num_states():
        raise InvariantError(
            f"state counts differ ({before.num_states()} vs {after.num_states()})")
    if before.initial != after.initial:
        raise InvariantError("initial states do not correspond")

    out = FstDiff()
    for state, (b_arcs, a_arcs) in enumerate(zip(before._arcs, after._arcs)):
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

    :func:`gboost.enhance.enhance` writes through here too. Source states
    must exist, a reweight may change only the weight, and new weights must
    be finite, else InvariantError. A reweight edits the last arc equal to
    its old arc: the one whose weight enhancement reads for a slot.
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
    # Additions are checked one by one, as add_arc would, then appended per
    # source state in delta order through one _writable call each.
    num_states = fst.num_states()
    added: dict[int, list[tuple[int, int, int, float]]] = {}
    for arc in delta.added_arcs:
        source, target, ilabel, olabel, weight = arc
        if not 0 <= target < num_states:
            raise InvariantError(f"unknown state id: {target}")
        if ilabel < 0 or olabel < 0:
            raise InvariantError(f"labels must be non-negative: {ilabel}:{olabel}")
        if not math.isfinite(weight):
            raise InvariantError(f"arc weight must be finite, got {weight}")
        arcs = added.get(source)
        if arcs is None:
            arcs = added[source] = []
        arcs.append(arc[1:])
    for source, arcs in added.items():
        fst._writable(source).extend(arcs)
    for state, _, after_weight in delta.final_changes:
        if after_weight is None:
            fst.finals.pop(state, None)
        else:
            fst.set_final(state, after_weight)
    return fst


# ---------------------------------------------------------------------------
# Text format


def write_text(fst: Wfst, stream: TextIO, negate: bool = False) -> None:
    """Write ``fst`` as text, one record per line, fields separated by spaces.

    An arc is ``src dst isym osym weight`` and a final state ``state
    weight``, with symbols from ``fst.symbols``. The initial state's records
    come first, so :func:`read_text` finds it on line 1; then every other
    state in id order, each with its arcs in list order and then its final
    weight, if it has one. Weights print as ``"%.9g" % w``. With ``negate``
    the file holds costs: each weight is printed as ``"%.9g" % (-1.0 * w)``.

    InvariantError if the graph has no initial state, if that state has
    neither arcs nor a final weight (the file would not name it), or if an
    arc carries a label the symbol table lacks.
    """
    initial = fst.initial
    if initial is None:
        raise InvariantError("graph has no initial state")
    lists = fst._arcs
    finals = fst.finals
    if not lists[initial] and initial not in finals:
        raise InvariantError("initial state has no arcs and is not final; nothing to write")
    sign = -1.0 if negate else 1.0
    symbol = fst.symbols._lab2sym
    write = stream.write
    for state in chain((initial,), range(initial), range(initial + 1, len(lists))):
        arc_fmt = f"{state} %s %s %s {WEIGHT_FMT}\n"
        try:
            text = "".join([arc_fmt % (t, symbol[i], symbol[o], sign * w)
                             for t, i, o, w in lists[state]])
        except KeyError as exc:
            raise InvariantError(f"unknown label: {exc.args[0]}") from None
        final = finals.get(state)
        if final is not None:
            text += f"{state} {WEIGHT_FMT % (sign * final)}\n"
        write(text)


def read_text(stream: TextIO, symbols: SymbolTable, negate: bool = False) -> Wfst:
    """Read a graph written by :func:`write_text`, labelled by ``symbols``.

    One record per non-blank line, fields separated by any whitespace: an
    arc is ``src dst isym osym weight`` and a final state ``state weight``.
    The first record's first field names the initial state. Each state's
    arcs keep their order in the file, even when split over several blocks;
    a state's last final record wins. With ``negate`` the file holds costs
    and every weight is negated on the way in.

    State ids are dense: the graph gets every state from 0 up to the
    largest id named. Each record names at most two states, so an id at or
    above twice the number of records is rejected before any state is
    allocated. Every malformed record is a FormatError at its line: a wrong
    field count, a bad number, a negative or out-of-bound state id, an
    unknown symbol (named in the message) or a non-finite weight.

    Each state id is one ``int`` object, shared by every arc target, the
    initial state and the final-weight keys that name it, as in a graph
    built in memory. An id text is converted and range-checked the first
    time it is seen; after that it costs one dict lookup.
    """
    sign = -1.0 if negate else 1.0
    label_of = symbols._sym2lab.get
    isfinite = math.isfinite
    by_source: dict[int, _ArcList] = {}
    finals: dict[int, float] = {}
    ids: dict[str, int] = {}  # id text -> its state's one int
    initial = None
    records = 0
    top = top_line = 0  # the largest state id, and the first line naming it
    source_text = arcs = None  # the last arc line's source, and its list

    def state_id(text: str, lineno: int) -> int:
        # First sight of an id text: convert, range-check and share it.
        nonlocal top, top_line
        state = int(text)
        if not 0 <= state <= top:
            if state < 0:
                raise FormatError(f"unknown state id: {state}", line=lineno)
            top, top_line = state, lineno
        canonical = str(state)
        if canonical != text:  # "07" or "+7" shares the int of "7"
            state = ids.setdefault(canonical, state)
        ids[text] = state
        return state

    for lineno, line in enumerate(stream, start=1):
        fields = line.split()
        count = len(fields)
        try:
            if count == 5:
                if fields[0] != source_text:
                    source_text = fields[0]
                    source = ids.get(source_text)
                    if source is None:
                        source = state_id(source_text, lineno)
                    arcs = by_source.get(source)
                    if arcs is None:
                        arcs = by_source[source] = _ArcList()
                        arcs.best = None
                        if initial is None:
                            initial = source
                _, target_text, isym, osym, weight_text = fields
                target = ids.get(target_text)
                if target is None:
                    target = state_id(target_text, lineno)
                weight = sign * float(weight_text)
                ilabel = label_of(isym)
                if ilabel is None:
                    raise FormatError(f"unknown symbol: {isym!r}", line=lineno)
                olabel = ilabel if osym == isym else label_of(osym)
                if olabel is None:
                    raise FormatError(f"unknown symbol: {osym!r}", line=lineno)
                if not isfinite(weight):
                    raise FormatError(f"arc weight must be finite, got {weight}", line=lineno)
                arcs.append((target, ilabel, olabel, weight))
            elif count == 2:
                state = ids.get(fields[0])
                if state is None:
                    state = state_id(fields[0], lineno)
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
            else:
                continue
        except ValueError:
            kind = "arc" if count == 5 else "final"
            raise FormatError(f"bad {kind} line: {line.strip()!r}", line=lineno) from None
        records += 1
    if initial is None:
        raise FormatError("empty FST file")
    if top >= 2 * records:
        raise FormatError(f"state id {top} is at or above twice the number of records "
                          f"({records})", line=top_line)
    fst = Wfst(symbols)
    fst._add_states(top + 1, by_source)
    fst.finals = finals
    fst.initial = initial
    return fst
