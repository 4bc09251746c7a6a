"""Mutable weighted FSTs with text serialization and structural diffing.

Weights are natural-log probabilities throughout: larger means more likely,
and the weight of a path is the sum of its arc weights plus the final weight
of the state where it ends.  Cost-style (negated) files are handled at I/O
time only, via the ``negate`` flag of :func:`read_text` / :func:`write_text`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

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
            if lineno == 1:
                if sym != EPSILON or lab != EPSILON_LABEL:
                    raise FormatError(f"first entry must be '{EPSILON} 0'", line=lineno)
                continue
            if sym == EPSILON or lab == EPSILON_LABEL:
                raise FormatError(f"'{EPSILON}'/0 may appear only on line 1", line=lineno)
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
    :func:`apply_diff` use it; code that edits arc lists must too.

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
        arcs = _ArcList()
        arcs.best = None
        self._arcs.append(arcs)
        state = len(self._arcs) - 1
        if self._owned is not None:
            self._owned.add(state)
        return state

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

    def arcs_matching(self, state: int, ilabel: int) -> list[tuple[int, int, int, float]]:
        """Arcs of ``state`` (as in :meth:`arcs`) whose input label is ``ilabel``."""
        self._check_state(state)
        return [arc for arc in self._arcs[state] if arc[1] == ilabel]

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
# Path weights


def _resolve_labels(fst: Wfst, input_seq: Sequence[str | int]) -> list[int]:
    labels = []
    for item in input_seq:
        label = fst.symbols.label(item) if isinstance(item, str) else int(item)
        if label == EPSILON_LABEL:
            raise InvariantError("epsilon is not permitted in the input sequence")
        # Unknown integer labels get the same treatment as unknown symbols.
        fst.symbols.symbol(label)
        labels.append(label)
    return labels


def _epsilon_closure(fst: Wfst, frontier: dict[int, float]) -> dict[int, float]:
    # Max-plus relaxation over epsilon arcs. Backoff graphs have acyclic
    # epsilon chains, so this converges quickly; a still-improving pass after
    # num_states rounds means a positive-weight epsilon cycle.
    for _ in range(fst.num_states() + 1):
        changed = False
        for state in list(frontier):
            base = frontier[state]
            for target, _, _, weight in fst.arcs_matching(state, EPSILON_LABEL):
                cand = base + weight
                if cand > frontier.get(target, -math.inf):
                    frontier[target] = cand
                    changed = True
        if not changed:
            return frontier
    raise InvariantError("epsilon cycle with positive weight; path weights diverge")


def path_weight(fst: Wfst, input_seq: Sequence[str | int]) -> float | None:
    """Max-over-paths weight of ``input_seq``, or None if no path accepts.

    The input is a sequence of symbols (or integer labels); epsilon arcs in
    the graph consume no input. Parallel paths resolve to the maximum total.

    Back-off semantics: best path over epsilon arcs. A back-off arc
    competes with a word arc even where the word arc exists, which is what
    a Viterbi decoder over an epsilon back-off graph sees. On a grammar
    graph this can exceed :func:`gboost.graph.graph_score`, which uses
    failure semantics.
    """
    if fst.initial is None:
        raise InvariantError("graph has no initial state")
    labels = _resolve_labels(fst, input_seq)
    frontier = _epsilon_closure(fst, {fst.initial: 0.0})
    for label in labels:
        advanced: dict[int, float] = {}
        for state, weight in frontier.items():
            for target, _, _, arc_weight in fst.arcs_matching(state, label):
                cand = weight + arc_weight
                if cand > advanced.get(target, -math.inf):
                    advanced[target] = cand
        if not advanced:
            return None
        frontier = _epsilon_closure(fst, advanced)
    best = None
    for state, weight in frontier.items():
        final = fst.final_weight(state)
        if final is None:
            continue
        total = weight + final
        if best is None or total > best:
            best = total
    return best


# ---------------------------------------------------------------------------
# Structural diff


def _arc_groups(fst: Wfst, state: int) -> dict[tuple[int, int, int], list[float]]:
    groups: dict[tuple[int, int, int], list[float]] = {}
    for (t, i, o, w) in fst.arcs(state):
        groups.setdefault((t, i, o), []).append(w)
    return groups


def diff(before: Wfst, after: Wfst) -> FstDiff:
    """Exact arc-for-arc delta turning ``before`` into ``after``.

    Both graphs must share a symbol table and have the same state count.
    Arcs agreeing on (target, ilabel, olabel) are matched by sorted weight;
    surplus arcs become additions or removals.
    """
    if before.symbols != after.symbols:
        raise InvariantError("graphs do not share a symbol table")
    if before.num_states() != after.num_states():
        raise InvariantError(
            f"state counts differ ({before.num_states()} vs {after.num_states()})")
    if before.initial != after.initial:
        raise InvariantError("initial states do not correspond")

    out = FstDiff()
    for state in before.states():
        b_groups = _arc_groups(before, state)
        a_groups = _arc_groups(after, state)
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
    for arc in delta.added_arcs:
        fst.add_arc(*arc)  # an Arc's fields are add_arc's parameters, in order
    for state, _, after_weight in delta.final_changes:
        if after_weight is None:
            fst.finals.pop(state, None)
        else:
            fst.set_final(state, after_weight)
    return fst


# ---------------------------------------------------------------------------
# Text format
#
# One record per line, whitespace separated:
#   arc lines    src dst isym osym weight
#   final lines  state weight
# Line 1's src names the initial state. Weights print with 9 significant
# digits; ``negate=True`` flips weight signs on the way in or out (cost
# convention).


def write_text(fst: Wfst, stream: TextIO, negate: bool = False) -> None:
    if fst.initial is None:
        raise InvariantError("graph has no initial state")
    sign = -1.0 if negate else 1.0

    def emit_state(state: int) -> None:
        sym = fst.symbols.symbol
        for (t, i, o, w) in fst.arcs(state):
            stream.write(f"{state} {t} {sym(i)} {sym(o)} {WEIGHT_FMT % (sign * w)}\n")
        final = fst.final_weight(state)
        if final is not None:
            stream.write(f"{state} {WEIGHT_FMT % (sign * final)}\n")

    if not fst.arcs(fst.initial) and fst.final_weight(fst.initial) is None:
        raise InvariantError("initial state has no arcs and is not final; nothing to write")
    emit_state(fst.initial)
    for state in fst.states():
        if state != fst.initial:
            emit_state(state)


def read_text(stream: TextIO, symbols: SymbolTable, negate: bool = False) -> Wfst:
    fst = Wfst(symbols)
    sign = -1.0 if negate else 1.0

    def ensure(state_id: int, lineno: int) -> int:
        if state_id < 0:
            raise FormatError(f"unknown state id: {state_id}", line=lineno)
        while fst.num_states() <= state_id:
            fst.add_state()
        return state_id

    first = True
    for lineno, line in enumerate(stream, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) == 2:
            state_text, weight_text = fields
            try:
                state = ensure(int(state_text), lineno)
                weight = float(weight_text)
            except ValueError:
                raise FormatError(f"bad final line: {line.strip()!r}", line=lineno) from None
            try:
                fst.set_final(state, sign * weight)
            except InvariantError as exc:  # nan or infinite weight
                raise FormatError(str(exc), line=lineno) from None
        elif len(fields) == 5:
            src_text, dst_text, isym, osym, weight_text = fields
            try:
                src = ensure(int(src_text), lineno)
                dst = ensure(int(dst_text), lineno)
                weight = float(weight_text)
            except ValueError:
                raise FormatError(f"bad arc line: {line.strip()!r}", line=lineno) from None
            try:
                fst.add_arc(src, dst, symbols.label(isym), symbols.label(osym),
                            sign * weight)
            except InvariantError as exc:  # unknown symbol, nan or infinite weight
                raise FormatError(str(exc), line=lineno) from None
        else:
            raise FormatError(
                f"expected 2 or 5 fields, got {len(fields)}: {line.strip()!r}", line=lineno)
        if first:
            fst.set_initial(int(fields[0]))
            first = False
    if first:
        raise FormatError("empty FST file")
    return fst
