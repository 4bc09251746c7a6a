"""Independent reference implementations the library is checked against.

Nothing here imports gboost internals beyond the public data they verify;
the scoring logic is written separately on purpose (brute-force search,
log10-space recursion over a freshly parsed ARPA file) so the two routes
can disagree when the library is wrong. The one exception is the graph
makers, :func:`empty_graph` and :func:`graph_from_lists`: the library
builds a graph only from a file or a model, so the tests start from
graphs made with :class:`Wfst`'s constructor over columns they fill
themselves, and derive edited ones by replaying a diff on plain arc lists
(:func:`apply_diff_by_arc`).

:func:`path_weight` is the best-path (epsilon) reading of a back-off
graph, where a back-off arc competes with a word arc even where the word
arc exists, as in a Viterbi decoder. The library scores with failure
semantics only (:func:`gboost.graph.graph_score`); the tests use this
reference to pin where the two readings differ.
"""

import math
from array import array
from collections import Counter
from itertools import accumulate
from typing import Sequence

from gboost.errors import FormatError, InvariantError
from gboost.fst import EPSILON_LABEL, Arc, FstDiff, WEIGHT_FMT, Wfst, _Columns

BOS = "<s>"
EOS = "</s>"


def empty_graph(symbols, num_states, initial=0, finals=None):
    """A graph of ``num_states`` states with no arcs."""
    return graph_from_lists(symbols, [[]] * num_states, initial, finals)


def graph_from_lists(symbols, arc_lists, initial=0, finals=None):
    """A graph whose state ``s`` has the arc tuples ``arc_lists[s]``, in order.

    ``arc_lists`` may be any iterable of lists, one per state: the columns
    are filled in one pass, so a large graph is never held as tuples whole.
    ``finals`` maps states to final weights, none by default. The arcs are
    not checked; the constructor checks ``initial`` and ``finals``.
    """
    columns = [array(code) for code in "iid"]
    counts = []
    for arcs in arc_lists:
        counts.append(len(arcs))
        for column, values in zip(columns, zip(*arcs)):
            column.extend(values)
    return Wfst(symbols, _Columns(array("q", accumulate(counts, initial=0)), *columns),
                initial, finals or {})


def add_arcs(fst, *arcs):
    """A new graph: ``fst`` with ``(source, target, label, weight)`` arcs appended."""
    return apply_diff_by_arc(fst, FstDiff(added_arcs=[Arc(*arc) for arc in arcs]))


def enumerate_path_weights(fst, labels, max_epsilon_run=20):
    """All accepting-path totals for an input label sequence, by DFS.

    Epsilon arcs consume no input; runs of them longer than
    ``max_epsilon_run`` are cut off (enough for acyclic back-off chains).
    """
    totals = []

    def walk(state, pos, eps_run, acc):
        if pos == len(labels):
            final = fst.final_weight(state)
            if final is not None:
                totals.append(acc + final)
        for target, label, weight in fst.arcs(state):
            if label == 0:
                if eps_run < max_epsilon_run:
                    walk(target, pos, eps_run + 1, acc + weight)
            elif pos < len(labels) and label == labels[pos]:
                walk(target, pos + 1, 0, acc + weight)

    walk(fst.initial, 0, 0, 0.0)
    return totals


def best_path_weight(fst, labels, max_epsilon_run=20):
    totals = enumerate_path_weights(fst, labels, max_epsilon_run)
    return max(totals) if totals else None


def greedy_score(fst, sentence, max_backoffs=20):
    """Failure-semantics sentence score by scanning whole arc lists.

    At each state the first of the highest-weighted arcs carrying the next
    word is taken; without one, the same pick among epsilon arcs is
    followed and the word retried. The sentence is closed with </s>.
    Returns None where no arc and no back-off reads a word, or where the
    sentence ends in a non-final state.
    """

    def first_best(state, label):
        found = None
        for arc in fst.arcs(state):
            if arc[1] == label and (found is None or arc[2] > found[2]):
                found = arc
        return found

    labels = [fst.symbols.label(word) for word in [*sentence, EOS]]
    state, total = fst.initial, 0.0
    for label in labels:
        for _ in range(max_backoffs):
            arc = first_best(state, label)
            if arc is not None:
                break
            arc = first_best(state, 0)
            if arc is None:
                return None
            state, total = arc[0], total + arc[2]
        else:
            return None
        state, total = arc[0], total + arc[2]
    final = fst.final_weight(state)
    return None if final is None else total + final


# -- best-path (epsilon) semantics ------------------------------------------


def arcs_matching(fst: Wfst, state: int, label: int) -> list[tuple[int, int, float]]:
    """Arcs of ``state`` (as in :meth:`Wfst.arcs`) whose label is ``label``."""
    if not 0 <= state < fst.num_states():
        raise InvariantError(f"unknown state id: {state}")
    return [arc for arc in fst.arcs(state) if arc[1] == label]


def failure_mass(fst: Wfst, state: int) -> float:
    """The one-step probability mass of ``state`` under failure semantics.

    The sum over every word label w of P(w | state), stepping with
    :func:`arcs_matching`. P(w | state) is the exp of the weight of
    ``state``'s best arc reading w if it has one; else the exp of its best
    back-off arc's weight times P(w | back-off state); else 0. A back-off
    graph compiled from a normalized model has mass 1 at every non-final
    state. Written apart from :func:`gboost.graph.graph_score`, which
    scores whole sentences through best-arc tables.
    """
    total = 0.0
    for word in fst.symbols._lab2sym:
        if word == EPSILON_LABEL:
            continue
        at, weight = state, 0.0
        while True:
            arcs = arcs_matching(fst, at, word)
            if arcs:
                total += math.exp(weight + max(arc[2] for arc in arcs))
                break
            backoffs = arcs_matching(fst, at, EPSILON_LABEL)
            if not backoffs:
                break
            target, _, backoff = max(backoffs, key=lambda arc: arc[2])
            at, weight = target, weight + backoff
    return total


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
            for target, _, weight in arcs_matching(fst, state, EPSILON_LABEL):
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
    labels = _resolve_labels(fst, input_seq)
    frontier = _epsilon_closure(fst, {fst.initial: 0.0})
    for label in labels:
        advanced: dict[int, float] = {}
        for state, weight in frontier.items():
            for target, _, arc_weight in arcs_matching(fst, state, label):
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


def read_arpa_tables(arpa_text):
    """Minimal ARPA reader: {order: {ngram tuple: (log10 prob, log10 bow)}}."""
    tables = {}
    current = None
    for line in arpa_text.splitlines():
        line = line.strip()
        if not line or line in ("\\data\\", "\\end\\") or line.startswith("ngram "):
            continue
        if line.endswith("-grams:"):
            current = int(line[1:line.index("-")])
            tables[current] = {}
            continue
        if current is None:
            continue
        fields = line.split()
        gram = tuple(fields[1:current + 1])
        bow = float(fields[current + 1]) if len(fields) > current + 1 else 0.0
        tables[current][gram] = (float(fields[0]), bow)
    return tables


def arpa_reference_score(arpa_text, sentence):
    """Sentence log probability (natural log) straight off the ARPA text."""
    tables = read_arpa_tables(arpa_text)
    order = max(tables)

    def cond_log10(history, word):
        if len(history) > order - 1:
            history = history[-(order - 1):]
        gram = history + (word,)
        if gram in tables[len(gram)]:
            return tables[len(gram)][gram][0]
        if not history:
            raise KeyError(word)
        bow = tables[len(history)].get(history, (0.0, 0.0))[1]
        return bow + cond_log10(history[1:], word)

    seq = [BOS] + list(sentence) + [EOS]
    total = 0.0
    for i in range(1, len(seq)):
        total += cond_log10(tuple(seq[max(0, i - order + 1):i]), seq[i])
    return total * math.log(10.0)


def count_ngrams_ending_in(arpa_text, word):
    """How many entries in an ARPA file predict ``word``."""
    tables = read_arpa_tables(arpa_text)
    return sum(1 for k in tables for gram in tables[k] if gram[-1] == word)


def history_states(model):
    """The history -> state map of ``build_g(model)``, rebuilt from its numbering.

    The empty history is state 0; then come the context of every n-gram
    of order 2 and up, in table order as first seen, and then ``(<s>,)``
    if the model has bigrams and it is no context yet.
    """
    states = {(): 0}
    for table in model.tables[1:]:
        for gram in table:
            states.setdefault(gram[:-1], len(states))
    if model.order >= 2:
        states.setdefault((BOS,), len(states))
    return states


def compute_enhanced_weight(w_y, f_x, f_y, theta):
    """The paper's candidate weight, ``w_y + ln(f_x / (f_x + f_y)) + theta``.

    ``f_x`` is the target's training count, or None for a new word, whose
    candidate drops the log term. Summed left to right, as
    :func:`gboost.enhance.enhance` sums it, so the library matches it bit
    for bit.
    """
    if f_x is None:
        return w_y + theta
    return (w_y + math.log(f_x / (f_x + f_y))) + theta


def enhance_by_candidate(fst, config):
    """What enhancing ``fst`` with ``config`` writes, one candidate at a time.

    Every predictor arc gives each target a candidate whose weight is
    :func:`compute_enhanced_weight`, theta included. A slot (source,
    destination, target) keeps its first highest candidate; slots come in
    order of their first candidate. A slot the target has no arc in is an
    addition; otherwise the candidate raises the slot's last parallel arc
    if it is higher. New words get the labels ``fst``'s symbol table would
    give them, in config order. Returns ``(delta, overshoot)``, overshoot
    counting the candidates above their predictor's weight, and leaves
    ``fst`` untouched. The config must be valid.
    """
    label = extended_labels(fst.symbols, [target for group in config.groups
                                          for target in group.targets
                                          if target in group.new_words]).__getitem__
    target_labels = {label(t) for g in config.groups for t in g.targets}
    existing = {}
    for state in fst.states():
        for dest, arc_label, weight in fst.arcs(state):
            if arc_label in target_labels:
                existing[(state, dest, arc_label)] = weight

    best = {}
    overshoot = 0
    for group in config.groups:
        for target in group.targets:
            x = label(target)
            f_x = None if target in group.new_words else group.frequencies[target]
            for predictor in group.predictors[:config.max_predictors]:
                y, f_y = label(predictor), group.frequencies[predictor]
                for state in fst.states():
                    for dest, arc_label, w_y in fst.arcs(state):
                        if arc_label != y:
                            continue
                        weight = compute_enhanced_weight(w_y, f_x, f_y, config.theta)
                        overshoot += weight > w_y
                        slot = (state, dest, x)
                        if slot not in best or weight > best[slot]:
                            best[slot] = weight

    delta = FstDiff()
    for (state, dest, x), weight in best.items():
        before = existing.get((state, dest, x))
        if before is None:
            delta.added_arcs.append(Arc(state, dest, x, weight))
        elif weight > before:
            delta.reweighted_arcs.append((Arc(state, dest, x, before),
                                          Arc(state, dest, x, weight)))
    return delta, overshoot


def extended_labels(table, words):
    """Symbol -> label of ``table`` with each of ``words`` it lacks added, in order.

    Each new word takes the lowest label no symbol holds, as
    :meth:`gboost.fst.SymbolTable.extended` labels it.
    """
    labels = dict(table._sym2lab)
    for word in words:
        if word not in labels:
            labels[word] = min(set(range(len(labels) + 1)) - set(labels.values()))
    return labels


def scan_by_arc(fst, labels):
    """What :meth:`Wfst.scan` returns, from every state's arcs in order."""
    found = {label: [] for label in labels}
    for state in fst.states():
        for arc in fst.arcs(state):
            if arc[1] in found:
                found[arc[1]].append((state, arc))
    return found


def best_arcs_by_arc(fst, state):
    """What :meth:`Wfst.best_arcs` returns: per label, the first highest-weight arc."""
    table = {}
    for arc in fst.arcs(state):
        held = table.get(arc[1])
        if held is None or arc[2] > held[2]:
            table[arc[1]] = arc
    return table


def apply_diff_by_arc(fst, delta, symbols=None):
    """A valid diff replayed one edit at a time on lists of ``fst``'s arcs: a new graph.

    Removals, reweights (each of the last equal arc, the one whose weight
    enhancement reads for a slot), additions after each state's arcs in
    delta order, then final changes, on one plain list per state, built
    into fresh columns with :func:`graph_from_lists`. The inverse of
    :func:`gboost.fst.diff`, and what :func:`gboost.enhance.enhance`'s
    graph holds. ``fst`` is left as it was. The new graph is labelled by
    ``symbols``, ``fst``'s table by default.
    """
    lists = [fst.arcs(state) for state in fst.states()]
    for arc in delta.removed_arcs:
        lists[arc.source].remove(arc[1:])
    for old, new in delta.reweighted_arcs:
        arcs = lists[old.source]
        arcs[len(arcs) - 1 - arcs[::-1].index(old[1:])] = new[1:]
    for arc in delta.added_arcs:
        lists[arc.source].append(arc[1:])
    finals = dict(fst.finals)
    for state, _, after in delta.final_changes:
        if after is None:
            finals.pop(state, None)
        else:
            finals[state] = after
    return graph_from_lists(fst.symbols if symbols is None else symbols, lists, fst.initial,
                            finals)


def graphs_equal(a, b):
    """Order-insensitive structural equality of two graphs."""
    if a.num_states() != b.num_states() or a.initial != b.initial:
        return False
    if a.finals != b.finals:
        return False
    for state in a.states():
        if Counter(a.arcs(state)) != Counter(b.arcs(state)):
            return False
    return True


# -- graph text and diff, one arc at a time ---------------------------------
#
# The line-by-line reader, per-arc writer and grouping diff that the bulk
# versions in gboost.fst replaced. They write through the graph's public
# calls only, so each call checks what it writes.


def read_text_by_line(stream, symbols, negate=False):
    """Graph text read in two passes, one line at a time.

    The first pass takes the state count from the largest state id. The
    second checks each line in file order, with :func:`gboost.fst.read_text`'s
    messages, so the first bad line raises; then it appends an arc to its
    source's list, or sets a state's final weight. The first record's
    state is the initial state, and the graph is built from the lists.
    """
    lines = list(stream)
    ids = [-1]
    for line in lines:
        fields = line.split()
        for text in {2: fields[:1], 5: fields[:2]}.get(len(fields), ()):
            try:
                ids.append(int(text))
            except ValueError:  # the second pass rejects the line
                pass
    sign = -1.0 if negate else 1.0

    def state_id(text, lineno):
        state = int(text)
        if state < 0:
            raise FormatError(f"unknown state id: {state}", line=lineno)
        return state

    def label(symbol, lineno):
        if symbol not in symbols:
            raise FormatError(f"unknown symbol: {symbol!r}", line=lineno)
        return symbols.label(symbol)

    arcs = [[] for _ in range(max(ids) + 1)]
    finals = {}
    initial = None
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) == 2:
            kind = "final"
            state_text, weight_text = fields
            try:
                state = state_id(state_text, lineno)
                weight = float(weight_text)
            except ValueError:
                raise FormatError(f"bad final line: {line.strip()!r}", line=lineno) from None
        elif len(fields) == 5:
            kind = "arc"
            src_text, dst_text, isym, osym, weight_text = fields
            try:
                state = state_id(src_text, lineno)
                dst = state_id(dst_text, lineno)
                weight = float(weight_text)
            except ValueError:
                raise FormatError(f"bad arc line: {line.strip()!r}", line=lineno) from None
            if osym != isym:
                raise FormatError(f"not an acceptor arc: output symbol {osym!r} differs "
                                  f"from input symbol {isym!r}", line=lineno)
            arc_label = label(isym, lineno)
        else:
            raise FormatError(
                f"expected 2 or 5 fields, got {len(fields)}: {line.strip()!r}", line=lineno)
        weight *= sign
        if not math.isfinite(weight):
            raise FormatError(f"{kind} weight must be finite, got {weight}", line=lineno)
        if initial is None:
            initial = state
        if kind == "final":
            finals[state] = weight
        else:
            arcs[state].append((dst, arc_label, weight))
    if initial is None:
        raise FormatError("empty FST file")
    return graph_from_lists(symbols, arcs, initial, finals)


def write_text_by_arc(fst, stream, negate=False):
    """Graph text written one line per arc, initial state first."""
    sign = -1.0 if negate else 1.0

    def emit_state(state):
        sym = fst.symbols.symbol
        for (t, label, w) in fst.arcs(state):
            stream.write(f"{state} {t} {sym(label)} {sym(label)} {WEIGHT_FMT % (sign * w)}\n")
        final = fst.final_weight(state)
        if final is not None:
            stream.write(f"{state} {WEIGHT_FMT % (sign * final)}\n")

    if not fst.arcs(fst.initial) and fst.final_weight(fst.initial) is None:
        raise InvariantError("initial state has no arcs and is not final; nothing to write")
    emit_state(fst.initial)
    for state in fst.states():
        if state != fst.initial:
            emit_state(state)


def diff_by_groups(before, after):
    """Arc delta from grouping every state's arcs by (target, label).

    Within a group, weights are matched in sorted order; surplus weights
    become additions or removals.
    """
    if before.symbols != after.symbols:
        raise InvariantError("graphs do not share a symbol table")
    if before.num_states() != after.num_states():
        raise InvariantError(
            f"state counts differ ({before.num_states()} vs {after.num_states()})")
    if before.initial != after.initial:
        raise InvariantError("initial states do not correspond")

    def groups(fst, state):
        out = {}
        for (t, label, w) in fst.arcs(state):
            out.setdefault((t, label), []).append(w)
        return out

    out = FstDiff()
    for state in before.states():
        b_groups = groups(before, state)
        a_groups = groups(after, state)
        keys = list(b_groups)
        keys += [k for k in a_groups if k not in b_groups]
        for key in keys:
            b_weights = sorted(b_groups.get(key, ()))
            a_weights = sorted(a_groups.get(key, ()))
            shared = min(len(b_weights), len(a_weights))
            for bw, aw in zip(b_weights, a_weights):
                if bw != aw:
                    out.reweighted_arcs.append((Arc(state, *key, bw), Arc(state, *key, aw)))
            for w in b_weights[shared:]:
                out.removed_arcs.append(Arc(state, *key, w))
            for w in a_weights[shared:]:
                out.added_arcs.append(Arc(state, *key, w))

    for state in before.states():
        bw = before.final_weight(state)
        aw = after.final_weight(state)
        if bw != aw:
            out.final_changes.append((state, bw, aw))
    return out
