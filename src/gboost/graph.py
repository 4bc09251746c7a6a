"""Compile back-off n-gram models into grammar graphs, and score with them.

Each word history that occurs as a context in the model becomes a state.
Word arcs carry the n-gram log probabilities; every non-root state gets a
single epsilon arc realizing the back-off to its shortened history. Arcs
predicting </s> run into a dedicated final state. Sentence boundaries live
inside the graph: the start state is the <s> history, so scores from
:func:`graph_score` match :func:`gboost.arpa.oracle_score` exactly.

Scores use failure semantics: an epsilon arc is followed only when the
state has no arc for the next word, as in the ARPA back-off recursion.

Histories whose suffix is not itself a context have no state of their own;
the back-off weights they would contribute are folded into the arcs that
jump past them, which keeps scores identical to the oracle recursion even
for models that lack some suffix entries.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate
from math import isfinite
from operator import itemgetter
from typing import Sequence

from gboost.arpa import BOS, EOS, UNK, NGramModel
from gboost.errors import InvariantError, NoPathError
from gboost.fst import EPSILON_LABEL, Wfst, _Columns

History = tuple[str, ...]

_context = itemgetter(slice(None, -1))  # an n-gram's history


def _word_arc_counts(model: NGramModel) -> Counter[History]:
    # Every history that is a context, in state order, with its number of
    # word arcs: one per n-gram it is the context of, bar the unigram <s>.
    # parse_arpa admits <s> nowhere else but in a context.
    unigrams = model.tables[0]
    counts = Counter({(): len(unigrams) - ((BOS,) in unigrams)})
    for table in model.tables[1:]:
        counts.update(map(_context, table))
    if model.order >= 2:
        counts.setdefault((BOS,), 0)  # dedicated start state
    return counts


def build_g(model: NGramModel) -> Wfst:
    """Build the grammar graph for a parsed back-off model.

    The start state is ``fst.initial`` and the single final state is the
    one key of ``fst.finals``. The graph's symbol table is the model's
    vocabulary itself: tables never change, so the two share it.

    States are numbered in the order of the model's contexts: the empty
    history first, then the contexts of each order's n-grams as they first
    occur, then ``(<s>,)`` if it is not yet a context, then the final
    state. Each state's arcs are its word arcs in n-gram order, lowest
    order first, then its back-off arc.
    """
    word_arcs = _word_arc_counts(model)
    states: dict[History, int] = dict(zip(word_arcs, range(len(word_arcs))))
    final = len(states)
    tables = model.tables

    def hop(history: History) -> tuple[int, float]:
        # Longest suffix of `history` that has a state, folding in the
        # back-off weights of the skipped (state-less) histories. A skipped
        # history is never empty nor of the top order, so this is
        # model.backoff inline; an absent weight adds nothing.
        fold = 0.0
        while history not in states:
            entry = tables[len(history) - 1].get(history)
            if entry is not None and entry.backoff is not None:
                fold += entry.backoff
            history = history[1:]
        return states[history], fold

    # The arcs come in n-gram order. Each is put in the next free column
    # slot of its source, a counting sort that keeps every state's arcs in
    # the order they come. Each arc is checked for a finite weight, the one
    # column check a model can fail: its states and labels are the graph's.
    counts = [arcs + (history != ()) for history, arcs in word_arcs.items()]  # + back-off
    counts.append(0)  # the final state
    offsets = array("q", accumulate(counts, initial=0))
    free = offsets.tolist()
    size = offsets[-1]
    targets = array("i", [0]) * size
    labels = array("i", [0]) * size
    weights = array("d", [0.0]) * size
    symbols = model.vocab
    label_of = symbols._sym2lab.get
    eos_label = symbols.label(EOS)
    for k in range(1, model.order + 1):
        for words, entry in tables[k - 1].items():
            word = words[-1]
            if word == BOS:
                if k > 1:  # no slot was counted for it
                    raise InvariantError(f"{BOS} may appear only as context: {words}")
                continue  # never predicted; its back-off is handled below
            if word == EOS:
                dest, word_label, weight = final, eos_label, entry.logprob
            else:
                dest, fold = hop(words if k < model.order else words[1:])
                word_label = label_of(word)
                if word_label is None:
                    raise InvariantError(f"unknown symbol: {word!r}")
                weight = entry.logprob + fold
            if not isfinite(weight):
                raise InvariantError(f"arc weight must be finite, got {weight}")
            state = states[words[:-1]]
            slot = free[state]
            free[state] = slot + 1
            targets[slot] = dest
            labels[slot] = word_label
            weights[slot] = weight

    for history, state in states.items():
        if not history:
            continue
        dest, fold = hop(history[1:])
        weight = model.backoff(history) + fold
        if not isfinite(weight):
            raise InvariantError(f"arc weight must be finite, got {weight}")
        slot = free[state]
        targets[slot] = dest
        labels[slot] = EPSILON_LABEL
        weights[slot] = weight

    return Wfst(symbols, _Columns(offsets, targets, labels, weights), hop((BOS,))[0], {final: 0.0})


def graph_score(fst: Wfst, sentence: Sequence[str]) -> float:
    """Score a sentence by greedy traversal from ``fst.initial``.

    Back-off semantics: failure. At each step the arc with the sentence's
    next word is taken whenever one exists; only otherwise is the epsilon
    arc followed, its weight added, and the word retried. This is the
    back-off recursion of the ARPA model, and the only back-off semantics
    the library scores with. The sentence is implicitly closed with </s>
    and the final weight added.

    A word missing from the symbol table, or the word ``<eps>``, scores as
    ``<unk>`` when the graph has that symbol, as
    :func:`gboost.arpa.oracle_score` does; without ``<unk>`` it raises
    NoPathError. So on a model with ``<unk>`` a new word not yet in the
    graph gets the ``<unk>`` probability. The words ``<s>`` and ``</s>``
    inside a sentence raise NoPathError at the first position holding
    either, as in the oracle: ``<s>`` is never predicted, and ``</s>`` only
    ends a sentence.

    Each step is one lookup in the state's best-arc table
    (:meth:`gboost.fst.Wfst.best_arcs`); only on a miss is the table
    looked up again for ``<eps>`` and back-off hops counted. Where several
    arcs share a label the table holds the highest-weighted one, the first
    in arc order among equal weights. Tables are built on a state's first
    visit and kept, as a graph never changes once made. A word is looked up in
    at most one state more than the graph has; a back-off hop after that
    can only be part of an epsilon cycle, and raises InvariantError.
    """
    symbols = fst.symbols
    label_of = symbols._sym2lab.get
    unk = label_of(UNK)  # None when the graph has no <unk>
    # Label 0 is <eps>, never a word: it resolves like a missing word.
    labels = [label_of(word, unk) or unk for word in sentence]
    if None in labels:
        position = labels.index(None)
        word = sentence[position]
        raise NoPathError(f"word {word!r} at position {position} is not in the graph",
                          word=word, position=position)
    eos = symbols.label(EOS)
    # </s> only closes a sentence. Inside one, the words before it are
    # walked first, so that an earlier <s> is reported first, as the oracle
    # does, and then NoPathError names its position.
    early_end = labels.index(eos) if eos in labels else None
    if early_end is None:
        labels.append(eos)
    else:
        del labels[early_end:]

    tables = fst._tables
    # A word is looked up in at most this many states; the hop after the
    # last of them means an epsilon cycle.
    max_backoffs = len(tables) + 1
    total = 0.0
    state = fst.initial
    for position, word_label in enumerate(labels):
        table = tables[state]
        if table is None:
            table = fst.best_arcs(state)
        arc = table.get(word_label)
        hops = 0
        while arc is None:  # back off until a state has the word
            arc = table.get(EPSILON_LABEL)
            if arc is None:
                word = symbols.symbol(word_label)
                raise NoPathError(f"word {word!r} at position {position} is unreachable",
                                  word=word, position=position)
            state, _, weight = arc
            total += weight
            hops += 1
            if hops == max_backoffs:
                raise InvariantError("epsilon cycle encountered while backing off")
            table = tables[state]
            if table is None:
                table = fst.best_arcs(state)
            arc = table.get(word_label)
        state, _, weight = arc
        total += weight

    if early_end is not None:
        raise NoPathError(f"word {EOS!r} at position {early_end} may only end the sentence",
                          word=EOS, position=early_end)
    final = fst.final_weight(state)
    if final is None:
        raise InvariantError(f"sentence ended in non-final state {state}")
    return total + final
