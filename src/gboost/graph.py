"""Compile back-off n-gram models into grammar graphs, and score with them.

Each word history that occurs as a context in the model becomes a state.
Word arcs carry the n-gram log probabilities; every non-root state gets a
single epsilon arc realizing the back-off to its shortened history. Arcs
predicting </s> run into a dedicated final state. Sentence boundaries live
inside the graph: the start state is the <s> history, so scores from
:func:`graph_score` match :func:`gboost.arpa.oracle_score` exactly.

Histories whose suffix is not itself a context have no state of their own;
the back-off weights they would contribute are folded into the arcs that
jump past them, which keeps scores identical to the oracle recursion even
for models that lack some suffix entries.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from gboost.arpa import BOS, EOS, NGramModel
from gboost.errors import InvariantError, NoPathError
from gboost.fst import EPSILON_LABEL, Wfst

History = tuple[str, ...]

_WEIGHT = itemgetter(3)  # weight field of an arc tuple


def _context_histories(model: NGramModel) -> list[History]:
    seen: dict[History, None] = {(): None}
    for k in range(2, model.order + 1):
        for words in model.tables[k - 1]:
            seen.setdefault(words[:-1], None)
    if model.order >= 2:
        seen.setdefault((BOS,), None)  # dedicated start state
    return list(seen)


def build_g(model: NGramModel) -> tuple[Wfst, dict[History, int]]:
    """Build the grammar graph for a parsed back-off model.

    Returns the graph plus the history-to-state dict. The start state is
    ``fst.initial`` and the single final state is the one key of
    ``fst.finals``. The graph's symbol table is a copy of the model's
    vocabulary, so later mutation (new-word insertion) leaves the model
    untouched.
    """
    fst = Wfst(model.vocab.copy())
    states: dict[History, int] = {}
    for history in _context_histories(model):
        states[history] = fst.add_state()
    final = fst.add_state()
    fst.set_final(final, 0.0)

    def hop(history: History) -> tuple[int, float]:
        # Longest suffix of `history` that has a state, folding in the
        # back-off weights of the skipped (state-less) histories.
        fold = 0.0
        while history not in states:
            fold += model.backoff(history)
            history = history[1:]
        return states[history], fold

    label = fst.symbols.label
    eos_label = label(EOS)
    for k in range(1, model.order + 1):
        for words, entry in model.tables[k - 1].items():
            word = words[-1]
            if word == BOS:
                continue  # never predicted; its back-off is handled below
            source = states[words[:-1]]
            if word == EOS:
                fst.add_arc(source, final, eos_label, eos_label, entry.logprob)
                continue
            dest_history = words if len(words) < model.order else words[1:]
            dest, fold = hop(dest_history)
            fst.add_arc(source, dest, label(word), label(word), entry.logprob + fold)

    for history, state in states.items():
        if not history:
            continue
        dest, fold = hop(history[1:])
        fst.add_arc(state, dest, EPSILON_LABEL, EPSILON_LABEL,
                    model.backoff(history) + fold)

    start, _ = hop((BOS,))
    fst.set_initial(start)
    return fst, states


def graph_score(fst: Wfst, sentence: Sequence[str]) -> float:
    """Score a sentence by greedy traversal from ``fst.initial``.

    Back-off semantics: failure. At each step the arc with the sentence's
    next word is taken whenever one exists (the highest-weighted one when
    several share the label); only otherwise is the epsilon arc followed,
    its weight added, and the word retried. This is the back-off recursion
    of the ARPA model, unlike :func:`gboost.fst.path_weight`, which lets
    back-off paths compete with word arcs. The sentence is implicitly closed
    with </s> and the final weight added.
    """
    if fst.initial is None:
        raise InvariantError("graph has no initial state")
    symbols = fst.symbols
    labels = []
    for position, word in enumerate(sentence):
        if word not in symbols:
            raise NoPathError(f"word {word!r} at position {position} is not in the graph",
                              word=word, position=position)
        labels.append(symbols.label(word))
    labels.append(symbols.label(EOS))

    arcs_matching = fst.arcs_matching
    max_backoffs = fst.num_states() + 1
    total = 0.0
    state = fst.initial
    for position, word_label in enumerate(labels):
        for _ in range(max_backoffs):
            matches = arcs_matching(state, word_label)
            if matches:
                state, _, _, weight = max(matches, key=_WEIGHT)
                total += weight
                break
            fallbacks = arcs_matching(state, EPSILON_LABEL)
            if not fallbacks:
                word = symbols.symbol(word_label)
                raise NoPathError(f"word {word!r} at position {position} is unreachable",
                                  word=word, position=position)
            state, _, _, weight = max(fallbacks, key=_WEIGHT)
            total += weight
        else:
            raise InvariantError("epsilon cycle encountered while backing off")

    final = fst.final_weight(state)
    if final is None:
        raise InvariantError(f"sentence ended in non-final state {state}")
    return total + final
