"""Independent reference implementations the library is checked against.

Nothing here imports gboost internals beyond the public data they verify;
the scoring logic is written separately on purpose (brute-force search,
log10-space recursion over a freshly parsed ARPA file) so the two routes
can disagree when the library is wrong.
"""

import math
from collections import Counter

BOS = "<s>"
EOS = "</s>"


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
        for target, ilabel, _, weight in fst.arcs(state):
            if ilabel == 0:
                if eps_run < max_epsilon_run:
                    walk(target, pos, eps_run + 1, acc + weight)
            elif pos < len(labels) and ilabel == labels[pos]:
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
            if arc[1] == label and (found is None or arc[3] > found[3]):
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
            state, total = arc[0], total + arc[3]
        else:
            return None
        state, total = arc[0], total + arc[3]
    final = fst.final_weight(state)
    return None if final is None else total + final


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
