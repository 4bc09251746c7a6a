"""ARPA back-off n-gram models: parsing and oracle scoring.

ARPA files store log10 probabilities; everything here converts to natural
log once at parse time so the rest of the toolkit works in one unit.
The oracle scorer walks the standard back-off recursion directly on the
tables, independent of any graph, and is the ground truth that compiled
grammar graphs are checked against.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence, TextIO

from gboost.errors import FormatError, InvariantError, NoPathError
from gboost.fst import SymbolTable

LN10 = math.log(10.0)

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


class NGram(NamedTuple):
    logprob: float
    backoff: float | None  # None when the file carries no back-off field


@dataclass
class NGramModel:
    order: int
    # tables[k-1]: k-word tuple -> NGram, in file order.
    tables: list[dict[tuple[str, ...], NGram]]
    vocab: SymbolTable

    def logprob(self, words: tuple[str, ...]) -> float | None:
        entry = self.tables[len(words) - 1].get(words)
        return entry.logprob if entry is not None else None

    def backoff(self, history: tuple[str, ...]) -> float:
        """Back-off weight of a history; 0.0 when absent (multiplier 1)."""
        if not history or len(history) >= self.order:
            return 0.0
        entry = self.tables[len(history) - 1].get(history)
        if entry is None or entry.backoff is None:
            return 0.0
        return entry.backoff


_NGRAM_COUNT_RE = re.compile(r"ngram\s+(\d+)\s*=\s*(\d+)$")
_SECTION_RE = re.compile(r"\\(\d+)-grams:$")


def _declared_order(counts: dict[int, int], lineno: int | None = None) -> int:
    """The model order N, once the \\data\\ counts are known to cover 1..N."""
    if not counts:
        raise FormatError("missing \\data\\ header")
    order = max(counts)
    if min(counts) != 1 or order != len(counts):
        raise FormatError(f"\\data\\ must declare orders 1..N; got {len(counts)} "
                          f"from {min(counts)} to {order}", line=lineno)
    return order


def parse_arpa(stream: TextIO) -> NGramModel:
    """Parse an ARPA model, converting log10 values to natural log.

    Enforces: the \\data\\ header declares each order 1..N once (checked
    before any per-order work, so a huge declared order costs nothing),
    its counts match section contents, every k-gram's (k-1)-word history
    has its own entry and its predicted word a unigram, log probabilities
    are finite and <= 0 (the unused <s> unigram may be -inf), back-off
    weights are finite, <s> is never predicted, </s> has a unigram entry
    and never appears as context.

    Each distinct word is one ``str`` object, shared by every n-gram key
    that names it and by the vocabulary: a large model names each word in
    many n-grams, and shared words also hash from their cached value and
    compare by identity.
    """
    counts: dict[int, int] = {}
    tables: dict[int, dict[tuple[str, ...], NGram]] = {}
    shared: dict[str, str] = {}  # word -> its one str object
    # NGram(logprob, backoff) without the Python-level __new__ of a NamedTuple.
    new_ngram = tuple.__new__
    section = None  # None: preamble, 0: \data\, k>0: \k-grams:
    saw_end = False

    isfinite = math.isfinite
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or saw_end:
            continue
        if line[0] == "\\":  # markers and section headers; anything else falls through
            if line == "\\data\\":
                section = 0
                continue
            if line == "\\end\\":
                saw_end = True
                continue
            match = _SECTION_RE.match(line)
            if match:
                k = int(match.group(1))
                if k not in counts:
                    raise FormatError(f"section \\{k}-grams: not declared in \\data\\",
                                      line=lineno)
                section = k
                table = tables.setdefault(k, {})
                # Only orders below the highest may carry a back-off field.
                with_backoff = k + 2 if k < _declared_order(counts, lineno) else None
                continue
        if section == 0:
            match = _NGRAM_COUNT_RE.match(line)
            if not match:
                raise FormatError(f"bad count line in \\data\\: {line!r}", line=lineno)
            k = int(match.group(1))
            if k in counts:
                raise FormatError(f"order {k} declared twice in \\data\\", line=lineno)
            counts[k] = int(match.group(2))
            continue
        if section is None:
            raise FormatError(f"content before \\data\\: {line!r}", line=lineno)

        k = section
        fields = line.split()
        if len(fields) == k + 1:
            backoff = None
        elif len(fields) == with_backoff:
            try:
                backoff = float(fields[-1]) * LN10
            except ValueError:
                raise FormatError(f"bad back-off weight in {line!r}", line=lineno) from None
        else:
            raise FormatError(
                f"expected {k}-gram line, got {len(fields)} fields: {line!r}", line=lineno)
        try:
            logprob = float(fields[0]) * LN10
        except ValueError:
            raise FormatError(f"bad log probability in {line!r}", line=lineno) from None
        names = fields[1:k + 1]
        words = tuple(map(shared.setdefault, names, names))
        if logprob > 0.0:
            raise FormatError(f"log probability above zero for {' '.join(words)!r}", line=lineno)
        if not isfinite(logprob) and words != (BOS,):  # <s> is never predicted
            raise FormatError(f"non-finite log probability for {' '.join(words)!r}",
                              line=lineno)
        if backoff is not None and not isfinite(backoff):
            raise FormatError(f"non-finite back-off for {' '.join(words)!r}", line=lineno)
        if k > 1 and words[-1] == BOS:
            raise FormatError(f"{BOS} may appear only as context: {' '.join(words)!r}", line=lineno)
        if EOS in words[:-1]:
            raise FormatError(f"{EOS} may appear only as the predicted word: "
                              f"{' '.join(words)!r}", line=lineno)
        if words in table:
            raise FormatError(f"duplicate {k}-gram: {' '.join(words)!r}", line=lineno)
        table[words] = new_ngram(NGram, (logprob, backoff))

    if not saw_end:
        raise FormatError("missing \\end\\ marker")
    order = _declared_order(counts)
    for k in range(1, order + 1):
        declared = counts.get(k, 0)
        got = len(tables.get(k, {}))
        if declared != got:
            raise FormatError(
                f"\\data\\ declares {declared} {k}-grams but section has {got}")

    table_list = [tables.get(k, {}) for k in range(1, order + 1)]
    unigrams = table_list[0]
    if (EOS,) not in unigrams:  # every sentence ends with it
        raise FormatError(f"the model has no {EOS} unigram")
    for k in range(2, order + 1):
        lower = table_list[k - 2]
        for words in table_list[k - 1]:
            if words[:-1] not in lower:
                raise FormatError(
                    f"{k}-gram {' '.join(words)!r} has no {k - 1}-gram entry "
                    f"for its history {' '.join(words[:-1])!r}")
            if words[-1:] not in unigrams:
                raise FormatError(f"{k}-gram {' '.join(words)!r} predicts "
                                  f"{words[-1]!r}, which has no unigram entry")

    vocab = SymbolTable(word for (word,) in unigrams)
    return NGramModel(order=order, tables=table_list, vocab=vocab)


def _map_oov(model: NGramModel, words: Sequence[str]) -> list[str]:
    unigrams = model.tables[0]
    mapped = []
    for word in words:
        if (word,) in unigrams:
            mapped.append(word)
        elif (UNK,) in unigrams:
            mapped.append(UNK)
        else:
            raise InvariantError(f"out-of-vocabulary word with no {UNK} entry: {word!r}")
    return mapped


def conditional_logprob(model: NGramModel, history: tuple[str, ...], word: str) -> float:
    """log p(word | history) with standard back-off.

    Uses the stored entry when (history, word) exists; otherwise adds the
    history's back-off weight and retries with the oldest word dropped.
    """
    if len(history) >= model.order:
        history = history[len(history) - model.order + 1:]
    penalty = 0.0
    while True:
        direct = model.logprob(history + (word,))
        if direct is not None:
            return penalty + direct
        if not history:
            raise InvariantError(f"no unigram entry for {word!r}")
        penalty += model.backoff(history)
        history = history[1:]


def oracle_score(model: NGramModel, sentence: Sequence[str]) -> float:
    """Natural-log probability of a sentence, wrapped in <s> ... </s>.

    Out-of-vocabulary words map to <unk> when the model has one and are an
    error otherwise. <s> is never predicted and </s> only ends a sentence,
    so a sentence that contains either raises NoPathError naming the first
    position holding one, as :func:`gboost.graph.graph_score` does.
    """
    words = _map_oov(model, sentence)
    if BOS in words or EOS in words:
        position, word = next((i, w) for i, w in enumerate(words) if w in (BOS, EOS))
        reason = "is never predicted" if word == BOS else "may only end the sentence"
        raise NoPathError(f"word {word!r} at position {position} {reason}",
                          word=word, position=position)
    seq = [BOS] + words + [EOS]
    total = 0.0
    for i in range(1, len(seq)):
        history = tuple(seq[max(0, i - model.order + 1):i])
        total += conditional_logprob(model, history, seq[i])
    return total
