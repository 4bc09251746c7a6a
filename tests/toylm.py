"""Seeded toy corpora, a tiny count-based back-off estimator, an ARPA writer.

Fixture-only machinery: emits ARPA text for the tests. Unigrams are
add-one smoothed, higher orders absolute-discounted with Katz-style
back-off weights, so each history's distribution sums to one.
:func:`write_arpa` re-emits a parsed model, for round-trip tests.
"""

import math
import random
from collections import Counter
from typing import TextIO

from gboost.arpa import NGramModel

BOS = "<s>"
EOS = "</s>"
LN10 = math.log(10.0)

# Ten-word toy vocabulary, telecom-service flavored.
TELECOM_WORDS = ["wo", "de", "shouji", "liuliang", "taocan",
                 "feiyong", "chaxun", "kaitong", "quxiao", "huafei"]


def toy_corpus(words, n_sentences, seed, min_len=1, max_len=8, zipf=1.3):
    rng = random.Random(seed)
    weights = [1.0 / (i + 1) ** zipf for i in range(len(words))]
    return [rng.choices(words, weights=weights, k=rng.randint(min_len, max_len))
            for _ in range(n_sentences)]


def ngram_counts(sentences, order):
    counts = [Counter() for _ in range(order)]
    for sentence in sentences:
        padded = [BOS] + list(sentence) + [EOS]
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                counts[k - 1][tuple(padded[i:i + k])] += 1
    return counts


def train_arpa(sentences, vocab, order=3, discount=0.8):
    """Count, discount, and emit an ARPA model over ``vocab`` words."""
    counts = ngram_counts(sentences, order)
    support = list(vocab) + [EOS]  # everything that can be predicted

    logprobs = [dict() for _ in range(order)]
    backoffs = [dict() for _ in range(order)]

    n_tokens = sum(counts[0][(w,)] for w in support)
    for w in support:
        logprobs[0][(w,)] = math.log((counts[0][(w,)] + 1) / (n_tokens + len(support)))
    logprobs[0][(BOS,)] = -99.0 * LN10

    def cond(history, word):
        penalty = 0.0
        while True:
            entry = logprobs[len(history)].get(history + (word,)) if history else \
                logprobs[0].get((word,))
            if entry is not None:
                return penalty + entry
            penalty += backoffs[len(history) - 1].get(history, 0.0)
            history = history[1:]

    for k in range(2, order + 1):
        context_total = Counter()
        continuations = {}
        for gram, count in counts[k - 1].items():
            context_total[gram[:-1]] += count
            continuations.setdefault(gram[:-1], []).append(gram[-1])
        for gram in sorted(counts[k - 1]):
            history = gram[:-1]
            logprobs[k - 1][gram] = math.log(
                discount * counts[k - 1][gram] / context_total[history])
        for history in sorted(context_total):
            seen = continuations[history]
            reserved = 1.0 - sum(math.exp(logprobs[k - 1][history + (w,)]) for w in seen)
            lower_mass = 1.0 - sum(math.exp(cond(history[1:], w)) for w in seen)
            assert lower_mass > 1e-9, f"history {history} exhausts its lower-order mass"
            backoffs[k - 2][history] = math.log(reserved / lower_mass)

    lines = ["\\data\\"]
    for k in range(1, order + 1):
        lines.append(f"ngram {k}={len(logprobs[k - 1])}")
    for k in range(1, order + 1):
        lines.append("")
        lines.append(f"\\{k}-grams:")
        if k == 1:
            grams = [(BOS,)] + [(w,) for w in support]
        else:
            grams = sorted(logprobs[k - 1])
        for gram in grams:
            line = f"{logprobs[k - 1][gram] / LN10:.7g}\t{' '.join(gram)}"
            bow = backoffs[k - 1].get(gram) if k < order else None
            if bow is not None:
                line += f"\t{bow / LN10:.7g}"
            lines.append(line)
    lines += ["", "\\end\\", ""]
    return "\n".join(lines)


def write_arpa(model: NGramModel, stream: TextIO) -> None:
    """Emit the model back out in ARPA text form (log10 values)."""
    stream.write("\\data\\\n")
    for k in range(1, model.order + 1):
        stream.write(f"ngram {k}={len(model.tables[k - 1])}\n")
    for k in range(1, model.order + 1):
        stream.write(f"\n\\{k}-grams:\n")
        for words, entry in model.tables[k - 1].items():
            line = f"{entry.logprob / LN10:.9g}\t{' '.join(words)}"
            if entry.backoff is not None:
                line += f"\t{entry.backoff / LN10:.9g}"
            stream.write(line + "\n")
    stream.write("\n\\end\\\n")
