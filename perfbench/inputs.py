"""Fixed-seed inputs for the benchmark: model, sentences, pairs and cases.

The ARPA model is written straight from generated n-gram tables rather than
trained from a corpus, so making every input takes a few seconds, and none
of that is timed. The same seed always gives byte-identical files.

Usage: python3 perfbench/inputs.py OUT_DIR --seed N
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

BOS, EOS = "<s>", "</s>"


@dataclass(frozen=True)
class Sizes:
    vocab: int = 5000
    bigrams: int = 38_000
    trigrams: int = 100_000
    sentences: int = 40_000
    groups: int = 30
    cases: int = 300
    # Frequency ranks (1 = most frequent) the roles are drawn from.
    predictor_ranks: tuple[int, int] = (100, 1000)
    target_ranks: tuple[int, int] = (3000, 5000)
    competitor_top: int = 2000


FULL = Sizes()

ZIPF = 1.0  # word frequency falls as rank**-ZIPF
COUNT_SCALE = 1_000_000  # training count of a word = COUNT_SCALE // rank
NEW_WORD_SHARE = 0.6
PREDICTORS_PER_GROUP = 5
MAX_TARGETS_PER_GROUP = 3
COMPETITORS_PER_CASE = 3
SENTENCE_LENGTH = (3, 15)


@dataclass
class Inputs:
    model: str
    sentences: str
    pairs: str
    cases: str
    targets: list[str]


def word(rank: int) -> str:
    return f"w{rank:05d}"


class _Zipf:
    """Draws ranks 1..n with probability proportional to rank**-ZIPF."""

    def __init__(self, rng: random.Random, n: int):
        self.rng = rng
        self.ranks = range(1, n + 1)
        self.cum = list(itertools.accumulate(r ** -ZIPF for r in self.ranks))

    def draw(self, k: int) -> list[int]:
        return self.rng.choices(self.ranks, cum_weights=self.cum, k=k)


def _model_text(rng: random.Random, sizes: Sizes) -> str:
    # log10 values: unigrams follow the Zipf law; each higher-order entry
    # beats its word's unigram by a random margin, capped below zero. All
    # back-off weights are negative, so every graph weight is <= 0.
    zipf = _Zipf(rng, sizes.vocab)
    norm = math.log10(zipf.cum[-1] * 1.05)  # 5% of the mass goes to </s>
    uni = {word(r): -ZIPF * math.log10(r) - norm for r in zipf.ranks}
    uni[EOS] = math.log10(0.05)

    def higher(w: str) -> float:
        return min(-0.01, uni[w] + rng.uniform(0.2, 1.5))

    def backoff() -> float:
        return -rng.uniform(0.05, 0.8)

    def predicted() -> str:
        # </s> closes about one history in twelve.
        return EOS if rng.random() < 1 / 12 else word(zipf.draw(1)[0])

    bigrams: dict[tuple[str, str], float] = {}
    while len(bigrams) < sizes.bigrams:
        history = BOS if rng.random() < 0.05 else word(zipf.draw(1)[0])
        key = (history, predicted())
        if key not in bigrams:
            bigrams[key] = higher(key[1])

    contexts = [key for key in bigrams if key[1] != EOS]
    trigrams: dict[tuple[str, str, str], float] = {}
    while len(trigrams) < sizes.trigrams:
        key = rng.choice(contexts) + (predicted(),)
        if key not in trigrams:
            trigrams[key] = higher(key[2])

    uni_backoff = {h: backoff() for h, _ in bigrams}
    bi_backoff = {key[:2]: backoff() for key in trigrams}

    lines = ["\\data\\", f"ngram 1={len(uni) + 1}", f"ngram 2={len(bigrams)}",
             f"ngram 3={len(trigrams)}", "", "\\1-grams:",
             f"-99.000000\t{BOS}\t{uni_backoff.get(BOS, -0.5):.6f}"]
    for w, lp in uni.items():
        bo = uni_backoff.get(w)
        lines.append(f"{lp:.6f}\t{w}" + ("" if bo is None else f"\t{bo:.6f}"))
    lines += ["", "\\2-grams:"]
    for key, lp in bigrams.items():
        bo = bi_backoff.get(key)
        lines.append(f"{lp:.6f}\t{' '.join(key)}" + ("" if bo is None else f"\t{bo:.6f}"))
    lines += ["", "\\3-grams:"]
    lines += [f"{lp:.6f}\t{' '.join(key)}" for key, lp in trigrams.items()]
    lines += ["", "\\end\\", ""]
    return "\n".join(lines)


def _sentences(rng: random.Random, zipf: _Zipf, n: int,
               avoid: frozenset[str] = frozenset()) -> list[list[str]]:
    out = []
    for _ in range(n):
        length = rng.randint(*SENTENCE_LENGTH)
        words: list[str] = []
        while len(words) < length:
            words += [w for w in map(word, zipf.draw(length - len(words)))
                      if w not in avoid]
        out.append(words)
    return out


def _pairs(rng: random.Random, sizes: Sizes) -> dict:
    lo, hi = sizes.predictor_ranks
    predictors = rng.sample(range(lo, hi + 1), sizes.groups * PREDICTORS_PER_GROUP)
    lo, hi = sizes.target_ranks
    rare = iter(rng.sample(range(lo, hi + 1), sizes.groups * MAX_TARGETS_PER_GROUP))
    groups = []
    for g in range(sizes.groups):
        ranks = predictors[g * PREDICTORS_PER_GROUP:(g + 1) * PREDICTORS_PER_GROUP]
        group = {"predictors": [word(r) for r in ranks],
                 "frequencies": {word(r): COUNT_SCALE // r for r in ranks},
                 "targets": [], "new_words": []}
        for t in range(rng.randint(1, MAX_TARGETS_PER_GROUP)):
            if rng.random() < NEW_WORD_SHARE:
                target = f"new{g:02d}_{t}"
                group["new_words"].append(target)
            else:
                rank = next(rare)
                target = word(rank)
                group["frequencies"][target] = COUNT_SCALE // rank
            group["targets"].append(target)
        groups.append(group)
    return {"theta": 0.0, "max_predictors": PREDICTORS_PER_GROUP, "groups": groups}


def _cases(rng: random.Random, zipf: _Zipf, sizes: Sizes,
           targets: list[str]) -> list[dict]:
    # Targets appear only at the focus position and never among the
    # competitors, so raising theta can only help the reference.
    bodies = _sentences(rng, zipf, sizes.cases, avoid=frozenset(targets))
    cases = []
    for body in bodies:
        focus = rng.randrange(len(body))
        reference = list(body)
        reference[focus] = rng.choice(targets)
        competitors = []
        for rank in rng.sample(range(1, sizes.competitor_top + 1), COMPETITORS_PER_CASE):
            competitor = list(reference)
            competitor[focus] = word(rank)
            competitors.append(competitor)
        cases.append({"reference": reference, "focus": [focus],
                      "competitors": competitors})
    return cases


def generate(seed: int, sizes: Sizes = FULL) -> dict[str, str]:
    """Return the text of every input file, keyed by file name."""
    rng = random.Random(f"perfbench-{seed}")
    model = _model_text(rng, sizes)
    zipf = _Zipf(rng, sizes.vocab)
    sentences = _sentences(rng, zipf, sizes.sentences)
    pairs = _pairs(rng, sizes)
    targets = sorted({t for g in pairs["groups"] for t in g["targets"]})
    cases = _cases(rng, zipf, sizes, targets)
    return {
        "model.arpa": model,
        "sentences.txt": "".join(" ".join(s) + "\n" for s in sentences),
        "pairs.json": json.dumps(pairs, indent=1, sort_keys=True) + "\n",
        "cases.json": json.dumps(cases, sort_keys=True) + "\n",
    }


def write_inputs(out_dir: Path, seed: int, sizes: Sizes = FULL) -> Inputs:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in generate(seed, sizes).items():
        (out_dir / name).write_text(text)
    pairs = json.loads((out_dir / "pairs.json").read_text())
    return Inputs(model=str(out_dir / "model.arpa"),
                  sentences=str(out_dir / "sentences.txt"),
                  pairs=str(out_dir / "pairs.json"),
                  cases=str(out_dir / "cases.json"),
                  targets=sorted({t for g in pairs["groups"] for t in g["targets"]}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    write_inputs(args.out_dir, args.seed)


if __name__ == "__main__":
    main()
