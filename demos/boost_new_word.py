#!/usr/bin/env python3
"""Boost a brand-new word into a grammar graph with similar-pair enhancement.

The toy model (demos/toy.arpa) never saw the word "wifi", so the graph
compiled from it has no path for a sentence that names it. The paper's
method ties the new word to frequent predictor words that behave alike,
here "liuliang" (data traffic) and "taocan" (plan). Every arc that reads a
predictor lends the new word a parallel arc, at the predictor's weight plus
theta (a new word has no count, so the frequency term is dropped). The
larger theta, the more the boosted sentence scores. A second run with the
same config adds nothing: enhancement is idempotent.

Equivalent CLI:
    gboost build-g --arpa demos/toy.arpa --out-fst g.fst --out-syms w.syms
    gboost enhance --in-fst g.fst --in-syms w.syms --pairs pairs.json \\
        --out-fst boosted.fst --out-syms boosted.syms
    gboost score --fst boosted.fst --syms boosted.syms --text sentences.txt
"""

from pathlib import Path

from gboost import (EnhanceConfig, NoPathError, SimilarPairGroup, build_g, enhance,
                    graph_score, parse_arpa)

HERE = Path(__file__).parent

with open(HERE / "toy.arpa") as handle:
    fst = build_g(parse_arpa(handle))
sentence = ["wo", "chaxun", "wifi"]
text = " ".join(sentence)
try:
    graph_score(fst, sentence)
except NoPathError as exc:
    print(f"before enhancement: {text!r} has no path ({exc})")

group = SimilarPairGroup(predictors=["liuliang", "taocan"], targets=["wifi"],
                         frequencies={"liuliang": 1, "taocan": 1},  # any positive count
                         new_words=frozenset(["wifi"]))
for theta in (-4.0, -2.0, 0.0):
    config = EnhanceConfig(theta=theta, max_predictors=2, groups=[group])
    boosted, delta = enhance(fst, config)
    print(f"theta {theta:+.1f}: {len(delta.added_arcs)} arcs added, "
          f"{text!r} scores {graph_score(boosted, sentence):+.6f}")

again, delta = enhance(boosted, config)
print(f"second run at theta {theta:+.1f}: {len(delta.added_arcs)} arcs added, "
      f"{len(delta.reweighted_arcs)} raised")
