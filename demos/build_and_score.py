#!/usr/bin/env python3
"""Compile an ARPA model into a grammar graph and score sentences with it.

The toy model (demos/toy.arpa) is a 3-gram back-off LM over ten
telecom-service words. The compiled graph reproduces the model's back-off
scoring exactly, which we verify here against the table-based oracle.

Equivalent CLI:
    gboost build-g --arpa demos/toy.arpa --out-fst g.fst --out-syms w.syms
    gboost score --fst g.fst --syms w.syms --text sentences.txt
"""

import io
from pathlib import Path

from gboost import build_g, graph_score, oracle_score, parse_arpa, write_text

HERE = Path(__file__).parent

with open(HERE / "toy.arpa") as handle:
    model = parse_arpa(handle)
print(f"parsed a {model.order}-gram model, "
      f"{[len(t) for t in model.tables]} entries per order")

fst = build_g(model)
(final,) = fst.finals
print(f"compiled graph: {fst.num_states()} states, {fst.num_arcs()} arcs")
print(f"start state {fst.initial} is the <s> history; "
      f"state {final} is final\n")

sentences = [
    ["wo", "chaxun", "liuliang"],
    ["kaitong", "taocan"],
    ["huafei"],          # never seen in training, scored via back-off
    [],                  # the empty sentence also has a probability
]
for sentence in sentences:
    by_graph = graph_score(fst, sentence)
    by_tables = oracle_score(model, sentence)
    print(f"{' '.join(sentence) or '(empty)':28s} "
          f"graph {by_graph:+.6f}   oracle {by_tables:+.6f}   "
          f"delta {abs(by_graph - by_tables):.2e}")

buf = io.StringIO()
write_text(fst, buf)
print("\nfirst lines of the serialized graph (src dst isym osym weight):")
for line in buf.getvalue().splitlines()[:5]:
    print("   ", line)
