"""Similar-pair enhancement of grammar graphs.

A similar-pair group ties low-frequency or brand-new target words to
high-frequency predictor words that behave alike. Every arc carrying a
predictor word donates a candidate arc for each target word: same source
and destination states, weight

    w_target = w_predictor + ln(f_target / (f_target + f_predictor)) + theta

where the frequencies come from training-data counts and theta tunes how
aggressive the boost is. For new words there is no frequency, so the log
term is dropped and the candidate is w_predictor + theta. Candidates land
as parallel arcs when the target has no arc in that slot, and otherwise
raise the existing arc's weight to the maximum of old and new. Epsilon
(back-off) arcs carry no word and never participate.

Never lowering an arc does not mean never lowering a word. Graphs score
with failure semantics (:func:`gboost.graph.graph_score`): a state's arc
for a word is always taken when it has one. So an arc added for word w at
state s replaces w's back-off path from s, the back-off weights plus the
first arc for w below, even where that path weighed more; there the boost
makes w less likely after s. An added arc is never taken where another
arc for w at s weighs more, or as much and comes first.

Enhancement runs in two steps. The plan does not depend on theta: for
each slot (source, destination, target word), in order of its first
candidate, it holds the slot's base, the largest ``w_predictor + ln(...)``
over its candidates, and the weight of the target's existing arc there, if
any. Applying adds theta to each base and compares the result with the
existing weight. That is exact: a float sum is rounded from the exact sum,
and rounding never decreases with its input, so ``fl(max(a) + theta)``
equals ``max(fl(a + theta))`` bit for bit, and a sweep over theta can
share one plan. The plan also keeps each candidate's ``w_predictor`` and
base, so that the count of candidates whose weight exceeds their
predictor's (the overshoot warning) is exact at every theta.

The enhancement is computed as an :class:`~gboost.fst.FstDiff` against the
unmodified graph, of added and raised arcs only, and the enhanced graph is
built from that diff alone: a new graph with the unmodified graph's finals,
over its columns, or over a copy of their weight column with the raises
written in, and with the added arcs after each state's own.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from itertools import chain, filterfalse, repeat
from operator import add, itemgetter, lt
from typing import NamedTuple

from gboost.arpa import BOS, EOS
from gboost.errors import FormatError, InvariantError
from gboost.fst import EPSILON, Arc, FstDiff, SymbolTable, Wfst, _check_symbol, _derived

log = logging.getLogger(__name__)


@dataclass
class SimilarPairGroup:
    """One enhancement unit: predictor words lending weight to target words."""

    predictors: list[str]
    targets: list[str]
    frequencies: dict[str, int] = field(default_factory=dict)
    new_words: frozenset[str] = frozenset()

    def is_new(self, target: str) -> bool:
        return target in self.new_words

    def validate(self, symbols: SymbolTable) -> None:
        if not self.predictors:
            raise InvariantError("similar-pair group has no predictor words")
        if not self.targets:
            raise InvariantError("similar-pair group has no target words")
        # <eps> labels the back-off arcs: as a predictor it would copy them
        # as word arcs, as a target it would add label-0 arcs beside them.
        # The sentence markers are no words either: a </s> arc must end in
        # a final state, and no sentence reads <s>.
        for role, words in (("predictor", self.predictors), ("target", self.targets)):
            for marker in (EPSILON, BOS, EOS):
                if marker in words:
                    raise InvariantError(f"{marker!r} is not a word and cannot be a {role}")
        for word in self.predictors:
            if word not in symbols:
                raise InvariantError(f"predictor word not in vocabulary: {word!r}")
            freq = self.frequencies.get(word)
            if freq is None or freq <= 0:
                raise InvariantError(f"predictor {word!r} needs a positive frequency")
        for word in self.targets:
            if self.is_new(word):
                _check_symbol(word)  # here, before enhance adds any new word
                # Already present is fine: an earlier run inserted it.
                continue
            if word not in symbols:
                raise InvariantError(
                    f"target {word!r} is not in the vocabulary; list it under new_words "
                    "if it should be added")
            freq = self.frequencies.get(word)
            if freq is None or freq <= 0:
                raise InvariantError(
                    f"existing target {word!r} has no positive frequency; declare it "
                    "new or give it a pseudo-count")


@dataclass
class EnhanceConfig:
    theta: float
    max_predictors: int
    groups: list[SimilarPairGroup]

    def validate(self, symbols: SymbolTable) -> None:
        if not math.isfinite(self.theta):
            raise InvariantError(f"theta must be finite, got {self.theta}")
        if self.max_predictors < 1:
            raise InvariantError(f"max_predictors must be >= 1, got {self.max_predictors}")
        for group in self.groups:
            group.validate(symbols)
        # Predictor and target roles must not mix, even across groups: a
        # predictor that is itself enhanced would donate its new arcs on the
        # next run, so repeated runs would keep growing the graph.
        predictors = {w for g in self.groups for w in g.predictors}
        targets = {w for g in self.groups for w in g.targets}
        both = predictors & targets
        if both:
            raise InvariantError(
                "words cannot be both predictor and target in one config: "
                + ", ".join(sorted(both)))


def _load_json(text: str, what: str):
    """``text`` parsed as JSON, else FormatError naming ``what``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too long an integer, too deep
        raise FormatError(f"{what} is not valid JSON: {exc}") from None


def _record(value, what: str, *keys: str) -> tuple:
    """The values of ``keys`` in the JSON object ``value``, else FormatError naming ``what``."""
    if not isinstance(value, dict):
        raise FormatError(f"{what} must be a JSON object")
    for key in keys:
        if key not in value:
            raise FormatError(f"{what} is missing key {key!r}")
    return tuple(value[key] for key in keys)


def _word_list(value, what: str) -> list[str]:
    """``value`` if it is a JSON list of strings, else FormatError naming ``what``."""
    if not isinstance(value, list) or not all(type(w) is str for w in value):
        raise FormatError(f"{what} must be a list of strings")
    return value


def load_pairs_config(text: str) -> EnhanceConfig:
    """Parse the similar-pairs JSON config."""
    data = _load_json(text, "pairs config")
    theta, max_predictors, raw_groups = _record(data, "pairs config", "theta",
                                                "max_predictors", "groups")
    # Exact type checks: JSON true and false load as bool, a subclass of int.
    if type(theta) not in (int, float):
        raise FormatError(f"pairs config 'theta' must be a number, got {theta!r}")
    try:
        theta = float(theta)
    except OverflowError:
        raise FormatError(f"pairs config 'theta' is out of range: {theta}") from None
    if not math.isfinite(theta):  # JSON NaN, Infinity and -Infinity load as floats
        raise FormatError(f"pairs config 'theta' must be finite, got {theta}")
    if type(max_predictors) is not int:
        raise FormatError("pairs config 'max_predictors' must be an integer, "
                          f"got {max_predictors!r}")
    if not isinstance(raw_groups, list):
        raise FormatError("pairs config 'groups' must be a list")
    groups = []
    for i, raw in enumerate(raw_groups):
        predictors, targets = _record(raw, f"group {i}", "predictors", "targets")
        new_words = raw.get("new_words", [])
        frequencies = raw.get("frequencies", {})
        for key, value in (("predictors", predictors), ("targets", targets),
                           ("new_words", new_words)):
            for word in _word_list(value, f"group {i} '{key}'"):
                try:
                    _check_symbol(word)  # else the output files could not hold it
                except InvariantError as exc:
                    raise FormatError(f"group {i} '{key}': {exc}") from None
        _record(frequencies, f"group {i} 'frequencies'")
        for word, count in frequencies.items():
            if type(count) is not int:
                raise FormatError(f"group {i} count of {word!r} must be an integer, "
                                  f"got {count!r}")
        groups.append(SimilarPairGroup(predictors=predictors, targets=targets,
                                       frequencies=frequencies,
                                       new_words=frozenset(new_words)))
    return EnhanceConfig(theta=theta, max_predictors=max_predictors, groups=groups)


def _log_ratio(f_x: int | None, f_y: int) -> float:
    # ln(f_x / (f_x + f_y)), of counts that config.validate found positive. A
    # new word (f_x None) gets -0.0: adding it leaves every float as it is,
    # -0.0 included, so its candidates come out as w_y + theta exactly.
    if f_x is None:
        return -0.0
    ratio = f_x / (f_x + f_y)
    if not ratio:  # only a count beyond float range can push it to zero
        raise InvariantError("frequency ratio underflows: predictor count too large "
                             "against the target's")
    return math.log(ratio)


class _Plan(NamedTuple):
    """What one config does to one graph, at any theta.

    ``added`` holds the slots the target has no arc in, as runs of
    consecutive slots with one target word: ``(target, sources, dests,
    bases)``, three lists with one entry per slot. ``raised`` holds the
    other slots, ``(target, source, dest, base, weight)`` with the existing
    arc's weight. Both keep the order of each slot's first candidate.
    ``weights`` and ``bases`` hold every candidate's ``w_y`` and base, in
    candidate order, for the overshoot count.
    """

    added: list[tuple[str, list[int], list[int], list[float]]]
    raised: list[tuple[str, int, int, float, float]]
    weights: list[float]
    bases: list[float]


def _plan_key(config: EnhanceConfig, symbols: SymbolTable) -> tuple:
    # Everything a plan depends on besides the arcs: per group, each used
    # predictor with its label and count, and each target with its label
    # (None if the table lacks it) and count (None if new). Not theta.
    label_of = symbols._sym2lab.get
    prefix = config.max_predictors
    return ("enhance", tuple(
        (tuple((p, label_of(p), group.frequencies[p]) for p in group.predictors[:prefix]),
         tuple((t, label_of(t), None if group.is_new(t) else group.frequencies[t])
               for t in group.targets))
        for group in config.groups))


def _plan(fst: Wfst, config: EnhanceConfig) -> _Plan:
    """Plan ``config`` on ``fst``, whose symbol table need not hold the new words yet."""
    symbols = fst.symbols
    label_of = symbols._sym2lab.get
    prefix = config.max_predictors
    target_labels = {label for g in config.groups for t in g.targets
                     if (label := label_of(t)) is not None}
    # One scan of the unmodified graph finds every predictor and target arc.
    # Predictor prefixes nest, so it looks for every predictor, and the
    # result, memoized beside the plans, serves every predictor count.
    labels = frozenset({symbols.label(w) for g in config.groups for w in g.predictors}
                       | target_labels)
    memo = fst.memo()
    found = memo.get(("scan", labels))
    if found is None:
        found = memo[("scan", labels)] = fst.scan(labels)
    # The weight of each existing target slot (source, destination, word);
    # the last of parallel arcs wins.
    existing = {(source, dest, label): weight
                for label in target_labels
                for source, (dest, _, weight) in found[label]}

    # The best base per slot, in order of first candidate.
    best: dict[tuple[int, int, str], float] = {}
    weights: list[float] = []
    bases: list[float] = []
    for group in config.groups:
        for target in group.targets:
            f_x = None if group.is_new(target) else group.frequencies[target]
            for predictor in group.predictors[:prefix]:
                log_ratio = _log_ratio(f_x, group.frequencies[predictor])
                for source, (dest, _, w_y) in found[symbols.label(predictor)]:
                    base = w_y + log_ratio
                    weights.append(w_y)
                    bases.append(base)
                    key = (source, dest, target)
                    if base > best.setdefault(key, base):
                        best[key] = base

    added: list[tuple[str, list[int], list[int], list[float]]] = []
    raised: list[tuple[str, int, int, float, float]] = []
    run_target = None
    for (source, dest, target), base in best.items():
        label = label_of(target)
        before = None if label is None else existing.get((source, dest, label))
        if before is not None:
            raised.append((target, source, dest, base, before))
            continue
        if target != run_target:
            run_target, run = target, ([], [], [])
            added.append((target, *run))
        run[0].append(source)
        run[1].append(dest)
        run[2].append(base)
    return _Plan(added, raised, weights, bases)


def enhance(fst: Wfst, config: EnhanceConfig) -> tuple[Wfst, FstDiff]:
    """Apply similar-pair enhancement, returning (enhanced graph, diff).

    Per group, each target gains candidate arcs from the first
    ``max_predictors`` predictors, one candidate per predictor arc in
    ``fst``. A slot (source state, destination state, word) is created if
    absent, and raised to its best candidate's weight if that is higher; it
    is never lowered, so repeating a run changes nothing. Only target-word
    arcs are touched.

    ``fst`` never changes, also when this raises. The enhanced graph is a
    new one: it shares ``fst``'s columns and tables, or, if some arc is
    raised, all but the weight column, whose copy holds each raise where
    its arc stands; its added arcs are the diff's ``Arc`` objects, after
    each state's own. It shares ``fst``'s symbol table too, unless the
    config has words new to it: then it holds the table
    :meth:`~gboost.fst.SymbolTable.extended` makes with them.

    Plan, then apply. The plan (see the module docstring) is memoized in
    ``fst``'s :meth:`~gboost.fst.Wfst.memo`, beside its columns, keyed by
    the config without theta; so cells of a sweep that differ only in
    theta plan once, and so does every graph over the same columns. The
    label scan behind a plan is memoized there too, keyed by its labels,
    every predictor's and every known target's; so plans that differ only
    in the predictor count share one scan. Applying resolves each target's
    label in the enhanced graph's table and adds theta to each slot's base.
    Logs one INFO line per call, and a warning when some candidates exceed
    their predictor's weight.
    """
    symbols = fst.symbols
    config.validate(symbols)
    key = _plan_key(config, symbols)
    memo = fst.memo()
    plan = memo.get(key)
    reused = plan is not None
    if plan is None:
        plan = memo[key] = _plan(fst, config)

    theta = config.theta
    overshoot = sum(map(lt, plan.weights, map(add, plan.bases, repeat(theta))))
    if overshoot:
        log.warning("%d candidate arcs exceed their predictor's weight "
                    "(log term plus theta is positive)", overshoot)

    # Every weight to write, checked before any graph is made: the raised
    # ones, then the added ones, in plan order.
    raised = [(target, source, dest, before, weight)
              for target, source, dest, base, before in plan.raised
              if (weight := base + theta) > before]
    added = [(target, sources, dests, list(map(add, bases, repeat(theta))))
             for target, sources, dests, bases in plan.added]
    bad = next(filterfalse(math.isfinite, chain(
        map(itemgetter(4), raised), chain.from_iterable(map(itemgetter(3), added)))), None)
    if bad is not None:
        raise InvariantError(f"arc weight must be finite, got {bad}")

    new_words = [target for group in config.groups for target in group.targets
                 if group.is_new(target) and target not in symbols]
    if new_words:
        symbols = symbols.extended(new_words)
    delta = FstDiff()
    for target, source, dest, before, weight in raised:
        label = symbols.label(target)
        delta.reweighted_arcs.append((Arc(source, dest, label, before),
                                      Arc(source, dest, label, weight)))
    # The edits need no other check: their states come from the graph's
    # own arcs, their labels from its symbol table, and their weights were
    # checked above. The additions are built in C, with no bytecode step
    # per arc: zip yields each arc's fields, and tuple.__new__ (Arc's
    # constructor without its argument handling) makes the diff's arc,
    # which the enhanced graph holds too.
    for target, sources, dests, weights in added:
        delta.added_arcs += map(tuple.__new__, repeat(Arc),
                                zip(sources, dests, repeat(symbols.label(target)), weights))
    log.info("enhance: theta %g, %d predictors: %d arcs added, %d raised, "
             "%d candidates overshoot; plan %s", theta, config.max_predictors,
             len(delta.added_arcs), len(delta.reweighted_arcs), overshoot,
             "reused" if reused else "built")
    return _derived(fst, symbols, delta), delta
