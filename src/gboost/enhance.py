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

The enhancement is computed as an :class:`~gboost.fst.FstDiff` against the
unmodified graph, then written by :func:`~gboost.fst.apply_diff`.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from gboost.errors import FormatError, InvariantError
from gboost.fst import Arc, FstDiff, SymbolTable, Wfst, apply_diff

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
        for word in self.predictors:
            if word not in symbols:
                raise InvariantError(f"predictor word not in vocabulary: {word!r}")
            freq = self.frequencies.get(word)
            if freq is None or freq <= 0:
                raise InvariantError(f"predictor {word!r} needs a positive frequency")
        for word in self.targets:
            if self.is_new(word):
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


def _word_list(value, what: str) -> list[str]:
    """``value`` if it is a JSON list of strings, else FormatError naming ``what``."""
    if not isinstance(value, list) or not all(type(w) is str for w in value):
        raise FormatError(f"{what} must be a list of strings")
    return value


def load_pairs_config(text: str) -> EnhanceConfig:
    """Parse the similar-pairs JSON config."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise FormatError(f"pairs config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FormatError("pairs config must be a JSON object")
    try:
        theta, max_predictors = data["theta"], data["max_predictors"]
        raw_groups = data["groups"]
    except KeyError as exc:
        raise FormatError(f"pairs config is missing key {exc}") from None
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
        if not isinstance(raw, dict):
            raise FormatError(f"group {i} must be a JSON object")
        try:
            predictors, targets = raw["predictors"], raw["targets"]
        except KeyError as exc:
            raise FormatError(f"group {i} is missing key {exc}") from None
        new_words = raw.get("new_words", [])
        frequencies = raw.get("frequencies", {})
        for key, value in (("predictors", predictors), ("targets", targets),
                           ("new_words", new_words)):
            _word_list(value, f"group {i} '{key}'")
        if not isinstance(frequencies, dict):
            raise FormatError(f"group {i} 'frequencies' must be a JSON object")
        for word, count in frequencies.items():
            if type(count) is not int:
                raise FormatError(f"group {i} count of {word!r} must be an integer, "
                                  f"got {count!r}")
        groups.append(SimilarPairGroup(predictors=predictors, targets=targets,
                                       frequencies=frequencies,
                                       new_words=frozenset(new_words)))
    return EnhanceConfig(theta=theta, max_predictors=max_predictors, groups=groups)


def _log_ratio(f_x: int | None, f_y: int) -> float:
    # ln(f_x / (f_x + f_y)), the frequency term of the candidate weight.
    # A new word (f_x None) gets -0.0: adding it leaves every float as it
    # is, -0.0 included, so its candidates come out as w_y + theta exactly.
    if f_y <= 0:
        raise InvariantError(f"predictor frequency must be positive, got {f_y}")
    if f_x is None:
        return -0.0
    if f_x <= 0:
        raise InvariantError(
            f"target frequency must be positive, got {f_x}; a zero-count word must "
            "be declared new or given a pseudo-count")
    return math.log(f_x / (f_x + f_y))


def _candidate(w_y: float, log_ratio: float, theta: float) -> float:
    return (w_y + log_ratio) + theta


def compute_enhanced_weight(w_y: float, f_x: int | None, f_y: int, theta: float) -> float:
    """Candidate weight for a target arc borrowed from a predictor arc.

    ``f_x`` is the target's training count, or None for a new word (the log
    term is dropped). ``f_y`` is the predictor's count and must be positive.
    """
    return _candidate(w_y, _log_ratio(f_x, f_y), theta)


def enhance(fst: Wfst, config: EnhanceConfig) -> tuple[Wfst, FstDiff]:
    """Apply similar-pair enhancement in place, returning (graph, diff).

    Per group, each target gains candidate arcs from the first
    ``max_predictors`` predictors, one candidate per predictor arc in the
    pre-enhancement graph. A slot (source state, destination state, word)
    is created if absent, and raised to its best candidate's weight if that
    is higher; it is never lowered, so repeating a run changes nothing.
    Only target-word arcs are touched, and only once the whole diff exists.
    """
    symbols = fst.symbols
    config.validate(symbols)

    predictor_labels = {symbols.label(w)
                        for g in config.groups
                        for w in g.predictors[:config.max_predictors]}
    target_labels = {symbols.label(t)
                     for g in config.groups
                     for t in g.targets if t in symbols}
    # One memoized scan of the unmodified graph: a sweep's cells share it.
    found = fst.scan(predictor_labels | target_labels)
    # The weight of each existing target slot (source, destination, word);
    # the last of parallel arcs wins.
    existing = {(source, arc[0], label): arc[3]
                for label in target_labels
                for source, arc in found[label] if arc[2] == label}

    # Planning needs the labels of new words.
    for group in config.groups:
        for target in group.targets:
            if group.is_new(target) and target not in symbols:
                symbols.add(target)

    # Best candidate per slot, in order of first candidate.
    theta = config.theta
    best: dict[tuple[int, int, int], float] = {}
    overshoot = 0
    for group in config.groups:
        for target in group.targets:
            x_label = symbols.label(target)
            f_x = None if group.is_new(target) else group.frequencies[target]
            for predictor in group.predictors[:config.max_predictors]:
                log_ratio = _log_ratio(f_x, group.frequencies[predictor])
                for source, (dest, _, _, w_y) in found[symbols.label(predictor)]:
                    candidate = _candidate(w_y, log_ratio, theta)
                    if candidate > w_y:
                        overshoot += 1
                    key = (source, dest, x_label)
                    if candidate > best.setdefault(key, candidate):
                        best[key] = candidate

    if overshoot:
        log.warning("%d candidate arcs exceed their predictor's weight "
                    "(log term plus theta is positive)", overshoot)

    delta = FstDiff()
    for (source, dest, label), weight in best.items():
        before = existing.get((source, dest, label))
        if before is None:
            delta.added_arcs.append(Arc(source, dest, label, label, weight))
        elif weight > before:
            delta.reweighted_arcs.append((Arc(source, dest, label, label, before),
                                          Arc(source, dest, label, label, weight)))
    return apply_diff(fst, delta), delta
