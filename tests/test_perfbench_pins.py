"""The names perfbench's tracer wraps in gboost, checked where an API change shows first.

``perfbench/tracing.py`` swaps gboost functions for timing wrappers by
module and attribute name, and counts enhancement arcs from the diff that
``enhance`` returns. A rename or a new return type would otherwise fail
deep inside the benchmark's module fixtures.
"""

import importlib
import importlib.util
from pathlib import Path

from gboost.enhance import EnhanceConfig, SimilarPairGroup, enhance
from conftest import make_fst

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for module_name, attr, span in load_tracing().TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr} (span {span})")
    assert not missing, ("perfbench/tracing.py wraps names gboost no longer has: "
                         + ", ".join(missing))


def test_enhance_returns_the_pair_the_tracer_counts():
    fst = make_fst("a c", [(0, 1, "a", "a", 0.5)], {1: 0.0})
    config = EnhanceConfig(theta=0.0, max_predictors=1, groups=[SimilarPairGroup(
        predictors=["a"], targets=["c"], frequencies={"a": 95, "c": 5})])
    result = enhance(fst, config)
    assert isinstance(result, tuple) and len(result) == 2, (
        "perfbench/tracing.py reads enhance's result as a (graph, diff) pair")
    delta = result[1]
    assert all(hasattr(delta, name) for name in ("added_arcs", "reweighted_arcs")), (
        "perfbench/tracing.py counts enhance.arcs_added and enhance.arcs_raised from the "
        "diff's added_arcs and reweighted_arcs")
    assert len(delta.added_arcs) == 1 and delta.reweighted_arcs == []
