"""Tests of the benchmark itself: inputs, output checks, tracing, CLI quirks.

    python3 -m pytest perfbench/test_perfbench.py

They run on a scaled-down input set, so they take a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gboost.cli
import gboost.evaluate
from checks import Tally, check_diffs, check_grid, check_scores
from gboost.arpa import parse_arpa
from gboost.cli import build_parser
from gboost.enhance import load_pairs_config
from gboost.errors import InvariantError
from gboost.evaluate import load_cases
from gboost.fst import SymbolTable, diff, read_text
from inputs import Sizes, generate, write_inputs
from run import CHNUMS, THETAS, end_to_end, per_layer, plan
from tracing import Tracer, layer_stats

SMALL = Sizes(vocab=300, bigrams=1500, trigrams=3000, sentences=200, groups=4,
              cases=30, predictor_ranks=(10, 100), target_ranks=(150, 300),
              competitor_top=100)


def run_gboost(argv):
    assert gboost.cli.main(argv) == 0, argv


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Small inputs with every workload's chain already run once."""
    work = tmp_path_factory.mktemp("work")
    inputs = write_inputs(work / "in", seed=7, sizes=SMALL)
    steps = {}
    for workload in ("build", "score", "sweep"):
        steps[workload] = plan(workload, work / workload, inputs)
        for directory in (work / workload / "base", steps[workload]["out"]):
            directory.mkdir(parents=True)
        for argv in steps[workload]["prepare"]:
            run_gboost(argv)
        for _, argv in steps[workload]["chain"]:
            run_gboost(argv)
    return inputs, steps


def load_graph(fst_path, syms_path):
    with open(syms_path) as handle:
        symbols = SymbolTable.read(handle)
    with open(fst_path) as handle:
        return read_text(handle, symbols)


# -- inputs -------------------------------------------------------------------


def test_same_seed_gives_identical_files():
    assert generate(3, SMALL) == generate(3, SMALL)
    assert generate(3, SMALL)["model.arpa"] != generate(4, SMALL)["model.arpa"]


def test_generated_inputs_parse_and_keep_targets_apart(tmp_path):
    inputs = write_inputs(tmp_path, seed=5, sizes=SMALL)
    with open(inputs.model) as handle:
        model = parse_arpa(handle)
    assert [len(t) for t in model.tables] == [SMALL.vocab + 2, SMALL.bigrams,
                                              SMALL.trigrams]
    config = load_pairs_config(Path(inputs.pairs).read_text())
    predictors = {w for g in config.groups for w in g.predictors}
    targets = set(inputs.targets)
    assert targets and not predictors & targets
    cases = load_cases(Path(inputs.cases).read_text())
    assert len(cases) == SMALL.cases
    for case in cases:
        (focus,) = case.focus
        assert case.reference[focus] in targets
        others = case.reference[:focus] + case.reference[focus + 1:]
        assert not targets & set(others)
        assert not targets & {c[focus] for c in case.competitors}


# -- output checks ------------------------------------------------------------


def test_score_check_passes_then_catches_one_perturbed_weight(built, tmp_path):
    inputs, steps = built
    step = steps["score"]
    scores = str(step["out"] / "scores.txt")
    tally = Tally()
    check_scores(tally, inputs.model, inputs.sentences, scores)
    assert tally.attempted > SMALL.sentences and tally.failed == 0

    # Lower the weight of the start state's arc for the first sentence's
    # first word, or of its back-off arc: that sentence must traverse it.
    fst_path = Path(step["base_fst"])
    lines = fst_path.read_text().splitlines()
    start = lines[0].split()[0]
    first_word = Path(inputs.sentences).read_text().split()[0]
    arcs = [i for i, line in enumerate(lines)
            if line.split()[0] == start and len(line.split()) == 5]
    hit = [i for i in arcs if lines[i].split()[2] == first_word]
    index = (hit or [i for i in arcs if lines[i].split()[2] == "<eps>"])[0]
    fields = lines[index].split()
    fields[4] = repr(float(fields[4]) - 1e-3)
    lines[index] = " ".join(fields)
    broken = tmp_path / "broken.fst"
    broken.write_text("\n".join(lines) + "\n")
    rescored = tmp_path / "scores.txt"
    run_gboost(["score", "--fst", str(broken), "--syms", step["base_syms"],
                "--text", inputs.sentences, "--out", str(rescored)])
    tally = Tally()
    check_scores(tally, inputs.model, inputs.sentences, str(rescored))
    assert tally.failed >= 1


def test_diff_check_passes_then_catches_one_dropped_line(built, tmp_path):
    inputs, steps = built
    out = steps["build"]["out"]
    tally = Tally()
    check_diffs(tally, str(out / "enhance.diff"), str(out / "fst.diff"), inputs.targets)
    assert tally.attempted > 2 and tally.failed == 0

    lines = (out / "enhance.diff").read_text().splitlines(keepends=True)
    dropped = tmp_path / "dropped.diff"
    dropped.write_text("".join(lines[1:]))
    tally = Tally()
    check_diffs(tally, str(dropped), str(out / "fst.diff"), inputs.targets)
    assert tally.failed == 1


def test_diff_check_rejects_removals_and_non_target_arcs(tmp_path):
    good = "+ 3 4 tgt tgt -1.5\n"
    bad = good + "- 3 5 other other -2\n~ 1 2 other other -0.5\n"
    (tmp_path / "a.diff").write_text(bad)
    tally = Tally()
    check_diffs(tally, str(tmp_path / "a.diff"), str(tmp_path / "a.diff"), ["tgt"])
    assert tally.failed == 2


def test_grid_check_passes_then_catches_rises_and_failed_cells(built, tmp_path):
    _, steps = built
    grid = steps["sweep"]["out"] / "eval" / "grid.tsv"
    tally = Tally()
    best = check_grid(tally, str(grid), THETAS, CHNUMS)
    assert tally.failed == 0 and best is not None

    header = "# note\ntheta\\chnum\t1\t3\n"
    (tmp_path / "rising.tsv").write_text(header + "-1\t50.00\t40.00\n1\t55.00\t40.00\n")
    tally = Tally()
    check_grid(tally, str(tmp_path / "rising.tsv"), [-1.0, 1.0], [1, 3])
    assert tally.failed == 1
    (tmp_path / "failed.tsv").write_text(header + "-1\t50.00\tfailed\n1\t45.00\t40.00\n")
    tally = Tally()
    check_grid(tally, str(tmp_path / "failed.tsv"), [-1.0, 1.0], [1, 3])
    assert tally.failed == 2  # the failed cell, and the comparison it spoils


# -- tracing ------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_sweep(built):
    _, steps = built
    original = gboost.evaluate.graph_score
    tracer = Tracer()
    tracer.install()
    try:
        assert gboost.evaluate.graph_score is not original
        for command, argv in steps["sweep"]["chain"]:
            tracer.call(f"cli.{command}", gboost.cli.main, argv)
    finally:
        tracer.uninstall()
    assert gboost.evaluate.graph_score is original
    return tracer


def test_traced_sweep_counts_every_call(traced_sweep):
    stats = layer_stats(traced_sweep)
    cells = len(THETAS) * len(CHNUMS)
    assert stats["graph.graph_score.calls"] == cells * SMALL.cases * 4
    assert stats["enhance.arcs_added"] > 0
    assert stats["evaluate.cell.p50_s"] > 0
    assert stats["arpa.parse_arpa.s"] == 0.0
    roots = [span for span in traced_sweep.spans if span[3] == -1]
    assert [span[0] for span in roots] == ["cli.eval"]
    assert all(start <= end for _, start, end, _ in traced_sweep.spans)


def test_reported_metrics_are_those_benchmark_json_names(traced_sweep):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    raw = {"wall_s": [2.0], "setup_s": [0.5], "peak_rss_mb": 100.0,
           "traced_wall_s": [2.5], "commands": [{"eval": 2.0}],
           "layers": [layer_stats(traced_sweep)],
           "footprint": {"fst.states": 10, "fst.arcs": 40, "fst.bytes_per_arc": 140.0}}
    tally = Tally()
    tally.expect(True, "")

    def units(metrics):
        return {name: metric["unit"] for name, metric in metrics.items()}

    expected = {group: {m["name"]: m["unit"] for m in bench[group]}
                for group in ("end_to_end", "per_layer")}
    assert units(end_to_end(raw)) == expected["end_to_end"]
    assert units(per_layer(raw, tally, 30.0)) == expected["per_layer"]


# -- CLI quirks the chains work around ---------------------------------------


def test_negative_theta_list_must_be_joined_with_equals():
    base = ["eval", "--fst", "g", "--syms", "s", "--cases", "c", "--out", "o"]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(base + ["--theta-list", "-4,-2"])
    assert exc.value.code == 1
    args = build_parser().parse_args(base + ["--theta-list=-4,-2"])
    assert args.theta_list == "-4,-2"


def test_diff_of_base_and_enhanced_needs_the_enhanced_symbols(built):
    _, steps = built
    step = steps["build"]
    out = step["out"]
    enhanced = load_graph(out / "enh.fst", out / "enh.syms")
    with pytest.raises(InvariantError, match="do not share a symbol table"):
        diff(load_graph(step["base_fst"], step["base_syms"]), enhanced)
    delta = diff(load_graph(step["base_fst"], out / "enh.syms"), enhanced)
    assert delta.added_arcs and not delta.removed_arcs
