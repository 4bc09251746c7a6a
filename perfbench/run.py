"""Benchmark of the gboost compile -> boost -> rank pipeline.

    python3 perfbench/run.py --workload build|score|sweep --seed N \
        --seconds S --trace 0|1 [--record FILE]

Generates the workload's inputs from the seed (untimed), then starts one
fresh worker process that repeats the workload's chain of gboost commands
for S seconds. The commands run in-process through ``gboost.cli.main``.
After the worker exits, the outputs are checked and the last line printed
is one JSON object: ``correct``, ``attempted`` and ``failed`` (output
checks) and ``metrics``. With ``--trace 0`` the metrics are end to end and
untraced; with ``--trace 1`` they are per layer, from traced repetitions.
``--record`` also appends the result, tagged with workload and seed and
with the per-repetition samples, to a JSON-lines file that compare.py reads.

Work files live under ``.perfbench/`` in the repository root and are
removed when the run ends; the spans of the last traced repetition are
kept in ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from checks import Tally, check_diffs, check_grid, check_same_outputs, check_scores
from inputs import write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = ("build", "score", "sweep")
THETAS = [-4.0, -2.0, 0.0, 2.0]
CHNUMS = [1, 3, 5]
COMMANDS = ["build-g", "enhance", "diff-fst", "score", "eval"]
# The worker measures for --seconds, then finishes its last repetition.
WORKER_GRACE_S = 100


def _theta_arg() -> str:
    # Joined with '=': a separate "-4,..." argument would parse as a flag.
    return "--theta-list=" + ",".join(f"{t:g}" for t in THETAS)


def plan(workload: str, work: Path, inputs) -> dict:
    """The workload's command chain, set-up command and files to check."""
    base = work / ("out" if workload == "build" else "base")
    out = work / "out"
    fst, syms = str(base / "g.fst"), str(base / "g.syms")
    build_g = ["build-g", "--arpa", inputs.model, "--out-fst", fst, "--out-syms", syms]
    if workload == "build":
        chain = [
            ("build-g", build_g),
            ("enhance", ["enhance", "--in-fst", fst, "--in-syms", syms,
                         "--pairs", inputs.pairs, "--out-fst", str(out / "enh.fst"),
                         "--out-syms", str(out / "enh.syms"),
                         "--diff", str(out / "enhance.diff")]),
            # The base graph is read with the enhanced symbol table, a
            # superset of its own, because diff needs one shared table.
            ("diff-fst", ["diff-fst", fst, str(out / "enh.fst"),
                          "--syms", str(out / "enh.syms"),
                          "--out", str(out / "fst.diff")]),
        ]
        prepare = []
    elif workload == "score":
        chain = [("score", ["score", "--fst", fst, "--syms", syms,
                            "--text", inputs.sentences, "--out", str(out / "scores.txt")])]
        prepare = [build_g]
    else:
        chain = [("eval", ["eval", "--fst", fst, "--syms", syms,
                           "--cases", inputs.cases, "--pairs", inputs.pairs,
                           _theta_arg(),
                           "--chnum-list=" + ",".join(map(str, CHNUMS)),
                           "--out", str(out / "eval")])]
        prepare = [build_g]
    empty = work / "empty.txt"
    setup = ["score", "--fst", fst, "--syms", syms, "--text", str(empty),
             "--out", str(work / "empty.scores")]
    return {"chain": chain, "prepare": prepare, "setup": setup, "out": out,
            "empty": empty, "base_fst": fst, "base_syms": syms}


def check(workload: str, plan_: dict, inputs, digests: list[str]) -> tuple[Tally, float]:
    tally = Tally()
    check_same_outputs(tally, digests)
    out = plan_["out"]
    best_error = 0.0
    if workload == "build":
        check_diffs(tally, str(out / "enhance.diff"), str(out / "fst.diff"), inputs.targets)
    elif workload == "score":
        check_scores(tally, inputs.model, inputs.sentences, str(out / "scores.txt"))
    else:
        best = check_grid(tally, str(out / "eval" / "grid.tsv"), THETAS, CHNUMS)
        best_error = 0.0 if best is None else best
    return tally, best_error


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(raw: dict) -> dict:
    return {
        "wall_s": _metric(statistics.median(raw["wall_s"]), "s"),
        "setup_s": _metric(statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": _metric(raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw: dict, tally: Tally, best_error: float) -> dict:
    layers = {key: statistics.median(rep[key] for rep in raw["layers"])
              for key in raw["layers"][0]}
    metrics = {}
    for key, value in layers.items():
        unit = ("count" if key.endswith(".calls") or key.startswith("enhance.arcs")
                else "us" if key.endswith("_us") else "s")
        metrics[key] = _metric(value, unit)
    for command in COMMANDS:
        times = [rep[command] for rep in raw["commands"] if command in rep]
        metrics[f"cli.{command}.s"] = _metric(statistics.median(times) if times else 0.0, "s")
    wall = statistics.median(raw["wall_s"])
    metrics["trace.overhead_s"] = _metric(statistics.median(raw["traced_wall_s"]) - wall, "s")
    footprint = raw["footprint"]
    metrics["fst.states"] = _metric(footprint["fst.states"], "count")
    metrics["fst.arcs"] = _metric(footprint["fst.arcs"], "count")
    metrics["fst.bytes_per_arc"] = _metric(footprint["fst.bytes_per_arc"], "B/arc")
    metrics["sentences_per_s"] = _metric(layers["graph.graph_score.calls"] / wall, "1/s")
    metrics["best_error_pct"] = _metric(best_error, "%")
    metrics["failed_ratio"] = _metric(tally.failed / tally.attempted, "ratio")
    return metrics


def run(args) -> tuple[dict, dict]:
    """The result line, and the per-repetition samples behind its medians."""
    sys.path.insert(0, str(SRC))
    from gboost.cli import main as gboost

    work = STATE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = write_inputs(work / "in", args.seed)
        steps = plan(args.workload, work, inputs)
        for directory in (work / "base", steps["out"]):
            directory.mkdir(parents=True, exist_ok=True)
        steps["empty"].write_text("")
        for argv in steps["prepare"]:
            if gboost(argv) != 0:
                raise RuntimeError(f"preparing inputs failed: gboost {' '.join(argv)}")

        spans = STATE / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spec = {"src": str(SRC), "seconds": args.seconds, "trace": args.trace,
                "chain": steps["chain"], "setup": steps["setup"],
                "outputs": [str(steps["out"])], "base_fst": steps["base_fst"],
                "base_syms": steps["base_syms"], "result": str(work / "raw.json"),
                "spans": str(spans)}
        (work / "spec.json").write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                        str(work / "spec.json")],
                       env=env, check=True, timeout=args.seconds + WORKER_GRACE_S,
                       stdout=subprocess.DEVNULL)
        raw = json.loads((work / "raw.json").read_text())

        tally, best_error = check(args.workload, steps, inputs, raw["digests"])
        for message in tally.messages:
            print(f"perfbench: check failed: {message}", file=sys.stderr)
        metrics = per_layer(raw, tally, best_error) if args.trace else end_to_end(raw)
        result = {"correct": tally.failed == 0, "attempted": tally.attempted,
                  "failed": tally.failed, "metrics": metrics}
        samples = {key: raw[key] for key in ("wall_s", "setup_s", "traced_wall_s")
                   if key in raw}
        return result, samples
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the result to this JSON-lines file")
    args = parser.parse_args()
    # Exit through Python on SIGTERM, so the worker is killed and waited for
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "gboost" / "cli.py").is_file():
        print(f"perfbench: no gboost sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, samples = run(args)
    except (subprocess.SubprocessError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    line = json.dumps(result)
    if args.record:
        with open(args.record, "a") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                     "trace": args.trace, **result, "samples": samples}) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
