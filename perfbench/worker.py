"""Timed worker: runs one workload's gboost command chain in-process.

Started by run.py as a fresh single-threaded process, so its peak RSS is
the chain's own. It reads a JSON spec naming the chain, the set-up command
and the time budget, and writes raw per-repetition measurements to the
spec's ``result`` path. With ``trace`` set, untraced and traced repetitions
alternate, and a final pass under tracemalloc sizes the loaded base graph.

Usage: python3 perfbench/worker.py SPEC_JSON
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

MIN_REPS = 3


class ChainError(Exception):
    pass


def run_chain(chain, tracer=None) -> tuple[float, dict[str, float]]:
    """Run each (command, argv) through gboost.cli.main; return wall times."""
    from gboost.cli import main
    commands = {}
    start = perf_counter()
    for command, argv in chain:
        begin = perf_counter()
        code = main(argv) if tracer is None else tracer.call(f"cli.{command}", main, argv)
        commands[command] = perf_counter() - begin
        if code != 0:
            raise ChainError(f"gboost {command} exited with code {code}")
    return perf_counter() - start, commands


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in map(Path, paths):
        files = sorted(f for f in path.rglob("*") if f.is_file()) if path.is_dir() else [path]
        for file in files:
            h.update(str(file.relative_to(path.parent)).encode())
            h.update(file.read_bytes())
    return h.hexdigest()


def graph_footprint(fst_path: str, syms_path: str) -> dict[str, float]:
    """Arc and state counts of a graph file, and its traced bytes per arc."""
    from gboost.fst import SymbolTable, read_text
    gc.collect()
    tracemalloc.start()
    try:
        with open(syms_path) as handle:
            symbols = SymbolTable.read(handle)
        with open(fst_path) as handle:
            fst = read_text(handle, symbols)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    arcs = fst.num_arcs()
    return {"fst.states": fst.num_states(), "fst.arcs": arcs,
            "fst.bytes_per_arc": size / arcs}


def measure(spec: dict) -> dict:
    deadline = perf_counter() + spec["seconds"]
    out = {"wall_s": [], "setup_s": [], "commands": [], "digests": []}
    while True:
        gc.collect()
        wall, commands = run_chain(spec["chain"])
        out["wall_s"].append(wall)
        out["commands"].append(commands)
        out["digests"].append(digest(spec["outputs"]))
        gc.collect()
        out["setup_s"].append(run_chain([("score", spec["setup"])])[0])
        if len(out["wall_s"]) >= MIN_REPS and perf_counter() >= deadline:
            break
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def measure_traced(spec: dict) -> dict:
    from tracing import Tracer, layer_stats, span_records
    deadline = perf_counter() + spec["seconds"]
    out = {"wall_s": [], "traced_wall_s": [], "commands": [], "layers": [],
           "digests": []}
    while True:
        gc.collect()
        wall, commands = run_chain(spec["chain"])
        out["wall_s"].append(wall)
        out["commands"].append(commands)
        out["digests"].append(digest(spec["outputs"]))
        gc.collect()
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, _ = run_chain(spec["chain"], tracer)
        finally:
            tracer.uninstall()
        out["traced_wall_s"].append(traced_wall)
        out["layers"].append(layer_stats(tracer))
        out["digests"].append(digest(spec["outputs"]))
        if perf_counter() >= deadline:
            break
    with open(spec["spans"], "w") as handle:
        for record in span_records(tracer):
            handle.write(json.dumps(record) + "\n")
    out["footprint"] = graph_footprint(spec["base_fst"], spec["base_syms"])
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    try:
        result = measure_traced(spec) if spec["trace"] else measure(spec)
    except ChainError as exc:
        print(f"perfbench worker: {exc}", file=sys.stderr)
        return 1
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
