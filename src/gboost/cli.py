"""Command-line front end: build-g, enhance, score, eval, diff-fst.

Exit codes: 0 success, 1 usage error, 2 malformed input, 3 invariant
violation (vocabulary mismatches, bad configs, broken graphs). Output
files are written atomically (temp file then rename). The --weights flag
(default from $GBOOST_WEIGHTS) selects between log-probability files and
cost-convention files, whose weights are negated on read and write.
"""

from __future__ import annotations

import argparse
import io
import logging
import math
import os
import sys
import tempfile
from pathlib import Path

from gboost.arpa import parse_arpa
from gboost.enhance import enhance, load_pairs_config
from gboost.errors import FormatError, GboostError, NoPathError
from gboost.evaluate import PROXY_NOTE, grid_tsv, load_cases, run_ranking, sweep
from gboost.fst import (FstDiff, SymbolTable, WEIGHT_FMT, diff, read_text,
                        write_text)
from gboost.graph import build_g, graph_score

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_INVARIANT = 3

WEIGHT_CONVENTIONS = ("logprob", "cost")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; this tool reserves 2 for
    # malformed input files, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _require_files(*paths: str) -> None:
    missing = [p for p in paths if p and not os.path.exists(p)]
    if missing:
        raise UsageError(f"input file not found: {', '.join(missing)}")


def _negate(args) -> bool:
    convention = args.weights
    if convention not in WEIGHT_CONVENTIONS:
        raise UsageError(f"bad weight convention {convention!r} "
                         f"(choose from {', '.join(WEIGHT_CONVENTIONS)})")
    return convention == "cost"


def _number_list(text: str | None, flag: str, kind) -> list | None:
    """Values of a comma-separated list flag, or None if it was not given."""
    if not text:
        return None
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated list of {kind.__name__} "
                         f"values, got {text!r}") from None


def _load_graph(fst_path, syms_path, negate):
    with open(syms_path) as handle:
        symbols = SymbolTable.read(handle)
    with open(fst_path) as handle:
        g = read_text(handle, symbols, negate=negate)
    return g


def _graph_to_text(g, negate):
    buf = io.StringIO()
    write_text(g, buf, negate=negate)
    return buf.getvalue()


def _symbols_to_text(symbols):
    buf = io.StringIO()
    symbols.write(buf)
    return buf.getvalue()


def format_diff(delta: FstDiff, symbols: SymbolTable,
                negate: bool = False) -> str:
    """Render a diff as prefixed FST text lines.

    ``+`` added arc, ``-`` removed arc, ``~`` reweighted arc (new weight),
    ``f`` changed final weight ('-' marks absent).
    """
    sign = -1.0 if negate else 1.0
    fmt = WEIGHT_FMT

    def arc_line(arc):
        return (f"{arc.source} {arc.target} {symbols.symbol(arc.ilabel)} "
                f"{symbols.symbol(arc.olabel)} {fmt % (sign * arc.weight)}")

    lines = []
    for arc in delta.added_arcs:
        lines.append("+ " + arc_line(arc))
    for arc in delta.removed_arcs:
        lines.append("- " + arc_line(arc))
    for _, after in delta.reweighted_arcs:
        lines.append("~ " + arc_line(after))
    for state, _, after_weight in delta.final_changes:
        rendered = "-" if after_weight is None else fmt % (sign * after_weight)
        lines.append(f"f {state} {rendered}")
    return "".join(line + "\n" for line in lines)


# -- subcommands ------------------------------------------------------------


def _cmd_build_g(args) -> int:
    negate = _negate(args)
    _require_files(args.arpa)
    with open(args.arpa) as handle:
        model = parse_arpa(handle)
    g, _ = build_g(model)
    _atomic_write(args.out_fst, _graph_to_text(g, negate))
    _atomic_write(args.out_syms, _symbols_to_text(g.symbols))
    return EXIT_OK


def _cmd_enhance(args) -> int:
    negate = _negate(args)
    _require_files(args.in_fst, args.in_syms, args.pairs)
    g = _load_graph(args.in_fst, args.in_syms, negate)
    config = load_pairs_config(Path(args.pairs).read_text())
    _, delta = enhance(g, config)
    _atomic_write(args.out_fst, _graph_to_text(g, negate))
    _atomic_write(args.out_syms, _symbols_to_text(g.symbols))
    if args.diff:
        _atomic_write(args.diff, format_diff(delta, g.symbols, negate))
    return EXIT_OK


def _cmd_score(args) -> int:
    negate = _negate(args)
    _require_files(args.fst, args.syms, args.text)
    g = _load_graph(args.fst, args.syms, negate)
    sign = -1.0 if negate else 1.0
    out_lines = []
    for line in Path(args.text).read_text().splitlines():
        words = line.split()
        try:
            score = graph_score(g, words)
        except NoPathError:
            score = -math.inf
        out_lines.append(f"{WEIGHT_FMT % (sign * score)}\t{' '.join(words)}")
    text = "".join(line + "\n" for line in out_lines)
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_eval(args) -> int:
    negate = _negate(args)
    _require_files(args.fst, args.syms, args.cases, args.pairs)
    if not args.pairs and (args.theta_list or args.chnum_list):
        raise UsageError("--theta-list and --chnum-list need --pairs, which enables sweeping")
    theta_list = _number_list(args.theta_list, "--theta-list", float)
    chnum_list = _number_list(args.chnum_list, "--chnum-list", int)
    if theta_list and not all(map(math.isfinite, theta_list)):
        raise UsageError(f"--theta-list values must be finite, got {args.theta_list!r}")
    if chnum_list and min(chnum_list) < 1:
        raise UsageError(f"--chnum-list values must be at least 1, got {args.chnum_list!r}")
    g = _load_graph(args.fst, args.syms, negate)
    cases = load_cases(Path(args.cases).read_text())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if not args.pairs:
        report = run_ranking(g, cases)
        _atomic_write(out_dir / "report.json", report.to_json())
        _atomic_write(out_dir / "report.tsv",
                      f"# {PROXY_NOTE}\nerror_rate\t{report.error_rate:.2f}\n")
        return EXIT_OK

    config = load_pairs_config(Path(args.pairs).read_text())
    theta_list = theta_list or [config.theta]
    chnum_list = chnum_list or [config.max_predictors]
    grid = sweep(g, config, theta_list, chnum_list, cases)
    _atomic_write(out_dir / "grid.tsv", grid_tsv(grid, theta_list, chnum_list))
    for (theta, chnum), report in grid.items():
        name = f"cell_theta{theta:g}_chnum{chnum}.json"
        body = report.to_json() if report is not None else '{"failed": true}\n'
        _atomic_write(out_dir / name, body)
    return EXIT_OK


def _cmd_diff_fst(args) -> int:
    negate = _negate(args)
    _require_files(args.fst_a, args.fst_b, args.syms)
    with open(args.syms) as handle:
        symbols = SymbolTable.read(handle)
    with open(args.fst_a) as handle:
        before = read_text(handle, symbols, negate=negate)
    with open(args.fst_b) as handle:
        after = read_text(handle, symbols, negate=negate)
    delta = diff(before, after)
    text = format_diff(delta, symbols, negate)
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gboost",
                     description="Grammar-graph toolkit with similar-pair "
                                 "word enhancement.")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_weights(p):
        p.add_argument("--weights", default=os.environ.get("GBOOST_WEIGHTS", "logprob"),
                       help="weight convention of FST files: logprob (default) or cost")

    p = sub.add_parser("build-g", help="compile an ARPA model into a grammar graph")
    p.add_argument("--arpa", required=True)
    p.add_argument("--out-fst", required=True)
    p.add_argument("--out-syms", required=True)
    add_weights(p)
    p.set_defaults(func=_cmd_build_g)

    p = sub.add_parser("enhance", help="apply similar-pair enhancement to a graph")
    p.add_argument("--in-fst", required=True)
    p.add_argument("--in-syms", required=True)
    p.add_argument("--pairs", required=True, help="similar-pairs JSON config")
    p.add_argument("--out-fst", required=True)
    p.add_argument("--out-syms", required=True)
    p.add_argument("--diff", help="write the structural diff here")
    add_weights(p)
    p.set_defaults(func=_cmd_enhance)

    p = sub.add_parser("score", help="score sentences, one per line")
    p.add_argument("--fst", required=True)
    p.add_argument("--syms", required=True)
    p.add_argument("--text", required=True, help="sentences, one per line")
    p.add_argument("--out", help="write scores here instead of stdout")
    add_weights(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="focus-token ranking evaluation, optionally swept")
    p.add_argument("--fst", required=True)
    p.add_argument("--syms", required=True)
    p.add_argument("--cases", required=True, help="ranking cases JSON")
    p.add_argument("--pairs", help="similar-pairs JSON config (enables sweeping)")
    p.add_argument("--theta-list", help="comma-separated enhancement scales")
    p.add_argument("--chnum-list", help="comma-separated predictor counts")
    p.add_argument("--out", required=True, help="output directory")
    add_weights(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("diff-fst", help="structural diff of two graphs")
    p.add_argument("fst_a")
    p.add_argument("fst_b")
    p.add_argument("--syms", required=True)
    p.add_argument("--out", help="write the diff here instead of stdout")
    add_weights(p)
    p.set_defaults(func=_cmd_diff_fst)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING if args.verbose == 0 else \
        logging.INFO if args.verbose == 1 else logging.DEBUG
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="gboost: %(levelname)s: %(message)s")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"gboost: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"gboost: input format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except GboostError as exc:
        print(f"gboost: error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"gboost: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
