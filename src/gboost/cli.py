"""Command-line front end: build-g, enhance, score, eval, diff-fst.

Exit codes: 0 success, 1 usage error, 2 malformed input, 3 invariant
violation (vocabulary mismatches, bad configs, broken graphs). Output
files are written atomically: into a temp file beside the target, given
the mode ``open`` would create it with under the umask, renamed onto the
target on success and removed on any failure. Graph and symbol files are
streamed into the temp file, never built whole in memory: a graph's text
is formatted one state's lines at a time, or copied in blocks. ``build-g``
frees the parsed model before it writes the graph. The --weights flag
(default from $GBOOST_WEIGHTS) selects between log-probability files and
cost-convention files, whose weights are negated on read and write.

Graph files. ``build-g`` and ``enhance`` write three files per graph: the
graph text ``--out-fst PATH``, its symbol table ``--out-syms``, and the
binary companion ``PATH.bin`` (see :mod:`gboost.fst`). ``enhance`` writes
the new graph that enhancement derives from the one it reads. When the
enhancement raises no arc, and so only adds arcs, and --in-fst is a
regular file, not a pipe, the new text is the bytes of --in-fst, copied
as they are, then a newline if they do not end with one, then one line
per added arc in --diff order: the old arcs are not printed again. The
copy must hash to the digest of the text the graph was loaded from; a
file changed in between exits 3 and writes nothing. Otherwise the whole
graph is printed. Text is the interchange format, and exact: its weights
and those of ``--diff`` lines read back bit for bit (see
``gboost.fst.WEIGHT_FMT``); score lines print 9 significant digits. A
graph is an acceptor, so its text lines and the arc lines of ``--diff``
and ``diff-fst`` print each arc's label twice, as input and output
symbol; a graph text whose arc has two different symbols exits 2. The
companion is derived data, safe to delete, that lets a later command
skip the text parse. ``enhance``, ``score``, ``eval`` and ``diff-fst``
load a graph from its companion when it matches the text, the --weights
convention and the symbol table they read, and parse the text otherwise,
with the same errors and exit codes either way. With -v, each graph load
and write logs one line: the file, where the graph came from, its state
and arc counts and the seconds taken; a write also splits its seconds
into text, symbols and companion, and says when the text was copied and
how many lines were appended.

Text files are read and written as UTF-8, whatever the locale: a file
that is not UTF-8 exits 2. ``score`` reads its --text in binary, cuts it
into lines at ``\\n`` bytes, decodes each line and scores each piece
``str.splitlines`` makes of it; a line that is not UTF-8 is named by its
number, counted in ``\\n`` bytes, and the offset of its bad byte in the
file. When --text is a regular file of at least
twice ``_PARALLEL_MIN_BYTES`` bytes, and this process can fork, runs no
other thread (a graph load joins the thread that hashes its text before
it returns) and may use more than one CPU, ``score`` splits it into byte
ranges that start just after a ``\\n`` byte, one per CPU but at least
``_PARALLEL_MIN_BYTES`` long. It scores the first range itself and forks a
worker for each of the others; each worker scores its range into an
unlinked temp file, which this process then appends to the output in
order. The output is the serial output byte for byte. The first failing
range in file order sets the error and exit code, no worker outlives the
command, and the output file is still written whole or not at all. A
worker's memory is its own process's, outside this process's
``ru_maxrss``: ``RUSAGE_CHILDREN`` holds it. Standard input, a pipe, an
empty or short text, or a single CPU scores in this process alone. With
-v, a split run logs one line: the file, the process count, its size and
the seconds taken.

Each command runs with Python's cyclic garbage collector paused, and the
collector's state on entry comes back on every exit path. A graph keeps
its arcs in arrays, not objects (see :mod:`gboost.fst`), but a command
still allocates hundreds of thousands of container objects that form no
reference cycles: the parsed model's n-gram tuples, and the arc tuples
and best-arc tables that scoring and enhancement build. The collections
their allocation triggers traverse them and free nothing: on the
benchmark's inputs, with the collector running, they took about a tenth
of ``build-g``'s parse and compile and of an ``eval`` sweep. A command
leaves a few hundred objects of cyclic garbage however large its input
(mostly the argument parser), which the first collection after it frees.
Library functions leave the collector alone: a program that calls them
owns its process's collector.
"""

from __future__ import annotations

import argparse
import gc
import logging
import math
import os
import shutil
import signal
import stat
import sys
import tempfile
import threading
import traceback
from contextlib import contextmanager, nullcontext, suppress
from pathlib import Path
from time import perf_counter
from typing import IO, BinaryIO, Iterator, NoReturn, TextIO

from gboost.arpa import parse_arpa
from gboost.enhance import enhance, load_pairs_config
from gboost.errors import FormatError, GboostError, NoPathError
from gboost.evaluate import PROXY_NOTE, grid_tsv, load_cases, run_ranking, sweep
from gboost.fst import (COMPANION_SUFFIX, FstDiff, SymbolTable, WEIGHT_FMT, Wfst,
                        _file_digest, append_text, diff, format_arc, load_graph,
                        write_companion, write_text)
from gboost.graph import build_g, graph_score

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_INVARIANT = 3

WEIGHT_CONVENTIONS = ("logprob", "cost")

# Print format of `score` lines, 9 significant digits: unlike graph text,
# no command reads a score file back, and longer lines cost `score` time.
SCORE_FMT = "%.9g"

# The fewest bytes of --text per process when `score` splits its input.
# On the benchmark's seed-1801 inputs with two CPUs, one worker broke even
# on a 64 KB text and saved 11-13% of the command on 128 KB.
_PARALLEL_MIN_BYTES = 32 * 1024
# The exit code of a score worker that met an exception main would raise.
_WORKER_CRASHED = 70


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; this tool reserves 2 for
    # malformed input files, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@contextmanager
def _atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """A handle on a temp file beside ``path``, renamed onto it on success.

    Text mode writes UTF-8. The file gets the mode ``open(path, "w")`` would
    create it with, not ``mkstemp``'s 0600. If the body raises, the temp
    file is removed and ``path`` is untouched.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        # The umask can only be read by setting it, so it is set back at once.
        umask = os.umask(0o022)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _atomic_write(path: str | Path, text: str) -> None:
    with _atomic_open(path) as handle:
        handle.write(text)


def _failure(exc: BaseException) -> tuple[int, str] | None:
    """The exit code and error line a command ends with on ``exc``, or None to raise it."""
    if isinstance(exc, _WorkerFailed):
        return exc.code, exc.line
    if isinstance(exc, UsageError):
        return EXIT_USAGE, f"gboost: error: {exc}"
    if isinstance(exc, (FormatError, UnicodeDecodeError)):
        return EXIT_FORMAT, f"gboost: input format error: {exc}"
    if isinstance(exc, GboostError):
        return EXIT_INVARIANT, f"gboost: error: {exc}"
    if isinstance(exc, OSError):
        return EXIT_USAGE, f"gboost: error: {exc}"
    return None


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


def _read_symbols(syms_path) -> SymbolTable:
    with open(syms_path, encoding="utf-8") as handle:
        return SymbolTable.read(handle)


def _load_graph(fst_path, syms_path, negate) -> tuple[Wfst, bytes]:
    return load_graph(fst_path, _read_symbols(syms_path), negate=negate)


def _write_graph(g: Wfst, fst_path: str, syms_path: str, negate: bool,
                 source: tuple[str, bytes, list[str]] | None = None) -> None:
    # Streamed into the temp files: the text is never held whole in memory.
    # The text is write_text's, or, given a source (the text file g was
    # derived from, its digest and the lines of the arcs the derivation
    # added), that file's bytes plus those lines. The companion dumps g's
    # materialized columns, which the text reads back to either way, with
    # the text's digest: append_text's, or the written file's.
    start = perf_counter()
    if source is None:
        with _atomic_open(fst_path) as handle:
            write_text(g, handle, negate=negate)
        text_digest = _file_digest(fst_path)
        how = ""
    else:
        in_path, digest, lines = source
        with _atomic_open(fst_path, "wb") as handle:
            text_digest = append_text(in_path, digest, lines, handle)
        how = f": {in_path} copied plus {len(lines)} lines appended"
    text_done = perf_counter()
    with _atomic_open(syms_path) as handle:
        g.symbols.write(handle)
    symbols_done = perf_counter()
    with _atomic_open(fst_path + COMPANION_SUFFIX, "wb") as handle:
        write_companion(g, text_digest, handle, negate=negate)
    end = perf_counter()
    log.info("wrote %s and its companion: %d states, %d arcs in %.3f s "
             "(text %.3f s%s, symbols %.3f s, companion %.3f s)", fst_path,
             g.num_states(), g.num_arcs(), end - start, text_done - start, how,
             symbols_done - text_done, end - symbols_done)


def format_diff(delta: FstDiff, symbols: SymbolTable,
                negate: bool = False) -> str:
    """Render a diff as prefixed FST text lines.

    ``+`` added arc, ``-`` removed arc, ``~`` reweighted arc (new weight),
    ``f`` changed final weight ('-' marks absent).
    """
    sign = -1.0 if negate else 1.0
    lines = []
    for arc in delta.added_arcs:
        lines.append("+ " + format_arc(arc, symbols, negate))
    for arc in delta.removed_arcs:
        lines.append("- " + format_arc(arc, symbols, negate))
    for _, after in delta.reweighted_arcs:
        lines.append("~ " + format_arc(after, symbols, negate))
    for state, _, after_weight in delta.final_changes:
        rendered = "-" if after_weight is None else WEIGHT_FMT % (sign * after_weight)
        lines.append(f"f {state} {rendered}")
    return "".join(line + "\n" for line in lines)


# -- subcommands ------------------------------------------------------------


def _compile(arpa_path: str) -> Wfst:
    # Only the graph outlives this call: the parsed model is freed before
    # the graph is written.
    with open(arpa_path, encoding="utf-8") as handle:
        return build_g(parse_arpa(handle))


def _cmd_build_g(args) -> int:
    negate = _negate(args)
    _require_files(args.arpa)
    g = _compile(args.arpa)
    _write_graph(g, args.out_fst, args.out_syms, negate)
    return EXIT_OK


def _cmd_enhance(args) -> int:
    negate = _negate(args)
    _require_files(args.in_fst, args.in_syms, args.pairs)
    g, digest = _load_graph(args.in_fst, args.in_syms, negate)
    config = load_pairs_config(Path(args.pairs).read_text(encoding="utf-8"))
    g, delta = enhance(g, config)
    # A graph that only gains arcs is its input's text plus their lines,
    # if that text can be read a second time: a regular file, not a pipe.
    # Only a full rewrite can express a raised arc.
    lines = None
    if not delta.reweighted_arcs and os.path.isfile(args.in_fst):
        lines = [format_arc(arc, g.symbols, negate) + "\n" for arc in delta.added_arcs]
        _write_graph(g, args.out_fst, args.out_syms, negate, (args.in_fst, digest, lines))
    else:
        _write_graph(g, args.out_fst, args.out_syms, negate)
    if args.diff:
        # Each added arc is formatted once: a diff that only adds arcs is
        # their appended lines, each after "+ ", as format_diff prints it.
        _atomic_write(args.diff, format_diff(delta, g.symbols, negate) if lines is None
                      else "".join("+ " + line for line in lines))
    return EXIT_OK


def _score_lines(g: Wfst, text: BinaryIO, start: int, end: float, out: TextIO,
                 sign: float) -> None:
    # Scores bytes start..end of `text`, which is at offset `start`: a range
    # that ends just after a \n byte, or all the rest if `end` is infinite.
    at = start
    for line in text:
        # Split at \n bytes, then decoded: a \n byte is never part of a
        # longer UTF-8 character. str.splitlines also breaks at \r, \v, \f
        # and a few other separators; each piece is a sentence.
        try:
            sentences = line.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise _not_utf8(text, at, exc) from None
        for sentence in sentences:
            words = sentence.split()
            try:
                score = graph_score(g, words)
            except NoPathError:
                score = -math.inf
            out.write(f"{SCORE_FMT % (sign * score)}\t{' '.join(words)}\n")
        at += len(line)
        if at >= end:
            break


def _not_utf8(text: BinaryIO, at: int, exc: UnicodeDecodeError) -> FormatError:
    # The error for the line at byte `at`, which `exc` could not decode. Its
    # number, counted in \n bytes, costs a reread of the text up to it;
    # a text that cannot seek, a pipe say, is named by offset alone.
    message = f"--text is not UTF-8 at byte offset {at + exc.start}: {exc.reason}"
    if not text.seekable():
        return FormatError(message)
    text.seek(0)
    newlines = 0
    while at > 0 and (block := text.read(min(at, 1 << 16))):
        newlines += block.count(b"\n")
        at -= len(block)
    return FormatError(message, line=newlines + 1)


def _split_points(text: BinaryIO) -> list[int]:
    """Byte offsets that cut ``text`` into ranges, one per scoring process.

    ``[0, size]``, one range, unless ``text`` is a regular file, this
    process can fork, runs no other thread (the graph load has joined its
    helper) and may use more than one CPU, and the file holds
    ``_PARALLEL_MIN_BYTES`` bytes for each of at least two processes.
    Otherwise one cut per extra process, each just after a ``\\n`` byte,
    and no empty range: never more processes than CPUs. Leaves ``text`` at
    offset 0.
    """
    info = os.fstat(text.fileno())
    size = info.st_size
    if not (stat.S_ISREG(info.st_mode) and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity") and threading.active_count() == 1):
        return [0, size]
    parts = min(len(os.sched_getaffinity(0)), size // _PARALLEL_MIN_BYTES)
    cuts = [0]
    for k in range(1, parts):
        # The end of the line holding the last byte before the k-th even share.
        text.seek(size * k // parts - 1)
        text.readline()
        if cuts[-1] < text.tell() < size:
            cuts.append(text.tell())
    text.seek(0)
    return cuts + [size]


class _WorkerFailed(Exception):
    """A score worker's failure, already rendered as its exit code and error line."""

    def __init__(self, code: int, line: str):
        super().__init__(line)
        self.code = code
        self.line = line


def _score_worker(g: Wfst, path: str, start: int, end: int, spool: IO[bytes],
                  sign: float) -> NoReturn:
    # A forked child: scores bytes [start, end) of `path` into `spool`, or
    # replaces what it wrote with its error line, and exits with the code
    # main would return. Only through os._exit, so it runs none of the
    # parent's cleanup and flushes none of its inherited buffers.
    code = _WORKER_CRASHED
    try:
        try:
            with open(path, "rb") as text, \
                    open(spool.fileno(), "w", encoding="utf-8", closefd=False) as out:
                text.seek(start)
                _score_lines(g, text, start, end, out, sign)
            code = EXIT_OK
        except BaseException as exc:
            failure = _failure(exc)
            code, line = failure if failure is not None else (
                _WORKER_CRASHED, "".join(traceback.format_exception(exc)))
            os.ftruncate(spool.fileno(), 0)
            os.pwrite(spool.fileno(), line.encode("utf-8", "backslashreplace"), 0)
    finally:
        os._exit(code)


def _score_split(g: Wfst, path: str, text: BinaryIO, cuts: list[int], out: TextIO,
                 sign: float) -> None:
    # One forked worker per range after the first, each into its own
    # unlinked temp file; this process scores the first range, then appends
    # the workers' files in order. The first failing range in file order
    # raises. Every worker is killed, if still running, and reaped on every
    # exit path.
    workers: list[tuple[int, IO[bytes]]] = []
    running: set[int] = set()
    try:
        for start, end in zip(cuts[1:], cuts[2:]):
            spool = tempfile.TemporaryFile()
            try:
                pid = os.fork()
            except BaseException:
                spool.close()
                raise
            if pid == 0:
                _score_worker(g, path, start, end, spool, sign)
            workers.append((pid, spool))
            running.add(pid)
        _score_lines(g, text, 0, cuts[1], out, sign)
        for (pid, spool), start, end in zip(workers, cuts[1:], cuts[2:]):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.discard(pid)
            spool.seek(0)
            if code < 0:
                raise ChildProcessError(f"score worker for bytes {start}-{end} of {path} "
                                        f"was killed by signal {-code}")
            if code == _WORKER_CRASHED:
                raise RuntimeError(f"score worker for bytes {start}-{end} of {path} "
                                   f"failed:\n{spool.read().decode('utf-8')}")
            if code != EXIT_OK:
                raise _WorkerFailed(code, spool.read().decode("utf-8"))
            with open(spool.fileno(), encoding="utf-8", newline="", closefd=False) as scores:
                shutil.copyfileobj(scores, out)
    finally:
        # A worker reaped just before an interrupt may still be listed.
        for pid in running:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in running:
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
        for _, spool in workers:
            spool.close()


def _cmd_score(args) -> int:
    negate = _negate(args)
    _require_files(args.fst, args.syms, args.text)
    g, _ = _load_graph(args.fst, args.syms, negate)
    sign = -1.0 if negate else 1.0
    # Streamed line by line into the output's temp file, or to stdout.
    with open(args.text, "rb") as text, \
            (_atomic_open(args.out) if args.out else nullcontext(sys.stdout)) as out:
        cuts = _split_points(text)
        if len(cuts) == 2:
            _score_lines(g, text, 0, math.inf, out, sign)
        else:
            start = perf_counter()
            _score_split(g, args.text, text, cuts, out, sign)
            log.info("scored %s in %d processes: %d bytes in %.3f s", args.text,
                     len(cuts) - 1, cuts[-1], perf_counter() - start)
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
    # Cells are named and printed by {theta:g}; two values that print the
    # same would overwrite one cell file and label two grid rows alike.
    printed = {}
    for theta in theta_list or ():
        other = printed.setdefault(f"{theta:g}", theta)
        if other != theta:
            raise UsageError(f"--theta-list values {other!r} and {theta!r} "
                             f"both print as {theta:g}")
    if chnum_list and min(chnum_list) < 1:
        raise UsageError(f"--chnum-list values must be at least 1, got {args.chnum_list!r}")
    g, _ = _load_graph(args.fst, args.syms, negate)
    cases = load_cases(Path(args.cases).read_text(encoding="utf-8"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if not args.pairs:
        report = run_ranking(g, cases)
        _atomic_write(out_dir / "report.json", report.to_json())
        _atomic_write(out_dir / "report.tsv",
                      f"# {PROXY_NOTE}\nerror_rate\t{report.error_rate:.2f}\n")
        return EXIT_OK

    config = load_pairs_config(Path(args.pairs).read_text(encoding="utf-8"))
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
    symbols = _read_symbols(args.syms)  # one table: both graphs share it
    before, _ = load_graph(args.fst_a, symbols, negate=negate)
    after, _ = load_graph(args.fst_b, symbols, negate=negate)
    text = format_diff(diff(before, after), before.symbols, negate)
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
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except Exception as exc:
        failure = _failure(exc)
        if failure is None:
            raise
        code, line = failure
        print(line, file=sys.stderr)
        return code
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
