"""``gboost score`` split across forked workers: the serial bytes, and clean failures.

The split is forced by patching the CPU count and ``_PARALLEL_MIN_BYTES``
down, so that a few bytes of text make several ranges.
"""

import io
import os
import signal
import sys
import tempfile
import time
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

import gboost.cli
from gboost.cli import WEIGHT_CONVENTIONS, main
from gboost.errors import InvariantError


@pytest.fixture(scope="module")
def graphs(tmp_path_factory, telecom_arpa):
    """The telecom graph, written under each weight convention: {weights: (fst, syms)}."""
    root = tmp_path_factory.mktemp("graphs")
    (root / "m.arpa").write_text(telecom_arpa, encoding="utf-8")
    paths = {}
    for weights in WEIGHT_CONVENTIONS:
        fst, syms = root / f"{weights}.fst", root / f"{weights}.syms"
        assert main(["build-g", "--arpa", str(root / "m.arpa"), "--out-fst", str(fst),
                     "--out-syms", str(syms), "--weights", weights]) == 0
        paths[weights] = (fst, syms)
    return paths


@contextmanager
def cpus(count, min_bytes=1):
    """Report ``count`` CPUs and split from ``min_bytes`` per process; yields the forked pids."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        patch.setattr(gboost.cli, "_PARALLEL_MIN_BYTES", min_bytes)
        patch.setattr(os, "fork", fork)
        yield forks


def score(graphs, weights, text_path, out_path=None):
    """Exit code and output of one score run: stdout's text, or the --out file's bytes."""
    fst, syms = graphs[weights]
    argv = ["score", "--fst", str(fst), "--syms", str(syms), "--text", str(text_path),
            "--weights", weights]
    if out_path is not None:
        code = main(argv + ["--out", str(out_path)])
        return code, out_path.read_bytes() if code == 0 else None
    with pytest.MonkeyPatch.context() as patch:
        stdout = io.StringIO()
        patch.setattr(sys, "stdout", stdout)
        code = main(argv)
    return code, stdout.getvalue()


def cut_points(text_path):
    with open(text_path, "rb") as text:
        return gboost.cli._split_points(text)


WORDS = ["wo", "de", "chaxun", "liuliang", "wifi", "huafei", "zzz", "流量", "é"]
SEPARATORS = [" ", "\t", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", " ", "\x85"]
TEXTS = st.lists(st.sampled_from(WORDS + SEPARATORS), max_size=80).map("".join)


@settings(max_examples=60, deadline=None)
@given(text=TEXTS, count=st.integers(2, 3), min_bytes=st.integers(1, 24),
       weights=st.sampled_from(WEIGHT_CONVENTIONS))
@example(text="wo de\r\nde\rwo\x0bde\x0cwo de\n", count=3, min_bytes=2, weights="cost")
@example(text="wo\n\n\nde\n\nwo de", count=3, min_bytes=3, weights="logprob")
# Each 6-byte line holds two 3-byte characters; with 7 bytes per process
# the even shares fall inside them.
@example(text="流量\n流量\n流量\n", count=3, min_bytes=7, weights="logprob")
# One line longer than a range: the first two shares both fall inside it,
# so two ranges are scored and the middle one has no line start.
@example(text="wo de " * 10 + "\nde\n", count=3, min_bytes=20, weights="cost")
def test_split_score_writes_the_serial_bytes(graphs, tmp_path_factory, text, count,
                                             min_bytes, weights):
    work = tmp_path_factory.mktemp("split")
    text_path = work / "s.txt"
    text_path.write_bytes(text.encode("utf-8"))
    with cpus(1) as forks:
        serial_out = score(graphs, weights, text_path, work / "serial.txt")
        serial_stdout = score(graphs, weights, text_path)
    assert forks == []
    assert serial_out[0] == serial_stdout[0] == 0
    assert serial_out[1] == serial_stdout[1].encode("utf-8")
    with cpus(count, min_bytes) as forks:
        cuts = cut_points(text_path)
        assert score(graphs, weights, text_path, work / "split.txt") == serial_out
        assert score(graphs, weights, text_path) == serial_stdout
    assert len(cuts) <= count + 1
    assert len(forks) == 2 * (len(cuts) - 2)
    assert sorted(p.name for p in work.iterdir()) == ["s.txt", "serial.txt", "split.txt"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cuts_fall_just_after_newlines(tmp_path):
    text = "wo de\nde\n" + "wo " * 40 + "\n" + "de\n" * 30
    (tmp_path / "s.txt").write_text(text, encoding="utf-8")
    data = text.encode("utf-8")
    with cpus(3, 1):
        cuts = cut_points(tmp_path / "s.txt")
    assert cuts[0] == 0 and cuts[-1] == len(data)
    assert cuts == sorted(set(cuts))
    assert all(data[cut - 1:cut] == b"\n" for cut in cuts[1:-1])
    assert len(cuts) == 4


@pytest.mark.parametrize("count, min_bytes", [(1, 1), (4, None)],
                         ids=["one-cpu", "below-min-bytes"])
def test_stays_serial(graphs, tmp_path, count, min_bytes):
    """One CPU, or less than two processes' worth of bytes: no fork."""
    text_path = tmp_path / "s.txt"
    size = 2 * gboost.cli._PARALLEL_MIN_BYTES - 1 if min_bytes is None else 4000
    lines = "wo de\n" * (size // 6)
    text_path.write_text(lines + "x" * (size - len(lines)), encoding="utf-8")
    assert text_path.stat().st_size == size
    with cpus(count, min_bytes or gboost.cli._PARALLEL_MIN_BYTES) as forks:
        code, out = score(graphs, "logprob", text_path)
    assert code == 0 and forks == []
    assert len(out.splitlines()) == size // 6 + 1


def test_fifo_stays_serial(graphs, tmp_path):
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes on this platform")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    pid = os.fork()
    if pid == 0:  # the writer
        try:
            with open(fifo, "wb") as pipe:
                pipe.write(b"wo de\n" * 100)
        finally:
            os._exit(0)
    try:
        with cpus(2, 1) as forks:
            code, out = score(graphs, "logprob", fifo)
    finally:
        os.waitpid(pid, 0)
    assert code == 0 and forks == []
    assert len(out.splitlines()) == 100


# -- failures -----------------------------------------------------------------

LINES = [f"{' '.join(['wo', 'de'] * (i % 3 + 1))}\n" for i in range(30)]


@pytest.fixture
def split_run(graphs, tmp_path, monkeypatch):
    """Runs score on ``data`` split three ways: (exit code or exception, stderr lines, cuts).

    Temp files go to a directory of their own, checked empty afterwards.
    """
    spool_dir = tmp_path / "tmp"
    spool_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
    text_path = tmp_path / "s.txt"

    def run(data, capsys):
        text_path.write_bytes(data)
        fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        with cpus(3, 8) as forks:
            cuts = cut_points(text_path)
            try:
                code, _ = score(graphs, "logprob", text_path, tmp_path / "scores.txt")
            except RuntimeError as exc:  # main raises what it has no exit code for
                code = exc
        assert len(cuts) == 4 and len(forks) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.txt", "tmp"]
        assert list(spool_dir.iterdir()) == []
        if fds is not None:
            assert set(os.listdir("/proc/self/fd")) == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return code, capsys.readouterr().err.splitlines(), cuts

    return run


def failing_at(monkeypatch, in_parent, action):
    """Makes graph_score run ``action(words)`` in the parent, or else in the workers."""
    parent = os.getpid()
    real = gboost.cli.graph_score

    def graph_score(g, words):
        if (os.getpid() == parent) == in_parent:
            action(words)
        return real(g, words)

    monkeypatch.setattr(gboost.cli, "graph_score", graph_score)


def invariant_error(words):
    raise InvariantError(f"broken at {' '.join(words)!r}")


@pytest.mark.parametrize("in_parent", [True, False], ids=["parent", "worker"])
def test_invariant_error_in_a_range(split_run, monkeypatch, capsys, in_parent):
    failing_at(monkeypatch, in_parent, invariant_error)
    code, err, cuts = split_run("".join(LINES).encode(), capsys)
    assert code == 3
    # The first failing range in file order: the first, or the first worker's.
    first = 0 if in_parent else cuts[1]
    failed = "".join(LINES).encode()[first:].split(b"\n", 1)[0].decode()
    assert err == [f"gboost: error: broken at {failed!r}"]


def test_parent_failure_kills_busy_workers(split_run, monkeypatch, capsys):
    """The parent's range fails while each worker would take a minute: no wait."""
    failing_at(monkeypatch, True, invariant_error)
    real = gboost.cli.graph_score
    slept = []  # a copy per worker

    def slow_in_workers(g, words):
        if os.getpid() != parent and not slept:
            slept.append(True)
            time.sleep(60)
        return real(g, words)

    parent = os.getpid()
    monkeypatch.setattr(gboost.cli, "graph_score", slow_in_workers)
    start = time.monotonic()
    code, err, _ = split_run("".join(LINES).encode(), capsys)
    assert time.monotonic() - start < 30
    assert code == 3 and len(err) == 1


def test_bad_bytes_in_a_worker_range(split_run, capsys):
    data = "".join(LINES).encode()
    code, err, cuts = split_run(data[:-3] + b"\xff\xfe\n", capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("gboost: input format error: 'utf-8' codec")


def test_worker_killed_by_a_signal(split_run, monkeypatch, capsys):
    failing_at(monkeypatch, False, lambda words: os.kill(os.getpid(), signal.SIGKILL))
    code, err, cuts = split_run("".join(LINES).encode(), capsys)
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith(f"gboost: error: score worker for bytes {cuts[1]}-{cuts[2]} ")
    assert err[0].endswith(f"was killed by signal {int(signal.SIGKILL)}")


def test_unexpected_worker_error_raises_with_its_traceback(split_run, monkeypatch, capsys):
    def crash(words):
        raise ZeroDivisionError("worker bug")

    failing_at(monkeypatch, False, crash)
    raised, err, cuts = split_run("".join(LINES).encode(), capsys)
    assert isinstance(raised, RuntimeError) and err == []
    message = str(raised)
    assert message.startswith(f"score worker for bytes {cuts[1]}-{cuts[2]} ")
    assert "Traceback" in message and message.endswith("ZeroDivisionError: worker bug\n")
