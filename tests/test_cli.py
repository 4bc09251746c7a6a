import contextlib
import dataclasses
import gc
import io
import json
import logging
import math
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gboost.cli
import gboost.evaluate
import gboost.fst
import oracles
import toylm
from gboost.arpa import oracle_score, parse_arpa
from gboost.cli import WEIGHT_CONVENTIONS, UsageError, main
from gboost.enhance import enhance, load_pairs_config
from gboost.errors import FormatError, InvariantError
from gboost.fst import SymbolTable, Wfst, load_graph, read_text, write_text
from gboost.graph import build_g

DEMOS = Path(__file__).resolve().parent.parent / "demos"

PAIRS = {
    "theta": 0.5,
    "max_predictors": 2,
    "groups": [
        {"predictors": ["liuliang", "taocan"], "targets": ["wifi"],
         "frequencies": {"liuliang": 54, "taocan": 41}, "new_words": ["wifi"]},
    ],
}

CASES = [
    {"reference": ["wo", "chaxun", "wifi"], "focus": [2],
     "competitors": [["wo", "chaxun", "huafei"], ["wo", "chaxun", "feiyong"]]},
    {"reference": ["wifi", "feiyong"], "focus": [0],
     "competitors": [["shouji", "feiyong"]]},
]


@pytest.fixture
def workdir(tmp_path, telecom_arpa):
    (tmp_path / "m.arpa").write_text(telecom_arpa)
    (tmp_path / "pairs.json").write_text(json.dumps(PAIRS))
    (tmp_path / "cases.json").write_text(json.dumps(CASES))
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def build(workdir, extra=()):
    code = run("build-g", "--arpa", workdir / "m.arpa",
               "--out-fst", workdir / "g.fst", "--out-syms", workdir / "w.syms",
               *extra)
    assert code == 0
    return workdir / "g.fst", workdir / "w.syms"


class TestBuildG:
    def test_happy_path_writes_both_files(self, workdir):
        fst_path, syms_path = build(workdir)
        assert fst_path.exists() and syms_path.exists()
        assert syms_path.read_text().splitlines()[0] == "<eps>\t0"
        companion = workdir / "g.fst.bin"
        first = companion.read_bytes()
        build(workdir)
        assert companion.read_bytes() == first  # as the text, the same bytes every run

    def test_missing_arpa_is_usage_error(self, workdir, capsys):
        code = run("build-g", "--arpa", workdir / "nope.arpa",
                   "--out-fst", workdir / "g.fst", "--out-syms", workdir / "w.syms")
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_arpa_is_format_error(self, workdir, capsys):
        (workdir / "bad.arpa").write_text("\\data\\\nngram 1=1\n\\1-grams:\njunk\n\\end\\\n")
        code = run("build-g", "--arpa", workdir / "bad.arpa",
                   "--out-fst", workdir / "g.fst", "--out-syms", workdir / "w.syms")
        assert code == 2
        assert "format" in capsys.readouterr().err

    def test_non_finite_logprob_is_format_error(self, workdir, capsys):
        (workdir / "nan.arpa").write_text(
            "\\data\\\nngram 1=3\n\n\\1-grams:\n-99\t<s>\nnan\ta\n-1\t</s>\n\n\\end\\\n")
        code = run("build-g", "--arpa", workdir / "nan.arpa",
                   "--out-fst", workdir / "g.fst", "--out-syms", workdir / "w.syms")
        assert code == 2
        assert "line 6" in capsys.readouterr().err

    def test_model_is_freed_before_the_graph_is_written(self, workdir, monkeypatch):
        models = []

        def parse(handle):
            model = parse_arpa(handle)
            models.append(weakref.ref(model))
            return model

        def write(fst, stream, negate=False):
            assert [ref() for ref in models] == [None]
            write_text(fst, stream, negate=negate)

        monkeypatch.setattr(gboost.cli, "parse_arpa", parse)
        monkeypatch.setattr(gboost.cli, "write_text", write)
        build(workdir)
        assert len(models) == 1

    def test_failed_graph_write_leaves_no_file(self, workdir, monkeypatch, capsys):
        """A write that fails mid-stream removes its temp file; no output appears."""

        def broken(model):
            fst = build_g(model)
            last = fst.num_states() - 1
            # An arc with a label the table lacks.
            return oracles.add_arcs(fst, (last, 0, 10_000, -1.0))

        monkeypatch.setattr(gboost.cli, "build_g", broken)
        code = run("build-g", "--arpa", workdir / "m.arpa",
                   "--out-fst", workdir / "g.fst", "--out-syms", workdir / "w.syms")
        assert code == 3
        assert "unknown label: 10000" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == ["cases.json", "m.arpa",
                                                             "pairs.json"]

    def test_graph_read_text_refuses_is_not_written(self, workdir, monkeypatch, capsys):
        """A graph whose file read_text would refuse leaves no file at all."""

        def sparse(model):
            # Ten states, one arc 0 -> 9: state 9 is at or above twice the
            # record count.
            return oracles.add_arcs(oracles.empty_graph(SymbolTable(["a"]), 10),
                                    (0, 9, 1, -1.0))

        monkeypatch.setattr(gboost.cli, "build_g", sparse)
        code = run("build-g", "--arpa", workdir / "m.arpa",
                   "--out-fst", workdir / "g.fst", "--out-syms", workdir / "w.syms")
        assert code == 3
        assert "twice the number of arcs and final states (1)" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == ["cases.json", "m.arpa",
                                                             "pairs.json"]


class TestScore:
    def test_non_finite_weight_is_format_error(self, workdir, capsys):
        fst_path, syms_path = build(workdir)
        text = fst_path.read_text()
        line = len(text.splitlines()) + 1
        (workdir / "s.txt").write_text("wo de\n")
        for record in ("1 nan", "1 inf", "1 -inf",
                       "0 1 wo wo nan", "0 1 wo wo inf", "0 1 wo wo -inf"):
            (workdir / "bad.fst").write_text(f"{text}{record}\n")
            code = run("score", "--fst", workdir / "bad.fst", "--syms", syms_path,
                       "--text", workdir / "s.txt", "--out", workdir / "scores.txt")
            assert code == 2, record
            assert f"line {line}" in capsys.readouterr().err, record

    def test_scores_match_oracle(self, workdir, telecom_model, capsys):
        fst_path, syms_path = build(workdir)
        sentences = ["wo chaxun liuliang", "huafei", ""]
        (workdir / "sents.txt").write_text("\n".join(sentences) + "\n")
        code = run("score", "--fst", fst_path, "--syms", syms_path,
                   "--text", workdir / "sents.txt")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for line, sentence in zip(lines, sentences):
            score_text, _, echoed = line.partition("\t")
            assert echoed == sentence
            expected = oracle_score(telecom_model, sentence.split())
            assert score_text == "%.9g" % expected  # 9 significant digits

    def test_no_path_sentence_prints_minus_inf(self, workdir, capsys):
        fst_path, syms_path = build(workdir)
        (workdir / "sents.txt").write_text("wo unknownword\n")
        code = run("score", "--fst", fst_path, "--syms", syms_path,
                   "--text", workdir / "sents.txt")
        assert code == 0
        assert capsys.readouterr().out.startswith("-inf\t")

    def test_unknown_word_scores_as_unk(self, workdir, capsys):
        (workdir / "unk.arpa").write_text(
            "\\data\\\nngram 1=4\nngram 2=1\n\n\\1-grams:\n-99\t<s>\n-0.5\ta\n"
            "-0.9\t</s>\n-1\t<unk>\n\n\\2-grams:\n-0.3\t<s> a\n\n\\end\\\n")
        assert run("build-g", "--arpa", workdir / "unk.arpa", "--out-fst", workdir / "u.fst",
                   "--out-syms", workdir / "u.syms") == 0
        (workdir / "sents.txt").write_text("a zzz\n")
        code = run("score", "--fst", workdir / "u.fst", "--syms", workdir / "u.syms",
                   "--text", workdir / "sents.txt")
        assert code == 0
        score_text, _, echoed = capsys.readouterr().out.rstrip("\n").partition("\t")
        model = parse_arpa(io.StringIO((workdir / "unk.arpa").read_text()))
        assert echoed == "a zzz"
        assert float(score_text) == pytest.approx(oracle_score(model, ["a", "zzz"]), abs=1e-6)


    def test_failure_mid_run_leaves_no_output(self, workdir, monkeypatch, capsys):
        """Scores stream into the temp file, which a failure removes."""
        fst_path, syms_path = build(workdir)
        (workdir / "sents.txt").write_text("wo\nde\nwo de\nde wo\n")
        argv = ["score", "--fst", fst_path, "--syms", syms_path,
                "--text", workdir / "sents.txt", "--out", workdir / "scores.txt"]
        assert run(*argv) == 0
        good = (workdir / "scores.txt").read_text()
        assert len(good.splitlines()) == 4
        (workdir / "scores.txt").unlink()
        real = gboost.cli.graph_score
        calls = []

        def failing(g, words):
            calls.append(words)
            if len(calls) == 3:
                raise InvariantError("broken graph")
            return real(g, words)

        monkeypatch.setattr(gboost.cli, "graph_score", failing)
        assert run(*argv) == 3
        assert "broken graph" in capsys.readouterr().err
        assert len(calls) == 3
        assert sorted(p.name for p in workdir.iterdir()) == [
            "cases.json", "g.fst", "g.fst.bin", "m.arpa", "pairs.json", "sents.txt", "w.syms"]

    def test_sentences_split_as_by_splitlines(self, workdir, capsys):
        """A sentence ends wherever str.splitlines would end it, not only at newlines."""
        fst_path, syms_path = build(workdir)
        text = "wo de\x0cde\r\nwo\u2028\n\nde wo"
        (workdir / "sents.txt").write_bytes(text.encode())
        assert run("score", "--fst", fst_path, "--syms", syms_path,
                   "--text", workdir / "sents.txt") == 0
        echoed = [line.partition("\t")[2] for line in capsys.readouterr().out.splitlines()]
        assert echoed == ["wo de", "de", "wo", "", "", "de wo"]


class TestEnhanceCommand:
    def test_happy_path(self, workdir):
        fst_path, syms_path = build(workdir)
        code = run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                   "--pairs", workdir / "pairs.json",
                   "--out-fst", workdir / "g2.fst", "--out-syms", workdir / "w2.syms",
                   "--diff", workdir / "delta.txt")
        assert code == 0
        assert "wifi" in (workdir / "w2.syms").read_text().split()
        diff_lines = (workdir / "delta.txt").read_text().splitlines()
        assert diff_lines and all(line.startswith(("+", "~")) for line in diff_lines)
        added = [line for line in diff_lines if line.startswith("+ ")]
        assert all(line.split()[3] == "wifi" for line in added)

    def test_added_arcs_settle_once_at_the_write(self, workdir, monkeypatch):
        """The input text is copied, never printed; the graph is materialized once, by
        write_companion, with every added arc."""
        fst_path, syms_path = build(workdir)
        merges = []
        real = {name: getattr(gboost.cli, name)
                for name in ("write_text", "append_text", "write_companion")}
        real_materialize = Wfst._materialize

        def marked(name):
            def call(*args, **kwargs):
                merges.append(name)
                return real[name](*args, **kwargs)
            return call

        def counting_materialize(fst):
            if fst._added:
                merges.append(len(fst._added))
            real_materialize(fst)

        for name in real:
            monkeypatch.setattr(gboost.cli, name, marked(name))
        monkeypatch.setattr(Wfst, "_materialize", counting_materialize)
        code = run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                   "--pairs", workdir / "pairs.json",
                   "--out-fst", workdir / "g2.fst", "--out-syms", workdir / "w2.syms",
                   "--diff", workdir / "delta.txt")
        assert code == 0
        added = [line for line in (workdir / "delta.txt").read_text().splitlines()
                 if line.startswith("+ ")]
        assert added and merges == ["append_text", "write_companion", len(added)]

    @pytest.mark.parametrize("weights", WEIGHT_CONVENTIONS)
    def test_each_added_arc_is_formatted_once(self, workdir, monkeypatch, weights):
        """Appended to the text and listed in --diff, from one format_arc call per arc."""
        conv = ["--weights", weights]
        fst_path, syms_path = build(workdir, conv)
        formatted = []
        real_format_arc = gboost.cli.format_arc

        def counting_format_arc(arc, *args, **kwargs):
            formatted.append(arc)
            return real_format_arc(arc, *args, **kwargs)

        monkeypatch.setattr(gboost.cli, "format_arc", counting_format_arc)
        assert run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                   "--pairs", workdir / "pairs.json", "--out-fst", workdir / "g2.fst",
                   "--out-syms", workdir / "w2.syms", "--diff", workdir / "delta.txt",
                   *conv) == 0
        enhanced, delta = enhanced_in_memory(workdir, fst_path, syms_path, weights)
        assert delta.added_arcs and formatted == delta.added_arcs
        lines = added_lines(delta, enhanced.symbols, weights)
        assert (workdir / "g2.fst").read_bytes() == fst_path.read_bytes() + lines.encode()
        assert (workdir / "delta.txt").read_text() == "".join(
            "+ " + line for line in lines.splitlines(keepends=True))

    @pytest.mark.parametrize("weights", WEIGHT_CONVENTIONS)
    def test_enhancing_its_own_output_changes_nothing(self, workdir, weights):
        """Idempotent through files: an empty second diff, and the first run's files."""
        conv = ["--weights", weights]
        fst_path, syms_path = build(workdir, conv)

        def enhance_files(in_fst, in_syms, name):
            assert run("enhance", "--in-fst", in_fst, "--in-syms", in_syms,
                       "--pairs", workdir / "pairs.json", "--out-fst", workdir / f"{name}.fst",
                       "--out-syms", workdir / f"{name}.syms",
                       "--diff", workdir / f"{name}.diff", *conv) == 0
            return {suffix: (workdir / (name + suffix)).read_bytes()
                    for suffix in (".fst", ".syms", ".fst.bin", ".diff")}

        once = enhance_files(fst_path, syms_path, "once")
        twice = enhance_files(workdir / "once.fst", workdir / "once.syms", "twice")
        assert once.pop(".diff") and twice.pop(".diff") == b""
        assert twice == once

    def test_unknown_predictor_is_invariant_error(self, workdir, capsys):
        fst_path, syms_path = build(workdir)
        bad = dict(PAIRS, groups=[{"predictors": ["nosuchword"], "targets": ["wifi"],
                                   "frequencies": {"nosuchword": 5},
                                   "new_words": ["wifi"]}])
        (workdir / "bad.json").write_text(json.dumps(bad))
        code = run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                   "--pairs", workdir / "bad.json",
                   "--out-fst", workdir / "g2.fst", "--out-syms", workdir / "w2.syms")
        assert code == 3
        assert "nosuchword" in capsys.readouterr().err
        assert not (workdir / "g2.fst").exists()

    # Ids: the role, then the word unless it is <eps>.
    @pytest.mark.parametrize("role, word", [
        (role, word) for word in ("<eps>", "<s>", "</s>") for role in ("predictor", "target")
    ], ids=["predictor", "target", "predictor-<s>", "target-<s>", "predictor-</s>",
            "target-</s>"])
    def test_epsilon_in_pairs_is_invariant_error(self, workdir, capsys, role, word):
        """Neither <eps> nor a sentence marker is a word: none takes a role."""
        fst_path, syms_path = build(workdir)
        group = {"predictors": ["liuliang"], "targets": ["wifi"],
                 "frequencies": {"liuliang": 54, word: 10}, "new_words": ["wifi"]}
        group[role + "s"] = [word]
        (workdir / "bad.json").write_text(json.dumps(dict(PAIRS, groups=[group])))
        code = run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                   "--pairs", workdir / "bad.json",
                   "--out-fst", workdir / "g2.fst", "--out-syms", workdir / "w2.syms")
        assert code == 3
        err = capsys.readouterr().err
        assert repr(word) in err and role in err
        assert not (workdir / "g2.fst").exists()

    def test_malformed_pairs_json_is_format_error(self, workdir):
        fst_path, syms_path = build(workdir)
        group = PAIRS["groups"][0]
        bad_groups = [
            dict(group, frequencies=["liuliang", 54]),
            dict(group, frequencies={"liuliang": "many", "taocan": 41}),
            dict(group, predictors=7),
            dict(group, targets="wifi"),
            dict(group, new_words=None),
            dict(group, predictors=["liuliang", 5]),
            dict(group, targets=[None]),
            dict(group, new_words=["wifi", 7]),
        ]
        bad_tops = [dict(PAIRS, max_predictors=2.7), dict(PAIRS, max_predictors="3"),
                    dict(PAIRS, max_predictors=True), dict(PAIRS, theta="0.5"),
                    dict(PAIRS, theta=False)]
        # json.dumps writes these as the literals NaN, Infinity and -Infinity.
        bad_tops += [dict(PAIRS, theta=v) for v in (math.nan, math.inf, -math.inf)]
        texts = ["{nope"] + [json.dumps(dict(PAIRS, groups=[g])) for g in bad_groups]
        texts += [json.dumps(top) for top in bad_tops]
        texts.append('{"theta": ' + "1" * 5000 + ', "max_predictors": 2, "groups": []}')
        for text in texts:
            (workdir / "broken.json").write_text(text)
            code = run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                       "--pairs", workdir / "broken.json",
                       "--out-fst", workdir / "g2.fst", "--out-syms", workdir / "w2.syms")
            assert code == 2, text

    def test_file_pipeline_matches_in_memory(self, workdir):
        """Under either convention, the output is the input's bytes plus one line per
        added arc, the --diff's ``+`` lines, and reads back as the graph enhanced in
        memory."""
        for weights in WEIGHT_CONVENTIONS:
            conv = ["--weights", weights]
            fst_path, syms_path = build(workdir, conv)
            assert run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                       "--pairs", workdir / "pairs.json", "--out-fst", workdir / "g2.fst",
                       "--out-syms", workdir / "w2.syms", "--diff", workdir / "delta.txt",
                       *conv) == 0
            # The same steps in memory, from the same serialized baseline.
            enhanced, delta = enhanced_in_memory(workdir, fst_path, syms_path, weights)
            assert delta.added_arcs and not delta.reweighted_arcs
            lines = added_lines(delta, enhanced.symbols, weights)
            assert (workdir / "g2.fst").read_bytes() == fst_path.read_bytes() + lines.encode()
            assert (workdir / "delta.txt").read_text() == "".join(
                "+ " + line for line in lines.splitlines(keepends=True))
            assert text_of_file(workdir / "g2.fst", enhanced.symbols, weights) == \
                text_of_graph(enhanced, weights)

    @pytest.mark.parametrize("layout", ["no-final-newline", "crlf", "blank-lines", "tabs"])
    def test_input_layout_is_copied_verbatim(self, workdir, layout):
        """Any layout read_text takes is copied byte for byte, and the output, and the
        companion written beside it, read back as the enhanced graph."""
        fst_path, syms_path = build(workdir)
        (workdir / "g.fst.bin").unlink()
        text = fst_path.read_bytes()
        text = {"no-final-newline": text.rstrip(b"\n"),
                "crlf": text.replace(b"\n", b"\r\n"),
                "blank-lines": text.replace(b"\n", b"\n\n  \n", 3) + b"\t\n",
                "tabs": text.replace(b" ", b"\t")}[layout]
        fst_path.write_bytes(text)
        assert run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                   "--pairs", workdir / "pairs.json", "--out-fst", workdir / "g2.fst",
                   "--out-syms", workdir / "w2.syms") == 0
        enhanced, delta = enhanced_in_memory(workdir, fst_path, syms_path, "logprob")
        newline = b"" if text.endswith(b"\n") else b"\n"
        lines = added_lines(delta, enhanced.symbols, "logprob").encode()
        assert (workdir / "g2.fst").read_bytes() == text + newline + lines
        assert text_of_file(workdir / "g2.fst", enhanced.symbols, "logprob") == \
            text_of_graph(enhanced, "logprob")
        companion, digest = gboost.fst._read_companion(str(workdir / "g2.fst"),
                                                       enhanced.symbols, False)
        with open(workdir / "g2.fst", encoding="utf-8") as handle:
            parsed = read_text(handle, enhanced.symbols)
        assert digest == gboost.fst._hash(text + newline + lines).digest()
        assert graph_contents(companion) == graph_contents(parsed)

    @pytest.mark.parametrize("weights", WEIGHT_CONVENTIONS)
    def test_a_raised_arc_prints_the_whole_graph(self, workdir, weights):
        """A run that raises an arc writes what write_text writes of the enhanced graph."""
        conv = ["--weights", weights]
        fst_path, syms_path = build(workdir, conv)
        assert run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                   "--pairs", workdir / "pairs.json", "--out-fst", workdir / "once.fst",
                   "--out-syms", workdir / "once.syms", *conv) == 0
        # A larger theta raises every arc the first run added.
        (workdir / "raise.json").write_text(json.dumps(dict(PAIRS, theta=2.0)))
        assert run("enhance", "--in-fst", workdir / "once.fst", "--in-syms",
                   workdir / "once.syms", "--pairs", workdir / "raise.json",
                   "--out-fst", workdir / "g2.fst", "--out-syms", workdir / "w2.syms",
                   *conv) == 0
        enhanced, delta = enhanced_in_memory(workdir, workdir / "once.fst",
                                             workdir / "once.syms", weights, "raise.json")
        assert delta.reweighted_arcs and not delta.added_arcs
        assert (workdir / "g2.fst").read_text() == text_of_graph(enhanced, weights)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_input_prints_the_whole_graph(self, workdir):
        """A text that cannot be read a second time is not copied: the graph is printed."""
        fst_path, syms_path = build(workdir)
        pipe = workdir / "pipe.fst"
        os.mkfifo(pipe)
        done = threading.Event()
        # A second open of the pipe would wait for a writer forever: after
        # 30 s, one that writes nothing ends the wait, and the run fails.
        threads = [threading.Thread(target=pipe.write_bytes, args=(fst_path.read_bytes(),)),
                   threading.Thread(target=lambda: done.wait(30) or pipe.write_bytes(b""))]
        for thread in threads:
            thread.daemon = True
            thread.start()
        try:
            code = run("enhance", "--in-fst", pipe, "--in-syms", syms_path,
                       "--pairs", workdir / "pairs.json", "--out-fst", workdir / "g2.fst",
                       "--out-syms", workdir / "w2.syms")
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=10)
        assert code == 0 and not any(thread.is_alive() for thread in threads)
        enhanced, delta = enhanced_in_memory(workdir, fst_path, syms_path, "logprob")
        assert delta.added_arcs and not delta.reweighted_arcs
        assert (workdir / "g2.fst").read_text() == text_of_graph(enhanced, "logprob")

    def test_a_text_edited_after_the_load_exits_3_and_writes_nothing(self, workdir,
                                                                     monkeypatch, capsys):
        fst_path, syms_path = build(workdir)
        real_enhance = gboost.cli.enhance

        def editing_enhance(fst, config):
            with open(fst_path, "a") as handle:
                handle.write("\n")  # the same graph, in other bytes
            return real_enhance(fst, config)

        monkeypatch.setattr(gboost.cli, "enhance", editing_enhance)
        before = sorted(workdir.iterdir())
        assert run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                   "--pairs", workdir / "pairs.json", "--out-fst", workdir / "g2.fst",
                   "--out-syms", workdir / "w2.syms", "--diff", workdir / "delta.txt") == 3
        assert "changed after the graph was read" in capsys.readouterr().err
        assert sorted(workdir.iterdir()) == before


def enhanced_in_memory(workdir, fst_path, syms_path, weights, pairs="pairs.json"):
    """The enhanced graph and diff of read_text's graph of a file, computed in memory."""
    with open(syms_path, encoding="utf-8") as handle:
        symbols = SymbolTable.read(handle)
    with open(fst_path, encoding="utf-8") as handle:
        g = read_text(handle, symbols, negate=weights == "cost")
    return enhance(g, load_pairs_config((workdir / pairs).read_text()))


def added_lines(delta, symbols, weights):
    """Graph text lines of a diff's added arcs, formatted here, apart from gboost."""
    sign = -1.0 if weights == "cost" else 1.0
    return "".join(f"{a.source} {a.target} {symbols.symbol(a.label)} "
                   f"{symbols.symbol(a.label)} {'%.17g' % (sign * a.weight)}\n"
                   for a in delta.added_arcs)


def text_of_graph(fst, weights):
    buf = io.StringIO()
    write_text(fst, buf, negate=weights == "cost")
    return buf.getvalue()


def text_of_file(path, symbols, weights):
    """write_text's text of the graph read_text reads from a file."""
    with open(path, encoding="utf-8") as handle:
        return text_of_graph(read_text(handle, symbols, negate=weights == "cost"), weights)


def graph_contents(fst):
    """A loaded graph's columns, initial state and finals, in order, weights bit for bit."""
    columns = fst._columns
    return (columns.offsets.tolist(), columns.targets.tolist(), columns.labels.tolist(),
            columns.weights.tobytes(), fst.initial,
            [(state, weight.hex()) for state, weight in fst.finals.items()])


class TestCompanion:
    SENTENCES = "wo chaxun liuliang\nwifi feiyong\nhuafei de taocan\n\nshouji wifi\n"

    def outputs(self, workdir, conv):
        """enhance, score, a 2x2 eval sweep and diff-fst: their output files, by name."""
        out = workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        fst, syms = workdir / "g.fst", workdir / "w.syms"
        for argv in (
                ["enhance", "--in-fst", fst, "--in-syms", syms, "--pairs", workdir / "pairs.json",
                 "--out-fst", out / "enh.fst", "--out-syms", out / "enh.syms",
                 "--diff", out / "enh.diff"],
                ["score", "--fst", fst, "--syms", syms, "--text", workdir / "s.txt",
                 "--out", out / "scores.txt"],
                ["eval", "--fst", fst, "--syms", syms, "--cases", workdir / "cases.json",
                 "--pairs", workdir / "pairs.json", "--theta-list=-1,2", "--chnum-list=1,2",
                 "--out", out / "eval"],
                ["diff-fst", fst, workdir / "enh.fst", "--syms", workdir / "enh.syms",
                 "--out", out / "fst.diff"]):
            assert run(*argv, *conv) == 0
        return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    def sources(self, caplog):
        """Where each graph load since the last call came from."""
        sources = [r.getMessage().split(" from ", 1)[1].rsplit(": ", 1)[0]
                   for r in caplog.records if r.getMessage().startswith("read ")]
        caplog.clear()
        return sources

    def test_a_text_put_in_place_after_the_rename_reads_as_stale(self, workdir, caplog,
                                                                   monkeypatch):
        """The companion holds the digest of the bytes build-g wrote, not of whatever
        the path holds once they are renamed onto it: another writer's text that lands
        there just after the rename is read from the text, not served as build-g's graph."""
        fst_path = workdir / "g.fst"
        real_replace = os.replace

        def replace_then_overwrite(source, target):
            real_replace(source, target)
            if Path(target) == fst_path:  # another text lands on the graph file at once
                first, *rest = fst_path.read_text().splitlines(keepends=True)
                fields = first.split()
                fields[-1] = "-7"
                fst_path.write_text(" ".join(fields) + "\n" + "".join(rest))

        monkeypatch.setattr(os, "replace", replace_then_overwrite)
        _, syms_path = build(workdir)
        monkeypatch.setattr(os, "replace", real_replace)
        symbols = SymbolTable.read(io.StringIO(syms_path.read_text()))
        caplog.set_level(logging.INFO, logger="gboost.fst")
        loaded, _ = load_graph(str(fst_path), symbols)
        assert self.sources(caplog) == ["text (companion stale)"]
        with open(fst_path, encoding="utf-8") as handle:
            parsed = read_text(handle, symbols)
        assert graph_contents(loaded) == graph_contents(parsed)
        assert -7.0 in parsed._columns.weights

    @pytest.mark.parametrize("weights", WEIGHT_CONVENTIONS)
    def test_outputs_do_not_depend_on_the_companion(self, workdir, caplog, weights):
        """Present, deleted or stale, a companion changes no output byte: not even
        enhance's, whose text copies its input's."""
        caplog.set_level(logging.INFO, logger="gboost.fst")
        conv = ["--weights", weights]
        fst_path, syms_path = build(workdir, conv)
        (workdir / "s.txt").write_text(self.SENTENCES)
        assert run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                   "--pairs", workdir / "pairs.json", "--out-fst", workdir / "enh.fst",
                   "--out-syms", workdir / "enh.syms", *conv) == 0
        caplog.clear()
        present = self.outputs(workdir, conv)
        assert {"enh.fst", "enh.syms", "enh.fst.bin", "enh.diff"} <= present.keys()
        assert self.sources(caplog) == ["companion"] * 5
        for name in ("g.fst.bin", "enh.fst.bin"):
            (workdir / name).unlink()
        assert self.outputs(workdir, conv) == present
        assert self.sources(caplog) == ["text (companion missing)"] * 5

        # Rewrite the base graph and its companion, then edit the text in
        # place: every arc out of the start state loses 0.5.
        build(workdir, conv)
        lines = fst_path.read_text().splitlines()
        start = lines[0].split()[0]
        for i, line in enumerate(lines):
            fields = line.split()
            if fields[0] == start and len(fields) == 5:
                fields[4] = repr(float(fields[4]) - 0.5)
                lines[i] = " ".join(fields)
        fst_path.write_text("\n".join(lines) + "\n")
        caplog.clear()
        stale = self.outputs(workdir, conv)
        assert self.sources(caplog) == ["text (companion stale)"] * 4 + [
            "text (companion missing)"]
        for name in ("enh.fst", "enh.fst.bin", "scores.txt", "fst.diff"):
            assert stale[name] != present[name], name
        (workdir / "g.fst.bin").unlink()
        assert self.outputs(workdir, conv) == stale

    def test_the_companion_holds_the_digest_of_the_written_text(self, workdir, caplog):
        """Printed by write_text or copied by append_text, the text's digest is the
        file's, and the next load takes the companion."""
        caplog.set_level(logging.INFO, logger="gboost.fst")
        fst_path, syms_path = build(workdir)
        assert run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                   "--pairs", workdir / "pairs.json", "--out-fst", workdir / "copied.fst",
                   "--out-syms", workdir / "copied.syms") == 0
        # A larger theta raises every arc the first run added: a printed graph.
        (workdir / "raise.json").write_text(json.dumps(dict(PAIRS, theta=2.0)))
        assert run("enhance", "--in-fst", workdir / "copied.fst", "--in-syms",
                   workdir / "copied.syms", "--pairs", workdir / "raise.json",
                   "--out-fst", workdir / "printed.fst", "--out-syms",
                   workdir / "printed.syms") == 0
        for name in ("g", "copied", "printed"):
            path = str(workdir / f"{name}.fst")
            syms = syms_path if name == "g" else workdir / f"{name}.syms"
            header = Path(path + gboost.fst.COMPANION_SUFFIX).read_bytes()
            assert gboost.fst._HEADER.unpack_from(header)[-1] == gboost.fst._file_digest(path)
            caplog.clear()
            gboost.cli._load_graph(path, syms, False)
            assert self.sources(caplog) == ["companion"]

    def test_a_text_digest_that_raises_falls_back_to_the_text(self, workdir, caplog,
                                                              monkeypatch):
        """An error hashing the text, on the loader's helper thread, turns the companion
        away as corrupt: the text is parsed, with the same output and exit code."""
        caplog.set_level(logging.INFO, logger="gboost.fst")
        fst_path, syms_path = build(workdir)
        (workdir / "s.txt").write_text(self.SENTENCES)
        argv = ["score", "--fst", fst_path, "--syms", syms_path, "--text", workdir / "s.txt"]
        assert run(*argv, "--out", workdir / "want.txt") == 0
        assert self.sources(caplog) == ["companion"]

        def unreadable(path):
            raise OSError("the text cannot be read")

        monkeypatch.setattr(gboost.fst, "_file_digest", unreadable)
        threads = threading.active_count()
        assert run(*argv, "--out", workdir / "got.txt") == 0
        assert threading.active_count() == threads
        assert self.sources(caplog) == ["text (companion corrupt: the text cannot be read)"]
        assert (workdir / "got.txt").read_bytes() == (workdir / "want.txt").read_bytes()

    def test_a_version_2_companion_gives_way_to_version_3(self, workdir, caplog):
        """A version-2 companion (it had an output-label column) is not used: the
        graph loads from its text, enhance writes a version-3 companion, and the
        next load reads that."""
        caplog.set_level(logging.INFO, logger="gboost.fst")
        fst_path, syms_path = build(workdir)
        companion = workdir / "g.fst.bin"
        data = bytearray(companion.read_bytes())
        assert data[:8] == b"gboostG\x03"
        data[:8] = b"gboostG\x02"
        companion.write_bytes(data)
        out = workdir / "enh.fst"
        caplog.clear()
        assert run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                   "--pairs", workdir / "pairs.json", "--out-fst", out,
                   "--out-syms", workdir / "enh.syms") == 0
        assert self.sources(caplog) == ["text (companion corrupt: not a graph companion)"]
        assert (workdir / "enh.fst.bin").read_bytes()[:8] == b"gboostG\x03"
        (workdir / "s.txt").write_text(self.SENTENCES)
        assert run("score", "--fst", out, "--syms", workdir / "enh.syms",
                   "--text", workdir / "s.txt", "--out", workdir / "scores.txt") == 0
        assert self.sources(caplog) == ["companion"]

    def test_each_graph_load_and_write_logs_one_line(self, workdir, caplog):
        caplog.set_level(logging.INFO, logger="gboost")
        fst_path, syms_path = build(workdir)
        assert run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                   "--pairs", workdir / "pairs.json", "--out-fst", workdir / "enh.fst",
                   "--out-syms", workdir / "enh.syms") == 0
        assert run("diff-fst", fst_path, workdir / "enh.fst",
                   "--syms", workdir / "enh.syms", "--out", workdir / "fst.diff") == 0
        (workdir / "g.fst.bin").unlink()
        (workdir / "s.txt").write_text(self.SENTENCES)
        assert run("score", "--fst", fst_path, "--syms", syms_path,
                   "--text", workdir / "s.txt", "--out", workdir / "scores.txt") == 0
        lines = [r.getMessage() for r in caplog.records
                 if r.name in ("gboost.cli", "gboost.fst")]

        def shape(fst, syms):
            with open(fst) as graph, open(syms) as table:
                fst = read_text(graph, SymbolTable.read(table))
            return f"{fst.num_states()} states, {fst.num_arcs()} arcs in "

        g, enh = str(fst_path), str(workdir / "enh.fst")
        base, enhanced = shape(g, syms_path), shape(enh, workdir / "enh.syms")
        expected = [
            f"wrote {g} and its companion: {base}",
            f"read {g} from companion: {base}",
            f"wrote {enh} and its companion: {enhanced}",
            f"read {g} from companion: {base}",  # with the enhanced, larger, table
            f"read {enh} from companion: {enhanced}",
            f"read {g} from text (companion missing): {base}",
        ]
        added = int(enhanced.split()[2]) - int(base.split()[2])
        assert len(lines) == len(expected)
        seconds = r"(\d+\.\d{3}) s"
        for line, start in zip(lines, expected):
            assert line.startswith(start), line
            if line.startswith("read "):
                assert re.search(f" in {seconds}$", line), line
                continue
            # A write splits its seconds into text, symbols and companion,
            # and says when enhance copied its input's text.
            copied = (f": {re.escape(g)} copied plus {added} lines appended"
                      if line.startswith(f"wrote {enh} ") else "")
            match = re.search(f" in {seconds} \\(text {seconds}{copied}, symbols {seconds}, "
                              f"companion {seconds}\\)$", line)
            assert match, line
            total, *parts = map(float, match.groups())
            assert abs(sum(parts) - total) <= 0.0025, line


class TestEvalCommand:
    def test_baseline_report(self, workdir):
        fst_path, syms_path = build(workdir)
        code = run("eval", "--fst", fst_path, "--syms", syms_path,
                   "--cases", workdir / "cases.json", "--out", workdir / "out")
        assert code == 0
        report = json.loads((workdir / "out" / "report.json").read_text())
        assert report["error_rate"] == 100.0
        assert "proxy" in report["metric"]
        assert (workdir / "out" / "report.tsv").exists()

    def test_sweep_outputs_grid_and_cells(self, workdir):
        fst_path, syms_path = build(workdir)
        code = run("eval", "--fst", fst_path, "--syms", syms_path,
                   "--cases", workdir / "cases.json", "--pairs", workdir / "pairs.json",
                   "--theta-list=-2,0,2", "--chnum-list", "1,2",
                   "--out", workdir / "sweepout")
        assert code == 0
        grid = (workdir / "sweepout" / "grid.tsv").read_text()
        assert grid.splitlines()[1] == "theta\\chnum\t1\t2"
        assert len(grid.splitlines()) == 5
        cells = sorted(p.name for p in (workdir / "sweepout").glob("cell_*.json"))
        assert len(cells) == 6
        cell = json.loads((workdir / "sweepout" / "cell_theta2_chnum2.json").read_text())
        assert cell["num_cases"] == 2

    def test_malformed_sweep_list_is_usage_error(self, workdir, capsys):
        fst_path, syms_path = build(workdir)
        for flag, value in [("--theta-list", "abc"), ("--theta-list", "1,,3"),
                            ("--chnum-list", "1.5"), ("--chnum-list", "1,,3"),
                            ("--chnum-list", "abc"), ("--theta-list", "nan,inf"),
                            ("--chnum-list", "0,-1"), ("--theta-list", "-3,-3.0000001")]:
            code = run("eval", "--fst", fst_path, "--syms", syms_path,
                       "--cases", workdir / "cases.json", "--pairs", workdir / "pairs.json",
                       f"{flag}={value}", "--out", workdir / "sweepout")
            assert code == 1, (flag, value)
            err = capsys.readouterr().err
            assert flag in err
        assert "-3.0 and -3.0000001" in err
        assert not (workdir / "sweepout").exists()

    def test_repeated_sweep_values_run_once(self, workdir, monkeypatch):
        calls = []

        def counting_enhance(fst, config):
            calls.append((config.theta, config.max_predictors))
            return enhance(fst, config)

        monkeypatch.setattr(gboost.evaluate, "enhance", counting_enhance)
        fst_path, syms_path = build(workdir)
        code = run("eval", "--fst", fst_path, "--syms", syms_path,
                   "--cases", workdir / "cases.json", "--pairs", workdir / "pairs.json",
                   "--theta-list=0,0", "--chnum-list=1,1", "--out", workdir / "sweepout")
        assert code == 0
        assert calls == [(0.0, 1)]
        grid = (workdir / "sweepout" / "grid.tsv").read_text().splitlines()
        header, row = grid[1:]
        assert header == "theta\\chnum\t1"
        assert row.split("\t")[0] == "0" and len(row.split("\t")) == 2
        cells = [p.name for p in (workdir / "sweepout").glob("cell_*.json")]
        assert cells == ["cell_theta0_chnum1.json"]

    def test_repeated_chnum_scans_once(self, workdir, scans):
        fst_path, syms_path = build(workdir)
        code = run("eval", "--fst", fst_path, "--syms", syms_path,
                   "--cases", workdir / "cases.json", "--pairs", workdir / "pairs.json",
                   "--theta-list=-1,1", "--chnum-list=1,1", "--out", workdir / "sweepout")
        assert code == 0
        assert len(scans) == 1
        cells = sorted(p.name for p in (workdir / "sweepout").glob("cell_*.json"))
        assert cells == ["cell_theta-1_chnum1.json", "cell_theta1_chnum1.json"]

    def test_sweep_lists_without_pairs_are_usage_errors(self, workdir, capsys):
        fst_path, syms_path = build(workdir)
        (workdir / "empty.fst").write_text("")  # loading it would be a format error
        for flags in (["--theta-list=1,2", "--chnum-list=3"], ["--theta-list=1,2"],
                      ["--chnum-list=3"]):
            for fst in (fst_path, workdir / "empty.fst"):
                code = run("eval", "--fst", fst, "--syms", syms_path,
                           "--cases", workdir / "cases.json", *flags,
                           "--out", workdir / "out")
                assert code == 1, (flags, fst)
                err = capsys.readouterr().err
                assert "--theta-list" in err and "--chnum-list" in err and "--pairs" in err
        assert not (workdir / "out").exists()


    def test_verbose_logs_one_line_per_enhancement(self, workdir):
        fst_path, syms_path = build(workdir)
        src = str(Path(gboost.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def enhance_lines(*flags):
            proc = subprocess.run(
                [sys.executable, "-m", "gboost.cli", *flags, "eval", "--fst", str(fst_path),
                 "--syms", str(syms_path), "--cases", str(workdir / "cases.json"),
                 "--pairs", str(workdir / "pairs.json"), "--theta-list=0,1",
                 "--chnum-list=2", "--out", str(workdir / "sweepout")],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            return [line for line in proc.stderr.splitlines() if "enhance:" in line]

        with syms_path.open() as syms, fst_path.open() as text:
            fst = read_text(text, SymbolTable.read(syms))
        expected = []
        for theta, plan in ((0.0, "built"), (1.0, "reused")):
            config = dataclasses.replace(load_pairs_config(json.dumps(PAIRS)), theta=theta)
            delta, overshoot = oracles.enhance_by_candidate(fst, config)
            expected.append(f"gboost: INFO: enhance: theta {theta:g}, 2 predictors: "
                            f"{len(delta.added_arcs)} arcs added, 0 raised, {overshoot} "
                            f"candidates overshoot; plan {plan}")
        assert enhance_lines("-v") == expected
        assert enhance_lines() == []


class TestDiffFst:
    def test_identical_graphs_produce_empty_diff(self, workdir, capsys):
        fst_path, syms_path = build(workdir)
        code = run("diff-fst", fst_path, fst_path, "--syms", syms_path)
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_enhanced_graph_diff_lists_added_arcs(self, workdir, capsys):
        fst_path, syms_path = build(workdir)
        run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
            "--pairs", workdir / "pairs.json",
            "--out-fst", workdir / "g2.fst", "--out-syms", workdir / "w2.syms")
        code = run("diff-fst", fst_path, workdir / "g2.fst",
                   "--syms", workdir / "w2.syms")
        assert code == 0
        out = capsys.readouterr().out
        assert out and all(line.startswith("+ ") for line in out.splitlines())

    @pytest.mark.parametrize("weights", WEIGHT_CONVENTIONS)
    def test_removed_arcs_and_final_changes_are_listed(self, tmp_path, capsys, weights):
        """The toy graph with final state 0, against it with an arc gone and 89's final changed."""
        conv = ["--weights", weights]
        code = run("build-g", "--arpa", DEMOS / "toy.arpa", "--out-fst", tmp_path / "g.fst",
                   "--out-syms", tmp_path / "w.syms", *conv)
        assert code == 0
        lines = (tmp_path / "g.fst").read_text().splitlines(keepends=True)
        arc, = (line for line in lines if line.startswith("1 14 kaitong kaitong "))
        final = lines.index("89 0\n" if weights == "logprob" else "89 -0\n")
        (tmp_path / "before.fst").write_text("".join(lines) + "0 -0.5\n")
        lines[final] = "89 1.5\n"
        lines.remove(arc)
        (tmp_path / "after.fst").write_text("".join(lines))
        code = run("diff-fst", tmp_path / "before.fst", tmp_path / "after.fst",
                   "--syms", tmp_path / "w.syms", *conv)
        assert code == 0
        sign = "-" if weights == "logprob" else ""
        assert capsys.readouterr().out == (f"- 1 14 kaitong kaitong {sign}3.5755508409750605\n"
                                           "f 0 -\nf 89 1.5\n")


class TestWeightConventions:
    def test_cost_files_negate_weights(self, workdir):
        fst_path, syms_path = build(workdir)
        cost_fst = workdir / "gcost.fst"
        code = run("build-g", "--arpa", workdir / "m.arpa", "--out-fst", cost_fst,
                   "--out-syms", workdir / "w.syms", "--weights", "cost")
        assert code == 0
        logprob_first = fst_path.read_text().splitlines()[0].split()
        cost_first = cost_fst.read_text().splitlines()[0].split()
        assert float(cost_first[4]) == pytest.approx(-float(logprob_first[4]))

    def test_cost_scores_are_negated(self, workdir, capsys):
        fst_path, syms_path = build(workdir)
        (workdir / "sents.txt").write_text("wo de\n")
        run("score", "--fst", fst_path, "--syms", syms_path,
            "--text", workdir / "sents.txt")
        logprob_out = float(capsys.readouterr().out.split("\t")[0])

        cost_fst = workdir / "gcost.fst"
        run("build-g", "--arpa", workdir / "m.arpa", "--out-fst", cost_fst,
            "--out-syms", workdir / "wc.syms", "--weights", "cost")
        code = run("score", "--fst", cost_fst, "--syms", workdir / "wc.syms",
                   "--text", workdir / "sents.txt", "--weights", "cost")
        assert code == 0
        cost_out = float(capsys.readouterr().out.split("\t")[0])
        assert cost_out == pytest.approx(-logprob_out, abs=1e-9)

    def test_env_var_sets_default(self, workdir, monkeypatch):
        monkeypatch.setenv("GBOOST_WEIGHTS", "cost")
        cost_fst = workdir / "genv.fst"
        code = run("build-g", "--arpa", workdir / "m.arpa", "--out-fst", cost_fst,
                   "--out-syms", workdir / "w.syms")
        assert code == 0
        first_weight = float(cost_fst.read_text().splitlines()[0].split()[4])
        assert first_weight > 0  # log probabilities came out negated

    def test_bad_env_value_is_usage_error(self, workdir, monkeypatch, capsys):
        monkeypatch.setenv("GBOOST_WEIGHTS", "bogus")
        code = run("build-g", "--arpa", workdir / "m.arpa",
                   "--out-fst", workdir / "g.fst", "--out-syms", workdir / "w.syms")
        assert code == 1
        assert "bogus" in capsys.readouterr().err


class TestEncoding:
    # Non-ASCII words in every input: the model, pairs, cases and sentences.
    WORDS = {"liuliang": "流量", "wifi": "wifi网络"}

    def localise(self, text):
        for word, replacement in self.WORDS.items():
            text = text.replace(word, replacement)
        return text

    def run_all(self, workdir, out, env=None):
        """build-g, enhance, score (from the graph text) and eval, in a fresh process."""
        out.mkdir()
        fst, syms = out / "g.fst", out / "g.syms"
        commands = [
            ["build-g", "--arpa", workdir / "m.arpa", "--out-fst", fst, "--out-syms", syms],
            ["enhance", "--in-fst", fst, "--in-syms", syms, "--pairs", workdir / "pairs.json",
             "--out-fst", out / "enh.fst", "--out-syms", out / "enh.syms",
             "--diff", out / "enhance.diff"],
            ["score", "--fst", fst, "--syms", syms, "--text", workdir / "s.txt",
             "--out", out / "scores.txt"],
            ["eval", "--fst", out / "enh.fst", "--syms", out / "enh.syms",
             "--cases", workdir / "cases.json", "--out", out / "eval"],
        ]
        for argv in commands:
            if argv[0] == "score":
                (out / "g.fst.bin").unlink()  # so the graph text is read
            proc = subprocess.run([sys.executable, "-m", "gboost.cli", *map(str, argv)],
                                  env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr
        return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    def test_files_are_utf8_under_any_locale(self, workdir, telecom_arpa):
        """Every text file is read and written as UTF-8, whatever the locale's encoding."""
        (workdir / "m.arpa").write_text(self.localise(telecom_arpa), encoding="utf-8")
        for name in ("pairs.json", "cases.json"):
            path = workdir / name
            path.write_text(self.localise(path.read_text(encoding="utf-8")), encoding="utf-8")
        (workdir / "s.txt").write_text("wo 流量\nwifi网络 de\n", encoding="utf-8")
        src = str(Path(gboost.cli.__file__).parents[1])
        path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
        utf8 = dict(os.environ, PYTHONPATH=path, PYTHONUTF8="1")
        # The C locale, without the coercion to C.UTF-8 and UTF-8 mode that
        # Python would otherwise switch on for it.
        ascii_env = dict(os.environ, PYTHONPATH=path, LC_ALL="C", LANG="C",
                         PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        ascii_env.pop("PYTHONIOENCODING", None)
        probe = subprocess.run(
            [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
            env=ascii_env, capture_output=True, text=True, check=True)
        if probe.stdout.strip().lower().replace("-", "") == "utf8":
            pytest.skip("the C locale's encoding is UTF-8 here")
        expected = self.run_all(workdir, workdir / "utf8", utf8)
        assert "流量" in expected["scores.txt"].decode("utf-8")
        assert self.run_all(workdir, workdir / "ascii", ascii_env) == expected


def pairs_json(group, **config):
    """PAIRS as JSON text, its one group updated by ``group`` and its own keys by ``config``."""
    return json.dumps(dict(PAIRS, groups=[dict(PAIRS["groups"][0], **group)], **config))


class TestMalformedInputs:
    # Each command line reads one malformed file, BAD; the other names are
    # good inputs from the workdir.
    BUILD = ["build-g", "--arpa", "BAD", "--out-fst", "OUT.fst", "--out-syms", "OUT.syms"]
    SCORE = ["score", "--text", "TEXT"]
    ENHANCE = ["enhance", "--in-fst", "FST", "--in-syms", "SYMS", "--pairs", "BAD",
               "--out-fst", "OUT.fst", "--out-syms", "OUT.syms"]
    PAIRS = ('{"theta": 0, "max_predictors": 1, "groups": [{"predictors": ["wo"], '
             '"targets": [%s], "new_words": [%s], "frequencies": {"wo": 5}}]}')

    @pytest.mark.parametrize("text, argv", [
        ("\\data\\\nngram 0=0\n\\end\\\n", BUILD),
        ("\\data\\\nngram 3000000=0\n\\end\\\n", BUILD),
        ("\\data\\\nngram 99999999999999999999=0\n\\end\\\n", BUILD),
        ("0 1 wo wo\n", SCORE + ["--fst", "BAD", "--syms", "SYMS"]),
        ("<eps>\t0\nwo\tx\n", SCORE + ["--fst", "FST", "--syms", "BAD"]),
        ("<eps>\t0\nwo\t3000000000\n", SCORE + ["--fst", "FST", "--syms", "BAD"]),
        ('{"theta": "high", "max_predictors": 1, "groups": []}', ENHANCE),
        (PAIRS % ('"new word"', '"new word"'), ENHANCE),
        (PAIRS % ('""', '""'), ENHANCE),
        ('[{"reference": "wo", "focus": [0], "competitors": []}]',
         ["eval", "--fst", "FST", "--syms", "SYMS", "--cases", "BAD", "--out", "OUT"]),
        (b"\\data\\\n\xff\n", BUILD),
        (b"wo de\n\xff\xfe\n", SCORE[:2] + ["BAD", "--fst", "FST", "--syms", "SYMS",
                                          "--out", "OUT.txt"]),
        (b"<eps>\t0\nwo\xff\t1\n", SCORE + ["--fst", "FST", "--syms", "BAD",
                                           "--out", "OUT.txt"]),
        ("\\data\\\nngram 1=2\n\n\\1-grams:\n-99\t<s>\n-0.5\two\n\n\\end\\\n", BUILD),
        ("\\data\\\nngram 1=3\nngram 2=1\n\n\\1-grams:\n-99\t<s>\t-0.5\n-0.5\ta\n"
         "-0.9\t</s>\n\n\\2-grams:\n-0.3\ta b\n\n\\end\\\n", BUILD),
        ("[" * 200000, ENHANCE),
        ("[" * 200000,
         ["eval", "--fst", "FST", "--syms", "SYMS", "--cases", "BAD", "--out", "OUT"]),
    ], ids=["arpa-order-zero", "arpa-order-huge", "arpa-order-20-digits", "fst-text",
            "symbols", "symbols-label-beyond-int", "pairs", "pairs-word-with-space",
            "pairs-empty-word", "cases", "arpa-not-utf8", "sentences-not-utf8",
            "symbols-not-utf8", "arpa-without-eos", "arpa-predicted-word-without-unigram",
            "pairs-nested-too-deep", "cases-nested-too-deep"])
    def test_one_error_line_and_exit_two(self, workdir, capsys, text, argv):
        fst_path, syms_path = build(workdir)
        (workdir / "bad").write_bytes(text if isinstance(text, bytes) else text.encode())
        (workdir / "sents.txt").write_text("wo de\n")
        names = {"BAD": workdir / "bad", "FST": fst_path, "SYMS": syms_path,
                 "TEXT": workdir / "sents.txt", "OUT": workdir / "out",
                 "OUT.fst": workdir / "out.fst", "OUT.syms": workdir / "out.syms",
                 "OUT.txt": workdir / "out.txt"}
        code = run(*[names.get(arg, arg) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("gboost: input format error:")
        assert "Traceback" not in err
        assert not any(workdir.glob("*out*"))  # nor a temp file beside an output

    # A bigram model whose <s> unigram, on line 6, has the back-off field %s.
    ARPA_BACKOFF = ("\\data\\\nngram 1=3\nngram 2=1\n\n\\1-grams:\n-99\t<s>\t%s\n"
                    "-0.5\ta\n-0.9\t</s>\n\n\\2-grams:\n-0.3\t<s> a\n\n\\end\\\n")

    # Trigram models whose values are each finite but sum to -inf in one
    # compiled arc: the arc of "a b c", whose skipped history "b c" adds its
    # back-off, and the back-off arc of "a b", whose skipped history "b"
    # adds its own.
    ARPA_TRIGRAM = ("\\data\\\nngram 1=5\nngram 2=%d\nngram 3=1\n\n\\1-grams:\n-99\t<s>\n"
                    "-0.5\ta\n%s\n-0.5\tc\n-0.9\t</s>\n\n\\2-grams:\n%s\n\n\\3-grams:\n"
                    "%s\ta b c\n\n\\end\\\n")
    ARPA_WORD_ARC_OVERFLOW = ARPA_TRIGRAM % (2, "-0.5\tb", "-0.3\ta b\n-0.3\tb c\t-7e307",
                                             "-7e307")
    ARPA_BACKOFF_ARC_OVERFLOW = ARPA_TRIGRAM % (1, "-0.5\tb\t-7e307", "-0.3\ta b\t-7e307",
                                                "-0.3")

    @pytest.mark.parametrize("text, argv, code, fault", [
        (ARPA_BACKOFF % "abc", BUILD, 2, "line 6: bad back-off weight in '-99\\t<s>\\tabc'"),
        (ARPA_BACKOFF % "inf", BUILD, 2, "line 6: non-finite back-off for '<s>'"),
        (ARPA_BACKOFF % "nan", BUILD, 2, "line 6: non-finite back-off for '<s>'"),
        (pairs_json({"predictors": []}), ENHANCE, 3,
         "similar-pair group has no predictor words"),
        (pairs_json({"targets": []}), ENHANCE, 3, "similar-pair group has no target words"),
        (pairs_json({}, max_predictors=0), ENHANCE, 3, "max_predictors must be >= 1, got 0"),
        (pairs_json({}, theta=10 ** 400), ENHANCE, 2,
         "pairs config 'theta' is out of range: 1000"),
        ('{"theta": 0, "max_predictors": 1, "groups": [1]}', ENHANCE, 2,
         "group 0 must be a JSON object"),
        (ARPA_WORD_ARC_OVERFLOW, BUILD, 3,
         "weight of the arc for n-gram 'a b c' must be finite, got -inf"),
        (ARPA_BACKOFF_ARC_OVERFLOW, BUILD, 3,
         "weight of the back-off arc of history 'a b' must be finite, got -inf"),
    ], ids=["arpa-backoff-not-a-number", "arpa-backoff-inf", "arpa-backoff-nan",
            "pairs-no-predictors", "pairs-no-targets", "pairs-max-predictors-zero",
            "pairs-theta-400-digits", "pairs-group-not-an-object",
            "arpa-word-arc-overflows", "arpa-back-off-arc-overflows"])
    def test_one_error_line_names_the_fault(self, workdir, capsys, text, argv, code, fault):
        """Bad input exits 2 and a broken invariant 3, each with one line naming the fault."""
        fst_path, syms_path = build(workdir)
        (workdir / "bad").write_text(text)
        names = {"BAD": workdir / "bad", "FST": fst_path, "SYMS": syms_path,
                 "OUT.fst": workdir / "out.fst", "OUT.syms": workdir / "out.syms"}
        assert run(*[names.get(arg, arg) for arg in argv]) == code
        err = capsys.readouterr().err
        kind = "input format error" if code == 2 else "error"
        assert len(err.splitlines()) == 1 and err.startswith(f"gboost: {kind}: ")
        assert fault in err
        assert not any(workdir.glob("*out*"))  # nor a temp file beside an output

    @pytest.mark.parametrize("command", ["score", "enhance"])
    def test_an_arc_with_two_symbols_exits_two(self, workdir, capsys, command):
        """A graph is an acceptor: an arc line whose symbols differ is refused at its line."""
        fst_path, syms_path = build(workdir)
        first, *rest = fst_path.read_text().splitlines(keepends=True)
        bad = workdir / "bad.fst"
        bad.write_text(first + "0 1 wo de -1\n" + "".join(rest))
        (workdir / "sents.txt").write_text("wo de\n")
        argv = {"score": ["score", "--fst", bad, "--syms", syms_path,
                          "--text", workdir / "sents.txt", "--out", workdir / "out.txt"],
                "enhance": ["enhance", "--in-fst", bad, "--in-syms", syms_path,
                            "--pairs", workdir / "pairs.json", "--out-fst", workdir / "out.fst",
                            "--out-syms", workdir / "out.syms", "--diff", workdir / "out.diff"]}
        assert run(*argv[command]) == 2
        err = capsys.readouterr().err
        assert err == ("gboost: input format error: line 2: not an acceptor arc: output "
                       "symbol 'de' differs from input symbol 'wo'\n")
        assert not any(workdir.glob("*out*"))  # nor a temp file beside an output


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("raised, code", [
        (None, 0), (UsageError("u"), 1), (OSError("o"), 1), (FormatError("f"), 2),
        (InvariantError("i"), 3), (RuntimeError("r"), None),
    ], ids=["ok", "usage", "os", "format", "invariant", "uncaught"])
    def test_command_runs_paused_and_restores_state(self, monkeypatch, capsys,
                                                    enabled, raised, code):
        seen = []

        def command(args):
            seen.append(gc.isenabled())
            if raised is not None:
                raise raised
            return 0

        monkeypatch.setattr(gboost.cli, "_cmd_score", command)
        argv = ["score", "--fst", "g.fst", "--syms", "g.syms", "--text", "t.txt"]
        (gc.enable if enabled else gc.disable)()
        try:
            if code is None:
                with pytest.raises(RuntimeError):
                    main(argv)
            else:
                assert main(argv) == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen == [False]

    def test_cyclic_garbage_does_not_grow_with_input(self, workdir):
        """A command leaves the same cyclic garbage for small and large inputs.

        Commands run with the collector paused, so a per-sentence or
        per-case reference cycle would pile up until the command ends.
        """
        fst_path, syms_path = build(workdir)
        rng = random.Random(5)
        words = toylm.TELECOM_WORDS + ["wifi"]
        sentences = [" ".join(rng.choices(words, k=rng.randint(1, 8))) for _ in range(500)]

        def score(n):
            (workdir / "s.txt").write_text("\n".join(sentences[:n]) + "\n")
            return ["score", "--fst", fst_path, "--syms", syms_path,
                    "--text", workdir / "s.txt", "--out", workdir / "scores.txt"]

        def evaluate(n):
            (workdir / "c.json").write_text(json.dumps((CASES * n)[:n]))
            return ["eval", "--fst", fst_path, "--syms", syms_path,
                    "--cases", workdir / "c.json", "--pairs", workdir / "pairs.json",
                    "--theta-list=-1,1", "--chnum-list=1,2", "--out", workdir / "out"]

        def garbage(argv):
            gc.collect()
            gc.disable()
            try:
                assert run(*argv) == 0
                return gc.collect()
            finally:
                gc.enable()

        for command, small, large in ((score, 50, 500), (evaluate, 2, 20)):
            garbage(command(small))  # warm: lazy imports and caches
            assert garbage(command(small)) == garbage(command(large)), command.__name__


def test_each_call_logs_at_its_own_verbosity(monkeypatch, caplog):
    """-v applies to the call it is given, before or after a quiet one, in one process.

    Each call, failing or not, leaves the root logger's level as it found it.
    """
    def command(args):
        logging.getLogger("gboost.probe").info("ran")
        if args.text == "fail":
            raise FormatError("f")
        return 0

    monkeypatch.setattr(gboost.cli, "_cmd_score", command)
    root = logging.getLogger()
    level = root.level
    try:
        for verbose, text in ((False, "t.txt"), (True, "t.txt"), (False, "t.txt"),
                              (True, "fail"), (False, "fail")):
            caplog.clear()
            main(["-v"] * verbose + ["score", "--fst", "g.fst", "--syms", "g.syms",
                                     "--text", text])
            ran = [r.getMessage() for r in caplog.records if r.name == "gboost.probe"]
            assert ran == (["ran"] if verbose else []), (verbose, text)
            assert root.level == level
    finally:
        root.setLevel(level)


class TestUsage:
    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as info:
            main(["build-g", "--arpa", "x.arpa"])
        assert info.value.code == 1

    def test_console_script_is_installed(self):
        proc = subprocess.run([sys.executable, "-m", "gboost.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "build-g" in proc.stdout


def test_importing_the_cli_leaves_openssl_unloaded():
    """The companion digests use the interpreter's own BLAKE2b: hashlib, which loads
    OpenSSL and its 3.5 MB, is never imported."""
    src = str(Path(gboost.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = "import sys, gboost.cli; print(sorted({'hashlib', '_hashlib'} & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_outputs_get_the_mode_open_would_give(workdir, umask):
    """Each command's output files have the mode of a file open(path, "w") creates."""
    inputs = {path.name for path in workdir.iterdir()}
    original = os.umask(umask)
    try:
        fst_path, syms_path = build(workdir)
        (workdir / "s.txt").write_text("wo de\nwifi\n")
        for argv in (
                ["enhance", "--in-fst", fst_path, "--in-syms", syms_path,
                 "--pairs", workdir / "pairs.json", "--out-fst", workdir / "g2.fst",
                 "--out-syms", workdir / "w2.syms", "--diff", workdir / "delta.txt"],
                ["score", "--fst", fst_path, "--syms", syms_path, "--text", workdir / "s.txt",
                 "--out", workdir / "scores.txt"],
                ["eval", "--fst", fst_path, "--syms", syms_path, "--cases",
                 workdir / "cases.json", "--pairs", workdir / "pairs.json", "--out",
                 workdir / "eval"],
                ["diff-fst", fst_path, workdir / "g2.fst", "--syms", workdir / "w2.syms",
                 "--out", workdir / "fst.diff"]):
            assert run(*argv) == 0, argv
        with open(workdir / "reference", "w"):
            pass
    finally:
        os.umask(original)
    want = stat.S_IMODE((workdir / "reference").stat().st_mode)
    assert want == 0o666 & ~umask
    outputs = {path.relative_to(workdir).as_posix(): stat.S_IMODE(path.stat().st_mode)
               for path in workdir.rglob("*")
               if path.is_file() and path.name not in inputs | {"s.txt", "reference"}}
    assert {"g.fst", "g.fst.bin", "w.syms", "g2.fst", "g2.fst.bin", "w2.syms", "delta.txt",
            "scores.txt", "eval/grid.tsv", "fst.diff"} <= outputs.keys()
    assert outputs == dict.fromkeys(outputs, want)


# -- every command under byte-level fuzzing -------------------------------------
#
# One toy input at a time has a few of its bytes flipped, inserted or
# deleted, and the command that reads it runs in this process. The graph
# companion is fuzzed both raw and resealed, its trailing payload digest made
# right again, so that its other checks are reached as well.

FUZZ_OUT = ["OUT.fst", "OUT.syms", "OUT.diff", "OUT.txt", "OUT"]
FUZZ_COMMANDS = {
    "m.arpa": ["build-g", "--arpa", "m.arpa", "--out-fst", "OUT.fst", "--out-syms", "OUT.syms"],
    "g.fst": ["score", "--fst", "g.fst", "--syms", "w.syms", "--text", "s.txt",
              "--out", "OUT.txt"],
    "w.syms": ["enhance", "--in-fst", "g.fst", "--in-syms", "w.syms", "--pairs", "pairs.json",
               "--out-fst", "OUT.fst", "--out-syms", "OUT.syms", "--diff", "OUT.diff"],
    "pairs.json": ["enhance", "--in-fst", "g.fst", "--in-syms", "w.syms", "--pairs",
                   "pairs.json", "--out-fst", "OUT.fst", "--out-syms", "OUT.syms"],
    "cases.json": ["eval", "--fst", "g.fst", "--syms", "w.syms", "--cases", "cases.json",
                   "--pairs", "pairs.json", "--chnum-list", "1,2", "--out", "OUT"],
    "g.fst.bin": ["diff-fst", "g.fst", "g.fst", "--syms", "w.syms", "--out", "OUT.diff"],
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory, telecom_arpa):
    """The bytes of every toy input, by file name: the graph built from the toy model."""
    work = tmp_path_factory.mktemp("fuzz")
    (work / "m.arpa").write_text(telecom_arpa)
    (work / "pairs.json").write_text(json.dumps(PAIRS))
    (work / "cases.json").write_text(json.dumps(CASES))
    (work / "s.txt").write_text("wo chaxun liuliang\nwifi feiyong\n")
    assert run("build-g", "--arpa", work / "m.arpa", "--out-fst", work / "g.fst",
               "--out-syms", work / "w.syms") == 0
    return {path.name: path.read_bytes() for path in work.iterdir()}


def mutate(data, draw):
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3), label="mutations")):
        at = draw(st.integers(0, len(data)), label="offset")
        kind = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        if kind == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif kind == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            del data[at:]
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FUZZ_COMMANDS) + ["g.fst.bin resealed"]), st.data())
def test_mutated_inputs_end_in_a_documented_exit(fuzz_inputs, target, data):
    """Exit 0, 2 or 3; a failure prints one stderr line, no traceback, and leaves no file."""
    name, _, reseal = target.partition(" ")
    damaged = mutate(fuzz_inputs[name], data.draw)
    if reseal:
        body = damaged[:-32]
        damaged = body + gboost.fst._hash(body).digest()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for file_name, content in fuzz_inputs.items():
            (work / file_name).write_bytes(damaged if file_name == name else content)
        before = sorted(work.iterdir())
        argv = [str(work / arg) if (work / arg).exists() or arg in FUZZ_OUT else arg
                for arg in FUZZ_COMMANDS[name]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        files = sorted(path for path in work.rglob("*") if path.is_file())
    assert code in (0, 2, 3), (target, code, err)
    assert not any(path.name.startswith(".") for path in files), files  # no temp file
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("gboost: "), err
        assert files == before
