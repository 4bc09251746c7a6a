import io
import json
import math
import subprocess
import sys

import pytest

import gboost.evaluate
from gboost.arpa import oracle_score
from gboost.cli import main
from gboost.enhance import enhance, load_pairs_config
from gboost.fst import read_text, write_text

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
            assert float(score_text) == pytest.approx(expected, abs=1e-6)

    def test_no_path_sentence_prints_minus_inf(self, workdir, capsys):
        fst_path, syms_path = build(workdir)
        (workdir / "sents.txt").write_text("wo unknownword\n")
        code = run("score", "--fst", fst_path, "--syms", syms_path,
                   "--text", workdir / "sents.txt")
        assert code == 0
        assert capsys.readouterr().out.startswith("-inf\t")


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
        fst_path, syms_path = build(workdir)
        run("enhance", "--in-fst", fst_path, "--in-syms", syms_path,
            "--pairs", workdir / "pairs.json",
            "--out-fst", workdir / "g2.fst", "--out-syms", workdir / "w2.syms")
        # same steps in memory, starting from the same serialized baseline
        from gboost.fst import SymbolTable

        with open(syms_path) as handle:
            symbols = SymbolTable.read(handle)
        with open(fst_path) as handle:
            g = read_text(handle, symbols)
        enhance(g, load_pairs_config((workdir / "pairs.json").read_text()))
        buf = io.StringIO()
        write_text(g, buf)
        assert (workdir / "g2.fst").read_text() == buf.getvalue()


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
                            ("--chnum-list", "0,-1")]:
            code = run("eval", "--fst", fst_path, "--syms", syms_path,
                       "--cases", workdir / "cases.json", "--pairs", workdir / "pairs.json",
                       f"{flag}={value}", "--out", workdir / "sweepout")
            assert code == 1, (flag, value)
            assert flag in capsys.readouterr().err

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
