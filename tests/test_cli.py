import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moraldrift
from moraldrift import load_diachronic
from moraldrift.cli import _HANDLERS, build_parser, dispatch

from conftest import WORLD_DECADES, write_text


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_args(files):
    return ["--manifest", str(files.manifest), "--mfd", str(files.mfd),
            "--norms", str(files.norms)]


class TestDispatchBasics:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, )
        assert code == 1

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "error" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "--bogus")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "classify", "--help")[0] == 0

    def test_missing_file_is_data_error(self, capsys, world_files):
        code, _, err = run(capsys, "classify", "--manifest", "no_such.csv",
                           "--mfd", str(world_files.mfd),
                           "--norms", str(world_files.norms),
                           "--word", "riser", "--tier", "polarity")
        assert code == 2
        assert "no_such.csv" in err

    @pytest.mark.parametrize("command", ["align", "matrix"])
    def test_out_of_memory_is_one_line_and_exit_2(self, capsys, monkeypatch, world_files,
                                                  tmp_path, command):
        def exhausted(args):
            raise MemoryError
        monkeypatch.setitem(_HANDLERS, command, exhausted)
        inputs = (["--manifest", str(world_files.manifest)] if command == "align" else
                  [*data_args(world_files), "--wordlist", str(world_files.wordlist)])
        out = tmp_path / "out"
        code, stdout, err = run(capsys, command, *inputs, "--out-dir", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"moraldrift: error: out of memory in {command}\n"
        assert not out.exists()

    def test_missing_required_option_is_data_error(self, capsys, world_files):
        code, _, err = run(capsys, "classify", *data_args(world_files),
                           "--tier", "polarity")
        assert code == 2
        assert "--word" in err


class TestClassify:
    def test_posterior_on_stdout(self, capsys, world_files):
        code, out, _ = run(capsys, "classify", *data_args(world_files),
                           "--word", "alwayspos", "--tier", "polarity",
                           "--decade", "1950")
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == "alwayspos"
        assert payload["decade"] == 1950
        probs = payload["posterior"]
        assert set(probs) == {"positive", "negative"}
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
        assert probs["positive"] > 0.5
        assert payload["_meta"]["tool"] == "moraldrift"
        assert payload["_meta"]["config_hash"]

    def test_decade_defaults_to_latest(self, capsys, world_files):
        code, out, _ = run(capsys, "classify", *data_args(world_files),
                           "--word", "alwayspos", "--tier", "relevance")
        assert code == 0
        assert json.loads(out)["decade"] == 1950

    def test_unknown_word_is_data_error(self, capsys, world_files):
        code, _, err = run(capsys, "classify", *data_args(world_files),
                           "--word", "qqqq", "--tier", "polarity")
        assert code == 2
        assert "qqqq" in err

    def test_category_tier(self, capsys, world_files):
        code, out, _ = run(capsys, "classify", *data_args(world_files),
                           "--word", "care0", "--tier", "category",
                           "--model", "knn", "--k", "3")
        assert code == 0
        probs = json.loads(out)["posterior"]
        assert len(probs) == 10
        assert max(probs, key=probs.get) == "care+"


class TestConfigFile:
    def test_options_from_config(self, capsys, world_files, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"manifest={world_files.manifest}\n"
            f"mfd={world_files.mfd}\n"
            f"norms={world_files.norms}\n"
            "word=alwayspos\n"
            "tier=polarity\n")
        code, out, _ = run(capsys, "classify", "--config", str(config))
        assert code == 0
        assert json.loads(out)["tier"] == "polarity"

    def test_flag_overrides_config(self, capsys, world_files, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"manifest={world_files.manifest}\n"
            f"mfd={world_files.mfd}\n"
            f"norms={world_files.norms}\n"
            "word=alwayspos\n"
            "tier=polarity\n")
        code, out, _ = run(capsys, "classify", "--config", str(config),
                           "--tier", "relevance")
        assert code == 0
        assert json.loads(out)["tier"] == "relevance"

    def test_bad_config_value_is_data_error(self, capsys, world_files, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("tier=bogus\nword=riser\n")
        code, _, err = run(capsys, "classify", *data_args(world_files),
                           "--config", str(config))
        assert code == 2
        assert "tier" in err

    def test_unknown_config_key_is_data_error(self, capsys, world_files, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# kde settings\nbandwith=0.3\n")
        code, _, err = run(capsys, "classify", *data_args(world_files),
                           "--word", "riser", "--tier", "relevance",
                           "--config", str(config))
        assert code == 2
        assert "bandwith" in err
        assert f"{config}:2" in err

    def test_config_value_matches_flag(self, capsys, world_files, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("model=naive-bayes\nvariance_floor=0.01\nk=7\n")
        args = [*data_args(world_files), "--word", "riser", "--tier", "relevance"]
        from_config = run(capsys, "classify", *args, "--config", str(config))[1]
        from_flags = run(capsys, "classify", *args, "--model", "naive-bayes",
                         "--variance-floor", "0.01", "--k", "7")[1]
        assert json.loads(from_config) == json.loads(from_flags)

    def test_regression_commands_take_no_embedding_options(self, capsys, changer_files):
        code, _, err = run(capsys, "regress", "--matrix", str(changer_files.matrix),
                           "--norms", str(changer_files.norms),
                           "--wordlist", str(changer_files.wordlist),
                           "--manifest", "manifest.csv")
        assert code == 1
        assert "--manifest" in err

    def test_boolean_from_config(self, capsys, world_files, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("normalize-embeddings=true\n")
        plain = run(capsys, "classify", *data_args(world_files),
                    "--word", "riser", "--tier", "relevance")[1]
        normed = run(capsys, "classify", *data_args(world_files),
                     "--word", "riser", "--tier", "relevance",
                     "--config", str(config))[1]
        assert json.loads(plain)["posterior"] != json.loads(normed)["posterior"]

    def test_config_not_utf8_names_file_and_line(self, capsys, world_files, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"tier=polarity\n# caf\xe9\n")
        code, _, err = run(capsys, "classify", *data_args(world_files),
                           "--word", "riser", "--config", str(config))
        assert code == 2
        assert f"{config}:2: not valid UTF-8 (invalid continuation byte)" in err

    def test_bad_boolean_value_rejected(self, capsys, world_files, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("normalize-embeddings=maybe\n")
        code, _, err = run(capsys, "classify", *data_args(world_files),
                           "--word", "riser", "--tier", "relevance",
                           "--config", str(config))
        assert code == 2
        assert "boolean" in err


class TestEvaluate:
    def test_single_decade_report(self, capsys, world_files, tmp_path):
        code, _, _ = run(capsys, "evaluate", *data_args(world_files),
                         "--tier", "polarity", "--model", "centroid",
                         "--decade", "1900", "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "evaluate_polarity_centroid.json").read_text())
        assert "accuracy" in payload
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["n"] == 30
        assert payload["_meta"]["version"]

    def test_historical_report(self, capsys, world_files, tmp_path):
        code, _, _ = run(capsys, "evaluate", *data_args(world_files),
                         "--tier", "relevance", "--historical",
                         "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads(
            (tmp_path / "evaluate_relevance_centroid_historical.json").read_text())
        assert len(payload["per_decade"]) == 6
        assert "mean_accuracy" in payload and "stdev_accuracy" in payload
        lines = (tmp_path / "evaluate_relevance_centroid_historical.csv") \
            .read_text().splitlines()
        assert lines[1] == "tier,model,decade,accuracy,n"
        assert len(lines) == 2 + 6


class TestTimecourse:
    def test_binary_course_with_log_odds(self, capsys, world_files, tmp_path):
        code, _, _ = run(capsys, "timecourse", *data_args(world_files),
                         "--word", "riser", "--tier", "relevance",
                         "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "timecourse_riser_relevance.json").read_text())
        assert payload["decades"] == [1900, 1910, 1920, 1930, 1940, 1950]
        assert len(payload["scores"]) == 6
        assert len(payload["log_odds"]) == 6
        assert payload["scores"][-1] > payload["scores"][0]
        lines = (tmp_path / "timecourse_riser_relevance.csv").read_text().splitlines()
        assert lines[1] == "decade,score,log_odds"
        assert len(lines) == 2 + 6

    def test_category_course(self, capsys, world_files, tmp_path):
        code, _, _ = run(capsys, "timecourse", *data_args(world_files),
                         "--word", "gapword", "--tier", "category",
                         "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "timecourse_gapword_category.json").read_text())
        assert payload["missing"][:3] == [True, True, True]
        assert payload["scores"][0] is None
        assert len(payload["scores"][3]) == 10
        assert payload["class_labels"][2] == "fairness+"


@pytest.fixture(scope="module")
def matrix_dir(world_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("matrix_out")
    code = dispatch(["matrix", *data_args(world_files),
                     "--wordlist", str(world_files.wordlist),
                     "--kind", "relevance", "--out-dir", str(out)])
    assert code == 0
    return out


class TestMatrixAndRetrieve:
    def test_matrix_outputs(self, world_files, matrix_dir):
        payload = json.loads((matrix_dir / "matrix_relevance.json").read_text())
        assert payload["kind"] == "relevance"
        assert len(payload["words"]) == 101
        assert len(payload["values"]) == 101
        # gapword's early decades export as nulls
        gap_row = payload["values"][payload["words"].index("gapword")]
        assert gap_row[0] is None and gap_row[-1] is not None

        lines = (matrix_dir / "matrix_relevance.csv").read_text().splitlines()
        assert lines[0].startswith("# tool=moraldrift")
        assert lines[1] == "word,decade,score"
        assert len(lines) == 2 + 101 * 6

    def test_retrieve_riser_first(self, capsys, world_files, matrix_dir, tmp_path):
        code, _, _ = run(capsys, "retrieve", *data_args(world_files),
                         "--matrix", str(matrix_dir / "matrix_relevance.json"),
                         "--direction", "toward-relevance", "--top", "5",
                         "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "retrieve_toward-relevance.csv").read_text().splitlines()
        assert lines[1] == ("word,slope,p_raw,p_bonferroni,mean_relevance,"
                            "switching_decade,early_category,modern_category")
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 5
        assert rows[0][0] == "riser"
        assert rows[0][6] == "care+"

    @pytest.mark.parametrize("kind,direction,error", [
        ("polarity", "toward-negative",
         "the relevance filter needs a relevance matrix, got kind 'polarity'"),
        ("relevance", "toward-relevance",
         "direction toward-relevance takes no separate relevance matrix"),
    ])
    def test_retrieve_refuses_relevance_filter(self, capsys, world_files, matrix_dir,
                                               tmp_path, kind, direction, error):
        payload = json.loads((matrix_dir / "matrix_relevance.json").read_text())
        matrix = tmp_path / f"matrix_{kind}.json"
        matrix.write_text(json.dumps({**payload, "kind": kind}))
        out = tmp_path / "out"
        code, _, err = run(capsys, "retrieve", *data_args(world_files),
                           "--matrix", str(matrix), "--relevance-matrix", str(matrix),
                           "--direction", direction, "--out-dir", str(out))
        assert code == 2
        assert error in err
        assert not out.exists()


class TestCorrelationCommands:
    def test_valence_corr(self, capsys, world_files, tmp_path):
        code, _, _ = run(capsys, "valence-corr", *data_args(world_files),
                         "--decade", "1950", "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "valence_corr.json").read_text())
        assert -1.0 <= payload["r"] <= 1.0
        assert payload["n"] >= 3

    def test_survey_corr(self, capsys, world_files, tmp_path):
        code, _, _ = run(capsys, "survey-corr", *data_args(world_files),
                         "--survey", str(world_files.survey),
                         "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "survey_corr.json").read_text())
        assert payload["irrelevance"]["n"] == 8
        assert payload["acceptability"]["n"] == 8


class TestModelParameters:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("model, option, message", [
        ("kde", "bandwidth", "bandwidth h must be finite and positive, got inf"),
        ("naive-bayes", "variance-floor", "variance_floor must be finite and positive, got inf"),
    ])
    def test_infinite_parameter_is_data_error(self, capsys, world_files, tmp_path,
                                              source, model, option, message):
        if source == "flag":
            given = [f"--{option}", "inf"]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{option}=inf\n")
            given = ["--config", str(config)]
        code, stdout, err = run(capsys, "classify", *data_args(world_files),
                                "--word", "riser", "--tier", "polarity",
                                "--model", model, *given)
        assert (code, stdout) == (2, "")
        assert err == f"moraldrift: error: {message}\n"

    @pytest.mark.parametrize("command", [
        ["classify", "--word", "riser", "--tier", "relevance"],
        ["evaluate", "--tier", "category"],
        ["matrix", "--kind", "relevance"],
    ])
    def test_bandwidth_without_kernel_mass_is_data_error(self, capsys, world_files,
                                                         tmp_path, command):
        # h=1e-310 sends every -|x - w|^2 / 2h to -inf. Warnings are errors
        # under pytest, so exit 2 with this message also means none was given.
        wordlist = ["--wordlist", str(world_files.wordlist)] if command[0] == "matrix" else []
        code, stdout, err = run(capsys, *command, *data_args(world_files), *wordlist,
                                "--model", "kde", "--bandwidth", "1e-310",
                                "--out-dir", str(tmp_path))
        assert (code, stdout) == (2, "")
        assert err.startswith("moraldrift: error: KDE bandwidth h=1e-310 leaves ")
        assert err.endswith(" with no kernel mass in any class; use a larger h\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["classify", "--word", "riser", "--tier", "relevance"],
        ["evaluate", "--tier", "category"],
        ["matrix", "--kind", "relevance"],
    ])
    def test_bandwidth_with_infinite_2h_is_refused(self, capsys, world_files, tmp_path,
                                                   command):
        # 2h = inf would give -inf/inf = NaN on the masked LOO diagonal.
        # Warnings are errors under pytest, so none was given either.
        wordlist = ["--wordlist", str(world_files.wordlist)] if command[0] == "matrix" else []
        code, stdout, err = run(capsys, *command, *data_args(world_files), *wordlist,
                                "--model", "kde", "--bandwidth", "1e308",
                                "--out-dir", str(tmp_path))
        assert (code, stdout) == (2, "")
        assert err == ("moraldrift: error: bandwidth h must be at most 8.98847e+307, "
                       "so that 2h is finite, got 1e+308\n")
        assert list(tmp_path.iterdir()) == []


class TestRegressAndPermute:
    def test_regress(self, capsys, changer_files, tmp_path):
        code, _, _ = run(capsys, "regress",
                         "--matrix", str(changer_files.matrix),
                         "--norms", str(changer_files.norms),
                         "--wordlist", str(changer_files.wordlist),
                         "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "regress.json").read_text())
        fit = payload["fit"]
        assert set(fit["coefficients"]) == {"intercept", "frequency",
                                            "length", "concreteness"}
        assert fit["n"] == len(payload["words"])
        assert "partial_concreteness" in payload
        lines = (tmp_path / "regress.csv").read_text().splitlines()
        assert lines[1] == "factor,coefficient,std_error,t_stat,p_value"
        assert len(lines) == 2 + 4

    def test_permute_deterministic(self, capsys, changer_files, tmp_path):
        args = ["permute", "--matrix", str(changer_files.matrix),
                "--norms", str(changer_files.norms),
                "--wordlist", str(changer_files.wordlist),
                "--shuffles", "20", "--seed", "3",
                "--out-dir", str(tmp_path)]
        assert dispatch(args) == 0
        first = (tmp_path / "permute.json").read_bytes()
        assert dispatch(args) == 0
        second = (tmp_path / "permute.json").read_bytes()
        assert first == second
        payload = json.loads(first)
        assert payload["n_shuffles"] == 20
        assert set(payload["factors"]) == {"frequency", "length", "concreteness"}
        capsys.readouterr()

    def test_regress_refuses_infinite_frequency_by_file(self, capsys, changer_files,
                                                         tmp_path):
        wordlist = tmp_path / "wordlist.csv"
        lines = changer_files.wordlist.read_text().splitlines()
        word = lines[2].split(",")[0]
        lines[2] = f"{word},inf"
        wordlist.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "regress", "--matrix", str(changer_files.matrix),
                           "--norms", str(changer_files.norms),
                           "--wordlist", str(wordlist), "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"{wordlist}:3: non-finite frequency 'inf'" in err
        assert not (tmp_path / "out").exists()

    def test_regress_refuses_overlong_norms_cell_by_line(self, capsys, changer_files,
                                                          tmp_path):
        norms = tmp_path / "big.csv"
        lines = changer_files.norms.read_text().splitlines()
        lines.insert(3, f"{'x' * 140_000},5.0,3.0")
        norms.write_text("\n".join(lines) + "\n")
        code, stdout, err = run(capsys, "regress", "--matrix", str(changer_files.matrix),
                                "--norms", str(norms), "--wordlist",
                                str(changer_files.wordlist), "--out-dir", str(tmp_path / "out"))
        assert (code, stdout) == (2, "")
        assert err == (f"moraldrift: error: {norms}:4: field larger than field limit "
                       f"(131072)\n")
        assert not (tmp_path / "out").exists()

    def test_regress_refuses_overflowing_score_by_file(self, capsys, changer_files,
                                                       tmp_path):
        bad = tmp_path / "matrix.json"
        payload = json.loads(changer_files.matrix.read_text())
        payload["values"][0][0] = 10 ** 400
        bad.write_text(json.dumps(payload))
        code, stdout, err = run(capsys, "regress", "--matrix", str(bad),
                                "--norms", str(changer_files.norms),
                                "--wordlist", str(changer_files.wordlist),
                                "--out-dir", str(tmp_path / "out"))
        assert (code, stdout) == (2, "")
        assert err == (f"moraldrift: error: {bad}: malformed prediction-matrix JSON: "
                       f"int too large to convert to float\n")
        assert not (tmp_path / "out").exists()

    def test_permute_rejects_polarity_matrix(self, capsys, changer_files, tmp_path):
        bad = tmp_path / "polarity.json"
        payload = json.loads(changer_files.matrix.read_text())
        payload["kind"] = "polarity"
        bad.write_text(json.dumps(payload))
        code, _, err = run(capsys, "permute", "--matrix", str(bad),
                           "--norms", str(changer_files.norms),
                           "--wordlist", str(changer_files.wordlist),
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "relevance" in err


class TestBadNormsCell:
    @pytest.mark.parametrize("command", ["classify", "valence-corr", "regress"])
    def test_exit_2_naming_the_line(self, capsys, world_files, changer_files, tmp_path,
                                    command):
        source = changer_files.norms if command == "regress" else world_files.norms
        lines = source.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "9.5"
        lines[3] = ",".join(cells)
        norms = tmp_path / "norms.csv"
        norms.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        if command == "regress":
            argv = ["--matrix", str(changer_files.matrix), "--wordlist",
                    str(changer_files.wordlist)]
        else:
            argv = ["--manifest", str(world_files.manifest), "--mfd", str(world_files.mfd)]
            if command == "classify":
                argv += ["--word", "riser", "--tier", "relevance"]
        code, stdout, err = run(capsys, command, *argv, "--norms", str(norms),
                                "--out-dir", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"moraldrift: error: {norms}:4: valence 9.5 outside [1.0, 9.0]\n"
        assert not out.exists()


class TestAlign:
    def test_align_writes_consistent_spaces(self, capsys, world_files, tmp_path):
        code, _, _ = run(capsys, "align", "--manifest", str(world_files.manifest),
                         "--alignment-direction", "backward",
                         "--out-dir", str(tmp_path))
        assert code == 0
        meta = json.loads((tmp_path / "align.json").read_text())
        assert meta["decades"] == [1900, 1910, 1920, 1930, 1940, 1950]
        aligned = load_diachronic(tmp_path / "aligned_manifest.csv")
        assert aligned.decades == (1900, 1910, 1920, 1930, 1940, 1950)
        assert aligned.dim == 6

    def test_manifest_comment_line(self, capsys, world_files, tmp_path):
        run(capsys, "align", "--manifest", str(world_files.manifest),
            "--out-dir", str(tmp_path))
        first = (tmp_path / "aligned_manifest.csv").read_text().splitlines()[0]
        assert first.startswith("# tool=moraldrift")

    def test_unstorable_word_leaves_no_output(self, capsys, tmp_path):
        # The later decade holds a word the npy store cannot hold (U+2028
        # is a line break); it is refused at load, before any file is written.
        rows = np.arange(6, dtype="<f4").reshape(3, 2)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("decade,path,format\n1900,a.bin,binary-word2vec\n"
                            "1910,b.bin,binary-word2vec\n")
        for name, words in (("a.bin", ["a", "b", "c"]), ("b.bin", ["a", "b", "odd\u2028word"])):
            (tmp_path / name).write_bytes(b"3 2\n" + b"".join(
                w.encode() + b" " + row.tobytes() for w, row in zip(words, rows)))
        out = tmp_path / "out"
        code, _, err = run(capsys, "align", "--manifest", str(manifest), "--out-dir", str(out))
        assert code == 2
        assert f"{tmp_path / 'b.bin'}: entry 3: word 'odd\\u2028word' contains whitespace" in err
        assert not out.exists()

    def test_failed_alignment_leaves_no_out_dir(self, capsys, tmp_path):
        # Two 3-d decades share one word: too few for a rotation.
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("decade,path,format\n1900,a.txt,text-word2vec\n"
                            "1910,b.txt,text-word2vec\n")
        for name, words in (("a.txt", ["a", "b", "c"]), ("b.txt", ["a", "x", "y"])):
            write_text(tmp_path / name, words, np.eye(3))
        out = tmp_path / "out"
        code, _, err = run(capsys, "align", "--manifest", str(manifest), "--out-dir", str(out))
        assert code == 2
        assert "shared vocabulary has 1 words; need at least dim=3" in err
        assert not out.exists()

    def test_npy_store_gives_the_text_outputs(self, capsys, world_files, tmp_path):
        store, out = tmp_path / "aligned", tmp_path / "out"
        manifest = store / "aligned_manifest.csv"
        run(capsys, "align", "--manifest", str(world_files.manifest),
            "--out-dir", str(store))
        lines = manifest.read_text().splitlines()
        assert lines[2:] == [f"{d},aligned_{d}.npy,npy" for d in WORLD_DECADES]

        lex = ["--manifest", str(manifest), "--mfd", str(world_files.mfd),
               "--norms", str(world_files.norms), "--out-dir", str(out)]
        relevance = str(out / "matrix_relevance.json")
        commands = [
            ["matrix", *lex, "--wordlist", str(world_files.wordlist), "--kind", "relevance"],
            ["matrix", *lex, "--wordlist", str(world_files.wordlist), "--kind", "polarity",
             "--model", "kde"],
            ["evaluate", *lex, "--tier", "category", "--historical"],
            ["evaluate", *lex, "--tier", "polarity", "--historical", "--model", "knn"],
            ["timecourse", *lex, "--word", "riser", "--tier", "category"],
            ["timecourse", *lex, "--word", "riser", "--tier", "relevance",
             "--normalize-embeddings"],
            ["retrieve", *lex, "--matrix", relevance, "--direction", "toward-relevance"],
        ]

        def outputs():
            streams = [run(capsys, *argv) for argv in commands]
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            shutil.rmtree(out)
            return streams, files

        from_npy = outputs()
        aligned = load_diachronic(manifest)
        for space in aligned:
            write_text(store / f"aligned_{space.decade}.txt", space.words, space.matrix)
        del aligned
        for path in store.glob("aligned_*.npy"):
            path.unlink()
        manifest.write_text("decade,path,format\n" + "".join(
            f"{d},aligned_{d}.txt,text-word2vec\n" for d in WORLD_DECADES))
        from_text = outputs()

        assert all(code == 0 for code, _, _ in from_npy[0])
        assert len(from_npy[1]) == 13
        assert from_npy == from_text


def test_import_leaves_out_scipy_special(world_files, tmp_path):
    # Neither the import nor a KDE command loads it: KDE's log-sum-exp is numpy's.
    src = Path(moraldrift.__file__).resolve().parents[1]
    lex = [*data_args(world_files), "--model", "kde", "--out-dir", str(tmp_path)]
    commands = [["evaluate", *lex, "--tier", "category", "--historical"],
                ["matrix", *lex, "--wordlist", str(world_files.wordlist), "--kind", "relevance"]]
    probe = ("import json, sys, moraldrift.cli\n"
             "print('scipy.special' in sys.modules)\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    assert moraldrift.cli.dispatch(argv) == 0, argv\n"
             "print('scipy.special' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", probe, json.dumps(commands)],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout.split() == ["False", "False"]


class TestProject:
    def test_project_map(self, capsys, world_files, tmp_path):
        code, _, _ = run(capsys, "project", *data_args(world_files),
                         "--words", "riser,alwayspos", "--all-decades",
                         "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "project.csv").read_text().splitlines()
        assert lines[1] == "kind,label,decade,x,y"
        rows = [line.split(",") for line in lines[2:]]
        kinds = [r[0] for r in rows]
        assert kinds.count("class") == 3
        assert kinds.count("anchor") == 10
        assert kinds.count("query") == 12  # 2 words x 6 decades

    def test_missing_words_is_error(self, capsys, world_files, tmp_path):
        code, _, err = run(capsys, "project", *data_args(world_files),
                           "--words", "qq,zz", "--out-dir", str(tmp_path))
        assert code == 2


class TestNormalization:
    def test_normalize_flag_changes_posteriors(self, capsys, world_files):
        base = run(capsys, "classify", *data_args(world_files),
                   "--word", "riser", "--tier", "relevance")[1]
        normed = run(capsys, "classify", *data_args(world_files),
                     "--word", "riser", "--tier", "relevance",
                     "--normalize-embeddings")[1]
        p_base = json.loads(base)["posterior"]["relevant"]
        p_norm = json.loads(normed)["posterior"]["relevant"]
        assert p_base != p_norm

    def test_config_hash_differs_with_flags(self, capsys, world_files):
        base = run(capsys, "classify", *data_args(world_files),
                   "--word", "riser", "--tier", "relevance")[1]
        normed = run(capsys, "classify", *data_args(world_files),
                     "--word", "riser", "--tier", "relevance",
                     "--normalize-embeddings")[1]
        assert json.loads(base)["_meta"]["config_hash"] != \
            json.loads(normed)["_meta"]["config_hash"]


class TestCountOptionsBelowOne:
    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_retrieve_top_below_one(self, capsys, world_files, matrix_dir,
                                    tmp_path, top):
        code, _, err = run(capsys, "retrieve", *data_args(world_files),
                           "--matrix", str(matrix_dir / "matrix_relevance.json"),
                           "--direction", "toward-relevance", "--top", top,
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert f"top_n must be at least 1, got {top}" in err
        assert not (tmp_path / "retrieve_toward-relevance.csv").exists()

    @pytest.mark.parametrize("shuffles", ["0", "-3"])
    def test_permute_shuffles_below_one(self, capsys, changer_files, tmp_path,
                                        shuffles):
        out = tmp_path / "out"
        code, _, err = run(capsys, "permute", "--matrix", str(changer_files.matrix),
                           "--norms", str(changer_files.norms),
                           "--wordlist", str(changer_files.wordlist),
                           "--shuffles", shuffles, "--out-dir", str(out))
        assert code == 2
        assert f"need at least one shuffle, got {shuffles}" in err
        assert not out.exists()


def _meta_argv(command, world, changers, matrix_dir):
    data = data_args(world)
    regression = ["--matrix", str(changers.matrix), "--norms", str(changers.norms),
                  "--wordlist", str(changers.wordlist)]
    return {
        "align": ["--manifest", str(world.manifest)],
        "classify": [*data, "--word", "riser", "--tier", "relevance"],
        "timecourse": [*data, "--word", "riser", "--tier", "category"],
        "matrix": [*data, "--wordlist", str(world.wordlist), "--kind", "polarity"],
        "evaluate": [*data, "--tier", "polarity", "--historical"],
        "valence-corr": data,
        "survey-corr": [*data, "--survey", str(world.survey)],
        "retrieve": [*data, "--matrix", str(matrix_dir / "matrix_relevance.json"),
                     "--direction", "toward-relevance"],
        "regress": regression,
        "permute": [*regression, "--shuffles", "5"],
        "project": [*data, "--words", "riser"],
    }[command]


def _not_json(constant):
    raise AssertionError(f"output holds {constant}, which is not JSON")


@pytest.mark.parametrize("command", sorted(build_parser().commands))
def test_every_output_carries_the_command_meta(capsys, world_files, changer_files,
                                               matrix_dir, tmp_path, command):
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, command,
                          *_meta_argv(command, world_files, changer_files, matrix_dir),
                          "--out-dir", str(out))
    assert code == 0
    # Strict JSON: NaN and Infinity are Python's extensions, not JSON.
    metas = [json.loads(stdout, parse_constant=_not_json)["_meta"]] if stdout else []
    for path in sorted(out.iterdir()) if out.exists() else []:
        if path.suffix == ".json":
            metas.append(json.loads(path.read_text(), parse_constant=_not_json)["_meta"])
        elif path.suffix == ".csv":
            first = path.read_text().splitlines()[0]
            assert first.startswith("# ")
            metas.append(dict(item.split("=", 1) for item in first[2:].split(" ")))
        else:
            assert path.suffix in (".npy", ".vocab")
    assert metas
    config_hash = metas[0]["config_hash"]
    assert config_hash
    assert all(meta == {"tool": "moraldrift", "version": moraldrift.__version__,
                        "command": command, "config_hash": config_hash}
               for meta in metas)
