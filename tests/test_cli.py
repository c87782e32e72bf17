import json
import logging
import struct

import numpy as np
import pytest

from conftest import synthetic_corpus_text
from cdrex import optim
from cdrex.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VOCAB,
    OPTIONS,
    ConfigError,
    RunConfig,
    build_parser,
    gradcheck_suite,
    load_config_file,
    main,
    resolve_config,
)
from cdrex.model import MAGIC, load_model


@pytest.fixture
def corpora(tmp_path):
    train = tmp_path / "train.pubtator"
    dev = tmp_path / "dev.pubtator"
    test = tmp_path / "test.pubtator"
    train.write_text(synthetic_corpus_text(8))
    dev.write_text(synthetic_corpus_text(4, start=8))
    test.write_text(synthetic_corpus_text(4, start=12))
    return {"train": str(train), "dev": str(dev), "test": str(test), "dir": tmp_path}


def train_args(corpora, model_path, extra=()):
    return ["train", "--train", corpora["train"], "--dev", corpora["dev"],
            "--model-out", str(model_path), "--epochs", "2", "--filters", "4",
            "--dropout", "0.0", "--seed", "3", *extra]


class TestTrainCommand:
    def test_writes_model_with_magic(self, corpora):
        model_path = corpora["dir"] / "model.bin"
        assert main(train_args(corpora, model_path)) == EXIT_OK
        blob = model_path.read_bytes()
        assert blob[:8] == MAGIC == b"CDREXM1\x00"

    def test_missing_embeddings_file_is_config_error(self, corpora, capsys):
        model_path = corpora["dir"] / "model.bin"
        code = main(train_args(corpora, model_path, ["--emb", "/nonexistent/vectors.txt"]))
        assert code == EXIT_CONFIG
        assert "does not exist" in capsys.readouterr().err

    def test_pretrained_embeddings_are_loaded(self, corpora):
        # 200-dim vectors (the default word width) for two corpus words.
        vectors = corpora["dir"] / "vectors.txt"
        rows = []
        for word in ("chem0", "induced"):
            rows.append(word + " " + " ".join("0.125" for _ in range(200)))
        vectors.write_text("\n".join(rows) + "\n")
        model_path = corpora["dir"] / "model.bin"
        code = main(train_args(corpora, model_path,
                               ["--emb", str(vectors), "--epochs", "1"]))
        assert code == EXIT_OK
        params = load_model(model_path)
        row = params.tables.word.weights.data[params.tables.word.index["chem0"]]
        # One training epoch nudges the row, but it stays near the loaded
        # value, far outside the +/-0.05 random-init range.
        assert np.abs(row - 0.125).max() < 0.01

    def test_variant_recorded_in_metadata(self, corpora):
        model_path = corpora["dir"] / "model.bin"
        code = main(train_args(corpora, model_path, ["--variant", "cnn+cnnchar"]))
        assert code == EXIT_OK
        blob = model_path.read_bytes()
        (meta_len,) = struct.unpack("<Q", blob[8:16])
        meta = json.loads(blob[16:16 + meta_len])
        assert meta["variant"] == "cnn+cnnchar"
        assert load_model(model_path).variant == "cnn+cnnchar"

    def test_corpus_parse_error_exits_1(self, corpora, capsys):
        bad = corpora["dir"] / "bad.pubtator"
        bad.write_text("1|t|Title.\n1|a|Abstract.\n1\t5\t2\tx\tChemical\tD1\n")
        code = main(["train", "--train", str(bad), "--dev", corpora["dev"],
                     "--model-out", str(corpora["dir"] / "m.bin")])
        assert code == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_non_utf8_corpus_is_parse_error(self, corpora, capsys):
        bad = corpora["dir"] / "latin1.pubtator"
        bad.write_bytes(synthetic_corpus_text(2).encode() + "7|t|Caf\xe9ine.\n".encode("latin-1"))
        code = main(["train", "--train", str(bad), "--dev", corpora["dev"],
                     "--model-out", str(corpora["dir"] / "m.bin")])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        lineno = synthetic_corpus_text(2).count("\n") + 1
        assert f"parse error: {bad}: line {lineno}: not UTF-8 text" in err

    def test_short_vector_line_is_parse_error(self, corpora, capsys):
        vectors = corpora["dir"] / "vectors.txt"
        vectors.write_text("chem0" + " 0.125" * 200 + "\ninduced 0.5\n")
        code = main(train_args(corpora, corpora["dir"] / "model.bin", ["--emb", str(vectors)]))
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"parse error: {vectors}: line 2: expected 200 values, got 1" in err

    def test_vector_width_mismatch_is_parse_error(self, corpora, capsys):
        # Well-formed, but 3-wide where the word table is 200 wide.
        vectors = corpora["dir"] / "vectors.txt"
        vectors.write_text("chem0 0.1 0.2 0.3\ninduced 0.4 0.5 0.6\n")
        code = main(train_args(corpora, corpora["dir"] / "model.bin", ["--emb", str(vectors)]))
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"parse error: {vectors}: line 1: expected 200 values, got 3" in err

    def test_corpus_without_a_mention_pair_exits_1(self, corpora, capsys):
        chemicals_only = corpora["dir"] / "chemicals.pubtator"
        chemicals_only.write_text("\n".join(
            line for line in synthetic_corpus_text(4).splitlines()
            if "\tDisease\t" not in line and "\tCID\t" not in line) + "\n")
        code = main(train_args(corpora, corpora["dir"] / "m.bin", ["--train", str(chemicals_only)]))
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{chemicals_only}: no chemical-disease mention pair to train on" in err

    def test_windows_shorter_than_the_convolution_exit_1(self, corpora, capsys):
        short = corpora["dir"] / "short.pubtator"
        # "chem0 dis0 ." is three tokens; the convolution window is five.
        short.write_text("1|t|chem0 dis0.\n1|a|Filler.\n"
                         "1\t0\t5\tchem0\tChemical\tC0\n1\t6\t10\tdis0\tDisease\tD0\n")
        code = main(train_args(corpora, corpora["dir"] / "m.bin", ["--train", str(short)]))
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert (f"{short}: the longest instance has 3 tokens, fewer than the convolution "
                f"window of 5") in err

    def test_pair_wider_than_n_max_is_skipped_with_one_warning(self, corpora, capsys, caplog):
        wide = corpora["dir"] / "wide.pubtator"
        filler = " ".join(["word"] * 400)
        title = f"chem0 {filler} dis0 here."
        wide.write_text(synthetic_corpus_text(8) + "\n" + "\n".join([
            f"99|t|{title}", "99|a|Filler.",
            "99\t0\t5\tchem0\tChemical\tC0",
            f"99\t{title.index('dis0')}\t{title.index('dis0') + 4}\tdis0\tDisease\tD0"]) + "\n")
        with caplog.at_level(logging.WARNING):
            code = main(train_args(corpora, corpora["dir"] / "m.bin", ["--train", str(wide)]))
        assert code == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert warnings == ["document 99: mentions 'chem0'/'dis0' span 402 tokens, "
                            "more than n_max=400; pair skipped"]

    def test_missing_required_flag_is_config_error(self, corpora, capsys):
        assert main(["train", "--train", corpora["train"]]) == EXIT_CONFIG

    def test_numeric_failure_writes_report_and_exits_3(self, corpora):
        vectors = corpora["dir"] / "vectors.txt"
        vectors.write_text("chem0 nan" + " 0.125" * 199 + "\n")
        report = corpora["dir"] / "report.txt"
        model_path = corpora["dir"] / "model.bin"
        code = main(train_args(corpora, model_path,
                               ["--emb", str(vectors), "--report", str(report)]))
        assert code == EXIT_NUMERIC
        assert "status aborted" in report.read_text()
        assert not model_path.exists()

    def test_report_files_are_byte_identical_across_runs(self, corpora):
        report = corpora["dir"] / "report.txt"
        model_path = corpora["dir"] / "model.bin"
        args = train_args(corpora, model_path, ["--report", str(report)])
        assert main(args) == EXIT_OK
        first = (report.read_bytes(), model_path.read_bytes())
        assert main(args) == EXIT_OK
        assert (report.read_bytes(), model_path.read_bytes()) == first


class TestEvalCommand:
    def trained_model(self, corpora, capsys, extra=(), name="model.bin"):
        model_path = corpora["dir"] / name
        assert main(train_args(corpora, model_path, list(extra))) == EXIT_OK
        capsys.readouterr()  # drain the train command's output
        return model_path

    def test_oracle_scores_perfectly(self, corpora, capsys):
        model_path = self.trained_model(corpora, capsys)
        code = main(["eval", "--model-in", str(model_path), "--test", corpora["test"],
                     "--train", corpora["train"], "--oracle"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "100.0 100.0 100.0"

    def test_empty_predictions_score_zero(self, corpora, capsys, tmp_path):
        # All-negative training corpus: no relations for rule (ii), and the
        # model trains toward the negative class, so nothing is predicted.
        neg_train = tmp_path / "neg.pubtator"
        neg_train.write_text(synthetic_corpus_text(8, all_negative=True))
        model_path = tmp_path / "neg.bin"
        code = main(["train", "--train", str(neg_train), "--dev", str(neg_train),
                     "--model-out", str(model_path), "--epochs", "3",
                     "--filters", "4", "--dropout", "0.0", "--lambda", "5e-4"])
        assert code == EXIT_OK
        capsys.readouterr()
        code = main(["eval", "--model-in", str(model_path), "--test", corpora["test"],
                     "--train", str(neg_train)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "0.0 0.0 0.0"

    def test_compare_appends_bootstrap_line(self, corpora, capsys):
        model_a = self.trained_model(corpora, capsys)
        model_b = self.trained_model(corpora, capsys, extra=["--seed", "77"],
                                     name="model_b.bin")
        report = corpora["dir"] / "eval.txt"
        code = main(["eval", "--model-in", str(model_a), "--test", corpora["test"],
                     "--train", corpora["train"], "--compare", str(model_b),
                     "--report", str(report)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "bootstrap p=" in out
        assert "bootstrap p=" in report.read_text()
        assert "iterations=10000" in report.read_text()

    def test_vocabulary_mismatch_exits_4(self, corpora, capsys, tmp_path):
        model_path = self.trained_model(corpora, capsys)
        foreign = tmp_path / "foreign.pubtator"
        foreign.write_text(
            "9|t|Zzzq wwrr qqpp.\n9|a|Mmnn ggff hhjj.\n"
            "9\t0\t4\tZzzq\tChemical\tC9\n9\t10\t14\tqqpp\tDisease\tD9\n")
        code = main(["eval", "--model-in", str(model_path), "--test", str(foreign),
                     "--train", corpora["train"]])
        assert code == EXIT_VOCAB
        assert "vocabulary mismatch" in capsys.readouterr().err

    def test_non_utf8_test_corpus_is_parse_error(self, corpora, capsys, tmp_path):
        model_path = self.trained_model(corpora, capsys)
        bad = tmp_path / "latin1.pubtator"
        bad.write_bytes("9|t|\xe9tude.\n9|a|Plain.\n".encode("latin-1"))
        code = main(["eval", "--model-in", str(model_path), "--test", str(bad),
                     "--train", corpora["train"]])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"parse error: {bad}: line 1: not UTF-8 text" in err

    def test_model_format_error_exits_1(self, corpora, tmp_path):
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"JUNKJUNKJUNK")
        code = main(["eval", "--model-in", str(bogus), "--test", corpora["test"],
                     "--train", corpora["train"]])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_corrupt_model_exits_1_with_one_line(self, corpora, capsys, command):
        model_path = self.trained_model(corpora, capsys, extra=["--variant", "cnn+lstmchar"])
        blob = model_path.read_bytes()
        corrupt = corpora["dir"] / "corrupt.bin"
        meta_start = 16  # magic, then the metadata length
        for damaged in (blob[:8] + b"\xff" * 8 + blob[16:],             # length past the end
                        blob[:meta_start] + b"\xff" + blob[meta_start + 1:],  # not UTF-8
                        blob[:meta_start] + b"[" + blob[meta_start + 1:]):     # not JSON
            corrupt.write_bytes(damaged)
            args = [command, "--model-in", str(corrupt), "--test", corpora["test"]]
            code = main(args + (["--train", corpora["train"]] if command == "eval" else []))
            assert code == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "Traceback" not in err


    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_pair_wider_than_the_model_is_labelled_0(self, corpora, capsys, caplog, command):
        model_path = self.trained_model(corpora, capsys)  # n = 5
        wide = corpora["dir"] / "wide.pubtator"
        title = "chem0 induced much more than five tokens of dis0 today."
        dis = title.index("dis0")
        wide.write_text(synthetic_corpus_text(4, start=12) + "\n" + "\n".join([
            f"99|t|{title}", "99|a|Filler.", "99\t0\t5\tchem0\tChemical\tC0",
            f"99\t{dis}\t{dis + 4}\tdis0\tDisease\tD0", "99\tCID\tC0\tD0"]) + "\n")
        args = [command, "--model-in", str(model_path), "--test", str(wide)]
        with caplog.at_level(logging.WARNING):
            code = main(args + (["--train", corpora["train"]] if command == "eval" else []))
        assert code == EXIT_OK
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert warnings == ["instance 99#0: entities span 9 tokens, more than the model's "
                            "n=5; labelled 0"]
        if command == "predict":  # no training relations: nothing else predicts the pair
            assert not any(line.startswith("99\t") for line in out.splitlines())


class TestPredictCommand:
    def test_runs_without_relation_lines(self, corpora, capsys):
        model_path = corpora["dir"] / "model.bin"
        assert main(train_args(corpora, model_path)) == EXIT_OK
        capsys.readouterr()
        unlabeled = corpora["dir"] / "unlabeled.pubtator"
        # Strip relation lines: labels are unused by predict.
        labeled = synthetic_corpus_text(4, start=12)
        unlabeled.write_text("\n".join(
            line for line in labeled.splitlines() if "\tCID\t" not in line) + "\n")
        code = main(["predict", "--model-in", str(model_path), "--test", str(unlabeled)])
        assert code == EXIT_OK
        for line in capsys.readouterr().out.splitlines():
            pmid, chem, dis = line.split("\t")
            assert chem.startswith("C") and dis.startswith("D")


class TestGridSearchCommand:
    def test_one_point_grid_matches_train(self, corpora, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text(
            "grid_lambdas = 5e-4\ngrid_filters = 4\ngrid_dropouts = 0.0\n")
        report = tmp_path / "grid.txt"
        code = main(["gridsearch", "--config", str(config),
                     "--train", corpora["train"], "--dev", corpora["dev"],
                     "--model-out", str(tmp_path / "grid-models"),
                     "--report", str(report), "--epochs", "2", "--seed", "3"])
        assert code == EXIT_OK
        text = report.read_text()
        assert text.startswith("winner lambda=0.0005 filters=4 dropout=0.0")
        assert (tmp_path / "grid-models" / "config-000.model").exists()

    def test_no_scored_configuration_writes_report_and_exits_3(self, corpora, tmp_path, capsys):
        # A NaN vector aborts every configuration in its first epoch.
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("chem0 nan" + " 0.125" * 199 + "\n")
        config = tmp_path / "grid.cfg"
        config.write_text("grid_lambdas = 5e-4,1e-4\ngrid_filters = 4\ngrid_dropouts = 0.0\n")
        report = tmp_path / "grid.txt"
        code = main(["gridsearch", "--config", str(config), "--emb", str(vectors),
                     "--train", corpora["train"], "--dev", corpora["dev"],
                     "--model-out", str(tmp_path / "grid-models"),
                     "--report", str(report), "--epochs", "1", "--seed", "3"])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "no dev score" in err
        text = report.read_text()
        assert text.startswith("winner -\n")
        assert text.count("status aborted") == 2

    def test_default_grid_is_the_paper_grid(self, corpora, monkeypatch):
        class Captured(Exception):
            pass

        def grid_search(grid, *args, **kwargs):
            raise Captured(grid)

        monkeypatch.setattr(optim, "grid_search", grid_search)
        with pytest.raises(Captured) as exc:
            main(["gridsearch", "--train", corpora["train"], "--dev", corpora["dev"],
                  "--model-out", str(corpora["dir"] / "models"),
                  "--report", str(corpora["dir"] / "grid.txt")])
        grid = exc.value.args[0]
        assert grid == optim.default_grid(optim.TrainConfig())
        assert len(grid) == 50


class TestGradcheckCommand:
    def test_prints_small_error_and_exits_zero(self, capsys):
        code = main(["gradcheck"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("maximum relative error")
        assert float(out.split()[-1]) < 1e-4


class TestArgumentHandling:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--bogus-flag", "x"])
        assert exc.value.code == 2

    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        flags = ("--config", "--train", "--dev", "--test", "--emb", "--model-in",
                 "--model-out", "--report", "--variant", "--lambda", "--filters",
                 "--dropout", "--epochs", "--batch-size", "--seed",
                 "--debug-numerics", "--compare", "--oracle")
        assert set(flags) == {"--config"} | {opt.flag for opt in OPTIONS if opt.help}
        for flag in flags:
            assert flag in out

    def test_config_file_and_flag_give_equal_configs(self, corpora, tmp_path):
        # A non-default value for every option that has a flag.
        samples = {"model_out": "out.bin", "report": "report.txt", "variant": "cnn+lstmchar",
                   "lambda": "0.0005", "filters": "7", "dropout": "0.25", "epochs": "3",
                   "batch_size": "8", "seed": "9", "debug_numerics": "true", "oracle": "yes"}
        for key in ("train", "dev", "test", "emb", "model_in", "compare"):
            samples[key] = corpora[key] if key in corpora else corpora["train"]
        default = RunConfig(command="train")
        for opt in OPTIONS:
            if not opt.help:
                continue
            config = tmp_path / f"{opt.key}.cfg"
            config.write_text(f"{opt.key} = {samples[opt.key]}\n")
            from_file = resolve_config(build_parser().parse_args(["train", "--config", str(config)]))
            flag = [opt.flag] if opt.switch else [opt.flag, samples[opt.key]]
            from_flag = resolve_config(build_parser().parse_args(["train", *flag]))
            assert from_file == from_flag != default, opt.key

    def test_config_file_provides_values_and_flags_override(self, corpora, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"train = {corpora['train']}\n"
            f"dev = {corpora['dev']}\n"
            "epochs = 1\n"
            "filters = 4\n"
            "dropout = 0.0\n"
            "seed = 3\n"
            "# a comment line\n")
        model_path = tmp_path / "from-config.bin"
        code = main(["train", "--config", str(config), "--model-out", str(model_path),
                     "--epochs", "2"])
        assert code == EXIT_OK
        assert load_model(model_path).hyper.m == 4

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("no_such_key = 1\n")
        assert main(["train", "--config", str(config)]) == EXIT_CONFIG
        assert "unknown key" in capsys.readouterr().err

    def test_bad_config_value_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("epochs = banana\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config_file(str(config))

    def test_missing_config_file_is_config_error(self):
        assert main(["train", "--config", "/nonexistent.cfg"]) == EXIT_CONFIG

    def test_invalid_dropout_rejected(self, corpora):
        code = main(train_args(corpora, corpora["dir"] / "m.bin") + ["--dropout", "1.0"])
        assert code == EXIT_CONFIG


def test_gradcheck_suite_single_seed_fast_path():
    assert gradcheck_suite(seeds=(0,)) < 1e-4
