import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import windowlab
from windowlab import cli, harness
from windowlab.cli import _build_parser, _experiment_config, _resolve, main

FAST = [
    "--datasets", "2",
    "--n-train", "80",
    "--n-test", "80",
    "--window-grid", "10",
    "--threshold-grid", "10",
]


def live_datasets_per_call(monkeypatch, name):
    """Per call of the CLI's ``name``, how many datasets of the suite that
    ``harness.generate_benchmark_suite`` returned are still alive."""
    refs, alive = [], []
    generate, reader = harness.generate_benchmark_suite, getattr(cli, name)

    def tracked_suite(*args):
        suite = generate(*args)
        refs.extend(weakref.ref(ds) for ds in suite)
        return suite

    def counted(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return reader(*args)

    monkeypatch.setattr(harness, "generate_benchmark_suite", tracked_suite)
    monkeypatch.setattr(cli, name, counted)
    return alive


class TestGenerate:
    def test_writes_suite_files(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["generate", "--seed", "5", "--datasets", "3", "--n-train", "8",
                     "--n-test", "8", "--out", str(out), "--name", "demo"])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "demo_0_test.csv", "demo_0_train.csv",
            "demo_1_test.csv", "demo_1_train.csv",
            "demo_2_test.csv", "demo_2_train.csv",
        ]
        assert "wrote 6 dataset files" in capsys.readouterr().out

    def test_each_dataset_is_freed_once_written(self, tmp_path, monkeypatch):
        alive = live_datasets_per_call(monkeypatch, "write_dataset_csv")
        assert main(["generate", "--out", str(tmp_path), *FAST, "--datasets", "3"]) == 0
        assert alive == [3, 2, 1]


class TestRunAndAnalyze:
    def test_run_then_analyze(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["run", "--seed", "9", "--out", str(out), *FAST]) == 0
        assert (out / "error_rates.csv").exists()
        assert main(["analyze", "--seed", "9", "--out", str(out), *FAST]) == 0
        assert (out / "stats_report.csv").exists()
        assert (out / "summary.txt").exists()

    def test_analyze_frees_each_dataset_once_its_distance_is_read(self, tmp_path, monkeypatch):
        flags = ["--seed", "9", "--out", str(tmp_path), *FAST, "--datasets", "3"]
        assert main(["run", *flags]) == 0
        alive = live_datasets_per_call(monkeypatch, "centroid_distance")
        assert main(["analyze", *flags]) == 0
        assert alive == [3, 2, 1]

    def test_analyze_rejects_a_table_that_differs_from_the_settings(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["run", "--seed", "9", "--out", str(out), "--methods", "LNC,SMOV", *FAST]) == 0
        assert main(["analyze", "--seed", "9", "--out", str(out), *FAST]) == 1
        err = capsys.readouterr().err
        assert "2 datasets of LNC,SMOV" in err
        assert "2 of LNC,SMOV,DMOV1,DMOV2,DCA1,DCA2" in err
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("flag", [["--seed", "8"], ["--n-test", "84"]])
    def test_analyze_rejects_a_table_from_another_suite(self, tmp_path, capsys, flag):
        out = tmp_path / "exp"
        assert main(["run", "--seed", "7", "--out", str(out), *FAST]) == 0
        assert main(["analyze", "--seed", "7", "--out", str(out), *FAST, *flag]) == 1
        err = capsys.readouterr().err
        assert re.search(r"dataset 0 has centroid distance [\d.e-]+, but the suite of these "
                         r"settings gives [\d.e-]+;", err)
        assert "--seed, --n-train and --n-test" in err
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda f: f[:3] + ["nan"] + f[4:], "error rate nan is outside [0, 1]"),
        (lambda f: f[:3] + ["-3.0"] + f[4:], "error rate -3.0 is outside [0, 1]"),
        (lambda f: f[:3], "expected 5 comma-separated fields, got 3"),
        (lambda f: f[:2] + ["SMOOV"] + f[3:], "'SMOOV' is not a valid Method"),
        (lambda f: f[:1] + ["0.9"] + f[2:], "centroid distance 0.9 differs from dataset 0's"),
    ], ids=["nan-error", "negative-error", "three-fields", "unknown-method", "split-distance"])
    def test_analyze_names_a_bad_row(self, tmp_path, capsys, edit, message):
        out = tmp_path / "exp"
        args = ["--seed", "9", "--out", str(out), *FAST]
        assert main(["run", *args]) == 0
        path = out / "error_rates.csv"
        lines = path.read_text().splitlines()
        assert lines[2].startswith("0,") and lines[2].split(",")[2] == "SMOV"
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", *args]) == 1
        assert f"{path}:3: {message}" in capsys.readouterr().err
        assert not (out / "summary.txt").exists()

    def test_analyze_without_results_fails(self, tmp_path, capsys):
        code = main(["analyze", "--out", str(tmp_path / "nowhere")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_methods_flag_restricts_table(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["run", "--seed", "9", "--out", str(out), "--methods", "LNC,SMOV", *FAST]) == 0
        body = (out / "error_rates.csv").read_text().splitlines()[1:]
        methods = {line.split(",")[2] for line in body}
        assert methods == {"LNC", "SMOV"}

    def test_negative_seed_is_named(self, tmp_path, capsys):
        assert main(["run", "--seed", "-1", "--out", str(tmp_path), *FAST]) == 1
        assert "seed must be a whole number >= 0, got -1" in capsys.readouterr().err

    def test_unknown_method_is_reported(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path), "--methods", "LNC,BOGUS", *FAST])
        assert code == 1
        assert "unknown method" in capsys.readouterr().err


class TestAll:
    def test_all_produces_every_artifact(self, tmp_path):
        out = tmp_path / "full"
        assert main(["all", "--seed", "11", "--out", str(out), *FAST]) == 0
        for name in ("error_rates.csv", "stats_report.csv", "gain_sweeps.csv", "summary.txt"):
            assert (out / name).exists(), name

    def test_same_seed_reproduces_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["all", "--seed", "12", "--out", str(out_a), *FAST]) == 0
        assert main(["all", "--seed", "12", "--out", str(out_b), *FAST]) == 0
        for name in ("error_rates.csv", "stats_report.csv", "gain_sweeps.csv", "summary.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_different_seed_changes_results(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["all", "--seed", "12", "--out", str(out_a), *FAST]) == 0
        assert main(["all", "--seed", "13", "--out", str(out_b), *FAST]) == 0
        assert (out_a / "error_rates.csv").read_bytes() != (out_b / "error_rates.csv").read_bytes()

    def test_an_out_that_is_a_file_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        entered = []

        def run_experiment(*args):
            entered.append(args)
            raise RuntimeError("the experiment ran")

        monkeypatch.setattr(harness, "run_experiment", run_experiment)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["all", "--out", str(out), *FAST]) == 1
        assert "File exists" in capsys.readouterr().err
        assert not entered


class TestFrontDoor:
    @pytest.mark.parametrize("command", ["generate", "run", "analyze", "sweep-gains", "all"])
    @pytest.mark.parametrize("flag, message", [
        (["--n-train", "10"], "n_train must be a positive multiple of 4, got 10"),
        (["--datasets", "1"], "n_datasets must be a whole number >= 2, got 1"),
    ], ids=["n-train", "datasets"])
    def test_a_bad_setting_is_named_before_out_is_made(self, tmp_path, capsys, command, flag,
                                                        message):
        # run and all used to make --out before the suite rejected --n-train 10,
        # and sweep-gains checked no setting
        out = tmp_path / "out"
        assert main([command, "--out", str(out), *flag]) == 1
        assert f"windowlab {command}: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_two_dataset_normality_rows_name_their_sample_size(self, tmp_path):
        # each row used to say "degenerate: zero variance" though the errors vary
        out = tmp_path / "two"
        assert main(["all", "--out", str(out), *FAST]) == 0
        rows = [line.split(",") for line in (out / "stats_report.csv").read_text().splitlines()]
        assert {len(row) for row in rows} == {10}
        notes = [row[9] for row in rows if row[0] == "normality"]
        assert notes == ["Shapiro-Wilk needs 3 to 5000 values; got 2"] * 6


class TestSweepGains:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "gains"
        assert main(["sweep-gains", "--out", str(out)]) == 0
        lines = (out / "gain_sweeps.csv").read_text().splitlines()
        assert lines[0] == "W,omega,G_S_mag,G_D_mag"
        assert len(lines) > 100


class TestConfigFile:
    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(
            "# experiment settings\n"
            "seed=40\n"
            "datasets=2\n"
            "n-train=80\n"
            "n_test=80\n"
            "window_grid=10\n"
            "threshold_grid=10\n"
            "methods=LNC\n"
        )
        out_file = tmp_path / "from_file"
        assert main(["run", "--config", str(cfg), "--out", str(out_file)]) == 0
        body = (out_file / "error_rates.csv").read_text().splitlines()[1:]
        assert {line.split(",")[2] for line in body} == {"LNC"}
        assert len(body) == 2

        out_flag = tmp_path / "flag_wins"
        assert main([
            "run", "--config", str(cfg), "--out", str(out_flag), "--methods", "DCA1",
        ]) == 0
        body = (out_flag / "error_rates.csv").read_text().splitlines()[1:]
        assert {line.split(",")[2] for line in body} == {"DCA1"}

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("wibble=3\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "unknown setting" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("just some words\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_value_that_does_not_cast_names_its_setting(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("# sizes\nseed=3\ndatasets=1e3\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert f"{cfg}:3: datasets expects int, got '1e3'" in capsys.readouterr().err


class TestLambdaFlag:
    def test_lambda_pair_parsed(self, tmp_path):
        out = tmp_path / "lam"
        code = main(["run", "--seed", "3", "--out", str(out), "--methods", "DMOV1,DMOV2",
                     "--lambda", "2,50", *FAST])
        assert code == 0

    def test_one_value_keeps_the_high_scale_below_it(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("lambda=5,50\n")
        scales = {}
        for name, extra in (("file", ["--config", str(cfg)]), ("defaults", [])):
            args = _build_parser().parse_args(["run", *extra, "--lambda", "2"])
            config = _experiment_config(_resolve(args))
            scales[name] = (config.lambda_low, config.lambda_high)
        assert scales == {"file": (2.0, 50.0), "defaults": (2.0, 100.0)}

    def test_infinite_lambda_is_named(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path), "--lambda", "inf", *FAST])
        assert code == 1
        assert "scale factor must be positive and finite, got inf" in capsys.readouterr().err

    def test_bad_lambda_is_named_when_no_method_reads_it(self, tmp_path, capsys):
        out = tmp_path / "lnc"
        code = main(["run", "--out", str(out), "--methods", "LNC", "--lambda", "inf,nan", *FAST])
        assert code == 1
        assert "lambda_low: scale factor must be positive and finite, got inf" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_negative_svm_c_is_named_before_any_dataset(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path), "--svm-c", "-1", *FAST])
        assert code == 1
        err = capsys.readouterr().err
        assert "svm_c must be positive and finite, got -1.0" in err
        assert "dataset" not in err

    def test_bad_lambda_reported(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path), "--lambda", "1,2,3", *FAST])
        assert code == 1
        assert "lambda" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("text", [",5", "5,", "1,,2"])
    def test_an_empty_part_is_named(self, tmp_path, capsys, text):
        # ",5" used to set the low scale to 5 and "1,,2" to read as "1,2"
        out = tmp_path / "empty"
        code = main(["run", "--out", str(out), "--lambda", text, *FAST])
        assert code == 1
        assert (f"--lambda takes one or two comma-separated values, got {text!r}"
                in capsys.readouterr().err)
        assert not out.exists()


def test_flags_may_come_before_or_after_the_command():
    parse = _build_parser().parse_args
    after = parse(["run", "--seed", "3", "--datasets", "4"])
    assert vars(parse(["--seed", "3", "run", "--datasets", "4"])) == vars(after)
    assert (after.command, after.seed, after.datasets) == ("run", 3, 4)


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_import_loads_no_dataclasses():
    """Records are plain classes: a fresh ``import numpy, windowlab.cli`` leaves
    ``dataclasses`` unloaded, so no class's methods are generated at import."""
    probe = "import sys, numpy, windowlab.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(windowlab.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")
