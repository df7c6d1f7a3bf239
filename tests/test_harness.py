import hashlib

import numpy as np
import pytest

from windowlab.harness import (
    ALL_METHODS,
    AnalysisReport,
    ExperimentConfig,
    Method,
    ResultRow,
    ResultsTable,
    analyze,
    emit_outputs,
    run_experiment,
    run_experiment_detailed,
    write_stats_report,
    write_summary,
)

SMALL = dict(n_train=200, n_test=200, window_grid=20, threshold_grid=20)


@pytest.fixture(scope="module")
def small_table():
    cfg = ExperimentConfig(seed=77, n_datasets=4, **SMALL)
    return run_experiment(cfg), cfg


def two_dataset_run(methods=ALL_METHODS, **overrides):
    """Per-dataset results of a 2-dataset suite: dataset 0 overlaps completely
    (both class means 0.2), dataset 1 is separable (0.2 against 0.8)."""
    settings = {**SMALL, **overrides}
    return run_experiment_detailed(
        ExperimentConfig(seed=21, n_datasets=2, methods=tuple(methods), **settings)
    )[1]


@pytest.fixture(scope="module")
def two_datasets():
    return two_dataset_run()


class TestRunMethod:
    def test_lnc_returns_error_and_model(self, two_datasets):
        for per_method in two_datasets:
            result = per_method[Method.LNC]
            assert 0.0 <= result.error_rate <= 1.0
            assert result.model is not None
            assert result.tuned_parameter is None

    def test_smov_records_tuned_width(self, two_datasets):
        for per_method in two_datasets:
            tuned = per_method[Method.SMOV].tuned_parameter
            assert tuned is not None and 1 <= tuned <= SMALL["window_grid"]

    def test_dmov_records_tuned_budget(self, two_datasets):
        for per_method in two_datasets:
            tuned = per_method[Method.DMOV2].tuned_parameter
            assert tuned is not None and tuned > 0

    def test_dca_runs_without_svm(self, two_datasets):
        for per_method in two_datasets:
            assert per_method[Method.DCA1].model is None
            assert 0.0 <= per_method[Method.DCA1].error_rate <= 1.0

    def test_width_one_grid_reduces_smov_to_lnc(self):
        for per_method in two_dataset_run((Method.LNC, Method.SMOV), window_grid=1):
            assert per_method[Method.SMOV].error_rate == per_method[Method.LNC].error_rate

    def test_tiny_budget_reduces_dmov_to_lnc(self):
        for per_method in two_dataset_run((Method.LNC, Method.DMOV1), lambda_low=1e-9):
            assert per_method[Method.DMOV1].error_rate == per_method[Method.LNC].error_rate

    def test_separable_dataset_lnc_error_near_zero(self, two_datasets):
        assert two_datasets[1][Method.LNC].error_rate < 0.01

    def test_overlapping_dataset_everyone_near_chance(self, two_datasets):
        for method in ALL_METHODS:
            assert 0.3 <= two_datasets[0][method].error_rate <= 0.7, method


class TestEvaluateDataset:
    def test_trains_one_model_for_all_svm_methods(self, two_datasets):
        for per_method in two_datasets:
            models = {id(per_method[m].model) for m in (Method.LNC, Method.SMOV, Method.DMOV1)}
            assert len(models) == 1

    def test_matches_standalone_run_method(self, two_datasets):
        # Sharing one model and score series across methods changes no result.
        for method in ALL_METHODS:
            alone = two_dataset_run((method,))
            for shared, single in zip(two_datasets, alone):
                assert shared[method].error_rate == single[method].error_rate


class TestRunExperiment:
    def test_two_dataset_lnc_only(self):
        cfg = ExperimentConfig(seed=3, n_datasets=2, methods=(Method.LNC,), **SMALL)
        table = run_experiment(cfg)
        assert len(table.rows) == 2
        assert table.methods() == (Method.LNC,)

    def test_full_grid_of_cells(self, small_table):
        table, cfg = small_table
        assert len(table.rows) == cfg.n_datasets * len(cfg.methods)
        assert table.dataset_indexes() == tuple(range(cfg.n_datasets))

    def test_error_rates_bounded(self, small_table):
        table, _ = small_table
        for row in table.rows:
            assert 0.0 <= row.error_rate <= 1.0

    def test_rerun_is_bit_identical(self, small_table):
        table, cfg = small_table
        again = run_experiment(cfg)
        assert again == table

    def test_distances_increase_across_suite(self, small_table):
        table, _ = small_table
        dists = table.distances()
        assert dists[-1] > dists[0]

    def test_details_carry_models(self):
        cfg = ExperimentConfig(seed=5, n_datasets=2, **SMALL)
        table, details = run_experiment_detailed(cfg)
        assert len(details) == 2
        for per_method in details:
            assert per_method[Method.LNC].model is not None

    def test_method_failure_names_method_and_dataset(self, monkeypatch):
        cfg = ExperimentConfig(seed=5, n_datasets=2, methods=(Method.DCA1,), **SMALL)
        from windowlab import harness as hmod

        def boom(*args, **kwargs):
            raise ValueError("injected failure")

        monkeypatch.setattr(hmod.dca, "preprocess", boom)
        with pytest.raises(RuntimeError, match=r"DCA1 failed on dataset 0"):
            run_experiment(cfg)


class TestResultsTableCsv:
    def test_round_trip_exact(self, small_table, tmp_path):
        table, _ = small_table
        path = table.write_csv(tmp_path / "error_rates.csv")
        assert ResultsTable.read_csv(path) == table

    def test_header(self, small_table, tmp_path):
        table, _ = small_table
        path = table.write_csv(tmp_path / "error_rates.csv")
        header = path.read_text().splitlines()[0]
        assert header == "dataset_index,centroid_distance,method,error_rate,tuned_parameter"

    def test_rejects_foreign_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1,2,LNC,0.5,\n")
        with pytest.raises(ValueError, match="header"):
            ResultsTable.read_csv(bad)


class TestAnalyze:
    def test_report_structure(self, small_table):
        table, cfg = small_table
        report = analyze(table)
        assert len(report.normality) == len(cfg.methods)
        n_pairs = len(cfg.methods) * (len(cfg.methods) - 1) // 2
        assert sum(1 for c in report.two_sided if c.pool == "all") == n_pairs
        assert set(report.ordering) == {Method.LNC, Method.SMOV, Method.DMOV2, Method.DCA1}
        assert len(report.links) == 3

    def test_identical_vectors_reported_degenerate(self):
        rows = []
        for idx in range(6):
            for method in (Method.LNC, Method.SMOV):
                rows.append(ResultRow(idx, 0.1 * idx, method, 0.25, None))
        report = analyze(ResultsTable(tuple(rows)))
        comp = next(c for c in report.two_sided if c.pool == "all")
        assert comp.report is None
        assert "degenerate" in comp.note

    def test_missing_cell_is_named(self, small_table, tmp_path):
        table, _ = small_table
        rows = tuple(r for r in table.rows if (r.dataset_index, r.method) != (2, Method.DMOV2))
        path = ResultsTable(rows).write_csv(tmp_path / "error_rates.csv")
        with pytest.raises(ValueError, match="one DMOV2 row for dataset 2, got 0"):
            analyze(ResultsTable.read_csv(path))

    def test_repeated_cell_is_named(self, small_table):
        table, _ = small_table
        with pytest.raises(ValueError, match="one LNC row for dataset 0, got 2"):
            analyze(ResultsTable(table.rows + table.rows[:1]))

    def test_one_sided_orients_toward_smaller_mean(self, small_table):
        table, _ = small_table
        report = analyze(table)
        errors = dict(report.mean_errors)
        for comp in report.one_sided:
            assert errors[comp.a] <= errors[comp.b]


class TestOutputs:
    def test_emit_outputs_files(self, small_table, tmp_path):
        table, cfg = small_table
        report = analyze(table)
        paths = emit_outputs(table, report, cfg, tmp_path)
        assert sorted(p.name for p in paths.values()) == [
            "error_rates.csv",
            "gain_sweeps.csv",
            "stats_report.csv",
            "summary.txt",
        ]
        assert len(paths["error_rates"].read_text().splitlines()) == 1 + len(table.rows)

    def test_stats_report_rows(self, small_table, tmp_path):
        table, cfg = small_table
        report = analyze(table)
        path = write_stats_report(report, tmp_path / "stats.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("section,pool,a,b,test,")
        sections = {line.split(",")[0] for line in lines[1:]}
        assert sections == {"normality", "two-sided", "one-sided"}

    def test_summary_names_ordering(self, small_table, tmp_path):
        table, cfg = small_table
        report = analyze(table)
        path = write_summary(report, cfg, tmp_path / "summary.txt")
        text = path.read_text()
        assert "ascending error" in text
        for method in report.ordering:
            assert str(method) in text

    def test_emitted_csvs_deterministic(self, small_table, tmp_path):
        table, cfg = small_table
        report = analyze(table)
        first = emit_outputs(table, report, cfg, tmp_path / "a")
        second = emit_outputs(table, report, cfg, tmp_path / "b")
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes()


def test_golden_twenty_dataset_sweep_digests(tmp_path):
    """The paper configuration's first 20 datasets at the acceptance seed give
    these output bytes; any change to a kernel's arithmetic shows here."""
    config = ExperimentConfig(seed=20260808, n_datasets=20)
    table = run_experiment(config)
    paths = emit_outputs(table, analyze(table), config, tmp_path)
    digests = {
        name: hashlib.sha256(paths[name].read_bytes()).hexdigest()
        for name in ("error_rates", "stats_report")
    }
    assert digests == {
        "error_rates": "766e245df3234fd8062bc7ac7b879857e5fe05b6a37bac09154cc197256a48a2",
        "stats_report": "d7b9d0a70a391696be4b42a21045355bae39d3f31729b5e7083763170ee2c134",
    }


class TestConfigValidation:
    def test_rejects_empty_methods(self):
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig(seed=0, methods=())

    def test_rejects_single_dataset(self):
        with pytest.raises(ValueError, match="n_datasets"):
            ExperimentConfig(seed=0, n_datasets=1)

    def test_scale_lookup(self):
        cfg = ExperimentConfig(seed=0)
        assert cfg.scale_for(Method.DMOV1) == 1.0
        assert cfg.scale_for(Method.DCA2) == 100.0
        with pytest.raises(ValueError):
            cfg.scale_for(Method.LNC)
