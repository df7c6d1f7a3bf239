import hashlib
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from windowlab import dca, harness, svm
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
from windowlab.stats import PairedSample, paired_t_test

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

    @pytest.mark.parametrize(
        "methods, trains, scorings, preprocesses",
        [
            ((Method.DCA1, Method.DCA2), 0, 0, 1),
            ((Method.LNC,), 1, 1, 0),
            (ALL_METHODS, 1, 2, 1),
        ],
    )
    def test_computes_each_shared_input_once_and_only_when_needed(
        self, monkeypatch, methods, trains, scorings, preprocesses
    ):
        calls = {"train": 0, "score_series": 0, "preprocess": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(svm, "train")
        counted(svm, "score_series")
        counted(dca, "preprocess")
        two_dataset_run(methods)
        per_dataset = {name: count / 2 for name, count in calls.items()}
        assert per_dataset == {"train": trains, "score_series": scorings, "preprocess": preprocesses}

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

    def test_each_dataset_is_freed_before_the_next_model_trains(self, monkeypatch):
        from windowlab import harness as hmod

        splits, models, freed = [], [], []
        generate, train = hmod.generate_benchmark_suite, svm.train

        def tracked_suite(*args):
            suite = generate(*args)
            splits.extend((weakref.ref(ds.train), weakref.ref(ds.test)) for ds in suite)
            return suite

        def tracked_train(series, **kwargs):
            k = next(k for k, (ref, _) in enumerate(splits) if ref() is series)
            freed.append(k == 0 or all(ref() is None for ref in splits[k - 1]))
            models.append(train(series, **kwargs))
            return models[-1]

        monkeypatch.setattr(hmod, "generate_benchmark_suite", tracked_suite)
        monkeypatch.setattr(hmod.svm_mod, "train", tracked_train)
        _, details = run_experiment_detailed(ExperimentConfig(seed=5, n_datasets=3, **SMALL))
        assert freed == [True, True, True]
        assert [d[Method.LNC].model for d in details] == models

    def test_run_experiment_frees_each_model_before_the_next_trains(self, monkeypatch):
        from windowlab import harness as hmod

        models, freed, train = [], [], svm.train

        def tracked_train(series, **kwargs):
            freed.append(all(ref() is None for ref in models))
            model = train(series, **kwargs)
            models.append(weakref.ref(model))
            return model

        monkeypatch.setattr(hmod.svm_mod, "train", tracked_train)
        table = run_experiment(ExperimentConfig(seed=5, n_datasets=3, **SMALL))
        assert freed == [True, True, True]
        assert all(ref() is None for ref in models)
        assert all(row.model is None for row in table.rows)

    @staticmethod
    def traced_peak(n_datasets, methods, **settings):
        """tracemalloc's peak over one ``run_experiment`` of 8,000-instance splits."""
        cfg = ExperimentConfig(seed=5, n_datasets=n_datasets, methods=methods,
                               n_train=8000, n_test=8000, **settings)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_holds_one_dataset_of_splits_at_a_time(self):
        # Six 8,000-instance datasets against two: the peak may grow by less
        # than one split's feature block (128,000 B), where a suite drawn whole
        # adds four datasets' splits (about 1.1 MB).  It runs DCA2 alone because
        # tables once kept every SVM model's dual weights (64,000 B each); the
        # next test bounds the SVM path now that they do not.
        def peak(n_datasets):
            return self.traced_peak(n_datasets, (Method.DCA2,), threshold_grid=10)

        peak(2)  # warm caches
        assert peak(6) - peak(2) < 16 * 8000

    def test_peak_memory_keeps_no_model_past_its_dataset(self):
        # LNC and SMOV on six 8,000-instance datasets against two: the peak may
        # grow by less than one model's dual weights (64,000 B), where a table
        # that keeps its models holds four more of them.
        def peak(n_datasets):
            return self.traced_peak(n_datasets, (Method.LNC, Method.SMOV), window_grid=10)

        peak(2)  # warm caches
        assert peak(6) - peak(2) < 8 * 8000

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

    def test_a_crlf_copy_reads_as_the_table(self, small_table, tmp_path):
        table, _ = small_table
        lf = table.write_csv(tmp_path / "error_rates.csv").read_bytes()
        (crlf := tmp_path / "crlf.csv").write_bytes(lf.replace(b"\n", b"\r\n"))
        assert ResultsTable.read_csv(crlf) == table

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

    def test_rejects_non_finite_distance(self, small_table, tmp_path):
        table, _ = small_table
        path = table.write_csv(tmp_path / "error_rates.csv")
        lines = path.read_text().splitlines()
        lines[4] = ",".join(["0", "inf", *lines[4].split(",")[2:]])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="csv:5: centroid distance inf is not finite"):
            ResultsTable.read_csv(path)


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

    @pytest.mark.parametrize("n, notes", [
        (6, ("degenerate: zero variance", "")),
        (2, ("Shapiro-Wilk needs 3 to 5000 values; got 2",) * 2),
    ])
    def test_an_untested_normality_row_says_why(self, n, notes):
        # LNC's errors are constant, SMOV's vary; 2 values are too few to test
        rows = [ResultRow(idx, 0.1 * idx, method, 0.1 * idx if method is Method.SMOV else 0.25,
                          None) for idx in range(n) for method in (Method.LNC, Method.SMOV)]
        report = analyze(ResultsTable(tuple(rows)))
        assert report.normality_notes == notes
        assert [rep is None for _, rep in report.normality] == [bool(note) for note in notes]

    def test_gaussian_columns_reach_the_t_test(self, tmp_path):
        # error rates that look normal, 24 datasets of which the first 16 are
        # non-separable; every paired-t row is the t test on its pool's vectors
        rng = np.random.default_rng(3)
        methods = (Method.LNC, Method.SMOV, Method.DMOV2, Method.DCA1)
        columns = {m: rng.normal(0.3 - 0.02 * k, 0.05, 24) for k, m in enumerate(methods)}
        distances = np.where(np.arange(24) < 16, 0.5, 0.7)
        table = ResultsTable(tuple(ResultRow(idx, distances[idx], m, columns[m][idx], None)
                                   for idx in range(24) for m in methods))
        path = write_stats_report(analyze(table), tmp_path / "stats_report.csv")
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        t_rows = [row for row in rows if row[4] == "paired-t"]
        assert {row[1] for row in t_rows} == {"all", "nonseparable"}
        for _, pool, a, b, _, statistic, p_value, alternative, n, note in t_rows:
            mask = slice(None) if pool == "all" else slice(16)
            sample = PairedSample(columns[Method(a)][mask], columns[Method(b)][mask])
            expected = paired_t_test(sample, alternative)
            assert [statistic, p_value, n, note] == [
                repr(expected.statistic), repr(expected.p_value), str(expected.n_effective), ""]

    def test_a_non_finite_error_rate_is_named(self):
        # used to note "Shapiro-Wilk needs 3 to 5000 values; got 10" and rank
        # the nan as a Wilcoxon difference (p = 0.557)
        rows = [ResultRow(idx, 0.1 * idx, method,
                          np.nan if (idx, method) == (4, Method.SMOV) else 0.01 * idx * (1 + k),
                          None)
                for idx in range(10) for k, method in enumerate((Method.LNC, Method.SMOV))]
        with pytest.raises(ValueError, match="Shapiro-Wilk sample is nan at time index 5"):
            analyze(ResultsTable(tuple(rows)))

    def test_missing_cell_is_named(self, small_table, tmp_path):
        table, _ = small_table
        path = table.write_csv(tmp_path / "error_rates.csv")
        lines = path.read_text().splitlines(keepends=True)
        (cut,) = [line for line in lines if line.startswith("2,") and ",DMOV2," in line]
        lines.remove(cut)
        path.write_text("".join(lines))
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
        for name in ("error_rates", "stats_report", "gain_sweeps")
    }
    assert digests == {
        "error_rates": "766e245df3234fd8062bc7ac7b879857e5fe05b6a37bac09154cc197256a48a2",
        "stats_report": "d7b9d0a70a391696be4b42a21045355bae39d3f31729b5e7083763170ee2c134",
        "gain_sweeps": "27a6f208d74464af004c72464e2b178f6d958640e861e2d668273501a4c05381",
    }


class TestConfigValidation:
    def test_rejects_empty_methods(self):
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig(seed=0, methods=())

    def test_rejects_repeated_method(self):
        with pytest.raises(ValueError, match="method SMOV is listed more than once"):
            ExperimentConfig(seed=0, methods=(Method.LNC, Method.SMOV, Method.SMOV))
        with pytest.raises(ValueError, match="method SMOV is listed more than once"):
            ExperimentConfig(seed=0, methods=("SMOV", Method.SMOV))

    def test_rejects_single_dataset(self):
        with pytest.raises(ValueError, match="n_datasets"):
            ExperimentConfig(seed=0, n_datasets=1)

    @pytest.mark.parametrize(
        "setting, value",
        [
            ("lambda_low", 0.0),
            ("lambda_low", float("nan")),
            ("lambda_high", float("inf")),
            ("lambda_high", -1.0),
            ("svm_c", -1.0),
            ("svm_c", float("nan")),
            ("svm_c", float("inf")),  # the solver would stall on dataset 0
            ("window_grid", 0),
            ("threshold_grid", -2),
            ("window_grid", 2.5),
            ("threshold_grid", 0.5),
            ("window_grid", float("nan")),
            ("threshold_grid", float("inf")),
        ],
    )
    def test_rejects_a_bad_setting_by_name(self, setting, value):
        rule = {
            "lambda_low": ": scale factor must be positive and finite,",
            "lambda_high": ": scale factor must be positive and finite,",
            "svm_c": " must be positive and finite,",
            "window_grid": " must be a whole number >= 1,",
            "threshold_grid": " must be a whole number >= 1,",
        }[setting]
        # LNC alone reads none of these settings: they are checked anyway
        with pytest.raises(ValueError, match=re.escape(f"{setting}{rule} got {value}")):
            ExperimentConfig(seed=0, methods=(Method.LNC,), **{setting: value})

    def test_a_whole_float_grid_size_is_used_as_an_integer(self):
        cfg = ExperimentConfig(seed=0, window_grid=3.0, threshold_grid=4.0)
        assert (cfg.window_grid, cfg.threshold_grid) == (3, 4)
        assert type(cfg.window_grid) is int and type(cfg.threshold_grid) is int

    def test_method_names_give_the_table_of_members(self):
        names = ("LNC", "SMOV", "DMOV1", "DCA2")
        by_name = ExperimentConfig(seed=1, n_datasets=2, methods=names, **SMALL)
        by_member = ExperimentConfig(seed=1, n_datasets=2, methods=tuple(map(Method, names)),
                                     **SMALL)
        assert by_name == by_member
        assert all(type(m) is Method for m in by_name.methods)
        assert run_experiment(by_name).rows == run_experiment(by_member).rows

    def test_unknown_method_is_named_before_any_dataset_is_generated(self, monkeypatch):
        def no_suite(*args):
            raise AssertionError("a dataset was generated")

        monkeypatch.setattr(harness, "generate_benchmark_suite", no_suite)
        with pytest.raises(ValueError, match=r"unknown method in \('LNC', 'XYZ'\); valid methods: "
                           r"LNC, SMOV, DMOV1, DMOV2, DCA1, DCA2"):
            ExperimentConfig(seed=1, methods=("LNC", "XYZ"))

    def test_scale_lookup(self):
        cfg = ExperimentConfig(seed=0)
        assert cfg.scale_for(Method.DMOV1) == 1.0
        assert cfg.scale_for(Method.DCA2) == 100.0
        with pytest.raises(ValueError):
            cfg.scale_for(Method.LNC)
