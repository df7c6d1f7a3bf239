"""Command-line front end.

Commands, given before or after the flags:

* ``generate``    - write the benchmark suite's dataset CSVs
* ``run``         - run the experiment and write error_rates.csv
* ``analyze``     - run the statistical battery on an existing error_rates.csv
* ``sweep-gains`` - tabulate the filter transfer functions
* ``all``         - run + analyze + sweep-gains in one go

Settings resolve in three layers: built-in defaults, then a ``key=value``
config file (``--config``), then explicit flags.  Exit code is 0 on success
and nonzero with a diagnostic on stderr otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .datagen import centroid_distance, write_dataset_csv
from .freq import write_gain_sweeps
from .harness import ExperimentConfig

_CONFIG = ExperimentConfig(seed=1)
#: Each setting's default and help text.  Its flag is ``--`` plus the key with
#: ``-`` for ``_``; the default's type casts the flag's and the file's values.
_SETTINGS = {
    "seed": (_CONFIG.seed, "suite seed"),
    "datasets": (_CONFIG.n_datasets, "number of datasets in the suite"),
    "out": ("out", "output directory"),
    "methods": (",".join(map(str, _CONFIG.methods)), "comma-separated method list"),
    "lambda": (f"{_CONFIG.lambda_low},{_CONFIG.lambda_high}",
               "scale factors LOW[,HIGH] for the *1/*2 parameterizations"),
    "name": ("suite", "suite name used in dataset file names"),
    "svm_c": (_CONFIG.svm_c, "SVM regularization bound"),
    "window_grid": (_CONFIG.window_grid, "|A|"),
    "threshold_grid": (_CONFIG.threshold_grid, "|B|"),
    "n_train": (_CONFIG.n_train, "training instances"),
    "n_test": (_CONFIG.n_test, "test instances"),
}


def _read_config_file(path: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        cast, value = type(_SETTINGS[key][0]), value.strip()
        try:
            values[key] = cast(value)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: {key} expects {cast.__name__}, got {value!r}"
            ) from None
    return values


def _parse_lambda(text: str, high: float) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) > 2 or not all(part.strip() for part in parts):
        raise ValueError(f"--lambda takes one or two comma-separated values, got {text!r}")
    return float(parts[0]), float(parts[1]) if len(parts) == 2 else high


def _parse_methods(text: str) -> tuple[str, ...]:
    """The method names; ``ExperimentConfig`` names any it does not know."""
    return tuple(token.strip() for token in text.split(",") if token.strip())


def _resolve(args: argparse.Namespace) -> dict:
    settings = {key: default for key, (default, _) in _SETTINGS.items()}
    if args.config:
        settings.update(_read_config_file(args.config))
    # A one-value --lambda keeps the high scale of the file, or of the defaults.
    _, high = _parse_lambda(settings["lambda"], _CONFIG.lambda_high)
    settings.update((key, flag) for key in _SETTINGS if (flag := getattr(args, key)) is not None)
    settings["lambda"] = _parse_lambda(settings["lambda"], high)
    return settings


def _experiment_config(settings: dict) -> ExperimentConfig:
    lam_low, lam_high = settings["lambda"]
    return ExperimentConfig(
        seed=settings["seed"],
        n_datasets=settings["datasets"],
        methods=_parse_methods(settings["methods"]),
        svm_c=settings["svm_c"],
        window_grid=settings["window_grid"],
        threshold_grid=settings["threshold_grid"],
        lambda_low=lam_low,
        lambda_high=lam_high,
        n_train=settings["n_train"],
        n_test=settings["n_test"],
    )


def _cmd_generate(settings: dict) -> int:
    cfg = _experiment_config(settings)
    out = Path(settings["out"])
    for index, dataset in enumerate(cfg.datasets()):  # each freed once written
        write_dataset_csv(dataset, out, settings["name"], index)
    print(f"wrote {2 * cfg.n_datasets} dataset files to {out}")
    return 0


def _cmd_run(settings: dict) -> int:
    cfg = _experiment_config(settings)
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    results = harness.run_experiment(cfg)
    path = results.write_csv(out / "error_rates.csv")
    print(f"wrote {path}")
    return 0


def _cmd_analyze(settings: dict) -> int:
    cfg = _experiment_config(settings)
    out = Path(settings["out"])
    results_path = out / "error_rates.csv"
    if not results_path.exists():
        raise FileNotFoundError(f"no results at {results_path}; run `run` first")
    results = harness.ResultsTable.read_csv(results_path)
    table = (len(results.dataset_indexes()), results.methods())
    if table != (cfg.n_datasets, cfg.methods):
        raise ValueError(
            f"{results_path} has {table[0]} datasets of {','.join(map(str, table[1]))}, but the "
            f"settings give {cfg.n_datasets} of {','.join(map(str, cfg.methods))}; "
            "pass analyze the flags given to run"
        )
    # The table stores each dataset's centroid distance by repr, so the suite
    # of these settings reproduces it exactly or is not the suite run used.
    expected = {k: centroid_distance(ds.train, ds.test) for k, ds in enumerate(cfg.datasets())}
    for index, stored in zip(results.dataset_indexes(), results.distances().tolist()):
        if stored != expected.get(index):
            raise ValueError(
                f"{results_path}: dataset {index} has centroid distance {stored!r}, but the "
                f"suite of these settings gives {expected.get(index)!r}; pass analyze the "
                "--seed, --n-train and --n-test given to run"
            )
    report = harness.analyze(results)
    harness.write_stats_report(report, out / "stats_report.csv")
    harness.write_summary(report, cfg, out / "summary.txt")
    print(f"wrote {out / 'stats_report.csv'} and {out / 'summary.txt'}")
    return 0


def _cmd_sweep_gains(settings: dict) -> int:
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    path = write_gain_sweeps(out / "gain_sweeps.csv")
    print(f"wrote {path}")
    return 0


def _cmd_all(settings: dict) -> int:
    cfg = _experiment_config(settings)
    Path(settings["out"]).mkdir(parents=True, exist_ok=True)  # a bad --out fails before the run
    results = harness.run_experiment(cfg)
    report = harness.analyze(results)
    paths = harness.emit_outputs(results, report, cfg, settings["out"])
    for path in paths.values():
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "sweep-gains": _cmd_sweep_gains,
    "all": _cmd_all,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windowlab",
        description="Benchmark window-filtered linear classifiers and the "
        "deterministic dendritic-cell detector on noisy time-ordered data.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="key=value settings file")
    for key, (default, text) in _SETTINGS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                            help=f"{text} (default {default})")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _resolve(args)
        return _COMMANDS[args.command](settings)
    except Exception as exc:
        print(f"windowlab {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
