"""Command-line front end.

Subcommands:

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
from .datagen import write_dataset_csv, generate_benchmark_suite
from .freq import write_gain_sweeps
from .harness import ALL_METHODS, ExperimentConfig, Method

_CONFIG = ExperimentConfig(seed=1)
_DEFAULTS = {
    "seed": _CONFIG.seed,
    "datasets": _CONFIG.n_datasets,
    "out": "out",
    "methods": ",".join(str(m) for m in _CONFIG.methods),
    "lambda": f"{_CONFIG.lambda_low},{_CONFIG.lambda_high}",
    "name": "suite",
    "svm_c": _CONFIG.svm_c,
    "window_grid": _CONFIG.window_grid,
    "threshold_grid": _CONFIG.threshold_grid,
    "n_train": _CONFIG.n_train,
    "n_test": _CONFIG.n_test,
}

_CASTS = {key: type(value) for key, value in _DEFAULTS.items()}


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
        if key not in _CASTS:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        values[key] = _CASTS[key](value.strip())
    return values


def _parse_lambda(text: str) -> tuple[float, float]:
    parts = [p for p in str(text).split(",") if p != ""]
    if len(parts) == 1:
        return float(parts[0]), _CONFIG.lambda_high
    if len(parts) == 2:
        return float(parts[0]), float(parts[1])
    raise ValueError(f"--lambda takes one or two comma-separated values, got {text!r}")


def _parse_methods(text: str) -> tuple[Method, ...]:
    try:
        return tuple(Method(token.strip()) for token in text.split(",") if token.strip())
    except ValueError:
        valid = ", ".join(str(m) for m in ALL_METHODS)
        raise ValueError(f"unknown method in {text!r}; valid methods: {valid}") from None


def _resolve(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        settings.update(_read_config_file(args.config))
    for key in _CASTS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _experiment_config(settings: dict) -> ExperimentConfig:
    lam_low, lam_high = _parse_lambda(settings["lambda"])
    return ExperimentConfig(
        seed=int(settings["seed"]),
        n_datasets=int(settings["datasets"]),
        methods=_parse_methods(settings["methods"]),
        svm_c=float(settings["svm_c"]),
        window_grid=int(settings["window_grid"]),
        threshold_grid=int(settings["threshold_grid"]),
        lambda_low=lam_low,
        lambda_high=lam_high,
        n_train=int(settings["n_train"]),
        n_test=int(settings["n_test"]),
    )


def _cmd_generate(settings: dict) -> int:
    cfg = _experiment_config(settings)
    out = Path(settings["out"])
    suite = generate_benchmark_suite(cfg.n_datasets, cfg.base_generator_config(), cfg.seed)
    for index, dataset in enumerate(suite):
        write_dataset_csv(dataset, out, settings["name"], index)
    print(f"wrote {2 * len(suite)} dataset files to {out}")
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
    report = harness.analyze(results, cfg.significance)
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
    results = harness.run_experiment(cfg)
    report = harness.analyze(results, cfg.significance)
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value settings file")
        p.add_argument("--seed", type=int, help="suite seed")
        p.add_argument("--datasets", type=int, help="number of datasets in the suite")
        p.add_argument("--out", help="output directory")
        p.add_argument("--methods", help="comma-separated method list")
        p.add_argument(
            "--lambda",
            dest="lambda",
            metavar="LOW[,HIGH]",
            help="scale factors for the *1/*2 parameterizations (default 1,100)",
        )
        p.add_argument("--name", help="suite name used in dataset file names")
        p.add_argument("--svm-c", dest="svm_c", type=float, help="SVM regularization bound")
        p.add_argument("--window-grid", dest="window_grid", type=int, help="|A|")
        p.add_argument("--threshold-grid", dest="threshold_grid", type=int, help="|B|")
        p.add_argument("--n-train", dest="n_train", type=int, help="training instances")
        p.add_argument("--n-test", dest="n_test", type=int, help="test instances")
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
