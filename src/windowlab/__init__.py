"""Window-filtered linear classification and immune-inspired anomaly detection
on noisy, time-ordered two-class data, with the statistical machinery to
compare the approaches across a separability sweep."""

__version__ = "0.1.0"

from .datagen import Dataset, GeneratorConfig, generate_benchmark_suite, generate_dataset
from .harness import AnalysisReport, ExperimentConfig, Method, ResultsTable, analyze, run_experiment
from .svm import LinearModel, ScoreSeries, train

__all__ = [
    "AnalysisReport",
    "Dataset",
    "ExperimentConfig",
    "GeneratorConfig",
    "LinearModel",
    "Method",
    "ResultsTable",
    "ScoreSeries",
    "analyze",
    "generate_benchmark_suite",
    "generate_dataset",
    "run_experiment",
    "train",
]
