"""Window-filtered linear classification and immune-inspired anomaly detection
on noisy, time-ordered two-class data, with the statistical machinery to
compare the approaches across a separability sweep."""

__version__ = "0.1.0"
