"""Window-filtered linear classification and immune-inspired anomaly detection
on noisy, time-ordered two-class data, with the statistical machinery to
compare the approaches across a separability sweep."""

from pathlib import Path

__version__ = "0.1.0"


class Record:
    """Base of the value records: equal when of one type with equal attributes.
    Records are plain classes, so that import compiles no generated methods."""

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


def whole_number(value, name: str, least: int) -> int:
    """``value`` as an int, if a whole number >= ``least`` (an int may exceed any float)."""
    if not ((isinstance(value, int) or float(value).is_integer()) and value >= least):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value}")
    return int(value)


def write_lines(path, lines) -> Path:
    """Write each of ``lines`` to ``path`` as it comes, ended by "\\n": every
    file windowlab writes is UTF-8 with "\\n" line endings on every platform."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)
    return path
