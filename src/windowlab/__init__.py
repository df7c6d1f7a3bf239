"""Window-filtered linear classification and immune-inspired anomaly detection
on noisy, time-ordered two-class data, with the statistical machinery to
compare the approaches across a separability sweep."""

import os
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
    """``value`` as an int, if a whole number >= ``least`` (an int may exceed any float).
    A bool (Python's or numpy's), a str or None is no number."""
    try:  # a str or None fails the comparison
        if (type(value).__name__ != "bool" and value >= least
                and (isinstance(value, int) or float(value).is_integer())):
            return int(value)
    except (TypeError, ValueError):
        pass
    shown = repr(value) if isinstance(value, str) else value
    raise ValueError(f"{name} must be a whole number >= {least}, got {shown}")


def write_lines(path, lines) -> Path:
    """Write each of ``lines`` to ``path`` as it comes, ended by "\\n": every
    file windowlab writes is UTF-8 with "\\n" line endings on every platform.
    A temporary file beside ``path`` replaces it once whole, so ``path`` is never cut short."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            fh.writelines(line + "\n" for line in lines)
        return tmp.replace(path)
    except BaseException:  # an interrupt too: no temporary file is left behind
        tmp.unlink(missing_ok=True)
        raise
