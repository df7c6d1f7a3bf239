"""Frequency-domain view of the fixed-width filters.

Two discrete-time transfer functions are evaluated here: the gain of a
width-W sliding average, and the gain of a width-W filter that only reports
every W steps (the fixed-window idealization of an accumulating cell, whose
subsampling folds W aliased copies of the spectrum back onto the output).
Frequencies are in radians per sample step; sweeps cover [0, pi].
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class FrequencyResponse:
    """Complex gain of a filter at one angular frequency."""

    omega: float
    gain: complex

    @property
    def magnitude(self) -> float:
        return abs(self.gain)


def sliding_window_output(values, width: int) -> np.ndarray:
    """Width-W running means; output t covers input samples t-W+1..t.

    Only fully covered positions are emitted, so the result has
    ``len(values) - width + 1`` entries (the first corresponds to time
    index ``width``).
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("input must be 1-d")
    if width < 1:
        raise ValueError(f"window width must be >= 1, got {width}")
    if width > x.shape[0]:
        raise ValueError(f"window width {width} exceeds input length {x.shape[0]}")
    windows = np.lib.stride_tricks.sliding_window_view(x, width)
    return windows.mean(axis=1)


def sliding_window_gain(width: int, omega: float) -> FrequencyResponse:
    """Gain of the width-W sliding average: (1/W) sum_g exp(-j g w)."""
    if width < 1:
        raise ValueError(f"window width must be >= 1, got {width}")
    g = np.arange(width)
    gain = complex(np.exp(-1j * g * omega).sum() / width)
    return FrequencyResponse(float(omega), gain)


def dc_gain(width: int, omega: float) -> FrequencyResponse:
    """Gain of the width-W present-every-W filter:
    (1/W^2) sum_g sum_b exp(-j b (w + 2 g pi))."""
    if width < 1:
        raise ValueError(f"window width must be >= 1, got {width}")
    b = np.arange(width)
    shifted = omega + 2.0 * np.pi * np.arange(width)
    gain = complex(np.exp(-1j * np.outer(b, shifted)).sum() / width**2)
    return FrequencyResponse(float(omega), gain)


def write_gain_sweeps(
    path, widths: Sequence[int] = (2, 4, 8, 16), n_points: int = 256
) -> Path:
    """CSV of |gain| for both filters per width, on the even frequency grid
    k*pi/(n_points-1), k=0..n_points-1."""
    if n_points < 2:
        raise ValueError(f"a sweep needs at least 2 points, got {n_points}")
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("W,omega,G_S_mag,G_D_mag\n")
        for width in widths:
            for k in range(n_points):
                omega = k * np.pi / (n_points - 1)
                fh.write(
                    f"{width},{omega!r},{sliding_window_gain(width, omega).magnitude!r},"
                    f"{dc_gain(width, omega).magnitude!r}\n"
                )
    return path
