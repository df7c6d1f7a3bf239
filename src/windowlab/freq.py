"""Frequency-domain view of the fixed-width filters.

Two discrete-time transfer functions are evaluated here: the gain of a
width-W sliding average, and the gain of a width-W filter that only reports
every W steps (the fixed-window idealization of an accumulating cell).  As
specified, the second's W copies are shifted by whole turns 2*pi*g, and
exp(-j*2*pi*b*g) = 1 for whole b and g, so it equals the sliding gain exactly:
the sweep's two columns differ by rounding alone, at most 1.3e-14.
Frequencies are in radians per sample step; sweeps cover [0, pi].
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import write_lines


class FrequencyResponse(NamedTuple):
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


def _gains(width: int, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both filters' complex gains at each of ``omegas``, by the formulas
    below, for about 1,024 / W^2 frequencies at a time."""
    if width < 1:
        raise ValueError(f"window width must be >= 1, got {width}")
    g, rows = np.arange(width), max(1, 1024 // width**2)
    sliding, dc = [], []
    for block in np.split(omegas, np.arange(rows, len(omegas), rows)):
        sliding.append(np.exp(-1j * g * block[:, None]).sum(axis=1))
        shifted = block[:, None, None] + 2.0 * np.pi * g
        dc.append(np.exp(-1j * (g[:, None] * shifted)).reshape(len(block), -1).sum(axis=1))
    return np.concatenate(sliding) / width, np.concatenate(dc) / width**2


def sliding_window_gain(width: int, omega: float) -> FrequencyResponse:
    """Gain of the width-W sliding average: (1/W) sum_g exp(-j g w)."""
    return FrequencyResponse(float(omega), complex(_gains(width, np.array([omega]))[0][0]))


def dc_gain(width: int, omega: float) -> FrequencyResponse:
    """Gain of the width-W present-every-W filter:
    (1/W^2) sum_g sum_b exp(-j b (w + 2 g pi))."""
    return FrequencyResponse(float(omega), complex(_gains(width, np.array([omega]))[1][0]))


def write_gain_sweeps(
    path, widths: Sequence[int] = (2, 4, 8, 16), n_points: int = 256
) -> Path:
    """CSV of |gain| for both filters per width, on the even frequency grid
    k*pi/(n_points-1), k=0..n_points-1.  Magnitudes are Python's
    ``abs(complex)``, which ``np.abs`` differs from in the last place."""
    if n_points < 2:
        raise ValueError(f"a sweep needs at least 2 points, got {n_points}")
    omegas = np.arange(n_points) * np.pi / (n_points - 1)
    rows = (f"{width},{w!r},{abs(s)!r},{abs(d)!r}" for width in widths
            for w, s, d in zip(omegas.tolist(), *map(np.ndarray.tolist, _gains(width, omegas))))
    return write_lines(path, chain(["W,omega,G_S_mag,G_D_mag"], rows))
