"""Frequency-domain view of the fixed-width filters.

Two discrete-time gains are evaluated here: H_S, the gain of a width-W sliding
average, and |H_S|^2, the in-band gain of a width-W filter that reports every
W steps.  The second is one DCA cell with csm = 1 and lifespan W, which gives
every instance its window's sum: divided by W, its response to exp(j*w*t),
projected on exp(j*w*t), is |H_S|^2, real, so the cell adds no phase.  The
rest of its output power, |H_S|^2 - |H_S|^4, lands on aliases of w.
Frequencies are in radians per sample step; sweeps cover [0, pi].
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import whole_number, write_lines


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
    width = whole_number(width, "window width", 1)
    if width > x.shape[0]:
        raise ValueError(f"window width {width} exceeds input length {x.shape[0]}")
    windows = np.lib.stride_tricks.sliding_window_view(x, width)
    return windows.mean(axis=1)


def _gains(width: int, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both filters' gains at each of ``omegas``, H_S complex and |H_S|^2
    real, for about 1,024 / W frequencies at a time."""
    width = whole_number(width, "window width", 1)
    g, rows = np.arange(width), max(1, 1024 // width)
    blocks = np.split(omegas, np.arange(rows, len(omegas), rows))
    sliding = np.concatenate([np.exp(-1j * g * b[:, None]).sum(axis=1) for b in blocks]) / width
    return sliding, np.abs(sliding) ** 2


def sliding_window_gain(width: int, omega: float) -> FrequencyResponse:
    """Gain of the width-W sliding average: (1/W) sum_g exp(-j g w)."""
    return FrequencyResponse(float(omega), complex(_gains(width, np.array([omega]))[0][0]))


def dc_gain(width: int, omega: float) -> FrequencyResponse:
    """In-band gain of the width-W present-every-W filter:
    |H_S(w)|^2 = (1/W^2) sum_g sum_b exp(-j w (b - g))."""
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
    rows = (f"{int(width)},{w!r},{abs(s)!r},{abs(d)!r}" for width in widths
            for w, s, d in zip(omegas.tolist(), *map(np.ndarray.tolist, _gains(width, omegas))))
    return write_lines(path, chain(["W,omega,G_S_mag,G_D_mag"], rows))
