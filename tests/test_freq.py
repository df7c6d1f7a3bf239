import tracemalloc

import numpy as np
import pytest

import oracles
from windowlab import write_lines
from windowlab.freq import (
    FrequencyResponse,
    dc_gain,
    sliding_window_gain,
    sliding_window_output,
    write_gain_sweeps,
)
from windowlab.windows import ensemble_votes


class TestSlidingWindowOutput:
    def test_constant_input(self):
        out = sliding_window_output(np.full(10, 3.25), 4)
        assert out.shape == (7,)
        assert np.allclose(out, 3.25)

    def test_alternating_pairs_average_to_half(self):
        out = sliding_window_output(np.tile([0.0, 1.0], 8), 2)
        assert np.allclose(out, 0.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 40)
        assert np.allclose(sliding_window_output(x, 5), oracles.sliding_means(x, 5), atol=1e-12)

    def test_output_alignment(self):
        # First emitted value covers exactly the first W samples.
        x = np.arange(10.0)
        out = sliding_window_output(x, 3)
        assert out[0] == pytest.approx(1.0)  # mean of 0,1,2
        assert out[-1] == pytest.approx(8.0)  # mean of 7,8,9

    def test_width_bounds(self):
        with pytest.raises(ValueError, match="exceeds"):
            sliding_window_output(np.zeros(3), 4)
        with pytest.raises(ValueError, match=">= 1"):
            sliding_window_output(np.zeros(3), 0)


class TestSlidingWindowGain:
    def test_dc_unity(self):
        for width in (1, 2, 5, 16):
            assert sliding_window_gain(width, 0.0).gain == pytest.approx(1.0)

    def test_two_sample_null_at_pi(self):
        assert abs(sliding_window_gain(2, np.pi).gain) < 1e-12

    def test_eight_sample_null_at_fundamental(self):
        assert sliding_window_gain(8, 2 * np.pi / 8).magnitude < 1e-12

    @pytest.mark.parametrize("width", [2, 3, 8, 13])
    def test_matches_boxcar_dft(self, width):
        # The gain at the DFT bin frequencies equals the DFT of the kernel.
        kernel = np.ones(width) / width
        padded = np.concatenate([kernel, np.zeros(64 - width)])
        spectrum = np.fft.fft(padded)
        for k in range(33):
            omega = 2 * np.pi * k / 64
            assert sliding_window_gain(width, omega).gain == pytest.approx(
                spectrum[k], abs=1e-12
            )

    @pytest.mark.parametrize("width", range(1, 17))
    def test_magnitude_never_exceeds_one(self, width):
        for omega in np.linspace(0, np.pi, 101):
            assert sliding_window_gain(width, float(omega)).magnitude <= 1 + 1e-12

    def test_extended_precision_oracle(self):
        for width in (2, 5, 9):
            for omega in np.linspace(0, np.pi, 17):
                ref = oracles.mp_sliding_gain(width, float(omega))
                assert abs(sliding_window_gain(width, float(omega)).gain - ref) < 1e-12


class TestDcGain:
    def test_width_one_is_identity(self):
        for omega in (0.0, 0.5, np.pi):
            assert dc_gain(1, omega).gain == pytest.approx(1.0)

    def test_dc_value_is_unity(self):
        # At omega = 0 every aliased copy contributes a full-weight sum.
        for width in (2, 3, 8):
            assert dc_gain(width, 0.0).gain == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("width", [2, 4, 7, 12, 16])
    def test_extended_precision_oracle(self, width):
        for omega in np.linspace(0, np.pi, 33):
            ref = oracles.mp_dc_gain(width, float(omega))
            assert abs(dc_gain(width, float(omega)).gain - ref) < 1e-12

    @pytest.mark.parametrize("width", [2, 3, 4, 8, 16])
    def test_one_cell_presenting_every_w_steps_has_this_gain(self, width):
        # csm = 1 and lifespan W: every instance gets the sum of its W-long
        # window, so exp(j*w*t) projected back on itself over 1,024 windows,
        # divided by W, is the cell's in-band gain.
        t = np.arange(1024 * width)
        for omega in np.linspace(0, np.pi, 17):
            ones, x = np.ones(t.size), np.exp(1j * omega * t)
            out = ensemble_votes(ones, x.real, [width]) + 1j * ensemble_votes(ones, x.imag, [width])
            in_band = np.mean(out * x.conj()) / width
            assert abs(in_band - dc_gain(width, float(omega)).gain) < 1e-12


class TestSinusoidSteadyState:
    @pytest.mark.parametrize("width,cycles", [(2, 3), (4, 5), (8, 3)])
    def test_amplitude_matches_gain_magnitude(self, width, cycles):
        period = 16
        omega = 2 * np.pi * cycles / period
        t = np.arange(1, 20 * period + width)
        out = sliding_window_output(np.sin(omega * t), width)
        out = out[: (out.size // period) * period]
        # Project onto the complex exposure at omega over whole periods.
        phases = np.exp(-1j * omega * np.arange(out.size))
        amplitude = 2 * abs(np.mean(out * phases))
        assert amplitude == pytest.approx(
            sliding_window_gain(width, omega).magnitude, abs=1e-6
        )


def sweep_rows(path, widths, n_points):
    """``gain_sweeps.csv`` rows as (W, omega, |G_S|, |G_D|) tuples."""
    lines = write_gain_sweeps(path, widths=widths, n_points=n_points).read_text().splitlines()
    return [(int(w), *map(float, rest)) for w, *rest in (line.split(",") for line in lines[1:])]


class TestGainSweep:
    def test_two_point_sweep_hits_endpoints(self, tmp_path):
        rows = sweep_rows(tmp_path / "gains.csv", (4,), 2)
        assert [row[1] for row in rows] == pytest.approx([0.0, np.pi])

    def test_first_row_always_unity(self, tmp_path):
        rows = sweep_rows(tmp_path / "gains.csv", (2, 4, 8), 9)
        for first in rows[::9]:
            assert first[2] == pytest.approx(1.0)

    def test_sweep_matches_pointwise_calls(self, tmp_path):
        rows = sweep_rows(tmp_path / "gains.csv", (3,), 5)
        assert len(rows) == 5
        for width, omega, sliding, cell in rows:
            assert sliding == sliding_window_gain(width, omega).magnitude
            assert cell == dc_gain(width, omega).magnitude

    def test_present_every_w_gain_is_the_squared_sliding_gain(self, tmp_path):
        rows = sweep_rows(tmp_path / "gains.csv", (2, 4, 8, 16), 256)
        assert len(rows) == 4 * 256
        for width, omega, sliding, cell in rows:
            squared = sliding_window_gain(width, omega).magnitude ** 2
            assert abs(dc_gain(width, omega).gain - squared) <= 1e-15
            assert abs(cell - sliding**2) <= 1e-12

    def test_rejects_short_sweep(self, tmp_path):
        with pytest.raises(ValueError):
            write_gain_sweeps(tmp_path / "gains.csv", widths=(3,), n_points=1)

    def test_default_sweep_memory_is_blocked(self, tmp_path):
        # H_S goes about 1,024 / W frequencies at a time, so no width's
        # whole sweep is ever held as one array of terms.
        write_gain_sweeps(tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            write_gain_sweeps(tmp_path / "gains.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * 1024

    def test_csv_output(self, tmp_path):
        path = write_gain_sweeps(tmp_path / "gains.csv", widths=(2, 4), n_points=5)
        lines = path.read_text().splitlines()
        assert lines[0] == "W,omega,G_S_mag,G_D_mag"
        assert len(lines) == 1 + 2 * 5
        first = lines[1].split(",")
        assert first[0] == "2"
        assert float(first[1]) == 0.0
        assert float(first[2]) == pytest.approx(1.0)


class TestWholeWidths:
    @pytest.mark.parametrize("width, shown", [(2.5, "2.5"), (True, "True"), ("3", "'3'"), (0, "0")])
    def test_every_entry_point_names_a_width_that_is_not_whole(self, tmp_path, width, shown):
        message = f"window width must be a whole number >= 1, got {shown}$"
        for call in (lambda: sliding_window_gain(width, 0.0), lambda: dc_gain(width, 0.3),
                     lambda: sliding_window_output(np.zeros(8), width),
                     lambda: write_gain_sweeps(tmp_path / "g.csv", widths=(width,), n_points=3)):
            with pytest.raises(ValueError, match=message):
                call()
        assert list(tmp_path.iterdir()) == []

    def test_a_whole_float_width_is_that_int(self, tmp_path):
        assert np.array_equal(sliding_window_output(np.arange(6.0), 3.0),
                              sliding_window_output(np.arange(6.0), 3))
        as_float, as_int = (write_gain_sweeps(tmp_path / f"{w}.csv", widths=(w,), n_points=3)
                            for w in (4.0, 4))
        assert as_float.read_bytes() == as_int.read_bytes()


def test_frequency_response_magnitude():
    resp = FrequencyResponse(0.5, 3 + 4j)
    assert resp.magnitude == pytest.approx(5.0)


class TestWholeFileWrites:
    def test_a_sweep_that_raises_leaves_no_file(self, tmp_path):
        # It used to leave g.csv with its header and the four W=2 rows.
        with pytest.raises(ValueError, match="window width must be a whole number >= 1, got 0"):
            write_gain_sweeps(tmp_path / "g.csv", widths=(2, 0), n_points=4)
        assert list(tmp_path.iterdir()) == []

    def test_a_failing_rewrite_keeps_the_old_bytes(self, tmp_path):
        old = write_gain_sweeps(tmp_path / "g.csv", widths=(3,), n_points=2).read_bytes()
        with pytest.raises(ValueError):
            write_gain_sweeps(tmp_path / "g.csv", widths=(2, 0), n_points=4)
        assert (tmp_path / "g.csv").read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["g.csv"]

    def test_a_good_write_gives_its_lines_and_nothing_else(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_bytes(b"a longer file that the new one must not keep any part of\n" * 50)
        assert write_lines(path, iter(["x,y", "1,2.5", "\u00e9"])) == path
        assert path.read_bytes() == "x,y\n1,2.5\n\u00e9\n".encode()
        fresh = write_gain_sweeps(tmp_path / "fresh.csv", widths=(2, 4), n_points=5).read_bytes()
        assert write_gain_sweeps(path, widths=(2, 4), n_points=5).read_bytes() == fresh
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "g.csv"]
