"""Channel model tests: frequency response against a direct DFT sum,
cyclic-prefix/circular-convolution equivalence, tap and noise statistics,
and the shipped five-tap profile."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import circulant

from permofdm import (
    ChannelProfile,
    EqualizerKind,
    FIVE_TAP_PROFILE,
    NoiseSpec,
    ShapeError,
    add_awgn,
    add_cp,
    apply_channel_stream,
    draw_rayleigh_channel,
    equalizer_weights,
    freq_response,
    remove_cp,
)
from permofdm.channel import awgn_draws
from permofdm.errors import PASS_SAMPLES

PROFILE_FILE = Path(__file__).resolve().parents[1] / "profiles" / "paper_sec6.txt"


def rms_delay_spread(profile: ChannelProfile) -> float:
    """Mean-squared delay spread: the power-weighted second central moment
    of the tap delays, in squared sample units."""
    w = profile.mean_powers / profile.mean_powers.sum()
    d = profile.delays.astype(np.float64)
    mean = float(w @ d)
    return float(w @ (d - mean) ** 2)


class TestProfile:
    def test_shipped_file_matches_builtin(self):
        p = ChannelProfile.from_file(PROFILE_FILE)
        assert np.array_equal(p.delays, FIVE_TAP_PROFILE.delays)
        assert np.allclose(p.mean_powers, FIVE_TAP_PROFILE.mean_powers)
        assert p.delays.tolist() == [0, 1, 2, 6, 11]
        assert abs(p.mean_powers.sum() - 1.0) < 1e-12

    def test_validation(self):
        with pytest.raises(ShapeError):
            ChannelProfile(delays=np.array([1, 2]), mean_powers=np.array([0.5, 0.5]))
        with pytest.raises(ShapeError):
            ChannelProfile(delays=np.array([0, 0]), mean_powers=np.array([0.5, 0.5]))
        with pytest.raises(ShapeError):
            ChannelProfile(delays=np.array([0, 1]), mean_powers=np.array([0.5, -0.1]))
        for delays, powers in (([0, 1], [1.0]), ([], []), ([[0, 1]], [[0.5, 0.5]])):
            with pytest.raises(ShapeError, match="equal-length 1-D"):
                ChannelProfile(delays=np.array(delays), mean_powers=np.array(powers))

    @pytest.mark.parametrize("powers", [[np.nan], [np.inf], [0.5, np.nan], [1e308, 1e308]])
    def test_non_finite_powers_rejected(self, powers):
        with pytest.raises(ShapeError, match="finite sum"):
            ChannelProfile(delays=np.arange(len(powers)), mean_powers=np.array(powers))

    def test_bad_file_line(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0 0.5 extra\n")
        with pytest.raises(ShapeError):
            ChannelProfile.from_file(f)

    @pytest.mark.parametrize("content, message", [
        (bytes(range(128, 256)), "not a text file"),
        (b"0 0.5\n0 0.5 extra\n", "2: profile line not 'delay power'"),
        (b"# taps\n0.5 1\n", "2: profile line not 'delay power'"),
        (b"0 oops\n", "1: profile line not 'delay power'"),
    ], ids=["binary", "three-fields", "float-delay", "word-power"])
    def test_bad_file_names_the_file(self, tmp_path, content, message):
        f = tmp_path / "p.txt"
        f.write_bytes(content)
        with pytest.raises(ValueError) as exc:
            ChannelProfile.from_file(f)
        assert str(exc.value).startswith(f"{f}:")
        assert message in str(exc.value)


class TestDelaySpread:
    def test_examples(self):
        single = ChannelProfile(delays=np.array([0]), mean_powers=np.array([1.0]))
        assert rms_delay_spread(single) == 0.0
        two = ChannelProfile(delays=np.array([0, 2]), mean_powers=np.array([0.5, 0.5]))
        assert abs(rms_delay_spread(two) - 1.0) < 1e-12

    def test_five_tap_value(self):
        # hand computation: E[d] = 1.84, E[d^2] = 10.0 -> 10 - 1.84^2 = 6.6144
        v = rms_delay_spread(FIVE_TAP_PROFILE)
        assert abs(v - 6.6144) < 1e-12
        assert abs(v - 6.37) > 0.2  # documented discrepancy with the quoted figure


class TestFreqResponse:
    def test_flat(self):
        assert np.allclose(freq_response(np.array([1.0]), 8), np.ones(8))

    def test_two_tap_hand_example(self):
        h = freq_response(np.array([0.5, 0.5]), 2)
        assert np.allclose(h, np.array([1.0, 0.0]), atol=1e-15)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(20)
        n = 64
        taps = rng.normal(size=12) + 1j * rng.normal(size=12)
        k = np.arange(n)
        want = np.array([np.sum(taps * np.exp(-2j * np.pi * np.arange(12) * kk / n))
                         for kk in k])
        assert np.max(np.abs(freq_response(taps, n) - want)) < 1e-12

    def test_order_must_be_below_n(self):
        with pytest.raises(ShapeError):
            freq_response(np.ones(9), 8)


class TestStreamConvolution:
    def test_identity_and_pure_delay(self):
        x = np.arange(1, 9, dtype=complex)
        assert np.array_equal(apply_channel_stream(x, np.array([1.0])), x)
        delayed = apply_channel_stream(x, np.array([0.0, 1.0]))
        assert np.allclose(delayed, np.concatenate([[0], x[:-1]]))

    def test_direct_convolution_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=30) + 1j * rng.normal(size=30)
        taps = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = apply_channel_stream(x, taps)
        want = np.array([
            sum(taps[m] * x[i - m] for m in range(4) if 0 <= i - m < 30)
            for i in range(30)
        ])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_cp_removal_gives_exact_circular_convolution(self):
        # multi-frame stream; each frame after CP removal must equal the
        # circular convolution of that frame with the taps, no matter what
        # the neighboring frames contain
        rng = np.random.default_rng(22)
        n, n_cp, frames = 64, 16, 3
        taps = draw_rayleigh_channel(FIVE_TAP_PROFILE, rng)
        h = freq_response(taps, n)
        for _ in range(3):  # vary neighbors
            x = rng.normal(size=(frames, n)) + 1j * rng.normal(size=(frames, n))
            stream = add_cp(x, n_cp).reshape(-1)
            rx = apply_channel_stream(stream, taps)
            un = remove_cp(rx.reshape(frames, n + n_cp), n, n_cp)
            want = np.fft.ifft(np.fft.fft(x, axis=1) * h[None, :], axis=1)
            assert np.max(np.abs(un - want)) < 1e-12

    # Lengths at the edges of the PASS_SAMPLES segments, rows over three of
    # them, and a transpose block at n = 256 (69,632 framed samples).
    @pytest.mark.parametrize("size", [1, 11, 12, PASS_SAMPLES - 1, PASS_SAMPLES, PASS_SAMPLES + 1,
                                      PASS_SAMPLES + 11, 2 * PASS_SAMPLES, 3 * PASS_SAMPLES + 5,
                                      256 * 272])
    @pytest.mark.parametrize("t", (1, 12))
    def test_segments_equal_one_full_convolution_bit_for_bit(self, size, t):
        rng = np.random.default_rng(13 * size + t)
        taps = rng.normal(size=(3, t)) + 1j * rng.normal(size=(3, t))
        stream = rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size))
        stacked = apply_channel_stream(stream, taps)
        for row, s, h in zip(stacked, stream, taps):
            want = np.convolve(s, h)[:size]
            assert np.array_equal(row, want)
            assert np.array_equal(apply_channel_stream(s, h), want)


class TestBatchedRows:
    """A stack of blocks, one channel per row, gives each row's own result bit for bit."""

    @staticmethod
    def _taps(rows, seed):
        rng = np.random.default_rng(seed)
        return np.stack([draw_rayleigh_channel(FIVE_TAP_PROFILE, rng)
                         for _ in range(rows)])

    @pytest.mark.parametrize("rows", (1, 2, 7, 30))
    def test_freq_response(self, rows):
        taps = self._taps(rows, 40 + rows)
        for n in (12, 16, 64, 256):
            got = freq_response(taps, n)
            assert got.shape == (rows, n)
            for row, t in zip(got, taps):
                assert np.array_equal(row, freq_response(t, n))
        assert np.array_equal(freq_response(np.ones((rows, 1)), 8), np.ones((rows, 8)))

    @pytest.mark.parametrize("rows", (1, 2, 7, 30))
    def test_apply_channel_stream(self, rows):
        rng = np.random.default_rng(50 + rows)
        taps = self._taps(rows, 60 + rows)
        stream = rng.normal(size=(rows, 272)) + 1j * rng.normal(size=(rows, 272))
        got = apply_channel_stream(stream, taps)
        assert got.shape == stream.shape
        for row, s, t in zip(got, stream, taps):
            assert np.array_equal(row, apply_channel_stream(s, t))

    def test_rows_must_pair_up(self):
        with pytest.raises(ShapeError):
            freq_response(np.ones((2, 3, 4)), 8)
        with pytest.raises(ShapeError):
            freq_response(np.ones((2, 0)), 8)
        with pytest.raises(ShapeError):
            apply_channel_stream(np.ones((3, 16)), np.ones((2, 4)))
        with pytest.raises(ShapeError):
            apply_channel_stream(np.ones((3, 16)), np.ones(4))


class TestCirculantStructure:
    def test_dft_diagonalizes_circulant(self):
        rng = np.random.default_rng(23)
        n = 32
        taps = rng.normal(size=5) + 1j * rng.normal(size=5)
        padded = np.zeros(n, dtype=complex)
        padded[:5] = taps
        c = circulant(padded)
        k = np.arange(n)
        f = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
        diag = f @ c @ f.conj().T
        h = freq_response(taps, n)
        assert np.max(np.abs(diag - np.diag(h))) < 1e-10


class TestRayleighDraws:
    def test_tap_statistics(self):
        rng = np.random.default_rng(24)
        draws = np.array([
            draw_rayleigh_channel(FIVE_TAP_PROFILE, rng) for _ in range(100_000)
        ])
        at = draws[:, FIVE_TAP_PROFILE.delays]
        mean_power = np.mean(np.abs(at) ** 2, axis=0)
        assert np.all(np.abs(mean_power / FIVE_TAP_PROFILE.mean_powers - 1) < 0.02)
        assert np.max(np.abs(at.mean(axis=0))) < 0.01
        # circular symmetry: pseudo-variance vanishes
        assert np.max(np.abs((at ** 2).mean(axis=0))) < 0.01

    def test_zero_power_tap_is_exactly_zero(self):
        prof = ChannelProfile(delays=np.array([0, 3]), mean_powers=np.array([1.0, 0.0]))
        rng = np.random.default_rng(25)
        for _ in range(10):
            taps = draw_rayleigh_channel(prof, rng)
            assert taps[3] == 0.0
            assert taps[1] == 0.0 and taps[2] == 0.0  # gaps stay empty

    def test_dense_vector_length(self):
        rng = np.random.default_rng(26)
        taps = draw_rayleigh_channel(FIVE_TAP_PROFILE, rng)
        assert taps.shape == (12,) and taps.dtype == np.complex128
        assert not taps.flags.writeable


class TestAwgn:
    def test_zero_power_is_identity(self):
        x = np.arange(5, dtype=complex)
        rng = np.random.default_rng(27)
        assert np.array_equal(add_awgn(x, 0.0, rng), x)

    def test_statistics(self):
        rng = np.random.default_rng(28)
        n = 1_000_000
        z = add_awgn(np.zeros(n, dtype=complex), NoiseSpec(sigma_z2=2.0), rng)
        assert abs(np.mean(np.abs(z) ** 2) - 2.0) / 2.0 < 0.01
        assert abs(np.var(z.real) - 1.0) < 0.02  # half the power per quadrature
        assert abs(np.var(z.imag) - 1.0) < 0.02
        assert abs(np.mean(z)) < 0.005
        # whiteness: adjacent-lag correlation is negligible
        corr = np.vdot(z[:-1], z[1:]) / (n - 1)
        assert abs(corr) < 0.005

    @pytest.mark.parametrize("shape", [(7,), (3, 40), (2, 3, 5)])
    def test_matches_complex_sum_of_draws(self, shape):
        x = np.arange(np.prod(shape), dtype=complex).reshape(shape) * (1 - 0.5j)
        noise = NoiseSpec.from_snr_db(4.0)
        scale = np.sqrt(noise.sigma_z2 / 2.0)
        rng = np.random.default_rng(29)
        re, im = rng.standard_normal(shape), rng.standard_normal(shape)
        assert np.array_equal(add_awgn(x, noise, np.random.default_rng(29)),
                              x + scale * (re + 1j * im))

    # Lengths on both sides of PASS_SAMPLES, past which add_awgn draws a
    # part a slice at a time.
    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 9),
           r=st.one_of(st.integers(1, 40), st.sampled_from([
               PASS_SAMPLES // 2 - 1, PASS_SAMPLES // 2, PASS_SAMPLES // 2 + 1,
               PASS_SAMPLES - 1, PASS_SAMPLES, PASS_SAMPLES + 1, 2 * PASS_SAMPLES + 5])),
           snr_db=st.floats(-10.0, 40.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_x_plus_the_lanes_draws(self, rows, r, snr_db, seed):
        x = np.random.default_rng(seed).standard_normal((rows, r, 2)).view(complex)[..., 0]
        noise = NoiseSpec.from_snr_db(snr_db)
        want = x.copy()
        w = want.reshape(1, -1)
        z = awgn_draws(noise, [np.random.default_rng(seed)], np.empty((1, 2, w.shape[1])))
        w.real += z[:, 0]
        w.imag += z[:, 1]
        assert np.array_equal(add_awgn(x, noise, np.random.default_rng(seed)), want)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 9),
           r=st.one_of(st.integers(0, 40), st.sampled_from([PASS_SAMPLES, 2 * PASS_SAMPLES + 5])),
           snr_db=st.floats(-10.0, 40.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_awgn_draws_take_each_row_in_one_call(self, rows, r, snr_db, seed):
        noise = NoiseSpec.from_snr_db(snr_db)
        z = awgn_draws(noise, [np.random.default_rng((seed, b)) for b in range(rows)],
                       np.empty((rows, 2, r)))
        scale = np.sqrt(noise.sigma_z2 / 2.0)
        ref = [np.random.default_rng((seed, b)).standard_normal((2, r)) * scale
               for b in range(rows)]
        assert np.array_equal(z, np.stack(ref))
        with pytest.raises(ShapeError, match="generators"):
            awgn_draws(noise, [np.random.default_rng(seed)] * (rows + 1), z)

    # Sizes around PASS_SAMPLES, and a np.broadcast_to view, whose copy must
    # still be C-ordered so that the noise reaches it.
    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([0, 1, 2, PASS_SAMPLES - 1, PASS_SAMPLES, PASS_SAMPLES + 1,
                                 2 * PASS_SAMPLES + 5]),
           layout=st.sampled_from(["flat", "column", "broadcast", "transposed"]),
           sigma_z2=st.floats(0.0, 10.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_one_call_of_twin_draws(self, size, layout, sigma_z2, seed):
        base = np.random.default_rng(seed).standard_normal((size, 2)).view(complex)[:, 0]
        x = {"flat": base,
             "column": base[:, None],
             "broadcast": np.broadcast_to(base, (3, size)),
             "transposed": np.broadcast_to(base, (3, size)).T}[layout]
        draws = np.random.default_rng(seed).standard_normal(2 * x.size)
        re, im = draws[:x.size].reshape(x.shape), draws[x.size:].reshape(x.shape)
        got = add_awgn(x, sigma_z2, np.random.default_rng(seed))
        assert got.flags.c_contiguous and got.dtype == np.complex128
        assert np.array_equal(got, x + np.sqrt(sigma_z2 / 2.0) * (re + 1j * im))

    @pytest.mark.parametrize("power", [float("nan"), float("inf"), NoiseSpec(float("nan")),
                                       NoiseSpec(float("inf")), -1.0])
    @pytest.mark.parametrize("size", [0, 4])
    def test_non_finite_or_negative_power_is_refused(self, power, size):
        with pytest.raises(ShapeError, match="finite and non-negative"):
            add_awgn(np.zeros(size, dtype=complex), power, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="finite and non-negative"):
            awgn_draws(power, [np.random.default_rng(0)], np.empty((1, 2, size)))

    def test_input_is_not_modified(self):
        x = np.ones(8, dtype=complex)
        add_awgn(x, 1.0, np.random.default_rng(30))
        assert np.array_equal(x, np.ones(8))

    def test_noise_spec_roundtrip(self):
        ns = NoiseSpec.from_snr_db(7.0)
        assert abs(10.0 * math.log10(ns.snr) - 7.0) < 1e-12
        assert abs(ns.snr * ns.sigma_z2 - 1.0) < 1e-12
        with pytest.raises(ShapeError):
            add_awgn(np.zeros(3, dtype=complex), -1.0, np.random.default_rng(0))

    def test_zero_noise_power_has_an_infinite_snr(self):
        ns = NoiseSpec(0.0)
        assert ns.snr == math.inf
        # MMSE at an infinite SNR is zero-forcing without a floor
        h = np.array([1.0, 0.5j, -2.0 + 1.0j, 0.25 - 0.75j])
        w = equalizer_weights(h, EqualizerKind(variant="mmse"), snr=ns.snr)
        assert np.allclose(w, 1.0 / h, rtol=1e-15, atol=0)
        assert np.array_equal(add_awgn(h, ns, np.random.default_rng(0)), h)
