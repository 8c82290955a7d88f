"""Equalizer tests: weight formulas, factored frequency-domain application
against an explicit matrix oracle, and the post-descrambling noise algebra."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import circulant

import permofdm
from permofdm import (
    EqualizerKind,
    ShapeError,
    SingularChannelError,
    ber_awgn_qam,
    conditional_snr_zf,
    decrypt_block,
    derive_permutation,
    encrypt_block,
    equalize,
    equalizer_weights,
    fft_demodulate,
    freq_response,
    ifft_modulate,
    qfunc,
    semi_analytic_ber,
    SecretKey,
)

KEY = SecretKey(bytes(range(32)))


def _random_h(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def noise_mixing_row(h: np.ndarray) -> np.ndarray:
    """Row 0 of the circulant V = F^H diag(1/H) F that maps pre-FFT noise to
    de-permuted noise: entry m is (1/N) sum_k eps^{-mk} / H_k."""
    h = np.asarray(h, dtype=np.complex128)
    if np.any(h == 0):
        raise SingularChannelError("response has a zero bin; apply a floor first")
    return np.fft.fft(1.0 / h) / h.size


class TestWeights:
    def test_zf_inverts(self):
        rng = np.random.default_rng(30)
        h = _random_h(rng, 64)
        w = equalizer_weights(h, EqualizerKind(variant="zf"))
        assert np.max(np.abs(w * h - 1)) < 1e-12

    def test_zf_floor_bounds_gain(self):
        h = np.array([1.0, 1e-15, 0.0], dtype=complex)
        w = equalizer_weights(h, EqualizerKind(variant="zf", zf_floor=1e-12))
        assert np.all(np.abs(w) <= 1e12 + 1)
        assert abs(w[2] - 1e12) < 1.0  # zero bin replaced by the floor itself

    def test_floor_preserves_phase(self):
        h = np.array([1e-15 * np.exp(1j * 0.7)], dtype=complex)
        w = equalizer_weights(h, EqualizerKind(variant="zf", zf_floor=1e-12))
        assert abs(np.angle(w[0]) + 0.7) < 1e-9  # 1/H keeps -phase

    def test_mmse_formula(self):
        rng = np.random.default_rng(31)
        h = _random_h(rng, 16)
        snr = 25.0
        w = equalizer_weights(h, EqualizerKind(variant="mmse"), snr=snr)
        want = np.conj(h) / (np.abs(h) ** 2 + 1 / snr)
        assert np.allclose(w, want, atol=1e-15)

    def test_mmse_approaches_zf_at_high_snr(self):
        rng = np.random.default_rng(32)
        h = _random_h(rng, 16)
        w = equalizer_weights(h, EqualizerKind(variant="mmse"), snr=1e12)
        assert np.max(np.abs(w - 1 / h)) < 1e-3

    def test_mmse_requires_snr(self):
        with pytest.raises(ShapeError):
            equalizer_weights(np.ones(4, dtype=complex), EqualizerKind(variant="mmse"))

    def test_discard_mode_zeroes_faded_bins(self):
        h = np.array([1.0, 0.01, 2.0], dtype=complex)
        kind = EqualizerKind(variant="zf", discard_below=0.1)
        w = equalizer_weights(h, kind)
        assert w[1] == 0.0 and w[0] != 0.0 and w[2] != 0.0

    def test_fade_bias_lifts_weak_bins_only(self):
        h = np.array([1.0, 0.01 + 0j], dtype=complex)
        kind = EqualizerKind(variant="zf", fade_bias=0.1)
        w = equalizer_weights(h, kind)
        assert abs(w[0] - 1.0) < 1e-12
        assert abs(w[1] - 1.0 / 0.11) < 1e-9

    def test_discard_reads_the_response_before_the_fade_bias(self):
        # Bin 1 is under discard_below, though its biased magnitude 0.15 is
        # not; bin 2 is over it, and is biased to 0.18.
        h = np.array([1.0, 0.05, 0.08], dtype=complex)
        w = equalizer_weights(h, EqualizerKind(fade_bias=0.1, discard_below=0.07))
        assert w[0] == 1.0 and w[1] == 0.0 and abs(w[2] - 1.0 / 0.18) < 1e-9

    def test_kind_validation(self):
        with pytest.raises(ShapeError):
            EqualizerKind(variant="dfe")
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            for name in ("zf_floor", "discard_below", "fade_bias"):
                with pytest.raises(ShapeError, match=name):
                    EqualizerKind(**{name: bad})


class TestEqualize:
    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(33)
        n = 16
        h = _random_h(rng, n)
        y = _random_h(rng, n)
        kind = EqualizerKind(variant="zf")
        k = np.arange(n)
        f = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
        want = f.conj().T @ np.diag(1.0 / h) @ f @ y
        assert np.max(np.abs(equalize(y, h, kind) - want)) < 1e-10

    def test_noiseless_zf_restores_permuted_chain(self):
        rng = np.random.default_rng(34)
        n, n_cp, l_eff = 64, 16, 64
        taps = np.zeros(12, dtype=complex)
        taps[[0, 1, 2, 6, 11]] = _random_h(rng, 5) * np.sqrt(
            [0.34, 0.28, 0.23, 0.11, 0.04])
        h = freq_response(taps, n)
        d = _random_h(rng, l_eff * n).reshape(l_eff, n)
        x = ifft_modulate(d)
        p = derive_permutation(KEY, 0, l_eff * n)
        tx = encrypt_block(x, p)
        from permofdm import add_cp, apply_channel_stream, remove_cp
        stream = add_cp(tx, n_cp).reshape(-1)
        rx = apply_channel_stream(stream, taps)
        un = remove_cp(rx.reshape(l_eff, n + n_cp), n, n_cp)
        eq = equalize(un, h, EqualizerKind(variant="zf"))
        got = fft_demodulate(decrypt_block(eq, p))
        assert np.max(np.abs(got - d)) < 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            equalize(np.zeros(8, dtype=complex), np.ones(4, dtype=complex),
                     EqualizerKind())
        with pytest.raises(ShapeError):
            equalize(np.zeros((2, 8), dtype=complex), np.ones((2, 1, 8), dtype=complex),
                     EqualizerKind())

    @pytest.mark.parametrize("kind", [
        EqualizerKind(),
        EqualizerKind(variant="mmse"),
        EqualizerKind(zf_floor=0.3),
        EqualizerKind(fade_bias=0.4),
        EqualizerKind(variant="mmse", discard_below=0.3),
    ], ids=["zf", "mmse", "zf-floor", "fade-bias", "mmse-discard"])
    @pytest.mark.parametrize("blocks,rows", [(1, 1), (5, 1), (4, 3), (30, 1)])
    def test_blocks_with_their_own_channels_match_single_calls(self, kind, blocks, rows):
        rng = np.random.default_rng(blocks * 10 + rows)
        n = 32
        y = (rng.normal(size=(blocks, rows, n)) + 1j * rng.normal(size=(blocks, rows, n)))
        h = _random_h(rng, blocks * n).reshape(blocks, n)
        h[0, :3] = 0.0  # zero bins take the floor and bias branches
        got = equalize(y, h[:, None, :], kind, snr=7.5)
        assert got.shape == y.shape
        for b in range(blocks):
            assert np.array_equal(got[b], equalize(y[b], h[b], kind, snr=7.5))


class TestNoiseMixing:
    def test_flat_channel_row(self):
        row = noise_mixing_row(np.ones(8, dtype=complex))
        want = np.zeros(8, dtype=complex)
        want[0] = 1.0
        assert np.allclose(row, want, atol=1e-15)

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(35)
        n = 8
        h = _random_h(rng, n)
        k = np.arange(n)
        f = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
        v = f.conj().T @ np.diag(1.0 / h) @ f
        row = noise_mixing_row(h)
        assert np.max(np.abs(row - v[0])) < 1e-10
        # V is circulant: row r is row 0 rolled by r
        assert np.max(np.abs(circulant(row).T - v)) < 1e-10

    def test_row_energy_gives_conditional_snr(self):
        # sum |row|^2 = mean(|H_k|^-2): the link between the mixing row and
        # the closed-form post-descrambling SNR
        rng = np.random.default_rng(37)
        h = _random_h(rng, 32)
        energy = np.sum(np.abs(noise_mixing_row(h)) ** 2)
        want = np.mean(np.abs(h) ** -2.0)
        assert abs(energy / want - 1) < 1e-12

    def test_singular_rejected(self):
        h = np.ones(4, dtype=complex)
        h[2] = 0.0
        with pytest.raises(SingularChannelError):
            noise_mixing_row(h)
        with pytest.raises(SingularChannelError):
            conditional_snr_zf(h, 10.0)
        for snr in (0.0, -1.0):
            with pytest.raises(ShapeError, match="snr must be positive"):
                conditional_snr_zf(np.ones(4, dtype=complex), snr)


class TestSubcarrierOrthogonality:
    def test_cross_terms_vanish(self):
        # sum_i eps^{-i(k-gamma)} is exactly zero for k != gamma, so the
        # cross-subcarrier noise couplings cancel for any invertible channel
        rng = np.random.default_rng(38)
        n = 16
        i = np.arange(n)
        for _ in range(10):
            h = _random_h(rng, n)
            s = np.array([np.sum(np.exp(-2j * np.pi * i * d / n)) for d in range(n)])
            for k in range(n):
                for g in range(n):
                    if k == g:
                        continue
                    val = s[(k - g) % n] / (h[k] * np.conj(h[g]))
                    assert abs(val) < 1e-9


class TestConditionalSnr:
    def test_flat_is_identity(self):
        assert abs(conditional_snr_zf(np.ones(8, dtype=complex), 5.0) - 5.0) < 1e-12

    def test_two_bin_hand_value(self):
        h = np.array([1.0, 0.5], dtype=complex)
        # mean(|H|^-2) = (1 + 4)/2 = 2.5
        assert abs(conditional_snr_zf(h, 10.0) - 4.0) < 1e-12

    def test_never_exceeds_snr(self):
        # harmonic-type mean penalty: scrambled-ZF SNR <= snr, equality iff flat
        rng = np.random.default_rng(39)
        for _ in range(20):
            h = _random_h(rng, 64)
            assert conditional_snr_zf(h, 8.0) <= 8.0 * np.mean(np.abs(h) ** 2) + 1e-9

    def test_floor_handles_zero_bin(self):
        h = np.ones(4, dtype=complex)
        h[1] = 0.0
        v = conditional_snr_zf(h, 10.0, zf_floor=1e-6)
        assert v > 0.0


class TestBerClosedForms:
    def test_qfunc_matches_normal_tail(self):
        x = np.linspace(-2, 6, 50)
        assert np.max(np.abs(qfunc(x) - stats.norm.sf(x))) < 1e-12

    def test_qfunc_keeps_scalars_and_shapes(self):
        assert isinstance(qfunc(1.0), np.float64)
        assert qfunc(np.zeros((2, 3))).shape == (2, 3)
        assert qfunc(0.0) == 0.5
        assert qfunc(np.inf) == 0.0 and qfunc(-np.inf) == 1.0

    def test_package_imports_without_scipy(self):
        # scipy is a test dependency only; a None entry in sys.modules makes
        # every `import scipy...` fail
        code = ("import sys; sys.modules['scipy'] = None; "
                "import permofdm, permofdm.cli; print(permofdm.qfunc(1.0))")
        src = str(Path(permofdm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert float(res.stdout) == pytest.approx(stats.norm.sf(1.0), rel=1e-12)

    def test_qpsk_exact(self):
        snr = np.array([1.0, 2.5, 10.0])
        assert np.allclose(ber_awgn_qam(4, snr), qfunc(np.sqrt(snr)), atol=1e-15)

    def test_16qam_exact_sum(self):
        snr = np.array([0.1, 1.0, 10.0, 100.0])
        a = np.sqrt(snr / 5)
        want = (3 * qfunc(a) + 2 * qfunc(3 * a) - qfunc(5 * a)) / 4
        assert np.allclose(ber_awgn_qam(16, snr), want, rtol=1e-14, atol=0)

    def test_16qam_formula_against_monte_carlo(self):
        from permofdm import QamConstellation, add_awgn, qam_demodulate, qam_modulate
        rng = np.random.default_rng(40)
        c = QamConstellation.square(16)
        snr = 10 ** (14.0 / 10)
        bits = rng.integers(0, 2, size=4 * 400_000, dtype=np.uint8)
        d = qam_modulate(bits, c)
        y = add_awgn(d, 1.0 / snr, rng)
        got = np.mean(qam_demodulate(y, c) != bits)
        want = ber_awgn_qam(16, snr)
        assert abs(got - want) / want < 0.05

    def test_rejects_bad_m(self):
        with pytest.raises(ShapeError):
            ber_awgn_qam(8, 1.0)


class TestSemiAnalytic:
    def test_flat_ensemble_equals_closed_form(self):
        h = [np.ones(16, dtype=complex)] * 3
        assert abs(semi_analytic_ber(h, 4.0, 4) - qfunc(2.0)) < 1e-12

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(41)
        ens = [_random_h(rng, 64) for _ in range(30)]
        vals = [semi_analytic_ber(ens, 10 ** (db / 10), 4) for db in (5, 10, 15, 20)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_bounds(self):
        rng = np.random.default_rng(42)
        ens = [_random_h(rng, 64) for _ in range(10)]
        v = semi_analytic_ber(ens, 1.0, 4)
        assert 0.0 < v < 0.5

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            semi_analytic_ber([], 1.0, 4)
