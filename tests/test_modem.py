"""Modem tests: Gray mapping against a hand-built table, transform
unitarity against a direct DFT oracle, and cyclic prefix framing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permofdm import (
    FramingError,
    QamConstellation,
    ShapeError,
    add_cp,
    fft_demodulate,
    ifft_modulate,
    qam_demodulate,
    qam_modulate,
    qam_point_indices,
    remove_cp,
)

# 16-QAM mapping worked out by hand: point index = int of the 4-bit group
# (MSB first, first two bits -> I); per-axis Gray pattern g maps to level
# (3 - 2*gray_to_binary(g)) / sqrt(10):  00->+3, 01->+1, 11->-1, 10->-3.
HAND_16QAM = np.array([
    3 + 3j, 3 + 1j, 3 - 3j, 3 - 1j,
    1 + 3j, 1 + 1j, 1 - 3j, 1 - 1j,
    -3 + 3j, -3 + 1j, -3 - 3j, -3 - 1j,
    -1 + 3j, -1 + 1j, -1 - 3j, -1 - 1j,
]) / np.sqrt(10)

HAND_4QAM = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)


class TestConstellation:
    def test_tables_match_hand_enumeration(self):
        assert np.allclose(QamConstellation.square(4).points, HAND_4QAM, atol=1e-15)
        assert np.allclose(QamConstellation.square(16).points, HAND_16QAM, atol=1e-15)

    def test_unit_mean_energy(self):
        for M in (4, 16, 64):
            c = QamConstellation.square(M)
            assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12

    def test_rejects_non_square_sizes(self):
        for M in (2, 8, 32, 3, 0):
            with pytest.raises(ShapeError):
                QamConstellation.square(M)

    def test_largest_constellation_is_65536(self):
        assert QamConstellation.square(2 ** 16).levels_per_axis == 256
        for M in (2 ** 18, 2 ** 64):  # refused before a level is computed
            with pytest.raises(ShapeError, match=r"in \[4, 2\*\*16\]"):
                QamConstellation.square(M)

    def test_gray_neighbors_differ_in_one_bit(self):
        # exhaustive: horizontally/vertically adjacent points differ in
        # exactly one bit of the point index
        for M in (4, 16, 64):
            c = QamConstellation.square(M)
            pts = c.points
            step = 2 * c.scale
            for a in range(M):
                for b in range(a + 1, M):
                    d = pts[a] - pts[b]
                    horiz = abs(d.imag) < 1e-12 and abs(abs(d.real) - step) < 1e-12
                    vert = abs(d.real) < 1e-12 and abs(abs(d.imag) - step) < 1e-12
                    if horiz or vert:
                        assert bin(a ^ b).count("1") == 1, (M, a, b)


class TestQamMapping:
    def test_modulate_examples(self):
        c4 = QamConstellation.square(4)
        got = qam_modulate(np.array([0, 0, 1, 1, 0, 1, 1, 0], dtype=np.uint8), c4)
        want = np.array([1 + 1j, -1 - 1j, 1 - 1j, -1 + 1j]) / np.sqrt(2)
        assert np.allclose(got, want, atol=1e-15)
        c16 = QamConstellation.square(16)
        got = qam_modulate(np.array([0, 0, 0, 0, 1, 0, 1, 0], dtype=np.uint8), c16)
        want = np.array([3 + 3j, -3 - 3j]) / np.sqrt(10)
        assert np.allclose(got, want, atol=1e-15)

    def test_roundtrip_random_bits(self):
        rng = np.random.default_rng(7)
        for M in (4, 16, 64):
            c = QamConstellation.square(M)
            bits = rng.integers(0, 2, size=c.bits_per_symbol * 2000, dtype=np.uint8)
            assert np.array_equal(qam_demodulate(qam_modulate(bits, c), c), bits)

    def test_demod_is_nearest_point_with_index_tiebreak(self):
        rng = np.random.default_rng(8)
        for M in (4, 16, 64):
            c = QamConstellation.square(M)
            y = 1.5 * (rng.normal(size=4000) + 1j * rng.normal(size=4000))
            got = qam_point_indices(y, c)
            want = np.argmin(np.abs(y[:, None] - c.points[None, :]), axis=1)
            assert np.array_equal(got, want)

    def test_origin_ties(self):
        # 4-QAM: origin equidistant from all points -> index 0 -> bits 00
        c4 = QamConstellation.square(4)
        assert qam_demodulate(np.array([0j]), c4).tolist() == [0, 0]
        # 16-QAM: four inner points tie; lowest index is 5 -> bits 0101
        c16 = QamConstellation.square(16)
        assert qam_demodulate(np.array([0j]), c16).tolist() == [0, 1, 0, 1]

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from((4, 16, 64)), data=st.data())
    def test_points_and_bits_round_trip(self, m, data):
        c = QamConstellation.square(m)
        idx = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=200)))
        assert np.array_equal(qam_point_indices(c.points[idx], c), idx)
        bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=50)),
                        dtype=np.uint8).repeat(c.bits_per_symbol)
        assert np.array_equal(qam_demodulate(qam_modulate(bits, c), c), bits)

    @pytest.mark.parametrize("m", (4, 16, 64))
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("quadrature", (False, True))
    def test_non_finite_symbols_rejected(self, m, bad, quadrature):
        c = QamConstellation.square(m)
        y = c.points[:4].copy()
        y[2] = complex(0.1, bad) if quadrature else complex(bad, 0.1)
        with pytest.raises(ShapeError):
            qam_point_indices(y, c)
        with pytest.raises(ShapeError):
            qam_demodulate(y, c)

    def test_bit_count_validation(self):
        c = QamConstellation.square(16)
        with pytest.raises(ShapeError):
            qam_modulate(np.array([0, 1, 1], dtype=np.uint8), c)

    def test_bits_other_than_0_and_1_rejected(self):
        c = QamConstellation.square(4)
        for bits in ([0, 2], [1, 1, 0, 3], [-1, 0]):
            with pytest.raises(ShapeError, match="0 or 1"):
                qam_modulate(np.array(bits), c)


class TestTransforms:
    def test_roundtrip_and_unitarity(self):
        rng = np.random.default_rng(9)
        for n in (4, 64, 256, 1024):
            d = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = ifft_modulate(d)
            assert np.max(np.abs(fft_demodulate(x) - d)) < 1e-10
            assert abs(np.linalg.norm(x) - np.linalg.norm(d)) < 1e-10

    def test_matches_direct_dft_oracle(self):
        # O(N^2) definition: X_k = (1/sqrt(N)) sum_n x_n e^{-2j pi nk/N}
        rng = np.random.default_rng(10)
        n = 256
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        want = w @ x / np.sqrt(n)
        assert np.max(np.abs(fft_demodulate(x) - want)) < 1e-10

    def test_dc_examples(self):
        n = 16
        d = np.zeros(n, dtype=complex)
        d[0] = 1.0
        assert np.allclose(ifft_modulate(d), np.full(n, 1 / np.sqrt(n)), atol=1e-15)
        ones = np.ones(n, dtype=complex)
        x = ifft_modulate(ones)
        want = np.zeros(n, dtype=complex)
        want[0] = np.sqrt(n)
        assert np.allclose(x, want, atol=1e-12)

    def test_rows_transform_independently(self):
        rng = np.random.default_rng(11)
        grid = rng.normal(size=(5, 32)) + 1j * rng.normal(size=(5, 32))
        batched = ifft_modulate(grid)
        rows = np.vstack([ifft_modulate(r) for r in grid])
        assert np.allclose(batched, rows, atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ifft_modulate(np.array([], dtype=complex))
        with pytest.raises(ShapeError, match="empty sample vector"):
            fft_demodulate(np.array([], dtype=complex))


class TestCyclicPrefix:
    def test_hand_example(self):
        x = np.arange(8, dtype=complex)
        framed = add_cp(x, 2)
        assert framed.tolist() == [6, 7, 0, 1, 2, 3, 4, 5, 6, 7]
        assert np.array_equal(remove_cp(framed, 8, 2), x)

    def test_zero_length_prefix(self):
        x = np.arange(4, dtype=complex)
        assert np.array_equal(add_cp(x, 0), x)
        assert np.array_equal(remove_cp(x, 4, 0), x)

    def test_rows(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        framed = add_cp(x, 4)
        assert framed.shape == (3, 20)
        assert np.array_equal(remove_cp(framed, 16, 4), x)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 40), lead=st.lists(st.integers(0, 3), max_size=3), data=st.data())
    def test_remove_undoes_add(self, n, lead, data):
        n_cp = data.draw(st.integers(0, n))
        x = np.random.default_rng(n).normal(size=(*lead, n, 2)).view(complex)[..., 0]
        framed = add_cp(x, n_cp)
        assert framed.shape == (*lead, n + n_cp)
        assert np.array_equal(remove_cp(framed, n, n_cp), x)

    def test_framing_errors(self):
        x = np.arange(8, dtype=complex)
        with pytest.raises(FramingError):
            add_cp(x, 9)
        with pytest.raises(FramingError):
            add_cp(x, -1)
        with pytest.raises(FramingError):
            remove_cp(x, 8, 2)  # length 8 is not 8 + 2
