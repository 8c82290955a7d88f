"""Kernel-level checks against slow reference oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from permofdm import attack, modem, permcipher


def _pairs():
    return [(4, 2, 1), (16, 4, 2), (64, 8, 3)]


def _scale(L):
    return 1.0 / np.sqrt(2.0 * (L * L - 1) / 3.0)


def _points(L, bpa, scale):
    def g2b(g):
        b = 0
        while g:
            b ^= g
            g >>= 1
        return b
    M = L * L
    pts = np.empty(M, dtype=complex)
    for p in range(M):
        bi, bq = g2b(p >> bpa), g2b(p & (L - 1))
        pts[p] = ((L - 1 - 2 * bi) + 1j * (L - 1 - 2 * bq)) * scale
    return pts


class TestDemodPoints:
    def test_matches_nearest_point_oracle(self):
        rng = np.random.default_rng(11)
        for M, L, bpa in _pairs():
            s = _scale(L)
            pts = _points(L, bpa, s)
            y = rng.normal(size=5000) + 1j * rng.normal(size=5000)
            got = modem.demod_points(y.real.copy(), y.imag.copy(), L, bpa, s)
            want = np.argmin(np.abs(y[:, None] - pts[None, :]), axis=1)
            assert np.array_equal(got, want)

    def test_exact_ties_take_lowest_point_index(self):
        # dyadic scale makes levels and midpoints exactly representable,
        # so distance ties are exact and argmin's first-hit is the oracle
        for M, L, bpa in _pairs():
            s = 0.25
            pts = _points(L, bpa, s)
            lv = (L - 1 - 2 * np.arange(L)) * s
            grid = np.concatenate([lv, (lv[:-1] + lv[1:]) / 2.0])
            y = (grid[:, None] + 1j * grid[None, :]).ravel()
            got = modem.demod_points(y.real.copy(), y.imag.copy(), L, bpa, s)
            want = np.argmin(np.abs(y[:, None] - pts[None, :]), axis=1)
            assert np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(pair=st.sampled_from(_pairs()),
           scale=st.one_of(st.floats(1e-3, 1e3), st.sampled_from((2.0 ** -6, 0.25, 1.0, 8.0))),
           data=st.data())
    def test_matches_reference_and_exact_argmin(self, pair, scale, data):
        # symbols on the level and midpoint grid, their float neighbours, and
        # anywhere within a margin of the constellation, at a random or a
        # dyadic scale; where the grid is not exact the ties are near-ties
        M, L, bpa = pair
        lv = (L - 1 - 2 * np.arange(L)) * scale
        grid = np.concatenate([lv, (lv[:-1] + lv[1:]) / 2.0, [0.0, -0.0]])
        grid = np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf)])
        coord = st.one_of(st.sampled_from(grid.tolist()),
                          st.floats(-1.5 * L * scale, 1.5 * L * scale))
        re = np.array(data.draw(st.lists(coord, min_size=1, max_size=40)))
        im = np.array(data.draw(st.lists(coord, min_size=len(re), max_size=len(re))))
        got = modem.demod_points(re, im, L, bpa, scale)
        assert got.dtype == np.int64
        assert np.array_equal(got, _demod_points_reference(re, im, L, bpa, scale))
        assert np.array_equal(got, _exact_argmin(re, im, _points(L, bpa, scale)))


def _demod_points_reference(re, im, L, bpa, scale):
    """The per-element Gray arithmetic the tie table replaced."""
    def axis(v):
        t = (L - 1 - v / scale) / 2.0
        bf = np.clip(np.floor(t), 0, L - 2).astype(np.int64)
        d0 = np.abs(v - (L - 1 - 2 * bf) * scale)
        d1 = np.abs(v - (L - 3 - 2 * bf) * scale)
        g0 = bf ^ (bf >> 1)
        g1 = (bf + 1) ^ ((bf + 1) >> 1)
        take1 = (d1 < d0) | ((d1 == d0) & (g1 < g0))
        return np.where(take1, bf + 1, bf)
    bi, bq = axis(re), axis(im)
    return ((bi ^ (bi >> 1)) << bpa) | (bq ^ (bq >> 1))


def _exact_argmin(re, im, pts):
    """Nearest point by exact squared distance, ties to the lowest index.

    The per-axis offsets are float differences, as any float demodulator
    forms them; only their squares and sums are exact.
    """
    out = []
    for y_re, y_im in zip(re.tolist(), im.tolist()):
        dist = [Fraction(y_re - p.real) ** 2 + Fraction(y_im - p.imag) ** 2 for p in pts]
        out.append(dist.index(min(dist)))
    return np.array(out)


# sizes whose largest index sits at or next to a byte-width edge
BAND_EDGE_SIZES = (1, 2, 255, 256, 257, 65536, 65537)


def _fisher_yates_reference(stream, size):
    """The pinned draw rule read one byte at a time."""
    perm = np.arange(size, dtype=np.int64)
    pos = 0
    n = stream.shape[0]
    for i in range(size - 1, 0, -1):
        nbits = i.bit_length()
        nbytes = (nbits + 7) >> 3
        mask = (1 << nbits) - 1
        while True:
            if pos + nbytes > n:
                return perm, pos, False
            v = 0
            for b in range(nbytes):
                v = (v << 8) | int(stream[pos + b])
            pos += nbytes
            v &= mask
            if v <= i:
                break
        perm[i], perm[v] = perm[v], perm[i]
    return perm, pos, True


def _need(size):
    return sum((i.bit_length() + 7) // 8 for i in range(1, size))


def _assert_matches_reference(stream, size):
    perm, used, ok = permcipher.fisher_yates(stream, size)
    ref_perm, ref_used, ref_ok = _fisher_yates_reference(stream, size)
    assert (used, ok) == (ref_used, ref_ok)
    assert perm.dtype == np.int64
    assert np.array_equal(perm, ref_perm)


class TestFisherYates:
    def test_hand_worked_stream(self):
        # size 4: i=3 reads 0x00 -> j=0 swap; i=2 reads 0x01 -> j=1 swap;
        # i=1 reads 0x02 & 1 -> j=0 swap
        stream = np.array([0x00, 0x01, 0x02], dtype=np.uint8)
        perm, used, ok = permcipher.fisher_yates(stream, 4)
        assert ok and used == 3
        assert perm.tolist() == [2, 3, 1, 0]

    def test_rejection_skips_out_of_range(self):
        # size 3: i=2 has 2 bits; 0xff & 3 = 3 > 2 is rejected, next byte
        # 0x02 accepted (j=2, no-op); i=1 reads 0x00 -> swap 0,1
        stream = np.array([0xFF, 0x02, 0x00], dtype=np.uint8)
        perm, used, ok = permcipher.fisher_yates(stream, 3)
        assert ok and used == 3
        assert perm.tolist() == [1, 0, 2]

    def test_exhaustion_reports_failure(self):
        stream = np.array([0xFF, 0xFF], dtype=np.uint8)
        _, _, ok = permcipher.fisher_yates(stream, 8)
        assert not ok

    def test_always_bijective(self):
        rng = np.random.default_rng(0)
        for size in (1, 2, 3, 17, 128):
            stream = rng.integers(0, 256, size=max(4 * size, 64), dtype=np.uint8)
            perm, _, ok = permcipher.fisher_yates(stream, size)
            assert ok
            assert np.array_equal(np.sort(perm), np.arange(size))

    @settings(max_examples=300, deadline=None)
    @given(size=st.one_of(st.sampled_from((1, 2, 255, 256, 257)), st.integers(1, 700)),
           stream=st.binary(max_size=3000))
    def test_matches_reference_on_arbitrary_streams(self, size, stream):
        # short or rejection-heavy streams take the ok=False path
        _assert_matches_reference(np.frombuffer(stream, dtype=np.uint8), size)

    @settings(max_examples=40, deadline=None)
    @given(size=st.sampled_from(BAND_EDGE_SIZES), seed=st.integers(0, 2**32 - 1),
           fill=st.sampled_from((0.0, 0.5, 1.0, 1.2, 4.0)))
    @example(size=65537, seed=0, fill=0.0)  # runs out inside the 3-byte band
    @example(size=65537, seed=0, fill=4.0)
    def test_matches_reference_at_band_edges(self, size, seed, fill):
        # fill is the stream length in units of the rejection-free byte count;
        # below about 1.4 the stream usually runs out
        n = int(fill * _need(size)) + 1
        stream = np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)
        _assert_matches_reference(stream, size)


def _assert_lockstep_matches_scalar(streams, size):
    perms, ok = permcipher.fisher_yates_lockstep(streams, size)
    assert perms.shape == (streams.shape[0], size) and perms.dtype == np.int64
    assert ok.shape == (streams.shape[0],)
    for stream, perm, row_ok in zip(streams, perms, ok):
        want, _, want_ok = permcipher.fisher_yates(stream, size)
        assert row_ok == want_ok
        assert np.array_equal(perm, want)
    return ok


def _bands(size):
    """(word bytes, first byte, draw count) per band when every draw is j = 0."""
    starts, pos, i = [], 0, size - 1
    while i >= 1:
        nbytes = (i.bit_length() + 7) >> 3
        low = 1 << (8 * nbytes - 8)
        starts.append((nbytes, pos, i - low + 1))
        pos += nbytes * (i - low + 1)
        i = low - 1
    return starts


class TestFisherYatesLockstep:
    def test_hand_worked_rows(self):
        # row 0 is TestFisherYates' rejection example; row 1 accepts its
        # first word (i=2 -> j=0 swap; i=1 reads 0x01 & 1 -> j=1 no-op), so
        # the rows step out of phase and row 1 leaves its last byte unread
        streams = np.array([[0xFF, 0x02, 0x00], [0x00, 0x01, 0x00]], dtype=np.uint8)
        perms, ok = permcipher.fisher_yates_lockstep(streams, 3)
        assert ok.tolist() == [True, True]
        assert perms.tolist() == [[1, 0, 2], [2, 1, 0]]

    @settings(max_examples=200, deadline=None)
    @given(size=st.one_of(st.sampled_from((1, 2, 255, 256, 257)), st.integers(1, 700)),
           rows=st.integers(1, 4), data=st.data())
    def test_rows_match_scalar_on_arbitrary_matrices(self, size, rows, data):
        # short or rejection-heavy rows take the ok=False path
        n = data.draw(st.integers(0, 3000 // rows))
        raw = data.draw(st.binary(min_size=rows * n, max_size=rows * n))
        streams = np.frombuffer(raw, dtype=np.uint8).reshape(rows, n)
        _assert_lockstep_matches_scalar(streams, size)

    @pytest.mark.parametrize("size", (255, 256, 257, 65537))
    def test_rows_running_out_in_every_band(self, size):
        # A zero word is always accepted (j = 0), so a zero prefix walks the
        # draws at a known byte rate; the 0xff tail after it is rejected by
        # every i that is not 2**b - 1, so the row runs out in the band where
        # its prefix ends.  Random rows and an all-zero row finish.
        n = 2 * _need(size) + 64
        rng = np.random.default_rng(size)
        rows = [rng.integers(0, 256, n, dtype=np.uint8) for _ in range(2)]
        rows.append(np.zeros(n, dtype=np.uint8))
        for nbytes, start, count in _bands(size):
            for cut in (start, start + nbytes * (count // 2)):
                row = np.full(n, 0xFF, dtype=np.uint8)
                row[:cut] = 0
                rows.append(row)
        ok = _assert_lockstep_matches_scalar(np.stack(rows), size)
        assert ok[:3].all() and not ok[3:].any()

    def test_rows_at_different_offsets_in_later_bands(self):
        # rows reach the 1-byte band of size 300 after different numbers of
        # rejected 2-byte words, so the band's words need a per-row gather
        size, n = 300, 700
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 256, (6, n), dtype=np.uint8)
        for r in range(6):
            rows[r, :2 * r] = 0xFF  # i = 299 rejects 0x01ff; r words wasted
        _assert_lockstep_matches_scalar(rows, size)

    def test_empty_rows_run_out(self):
        ok = _assert_lockstep_matches_scalar(np.zeros((3, 0), dtype=np.uint8), 5)
        assert not ok.any()


class TestGreedyAssign:
    def test_recovers_permutation_of_distinct_values(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=40) + 1j * rng.normal(size=40)
        true = rng.permutation(40)
        y = x[true]
        dist = np.abs(y[:, None] - x[None, :])
        perm, amb = attack.greedy_assign(dist, 1e-9)
        assert np.array_equal(perm, true)
        assert amb == 0

    def test_flags_ambiguity_on_duplicates(self):
        x = np.array([1.0, 1.0, 2.0], dtype=complex)
        dist = np.abs(x[:, None] - x[None, :])
        perm, amb = attack.greedy_assign(dist, 1e-9)
        assert amb > 0
        assert np.array_equal(np.sort(perm), np.arange(3))


class TestBruteForceScan:
    def _cands(self, size):
        import itertools
        return np.array(list(itertools.permutations(range(size))), dtype=np.int64)

    def test_finds_true_permutation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=5) + 1j * rng.normal(size=5)
        cands = self._cands(5)
        true = cands[77]
        y = x[true]
        idx, resid = attack.brute_force_scan(cands, x, y)
        assert idx == 77
        assert resid < 1e-20

    def test_ties_resolve_to_lexicographically_smallest(self):
        # duplicate samples: swapping them changes nothing, identity wins
        x = np.array([1.0 + 0j, 1.0 + 0j, 2.0 + 0j])
        y = x.copy()
        cands = self._cands(3)
        idx, resid = attack.brute_force_scan(cands, x, y)
        assert resid == 0.0
        assert np.array_equal(cands[idx], np.array([0, 1, 2]))

