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
    # size 4096 reads 2-byte words first: 9523 bytes run out inside that band,
    # 31741 finish, and 2381 run out in its first bit width; all three
    # lengths are odd, so the stream ends mid-word
    @example(size=4096, seed=0, fill=1.2)
    @example(size=4096, seed=0, fill=4.0)
    @example(size=4096, seed=0, fill=0.3)
    def test_matches_reference_at_band_edges(self, size, seed, fill):
        # fill is the stream length in units of the rejection-free byte count;
        # below about 1.4 the stream usually runs out
        n = int(fill * _need(size)) + 1
        stream = np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)
        _assert_matches_reference(stream, size)

    @pytest.mark.parametrize("rejected", (1, 8317, 20000))
    def test_matches_reference_after_long_rejection_runs(self, rejected):
        # At size 4096 the first window _draw_words lists holds 2 * 2048 + 64
        # = 4160 words; i = 4095 accepts a 0xffff word and every i below it
        # rejects one.  8317 0xff bytes fill that window with 0xffff words
        # but its last, which the draw for 4094 accepts, so the window ends
        # just after that draw; 20000 stall the draw for 4094 across two
        # window ends; 1 is the control.  The random bytes after the run let
        # the shuffle finish
        rng = np.random.default_rng(rejected)
        stream = np.concatenate([np.full(2 + rejected, 0xFF, dtype=np.uint8),
                                 rng.integers(0, 256, 40000, dtype=np.uint8)])
        _assert_matches_reference(stream, 4096)


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
    """brute_force_attack scores every candidate map in one encrypt_block call."""

    def test_finds_true_permutation(self):
        import itertools
        rng = np.random.default_rng(4)
        x = rng.normal(size=5) + 1j * rng.normal(size=5)
        true = np.array(list(itertools.permutations(range(5)))[77])
        y = x[true]
        got = attack.brute_force_attack(x, y)
        assert np.array_equal(got.map, true)
        assert (np.abs(y - permcipher.encrypt_block(x, got)) ** 2).sum() < 1e-20

    def test_ties_resolve_to_lexicographically_smallest(self):
        # duplicate samples: swapping them changes nothing, identity wins
        x = np.array([1.0 + 0j, 1.0 + 0j, 2.0 + 0j])
        got = attack.brute_force_attack(x, x.copy())
        assert np.array_equal(got.map, np.array([0, 1, 2]))
        assert got.map.base is None or got.map.base.size == 3  # not a view of the candidates


def _bits_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestOutParameter:
    """Every link-chain kernel with out= fills and returns out, bit for bit
    as its allocating call, on one block and on a stack of blocks."""

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(0, 3), l=st.integers(1, 3), n=st.sampled_from([4, 8, 16]),
           n_cp=st.integers(0, 4), t=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_out_matches_the_allocating_call(self, count, l, n, n_cp, t, seed):
        from permofdm import channel, equalizer
        rng = np.random.default_rng(seed)
        lead = (count,) if count else ()  # count 0 is one block with no stack axis

        def cnormal(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        x = cnormal(*lead, l, n)
        one = permcipher.Permutation(map=rng.permutation(l * n))
        perms = [one] + ([permcipher.Permutation(
            map=np.stack([rng.permutation(l * n) for _ in range(count)]))] if count else [])
        stream = cnormal(*lead, l * (n + n_cp))
        taps = cnormal(*lead, t)
        h = cnormal(*lead, 1, n) if count else cnormal(n)
        const = modem.QamConstellation.square(16)
        bits = rng.integers(0, 2, size=(*lead, l, n, 4), dtype=np.uint8)
        kind = equalizer.EqualizerKind()
        calls = [
            (lambda out: modem.ifft_modulate(x, out=out), x.shape, True),
            (lambda out: modem.fft_demodulate(x, out=out), x.shape, True),
            (lambda out: modem.add_cp(x, n_cp, out=out), x.shape[:-1] + (n + n_cp,), False),
            (lambda out: modem.qam_symbols(bits, const, out=out)[1], x.shape, False),
            (lambda out: channel.apply_channel_stream(stream, taps, out=out), stream.shape,
             False),
            (lambda out: equalizer.equalize(x, h, kind, out=out), x.shape, True),
        ]
        for p in perms:
            calls.append((lambda out, p=p: permcipher.encrypt_block(x, p, out=out), x.shape, True))
            calls.append((lambda out, p=p: permcipher.decrypt_block(x, p, out=out), x.shape, True))
        for call, shape, in_place in calls:
            want = call(None)
            out = np.empty(shape, dtype=np.complex128)
            assert call(out) is out
            assert _bits_equal(out, want)
            if in_place:  # out may be the input itself
                saved = x.copy()
                assert call(x) is x
                assert _bits_equal(x, want)
                x[...] = saved

    def test_wrong_out_is_refused(self):
        x = np.zeros((2, 8), dtype=np.complex128)
        p = permcipher.Permutation.identity(8)
        for out in (np.empty((2, 9), complex), np.empty((2, 8), np.complex64),
                    np.empty((8, 2), complex).T):
            with pytest.raises(permcipher.ShapeError):
                permcipher.encrypt_block(x, p, out=out)
        from permofdm import channel
        with pytest.raises(permcipher.ShapeError, match="overlap"):
            channel.apply_channel_stream(x, np.ones((2, 1), complex), out=x)
