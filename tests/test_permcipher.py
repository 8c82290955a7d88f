"""Keyed permutation cipher: frozen vectors, statistical uniformity,
bijection/roundtrip properties, and scrambling strength."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from permofdm import permcipher
from permofdm import (
    KeyFormatError,
    Permutation,
    QamConstellation,
    SecretKey,
    ShapeError,
    decrypt_block,
    derive_permutation,
    derive_permutations,
    encrypt_block,
    fft_demodulate,
    ifft_modulate,
    keyspace_bits,
    qam_demodulate,
    qam_modulate,
    qam_point_indices,
    transpose_interleaver,
)

VECTORS = Path(__file__).resolve().parents[1] / "vectors" / "permutation_vectors.txt"
KEY = SecretKey(bytes(range(32)))


def _frozen_vectors():
    """(size, key hex, block index, map) for each line of the vector file."""
    vectors = []
    for raw in VECTORS.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        size, keyhex, ell = int(parts[0]), parts[1], int(parts[2])
        want = np.array([int(v) for v in parts[3:]], dtype=np.int64)
        assert want.size == size
        vectors.append((size, keyhex, ell, want))
    return vectors


class TestDerivation:
    def test_frozen_vectors(self):
        count = 0
        for size, keyhex, ell, want in _frozen_vectors():
            got = derive_permutation(SecretKey.from_hex(keyhex), ell, size)
            assert np.array_equal(got.map, want), (size, ell)
            count += 1
        assert count >= 8

    def test_deterministic_and_counter_sensitive(self):
        a = derive_permutation(KEY, 3, 64)
        b = derive_permutation(KEY, 3, 64)
        c = derive_permutation(KEY, 4, 64)
        assert np.array_equal(a.map, b.map)
        assert not np.array_equal(a.map, c.map)
        assert a.block_index == 3

    def test_single_bit_key_flips_change_permutation(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            base = bytes(rng.integers(0, 256, size=32, dtype=np.uint8))
            bit = int(rng.integers(0, 256))
            flipped = bytearray(base)
            flipped[bit // 8] ^= 1 << (bit % 8)
            p0 = derive_permutation(SecretKey(base), 0, 16)
            p1 = derive_permutation(SecretKey(bytes(flipped)), 0, 16)
            assert not np.array_equal(p0.map, p1.map)

    def test_bijection_across_sizes(self):
        for size in (1, 2, 3, 17, 255, 256, 300):
            p = derive_permutation(KEY, 9, size)
            assert np.array_equal(np.sort(p.map), np.arange(size))

    def test_size_one_is_identity(self):
        assert derive_permutation(KEY, 0, 1).map.tolist() == [0]

    def test_uniform_over_s6_by_chi_square(self):
        # 1e5 derivations at size 6 should hit all 720 permutations uniformly
        import itertools
        index = {p: i for i, p in enumerate(itertools.permutations(range(6)))}
        counts = np.zeros(720, dtype=np.int64)
        for ell in range(100_000):
            p = derive_permutation(KEY, ell, 6)
            counts[index[tuple(p.map.tolist())]] += 1
        assert counts.min() > 0
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.001

    def test_invalid_inputs(self):
        with pytest.raises(ShapeError):
            derive_permutation(KEY, -1, 8)
        with pytest.raises(ShapeError):
            derive_permutation(KEY, 0, 0)
        with pytest.raises(KeyFormatError):
            SecretKey(b"short")
        with pytest.raises(KeyFormatError):
            SecretKey.from_hex("zz" * 16)


class TestBatchedDerivation:
    @pytest.mark.parametrize("size", (1, 2, 64, 255, 256, 257, 4096))
    def test_rows_match_single_derivations(self, size):
        ells = [0, 1, 7, 2**32, 2**64 - 2, 2**64 - 1]
        want = np.stack([derive_permutation(KEY, ell, size).map for ell in ells])
        got = derive_permutations(KEY, ells, size)
        assert got.shape == (len(ells), size) and got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_frozen_vectors(self):
        groups = {}
        for size, keyhex, ell, want in _frozen_vectors():
            groups.setdefault((size, keyhex), []).append((ell, want))
        for (size, keyhex), rows in groups.items():
            ells, wants = zip(*rows)
            got = derive_permutations(SecretKey.from_hex(keyhex), ells, size)
            assert np.array_equal(got, np.stack(wants)), (size, ells)

    def test_exhausted_row_is_derived_again(self, monkeypatch):
        real = permcipher.fisher_yates_lockstep

        def second_row_runs_out(streams, size):
            perms, ok = real(streams, size)
            perms[1] = 0
            ok[1] = False
            return perms, ok

        monkeypatch.setattr(permcipher, "fisher_yates_lockstep",
                            second_row_runs_out)
        want = np.stack([derive_permutation(KEY, ell, 64).map for ell in (3, 4, 5)])
        assert np.array_equal(derive_permutations(KEY, [3, 4, 5], 64), want)

    def test_short_first_stream_retries_with_doubling(self, monkeypatch):
        # a 64-byte first stream cannot shuffle 300 samples, so every row of
        # the batch runs out and is derived again from longer streams
        want = derive_permutations(KEY, [0, 9, 2**64 - 1], 300)
        monkeypatch.setattr(permcipher, "_stream_bytes", lambda size: 0)
        assert np.array_equal(derive_permutations(KEY, [0, 9, 2**64 - 1], 300), want)
        assert np.array_equal(derive_permutation(KEY, 9, 300).map, want[1])

    def test_input_checks_come_before_keystream_work(self, monkeypatch):
        def no_keystream(*args):
            raise AssertionError("keystream drawn")

        monkeypatch.setattr(permcipher, "_keystreams", no_keystream)
        for size in (0, -1):
            with pytest.raises(ShapeError):
                derive_permutations(KEY, [0, 1], size)
        for ells in ([-1], [0, 2**64], [3, 2**64 + 5, 4]):
            with pytest.raises(ShapeError):
                derive_permutations(KEY, ells, 8)
        assert derive_permutations(KEY, [], 8).shape == (0, 8)
        assert derive_permutations(KEY, range(5, 5), 8).shape == (0, 8)
        ones = derive_permutations(KEY, [0, 2**64 - 1], 1)
        assert ones.shape == (2, 1) and not ones.any()


class TestApplication:
    def test_interface_example(self):
        x = np.array([10 + 0j, 20, 30, 40])  # a, b, c, d
        p = Permutation(map=np.array([2, 0, 3, 1]))
        assert encrypt_block(x, p).tolist() == [30, 10, 40, 20]  # c, a, d, b

    def test_roundtrip_grid(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))
        p = derive_permutation(KEY, 7, 256)
        y = encrypt_block(x, p)
        assert y.shape == x.shape
        assert np.array_equal(decrypt_block(y, p), x)
        assert not np.array_equal(y, x)

    def test_identity(self):
        x = np.arange(10, dtype=complex)
        p = Permutation.identity(10)
        assert np.array_equal(encrypt_block(x, p), x)
        assert np.array_equal(decrypt_block(x, p), x)

    def test_inverse_map(self):
        p = derive_permutation(KEY, 0, 32)
        q = p.inverse()
        assert np.array_equal(p.map[q.map], np.arange(32))
        assert np.array_equal(q.map[p.map], np.arange(32))

    def test_size_mismatch(self):
        p = Permutation.identity(8)
        with pytest.raises(ShapeError):
            encrypt_block(np.zeros(9, dtype=complex), p)

    def test_not_a_permutation_rejected(self):
        # a stack is checked row by row
        for m in ([0, 0, 2], [[0, 1, 2], [0, 0, 2]], np.zeros((2, 2, 2), dtype=np.int64),
                  np.zeros(0, dtype=np.int64)):
            with pytest.raises(ShapeError):
                Permutation(map=np.array(m))

    def test_non_integer_map_rejected(self):
        for m in (np.array([0.7, 1.2, 2.9]), np.array([0.0, 1.0]), np.array([True, False])):
            with pytest.raises(ShapeError, match="integers"):
                Permutation(map=m)

    def test_callers_array_stays_writable(self):
        a = np.array([2, 0, 1], dtype=np.int64)
        p = Permutation(map=a)
        a[0] = 3
        assert p.map.tolist() == [2, 0, 1]
        assert not p.map.flags.writeable


def _blocks(data, size, count):
    """A (count, size) complex stack of distinct samples."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, size)) + 1j * rng.normal(size=(count, size))


class TestBatchApplication:
    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 40), count=st.integers(1, 6), data=st.data())
    def test_shared_map_equals_per_block_calls(self, size, count, data):
        x = _blocks(data, size, count)
        p = Permutation(map=np.random.default_rng(size).permutation(size))
        want = np.stack([encrypt_block(row, p) for row in x])
        y = encrypt_block(x, p)
        assert np.array_equal(y, want)
        assert np.array_equal(y, x[:, p.map])
        assert np.array_equal(decrypt_block(y, p), x)

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 40), count=st.integers(1, 6), data=st.data())
    def test_stack_gives_block_r_row_r(self, size, count, data):
        x = _blocks(data, size, count)
        ells = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=count, max_size=count))
        rows = [derive_permutation(KEY, ell, size) for ell in ells]
        p = Permutation(map=np.stack([r.map for r in rows]))
        y = encrypt_block(x, p)
        assert np.array_equal(y, np.stack([encrypt_block(b, r) for b, r in zip(x, rows)]))
        assert np.array_equal(y, np.stack([b[r.map] for b, r in zip(x, rows)]))
        assert np.array_equal(decrypt_block(y, p), x)
        assert np.array_equal(decrypt_block(x, p),
                              np.stack([decrypt_block(b, r) for b, r in zip(x, rows)]))
        inv = p.inverse()
        assert inv.map.shape == (count, size)
        assert np.array_equal(inv.map, np.stack([r.inverse().map for r in rows]))
        assert np.array_equal(encrypt_block(y, inv), x)

    def test_block_count_checks(self):
        stack = Permutation(map=np.stack([np.arange(4), np.arange(4)[::-1]]))
        for x in (np.zeros(4), np.zeros((3, 4)), np.zeros(10)):
            for fn in (encrypt_block, decrypt_block):
                with pytest.raises(ShapeError):
                    fn(x, stack)
        for fn in (encrypt_block, decrypt_block):
            with pytest.raises(ShapeError):
                fn(np.zeros(10), Permutation.identity(4))


class TestTransposeInterleaver:
    def test_small_maps(self):
        assert transpose_interleaver(2).map.tolist() == [0, 2, 1, 3]
        assert transpose_interleaver(3).map.tolist() == [0, 3, 6, 1, 4, 7, 2, 5, 8]

    def test_matches_matrix_transpose(self):
        n = 8
        rng = np.random.default_rng(15)
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        got = encrypt_block(x, transpose_interleaver(n))
        assert np.array_equal(got, x.T)

    def test_involution(self):
        n = 16
        p = transpose_interleaver(n)
        x = np.random.default_rng(16).normal(size=n * n).astype(complex)
        assert np.array_equal(encrypt_block(encrypt_block(x, p), p), x)

    def test_built_once_per_size_and_read_only(self):
        p = transpose_interleaver(16)
        assert transpose_interleaver(16) is p
        assert transpose_interleaver(8) is not p
        assert not p.map.flags.writeable
        with pytest.raises(ValueError):
            p.map[0] = 1
        with pytest.raises(ShapeError):
            transpose_interleaver(0)


class TestKeyspace:
    def test_values(self):
        assert keyspace_bits(0) == 0.0
        assert keyspace_bits(1) == 0.0
        assert abs(keyspace_bits(4) - np.log2(24)) < 1e-9
        assert keyspace_bits(256) > 1683.0
        assert abs(keyspace_bits(256) - 1683.9958) < 1e-3

    def test_monotone(self):
        vals = [keyspace_bits(s) for s in range(1, 60)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestScramblingStrength:
    def test_wrong_key_ser_near_guessing_floor(self):
        # noiseless flat channel, decrypt with the wrong key: demodulated
        # SER should sit at the uniform-guessing ceiling 1 - 1/M
        rng = np.random.default_rng(17)
        n, m, blocks = 256, 4, 100
        c = QamConstellation.square(m)
        k1, k2 = KEY, SecretKey(bytes(range(1, 33)))
        errors = total = 0
        for b in range(blocks):
            bits = rng.integers(0, 2, size=n * c.bits_per_symbol, dtype=np.uint8)
            d = qam_modulate(bits, c)
            x = ifft_modulate(d)
            y = encrypt_block(x, derive_permutation(k1, b, n))
            s = decrypt_block(y, derive_permutation(k2, b, n))
            got = qam_point_indices(fft_demodulate(s), c)
            want = qam_point_indices(d, c)
            errors += int(np.count_nonzero(got != want))
            total += n
        ser = errors / total
        assert ser >= 1 - 1 / m - 0.02

    def test_distortionless_with_right_key(self):
        rng = np.random.default_rng(18)
        n = 256
        c = QamConstellation.square(4)
        bits = rng.integers(0, 2, size=8 * n * c.bits_per_symbol, dtype=np.uint8)
        d = qam_modulate(bits, c).reshape(8, n)
        p = derive_permutation(KEY, 0, 8 * n)
        x = ifft_modulate(d)
        s = decrypt_block(encrypt_block(x, p), p)
        got = qam_demodulate(fft_demodulate(s).reshape(-1), c)
        assert np.array_equal(got, bits)
