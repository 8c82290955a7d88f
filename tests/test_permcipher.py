"""Keyed permutation cipher: frozen vectors, statistical uniformity,
bijection/roundtrip properties, and scrambling strength."""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from permofdm import harness, permcipher
from permofdm import (
    BerExperimentConfig,
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
from permofdm.cli import main
from permofdm.errors import PASS_SAMPLES
from permofdm.fileio import write_iq

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
        with pytest.raises(ShapeError, match="non-negative"):
            keyspace_bits(-1)
        with pytest.raises(KeyFormatError):
            SecretKey(b"short")
        with pytest.raises(KeyFormatError):
            SecretKey.from_hex("zz" * 16)


LOCKSTEP = permcipher.LOCKSTEP_MIN_ROWS
ELLS = [0, 1, 7, 2**32, 2**64 - 2, 2**64 - 1]


class TestBatchedDerivation:
    @pytest.mark.parametrize("rows", (len(ELLS), LOCKSTEP))  # per-row loop, lockstep
    @pytest.mark.parametrize("size", (1, 2, 64, 255, 256, 257, 4096))
    def test_rows_match_single_derivations(self, size, rows):
        ells = (ELLS + list(range(100, 100 + rows)))[:rows]
        want = np.stack([derive_permutation(KEY, ell, size).map for ell in ells])
        got = derive_permutations(KEY, ells, size)
        assert isinstance(got, Permutation)
        assert got.map.shape == (rows, size) and got.map.dtype == np.int64
        assert np.array_equal(got.map, want)

    def test_frozen_vectors(self):
        groups = {}
        for size, keyhex, ell, want in _frozen_vectors():
            groups.setdefault((size, keyhex), []).append((ell, want))
        for (size, keyhex), rows in groups.items():
            ells, wants = zip(*rows)
            got = derive_permutations(SecretKey.from_hex(keyhex), ells, size)
            assert np.array_equal(got.map, np.stack(wants)), (size, ells)

    @pytest.mark.parametrize("rows", (3, LOCKSTEP))  # per-row loop, lockstep
    def test_exhausted_row_is_derived_again(self, monkeypatch, rows):
        ells = range(3, 3 + rows)
        want = np.stack([derive_permutation(KEY, ell, 64).map for ell in ells])
        first = 4 * permcipher._stream_bytes(64) + 64
        lengths = []
        one, many = permcipher.fisher_yates, permcipher.fisher_yates_lockstep

        def second_row_runs_out(stream, size):
            # the per-row loop: row 1 of the first pass runs out
            lengths.append(len(stream))
            perm, used, ok = one(stream, size)
            return (perm * 0, used, False) if len(lengths) == 2 else (perm, used, ok)

        def second_row_runs_out_in_lockstep(streams, size):
            perms, ok = many(streams, size)
            perms[1], ok[1] = 0, False
            return perms, ok

        monkeypatch.setattr(permcipher, "fisher_yates", second_row_runs_out)
        monkeypatch.setattr(permcipher, "fisher_yates_lockstep",
                            second_row_runs_out_in_lockstep)
        assert np.array_equal(derive_permutations(KEY, ells, 64).map, want)
        # the row goes around again, alone, on a stream twice as long
        assert lengths[-1] == 2 * first and lengths.count(2 * first) == 1

    def test_short_first_stream_retries_with_doubling(self, monkeypatch):
        # a 64-byte first stream cannot shuffle 300 samples, so every row of
        # the batch runs out and is derived again from longer streams
        want = derive_permutations(KEY, [0, 9, 2**64 - 1], 300).map
        monkeypatch.setattr(permcipher, "_stream_bytes", lambda size: 0)
        assert np.array_equal(derive_permutations(KEY, [0, 9, 2**64 - 1], 300).map, want)
        assert np.array_equal(derive_permutation(KEY, 9, 300).map, want[1])

    def test_doubling_stops_at_the_stream_limit(self, monkeypatch):
        ells = [0, 9, 2**64 - 1]
        want = derive_permutations(KEY, ells, 300).map
        need = max(permcipher.fisher_yates(stream, 300)[1]
                   for stream in permcipher._keystreams(KEY, ells, 4096))
        lengths = []
        keystreams = permcipher._keystreams

        def counted(key, ells, n):
            lengths.append(n)
            return keystreams(key, ells, n)

        monkeypatch.setattr(permcipher, "_keystreams", counted)
        monkeypatch.setattr(permcipher, "_stream_bytes", lambda size: 0)  # 64-byte first stream
        monkeypatch.setattr(permcipher, "_MAX_STREAM", need)
        assert np.array_equal(derive_permutations(KEY, ells, 300).map, want)
        assert lengths[-1] == need and max(lengths[:-1]) < need
        # one byte short, the row that reads the most runs out at the limit
        monkeypatch.setattr(permcipher, "_MAX_STREAM", need - 1)
        with pytest.raises(ShapeError, match="ran out"):
            derive_permutations(KEY, ells, 300)

    def test_input_checks_come_before_keystream_work(self, monkeypatch):
        def no_keystream(*args):
            raise AssertionError("keystream drawn")

        monkeypatch.setattr(permcipher, "_keystreams", no_keystream)
        for size in (0, -1, 139_000_000):  # the last needs a first stream over 2**31 bytes
            with pytest.raises(ShapeError):
                derive_permutations(KEY, [0, 1], size)
        # every size up to the harness bound 2**26 fits, with one doubling
        assert 2 * (4 * permcipher._stream_bytes(2**26) + 64) <= permcipher._MAX_STREAM
        with monkeypatch.context() as m:
            m.setattr(permcipher, "_MAX_STREAM", 4 * permcipher._stream_bytes(300) + 64)
            with pytest.raises(AssertionError, match="keystream drawn"):
                derive_permutations(KEY, [0], 300)  # the first stream just fits
            with pytest.raises(ShapeError, match="needs a keystream"):
                derive_permutations(KEY, [0], 301)
        for ells in ([-1], [0, 2**64], [3, 2**64 + 5, 4]):
            with pytest.raises(ShapeError):
                derive_permutations(KEY, ells, 8)
        assert derive_permutations(KEY, [], 8).map.shape == (0, 8)
        assert derive_permutations(KEY, range(5, 5), 8).map.shape == (0, 8)
        ones = derive_permutations(KEY, [0, 2**64 - 1], 1).map
        assert ones.shape == (2, 1) and not ones.any()

    @settings(max_examples=25, deadline=None)
    @given(size=st.sampled_from((2, 3, 64, 257)),
           rows=st.one_of(st.integers(1, LOCKSTEP - 1), st.integers(LOCKSTEP, LOCKSTEP + 40)),
           first=st.integers(0, 2**64 - 1 - LOCKSTEP - 40))
    def test_row_r_is_block_r(self, size, rows, first):
        ells = range(first, first + rows)
        stack = derive_permutations(KEY, ells, size)
        for r, ell in enumerate(ells):
            assert np.array_equal(stack.map[r], derive_permutation(KEY, ell, size).map)

    # SHA-256 of the little-endian int64 maps of a batch for each loop and of one large map.
    # A wrong map barely moves a simulation's output bytes, so the maps themselves are pinned
    @pytest.mark.parametrize("trials, rows, size, digest", [
        (3, 1000, 64, "593a882b4254751f20628034bfa681407875cf5af96bbb07bc75e27f181735ad"),
        (1, 30, 256, "befb048f355bf2c8e0f1244f78f6e839de4c0bf947ed7d17b00aef2d0b6eb0d0"),
        (1, 1, 4096, "2181049cf4e5426c94c4c75e9079e5681f77e86a097338f5367f5935b5a9866c"),
    ], ids=["attack-fresh-lockstep", "per-row", "one-map"])
    def test_maps_match_pinned_digests(self, trials, rows, size, digest):
        # as a fresh-permutation recovery run derives them: trial t takes the next rows blocks
        maps = np.concatenate([derive_permutations(KEY, range(t * rows, (t + 1) * rows), size).map
                               for t in range(trials)])
        assert maps.shape == (trials * rows, size)
        assert hashlib.sha256(maps.astype("<i8").tobytes()).hexdigest() == digest

    def test_row_of_a_stack_is_checked_already(self, monkeypatch):
        stack = derive_permutations(KEY, [4, 5], 16)
        monkeypatch.setattr(Permutation, "__post_init__", None)  # no Permutation can be built
        row = stack[1]
        assert isinstance(row, Permutation) and row.size == 16
        assert np.array_equal(row.map, stack.map[1]) and not row.map.flags.writeable
        with pytest.raises(ShapeError):
            row[0]


def _ctr_stream(key_bytes, ell, n):
    """The pinned keystream, straight from the contract: AES-256-CTR over zeros."""
    seed = hashlib.sha256(key_bytes + ell.to_bytes(8, "big")).digest()
    return Cipher(algorithms.AES(seed), modes.CTR(bytes(16))).encryptor().update(bytes(n))


def _gf_mul(x, y):
    """x * y in GHASH's field, bit by bit (NIST SP 800-38D, Algorithm 1)."""
    z, v = 0, y
    for i in range(128):
        if x >> (127 - i) & 1:
            z ^= v
        v = (v >> 1) ^ (0xE1 << 120) if v & 1 else v >> 1
    return z


FIRST_STREAM_4096 = 4 * permcipher._stream_bytes(4096) + 64


class TestKeystream:
    @settings(max_examples=120, deadline=None)
    @given(key=st.binary(min_size=16, max_size=64),
           ells=st.lists(st.one_of(st.sampled_from((0, 2**32 - 1, 2**32, 2**64 - 1)),
                                   st.integers(0, 2**64 - 1)), min_size=1, max_size=4),
           n=st.one_of(st.integers(1, 32), st.integers(1, 5000), st.just(FIRST_STREAM_4096)))
    @example(key=bytes(range(64)), ells=[0, 2**32 - 1, 2**32, 2**64 - 1], n=FIRST_STREAM_4096)
    @example(key=bytes(16), ells=[2**64 - 1], n=1)
    @example(key=bytes(16), ells=[0, 2**32], n=33)
    def test_equals_the_aes_ctr_stream(self, key, ells, n):
        got = permcipher._keystreams(SecretKey(key), ells, n)
        assert got.shape == (len(ells), n) and got.dtype == np.uint8
        for row, ell in zip(got, ells):
            assert row.tobytes() == _ctr_stream(key, ell, n), (ell, n)

    @pytest.mark.parametrize("n", (1, 4 * permcipher._stream_bytes(64) + 64, FIRST_STREAM_4096))
    def test_rows_on_both_sides_of_a_key_group_edge(self, n):
        group = 8 * PASS_SAMPLES // (max(n, 32) + 16)  # the keys whose rows _keystreams joins
        for rows in sorted({1, max(group - 1, 1), group, group + 1, 1000}):
            ells = [(0x9E3779B97F4A7C15 * r) % 2**64 for r in range(rows)]
            got = permcipher._keystreams(KEY, ells, n)
            want = b"".join(_ctr_stream(KEY.key_bytes, ell, n) for ell in ells)
            assert got.shape == (rows, n) and got.tobytes() == want, (n, rows)

    def test_x_to_minus_56_table_inverts_a_bitwise_multiply_by_x_to_56(self):
        table = permcipher._times_x_to_minus_56()
        assert table.shape == (4096, 2) and table.dtype == np.uint64
        rng = np.random.default_rng(56)
        blocks = [1 << k for k in range(128)] + [(1 << 128) - 1]
        blocks += [int.from_bytes(rng.bytes(16), "big") for _ in range(300)]
        x56 = 1 << (127 - 56)
        rows = np.arange(0, 4096, 256)  # of byte 0 = 0, byte 1 = 0, ...
        for v in blocks:
            got = np.bitwise_xor.reduce(table[rows + list(v.to_bytes(16, "big"))])
            assert _gf_mul(int.from_bytes(got.tobytes(), "big"), x56) == v

    def test_the_batch_is_held_once(self):
        n = 4 * permcipher._stream_bytes(64) + 64
        permcipher._times_x_to_minus_56()  # built once per process, not per batch
        tracemalloc.start()
        try:
            streams = permcipher._keystreams(KEY, range(1000), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert streams.shape == (1000, n) and peak < 2.5 * streams.nbytes, peak / streams.nbytes


def test_each_derived_map_is_checked_once(monkeypatch, tmp_path):
    main(["keygen", "--out", str(tmp_path / "k.key"), "--seed", "3"])
    write_iq(tmp_path / "x.iq", np.arange(64, dtype=np.complex64))
    cfg = BerExperimentConfig(seed=1, n=64, interleaver="keyed", key=KEY)
    checks = []
    check = Permutation.__post_init__

    def counted(self):
        checks.append(self)
        check(self)

    monkeypatch.setattr(Permutation, "__post_init__", counted)

    assert harness._chunk_permutation(cfg, 0, 0, 30).map.shape == (30, 64)
    assert len(checks) == 1
    checks.clear()
    assert main(["encrypt", str(tmp_path / "x.iq"), "--out", str(tmp_path / "y.iq"),
                 "--key", str(tmp_path / "k.key"), "--n", "16"]) == 0
    assert len(checks) == 4


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
        q = decrypt_block(np.arange(32), p)
        assert np.array_equal(p.map[q], np.arange(32))
        assert np.array_equal(q[p.map], np.arange(32))

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
        ramp = np.broadcast_to(np.arange(size), (count, size))
        inv = Permutation(map=decrypt_block(ramp, p))
        assert np.array_equal(inv.map, np.stack([decrypt_block(np.arange(size), r) for r in rows]))
        assert np.array_equal(encrypt_block(y, inv), x)

    def test_block_count_checks(self):
        stack = Permutation(map=np.stack([np.arange(4), np.arange(4)[::-1]]))
        for x in (np.zeros((3, 4)), np.zeros(10)):
            for fn in (encrypt_block, decrypt_block):
                with pytest.raises(ShapeError):
                    fn(x, stack)
        with pytest.raises(ShapeError):
            decrypt_block(np.zeros(4), stack)  # only encrypt_block spreads one block
        for fn in (encrypt_block, decrypt_block):
            with pytest.raises(ShapeError):
                fn(np.zeros(10), Permutation.identity(4))


    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 40), rows=st.integers(2, 6), data=st.data())
    def test_one_block_through_a_stack(self, size, rows, data):
        (x,) = _blocks(data, size, 1)
        p = Permutation(map=np.stack([np.random.default_rng(r).permutation(size)
                                      for r in range(rows)]))
        y = encrypt_block(x, p)
        assert y.shape == (rows, size)
        assert np.array_equal(y, np.stack([x[m] for m in p.map]))
        assert np.array_equal(decrypt_block(y, p), np.broadcast_to(x, y.shape))

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("which", ["single", "stack", "transpose"])
    def test_in_place_decrypt_equals_a_fresh_one(self, which, count):
        """decrypt_block(y, p, out=y), as the CLI runs it, gives decrypt_block(y, p)."""
        size = 16
        p = {"single": derive_permutation(KEY, 5, size),
             "stack": derive_permutations(KEY, range(count), size),
             "transpose": transpose_interleaver(4)}[which]
        rng = np.random.default_rng(count)
        y = (rng.standard_normal((count, size))
             + 1j * rng.standard_normal((count, size))).astype(np.complex64)
        x, want = y.copy(), decrypt_block(y, p)
        assert decrypt_block(y, p, out=y) is y
        assert np.array_equal(y, want)
        assert np.array_equal(encrypt_block(want, p), x)


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

    def test_built_in_one_map_without_a_check(self, monkeypatch):
        monkeypatch.setattr(Permutation, "__post_init__", None)  # no Permutation can be built
        n = 512
        tracemalloc.start()
        try:
            p = transpose_interleaver.__wrapped__(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(p.map.reshape(n, n), np.arange(n * n).reshape(n, n).T)
        assert p.map.dtype == np.int64 and not p.map.flags.writeable
        assert peak <= 1.5 * p.map.nbytes
        assert p._inverse_map is p._index


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
