"""Keyed sample-permutation cipher and the fixed transpose interleaver.

Permutation semantics: a map pi of length `size` scrambles a flat,
symbol-major sample vector so that output position n carries input
sample pi[n].  Decryption applies the inverse map.

Key schedule (pinned so independent implementations interoperate):

* per-block seed  = SHA-256(key_bytes || block_index as 8-byte big-endian)
* keystream       = AES-256-CTR(seed, 16 zero bytes initial counter)
                    over zero plaintext
* permutation     = Fisher-Yates over [0..size), i descending; each draw
  j uniform on [0, i] by rejection sampling: read ceil(bit_length(i)/8)
  stream bytes big-endian, mask to bit_length(i) bits, reject values > i.

The keystream is prefix-stable, so running out of bytes and retrying with
a longer stream replays the same shuffle.

``derive_permutation`` shuffles one block; ``derive_permutations`` shuffles
many blocks in one lockstep pass and gives the same maps.  The batched call
is faster only for many small blocks, so callers that need one block at a
time, or a few large ones, use ``derive_permutation``.

``encrypt_block`` and ``decrypt_block`` are the only code that applies a
map.  They take any number of whole blocks at once: a ``Permutation`` holds
one map, which serves every block, or a (B, size) stack, whose row r serves
block r.
"""

import functools
import hashlib
import math
import secrets
from dataclasses import dataclass, field

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import KeyFormatError, ShapeError

MIN_KEY_BYTES = 16


@dataclass(frozen=True)
class SecretKey:
    key_bytes: bytes

    def __post_init__(self):
        if not isinstance(self.key_bytes, bytes) or len(self.key_bytes) < MIN_KEY_BYTES:
            raise KeyFormatError(
                f"key must be at least {MIN_KEY_BYTES} bytes of raw material"
            )

    @classmethod
    def generate(cls, n_bytes: int = 32) -> "SecretKey":
        return cls(secrets.token_bytes(n_bytes))

    @classmethod
    def from_hex(cls, text: str) -> "SecretKey":
        try:
            raw = bytes.fromhex(text.strip())
        except ValueError as e:
            raise KeyFormatError(f"not a hex key: {e}") from e
        return cls(raw)

    def hex(self) -> str:
        return self.key_bytes.hex()


@dataclass(frozen=True, eq=False)
class Permutation:
    """One map of length size, or a (B, size) stack of B maps.

    The map is copied and frozen, so the caller's array stays writable and
    later writes to it do not reach the Permutation.  block_index is the
    block of the map, or of a stack's first row.
    """

    map: np.ndarray = field(repr=False)
    block_index: int = 0

    def __post_init__(self):
        m = np.array(self.map)
        if m.dtype.kind not in "iu":
            raise ShapeError(f"map must hold integers, got dtype {m.dtype}")
        m = m.astype(np.int64, copy=False)
        if m.ndim not in (1, 2) or m.shape[-1] == 0 or not (
                np.sort(m, axis=-1) == np.arange(m.shape[-1])).all():
            raise ShapeError("map is not a permutation of 0..size-1 with size >= 1")
        m.setflags(write=False)
        object.__setattr__(self, "map", m)

    @property
    def size(self) -> int:
        return int(self.map.shape[-1])

    def inverse(self) -> "Permutation":
        ramp = np.broadcast_to(np.arange(self.size), self.map.shape)
        return Permutation(map=decrypt_block(ramp, self), block_index=self.block_index)

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(map=np.arange(size, dtype=np.int64))


# Zero nonce for every block's AES-CTR; a mode object holds no stream state,
# so one instance serves every encryptor.
_CTR = modes.CTR(b"\x00" * 16)


def _keystreams(key: SecretKey, ells, n: int) -> np.ndarray:
    """(B, n) uint8: the first n keystream bytes of each block in ells."""
    zeros = bytes(n)
    streams = []
    for ell in ells:
        seed = hashlib.sha256(key.key_bytes + ell.to_bytes(8, "big")).digest()
        streams.append(Cipher(algorithms.AES(seed), _CTR).encryptor().update(zeros))
    return np.frombuffer(b"".join(streams), dtype=np.uint8).reshape(len(streams), n)


def _stream_bytes(size: int) -> int:
    """Keystream bytes that a rejection-free shuffle of `size` reads.

    A draw for i reads one byte per width b with 256**b <= i, so the total
    is the sum over 256**b < size of (size - 256**b).
    """
    need, edge = 0, 1
    while edge < size:
        need += size - edge
        edge <<= 8
    return need


def fisher_yates(stream, size):
    """(perm, bytes read, ok): the key schedule's shuffle run on one byte stream.

    ok is False when the stream ran out; perm then holds the swaps drawn so
    far.  Every i in one byte-width band reads words of the same width, so
    the rest of the stream is split into words once per band and the draws
    scan a Python sequence instead of indexing numpy bytes one at a time.
    """
    perm = list(range(size))
    pos = 0
    top = max(size - 1, 0).bit_length()
    while top:
        nbytes = (top + 7) >> 3
        floor = 8 * nbytes - 8
        words = _words(stream, pos, nbytes)
        k = 0
        try:
            for nbits in range(top, floor, -1):
                mask = (1 << nbits) - 1
                for i in range(min(mask, size - 1), mask >> 1, -1):
                    v = words[k] & mask
                    k += 1
                    while v > i:
                        v = words[k] & mask
                        k += 1
                    perm[i], perm[v] = perm[v], perm[i]
        except IndexError:
            return np.array(perm, dtype=np.int64), pos + k * nbytes, False
        pos += k * nbytes
        top = floor
    return np.array(perm, dtype=np.int64), pos, True


def _words(stream, pos, nbytes):
    """Unread bytes as big-endian nbytes-wide ints; a partial tail is dropped."""
    if nbytes == 1:
        return stream[pos:].tobytes()  # indexing bytes yields ints directly
    k = (stream.shape[0] - pos) // nbytes
    return _join_bytes(stream[pos:pos + k * nbytes].reshape(k, nbytes)).tolist()


def _join_bytes(groups):
    """(..., nbytes) uint8 groups as big-endian ints of the next numpy width."""
    nbytes = groups.shape[-1]
    width = 1 << (nbytes - 1).bit_length()  # numpy has no 3-, 5-, 6- or 7-byte ints
    if width != nbytes:
        pad = [(0, 0)] * (groups.ndim - 1) + [(width - nbytes, 0)]
        groups = np.pad(groups, pad)
    return groups.view(f">u{width}")[..., 0]


def fisher_yates_lockstep(streams, size):
    """(perms, ok): row r is fisher_yates(streams[r], size), for B rows at once.

    This is Knuth's Algorithm P, batched.  Per byte-width band each row's
    unread bytes are split into words once, held transposed as (K, B) in
    their narrow width, and the rows step over word columns together: a row
    still inside the band tests its next word against its own i and
    decrements i on acceptance.  A row's draw for i is kept in draws[i],
    written every step: a rejected word is overwritten by the accepted one,
    since the row stays at i until it accepts; a row past the band writes
    draws[low - 1], which the next band overwrites, and a row that is done
    writes draws[0], which no swap reads.  The swaps run afterwards, one
    fancy-index swap across all rows per i.  A row that runs out of words
    gets ok False, draws[i] = i from its stalled i down (no swap), and so
    keeps the swaps drawn so far, as fisher_yates does.
    """
    B, n = streams.shape
    cols = np.arange(B)
    draws = np.empty((size, B), dtype=np.int64)
    draws[:] = np.arange(size)[:, None]  # j == i is no swap
    ok = np.ones(B, dtype=bool)
    i = np.full(B, size - 1, dtype=np.int64)
    pos = np.zeros(B, dtype=np.int64)
    masks = np.zeros(size, dtype=np.int64)
    for b in range(1, size.bit_length() + 1):
        masks[1 << (b - 1):1 << b] = (1 << b) - 1
    top = max(size - 1, 0).bit_length()
    while top:
        nbytes = (top + 7) >> 3
        floor = 8 * nbytes - 8
        low = 1 << floor
        avail = (n - pos) // nbytes
        words = _band_words(streams, pos, nbytes, int(avail.max()))
        cuts = set(avail.tolist())
        used = np.zeros(B, dtype=np.int64)
        for k in range(words.shape[0] + 1):
            if k in cuts:
                dead = np.flatnonzero((avail == k) & (i >= low))
                draws[i[dead], dead] = i[dead]
                ok[dead] = False
                i[dead] = 0
            if k == words.shape[0]:
                break
            live = i >= low
            if not live.any():
                break
            used += live
            v = words[k] & masks[i]
            draws[i, cols] = v
            i -= live & (v <= i)
        pos += used * nbytes
        top = floor
    perms = np.tile(np.arange(size, dtype=np.int64), (B, 1))
    for step in range(size - 1, 0, -1):
        j = draws[step]
        held = perms[:, step].copy()
        perms[:, step] = perms[cols, j]
        perms[cols, j] = held
    return perms, ok


def _band_words(streams, pos, nbytes, k):
    """(k, B) big-endian nbytes-wide words of each row's bytes from pos on.

    Words past a row's end read as zeros; the caller knows where each row
    ends.  Rows all at byte 0, as in the first band, need no gather.
    """
    B, n = streams.shape
    lo, hi = int(pos.min()), int(pos.max())
    if lo == hi:
        rest = streams[:, lo:lo + k * nbytes]
    else:
        padded = np.zeros((B, max(n, hi + k * nbytes)), dtype=np.uint8)
        padded[:, :n] = streams
        windows = np.lib.stride_tricks.sliding_window_view(padded, k * nbytes, axis=1)
        rest = windows[np.arange(B), pos]
    if nbytes == 1:
        return np.ascontiguousarray(rest.T)
    words = _join_bytes(rest.reshape(B, k, nbytes))
    return np.ascontiguousarray(words.T, dtype=words.dtype.newbyteorder("="))


def _check_block_index(ell) -> int:
    if not 0 <= ell < 1 << 64:
        raise ShapeError("block_index must fit in an unsigned 64-bit counter")
    return int(ell)


def _shuffle(key: SecretKey, ell: int, size: int, n: int) -> np.ndarray:
    """One block's map from an n-byte keystream, doubling n until it suffices."""
    while True:
        perm, _, ok = fisher_yates(_keystreams(key, (ell,), n)[0], size)
        if ok:
            return perm
        n *= 2


def derive_permutation(key: SecretKey, block_index: int, size: int) -> Permutation:
    """Deterministic keyed permutation for one interleaving block."""
    if size < 1:
        raise ShapeError(f"size must be >= 1, got {size}")
    block_index = _check_block_index(block_index)
    if size == 1:
        return Permutation(map=np.zeros(1, dtype=np.int64), block_index=block_index)
    perm = _shuffle(key, block_index, size, 4 * _stream_bytes(size) + 64)
    return Permutation(map=perm, block_index=block_index)


def derive_permutations(key: SecretKey, ells, size: int) -> np.ndarray:
    """Row r is derive_permutation(key, ells[r], size).map; shape (B, size).

    All blocks are shuffled in one lockstep pass, which pays off for many
    small blocks; for one block, or a few large ones, derive_permutation
    is faster.
    """
    if size < 1:
        raise ShapeError(f"size must be >= 1, got {size}")
    ells = [_check_block_index(ell) for ell in ells]
    if size == 1 or not ells:
        return np.zeros((len(ells), size), dtype=np.int64)
    n = 4 * _stream_bytes(size) + 64
    maps, ok = fisher_yates_lockstep(_keystreams(key, ells, n), size)
    for r in np.flatnonzero(~ok):
        maps[r] = _shuffle(key, ells[r], size, 2 * n)
    if not (np.sort(maps, axis=1) == np.arange(size)).all():
        raise ShapeError("a derived map is not a permutation of 0..size-1")
    return maps


@functools.lru_cache(maxsize=8)  # bounded: the map of n=4096 alone is 128 MiB
def transpose_interleaver(n: int) -> Permutation:
    """Length-n^2 map sending flat index l*n + m to m*n + l.

    Applied to n OFDM symbols of n samples stacked symbol-major, output
    symbol l carries, at position m, the l-th sample of input symbol m.
    The map is an involution, so it is its own inverse.  Recent sizes are
    cached; the Permutation is frozen and its map read-only, so callers
    share it.
    """
    if n < 1:
        raise ShapeError(f"n must be >= 1, got {n}")
    return Permutation(
        map=np.arange(n * n, dtype=np.int64).reshape(n, n).T.reshape(-1)
    )


def _positions(p: Permutation, x: np.ndarray) -> np.ndarray:
    """(B, size) flat positions of x's B blocks that p's maps gather from."""
    if x.size % p.size:
        raise ShapeError(f"sample count {x.size} is not a whole number of blocks of {p.size}")
    count = x.size // p.size
    if p.map.ndim == 2 and len(p.map) != count:
        raise ShapeError(f"{count} blocks for a stack of {len(p.map)} maps")
    return p.map + p.size * np.arange(count)[:, None]


def encrypt_block(x: np.ndarray, p: Permutation) -> np.ndarray:
    """Scramble samples: output position n of a block holds its sample map[n].

    x holds whole blocks of p.size samples, flattened in C order (an (L, N)
    grid with L*N == p.size is one symbol-major block); its shape is kept.
    """
    x = np.asarray(x)
    return x.reshape(-1)[_positions(p, x)].reshape(x.shape)


def decrypt_block(y: np.ndarray, p: Permutation) -> np.ndarray:
    """Inverse of encrypt_block under the same permutation."""
    y = np.asarray(y)
    positions = _positions(p, y)
    out = np.empty(y.size, dtype=y.dtype)
    out[positions] = y.reshape(positions.shape)
    return out.reshape(y.shape)


def keyspace_bits(size: int) -> float:
    """log2(size!), the entropy of a uniform permutation draw."""
    if size < 0:
        raise ShapeError("size must be non-negative")
    return math.lgamma(size + 1) / math.log(2.0)
