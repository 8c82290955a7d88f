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
"""

import functools
import hashlib
import math
import secrets
from dataclasses import dataclass, field

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from . import _kernels
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
    map: np.ndarray = field(repr=False)
    block_index: int = 0

    def __post_init__(self):
        m = np.asarray(self.map, dtype=np.int64)
        if m.ndim != 1 or not np.array_equal(np.sort(m), np.arange(m.size)):
            raise ShapeError("map is not a permutation of 0..size-1")
        m.setflags(write=False)
        object.__setattr__(self, "map", m)

    @property
    def size(self) -> int:
        return int(self.map.size)

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.map)
        inv[self.map] = np.arange(self.size)
        return Permutation(map=inv, block_index=self.block_index)

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


def _check_block_index(ell) -> int:
    if not 0 <= ell < 1 << 64:
        raise ShapeError("block_index must fit in an unsigned 64-bit counter")
    return int(ell)


def _shuffle(key: SecretKey, ell: int, size: int, n: int) -> np.ndarray:
    """One block's map from an n-byte keystream, doubling n until it suffices."""
    while True:
        perm, _, ok = _kernels.fisher_yates(_keystreams(key, (ell,), n)[0], size)
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
    maps, ok = _kernels.fisher_yates_lockstep(_keystreams(key, ells, n), size)
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


def encrypt_block(x: np.ndarray, p: Permutation) -> np.ndarray:
    """Scramble samples: output position n holds input sample p.map[n].

    Accepts a flat vector of length p.size or an (L, N) grid with
    L*N == p.size, flattened symbol-major; shape is preserved.
    """
    x = np.asarray(x)
    if x.size != p.size:
        raise ShapeError(f"sample count {x.size} != permutation size {p.size}")
    flat = x.reshape(-1)
    return flat[p.map].reshape(x.shape)


def decrypt_block(y: np.ndarray, p: Permutation) -> np.ndarray:
    """Inverse of encrypt_block under the same permutation."""
    y = np.asarray(y)
    if y.size != p.size:
        raise ShapeError(f"sample count {y.size} != permutation size {p.size}")
    flat = y.reshape(-1)
    out = np.empty_like(flat)
    out[p.map] = flat
    return out.reshape(y.shape)


def keyspace_bits(size: int) -> float:
    """log2(size!), the entropy of a uniform permutation draw."""
    if size < 0:
        raise ShapeError("size must be non-negative")
    return math.lgamma(size + 1) / math.log(2.0)
