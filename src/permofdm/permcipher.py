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
"""

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


def _keystream(key: SecretKey, block_index: int, n: int) -> np.ndarray:
    seed = hashlib.sha256(
        key.key_bytes + int(block_index).to_bytes(8, "big")
    ).digest()
    enc = Cipher(algorithms.AES(seed), modes.CTR(b"\x00" * 16)).encryptor()
    return np.frombuffer(enc.update(b"\x00" * n), dtype=np.uint8)


def derive_permutation(key: SecretKey, block_index: int, size: int) -> Permutation:
    """Deterministic keyed permutation for one interleaving block."""
    if size < 1:
        raise ShapeError(f"size must be >= 1, got {size}")
    if not 0 <= block_index < 1 << 64:
        raise ShapeError("block_index must fit in an unsigned 64-bit counter")
    if size == 1:
        return Permutation(map=np.zeros(1, dtype=np.int64), block_index=block_index)
    # a draw for i reads one byte per width b with 256**b <= i
    need, edge = 0, 1
    while edge < size:
        need += size - edge
        edge <<= 8
    n = 4 * need + 64
    while True:
        stream = _keystream(key, block_index, n)
        perm, _, ok = _kernels.fisher_yates(stream, size)
        if ok:
            return Permutation(map=perm, block_index=block_index)
        n *= 2


def transpose_interleaver(n: int) -> Permutation:
    """Length-n^2 map sending flat index l*n + m to m*n + l.

    Applied to n OFDM symbols of n samples stacked symbol-major, output
    symbol l carries, at position m, the l-th sample of input symbol m.
    The map is an involution, so it is its own inverse.
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
