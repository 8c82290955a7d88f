"""Keyed sample-permutation cipher and the fixed transpose interleaver.

Permutation semantics: a map pi of length `size` scrambles a flat,
symbol-major sample vector so that output position n carries input
sample pi[n].  Decryption puts sample n back at position pi[n].

Key schedule (pinned so independent implementations interoperate):

* per-block seed  = SHA-256(key_bytes || block_index as 8-byte big-endian)
* keystream       = AES-256-CTR(seed, 16 zero bytes initial counter)
                    over zero plaintext
* permutation     = Fisher-Yates over [0..size), i descending; each draw
  j uniform on [0, i] by rejection sampling: read ceil(bit_length(i)/8)
  stream bytes big-endian, mask to bit_length(i) bits, reject values > i.

The keystream is prefix-stable, so running out of bytes and retrying with
a longer stream replays the same shuffle.

The stream is computed through AES-GCM, whose key set-up is native, and
its bytes are that CTR stream (NIST SP 800-38D): under a zero 96-bit nonce
GCM encrypts with counter blocks 2, 3, ..., the tag of an empty message is
block 1, and one zero block of associated data adds x**56 * H to that tag,
where H = E(0**128) is block 0.  One GCM call takes at most 2**31 - 1
bytes, which bounds the map size at about 1.38e8.

``derive_permutations(key, ells, size)`` is the key schedule's one entry:
it returns the maps of blocks ells as one checked (B, size) Permutation
stack.  From LOCKSTEP_MIN_ROWS rows on it shuffles them in one
fisher_yates_lockstep pass, and below that it runs fisher_yates once per
row; both loops give the same maps.  ``derive_permutation`` is its
one-block case.

``encrypt_block`` and ``decrypt_block`` are the only code that applies a
map.  They take any number of whole blocks at once: a ``Permutation`` holds
one map, which serves every block, or a (B, size) stack, whose row r serves
block r; ``encrypt_block`` also spreads one block through every map of a
stack.  Encryption gathers by np.take; decryption gathers the same way by a
map that is its own inverse (the transpose interleaver's) and otherwise
scatters to flat positions.  Both write into an ``out=`` array if given one.
"""

import functools
import hashlib
import math
import operator
import secrets
from dataclasses import dataclass, field

import numpy as np
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import PASS_SAMPLES, KeyFormatError, ShapeError, out_array

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
    later writes to it do not reach the Permutation.  The cipher gathers
    through _index, a writable alias of the map, because np.take copies a
    read-only index array on every call.
    """

    map: np.ndarray = field(repr=False)
    _inverse_map = None  # the map's index when it is its own inverse, else None

    def __post_init__(self):
        m = np.array(self.map)
        if m.dtype.kind not in "iu":
            raise ShapeError(f"map must hold integers, got dtype {m.dtype}")
        m = m.astype(np.int64, copy=False)
        if m.ndim not in (1, 2) or m.shape[-1] == 0 or not (
                np.sort(m, axis=-1) == np.arange(m.shape[-1])).all():
            raise ShapeError("map is not a permutation of 0..size-1 with size >= 1")
        self._hold(m)

    def _hold(self, m: np.ndarray) -> "Permutation":
        """Freeze and hold m, an int64 map known to be a permutation; return self."""
        frozen = m.view()
        frozen.setflags(write=False)
        object.__setattr__(self, "map", frozen)
        object.__setattr__(self, "_index", m)
        return self

    def __getitem__(self, r) -> "Permutation":
        """Map r of a stack, without checking it again."""
        if self.map.ndim != 2:
            raise ShapeError("a single map has no rows")
        return object.__new__(Permutation)._hold(self._index[operator.index(r)])

    @property
    def size(self) -> int:
        return int(self.map.shape[-1])

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(map=np.arange(size, dtype=np.int64))


# The longest keystream: blocks 0, 1 and cryptography's most bytes per AESGCM.encrypt
_MAX_STREAM = 32 + 2**31 - 1
_TAG_BYTE_ROWS = np.arange(0, 4096, 256)[:, None]  # table row 256 i + b is tag byte i = b


@functools.cache
def _times_x_to_minus_56() -> np.ndarray:
    """(4096, 2) uint64: row 256 i + b is x**-56 times (byte i = b, others 0) in GHASH's field."""
    c, low = 1 << 127, []  # bit 127 - k is the coefficient of x**k
    for _ in range(56):  # x**-1, ..., x**-56: add x**128+x**7+x**2+x+1 if x**0 is set, shift
        c = ((c ^ 0xE1 << 120) << 1 & (1 << 128) - 1) | 1 if c >> 127 else c << 1
        low.append(c)
    cols = low[::-1] + [1 << 127 - m for m in range(72)]  # x**(k - 56) for k in 0..127
    basis = np.frombuffer(b"".join(c.to_bytes(16, "big") for c in cols), np.uint8)
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    table = np.bitwise_xor.reduce(basis.reshape(16, 1, 8, 16) * bits[:, :, None], axis=2)
    return table.view(np.uint64).reshape(4096, 2)


def _keystreams(key: SecretKey, ells, n: int) -> np.ndarray:
    """(B, n) uint8: the first n keystream bytes of each block in ells.

    Row r of a (B, width + 16) buffer holds block ells[r]'s two GCM tags
    (block 1 + x**56 * H, over one zero block of associated data, and block
    1) and its GCM output (blocks 2 on, then an unread tag).  Keys go a group
    at a time: one b"".join fills the group's rows, and the gather that
    turns their tags into block 0 = H stays within the pass budget.
    """
    width, body, nonce = max(n, 32), bytes(max(n - 32, 0)), bytes(12)
    buf = np.empty((len(ells), width + 16), np.uint8)
    group = max(1, 8 * PASS_SAMPLES // (width + 16))  # 8 bytes a sample, as in float64
    for g in range(0, len(ells), group):
        rows = buf[g:g + group]
        rows[:] = np.frombuffer(b"".join(_gcm_outputs(key.key_bytes, ells[g:g + group],
                                                      nonce, body)), np.uint8).reshape(rows.shape)
        # the table rows of x**56 * H's bytes, byte-major: the XOR runs over whole rows
        tags = np.add((rows[:, :16] ^ rows[:, 16:32]).T, _TAG_BYTE_ROWS, order="C")
        h = np.bitwise_xor.reduce(np.take(_times_x_to_minus_56(), tags, axis=0))
        rows[:, :16] = h.view(np.uint8)  # H = E(0**128), block 0
    return buf[:, :n]


def _gcm_outputs(key_bytes, ells, nonce, body):
    """Each block's two tags and GCM output, in the order of a _keystreams row."""
    for ell in ells:
        gcm = AESGCM(hashlib.sha256(key_bytes + ell.to_bytes(8, "big")).digest())
        yield gcm.encrypt(nonce, b"", bytes(16))
        yield gcm.encrypt(nonce, b"", None)
        yield gcm.encrypt(nonce, body, None)


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
    far.  Every i in one byte-width band reads words of the same width from
    the band's unread bytes: the 1-byte band indexes them as bytes, and a
    wider band lists its words a short window at a time (see _draw_words),
    so its cost follows the words read, not the length of the stream.
    """
    perm = list(range(size))
    pos = 0
    top = max(size - 1, 0).bit_length()
    ok = True
    while top and ok:
        nbytes = (top + 7) >> 3
        floor = 8 * nbytes - 8
        draw = _draw_bytes if nbytes == 1 else _draw_words
        k, ok = draw(perm, _words(stream, pos, nbytes), top, floor)
        pos += k * nbytes
        top = floor
    return np.fromiter(perm, np.int64, count=size), pos, ok


def _words(stream, pos, nbytes):
    """Unread bytes as big-endian nbytes-wide ints; a partial tail is dropped.

    One-byte words are bytes, whose items are ints; wider ones stay a numpy
    array, which _draw_words lists a window at a time.
    """
    if nbytes == 1:
        return stream[pos:].tobytes()
    k = (stream.shape[0] - pos) // nbytes
    return _join_bytes(stream[pos:pos + k * nbytes].reshape(k, nbytes))


def _draw_bytes(perm, words, top, floor):
    """(words read, ok): the draws for i in [2**floor, 2**top), one word each try."""
    k = 0
    try:
        for nbits in range(top, floor, -1):
            mask = (1 << nbits) - 1
            for i in range(min(mask, len(perm) - 1), mask >> 1, -1):
                v = words[k] & mask
                k += 1
                while v > i:
                    v = words[k] & mask
                    k += 1
                perm[i], perm[v] = perm[v], perm[i]
    except IndexError:
        return k, False
    return k, True


def _draw_words(perm, words, top, floor):
    """_draw_bytes on a numpy array of words, listed a window at a time.

    A window is masked to the bit width of the draws that read it and holds
    2 words per draw left at that width plus 64, where rejection sampling
    reads at most 2 on average; a draw that empties it lists the next one.
    """
    k = 0
    for nbits in range(top, floor, -1):
        mask = (1 << nbits) - 1
        i, low = min(mask, len(perm) - 1), mask >> 1
        while i > low:
            window = (words[k:k + 2 * (i - low) + 64] & mask).tolist()
            if not window:
                return k, False
            it = iter(window)
            try:
                for i in range(i, low, -1):
                    v = next(it)
                    while v > i:
                        v = next(it)
                    perm[i], perm[v] = perm[v], perm[i]
                i = low
            except StopIteration:  # draw i goes on in the next window
                pass
            k += len(window) - operator.length_hint(it)
    return k, True


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
    unread bytes are split into words once, held transposed as (K, B), and
    the rows step over word columns together: a row still inside the band
    tests its next word against its own i and decrements i on acceptance.
    Row r's draw for i goes to draws[i, r], flat position i * B + r, every
    step: a rejected word is overwritten by the accepted one; a row past the
    band writes draws[low - 1, r], which the next band overwrites, or
    draws[0, r], which no swap reads, so whether all rows are past the band
    is checked only every 8 columns.  A row that runs out of words gets ok
    False and draws[i, r] = i from its stalled i down (no swap), keeping the
    swaps drawn so far, as fisher_yates does.  The swaps then run on a
    (size, B) array whose row i is final once swapped, a gather and a
    scatter at flat positions per i, and the maps are its transpose.
    """
    B, n = streams.shape
    cols = np.arange(B)
    draws = np.repeat(np.arange(size, dtype=np.int64), B).reshape(size, B)  # j == i: no swap
    flat, at, v = draws.reshape(-1), np.empty(B, dtype=np.int64), np.empty(B, dtype=np.int64)
    ok = np.ones(B, dtype=bool)
    i, pos = np.full(B, size - 1, dtype=np.int64), np.zeros(B, dtype=np.int64)
    masks = np.zeros(size, dtype=np.int64)
    for b in range(1, size.bit_length() + 1):
        masks[1 << (b - 1):1 << b] = (1 << b) - 1
    top = max(size - 1, 0).bit_length()
    while top:
        nbytes = (top + 7) >> 3
        floor = 8 * nbytes - 8
        low = np.array(1 << floor)
        avail = (n - pos) // nbytes
        words = _band_words(streams, pos, nbytes, int(avail.max()))
        accepted = np.empty(words.shape, dtype=bool)
        cuts = set(avail.tolist())
        for k in range(words.shape[0] + 1):
            if k in cuts:
                dead = np.flatnonzero((avail == k) & (i >= low))
                draws[i[dead], dead] = i[dead]
                ok[dead] = False
                i[dead] = 0
            if k == words.shape[0] or k % 8 == 0 and i.max() < low:
                break
            np.bitwise_and(words[k], np.take(masks, i, out=v, mode="clip"), out=v)
            flat[np.add(cols, np.multiply(i, B, out=at), out=at)] = v
            np.maximum(v, low, out=v)  # a row past the band accepts nothing
            i -= np.less_equal(v, i, out=accepted[k])
        if floor and k:  # a row that finished the band read up to its last acceptance
            pos += ok * nbytes * (k - np.argmax(accepted[k - 1::-1], axis=0))
        top = floor
    draws *= B
    draws += cols  # the flat position of each draw's slot in a (size, B) array
    perms = np.repeat(np.arange(size, dtype=np.int64), B).reshape(size, B)
    held, rows = np.empty(B, dtype=np.int64), perms.reshape(-1)
    for step in range(size - 1, 0, -1):
        np.take(rows, draws[step], out=held, mode="clip")
        rows[draws[step]] = perms[step]
        perms[step] = held
    return np.ascontiguousarray(perms.T), ok


def _band_words(streams, pos, nbytes, k):
    """(k, B) big-endian nbytes-wide words of each row's bytes from pos on.

    Words past a row's end read as zeros; the caller knows where each row
    ends.  Rows all at byte 0, as in the first band, need no gather, and
    bytes are a transposed view; wider words are copied in native order.
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
        return rest.T
    words = _join_bytes(rest.reshape(B, k, nbytes))
    return np.ascontiguousarray(words.T, dtype=words.dtype.newbyteorder("="))


# Row count from which one fisher_yates_lockstep pass beats a fisher_yates
# call per row; the two meet at 96-128 rows for sizes 64, 256 and 4096.
LOCKSTEP_MIN_ROWS = 96


def _shuffle_rows(streams, size):
    """(perms, ok) of the key schedule's shuffle on each row of streams."""
    if len(streams) >= LOCKSTEP_MIN_ROWS:
        return fisher_yates_lockstep(streams, size)
    perms = np.empty((len(streams), size), dtype=np.int64)
    ok = np.empty(len(streams), dtype=bool)
    for r, stream in enumerate(streams):
        perms[r], _, ok[r] = fisher_yates(stream, size)
    return perms, ok


def derive_permutations(key: SecretKey, ells, size: int) -> Permutation:
    """(B, size) stack whose row r is the keyed map of block ells[r]."""
    if size < 1:
        raise ShapeError(f"size must be >= 1, got {size}")
    ells = [int(ell) for ell in ells]
    if not all(0 <= ell < 1 << 64 for ell in ells):
        raise ShapeError("block_index must fit in an unsigned 64-bit counter")
    if size == 1 or not ells:
        return Permutation(map=np.zeros((len(ells), size), dtype=np.int64))
    n = 4 * _stream_bytes(size) + 64
    if n > _MAX_STREAM:
        raise ShapeError(f"size {size} needs a keystream of {n} bytes, over {_MAX_STREAM}")
    maps, ok = _shuffle_rows(_keystreams(key, ells, n), size)
    redo = np.flatnonzero(~ok)
    while redo.size:
        if n == _MAX_STREAM:
            raise ShapeError(f"size {size}: {redo.size} maps ran out of {n} keystream bytes")
        n = min(2 * n, _MAX_STREAM)
        maps[redo], ok = _shuffle_rows(_keystreams(key, [ells[r] for r in redo], n), size)
        redo = redo[~ok]
    return Permutation(map=maps)


def derive_permutation(key: SecretKey, block_index: int, size: int) -> Permutation:
    """Deterministic keyed permutation for one interleaving block."""
    return derive_permutations(key, (block_index,), size)[0]


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
    ramp = np.arange(n, dtype=np.int64)
    # a permutation by construction, built in one (n, n) array and not checked
    p = object.__new__(Permutation)._hold((ramp[:, None] + n * ramp).reshape(-1))
    object.__setattr__(p, "_inverse_map", p._index)  # an involution: decryption gathers
    return p


def _blocks(p: Permutation, x: np.ndarray) -> int:
    """How many blocks of p.size samples x holds, checked against p's stack."""
    if x.size % p.size:
        raise ShapeError(f"sample count {x.size} is not a whole number of blocks of {p.size}")
    count = x.size // p.size
    if p.map.ndim == 2 and len(p.map) != count:
        raise ShapeError(f"{count} blocks for a stack of {len(p.map)} maps")
    return count


def encrypt_block(x: np.ndarray, p: Permutation, out=None) -> np.ndarray:
    """Scramble samples: output position n of a block holds its sample map[n].

    x holds whole blocks of p.size samples, flattened in C order (an (L, N)
    grid with L*N == p.size is one symbol-major block); its shape is kept.
    x may also be one block that each of a stack's B maps scrambles, giving
    B blocks stacked on a new leading axis when B > 1; a one-map stack keeps
    x's shape.  out, when given, receives the result.
    """
    x = np.asarray(x)
    shared = p.map.ndim == 2 and len(p.map) > 1 and x.size == p.size  # one block, B maps
    shape = (len(p.map),) + x.shape if shared else x.shape
    count = len(p.map) if shared else _blocks(p, x)
    out = out_array(out, shape, x.dtype)
    rows = out.reshape(count, p.size)
    if p.map.ndim == 1:
        np.take(x.reshape(count, p.size), p._index, axis=1, out=rows, mode="clip")
    else:
        positions = p._index if shared else p._index + p.size * np.arange(count)[:, None]
        np.take(x.reshape(-1), positions, out=rows, mode="clip")
    return out


def decrypt_block(y: np.ndarray, p: Permutation, out=None) -> np.ndarray:
    """Undo encrypt_block, one block per map: a gather by a self-inverse map, else a scatter."""
    y = np.asarray(y)
    count = _blocks(p, y)
    out = out_array(out, y.shape, y.dtype)
    if p._inverse_map is not None:
        np.take(y.reshape(count, p.size), p._inverse_map, axis=1,
                out=out.reshape(count, p.size), mode="clip")
    else:
        out.reshape(-1)[p._index + p.size * np.arange(count)[:, None]] = y.reshape(count, p.size)
    return out


def keyspace_bits(size: int) -> float:
    """log2(size!), the entropy of a uniform permutation draw."""
    if size < 0:
        raise ShapeError("size must be non-negative")
    return math.lgamma(size + 1) / math.log(2.0)
