"""Baseband modem: square-QAM mapping and unitary OFDM transforms.

Bit convention for M-QAM (M a power of 4): each symbol consumes
log2(M) bits MSB-first; the first half selects the I level, the second
half the Q level.  Within an axis the bit group is a Gray pattern g,
giving level index b = gray_to_binary(g) and amplitude (L-1-2b)*scale
with L = sqrt(M).  The scale 1/sqrt(2(L^2-1)/3) normalizes the
constellation to unit mean energy.  A symbol's "point index" is the
integer value of its full bit group, i.e. points[index] is the mapping
table.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import PASS_SAMPLES, FramingError, ShapeError, out_array


def gray_to_binary(g: int) -> int:
    b = 0
    while g:
        b ^= g
        g >>= 1
    return b


@dataclass(frozen=True, eq=False)
class QamConstellation:
    """Square Gray-coded QAM alphabet with unit mean symbol energy."""

    M: int
    points: np.ndarray = field(repr=False)
    bits_per_symbol: int
    levels_per_axis: int
    scale: float

    @classmethod
    def square(cls, M: int) -> "QamConstellation":
        k = (M - 1).bit_length()
        if M < 4 or (1 << k) != M or k % 2 != 0 or k > 16:
            raise ShapeError(f"M must be an even power of two in [4, 2**16], got {M}")
        bpa = k // 2
        L = 1 << bpa
        scale = 1.0 / np.sqrt(2.0 * (L * L - 1) / 3.0)
        level = np.array([(L - 1 - 2 * gray_to_binary(g)) * scale for g in range(L)])
        pts = level[np.arange(M) >> bpa] + 1j * level[np.arange(M) & (L - 1)]
        pts.setflags(write=False)
        return cls(M=M, points=pts, bits_per_symbol=k, levels_per_axis=L, scale=scale)


def qam_modulate(bits: np.ndarray, c: QamConstellation) -> np.ndarray:
    """Map a flat 0/1 array (length divisible by bits_per_symbol) to symbols."""
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size % c.bits_per_symbol != 0:
        raise ShapeError(
            f"bit count {bits.size} is not a multiple of {c.bits_per_symbol}"
        )
    if ((bits != 0) & (bits != 1)).any():
        raise ShapeError("bits must be 0 or 1")
    return qam_symbols(bits.reshape(-1, c.bits_per_symbol).astype(np.uint8), c)[1]


def qam_symbols(bits: np.ndarray, c: QamConstellation, out=None):
    """0/1 bit groups on the last axis packed MSB first: (point indices, points).

    The indices are of the narrowest dtype that holds M - 1, uint8 up to
    M = 256.  out, when given, receives the points.
    """
    idx = bits[..., 0].astype(np.min_scalar_type(c.M - 1))
    for j in range(1, c.bits_per_symbol):
        idx <<= 1
        idx |= bits[..., j]
    pts = out_array(out, idx.shape, np.complex128)
    for s in range(0, idx.size, PASS_SAMPLES):  # take() widens a slice to intp
        np.take(c.points, idx.reshape(-1)[s:s + PASS_SAMPLES],
                out=pts.reshape(-1)[s:s + PASS_SAMPLES], mode="clip")
    return idx, pts


def qam_demodulate(symbols: np.ndarray, c: QamConstellation) -> np.ndarray:
    """Hard decisions back to bits; exact ties go to the lowest point index."""
    idx = qam_point_indices(symbols, c)
    shifts = np.arange(c.bits_per_symbol - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


def qam_point_indices(symbols: np.ndarray, c: QamConstellation) -> np.ndarray:
    """Nearest point index per symbol, in qam_symbols' dtype; ShapeError if any is not finite."""
    sym = np.ascontiguousarray(np.asarray(symbols, dtype=np.complex128).reshape(-1))
    bpa = c.bits_per_symbol // 2
    idx = np.empty(sym.size, dtype=np.min_scalar_type(c.M - 1))
    for s in range(0, sym.size, PASS_SAMPLES):
        part = sym[s:s + PASS_SAMPLES]
        if not np.isfinite(part).all():
            raise ShapeError("symbols must be finite to be decided")
        idx[s:s + PASS_SAMPLES] = demod_points(part.real, part.imag, c.levels_per_axis,
                                                  bpa, c.scale)
    return idx


def demod_points(re, im, L, bpa, scale):
    """Point index of the nearest point, ties toward the lowest index.

    Each axis is decided on its own: a sample is weighed against level
    b = floor((L-1 - v/scale)/2), clipped to 0..L-2, and level b + 1, each
    distance computed from its own level, so a sample on a level or a
    midpoint ties exactly.  A tie goes to the smaller Gray pattern, which
    makes the I/Q decision the nearest point with ties toward the lowest
    point index; a table of L-1 flags, indexed by b, says when that is
    b + 1.  For L == 2, b is 0 and its flag is False, so neither is needed.
    """
    return (_demod_axis(re, L, scale) << bpa) | _demod_axis(im, L, scale)


def _demod_axis(v, L, scale):
    """Gray pattern of the level nearest each sample (bool when L == 2)."""
    if L == 2:
        return np.abs(v + scale) < np.abs(v - scale)
    b = np.clip(np.floor((L - 1 - v / scale) / 2.0), 0, L - 2).astype(np.int64)
    d0 = np.abs(v - (L - 1 - 2 * b) * scale)
    d1 = np.abs(v - (L - 3 - 2 * b) * scale)
    g = np.arange(L) ^ (np.arange(L) >> 1)
    b += (d1 < d0) | ((d1 == d0) & (g[1:] < g[:-1])[b])
    return b ^ (b >> 1)


def ifft_modulate(d: np.ndarray, out=None) -> np.ndarray:
    """Frequency-domain symbols to time samples, unitary (norm-preserving).

    out, when given, receives the samples; it may be d itself.
    """
    d = np.asarray(d, dtype=np.complex128)
    if d.shape[-1] == 0:
        raise ShapeError("empty symbol vector")
    return np.fft.ifft(d, axis=-1, norm="ortho", out=out)


def fft_demodulate(x: np.ndarray, out=None) -> np.ndarray:
    """Inverse of ifft_modulate; out, when given, receives the symbols."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[-1] == 0:
        raise ShapeError("empty sample vector")
    return np.fft.fft(x, axis=-1, norm="ortho", out=out)


def add_cp(x: np.ndarray, n_cp: int, out=None) -> np.ndarray:
    """Prepend the last n_cp samples of each row (rows = unframed blocks).

    out, when given, receives the framed rows.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n_cp < 0 or n_cp > n:
        raise FramingError(f"n_cp={n_cp} outside [0, {n}]")
    return np.concatenate([x[..., n - n_cp:], x], axis=-1, out=out)


def remove_cp(x: np.ndarray, n: int, n_cp: int) -> np.ndarray:
    """The framed rows of length n + n_cp without their prefix, as a view."""
    x = np.asarray(x)
    if x.shape[-1] != n + n_cp:
        raise FramingError(
            f"framed length {x.shape[-1]} != N + N_cp = {n + n_cp}"
        )
    return x[..., n_cp:]
