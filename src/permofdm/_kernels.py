"""Hot inner loops in numpy and plain Python.

There is one implementation per kernel.  ``JIT_ENABLED`` is always False:
the package compiles nothing, and the constant stays only because run
records report it.
"""

import numpy as np

JIT_ENABLED = False


# ---------------------------------------------------------------------------
# square-QAM hard decisions
#
# Levels on each axis are (L-1-2b)*scale for level index b in 0..L-1, where
# the transmitted bit group for the axis is the Gray pattern g = b ^ (b >> 1).
# A hard decision picks the nearest level; an exact distance tie breaks toward
# the smaller Gray pattern, which makes the combined I/Q decision equal to
# "nearest constellation point, ties toward the lowest point index".
# ---------------------------------------------------------------------------

def demod_points(re, im, L, bpa, scale):
    bi = _demod_axis(re, L, scale)
    bq = _demod_axis(im, L, scale)
    return ((bi ^ (bi >> 1)) << bpa) | (bq ^ (bq >> 1))


def _demod_axis(v, L, scale):
    t = (L - 1 - v / scale) / 2.0
    bf = np.clip(np.floor(t), 0, L - 2).astype(np.int64)
    d0 = np.abs(v - (L - 1 - 2 * bf) * scale)
    d1 = np.abs(v - (L - 3 - 2 * bf) * scale)
    g0 = bf ^ (bf >> 1)
    g1 = (bf + 1) ^ ((bf + 1) >> 1)
    take1 = (d1 < d0) | ((d1 == d0) & (g1 < g0))
    return np.where(take1, bf + 1, bf)


# ---------------------------------------------------------------------------
# Fisher-Yates shuffle driven by a byte stream
#
# For i = size-1 down to 1, draw j uniform on [0, i] by rejection: read
# ceil(bit_length(i) / 8) bytes big-endian, mask to bit_length(i) bits,
# reject values > i.  Returns (perm, bytes_consumed, ok); ok is False when
# the stream ran out, in which case the caller retries with a longer stream
# (CTR keystreams are prefix-stable, so the retry replays identically).
#
# Every i in one byte-width band reads words of the same width, so the rest
# of the stream is split into words once per band and the draws scan a
# Python sequence instead of indexing numpy bytes one at a time.
# ---------------------------------------------------------------------------

def fisher_yates(stream, size):
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
    rows = stream[pos:pos + k * nbytes].reshape(k, nbytes)
    width = 1 << (nbytes - 1).bit_length()  # numpy has no 3-, 5-, 6- or 7-byte ints
    if width != nbytes:
        rows = np.pad(rows, ((0, 0), (width - nbytes, 0)))
    return rows.view(f">u{width}").ravel().tolist()


# ---------------------------------------------------------------------------
# greedy one-to-one matching for the known-plaintext attack
#
# dist[n, k] = |y_n - x_k|.  Positions are processed in ascending order of
# their best-match distance; each takes its nearest still-unused source.
# Returns (perm, n_ambiguous) where n_ambiguous counts assignments whose two
# closest unused candidates were within tol of each other.
# ---------------------------------------------------------------------------

def greedy_assign(dist, tol):
    size = dist.shape[0]
    order = np.argsort(dist.min(axis=1), kind="stable")
    used = np.zeros(size, dtype=bool)
    perm = np.empty(size, dtype=np.int64)
    n_ambiguous = 0
    for n in order:
        row = np.where(used, np.inf, dist[n])
        k = int(np.argmin(row))
        if size - int(used.sum()) > 1:
            second = np.partition(row, 1)[1]
            if second - row[k] < tol:
                n_ambiguous += 1
        perm[n] = k
        used[k] = True
    return perm, n_ambiguous


# ---------------------------------------------------------------------------
# exhaustive permutation scan for the brute-force attack
#
# cands holds candidate maps in lexicographic order; the scan keeps the first
# strict minimizer of sum |y_n - x[cand[n]]|^2, so ties resolve to the
# lexicographically smallest map.
# ---------------------------------------------------------------------------

def brute_force_scan(cands, x, y):
    res = np.abs(y[None, :] - x[cands]) ** 2
    total = res.sum(axis=1)
    idx = int(np.argmin(total))
    return idx, float(total[idx])
