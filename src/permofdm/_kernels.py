"""Hot inner loops in numpy and plain Python.

There is one implementation per kernel, except that the Fisher-Yates draw
rule has two loops: ``fisher_yates`` for one stream and
``fisher_yates_lockstep`` for many short ones at once.  ``JIT_ENABLED`` is
always False: the package compiles nothing, and the constant stays only
because run records report it.
"""

import numpy as np

JIT_ENABLED = False


# ---------------------------------------------------------------------------
# square-QAM hard decisions
#
# Levels on each axis are (L-1-2b)*scale for level index b in 0..L-1; the
# axis's bit group is the Gray pattern b ^ (b >> 1).  A sample is weighed
# against levels b = floor((L-1 - v/scale)/2), clipped to 0..L-2, and b + 1,
# each computed from its own b, so a sample on a level or a midpoint ties
# exactly.  A tie goes to the smaller Gray pattern, which makes the I/Q
# decision "nearest point, ties toward the lowest point index"; a table of
# L-1 flags, indexed by b, says when that is b + 1.  For L == 2, b is 0 and
# its flag is False, so neither is needed.
# ---------------------------------------------------------------------------

def demod_points(re, im, L, bpa, scale):
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
    return _join_bytes(stream[pos:pos + k * nbytes].reshape(k, nbytes)).tolist()


def _join_bytes(groups):
    """(..., nbytes) uint8 groups as big-endian ints of the next numpy width."""
    nbytes = groups.shape[-1]
    width = 1 << (nbytes - 1).bit_length()  # numpy has no 3-, 5-, 6- or 7-byte ints
    if width != nbytes:
        pad = [(0, 0)] * (groups.ndim - 1) + [(width - nbytes, 0)]
        groups = np.pad(groups, pad)
    return groups.view(f">u{width}")[..., 0]


# ---------------------------------------------------------------------------
# lockstep Fisher-Yates over B streams at once (Knuth's Algorithm P, batched)
#
# Row r of streams (B, n) drives the same draw rule as fisher_yates.  Per
# byte-width band each row's unread bytes are split into words once, held
# transposed as (K, B) in their narrow width, and the rows step over word
# columns together: a row still inside the band tests its next word against
# its own i and decrements i on acceptance.  A row's draw for i is kept in
# draws[i], written every step: a rejected word is overwritten by the
# accepted one, since the row stays at i until it accepts; a row past the
# band writes draws[low - 1], which the next band overwrites, and a row that
# is done writes draws[0], which no swap reads.  The swaps run afterwards,
# one fancy-index swap across all rows per i.  A row that runs out of words
# gets ok False, draws[i] = i from its stalled i down (no swap), and so keeps
# the swaps drawn so far, as fisher_yates does.
# ---------------------------------------------------------------------------

def fisher_yates_lockstep(streams, size):
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
