"""Chosen-plaintext attacks against the sample permutation.

The attacker injects a known block x, observes the scrambled (and
possibly noisy) samples y, and tries to recover the permutation by
matching values.  All estimators return the convention used by
encrypt_block: pi[n] is the index of the input sample sitting at output
position n.
"""

import itertools
import warnings

import numpy as np

from .errors import AmbiguousMatchWarning, BruteForceCostError, ShapeError
from .permcipher import Permutation, keyspace_bits

BRUTE_FORCE_MAX_SIZE = 8


def match_noiseless(x_known: np.ndarray, y_observed: np.ndarray,
                    tolerance: float = 1e-9) -> Permutation:
    """Greedy nearest-value assignment of observed samples to known ones.

    The matching order is greedy_assign's.  If any assignment had two
    candidates closer than `tolerance` apart, an AmbiguousMatchWarning is
    issued (the assignment is still returned).
    """
    x = np.ascontiguousarray(np.asarray(x_known, dtype=np.complex128).reshape(-1))
    y = np.ascontiguousarray(np.asarray(y_observed, dtype=np.complex128).reshape(-1))
    if x.size != y.size or x.size == 0:
        raise ShapeError("known and observed blocks must have equal nonzero size")
    dist = np.abs(y[:, None] - x[None, :])
    perm, n_ambiguous = greedy_assign(dist, float(tolerance))
    if n_ambiguous:
        warnings.warn(
            f"{n_ambiguous} assignment(s) had candidates within {tolerance:g}; "
            "recovered permutation may be wrong up to those swaps",
            AmbiguousMatchWarning,
            stacklevel=2,
        )
    return Permutation(map=perm)


def averaging_attack(x_known: np.ndarray, observations: np.ndarray,
                     tolerance: float = 1e-9) -> Permutation:
    """Average repeated observations of the same plaintext, then match.

    With a fixed permutation the noise averages out as 1/sqrt(K); with a
    fresh permutation per observation the average collapses toward the
    block mean and the estimate degrades to chance.
    """
    obs = np.asarray(observations, dtype=np.complex128)
    if obs.ndim == 1:
        obs = obs[None, :]
    if obs.ndim != 2 or obs.shape[0] < 1:
        raise ShapeError("observations must be (K, size) with K >= 1")
    return match_noiseless(x_known, obs.mean(axis=0), tolerance=tolerance)


def brute_force_attack(x_known: np.ndarray, y_observed: np.ndarray) -> Permutation:
    """Exhaustive least-squares search over all size! permutations.

    Refuses sizes above BRUTE_FORCE_MAX_SIZE with a cost report; ties
    resolve as in brute_force_scan.
    """
    x = np.ascontiguousarray(np.asarray(x_known, dtype=np.complex128).reshape(-1))
    y = np.ascontiguousarray(np.asarray(y_observed, dtype=np.complex128).reshape(-1))
    if x.size != y.size or x.size == 0:
        raise ShapeError("known and observed blocks must have equal nonzero size")
    size = x.size
    if size > BRUTE_FORCE_MAX_SIZE:
        raise BruteForceCostError(size, keyspace_bits(size))
    cands = np.array(list(itertools.permutations(range(size))), dtype=np.int64)
    idx, _ = brute_force_scan(cands, x, y)
    return Permutation(map=cands[idx])


def greedy_assign(dist, tol):
    """(perm, ambiguous count) from dist[n, k] = |y_n - x_k|.

    Positions are processed in ascending order of their best-match
    distance; each takes its nearest still-unused source.  An assignment
    is ambiguous when its two closest unused candidates were within tol of
    each other.
    """
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


def brute_force_scan(cands, x, y):
    """(index, residual) of the first candidate map minimizing sum |y_n - x[cand[n]]|^2.

    cands is in lexicographic order, so ties resolve to the
    lexicographically smallest map.
    """
    res = np.abs(y[None, :] - x[cands]) ** 2
    total = res.sum(axis=1)
    idx = int(np.argmin(total))
    return idx, float(total[idx])


def recovery_rate(estimate: Permutation, truth: Permutation) -> float:
    """Fraction of output positions whose source index was recovered exactly."""
    if estimate.size != truth.size:
        raise ShapeError("permutation sizes differ")
    return float(np.mean(estimate.map == truth.map))
