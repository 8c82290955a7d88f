"""Statistical oracle: Monte-Carlo BER over AWGN against the closed form.

A permutation only reorders samples, and a reordered AWGN block is again
AWGN of the same power, so no interleaver may move the BER of an AWGN run
away from ber_awgn_qam.  Each grid point runs a fixed block count, set so
that about ERRORS bit errors are expected, and its bit error count must
lie within Z standard deviations of the expected count.

The bits of one QAM symbol do not fail independently.  An axis carries
k/2 Gray bits decided from that axis's noise alone, so its bit errors X
per symbol lie in [0, k/2] and Var X <= E[X^2] <= (k/2) E[X]; the I and Q
noise and the symbols are independent, so the variance of a point's
error count is at most k/2 times its expected count.  Z is the two-sided
normal quantile of a Bonferroni-corrected family-wise false-alarm rate
of FAMILY_ALPHA over the grid.  Seeds, SNRs and block counts are fixed
here, before any run.
"""

import math
from statistics import NormalDist

import pytest

from permofdm import BerExperimentConfig, NoiseSpec, ber_awgn_qam, run_ber_experiment

# Symbol SNR per M, where the expected BER is 0.036-0.042: below about 0.06
# the nearest-neighbour ber_awgn_qam is within 0.02% of the exact Gray BER.
SNR_DB = {4: 5.0, 16: 11.0, 64: 17.0, 256: 22.0}
ERRORS = 20000  # bit errors expected per point
FAMILY_ALPHA = 1e-3

# (interleaver, l_depth, n, workers, M): n=64 blocks are under the chunk
# budget, and transpose n=128 blocks (17,408 framed samples) are over it,
# so at one worker those run on two threads.
GRID = [(interleaver, l_depth, 64, 1, m)
        for interleaver, l_depth in [("none", 1), ("transpose", 1), ("keyed", 1), ("keyed", 3)]
        for m in SNR_DB] + [("transpose", 1, 128, workers, m)
                            for workers in (1, 2) for m in (16, 256)]
SEEDS = range(7001, 7001 + len(GRID))
Z = NormalDist().inv_cdf(1 - FAMILY_ALPHA / (2 * len(GRID)))


# A wider family at 2 workers: n = 4 and 256, transpose and keyed L = 2 and
# 4, each with no cyclic prefix (at M = 4 and 64) and with n_cp = n (at M =
# 16 and 256).  It has seeds and a Bonferroni Z of its own.
WIDE_GRID = [(interleaver, l_depth, n, n_cp, m)
             for n in (4, 256)
             for interleaver, l_depth in [("transpose", 1), ("keyed", 2), ("keyed", 4)]
             for n_cp, ms in [(0, (4, 64)), (n, (16, 256))] for m in ms]
WIDE_SEEDS = range(7101, 7101 + len(WIDE_GRID))
WIDE_Z = NormalDist().inv_cdf(1 - FAMILY_ALPHA / (2 * len(WIDE_GRID)))


def assert_closed_form(seed, interleaver, l_depth, n, n_cp, workers, m, z):
    """The bit error count of a fixed-length AWGN run lies within z standard
    deviations of the count that ber_awgn_qam expects."""
    p = ber_awgn_qam(m, NoiseSpec.from_snr_db(SNR_DB[m]).snr)
    assert p <= 0.06
    k = m.bit_length() - 1
    bits_per_block = (l_depth if interleaver == "keyed" else n) * n * k
    blocks = math.ceil(ERRORS / (p * bits_per_block))
    cfg = BerExperimentConfig(seed=seed, n=n, m=m, n_cp=n_cp, interleaver=interleaver,
                              l_depth=l_depth, channel="awgn", snr_db=(SNR_DB[m],),
                              blocks=blocks, min_errors=10 ** 9)
    report = run_ber_experiment(cfg, workers=workers)
    (row,), (stop,) = report.points, report.stops
    assert (row.trials, stop.reason) == (blocks, "block-cap")
    expected = p * blocks * bits_per_block
    sd = math.sqrt(k / 2 * expected)
    assert abs(row.bit_errors - expected) <= z * sd, (row.bit_errors, expected, z * sd)


@pytest.mark.parametrize("seed, link", zip(SEEDS, GRID),
                         ids=[f"{i}-L{l}-n{n}-w{w}-M{m}" for i, l, n, w, m in GRID])
def test_awgn_ber_matches_the_closed_form(seed, link):
    interleaver, l_depth, n, workers, m = link
    assert_closed_form(seed, interleaver, l_depth, n, 8, workers, m, Z)


@pytest.mark.parametrize("seed, link", zip(WIDE_SEEDS, WIDE_GRID),
                         ids=[f"{i}-L{l}-n{n}-cp{cp}-M{m}" for i, l, n, cp, m in WIDE_GRID])
def test_wider_awgn_grid_at_two_workers_matches_the_closed_form(seed, link):
    interleaver, l_depth, n, n_cp, m = link
    assert_closed_form(seed, interleaver, l_depth, n, n_cp, 2, m, WIDE_Z)
