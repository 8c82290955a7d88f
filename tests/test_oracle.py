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

The Rayleigh family runs the transpose interleaver over five-tap Rayleigh
fading with ZF, against semi_analytic_ber on the same channel ensemble.
After the transpose, each symbol's samples come from n received symbols
with independent noise, so its noise is white Gaussian of the mean
post-ZF power that the semi-analytic BER assumes.  A fade moves the
errors of a whole block together, so there the block is the independent
unit: each block is a one-block point, analyze_snr with
the same seed gives that block's semi-analytic BER, and the variance of
a point's mean excess over it is taken from the blocks themselves.
"""

import math
from statistics import NormalDist

import pytest

from permofdm import (
    BerExperimentConfig,
    NoiseSpec,
    SnrAnalysisConfig,
    analyze_snr,
    ber_awgn_qam,
    run_ber_experiment,
)
from permofdm import harness

# Symbol SNR per M, where the expected BER is 0.036-0.042.
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


# A family at BER 0.24-0.29, where the rarer errors of more than one bit
# per axis are not negligible: the nearest-neighbour form reads 15% (M =
# 16), 22% (M = 64) and 28% (M = 256) below the exact Gray BER there.
HIGH_SNR_DB = {16: 0.0, 64: 5.0, 256: 10.0}
HIGH_GRID = [(interleaver, l_depth, n, workers, m)
             for m in HIGH_SNR_DB
             for interleaver, l_depth, n, workers in [("none", 1, 64, 1), ("keyed", 2, 64, 1),
                                                      ("transpose", 1, 128, 2)]]
HIGH_SEEDS = range(7301, 7301 + len(HIGH_GRID))
HIGH_Z = NormalDist().inv_cdf(1 - FAMILY_ALPHA / (2 * len(HIGH_GRID)))


def assert_closed_form(seed, interleaver, l_depth, n, n_cp, workers, m, snr_db, z):
    """The bit error count of a fixed-length AWGN run at snr_db lies within
    z standard deviations of the count that ber_awgn_qam expects."""
    p = ber_awgn_qam(m, NoiseSpec.from_snr_db(snr_db).snr)
    k = m.bit_length() - 1
    bits_per_block = (l_depth if interleaver == "keyed" else n) * n * k
    blocks = math.ceil(ERRORS / (p * bits_per_block))
    cfg = BerExperimentConfig(seed=seed, n=n, m=m, n_cp=n_cp, interleaver=interleaver,
                              l_depth=l_depth, channel="awgn", snr_db=(snr_db,),
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
    assert_closed_form(seed, interleaver, l_depth, n, 8, workers, m, SNR_DB[m], Z)


@pytest.mark.parametrize("seed, link", zip(WIDE_SEEDS, WIDE_GRID),
                         ids=[f"{i}-L{l}-n{n}-cp{cp}-M{m}" for i, l, n, cp, m in WIDE_GRID])
def test_wider_awgn_grid_at_two_workers_matches_the_closed_form(seed, link):
    interleaver, l_depth, n, n_cp, m = link
    assert_closed_form(seed, interleaver, l_depth, n, n_cp, 2, m, SNR_DB[m], WIDE_Z)


@pytest.mark.parametrize("seed, link", zip(HIGH_SEEDS, HIGH_GRID),
                         ids=[f"{i}-L{l}-n{n}-w{w}-M{m}" for i, l, n, w, m in HIGH_GRID])
def test_awgn_ber_at_high_ber_matches_the_exact_closed_form(seed, link):
    interleaver, l_depth, n, workers, m = link
    assert_closed_form(seed, interleaver, l_depth, n, 8, workers, m, HIGH_SNR_DB[m], HIGH_Z)


# Rayleigh: transpose over FIVE_TAP_PROFILE with ZF, (n, M, symbol SNR in
# dB, blocks), where the semi-analytic BER is about 0.03-0.07.  Each block
# is a point of its own, so its seed (seed, point, 0) draws the channel
# that analyze_snr draws for the same point.
RAYLEIGH_GRID = [(64, 4, 12.0, 200), (64, 16, 20.0, 200), (128, 4, 12.0, 100),
                 (128, 16, 20.0, 100)]
RAYLEIGH_SEEDS = range(7201, 7201 + len(RAYLEIGH_GRID))
RAYLEIGH_Z = NormalDist().inv_cdf(1 - FAMILY_ALPHA / (2 * len(RAYLEIGH_GRID)))


@pytest.mark.parametrize("seed, link", zip(RAYLEIGH_SEEDS, RAYLEIGH_GRID),
                         ids=[f"n{n}-M{m}" for n, m, _, _ in RAYLEIGH_GRID])
def test_rayleigh_zf_ber_matches_the_semi_analytic_curve(seed, link):
    """The mean excess of a block's bit errors over its semi-analytic count
    lies within RAYLEIGH_Z standard errors of 0."""
    n, m, snr_db, blocks = link
    snr = (snr_db,) * blocks
    mc = run_ber_experiment(BerExperimentConfig(
        seed=seed, n=n, m=m, interleaver="transpose", snr_db=snr, blocks=1,
        min_errors=10 ** 9))
    sa = analyze_snr(SnrAnalysisConfig(seed=seed, n=n, m=m, snr_db=snr, blocks=1))
    assert {(row.trials, stop.reason) for row, stop in zip(mc.points, mc.stops)} == {
        (1, "block-cap")}
    bits = n * n * (m.bit_length() - 1)
    excess = [row.bit_errors - bits * point.ber for row, point in zip(mc.points, sa.points)]
    mean = sum(excess) / blocks
    se = math.sqrt(sum((e - mean) ** 2 for e in excess) / (blocks - 1) / blocks)
    assert abs(mean) <= RAYLEIGH_Z * se, (mean, se)


# Block-level spread.  Over AWGN every block draws its own bits and noise,
# so the blocks of a point are independent and the variance of its BER over
# blocks is that of its bit error count, as above.  At M = 4 that is
# binomial, so the design effect is about 1; above, it is at most k/2 times
# the expected count (and the bit positions of an axis, failing at unequal
# rates, can take it below binomial).  As a ratio of variances over B
# blocks, the design effect has a relative standard error of about
# sqrt(2 / (B - 1)).
DEFF_BLOCKS = 300
DEFF_SEEDS = dict(zip(SNR_DB, range(7401, 7401 + len(SNR_DB))))
DEFF_Z = NormalDist().inv_cdf(1 - FAMILY_ALPHA / (2 * len(SNR_DB)))


@pytest.mark.parametrize("m", SNR_DB)
def test_awgn_design_effect_is_binomial_up_to_k_over_2(m):
    cfg = BerExperimentConfig(seed=DEFF_SEEDS[m], n=64, m=m, n_cp=8, interleaver="none",
                              channel="awgn", snr_db=(SNR_DB[m],), blocks=DEFF_BLOCKS,
                              min_errors=10 ** 9)
    (stop,) = run_ber_experiment(cfg).stops
    tol = DEFF_Z * math.sqrt(2 / (DEFF_BLOCKS - 1))
    k = m.bit_length() - 1
    if m == 4:
        assert abs(stop.design_effect - 1) <= tol, stop
    assert 0 < stop.design_effect <= k / 2 + tol, stop


def test_rayleigh_ber_se_is_the_spread_of_one_block_tasks():
    """A point's ber_se is the standard error of the mean of its blocks'
    BERs, each computed as a one-block task, as the Rayleigh family above
    takes it from one-block points."""
    n, m, snr_db, blocks = 64, 16, 20.0, 60
    cfg = BerExperimentConfig(seed=7501, n=n, m=m, interleaver="transpose", snr_db=(snr_db,),
                              blocks=blocks, min_errors=10 ** 9)
    report = run_ber_experiment(cfg)
    (row,), (stop,) = report.points, report.stops
    bits = n * n * (m.bit_length() - 1)
    rates = [harness._ber_chunk_entry((cfg, 0, snr_db, b, b + 1))[0, 0] / bits
             for b in range(blocks)]
    mean = sum(rates) / blocks
    se = math.sqrt(sum((r - mean) ** 2 for r in rates) / (blocks - 1) / blocks)
    assert (row.trials, row.ber) == (blocks, pytest.approx(mean, rel=1e-12))
    assert stop.ber_se == pytest.approx(se, rel=1e-9)
    assert stop.design_effect == pytest.approx(
        se ** 2 / (mean * (1 - mean) / (blocks * bits)), rel=1e-9)
    # Fading moves whole blocks' errors together.
    assert stop.design_effect > 10
