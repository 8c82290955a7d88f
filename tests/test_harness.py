"""Experiment harness: reproducibility contract, stopping rules, CSV
formatting, sample-mixing model, and per-subcarrier mixing measurement."""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permofdm import harness, modem
from permofdm import (
    CSV_HEADER,
    FIVE_TAP_PROFILE,
    AttackRecoveryConfig,
    BerExperimentConfig,
    EqualizerKind,
    IciConfig,
    NoiseSpec,
    Permutation,
    PointResult,
    PointStop,
    QamConstellation,
    SecretKey,
    SerAttackConfig,
    ShapeError,
    SnrAnalysisConfig,
    analyze_snr,
    derive_permutation,
    draw_rayleigh_channel,
    encrypt_block,
    freq_response,
    measure_ici,
    mixing_map,
    qfunc,
    run_attack_recovery_experiment,
    run_ber_experiment,
    run_ser_attack_experiment,
    semi_analytic_ber,
    transpose_interleaver,
    wald_halfwidth,
)

KEY = SecretKey(bytes(range(32)))


def ici_alpha_exact(perm: Permutation, n: int) -> np.ndarray:
    """Closed form of measure_ici's alpha for a single-symbol permutation:
    alpha_k = (1/N) sum_n exp(2j pi k (pi[n] - n) / N)."""
    k = np.arange(n)[:, None]
    shift = (perm.map - np.arange(n))[None, :]
    return np.exp(2j * np.pi * k * shift / n).mean(axis=1)


class TestCsvFormat:
    def test_header(self):
        assert CSV_HEADER == ("experiment,N,M,interleaver,equalizer,snr_db,"
                              "k_mixed,trials,bit_errors,ber,symbol_errors,ser,ci95")

    def test_fields_are_the_header_columns(self):
        # csv_row writes the fields in the order declared, floats by %.6g
        fields = dataclasses.fields(PointResult)
        assert CSV_HEADER.lower().split(",") == [f.name for f in fields]
        assert [f.name for f in fields if f.type is float] == ["snr_db", "ber", "ser", "ci95"]

    def test_golden_row(self):
        row = PointResult(
            experiment="ber", n=256, m=4, interleaver="transpose",
            equalizer="zf", snr_db=10.0, k_mixed=0, trials=17,
            bit_errors=1234, ber=0.00123456789, symbol_errors=600,
            ser=0.0123456789, ci95=0.000123456,
        )
        assert row.csv_row() == ("ber,256,4,transpose,zf,10,0,17,1234,"
                                 "0.00123457,600,0.0123457,0.000123456")

    def test_report_round_trip(self):
        cfg = SerAttackConfig(seed=3, n=16, m_values=(4,), k_values=(0,),
                              trials=8)
        rep = run_ser_attack_experiment(cfg)
        text = rep.to_csv()
        assert text.startswith(CSV_HEADER + "\n")
        assert text.endswith("\n")

    def test_wald_halfwidth(self):
        assert wald_halfwidth(0, 100) == 0.0
        assert wald_halfwidth(50, 100) == pytest.approx(1.96 * 0.05)
        assert wald_halfwidth(5, 0) == 0.0


def mix_samples(x, k, rng):
    """One symbol's disorder, applied through the cipher's gather."""
    return encrypt_block(x, Permutation(mixing_map(x.size, k, rng)))


def _setdiff1d_mix(x, k, rng):
    """The disorder as first written: the survivors found with np.setdiff1d,
    then the removed samples in random order."""
    if k == 0:
        return x
    pos = rng.choice(x.size, size=k, replace=False)
    keep = np.setdiff1d(np.arange(x.size), pos)
    return np.concatenate([x[keep], x[pos][rng.permutation(k)]])


class TestMixSamples:
    def test_zero_is_identity(self):
        rng = np.random.default_rng(0)
        x = np.arange(10, dtype=complex)
        assert np.array_equal(mix_samples(x, 0, rng), x)

    def test_multiset_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        for k in (1, 7, 32, 64):
            y = mix_samples(x, k, rng)
            assert np.array_equal(np.sort_complex(y), np.sort_complex(x))

    def test_survivors_keep_relative_order(self):
        rng = np.random.default_rng(2)
        x = np.arange(100, dtype=complex)  # distinct, order = value
        for k in (5, 40, 99):
            y = mix_samples(x, k, rng)
            head = y[: 100 - k].real.astype(int)
            assert np.all(np.diff(head) > 0)

    def test_displaced_count(self):
        rng = np.random.default_rng(3)
        x = np.arange(50, dtype=complex)
        y = mix_samples(x, 20, rng)
        # exactly 30 survivors lead, in order; the tail holds the removed 20
        head = set(y[:30].real.astype(int))
        tail = set(y[30:].real.astype(int))
        assert len(head) == 30 and len(tail) == 20
        assert head | tail == set(range(50))

    def test_full_mix_is_uniform_permutation(self):
        rng = np.random.default_rng(4)
        n = 6
        first = np.zeros(n)
        trials = 3000
        x = np.arange(n, dtype=complex)
        for _ in range(trials):
            first[int(mix_samples(x, n, rng)[0].real)] += 1
        # each value lands first with probability ~1/6
        assert np.all(np.abs(first / trials - 1 / n) < 0.03)

    @settings(max_examples=200, deadline=None)
    @given(nk=st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_map_equals_the_setdiff1d_form(self, nk, seed):
        n, k = nk
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(mixing_map(n, k, rng), _setdiff1d_mix(np.arange(n), k, ref))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_one_cipher_call_per_chunk(self, monkeypatch):
        calls = []

        def counting(x, p, fn=harness.encrypt_block):
            calls.append(x.shape)
            return fn(x, p)
        monkeypatch.setattr(harness, "encrypt_block", counting)
        cfg = SerAttackConfig(seed=24, n=16, m_values=(4, 16), k_values=(0, 5), trials=70)
        run_ser_attack_experiment(cfg)
        # 4 points of 70 symbols, in chunks of 32, 32 and 6
        assert calls == [(32, 16), (32, 16), (6, 16)] * 4


class TestChainStages:
    """The harness's own stages against the matmul packing and the
    shift-and-mask bit count they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from((4, 16, 64)), shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_qam_symbols_match_matmul_packing(self, m, shape, seed):
        const = QamConstellation.square(m)
        k = const.bits_per_symbol
        bits = np.random.default_rng(seed).integers(0, 2, size=(*shape, k), dtype=np.uint8)
        idx, d = modem.qam_symbols(bits, const)
        want = bits.astype(np.int64) @ (1 << np.arange(k - 1, -1, -1, dtype=np.int64))
        assert idx.dtype == np.min_scalar_type(m - 1) and np.array_equal(idx, want)
        assert np.array_equal(d, const.points[want])

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from((2, 4, 6)), rows=st.integers(1, 4), cols=st.integers(1, 50),
           seed=st.integers(0, 2**32 - 1))
    def test_error_counts_match_shift_and_mask(self, k, rows, cols, seed):
        rng = np.random.default_rng(seed)
        tx = rng.integers(0, 1 << k, size=(rows, 1, cols))
        rx = np.where(rng.random(tx.shape) < 0.5, tx, rng.integers(0, 1 << k, size=tx.shape))
        got = harness._error_counts(tx, rx.reshape(-1))
        diff = (tx ^ rx).reshape(rows, -1)
        bit_errors = (diff[..., None] >> np.arange(k, dtype=np.int64) & 1).sum(axis=(1, 2))
        assert got.dtype == np.int64
        assert np.array_equal(got, np.stack([bit_errors, np.count_nonzero(diff, axis=1)], axis=1))

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from((4, 16, 64, 256, 4096, 2 ** 16)),
           shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_error_counts_match_a_popcount_table(self, m, shape, seed):
        # indices of the width qam_point_indices gives, against the (M, log2 M)
        # bit table that the count once built for every task
        k = m.bit_length() - 1
        rng = np.random.default_rng(seed)
        tx = rng.integers(0, m, size=shape).astype(np.min_scalar_type(m - 1))
        rx = np.where(rng.random(shape) < 0.5, tx, rng.integers(0, m, size=shape)).astype(tx.dtype)
        table = (np.arange(m)[:, None] >> np.arange(k) & 1).sum(axis=1)
        diff = (tx ^ rx).reshape(len(tx), -1)
        want = np.stack([table[diff].sum(axis=1), np.count_nonzero(diff, axis=1)], axis=1)
        assert np.array_equal(harness._error_counts(tx, rx), want)

    def test_error_counts_build_no_table(self):
        # 4096 uint16 indices at M = 2**16: the old table alone was 8 MiB
        import tracemalloc
        rng = np.random.default_rng(1)
        tx, rx = rng.integers(0, 2 ** 16, size=(2, 4, 1024), dtype=np.uint16)
        tracemalloc.start()
        try:
            harness._error_counts(tx, rx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestBerExperiment:
    def test_awgn_qpsk_matches_closed_form(self):
        cfg = BerExperimentConfig(seed=11, n=64, m=4, n_cp=16,
                                  interleaver="none", channel="awgn",
                                  snr_db=(6.0,), blocks=20)
        rep = run_ber_experiment(cfg)
        pt = rep.points[0]
        snr = NoiseSpec.from_snr_db(6.0).snr
        p = qfunc(np.sqrt(snr))
        sigma = np.sqrt(p * (1 - p) / (pt.bit_errors / pt.ber))
        assert abs(pt.ber - p) < 3 * sigma

    def test_noiseless_keyed_chain_is_error_free(self):
        cfg = BerExperimentConfig(seed=12, n=16, m=16, n_cp=16,
                                  interleaver="keyed", l_depth=4,
                                  channel="awgn", snr_db=(60.0,), blocks=3,
                                  key=KEY)
        rep = run_ber_experiment(cfg)
        assert rep.points[0].bit_errors == 0
        assert rep.points[0].ser == 0.0

    def test_early_stop_on_error_budget(self):
        cfg = BerExperimentConfig(seed=13, n=64, snr_db=(0.0,), blocks=60,
                                  min_blocks=4, min_errors=100)
        pt = run_ber_experiment(cfg).points[0]
        assert pt.trials == 4
        assert pt.bit_errors >= 100

    def test_stop_on_bit_cap(self):
        cfg = BerExperimentConfig(seed=13, n=64, snr_db=(40.0,), blocks=60,
                                  min_blocks=5, min_errors=10 ** 9,
                                  max_bits=10000)
        pt = run_ber_experiment(cfg).points[0]
        assert pt.trials == 2  # 8192 bits per block; cap crossed in block 2

    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_no_block_past_the_bit_cap_is_submitted(self, workers):
        # The ber-transpose benchmark's stopping rule at n=128: every point
        # stops by the bit cap after 6 of at most 16 blocks.
        cfg = BerExperimentConfig(seed=7, n=128, snr_db=(6.0, 12.0, 18.0, 24.0), min_blocks=2,
                                  blocks=16, min_errors=10 ** 6, max_bits=6 * 128 * 128 * 2)
        report = run_ber_experiment(cfg, workers=workers)
        assert [(p.trials, s.reason) for p, s in zip(report.points, report.stops)] == [
            (6, "bit-cap")] * 4
        assert all(s.submitted <= 6 for s in report.stops)

    def test_reproducible_and_worker_invariant(self):
        cfg = BerExperimentConfig(seed=14, n=32, snr_db=(8.0, 16.0), blocks=6)
        a = run_ber_experiment(cfg).to_csv()
        b = run_ber_experiment(cfg).to_csv()
        c = run_ber_experiment(cfg, workers=2).to_csv()
        assert a == b == c
        # the points stop on the error budget after 2, 7, 9 and 13 blocks,
        # inside the first pool chunk, with later chunks in flight
        cfg = BerExperimentConfig(seed=31, n=32, interleaver="keyed", blocks=40,
                                  snr_db=(0.0, 10.0, 12.0, 16.0), min_blocks=0,
                                  min_errors=30)
        a = run_ber_experiment(cfg)
        assert [p.trials for p in a.points] == [2, 7, 9, 13]
        for workers in (2, 3):
            assert run_ber_experiment(cfg, workers=workers).to_csv() == a.to_csv()

    # Transpose blocks of 128 * (128 + 16) = 18,432 framed samples, over the
    # chunk budget, so a one-worker run computes them on two threads.
    LANE = BerExperimentConfig(seed=41, n=128, n_cp=16, snr_db=(0.0, 12.0, 24.0), blocks=6,
                               min_blocks=2, min_errors=2000, max_bits=5 * 128 * 128 * 2)
    # Its rows, captured before blocks ran on a second thread.
    LANE_ROWS = ["ber,128,4,transpose,zf,0,0,2,17570,0.268097,15151,0.462372,0.00339148",
                 "ber,128,4,transpose,zf,12,0,2,7719,0.117783,7021,0.214264,0.002468",
                 "ber,128,4,transpose,zf,24,0,5,0,0,0,0,0"]

    def test_lane_runs_keep_the_csv_at_one_two_and_three_workers(self, monkeypatch):
        import threading
        chunks, draws = [], []

        def on_main():
            return threading.current_thread() is threading.main_thread()

        def entry(task, fn=harness._ber_chunk_entry):
            chunks.append(on_main())
            return fn(task)

        def drawing(*args, fn=harness.awgn_draws):
            draws.append(on_main())
            return fn(*args)
        monkeypatch.setattr(harness, "_ber_chunk_entry", entry)
        monkeypatch.setattr(harness, "awgn_draws", drawing)
        serial = run_ber_experiment(self.LANE)
        assert serial.to_csv() == "\n".join([CSV_HEADER, *self.LANE_ROWS]) + "\n"
        assert [s.reason for s in serial.stops] == ["error-budget", "error-budget", "bit-cap"]
        # every chunk, and every noise draw, ran on the run's own threads
        assert len(draws) == len(chunks) > 0 and not any(chunks + draws)
        monkeypatch.undo()
        for workers in (2, 3):
            pooled = run_ber_experiment(self.LANE, workers=workers)
            assert pooled.to_csv() == serial.to_csv()
            assert [s.reason for s in pooled.stops] == [s.reason for s in serial.stops]

    def test_one_worker_hands_out_the_two_worker_chunks(self, monkeypatch):
        small = BerExperimentConfig(seed=1, n=64, n_cp=16)  # 5,120 samples per block
        assert harness._BerStream(self.LANE, 1).threads
        assert not harness._BerStream(self.LANE, 2).threads
        assert not harness._BerStream(small, 1).threads
        runs = []

        def tasks(stream, fn=harness._BerStream.tasks):
            for task in fn(stream):
                runs[-1].append(task[1:])
                yield task
        monkeypatch.setattr(harness._BerStream, "tasks", tasks)
        for workers in (1, 2):
            runs.append([])
            run_ber_experiment(self.LANE, workers=workers)
        assert runs[0] == runs[1]
        # the two threads speculate past the 2 + 2 + 5 blocks taken
        assert len(runs[0]) > 9

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1), st.integers(1, 7), st.integers(0, 4),
           st.sampled_from([0, 1, 3000, 40000, 10 ** 9]),
           st.lists(st.floats(-5.0, 40.0), min_size=1, max_size=3))
    def test_one_worker_computes_oversized_blocks_like_two_workers(
            self, seed, blocks, min_blocks, min_errors, snr_db):
        cfg = BerExperimentConfig(seed=seed, n=128, n_cp=16, snr_db=tuple(snr_db),
                                  blocks=blocks, min_blocks=min_blocks, min_errors=min_errors)
        one, two = (run_ber_experiment(cfg, workers=workers) for workers in (1, 2))
        assert one.to_csv() == two.to_csv()
        assert [s.submitted for s in one.stops] == [s.submitted for s in two.stops]
        # each point computes at most the 3 other blocks in flight past its stop
        for s, p in zip(one.stops, one.points):
            assert 0 <= s.submitted - s.cancelled - p.trials <= 3

    @pytest.mark.parametrize("cfg", [
        BerExperimentConfig(seed=13, n=64, snr_db=(40.0,), blocks=60,
                            min_blocks=5, min_errors=10 ** 9, max_bits=10000),
        BerExperimentConfig(seed=13, n=64, snr_db=(0.0,), blocks=60,
                            min_blocks=4, min_errors=100),
    ], ids=["bit-cap", "error-budget"])
    def test_one_worker_computes_only_the_blocks_taken(self, cfg):
        report = run_ber_experiment(cfg)
        assert [(s.submitted, s.cancelled) for s in report.stops] == [
            (p.trials, 0) for p in report.points]

    @staticmethod
    def stop_reason(cfg, point):
        """The rule that ends a point with point.trials blocks taken, checked
        in the engine's order."""
        bits = cfg.symbols_per_block * cfg.n * (cfg.m.bit_length() - 1)
        min_blocks = cfg.min_blocks if cfg.min_blocks is not None else min(200, cfg.blocks)
        if point.trials >= min_blocks and point.bit_errors >= cfg.min_errors:
            return "error-budget"
        if point.trials * bits >= cfg.max_bits:
            return "bit-cap"
        assert point.trials == cfg.blocks
        return "block-cap"

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_pool_submits_little_past_the_stops(self, seed):
        # The benchmark's ber-keyed-2w config: its key file holds
        # SHA-256(b"perfbench key" || seed as 8 big-endian bytes).
        import hashlib
        import multiprocessing
        key = SecretKey(hashlib.sha256(b"perfbench key" + seed.to_bytes(8, "big")).digest())
        cfg = BerExperimentConfig(seed=seed, n=256, m=4, n_cp=16, interleaver="keyed",
                                  snr_db=(6.0, 12.0, 18.0, 24.0), min_blocks=2, blocks=600,
                                  min_errors=3000, max_bits=1e8, key=key)
        runs = [run_ber_experiment(cfg, workers=2) for _ in range(2)]
        assert not multiprocessing.active_children()
        taken = sum(p.trials for p in runs[0].points)
        submitted = [sum(s.submitted for s in run.stops) for run in runs]
        # the chunks submitted follow from the folded results alone
        assert submitted[0] == submitted[1] <= 1.10 * taken
        assert runs[0].to_csv() == runs[1].to_csv()
        assert [s.reason for s in runs[0].stops] == [
            self.stop_reason(cfg, p) for p in runs[0].points]

    # Rows captured when every block ran as its own task.  A pool chunk holds
    # 8192 // samples-per-block blocks, so "edge16" (transpose, n=16) and
    # "edge30" (keyed, n=256) stop on the last block of a pool chunk, and
    # every other error-budget stop lands inside one.
    GOLDEN = [
        (dict(seed=101, n=32, m=16, interleaver="none", snr_db=(4.0, 14.0), blocks=30,
              min_blocks=3, min_errors=200),
         ["ber,32,16,none,zf,4,0,3,2337,0.190186,1703,0.554362,0.006939",
          "ber,32,16,none,zf,14,0,3,665,0.0541178,519,0.168945,0.00400041"]),
        (dict(seed=102, n=16, interleaver="transpose", equalizer=EqualizerKind(variant="mmse"),
              snr_db=(6.0, 20.0), blocks=40, min_blocks=2, min_errors=300),
         ["ber,16,4,transpose,mmse,6,0,6,328,0.106771,310,0.201823,0.0109208",
          "ber,16,4,transpose,mmse,20,0,40,6,0.000292969,6,0.000585937,0.000234389"]),
        (dict(seed=103, n=64, interleaver="keyed", equalizer=EqualizerKind(fade_bias=0.3),
              snr_db=(0.0, 10.0, 20.0), blocks=80, min_blocks=0, min_errors=30),
         ["ber,64,4,keyed,zf,0,0,1,32,0.25,27,0.421875,0.0750156",
          "ber,64,4,keyed,zf,10,0,7,33,0.0368304,31,0.0691964,0.0123327",
          "ber,64,4,keyed,zf,20,0,80,12,0.00117187,12,0.00234375,0.000662662"]),
        (dict(seed=104, n=16, m=16, interleaver="keyed", l_depth=4,
              equalizer=EqualizerKind(variant="mmse", discard_below=0.2), snr_db=(5.0, 15.0),
              blocks=60, min_blocks=1, min_errors=100, key=KEY),
         ["ber,16,16,keyed,mmse,5,0,2,126,0.246094,96,0.75,0.0373104",
          "ber,16,16,keyed,mmse,15,0,4,118,0.115234,101,0.394531,0.0195574"]),
        (dict(seed=105, n=32, interleaver="keyed", l_depth=2, channel="awgn", snr_db=(2.0, 6.0),
              blocks=50, min_blocks=0, min_errors=40),
         ["ber,32,4,keyed,zf,2,0,3,43,0.111979,39,0.203125,0.0315407",
          "ber,32,4,keyed,zf,6,0,12,41,0.0266927,41,0.0533854,0.00806087"]),
        (dict(seed=106, n=16, interleaver="transpose", snr_db=(30.0,), blocks=60, min_blocks=5,
              min_errors=10 ** 9, max_bits=1000),
         ["ber,16,4,transpose,zf,30,0,2,0,0,0,0,0"]),
        (dict(seed=107, n=64, interleaver="keyed", snr_db=(30.0, 40.0), blocks=600, min_blocks=5,
              min_errors=10 ** 9, max_bits=40 * 128 + 1),
         ["ber,64,4,keyed,zf,30,0,41,0,0,0,0,0",
          "ber,64,4,keyed,zf,40,0,41,0,0,0,0,0"]),
        (dict(seed=108, n=32, interleaver="keyed", snr_db=(30.0,), blocks=37, min_errors=10 ** 9),
         ["ber,32,4,keyed,zf,30,0,37,19,0.00802365,14,0.0118243,0.00359337"]),
        (dict(seed=109, n=16, interleaver="none", snr_db=(0.0, 10.0), blocks=9, min_blocks=0,
              min_errors=0),
         ["ber,16,4,none,zf,0,0,1,139,0.271484,123,0.480469,0.0385224",
          "ber,16,4,none,zf,10,0,1,21,0.0410156,19,0.0742188,0.0171791"]),
        (dict(seed=110, n=16, interleaver="transpose", snr_db=(-5.0,), blocks=40, min_blocks=16,
              min_errors=1),
         ["ber,16,4,transpose,zf,-5,0,16,3151,0.384644,2532,0.618164,0.0105355"]),
        (dict(seed=111, n=256, interleaver="keyed", snr_db=(-5.0, 8.0), blocks=200,
              min_blocks=30, min_errors=1),
         ["ber,256,4,keyed,zf,-5,0,30,6082,0.395964,4885,0.636068,0.00773428",
          "ber,256,4,keyed,zf,8,0,30,2063,0.13431,1820,0.236979,0.00539257"]),
        (dict(seed=112, n=256, interleaver="keyed", snr_db=(6.0, 12.0, 18.0), blocks=200,
              min_blocks=2, min_errors=400),
         ["ber,256,4,keyed,zf,6,0,6,489,0.15918,431,0.280599,0.0129372",
          "ber,256,4,keyed,zf,12,0,18,440,0.0477431,406,0.0881076,0.00435328",
          "ber,256,4,keyed,zf,18,0,64,402,0.0122681,357,0.0217896,0.0011919"]),
        (dict(seed=113, n=64, m=64, interleaver="none", equalizer=EqualizerKind(zf_floor=0.05),
              snr_db=(10.0, 25.0), blocks=20, min_blocks=20),
         ["ber,64,64,none,zf,10,0,20,100340,0.204142,57941,0.707288,0.00112686",
          "ber,64,64,none,zf,25,0,20,10855,0.0220846,8181,0.0998657,0.000410847"]),
        (dict(seed=114, n=64, interleaver="keyed", l_depth=4, snr_db=(8.0, 16.0), blocks=100,
              min_blocks=2, min_errors=200),
         ["ber,64,4,keyed,zf,8,0,3,261,0.169922,242,0.315104,0.0187821",
          "ber,64,4,keyed,zf,16,0,31,237,0.014932,227,0.0286038,0.00188683"]),
        (dict(seed=115, n=64, interleaver="transpose", snr_db=(12.0,), blocks=9,
              min_errors=10 ** 6),
         ["ber,64,4,transpose,zf,12,0,9,3612,0.0489909,3423,0.0928548,0.00155808"]),
        (dict(seed=116, n=64, interleaver="none", channel="awgn",
              equalizer=EqualizerKind(variant="mmse"), snr_db=(3.0, 7.0), blocks=25,
              min_blocks=25),
         ["ber,64,4,none,mmse,3,0,25,16329,0.0797314,15664,0.152969,0.00117318",
          "ber,64,4,none,mmse,7,0,25,2612,0.0127539,2596,0.0253516,0.000485988"]),
    ]

    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_csv_matches_golden_rows(self, workers):
        reasons = set()
        for kwargs, rows in self.GOLDEN:
            cfg = BerExperimentConfig(**kwargs)
            report = run_ber_experiment(cfg, workers=workers)
            assert report.to_csv() == "\n".join([CSV_HEADER, *rows]) + "\n", kwargs
            assert [s.reason for s in report.stops] == [
                self.stop_reason(cfg, p) for p in report.points], kwargs
            for s, p in zip(report.stops, report.points):
                assert s.submitted >= p.trials and 0 <= s.cancelled <= s.submitted - p.trials
                assert workers > 1 or s.submitted == p.trials
            reasons.update(s.reason for s in report.stops)
        assert reasons == {"error-budget", "bit-cap", "block-cap"}

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(["none", "transpose", "keyed"]),
           st.sampled_from([4, 8, 16, 32, 64]), st.integers(1, 3),
           st.sampled_from(["error-budget", "bit-cap", "block-cap"]),
           st.integers(0, 2 ** 64 - 1),
           st.lists(st.floats(-5.0, 30.0), max_size=2).flatmap(
               lambda extra: st.permutations([0.0, 60.0, *extra])),
           st.integers(0, 4), st.integers(0, 400))
    def test_csv_is_the_same_at_one_two_and_three_workers(
            self, interleaver, n, l_depth, rule, seed, snr_db, min_blocks, budget):
        bits = (l_depth if interleaver == "keyed" else n) * n * 2
        stopping = {"error-budget": dict(min_errors=budget),
                    "bit-cap": dict(min_errors=10 ** 9, max_bits=bits * budget // 40 + 1),
                    "block-cap": dict(min_errors=10 ** 9)}[rule]
        cfg = BerExperimentConfig(
            seed=seed, n=n, n_cp=min(n, 16), interleaver=interleaver, l_depth=l_depth,
            channel="rayleigh" if n > 11 else "awgn", snr_db=tuple(snr_db),
            blocks=40, min_blocks=min_blocks, **stopping)
        serial = run_ber_experiment(cfg)
        for workers in (2, 3):
            pooled = run_ber_experiment(cfg, workers=workers)
            assert pooled.to_csv() == serial.to_csv()
            assert [s.reason for s in pooled.stops] == [s.reason for s in serial.stops]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([
        dict(n=16, interleaver="none"),
        dict(n=16, m=16, interleaver="transpose", equalizer=EqualizerKind(variant="mmse")),
        dict(n=32, interleaver="keyed", equalizer=EqualizerKind(fade_bias=0.3)),
        dict(n=16, interleaver="keyed", l_depth=3, equalizer=EqualizerKind(discard_below=0.2)),
        dict(n=4, n_cp=2, interleaver="keyed", l_depth=2, channel="awgn"),
        dict(n=8, n_cp=0, interleaver="transpose", channel="awgn"),
    ]), st.integers(0, 2 ** 64 - 1), st.integers(0, 3), st.integers(0, 6), st.integers(1, 6),
        st.floats(-5.0, 30.0), st.sampled_from(["own", "buffers"]))
    def test_one_chunk_counts_like_one_block_chunks(self, kwargs, seed, point, b0, count, snr,
                                                    placement):
        cfg = BerExperimentConfig(seed=seed, blocks=20, snr_db=(snr,), **kwargs)
        task = (cfg, point, snr, b0, b0 + count)
        entry = harness._ber_chunk_entry
        with ThreadPoolExecutor(max_workers=1) as helper:
            chunk = {"own": lambda: entry(task),
                     "buffers": lambda: helper.submit(entry, task).result(),  # the helper's
                     }[placement]()
        single = [harness._ber_chunk_entry((cfg, point, snr, b, b + 1))
                  for b in range(b0, b0 + count)]
        assert chunk.shape == (count, 2)
        assert np.array_equal(chunk, np.concatenate(single))

    @pytest.mark.parametrize("kwargs", [dict(n=16, interleaver="transpose"),
                                        dict(n=32, interleaver="keyed", l_depth=2)],
                             ids=["transpose", "keyed"])
    def test_chunk_permutes_through_the_cipher_once(self, monkeypatch, kwargs):
        calls = {"encrypt_block": 0, "decrypt_block": 0}
        for name in calls:
            def counting(x, p, fn=getattr(harness, name), name=name, **kwargs):
                calls[name] += 1
                return fn(x, p, **kwargs)
            monkeypatch.setattr(harness, name, counting)
        cfg = BerExperimentConfig(seed=4, blocks=20, snr_db=(8.0,), **kwargs)
        assert harness._ber_chunk_entry((cfg, 0, 8.0, 2, 7)).shape == (5, 2)
        assert calls == {"encrypt_block": 1, "decrypt_block": 1}

    def test_cp_shorter_than_channel_warns(self):
        cfg = BerExperimentConfig(seed=15, n=16, n_cp=8, snr_db=(10.0,),
                                  blocks=1)
        with pytest.warns(UserWarning, match="cyclic prefix"):
            run_ber_experiment(cfg)

    def test_config_validation(self):
        for seed in (-1, 2 ** 64):
            with pytest.raises(ShapeError):
                BerExperimentConfig(seed=seed)
        with pytest.raises(ShapeError):
            BerExperimentConfig(seed=0, n=12)
        with pytest.raises(ShapeError):
            BerExperimentConfig(seed=0, interleaver="rowcol")
        with pytest.raises(ShapeError):
            BerExperimentConfig(seed=0, channel="rician")
        with pytest.raises(ShapeError):
            BerExperimentConfig(seed=0, blocks=0)
        for m in (2, 6, 8):
            with pytest.raises(ShapeError):
                BerExperimentConfig(seed=0, m=m)
        for n_cp in (-1, 17):
            with pytest.raises(ShapeError):
                BerExperimentConfig(seed=0, n=16, n_cp=n_cp)
        with pytest.raises(ShapeError, match="channel order 11"):
            BerExperimentConfig(seed=0, n=8, n_cp=8)
        with pytest.raises(ShapeError):
            BerExperimentConfig(seed=0, min_errors=-1)
        with pytest.raises(ShapeError):
            BerExperimentConfig(seed=0, snr_db=())
        with pytest.raises(ShapeError):
            BerExperimentConfig(seed=0, min_blocks=-1)
        for max_bits in (0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ShapeError):
                BerExperimentConfig(seed=0, max_bits=max_bits)
        BerExperimentConfig(seed=2 ** 64 - 1, n=16, n_cp=0, min_errors=0, min_blocks=0)
        BerExperimentConfig(seed=0, n=16, n_cp=16)
        BerExperimentConfig(seed=0, n=8, n_cp=8, channel="awgn")

    def test_symbols_per_block(self):
        assert BerExperimentConfig(seed=0, n=64).symbols_per_block == 64
        keyed = BerExperimentConfig(seed=0, n=64, interleaver="keyed",
                                    l_depth=4)
        assert keyed.symbols_per_block == 4

    def test_resolve_key(self):
        assert BerExperimentConfig(seed=0, key=KEY).resolve_key() is KEY
        a = BerExperimentConfig(seed=5).resolve_key()
        b = BerExperimentConfig(seed=5).resolve_key()
        assert a.key_bytes == b.key_bytes
        assert BerExperimentConfig(seed=6).resolve_key().key_bytes != a.key_bytes


@pytest.mark.parametrize("build", [
    lambda snr: BerExperimentConfig(seed=0, snr_db=(10.0, snr)),
    lambda snr: SerAttackConfig(seed=0, snr_db=snr),
    lambda snr: AttackRecoveryConfig(seed=0, snr_db=snr),
    lambda snr: SnrAnalysisConfig(seed=0, snr_db=(snr,)),
], ids=["ber", "attack-ser", "attack-recovery", "snr-analysis"])
@pytest.mark.parametrize("snr", [float("inf"), float("-inf"), float("nan"),
                                 4000.0, -4000.0, 3083.0, -3083.0])
def test_non_finite_snr_rejected(build, snr):
    # Beyond about +-3082 dB the noise power or the SNR is 0 or overflows.
    with pytest.raises(ShapeError, match="finite"):
        build(snr)
    build(3000.0)
    build(-3000.0)


class TestSerAttackExperiment:
    def test_disorder_sweep_shape_and_extremes(self):
        cfg = SerAttackConfig(seed=21, n=16, m_values=(4,), k_values=(0, 16),
                              snr_db=30.0, trials=40)
        rep = run_ser_attack_experiment(cfg)
        assert len(rep.points) == 2
        clean, mixed = rep.points
        assert clean.experiment == "attack-ser"
        assert clean.interleaver == "sample-mix"
        assert clean.k_mixed == 0 and mixed.k_mixed == 16
        assert clean.trials == 40
        assert clean.ser <= 0.01
        assert mixed.ser >= 0.5

    def test_worker_invariance(self):
        cfg = SerAttackConfig(seed=22, n=16, m_values=(4, 16),
                              k_values=(0, 8), trials=70)
        assert (run_ser_attack_experiment(cfg).to_csv()
                == run_ser_attack_experiment(cfg, workers=3).to_csv())

    # captured when each (M, k) point ran through its own task map
    GOLDEN = [
        "attack-ser,16,4,sample-mix,none,20,0,70,0,0,0,0,0",
        "attack-ser,16,4,sample-mix,none,20,3,70,894,0.399107,702,0.626786,0.028326",
        "attack-ser,16,4,sample-mix,none,20,16,70,1071,0.478125,800,0.714286,0.0264575",
        "attack-ser,16,16,sample-mix,none,20,0,70,0,0,0,0,0",
        "attack-ser,16,16,sample-mix,none,20,3,70,1903,0.424777,952,0.85,0.0209123",
        "attack-ser,16,16,sample-mix,none,20,16,70,2093,0.467187,983,0.877679,0.0191896",
        "attack-ser,16,64,sample-mix,none,20,0,70,63,0.009375,62,0.0553571,0.0133927",
        "attack-ser,16,64,sample-mix,none,20,3,70,2913,0.433482,1026,0.916071,0.0162393",
        "attack-ser,16,64,sample-mix,none,20,16,70,3117,0.463839,1037,0.925893,0.0153411",
    ]

    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_csv_matches_golden_rows(self, workers):
        cfg = SerAttackConfig(seed=23, n=16, m_values=(4, 16, 64), k_values=(0, 3, 16),
                              snr_db=20.0, trials=70)
        report = run_ser_attack_experiment(cfg, workers=workers)
        assert report.to_csv() == "\n".join([CSV_HEADER, *self.GOLDEN]) + "\n"
        assert report.stops == (PointStop("block-cap", submitted=70, cancelled=0),) * 9

    @pytest.mark.parametrize("workers", (2, 3))
    def test_pool_error_reaches_the_caller_and_leaves_no_process(self, workers):
        import multiprocessing
        cfg = SerAttackConfig(seed=1, n=16, k_values=(0, 8), trials=200)
        object.__setattr__(cfg, "snr_db", math.nan)  # past the config's own check
        with pytest.raises(ShapeError, match="noise power must be finite"):
            run_ser_attack_experiment(cfg, workers=workers)
        assert multiprocessing.active_children() == []

    def test_validation(self):
        with pytest.raises(ShapeError):
            SerAttackConfig(seed=0, n=16, k_values=(17,))
        with pytest.raises(ShapeError):
            SerAttackConfig(seed=0, trials=0)
        with pytest.raises(ShapeError):
            SerAttackConfig(seed=0, m_values=(4, 6))
        with pytest.raises(ShapeError):
            SerAttackConfig(seed=0, m_values=())
        with pytest.raises(ShapeError):
            SerAttackConfig(seed=0, k_values=())
        with pytest.raises(ShapeError):
            SerAttackConfig(seed=2 ** 64)


class TestAttackRecoveryExperiment:
    def test_fixed_permutation_is_recovered(self):
        cfg = AttackRecoveryConfig(seed=31, size=16, snr_db=10.0, repeats=50,
                                   trials=4)
        pt = run_attack_recovery_experiment(cfg).points[0]
        assert pt.experiment == "attack-recovery"
        assert pt.interleaver == "fixed"
        assert pt.k_mixed == 50
        assert pt.trials == 64
        assert pt.ser <= 0.05  # miss rate

    def test_fresh_permutations_resist_averaging(self):
        cfg = AttackRecoveryConfig(seed=32, size=16, snr_db=10.0, repeats=200,
                                   trials=4, fresh_perm_per_block=True)
        pt = run_attack_recovery_experiment(cfg).points[0]
        assert pt.interleaver == "fresh"
        assert pt.ser >= 0.7  # near the 1 - 1/size chance floor

    def test_worker_invariance(self):
        cfg = AttackRecoveryConfig(seed=33, size=8, snr_db=0.0, repeats=64,
                                   trials=6)
        assert (run_attack_recovery_experiment(cfg).to_csv()
                == run_attack_recovery_experiment(cfg, workers=2).to_csv())

    # rows captured when every observation's map came from its own
    # derive_permutation call; sizes 257 and 2 cross a byte-width edge and
    # sit at the smallest size
    GOLDEN = [
        (dict(seed=34, size=64, snr_db=0.0, repeats=300, trials=3,
              fresh_perm_per_block=True),
         "attack-recovery,64,0,fresh,none,0,300,192,0,0,190,0.989583,0.0143614"),
        (dict(seed=35, size=257, snr_db=20.0, repeats=40, trials=3,
              fresh_perm_per_block=True),
         "attack-recovery,257,0,fresh,none,20,40,771,0,0,764,0.990921,0.0066953"),
        (dict(seed=36, size=16, snr_db=5.0, repeats=500, trials=4,
              fresh_perm_per_block=True, key=KEY),
         "attack-recovery,16,0,fresh,none,5,500,64,0,0,61,0.953125,0.0517859"),
        (dict(seed=38, size=2, snr_db=-5.0, repeats=30, trials=5,
              fresh_perm_per_block=True),
         "attack-recovery,2,0,fresh,none,-5,30,10,0,0,4,0.4,0.303642"),
        (dict(seed=37, size=64, snr_db=0.0, repeats=200, trials=3),
         "attack-recovery,64,0,fixed,none,0,200,192,0,0,19,0.0989583,0.0422381"),
        # one observation per trial, captured when fixed and fresh maps took
        # separate branches
        (dict(seed=40, size=16, snr_db=5.0, repeats=1, trials=5),
         "attack-recovery,16,0,fixed,none,5,1,80,0,0,50,0.625,0.106088"),
        (dict(seed=41, size=16, snr_db=5.0, repeats=1, trials=5, fresh_perm_per_block=True),
         "attack-recovery,16,0,fresh,none,5,1,80,0,0,54,0.675,0.102637"),
    ]

    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_csv_matches_golden_rows(self, workers):
        for kwargs, row in self.GOLDEN:
            cfg = AttackRecoveryConfig(**kwargs)
            report = run_attack_recovery_experiment(cfg, workers=workers)
            assert report.to_csv() == CSV_HEADER + "\n" + row + "\n", kwargs
            assert report.stops == (PointStop("block-cap", submitted=cfg.trials, cancelled=0),)


class TestSnrAnalysis:
    def test_matches_manual_ensemble(self):
        cfg = SnrAnalysisConfig(seed=7, n=32, m=4, snr_db=(12.0,), blocks=10)
        pt = analyze_snr(cfg).points[0]
        hs = []
        for bi in range(10):
            rng = np.random.default_rng((7, 0, bi))
            hs.append(freq_response(
                draw_rayleigh_channel(FIVE_TAP_PROFILE, rng), 32))
        expect = semi_analytic_ber(hs, NoiseSpec.from_snr_db(12.0).snr, 4)
        assert pt.ber == expect
        assert pt.trials == 10 and pt.ci95 == 0.0

    def test_shares_channel_ensemble_with_monte_carlo(self):
        mc_cfg = BerExperimentConfig(seed=41, n=64, m=4, snr_db=(14.0,),
                                     blocks=12, min_errors=10 ** 9)
        sa_cfg = SnrAnalysisConfig(seed=41, n=64, m=4, snr_db=(14.0,),
                                   blocks=12)
        mc = run_ber_experiment(mc_cfg).points[0].ber
        sa = analyze_snr(sa_cfg).points[0].ber
        assert mc == pytest.approx(sa, rel=0.2)

    def test_monotone_in_snr(self):
        cfg = SnrAnalysisConfig(seed=8, n=64, snr_db=(5.0, 15.0, 25.0),
                                blocks=40)
        bers = [p.ber for p in analyze_snr(cfg).points]
        assert bers[0] > bers[1] > bers[2] > 0

    def test_validation(self):
        for zf_floor in (0.0, -1e-12, float("nan"), float("inf")):
            with pytest.raises(ShapeError, match="zf_floor"):
                SnrAnalysisConfig(seed=0, zf_floor=zf_floor)
        with pytest.raises(ShapeError, match="snr_db"):
            SnrAnalysisConfig(seed=0, snr_db=())
        with pytest.raises(ShapeError, match="seed"):
            SnrAnalysisConfig(seed=2 ** 64)
        for m in (3, 8):
            with pytest.raises(ShapeError, match="M must be"):
                SnrAnalysisConfig(seed=0, m=m)
        for n in (0, 11):
            with pytest.raises(ShapeError, match="channel order 11"):
                SnrAnalysisConfig(seed=0, n=n)


class TestIciMeasurement:
    def test_identity_is_mixing_free(self):
        perm = Permutation.identity(16)
        rep = measure_ici(perm, trials=200, n=16)
        assert np.allclose(rep.alpha, 1.0, atol=1e-12)
        assert np.all(rep.beta_power < 1e-10)
        assert rep.n == 16

    def test_reversal_closed_form(self):
        rev = Permutation(map=np.arange(8, dtype=np.int64)[::-1].copy())
        exact = ici_alpha_exact(rev, 8)
        assert np.allclose(exact, [1, 0, 0, 0, -1, 0, 0, 0], atol=1e-12)
        rep = measure_ici(rev, trials=4000, n=8)
        assert np.max(np.abs(rep.alpha[0] - exact)) < 0.06

    def test_random_permutation_matches_closed_form(self):
        perm = derive_permutation(KEY, 9, 64)
        exact = ici_alpha_exact(perm, 64)
        rep = measure_ici(perm, trials=20000, n=64)
        assert np.max(np.abs(rep.alpha[0] - exact)) < 0.04
        total = np.abs(rep.alpha[0]) ** 2 + rep.beta_power[0]
        assert np.max(np.abs(total - 1.0)) < 0.02

    def test_power_conservation_for_16qam(self):
        perm = derive_permutation(KEY, 10, 16)
        rep = measure_ici(perm, trials=20000, n=16, m=16)
        exact = ici_alpha_exact(perm, 16)
        assert np.max(np.abs(rep.alpha[0] - exact)) < 0.05
        total = np.abs(rep.alpha[0]) ** 2 + rep.beta_power[0]
        assert np.max(np.abs(total - 1.0)) < 0.05

    def test_heavy_mixing_scales_inversely_with_n(self):
        n = 256
        perm = derive_permutation(KEY, 11, n)
        exact = ici_alpha_exact(perm, n)
        # k = 0 passes through untouched; the rest spread to ~1/N each
        assert exact[0] == pytest.approx(1.0)
        rest = np.abs(exact[1:]) ** 2
        assert 0.2 / n < rest.mean() < 5.0 / n

    def test_interleaving_block_spanning_symbols(self):
        from permofdm import transpose_interleaver
        perm = transpose_interleaver(8)
        rep = measure_ici(perm, trials=2000, n=8)
        assert rep.alpha.shape == (8, 8)
        total = np.abs(rep.alpha) ** 2 + rep.beta_power
        assert np.max(np.abs(total - 1.0)) < 0.1

    # (map, n, m, trials): chunks of several slices, of one map per slice
    # (n=91), runs of two chunks, and chunks of products over and under
    # 256 KiB, the size from which numpy reorders yf * conj(d).
    SLICED = [(Permutation.identity(4), 4, 4, 5000),
              (Permutation(map=np.random.default_rng(2).permutation(64)), 64, 16, 4200),
              (derive_permutation(KEY, 1, 256), 256, 4, 4097),
              (transpose_interleaver(4), 4, 16, 1100), (transpose_interleaver(64), 64, 4, 70),
              (transpose_interleaver(91), 91, 4, 15)]

    @pytest.mark.parametrize("perm, n, m, trials", SLICED,
                             ids=[f"n{n}-L{p.size // n}" for p, n, _, _ in SLICED])
    def test_slices_match_whole_chunks_bit_for_bit(self, perm, n, m, trials):
        # the sums over whole chunks of 4096 symbols, or one map, as written
        # before the chunks were sliced
        l_eff, const = perm.size // n, QamConstellation.square(m)
        acc_yd = np.zeros((l_eff, n), dtype=np.complex128)
        acc_yy, acc_dd = np.zeros((2, l_eff, n))
        chunk = max(1, 4096 // l_eff)
        for ci, done in enumerate(range(0, trials, chunk)):
            rng = np.random.default_rng((7, ci))
            d = const.points[rng.integers(0, const.M, size=(min(chunk, trials - done), l_eff, n))]
            yf = modem.fft_demodulate(encrypt_block(modem.ifft_modulate(d), perm))
            acc_yd += (yf * np.conj(d)).sum(axis=0)
            acc_yy += (np.abs(yf) ** 2).sum(axis=0)
            acc_dd += (np.abs(d) ** 2).sum(axis=0)
        alpha = acc_yd / trials
        beta_power = (acc_yy / trials - 2.0 * np.real(np.conj(alpha) * acc_yd / trials)
                      + np.abs(alpha) ** 2 * acc_dd / trials)
        rep = measure_ici(perm, trials, n, m=m, seed=7)
        assert np.array_equal(rep.alpha, alpha) and np.array_equal(rep.beta_power, beta_power)

    def test_memory_does_not_grow_with_the_chunk(self):
        # chunks of 4096 symbols of 2048 samples once held 576 MiB
        import tracemalloc
        tracemalloc.start()
        try:
            harness.run_ici_experiment(IciConfig(seed=1, n=2048, trials=4096, perm="random"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_validation(self):
        perm = Permutation.identity(12)
        with pytest.raises(ShapeError):
            measure_ici(perm, trials=10, n=8)
        with pytest.raises(ShapeError):
            measure_ici(Permutation.identity(8), trials=0, n=8)
        with pytest.raises(ShapeError):
            measure_ici(Permutation.identity(8), trials=10, n=0)

    @pytest.mark.parametrize("perm", ["identity", "reversal", "random", "transpose", "keyed"])
    def test_config_validation(self, perm):
        # ell is checked whatever the perm, though only "keyed" reads it
        for ell in (-1, 2 ** 64):
            with pytest.raises(ShapeError, match="must fit in an unsigned 64-bit counter"):
                IciConfig(seed=0, perm=perm, key=KEY, ell=ell)
        IciConfig(seed=0, perm=perm, key=KEY, ell=2 ** 64 - 1)


# (config, at a run-size bound, one past it, the bound's words in the error)
BOUNDS = [
    (BerExperimentConfig, dict(n=8192, n_cp=0), dict(n=8192, n_cp=1), "samples per block"),
    (BerExperimentConfig, dict(n=64, n_cp=0, interleaver="keyed", l_depth=2 ** 20),
     dict(n=64, n_cp=0, interleaver="keyed", l_depth=2 ** 20 + 1), "samples per block"),
    (BerExperimentConfig, dict(n=64, n_cp=0, l_depth=2 ** 20),
     dict(n=64, n_cp=0, l_depth=2 ** 20 + 1), r"l_depth \* \(n \+ n_cp\)"),
    (BerExperimentConfig, dict(n=64, n_cp=0, snr_db=(1.0, 2.0), blocks=2 ** 27),
     dict(n=64, n_cp=0, snr_db=(1.0, 2.0), blocks=2 ** 27 + 1), "samples per run"),
    (BerExperimentConfig, dict(m=2 ** 16), dict(m=2 ** 18), r"2\*\*16"),
    (SerAttackConfig, dict(n=2 ** 21, k_values=(0,)), dict(n=2 ** 22, k_values=(0,)),
     "samples per task"),
    # the grid counts: 4 (M, k) points of 2**17 trials reach the bound, and 5 pass it
    (SerAttackConfig, dict(n=2 ** 21, m_values=(4,), k_values=(0, 1, 2, 3), trials=2 ** 17),
     dict(n=2 ** 21, m_values=(4,), k_values=(0, 1, 2, 3, 4), trials=2 ** 17),
     "samples per run"),
    (AttackRecoveryConfig, dict(size=64, repeats=2 ** 20), dict(size=64, repeats=2 ** 20 + 1),
     "samples per trial"),
    (AttackRecoveryConfig, dict(size=64, repeats=2 ** 20, trials=2 ** 14),
     dict(size=64, repeats=2 ** 20, trials=2 ** 14 + 1), "samples per run"),
    (SnrAnalysisConfig, dict(n=2 ** 16, blocks=2 ** 10), dict(n=2 ** 16, blocks=2 ** 10 + 1),
     "samples per point"),
    (SnrAnalysisConfig, dict(n=2 ** 16, blocks=2 ** 10, snr_db=(1.0,) * 2 ** 14),
     dict(n=2 ** 16, blocks=2 ** 10, snr_db=(1.0,) * (2 ** 14 + 1)), "samples per run"),
    (IciConfig, dict(n=2 ** 26, trials=1), dict(n=2 ** 26 + 1, trials=1), "samples per map"),
    (IciConfig, dict(n=8192, perm="transpose", trials=1),
     dict(n=8193, perm="transpose", trials=1), "samples per map"),
    (IciConfig, dict(n=2 ** 10, trials=2 ** 30), dict(n=2 ** 10, trials=2 ** 30 + 1),
     "samples per run"),
]


@pytest.mark.parametrize("cls, at, past, match", BOUNDS,
                         ids=[f"{c.__name__}-{i}" for i, (c, *_) in enumerate(BOUNDS)])
def test_run_size_bounds(cls, at, past, match):
    """A config at a run-size bound builds, and one past it is refused."""
    cls(seed=1, **at)
    with pytest.raises(ShapeError, match=match):
        cls(seed=1, **past)


class TestChainBuffers:
    """The BER chain's reused buffers change no result and outlive no run."""

    def test_concurrent_runs_match_serial_and_leave_no_buffers(self):
        import sys
        import threading
        cfgs = [BerExperimentConfig(seed=31, n=16, snr_db=(4.0, 12.0), blocks=30, min_errors=50),
                BerExperimentConfig(seed=32, n=32, interleaver="keyed", l_depth=3, n_cp=12,
                                    snr_db=(6.0,), blocks=40, min_errors=80, key=KEY),
                BerExperimentConfig(seed=33, n=8, interleaver="none", n_cp=0, channel="awgn",
                                    snr_db=(3.0,), blocks=25),
                TestBerExperiment.LANE]  # its chunks run on two threads of the run
        serial = [run_ber_experiment(cfg).to_csv() for cfg in cfgs]
        assert "buffers" not in vars(harness._chain_cache)
        start = threading.Barrier(len(cfgs))
        results = [None] * len(cfgs)

        def run(i):
            start.wait()
            csv = [run_ber_experiment(cfgs[i]).to_csv() for _ in range(3)]
            results[i] = csv, "buffers" in vars(harness._chain_cache)

        # more threads than cores, switching often, so their chunks interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [([csv] * 3, False) for csv in serial]

    def test_buffers_are_dropped_when_a_run_raises(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("stop")
        monkeypatch.setattr(harness, "_error_counts", fail)
        with pytest.raises(RuntimeError):
            run_ber_experiment(BerExperimentConfig(seed=3, n=16, blocks=2))
        assert "buffers" not in vars(harness._chain_cache)

    # LONE has one point, so the run's two threads both compute its blocks.
    LONE = BerExperimentConfig(seed=41, n=128, n_cp=16, snr_db=(24.0,), blocks=3, min_blocks=1,
                               min_errors=2000)

    @pytest.mark.parametrize("cfg", [TestBerExperiment.LANE, LONE], ids=["pairs", "lone"])
    def test_lane_error_reaches_the_caller_and_leaves_no_thread(self, monkeypatch, cfg):
        import threading
        want = run_ber_experiment(cfg).to_csv()
        threads = threading.active_count()

        def fail(noise, rngs, out):
            out[...] = np.nan  # a half-written buffer that must not leak
            raise RuntimeError("draws failed")
        monkeypatch.setattr(harness, "awgn_draws", fail)
        with pytest.raises(RuntimeError, match="draws failed"):
            run_ber_experiment(cfg)
        assert threading.active_count() == threads
        monkeypatch.undo()
        assert run_ber_experiment(cfg).to_csv() == want

    def test_helper_buffers_end_with_the_run(self):
        # Each of the run's two threads keeps two chain buffers of 295 KB at
        # n=128; they end with its thread.
        import tracemalloc
        run_ber_experiment(TestBerExperiment.LANE)  # a warm-up run
        tracemalloc.start()
        try:
            run_ber_experiment(TestBerExperiment.LANE)
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert left < 64 * 1024

    def test_package_import_loads_no_thread_pool(self):
        # the thread pool module loads with the first run that uses it
        import os
        import subprocess
        import sys
        from pathlib import Path
        code = ("import sys, permofdm, permofdm.cli; "
                "print('concurrent.futures.thread' in sys.modules)")
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    # (point, first block) of LANE's first two chunks
    FIRST = [(0, 0), (1, 0)]

    @pytest.mark.parametrize("failing", FIRST, ids=["first", "second"])
    def test_lane_is_joined_when_the_signal_path_raises(self, monkeypatch, failing):
        import threading
        import time
        running, done = threading.local(), []
        together = threading.Barrier(2, timeout=60)  # the two threads reach the channel

        def entry(task, fn=harness._ber_chunk_entry):
            running.block = task[1], task[3]
            return fn(task)

        def channel(*args, fn=harness.apply_channel_stream, **kwargs):
            if running.block in self.FIRST:
                together.wait()
            if running.block == failing:
                raise RuntimeError("channel failed")
            time.sleep(0.05)
            out = fn(*args, **kwargs)
            done.append(running.block)
            return out
        monkeypatch.setattr(harness, "_ber_chunk_entry", entry)
        monkeypatch.setattr(harness, "apply_channel_stream", channel)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="channel failed"):
            run_ber_experiment(TestBerExperiment.LANE)
        # the other of the first two chunks had finished before the run raised
        assert set(self.FIRST) - {failing} <= set(done)
        assert threading.active_count() == threads

    def test_steady_chunk_allocates_little(self):
        # A transpose n=256 block is 69,632 framed samples (1.1 MB each
        # stage); after a warm-up chunk its stages run in the cached buffers.
        import tracemalloc
        cfg = BerExperimentConfig(seed=5, n=256, snr_db=(10.0,), blocks=4)
        try:
            harness._ber_chunk_entry((cfg, 0, 10.0, 0, 1))
            tracemalloc.start()
            try:
                harness._ber_chunk_entry((cfg, 0, 10.0, 1, 2))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            vars(harness._chain_cache).pop("buffers", None)
        assert peak <= 2e6
